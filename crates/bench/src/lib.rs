//! # ssr-bench — experiment harness
//!
//! Shared helpers for the experiment binaries in `src/bin/`, each of which
//! regenerates one of the paper's tables or figures (see EXPERIMENTS.md
//! for the recorded results):
//!
//! | Binary | Paper artefact |
//! |--------|----------------|
//! | `exp_baseline` | E0 — `Θ(n²)` generic protocol `A_G` |
//! | `exp_theorem1` | E1 — ring of traps, `O(min(k·n^{3/2}, n² log² n))` |
//! | `exp_theorem2` | E2 — line of traps, `O(n^{7/4} log² n)` with `x = 1` |
//! | `exp_theorem3` | E3 — tree of ranks, `O(n log n)` with `x = O(log n)` |
//! | `exp_lemma1`   | L1/L2 — trap release and tidiness timing |
//! | `exp_figures`  | F1/F2 — routing graph `G` and the tree of ranks |
//! | `exp_loose`    | EL — loose stabilisation trade-off (related work) |
//! | `exp_scale`    | E3+ — Theorem 3 across two more decades of `n` |
//! | `exp_ablation` | A1–A3 — ring trap count, line routing, tree buffer |
//! | `exp_adversary` | AD — timed fault plans, churn and Byzantine agents |
//! | `exp_convergence` | C1 — distance-to-ranking traces of single runs |
//! | `exp_service`  | SV — job daemon: queue, cache, kill/resume |
//!
//! Set `SSR_QUICK=1` to shrink grids for smoke runs. Criterion micro
//! benches live in `benches/`.

use ssr_analysis::sweep::SweepResult;
use ssr_engine::protocol::InteractionSchema;
use ssr_engine::Init;

/// True when `SSR_QUICK` is set: experiment binaries shrink their grids.
pub fn quick() -> bool {
    std::env::var_os("SSR_QUICK").is_some()
}

/// Worker threads requested via `SSR_THREADS` (0 = auto, the default) —
/// passed through to [`Scenario::threads`](ssr_engine::Scenario::threads)
/// by the experiment binaries. Results are seed-deterministic regardless.
pub fn threads() -> usize {
    std::env::var("SSR_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Peak resident-set size of this process in bytes (Linux `VmHWM`), if
/// the platform exposes it. Monotonic over the process lifetime — in a
/// grid that grows `n`, the value after the largest point is the number
/// that matters.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// Human-readable byte count (binary units).
pub fn format_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = bytes as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit + 1 < UNITS.len() {
        v /= 1024.0;
        unit += 1;
    }
    format!("{v:.1} {}", UNITS[unit])
}

/// Pick `full` or `short` grid depending on [`quick`].
pub fn grid(full: &[f64], short: &[f64]) -> Vec<f64> {
    if quick() {
        short.to_vec()
    } else {
        full.to_vec()
    }
}

/// Trials per grid point, halved (min 4) in quick mode.
pub fn trials(full: usize) -> usize {
    if quick() {
        (full / 2).max(4)
    } else {
        full
    }
}

/// Banner for one experiment.
pub fn print_header(id: &str, claim: &str) {
    println!("==============================================================");
    println!("{id}");
    println!("paper claim: {claim}");
    println!("==============================================================");
}

/// Print a sweep with its power-law fit and return the fitted exponent.
pub fn report_sweep(label: &str, x_name: &str, res: &SweepResult) -> f64 {
    println!("\n[{label}]");
    print!("{}", res.to_table(x_name).render());
    if res.rows.len() >= 2 && res.rows.iter().all(|r| r.median > 0.0) {
        let fit = res.fit_median();
        println!(
            "power-law fit: median ≈ {:.3} · {x_name}^{:.2}   (R² = {:.3})",
            fit.constant, fit.exponent, fit.r_squared
        );
        fit.exponent
    } else {
        println!("power-law fit: skipped (insufficient successful points)");
        f64::NAN
    }
}

/// Verdict line comparing a fitted exponent against the theory.
pub fn verdict(what: &str, measured: f64, lo: f64, hi: f64) {
    let ok = measured.is_finite() && measured >= lo && measured <= hi;
    println!(
        "VERDICT {}: exponent {measured:.2} vs theory window [{lo:.2}, {hi:.2}] → {}",
        what,
        if ok { "MATCHES" } else { "CHECK" }
    );
}

/// Convenience: mean stabilisation parallel time over `trials` runs from
/// `init` starts, with automatic engine selection by `n`.
pub fn mean_parallel_time<P>(p: &P, init: Init<'_>, n_trials: usize, base_seed: u64) -> f64
where
    P: InteractionSchema + Sync,
{
    let res = ssr_engine::Scenario::new(p)
        .init(init)
        .trials(n_trials)
        .base_seed(base_seed)
        .run();
    let times = res.parallel_times();
    times.iter().sum::<f64>() / times.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_core::generic::GenericRanking;

    #[test]
    fn grid_respects_quick() {
        // quick() depends on the environment; exercise both code paths
        // through the helper with explicit data.
        let full = [1.0, 2.0, 3.0];
        let short = [1.0];
        let g = grid(&full, &short);
        assert!(g == full.to_vec() || g == short.to_vec());
    }

    #[test]
    fn mean_time_positive_for_stacked_ag() {
        let p = GenericRanking::new(12);
        let t = mean_parallel_time(&p, Init::Stacked, 4, 3);
        assert!(t > 0.0);
    }
}
