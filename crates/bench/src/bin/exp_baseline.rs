//! E0 — the `Θ(n²)` baseline: generic state-optimal protocol `A_G`.
//!
//! Regenerates the scaling table behind the paper's framing claim that the
//! only previously known state-optimal self-stabilising ranking protocol
//! stabilises in `Θ(n²)` parallel time whp, from both adversarial
//! (stacked) and arbitrary (uniform-random) starts.
//!
//! The second half (E0+) re-measures the law through the count-based
//! batched engine, which pushes the grid two decades past what per-step
//! simulation can reach, and records the per-engine wall-clock at a common
//! size so the speedup is visible in the log.
//!
//! Run: `cargo run --release -p ssr-bench --bin exp_baseline`

// Audited: experiment grids cast small f64 population sizes (n <= 2^20) to usize/u32.
#![allow(clippy::cast_possible_truncation)]

use ssr_analysis::sweep::{sweep, SweepOptions};
use ssr_analysis::{fit_power_law, Summary, Table};
use ssr_bench::{grid, print_header, report_sweep, trials, verdict};
use ssr_core::generic::GenericRanking;
use ssr_engine::{EngineKind, Init, Scenario};

fn main() {
    print_header(
        "E0: generic protocol A_G",
        "silent self-stabilising ranking in Θ(n²) parallel time whp",
    );
    let ns = grid(&[64.0, 128.0, 256.0, 512.0, 1024.0], &[64.0, 128.0, 256.0]);
    let t = trials(15);

    let stacked = sweep(
        &ns,
        |x| GenericRanking::new(x as usize),
        Init::Stacked,
        &SweepOptions::new(t).with_base_seed(100),
    );
    let e1 = report_sweep(
        "A_G from stacked start (all agents in rank 0)",
        "n",
        &stacked,
    );

    let random = sweep(
        &ns,
        |x| GenericRanking::new(x as usize),
        Init::Uniform,
        &SweepOptions::new(t).with_base_seed(200),
    );
    let e2 = report_sweep("A_G from uniform-random starts", "n", &random);

    println!();
    verdict("A_G stacked", e1, 1.7, 2.3);
    verdict("A_G random", e2, 1.7, 2.3);

    // ---------------------------------------------------------------
    // E0+ — engine comparison and the count-engine decades.
    // ---------------------------------------------------------------
    println!();
    print_header(
        "E0+: A_G through the engine hierarchy",
        "the count engine extends the Θ(n²) grid two decades past per-step simulation",
    );

    // Wall-clock per engine at a common size (naive included only in full
    // mode; it needs Θ(n³) raw interactions).
    let n_cmp = 512;
    let p = GenericRanking::new(n_cmp);
    let cmp_trials = trials(6) as u64;
    let mut cmp = Table::new(vec![
        "engine".into(),
        "median parallel time".into(),
        "wall-clock/trial".into(),
    ]);
    let kinds: &[EngineKind] = if ssr_bench::quick() {
        &[EngineKind::Jump, EngineKind::Count]
    } else {
        &[EngineKind::Naive, EngineKind::Jump, EngineKind::Count]
    };
    for &kind in kinds {
        let scenario = Scenario::new(&p)
            .engine(kind)
            .init(Init::Stacked)
            .base_seed(300);
        let start = std::time::Instant::now();
        let times: Vec<f64> = (0..cmp_trials)
            .map(|s| scenario.run_one(s).unwrap().parallel_time)
            .collect();
        let wall = start.elapsed() / cmp_trials as u32;
        cmp.add_row(vec![
            kind.name().into(),
            format!("{:.0}", Summary::of(&times).median),
            format!("{wall:.2?}"),
        ]);
    }
    println!("\n[engine wall-clock at n = {n_cmp}, stacked start]");
    print!("{}", cmp.render());

    // Count-engine extension of the Θ(n²) law.
    let ext_ns: Vec<f64> = if ssr_bench::quick() {
        vec![512.0, 1024.0, 2048.0]
    } else {
        vec![2048.0, 4096.0, 8192.0, 16384.0]
    };
    let ext_trials = trials(6).max(3);
    let mut ext = Table::new(vec![
        "n".into(),
        "median parallel time".into(),
        "median / n² ×10³".into(),
        "wall-clock/trial".into(),
    ]);
    let mut meds = Vec::new();
    for &nf in &ext_ns {
        let n = nf as usize;
        let p = GenericRanking::new(n);
        let t_here = if n >= 8192 { 3 } else { ext_trials };
        let scenario = Scenario::new(&p)
            .engine(EngineKind::Count)
            .init(Init::Stacked)
            .base_seed(400);
        let start = std::time::Instant::now();
        let times: Vec<f64> = (0..t_here as u64)
            .map(|s| scenario.run_one(s).unwrap().parallel_time)
            .collect();
        let wall = start.elapsed() / t_here as u32;
        let med = Summary::of(&times).median;
        meds.push(med);
        ext.add_row(vec![
            n.to_string(),
            format!("{med:.0}"),
            format!("{:.2}", med / (nf * nf) * 1e3),
            format!("{wall:.2?}"),
        ]);
    }
    println!("\n[A_G through the count engine, stacked start]");
    print!("{}", ext.render());
    let fit = fit_power_law(&ext_ns, &meds);
    println!(
        "count-engine fit: median ≈ {:.3}·n^{:.2} (R² = {:.3})",
        fit.constant, fit.exponent, fit.r_squared
    );
    verdict("A_G count-engine decades", fit.exponent, 1.7, 2.3);
}
