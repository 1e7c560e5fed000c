//! AD — the adversary subsystem under timed fault plans.
//!
//! Self-stabilisation proofs quantify over a *single* adversarial start;
//! the adversary subsystem stresses the operational superset: bursts in
//! the middle of a run, continuous background corruption, replacement
//! churn, and Byzantine agents that never update. Two questions:
//!
//! 1. **Recovery vs burst size** — inject a burst of `f` faults into a
//!    long-silent ring population at a fixed clock time and measure the
//!    recovery-time distribution per burst size, on the jump engine and
//!    the count engine **under the identical fault schedule**. The two
//!    engines simulate the same stochastic process, so their recovery
//!    distributions must agree (KS test), the per-trial fault schedules
//!    must match exactly, and recovery should scale like Theorem 1's
//!    `O(k·n^{3/2})` with `k ≤ f`.
//! 2. **Availability under persistent adversaries** — run a ring
//!    population from a perfect start under background corruption rates
//!    and Byzantine contingents for a fixed horizon and report the
//!    steady-state observables of the [`RunOutcome`]: time-weighted
//!    availability (fraction of interaction time with a correct ranking
//!    prefix), mean/max `k`-distance excursion, and event counts. Runs
//!    that never silence terminate gracefully at the horizon instead of
//!    erroring.
//!
//! Run: `cargo run --release -p ssr-bench --bin exp_adversary`

use ssr_analysis::{ks_two_sample, Summary, Table};
use ssr_bench::{print_header, threads, trials, verdict};
use ssr_core::RingOfTraps;
use ssr_engine::{EngineKind, FaultPlan, Init, RunOutcome, Scenario};

/// Run `n_trials` of `plan` against the ring protocol on a forced engine,
/// returning the per-trial outcomes.
fn outcomes(
    p: &RingOfTraps,
    kind: EngineKind,
    plan: &FaultPlan,
    n_trials: usize,
    base_seed: u64,
    max: u64,
) -> Vec<RunOutcome> {
    Scenario::new(p)
        .engine(kind)
        .init(Init::Perfect)
        .fault_plan(plan.clone())
        .trials(n_trials)
        .base_seed(base_seed)
        .max_interactions(max)
        .threads(threads())
        .run_outcomes()
}

fn main() {
    print_header(
        "AD: timed fault plans, churn, Byzantine agents",
        "identical fault schedules on every engine; recovery O(k·n^{3/2}); \
         graceful availability reporting when silence is unreachable",
    );
    let quick = ssr_bench::quick();
    let t = trials(30);

    // (1) Recovery-time distribution vs burst size, jump vs count.
    let n = if quick { 240 } else { 1056 };
    let p = RingOfTraps::new(n);
    let burst_time = 20 * n as u128;
    let sizes: Vec<u32> = if quick {
        vec![1, 8]
    } else {
        vec![1, 4, 16, 64]
    };
    println!(
        "\n[ring of traps, n = {n}: burst of f faults at t = {burst_time}, \
         recovery parallel time, jump vs count]"
    );
    let mut table = Table::new(vec![
        "f".into(),
        "mean k".into(),
        "jump median T".into(),
        "jump p95 T".into(),
        "count median T".into(),
        "count p95 T".into(),
        "KS p".into(),
    ]);
    let mut schedules_match = true;
    let mut ks_ps = Vec::new();
    let mut medians = Vec::new();
    for &f in &sizes {
        let plan = FaultPlan::new().burst_at(burst_time, f);
        let jump = outcomes(&p, EngineKind::Jump, &plan, t, 21_000 + f as u64, u64::MAX);
        let count = outcomes(&p, EngineKind::Count, &plan, t, 21_000 + f as u64, u64::MAX);
        // The fault process draws from its own seeded stream, so both
        // engines must see the identical schedule and identical damage.
        for (j, c) in jump.iter().zip(&count) {
            schedules_match &= j.faults_injected == c.faults_injected
                && j.bursts.len() == 1
                && c.bursts.len() == 1
                && j.bursts[0].k_after == c.bursts[0].k_after;
        }
        let recovery = |outs: &[RunOutcome]| -> Vec<f64> {
            outs.iter()
                .map(|o| o.bursts[0].recovery.expect("unbounded run recovers") as f64 / n as f64)
                .collect()
        };
        let (jt, ct) = (recovery(&jump), recovery(&count));
        let mean_k = jump.iter().map(|o| o.bursts[0].k_after).sum::<usize>() as f64 / t as f64;
        let (js, cs) = (Summary::of(&jt), Summary::of(&ct));
        let ks = ks_two_sample(&jt, &ct);
        ks_ps.push(ks.p_value);
        medians.push(js.median);
        table.add_row(vec![
            f.to_string(),
            format!("{mean_k:.1}"),
            format!("{:.0}", js.median),
            format!("{:.0}", js.p95),
            format!("{:.0}", cs.median),
            format!("{:.0}", cs.p95),
            format!("{:.3}", ks.p_value),
        ]);
    }
    print!("{}", table.render());
    println!(
        "fault schedules identical across engines in every trial: {}",
        if schedules_match { "yes" } else { "NO" }
    );
    // Schedule identity is exact determinism, not statistics: a mismatch
    // is a bug, so fail hard (this binary doubles as a CI smoke run).
    assert!(
        schedules_match,
        "fault plans must produce identical schedules on every engine"
    );
    let min_p = ks_ps.iter().cloned().fold(f64::INFINITY, f64::min);
    verdict(
        "AD cross-engine recovery distributions (min KS p ≥ 0.05)",
        if min_p >= 0.05 { 1.0 } else { 0.0 },
        1.0,
        1.0,
    );
    let growth = medians.last().unwrap() / medians[0];
    println!(
        "median recovery grows {growth:.1}× from f = {} to f = {} \
         (k-linear ceiling would allow {:.0}×)",
        sizes[0],
        sizes.last().unwrap(),
        *sizes.last().unwrap() as f64 / sizes[0] as f64
    );

    // (2) Availability under persistent adversaries at a fixed horizon.
    let n = if quick { 128 } else { 506 };
    let p = RingOfTraps::new(n);
    let horizon_pt = if quick { 500 } else { 2000 };
    let max = (horizon_pt * n) as u64;
    let t2 = trials(8);
    println!(
        "\n[ring of traps, n = {n}, horizon = {horizon_pt}·n interactions: \
         steady-state observables from a perfect start]"
    );
    let mut table = Table::new(vec![
        "plan".into(),
        "silent".into(),
        "avail".into(),
        "mean k".into(),
        "max k".into(),
        "faults".into(),
        "churn".into(),
    ]);
    let rate = 1.0 / (300.0 * n as f64);
    let plans: Vec<(String, FaultPlan)> = vec![
        ("none".into(), FaultPlan::new()),
        (format!("rate {rate:.1e}"), FaultPlan::new().rate(rate)),
        (
            format!("rate {:.1e}", rate * 10.0),
            FaultPlan::new().rate(rate * 10.0),
        ),
        (format!("churn {rate:.1e}"), FaultPlan::new().churn(rate)),
        ("byz 4".into(), FaultPlan::new().byzantine(4)),
        (
            format!("byz 4 + rate {rate:.1e}"),
            FaultPlan::new().byzantine(4).rate(rate),
        ),
    ];
    for (label, plan) in &plans {
        let outs = outcomes(&p, EngineKind::Auto, plan, t2, 31_000, max);
        let silent = outs.iter().filter(|o| o.silent).count();
        let avail = outs.iter().map(|o| o.availability).sum::<f64>() / t2 as f64;
        let mean_k = outs.iter().map(|o| o.mean_k).sum::<f64>() / t2 as f64;
        let max_k = outs.iter().map(|o| o.max_k).max().unwrap_or(0);
        let faults = outs.iter().map(|o| o.faults_injected).sum::<u64>() / t2 as u64;
        let churn = outs.iter().map(|o| o.churn_events).sum::<u64>() / t2 as u64;
        table.add_row(vec![
            label.clone(),
            format!("{silent}/{t2}"),
            format!("{avail:.4}"),
            format!("{mean_k:.2}"),
            max_k.to_string(),
            faults.to_string(),
            churn.to_string(),
        ]);
    }
    print!("{}", table.render());
    println!(
        "expected shape: availability 1.0 with no plan, degrading with the \
         corruption rate (each fault costs ~k·n^{{1/2}} parallel time of \
         downtime); Byzantine agents holding correct ranks are harmless \
         from a perfect start until background corruption displaces the \
         population around them; every non-convergent run above terminated \
         gracefully with a RunOutcome instead of a timeout error"
    );
}
