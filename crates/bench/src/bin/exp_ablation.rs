//! A1–A3 — ablations of the design choices DESIGN.md calls out.
//!
//! * **A1 — ring trap count**: Theorem 1's construction uses `m ≈ √n`
//!   traps of size `≈ √n`. Sweeping the trap count at fixed `n` between
//!   the extremes (1 trap of size n … n traps of size 1 ≡ `A_G`) shows
//!   why the balanced √n split is the right shape.
//! * **A2 — line routing topology**: §4.2 routes `X`-agents over the
//!   cubic graph `G` with diameter `O(log m)`. Replacing it with
//!   next-line (diameter `Θ(m²)`) or self-loop routing degrades
//!   stabilisation, demonstrating that the graph is load-bearing.
//! * **A3 — tree buffer length**: §5 sizes the red/green buffer line at
//!   `2k = O(log n)` so the Lemma 21 epidemic fully separates reset
//!   phases. Shorter buffers still stabilise (stability is scheduling-
//!   independent) but mix red and green phases and pay for it in time.
//!
//! Run: `cargo run --release -p ssr-bench --bin exp_ablation`

// Audited: experiment grids cast small f64 population sizes to usize/u32.
#![allow(clippy::cast_possible_truncation)]

use ssr_analysis::{Summary, Table};
use ssr_bench::{print_header, stacked_start, trials, uniform_start};
use ssr_core::line::{LineOfTraps, RoutingMode};
use ssr_core::ring::RingOfTraps;
use ssr_core::tree::TreeRanking;
use ssr_engine::State;
use ssr_engine::{Init, Scenario};

/// Measure with an interaction cap; timed-out trials count against the
/// success rate (degraded designs are *expected* to blow the budget).
fn measure_from<P, F>(
    p: &P,
    make: F,
    t: usize,
    seed: u64,
    max_interactions: u64,
) -> (Option<Summary>, f64)
where
    P: ssr_engine::InteractionSchema + Sync,
    F: Fn(&P, u64) -> Vec<State> + Sync,
{
    let make = |s| make(p, s);
    let res = Scenario::new(p)
        .init(Init::Custom(&make))
        .trials(t)
        .base_seed(seed)
        .max_interactions(max_interactions)
        .run();
    let times = res.parallel_times();
    let summary = if times.is_empty() {
        None
    } else {
        Some(Summary::of(&times))
    };
    (summary, res.success_rate())
}

fn measure<P: ssr_engine::InteractionSchema + Sync>(
    p: &P,
    t: usize,
    seed: u64,
    max_interactions: u64,
) -> (Option<Summary>, f64) {
    measure_from(p, |p, s| uniform_start(p, s), t, seed, max_interactions)
}

fn fmt_opt(s: &Option<Summary>, f: impl Fn(&Summary) -> f64) -> String {
    match s {
        Some(s) => format!("{:.0}", f(s)),
        None => "timeout".to_string(),
    }
}

fn main() {
    let t = trials(10);

    print_header(
        "A1: ring-of-traps trap count (fixed n, vary m)",
        "the √n-balanced ring is the designed operating point; m = n \
         degenerates to A_G",
    );
    let n = if ssr_bench::quick() { 240 } else { 506 };
    let mut table = Table::new(vec![
        "traps m".into(),
        "trap size".into(),
        "median T".into(),
        "max T".into(),
    ]);
    let sqrt_m = RingOfTraps::new(n).num_traps();
    let mut candidates = vec![1usize, 2, sqrt_m / 2, sqrt_m, sqrt_m * 2, n / 4, n];
    candidates.dedup();
    for m in candidates {
        if m == 0 || m > n {
            continue;
        }
        let p = RingOfTraps::with_traps(n, m);
        let (s, _ok) = measure(&p, t, 9000 + m as u64, u64::MAX);
        let s = s.expect("ring trials always stabilise");
        table.add_row(vec![
            m.to_string(),
            format!("~{}", n / m),
            format!("{:.0}", s.median),
            format!("{:.0}", s.max),
        ]);
    }
    print!("{}", table.render());
    println!("(m = {sqrt_m} is the designed √n point; m = n reproduces A_G)");

    println!();
    print_header(
        "A2: line-of-traps routing topology",
        "the cubic graph G (diameter O(log m)) vs degraded routings, from \
         the concentrated adversarial start (all agents stacked in line 0)",
    );
    let n = if ssr_bench::quick() { 144 } else { 324 };
    let mut table = Table::new(vec![
        "routing".into(),
        "median T".into(),
        "max T".into(),
        "vs G".into(),
        "ok".into(),
    ]);
    let mut base = f64::NAN;
    // Degraded routings can be non-terminating from this start (self-loop
    // routing churns at ~80% productive interactions forever); measure the
    // designed topology first, then cap degraded trials at 5x its median
    // interaction budget with a reduced trial count — a timeout IS the
    // ablation's finding.
    let mut cap = u64::MAX;
    for (name, mode) in [
        ("cubic graph G", RoutingMode::CubicGraph),
        ("next line", RoutingMode::NextLine),
        ("self loop", RoutingMode::SelfLoop),
    ] {
        let p = LineOfTraps::new(n).with_routing(mode);
        // Stacked start: every agent in state 0 (line 0). Self-loop
        // routing can never feed the other lines from here — the paper's
        // graph is what makes recovery from concentrated configurations
        // possible at all.
        let trials_here = if cap == u64::MAX { t } else { t.min(3) };
        let (s, ok) = measure_from(&p, stacked_start, trials_here, 9100, cap);
        if base.is_nan() {
            base = s.as_ref().map(|s| s.median).unwrap_or(f64::NAN);
            cap = (base * n as f64 * 5.0) as u64;
        }
        let ratio = s
            .as_ref()
            .map(|s| format!("{:.2}x", s.median / base))
            .unwrap_or_else(|| ">cap".into());
        table.add_row(vec![
            name.into(),
            fmt_opt(&s, |s| s.median),
            fmt_opt(&s, |s| s.max),
            ratio,
            format!("{:.0}%", ok * 100.0),
        ]);
    }
    print!("{}", table.render());
    println!(
        "(n = {n}; self-loop routing cannot reach initially-empty lines, so \
         it must time out; next-line spreads but with Θ(m²) diameter)"
    );

    println!();
    print_header(
        "A3: tree-of-ranks buffer length 2k",
        "the O(log n) red/green buffer separates reset phases; k below \
         log n mixes phases and slows stabilisation",
    );
    let n = if ssr_bench::quick() { 512 } else { 2048 };
    let default_k = TreeRanking::new(n).buffer_half();
    let mut table = Table::new(vec![
        "k".into(),
        "extra states".into(),
        "median T".into(),
        "ok".into(),
    ]);
    // Measure the default first, then cap tiny buffers at 200x its median
    // interaction budget (mixing red/green phases can be pathologically
    // slow; a timeout is itself the ablation's finding).
    let mut rows: Vec<(usize, Option<Summary>, f64)> = Vec::new();
    let (s_def, ok_def) = {
        let p = TreeRanking::with_buffer(n, default_k);
        measure(&p, t, 9200, u64::MAX)
    };
    let cap = (s_def.as_ref().expect("default stabilises").median * n as f64 * 20.0) as u64;
    rows.push((default_k, s_def, ok_def));
    for k in [1usize, 2, default_k / 2, default_k * 2] {
        if k == 0 || k == default_k {
            continue;
        }
        let p = TreeRanking::with_buffer(n, k);
        let (s, ok) = measure(&p, t.min(4), 9200 + k as u64, cap);
        rows.push((k, s, ok));
    }
    rows.sort_by_key(|&(k, _, _)| k);
    for (k, s, ok) in rows {
        table.add_row(vec![
            format!("{k}{}", if k == default_k { " (default)" } else { "" }),
            (2 * k).to_string(),
            fmt_opt(&s, |s| s.median),
            format!("{:.0}%", ok * 100.0),
        ]);
    }
    print!("{}", table.render());
    println!("(n = {n}; default k = 2⌈log₂ n⌉ = {default_k})");
}
