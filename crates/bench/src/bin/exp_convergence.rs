//! C1 — convergence traces: distance-to-ranking over time.
//!
//! Complements the endpoint tables with the full trajectory shape: for
//! each protocol we record the number of *missing rank states* (the
//! paper's distance `k`) at exponentially spaced checkpoints of one run,
//! plus the line protocol's token count `r(C)` (which Lemmas 14–18 argue
//! decays geometrically after an initial phase) and the ring's weight
//! `K = k₁ + 2k₂` (non-increasing by Lemma 3).
//!
//! Run: `cargo run --release -p ssr-bench --bin exp_convergence`

// Audited: experiment grids cast small f64 population sizes to usize/u32.
#![allow(clippy::cast_possible_truncation)]

use ssr_analysis::Table;
use ssr_bench::print_header;
use ssr_core::{GenericRanking, LineOfTraps, RingOfTraps, TreeRanking};
use ssr_engine::{init, Engine, Init, Protocol, Simulation};

/// Distance trace of one naive-simulation run at multiplicative
/// checkpoints; returns (parallel time, metric) pairs.
fn trace<P: Protocol, M: Fn(&[u32]) -> u64>(
    p: &P,
    start: Vec<u32>,
    seed: u64,
    metric: M,
    max_parallel: f64,
) -> Vec<(f64, u64)> {
    let n = p.population_size();
    let mut sim = Simulation::new(p, start, seed).unwrap();
    let mut out = vec![(0.0, metric(sim.counts()))];
    let mut checkpoint = (n as u64).max(16);
    while !sim.is_silent() && sim.parallel_time() < max_parallel {
        let budget = checkpoint.saturating_sub(sim.interactions());
        sim.run_for(budget);
        out.push((sim.parallel_time(), metric(sim.counts())));
        checkpoint *= 2;
    }
    out
}

fn sparkline(values: &[u64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = *values.iter().max().unwrap_or(&1) as f64;
    values
        .iter()
        .map(|&v| {
            if max == 0.0 {
                BARS[0]
            } else {
                BARS[((v as f64 / max * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

fn main() {
    print_header(
        "C1: convergence traces",
        "distance-to-ranking decays monotonically; ring weight K and line \
         tokens r(C) decay as the lemmas predict",
    );
    let n = if ssr_bench::quick() { 324 } else { 960 };
    let num_ranks = n;

    println!("\n[distance k(t) = missing rank states, one run each, n = {n}]");
    let mut table = Table::new(vec![
        "protocol".into(),
        "trace (exponential checkpoints)".into(),
        "final T".into(),
    ]);

    let missing = move |counts: &[u32]| -> u64 {
        counts[..num_ranks].iter().filter(|&&c| c == 0).count() as u64
    };

    let generic = GenericRanking::new(n);
    let tr = trace(
        &generic,
        Init::Uniform.config(&generic, 1),
        11,
        missing,
        1e9,
    );
    table.add_row(vec![
        "A_G".into(),
        sparkline(&tr.iter().map(|&(_, v)| v).collect::<Vec<_>>()),
        format!("{:.0}", tr.last().unwrap().0),
    ]);

    let ring = RingOfTraps::new(n);
    let tr = trace(&ring, Init::Uniform.config(&ring, 2), 12, missing, 1e9);
    table.add_row(vec![
        "ring".into(),
        sparkline(&tr.iter().map(|&(_, v)| v).collect::<Vec<_>>()),
        format!("{:.0}", tr.last().unwrap().0),
    ]);

    let line = LineOfTraps::new(n);
    let tr = trace(&line, Init::Uniform.config(&line, 3), 13, missing, 1e9);
    table.add_row(vec![
        "line".into(),
        sparkline(&tr.iter().map(|&(_, v)| v).collect::<Vec<_>>()),
        format!("{:.0}", tr.last().unwrap().0),
    ]);

    let tree = TreeRanking::new(n);
    let tr = trace(&tree, Init::Uniform.config(&tree, 4), 14, missing, 1e9);
    table.add_row(vec![
        "tree".into(),
        sparkline(&tr.iter().map(|&(_, v)| v).collect::<Vec<_>>()),
        format!("{:.0}", tr.last().unwrap().0),
    ]);
    print!("{}", table.render());

    // Ring: weight K along the run (Lemma 3 — non-increasing once tidy).
    println!("\n[ring weight K = k₁ + 2k₂ along one run]");
    let ring2 = RingOfTraps::new(n);
    let ring_ref = &ring2;
    let tr = trace(
        ring_ref,
        Init::Uniform.config(ring_ref, 5),
        15,
        move |c| ring_ref.weight_k(c),
        1e9,
    );
    let mut table = Table::new(vec!["parallel time".into(), "K".into()]);
    for (t, k) in &tr {
        table.add_row(vec![format!("{t:.0}"), k.to_string()]);
    }
    print!("{}", table.render());

    // Line: token count r(C) along the run (Lemmas 14–18 — geometric
    // decay after the initial phase).
    println!("\n[line token count r(C) along one run]");
    let line2 = LineOfTraps::new(n);
    let line_ref = &line2;
    let tr = trace(
        line_ref,
        init::all_in(n, line_ref.x_state()),
        16,
        move |c| line_ref.tokens(c),
        1e9,
    );
    let mut table = Table::new(vec!["parallel time".into(), "r(C)".into()]);
    for (t, r) in &tr {
        table.add_row(vec![format!("{t:.0}"), r.to_string()]);
    }
    print!("{}", table.render());
    println!(
        "\nall three metrics decay to 0 — the monotone shapes the paper's \
         potential arguments (Lemma 3, Lemmas 14–18) rely on."
    );
}
