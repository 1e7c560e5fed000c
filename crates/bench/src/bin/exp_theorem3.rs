//! E3 — Theorem 3: `O(log n)` extra states buy `O(n log n)` time.
//!
//! The tree-of-ranks protocol stabilises in `O(n log n)` whp. We sweep `n`
//! (expect exponent ≈ 1 after removing one log factor), measure the
//! Lemma 21 reset epidemic (`O(log n)` parallel time to sweep every agent
//! out of the tree), and close with the paper's summary table: all four
//! protocols on one population.
//!
//! Run: `cargo run --release -p ssr-bench --bin exp_theorem3`

// Audited: experiment grids cast small f64 population sizes (n <= 2^20) to usize/u32.
#![allow(clippy::cast_possible_truncation)]

use ssr_analysis::regression::fit_power_law_with_polylog;
use ssr_analysis::sweep::{sweep, SweepOptions};
use ssr_analysis::{Summary, Table};
use ssr_bench::{
    grid, mean_parallel_time, print_header, report_sweep, stacked_start, trials, uniform_start,
    verdict,
};
use ssr_core::{GenericRanking, LineOfTraps, RingOfTraps, TreeRanking};
use ssr_engine::engine::FnCountObserver;
use ssr_engine::{init, Engine, Protocol, Simulation};

/// Lemma 21 probe: start from a perfect ranking with one agent replaced by
/// a red `X₁` seed; measure the parallel time until every agent has left
/// the tree (the red epidemic has swept the population).
fn epidemic_time(n: usize, seed: u64) -> f64 {
    let p = TreeRanking::new(n);
    let mut cfg: Vec<u32> = init::perfect_ranking(n);
    cfg[n - 1] = p.x(1);
    let mut sim = Simulation::new(&p, cfg, seed).unwrap();
    let mut swept_at: Option<u128> = None;
    {
        let mut obs = FnCountObserver(|step, _before, _after, _mult, counts: &[u32]| {
            if swept_at.is_none() && counts[..n].iter().all(|&c| c == 0) {
                swept_at = Some(step);
            }
        });
        sim.run_until_silent_observed(u64::MAX, &mut obs).unwrap();
    }
    swept_at.expect("reset must sweep the tree") as f64 / n as f64
}

fn main() {
    print_header(
        "E3: tree of ranks, x = O(log n) (Theorem 3)",
        "silent self-stabilising ranking in O(n log n) whp",
    );
    let t = trials(15);
    let ns = grid(&[256.0, 1024.0, 4096.0, 16384.0], &[256.0, 1024.0]);

    let stacked = sweep(
        &ns,
        |x| TreeRanking::new(x as usize),
        stacked_start,
        &SweepOptions::new(t).with_base_seed(900),
    );
    let e_stacked = report_sweep("tree from stacked (all-at-root) starts", "n", &stacked);

    let random = sweep(
        &ns,
        |x| TreeRanking::new(x as usize),
        uniform_start,
        &SweepOptions::new(t).with_base_seed(1000),
    );
    let e_random = report_sweep("tree from uniform-random starts", "n", &random);
    let corrected = fit_power_law_with_polylog(&random.xs(), &random.medians(), 1.0);
    println!(
        "polylog-corrected fit: median ≈ {:.4}·n^{:.2}·log n (R² = {:.3})",
        corrected.constant, corrected.exponent, corrected.r_squared
    );

    // Lemma 21: reset epidemic is O(log n) parallel time.
    println!("\n[Lemma 21: red-epidemic sweep time (parallel) vs n]");
    let mut table = Table::new(vec![
        "n".into(),
        "mean".into(),
        "max".into(),
        "/log₂n".into(),
    ]);
    let ep_ns = grid(&[128_f64, 512.0, 2048.0, 8192.0], &[128.0, 512.0]);
    for &nf in &ep_ns {
        let n = nf as usize;
        let times: Vec<f64> = (0..trials(8) as u64)
            .map(|s| epidemic_time(n, 7000 + s))
            .collect();
        let s = Summary::of(&times);
        table.add_row(vec![
            n.to_string(),
            format!("{:.1}", s.mean),
            format!("{:.1}", s.max),
            format!("{:.2}", s.mean / (n as f64).log2()),
        ]);
    }
    print!("{}", table.render());
    println!("(a flat last column = Θ(log n) epidemic, as Lemma 21 claims)");

    // Summary table: all four protocols, one population.
    let n_sum = if ssr_bench::quick() { 324 } else { 960 };
    println!("\n[paper summary — all four protocols, n = {n_sum}, uniform-random starts]");
    let mut table = Table::new(vec![
        "protocol".into(),
        "x".into(),
        "theory".into(),
        "mean T".into(),
    ]);
    let g = GenericRanking::new(n_sum);
    let r = RingOfTraps::new(n_sum);
    let l = LineOfTraps::new(n_sum);
    let tr = TreeRanking::new(n_sum);
    let rows: Vec<(&str, usize, &str, f64)> = vec![
        (
            "A_G",
            0,
            "Θ(n²)",
            mean_parallel_time(&g, uniform_start, t, 1),
        ),
        (
            "ring",
            0,
            "O(n²log²n)",
            mean_parallel_time(&r, uniform_start, t, 2),
        ),
        (
            "line",
            1,
            "O(n^1.75log²n)",
            mean_parallel_time(&l, uniform_start, t, 3),
        ),
        ("tree", Protocol::num_extra_states(&tr), "O(n log n)", {
            mean_parallel_time(&tr, uniform_start, t, 4)
        }),
    ];
    for (name, x, theory, time) in rows {
        table.add_row(vec![
            name.into(),
            x.to_string(),
            theory.into(),
            format!("{time:.0}"),
        ]);
    }
    print!("{}", table.render());

    println!();
    verdict(
        "tree stacked exponent (theory 1 + log)",
        e_stacked,
        0.85,
        1.35,
    );
    verdict(
        "tree random exponent (theory 1 + log)",
        e_random,
        0.85,
        1.35,
    );
}
