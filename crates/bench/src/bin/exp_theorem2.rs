//! E2 — Theorem 2: one extra state (`x = 1`) buys `o(n²)`.
//!
//! The line-of-traps protocol self-stabilises in `O(n^{7/4} log² n)` whp
//! from arbitrary initial configurations. We sweep `n` over exact
//! construction sizes `3m³(m+1)`, fit the raw and polylog-corrected
//! exponents, and compare against the `Θ(n²)` baseline `A_G` on identical
//! starts — the paper's headline is that the ratio `T_line / T_AG`
//! *shrinks* as `n` grows.
//!
//! Run: `cargo run --release -p ssr-bench --bin exp_theorem2`

// Audited: experiment grids cast small f64 population sizes (n <= 2^20) to usize/u32.
#![allow(clippy::cast_possible_truncation)]

use ssr_analysis::regression::fit_power_law_with_polylog;
use ssr_analysis::sweep::{sweep, SweepOptions};
use ssr_bench::{grid, print_header, report_sweep, trials, verdict};
use ssr_core::generic::GenericRanking;
use ssr_core::line::LineOfTraps;
use ssr_engine::Init;

fn main() {
    print_header(
        "E2: line of traps, x = 1 (Theorem 2)",
        "self-stabilising ranking in O(n^{7/4} log² n) = o(n²) whp",
    );
    let t = trials(12);
    // Exact construction sizes 3m³(m+1) for m = 2..6, so every line is a
    // clean (m², 3m, m+1) system.
    let ns = grid(&[72.0, 324.0, 960.0, 2250.0, 4536.0], &[72.0, 324.0, 960.0]);

    let line = sweep(
        &ns,
        |x| LineOfTraps::new(x as usize),
        Init::Uniform,
        &SweepOptions::new(t).with_base_seed(700),
    );
    let e_raw = report_sweep("line of traps from uniform-random starts", "n", &line);
    let corrected = fit_power_law_with_polylog(&line.xs(), &line.medians(), 2.0);
    println!(
        "polylog-corrected fit: median ≈ {:.4}·n^{:.2}·log²n (R² = {:.3})",
        corrected.constant, corrected.exponent, corrected.r_squared
    );

    let base = sweep(
        &ns,
        |x| GenericRanking::new(x as usize),
        Init::Uniform,
        &SweepOptions::new(t).with_base_seed(800),
    );
    let e_ag = report_sweep("A_G baseline on the same sizes", "n", &base);

    println!("\n[ratio T_line / T_AG — must shrink with n]");
    let mut table = ssr_analysis::Table::new(vec!["n".into(), "ratio".into()]);
    let mut first = f64::NAN;
    let mut last = f64::NAN;
    for (l, b) in line.rows.iter().zip(&base.rows) {
        let ratio = l.median / b.median;
        if first.is_nan() {
            first = ratio;
        }
        last = ratio;
        table.add_row(vec![format!("{}", l.x as usize), format!("{ratio:.3}")]);
    }
    print!("{}", table.render());

    println!();
    verdict("line raw exponent (theory 1.75 + polylog)", e_raw, 1.5, 2.1);
    verdict("A_G exponent (theory 2)", e_ag, 1.7, 2.3);
    println!(
        "VERDICT crossover: ratio falls from {first:.2} to {last:.2} → {}",
        if last < first {
            "line protocol wins asymptotically (MATCHES)"
        } else {
            "CHECK"
        }
    );
}
