//! E3+ — large-scale confirmation of the `O(n log n)` tree protocol.
//!
//! The headline result (Theorem 3) is an asymptotic claim; the main E3
//! grid stops at `n = 16384`. The count engine batches **every**
//! interaction class of the tree protocol's schema — equal-rank dispersal,
//! the buffer epidemic (extra–extra), and the reset/re-enter cross class —
//! and splits each batch's per-class work across a **persistent worker
//! pool** (`SSR_THREADS`, results bit-identical per seed regardless),
//! with the weight state slimmed to block sums over derived leaves and
//! the tree geometry computed implicitly (a constant-size struct instead
//! of seven `O(n)` arrays). Together that pushes the grid to
//! **`n = 2³¹ ≈ 2.1·10⁹` agents in a single run**, with `n = 2³³` behind
//! `SSR_SCALE_MAX_LOG2` (quick mode stops at `n = 16384`); memory stays
//! `O(#states)` with ≈ `1.1n` bytes of weight-tree overhead beyond the
//! `4n`-byte counts — the printed per-component memory model breaks this
//! down per grid top.
//!
//! The smallest grid point is cross-checked against the exact jump engine;
//! both the raw exponent (should hover just above 1) and the log-corrected
//! model `T ≈ c·n·log n` are fitted, and wall-clock, productive
//! interactions and peak RSS are recorded per decade so regressions in
//! batching coverage or memory footprint are visible directly in this
//! table (recorded grids live in `EXPERIMENTS.md`).
//!
//! Run: `cargo run --release -p ssr-bench --bin exp_scale`
//! (full grid: the top point takes tens of minutes per trial; set
//! `SSR_QUICK=1` for a smoke run, `SSR_SCALE_MAX_LOG2=27` to cap the grid,
//! `SSR_THREADS=4` to parallelise each run's batch splits)

// Audited: experiment grids cast small f64 population sizes to usize/u32.
#![allow(clippy::cast_possible_truncation)]

use ssr_analysis::{fit_power_law, fit_power_law_with_polylog, Summary, Table};
use ssr_bench::{format_bytes, peak_rss_bytes, print_header, trials, verdict};
use ssr_core::TreeRanking;
use ssr_engine::{EngineKind, Init, Protocol, Scenario};

/// Above this `n`, only the uniform start is run (a stacked run costs the
/// same again and the uniform medians are what the fit consumes).
const STACKED_MAX_N: usize = 1 << 27;

/// Per-component model of the count engine's resident state for the tree
/// protocol, mirroring the engine's actual layout: occupancy counts
/// (4 B/state), two block-sum trees over derived weight leaves (one `u64`
/// per 64 rank states, heap layout padded to a power of two), the
/// equal-rank rule and live bitsets (one bit each per rank state), the
/// protocol's subtree-ancestor table (8 B per 64 rank states), and the
/// tree geometry. The geometry term
/// is the story of this experiment's scaling history: the original
/// materialised build stored seven `u32` arrays (≈ 28n bytes — more than
/// the counts themselves), PR 5 slimmed the weight state to ≈ 1.1n bytes
/// of block sums, and the implicit tree now answers every geometric query
/// from a constant-size struct.
fn print_memory_model(n: usize) {
    let p = TreeRanking::new(n);
    let states = Protocol::num_states(&p) as u64;
    let blocks = n.div_ceil(64).next_power_of_two() as u64;
    let counts = 4 * states;
    let block_trees = 2 * (2 * blocks * 8); // eq + rank_occ heap layouts
    let bitsets = 2 * (n as u64).div_ceil(64) * 8; // eq rules + eq live
    let ancestors = (n as u64).div_ceil(64) * 8;
    let geometry = std::mem::size_of_val(p.tree()) as u64;
    let materialised = 28 * n as u64;
    println!(
        "memory model at n = {n}: counts {} + weight block sums {} + eq bitsets {} + \
         subtree ancestors {} + tree geometry {geometry} B (a materialised tree would add {}) \
         ≈ {} resident",
        format_bytes(counts),
        format_bytes(block_trees),
        format_bytes(bitsets),
        format_bytes(ancestors),
        format_bytes(materialised),
        format_bytes(counts + block_trees + bitsets + ancestors + geometry),
    );
}

fn main() {
    print_header(
        "E3+: tree protocol at scale (count engine, parallel per-class batching)",
        "Theorem 3's O(n log n) holds across six further decades of n",
    );
    let t = trials(8);
    let threads = ssr_bench::threads();
    let max_log2: u32 = std::env::var("SSR_SCALE_MAX_LOG2")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(30);
    let ns: Vec<f64> = if ssr_bench::quick() {
        vec![1024.0, 4096.0, 16384.0]
    } else {
        // 2³¹ crosses the u64 interaction-clock boundary (the engine
        // counts in u128); 2³³ is the current feasibility frontier —
        // both stay behind SSR_SCALE_MAX_LOG2 (default 30).
        [14u32, 16, 18, 20, 22, 24, 26, 27, 28, 30, 31, 33]
            .iter()
            .filter(|&&log2| log2 <= max_log2)
            .map(|&log2| (1u64 << log2) as f64)
            .collect()
    };

    let mut table = Table::new(vec![
        "n".into(),
        "x (extra)".into(),
        "trials".into(),
        "stacked median".into(),
        "uniform median".into(),
        "median / (n·log₂n) ×10³".into(),
        "productive/trial".into(),
        "wall-clock/trial".into(),
        "peak RSS".into(),
    ]);
    let mut meds = Vec::new();
    for &nf in &ns {
        let n = nf as usize;
        // Construction and per-trial cost both grow with n; thin the trial
        // count at the top of the grid so the full run stays tractable.
        let t_here = if n > 1 << 24 {
            1
        } else if n > 1 << 20 {
            2
        } else {
            t
        };
        let p = TreeRanking::new(n);
        let mut wall = std::time::Duration::ZERO;
        let mut productive = Vec::new();
        let mut runs = 0u32;
        let mut run = |init: Init<'_>, base: u64, productive: &mut Vec<f64>| -> f64 {
            let scenario = Scenario::new(&p)
                .engine(EngineKind::Count)
                .init(init)
                .base_seed(base)
                .threads(threads);
            let times: Vec<f64> = (0..t_here as u64)
                .map(|s| {
                    let start = std::time::Instant::now();
                    let mut sim = scenario.build_engine(s).unwrap();
                    let rep = sim.run_until_silent(u64::MAX).unwrap();
                    wall += start.elapsed();
                    runs += 1;
                    productive.push(rep.productive_interactions as f64);
                    rep.parallel_time
                })
                .collect();
            Summary::of(&times).median
        };
        let stacked = if n <= STACKED_MAX_N {
            format!("{:.0}", run(Init::Stacked, 61_000, &mut Vec::new()))
        } else {
            "—".to_string()
        };
        let uniform = run(Init::Uniform, 62_000, &mut productive);
        meds.push(uniform);
        let norm = uniform / (nf * nf.log2()) * 1e3;
        let per_trial = wall / runs.max(1);
        let prod_median = Summary::of(&productive).median;
        table.add_row(vec![
            n.to_string(),
            p.num_extra_states().to_string(),
            t_here.to_string(),
            stacked,
            format!("{uniform:.0}"),
            format!("{norm:.2}"),
            format!("{prod_median:.3e}"),
            format!("{:.2?}", per_trial),
            peak_rss_bytes().map_or("n/a".into(), format_bytes),
        ]);
    }
    print!("{}", table.render());
    print_memory_model(*ns.last().unwrap() as usize);
    if threads != 1 {
        println!(
            "(per-class batch splits on {} threads; identical results at any thread count)",
            if threads == 0 {
                "all".to_string()
            } else {
                threads.to_string()
            }
        );
    }

    // Cross-check: on the smallest grid point the jump and count engines
    // must report statistically indistinguishable medians.
    {
        let n = ns[0] as usize;
        let p = TreeRanking::new(n);
        let sample = |kind: EngineKind| -> f64 {
            let res = Scenario::new(&p)
                .engine(kind)
                .init(Init::Uniform)
                .trials(t)
                .base_seed(63_000)
                .run();
            Summary::of(&res.parallel_times()).median
        };
        let jump = sample(EngineKind::Jump);
        let count = sample(EngineKind::Count);
        let rel = (jump - count).abs() / jump;
        println!(
            "engine cross-check at n = {n}: jump median {jump:.0}, \
             count median {count:.0} (rel diff {rel:.3})"
        );
    }

    let fit = fit_power_law(&ns, &meds);
    let fit_log = fit_power_law_with_polylog(&ns, &meds, 1.0);
    println!(
        "raw fit: median ≈ {:.3}·n^{:.3} (R² = {:.3})\n\
         log-corrected: median ≈ {:.3}·n^{:.3}·log n (R² = {:.3})",
        fit.constant,
        fit.exponent,
        fit.r_squared,
        fit_log.constant,
        fit_log.exponent,
        fit_log.r_squared
    );
    verdict(
        "E3+ raw exponent (≈1 + log factor)",
        fit.exponent,
        0.95,
        1.25,
    );
    verdict(
        "E3+ log-corrected exponent (≈1)",
        fit_log.exponent,
        0.8,
        1.15,
    );
    println!(
        "a flat final column (median normalised by n·log₂ n) is the direct \
         visual signature of Θ(n log n)."
    );
}
