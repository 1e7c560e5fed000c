//! Executable checks of the paper's Facts and Lemmas, across crates.

// Audited: tests cast tiny bounded f64/u64 values (n <= 10^4) to usize/u32.
#![allow(clippy::cast_possible_truncation)]

use ssr::engine::engine::FnCountObserver;
use ssr::prelude::*;

/// Lemma 10: `s(C) = d(C)` for every configuration of the line protocol.
#[test]
fn lemma10_surplus_equals_deficit_across_sizes() {
    let mut rng = Xoshiro256::seed_from_u64(10);
    for n in [6usize, 50, 72, 200, 324] {
        let p = LineOfTraps::new(n);
        for trial in 0..10 {
            let cfg = init::uniform_random(n, n + 1, &mut rng);
            let counts = init::counts(&cfg, n + 1);
            assert_eq!(
                p.surplus(&counts),
                p.deficit(&counts),
                "n={n} trial={trial}"
            );
        }
    }
}

/// Tokens never increase on tidy configurations: we track `r(C)` along a
/// trajectory, starting once tidiness (Lemma 2) holds — the paper's token
/// analysis is phrased on tidy configurations — and require the count to
/// be non-increasing except when an X-agent enters a line (which converts
/// an X-token into a line token).
#[test]
fn line_tokens_accounted_along_trajectory() {
    let n = 72;
    let p = LineOfTraps::new(n);
    let mut rng = Xoshiro256::seed_from_u64(11);
    let cfg = init::uniform_random(n, n + 1, &mut rng);
    let mut sim = Simulation::new(&p, cfg, 13).unwrap();
    let mut last: Option<u64> = None;
    let mut tidy_lost = false;
    let mut violations = 0u32;
    {
        let mut obs = FnCountObserver(
            |_clock, before: (State, State), after: (State, State), _mult, counts: &[u32]| {
                if last.is_none() {
                    if p.is_tidy(counts) {
                        last = Some(p.tokens(counts));
                    }
                    return;
                }
                if !p.is_tidy(counts) {
                    tidy_lost = true; // Lemma 2: must not happen
                    return;
                }
                let now = p.tokens(counts);
                let x_entered_line = before.1 == p.x_state() && after.1 != p.x_state();
                if now > last.unwrap() && !x_entered_line {
                    violations += 1;
                }
                last = Some(now);
            },
        );
        sim.run_until_silent_observed(u64::MAX, &mut obs).unwrap();
    }
    assert!(last.is_some(), "trajectory never became tidy");
    assert!(!tidy_lost, "tidiness was lost after being reached");
    assert_eq!(violations, 0, "r(C) grew without an agent entering a line");
}

/// Lemma 19 + §5: from the all-at-root start the dispersal rule alone
/// ranks the population — the reset line is never touched.
#[test]
fn tree_dispersal_from_root_never_resets() {
    let n = 63;
    let p = TreeRanking::new(n);
    let mut sim = Simulation::new(&p, vec![0; n], 17).unwrap();
    let nr = n;
    let mut touched_extra = false;
    {
        let mut obs = FnCountObserver(|_clock, _before, _after, _mult, counts: &[u32]| {
            if counts[nr..].iter().any(|&c| c > 0) {
                touched_extra = true;
            }
        });
        sim.run_until_silent_observed(u64::MAX, &mut obs).unwrap();
    }
    assert!(
        !touched_extra,
        "balanced (all-at-root) start must rank via R1 alone"
    );
    assert!(init::is_perfect_ranking(sim.agents(), n));
}

/// A leaf-stacked start is unbalanced: the reset line must fire.
#[test]
fn tree_unbalanced_start_triggers_reset() {
    let n = 33;
    let p = TreeRanking::new(n);
    let leaf = p.tree().leaves_iter().next().unwrap() as State;
    let mut sim = Simulation::new(&p, vec![leaf; n], 19).unwrap();
    let nr = n;
    let mut touched_extra = false;
    {
        let mut obs = FnCountObserver(|_clock, _before, _after, _mult, counts: &[u32]| {
            if counts[nr..].iter().any(|&c| c > 0) {
                touched_extra = true;
            }
        });
        sim.run_until_silent_observed(u64::MAX, &mut obs).unwrap();
    }
    assert!(touched_extra, "overloaded leaf must raise the reset signal");
    assert!(init::is_perfect_ranking(sim.agents(), n));
}

/// The balanced-configuration detector agrees with reality: balanced
/// starts never reset; unbalanced ones always do.
#[test]
fn balance_detector_predicts_resets() {
    let n = 31;
    let p = TreeRanking::new(n);
    let mut rng = Xoshiro256::seed_from_u64(23);
    let mut seen_balanced = 0;
    let mut seen_unbalanced = 0;
    for trial in 0..24 {
        // Mix of rank-only configurations.
        let cfg = init::k_distant(n, trial % 6, init::DuplicatePlacement::Random, &mut rng);
        let counts = init::counts(&cfg, p.num_states());
        let predicted_balanced = p.is_balanced(&counts);
        let mut sim = Simulation::new(&p, cfg, 100 + trial as u64).unwrap();
        let nr = n;
        let mut touched_extra = false;
        {
            let mut obs = FnCountObserver(|_clock, _before, _after, _mult, c: &[u32]| {
                if c[nr..].iter().any(|&x| x > 0) {
                    touched_extra = true;
                }
            });
            sim.run_until_silent_observed(u64::MAX, &mut obs).unwrap();
        }
        if predicted_balanced {
            seen_balanced += 1;
            assert!(!touched_extra, "trial {trial}: balanced start reset");
        } else {
            seen_unbalanced += 1;
            assert!(touched_extra, "trial {trial}: unbalanced start never reset");
        }
    }
    assert!(seen_balanced > 0, "want at least one balanced case (k=0)");
    assert!(seen_unbalanced > 0, "want at least one unbalanced case");
}

/// Figure 1 + §4.2: the routing graph of every line protocol instance is
/// connected with logarithmic diameter, and routing targets are valid.
#[test]
fn line_routing_graph_properties() {
    for n in [72usize, 324, 960] {
        let p = LineOfTraps::new(n);
        let g = p.graph();
        assert!(g.is_connected());
        let m = p.parameter_m() as f64;
        if p.num_lines() >= 8 && p.num_lines().is_multiple_of(2) {
            assert!(g.is_three_regular(), "n={n}");
            assert!(
                g.diameter() as f64 <= 4.0 * m.log2().ceil().max(1.0) + 2.0,
                "n={n} diameter {}",
                g.diameter()
            );
        }
    }
}

/// Fact 2 flavour: saturating a trap with `d` gaps takes ~2d arrivals —
/// checked via the Lemma 5 recursion on a synthetic single line.
#[test]
fn fact2_saturation_needs_double_the_gaps() {
    let p = LineOfTraps::with_parameter(24, 1); // 1 line, 3 traps of size 8
                                                // Entrance trap (internal index 2) empty: 7 gaps; push agents at the
                                                // entrance gate via the recursion by placing them there directly.
    let chain = p.line(0);
    let entrance_gate = chain.gate(2) as usize;
    for arrivals in 0..=24u32 {
        let mut counts = vec![0u32; 25];
        counts[entrance_gate] = arrivals;
        let settled = p.settle_line(0, &counts);
        let cap = chain.size(2) - 1;
        // Every other arrival is captured until the inner states fill.
        let expected_inner = (arrivals / 2).min(cap);
        assert_eq!(settled.alpha[2], expected_inner, "arrivals={arrivals}");
        if arrivals >= 2 * cap {
            assert_eq!(settled.alpha[2], cap, "2d arrivals saturate d gaps");
        }
    }
}
