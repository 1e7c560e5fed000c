//! Exhaustive interaction-schema validation across every protocol in the
//! workspace: the declared classes must agree with the transition function
//! pair-for-pair (`validate_interaction_schema`), ranking protocols must
//! additionally satisfy the full ranking contract, and the schema must be
//! consistent across protocol sizes including the degenerate ones.

// Audited: tests cast tiny bounded f64/u64 values (n <= 10^4) to usize/u32.
#![allow(clippy::cast_possible_truncation)]

use ssr::prelude::*;
use ssr::protocols::loose::LooseLeaderElection;
use ssr_engine::protocol::validate_ranking_contract;

#[test]
fn generic_schema_exact_for_all_small_n() {
    for n in 1..=40 {
        validate_ranking_contract(&GenericRanking::new(n)).unwrap_or_else(|e| panic!("n={n}: {e}"));
    }
}

#[test]
fn ring_schema_exact_for_all_small_n() {
    for n in 1..=40 {
        validate_ranking_contract(&RingOfTraps::new(n)).unwrap_or_else(|e| panic!("n={n}: {e}"));
    }
}

#[test]
fn line_schema_exact_for_all_small_n() {
    for n in LineOfTraps::MIN_POPULATION..=40 {
        validate_ranking_contract(&LineOfTraps::new(n)).unwrap_or_else(|e| panic!("n={n}: {e}"));
    }
}

#[test]
fn tree_schema_exact_for_all_small_n() {
    for n in 1..=40 {
        validate_ranking_contract(&TreeRanking::new(n)).unwrap_or_else(|e| panic!("n={n}: {e}"));
        validate_ranking_contract(&TreeRanking::new(n).as_modified())
            .unwrap_or_else(|e| panic!("modified n={n}: {e}"));
    }
    for (n, k) in [(9usize, 1usize), (16, 2), (33, 5)] {
        validate_ranking_contract(&TreeRanking::with_buffer(n, k))
            .unwrap_or_else(|e| panic!("n={n} k={k}: {e}"));
    }
}

#[test]
fn loose_schema_exact_across_timer_ceilings() {
    // Not a ranking protocol: only schema ↔ transition agreement applies.
    for (n, tau) in [(4usize, 1u32), (8, 3), (16, 8), (30, 13), (64, 24)] {
        validate_interaction_schema(&LooseLeaderElection::with_timer(n, tau))
            .unwrap_or_else(|e| panic!("n={n} tau={tau}: {e}"));
    }
}

#[test]
fn loose_schema_enumerates_only_off_diagonal_pairs() {
    let p = LooseLeaderElection::with_timer(10, 6);
    let classes = p.interaction_classes();
    assert!(matches!(classes[0].class, InteractionClass::EqualRank));
    for spec in &classes[1..] {
        match spec.class {
            InteractionClass::Pair {
                initiator,
                responder,
            } => {
                assert_ne!(initiator, responder, "diagonal belongs to EqualRank");
                assert!(p.transition(initiator, responder).is_some());
            }
            other => panic!("unexpected class {other:?}"),
        }
    }
    // τ = 6: the only null off-diagonal pairs are (L, F(τ)) and (F(τ), L).
    let states = Protocol::num_states(&p);
    let all_off_diagonal = states * (states - 1);
    assert_eq!(classes.len() - 1, all_off_diagonal - 2);
}

/// Every declared class must be *used*: for each protocol, each class
/// shape covers at least one productive pair at a representative size
/// (guards against vestigial declarations surviving refactors).
#[test]
fn declared_classes_are_inhabited() {
    fn inhabited<P: InteractionSchema>(p: &P, what: &str) {
        let total = Protocol::num_states(p) as u32;
        for spec in p.interaction_classes() {
            let hit = (0..total).any(|a| {
                (0..total).any(|b| {
                    let ra = p.is_rank_state(a);
                    let rb = p.is_rank_state(b);
                    let covered = match spec.class {
                        InteractionClass::EqualRank => ra && rb && a == b && p.equal_rank_rule(a),
                        InteractionClass::ExtraExtra => !ra && !rb,
                        InteractionClass::RankExtra(d) => match d {
                            CrossDirection::RankInitiator => ra && !rb,
                            CrossDirection::ExtraInitiator => !ra && rb,
                            CrossDirection::Both => ra != rb,
                        },
                        InteractionClass::Pair {
                            initiator,
                            responder,
                        } => a == initiator && b == responder,
                    };
                    covered && p.transition(a, b).is_some()
                })
            });
            assert!(
                hit,
                "{what}: class {:?} covers no productive pair",
                spec.class
            );
        }
    }
    inhabited(&GenericRanking::new(12), "generic");
    inhabited(&RingOfTraps::new(12), "ring");
    inhabited(&LineOfTraps::new(12), "line");
    inhabited(&TreeRanking::new(12), "tree");
    inhabited(&LooseLeaderElection::with_timer(12, 5), "loose");
}

/// `schema_hash` is the result-cache key primitive: at a fixed population
/// the five core protocols must all fingerprint differently, and each
/// protocol must fingerprint differently across populations.
#[test]
fn schema_hash_distinct_across_core_protocols() {
    let n = 16;
    let hashes = [
        ("generic", GenericRanking::new(n).schema_hash()),
        ("ring", RingOfTraps::new(n).schema_hash()),
        ("line", LineOfTraps::new(n).schema_hash()),
        ("tree", TreeRanking::new(n).schema_hash()),
        ("loose", LooseLeaderElection::new(n).schema_hash()),
    ];
    for (i, (name_a, h_a)) in hashes.iter().enumerate() {
        for (name_b, h_b) in &hashes[i + 1..] {
            assert_ne!(h_a, h_b, "{name_a} and {name_b} share a schema hash");
        }
    }
    // Population is part of the fingerprint (a cached n=16 result must
    // never answer an n=32 job).
    assert_ne!(
        TreeRanking::new(16).schema_hash(),
        TreeRanking::new(32).schema_hash()
    );
    // And the fingerprint is reproducible across instances.
    assert_eq!(
        TreeRanking::new(16).schema_hash(),
        TreeRanking::new(16).schema_hash()
    );
}
