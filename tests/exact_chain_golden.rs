//! Golden trajectories of the exact jump chain: the `jump` engine kind,
//! which is the count engine with batching off.
//!
//! Each pin is `(interactions_wide, productive_interactions, FNV-1a of the
//! final counts)` for a fixed protocol, start and seed. The values were
//! recorded from the former stand-alone jump simulator, so they certify
//! that serving `jump` from the count engine's exact mode changed no
//! trajectory. A change to the exact chain's RNG consumption — the
//! geometric null gaps, pair sampling, or Byzantine vetoes — moves them.

#![allow(clippy::cast_possible_truncation)]

use ssr::prelude::*;

/// FNV-1a over the little-endian bytes of the counts.
fn fnv(counts: &[u32]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in counts.iter().flat_map(|c| c.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn fingerprint(e: &dyn Engine) -> (u128, u64, u64) {
    (
        e.interactions_wide(),
        e.productive_interactions(),
        fnv(e.counts()),
    )
}

fn jump<'a, P: InteractionSchema>(p: &'a P, config: Vec<State>, seed: u64) -> Box<dyn Engine + 'a> {
    let e = make_engine(EngineKind::Jump, p, config, seed, 1).unwrap();
    assert_eq!(e.engine_name(), "jump");
    e
}

fn uniform<P: InteractionSchema>(p: &P, seed: u64) -> Vec<State> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    init::uniform_random(p.population_size(), p.num_states(), &mut rng)
}

/// Run each `(seed, pin)` to silence from `start(seed)`.
fn assert_runs_to_silence<P: InteractionSchema>(
    p: &P,
    start: impl Fn(u64) -> Vec<State>,
    pins: &[(u64, (u128, u64, u64))],
) {
    for &(seed, pin) in pins {
        let mut e = jump(p, start(seed), seed);
        e.run_until_silent(u64::MAX).unwrap();
        assert_eq!(fingerprint(e.as_ref()), pin, "{} seed {seed}", p.name());
    }
}

#[test]
fn ag_stacked_n300() {
    let p = GenericRanking::new(300);
    assert_runs_to_silence(
        &p,
        |_| vec![0; 300],
        &[
            (1, (14_552_257, 44_850, 0x8aa3_1cee_79fd_0085)),
            (42, (16_012_212, 44_850, 0x8aa3_1cee_79fd_0085)),
            (9000, (14_875_647, 44_850, 0x8aa3_1cee_79fd_0085)),
        ],
    );
}

#[test]
fn tree_uniform_n300() {
    let p = TreeRanking::new(300);
    assert_runs_to_silence(
        &p,
        |seed| uniform(&p, seed),
        &[
            (2, (339_371, 14_763, 0xda8f_3bff_840a_a3c5)),
            (77, (265_697, 14_875, 0xda8f_3bff_840a_a3c5)),
            (4242, (394_831, 14_509, 0xda8f_3bff_840a_a3c5)),
        ],
    );
}

#[test]
fn line_uniform_n300() {
    let p = LineOfTraps::new(300);
    assert_runs_to_silence(
        &p,
        |seed| uniform(&p, seed),
        &[
            (5, (12_469_215, 3_570, 0x5320_245e_ae37_f755)),
            (6, (15_836_300, 5_467, 0x5320_245e_ae37_f755)),
        ],
    );
}

#[test]
fn ring_uniform_n300() {
    let p = RingOfTraps::new(300);
    assert_runs_to_silence(
        &p,
        |seed| uniform(&p, seed),
        &[
            (8, (10_119_799, 3_023, 0x8aa3_1cee_79fd_0085)),
            (9, (8_171_194, 2_119, 0x8aa3_1cee_79fd_0085)),
        ],
    );
}

/// Loose leader election never goes silent, so these pin fixed-length
/// prefixes. Almost all of its productive weight sits in the enumerated
/// sparse pairs.
#[test]
fn loose_sparse_pairs() {
    let n = 512;
    let p = LooseLeaderElection::new(n);
    let timers = p.timer_max() + 1;
    let spread: Vec<State> = (0..n)
        .map(|i| p.follower_state(i as u32 % timers))
        .collect();
    for (seed, pin) in [
        (3, (20_000, 20_000, 0x67ff_f2b3_c5a6_534b)),
        (5151, (20_000, 20_000, 0xae78_3737_17cd_c9c5)),
    ] {
        let mut e = jump(&p, spread.clone(), seed);
        for _ in 0..20_000 {
            assert_eq!(e.advance(), Some(1));
        }
        assert_eq!(fingerprint(e.as_ref()), pin, "seed {seed}");
    }
}

/// A validated sparse schema from an all-leader start.
#[test]
fn loose_all_leader_n40() {
    let n = 40;
    let p = LooseLeaderElection::new(n);
    let mut e = jump(&p, vec![p.leader_state(); n], 3);
    for _ in 0..50_000 {
        assert_eq!(e.advance(), Some(1), "loose protocols never go silent");
    }
    assert_eq!(
        fingerprint(e.as_ref()),
        (50_101, 50_000, 0xef3c_3b7d_bd22_e337)
    );
}

/// One fault plan mixing timed bursts, background corruption and
/// Byzantine agents, on the tree protocol, whose schema exercises every
/// interaction-class kind.
#[test]
fn mixed_fault_plan() {
    let n = 96;
    let p = TreeRanking::new(n);
    let plan = FaultPlan::new()
        .burst_at(6 * n as u128, 3)
        .burst_at(18 * n as u128, 2)
        .rate(1.0 / (40.0 * n as f64))
        .byzantine(2);
    let mut e = jump(&p, uniform(&p, 41), 7);
    let out = run_with_plan(e.as_mut(), &plan, 0xFA17_0001, 400 * n as u64);

    assert_eq!(
        fingerprint(e.as_ref()),
        (38_400, 38_344, 0x0e27_c40e_8d50_c5bf)
    );
    assert!(!out.silent);
    assert_eq!(out.availability.to_bits(), 0);
    assert_eq!(out.mean_k.to_bits(), 0x4057_b37c_962f_c963);
    assert_eq!(
        (out.max_k, out.faults_injected, out.churn_events),
        (95, 18, 0)
    );
    let bursts: Vec<_> = out
        .bursts
        .iter()
        .map(|b| (b.time, b.faults, b.k_after, b.recovery))
        .collect();
    assert_eq!(bursts, [(576, 3, 92, None), (1728, 2, 93, None)]);
}
