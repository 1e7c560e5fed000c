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

// The pins below were recorded before the engines' run loops were folded
// into the provided `Engine` loop over `advance_to`; they certify that the
// fold consumed the RNG draw for draw on the naive engine, the scheduled
// naive path, the count engine's batched mode and the observer stream.

fn naive_fingerprint(e: &dyn Engine) -> (u128, u64, u64, u64) {
    let (clock, productive, counts) = fingerprint(e);
    let agents = e
        .snapshot()
        .agents()
        .map(fnv)
        .expect("naive engines track agents");
    (clock, productive, counts, agents)
}

#[test]
fn naive_to_silence() {
    let ag = GenericRanking::new(40);
    let tree = TreeRanking::new(64);
    let mut runs: Vec<(u64, (u128, u64, u64, u64))> = Vec::new();
    for seed in [3, 17] {
        let mut e = make_engine(EngineKind::Naive, &ag, vec![0; 40], seed, 1).unwrap();
        e.run_until_silent(u64::MAX).unwrap();
        runs.push((seed, naive_fingerprint(e.as_ref())));
    }
    for seed in [5, 29] {
        let mut e = make_engine(EngineKind::Naive, &tree, uniform(&tree, seed), seed, 1).unwrap();
        e.run_until_silent(u64::MAX).unwrap();
        runs.push((seed, naive_fingerprint(e.as_ref())));
    }
    assert_eq!(
        runs,
        [
            (
                3,
                (
                    33_677,
                    780,
                    9_346_796_594_517_496_933,
                    4_524_513_700_803_251_605
                )
            ),
            (
                17,
                (
                    33_682,
                    780,
                    9_346_796_594_517_496_933,
                    8_850_139_935_311_703_957
                )
            ),
            (
                5,
                (
                    7_314,
                    1_890,
                    17_054_730_686_554_725_541,
                    11_281_791_028_380_836_613
                )
            ),
            (
                29,
                (
                    7_505,
                    2_080,
                    17_054_730_686_554_725_541,
                    16_212_485_455_890_997_493
                )
            ),
        ]
    );
}

fn count<'a, P: InteractionSchema>(
    p: &'a P,
    config: Vec<State>,
    seed: u64,
) -> Box<dyn Engine + 'a> {
    let e = make_engine(EngineKind::Count, p, config, seed, 1).unwrap();
    assert_eq!(e.engine_name(), "count");
    e
}

#[test]
fn count_tree_uniform_n4096() {
    let p = TreeRanking::new(4096);
    let mut e = count(&p, uniform(&p, 12), 12);
    e.run_until_silent(u64::MAX).unwrap();
    assert_eq!(
        fingerprint(e.as_ref()),
        (32_924_257, 266_673, 16_225_980_002_244_645_413)
    );
}

#[test]
fn count_ag_stacked_prefix_n4096() {
    let p = GenericRanking::new(4096);
    let mut e = count(&p, vec![0; 4096], 8);
    let mut batched = 0u64;
    for _ in 0..3_000 {
        if e.advance().expect("far from silence") > 1 {
            batched += 1;
        }
    }
    assert_eq!(
        (batched, fingerprint(e.as_ref())),
        (3_000, (86_067_687, 766_354, 5_086_655_445_362_750_037))
    );
}

/// FNV-1a over every `(clock, before, after, multiplicity)` the observer
/// reports on a run to silence, plus the run's fingerprint.
fn observed_stream(e: &mut dyn Engine) -> (u64, (u128, u64, u64)) {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut obs = ssr::engine::engine::FnCountObserver(
        |clock: u128, before: (State, State), after: (State, State), mult: u64, _c: &[u32]| {
            let bytes = clock
                .to_le_bytes()
                .into_iter()
                .chain(
                    [before.0, before.1, after.0, after.1]
                        .into_iter()
                        .flat_map(u32::to_le_bytes),
                )
                .chain(mult.to_le_bytes());
            for b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        },
    );
    e.run_until_silent_observed(u64::MAX, &mut obs).unwrap();
    let _ = obs;
    (h, fingerprint(e))
}

#[test]
fn observer_streams() {
    let ag = GenericRanking::new(16);
    let tree = TreeRanking::new(300);
    let big = TreeRanking::new(4096);
    let mut naive = make_engine(EngineKind::Naive, &ag, vec![0; 16], 4, 1).unwrap();
    let mut exact = jump(&tree, uniform(&tree, 6), 6);
    let mut batched = count(&big, uniform(&big, 9), 9);
    let streams = [
        observed_stream(naive.as_mut()),
        observed_stream(exact.as_mut()),
        observed_stream(batched.as_mut()),
    ];
    assert_eq!(
        streams,
        [
            (
                3_019_044_018_658_190_676,
                (1_686, 120, 13_746_881_398_137_791_397)
            ),
            (
                18_266_542_845_960_994_039,
                (321_021, 14_434, 15_748_872_390_555_902_917)
            ),
            (
                9_106_863_321_631_148_981,
                (30_699_936, 256_037, 16_225_980_002_244_645_413)
            ),
        ]
    );
}

#[test]
fn batched_fault_plan() {
    let n = 4096;
    let p = TreeRanking::new(n);
    let plan = FaultPlan::new()
        .burst_at(100 * n as u128, 2_000)
        .rate(1.0 / (4_000.0 * n as f64));
    let mut e = count(&p, (0..n as State).collect(), 13);
    let out = run_with_plan(e.as_mut(), &plan, 0xFA17_0002, 20_000 * n as u64);
    let bursts: Vec<_> = out
        .bursts
        .iter()
        .map(|b| (b.time, b.faults, b.k_after, b.recovery))
        .collect();
    assert_eq!(
        (
            fingerprint(e.as_ref()),
            out.availability.to_bits(),
            out.mean_k.to_bits(),
            out.faults_injected,
        ),
        (
            (81_920_000, 800_681, 2_050_596_903_607_231_361),
            4_572_414_629_676_717_179,
            4_652_960_472_537_684_666,
            2_004
        )
    );
    assert_eq!(bursts, [(409_600, 2_000, 1_077, None)]);
}

// The two pins below cover the count engine's sparse-pair batches: loose
// leader election is the only schema whose rules go through the
// enumerated sparse-pair class, and nearly every one of its productive
// steps is batched. They certify that re-weighting a state's pairs once
// per batch, instead of once per count change, moved no trajectory.

#[test]
fn count_loose_stacked_prefix_n65536() {
    let n = 65_536;
    let p = LooseLeaderElection::new(n);
    let mut e = count(&p, vec![0; n], 7);
    let mut batched = 0u64;
    while e.productive_interactions() < 1_000_000 {
        if e.advance().expect("loose protocols never go silent") > 1 {
            batched += 1;
        }
    }
    assert_eq!(
        (batched, fingerprint(e.as_ref())),
        (127, (1_032_137, 1_001_476, 14_827_423_189_592_784_811))
    );
}

/// Byzantine agents send every sparse batch through `apply_group_byz`'s
/// thinned subgroups.
#[test]
fn count_loose_byzantine_plan_n65536() {
    let n = 65_536;
    let p = LooseLeaderElection::new(n);
    let plan = FaultPlan::new()
        .burst_at(40 * n as u128, 4_000)
        .byzantine(512);
    let mut e = count(&p, vec![0; n], 7);
    let out = run_with_plan(e.as_mut(), &plan, 0xFA17_0003, 160 * n as u64);
    let bursts: Vec<_> = out
        .bursts
        .iter()
        .map(|b| (b.time, b.faults, b.k_after, b.recovery))
        .collect();
    assert_eq!(
        (
            fingerprint(e.as_ref()),
            out.availability.to_bits(),
            out.mean_k.to_bits(),
            out.faults_injected,
        ),
        (
            (10_485_760, 10_450_267, 11_582_187_532_522_816_820),
            4_572_381_226_513_465_344,
            4_638_461_867_370_269_901,
            4_000
        )
    );
    assert_eq!(bursts, [(2_621_440, 4_000, 0, Some(0))]);
}

// The pin below covers the count engine's block-tree batches at a size
// where the 2-thread pool runs the split tasks: 131072 rank states are
// 2048 blocks of 64, a block tree of depth 11. It certifies that batch
// apply's deferred block sums are flushed, to the same values, before
// anything (the next batch, a split task on a pool thread) reads them.

#[test]
fn count_tree_uniform_prefix_n131072() {
    let p = TreeRanking::new(131_072);
    let drive = |threads: usize| {
        let mut e = make_engine(EngineKind::Count, &p, uniform(&p, 14), 14, threads).unwrap();
        let mut batched = 0u64;
        while batched < 300 {
            if e.advance().expect("far from silence") > 1 {
                batched += 1;
            }
        }
        fingerprint(e.as_ref())
    };
    let pin = (1_531_870, 1_056_450, 18_398_009_164_562_929_889);
    assert_eq!(drive(1), pin);
    assert_eq!(drive(2), pin, "2 threads");
}

// The two pins below cover the cross class's batch and exact paths in
// each single direction: the line protocol declares equal-rank,
// extra–extra and the rank-initiated cross class, and the stub protocol
// below the extra-initiated cross class next to enumerated sparse pairs.
// Together they order every pair of productive classes, so moving a
// class's place in the class split, the task list or the exact sample
// moves at least one of them.

/// Run `e` to silence, returning how many quanta were batches.
fn batches_to_silence(e: &mut dyn Engine) -> u64 {
    let mut batched = 0u64;
    while let Some(applied) = e.advance() {
        if applied > 1 {
            batched += 1;
        }
    }
    batched
}

/// From a stacked start the line's reset phases batch: some batches
/// hold equal-rank, extra–extra and cross draws at once. (From a uniform
/// start only equal-rank batches fire.)
#[test]
fn count_line_stacked_n4096() {
    let p = LineOfTraps::new(4096);
    let mut e = count(&p, vec![0; 4096], 21);
    let batched = batches_to_silence(e.as_mut());
    assert!(batched > 0, "no batch fired");
    assert_eq!(
        (batched, fingerprint(e.as_ref())),
        (
            8_958,
            (21_976_693_397, 2_362_979, 15_402_518_356_864_439_285)
        )
    );
}

/// The tree's dispersal tail on a block tree many levels deep: most of
/// these batches are equal-rank draws spread one or two per rank state
/// over nearly every block, so the in-block scans and splits and the
/// tree's per-key subtree sizes all run many times over.
#[test]
fn count_tree_uniform_n65536() {
    let p = TreeRanking::new(65_536);
    let mut e = count(&p, uniform(&p, 16), 16);
    let batched = batches_to_silence(e.as_mut());
    assert_eq!(
        (batched, fingerprint(e.as_ref())),
        (
            2_948,
            (10_441_866_733, 5_702_345, 2_075_447_830_645_028_645)
        )
    );
}

/// `ranks` rank states and `extras` extra states. Extra-initiated cross
/// pairs turn the extra agent into a rank agent; the sparse pairs are
/// every rank state's diagonal, which turns one agent into an extra
/// agent, and each rank state with its successor, which moves the
/// responder on. Rank-initiated mixed pairs and extra–extra pairs are
/// null. The population never goes silent: the flows balance with about
/// one extra agent per `ranks` rank agents.
struct ExtraInitiated {
    n: usize,
    ranks: State,
    extras: State,
}

impl Protocol for ExtraInitiated {
    fn name(&self) -> &str {
        "extra-initiated"
    }
    fn population_size(&self) -> usize {
        self.n
    }
    fn num_states(&self) -> usize {
        (self.ranks + self.extras) as usize
    }
    fn num_rank_states(&self) -> usize {
        self.ranks as usize
    }
    fn transition(&self, i: State, r: State) -> Option<(State, State)> {
        let k = self.ranks;
        match (i < k, r < k) {
            (false, true) => Some(((i - k) % k, r)),
            (true, true) if i == r => Some((i, k + i % self.extras)),
            (true, true) if r == (i + 1) % k => Some((i, (i + 2) % k)),
            _ => None,
        }
    }
}

impl InteractionSchema for ExtraInitiated {
    fn interaction_classes(&self) -> Vec<ClassSpec> {
        let mut classes = vec![ClassSpec::rank_extra(CrossDirection::ExtraInitiator)];
        for s in 0..self.ranks {
            classes.push(ClassSpec::pair(s, s));
            classes.push(ClassSpec::pair(s, (s + 1) % self.ranks));
        }
        classes
    }
}

#[test]
fn count_extra_initiated_cross_and_sparse_prefix() {
    let p = ExtraInitiated {
        n: 16_384,
        ranks: 16,
        extras: 8,
    };
    validate_interaction_schema(&p).unwrap();
    let mut e = count(&p, uniform(&p, 31), 31);
    let mut batched = 0u64;
    while e.productive_interactions() < 2_000_000 {
        if e.advance().expect("never silent") > 1 {
            batched += 1;
        }
    }
    assert!(batched > 0, "no batch fired");
    assert_eq!(
        (batched, fingerprint(e.as_ref())),
        (6_212, (7_457_285, 2_000_063, 935_930_581_706_746_438))
    );
    // The exact chain samples the same classes one pair at a time.
    let mut e = jump(&p, uniform(&p, 32), 32);
    for _ in 0..50_000 {
        assert_eq!(e.advance(), Some(1));
    }
    assert_eq!(
        fingerprint(e.as_ref()),
        (254_679, 50_000, 4_372_670_219_263_970_228)
    );
}
