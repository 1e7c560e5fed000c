//! Adversary-subsystem campaign through the public `ssr` surface: timed
//! fault plans produce the identical schedule on every engine, the
//! batched count engine is bit-identical across worker-thread counts,
//! and non-convergent runs (Byzantine agents, churn) degrade gracefully
//! into a [`RunOutcome`] instead of erroring.

use ssr::prelude::*;

const FAULT_SEED: u64 = 0xFA17_0001;

/// The fault process draws from a stream separate from the engine RNG,
/// so every engine — including the naive per-agent simulator — sees the
/// same burst times and fault counts under the same plan and fault seed.
#[test]
fn fault_schedules_are_identical_on_every_engine() {
    let n = 48;
    let p = RingOfTraps::new(n);
    let horizon = 600 * n as u64;
    let plan = FaultPlan::new()
        .burst_at(5 * n as u128, 4)
        .rate(1.0 / (50.0 * n as f64));

    let mut outs = Vec::new();
    for kind in [EngineKind::Naive, EngineKind::Jump, EngineKind::Count] {
        let mut e = make_engine(kind, &p, init::perfect_ranking(n), 3, 1).unwrap();
        outs.push(run_with_plan(e.as_mut(), &plan, FAULT_SEED, horizon));
    }
    let schedule = |o: &RunOutcome| {
        o.bursts
            .iter()
            .map(|b| (b.time, b.faults))
            .collect::<Vec<_>>()
    };
    for o in &outs[1..] {
        assert_eq!(o.faults_injected, outs[0].faults_injected);
        assert_eq!(schedule(o), schedule(&outs[0]));
    }
    // Jump and count additionally agree on every downstream observable.
    assert_eq!(outs[1], outs[2]);
}

/// Batch splits fan out over the worker pool with seed-derived per-task
/// RNG streams, so a batched count run under a fault plan is
/// bit-identical at any thread count — here 1 vs 4 workers at a
/// population where the count engine is the `Auto` choice.
#[test]
fn batched_count_run_is_bit_identical_across_thread_counts() {
    let n = 8192;
    let p = TreeRanking::new(n);
    let mut rng = Xoshiro256::seed_from_u64(17);
    let cfg = init::uniform_random(n, p.num_states(), &mut rng);
    let horizon = 40 * n as u64;
    let plan = FaultPlan::new()
        .burst_at(4 * n as u128, 32)
        .rate(1.0 / (20.0 * n as f64));

    let run = |threads: usize| {
        let mut e = make_engine(EngineKind::Count, &p, cfg.clone(), 23, threads).unwrap();
        let out = run_with_plan(e.as_mut(), &plan, FAULT_SEED, horizon);
        (out, e.counts().to_vec(), e.interactions_wide())
    };
    let serial = run(1);
    let pooled = run(4);
    assert_eq!(serial, pooled);
}

/// Byzantine agents never update: from a stacked start on `A_G` with `b`
/// agents pinned in state 0, the non-Byzantine agents rank among
/// themselves but state 0 keeps holding at least `b` agents forever, the
/// population is conserved through batched execution, and the run ends
/// at the horizon with degraded availability instead of a timeout error
/// or a panic.
#[test]
fn byzantine_agents_hold_their_state_through_batched_runs() {
    let n = 64;
    let b = 4;
    let p = GenericRanking::new(n);
    let horizon = 3_000_000; // far past A_G's stacked-start stabilisation
    let plan = FaultPlan::new().byzantine(b);

    let mut e = make_engine(EngineKind::Count, &p, vec![0; n], 29, 1).unwrap();
    let out = run_with_plan(e.as_mut(), &plan, FAULT_SEED, horizon);

    assert!(e.counts()[0] >= b, "byzantine agents left state 0");
    assert_eq!(e.counts().iter().map(|&c| c as u64).sum::<u64>(), n as u64);
    assert!(!out.silent, "agents stuck sharing a rank block silence");
    assert!(out.availability < 1.0);
    assert!(out.max_k >= 1);
    assert!(out.report.interactions >= horizon);
}

/// Replacement churn swaps agents out for fresh arbitrary-state arrivals:
/// the population total is conserved and the events are tallied
/// separately from faults.
#[test]
fn churn_conserves_the_population() {
    let n = 512;
    let p = RingOfTraps::new(n);
    let horizon = 800 * n as u64;
    let plan = FaultPlan::new().churn(1.0 / (30.0 * n as f64));

    let mut e = make_engine(EngineKind::Jump, &p, init::perfect_ranking(n), 31, 1).unwrap();
    let out = run_with_plan(e.as_mut(), &plan, FAULT_SEED, horizon);

    assert_eq!(e.counts().iter().map(|&c| c as u64).sum::<u64>(), n as u64);
    assert!(out.churn_events > 0);
    assert_eq!(out.faults_injected, 0, "churn is tallied separately");
}

/// The acceptance path end-to-end: a `Scenario` carrying a Byzantine
/// fault plan terminates gracefully with availability below 1.0 across
/// all trials, serial and parallel alike.
#[test]
fn scenario_byzantine_runs_degrade_gracefully() {
    let n = 24;
    let p = GenericRanking::new(n);
    let scenario = |threads: usize| {
        Scenario::new(&p)
            .init(Init::Stacked)
            .fault_plan(FaultPlan::new().byzantine(3))
            .trials(4)
            .base_seed(97)
            .max_interactions(200 * n as u64)
            .threads(threads)
            .run_outcomes()
    };
    let serial = scenario(1);
    let parallel = scenario(4);
    assert_eq!(serial, parallel);
    for out in &serial {
        assert!(!out.silent);
        assert!(out.availability < 1.0);
        assert!(out.report.interactions >= 200 * n as u64);
    }
}
