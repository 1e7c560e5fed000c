//! End-to-end self-stabilisation: every protocol, from every family of
//! adversarial starting configurations, reaches a silent perfect ranking —
//! and silent configurations are truly stable.

// Audited: tests cast tiny bounded f64/u64 values (n <= 10^4) to usize/u32.
#![allow(clippy::cast_possible_truncation)]

use ssr::prelude::*;

/// All four protocols boxed behind the simulable trait.
fn protocols(n: usize) -> Vec<Box<dyn DynProtocol + Sync>> {
    vec![
        Box::new(GenericRanking::new(n)),
        Box::new(RingOfTraps::new(n)),
        Box::new(LineOfTraps::new(n)),
        Box::new(TreeRanking::new(n)),
    ]
}

/// Object-safe union of the two traits we need.
trait DynProtocol: InteractionSchema {}
impl<T: InteractionSchema> DynProtocol for T {}

fn starts(p: &(impl Protocol + ?Sized), rng: &mut Xoshiro256) -> Vec<(String, Vec<State>)> {
    let n = p.population_size();
    let mut out = vec![
        ("perfect".to_string(), init::perfect_ranking(n)),
        ("all-in-rank-0".to_string(), init::all_in(n, 0)),
        (
            "all-in-last-rank".to_string(),
            init::all_in(n, (n - 1) as State),
        ),
        (
            "uniform-random".to_string(),
            init::uniform_random(n, p.num_states(), rng),
        ),
        (
            "k-distant stacked".to_string(),
            init::k_distant(n, n / 2, init::DuplicatePlacement::Stacked, rng),
        ),
        (
            "1-distant".to_string(),
            init::k_distant(n, 1, init::DuplicatePlacement::Random, rng),
        ),
    ];
    if p.num_extra_states() > 0 {
        out.push((
            "all-in-extra".to_string(),
            init::all_in(n, p.num_rank_states() as State),
        ));
        out.push((
            "all-in-last-extra".to_string(),
            init::all_in(n, (p.num_states() - 1) as State),
        ));
    }
    out
}

#[test]
fn every_protocol_ranks_from_every_start() {
    let mut rng = Xoshiro256::seed_from_u64(1);
    for n in [12usize, 40, 90] {
        for p in protocols(n) {
            for (name, cfg) in starts(p.as_ref(), &mut rng) {
                let mut sim = CountSimulation::new(p.as_ref(), cfg, 5)
                    .unwrap()
                    .with_batching(false);
                sim.run_until_silent(u64::MAX)
                    .unwrap_or_else(|e| panic!("{} n={n} start={name}: {e}", p.name()));
                assert!(
                    sim.counts()[..n].iter().all(|&c| c == 1),
                    "{} n={n} start={name}: not a perfect ranking",
                    p.name()
                );
                assert!(
                    sim.counts()[n..].iter().all(|&c| c == 0),
                    "{} n={n} start={name}: extra states still occupied",
                    p.name()
                );
            }
        }
    }
}

#[test]
fn silence_is_verified_exhaustively_and_stable() {
    let mut rng = Xoshiro256::seed_from_u64(2);
    let n = 30;
    for p in protocols(n) {
        let cfg = init::uniform_random(n, p.num_states(), &mut rng);
        let mut sim = Simulation::new(p.as_ref(), cfg, 9).unwrap();
        sim.run_until_silent(200_000_000)
            .unwrap_or_else(|e| panic!("{}: {e}", p.name()));
        assert!(sim.verify_silent(), "{}: silence flag disagrees", p.name());
        let frozen = sim.agents().to_vec();
        sim.run_for(200_000);
        assert_eq!(frozen, sim.agents(), "{}: silent config mutated", p.name());
    }
}

#[test]
fn stabilisation_times_are_reported_consistently() {
    let n = 24;
    for p in protocols(n) {
        let mut sim = CountSimulation::new(p.as_ref(), vec![0; n], 3)
            .unwrap()
            .with_batching(false);
        let rep = sim.run_until_silent(u64::MAX).unwrap();
        assert!(rep.interactions >= rep.productive_interactions);
        assert!((rep.parallel_time - rep.interactions as f64 / n as f64).abs() < 1e-9);
        assert_eq!(sim.interactions(), rep.interactions);
    }
}

#[test]
fn tiny_populations_work() {
    // The smallest populations each construction supports.
    let p = GenericRanking::new(2);
    let mut sim = CountSimulation::new(&p, vec![0, 0], 1)
        .unwrap()
        .with_batching(false);
    sim.run_until_silent(u64::MAX).unwrap();

    let p = RingOfTraps::new(2);
    let mut sim = CountSimulation::new(&p, vec![1, 1], 1)
        .unwrap()
        .with_batching(false);
    sim.run_until_silent(u64::MAX).unwrap();

    let p = LineOfTraps::new(3);
    let mut sim = CountSimulation::new(&p, vec![p.x_state(); 3], 1)
        .unwrap()
        .with_batching(false);
    sim.run_until_silent(u64::MAX).unwrap();

    let p = TreeRanking::new(2);
    let mut sim = CountSimulation::new(&p, vec![p.x(1), p.x(1)], 1)
        .unwrap()
        .with_batching(false);
    sim.run_until_silent(u64::MAX).unwrap();
}

#[test]
fn ranking_contract_validated_for_all_protocols() {
    use ssr::engine::protocol::validate_ranking_contract;
    for n in [3usize, 10, 25, 72] {
        validate_ranking_contract(&GenericRanking::new(n)).unwrap();
        validate_ranking_contract(&RingOfTraps::new(n)).unwrap();
        validate_ranking_contract(&LineOfTraps::new(n)).unwrap();
        validate_ranking_contract(&TreeRanking::new(n)).unwrap();
    }
}
