//! Criterion benches: full stabilisation runs, one per paper protocol.
//!
//! These are the micro-scale counterparts of the experiment binaries —
//! one fixed population per protocol, stacked adversarial start, exact
//! jump-chain simulation (the count engine with batching off) to silence. Regenerates the relative ordering of the paper's
//! summary table (tree ≪ line ≲ ring ≈ A_G) as wall-clock numbers.

use criterion::{criterion_group, criterion_main, Criterion};
use ssr_core::{GenericRanking, LineOfTraps, RingOfTraps, TreeRanking};
use ssr_engine::{CountSimulation, Engine, InteractionSchema};
use std::hint::black_box;

fn run_to_silence<P: InteractionSchema>(p: &P, seed: u64) -> u64 {
    let n = ssr_engine::Protocol::population_size(p);
    let mut sim = CountSimulation::new(p, vec![0; n], seed)
        .unwrap()
        .with_batching(false);
    sim.run_until_silent(u64::MAX).unwrap().interactions
}

fn bench_stabilisation(c: &mut Criterion) {
    let n = 240;
    let mut group = c.benchmark_group("stabilisation_n240");
    group.sample_size(10);

    let generic = GenericRanking::new(n);
    group.bench_function("generic_ag", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            black_box(run_to_silence(&generic, seed))
        })
    });

    let ring = RingOfTraps::new(n);
    group.bench_function("ring_of_traps", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            black_box(run_to_silence(&ring, seed))
        })
    });

    let line = LineOfTraps::new(n);
    group.bench_function("line_of_traps", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            black_box(run_to_silence(&line, seed))
        })
    });

    let tree = TreeRanking::new(n);
    group.bench_function("tree_of_ranks", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            black_box(run_to_silence(&tree, seed))
        })
    });

    group.finish();
}

fn bench_kdistant_recovery(c: &mut Criterion) {
    // Theorem 1's selling point as a bench: k = 1 recovery is far cheaper
    // than ranking from scratch.
    let n = 240;
    let ring = RingOfTraps::new(n);
    let mut group = c.benchmark_group("ring_recovery_n240");
    group.sample_size(10);
    for k in [1usize, 16, 120] {
        group.bench_function(format!("k_distant_{k}"), |b| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                let mut rng = ssr_engine::rng::Xoshiro256::seed_from_u64(seed);
                let cfg = ssr_engine::init::k_distant(
                    n,
                    k,
                    ssr_engine::init::DuplicatePlacement::Random,
                    &mut rng,
                );
                let mut sim = CountSimulation::new(&ring, cfg, seed)
                    .unwrap()
                    .with_batching(false);
                black_box(sim.run_until_silent(u64::MAX).unwrap().interactions)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_stabilisation, bench_kdistant_recovery);
criterion_main!(benches);
