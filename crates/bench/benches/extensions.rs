//! Criterion micro-benchmarks for the extension layers: fault-recovery
//! cost, exhaustive model checking, and the bootstrap resampler. These
//! quantify the overhead the extensions add on top of the core
//! simulators.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ssr_analysis::bootstrap::{median_ci, BootstrapOptions};
use ssr_analysis::modelcheck::verify_stability;
use ssr_core::{GenericRanking, RingOfTraps};
use ssr_engine::{Init, Scenario};

fn bench_fault_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_recovery");
    group.sample_size(20);
    let p = RingOfTraps::new(110);
    let mut seed = 0u64;
    group.bench_function("ring_n110_f4", |b| {
        b.iter(|| {
            seed += 1;
            Scenario::new(&p)
                .init(Init::Perfect)
                .faults(4)
                .base_seed(seed)
                .threads(1)
                .run_outcome(0)
        })
    });
    group.finish();
}

fn bench_modelcheck(c: &mut Criterion) {
    let mut group = c.benchmark_group("modelcheck");
    group.sample_size(10);
    group.bench_function("generic_n6_full_space", |b| {
        let p = GenericRanking::new(6);
        b.iter(|| verify_stability(&p, 1_000_000).unwrap())
    });
    group.bench_function("ring_n8_full_space", |b| {
        let p = RingOfTraps::new(8);
        b.iter(|| verify_stability(&p, 1_000_000).unwrap())
    });
    group.finish();
}

fn bench_bootstrap(c: &mut Criterion) {
    let sample: Vec<f64> = (0..200).map(|i| (i as f64).sqrt()).collect();
    c.bench_function("bootstrap_median_ci_200x1000", |b| {
        b.iter_batched(
            || sample.clone(),
            |s| median_ci(&s, &BootstrapOptions::default()),
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    benches,
    bench_fault_recovery,
    bench_modelcheck,
    bench_bootstrap
);
criterion_main!(benches);
