//! Criterion micro-benchmarks for the extension layers: scheduler
//! sampling throughput, fault-recovery cost, exhaustive model checking,
//! and the bootstrap resampler. These quantify the overhead the
//! extensions add on top of the core simulators.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ssr_analysis::bootstrap::{median_ci, BootstrapOptions};
use ssr_analysis::modelcheck::verify_stability;
use ssr_core::{GenericRanking, RingOfTraps};
use ssr_engine::rng::Xoshiro256;
use ssr_engine::schedule::{ClusteredScheduler, Scheduler, UniformScheduler, ZipfScheduler};
use ssr_engine::{Init, Scenario};

fn bench_schedulers(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler_sampling");
    let n = 1024;
    group.bench_function("uniform", |b| {
        let mut sched = UniformScheduler::new(n);
        let mut rng = Xoshiro256::seed_from_u64(1);
        b.iter(|| std::hint::black_box(sched.next_pair(&mut rng)))
    });
    group.bench_function("zipf_1.0", |b| {
        let mut sched = ZipfScheduler::new(n, 1.0);
        let mut rng = Xoshiro256::seed_from_u64(2);
        b.iter(|| std::hint::black_box(sched.next_pair(&mut rng)))
    });
    group.bench_function("clustered_0.1", |b| {
        let mut sched = ClusteredScheduler::new(n, n / 2, 0.1);
        let mut rng = Xoshiro256::seed_from_u64(3);
        b.iter(|| std::hint::black_box(sched.next_pair(&mut rng)))
    });
    group.finish();
}

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
    bench_schedulers,
    bench_fault_recovery,
    bench_modelcheck,
    bench_bootstrap
);
criterion_main!(benches);
