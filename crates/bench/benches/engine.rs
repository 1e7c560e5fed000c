//! Criterion benches for the simulation substrate itself: the three
//! engines head-to-head (naive vs jump vs count), raw RNG and
//! weighted-sampling primitives, and topology construction costs.
//!
//! Two engine comparisons are measured:
//!
//! * **throughput** — productive interactions per second on `A_G` far from
//!   silence (stacked start, fixed productive budget). This isolates the
//!   per-step cost model: naive pays per interaction, jump pays `O(log S)`
//!   per productive interaction, count amortises whole batches.
//! * **to-silence** — full stabilisation wall-clock at a size every engine
//!   can finish. The count engine's advantage grows with `n`; the
//!   recorded throughput numbers extrapolate it (productive steps on
//!   `A_G` scale as `Θ(n²)`, so wall-clock ratios carry to larger `n`).
//!
//! Results are written to `BENCH_engines.json` by the criterion shim.

// Audited: benchmark loop casts bounded f64 sizes to usize.
#![allow(clippy::cast_possible_truncation)]

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ssr_core::{GenericRanking, LooseLeaderElection, TreeRanking};
use ssr_engine::engine::{make_engine, Engine, EngineKind};
use ssr_engine::rng::Xoshiro256;
use ssr_engine::{run_with_plan, CountSimulation, FaultPlan, Protocol, Simulation};
use ssr_topology::{BalancedTree, CubicGraph};
use std::hint::black_box;

/// Run any engine until at least `budget` productive interactions.
fn run_productive(engine: &mut dyn Engine, budget: u64) -> u64 {
    while engine.productive_interactions() < budget {
        if engine.advance().is_none() {
            break;
        }
    }
    engine.productive_interactions()
}

fn bench_engine_throughput(c: &mut Criterion) {
    // Far-from-silence regime: stacked A_G at a size where the batched
    // engine's multinomial splitting dominates.
    let n = 65_536;
    let p = GenericRanking::new(n);
    let budget = 2_000_000u64;
    let mut group = c.benchmark_group("engine_throughput_ag_n65536");
    group.throughput(Throughput::Elements(budget));
    group.sample_size(10);
    for kind in [EngineKind::Jump, EngineKind::Count] {
        group.bench_function(format!("{kind}_productive_2M"), |b| {
            b.iter_batched(
                || make_engine(kind, &p, vec![0; n], 7, 1).unwrap(),
                |mut engine| black_box(run_productive(engine.as_mut(), budget)),
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();

    // The tree protocol from a uniform start spends ~90% of its
    // productive steps in the extra–extra and rank–extra classes — the
    // regime the generalised per-class batching covers. This is the entry
    // the nightly regression gate watches for batching-coverage
    // regressions.
    let n = 65_536;
    let p = TreeRanking::new(n);
    let budget = 2_000_000u64;
    let mut group = c.benchmark_group("engine_throughput_tree_uniform_n65536");
    group.throughput(Throughput::Elements(budget));
    group.sample_size(10);
    for kind in [EngineKind::Jump, EngineKind::Count] {
        group.bench_function(format!("{kind}_productive_2M"), |b| {
            b.iter_batched(
                || {
                    let mut rng = Xoshiro256::seed_from_u64(11);
                    let cfg = ssr_engine::init::uniform_random(n, p.num_states(), &mut rng);
                    make_engine(kind, &p, cfg, 11, 1).unwrap()
                },
                |mut engine| black_box(run_productive(engine.as_mut(), budget)),
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();

    // The naive engine cannot touch n = 65536; measure its interaction
    // throughput at its own scale for the record.
    let n = 1024;
    let p = GenericRanking::new(n);
    let mut group = c.benchmark_group("naive_simulator");
    group.throughput(Throughput::Elements(100_000));
    group.bench_function("interactions_ag_n1024", |b| {
        b.iter_batched(
            || Simulation::new(&p, vec![0; n], 7).unwrap(),
            |mut sim| {
                for _ in 0..100_000 {
                    black_box(sim.step());
                }
                sim
            },
            criterion::BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_engines_to_silence(c: &mut Criterion) {
    // Stabilisation wall-clock, all three engines, at a size the naive
    // engine can still finish (A_G needs Θ(n³) raw interactions).
    let n = 256;
    let p = GenericRanking::new(n);
    let mut group = c.benchmark_group("to_silence_ag_n256");
    group.sample_size(10);
    for kind in EngineKind::ALL {
        group.bench_function(kind.name(), |b| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                let mut e = make_engine(kind, &p, vec![0; n], seed, 1).unwrap();
                black_box(e.run_until_silent(u64::MAX).unwrap().interactions)
            })
        });
    }
    group.finish();

    // Jump vs count at a scale the naive engine cannot reach: the gap
    // here is what makes the exp_scale decades tractable.
    let n = 4096;
    let p = GenericRanking::new(n);
    let mut group = c.benchmark_group("to_silence_ag_n4096");
    group.sample_size(10);
    for kind in [EngineKind::Jump, EngineKind::Count] {
        group.bench_function(kind.name(), |b| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                let mut e = make_engine(kind, &p, vec![0; n], seed, 1).unwrap();
                black_box(e.run_until_silent(u64::MAX).unwrap().interactions)
            })
        });
    }
    group.finish();

    // The tree protocol (the paper's O(n log n) headliner) through the
    // count engine at a size used by exp_scale.
    let n = 65_536;
    let p = TreeRanking::new(n);
    let mut group = c.benchmark_group("to_silence_tree_n65536");
    group.sample_size(10);
    for kind in [EngineKind::Jump, EngineKind::Count] {
        group.bench_function(kind.name(), |b| {
            let mut seed = 100;
            b.iter(|| {
                seed += 1;
                let mut e = make_engine(kind, &p, vec![0; n], seed, 1).unwrap();
                black_box(e.run_until_silent(u64::MAX).unwrap().interactions)
            })
        });
    }
    group.finish();
}

fn bench_jump_throughput(c: &mut Criterion) {
    let n = 1024;
    let p = GenericRanking::new(n);
    let mut group = c.benchmark_group("jump_simulator");
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("productive_steps_ag_n1024", |b| {
        b.iter_batched(
            || {
                CountSimulation::new(&p, vec![0; n], 7)
                    .unwrap()
                    .with_batching(false)
            },
            |mut sim| {
                for _ in 0..10_000 {
                    black_box(sim.advance());
                }
                sim
            },
            criterion::BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_count_batching(c: &mut Criterion) {
    // Batched vs exact stepping within the count engine itself: the same
    // chain, with and without binomial-splitting batches.
    let n = 65_536;
    let p = GenericRanking::new(n);
    let budget = 1_000_000u64;
    let mut group = c.benchmark_group("count_batching_ag_n65536");
    group.throughput(Throughput::Elements(budget));
    group.sample_size(10);
    // `batched_pool_t2` runs the same trajectory with 2-thread per-class
    // splits on the persistent worker pool (bit-identical results; the
    // delta vs pool-off `batched` is pure wall-clock + dispatch cost).
    for (label, batching, threads) in [
        ("batched", true, 1),
        ("batched_pool_t2", true, 2),
        ("exact", false, 1),
    ] {
        group.bench_function(label, |b| {
            b.iter_batched(
                || {
                    CountSimulation::new(&p, vec![0; n], 7)
                        .unwrap()
                        .with_batching(batching)
                        .with_threads(threads)
                },
                |mut sim| {
                    while sim.productive_interactions() < budget && sim.advance().is_some() {}
                    black_box(sim.productive_interactions())
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    // The adversary hot path: the same batched chain driven through
    // `run_with_plan`, with batches clipped to the scheduled fault events
    // of a live plan (background corruption every ~budget/8 interactions
    // plus a mid-run burst) and every productive group folded into the
    // RecoveryTracker's availability ledger. The delta vs `batched` is
    // the price of event clipping plus occupancy tracking.
    group.bench_function("faulted_batched", |b| {
        let plan = FaultPlan::new()
            .burst_at(budget as u128 / 2, 64)
            .rate(8.0 / budget as f64);
        b.iter_batched(
            || CountSimulation::new(&p, vec![0; n], 7).unwrap(),
            |mut sim| {
                let out = run_with_plan(&mut sim, &plan, 99, budget);
                black_box(out.faults_injected)
            },
            criterion::BatchSize::SmallInput,
        )
    });
    group.finish();

    // The rule-heavy regime: loose leader election at n = 65536 declares
    // ~18.9k enumerated sparse pairs (τ = 136), the class the per-group
    // hierarchical batching targets. From the stacked all-zero-timer
    // start the occupied-pair count stays far below the declared count,
    // so the batched entries exercise the sparse split path from the
    // first quantum; `exact` pins the pre-batching fallback cost for the
    // before/after grid in EXPERIMENTS.md.
    let n = 65_536;
    let p = LooseLeaderElection::new(n);
    let budget = 1_000_000u64;
    let mut group = c.benchmark_group("count_batching_loose_n65536");
    group.throughput(Throughput::Elements(budget));
    group.sample_size(10);
    for (label, batching, threads) in [
        ("batched", true, 1),
        ("batched_pool_t2", true, 2),
        ("exact", false, 1),
    ] {
        group.bench_function(label, |b| {
            b.iter_batched(
                || {
                    CountSimulation::new(&p, vec![0; n], 7)
                        .unwrap()
                        .with_batching(batching)
                        .with_threads(threads)
                },
                |mut sim| {
                    while sim.productive_interactions() < budget && sim.advance().is_some() {}
                    black_box(sim.productive_interactions())
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();

    // The block-tree regime: the tree protocol at n = 2^20 from a uniform
    // start, one fixed seed's whole run to silence (114.9M productive
    // steps, 3774 batches and 1275 exact steps). The first ~110M steps
    // are cheap far-from-silence batches; the last ~5M are the reset
    // epidemic's batches, which change the counts of up to every rank
    // state and where batch apply defers the `eq` and `rank_occ` block
    // sums to one flush per batch. `batched_pool_t2` runs the same
    // trajectory with the split tasks on the 2-thread pool.
    let n = 1 << 20;
    let p = TreeRanking::new(n);
    let start =
        ssr_engine::init::uniform_random(n, p.num_states(), &mut Xoshiro256::seed_from_u64(3));
    let run = |sim: &mut CountSimulation<'_, TreeRanking>| {
        while sim.advance().is_some() {}
        sim.productive_interactions()
    };
    let budget = run(&mut CountSimulation::new(&p, start.clone(), 3).unwrap());
    let mut group = c.benchmark_group("count_batching_tree_n1048576");
    group.throughput(Throughput::Elements(budget));
    group.sample_size(10);
    for (label, threads) in [("batched", 1), ("batched_pool_t2", 2)] {
        group.bench_function(label, |b| {
            b.iter_batched(
                || {
                    CountSimulation::new(&p, start.clone(), 3)
                        .unwrap()
                        .with_threads(threads)
                },
                |mut sim| black_box(run(&mut sim)),
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// The parts of one exact step, as layer benches: the whole step here,
/// its clock draw in `rng/geometric_wide` (`bench_primitives`).
fn bench_exact_step(c: &mut Criterion) {
    // A_G with batching off (the jump engine is the count engine's exact
    // chain), from two configurations of one stacked-start run. From a
    // stacked start A_G takes a fixed n(n−1)/2 = 8,386,560 productive
    // steps to silence at n = 4096. `advance` starts after 1.25M of them
    // (~15% of the run, where a batched run still batches); `advance_tail`
    // after 6.5M (~78%), where the batched `ag_stacked` workload takes its
    // exact steps. Each iteration restores the configuration and takes
    // 100k exact steps: a clock draw, `sample_pair`, the transition and
    // one agent move each.
    let n = 4096;
    let p = GenericRanking::new(n);
    let mut engine = make_engine(EngineKind::Jump, &p, vec![0; n], 7, 1).unwrap();
    run_productive(engine.as_mut(), 1_250_000);
    let mid_run = engine.snapshot();
    run_productive(engine.as_mut(), 6_500_000);
    let tail = engine.snapshot();
    let steps = 100_000u64;
    let mut group = c.benchmark_group("exact_step_ag_n4096");
    group.throughput(Throughput::Elements(steps));
    group.sample_size(10);
    for (label, from) in [("advance", &mid_run), ("advance_tail", &tail)] {
        group.bench_function(label, |b| {
            b.iter_batched(
                || {
                    let mut e = make_engine(EngineKind::Jump, &p, vec![0; n], 7, 1).unwrap();
                    e.restore(from);
                    e
                },
                |mut e| {
                    for _ in 0..steps {
                        e.advance();
                    }
                    black_box(e.productive_interactions())
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// One equal-rank block split as the batch path makes it, at the size
/// A_G's batches reach a block with: 16 draws over a dense block, every
/// one of its 64 leaves live (counts 2–9, so leaf weights 2–72). An
/// iteration is 1000 splits, after one derivation of the block's live
/// word and sum.
fn bench_block_split(c: &mut Criterion) {
    let counts: Vec<u32> = (0..64).map(|j| 2 + (j * 7 % 8) as u32).collect();
    let reps = 1000;
    let mut group = c.benchmark_group("block_split");
    group.throughput(Throughput::Elements(reps as u64));
    group.bench_function("eq_dense_64_live_k16", |b| {
        let mut rng = Xoshiro256::seed_from_u64(11);
        let mut out = Vec::with_capacity(16 * reps);
        b.iter(|| {
            out.clear();
            ssr_engine::split_eq_block(&counts, 16, reps, &mut rng, &mut out);
            black_box(out.len())
        })
    });
    group.finish();
}

fn bench_primitives(c: &mut Criterion) {
    c.bench_function("rng_next_u64", |b| {
        let mut rng = Xoshiro256::seed_from_u64(1);
        b.iter(|| black_box(rng.next_u64()))
    });
    // The exact chain's clock draw: interactions until the next productive
    // one. At p = 10⁻⁴ a draw is ~10⁴, far below 2⁶³, as clock draws are.
    let mut group = c.benchmark_group("rng");
    group.bench_function("geometric_wide", |b| {
        let mut rng = Xoshiro256::seed_from_u64(6);
        b.iter(|| black_box(rng.geometric_wide(black_box(1e-4))))
    });
    group.finish();
    c.bench_function("rng_ordered_pair_n4096", |b| {
        let mut rng = Xoshiro256::seed_from_u64(2);
        b.iter(|| black_box(rng.ordered_pair(4096)))
    });
    c.bench_function("rng_binomial_large", |b| {
        let mut rng = Xoshiro256::seed_from_u64(4);
        b.iter(|| black_box(rng.binomial(1_000_000, 0.3)))
    });
    // One entry per `binomial` regime: n ≤ 64 counts n Bernoulli trials,
    // larger n with a mean below 20 returns Poisson(np), and the rest a
    // clamped normal. (n = 1000, p = 0.02 would sit at a mean of exactly
    // 20, on the normal side, so the Poisson entry takes p = 0.01.)
    let mut group = c.benchmark_group("rng_binomial");
    for (label, n, p) in [
        ("bernoulli_n15_p0.03", 15u64, 0.03),
        ("poisson_n1000_p0.01", 1000, 0.01),
        ("normal_n100000_p0.3", 100_000, 0.3),
    ] {
        group.bench_function(label, |b| {
            let mut rng = Xoshiro256::seed_from_u64(5);
            b.iter(|| black_box(rng.binomial(black_box(n), black_box(p))))
        });
    }
    group.finish();
    // The weight-state maintenance hot path under a rule-heavy schema:
    // moving one agent between two follower timer states of loose leader
    // election (τ = 136) walks each state's partner row twice, once for
    // the drift statistics and once to re-weight both directions of every
    // pair (~τ partners per state, ~2τ pairs). Driven through the public
    // fault-injection path — each iteration is two one-agent
    // `ClassState::move_agents` calls (a move and its inverse, keeping
    // the configuration fixed), each two count changes here, since the
    // schema has sparse pairs.
    c.bench_function("class_update_count_loose_tau136", |b| {
        let n = 65_536usize;
        let p = LooseLeaderElection::new(n);
        let timers = p.timer_max() as usize + 1;
        let spread: Vec<u32> = (0..n).map(|i| (i % timers) as u32).collect();
        let mut sim = CountSimulation::new(&p, spread, 9).unwrap();
        b.iter(|| {
            sim.inject_state_fault(10, 20);
            sim.inject_state_fault(20, 10);
            black_box(sim.interactions())
        })
    });
}

fn bench_tree_geometry(c: &mut Criterion) {
    use ssr_topology::balanced_tree::MaterialisedTree;
    let mut group = c.benchmark_group("tree_geometry");
    // Implicit construction only iterates the level-size sequence —
    // measure it at a size no materialised build could touch (a
    // 2³⁰-node materialised tree would need ~28 GiB of arrays).
    group.bench_function("implicit_build_n2_30", |b| {
        b.iter(|| black_box(BalancedTree::new(1 << 30)))
    });
    group.bench_function("materialised_build_n65536", |b| {
        b.iter(|| black_box(MaterialisedTree::new(65536)))
    });
    // Query cost: the §5 hot-loop triple (kind, subtree size, parent) at
    // random nodes — O(log n) descents against the oracle's O(1) array
    // reads, the price paid for dropping the arrays entirely.
    let t = BalancedTree::new(1 << 30);
    let mut rng = Xoshiro256::seed_from_u64(5);
    group.bench_function("implicit_queries_n2_30", |b| {
        b.iter(|| {
            let p = rng.below(1 << 30) as usize;
            black_box((t.kind(p), t.subtree_size(p), t.parent(p)))
        })
    });
    let o = MaterialisedTree::new(65536);
    group.bench_function("materialised_queries_n65536", |b| {
        b.iter(|| {
            let p = rng.below(65536) as usize;
            black_box((o.kind(p), o.subtree_size(p), o.parent(p)))
        })
    });
    // The tree protocol's equal-rank rule as a batch applies it: one
    // `transition(p, p)` per key group, keys in ascending state order
    // (30k random rank states, sorted, visited in a cycle).
    let tree = TreeRanking::new(1 << 20);
    let mut nodes: Vec<u32> = (0..30_000).map(|_| rng.below(1 << 20) as u32).collect();
    nodes.sort_unstable();
    let mut i = 0;
    group.bench_function("eq_transition_sorted_n2_20", |b| {
        b.iter(|| {
            let p = nodes[i];
            i = (i + 1) % nodes.len();
            black_box(tree.transition(p, p))
        })
    });
    group.finish();
}

fn bench_service(c: &mut Criterion) {
    use ssr_engine::engine::EngineSnapshot;
    use ssr_engine::wire::SnapshotShape;
    use ssr_service::{CheckpointStore, JobInit, JobResult, JobSpec, JobStatusKind, ResultCache};

    let dir = std::env::temp_dir().join(format!("ssr-bench-service-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut group = c.benchmark_group("service");
    group.sample_size(10);

    // Serving a re-submitted job from the result cache: key derivation
    // (spec fingerprint over the memoised schema hash) plus lookup and
    // decode — the full cost of a hit short of the spool's queue-file
    // renames. The key is warm: `put` below derived the schema hash, so
    // no iteration walks the protocol's equal-rank diagonal.
    let cache = ResultCache::open(&dir).unwrap();
    let mut spec = JobSpec::new("tree", 65_536, 7);
    spec.init = JobInit::Stacked;
    cache
        .put(
            spec.key().unwrap(),
            &JobResult {
                status: JobStatusKind::Silent,
                interactions: 1 << 32,
                interactions_wide: 1 << 32,
                productive: 1 << 20,
                parallel_time: 65_536.0,
                outcome: None,
            },
        )
        .unwrap();
    group.throughput(Throughput::Elements(1));
    group.bench_function("cache_hit", |b| {
        b.iter(|| black_box(cache.get(spec.key().unwrap()).unwrap()))
    });

    // One durable checkpoint cycle at n = 2²⁰ on the count engine:
    // snapshot → versioned wire encode → atomic store write → read back →
    // decode (checksum + shape checks) → restore. This is the per-cadence
    // overhead a checkpointed daemon job pays over a plain run.
    let n = 1 << 20;
    let p = TreeRanking::new(n);
    let shape = SnapshotShape::of(&p);
    let mut engine = make_engine(EngineKind::Count, &p, vec![0; n], 9, 1).unwrap();
    for _ in 0..32 {
        engine.advance();
    }
    let store = CheckpointStore::open(dir.join("ckpt")).unwrap();
    let key = spec.key().unwrap();
    group.bench_function("checkpoint_roundtrip_n1048576", |b| {
        b.iter(|| {
            let blob = engine.snapshot().to_wire(shape);
            store.save(key, engine.interactions_wide(), &blob).unwrap();
            let (_, back) = store.latest(key).unwrap();
            let snapshot = EngineSnapshot::from_wire(&back, shape).unwrap();
            engine.restore(&snapshot);
            black_box(blob.len())
        })
    });

    // The store layer alone: one steady-state `save` (the job already
    // holds its retained checkpoints, so each save recycles the oldest
    // file), for count-engine tree blobs at n = 4096 and 65536 (16 KiB
    // and 256 KiB of counts).
    for n in [4096usize, 65_536] {
        let p = TreeRanking::new(n);
        let fresh = make_engine(EngineKind::Count, &p, vec![0; n], 9, 1).unwrap();
        let blob = fresh.snapshot().to_wire(SnapshotShape::of(&p));
        let key = JobSpec::new("tree", n, 7).key().unwrap();
        let mut clock = 0u128;
        group.throughput(Throughput::Bytes(blob.len() as u64));
        group.bench_function(format!("store_save_n{n}"), |b| {
            b.iter(|| {
                clock += 1;
                store.save(key, clock, &blob).unwrap();
            })
        });
        store.clear(key).unwrap();
    }

    // The wire layer alone, each direction measured on its own, on the
    // same n = 2²⁰ count-engine snapshot (4 MiB of counts).
    let snapshot = engine.snapshot();
    let blob = snapshot.to_wire(shape);
    group.throughput(Throughput::Bytes(blob.len() as u64));
    group.bench_function("wire_encode_n1048576", |b| {
        b.iter(|| black_box(snapshot.to_wire(shape)))
    });
    group.bench_function("wire_decode_n1048576", |b| {
        b.iter(|| black_box(EngineSnapshot::from_wire(&blob, shape).unwrap()))
    });
    group.finish();
}

/// One cold `run_job` at the default `RunConfig`, checkpoints included,
/// on two checkpointed cold jobs of perfbench's `service_mix` (workload
/// seed 1): a tree job and a line-of-traps job whose clocks are mostly
/// skipped null interactions.
fn bench_service_jobs(c: &mut Criterion) {
    use ssr_engine::rng::derive_seed;
    use ssr_service::{run_job, CheckpointStore, JobInit, JobSpec, RunConfig, RunDisposition};

    let dir = std::env::temp_dir().join(format!("ssr-bench-service-jobs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::open(&dir).unwrap();
    let cfg = RunConfig::default();
    let mut group = c.benchmark_group("service");
    group.sample_size(10);
    for (protocol, n, index, init) in [
        ("tree", 65_536, 0, JobInit::Stacked),
        ("line", 4096, 2, JobInit::Uniform),
    ] {
        let mut spec = JobSpec::new(protocol, n, derive_seed(1, index));
        spec.init = init;
        group.bench_function(format!("run_job_{protocol}_n{n}"), |b| {
            b.iter(|| {
                let run = run_job(&spec, &store, &cfg).unwrap();
                assert!(matches!(run, RunDisposition::Completed { .. }));
                black_box(run)
            })
        });
    }
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_construction(c: &mut Criterion) {
    c.bench_function("balanced_tree_n65536", |b| {
        b.iter(|| black_box(BalancedTree::new(65536)))
    });
    c.bench_function("routing_graph_v1024", |b| {
        b.iter(|| black_box(CubicGraph::routing_graph(1024)))
    });
    c.bench_function("tree_protocol_build_n16384", |b| {
        b.iter(|| black_box(TreeRanking::new(16384)))
    });
}

criterion_group!(
    benches,
    bench_engine_throughput,
    bench_engines_to_silence,
    bench_jump_throughput,
    bench_count_batching,
    bench_exact_step,
    bench_block_split,
    bench_primitives,
    bench_tree_geometry,
    bench_service,
    bench_service_jobs,
    bench_construction
);
criterion_main!(benches);
