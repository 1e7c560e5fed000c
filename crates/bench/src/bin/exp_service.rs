//! SV — simulation-as-a-service: queue, keyed cache, durable checkpoints.
//!
//! Exercises the `ssr-service` daemon end to end and records the two
//! numbers EXPERIMENTS.md's "Service" section tracks:
//!
//! 1. **Cache-hit service rate** — jobs/s for a re-submitted spec served
//!    entirely from the content-addressed result cache (key derivation +
//!    lookup + decode, zero engine interactions), against the engine-run
//!    cost of the same job for scale.
//! 2. **Checkpoint cost vs n** — wall-clock to serialise an
//!    [`EngineSnapshot`](ssr_engine::EngineSnapshot) to the versioned wire format and write it
//!    durably, the store's steady-state `save` alone (the job already
//!    holds its retained checkpoints), and to read + decode + restore
//!    it, for count-engine tree jobs across `n`.
//!
//! 3. **Saves per job at the default cadence** — checkpoints, productive
//!    steps and the `num_states` work floor for the cold jobs of
//!    perfbench's `service_mix` (workload seed 1), asserting that no job
//!    checkpoints more than once per `num_states` productive steps.
//!
//! Both modes also run the correctness drill CI watches under
//! `SSR_QUICK=1`: submit a small tree job twice (second completion must
//! be a cache hit), then kill a checkpointed job after its first
//! checkpoint and let a fresh daemon resume it to a result bit-identical
//! to an uninterrupted reference.
//!
//! Run: `cargo run --release -p ssr-bench --bin exp_service`

use ssr_bench::print_header;
use ssr_core::TreeRanking;
use ssr_engine::engine::make_engine;
use ssr_engine::rng::derive_seed;
use ssr_engine::wire::SnapshotShape;
use ssr_engine::EngineKind;
use ssr_service::daemon::{job_result, job_status};
use ssr_service::{
    run_job, submit_job, CheckpointStore, Daemon, DaemonConfig, JobInit, JobSpec, JobStatus,
    ResultCache, RunConfig, RunDisposition,
};
use std::path::PathBuf;
use std::time::Instant;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ssr-exp-service-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The drill job: tree ranking, stacked start, count engine via `Auto`.
fn tree_job(n: usize, seed: u64) -> JobSpec {
    let mut spec = JobSpec::new("tree", n, seed);
    spec.init = JobInit::Stacked;
    spec
}

fn drain(
    dir: &std::path::Path,
    cfg_tweak: impl FnOnce(&mut DaemonConfig),
) -> ssr_service::DaemonStats {
    let mut cfg = DaemonConfig::new(dir.to_path_buf());
    cfg_tweak(&mut cfg);
    Daemon::new(cfg).unwrap().run().unwrap()
}

/// The CI smoke: engine run → cache hit → kill/resume, all asserted.
fn correctness_drill(n: usize) {
    println!("\n[queue/cache/checkpoint drill, tree n = {n}]");
    let dir = temp_dir("drill");

    // 1. First submission runs on the engine.
    let key = submit_job(&dir, &tree_job(n, 42)).unwrap();
    let stats = drain(&dir, |_| {});
    assert_eq!(stats.completed, 1, "first drain must complete the job");
    assert_eq!(stats.cache_hits, 0);
    let JobStatus::Done { source } = job_status(&dir, key) else {
        panic!("job not done after drain");
    };
    assert_eq!(source, "engine");
    let first = job_result(&dir, key).unwrap();
    println!(
        "  engine run: {} interactions, parallel time {:.1}",
        first.interactions, first.parallel_time
    );

    // 2. Identical spec re-submitted (different requested thread budget —
    //    threads are not part of the key) is served from the cache.
    let mut resubmit = tree_job(n, 42);
    resubmit.threads = 4;
    assert_eq!(submit_job(&dir, &resubmit).unwrap(), key);
    let stats = drain(&dir, |_| {});
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.cache_hits, 1, "resubmission must hit the cache");
    let JobStatus::Done { source } = job_status(&dir, key) else {
        panic!("resubmitted job not done");
    };
    assert_eq!(source, "cache");
    assert_eq!(job_result(&dir, key).unwrap(), first);
    println!("  resubmission served from cache (zero engine interactions)");

    // 3. Kill/resume: a daemon configured to die after the first
    //    checkpoint leaves the job pending with durable state; a fresh
    //    daemon resumes it to a bit-identical result.
    let kill_key = submit_job(&dir, &tree_job(n, 43)).unwrap();
    let stats = drain(&dir, |c| {
        c.checkpoint_every = 50_000;
        c.kill_after_checkpoints = Some(1);
    });
    assert_eq!(stats.interrupted, 1, "job must be interrupted mid-run");
    assert_eq!(job_status(&dir, kill_key), JobStatus::Pending);
    let stats = drain(&dir, |c| c.checkpoint_every = 50_000);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.resumed, 1, "successor must resume from checkpoint");
    assert_eq!(stats.cache_hits, 0);
    let resumed = job_result(&dir, kill_key).unwrap();

    // Uninterrupted reference in a separate spool.
    let ref_store = CheckpointStore::open(temp_dir("drill-ref")).unwrap();
    let reference = match run_job(
        &tree_job(n, 43),
        &ref_store,
        &RunConfig {
            threads: 1,
            checkpoint_every: 0,
            interrupt_after: None,
        },
    )
    .unwrap()
    {
        RunDisposition::Completed { result, .. } => result,
        other => panic!("reference did not complete: {other:?}"),
    };
    assert_eq!(resumed, reference, "resumed run must be bit-identical");
    assert_eq!(
        resumed.parallel_time.to_bits(),
        reference.parallel_time.to_bits()
    );
    println!("  kill/resume: resumed result bit-identical to reference");
    println!("VERDICT service drill: engine run, cache hit, kill/resume all exact → PASS");
}

/// Cache-hit service rate: jobs/s through submit → schedule → cache →
/// done, measured over whole daemon drain cycles.
fn measure_cache_rate(n: usize, rounds: usize) {
    println!("\n[cache-hit service rate, tree n = {n}]");
    let dir = temp_dir("rate");
    let spec = tree_job(n, 7);

    let start = Instant::now();
    submit_job(&dir, &spec).unwrap();
    drain(&dir, |_| {});
    let miss = start.elapsed();

    let start = Instant::now();
    for _ in 0..rounds {
        let key = submit_job(&dir, &spec).unwrap();
        let stats = drain(&dir, |_| {});
        assert_eq!(stats.cache_hits, 1);
        assert!(matches!(job_status(&dir, key), JobStatus::Done { .. }));
    }
    let hit = start.elapsed().as_secs_f64() / rounds as f64;
    println!(
        "  cold (engine) job: {:.1} ms;  cached job: {:.2} ms  →  {:.0} jobs/s, speed-up {:.0}x",
        miss.as_secs_f64() * 1e3,
        hit * 1e3,
        1.0 / hit,
        miss.as_secs_f64() / hit
    );

    // Key derivation + cache lookup alone (what the `service/cache_hit`
    // micro-bench gates), without the spool's file-system queue cycle.
    let cache = ResultCache::open(dir.join("cache")).unwrap();
    let key = spec.key().unwrap();
    let iters = 10_000;
    let start = Instant::now();
    for _ in 0..iters {
        assert!(cache.get(spec.key().unwrap()).is_some());
    }
    let per = start.elapsed().as_secs_f64() / iters as f64;
    let _ = key;
    println!(
        "  key + lookup only: {:.1} µs  →  {:.0} lookups/s",
        per * 1e6,
        1.0 / per
    );
}

/// The checkpointed cold jobs of perfbench's `service_mix` at workload
/// seed 1 (its fourth, a fault-plan ring job, takes no checkpoints).
fn service_mix_cold_specs() -> Vec<JobSpec> {
    let job = |protocol: &str, n: usize, index: u64, init: JobInit| {
        let mut spec = JobSpec::new(protocol, n, derive_seed(1, index));
        spec.init = init;
        spec
    };
    vec![
        job("tree", 65_536, 0, JobInit::Stacked),
        job("tree", 65_536, 1, JobInit::Stacked),
        job("line", 4096, 2, JobInit::Uniform),
    ]
}

/// Checkpoints each cold job takes at the default cadence, against the
/// work floor's bound of one per `num_states` productive steps.
fn measure_default_cadence() {
    println!("\n[default cadence: saves per cold job, service_mix seed 1]");
    println!(
        "  {:>5}  {:>6}  {:>6}  {:>12}  {:>10}  {:>24}",
        "job", "n", "saves", "productive", "num_states", "bound productive/states"
    );
    for (i, spec) in service_mix_cold_specs().iter().enumerate() {
        let store = CheckpointStore::open(temp_dir(&format!("cadence-{i}"))).unwrap();
        let (result, saves) = match run_job(spec, &store, &RunConfig::default()).unwrap() {
            RunDisposition::Completed {
                result,
                checkpoints,
                ..
            } => (result, checkpoints),
            other => panic!("cold job did not complete: {other:?}"),
        };
        let floor = u64::from(spec.shape().unwrap().num_states);
        let bound = result.productive / floor;
        println!(
            "  {:>5}  {:>6}  {saves:>6}  {:>12}  {floor:>10}  {bound:>24}",
            spec.protocol, spec.n, result.productive
        );
        assert!(
            u64::from(saves) <= bound,
            "{} n = {}: {saves} checkpoints exceed one per {floor} productive steps",
            spec.protocol,
            spec.n
        );
    }
    println!(
        "VERDICT default cadence: every job within one save per num_states productive steps → PASS"
    );
}

/// Checkpoint write/restore wall-clock vs n for mid-run count engines.
fn measure_checkpoint_cost(sizes: &[usize]) {
    println!("\n[checkpoint write/restore cost vs n, count engine, tree]");
    println!(
        "  {:>10}  {:>12}  {:>12}  {:>12}  {:>12}",
        "n", "blob", "write", "steady save", "restore"
    );
    for &n in sizes {
        let p = TreeRanking::new(n);
        let shape = SnapshotShape::of(&p);
        let mut engine = make_engine(EngineKind::Count, &p, vec![0; n], 9, 1).unwrap();
        for _ in 0..64 {
            engine.advance();
        }
        let store = CheckpointStore::open(temp_dir(&format!("ckpt-{n}"))).unwrap();
        let key = tree_job(n, 9).key().unwrap();

        let start = Instant::now();
        let blob = engine.snapshot().to_wire(shape);
        store.save(key, engine.interactions_wide(), &blob).unwrap();
        let write = start.elapsed();

        // Later saves of a running job: median of 9 at fresh clocks.
        let mut saves: Vec<f64> = (1..=9u128)
            .map(|i| {
                let start = Instant::now();
                store
                    .save(key, engine.interactions_wide() + i, &blob)
                    .unwrap();
                start.elapsed().as_secs_f64()
            })
            .collect();
        saves.sort_by(f64::total_cmp);
        let steady = saves[saves.len() / 2];

        let start = Instant::now();
        let (_, read_back) = store.latest(key).unwrap();
        let snapshot = ssr_engine::EngineSnapshot::from_wire(&read_back, shape).unwrap();
        engine.restore(&snapshot);
        let restore = start.elapsed();

        println!(
            "  {n:>10}  {:>9} KiB  {:>9.2} ms  {:>9.3} ms  {:>9.2} ms",
            blob.len() / 1024,
            write.as_secs_f64() * 1e3,
            steady * 1e3,
            restore.as_secs_f64() * 1e3
        );
    }
}

fn main() {
    print_header(
        "SV: simulation-as-a-service (queue, cache, durable checkpoints)",
        "identical re-submissions are cache hits; killed jobs resume from \
         the latest checkpoint to bit-identical results",
    );
    let quick = ssr_bench::quick();
    if quick {
        correctness_drill(16_384);
        measure_cache_rate(16_384, 5);
        measure_default_cadence();
        measure_checkpoint_cost(&[1 << 14, 1 << 16]);
    } else {
        correctness_drill(65_536);
        measure_cache_rate(65_536, 20);
        measure_default_cadence();
        measure_checkpoint_cost(&[1 << 14, 1 << 16, 1 << 18, 1 << 20]);
    }
    println!("\ndone.");
}
