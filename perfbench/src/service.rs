//! The `service_mix` workload: one closed-loop client that submits a job
//! to the spool and then drains a daemon, job after job.

use crate::calib::{self, Calibrator};
use crate::report::{
    emit_layers, emit_trace_bookkeeping, median, quantile, ratio, EndToEnd, Report,
};
use crate::trace::{checkpoint, restore_latest, timed, AdvanceTally, Ledger, Stopwatch};
use crate::Args;
use ssr_engine::rng::derive_seed;
use ssr_engine::wire::SnapshotShape;
use ssr_engine::{Engine, RunOutcome, Scenario};
use ssr_service::daemon::{job_result, job_status};
use ssr_service::{
    run_job, submit_job, CheckpointStore, Daemon, DaemonConfig, JobInit, JobResult, JobSpec,
    JobStatus, JobStatusKind, OutcomeStats, ResultCache, RunConfig, RunDisposition,
};
use std::path::Path;

/// Why the workload is in the benchmark, in one sentence.
pub const WHY: &str = "Closed-loop client on the job daemon: 4 cold jobs (tree, line, ring with a fault burst) are checkpoint-bound, then 102 cached resubmits are key-bound";

/// Resubmits per round of each cold spec, in [`cold_specs`] order. Tree
/// jobs are two thirds of the cached traffic so that the cached median
/// sits inside one latency mode (a tree key costs ~25× a line key); the
/// 102 per round leave at least ten cached samples beyond the p90.
const RESUBMITS: [usize; 4] = [34, 34, 17, 17];

/// The cold jobs, with seeds derived from the workload seed.
fn cold_specs(seed: u64) -> Vec<JobSpec> {
    let job = |protocol: &str, n: usize, index: u64, init: JobInit| {
        let mut spec = JobSpec::new(protocol, n, derive_seed(seed, index));
        spec.init = init;
        spec.threads = 1;
        spec
    };
    let mut ring = job("ring", 1056, 3, JobInit::Perfect);
    ring.bursts = vec![(1056, 8)];
    vec![
        job("tree", 65_536, 0, JobInit::Stacked),
        job("tree", 65_536, 1, JobInit::Stacked),
        // The x = 1 theorem: line of traps from a uniform start.
        job("line", 4096, 2, JobInit::Uniform),
        // A perfect ring hit by one burst runs the fault executor.
        ring,
    ]
}

fn daemon_config(dir: &Path) -> DaemonConfig {
    let mut cfg = DaemonConfig::new(dir);
    cfg.cores = 1;
    // Poll sleeps must not quantise a cold job's latency.
    cfg.poll_ms = 1;
    cfg
}

/// One round's observations.
#[derive(Default)]
struct Round {
    cold_s: Vec<f64>,
    cached_s: Vec<f64>,
    /// Productive interactions per second of latency, per cold job.
    cold_rates: Vec<f64>,
    /// Cold results, in spec order.
    results: Vec<JobResult>,
    /// `Daemon::new` seconds: the round's own daemon, and a fresh spool
    /// opened before each cold job.
    setups: Vec<f64>,
    submit_s: f64,
    drain_s: f64,
    cache_hits: u64,
    completed: u64,
}

/// Open a daemon on a spool that does not exist yet, timed.
fn open(dir: &Path) -> (Daemon, f64) {
    let _ = std::fs::remove_dir_all(dir);
    let (daemon, secs) = timed(|| Daemon::new(daemon_config(dir)));
    (daemon.expect("daemon opens a fresh spool"), secs)
}

/// Submit `spec`, drain the daemon, and check how the job finished.
/// Returns the job's result and its submit and drain seconds.
fn serve(
    daemon: &mut Daemon,
    dir: &Path,
    spec: &JobSpec,
    source: &str,
) -> (Option<JobResult>, f64, f64) {
    let (key, submit_s) = timed(|| submit_job(dir, spec));
    let (stats, drain_s) = timed(|| daemon.run());
    let result = match (key, stats) {
        (Ok(key), Ok(_)) => {
            let done = job_status(dir, key)
                == JobStatus::Done {
                    source: source.into(),
                };
            done.then(|| job_result(dir, key)).flatten()
        }
        _ => None,
    };
    (result, submit_s, drain_s)
}

/// One round on a fresh spool: every spec cold, then every spec
/// resubmitted [`RESUBMITS`] times and served from the cache. Set-up is
/// sampled throughout, so its median sees the file system as the jobs
/// leave it.
fn round(specs: &[JobSpec], dir: &Path, report: &mut Report) -> Round {
    let mut r = Round::default();
    let (mut daemon, setup_s) = open(dir);
    r.setups.push(setup_s);
    let probe = dir.with_extension("probe");
    for spec in specs {
        r.setups.push(open(&probe).1);
        let (result, submit_s, drain_s) = serve(&mut daemon, dir, spec, "engine");
        r.submit_s += submit_s;
        r.drain_s += drain_s;
        r.cold_s.push(submit_s + drain_s);
        let ok = result.as_ref().is_some_and(|res| finished(spec, res));
        report.check(
            ok,
            &format!("cold {} job did not finish as expected", spec.protocol),
        );
        if let Some(res) = result {
            r.cold_rates
                .push(ratio(res.productive as f64, submit_s + drain_s));
            r.results.push(res);
        }
    }
    let _ = std::fs::remove_dir_all(&probe);
    for rep in 0..RESUBMITS.into_iter().max().unwrap_or(0) {
        for ((spec, cold), times) in specs.iter().zip(&r.results).zip(RESUBMITS) {
            if rep >= times {
                continue;
            }
            let (result, submit_s, drain_s) = serve(&mut daemon, dir, spec, "cache");
            r.submit_s += submit_s;
            r.drain_s += drain_s;
            r.cached_s.push(submit_s + drain_s);
            let same = result.is_some_and(|res| {
                res == *cold && res.parallel_time.to_bits() == cold.parallel_time.to_bits()
            });
            report.check(
                same,
                &format!("cached {} job differs from its cold run", spec.protocol),
            );
        }
    }
    let stats = daemon.run().expect("an empty spool drains");
    r.cache_hits = stats.cache_hits;
    r.completed = stats.completed;
    r
}

/// Whether a cold result ended the way its spec must: silent, and for
/// the fault job with its burst recorded and recovered from.
fn finished(spec: &JobSpec, result: &JobResult) -> bool {
    let silent = result.status == JobStatusKind::Silent;
    match (&result.outcome, spec.bursts.is_empty()) {
        (None, true) => silent,
        (Some(o), false) => {
            silent && o.bursts.len() == spec.bursts.len() && o.bursts.iter().all(|b| b.3.is_some())
        }
        _ => false,
    }
}

/// The untraced run: rounds on fresh spools until `--seconds` elapse,
/// each bracketed by calibration passes whose factor scales every job
/// latency in the round.
pub fn measure(args: &Args, report: &mut Report, scratch: &Path) {
    let specs = cold_specs(args.seed);
    let mut cal = Calibrator::new();
    let sw = Stopwatch::start();
    let (mut cold, mut cached, mut factors) = (Vec::new(), Vec::new(), Vec::new());
    let (mut scaled_cold, mut scaled_jobs) = (Vec::new(), Vec::new());
    let (mut scaled_rates, mut setups, mut wall) = (Vec::new(), Vec::new(), 0.0);
    while factors.is_empty() || sw.secs() < args.seconds as f64 {
        let dir = scratch.join(format!("round-{}", factors.len()));
        let before = cal.sample();
        let (r, round_s) = timed(|| round(&specs, &dir, report));
        let factor = calib::factor(before, cal.sample());
        let _ = std::fs::remove_dir_all(&dir);
        println!("round {} wall_s={round_s} factor={factor}", factors.len());
        setups.extend(r.setups.iter().map(|s| s * factor));
        scaled_cold.extend(r.cold_s.iter().map(|s| s * factor));
        scaled_jobs.extend(r.cold_s.iter().chain(&r.cached_s).map(|s| s * factor));
        scaled_rates.extend(r.cold_rates.iter().map(|x| x / factor));
        wall += round_s;
        factors.push(factor);
        cold.extend(r.cold_s);
        cached.extend(r.cached_s);
    }
    for (i, spec) in specs.iter().enumerate() {
        let cold_i: Vec<f64> = cold.iter().skip(i).step_by(specs.len()).copied().collect();
        println!(
            "job {} n={} cold_median_s={}",
            spec.protocol,
            spec.n,
            median(&cold_i)
        );
    }
    println!("samples cold={} cached={}", cold.len(), cached.len());
    EndToEnd {
        run_s: median(&scaled_cold),
        job_s: median(&scaled_jobs),
        productive_per_s: median(&scaled_rates),
        setup_s: median(&setups),
    }
    .emit(report);
    report.extra("calib.factor", median(&factors), "ratio");
    report.extra("cold_job_s", median(&cold), "s");
    report.extra("cached_job_s", median(&cached), "s");
    report.extra("cached_job_p90_s", quantile(&cached, 0.9), "s");
    let jobs = cold.len() + cached.len();
    report.extra("jobs_per_s", ratio(jobs as f64, wall), "1/s");
}

/// A cold job replayed through the public calls `run_job` makes.
struct Replica {
    result: JobResult,
    checkpoints: u64,
}

/// Replay `spec` the way `run_job` runs it, booking each public call:
/// protocol and engine set-up, every advance, and every checkpoint at
/// the default cadence; then restore the last checkpoint once.
fn replay(
    spec: &JobSpec,
    threads: usize,
    store: &CheckpointStore,
    ledger: &mut Ledger,
    tally: &mut AdvanceTally,
) -> Option<Replica> {
    let key = spec.key().ok()?;
    let protocol = ledger
        .time("setup.protocol_s", || spec.make_protocol())
        .ok()?;
    let scenario = Scenario::new(protocol.as_ref())
        .engine(spec.engine)
        .init(spec.init.to_init())
        .base_seed(spec.seed)
        .max_interactions(spec.max_interactions)
        .threads(threads);
    if let Some(plan) = spec.fault_plan() {
        let outcome = ledger.time("faults.run_s", || scenario.fault_plan(plan).run_outcome(0));
        return Some(Replica {
            result: outcome_result(outcome),
            checkpoints: 0,
        });
    }
    let mut engine = ledger
        .time("setup.engine_s", || scenario.build_engine(0))
        .ok()?;
    let shape = SnapshotShape::of(protocol.as_ref());
    let every = RunConfig::default().checkpoint_every;
    let mut next = engine.interactions_wide().saturating_add(every);
    let (mut last, mut checkpoints) = (None, 0);
    tally.drive(engine.as_mut(), cap(spec), |engine| {
        if engine.interactions_wide() >= next {
            last = Some(checkpoint(engine, shape, store, key, ledger));
            checkpoints += 1;
            next = engine.interactions_wide().saturating_add(every);
        }
    });
    let mut ok = true;
    if let Some(snap) = &last {
        let mut fresh = scenario.build_engine(0).ok()?;
        ok &= restore_latest(fresh.as_mut(), snap, shape, store, key, ledger);
    }
    let _ = store.clear(key);
    ok.then(|| Replica {
        result: engine_result(engine.as_ref(), spec),
        checkpoints,
    })
}

fn cap(spec: &JobSpec) -> u128 {
    if spec.max_interactions == u64::MAX {
        u128::MAX
    } else {
        u128::from(spec.max_interactions)
    }
}

/// The `JobResult` `run_job` reports for a fault-free engine run.
fn engine_result(engine: &dyn Engine, spec: &JobSpec) -> JobResult {
    let report = engine.report();
    let silent = engine.is_silent() && engine.interactions_wide() <= cap(spec);
    JobResult {
        status: if silent {
            JobStatusKind::Silent
        } else {
            JobStatusKind::Timeout
        },
        interactions: report.interactions,
        interactions_wide: report.interactions_wide,
        productive: report.productive_interactions,
        parallel_time: report.parallel_time,
        outcome: None,
    }
}

/// The `JobResult` `run_job` reports for a fault-plan run.
fn outcome_result(outcome: RunOutcome) -> JobResult {
    JobResult {
        status: if outcome.silent {
            JobStatusKind::Silent
        } else {
            JobStatusKind::Timeout
        },
        interactions: outcome.report.interactions,
        interactions_wide: outcome.report.interactions_wide,
        productive: outcome.report.productive_interactions,
        parallel_time: outcome.report.parallel_time,
        outcome: Some(OutcomeStats {
            availability: outcome.availability,
            mean_k: outcome.mean_k,
            max_k: outcome.max_k,
            faults_injected: outcome.faults_injected,
            churn_events: outcome.churn_events,
            bursts: outcome
                .bursts
                .iter()
                .map(|b| (b.time, b.faults, b.k_after, b.recovery))
                .collect(),
        }),
    }
}

/// The traced run: one round untraced, the same round with submit and
/// drain timed, then each job's calls replayed and timed on their own.
pub fn trace(args: &Args, report: &mut Report, scratch: &Path) {
    let specs = cold_specs(args.seed);
    let dir = scratch.join("untraced");
    let (reference, untraced_wall) = timed(|| round(&specs, &dir, report));
    let dir = scratch.join("traced");
    let (traced, traced_wall) = timed(|| round(&specs, &dir, report));
    for (i, (a, b)) in reference.results.iter().zip(&traced.results).enumerate() {
        report.check(a == b, &format!("cold job {i} differs between rounds"));
    }

    // The key, cache and run_job calls the daemon made, on the same jobs.
    let mut ledger = Ledger::default();
    let cache = ResultCache::open(scratch.join("cache")).expect("scratch cache opens");
    let run_store = CheckpointStore::open(scratch.join("run")).expect("scratch store opens");
    let replica_store =
        CheckpointStore::open(scratch.join("replica")).expect("scratch store opens");
    let mut total = AdvanceTally::default();
    let mut productive = 0u64;
    let mut first_tree = None;
    for (spec, cold) in specs.iter().zip(&reference.results) {
        let Ok(key) = ledger.time("spec.key_s", || spec.key()) else {
            report.check(false, "spec key");
            continue;
        };
        let miss = ledger.time("cache.get_s", || cache.get(key));
        report.check(miss.is_none(), "fresh cache must miss");
        let run = ledger.time("runner.run_job_s", || {
            run_job(
                spec,
                &run_store,
                &RunConfig {
                    threads: 1,
                    ..RunConfig::default()
                },
            )
        });
        let ran = matches!(&run, Ok(RunDisposition::Completed { result, .. }) if result == cold);
        report.check(
            ran,
            &format!("run_job {} differs from the daemon's result", spec.protocol),
        );
        let put = ledger.time("cache.put_s", || cache.put(key, cold));
        report.check(put.is_ok(), "cache put");

        let mut tally = AdvanceTally::default();
        let replica = replay(spec, 1, &replica_store, &mut ledger, &mut tally);
        let same = replica.as_ref().is_some_and(|r| r.result == *cold);
        report.check(
            same,
            &format!("traced replica of {} differs from run_job", spec.protocol),
        );
        let checkpoints = replica.map_or(0, |r| r.checkpoints);
        println!(
            "fingerprint job={} n={} interactions_wide={} productive={} batch_calls={} batch_draws={} exact_calls={} ckpt={checkpoints}",
            spec.protocol, spec.n, cold.interactions_wide, cold.productive, tally.batch_calls, tally.batch_draws, tally.exact_calls
        );
        if spec.fault_plan().is_none() {
            productive += cold.productive;
            total.merge(&tally);
            if spec.protocol == "tree" && first_tree.is_none() {
                first_tree = Some((spec.clone(), tally));
            }
        }
    }
    // Every cached job: the key and the cache hit the daemon computed.
    for (spec, times) in specs.iter().zip(RESUBMITS) {
        for _ in 0..times {
            let hit = ledger
                .time("spec.key_s", || spec.key())
                .ok()
                .and_then(|key| ledger.time("cache.get_s", || cache.get(key)));
            report.check(hit.is_some(), "cache must hit after put");
        }
    }

    // Pool overhead: the first tree job again on two split threads.
    let mut pool_ratio = 0.0;
    if let Some((spec, t1)) = first_tree {
        let mut t2 = AdvanceTally::default();
        let store = CheckpointStore::open(scratch.join("pool")).expect("scratch store opens");
        let replica = replay(&spec, 2, &store, &mut Ledger::default(), &mut t2);
        let cold = &reference.results[0];
        report.check(
            replica.is_some_and(|r| r.result == *cold),
            "2-thread replica left the 1-thread trajectory",
        );
        pool_ratio = ratio(t2.batch_busy.as_secs_f64(), t1.batch_busy.as_secs_f64());
    }

    emit_layers(report, &ledger, &total, productive);
    report.metric("pool.t2_batch_ratio", pool_ratio, "ratio");
    let layer_sum = traced.submit_s + traced.drain_s;
    emit_trace_bookkeeping(report, untraced_wall, traced_wall, layer_sum);

    let daemon_layers = ledger.sum(&[
        "spec.key_s",
        "cache.get_s",
        "cache.put_s",
        "runner.run_job_s",
    ]);
    let extras = [
        ("spec.key_s", ledger.busy("spec.key_s"), "s"),
        ("cache.get_s", ledger.busy("cache.get_s"), "s"),
        ("cache.put_s", ledger.busy("cache.put_s"), "s"),
        (
            "cache.hit_ratio",
            ratio(traced.cache_hits as f64, traced.completed as f64),
            "fraction",
        ),
        ("runner.run_job_s", ledger.busy("runner.run_job_s"), "s"),
        ("faults.run_s", ledger.busy("faults.run_s"), "s"),
        ("daemon.submit_s", traced.submit_s, "s"),
        ("daemon.drain_s", traced.drain_s, "s"),
        ("daemon.self_s", traced.drain_s - daemon_layers, "s"),
    ];
    for (name, value, unit) in extras {
        report.extra(name, value, unit);
    }
}
