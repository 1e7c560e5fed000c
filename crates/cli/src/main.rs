//! `ssr` — command-line driver for the self-stabilising ranking suite.
//!
//! ```text
//! ssr run    --protocol tree --n 1000 [--start uniform|stacked|perfect|k-distant]
//!            [--k 5] [--seed 7] [--engine auto|naive|jump|count] [--max 1000000000]
//!            [--fault-burst t:f[,t:f...]] [--fault-rate R] [--churn R] [--byzantine K]
//! ssr sweep  --protocol line --ns 72,324,960 [--trials 10] [--seed 0]
//! ssr elect  --protocol ring --n 100 [--k 5] [--seed 7]
//! ssr exact  --protocol generic --n 5 [--limit 200000] [--trials 20000]
//! ssr check  --protocol ring --n 6 [--limit 3000000]
//! ssr faults --protocol ring --n 100 --faults 8 [--trials 10]
//! ssr info   --protocol tree --n 1000
//! ssr serve  --dir SPOOL [--cores N] [--checkpoint-every K] [--drain true]
//! ssr submit --dir SPOOL --protocol tree --n 65536 [--seed 7] [--wait true]
//! ssr status --dir SPOOL [--key HEX]
//! ssr help
//! ```
//!
//! Every command rejects a flag it does not read, naming it, before it
//! starts work, so a misspelt flag is an error rather than a default.
//!
//! `run` and `submit` read their flags into one [`JobSpec`] (`elect`
//! reads only its population, protocol, seed and start flags into one).
//! `run` and `elect` execute trial 0 of the spec's
//! [`scenario`](JobSpec::scenario), the builder the daemon's
//! [`run_job`](ssr_service::run_job) uses too, so `ssr run` and
//! `ssr submit` give the same run for the same flags, and `ssr elect`
//! ends at the same clock.

// Audited: CLI argument handling narrows user-supplied f64/u64 sizes to usize/u32; values are validated population sizes well below 2^32.
#![allow(clippy::cast_possible_truncation)]

mod args;

use args::Args;
use ssr_analysis::sweep::{sweep, SweepOptions};
use ssr_analysis::Summary;
use ssr_core::leader::has_unique_leader;
use ssr_core::{ranking_protocol, MakeProtocol, LEADER_RANK};
use ssr_engine::{
    CountSimulation, Engine, EngineKind, Init, InteractionSchema, RunOutcome, Scenario,
    StabilisationReport, State,
};
use ssr_service::{daemon, Daemon, DaemonConfig, JobInit, JobKey, JobSpec};

/// The constructor of the ranking protocol called `kind` (see
/// [`ssr_core::ranking_protocol`]).
fn make_protocol(kind: &str) -> Result<MakeProtocol, String> {
    ranking_protocol(kind)
        .map(|(_, make)| make)
        .ok_or_else(|| format!("unknown protocol '{kind}' (expected generic|ring|line|tree)"))
}

/// Engine selection: `--engine auto|naive|jump|count` (default `auto` —
/// count at large `n`, jump below), with the legacy `--naive <anything>`
/// flag kept as an alias for `--engine naive`.
fn engine_kind(a: &Args) -> Result<EngineKind, String> {
    if a.has("naive") {
        return Ok(EngineKind::Naive);
    }
    EngineKind::parse(&a.str_or("engine", "auto"))
}

/// Assemble a service [`JobSpec`] from the run flags that `run`, `elect`
/// and `submit` share, with `protocol` and `start` as the defaults of
/// `--protocol` and `--start`. The adversary flags are
/// `--fault-burst t:f[,t:f...]` (timed one-shot bursts), `--fault-rate R`
/// (background corruption probability per interaction), `--churn R`
/// (replacement churn) and `--byzantine K` (stuck-at agents);
/// [`JobSpec::validate`] checks the rates and that a persistent process
/// has a finite `--max`.
fn parse_job_spec(a: &Args, protocol: &str, start: &str) -> Result<JobSpec, String> {
    let n = a.usize_or("n", 100)?;
    let mut spec = JobSpec::new(&a.str_or("protocol", protocol), n, a.u64_or("seed", 1)?);
    spec.engine = engine_kind(a)?;
    spec.max_interactions = a.u64_or("max", u64::MAX)?;
    spec.threads = a.usize_or("threads", 0)?;
    spec.init = parse_start(a, start)?;
    if a.has("fault-burst") {
        for part in a.str_or("fault-burst", "").split(',') {
            let (t, f) = part.trim().split_once(':').ok_or_else(|| {
                format!("--fault-burst expects time:faults entries, got '{part}'")
            })?;
            let t: u128 = t
                .trim()
                .parse()
                .map_err(|_| format!("--fault-burst: '{t}' is not an interaction time"))?;
            let f: u32 = f
                .trim()
                .parse()
                .map_err(|_| format!("--fault-burst: '{f}' is not a fault count"))?;
            spec.bursts.push((t, f));
        }
    }
    spec.fault_rate = a.f64_or("fault-rate", 0.0)?;
    spec.churn = a.f64_or("churn", 0.0)?;
    spec.byzantine = u32::try_from(a.usize_or("byzantine", 0)?)
        .map_err(|_| "--byzantine is too large".to_string())?;
    spec.validate().map_err(|e| e.to_string())?;
    Ok(spec)
}

/// The start flags, `--start` (default `start`) and, for a k-distant
/// start, `--k`.
fn parse_start(a: &Args, start: &str) -> Result<JobInit, String> {
    Ok(match a.str_or("start", start).as_str() {
        "uniform" => JobInit::Uniform,
        "stacked" => JobInit::Stacked,
        "perfect" => JobInit::Perfect,
        "k-distant" => JobInit::KDistant(a.usize_or("k", 1)?),
        other => {
            return Err(format!(
                "unknown start '{other}' (expected uniform|stacked|perfect|k-distant)"
            ))
        }
    })
}

/// Run `spec` on `p` (its protocol) as [`ssr_service::run_job`] does:
/// trial 0 of [`JobSpec::scenario`]. Returns the run's report, with the
/// full outcome when the job has a fault plan; a fault-free run that
/// reaches its cap first is an error.
fn run_spec(
    spec: &JobSpec,
    p: &(dyn InteractionSchema + Sync),
) -> Result<(StabilisationReport, Option<RunOutcome>), String> {
    let scenario = spec.scenario(p, spec.threads);
    if spec.fault_plan().is_some() {
        let outcome = scenario.run_outcome(0);
        return Ok((outcome.report, Some(outcome)));
    }
    let report = scenario.run_one(0).map_err(|e| e.to_string())?;
    Ok((report, None))
}

fn cmd_run(a: &Args) -> Result<(), String> {
    let spec = parse_job_spec(a, "tree", "uniform")?;
    a.reject_unread()?;
    let p = spec.make_protocol().map_err(|e| e.to_string())?;
    let (n, kind) = (spec.n, spec.engine);
    println!(
        "{}: n = {n}, {} states ({} extra), seed {}, engine {} ({kind})",
        p.name(),
        p.num_states(),
        p.num_extra_states(),
        spec.seed,
        kind.resolve(n).name()
    );
    let (report, outcome) = run_spec(&spec, p.as_ref())?;
    if outcome.as_ref().is_none_or(|o| o.silent) {
        println!(
            "silent after {} interactions (parallel time {:.1}); {} productive",
            report.interactions, report.parallel_time, report.productive_interactions
        );
    } else {
        println!(
            "cap reached after {} interactions without lasting silence \
             (parallel time {:.1}); {} productive",
            report.interactions, report.parallel_time, report.productive_interactions
        );
    }
    let Some(outcome) = outcome else {
        return Ok(());
    };
    println!(
        "adversary: availability {:.4}, mean k {:.2}, max k {}, \
         {} faults injected, {} churn events",
        outcome.availability,
        outcome.mean_k,
        outcome.max_k,
        outcome.faults_injected,
        outcome.churn_events
    );
    for b in &outcome.bursts {
        match b.recovery {
            Some(r) => println!(
                "  burst t={} f={}: k after = {}, recovered in {} interactions \
                 (parallel time {:.1})",
                b.time,
                b.faults,
                b.k_after,
                r,
                r as f64 / n as f64
            ),
            None => println!(
                "  burst t={} f={}: k after = {}, NOT recovered within the cap",
                b.time, b.faults, b.k_after
            ),
        }
    }
    Ok(())
}

fn cmd_sweep(a: &Args) -> Result<(), String> {
    let kind = a.str_or("protocol", "tree");
    let ns = a.usize_list_or("ns", &[64, 128, 256, 512])?;
    let trials = a.usize_or("trials", 10)?;
    let seed = a.u64_or("seed", 0)?;
    let threads = a.usize_or("threads", 0)?;
    let engine = engine_kind(a)?;
    a.reject_unread()?;
    let grid: Vec<f64> = ns.iter().map(|&n| n as f64).collect();
    let make = make_protocol(&kind)?;
    let res = sweep::<dyn InteractionSchema + Sync, _, _>(
        &grid,
        |x| make(x as usize),
        Init::Uniform,
        &SweepOptions::new(trials)
            .with_base_seed(seed)
            .with_engine(engine)
            .with_threads(threads),
    );
    print!("{}", res.to_table("n").render());
    if res.rows.len() >= 2 && res.rows.iter().all(|r| r.median > 0.0) {
        let fit = res.fit_median();
        println!(
            "fit: median ≈ {:.3}·n^{:.2} (R² = {:.3})",
            fit.constant, fit.exponent, fit.r_squared
        );
    }
    Ok(())
}

/// Leader election: the spec's engine, built as `run` builds it, run to
/// silence, then checked for one agent in [`LEADER_RANK`]. Agents are
/// anonymous, so that check and the clock are the result. It reads only
/// the population, protocol, seed and start flags.
fn elect(a: &Args) -> Result<(String, StabilisationReport), String> {
    let n = a.usize_or("n", 100)?;
    let mut spec = JobSpec::new(&a.str_or("protocol", "ring"), n, a.u64_or("seed", 1)?);
    spec.init = parse_start(a, "k-distant")?;
    spec.validate().map_err(|e| e.to_string())?;
    a.reject_unread()?;
    let p = spec.make_protocol().map_err(|e| e.to_string())?;
    let mut engine = spec
        .scenario(p.as_ref(), spec.threads)
        .build_engine(0)
        .map_err(|e| e.to_string())?;
    let report = engine
        .run_until_silent(u64::MAX)
        .map_err(|e| e.to_string())?;
    if !has_unique_leader(engine.counts()) {
        return Err(format!("{}: silent without a unique leader", p.name()));
    }
    Ok((p.name().to_string(), report))
}

fn cmd_elect(a: &Args) -> Result<(), String> {
    let (name, report) = elect(a)?;
    println!(
        "{name}: one agent holds the leader rank {LEADER_RANK} after parallel time {:.1}",
        report.parallel_time
    );
    Ok(())
}

fn cmd_exact(a: &Args) -> Result<(), String> {
    let n = a.usize_or("n", 5)?;
    let kind = a.str_or("protocol", "generic");
    let p = make_protocol(&kind)?(n);
    let limit = a.usize_or("limit", 200_000)?;
    let trials = a.u64_or("trials", 20_000)?;
    a.reject_unread()?;
    let start = vec![0 as State; n];
    let exact = ssr_analysis::exact::expected_interactions(p.as_ref(), &start, limit)
        .map_err(|e| e.to_string())?;
    let times: Vec<f64> = (0..trials)
        .map(|t| {
            let mut sim = CountSimulation::new(p.as_ref(), start.clone(), 50_000 + t)
                .expect("valid start")
                .with_batching(false);
            sim.run_until_silent(u64::MAX).expect("stable").interactions as f64
        })
        .collect();
    let s = Summary::of(&times);
    println!("{} at n = {n}, stacked start:", p.name());
    println!("  exact expected interactions: {exact:.4}");
    println!(
        "  simulated mean over {trials} trials: {:.4} ± {:.4}",
        s.mean,
        s.ci95_half_width()
    );
    let rel = (exact - s.mean).abs() / exact;
    println!(
        "  relative gap: {:.4} ({})",
        rel,
        if rel < 0.02 { "OK" } else { "LARGE" }
    );
    Ok(())
}

fn cmd_check(a: &Args) -> Result<(), String> {
    let n = a.usize_or("n", 6)?;
    let p = make_protocol(&a.str_or("protocol", "generic"))?(n);
    let limit = a.usize_or("limit", 3_000_000)?;
    a.reject_unread()?;
    println!(
        "model-checking {} at n = {n} over the full configuration space…",
        p.name()
    );
    let cert = ssr_analysis::verify_stability(p.as_ref(), limit).map_err(|e| e.to_string())?;
    println!(
        "certified stable & silent: {} configurations enumerated, \
         {} silent (the perfect ranking), {} transitions",
        cert.configurations, cert.silent_configurations, cert.transitions
    );
    Ok(())
}

fn cmd_faults(a: &Args) -> Result<(), String> {
    let n = a.usize_or("n", 100)?;
    let p = make_protocol(&a.str_or("protocol", "ring"))?(n);
    let faults =
        u32::try_from(a.usize_or("faults", 4)?).map_err(|_| "--faults is too large".to_string())?;
    let trials = a.usize_or("trials", 10)?;
    let seed = a.u64_or("seed", 1)?;
    a.reject_unread()?;
    let outcomes = Scenario::new(p.as_ref())
        .init(Init::Perfect)
        .faults(faults)
        .base_seed(seed)
        .trials(trials)
        .run_outcomes();
    let times: Vec<f64> = outcomes.iter().map(|o| o.report.parallel_time).collect();
    let ks: Vec<f64> = outcomes
        .iter()
        .map(|o| o.bursts.first().map_or(0.0, |b| b.k_after as f64))
        .collect();
    let st = Summary::of(&times);
    let sk = Summary::of(&ks);
    println!(
        "{}: {faults} faults on a silent n = {n} population ({trials} trials)",
        p.name()
    );
    println!("  mean k-distance after faults: {:.1}", sk.mean);
    println!(
        "  recovery parallel time: median {:.0}, p95 {:.0}, max {:.0}",
        st.median, st.p95, st.max
    );
    Ok(())
}

fn cmd_info(a: &Args) -> Result<(), String> {
    let n = a.usize_or("n", 100)?;
    let p = make_protocol(&a.str_or("protocol", "tree"))?(n);
    a.reject_unread()?;
    println!("protocol:     {}", p.name());
    println!("population:   {n}");
    println!("rank states:  {}", p.num_rank_states());
    println!("extra states: {}", p.num_extra_states());
    println!("total states: {}", p.num_states());
    let classes = p.interaction_classes();
    println!(
        "interaction classes: {}",
        classes
            .iter()
            .map(|c| format!("{:?}", c.class))
            .collect::<Vec<_>>()
            .join(", ")
    );
    ssr_engine::protocol::validate_distinct_ranks_silent(p.as_ref())
        .map(|_| println!("perfect rankings are silent: yes"))
        .map_err(|e| format!("contract violation: {e}"))?;
    Ok(())
}

fn spool_dir(a: &Args) -> Result<std::path::PathBuf, String> {
    if !a.has("dir") {
        return Err("--dir <spool directory> is required".to_string());
    }
    Ok(std::path::PathBuf::from(a.str_or("dir", "")))
}

fn cmd_serve(a: &Args) -> Result<(), String> {
    let mut cfg = DaemonConfig::new(spool_dir(a)?);
    cfg.cores = a.usize_or("cores", 0)?;
    cfg.checkpoint_every = a.u64_or("checkpoint-every", 1 << 22)? as u128;
    cfg.poll_ms = a.u64_or("poll-ms", 20)?;
    cfg.drain = a.str_or("drain", "false") == "true";
    cfg.max_jobs = match a.usize_or("max-jobs", 0)? {
        0 => None,
        m => Some(m),
    };
    let kill_after = u32::try_from(a.usize_or("kill-after-ckpts", 0)?)
        .map_err(|_| "--kill-after-ckpts is too large".to_string())?;
    cfg.kill_after_checkpoints = (kill_after > 0).then_some(kill_after);
    a.reject_unread()?;
    let dir = cfg.dir.display().to_string();
    let mut daemon = Daemon::new(cfg).map_err(|e| e.to_string())?;
    println!("serving jobs from {dir} (ctrl-c to stop)");
    let stats = daemon.run().map_err(|e| e.to_string())?;
    println!(
        "daemon done: {} completed ({} cache hits, {} resumed), {} failed, \
         {} interrupted, {} recovered at startup",
        stats.completed,
        stats.cache_hits,
        stats.resumed,
        stats.failed,
        stats.interrupted,
        stats.recovered
    );
    Ok(())
}

fn cmd_submit(a: &Args) -> Result<(), String> {
    let dir = spool_dir(a)?;
    let spec = parse_job_spec(a, "tree", "uniform")?;
    let wait = a.str_or("wait", "false") == "true";
    a.reject_unread()?;
    let key = ssr_service::submit_job(&dir, &spec).map_err(|e| e.to_string())?;
    println!("submitted {key}");
    if wait {
        loop {
            match daemon::job_status(&dir, key) {
                daemon::JobStatus::Done { source } => {
                    let result = daemon::job_result(&dir, key)
                        .ok_or("done marker exists but the result is unreadable")?;
                    print_job_result(key, &source, &result);
                    return Ok(());
                }
                daemon::JobStatus::Failed => {
                    return Err(format!("job {key} failed (see failed/{key}.err)"));
                }
                _ => std::thread::sleep(std::time::Duration::from_millis(50)),
            }
        }
    }
    Ok(())
}

fn print_job_result(key: JobKey, source: &str, r: &ssr_service::JobResult) {
    let status = match r.status {
        ssr_service::JobStatusKind::Silent => "silent",
        ssr_service::JobStatusKind::Timeout => "timeout",
    };
    println!(
        "{key}: {status} after {} interactions (parallel time {:.1}), \
         {} productive [{source}]",
        r.interactions_wide, r.parallel_time, r.productive
    );
    if let Some(o) = &r.outcome {
        println!(
            "  adversary: availability {:.4}, mean k {:.2}, max k {}, \
             {} faults, {} churn events, {} bursts",
            o.availability,
            o.mean_k,
            o.max_k,
            o.faults_injected,
            o.churn_events,
            o.bursts.len()
        );
    }
}

fn cmd_status(a: &Args) -> Result<(), String> {
    let dir = spool_dir(a)?;
    let key = if a.has("key") {
        let hex = a.str_or("key", "");
        Some(JobKey::from_hex(&hex).ok_or("--key expects the 32-hex-digit job key")?)
    } else {
        None
    };
    a.reject_unread()?;
    if let Some(key) = key {
        match daemon::job_status(&dir, key) {
            daemon::JobStatus::Done { source } => {
                let result = daemon::job_result(&dir, key)
                    .ok_or("done marker exists but the result is unreadable")?;
                print_job_result(key, &source, &result);
            }
            state => println!("{key}: {state:?}"),
        }
        return Ok(());
    }
    let count = |sub: &str, ext: &str| -> usize {
        std::fs::read_dir(dir.join(sub)).map_or(0, |d| {
            d.flatten()
                .filter(|e| e.path().extension().is_some_and(|x| x == ext))
                .count()
        })
    };
    println!(
        "{}: {} pending, {} running, {} done, {} failed",
        dir.display(),
        count("pending", "job"),
        count("running", "job"),
        count("done", "result"),
        count("failed", "err"),
    );
    Ok(())
}

fn help() {
    println!(
        "ssr — self-stabilising ranking & leader election (PODC 2025 reproduction)

commands:
  run    --protocol generic|ring|line|tree --n N
         [--start uniform|stacked|perfect|k-distant] [--k K]
         [--seed S] [--max M] [--engine auto|naive|jump|count]
         [--threads T]
         [--fault-burst t:f[,t:f...]] [--fault-rate R]
         [--churn R] [--byzantine K]
                                               simulate one run to silence
                                               (auto: count at n ≥ 4096,
                                               jump below; count batches in
                                               parallel over T threads and
                                               scales to n = 10⁹; results
                                               are seed-deterministic
                                               regardless of T)
                                               adversary flags attach a timed
                                               fault plan: bursts of f faults
                                               at interaction t, background
                                               corruption/churn at rate R per
                                               interaction, K stuck-at agents;
                                               persistent processes need a
                                               finite --max, and the run then
                                               reports availability, k-distance
                                               excursions and per-burst
                                               recovery instead of failing
  sweep  --protocol P --ns 64,128,256 [--trials T] [--seed S] [--engine E]
         [--threads T]
                                               time-vs-n table + power fit
  elect  --protocol P --n N [--start ...] [--k K] [--seed S]
                                               leader election: the run's
                                               engine to silence, then a
                                               check that one agent holds
                                               the leader rank
  exact  --protocol P --n N [--limit L] [--trials T]
                                               exact vs simulated E[time]
  check  --protocol P --n N [--limit L]        exhaustive stability proof
                                               (small n; full config space)
  faults --protocol P --n N --faults F [--trials T] [--seed S]
                                               corrupt-and-recover report
  info   --protocol P --n N                    state-space summary
  serve  --dir SPOOL [--cores N] [--checkpoint-every K] [--poll-ms P]
         [--drain true] [--max-jobs J] [--kill-after-ckpts X]
                                               run the job daemon over a spool
                                               directory: schedules submitted
                                               jobs across N cores (admission
                                               via the engine's thread-split
                                               policy), checkpoints every K
                                               interactions (default 2^22),
                                               but no sooner than every
                                               #states productive ones, so
                                               killed jobs resume
                                               bit-identically, and
                                               serves repeated jobs from a
                                               keyed result cache; --drain
                                               exits once the queue is empty
  submit --dir SPOOL <run flags: --protocol --n --start --k --seed --max
         --engine --threads --fault-burst --fault-rate --churn --byzantine>
         [--wait true]
                                               queue one job (prints its
                                               content key); --wait blocks
                                               until a daemon completes it
                                               and prints the result, the
                                               one `run` prints for the
                                               same flags
  status --dir SPOOL [--key HEX]               spool totals, or one job's
                                               state/result
  help                                         this text"
    );
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        help();
        return;
    }
    let result = Args::parse(argv).and_then(|a| match a.command.as_str() {
        "run" => cmd_run(&a),
        "sweep" => cmd_sweep(&a),
        "elect" => cmd_elect(&a),
        "exact" => cmd_exact(&a),
        "check" => cmd_check(&a),
        "faults" => cmd_faults(&a),
        "info" => cmd_info(&a),
        "serve" => cmd_serve(&a),
        "submit" => cmd_submit(&a),
        "status" => cmd_status(&a),
        "help" | "--help" => {
            help();
            Ok(())
        }
        other => Err(format!("unknown command '{other}' (try `ssr help`)")),
    });
    if let Err(msg) = result {
        eprintln!("error: {msg}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_engine::rng::derive_seed;
    use ssr_service::{run_job, CheckpointStore, JobStatusKind, RunConfig, RunDisposition};

    fn args(v: &[&str]) -> Args {
        Args::parse(v.iter().map(|s| s.to_string())).unwrap()
    }

    /// The spec `ssr run` assembles from `flags`.
    fn run_spec_of(flags: &[&str]) -> JobSpec {
        parse_job_spec(&args(&[&["run"], flags].concat()), "tree", "uniform").unwrap()
    }

    #[test]
    fn protocol_factory_covers_all_kinds() {
        for kind in ["generic", "ag", "ring", "line", "tree"] {
            let p = make_protocol(kind).unwrap()(20);
            assert_eq!(p.population_size(), 20, "{kind}");
        }
        let err = match make_protocol("unknown") {
            Ok(_) => panic!("unknown protocol kind must be rejected"),
            Err(e) => e,
        };
        assert!(err.contains("unknown protocol"));
    }

    #[test]
    fn start_flag_covers_all_kinds() {
        let p = make_protocol("tree").unwrap()(16);
        for start in ["uniform", "stacked", "perfect", "k-distant"] {
            let spec = run_spec_of(&["--n", "16", "--start", start, "--k", "3"]);
            let cfg = spec.init.to_init().config(p.as_ref(), 7);
            assert_eq!(cfg.len(), 16, "{start}");
            assert!(cfg.iter().all(|&s| (s as usize) < p.num_states()));
        }
        let parse = |v: &[&str]| parse_job_spec(&args(v), "tree", "uniform");
        assert!(parse(&["run", "--start", "nope"]).is_err());
        assert!(parse(&["run", "--n", "16", "--start", "k-distant", "--k", "16"]).is_err());
        // `elect`'s default start is 1-distant.
        let elect = parse_job_spec(&args(&["elect"]), "ring", "k-distant").unwrap();
        assert_eq!(
            (elect.protocol.as_str(), elect.init),
            ("ring", JobInit::KDistant(1))
        );
    }

    #[test]
    fn k_distant_start_hits_requested_distance() {
        let spec = run_spec_of(&[
            "--protocol",
            "ring",
            "--n",
            "24",
            "--start",
            "k-distant",
            "--k",
            "5",
        ]);
        let p = spec.make_protocol().unwrap();
        let cfg = spec.init.to_init().config(p.as_ref(), 1);
        assert_eq!(ssr_engine::init::distance(&cfg, 24), 5);
    }

    #[test]
    fn engine_flag_parses_all_kinds_and_legacy_alias() {
        for kind in ["auto", "naive", "jump", "count"] {
            let a = args(&["run", "--engine", kind]);
            assert_eq!(engine_kind(&a).unwrap().name(), kind);
        }
        assert_eq!(engine_kind(&args(&["run"])).unwrap(), EngineKind::Auto);
        let legacy = args(&["run", "--naive", "true"]);
        assert_eq!(engine_kind(&legacy).unwrap(), EngineKind::Naive);
        assert!(engine_kind(&args(&["run", "--engine", "warp"])).is_err());
    }

    /// `ssr status` reads a spool that a daemon opened but never ran:
    /// nothing is laid out yet, and a submitted job shows as pending.
    #[test]
    fn status_reads_an_opened_but_never_run_spool() {
        let dir = std::env::temp_dir().join(format!("ssr-cli-status-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_arg = dir.display().to_string();
        let _daemon = Daemon::new(DaemonConfig::new(&dir)).unwrap();
        cmd_status(&args(&["status", "--dir", &dir_arg])).unwrap();
        let key = ssr_service::submit_job(&dir, &JobSpec::new("tree", 64, 1)).unwrap();
        let _daemon = Daemon::new(DaemonConfig::new(&dir)).unwrap();
        assert_eq!(daemon::job_status(&dir, key), daemon::JobStatus::Pending);
        cmd_status(&args(&["status", "--dir", &dir_arg])).unwrap();
        cmd_status(&args(&["status", "--dir", &dir_arg, "--key", &key.hex()])).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fault_flags_fill_the_spec() {
        assert_eq!(run_spec_of(&[]).fault_plan(), None);
        let spec = run_spec_of(&[
            "--fault-burst",
            "0:4, 5000:2",
            "--fault-rate",
            "1e-6",
            "--churn",
            "1e-7",
            "--byzantine",
            "3",
            "--max",
            "1000000",
        ]);
        assert_eq!(spec.bursts, vec![(0, 4), (5_000, 2)]);
        assert_eq!(spec.fault_rate, 1e-6);
        assert_eq!(spec.churn, 1e-7);
        assert_eq!(spec.byzantine, 3);
        assert!(spec.fault_plan().unwrap().may_never_silence());
        // A rate of -0 is no rate: the same job, under the same key.
        let zero = run_spec_of(&["--fault-rate", "-0", "--churn", "-0"]);
        assert_eq!(zero.key().unwrap(), run_spec_of(&[]).key().unwrap());
        // Malformed entries, rates that are not probabilities, and a
        // persistent process without a finite cap fail loudly.
        let parse = |v: &[&str]| parse_job_spec(&args(&[&["run"], v].concat()), "tree", "uniform");
        assert!(parse(&["--fault-burst", "40"]).is_err());
        assert!(parse(&["--fault-rate", "2.0", "--max", "10"]).is_err());
        assert!(parse(&["--churn", "-0.5", "--max", "10"]).is_err());
        let err = parse(&["--fault-rate", "1e-3"]).unwrap_err();
        assert!(err.contains("finite budget"), "{err}");
    }

    /// A misspelt flag is an error naming it, not a run with the default.
    #[test]
    fn run_rejects_a_misspelt_flag() {
        let err = cmd_run(&args(&[
            "run",
            "--protocol",
            "tree",
            "--n",
            "100",
            "--sede",
            "7",
        ]))
        .unwrap_err();
        assert!(err.contains("--sede"), "{err}");
        // A flag of another start kind is not read either.
        let err = cmd_run(&args(&[
            "run", "--n", "100", "--start", "uniform", "--k", "3",
        ]))
        .unwrap_err();
        assert!(err.contains("--k"), "{err}");
    }

    /// `elect` runs the default engine to silence with no cap: the run
    /// flags it has no use for are errors, and its own five flags are
    /// accepted.
    #[test]
    fn elect_rejects_the_run_flags_it_does_not_use() {
        let err = cmd_elect(&args(&[
            "elect", "--n", "50", "--engine", "count", "--max", "5",
        ]))
        .unwrap_err();
        assert!(err.contains("--engine, --max"), "{err}");
        for flag in ["--threads", "--fault-rate", "--churn", "--byzantine"] {
            let err = cmd_elect(&args(&["elect", "--n", "50", flag, "1"])).unwrap_err();
            assert!(err.contains(flag), "{err}");
        }
        cmd_elect(&args(&[
            "elect",
            "--n",
            "20",
            "--protocol",
            "ring",
            "--seed",
            "3",
            "--start",
            "k-distant",
            "--k",
            "2",
        ]))
        .unwrap();
    }

    /// `elect` runs the engine `run` builds for the same flags: the line
    /// case of `run_is_the_daemons_run` ends at the daemon's clock.
    #[test]
    fn elect_is_the_run() {
        let (name, report) = elect(&args(&[
            "elect",
            "--protocol",
            "line",
            "--n",
            "2000",
            "--seed",
            "3",
            "--start",
            "uniform",
        ]))
        .unwrap();
        assert!(name.contains("line"), "{name}");
        assert_eq!(report.interactions_wide, 2_091_921_754);
    }

    #[test]
    fn faults_flag_rejects_counts_beyond_u32() {
        let err = cmd_faults(&args(&["faults", "--faults", "4294967296"])).unwrap_err();
        assert!(err.contains("--faults"), "{err}");
    }

    /// A kill count that does not fit the daemon's `u32` is an error, not
    /// a count wrapped to `0` (never kill) or to a small number.
    #[test]
    fn serve_flag_rejects_kill_counts_beyond_u32() {
        let dir = std::env::temp_dir().join(format!("ssr-cli-kill-count-{}", std::process::id()));
        for k in ["4294967296", "4294967297"] {
            // `--drain` makes a wrongly accepted flag return, not serve.
            let err = cmd_serve(&args(&[
                "serve",
                "--dir",
                &dir.display().to_string(),
                "--drain",
                "true",
                "--kill-after-ckpts",
                k,
            ]))
            .unwrap_err();
            assert!(err.contains("--kill-after-ckpts"), "{err}");
            assert!(!dir.exists(), "a rejected flag must not open the spool");
        }
    }

    /// `ssr run` with fault flags must give the outcome `run_with_plan`
    /// gives on the scenario's trial-0 engine under the fault seed the
    /// scenario runner derives (`derive_seed(seed, 0) ^ 0xFA17…`).
    #[test]
    fn run_fault_path_matches_run_with_plan_on_the_scenario_engine() {
        use ssr_engine::run_with_plan;
        let cases: [&[&str]; 3] = [
            &[
                "--protocol",
                "ring",
                "--n",
                "240",
                "--start",
                "perfect",
                "--seed",
                "3",
                "--fault-burst",
                "2000:6",
            ],
            &TREE_FAULTS,
            &[
                "--protocol",
                "generic",
                "--n",
                "64",
                "--start",
                "stacked",
                "--engine",
                "naive",
                "--seed",
                "5",
                "--fault-burst",
                "1000:3",
            ],
        ];
        let mut outcomes = Vec::new();
        for flags in cases {
            let spec = run_spec_of(flags);
            let p = spec.make_protocol().unwrap();
            let (_, Some(got)) = run_spec(&spec, p.as_ref()).unwrap() else {
                panic!("{flags:?} has a fault plan");
            };
            let plan = spec.fault_plan().unwrap();
            let mut engine = spec.scenario(p.as_ref(), 1).build_engine(0).unwrap();
            let fault_seed = derive_seed(spec.seed, 0) ^ 0xFA17_FA17_FA17_FA17;
            let want = run_with_plan(engine.as_mut(), &plan, fault_seed, spec.max_interactions);
            assert_eq!(got, want, "{flags:?}");
            outcomes.push(got);
        }
        // Recorded from `ssr run --protocol ring --n 240 --start perfect
        // --fault-burst 2000:6 --seed 3` before the run command went
        // through the scenario's fault path.
        let ring = &outcomes[0];
        assert!(ring.silent);
        assert_eq!(ring.report.interactions, 2_960_345);
        assert_eq!(ring.report.productive_interactions, 865);
        assert_eq!((ring.faults_injected, ring.max_k), (6, 17));
        assert_eq!(ring.bursts[0].k_after, 6);
        assert_eq!(ring.bursts[0].recovery, Some(2_958_345));
        // Recorded once `ssr run` drew its uniform start from the
        // scenario's configuration stream.
        assert!(!outcomes[1].silent);
        assert_eq!(outcomes[1].report.productive_interactions, 398_710);
        assert_eq!(outcomes[2].report.interactions, 174_772);
    }

    /// The tree case of the fault-path test: a uniform start, two bursts
    /// and background corruption, stopped at the cap.
    const TREE_FAULTS: [&str; 14] = [
        "--protocol",
        "tree",
        "--n",
        "5000",
        "--start",
        "uniform",
        "--seed",
        "2",
        "--fault-burst",
        "100:20,90000:5",
        "--fault-rate",
        "1e-6",
        "--max",
        "3000000",
    ];

    /// `ssr run` and `ssr submit` make the same run for the same flags:
    /// `run_spec` and `run_job` on the parsed spec agree on the clock, the
    /// productive count and the ending.
    #[test]
    fn run_is_the_daemons_run() {
        let dir = std::env::temp_dir().join(format!("ssr-cli-run-job-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).unwrap();
        let cfg = RunConfig {
            threads: 1,
            checkpoint_every: 0,
            interrupt_after: None,
        };
        let cases: [&[&str]; 4] = [
            &[
                "--protocol",
                "line",
                "--n",
                "2000",
                "--seed",
                "3",
                "--start",
                "uniform",
            ],
            &[
                "--protocol",
                "ring",
                "--n",
                "240",
                "--seed",
                "4",
                "--start",
                "k-distant",
                "--k",
                "6",
            ],
            &TREE_FAULTS,
            &[
                "--protocol",
                "generic",
                "--n",
                "64",
                "--seed",
                "5",
                "--start",
                "stacked",
                "--engine",
                "naive",
            ],
        ];
        let mut clocks = Vec::new();
        for flags in cases {
            let spec = run_spec_of(flags);
            let p = spec.make_protocol().unwrap();
            let (report, outcome) = run_spec(&spec, p.as_ref()).unwrap();
            let ran = (
                report.interactions_wide,
                report.productive_interactions,
                outcome.is_none_or(|o| o.silent),
            );
            let RunDisposition::Completed { result, .. } = run_job(&spec, &store, &cfg).unwrap()
            else {
                panic!("{flags:?}: run_job was interrupted");
            };
            let job = (
                result.interactions_wide,
                result.productive,
                result.status == JobStatusKind::Silent,
            );
            assert_eq!(ran, job, "{flags:?}");
            clocks.push(ran.0);
        }
        // The daemon's number for the line case.
        assert_eq!(clocks[0], 2_091_921_754);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_engine_drives_every_protocol_through_a_scenario() {
        for proto in ["generic", "ring", "line", "tree"] {
            let p = make_protocol(proto).unwrap()(12);
            for kind in EngineKind::ALL.into_iter().chain([EngineKind::Auto]) {
                let mut e = Scenario::new(p.as_ref())
                    .engine(kind)
                    .init(Init::Stacked)
                    .base_seed(3)
                    .build_engine(0)
                    .unwrap();
                e.run_until_silent(u64::MAX).unwrap();
                assert!(e.is_silent(), "{proto}/{kind}");
            }
        }
    }

    #[test]
    fn submit_flags_assemble_a_job_spec() {
        let a = args(&[
            "submit",
            "--protocol",
            "tree",
            "--n",
            "4096",
            "--seed",
            "9",
            "--start",
            "k-distant",
            "--k",
            "3",
            "--engine",
            "count",
            "--threads",
            "2",
            "--max",
            "1000000",
            "--fault-burst",
            "100:4",
        ]);
        let spec = parse_job_spec(&a, "tree", "uniform").unwrap();
        assert_eq!(spec.protocol, "tree");
        assert_eq!(spec.n, 4096);
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.init, JobInit::KDistant(3));
        assert_eq!(spec.engine, EngineKind::Count);
        assert_eq!(spec.threads, 2);
        assert_eq!(spec.bursts, vec![(100, 4)]);
        // Invalid combinations are rejected at parse time.
        let parse = |v: &[&str]| parse_job_spec(&args(v), "tree", "uniform");
        assert!(parse(&["submit", "--protocol", "warp"]).is_err());
        assert!(parse(&["submit", "--churn", "0.1"]).is_err());
    }

    #[test]
    fn schema_validates_for_every_cli_protocol() {
        for proto in ["generic", "ring", "line", "tree"] {
            let p = make_protocol(proto).unwrap()(14);
            ssr_engine::validate_interaction_schema(p.as_ref())
                .unwrap_or_else(|e| panic!("{proto}: {e}"));
        }
    }
}
