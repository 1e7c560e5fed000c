//! `ssr` — command-line driver for the self-stabilising ranking suite.
//!
//! ```text
//! ssr run    --protocol tree --n 1000 [--start uniform|stacked|k-distant]
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

// Audited: CLI argument handling narrows user-supplied f64/u64 sizes to usize/u32; values are validated population sizes well below 2^32.
#![allow(clippy::cast_possible_truncation)]

mod args;

use args::Args;
use ssr_analysis::sweep::{sweep, SweepOptions};
use ssr_analysis::Summary;
use ssr_core::{elect_leader, GenericRanking, LineOfTraps, RingOfTraps, TreeRanking};
use ssr_engine::init::{self, DuplicatePlacement};
use ssr_engine::rng::{derive_seed, Xoshiro256};
use ssr_engine::{
    CountSimulation, Engine, EngineKind, FaultPlan, Init, InteractionSchema, Protocol, RunOutcome,
    Scenario, State,
};
use ssr_service::{daemon, Daemon, DaemonConfig, JobInit, JobKey, JobSpec};

/// The four ranking protocols behind one object-safe schema handle.
fn make_protocol(kind: &str, n: usize) -> Result<Box<dyn InteractionSchema + Sync>, String> {
    match kind {
        "generic" | "ag" => Ok(Box::new(GenericRanking::new(n))),
        "ring" => Ok(Box::new(RingOfTraps::new(n))),
        "line" => Ok(Box::new(LineOfTraps::new(n))),
        "tree" => Ok(Box::new(TreeRanking::new(n))),
        other => Err(format!(
            "unknown protocol '{other}' (expected generic|ring|line|tree)"
        )),
    }
}

fn make_start(
    p: &(impl Protocol + ?Sized),
    start: &str,
    k: usize,
    seed: u64,
) -> Result<Vec<State>, String> {
    let n = p.population_size();
    let mut rng = Xoshiro256::seed_from_u64(derive_seed(seed, 0x5EED));
    match start {
        "uniform" => Ok(init::uniform_random(n, p.num_states(), &mut rng)),
        "stacked" => Ok(init::all_in(n, 0)),
        "perfect" => Ok(init::perfect_ranking(n)),
        "k-distant" => {
            if k >= n {
                return Err(format!("--k must be below n (got {k})"));
            }
            Ok(init::k_distant(n, k, DuplicatePlacement::Random, &mut rng))
        }
        other => Err(format!(
            "unknown start '{other}' (expected uniform|stacked|perfect|k-distant)"
        )),
    }
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

/// Assemble the `run` command's adversary flags into a [`FaultPlan`]:
/// `--fault-burst t:f[,t:f...]` (timed one-shot bursts), `--fault-rate R`
/// (background corruption probability per interaction), `--churn R`
/// (replacement churn) and `--byzantine K` (stuck-at agents). Returns
/// `None` when no adversary flag is present.
fn parse_fault_plan(a: &Args) -> Result<Option<FaultPlan>, String> {
    let mut plan = FaultPlan::new();
    let mut any = false;
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
            plan = plan.burst_at(t, f);
        }
        any = true;
    }
    let rate = a.f64_or("fault-rate", 0.0)?;
    if rate != 0.0 {
        if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
            return Err(format!("--fault-rate must be a probability, got {rate}"));
        }
        plan = plan.rate(rate);
        any = true;
    }
    let churn = a.f64_or("churn", 0.0)?;
    if churn != 0.0 {
        if !churn.is_finite() || !(0.0..=1.0).contains(&churn) {
            return Err(format!("--churn must be a probability, got {churn}"));
        }
        plan = plan.churn(churn);
        any = true;
    }
    let byz = a.usize_or("byzantine", 0)?;
    if byz > 0 {
        let byz = u32::try_from(byz).map_err(|_| "--byzantine is too large".to_string())?;
        plan = plan.byzantine(byz);
        any = true;
    }
    Ok(any.then_some(plan))
}

fn cmd_run(a: &Args) -> Result<(), String> {
    let n = a.usize_or("n", 100)?;
    let p = make_protocol(&a.str_or("protocol", "tree"), n)?;
    let seed = a.u64_or("seed", 1)?;
    let max = a.u64_or("max", u64::MAX)?;
    let threads = a.usize_or("threads", 0)?;
    let kind = engine_kind(a)?;
    let start = make_start(
        p.as_ref(),
        &a.str_or("start", "uniform"),
        a.usize_or("k", 1)?,
        seed,
    )?;
    let make = move |_seed| start.clone();
    let scenario = Scenario::new(p.as_ref())
        .engine(kind)
        .init(Init::Custom(&make))
        .base_seed(seed)
        .threads(threads);
    let plan = parse_fault_plan(a)?;
    println!(
        "{}: n = {n}, {} states ({} extra), seed {seed}, engine {} ({kind})",
        p.name(),
        p.num_states(),
        p.num_extra_states(),
        kind.resolve(n).name()
    );
    if let Some(plan) = plan {
        let outcome = run_fault_plan(scenario, plan, max)?;
        if outcome.silent {
            println!(
                "silent after {} interactions (parallel time {:.1}); {} productive",
                outcome.report.interactions,
                outcome.report.parallel_time,
                outcome.report.productive_interactions
            );
        } else {
            println!(
                "cap reached after {} interactions without lasting silence \
                 (parallel time {:.1}); {} productive",
                outcome.report.interactions,
                outcome.report.parallel_time,
                outcome.report.productive_interactions
            );
        }
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
        return Ok(());
    }
    let report = scenario
        .max_interactions(max)
        .run_one(0)
        .map_err(|e| e.to_string())?;
    println!(
        "silent after {} interactions (parallel time {:.1}); {} productive",
        report.interactions, report.parallel_time, report.productive_interactions
    );
    Ok(())
}

/// Execute the `run` command's fault plan on trial 0 of its scenario,
/// which derives the fault seed from the base seed. A plan with a
/// persistent process could run forever, so it needs a finite cap.
fn run_fault_plan(
    scenario: Scenario<'_, dyn InteractionSchema + Sync>,
    plan: FaultPlan,
    max: u64,
) -> Result<RunOutcome, String> {
    if plan.may_never_silence() && max == u64::MAX {
        return Err(
            "this fault plan has a persistent process (rate/churn/byzantine) and can \
             run forever; set a finite --max"
                .to_string(),
        );
    }
    Ok(scenario
        .fault_plan(plan)
        .max_interactions(max)
        .run_outcome(0))
}

fn cmd_sweep(a: &Args) -> Result<(), String> {
    let kind = a.str_or("protocol", "tree");
    let ns = a.usize_list_or("ns", &[64, 128, 256, 512])?;
    let trials = a.usize_or("trials", 10)?;
    let seed = a.u64_or("seed", 0)?;
    let threads = a.usize_or("threads", 0)?;
    let engine = engine_kind(a)?;
    let grid: Vec<f64> = ns.iter().map(|&n| n as f64).collect();
    // The sweep driver needs a concrete type; dispatch per protocol.
    macro_rules! run_sweep {
        ($ctor:expr) => {{
            let res = sweep(
                &grid,
                $ctor,
                |p, s| {
                    let mut rng = Xoshiro256::seed_from_u64(s);
                    init::uniform_random(p.population_size(), p.num_states(), &mut rng)
                },
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
        }};
    }
    match kind.as_str() {
        "generic" | "ag" => run_sweep!(|x: f64| GenericRanking::new(x as usize)),
        "ring" => run_sweep!(|x: f64| RingOfTraps::new(x as usize)),
        "line" => run_sweep!(|x: f64| LineOfTraps::new(x as usize)),
        "tree" => run_sweep!(|x: f64| TreeRanking::new(x as usize)),
        other => return Err(format!("unknown protocol '{other}'")),
    }
    Ok(())
}

fn cmd_elect(a: &Args) -> Result<(), String> {
    let n = a.usize_or("n", 100)?;
    let p = make_protocol(&a.str_or("protocol", "ring"), n)?;
    let seed = a.u64_or("seed", 1)?;
    let start = make_start(
        p.as_ref(),
        &a.str_or("start", "k-distant"),
        a.usize_or("k", 1)?,
        seed,
    )?;
    let out = elect_leader(p.as_ref(), start, seed, u64::MAX).map_err(|e| e.to_string())?;
    println!(
        "{}: agent #{} elected leader after parallel time {:.1}",
        p.name(),
        out.leader,
        out.report.parallel_time
    );
    Ok(())
}

fn cmd_exact(a: &Args) -> Result<(), String> {
    let n = a.usize_or("n", 5)?;
    let kind = a.str_or("protocol", "generic");
    let p = make_protocol(&kind, n)?;
    let limit = a.usize_or("limit", 200_000)?;
    let trials = a.u64_or("trials", 20_000)?;
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
    let p = make_protocol(&a.str_or("protocol", "generic"), n)?;
    let limit = a.usize_or("limit", 3_000_000)?;
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
    let p = make_protocol(&a.str_or("protocol", "ring"), n)?;
    let faults =
        u32::try_from(a.usize_or("faults", 4)?).map_err(|_| "--faults is too large".to_string())?;
    let trials = a.usize_or("trials", 10)?;
    let seed = a.u64_or("seed", 1)?;
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
    let p = make_protocol(&a.str_or("protocol", "tree"), n)?;
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

/// Assemble a service [`JobSpec`] from the `submit` command's flags (the
/// same protocol/start/engine/fault vocabulary as `run`).
fn parse_job_spec(a: &Args) -> Result<JobSpec, String> {
    let n = a.usize_or("n", 100)?;
    let mut spec = JobSpec::new(&a.str_or("protocol", "tree"), n, a.u64_or("seed", 1)?);
    spec.engine = engine_kind(a)?;
    spec.max_interactions = a.u64_or("max", u64::MAX)?;
    spec.threads = a.usize_or("threads", 0)?;
    spec.init = match a.str_or("start", "uniform").as_str() {
        "uniform" => JobInit::Uniform,
        "stacked" => JobInit::Stacked,
        "perfect" => JobInit::Perfect,
        "k-distant" => JobInit::KDistant(a.usize_or("k", 1)?),
        other => {
            return Err(format!(
                "unknown start '{other}' (expected uniform|stacked|perfect|k-distant)"
            ))
        }
    };
    if let Some(plan) = parse_fault_plan(a)? {
        spec.bursts = plan.bursts().to_vec();
        spec.fault_rate = plan.fault_rate();
        spec.churn = plan.churn_rate();
        spec.byzantine = plan.byzantine_agents();
    }
    spec.validate().map_err(|e| e.to_string())?;
    Ok(spec)
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
    let spec = parse_job_spec(a)?;
    let key = ssr_service::submit_job(&dir, &spec).map_err(|e| e.to_string())?;
    println!("submitted {key}");
    if a.str_or("wait", "false") == "true" {
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
    if a.has("key") {
        let key = JobKey::from_hex(&a.str_or("key", ""))
            .ok_or("--key expects the 32-hex-digit job key")?;
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
                                               run leader election
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
                                               and prints the result
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

    #[test]
    fn protocol_factory_covers_all_kinds() {
        for kind in ["generic", "ag", "ring", "line", "tree"] {
            let p = make_protocol(kind, 20).unwrap();
            assert_eq!(p.population_size(), 20, "{kind}");
        }
        let err = match make_protocol("unknown", 20) {
            Ok(_) => panic!("unknown protocol kind must be rejected"),
            Err(e) => e,
        };
        assert!(err.contains("unknown protocol"));
    }

    #[test]
    fn start_factory_covers_all_kinds() {
        let p = make_protocol("tree", 16).unwrap();
        for start in ["uniform", "stacked", "perfect", "k-distant"] {
            let cfg = make_start(p.as_ref(), start, 3, 7).unwrap();
            assert_eq!(cfg.len(), 16, "{start}");
            assert!(cfg.iter().all(|&s| (s as usize) < p.num_states()));
        }
        assert!(make_start(p.as_ref(), "nope", 0, 7).is_err());
        assert!(make_start(p.as_ref(), "k-distant", 16, 7).is_err());
    }

    #[test]
    fn k_distant_start_hits_requested_distance() {
        let p = make_protocol("ring", 24).unwrap();
        let cfg = make_start(p.as_ref(), "k-distant", 5, 1).unwrap();
        assert_eq!(ssr_engine::init::distance(&cfg, 24), 5);
    }

    #[test]
    fn engine_flag_parses_all_kinds_and_legacy_alias() {
        let args = |v: &[&str]| Args::parse(v.iter().map(|s| s.to_string())).unwrap();
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
        let args = |v: &[&str]| Args::parse(v.iter().map(|s| s.to_string())).unwrap();
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
    fn fault_plan_flags_assemble_a_plan() {
        let args = |v: &[&str]| Args::parse(v.iter().map(|s| s.to_string())).unwrap();
        assert_eq!(parse_fault_plan(&args(&["run"])).unwrap(), None);
        let plan = parse_fault_plan(&args(&[
            "run",
            "--fault-burst",
            "0:4, 5000:2",
            "--fault-rate",
            "1e-6",
            "--churn",
            "1e-7",
            "--byzantine",
            "3",
        ]))
        .unwrap()
        .unwrap();
        assert_eq!(plan.bursts(), &[(0, 4), (5_000, 2)]);
        assert_eq!(plan.fault_rate(), 1e-6);
        assert_eq!(plan.churn_rate(), 1e-7);
        assert_eq!(plan.byzantine_agents(), 3);
        assert!(plan.may_never_silence());
        // Malformed entries fail loudly.
        assert!(parse_fault_plan(&args(&["run", "--fault-burst", "40"])).is_err());
        assert!(parse_fault_plan(&args(&["run", "--fault-rate", "2.0"])).is_err());
        assert!(parse_fault_plan(&args(&["run", "--churn", "-0.5"])).is_err());
    }

    #[test]
    fn faults_flag_rejects_counts_beyond_u32() {
        let args = |v: &[&str]| Args::parse(v.iter().map(|s| s.to_string())).unwrap();
        let err = cmd_faults(&args(&["faults", "--faults", "4294967296"])).unwrap_err();
        assert!(err.contains("--faults"), "{err}");
    }

    /// A kill count that does not fit the daemon's `u32` is an error, not
    /// a count wrapped to `0` (never kill) or to a small number.
    #[test]
    fn serve_flag_rejects_kill_counts_beyond_u32() {
        let args = |v: &[&str]| Args::parse(v.iter().map(|s| s.to_string())).unwrap();
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
        let args = |v: &[&str]| Args::parse(v.iter().map(|s| s.to_string())).unwrap();
        // (protocol, n, start, engine, seed, fault flags, max)
        type Case<'a> = (&'a str, usize, &'a str, EngineKind, u64, &'a [&'a str], u64);
        let cases: [Case; 3] = [
            (
                "ring",
                240,
                "perfect",
                EngineKind::Auto,
                3,
                &["--fault-burst", "2000:6"],
                u64::MAX,
            ),
            (
                "tree",
                5000,
                "uniform",
                EngineKind::Auto,
                2,
                &["--fault-burst", "100:20,90000:5", "--fault-rate", "1e-6"],
                3_000_000,
            ),
            (
                "generic",
                64,
                "stacked",
                EngineKind::Naive,
                5,
                &["--fault-burst", "1000:3"],
                u64::MAX,
            ),
        ];
        let mut outcomes = Vec::new();
        for (proto, n, start, kind, seed, flags, max) in cases {
            let p = make_protocol(proto, n).unwrap();
            let cfg = make_start(p.as_ref(), start, 1, seed).unwrap();
            let make = move |_| cfg.clone();
            let scenario = || {
                Scenario::new(p.as_ref())
                    .engine(kind)
                    .init(Init::Custom(&make))
                    .base_seed(seed)
                    .threads(1)
            };
            let plan = parse_fault_plan(&args(&[&["run"], flags].concat()))
                .unwrap()
                .unwrap();
            let got = run_fault_plan(scenario(), plan.clone(), max).unwrap();
            let mut engine = scenario().build_engine(0).unwrap();
            let fault_seed = derive_seed(seed, 0) ^ 0xFA17_FA17_FA17_FA17;
            let want = run_with_plan(engine.as_mut(), &plan, fault_seed, max);
            assert_eq!(got, want, "{proto}");
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
        assert!(!outcomes[1].silent);
        assert_eq!(outcomes[1].report.productive_interactions, 405_232);
        assert_eq!(outcomes[2].report.interactions, 174_772);
    }

    #[test]
    fn persistent_plan_needs_a_finite_cap() {
        let p = make_protocol("ring", 50).unwrap();
        let plan = FaultPlan::new().rate(1e-3);
        let err = run_fault_plan(Scenario::new(p.as_ref()), plan, u64::MAX).unwrap_err();
        assert!(err.contains("finite --max"), "{err}");
    }

    #[test]
    fn every_engine_drives_every_protocol_through_a_scenario() {
        for proto in ["generic", "ring", "line", "tree"] {
            let p = make_protocol(proto, 12).unwrap();
            for kind in EngineKind::ALL.into_iter().chain([EngineKind::Auto]) {
                let start = make_start(p.as_ref(), "stacked", 0, 3).unwrap();
                let make = move |_| start.clone();
                let mut e = Scenario::new(p.as_ref())
                    .engine(kind)
                    .init(Init::Custom(&make))
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
        let args = |v: &[&str]| Args::parse(v.iter().map(|s| s.to_string())).unwrap();
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
        let spec = parse_job_spec(&a).unwrap();
        assert_eq!(spec.protocol, "tree");
        assert_eq!(spec.n, 4096);
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.init, JobInit::KDistant(3));
        assert_eq!(spec.engine, EngineKind::Count);
        assert_eq!(spec.threads, 2);
        assert_eq!(spec.bursts, vec![(100, 4)]);
        // Invalid combinations are rejected at parse time.
        assert!(parse_job_spec(&args(&["submit", "--protocol", "warp"])).is_err());
        assert!(parse_job_spec(&args(&["submit", "--churn", "0.1"])).is_err());
    }

    #[test]
    fn schema_validates_for_every_cli_protocol() {
        for proto in ["generic", "ring", "line", "tree"] {
            let p = make_protocol(proto, 14).unwrap();
            ssr_engine::validate_interaction_schema(p.as_ref())
                .unwrap_or_else(|e| panic!("{proto}: {e}"));
        }
    }
}
