//! The simulation workloads: one protocol, one start, many seeds, each
//! run in-process to silence or to an interaction budget.

use crate::calib::{self, Calibrator};
use crate::report::{emit_layers, emit_trace_bookkeeping, median, ratio, EndToEnd, Report};
use crate::trace::{checkpoint, restore_latest, timed, AdvanceTally, Ledger, Stopwatch};
use crate::Args;
use ssr_core::{GenericRanking, LooseLeaderElection, TreeRanking};
use ssr_engine::rng::derive_seed;
use ssr_engine::wire::SnapshotShape;
use ssr_engine::{Engine, EngineKind, Init, InteractionSchema, Scenario};
use ssr_service::{CheckpointStore, JobKey};
use std::path::Path;

/// What a finished run must satisfy.
#[derive(Clone, Copy)]
pub enum Goal {
    /// Silent, with every rank state occupied exactly once.
    SilentRanking,
    /// Population conserved and the interaction budget reached.
    Budget(u64),
}

/// One simulation workload.
pub struct SimWorkload {
    pub name: &'static str,
    /// Why the workload is in the benchmark, in one sentence.
    pub why: &'static str,
    pub protocol: fn() -> Box<dyn InteractionSchema + Sync>,
    pub init: Init<'static>,
    pub goal: Goal,
}

/// Exercises the batch path: the paper's headline O(n log n) protocol,
/// where batches carry ~99.8% of the run and exact steps are rare.
pub const TREE_SILENCE: SimWorkload = SimWorkload {
    name: "tree_silence",
    why: "TreeRanking n=2^20, uniform start, to silence: the paper's O(n log n) headline; ~99.8% of draws are batched, so batch-path changes show here",
    protocol: || Box::new(TreeRanking::new(1 << 20)),
    init: Init::Uniform,
    goal: Goal::SilentRanking,
};

/// Exercises the exact chain: Θ(n²) A_G spends a third of its run in
/// exact steps, so exact-chain changes show here and nowhere else.
pub const AG_STACKED: SimWorkload = SimWorkload {
    name: "ag_stacked",
    why: "GenericRanking (A_G) n=4096, stacked start, to silence: Theta(n^2); ~2.5M exact steps per seed, the one workload where exact-chain changes show",
    protocol: || Box::new(GenericRanking::new(4096)),
    init: Init::Stacked,
    goal: Goal::SilentRanking,
};

/// Exercises sparse-pair batching and a heavy set-up: the loose protocol
/// declares ~19k rule pairs, so compiling them is a visible share.
pub const LOOSE_BUDGET: SimWorkload = SimWorkload {
    name: "loose_budget",
    why: "LooseLeaderElection n=65536, stacked start, to 10^7 interactions: all sparse-pair batches; compiling ~19k rule pairs makes set-up a large share",
    protocol: || Box::new(LooseLeaderElection::new(65_536)),
    init: Init::Stacked,
    goal: Goal::Budget(10_000_000),
};

/// Deterministic outcome of one seed-run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub interactions_wide: u128,
    pub productive: u64,
    pub counts: Vec<u32>,
}

impl Fingerprint {
    pub fn of(engine: &dyn Engine) -> Self {
        Fingerprint {
            interactions_wide: engine.interactions_wide(),
            productive: engine.productive_interactions(),
            counts: engine.counts().to_vec(),
        }
    }
}

impl SimWorkload {
    fn cap(&self) -> u64 {
        match self.goal {
            Goal::SilentRanking => u64::MAX,
            Goal::Budget(b) => b,
        }
    }

    fn scenario<'a>(
        &self,
        protocol: &'a (dyn InteractionSchema + Sync),
        seed: u64,
        threads: usize,
    ) -> Scenario<'a, dyn InteractionSchema + Sync + 'a> {
        Scenario::new(protocol)
            .engine(EngineKind::Count)
            .init(self.init)
            .base_seed(seed)
            .max_interactions(self.cap())
            .threads(threads)
    }

    /// Whether a finished engine meets the workload's goal.
    fn reached(&self, engine: &dyn Engine) -> bool {
        let counts = engine.counts();
        let population: u64 = counts.iter().map(|&c| u64::from(c)).sum();
        if population != engine.population_size() as u64 {
            return false;
        }
        match self.goal {
            Goal::SilentRanking => {
                let ranks = engine.num_rank_states();
                engine.is_silent() && counts[..ranks].iter().all(|&c| c == 1)
            }
            Goal::Budget(b) => engine.interactions_wide() >= u128::from(b),
        }
    }

    /// One untraced seed-run: `(setup_s, run_s, fingerprint, goal met)`.
    fn run_untraced(&self, seed: u64, trial: u64) -> (f64, f64, Fingerprint, bool) {
        let sw = Stopwatch::start();
        let protocol = (self.protocol)();
        let mut engine = self
            .scenario(protocol.as_ref(), seed, 1)
            .build_engine(trial)
            .expect("workload start is a valid configuration");
        let setup_s = sw.secs();
        let ((), run_s) = timed(|| {
            // A budget run ends in a timeout by design; `reached` checks it.
            let _ = engine.run_until_silent(self.cap());
        });
        let ok = self.reached(engine.as_ref());
        (setup_s, run_s, Fingerprint::of(engine.as_ref()), ok)
    }

    /// One traced seed-run on `threads` engine threads; set-up and every
    /// advance are booked in `ledger` and `tally`. With `ckpt`, the final
    /// state then makes one checkpoint round trip, outside the returned
    /// wall-clock seconds.
    fn run_traced(
        &self,
        seed: u64,
        trial: u64,
        threads: usize,
        ledger: &mut Ledger,
        tally: &mut AdvanceTally,
        ckpt: Option<(&CheckpointStore, JobKey)>,
    ) -> (Fingerprint, bool, f64) {
        let sw = Stopwatch::start();
        let protocol = ledger.time("setup.protocol_s", || (self.protocol)());
        let scenario = self.scenario(protocol.as_ref(), seed, threads);
        let mut engine = ledger
            .time("setup.engine_s", || scenario.build_engine(trial))
            .expect("workload start is a valid configuration");
        tally.drive(engine.as_mut(), u128::from(self.cap()), |_| {});
        let wall = sw.secs();
        let mut ok = self.reached(engine.as_ref());
        if let Some((store, key)) = ckpt {
            let shape = SnapshotShape::of(protocol.as_ref());
            let mut fresh = scenario
                .build_engine(trial)
                .expect("workload start is a valid configuration");
            let snap = checkpoint(engine.as_ref(), shape, store, key, ledger);
            ok &= restore_latest(fresh.as_mut(), &snap, shape, store, key, ledger);
            ok &= store.clear(key).is_ok();
        }
        (Fingerprint::of(engine.as_ref()), ok, wall)
    }

    /// Set-up alone: protocol constructor plus engine build.
    fn setup_only(&self, seed: u64, trial: u64) -> f64 {
        let sw = Stopwatch::start();
        let protocol = (self.protocol)();
        let engine = self
            .scenario(protocol.as_ref(), seed, 1)
            .build_engine(trial);
        let secs = sw.secs();
        drop(engine.expect("workload start is a valid configuration"));
        secs
    }

    /// The untraced run: [`SETUP_REPS`] set-ups, then seed-runs until
    /// `--seconds` have elapsed, each bracketed by calibration passes.
    pub fn measure(&self, args: &Args, report: &mut Report) {
        let mut cal = Calibrator::new();
        let before = cal.sample();
        let mut setups: Vec<f64> = (0..SETUP_REPS)
            .map(|t| self.setup_only(args.seed, t))
            .collect();
        let factor = calib::factor(before, cal.sample());
        setups.iter_mut().for_each(|s| *s *= factor);
        let sw = Stopwatch::start();
        let (mut runs, mut jobs, mut rates, mut factors) = (vec![], vec![], vec![], vec![]);
        let mut raw_runs = Vec::new();
        let mut trial = 0u64;
        while trial < MIN_RUNS || sw.secs() < args.seconds as f64 {
            let before = cal.sample();
            let (setup_s, run_s, fp, ok) = self.run_untraced(args.seed, trial);
            let factor = calib::factor(before, cal.sample());
            println!(
                "run trial={trial} setup_s={setup_s} run_s={run_s} factor={factor} interactions_wide={} productive={}",
                fp.interactions_wide, fp.productive
            );
            report.check(ok, &format!("{} trial {trial} missed its goal", self.name));
            setups.push(setup_s * factor);
            runs.push(run_s * factor);
            jobs.push((setup_s + run_s) * factor);
            rates.push(ratio(fp.productive as f64, run_s * factor));
            factors.push(factor);
            raw_runs.push(run_s);
            trial += 1;
        }
        EndToEnd {
            run_s: median(&runs),
            job_s: median(&jobs),
            productive_per_s: median(&rates),
            setup_s: median(&setups),
        }
        .emit(report);
        report.extra("calib.factor", median(&factors), "ratio");
        report.extra("raw.run_s", median(&raw_runs), "s");
    }

    /// The traced run: the same fixed seeds untraced, then traced, then
    /// the 2-thread pool probe on the first seed.
    pub fn trace(&self, args: &Args, report: &mut Report, scratch: &Path) {
        let trials = trace_trials(args.seconds);
        let untraced_sw = Stopwatch::start();
        let mut reference = Vec::new();
        for trial in 0..trials {
            let (_, _, fp, ok) = self.run_untraced(args.seed, trial);
            report.check(ok, &format!("{} trial {trial} missed its goal", self.name));
            reference.push(fp);
        }
        let untraced_wall = untraced_sw.secs();

        // Each traced seed ends with one checkpoint round trip of its
        // final state: the checkpoint cost at this workload's size, booked
        // outside the traced wall.
        let store =
            CheckpointStore::open(scratch.join("checkpoints")).expect("scratch store opens");
        let mut ledger = Ledger::default();
        let mut total = AdvanceTally::default();
        let mut traced_wall = 0.0;
        let mut first = None;
        for (trial, expected) in (0..trials).zip(&reference) {
            let mut tally = AdvanceTally::default();
            let ckpt = Some((&store, job_key(args.seed, trial)));
            let (fp, ok, wall) =
                self.run_traced(args.seed, trial, 1, &mut ledger, &mut tally, ckpt);
            traced_wall += wall;
            report.check(
                ok,
                &format!("{} traced trial {trial} missed its goal", self.name),
            );
            report.check(
                &fp == expected,
                &format!(
                    "{} traced trial {trial} left the untraced trajectory",
                    self.name
                ),
            );
            println!(
                "fingerprint trial={trial} interactions_wide={} productive={} batch_calls={} batch_draws={} exact_calls={} ckpt=1",
                fp.interactions_wide, fp.productive, tally.batch_calls, tally.batch_draws, tally.exact_calls
            );
            total.merge(&tally);
            first.get_or_insert((fp, tally));
        }
        // Set-up plus every advance; the rest is loop checks and timer reads.
        let layer_sum = ledger.sum(&["setup.protocol_s", "setup.engine_s"])
            + (total.exact_busy + total.batch_busy).as_secs_f64();

        // Pool overhead: the first seed again on two split threads.
        let (fp1, t1) = first.expect("at least one traced trial");
        let mut t2 = AdvanceTally::default();
        let (fp2, ok, _) = self.run_traced(args.seed, 0, 2, &mut Ledger::default(), &mut t2, None);
        report.check(
            ok && fp2 == fp1,
            &format!("{} 2-thread run left the 1-thread trajectory", self.name),
        );
        let pool_ratio = ratio(t2.batch_busy.as_secs_f64(), t1.batch_busy.as_secs_f64());

        let productive = reference.iter().map(|f| f.productive).sum();
        emit_layers(report, &ledger, &total, productive);
        report.metric("pool.t2_batch_ratio", pool_ratio, "ratio");
        emit_trace_bookkeeping(report, untraced_wall, traced_wall, layer_sum);
    }
}

/// Seed-runs every untraced run makes before it looks at the clock.
const MIN_RUNS: u64 = 3;

/// Extra set-ups timed before the seed-runs, so `setup_s` is a median
/// of many samples even when few seed-runs fit in `--seconds`.
const SETUP_REPS: u64 = 10;

/// Seeds per traced run: fixed by `--seconds` alone, so two traced runs
/// with the same arguments report identical counts.
fn trace_trials(seconds: u64) -> u64 {
    (seconds / 3).clamp(1, 3)
}

/// A checkpoint-store key for a seed-run that has no job spec.
fn job_key(seed: u64, trial: u64) -> JobKey {
    let mut key = [0u8; 16];
    key[..8].copy_from_slice(&derive_seed(seed, trial).to_le_bytes());
    key[8..].copy_from_slice(&trial.to_le_bytes());
    JobKey(key)
}
