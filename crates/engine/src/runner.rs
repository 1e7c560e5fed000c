//! The [`Scenario`] builder: one experiment description driving every
//! engine.
//!
//! "With high probability" statements are measured over many independent
//! trials. A `Scenario` names the protocol, the engine
//! ([`EngineKind::Auto`] by default — count at large `n`, jump below), the
//! initial-configuration family, an optional [`FaultPlan`] (timed bursts,
//! background corruption, churn, Byzantine agents — see
//! [`Scenario::fault_plan`]), and the trial budget; [`Scenario::run`]
//! executes the trials in parallel with
//! deterministic per-trial seeds derived from a single base seed, so an
//! experiment is reproducible regardless of thread count. The scenario's
//! [`threads`](Scenario::threads) value is a single core budget split
//! across concurrent trials and each trial engine's parallel batch
//! splits (see [`Scenario::thread_split`]). The CLI and every `exp_*`
//! experiment binary consume this API.
//!
//! # Examples
//!
//! ```
//! use ssr_engine::protocol::{ClassSpec, InteractionSchema, Protocol, State};
//! use ssr_engine::runner::{Init, Scenario};
//!
//! struct Ag { n: usize }
//! impl Protocol for Ag {
//!     fn name(&self) -> &str { "A_G" }
//!     fn population_size(&self) -> usize { self.n }
//!     fn num_states(&self) -> usize { self.n }
//!     fn num_rank_states(&self) -> usize { self.n }
//!     fn transition(&self, i: State, r: State) -> Option<(State, State)> {
//!         (i == r).then(|| (i, (r + 1) % self.n as State))
//!     }
//! }
//! impl InteractionSchema for Ag {
//!     fn interaction_classes(&self) -> Vec<ClassSpec> {
//!         vec![ClassSpec::equal_rank()]
//!     }
//! }
//!
//! let p = Ag { n: 16 };
//! let results = Scenario::new(&p)
//!     .init(Init::Stacked)
//!     .trials(8)
//!     .base_seed(7)
//!     .run();
//! assert_eq!(results.len(), 8);
//! assert_eq!(results.success_rate(), 1.0);
//! ```

use crate::count::CountSimulation;
use crate::engine::{make_engine, Engine, EngineKind};
use crate::error::{ConfigError, StabilisationTimeout};
use crate::faults::{run_with_plan, FaultPlan, RunOutcome};
use crate::init::{self, DuplicatePlacement};
use crate::protocol::{InteractionSchema, State};
use crate::rng::{derive_seed, Xoshiro256};
use crate::sim::{Simulation, StabilisationReport};

/// Results of a batch of trials, in trial order.
#[derive(Debug, Clone)]
pub struct TrialResults {
    reports: Vec<Result<StabilisationReport, StabilisationTimeout>>,
}

impl TrialResults {
    /// Number of trials run.
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// True if no trials were run.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }

    /// Per-trial outcomes in trial order.
    pub fn reports(&self) -> &[Result<StabilisationReport, StabilisationTimeout>] {
        &self.reports
    }

    /// Fraction of trials that stabilised within the cap.
    pub fn success_rate(&self) -> f64 {
        if self.reports.is_empty() {
            return 0.0;
        }
        self.reports.iter().filter(|r| r.is_ok()).count() as f64 / self.reports.len() as f64
    }

    /// Parallel stabilisation times of the successful trials.
    pub fn parallel_times(&self) -> Vec<f64> {
        self.reports
            .iter()
            .filter_map(|r| r.as_ref().ok().map(|rep| rep.parallel_time))
            .collect()
    }

    /// Interaction counts of the successful trials.
    pub fn interaction_counts(&self) -> Vec<u64> {
        self.reports
            .iter()
            .filter_map(|r| r.as_ref().ok().map(|rep| rep.interactions))
            .collect()
    }
}

/// Initial-configuration family of a [`Scenario`]. Every variant is
/// deterministic in the per-trial seed it is given.
#[derive(Clone, Copy)]
pub enum Init<'a> {
    /// Everyone stacked in state 0 — the classic adversarial start.
    Stacked,
    /// Everyone in the given state.
    AllIn(State),
    /// Uniformly random over the protocol's full state space — the
    /// paper's "arbitrary initial configuration".
    Uniform,
    /// The silent perfect ranking (combine with
    /// [`Scenario::faults`] for corrupt-and-recover runs).
    Perfect,
    /// A configuration at ranking distance exactly `k` (that many rank
    /// states unoccupied), duplicates placed randomly.
    KDistant(usize),
    /// Custom generator: per-trial seed in, configuration out.
    Custom(&'a (dyn Fn(u64) -> Vec<State> + Sync)),
}

impl std::fmt::Debug for Init<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Init::Stacked => f.write_str("Stacked"),
            Init::AllIn(s) => write!(f, "AllIn({s})"),
            Init::Uniform => f.write_str("Uniform"),
            Init::Perfect => f.write_str("Perfect"),
            Init::KDistant(k) => write!(f, "KDistant({k})"),
            Init::Custom(_) => f.write_str("Custom(..)"),
        }
    }
}

/// A declarative experiment: protocol + engine + initial configuration +
/// optional fault plan + trial budget. See the module docs for an
/// example.
#[derive(Debug)]
pub struct Scenario<'a, P: InteractionSchema + Sync + ?Sized> {
    protocol: &'a P,
    engine: EngineKind,
    init: Init<'a>,
    plan: Option<FaultPlan>,
    trials: usize,
    max_interactions: u64,
    base_seed: u64,
    threads: usize,
}

impl<'a, P: InteractionSchema + Sync + ?Sized> Scenario<'a, P> {
    /// A single-trial scenario over `protocol` with the defaults: engine
    /// [`EngineKind::Auto`], [`Init::Uniform`] start, no faults, no
    /// interaction cap, base seed 0, auto thread count.
    pub fn new(protocol: &'a P) -> Self {
        Scenario {
            protocol,
            engine: EngineKind::Auto,
            init: Init::Uniform,
            plan: None,
            trials: 1,
            max_interactions: u64::MAX,
            base_seed: 0,
            threads: 0,
        }
    }

    /// Select the engine (default [`EngineKind::Auto`]).
    pub fn engine(mut self, kind: EngineKind) -> Self {
        self.engine = kind;
        self
    }

    /// Select the initial-configuration family (default
    /// [`Init::Uniform`]).
    pub fn init(mut self, init: Init<'a>) -> Self {
        self.init = init;
        self
    }

    /// Corrupt each trial's start with this many transient faults: every
    /// fault rewrites one uniformly random agent to a uniformly random
    /// state (possibly its own — real fault models do not guarantee
    /// damage). Sugar for [`fault_plan`](Self::fault_plan) with
    /// [`FaultPlan::once`]; zero clears the plan.
    pub fn faults(self, faults: u32) -> Self {
        let plan = (faults > 0).then(|| FaultPlan::once(faults));
        Self { plan, ..self }
    }

    /// Attach a timed [`FaultPlan`] executed deterministically against
    /// each trial's engine: bursts at arbitrary clock times, periodic
    /// bursts, background corruption, replacement churn, and Byzantine
    /// agents (see [`run_with_plan`]). Each trial derives an independent
    /// fault seed from the base seed, so fault sequences are reproducible
    /// and engine-independent. Plans with persistent processes require a
    /// finite [`max_interactions`](Self::max_interactions).
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Number of independent trials (default 1).
    pub fn trials(mut self, trials: usize) -> Self {
        self.trials = trials;
        self
    }

    /// Per-trial interaction cap (default unbounded).
    pub fn max_interactions(mut self, max: u64) -> Self {
        self.max_interactions = max;
        self
    }

    /// Base seed; trial `t` derives its config and simulation seeds from
    /// it (default 0).
    pub fn base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Core budget (0 = one per available core, the default). This is a
    /// **single** budget spanning both parallelism levels: concurrent
    /// trials, and the count engine's parallel per-class batch splits
    /// inside each trial. [`run`](Self::run) splits it as
    /// `trial_workers × split_threads ≤ budget` — see
    /// [`thread_split`](Self::thread_split) for the policy. A scenario
    /// with many trials runs them trial-parallel on single-threaded
    /// engines; a single-trial scenario at large `n` hands the whole
    /// budget to its engine's split workers; in between both levels get a
    /// share. Either way every result is bit-identical for a fixed base
    /// seed regardless of the budget.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The configuration trial `t` starts from. Faults no longer touch
    /// the configuration here: a [`FaultPlan`] executes against the
    /// running engine (a `t = 0` burst reproduces the corrupt-at-start
    /// model).
    fn trial_config(&self, trial: u64) -> Vec<State> {
        let config_seed = derive_seed(self.base_seed, trial * 2);
        let n = self.protocol.population_size();
        match self.init {
            Init::Stacked => init::all_in(n, 0),
            Init::AllIn(s) => init::all_in(n, s),
            Init::Uniform => {
                let mut rng = Xoshiro256::seed_from_u64(config_seed);
                init::uniform_random(n, self.protocol.num_states(), &mut rng)
            }
            Init::Perfect => init::perfect_ranking(n),
            Init::KDistant(k) => {
                let mut rng = Xoshiro256::seed_from_u64(config_seed);
                init::k_distant(n, k, DuplicatePlacement::Random, &mut rng)
            }
            Init::Custom(make) => make(config_seed),
        }
    }

    /// The configuration trial `t` starts from, as per-state occupancy
    /// counts and without materialising the agent vector — available for
    /// the init families whose counts can be generated directly (fault
    /// plans execute against the engine, so they do not force the agent
    /// vector). Consumes the RNG identically to
    /// [`trial_config`](Self::trial_config), so the resulting multiset of
    /// states is the same either way.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::OccupancyOverflow`] when a stacked start
    /// puts more than `u32::MAX` agents in one state.
    fn trial_counts(&self, trial: u64) -> Result<Option<Vec<u32>>, ConfigError> {
        let config_seed = derive_seed(self.base_seed, trial * 2);
        let n = self.protocol.population_size();
        let num_states = self.protocol.num_states();
        // The count engine's occupancy counters are `u32`.
        let stacked = |s: State| {
            let agents = u32::try_from(n).map_err(|_| ConfigError::OccupancyOverflow {
                state: s,
                agents: n,
            })?;
            let mut counts = vec![0u32; num_states];
            counts[s as usize] = agents;
            Ok(counts)
        };
        let counts = match self.init {
            Init::Stacked => stacked(0)?,
            Init::AllIn(s) => {
                if (s as usize) >= num_states {
                    // Fall back to the agent-vector path, which reports
                    // the out-of-range state as a ConfigError instead of
                    // an index panic.
                    return Ok(None);
                }
                stacked(s)?
            }
            Init::Uniform => {
                let mut rng = Xoshiro256::seed_from_u64(config_seed);
                init::uniform_random_counts(n, num_states, &mut rng)
            }
            Init::Perfect => {
                let mut counts = vec![0u32; num_states];
                for slot in counts.iter_mut().take(n) {
                    *slot = 1;
                }
                counts
            }
            Init::KDistant(_) | Init::Custom(_) => return Ok(None),
        };
        Ok(Some(counts))
    }

    /// Build the (boxed) engine for trial `trial`, positioned at its start
    /// configuration. Useful for drivers that want to own the run loop
    /// (observers, wall-clock measurement, snapshotting).
    ///
    /// The engine receives the per-trial share of the scenario's core
    /// budget (the `split_threads` half of
    /// [`thread_split`](Self::thread_split)); the rest is reserved for
    /// trial-level parallelism in [`run`](Self::run). Init families whose
    /// counts are directly generable skip the agent vector entirely.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the configuration generator produces an
    /// invalid configuration for the protocol.
    pub fn build_engine(&self, trial: u64) -> Result<Box<dyn Engine + 'a>, ConfigError> {
        let sim_seed = derive_seed(self.base_seed, trial * 2 + 1);
        let (_, engine_threads) = self.thread_split();
        let Some(counts) = self.trial_counts(trial)? else {
            let config = self.trial_config(trial);
            return make_engine(self.engine, self.protocol, config, sim_seed, engine_threads);
        };
        // The count engine consumes the counts as-is; the naive engine
        // expands them into a state-sorted agent vector.
        let p = self.protocol;
        Ok(match self.engine.resolve(p.population_size()) {
            EngineKind::Auto => unreachable!("resolve returns a concrete kind"),
            EngineKind::Naive => {
                Box::new(Simulation::new(p, init::from_counts(&counts), sim_seed)?)
            }
            EngineKind::Jump => {
                Box::new(CountSimulation::from_counts(p, counts, sim_seed)?.with_batching(false))
            }
            EngineKind::Count => Box::new(
                CountSimulation::from_counts(p, counts, sim_seed)?.with_threads(engine_threads),
            ),
        })
    }

    /// Run a single trial to silence (or the interaction cap).
    ///
    /// With a fault plan attached this executes the plan and collapses the
    /// [`RunOutcome`] into the classic result shape: a run that ends
    /// silent is `Ok`, a run that reaches the cap still perturbed is a
    /// [`StabilisationTimeout`]. Use [`run_outcome`](Self::run_outcome)
    /// to keep the availability and recovery observables instead.
    ///
    /// # Errors
    ///
    /// Returns [`StabilisationTimeout`] when the cap is exceeded first.
    ///
    /// # Panics
    ///
    /// Panics if the configuration generator produces an invalid
    /// configuration, or if the plan has a persistent fault process and
    /// no finite cap is set.
    pub fn run_one(&self, trial: u64) -> Result<StabilisationReport, StabilisationTimeout> {
        if self.plan.is_some() {
            let outcome = self.run_outcome(trial);
            return if outcome.silent {
                Ok(outcome.report)
            } else {
                Err(StabilisationTimeout {
                    interactions: outcome.report.interactions,
                })
            };
        }
        let mut engine = self
            .build_engine(trial)
            .expect("scenario produced an invalid configuration");
        engine.run_until_silent(self.max_interactions)
    }

    /// Run a single trial under the scenario's fault plan (an empty plan
    /// if none was attached) and report the full [`RunOutcome`]:
    /// availability, `k`-distance excursions, per-burst recovery times,
    /// and whether the run ended silent. Non-convergence is reported, not
    /// an error.
    ///
    /// The fault process draws from a per-trial seed derived from the
    /// base seed (independent of the configuration and simulation seeds),
    /// so the schedule is identical across engines and thread counts.
    ///
    /// # Panics
    ///
    /// Panics if the configuration generator produces an invalid
    /// configuration, or if the plan has a persistent fault process and
    /// no finite cap is set.
    pub fn run_outcome(&self, trial: u64) -> RunOutcome {
        let mut engine = self
            .build_engine(trial)
            .expect("scenario produced an invalid configuration");
        let empty = FaultPlan::new();
        let plan = self.plan.as_ref().unwrap_or(&empty);
        let fault_seed = derive_seed(self.base_seed, trial * 2) ^ 0xFA17_FA17_FA17_FA17;
        run_with_plan(engine.as_mut(), plan, fault_seed, self.max_interactions)
    }

    /// Split the scenario's core budget across the two parallelism
    /// levels, returning `(trial_workers, split_threads)`:
    /// `trial_workers` trials run concurrently, and each trial's engine
    /// gets `split_threads` threads for its per-class batch splits.
    ///
    /// # Core-budget policy
    ///
    /// Trial-level parallelism comes first because independent trials
    /// scale perfectly, while split workers only help once per-batch draw
    /// counts are large: `trial_workers = budget.min(trials)`, and the
    /// cores left over per concurrent trial go to that trial's engine,
    /// `split_threads = (budget / trial_workers).max(1)`. Consequences:
    ///
    /// - many trials (≥ budget): fully trial-parallel, engines run
    ///   single-threaded — the PR 5 behaviour;
    /// - a single trial: the whole budget goes to the engine's persistent
    ///   split-worker pool — large-`n` scaling runs;
    /// - few trials on many cores (e.g. 3 trials, 8 cores): both levels
    ///   engage, `3 × 2 ≤ 8`.
    ///
    /// The product never exceeds the budget. Determinism is unaffected:
    /// trial seeds depend only on the trial index and engine trajectories
    /// are bit-identical at any split-thread count.
    pub fn thread_split(&self) -> (usize, usize) {
        let budget = self.effective_threads().max(1);
        let trial_workers = budget.min(self.trials.max(1));
        let split_threads = (budget / trial_workers).max(1);
        (trial_workers, split_threads)
    }

    /// Run all trials, in parallel when beneficial. The core budget is
    /// split across concurrent trials and per-trial engine threads by
    /// [`thread_split`](Self::thread_split). Results are in trial order
    /// and deterministic in the base seed regardless of the budget.
    ///
    /// # Panics
    ///
    /// Panics if the configuration generator produces an invalid
    /// configuration.
    pub fn run(&self) -> TrialResults {
        TrialResults {
            reports: self.run_map(|t| self.run_one(t)),
        }
    }

    /// Run all trials under the fault plan and keep the full
    /// [`RunOutcome`] per trial (see [`run_outcome`](Self::run_outcome)),
    /// in trial order, parallelised like [`run`](Self::run).
    ///
    /// # Panics
    ///
    /// Panics if the configuration generator produces an invalid
    /// configuration, or if the plan has a persistent fault process and
    /// no finite cap is set.
    pub fn run_outcomes(&self) -> Vec<RunOutcome> {
        self.run_map(|t| self.run_outcome(t))
    }

    /// Run `f` once per trial index, trial-parallel under the scenario's
    /// core budget, collecting results in trial order.
    fn run_map<R: Send>(&self, f: impl Fn(u64) -> R + Sync) -> Vec<R> {
        let trials = self.trials;
        let (threads, _) = self.thread_split();
        let mut results: Vec<Option<R>> = (0..trials).map(|_| None).collect();

        if threads <= 1 || trials <= 1 {
            for (t, slot) in results.iter_mut().enumerate() {
                *slot = Some(f(t as u64));
            }
        } else {
            let next = std::sync::atomic::AtomicUsize::new(0);
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    let tx = tx.clone();
                    let next = &next;
                    let f = &f;
                    scope.spawn(move || loop {
                        let t = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if t >= trials {
                            break;
                        }
                        let r = f(t as u64);
                        tx.send((t, r)).expect("result channel closed");
                    });
                }
                drop(tx);
                for (t, r) in rx {
                    results[t] = Some(r);
                }
            });
        }

        results.into_iter().map(|r| r.expect("trial ran")).collect()
    }

    fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{ClassSpec, Protocol};

    struct Ag {
        n: usize,
    }
    impl Protocol for Ag {
        fn name(&self) -> &str {
            "A_G"
        }
        fn population_size(&self) -> usize {
            self.n
        }
        fn num_states(&self) -> usize {
            self.n
        }
        fn num_rank_states(&self) -> usize {
            self.n
        }
        fn transition(&self, i: State, r: State) -> Option<(State, State)> {
            if i == r {
                Some((i, (r + 1) % self.n as State))
            } else {
                None
            }
        }
    }
    impl InteractionSchema for Ag {
        fn interaction_classes(&self) -> Vec<ClassSpec> {
            vec![ClassSpec::equal_rank()]
        }
    }

    /// A stacked `A_G` scenario with `trials` trials from `base_seed`.
    fn stacked(p: &Ag, trials: usize, base_seed: u64) -> Scenario<'_, Ag> {
        Scenario::new(p)
            .init(Init::Stacked)
            .trials(trials)
            .base_seed(base_seed)
    }

    #[test]
    fn all_trials_succeed_and_are_ordered() {
        let p = Ag { n: 10 };
        let res = stacked(&p, 12, 5).run();
        assert_eq!(res.len(), 12);
        assert_eq!(res.success_rate(), 1.0);
        assert_eq!(res.parallel_times().len(), 12);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let p = Ag { n: 10 };
        let seq = stacked(&p, 8, 42).threads(1).run();
        let par = stacked(&p, 8, 42).threads(4).run();
        assert_eq!(seq.interaction_counts(), par.interaction_counts());
    }

    #[test]
    fn timeouts_counted_in_success_rate() {
        let p = Ag { n: 10 };
        let res = stacked(&p, 10, 1).max_interactions(1).run();
        assert_eq!(res.success_rate(), 0.0);
        assert!(res.parallel_times().is_empty());
    }

    #[test]
    fn scenario_runs_each_engine_kind() {
        let p = Ag { n: 8 };
        for kind in EngineKind::ALL.into_iter().chain([EngineKind::Auto]) {
            let res = Scenario::new(&p)
                .engine(kind)
                .init(Init::Stacked)
                .trials(4)
                .base_seed(3)
                .run();
            assert_eq!(res.success_rate(), 1.0, "{kind}");
        }
    }

    #[test]
    fn auto_is_jump_below_threshold() {
        // Below the auto threshold the default engine must reproduce the
        // exact-mode per-trial results.
        let p = Ag { n: 12 };
        let run = |kind| stacked(&p, 5, 23).engine(kind).run().interaction_counts();
        assert_eq!(run(EngineKind::Auto), run(EngineKind::Jump));
    }

    #[test]
    fn init_families_produce_valid_starts() {
        let p = Ag { n: 12 };
        for (init, expect_silent) in [
            (Init::Stacked, false),
            (Init::AllIn(3), false),
            (Init::Uniform, false),
            (Init::Perfect, true),
            (Init::KDistant(4), false),
        ] {
            let s = Scenario::new(&p).init(init).base_seed(9);
            let e = s.build_engine(0).unwrap();
            assert_eq!(e.counts().iter().sum::<u32>(), 12, "{init:?}");
            if expect_silent {
                assert!(e.is_silent(), "{init:?}");
            }
        }
        let e = Scenario::new(&p)
            .init(Init::KDistant(4))
            .base_seed(9)
            .build_engine(0)
            .unwrap();
        let unoccupied = e.counts().iter().filter(|&&c| c == 0).count();
        assert_eq!(unoccupied, 4);
    }

    #[test]
    fn faults_corrupt_a_perfect_start_and_recovery_succeeds() {
        let p = Ag { n: 20 };
        let s = Scenario::new(&p)
            .init(Init::Perfect)
            .faults(5)
            .trials(10)
            .base_seed(31);
        // With faults the start is (almost surely) not silent; recovery
        // must still succeed in every trial.
        let res = s.run();
        assert_eq!(res.success_rate(), 1.0);
        // Determinism: the same scenario rebuilt gives identical results.
        assert_eq!(res.interaction_counts(), s.run().interaction_counts());
    }

    #[test]
    fn fault_plan_outcomes_report_bursts_and_are_deterministic() {
        let p = Ag { n: 20 };
        let s = Scenario::new(&p)
            .init(Init::Perfect)
            .fault_plan(FaultPlan::new().burst_at(1_000, 4))
            .trials(6)
            .base_seed(53);
        let outcomes = s.run_outcomes();
        assert_eq!(outcomes.len(), 6);
        for o in &outcomes {
            assert!(o.silent);
            assert_eq!(o.faults_injected, 4);
            assert_eq!(o.bursts.len(), 1);
            assert_eq!(o.bursts[0].time, 1_000);
        }
        // Trial-parallel execution must not change any outcome.
        let serial = Scenario::new(&p)
            .init(Init::Perfect)
            .fault_plan(FaultPlan::new().burst_at(1_000, 4))
            .trials(6)
            .base_seed(53)
            .threads(1)
            .run_outcomes();
        assert_eq!(outcomes, serial);
    }

    #[test]
    fn byzantine_scenario_degrades_gracefully_to_an_outcome() {
        // Acceptance: a Byzantine run terminates with a RunOutcome
        // reporting reduced availability instead of an error or a hang.
        let p = Ag { n: 16 };
        let s = Scenario::new(&p)
            .init(Init::Stacked)
            .fault_plan(FaultPlan::new().byzantine(2))
            .max_interactions(150_000)
            .base_seed(8);
        let outcome = s.run_outcome(0);
        assert!(!outcome.silent);
        assert!(outcome.availability < 1.0);
        // The classic interface reports the same run as a timeout.
        assert!(s.run_one(0).is_err());
    }

    #[test]
    fn config_seed_feeds_generator() {
        let p = Ag { n: 8 };
        // Record the seed each trial's custom generator receives: different
        // trials must get different seeds.
        let seen = std::sync::Mutex::new(Vec::new());
        let make = |seed| {
            seen.lock().unwrap().push(seed);
            vec![0; 8]
        };
        let _ = Scenario::new(&p)
            .init(Init::Custom(&make))
            .trials(3)
            .base_seed(9)
            .run();
        let seen = seen.into_inner().unwrap();
        let distinct: std::collections::HashSet<_> = seen.iter().collect();
        assert_eq!(distinct.len(), 3);
    }

    #[test]
    fn empty_batch() {
        let p = Ag { n: 8 };
        let res = stacked(&p, 0, 0).run();
        assert!(res.is_empty());
        assert_eq!(res.success_rate(), 0.0);
    }

    #[test]
    fn counts_fast_path_matches_agent_vector_path() {
        // For the directly-generable init families the counts path must
        // produce the same multiset as the materialised agent vector (the
        // uniform family shares the exact RNG draw sequence).
        let p = Ag { n: 16 };
        for init in [Init::Stacked, Init::AllIn(3), Init::Uniform, Init::Perfect] {
            let s = Scenario::new(&p).init(init).base_seed(77);
            let via_counts = s.trial_counts(0).unwrap().expect("family supports counts");
            let via_agents = crate::init::counts(&s.trial_config(0), p.num_states());
            assert_eq!(via_counts, via_agents, "{init:?}");
        }
        // Fault plans execute against the engine, so they no longer
        // force the agent-vector path.
        assert!(Scenario::new(&p)
            .faults(1)
            .trial_counts(0)
            .unwrap()
            .is_some());
        assert!(Scenario::new(&p)
            .init(Init::KDistant(2))
            .trial_counts(0)
            .unwrap()
            .is_none());
    }

    #[test]
    fn stacked_start_beyond_the_u32_occupancy_limit_is_a_config_error() {
        // Three states and no agent vector: the counts path must refuse
        // before any population-sized allocation.
        struct Huge;
        impl Protocol for Huge {
            fn name(&self) -> &str {
                "huge"
            }
            fn population_size(&self) -> usize {
                (1 << 32) + 5
            }
            fn num_states(&self) -> usize {
                3
            }
            fn num_rank_states(&self) -> usize {
                3
            }
            fn transition(&self, i: State, r: State) -> Option<(State, State)> {
                (i == r).then_some((i, (r + 1) % 3))
            }
        }
        impl InteractionSchema for Huge {
            fn interaction_classes(&self) -> Vec<ClassSpec> {
                vec![ClassSpec::equal_rank()]
            }
        }
        for (init, state) in [(Init::Stacked, 0), (Init::AllIn(2), 2)] {
            let err = Scenario::new(&Huge).init(init).build_engine(0).err();
            assert_eq!(
                err,
                Some(ConfigError::OccupancyOverflow {
                    state,
                    agents: (1 << 32) + 5
                }),
                "{init:?}"
            );
        }
    }

    #[test]
    fn core_budget_splits_across_trials_then_engine() {
        let p = Ag { n: 8 };
        let split = |trials, threads| {
            Scenario::new(&p)
                .trials(trials)
                .threads(threads)
                .thread_split()
        };
        // Single trial: the whole budget goes to the engine's splits.
        assert_eq!(split(1, 8), (1, 8));
        // Trials saturate the budget: fully trial-parallel.
        assert_eq!(split(8, 8), (8, 1));
        assert_eq!(split(16, 4), (4, 1));
        // In between, both levels engage and the product stays ≤ budget.
        assert_eq!(split(2, 8), (2, 4));
        assert_eq!(split(3, 8), (3, 2));
        // Degenerate inputs stay sane.
        assert_eq!(split(0, 4), (1, 4));
        assert_eq!(split(5, 1), (1, 1));
    }

    #[test]
    fn mixed_budget_is_deterministic() {
        // 2 trials on a 4-core budget engage both levels (2 trial workers
        // × 2 split threads); results must match the serial run.
        let p = Ag { n: 10 };
        let run = |threads| {
            Scenario::new(&p)
                .init(Init::Stacked)
                .trials(2)
                .base_seed(91)
                .threads(threads)
                .run()
                .interaction_counts()
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn out_of_range_all_in_state_is_a_config_error_not_a_panic() {
        let p = Ag { n: 8 };
        let outcome = Scenario::new(&p)
            .init(Init::AllIn(99))
            .build_engine(0)
            .err()
            .map(|e| e.to_string());
        assert!(outcome.is_some(), "state 99 must be rejected for 8 states");
    }
}
