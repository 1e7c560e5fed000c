//! The adversary subsystem: timed fault plans, churn, Byzantine agents,
//! and recovery measurement.
//!
//! Self-stabilisation is exactly the promise that the system recovers from
//! *any* transient corruption of agent states. The paper formalises the
//! corrupted configuration as the adversarial start (§1) and measures
//! distance as the number `k` of missing rank states (§3). This module
//! generalises the one-shot corrupt-at-time-zero experiment to **timed
//! fault processes on the interaction clock**, described by a
//! [`FaultPlan`]:
//!
//! * **one-shot bursts** ([`FaultPlan::burst_at`]) — `f` uniformly random
//!   agents rewritten to uniformly random states at an arbitrary clock
//!   time `t` (not just `t = 0`);
//! * **periodic bursts** ([`FaultPlan::periodic`]) — the same burst every
//!   `period` interactions;
//! * **rate faults** ([`FaultPlan::rate`]) — background corruption where
//!   every scheduler draw is independently a fault with probability `r`
//!   (arrival gaps are geometric, the discrete Poisson-process analogue);
//! * **replacement churn** ([`FaultPlan::churn`]) — at rate `r`, an agent
//!   leaves and a fresh agent with a uniformly random state joins.
//!   Operationally this is the continuous version of the transient-fault
//!   model: the population size is preserved and the replacement is
//!   indistinguishable from a corruption of the departed agent;
//! * **Byzantine/stuck-at agents** ([`FaultPlan::byzantine`]) — `k` agents
//!   (chosen uniformly at plan start) that keep interacting but never
//!   update their own state. Their partners still update normally.
//!
//! [`Scenario`] is the front door: [`Scenario::faults`] attaches the
//! classic corrupt-at-time-zero burst and [`Scenario::fault_plan`] any
//! timed plan, and each trial derives its own fault seed from the base
//! seed. Underneath, [`run_with_plan`] executes a plan against any
//! [`Engine`] deterministically: every engine sees the identical fault
//! schedule and the identical fault RNG stream, the exact-stepping
//! engines truncate their clock to each scheduled event time *exactly*
//! (memorylessness of the geometric null gap), and the count engine clips
//! its batch size to the next scheduled event so batches never blow
//! through a fault time (see [`Engine::advance_to`]).
//!
//! Because Byzantine agents and nonzero fault rates can make silence
//! unreachable, [`run_with_plan`] never panics on non-convergence and
//! never discards the run on a timeout: it returns a [`RunOutcome`] with
//! steady-state observables — time-weighted **availability** (fraction of
//! interaction time with a correct ranking prefix, i.e. `k = 0`), the
//! mean and maximum `k`-distance excursion, and the per-burst
//! recovery-time distribution — measured by a
//! [`RecoveryTracker`] observer.
//! [`rank_distance`] is the paper's `k`-distance of a configuration.
//!
//! Experiment AD in `exp_adversary` drives timed plans through the count
//! engine's exact and batched modes and cross-validates their
//! recovery-time distributions.
//!
//! # Examples
//!
//! ```
//! use ssr_engine::faults::FaultPlan;
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
//! let p = Ag { n: 32 };
//! // Start perfect, hit 4 agents at parallel time ~16, watch it recover.
//! let outcome = Scenario::new(&p)
//!     .init(Init::Perfect)
//!     .fault_plan(FaultPlan::new().burst_at(512, 4))
//!     .base_seed(7)
//!     .run_outcome(0);
//! assert!(outcome.silent);
//! assert_eq!(outcome.bursts.len(), 1);
//! assert!(outcome.bursts[0].k_after <= 4);
//! assert!(outcome.availability <= 1.0);
//! ```
//!
//! [`Engine`]: crate::engine::Engine
//! [`Engine::advance_to`]: crate::engine::Engine::advance_to
//! [`Scenario`]: crate::runner::Scenario
//! [`Scenario::faults`]: crate::runner::Scenario::faults
//! [`Scenario::fault_plan`]: crate::runner::Scenario::fault_plan

use crate::engine::Engine;
use crate::observer::RecoveryTracker;
use crate::protocol::State;
use crate::rng::Xoshiro256;
use crate::sim::StabilisationReport;

/// The paper's `k`-distance of a configuration given as occupancy counts:
/// the number of **unoccupied rank states**.
pub fn rank_distance(counts: &[u32], num_rank_states: usize) -> usize {
    counts[..num_rank_states]
        .iter()
        .filter(|&&c| c == 0)
        .count()
}

/// A timed fault plan on the interaction clock: which fault processes run
/// against a population and when. Executed by [`run_with_plan`]; attach
/// one to a [`Scenario`](crate::runner::Scenario) with
/// [`fault_plan`](crate::runner::Scenario::fault_plan).
///
/// All clock times are absolute interaction counts (nulls included).
/// Plans compose: a plan may combine bursts, a periodic process, rate
/// faults, churn and Byzantine agents; events due at the same instant
/// fire in the order burst → periodic → rate → churn.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// One-shot bursts `(time, faults)`, kept sorted by time.
    bursts: Vec<(u128, u32)>,
    /// Periodic bursts `(period, faults)`: fire at `period, 2·period, …`.
    periodic: Option<(u128, u32)>,
    /// Per-interaction probability that a background corruption fires.
    rate: f64,
    /// Per-interaction probability of a replacement-churn event.
    churn: f64,
    /// Number of Byzantine/stuck-at agents, selected uniformly at plan
    /// start.
    byzantine: u32,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// The classic one-shot model: a burst of `faults` corruptions at
    /// time zero. [`Scenario::faults`](crate::runner::Scenario::faults)
    /// is sugar for this.
    pub fn once(faults: u32) -> Self {
        FaultPlan::new().burst_at(0, faults)
    }

    /// Add a one-shot burst of `faults` corruptions at clock time `time`.
    #[must_use]
    pub fn burst_at(mut self, time: u128, faults: u32) -> Self {
        self.bursts.push((time, faults));
        self.bursts.sort_unstable();
        self
    }

    /// Fire a burst of `faults` corruptions every `period` interactions
    /// (first at `period`).
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    #[must_use]
    pub fn periodic(mut self, period: u128, faults: u32) -> Self {
        assert!(period > 0, "periodic burst period must be positive");
        self.periodic = Some((period, faults));
        self
    }

    /// Background corruption: each scheduler draw is independently a
    /// fault with probability `rate` (geometric arrival gaps).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ rate ≤ 1` and finite.
    #[must_use]
    pub fn rate(mut self, rate: f64) -> Self {
        assert!(
            rate.is_finite() && (0.0..=1.0).contains(&rate),
            "fault rate must be a probability, got {rate}"
        );
        self.rate = rate;
        self
    }

    /// Replacement churn: with per-interaction probability `rate` an
    /// agent leaves and a fresh agent with a uniformly random state
    /// joins (population size preserved — operationally a corruption of
    /// the departed agent).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ rate ≤ 1` and finite.
    #[must_use]
    pub fn churn(mut self, rate: f64) -> Self {
        assert!(
            rate.is_finite() && (0.0..=1.0).contains(&rate),
            "churn rate must be a probability, got {rate}"
        );
        self.churn = rate;
        self
    }

    /// Mark `agents` uniformly random agents as Byzantine/stuck-at for
    /// the whole run: they keep interacting but never update their own
    /// state. Churn and corruption never touch them.
    #[must_use]
    pub fn byzantine(mut self, agents: u32) -> Self {
        self.byzantine = agents;
        self
    }

    /// Whether the plan contains no fault process at all.
    pub fn is_empty(&self) -> bool {
        self.bursts.iter().all(|&(_, f)| f == 0) && !self.may_never_silence()
    }

    /// Whether the plan contains a persistent process (periodic bursts,
    /// rate faults, churn, or Byzantine agents) that can keep the run
    /// from ever reaching a lasting silent configuration. Such plans
    /// require a finite horizon — see [`run_with_plan`].
    pub fn may_never_silence(&self) -> bool {
        self.periodic.is_some() || self.rate > 0.0 || self.churn > 0.0 || self.byzantine > 0
    }

    /// The one-shot bursts `(time, faults)`, sorted by time.
    pub fn bursts(&self) -> &[(u128, u32)] {
        &self.bursts
    }

    /// The periodic burst `(period, faults)`, if any.
    pub fn periodic_burst(&self) -> Option<(u128, u32)> {
        self.periodic
    }

    /// The background corruption probability per interaction.
    pub fn fault_rate(&self) -> f64 {
        self.rate
    }

    /// The replacement-churn probability per interaction.
    pub fn churn_rate(&self) -> f64 {
        self.churn
    }

    /// The number of Byzantine/stuck-at agents.
    pub fn byzantine_agents(&self) -> u32 {
        self.byzantine
    }
}

/// Recovery record of one burst executed by [`run_with_plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstRecord {
    /// Scheduled clock time of the burst.
    pub time: u128,
    /// Faults the plan asked for (attempts; a fault that redraws the same
    /// state, or finds only Byzantine agents, changes nothing).
    pub faults: u32,
    /// `k`-distance immediately after the burst was injected.
    pub k_after: usize,
    /// Interactions from injection until the `k`-distance returned to
    /// zero, or `None` if it never did before the run ended.
    pub recovery: Option<u128>,
}

/// Outcome of [`run_with_plan`]: the final report plus steady-state
/// observables, whether or not the run ever silenced. Non-convergence is
/// an *answer* here, not an error — a Byzantine or high-churn run reports
/// its availability instead of dying on a timeout.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Clock/productive totals at the end of the run (at the final silent
    /// configuration, or at the horizon for non-convergent runs).
    pub report: StabilisationReport,
    /// Whether the run ended in a silent configuration with no further
    /// scheduled fault able to disturb it within the horizon.
    pub silent: bool,
    /// Time-weighted availability: the fraction of elapsed interaction
    /// time with a correct ranking prefix (`k`-distance zero — every rank
    /// state occupied, which for a ranking protocol is the configuration
    /// with a unique leader at every rank). Measured over the span from
    /// run start to the final clock; `1.0` for an empty span.
    pub availability: f64,
    /// Time-weighted mean `k`-distance over the same span.
    pub mean_k: f64,
    /// Maximum `k`-distance excursion observed.
    pub max_k: usize,
    /// Individual corruption attempts injected (bursts, periodic bursts
    /// and rate faults; churn counts separately).
    pub faults_injected: u64,
    /// Replacement-churn events executed.
    pub churn_events: u64,
    /// Per-burst recovery records (one-shot and periodic bursts).
    pub bursts: Vec<BurstRecord>,
}

/// Which fault process fires next — tie order is the declaration order.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Due {
    Burst,
    Periodic,
    Rate,
    Churn,
}

/// Execution state of one plan over one run: the fault RNG, the Byzantine
/// selection, and the next arrival time of each process.
struct PlanExec<'p> {
    plan: &'p FaultPlan,
    rng: Xoshiro256,
    /// Per-state Byzantine occupancy (empty when the plan has none);
    /// corruption and churn draw their victims from the complement.
    byz: Vec<u32>,
    byz_total: u64,
    next_burst: usize,
    next_periodic: Option<u128>,
    next_rate: Option<u128>,
    next_churn: Option<u128>,
    faults_injected: u64,
    churn_events: u64,
}

impl<'p> PlanExec<'p> {
    /// Initialise the plan against the engine's starting configuration:
    /// select and install the Byzantine agents, then draw the first
    /// rate/churn arrivals. Draw order (Byzantine selection, rate, churn)
    /// is fixed, so every engine consumes the fault stream identically.
    fn new(plan: &'p FaultPlan, fault_seed: u64, engine: &mut dyn Engine) -> Self {
        let mut rng = Xoshiro256::seed_from_u64(fault_seed);
        let start = engine.interactions_wide();
        let mut byz = Vec::new();
        let mut byz_total = 0u64;
        if plan.byzantine > 0 {
            let counts = engine.counts().to_vec();
            let population: u64 = counts.iter().map(|&c| c as u64).sum();
            assert!(
                (plan.byzantine as u64) <= population,
                "plan asks for {} byzantine agents in a population of {population}",
                plan.byzantine
            );
            byz = vec![0u32; counts.len()];
            // Uniform selection without replacement, weighted by
            // occupancy: agent identities do not exist in the counts
            // representation, so "pick a uniform agent" means "pick a
            // state proportionally to its not-yet-selected occupancy".
            for i in 0..plan.byzantine as u64 {
                let mut idx = rng.below(population - i);
                for (s, &c) in counts.iter().enumerate() {
                    let avail = c as u64 - byz[s] as u64;
                    if idx < avail {
                        byz[s] += 1;
                        break;
                    }
                    idx -= avail;
                }
            }
            byz_total = plan.byzantine as u64;
            engine.set_byzantine(&byz);
        }
        let next_rate = (plan.rate > 0.0).then(|| start + 1 + rng.geometric(plan.rate) as u128);
        let next_churn = (plan.churn > 0.0).then(|| start + 1 + rng.geometric(plan.churn) as u128);
        PlanExec {
            plan,
            rng,
            byz,
            byz_total,
            next_burst: 0,
            next_periodic: plan.periodic.map(|(period, _)| start + period),
            next_rate,
            next_churn,
            faults_injected: 0,
            churn_events: 0,
        }
    }

    /// The clock time of the next scheduled event, if any remain.
    fn next_time(&self) -> Option<u128> {
        let mut next: Option<u128> = None;
        let mut fold = |t: Option<u128>| {
            if let Some(t) = t {
                next = Some(next.map_or(t, |n| n.min(t)));
            }
        };
        fold(self.plan.bursts.get(self.next_burst).map(|&(t, _)| t));
        fold(self.next_periodic);
        fold(self.next_rate);
        fold(self.next_churn);
        next
    }

    /// Fire every event due at or before the engine's current clock, in
    /// (time, declaration-order) order. Injections do not advance the
    /// clock, so the loop terminates once every due process has fired and
    /// rescheduled itself into the future.
    fn fire_due(&mut self, engine: &mut dyn Engine, tracker: &mut RecoveryTracker) {
        let now = engine.interactions_wide();
        loop {
            let mut due: Option<(u128, Due)> = None;
            let mut consider = |t: Option<u128>, kind: Due| {
                if let Some(t) = t {
                    if t <= now && due.is_none_or(|(bt, _)| t < bt) {
                        due = Some((t, kind));
                    }
                }
            };
            consider(
                self.plan.bursts.get(self.next_burst).map(|&(t, _)| t),
                Due::Burst,
            );
            consider(self.next_periodic, Due::Periodic);
            consider(self.next_rate, Due::Rate);
            consider(self.next_churn, Due::Churn);
            let Some((t, kind)) = due else { return };
            tracker.advance(now);
            match kind {
                Due::Burst => {
                    let (_, f) = self.plan.bursts[self.next_burst];
                    self.next_burst += 1;
                    self.inject_burst(engine, tracker, now, t, f);
                }
                Due::Periodic => {
                    let (period, f) = self.plan.periodic.expect("periodic event scheduled");
                    self.next_periodic = Some(t.saturating_add(period));
                    self.inject_burst(engine, tracker, now, t, f);
                }
                Due::Rate => {
                    // Reschedule relative to the *scheduled* time, not the
                    // actual clock, so a batch overshoot cannot thin the
                    // long-run fault rate.
                    self.next_rate = Some(t + 1 + self.rng.geometric(self.plan.rate) as u128);
                    self.corrupt_one(engine, tracker);
                    self.faults_injected += 1;
                }
                Due::Churn => {
                    self.next_churn = Some(t + 1 + self.rng.geometric(self.plan.churn) as u128);
                    self.corrupt_one(engine, tracker);
                    self.churn_events += 1;
                }
            }
        }
    }

    /// Inject one burst of `f` corruption attempts and open its recovery
    /// record.
    fn inject_burst(
        &mut self,
        engine: &mut dyn Engine,
        tracker: &mut RecoveryTracker,
        now: u128,
        scheduled: u128,
        f: u32,
    ) {
        for _ in 0..f {
            self.corrupt_one(engine, tracker);
        }
        self.faults_injected += f as u64;
        tracker.open_burst(now, scheduled, f);
    }

    /// Corrupt one uniformly random non-Byzantine agent to a uniformly
    /// random state. Churn events reuse this: a departure plus a fresh
    /// uniformly-random-state arrival is, for anonymous agents, exactly a
    /// corruption of the departed agent (population preserved).
    fn corrupt_one(&mut self, engine: &mut dyn Engine, tracker: &mut RecoveryTracker) {
        let (from, num_states) = {
            let counts = engine.counts();
            let population: u64 = counts.iter().map(|&c| c as u64).sum();
            let normal = population - self.byz_total;
            if normal == 0 {
                return; // every agent is Byzantine; nothing to corrupt
            }
            let mut idx = self.rng.below(normal);
            let mut from = 0usize;
            for (s, &c) in counts.iter().enumerate() {
                let avail = c as u64 - self.byz.get(s).map_or(0, |&b| b as u64);
                if idx < avail {
                    from = s;
                    break;
                }
                idx -= avail;
            }
            (from, counts.len())
        };
        let to = self.rng.below_usize(num_states);
        if to != from {
            engine.inject_state_fault(from as State, to as State);
            tracker.apply_fault(from as State, to as State);
        }
    }
}

/// Execute a [`FaultPlan`] against an engine until the run is silent with
/// no further event able to disturb it, or until `max_interactions` have
/// elapsed (`u64::MAX` = unbounded) — and report steady-state observables
/// either way.
///
/// Determinism: the fault process draws from its own RNG (`fault_seed`),
/// never the engine's, and the schedule is fixed up front — so every
/// engine executes the identical fault sequence at the identical clock
/// times, and a count-engine run is bit-identical at any thread count.
/// Exact-stepping engines hit each event time exactly (clock truncation
/// at a cap is exact by memorylessness); the count engine's batch mode
/// clips batches to the next event and can overshoot an event only by a
/// committed batch's null tail, vanishingly rarely.
///
/// The run ends *silent* when the configuration is silent and every
/// remaining scheduled event lies at or beyond the horizon; it ends
/// *non-silent* when the clock reaches the horizon first. Either way the
/// returned [`RunOutcome`] carries availability, `k`-distance excursions
/// and per-burst recoveries integrated over the elapsed span.
///
/// # Panics
///
/// Panics if the plan [may never silence](FaultPlan::may_never_silence)
/// and `max_interactions` is `u64::MAX` — such a run could never end.
pub fn run_with_plan(
    engine: &mut dyn Engine,
    plan: &FaultPlan,
    fault_seed: u64,
    max_interactions: u64,
) -> RunOutcome {
    let horizon = if max_interactions == u64::MAX {
        u128::MAX
    } else {
        max_interactions as u128
    };
    assert!(
        horizon != u128::MAX || !plan.may_never_silence(),
        "fault plan has a persistent process (periodic/rate/churn/byzantine) \
         and could run forever; pass a finite max_interactions"
    );
    let mut tracker = RecoveryTracker::new(
        engine.counts(),
        engine.num_rank_states(),
        engine.interactions_wide(),
    );
    let mut exec = PlanExec::new(plan, fault_seed, engine);
    let silent;
    loop {
        exec.fire_due(engine, &mut tracker);
        let now = engine.interactions_wide();
        if engine.is_silent() {
            match exec.next_time() {
                Some(t) if t < horizon => {
                    // Silent until the next scheduled fault: every draw
                    // until then is a null, so jump straight to it.
                    engine.skip_nulls(t - now);
                    continue;
                }
                _ => {
                    silent = true;
                    break;
                }
            }
        }
        if now >= horizon {
            silent = false;
            break;
        }
        let cap = exec.next_time().map_or(horizon, |t| t.min(horizon));
        // Silent/CapReached/Applied all loop back: fire_due picks up due
        // events, the silence check handles Silent, and the horizon check
        // ends the run.
        let _ = engine.advance_to(cap, &mut tracker);
    }
    tracker.finalize(engine.interactions_wide());
    RunOutcome {
        report: engine.report(),
        silent,
        availability: tracker.availability(),
        mean_k: tracker.mean_k(),
        max_k: tracker.max_k(),
        faults_injected: exec.faults_injected,
        churn_events: exec.churn_events,
        bursts: tracker.take_bursts(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count::CountSimulation;
    use crate::engine::{make_engine, EngineKind};
    use crate::error::StabilisationTimeout;
    use crate::protocol::{ClassSpec, InteractionSchema, Protocol};
    use crate::runner::{Init, Scenario};

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

    #[test]
    fn distance_counts_missing_ranks() {
        assert_eq!(rank_distance(&[1, 0, 2, 0, 1], 5), 2);
        assert_eq!(rank_distance(&[1, 1, 1], 3), 0);
        // Extra states beyond the rank range are ignored.
        assert_eq!(rank_distance(&[0, 2, 0], 2), 1);
    }

    /// A perfect start corrupted by `faults` at time zero, through the
    /// scenario front door.
    fn corrupted(p: &Ag, faults: u32, seed: u64) -> Scenario<'_, Ag> {
        Scenario::new(p)
            .init(Init::Perfect)
            .faults(faults)
            .base_seed(seed)
    }

    #[test]
    fn recovery_returns_to_silence() {
        let p = Ag { n: 24 };
        for f in [1u32, 4, 12] {
            let outcome = corrupted(&p, f, 100 + u64::from(f)).run_outcome(0);
            assert!(outcome.silent);
            assert_eq!(outcome.faults_injected, u64::from(f));
            assert!(outcome.bursts[0].k_after <= f as usize);
        }
    }

    #[test]
    fn zero_faults_recover_instantly() {
        let p = Ag { n: 16 };
        let outcome = corrupted(&p, 0, 5).max_interactions(100).run_outcome(0);
        assert!(outcome.silent);
        assert_eq!(outcome.faults_injected, 0);
        assert_eq!(outcome.report.interactions, 0);
    }

    #[test]
    fn more_faults_cost_more_recovery_time() {
        // Statistical: mean recovery after 12 faults should exceed mean
        // recovery after 1 fault at n = 48.
        let p = Ag { n: 48 };
        let mean = |f: u32| -> f64 {
            let outcomes = corrupted(&p, f, 1_000).trials(20).run_outcomes();
            outcomes.iter().map(|o| o.report.parallel_time).sum::<f64>() / 20.0
        };
        assert!(mean(12) > mean(1));
    }

    #[test]
    fn timeout_propagates() {
        let p = Ag { n: 32 };
        let s = corrupted(&p, 10, 42).max_interactions(3);
        assert!(!s.run_outcome(0).silent);
        assert!(matches!(s.run_one(0), Err(StabilisationTimeout { .. })));
    }

    #[test]
    fn empty_plan_is_a_plain_run() {
        let p = Ag { n: 24 };
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        let mut engine = make_engine(EngineKind::Jump, &p, vec![0; 24], 5, 1).unwrap();
        let outcome = run_with_plan(engine.as_mut(), &plan, 1, u64::MAX);
        assert!(outcome.silent);
        assert_eq!(outcome.faults_injected, 0);
        assert!(outcome.bursts.is_empty());
        // The trajectory is the engine's own: same as a direct run.
        let mut reference = CountSimulation::new(&p, vec![0; 24], 5)
            .unwrap()
            .with_batching(false);
        let rep = reference.run_until_silent(u64::MAX).unwrap();
        assert_eq!(outcome.report, rep);
    }

    #[test]
    fn mid_run_burst_is_recorded_and_recovered() {
        let p = Ag { n: 32 };
        let plan = FaultPlan::new().burst_at(5_000, 6);
        let mut engine = make_engine(EngineKind::Jump, &p, (0..32).collect(), 3, 1).unwrap();
        let outcome = run_with_plan(engine.as_mut(), &plan, 17, u64::MAX);
        assert!(outcome.silent);
        assert_eq!(outcome.faults_injected, 6);
        assert_eq!(outcome.bursts.len(), 1);
        let burst = outcome.bursts[0];
        assert_eq!(burst.time, 5_000);
        assert_eq!(burst.faults, 6);
        assert!(burst.recovery.is_some());
        assert!(outcome.availability < 1.0, "recovery period counts as down");
        assert!(outcome.report.interactions_wide >= 5_000);
    }

    /// Past `u64::MAX` the tracker must still see the clock move: the
    /// observer receives the full-width clock, so a burst's recovery time
    /// is measured rather than read as zero.
    #[test]
    fn burst_recovery_is_measured_past_u64_max() {
        let p = Ag { n: 32 };
        let mut engine = make_engine(EngineKind::Jump, &p, (0..32).collect(), 3, 1).unwrap();
        let clock = (1u128 << 64) + 1_000;
        let mut snap = engine.snapshot();
        snap.interactions = clock;
        engine.restore(&snap);
        let plan = FaultPlan::new().burst_at(clock + 100, 3);
        let outcome = run_with_plan(engine.as_mut(), &plan, 17, u64::MAX);
        assert!(outcome.silent);
        let burst = outcome.bursts[0];
        assert!(burst.k_after > 0, "the burst must leave a gap to recover");
        assert!(burst.recovery.is_some_and(|r| r > 0), "{burst:?}");
    }

    #[test]
    fn burst_into_an_already_silent_run_fires_exactly_at_its_time() {
        // Start silent; the plan's burst at t must still fire at t (the
        // engine skips the nulls to get there) and the run must recover.
        let p = Ag { n: 16 };
        let plan = FaultPlan::new().burst_at(100_000, 3);
        let mut engine = make_engine(EngineKind::Jump, &p, (0..16).collect(), 7, 1).unwrap();
        let outcome = run_with_plan(engine.as_mut(), &plan, 23, u64::MAX);
        assert!(outcome.silent);
        assert_eq!(outcome.bursts.len(), 1);
        assert!(outcome.report.interactions_wide >= 100_000);
    }

    #[test]
    fn byzantine_run_reports_availability_instead_of_timing_out() {
        let p = Ag { n: 16 };
        let plan = FaultPlan::new().byzantine(2);
        let mut engine = make_engine(EngineKind::Jump, &p, vec![0; 16], 11, 1).unwrap();
        let horizon = 200_000u64;
        let outcome = run_with_plan(engine.as_mut(), &plan, 5, horizon);
        // Two agents stuck in state 0 keep producing (0,0) rewrites with
        // other visitors of state 0... the population cannot settle into
        // all-distinct ranks with both stuck agents sharing rank 0.
        assert!(!outcome.silent);
        assert!(outcome.availability < 1.0);
        assert!(outcome.max_k >= 1);
        assert!(outcome.report.interactions >= horizon);
    }

    #[test]
    fn unbounded_persistent_plan_is_rejected() {
        let p = Ag { n: 8 };
        let plan = FaultPlan::new().rate(0.01);
        let mut engine = make_engine(EngineKind::Jump, &p, vec![0; 8], 1, 1).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_with_plan(engine.as_mut(), &plan, 1, u64::MAX)
        }));
        assert!(result.is_err(), "must refuse an unbounded never-silent run");
    }

    #[test]
    fn churn_conserves_population_and_counts_events() {
        let p = Ag { n: 24 };
        let plan = FaultPlan::new().churn(1e-3);
        let mut engine = make_engine(EngineKind::Jump, &p, vec![0; 24], 13, 1).unwrap();
        let outcome = run_with_plan(engine.as_mut(), &plan, 29, 2_000_000);
        assert_eq!(engine.counts().iter().map(|&c| c as u64).sum::<u64>(), 24);
        assert!(outcome.churn_events > 0);
        assert_eq!(outcome.faults_injected, 0, "churn is not a fault burst");
    }
}
