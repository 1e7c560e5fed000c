//! The unified [`Engine`] abstraction over all simulators.
//!
//! Two engines simulate the *same* stochastic process — the paper's
//! uniform random scheduler driving a population protocol — at different
//! cost models; the count engine has two modes:
//!
//! | Engine (kind) | Memory | Cost per unit | Best regime |
//! |---------------|--------|---------------|-------------|
//! | [`Simulation`](crate::sim::Simulation) (`naive`) | `O(n)` | one ordered-pair draw per *interaction*, nulls included | small `n`, agent-vector snapshots, external schedulers |
//! | [`CountSimulation`], exact mode (`jump`) | `O(#states)` | `O(log #states)` per *productive* interaction; nulls skipped exactly | long runs near silence, `n` below [`EngineKind::AUTO_COUNT_THRESHOLD`] |
//! | [`CountSimulation`], batched mode (`count`) | `O(#states)` | amortised sub-productive-interaction stepping via batching, exact steps near silence | `n = 10⁴…10⁹`, far-from-silent regimes |
//!
//! The trait is object-safe, so experiment drivers can select an engine at
//! runtime (`--engine auto|naive|jump|count` in the CLI) and treat them
//! uniformly: stepping, running to silence with a cap, count-level
//! observer hooks, transient-fault injection, and snapshot/restore.
//! [`EngineKind::Auto`] picks batched mode at large `n` and exact mode
//! below, per protocol instance — heterogeneous sweeps get the right
//! engine at every grid point.
//!
//! An engine implements exactly one stepping method,
//! [`Engine::advance_to`]. [`Engine::advance`], [`Engine::run_until_silent`]
//! and [`Engine::run_until_silent_observed`] are provided on top of it —
//! one run loop, shared by every engine — and report every productive
//! rewrite through the one observer family, [`CountObserver`], whose clock
//! argument is the full-width `u128` interaction clock.
//!
//! # Examples
//!
//! ```
//! use ssr_engine::engine::{make_engine, Engine, EngineKind};
//! use ssr_engine::protocol::{ClassSpec, InteractionSchema, Protocol, State};
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
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let p = Ag { n: 64 };
//! for kind in EngineKind::ALL {
//!     let mut e = make_engine(kind, &p, vec![0; 64], 7, 1)?;
//!     let report = e.run_until_silent(u64::MAX)?;
//!     assert!(e.is_silent());
//!     assert_eq!(e.engine_name(), kind.name());
//!     assert!(report.interactions >= report.productive_interactions);
//! }
//! # Ok(())
//! # }
//! ```

use crate::count::CountSimulation;
use crate::error::StabilisationTimeout;
use crate::protocol::State;
use crate::rng::Xoshiro256;
use crate::sim::StabilisationReport;

/// Observer hook at the granularity every engine can afford: occupancy
/// *counts*, not agent identities. This is the only observer family; every
/// engine reports through it from [`Engine::advance_to`].
///
/// The naive engine and the count engine's exact steps invoke it once per
/// productive interaction with `multiplicity == 1`, passing the
/// post-transition counts. The count engine's batch mode coalesces a
/// group of identical rewrites into a single call with the group size as
/// `multiplicity`; all groups of one batch share the same post-**batch**
/// counts and interaction clock (intermediate configurations inside a
/// batch are not materialised).
pub trait CountObserver {
    /// Called after productive interaction(s) have been applied.
    ///
    /// `interactions` is the engine's full-width interaction clock
    /// ([`Engine::interactions_wide`], nulls included) after the call's
    /// rewrites — exact past `u64::MAX` at `n ≥ 2³¹`; `before`/`after` are
    /// the rewritten ordered state pairs; `counts` the post-transition
    /// occupancy.
    fn on_productive(
        &mut self,
        interactions: u128,
        before: (State, State),
        after: (State, State),
        multiplicity: u64,
        counts: &[u32],
    );
}

/// A [`CountObserver`] that ignores everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullCountObserver;

impl CountObserver for NullCountObserver {
    #[inline]
    fn on_productive(
        &mut self,
        _interactions: u128,
        _before: (State, State),
        _after: (State, State),
        _multiplicity: u64,
        _counts: &[u32],
    ) {
    }
}

/// Adapts a closure into a [`CountObserver`].
#[derive(Debug)]
pub struct FnCountObserver<F>(pub F);

impl<F: FnMut(u128, (State, State), (State, State), u64, &[u32])> CountObserver
    for FnCountObserver<F>
{
    #[inline]
    fn on_productive(
        &mut self,
        interactions: u128,
        before: (State, State),
        after: (State, State),
        multiplicity: u64,
        counts: &[u32],
    ) {
        (self.0)(interactions, before, after, multiplicity, counts)
    }
}

/// Engine-agnostic point-in-time capture: configuration (as counts, plus
/// the agent vector when the engine has one), clocks, and the RNG.
///
/// A snapshot taken from one engine can be restored into another of the
/// same protocol: agents are anonymous, so the counts determine the
/// configuration. Restoring into the *same* engine kind reproduces the
/// exact trajectory (the RNG state travels with the snapshot); restoring
/// across kinds continues the same configuration with that engine's
/// stepping discipline.
#[derive(Debug, Clone)]
pub struct EngineSnapshot {
    pub(crate) agents: Option<Vec<State>>,
    pub(crate) counts: Vec<u32>,
    /// Full-width clock: the count engine's clock legitimately passes
    /// `u64::MAX` at `n ≥ 2³¹`, and restoring must not narrow it.
    pub(crate) interactions: u128,
    pub(crate) productive: u64,
    pub(crate) rng: Xoshiro256,
    /// Count-engine batching control state; `None` for snapshots taken
    /// from the naive engine or written by older `jump` engines (the count
    /// engine then restores canonical control state derived from the
    /// counts, which exact mode never reads).
    pub(crate) count_ctl: Option<CountControl>,
}

/// The count engine's batch-scheduling state. Captured in snapshots so
/// restoring into a count engine replays the exact trajectory even when
/// batch mode is active (the batch-size decision depends on this state).
#[derive(Debug, Clone, Copy)]
pub(crate) struct CountControl {
    pub(crate) max_eq_count: u64,
    pub(crate) max_sparse_partner: u64,
    pub(crate) max_sparse_pair_scale: u64,
    pub(crate) batches_since_refresh: u32,
    pub(crate) exact_steps_until_recheck: u32,
}

/// Outcome of a single [`Engine::advance_to`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CappedAdvance {
    /// The configuration is silent; nothing was executed and the clock did
    /// not move.
    Silent,
    /// Productive interaction(s) were applied; the clock advanced past
    /// them (it may exceed the cap only in the count engine's batch mode,
    /// whose null tail is drawn after the batch is committed).
    Applied(u64),
    /// The next productive interaction falls past the cap: the clock was
    /// advanced *to* the cap without executing it. By memorylessness of
    /// the geometric null-gap distribution this truncation is exact — the
    /// time to the next productive interaction measured from the cap is
    /// again geometric under the (possibly updated) weights.
    CapReached,
}

/// Byzantine occupancy overlay of the count engine.
///
/// `counts[s]` is the number of *stuck-at* agents currently in state `s`.
/// Agents are anonymous in the counts representation, so whether a sampled
/// participant is Byzantine is itself a random event: given the pair of
/// states `(si, sr)` the initiator is Byzantine with probability
/// `byz[si] / occ[si]`, and the responder analogously (hypergeometric
/// correction when `si == sr`). Byzantine membership is persistent —
/// stuck-at agents never change state, so `byz` is constant over a run and
/// the invariant `counts[s] ≥ byz[s]` is maintained by vetoing their
/// rewrites.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ByzOverlay {
    pub(crate) counts: Vec<u32>,
}

impl ByzOverlay {
    /// Validate a per-state Byzantine specification against the current
    /// occupancy and build the overlay. All-zero specs return `None`.
    pub(crate) fn build(byz: &[u32], counts: &[u32]) -> Option<Self> {
        assert_eq!(
            byz.len(),
            counts.len(),
            "byzantine spec length {} does not match the state space {}",
            byz.len(),
            counts.len()
        );
        for (s, (&b, &c)) in byz.iter().zip(counts).enumerate() {
            assert!(
                b <= c,
                "byzantine spec asks for {b} stuck agents in state {s} but \
                 only {c} are present"
            );
        }
        byz.iter().any(|&b| b > 0).then(|| ByzOverlay {
            counts: byz.to_vec(),
        })
    }

    /// Decide whether the initiator / responder of a sampled productive
    /// pair `(si, sr)` are Byzantine. Consumes exactly two RNG draws when
    /// either state holds Byzantine mass and none otherwise, so the veto
    /// is a deterministic function of (rng, counts) — identical in the
    /// count engine's exact and batched steps.
    pub(crate) fn veto(
        &self,
        rng: &mut Xoshiro256,
        occ: &[u32],
        si: State,
        sr: State,
    ) -> (bool, bool) {
        let bi = self.counts[si as usize] as u64;
        let br = self.counts[sr as usize] as u64;
        if bi == 0 && br == 0 {
            return (false, false);
        }
        let init_byz = rng.below(occ[si as usize] as u64) < bi;
        let mut pool = occ[sr as usize] as u64;
        let mut byz_pool = br;
        if si == sr {
            // Responder is drawn from the same state without replacement.
            pool -= 1;
            if init_byz {
                byz_pool -= 1;
            }
        }
        let resp_byz = rng.below(pool) < byz_pool;
        (init_byz, resp_byz)
    }
}

impl EngineSnapshot {
    /// The captured per-state occupancy counts.
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// The captured agent vector, if the engine tracked one.
    pub fn agents(&self) -> Option<&[State]> {
        self.agents.as_deref()
    }

    /// The interaction clock at capture time, saturating at `u64::MAX`
    /// (see [`interactions_wide`](Self::interactions_wide)).
    pub fn interactions(&self) -> u64 {
        // lint:allow(A001): documented saturating u64 API boundary —
        // the exact clock is `interactions_wide()`.
        self.interactions.min(u64::MAX as u128) as u64
    }

    /// The interaction clock at capture time, full-width: exact past
    /// `u64::MAX` for count-engine snapshots at `n ≥ 2³¹`.
    pub fn interactions_wide(&self) -> u128 {
        self.interactions
    }

    /// The productive-interaction clock at capture time.
    pub fn productive_interactions(&self) -> u64 {
        self.productive
    }
}

/// A population-protocol simulator behind a uniform, object-safe handle.
///
/// All engines share silence semantics (silent ⇔ no ordered pair of agents
/// is productive) and clock semantics (`interactions` counts *every*
/// scheduler draw, nulls included, exactly — engines that skip nulls
/// account for them stochastically but exactly in distribution).
pub trait Engine {
    /// Short engine identifier: `"naive"`, `"jump"` or `"count"`.
    fn engine_name(&self) -> &'static str;

    /// Population size `n`.
    fn population_size(&self) -> usize;

    /// Current per-state occupancy counts.
    fn counts(&self) -> &[u32];

    /// Total interactions simulated so far (nulls included), saturating
    /// at `u64::MAX` (see [`interactions_wide`](Engine::interactions_wide)).
    fn interactions(&self) -> u64;

    /// Total interactions simulated so far, full-width. Only the count
    /// engine's clock can exceed `u64::MAX` (at `n ≥ 2³¹`); for the other
    /// engines this equals [`interactions`](Engine::interactions).
    fn interactions_wide(&self) -> u128 {
        self.interactions() as u128
    }

    /// Productive interactions executed so far.
    fn productive_interactions(&self) -> u64;

    /// Whether the configuration is silent.
    fn is_silent(&self) -> bool;

    /// Advance the engine by its natural quantum and return the number of
    /// productive interactions applied, or `None` if the configuration is
    /// silent (nothing was executed): [`advance_to`](Engine::advance_to)
    /// with no cap and no observer.
    ///
    /// The quantum differs per engine: the naive engine executes one
    /// scheduler draw (`Some(0)` for a null), the count engine one
    /// productive interaction plus its preceding nulls (`Some(1)`) or — in
    /// batched mode, far from silence — a whole batch (`Some(k)`).
    #[inline]
    fn advance(&mut self) -> Option<u64> {
        match self.advance_to(u128::MAX, &mut NullCountObserver) {
            CappedAdvance::Applied(k) => Some(k),
            CappedAdvance::Silent | CappedAdvance::CapReached => None,
        }
    }

    /// Run until silent or until at least `max_interactions` have elapsed
    /// (`u64::MAX` means unbounded: the count engine's clock can pass it
    /// at `n ≥ 2³¹`).
    ///
    /// # Errors
    ///
    /// Returns [`StabilisationTimeout`] when the cap is exceeded before a
    /// silent configuration is reached.
    #[inline]
    fn run_until_silent(
        &mut self,
        max_interactions: u64,
    ) -> Result<StabilisationReport, StabilisationTimeout> {
        self.run_until_silent_observed(max_interactions, &mut NullCountObserver)
    }

    /// Like [`run_until_silent`](Engine::run_until_silent), invoking
    /// `observer` on productive interactions (batched engines may coalesce
    /// identical rewrites into one call with multiplicity > 1).
    ///
    /// This is the one run loop: stop at the cap unless already silent,
    /// otherwise advance one uncapped quantum, and end the run when that
    /// quantum finds the configuration silent. Success is reported only
    /// when the last productive interaction falls within the cap — a
    /// batch's null tail may carry the count engine's clock past it. The
    /// loop and the engines' `advance_to` are force-inlined so the
    /// unobserved run reaches [`NullCountObserver`] through a constant
    /// vtable, which the optimiser removes.
    ///
    /// # Errors
    ///
    /// Returns [`StabilisationTimeout`] when the cap is exceeded first.
    #[inline(always)]
    fn run_until_silent_observed(
        &mut self,
        max_interactions: u64,
        observer: &mut dyn CountObserver,
    ) -> Result<StabilisationReport, StabilisationTimeout> {
        let cap = if max_interactions == u64::MAX {
            u128::MAX
        } else {
            max_interactions as u128
        };
        loop {
            if self.interactions_wide() >= cap && !self.is_silent() {
                return Err(StabilisationTimeout {
                    interactions: self.interactions(),
                });
            }
            if self.advance_to(u128::MAX, observer) == CappedAdvance::Silent {
                if self.interactions_wide() <= cap {
                    return Ok(self.report());
                }
                return Err(StabilisationTimeout {
                    interactions: max_interactions,
                });
            }
        }
    }

    /// Advance by one natural quantum, but never *start* work at or past
    /// `cap` (an absolute interaction-clock value). This is the one
    /// stepping method an engine implements; [`advance`](Engine::advance)
    /// and the run loops are provided on top of it.
    ///
    /// It is also the primitive behind timed fault execution
    /// ([`run_with_plan`](crate::faults::run_with_plan)): a caller that
    /// must apply a fault at clock time `t` calls `advance_to(t, ..)` in a
    /// loop; the engine executes productive interactions falling before
    /// `t` and, when the next one would land past `t`, truncates the clock
    /// to `t` and returns [`CappedAdvance::CapReached`] — an *exact*
    /// operation for the exact-stepping engines by memorylessness of the
    /// geometric gap. The count engine clips its batch size so a batch's
    /// expected drift stays well inside the cap and falls back to exact
    /// stepping for the final approach; only the stochastic null tail of a
    /// committed batch may overshoot the cap (vanishingly rarely), in
    /// which case the caller observes a clock slightly past `cap`.
    ///
    /// `observer` sees every productive rewrite, exactly as in
    /// [`run_until_silent_observed`](Engine::run_until_silent_observed).
    fn advance_to(&mut self, cap: u128, observer: &mut dyn CountObserver) -> CappedAdvance;

    /// Mark `byz[s]` agents currently in state `s` as Byzantine/stuck-at:
    /// they keep interacting (null gaps and pair sampling are unchanged)
    /// but their own state never updates; their interaction partners still
    /// update normally. The marking is persistent for the rest of the run
    /// — `counts()[s] ≥ byz[s]` becomes an invariant. An all-zero spec
    /// clears the overlay.
    ///
    /// # Panics
    ///
    /// Panics if `byz.len()` differs from the state-space size or
    /// `byz[s] > counts()[s]` for any `s`.
    fn set_byzantine(&mut self, byz: &[u32]);

    /// Number of rank states of the underlying protocol (the observable
    /// prefix whose full occupancy defines a correct ranking).
    fn num_rank_states(&self) -> usize;

    /// Advance the interaction clock by `nulls` scheduler draws without
    /// executing anything. Only meaningful while the configuration is
    /// silent (every draw is then a null with probability 1); used to
    /// fast-forward a silent run to its next scheduled fault. Saturates at
    /// the engine's clock width.
    fn skip_nulls(&mut self, nulls: u128);

    /// Move one agent from state `from` to state `to` (transient-fault
    /// injection). The interaction clock is not advanced. When a Byzantine
    /// overlay is active the moved agent is drawn from the non-Byzantine
    /// occupants of `from` (stuck-at agents never move).
    ///
    /// # Panics
    ///
    /// Panics if `from` has no (non-Byzantine) occupant or either state id
    /// is out of range.
    fn inject_state_fault(&mut self, from: State, to: State);

    /// Capture configuration, clocks and RNG.
    fn snapshot(&self) -> EngineSnapshot;

    /// Restore a snapshot previously taken from an engine of the same
    /// protocol instance.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's shape does not match this protocol.
    fn restore(&mut self, snapshot: &EngineSnapshot);

    /// Parallel time elapsed: interactions / n, from the full-width clock
    /// so it stays exact past `u64::MAX` interactions.
    fn parallel_time(&self) -> f64 {
        self.interactions_wide() as f64 / self.population_size() as f64
    }

    /// Build the report for the current (silent) configuration.
    fn report(&self) -> StabilisationReport {
        StabilisationReport {
            interactions: self.interactions(),
            interactions_wide: self.interactions_wide(),
            productive_interactions: self.productive_interactions(),
            parallel_time: self.parallel_time(),
        }
    }
}

/// Which engine backs a run — the string form is accepted by the CLI and
/// the [`Scenario`](crate::runner::Scenario) runner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Pick per protocol instance: [`Count`](EngineKind::Count) for
    /// populations of at least [`EngineKind::AUTO_COUNT_THRESHOLD`],
    /// [`Jump`](EngineKind::Jump) below. The runner's default.
    Auto,
    /// Step-by-step simulation over an agent vector.
    Naive,
    /// The exact null-skipping jump chain over counts: the count engine
    /// with batching off.
    Jump,
    /// The count engine with far-from-silence batching on.
    Count,
}

impl EngineKind {
    /// All concrete kinds, in documentation order ([`Auto`] resolves to
    /// one of these and is deliberately excluded).
    ///
    /// [`Auto`]: EngineKind::Auto
    pub const ALL: [EngineKind; 3] = [EngineKind::Naive, EngineKind::Jump, EngineKind::Count];

    /// Population size from which [`Auto`](EngineKind::Auto) turns the
    /// count engine's batching on: below 4096 it chooses batching off
    /// (exact mode); above it batching dominates.
    pub const AUTO_COUNT_THRESHOLD: usize = 4096;

    /// Parse `"auto"`, `"naive"`, `"jump"` or `"count"`.
    ///
    /// # Errors
    ///
    /// Returns a descriptive message for anything else.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "auto" => Ok(EngineKind::Auto),
            "naive" => Ok(EngineKind::Naive),
            "jump" => Ok(EngineKind::Jump),
            "count" => Ok(EngineKind::Count),
            other => Err(format!(
                "unknown engine '{other}' (expected auto|naive|jump|count)"
            )),
        }
    }

    /// The canonical name (`parse` round-trips it).
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Auto => "auto",
            EngineKind::Naive => "naive",
            EngineKind::Jump => "jump",
            EngineKind::Count => "count",
        }
    }

    /// Resolve [`Auto`](EngineKind::Auto) for a population of size `n`;
    /// concrete kinds resolve to themselves.
    pub fn resolve(self, n: usize) -> EngineKind {
        match self {
            EngineKind::Auto => {
                if n >= Self::AUTO_COUNT_THRESHOLD {
                    EngineKind::Count
                } else {
                    EngineKind::Jump
                }
            }
            concrete => concrete,
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Build a boxed engine of the requested kind over a shared protocol
/// ([`EngineKind::Auto`] resolves against the protocol's population size).
///
/// `threads` is the worker-thread budget for the count engine's parallel
/// batch splits (0 = one per available core). Only the batched `count`
/// kind uses it: `naive` has no splits, and `jump` — count with batching
/// off — never dispatches to the pool, so it spawns no workers. Count
/// trajectories are bit-identical for a fixed seed regardless of
/// `threads` — see
/// [`CountSimulation::with_threads`](crate::count::CountSimulation::with_threads).
///
/// # Errors
///
/// Propagates configuration validation errors from the engine constructor.
pub fn make_engine<'a, P>(
    kind: EngineKind,
    protocol: &'a P,
    config: Vec<State>,
    seed: u64,
    threads: usize,
) -> Result<Box<dyn Engine + 'a>, crate::error::ConfigError>
where
    P: crate::protocol::InteractionSchema + ?Sized + 'a,
{
    Ok(match kind.resolve(protocol.population_size()) {
        EngineKind::Auto => unreachable!("resolve returns a concrete kind"),
        EngineKind::Naive => Box::new(crate::sim::Simulation::new(protocol, config, seed)?),
        EngineKind::Jump => {
            Box::new(CountSimulation::new(protocol, config, seed)?.with_batching(false))
        }
        EngineKind::Count => {
            Box::new(CountSimulation::new(protocol, config, seed)?.with_threads(threads))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{ClassSpec, InteractionSchema, Protocol};

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
    fn kind_parse_round_trips() {
        for kind in EngineKind::ALL.into_iter().chain([EngineKind::Auto]) {
            assert_eq!(EngineKind::parse(kind.name()).unwrap(), kind);
            assert_eq!(format!("{kind}"), kind.name());
        }
        assert!(EngineKind::parse("warp").is_err());
    }

    #[test]
    fn auto_resolves_by_population_size() {
        let t = EngineKind::AUTO_COUNT_THRESHOLD;
        assert_eq!(EngineKind::Auto.resolve(t - 1), EngineKind::Jump);
        assert_eq!(EngineKind::Auto.resolve(t), EngineKind::Count);
        for kind in EngineKind::ALL {
            assert_eq!(kind.resolve(1), kind);
            assert_eq!(kind.resolve(1 << 30), kind);
        }
    }

    #[test]
    fn factory_resolves_auto() {
        let small = Ag { n: 24 };
        let e = make_engine(EngineKind::Auto, &small, vec![0; 24], 3, 1).unwrap();
        assert_eq!(e.engine_name(), "jump");
        let big = Ag {
            n: EngineKind::AUTO_COUNT_THRESHOLD,
        };
        let cfg = vec![0; big.n];
        let e = make_engine(EngineKind::Auto, &big, cfg, 3, 1).unwrap();
        assert_eq!(e.engine_name(), "count");
    }

    #[test]
    fn factory_builds_all_kinds_and_they_stabilise() {
        let p = Ag { n: 24 };
        for kind in EngineKind::ALL {
            let mut e = make_engine(kind, &p, vec![0; 24], 9, 1).unwrap();
            assert_eq!(e.engine_name(), kind.name());
            assert_eq!(e.population_size(), 24);
            let rep = e.run_until_silent(u64::MAX).unwrap();
            assert!(e.is_silent(), "{kind}");
            assert!(e.counts().iter().all(|&c| c == 1), "{kind}");
            assert!(rep.interactions >= rep.productive_interactions);
            assert!(Engine::parallel_time(e.as_ref()) > 0.0);
        }
    }

    #[test]
    fn advance_semantics_per_engine() {
        let p = Ag { n: 16 };
        // Naive: every call executes exactly one interaction.
        let mut naive = make_engine(EngineKind::Naive, &p, vec![0; 16], 3, 1).unwrap();
        let before = naive.interactions();
        let quantum = naive.advance().unwrap();
        assert!(quantum <= 1);
        assert_eq!(naive.interactions(), before + 1);
        // Jump: every call executes exactly one productive interaction.
        let mut jump = make_engine(EngineKind::Jump, &p, vec![0; 16], 3, 1).unwrap();
        assert_eq!(jump.advance(), Some(1));
        assert_eq!(jump.productive_interactions(), 1);
        // Silent engines return None and never advance.
        let mut silent = make_engine(EngineKind::Count, &p, (0..16).collect(), 3, 1).unwrap();
        assert_eq!(silent.advance(), None);
        assert_eq!(silent.interactions(), 0);
    }

    #[test]
    fn observers_see_all_productive_mass() {
        let p = Ag { n: 12 };
        for kind in EngineKind::ALL {
            let mut e = make_engine(kind, &p, vec![0; 12], 5, 1).unwrap();
            let mut seen = 0u64;
            let mut obs = FnCountObserver(|_i, _b, _a, mult, _c: &[u32]| seen += mult);
            let rep = e.run_until_silent_observed(u64::MAX, &mut obs).unwrap();
            let _ = obs;
            assert_eq!(seen, rep.productive_interactions, "{kind}");
        }
    }

    #[test]
    fn fault_injection_and_recovery_through_the_trait() {
        let p = Ag { n: 10 };
        for kind in EngineKind::ALL {
            let mut e = make_engine(kind, &p, (0..10).collect(), 7, 1).unwrap();
            assert!(e.is_silent());
            e.inject_state_fault(0, 4);
            assert!(!e.is_silent(), "{kind}");
            e.run_until_silent(u64::MAX).unwrap();
            assert!(e.counts().iter().all(|&c| c == 1), "{kind}");
        }
    }

    #[test]
    fn snapshot_restore_replays_exactly_per_engine() {
        let p = Ag { n: 12 };
        for kind in EngineKind::ALL {
            let mut e = make_engine(kind, &p, vec![0; 12], 11, 1).unwrap();
            for _ in 0..5 {
                e.advance();
            }
            let snap = e.snapshot();
            assert_eq!(snap.counts().iter().sum::<u32>(), 12);
            let rep_a = e.run_until_silent(u64::MAX).unwrap();
            let counts_a = e.counts().to_vec();
            e.restore(&snap);
            assert_eq!(e.interactions(), snap.interactions());
            let rep_b = e.run_until_silent(u64::MAX).unwrap();
            assert_eq!(rep_a.interactions, rep_b.interactions, "{kind}");
            assert_eq!(counts_a, e.counts(), "{kind}");
        }
    }

    #[test]
    fn cross_engine_snapshot_restore_continues_the_configuration() {
        let p = Ag { n: 10 };
        let mut jump = make_engine(EngineKind::Jump, &p, vec![0; 10], 13, 1).unwrap();
        jump.advance();
        let snap = jump.snapshot();
        // A count-only snapshot restores into the naive engine too (agents
        // are reconstructed from counts; anonymity makes that equivalent).
        let mut naive = make_engine(EngineKind::Naive, &p, vec![0; 10], 13, 1).unwrap();
        naive.restore(&snap);
        assert_eq!(naive.counts(), snap.counts());
        assert_eq!(naive.interactions(), snap.interactions());
        naive.run_until_silent(u64::MAX).unwrap();
        assert!(naive.is_silent());
    }
}
