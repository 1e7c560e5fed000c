//! # ssr-engine — population-protocol simulation substrate
//!
//! A from-scratch implementation of the probabilistic population-protocol
//! model used by the paper *"Improving Efficiency in Near-State and
//! State-Optimal Self-Stabilising Leader Election Population Protocols"*
//! (PODC 2025): `n` anonymous agents, each holding one state; in every step
//! the random scheduler draws an ordered pair (initiator, responder)
//! uniformly among the `n(n−1)` ordered pairs of distinct agents and applies
//! the protocol's deterministic transition function. *Parallel time* is the
//! number of interactions divided by `n`.
//!
//! ## The interaction schema
//!
//! One declarative contract connects protocols to engines: a protocol
//! implements [`InteractionSchema`] by
//! enumerating its productive **interaction classes** — equal-rank pairs,
//! all extra–extra pairs, rank–extra cross pairs by direction, plus an
//! escape hatch of enumerated sparse pairs — each with a weight formula
//! over occupancy counts and an exchangeability flag. The same schema
//! drives exact null-skipping (which pairs can fire and with what weight),
//! per-class batching (which classes may be executed as multinomially
//! split batches), and exhaustive validation
//! ([`protocol::validate_interaction_schema`]).
//!
//! ## The engines
//!
//! Two interchangeable engines simulate the identical stochastic process
//! behind the unified [`Engine`] trait (select one at
//! runtime with [`engine::EngineKind`] — `Auto` resolves per population
//! size — through the [`Scenario`] builder, the front
//! door for every run, or `--engine auto|naive|jump|count` in the CLI;
//! [`engine::make_engine`] builds a single engine from an explicit
//! configuration and seed). The count engine runs in one of two modes:
//!
//! | Engine (kind) | Memory | Cost model | Use when |
//! |---------------|--------|-----------|----------|
//! | [`Simulation`] (`naive`) | `O(n)` agent vector | O(1) per *interaction*, nulls included | small `n`; agent-level observers |
//! | [`CountSimulation`], exact mode (`jump`) | `O(#states)` counts | O(log #states) per *productive* interaction; nulls skipped exactly | long runs near silence; `n` below 4096 under `Auto` |
//! | [`CountSimulation`], batched mode (`count`) | `O(#states)` counts (block sums over derived leaves — ≈ `1.1n` bytes of weight overhead beyond the counts) | amortised **sub-productive-interaction**: far from silence a whole batch of exchangeable steps costs O(occupied) binomial draws, across *every* exchangeable class, fanned out over a thread pool with seed-derived per-task RNG streams | `n = 10⁴…10⁹`; scale experiments |
//!
//! The naive engine is the literal model — use it as ground truth and for
//! anything that needs agent identities. The count engine's exact mode
//! ([`CountSimulation::with_batching`](count::CountSimulation::with_batching)
//! off) simulates the embedded chain of productive interactions with
//! geometric null gaps — *exactly* the same process, orders of magnitude
//! faster once the configuration approaches silence. Batched mode
//! additionally batches statistically-exchangeable productive steps via
//! per-class multinomial splitting when far from silence — equal-rank
//! mass through a binary weight tree, extra–extra and rank–extra mass
//! through two-population splits — and falls back to exact steps near
//! silence; its stabilisation-time distribution is KS-indistinguishable
//! from the exact chain (asserted in `tests/cross_simulator.rs`). Batch
//! splits are conditionally independent given the class totals, so
//! batched mode fans them out over a small thread pool
//! ([`CountSimulation::with_threads`](count::CountSimulation::with_threads),
//! threaded through [`Scenario::threads`](runner::Scenario::threads) and
//! `--threads` in the CLI) — with per-task RNG streams derived from the
//! seed, so a run is bit-identical at any thread count.
//!
//! ## Components
//!
//! * [`protocol`] — the [`Protocol`] trait, the
//!   declarative [`InteractionSchema`], the
//!   ranking contract, and the schema validators.
//! * [`engine`] — the unified [`Engine`] trait: stepping,
//!   run-to-silence, count-level observers, fault injection,
//!   snapshot/restore, and the engine factory with `Auto` selection.
//! * [`runner`] — the [`Scenario`] builder, the front
//!   door for every run, fault runs included: protocol + engine + init
//!   family + fault plan + trials, run in parallel with deterministic
//!   seeding.
//! * [`faults`] — the adversary subsystem: timed [`FaultPlan`]s (bursts,
//!   periodic bursts, rate faults, churn, Byzantine agents), attached to a
//!   scenario with [`Scenario::faults`](runner::Scenario::faults) or
//!   [`Scenario::fault_plan`](runner::Scenario::fault_plan) and executed
//!   deterministically by every engine via [`run_with_plan`], with
//!   graceful non-convergence reporting ([`RunOutcome`]: availability,
//!   `k`-excursions, per-burst recovery times).
//! * [`sim`] — the naive step-by-step simulator with observer hooks.
//! * [`count`] — the count-based simulator (O(#states) memory): the exact
//!   jump chain, plus amortised sub-interaction batching far from silence.
//! * [`init`] — initial-configuration generators (`k`-distant, uniform
//!   random, stacked, …).
//! * [`observer`] — the naive simulator's agent-level observer hook and
//!   the fault-plan [`RecoveryTracker`].
//! * [`rng`] — deterministic RNG and samplers.
//!
//! ## Quickstart
//!
//! ```
//! use ssr_engine::protocol::{ClassSpec, InteractionSchema, Protocol, State};
//! use ssr_engine::count::CountSimulation;
//! use ssr_engine::engine::Engine;
//!
//! /// The generic state-optimal ranking protocol A_G.
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
//! let protocol = Ag { n: 100 };
//! let mut sim = CountSimulation::new(&protocol, vec![0; 100], 1)?.with_batching(false);
//! let report = sim.run_until_silent(u64::MAX)?;
//! println!("stabilised in parallel time {:.1}", report.parallel_time);
//! # Ok(())
//! # }
//! ```

// `unsafe_code = "forbid"` comes from [workspace.lints] in the root manifest.
#![warn(missing_docs)]
// Truncation-cast audit (workspace denies `cast_possible_truncation`):
// the engine is pervasively numeric — u32 counts, usize indices, u64
// weights, u128 clock — and narrows deliberately at documented
// boundaries. The dangerous narrows (interaction clock, weight totals)
// are machine-checked by ssr-lint's A-series rules instead.
#![allow(clippy::cast_possible_truncation)]

mod classes;
pub mod count;
pub mod engine;
pub mod error;
pub mod faults;
pub mod init;
pub mod observer;
pub mod protocol;
pub mod rng;
pub mod runner;
pub mod sim;
pub mod wire;

#[doc(hidden)]
pub use classes::split_eq_block;
pub use count::CountSimulation;
pub use engine::{make_engine, CappedAdvance, CountObserver, Engine, EngineKind, EngineSnapshot};
pub use error::{ConfigError, StabilisationTimeout};
pub use faults::{rank_distance, run_with_plan, BurstRecord, FaultPlan, RunOutcome};
pub use observer::RecoveryTracker;
pub use protocol::{
    validate_interaction_schema, ClassSpec, CrossDirection, InteractionClass, InteractionSchema,
    Protocol, State,
};
pub use runner::{Init, Scenario, TrialResults};
pub use sim::{Simulation, StabilisationReport};
pub use wire::{SnapshotDecodeError, SnapshotShape, SNAPSHOT_WIRE_VERSION};
