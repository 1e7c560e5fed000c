//! # ssr — self-stabilising ranking & leader election population protocols
//!
//! A full reproduction of *"Improving Efficiency in Near-State and
//! State-Optimal Self-Stabilising Leader Election Population Protocols"*
//! (Gąsieniec, Grodzicki, Stachowiak — PODC 2025).
//!
//! The **ranking problem**: `n` anonymous agents with `n` rank states plus
//! `x` extra states must, from an *arbitrary* initial configuration and
//! under uniformly random pairwise interactions, silently stabilise with
//! every agent in a distinct rank state. Ranking yields self-stabilising
//! leader election (rank 0 = leader) with the minimum possible number of
//! states.
//!
//! This crate re-exports the whole workspace:
//!
//! * [`engine`] — the population-protocol model behind the unified
//!   [`Engine`](engine::Engine) trait: the naive per-agent simulator and
//!   the count-based simulator (O(#states) memory; an exact jump-chain
//!   mode and a batched mode that scales to populations of 10⁷+), all
//!   driven by the
//!   declarative [`InteractionSchema`](engine::InteractionSchema);
//!   configuration generators; the [`Scenario`](engine::Scenario) trial
//!   runner; the adversary subsystem (timed [`FaultPlan`](engine::FaultPlan)s
//!   with churn and Byzantine agents, graceful non-convergence reporting);
//! * [`topology`] — perfectly balanced binary trees, the cubic routing
//!   graph `G`, trap layouts;
//! * [`protocols`] — the four protocols: `Θ(n²)` baseline `A_G`,
//!   state-optimal ring of traps (`O(min(k·n^{3/2}, n² log² n))`),
//!   one-extra-state lines of traps (`O(n^{7/4} log² n)`), and the
//!   `O(log n)`-extra-state tree protocol (`O(n log n)`);
//! * [`analysis`] — summary statistics, power-law fits, sweeps, tables.
//!
//! ## Quickstart
//!
//! ```
//! use ssr::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let n = 100;
//! let protocol = TreeRanking::new(n);
//!
//! // Adversarial start: every agent stacked in the same state.
//! let mut sim = CountSimulation::new(&protocol, vec![0; n], 42)?.with_batching(false);
//! let report = sim.run_until_silent(u64::MAX)?;
//!
//! assert!(sim.is_silent());
//! println!("ranked {n} agents in parallel time {:.1}", report.parallel_time);
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for leader election with fault injection, protocol
//! comparisons, and k-distant recovery scenarios; `crates/bench` hosts the
//! experiment binaries that regenerate the paper's complexity tables.

// `unsafe_code = "forbid"` comes from [workspace.lints] in the root manifest.
#![warn(missing_docs)]

pub use ssr_analysis as analysis;
pub use ssr_core as protocols;
pub use ssr_engine as engine;
pub use ssr_topology as topology;

/// Convenient glob-import surface covering the common workflow:
/// pick a protocol, build a start configuration, simulate, analyse.
pub mod prelude {
    pub use ssr_analysis::{
        fit_power_law, stats::Summary, sweep::sweep, sweep::SweepOptions, Table,
    };
    pub use ssr_analysis::{verify_stability, Ecdf, StabilityCertificate};
    pub use ssr_core::{
        elect_leader, GenericRanking, LineOfTraps, LooseLeaderElection, RingOfTraps, TreeRanking,
        LEADER_RANK,
    };
    pub use ssr_engine::{
        init, make_engine, rng::Xoshiro256, run_with_plan, validate_interaction_schema,
        BurstRecord, ClassSpec, ClusteredScheduler, CountSimulation, CrossDirection, Engine,
        EngineKind, FaultPlan, Init, InteractionClass, InteractionSchema, Protocol, RunOutcome,
        Scenario, Scheduler, Simulation, State, UniformScheduler, ZipfScheduler,
    };
    pub use ssr_topology::{BalancedTree, CubicGraph, TrapChain};
}
