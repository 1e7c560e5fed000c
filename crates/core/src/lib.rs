//! # ssr-core — self-stabilising ranking & leader-election protocols
//!
//! Implementation of every protocol from *"Improving Efficiency in
//! Near-State and State-Optimal Self-Stabilising Leader Election Population
//! Protocols"* (PODC 2025):
//!
//! | Module | Protocol | Extra states | Stabilisation (whp) |
//! |--------|----------|--------------|---------------------|
//! | [`generic`] | baseline `A_G` | 0 | `Θ(n²)` |
//! | [`ring`] | ring of traps (§3) | 0 | `O(min(k·n^{3/2}, n² log² n))` |
//! | [`line`](mod@line) | lines of traps + `X` (§4) | 1 | `O(n^{7/4} log² n)` |
//! | [`tree`] | tree of ranks + buffer (§5) | `O(log n)` | `O(n log n)` |
//!
//! [`loose`] adds a **loosely-stabilising** leader election with
//! `O(log n)` states *total* (related work \[45\]): it is not a ranking
//! protocol and never silent, but quantifies what the paper's ≥ n-state
//! lower bound buys — a leader held forever rather than leased.
//!
//! All five implement [`ssr_engine::Protocol`] and declare their
//! productive classes through [`ssr_engine::InteractionSchema`], so every
//! engine (naive, exact jump chain, batched count) applies; the four
//! ranking protocols additionally uphold the *ranking contract*: silent ⇔
//! every agent in a distinct rank state ([`loose`] goes through the
//! schema's sparse-pair escape hatch and is never silent). [`trap`] provides the shared agent-trap machinery
//! (§2.1) and [`leader`] the leader-election wrapper (rank 0 = leader).
//!
//! ## Quickstart
//!
//! ```
//! use ssr_core::tree::TreeRanking;
//! use ssr_engine::{init, CountSimulation, Engine, Protocol};
//! use ssr_engine::rng::Xoshiro256;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let n = 200;
//! let protocol = TreeRanking::new(n);
//! let mut rng = Xoshiro256::seed_from_u64(1);
//! let start = init::uniform_random(n, protocol.num_states(), &mut rng);
//! let mut sim = CountSimulation::new(&protocol, start, 2)?.with_batching(false);
//! let report = sim.run_until_silent(u64::MAX)?;
//! println!("self-stabilised in parallel time {:.1}", report.parallel_time);
//! # Ok(())
//! # }
//! ```

// `unsafe_code = "forbid"` comes from [workspace.lints] in the root manifest.
// Truncation-cast audit (workspace denies `cast_possible_truncation`):
// protocol state arithmetic narrows usize⇄u32 `State`; every narrow is
// bounded by the population size n, which the engine's memory model
// (≥ 4 bytes/state of counts) keeps below 2³².
#![allow(clippy::cast_possible_truncation)]
#![warn(missing_docs)]

pub mod generic;
pub mod leader;
pub mod line;
pub mod loose;
pub mod ring;
pub mod trap;
pub mod tree;

pub use generic::GenericRanking;
pub use leader::LEADER_RANK;
pub use line::LineOfTraps;
pub use loose::LooseLeaderElection;
pub use ring::RingOfTraps;
pub use tree::TreeRanking;

use ssr_engine::InteractionSchema;

/// Builds a ranking protocol over `n` agents behind one object-safe
/// schema handle.
pub type MakeProtocol = fn(usize) -> Box<dyn InteractionSchema + Sync>;

/// The four ranking protocols by canonical name: the one list the CLI and
/// the job service resolve protocol names against.
const RANKING_PROTOCOLS: [(&str, MakeProtocol); 4] = [
    ("generic", |n| Box::new(GenericRanking::new(n))),
    ("ring", |n| Box::new(RingOfTraps::new(n))),
    ("line", |n| Box::new(LineOfTraps::new(n))),
    ("tree", |n| Box::new(TreeRanking::new(n))),
];

/// The ranking protocol called `name` (`ag` is an alias of `generic`):
/// its canonical name and its constructor. `None` for unknown names.
///
/// ```
/// use ssr_engine::Protocol;
///
/// let (name, make) = ssr_core::ranking_protocol("ag").unwrap();
/// assert_eq!(name, "generic");
/// assert_eq!(make(16).num_states(), 16);
/// assert!(ssr_core::ranking_protocol("loose").is_none());
/// ```
pub fn ranking_protocol(name: &str) -> Option<(&'static str, MakeProtocol)> {
    let name = if name == "ag" { "generic" } else { name };
    RANKING_PROTOCOLS
        .into_iter()
        .find(|&(canonical, _)| canonical == name)
}
