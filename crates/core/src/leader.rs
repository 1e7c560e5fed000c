//! Leader election via ranking.
//!
//! Every ranking protocol solves self-stabilising leader election: once
//! each agent silently occupies a distinct rank state, the unique agent in
//! [`LEADER_RANK`] (rank 0) is the leader. The paper's lower-bound context:
//! self-stabilising leader election needs at least `n` states
//! (Cai–Izumi–Wada), and any silent protocol needs `Ω(n)` expected time
//! (Burman et al. / Doty–Soloveichik) — ranking is the canonical way to
//! meet the state bound.
//!
//! # Examples
//!
//! ```
//! use ssr_core::leader::elect_leader;
//! use ssr_core::tree::TreeRanking;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let protocol = TreeRanking::new(25);
//! let outcome = elect_leader(&protocol, vec![0; 25], 7, u64::MAX)?;
//! assert!(outcome.leader < 25);
//! println!("leader elected after parallel time {:.1}",
//!          outcome.report.parallel_time);
//! # Ok(())
//! # }
//! ```

use ssr_engine::engine::Engine;
use ssr_engine::error::StabilisationTimeout;
use ssr_engine::protocol::{Protocol, State};
use ssr_engine::sim::{Simulation, StabilisationReport};

/// The rank whose occupant is the elected leader.
pub const LEADER_RANK: State = 0;

/// Result of a successful leader election.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElectionOutcome {
    /// Stabilisation statistics of the underlying ranking run.
    pub report: StabilisationReport,
    /// Index of the agent that holds [`LEADER_RANK`] in the silent
    /// configuration.
    pub leader: usize,
}

/// Errors from [`elect_leader`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElectionError {
    /// The ranking did not stabilise within the interaction cap.
    Timeout(StabilisationTimeout),
    /// The initial configuration was invalid for the protocol.
    Config(ssr_engine::ConfigError),
}

impl std::fmt::Display for ElectionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ElectionError::Timeout(t) => write!(f, "election timed out: {t}"),
            ElectionError::Config(c) => write!(f, "invalid configuration: {c}"),
        }
    }
}

impl std::error::Error for ElectionError {}

impl From<StabilisationTimeout> for ElectionError {
    fn from(t: StabilisationTimeout) -> Self {
        ElectionError::Timeout(t)
    }
}

impl From<ssr_engine::ConfigError> for ElectionError {
    fn from(c: ssr_engine::ConfigError) -> Self {
        ElectionError::Config(c)
    }
}

/// Run a ranking protocol to silence and report the elected leader (the
/// agent that ends in rank 0). Uses the naive simulator because agent
/// identities matter for naming the winner.
///
/// # Errors
///
/// [`ElectionError::Config`] for invalid configurations,
/// [`ElectionError::Timeout`] when `max_interactions` is exhausted first.
pub fn elect_leader<P: Protocol + ?Sized>(
    protocol: &P,
    config: Vec<State>,
    seed: u64,
    max_interactions: u64,
) -> Result<ElectionOutcome, ElectionError> {
    let mut sim = Simulation::new(protocol, config, seed)?;
    let report = sim.run_until_silent(max_interactions)?;
    let leader = sim
        .agents()
        .iter()
        .position(|&s| s == LEADER_RANK)
        .expect("a silent ranking has exactly one agent at rank 0");
    Ok(ElectionOutcome { report, leader })
}

/// True when exactly one agent occupies the leader rank — the election
/// safety predicate, checkable on any configuration.
pub fn has_unique_leader(counts: &[u32]) -> bool {
    counts.first().map(|&c| c == 1).unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generic::GenericRanking;
    use crate::ring::RingOfTraps;
    use crate::tree::TreeRanking;
    use ssr_engine::init;
    use ssr_engine::rng::Xoshiro256;

    #[test]
    fn electing_from_stacked_start_names_one_agent() {
        let p = GenericRanking::new(12);
        let out = elect_leader(&p, vec![3; 12], 5, u64::MAX).unwrap();
        assert!(out.leader < 12);
        assert!(out.report.interactions > 0);
    }

    #[test]
    fn all_protocols_elect_from_random_starts() {
        let mut rng = Xoshiro256::seed_from_u64(3);
        let n = 20;
        let gen = GenericRanking::new(n);
        let ring = RingOfTraps::new(n);
        let tree = TreeRanking::new(n);
        let protos: Vec<&dyn Protocol> = vec![&gen, &ring, &tree];
        for p in protos {
            let cfg = init::uniform_random(n, p.num_states(), &mut rng);
            let out = elect_leader(p, cfg, 11, u64::MAX).unwrap();
            assert!(out.leader < n, "{}", p.name());
        }
    }

    #[test]
    fn unique_leader_predicate() {
        assert!(has_unique_leader(&[1, 0, 2]));
        assert!(!has_unique_leader(&[2, 1, 0]));
        assert!(!has_unique_leader(&[0, 1, 1]));
        assert!(!has_unique_leader(&[]));
    }

    #[test]
    fn timeout_propagates() {
        let p = GenericRanking::new(12);
        let err = elect_leader(&p, vec![0; 12], 5, 3).unwrap_err();
        assert!(matches!(err, ElectionError::Timeout(_)));
        assert!(err.to_string().contains("timed out"));
    }

    #[test]
    fn config_error_propagates() {
        let p = GenericRanking::new(4);
        let err = elect_leader(&p, vec![0; 3], 5, 10).unwrap_err();
        assert!(matches!(err, ElectionError::Config(_)));
    }
}
