//! Leader election via ranking.
//!
//! Every ranking protocol solves self-stabilising leader election: once
//! each agent silently occupies a distinct rank state, the unique agent in
//! [`LEADER_RANK`] (rank 0) is the leader. The paper's lower-bound context:
//! self-stabilising leader election needs at least `n` states
//! (Cai–Izumi–Wada), and any silent protocol needs `Ω(n)` expected time
//! (Burman et al. / Doty–Soloveichik) — ranking is the canonical way to
//! meet the state bound. Agents are anonymous, so an election is a run to
//! silence on any engine followed by [`has_unique_leader`] on its counts.

use ssr_engine::protocol::State;

/// The rank whose occupant is the elected leader.
pub const LEADER_RANK: State = 0;

/// True when exactly one agent occupies the leader rank — the election
/// safety predicate, checkable on any configuration.
pub fn has_unique_leader(counts: &[u32]) -> bool {
    counts.first().map(|&c| c == 1).unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unique_leader_predicate() {
        assert!(has_unique_leader(&[1, 0, 2]));
        assert!(!has_unique_leader(&[2, 1, 0]));
        assert!(!has_unique_leader(&[0, 1, 1]));
        assert!(!has_unique_leader(&[]));
    }
}
