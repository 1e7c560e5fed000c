//! Error types for simulator construction and execution.

use std::error::Error;
use std::fmt;

/// An invalid initial configuration was supplied to a simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The configuration length does not match the protocol's population.
    WrongPopulation {
        /// Population size the protocol was built for.
        expected: usize,
        /// Number of agents supplied.
        got: usize,
    },
    /// An agent references a state id outside the protocol's state space.
    StateOutOfRange {
        /// Index of the offending agent.
        agent: usize,
        /// The out-of-range state id.
        state: u32,
        /// Size of the state space.
        num_states: usize,
    },
    /// A start configuration puts more agents in one state than the count
    /// engine's `u32` occupancy counter holds.
    OccupancyOverflow {
        /// The state that would overflow.
        state: u32,
        /// Number of agents it would hold.
        agents: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::WrongPopulation { expected, got } => write!(
                f,
                "configuration has {got} agents but the protocol expects {expected}"
            ),
            ConfigError::StateOutOfRange {
                agent,
                state,
                num_states,
            } => write!(
                f,
                "agent {agent} is in state {state}, outside the state space 0..{num_states}"
            ),
            ConfigError::OccupancyOverflow { state, agents } => write!(
                f,
                "state {state} would hold {agents} agents, above the per-state occupancy \
                 limit of {} (u32)",
                u32::MAX
            ),
        }
    }
}

impl Error for ConfigError {}

/// The simulation hit its interaction cap before reaching a silent
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StabilisationTimeout {
    /// Interactions executed before giving up.
    pub interactions: u64,
}

impl fmt::Display for StabilisationTimeout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no silent configuration reached within {} interactions",
            self.interactions
        )
    }
}

impl Error for StabilisationTimeout {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = ConfigError::WrongPopulation {
            expected: 10,
            got: 9,
        };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains('9'));

        let e = ConfigError::StateOutOfRange {
            agent: 3,
            state: 42,
            num_states: 40,
        };
        assert!(e.to_string().contains("42"));

        let e = ConfigError::OccupancyOverflow {
            state: 0,
            agents: 1 << 33,
        };
        assert!(e.to_string().contains("8589934592"));
        assert!(e.to_string().contains("4294967295"));

        let t = StabilisationTimeout { interactions: 100 };
        assert!(t.to_string().contains("100"));
    }

    #[test]
    fn errors_are_std_errors() {
        fn takes_err<E: Error>(_e: E) {}
        takes_err(ConfigError::WrongPopulation {
            expected: 1,
            got: 2,
        });
        takes_err(StabilisationTimeout { interactions: 5 });
    }
}
