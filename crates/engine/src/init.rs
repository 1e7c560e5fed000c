//! Initial-configuration generators.
//!
//! Self-stabilising protocols must recover from **arbitrary** starting
//! configurations; the generators here produce the families used in the
//! paper's analysis: exact rankings, `k`-distant configurations (exactly `k`
//! rank states unoccupied, no extra states used), uniformly random
//! configurations over the whole state space, and single-state stacks.
//!
//! A configuration is a `Vec<State>` of length `n` (one state per agent).
//!
//! # Examples
//!
//! ```
//! use ssr_engine::init;
//! use ssr_engine::rng::Xoshiro256;
//!
//! let mut rng = Xoshiro256::seed_from_u64(1);
//! let cfg = init::k_distant(10, 3, init::DuplicatePlacement::Random, &mut rng);
//! assert_eq!(init::distance(&cfg, 10), 3);
//! ```

use crate::protocol::State;
use crate::rng::Xoshiro256;

/// Where the duplicated agents of a `k`-distant configuration are placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DuplicatePlacement {
    /// Each of the `k` displaced agents lands on a uniformly random occupied
    /// rank state (duplicates may themselves stack further).
    Random,
    /// All `k` displaced agents stack on a single occupied rank state —
    /// the adversarial "tall column" start.
    Stacked,
    /// Displaced agents are spread round-robin over the occupied rank
    /// states with the lowest ids.
    SpreadLow,
}

/// The silent target configuration: agent `i` in rank state `i`.
///
/// # Examples
///
/// ```
/// assert_eq!(ssr_engine::init::perfect_ranking(3), vec![0, 1, 2]);
/// ```
pub fn perfect_ranking(n: usize) -> Vec<State> {
    (0..n as State).collect()
}

/// A `k`-distant configuration: `n` agents all in rank states, with exactly
/// `k` of the `n` rank states unoccupied. The missing rank states are chosen
/// uniformly at random; `placement` controls where the `k` displaced agents
/// go.
///
/// # Panics
///
/// Panics if `k >= n` (at least one rank state must be occupied) unless
/// `n == 0`.
pub fn k_distant(
    n: usize,
    k: usize,
    placement: DuplicatePlacement,
    rng: &mut Xoshiro256,
) -> Vec<State> {
    if n == 0 {
        return Vec::new();
    }
    assert!(
        k < n,
        "a k-distant configuration needs k < n (got k = {k}, n = {n})"
    );
    // lint:allow(D002): membership-only — queried with `contains` in a
    // deterministic 0..n scan; never iterated.
    let missing: std::collections::HashSet<usize> = rng.sample_distinct(n, k).into_iter().collect();
    let present: Vec<State> = (0..n)
        .filter(|i| !missing.contains(i))
        .map(|i| i as State)
        .collect();
    let mut cfg: Vec<State> = present.clone();
    match placement {
        DuplicatePlacement::Random => {
            for _ in 0..k {
                let host = present[rng.below_usize(present.len())];
                cfg.push(host);
            }
        }
        DuplicatePlacement::Stacked => {
            let host = present[rng.below_usize(present.len())];
            cfg.extend(std::iter::repeat_n(host, k));
        }
        DuplicatePlacement::SpreadLow => {
            for j in 0..k {
                cfg.push(present[j % present.len()]);
            }
        }
    }
    rng.shuffle(&mut cfg);
    debug_assert_eq!(cfg.len(), n);
    cfg
}

/// A uniformly random configuration: each agent independently uniform over
/// **all** `num_states` states (rank and extra alike). This is the paper's
/// "arbitrary initial configuration" in the average case.
pub fn uniform_random(n: usize, num_states: usize, rng: &mut Xoshiro256) -> Vec<State> {
    assert!(num_states > 0, "need at least one state");
    (0..n)
        .map(|_| rng.below(num_states as u64) as State)
        .collect()
}

/// [`uniform_random`] delivered directly as per-state occupancy counts:
/// the same `n` draws from the same RNG stream (so for a given seed the
/// multiset of states is identical), but without materialising the
/// `4n`-byte agent vector — the constructor path count-based engines use
/// at `n = 10⁸…10⁹`.
pub fn uniform_random_counts(n: usize, num_states: usize, rng: &mut Xoshiro256) -> Vec<u32> {
    assert!(num_states > 0, "need at least one state");
    let mut counts = vec![0u32; num_states];
    for _ in 0..n {
        counts[rng.below(num_states as u64) as usize] += 1;
    }
    counts
}

/// All `n` agents stacked in a single state `s` — the extreme adversarial
/// start (an `(n-1)`-distant configuration when `s` is a rank state).
pub fn all_in(n: usize, s: State) -> Vec<State> {
    vec![s; n]
}

/// Number of **unoccupied rank states** (the paper's distance `k` of a
/// configuration from the final configuration).
///
/// Agents in extra states simply do not contribute occupancy.
pub fn distance(cfg: &[State], num_rank_states: usize) -> usize {
    let mut occupied = vec![false; num_rank_states];
    for &s in cfg {
        if (s as usize) < num_rank_states {
            occupied[s as usize] = true;
        }
    }
    occupied.iter().filter(|&&o| !o).count()
}

/// True when the configuration is a perfect ranking: every rank state
/// occupied by exactly one agent and no agent in an extra state.
pub fn is_perfect_ranking(cfg: &[State], num_rank_states: usize) -> bool {
    if cfg.len() != num_rank_states {
        return false;
    }
    let mut seen = vec![false; num_rank_states];
    for &s in cfg {
        let s = s as usize;
        if s >= num_rank_states || seen[s] {
            return false;
        }
        seen[s] = true;
    }
    true
}

/// Occupancy counts per state for a configuration.
pub fn counts(cfg: &[State], num_states: usize) -> Vec<u32> {
    let mut c = vec![0u32; num_states];
    for &s in cfg {
        c[s as usize] += 1;
    }
    c
}

/// Expand per-state counts back into a configuration (agents sorted by
/// state id). Inverse of [`counts`] up to agent permutation — agents are
/// anonymous, so any order represents the same configuration.
pub fn from_counts(counts: &[u32]) -> Vec<State> {
    let mut cfg = Vec::with_capacity(counts.iter().map(|&c| c as usize).sum());
    for (s, &c) in counts.iter().enumerate() {
        cfg.extend(std::iter::repeat_n(s as State, c as usize));
    }
    cfg
}

/// Validate that every state id in `cfg` is below `num_states`.
///
/// # Errors
///
/// Returns the offending agent index and state.
pub fn validate(cfg: &[State], num_states: usize) -> Result<(), crate::error::ConfigError> {
    for (agent, &s) in cfg.iter().enumerate() {
        if (s as usize) >= num_states {
            return Err(crate::error::ConfigError::StateOutOfRange {
                agent,
                state: s,
                num_states,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Xoshiro256 {
        Xoshiro256::seed_from_u64(99)
    }

    #[test]
    fn perfect_ranking_is_zero_distant() {
        let cfg = perfect_ranking(12);
        assert_eq!(distance(&cfg, 12), 0);
        assert!(is_perfect_ranking(&cfg, 12));
    }

    #[test]
    fn k_distant_has_exact_distance_all_placements() {
        let mut r = rng();
        for placement in [
            DuplicatePlacement::Random,
            DuplicatePlacement::Stacked,
            DuplicatePlacement::SpreadLow,
        ] {
            for k in [0usize, 1, 5, 19] {
                let cfg = k_distant(20, k, placement, &mut r);
                assert_eq!(cfg.len(), 20);
                assert_eq!(distance(&cfg, 20), k, "{placement:?} k={k}");
                assert!(cfg.iter().all(|&s| (s as usize) < 20));
            }
        }
    }

    #[test]
    #[should_panic(expected = "k < n")]
    fn k_distant_rejects_k_equal_n() {
        k_distant(5, 5, DuplicatePlacement::Random, &mut rng());
    }

    #[test]
    fn stacked_places_all_duplicates_on_one_state() {
        let mut r = rng();
        let cfg = k_distant(30, 10, DuplicatePlacement::Stacked, &mut r);
        let c = counts(&cfg, 30);
        let max = *c.iter().max().unwrap();
        assert_eq!(max, 11, "one state hosts 1 + k agents");
    }

    #[test]
    fn uniform_random_in_range() {
        let mut r = rng();
        let cfg = uniform_random(1000, 37, &mut r);
        assert!(cfg.iter().all(|&s| (s as usize) < 37));
        // All 37 states should appear at n = 1000 with overwhelming prob.
        let c = counts(&cfg, 37);
        assert!(c.iter().all(|&x| x > 0));
    }

    #[test]
    fn all_in_distance() {
        let cfg = all_in(10, 3);
        assert_eq!(distance(&cfg, 10), 9);
    }

    #[test]
    fn counts_roundtrip() {
        let mut r = rng();
        let cfg = uniform_random(50, 10, &mut r);
        let c = counts(&cfg, 10);
        assert_eq!(c.iter().sum::<u32>(), 50);
        let back = from_counts(&c);
        let mut sorted = cfg.clone();
        sorted.sort_unstable();
        assert_eq!(back, sorted);
    }

    #[test]
    fn is_perfect_ranking_rejects_duplicates_and_extras() {
        assert!(!is_perfect_ranking(&[0, 0, 2], 3));
        assert!(!is_perfect_ranking(&[0, 1, 3], 3)); // 3 is an extra state
        assert!(!is_perfect_ranking(&[0, 1], 3)); // wrong population
        assert!(is_perfect_ranking(&[2, 0, 1], 3));
    }

    #[test]
    fn validate_flags_out_of_range() {
        assert!(validate(&[0, 1, 2], 3).is_ok());
        let err = validate(&[0, 5], 3).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains('5'), "{msg}");
    }

    #[test]
    fn distance_ignores_extra_states() {
        // 4 rank states; one agent parked in extra state 5.
        assert_eq!(distance(&[0, 1, 5, 2], 4), 1);
    }
}
