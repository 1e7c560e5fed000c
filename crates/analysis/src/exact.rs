//! Exact expected stabilisation times via the full Markov chain.
//!
//! For small populations the protocol's configuration space (multisets of
//! states) is small enough to enumerate. This module builds the embedded
//! Markov chain over all configurations reachable from a start, and solves
//! the first-step linear system for the **exact expected number of
//! interactions** to reach a silent configuration:
//!
//! ```text
//! E[c] = P / W(c) + Σ_{c'} (w(c→c') / W(c)) · E[c']        (silent: E = 0)
//! ```
//!
//! where `P = n(n−1)` counts ordered agent pairs and `w(c→c')` the
//! productive ordered pairs leading from `c` to `c'`. The result is the
//! ground truth both simulators are validated against (their trial means
//! must converge to it) — the strongest correctness check in the suite.
//!
//! # Examples
//!
//! ```
//! use ssr_analysis::exact::expected_interactions;
//! use ssr_core::generic::GenericRanking;
//!
//! // Two agents stacked in state 0: the very first interaction is the
//! // rule 0+0 → 0+1, so the exact expected time is 1 interaction.
//! let p = GenericRanking::new(2);
//! let e = expected_interactions(&p, &[0, 0], 10_000).unwrap();
//! assert!((e - 1.0).abs() < 1e-12);
//! ```

use ssr_engine::protocol::{Protocol, State};
use std::collections::HashMap;

/// Errors from the exact solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExactError {
    /// The reachable configuration space exceeded the caller's cap.
    StateSpaceTooLarge {
        /// The cap that was exceeded.
        limit: usize,
    },
    /// A configuration was found from which no silent configuration is
    /// reachable (the protocol would not be stable).
    SilenceUnreachable,
}

impl std::fmt::Display for ExactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExactError::StateSpaceTooLarge { limit } => {
                write!(f, "reachable configuration space exceeds {limit} states")
            }
            ExactError::SilenceUnreachable => {
                write!(f, "no silent configuration reachable — protocol unstable")
            }
        }
    }
}

impl std::error::Error for ExactError {}

/// Occupancy counts of one configuration, indexed by state.
pub(crate) type Counts = Vec<u16>;

fn counts_of(config: &[State], num_states: usize) -> Counts {
    let mut c = vec![0u16; num_states];
    for &s in config {
        c[s as usize] += 1;
    }
    c
}

/// The configurations one productive interaction leads to from `c`, each
/// once, with the number of ordered agent pairs realising it, in the
/// order a scan over the occupied ordered state pairs first reaches them
/// (a fixed order, so configurations numbered by discovery are numbered
/// the same on every call). A pair whose rewrite returns to `c` is a
/// successor too.
pub(crate) fn successors<P: Protocol + ?Sized>(p: &P, c: &Counts) -> Vec<(Counts, u64)> {
    let mut out: Vec<(Counts, u64)> = Vec::new();
    let occupied: Vec<usize> = (0..c.len()).filter(|&s| c[s] > 0).collect();
    for &a in &occupied {
        for &b in &occupied {
            let pairs = if a == b {
                c[a] as u64 * (c[a] as u64 - 1)
            } else {
                c[a] as u64 * c[b] as u64
            };
            if pairs == 0 {
                continue;
            }
            if let Some((a2, b2)) = p.transition(a as State, b as State) {
                let mut next = c.clone();
                next[a] -= 1;
                next[b] -= 1;
                next[a2 as usize] += 1;
                next[b2 as usize] += 1;
                match out.iter_mut().find(|(t, _)| *t == next) {
                    Some((_, w)) => *w += pairs,
                    None => out.push((next, pairs)),
                }
            }
        }
    }
    out
}

/// Exact expected number of interactions to silence from `start`, by
/// enumerating the reachable configuration space (capped at `limit`
/// configurations) and solving the first-step equations with Gaussian
/// elimination.
///
/// # Errors
///
/// [`ExactError::StateSpaceTooLarge`] if more than `limit` configurations
/// are reachable; [`ExactError::SilenceUnreachable`] if the chain has a
/// recurrent class without silent configurations.
///
/// # Panics
///
/// Panics if `start` length differs from the protocol population or
/// references out-of-range states.
pub fn expected_interactions<P: Protocol + ?Sized>(
    p: &P,
    start: &[State],
    limit: usize,
) -> Result<f64, ExactError> {
    assert_eq!(start.len(), p.population_size(), "population mismatch");
    assert!(
        start.iter().all(|&s| (s as usize) < p.num_states()),
        "state out of range"
    );
    let n = p.population_size() as u64;
    let ordered_pairs = (n * n.saturating_sub(1)) as f64;

    // BFS over reachable configurations.
    let start_counts = counts_of(start, p.num_states());
    let mut index: HashMap<Counts, usize> = HashMap::new();
    let mut configs: Vec<Counts> = Vec::new();
    let mut edges: Vec<Vec<(usize, u64)>> = Vec::new();
    let mut queue = std::collections::VecDeque::new();
    index.insert(start_counts.clone(), 0);
    configs.push(start_counts);
    edges.push(Vec::new());
    queue.push_back(0usize);
    while let Some(i) = queue.pop_front() {
        let outs = successors(p, &configs[i]);
        let mut row = Vec::with_capacity(outs.len());
        for (target, w) in outs {
            let next_id = configs.len();
            let j = *index.entry(target.clone()).or_insert_with(|| {
                configs.push(target);
                edges.push(Vec::new());
                queue.push_back(next_id);
                next_id
            });
            row.push((j, w));
        }
        edges[i] = row;
        if configs.len() > limit {
            return Err(ExactError::StateSpaceTooLarge { limit });
        }
    }
    let m = configs.len();
    debug_assert_eq!(edges.len(), m);

    // Silent configurations have no productive transitions.
    let silent: Vec<bool> = edges.iter().map(|row| row.is_empty()).collect();
    if silent[0] {
        return Ok(0.0);
    }
    if !silent.iter().any(|&s| s) {
        return Err(ExactError::SilenceUnreachable);
    }

    // Unknowns: non-silent configs. Build the dense system
    //   E[i] − Σ (w/W) E[j] = P / W(i).
    let unknowns: Vec<usize> = (0..m).filter(|&i| !silent[i]).collect();
    let pos: HashMap<usize, usize> = unknowns.iter().enumerate().map(|(k, &i)| (i, k)).collect();
    let u = unknowns.len();
    let mut a = vec![0.0f64; u * u];
    let mut b = vec![0.0f64; u];
    for (k, &i) in unknowns.iter().enumerate() {
        let w_total: u64 = edges[i].iter().map(|&(_, w)| w).sum();
        let w_total_f = w_total as f64;
        a[k * u + k] = 1.0;
        b[k] = ordered_pairs / w_total_f;
        for &(j, w) in &edges[i] {
            if !silent[j] {
                let kj = pos[&j];
                a[k * u + kj] -= w as f64 / w_total_f;
            }
        }
    }

    let e = solve_dense(&mut a, &mut b, u).ok_or(ExactError::SilenceUnreachable)?;
    Ok(e[pos[&0]])
}

/// Gaussian elimination with partial pivoting on a row-major dense matrix.
/// Returns `None` for (numerically) singular systems.
fn solve_dense(a: &mut [f64], b: &mut [f64], n: usize) -> Option<Vec<f64>> {
    for col in 0..n {
        // Pivot.
        let mut best = col;
        let mut best_abs = a[col * n + col].abs();
        for row in col + 1..n {
            let v = a[row * n + col].abs();
            if v > best_abs {
                best = row;
                best_abs = v;
            }
        }
        if best_abs < 1e-300 {
            return None;
        }
        if best != col {
            for k in 0..n {
                a.swap(col * n + k, best * n + k);
            }
            b.swap(col, best);
        }
        // Eliminate.
        let pivot = a[col * n + col];
        for row in col + 1..n {
            let factor = a[row * n + col] / pivot;
            if factor == 0.0 {
                continue;
            }
            for k in col..n {
                a[row * n + k] -= factor * a[col * n + k];
            }
            b[row] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for k in row + 1..n {
            acc -= a[row * n + k] * x[k];
        }
        x[row] = acc / a[row * n + row];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_core::generic::GenericRanking;
    use ssr_core::line::LineOfTraps;
    use ssr_core::ring::RingOfTraps;
    use ssr_core::tree::TreeRanking;
    use ssr_engine::{CountSimulation, Engine};

    fn simulated_mean<P: ssr_engine::InteractionSchema>(
        p: &P,
        start: &[State],
        trials: u64,
    ) -> f64 {
        let total: u64 = (0..trials)
            .map(|t| {
                let mut s = CountSimulation::new(p, start.to_vec(), 31_000 + t)
                    .unwrap()
                    .with_batching(false);
                s.run_until_silent(u64::MAX).unwrap().interactions
            })
            .sum();
        total as f64 / trials as f64
    }

    #[test]
    fn two_agents_one_rule() {
        let p = GenericRanking::new(2);
        let e = expected_interactions(&p, &[0, 0], 100).unwrap();
        assert!((e - 1.0).abs() < 1e-12, "every interaction is productive");
    }

    #[test]
    fn already_silent_is_zero() {
        let p = GenericRanking::new(3);
        let e = expected_interactions(&p, &[0, 1, 2], 100).unwrap();
        assert_eq!(e, 0.0);
    }

    #[test]
    fn generic_n3_matches_hand_computation() {
        // n = 3 from (0,0,0): chain (3,0,0) → (2,1,0) → silent or (1,2,0)…
        // Instead of deriving the closed form, verify the solver against a
        // very large simulation with tight tolerance.
        let p = GenericRanking::new(3);
        let exact = expected_interactions(&p, &[0, 0, 0], 10_000).unwrap();
        let sim = simulated_mean(&p, &[0, 0, 0], 60_000);
        let rel = (exact - sim).abs() / exact;
        assert!(rel < 0.02, "exact {exact:.3} vs sim {sim:.3}");
    }

    #[test]
    fn generic_n5_matches_simulation() {
        let p = GenericRanking::new(5);
        let exact = expected_interactions(&p, &[0; 5], 100_000).unwrap();
        let sim = simulated_mean(&p, &[0; 5], 40_000);
        let rel = (exact - sim).abs() / exact;
        assert!(rel < 0.02, "exact {exact:.2} vs sim {sim:.2}");
    }

    #[test]
    fn ring_n6_matches_simulation() {
        let p = RingOfTraps::new(6);
        let exact = expected_interactions(&p, &[0; 6], 200_000).unwrap();
        let sim = simulated_mean(&p, &[0; 6], 30_000);
        let rel = (exact - sim).abs() / exact;
        assert!(rel < 0.03, "exact {exact:.2} vs sim {sim:.2}");
    }

    #[test]
    fn tree_n4_matches_simulation() {
        let p = TreeRanking::with_buffer(4, 1);
        let exact = expected_interactions(&p, &[0; 4], 200_000).unwrap();
        let sim = simulated_mean(&p, &[0; 4], 30_000);
        let rel = (exact - sim).abs() / exact;
        assert!(rel < 0.03, "exact {exact:.2} vs sim {sim:.2}");
    }

    /// Configurations are numbered in the order the search finds them,
    /// which no hash order decides, so repeated calls return the same
    /// bits.
    #[test]
    fn repeated_calls_are_bit_identical() {
        let (ring, line) = (RingOfTraps::new(8), LineOfTraps::new(6));
        let cases: [(&dyn Protocol, Vec<State>); 2] =
            [(&ring, vec![0, 0, 1, 3, 3, 5, 5, 7]), (&line, vec![0; 6])];
        for (p, start) in cases {
            let first = expected_interactions(p, &start, 2_000_000).unwrap();
            for _ in 1..20 {
                let again = expected_interactions(p, &start, 2_000_000).unwrap();
                assert_eq!(again.to_bits(), first.to_bits(), "{}", p.name());
            }
        }
    }

    #[test]
    fn state_space_cap_enforced() {
        let p = GenericRanking::new(12);
        let err = expected_interactions(&p, &[0; 12], 5).unwrap_err();
        assert!(matches!(err, ExactError::StateSpaceTooLarge { .. }));
        assert!(err.to_string().contains('5'));
    }

    #[test]
    fn unstable_protocol_detected() {
        /// Two states that swap forever: never silent.
        struct Spinner;
        impl Protocol for Spinner {
            fn name(&self) -> &str {
                "spinner"
            }
            fn population_size(&self) -> usize {
                2
            }
            fn num_states(&self) -> usize {
                2
            }
            fn num_rank_states(&self) -> usize {
                2
            }
            fn transition(&self, i: State, r: State) -> Option<(State, State)> {
                Some((1 - i, 1 - r))
            }
        }
        let err = expected_interactions(&Spinner, &[0, 1], 100).unwrap_err();
        assert_eq!(err, ExactError::SilenceUnreachable);
    }
}
