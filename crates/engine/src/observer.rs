//! Observers of productive interactions.
//!
//! Every engine reports productive rewrites through one hook,
//! [`CountObserver`], from its single stepping method
//! [`Engine::advance_to`](crate::engine::Engine::advance_to).
//! Observers see only **productive** interactions (null interactions cannot
//! change any quantity derived from the configuration, so nothing is lost
//! by skipping them) together with the post-transition occupancy counts
//! and the full-width interaction clock. This module provides the main
//! production implementation, [`RecoveryTracker`], which integrates
//! availability and `k`-distance excursions for the adversary subsystem
//! ([`run_with_plan`](crate::faults::run_with_plan)).

use crate::engine::CountObserver;
use crate::faults::BurstRecord;
use crate::protocol::State;

/// Integrates steady-state observables for a fault-plan run: time-weighted
/// availability (fraction of interaction time with `k`-distance zero),
/// mean and maximum `k` excursion, and per-burst recovery times.
///
/// The tracker keeps its own occupancy ledger, updated from
/// [`CountObserver`] rewrites and from fault injections reported by the
/// plan executor, so it never has to rescan the engine's counts. Time is
/// integrated on the interaction clock: each observed instant `t` closes
/// the interval `[last, t)` at the `k` value that held throughout it.
///
/// Count-engine batch groups all report the post-batch clock and counts,
/// so a batch integrates as a single step — availability inside a batch is
/// resolved at batch granularity (exact-stepping engines resolve it per
/// interaction).
#[derive(Debug)]
pub struct RecoveryTracker {
    counts: Vec<u32>,
    num_rank_states: usize,
    start: u128,
    last: u128,
    time_ok: u128,
    k_time: f64,
    k: usize,
    max_k: usize,
    /// Open bursts: `(opened_at_clock, scheduled_time, faults, k_after)`.
    open: Vec<(u128, u128, u32, usize)>,
    closed: Vec<BurstRecord>,
}

impl RecoveryTracker {
    /// Start tracking from configuration `counts` at clock time `start`.
    pub fn new(counts: &[u32], num_rank_states: usize, start: u128) -> Self {
        let k = counts[..num_rank_states]
            .iter()
            .filter(|&&c| c == 0)
            .count();
        RecoveryTracker {
            counts: counts.to_vec(),
            num_rank_states,
            start,
            last: start,
            time_ok: 0,
            k_time: 0.0,
            k,
            max_k: k,
            open: Vec::new(),
            closed: Vec::new(),
        }
    }

    /// The current `k`-distance (unoccupied rank states) of the ledger.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Maximum `k`-distance excursion observed so far.
    pub fn max_k(&self) -> usize {
        self.max_k
    }

    /// Integrate elapsed time up to clock `t` at the current `k` value.
    /// No-op if `t` is not ahead of the last observed instant.
    pub fn advance(&mut self, t: u128) {
        if t <= self.last {
            return;
        }
        let dt = t - self.last;
        if self.k == 0 {
            self.time_ok += dt;
        }
        self.k_time += self.k as f64 * dt as f64;
        self.last = t;
    }

    /// Apply one fault injection (`from → to`) to the ledger. The caller
    /// must [`advance`](Self::advance) to the injection instant first.
    pub fn apply_fault(&mut self, from: State, to: State) {
        self.apply_deltas(&[(from as usize, -1), (to as usize, 1)]);
    }

    /// Open a recovery record for a burst injected at clock `now` that
    /// was scheduled for `scheduled`. If the burst left `k` at zero it
    /// closes immediately with a zero recovery time.
    pub fn open_burst(&mut self, now: u128, scheduled: u128, faults: u32) {
        if self.k == 0 {
            self.closed.push(BurstRecord {
                time: scheduled,
                faults,
                k_after: 0,
                recovery: Some(0),
            });
        } else {
            self.open.push((now, scheduled, faults, self.k));
        }
    }

    /// Integrate up to the final clock and close any still-open bursts as
    /// unrecovered.
    pub fn finalize(&mut self, t: u128) {
        self.advance(t);
        for (_, scheduled, faults, k_after) in self.open.drain(..) {
            self.closed.push(BurstRecord {
                time: scheduled,
                faults,
                k_after,
                recovery: None,
            });
        }
    }

    /// Fraction of integrated time with `k == 0`; `1.0` for an empty span.
    pub fn availability(&self) -> f64 {
        let span = self.last - self.start;
        if span == 0 {
            1.0
        } else {
            self.time_ok as f64 / span as f64
        }
    }

    /// Time-weighted mean `k`-distance; `0.0` for an empty span.
    pub fn mean_k(&self) -> f64 {
        let span = self.last - self.start;
        if span == 0 {
            0.0
        } else {
            self.k_time / span as f64
        }
    }

    /// Take the closed burst records, sorted by scheduled time.
    pub fn take_bursts(&mut self) -> Vec<BurstRecord> {
        let mut bursts = std::mem::take(&mut self.closed);
        bursts.sort_by_key(|b| b.time);
        bursts
    }

    /// Apply merged occupancy deltas, tracking `k` by zero-crossings of
    /// rank-state occupancies; merging first avoids transient underflow
    /// when a rewrite touches the same state twice.
    fn apply_deltas(&mut self, deltas: &[(usize, i64)]) {
        for &(s, d) in deltas {
            if d == 0 {
                continue;
            }
            let old = self.counts[s];
            let new = old as i64 + d;
            debug_assert!(new >= 0, "state {s} occupancy would go negative");
            let new = new as u32;
            self.counts[s] = new;
            if s < self.num_rank_states {
                if old == 0 && new > 0 {
                    self.k -= 1;
                } else if old > 0 && new == 0 {
                    self.k += 1;
                    self.max_k = self.max_k.max(self.k);
                }
            }
        }
        if self.k == 0 && !self.open.is_empty() {
            for (opened_at, scheduled, faults, k_after) in self.open.drain(..) {
                self.closed.push(BurstRecord {
                    time: scheduled,
                    faults,
                    k_after,
                    recovery: Some(self.last - opened_at),
                });
            }
        }
    }
}

impl CountObserver for RecoveryTracker {
    fn on_productive(
        &mut self,
        interactions: u128,
        before: (State, State),
        after: (State, State),
        multiplicity: u64,
        _counts: &[u32],
    ) {
        self.advance(interactions);
        if before == after {
            return;
        }
        let m = multiplicity as i64;
        let mut deltas = [(0usize, 0i64); 4];
        let mut len = 0;
        for (s, d) in [
            (before.0 as usize, -m),
            (before.1 as usize, -m),
            (after.0 as usize, m),
            (after.1 as usize, m),
        ] {
            match deltas[..len].iter_mut().find(|e| e.0 == s) {
                Some(e) => e.1 += d,
                None => {
                    deltas[len] = (s, d);
                    len += 1;
                }
            }
        }
        self.apply_deltas(&deltas[..len]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_tracker_integrates_availability_and_recovery() {
        // Perfect 3-rank configuration at t=0.
        let mut tr = RecoveryTracker::new(&[1, 1, 1], 3, 0);
        assert_eq!(tr.k(), 0);
        // Healthy until t=100, then a 1-fault burst empties rank 2.
        tr.advance(100);
        tr.apply_fault(2, 0);
        tr.open_burst(100, 100, 1);
        assert_eq!(tr.k(), 1);
        // A productive rewrite at t=150 repopulates rank 2.
        tr.on_productive(150, (0, 0), (0, 2), 1, &[]);
        assert_eq!(tr.k(), 0);
        tr.finalize(200);
        // Down for [100,150) out of [0,200): availability 0.75.
        assert!((tr.availability() - 0.75).abs() < 1e-12);
        assert!((tr.mean_k() - 0.25).abs() < 1e-12);
        assert_eq!(tr.max_k(), 1);
        let bursts = tr.take_bursts();
        assert_eq!(bursts.len(), 1);
        assert_eq!(bursts[0].k_after, 1);
        assert_eq!(bursts[0].recovery, Some(50));
    }

    #[test]
    fn recovery_tracker_closes_unrecovered_bursts_as_none() {
        let mut tr = RecoveryTracker::new(&[2, 1, 0], 3, 0);
        assert_eq!(tr.k(), 1);
        tr.open_burst(0, 0, 3);
        tr.finalize(10);
        let bursts = tr.take_bursts();
        assert_eq!(bursts[0].recovery, None);
        assert!((tr.availability() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn recovery_tracker_handles_batched_multiplicity_and_noop_groups() {
        let mut tr = RecoveryTracker::new(&[4, 0, 0], 3, 0);
        assert_eq!(tr.k(), 2);
        // A batch group of 2 identical rewrites (0,0)->(0,1).
        tr.on_productive(80, (0, 0), (0, 1), 2, &[]);
        assert_eq!(tr.k(), 1);
        // No-op group: counts untouched, time still integrates.
        tr.on_productive(90, (1, 1), (1, 1), 5, &[]);
        assert_eq!(tr.k(), 1);
        tr.on_productive(100, (0, 1), (1, 2), 1, &[]);
        assert_eq!(tr.k(), 0);
        tr.finalize(100);
        assert!(tr.availability() < 1e-12);
        assert_eq!(tr.max_k(), 2);
    }
}
