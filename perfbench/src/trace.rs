//! Wall-clock timing: a stopwatch, a per-layer busy-time ledger, the
//! advance-loop tally that splits `Engine::advance` by its quantum, and
//! the timed checkpoint round trip.
//!
//! All timing happens here, around calls into the program's public
//! entry points; nothing inside the program is instrumented.

use ssr_engine::wire::SnapshotShape;
use ssr_engine::{Engine, EngineSnapshot};
use ssr_service::{CheckpointStore, JobKey};
use std::collections::BTreeMap;
use std::time::Duration;
// lint:allow(D003): the benchmark is a timing path; no trajectory reads this clock
use std::time::Instant;

/// A started wall clock.
#[derive(Clone, Copy)]
pub struct Stopwatch(
    // lint:allow(D003): the benchmark is a timing path; no trajectory reads this clock
    Instant,
);

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        Stopwatch(Instant::now()) // lint:allow(D003): the benchmark is a timing path
    }

    /// Time elapsed since [`start`](Self::start).
    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }

    /// Seconds elapsed since [`start`](Self::start).
    pub fn secs(&self) -> f64 {
        self.elapsed().as_secs_f64()
    }
}

/// Time `f` and return its result with the seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let sw = Stopwatch::start();
    let r = f();
    (r, sw.secs())
}

/// Calls and busy seconds of one layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct Span {
    pub calls: u64,
    pub busy_s: f64,
}

/// Busy time per layer entry point, keyed by metric name.
#[derive(Debug, Default)]
pub struct Ledger {
    spans: BTreeMap<&'static str, Span>,
}

impl Ledger {
    /// Time one call of `f` and book it under `layer`.
    pub fn time<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let (r, secs) = timed(f);
        self.add(layer, 1, secs);
        r
    }

    /// Book `calls` calls totalling `busy_s` seconds under `layer`.
    pub fn add(&mut self, layer: &'static str, calls: u64, busy_s: f64) {
        let span = self.spans.entry(layer).or_default();
        span.calls += calls;
        span.busy_s += busy_s;
    }

    /// Total busy seconds of `layer` (0 when never called).
    pub fn busy(&self, layer: &str) -> f64 {
        self.spans.get(layer).map_or(0.0, |s| s.busy_s)
    }

    /// Calls booked under `layer`.
    pub fn calls(&self, layer: &str) -> u64 {
        self.spans.get(layer).map_or(0, |s| s.calls)
    }

    /// Sum of busy seconds over the named layers.
    pub fn sum(&self, layers: &[&str]) -> f64 {
        layers.iter().map(|l| self.busy(l)).sum()
    }
}

/// `Engine::advance` split by its returned quantum: a return of 1 is an
/// exact step, a return above 1 a batch of that many draws.
#[derive(Debug, Default, Clone, Copy)]
pub struct AdvanceTally {
    pub exact_calls: u64,
    pub exact_busy: Duration,
    pub batch_calls: u64,
    pub batch_draws: u64,
    pub batch_busy: Duration,
}

impl AdvanceTally {
    /// Drive `engine` with the loop `run_until_silent` runs (check
    /// silence, check the cap, advance one quantum), timing each advance.
    /// `checkpoint` runs after every quantum, outside the advance timing.
    pub fn drive(
        &mut self,
        engine: &mut dyn Engine,
        cap: u128,
        mut checkpoint: impl FnMut(&mut dyn Engine),
    ) {
        while !engine.is_silent() && engine.interactions_wide() < cap {
            let sw = Stopwatch::start();
            let quantum = engine.advance();
            let busy = sw.elapsed();
            match quantum {
                Some(draws) if draws > 1 => {
                    self.batch_calls += 1;
                    self.batch_draws += draws;
                    self.batch_busy += busy;
                }
                Some(_) => {
                    self.exact_calls += 1;
                    self.exact_busy += busy;
                }
                None => break,
            }
            checkpoint(engine);
        }
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, other: &AdvanceTally) {
        self.exact_calls += other.exact_calls;
        self.exact_busy += other.exact_busy;
        self.batch_calls += other.batch_calls;
        self.batch_draws += other.batch_draws;
        self.batch_busy += other.batch_busy;
    }
}

/// Snapshot `engine`, encode it, and save it under `key`, booking each
/// step; returns the snapshot taken.
pub fn checkpoint(
    engine: &dyn Engine,
    shape: SnapshotShape,
    store: &CheckpointStore,
    key: JobKey,
    ledger: &mut Ledger,
) -> EngineSnapshot {
    let snap = ledger.time("engine.snapshot_s", || engine.snapshot());
    let blob = ledger.time("wire.encode_s", || snap.to_wire(shape));
    ledger.add("wire.bytes", 0, blob.len() as f64);
    ledger
        .time("store.save_s", || {
            store.save(key, engine.interactions_wide(), &blob)
        })
        .expect("checkpoint store accepts the blob");
    snap
}

/// Read the newest checkpoint of `key`, decode it, and restore it into
/// `fresh`; true when the restored engine matches `expected`.
pub fn restore_latest(
    fresh: &mut dyn Engine,
    expected: &EngineSnapshot,
    shape: SnapshotShape,
    store: &CheckpointStore,
    key: JobKey,
    ledger: &mut Ledger,
) -> bool {
    let Some((clock, blob)) = ledger.time("store.latest_s", || store.latest(key)) else {
        return false;
    };
    let Ok(snap) = ledger.time("wire.decode_s", || EngineSnapshot::from_wire(&blob, shape)) else {
        return false;
    };
    ledger.time("engine.restore_s", || fresh.restore(&snap));
    clock == expected.interactions_wide()
        && fresh.interactions_wide() == expected.interactions_wide()
        && fresh.productive_interactions() == expected.productive_interactions()
        && fresh.counts() == expected.counts()
}
