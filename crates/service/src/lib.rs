//! # ssr-service — simulation-as-a-service
//!
//! A long-running job daemon over the engine substrate: scenario jobs are
//! submitted as small spec files into a spool directory, scheduled across
//! a core budget with admission control
//! ([`Scenario::thread_split`](ssr_engine::Scenario::thread_split)),
//! checkpointed periodically to a durable on-disk store so killed or
//! restarted jobs resume **bit-identically** mid-run, and memoised in a
//! content-addressed result cache keyed by a stable hash of the full job
//! spec — a re-submitted sweep point is served without touching an engine.
//!
//! ## Pieces
//!
//! * [`JobSpec`] / [`JobKey`] — the job description (protocol, n, init,
//!   fault plan, engine kind, seed, budget) with a versioned text codec
//!   and a 128-bit content key built on
//!   [`schema_hash`](ssr_engine::InteractionSchema::schema_hash). The key
//!   deliberately excludes the thread budget: every engine is
//!   bit-identical at any thread count, so thread count is a scheduling
//!   concern, not an identity.
//! * [`CheckpointStore`] — versioned
//!   [`EngineSnapshot`](ssr_engine::EngineSnapshot) wire blobs (including
//!   the count engine's batching control state and the full-width `u128`
//!   interaction clock). A job keeps its newest two; once it has two,
//!   each save renames the older file to the new clock and overwrites it
//!   in place, so a save torn by a kill damages only the newest file and
//!   the other still resumes.
//! * [`ResultCache`] — completed [`JobResult`]s, content-addressed by
//!   [`JobKey`]; corrupt entries degrade to cache misses.
//! * [`run_job`] — one job execution: restore from the newest checkpoint
//!   that decodes (or start afresh), replay the engine's exact run-to-silence loop with
//!   checkpoints interleaved between quanta (snapshots consume no RNG, so
//!   checkpointed and uninterrupted trajectories are identical), optionally
//!   self-interrupt after k checkpoints to simulate a kill.
//! * [`Daemon`] — the spool-directory scheduler: admission control against
//!   the core budget, worker threads, crash recovery (requeue `running/`
//!   on startup), cache-first serving, graceful drain.
//!
//! ## Spool layout
//!
//! ```text
//! <dir>/pending/<key>.job       submitted, not yet scheduled
//! <dir>/running/<key>.job       claimed by a worker
//! <dir>/done/<key>.result       completed (result codec)
//! <dir>/done/<key>.src          "cache" or "engine" — how it completed
//! <dir>/failed/<key>.err        failed (human-readable reason)
//! <dir>/checkpoints/<key>/      ckpt-<clock>.snap blobs (newest two; the
//!                               older is recycled for the next save)
//! <dir>/cache/<key>.result      memoised results
//! ```
//!
//! Submitting the same spec twice is naturally idempotent: the file name
//! *is* the content key.

// `unsafe_code = "forbid"` comes from [workspace.lints] in the root manifest.
#![warn(missing_docs)]

pub mod cache;
pub mod daemon;
pub mod runner;
pub mod spec;
pub mod store;

pub use cache::ResultCache;
pub use daemon::{submit_job, Daemon, DaemonConfig, DaemonStats, JobStatus};
pub use runner::{run_job, RunConfig, RunDisposition};
pub use spec::{JobInit, JobKey, JobResult, JobSpec, JobStatusKind, OutcomeStats};
pub use store::CheckpointStore;

use ssr_engine::wire::SnapshotDecodeError;
use std::fmt;

/// Unified error type of the service layer.
#[derive(Debug)]
pub enum ServiceError {
    /// Filesystem failure in the spool, store, or cache.
    Io(std::io::Error),
    /// Malformed or unsatisfiable job spec.
    Spec(String),
    /// The spec was well-formed but the engine rejected the configuration.
    Config(String),
    /// A checkpoint failed to decode (version/schema/shape/corruption).
    Snapshot(SnapshotDecodeError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Io(e) => write!(f, "io: {e}"),
            ServiceError::Spec(m) => write!(f, "bad job spec: {m}"),
            ServiceError::Config(m) => write!(f, "bad configuration: {m}"),
            ServiceError::Snapshot(e) => write!(f, "bad checkpoint: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<std::io::Error> for ServiceError {
    fn from(e: std::io::Error) -> Self {
        ServiceError::Io(e)
    }
}

impl From<SnapshotDecodeError> for ServiceError {
    fn from(e: SnapshotDecodeError) -> Self {
        ServiceError::Snapshot(e)
    }
}
