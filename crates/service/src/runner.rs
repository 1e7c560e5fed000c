//! One job execution with durable checkpoints and bit-identical resume.
//!
//! The core invariant holds by construction: every engine's
//! `run_until_silent` is the one loop the [`Engine`] trait provides —
//! *check silence → check cap → advance one uncapped quantum* — and
//! [`Engine::advance`] is exactly that
//! quantum, `advance_to(u128::MAX, ..)`. [`run_job`] replays that loop
//! verbatim and interleaves checkpoints *between* quanta; taking a
//! snapshot consumes no RNG, so a checkpointed run, a resumed run, and an
//! uninterrupted [`Scenario::run_one`](ssr_engine::Scenario::run_one) all
//! follow the same trajectory draw for draw — at any thread count and any
//! checkpoint cadence. (`advance_to` with a finite cap would *not* work
//! here: the count engine clips batch sizes near caps, which changes the
//! trajectory.)
//!
//! Checkpoints are paced by the clock *and* by work. One is due after a
//! quantum once the interaction clock has moved
//! [`RunConfig::checkpoint_every`] past the last save and at least
//! `num_states` productive interactions (the length of the counts vector
//! every snapshot carries) have run since it. The count engine skips null
//! interactions geometrically, so the clock alone says little about work
//! near silence; the floor makes each save, whose cost is linear in the
//! snapshot's words, paid for by at least as many productive steps. Both
//! measures are restored with a checkpoint, so a resumed run saves at the
//! same clocks as an uninterrupted one.
//!
//! Fault-plan jobs run through
//! [`run_outcome`](ssr_engine::Scenario::run_outcome) without mid-run
//! checkpoints — the fault executor's arrival state is not snapshotable —
//! but remain deterministic per spec, so a re-run after a kill reproduces
//! the identical [`JobResult`].

use crate::spec::{JobResult, JobSpec, JobStatusKind, OutcomeStats};
use crate::store::CheckpointStore;
use crate::ServiceError;
use ssr_engine::{Engine, EngineSnapshot, RunOutcome, Scenario};

/// Execution knobs of one [`run_job`] call — scheduling and durability
/// policy, none of which affects the trajectory.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Core budget for this job's engine (1 = single-threaded).
    pub threads: usize,
    /// Checkpoint once the clock has moved this many interactions past
    /// the last save, provided at least `num_states` productive
    /// interactions have run since it (the work floor; see the module
    /// docs); 0 disables checkpointing.
    pub checkpoint_every: u128,
    /// Self-interrupt after this many checkpoints (simulated kill; used
    /// by the daemon's kill/resume drills and tests). `None` = run to
    /// completion.
    pub interrupt_after: Option<u32>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            threads: 1,
            checkpoint_every: 1 << 22,
            interrupt_after: None,
        }
    }
}

/// How a [`run_job`] call ended.
#[derive(Debug, Clone, PartialEq)]
pub enum RunDisposition {
    /// Ran (or resumed) to completion.
    Completed {
        /// The memoisable result.
        result: JobResult,
        /// Whether the run resumed from a stored checkpoint.
        resumed: bool,
        /// Checkpoints taken before completing (this call only).
        checkpoints: u32,
    },
    /// Interrupted by [`RunConfig::interrupt_after`]; durable state is in
    /// the store and a later call resumes bit-identically.
    Interrupted {
        /// Checkpoints taken before interrupting (this call only).
        checkpoints: u32,
    },
}

/// Execute one job: restore from the newest checkpoint that decodes,
/// checkpoint periodically, memoise nothing (the caller owns the cache).
///
/// A damaged checkpoint (truncated, bad magic, unknown version, checksum
/// mismatch) is skipped in favour of the next older one
/// ([`CheckpointStore::KEEP`] are retained), and with none left the job
/// starts afresh; either way the result is bit-identical.
///
/// # Errors
///
/// [`ServiceError::Spec`]/[`ServiceError::Config`] for unrunnable specs,
/// [`ServiceError::Snapshot`] for a checkpoint stamped with another
/// protocol's identity (schema hash or shape),
/// [`ServiceError::Io`] for store failures.
pub fn run_job(
    spec: &JobSpec,
    store: &CheckpointStore,
    cfg: &RunConfig,
) -> Result<RunDisposition, ServiceError> {
    spec.validate()?;
    let key = spec.key()?;
    let protocol = spec.make_protocol()?;
    let shape = spec.shape()?;
    let scenario = Scenario::new(protocol.as_ref())
        .engine(spec.engine)
        .init(spec.init.to_init())
        .base_seed(spec.seed)
        .max_interactions(spec.max_interactions)
        .threads(cfg.threads.max(1));

    if let Some(plan) = spec.fault_plan() {
        // Fault executor state is not snapshotable: run in one piece.
        let outcome = scenario.fault_plan(plan).run_outcome(0);
        store.clear(key)?;
        return Ok(RunDisposition::Completed {
            result: outcome_to_result(outcome),
            resumed: false,
            checkpoints: 0,
        });
    }

    let mut engine = scenario
        .build_engine(0)
        .map_err(|e| ServiceError::Config(e.to_string()))?;
    let mut resumed = false;
    for (_, blob) in store.newest_first(key) {
        match EngineSnapshot::from_wire(&blob, shape) {
            Ok(snapshot) => {
                engine.restore(&snapshot);
                resumed = true;
                break;
            }
            // Another job's state under this key is a bug, not wear.
            Err(e) if e.is_identity_mismatch() => return Err(e.into()),
            // A damaged checkpoint is skipped for an older one, or for a
            // fresh start: checkpoints sit between quanta, so the result
            // is the same from any of them.
            Err(_) => {}
        }
    }

    let cap = if spec.max_interactions == u64::MAX {
        u128::MAX
    } else {
        spec.max_interactions as u128
    };
    let every = cfg.checkpoint_every;
    let floor = u64::from(shape.num_states);
    let mut next_clock = engine.interactions_wide().saturating_add(every.max(1));
    let mut next_work = engine.productive_interactions().saturating_add(floor);
    let mut taken = 0u32;
    loop {
        if engine.is_silent() {
            let status = if engine.interactions_wide() <= cap {
                JobStatusKind::Silent
            } else {
                // The committed batch's null tail overshot the cap before
                // silence was observed — same verdict run_until_silent
                // gives.
                JobStatusKind::Timeout
            };
            store.clear(key)?;
            return Ok(RunDisposition::Completed {
                result: report_to_result(engine.as_ref(), status),
                resumed,
                checkpoints: taken,
            });
        }
        if engine.interactions_wide() >= cap {
            store.clear(key)?;
            return Ok(RunDisposition::Completed {
                result: report_to_result(engine.as_ref(), JobStatusKind::Timeout),
                resumed,
                checkpoints: taken,
            });
        }
        engine.advance();
        if every > 0
            && engine.interactions_wide() >= next_clock
            && engine.productive_interactions() >= next_work
        {
            let blob = engine.snapshot().to_wire(shape);
            store.save(key, engine.interactions_wide(), &blob)?;
            taken += 1;
            next_clock = engine.interactions_wide().saturating_add(every);
            next_work = engine.productive_interactions().saturating_add(floor);
            if cfg.interrupt_after == Some(taken) {
                return Ok(RunDisposition::Interrupted { checkpoints: taken });
            }
        }
    }
}

fn report_to_result(engine: &dyn Engine, status: JobStatusKind) -> JobResult {
    let report = engine.report();
    JobResult {
        status,
        interactions: report.interactions,
        interactions_wide: report.interactions_wide,
        productive: report.productive_interactions,
        parallel_time: report.parallel_time,
        outcome: None,
    }
}

fn outcome_to_result(outcome: RunOutcome) -> JobResult {
    JobResult {
        status: if outcome.silent {
            JobStatusKind::Silent
        } else {
            JobStatusKind::Timeout
        },
        interactions: outcome.report.interactions,
        interactions_wide: outcome.report.interactions_wide,
        productive: outcome.report.productive_interactions,
        parallel_time: outcome.report.parallel_time,
        outcome: Some(OutcomeStats {
            availability: outcome.availability,
            mean_k: outcome.mean_k,
            max_k: outcome.max_k,
            faults_injected: outcome.faults_injected,
            churn_events: outcome.churn_events,
            bursts: outcome
                .bursts
                .iter()
                .map(|b| (b.time, b.faults, b.k_after, b.recovery))
                .collect(),
        }),
    }
}
