//! The spool-directory job daemon: queueing, admission control, worker
//! threads, crash recovery, and cache-first serving.
//!
//! Submission is a file write ([`submit_job`]) — the spec's content key is
//! the file name, so duplicate submissions collapse into one spool entry.
//! The daemon loop claims pending jobs by renaming them into `running/`
//! (rename is atomic on one filesystem), admits them against a core
//! budget using the engine's own
//! [`Scenario::thread_split`](ssr_engine::Scenario::thread_split) policy,
//! and hands each to a worker thread running
//! [`run_job`]. On startup anything still in
//! `running/` is requeued — those jobs resume from their newest durable
//! checkpoint and finish bit-identically.
//!
//! Opening a daemon ([`Daemon::new`]) only reads the spool: it creates
//! nothing, except `pending/` when it has an orphan to requeue. The first
//! [`Daemon::run`] lays out the spool directories and opens the
//! checkpoint store and result cache, once per `Daemon`; [`submit_job`]
//! and the result writers create their own directories as well.

use crate::cache::ResultCache;
use crate::runner::{run_job, RunConfig, RunDisposition};
use crate::spec::{JobKey, JobResult, JobSpec};
use crate::store::CheckpointStore;
use crate::ServiceError;
use ssr_engine::Scenario;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

/// Daemon policy knobs.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Spool root directory (laid out by the first [`Daemon::run`] if
    /// absent).
    pub dir: PathBuf,
    /// Core budget shared by all concurrently running jobs; 0 = the
    /// machine's available parallelism.
    pub cores: usize,
    /// Per-job checkpoint cadence in interactions, paced by work: a save
    /// also waits for `num_states` productive interactions since the last
    /// one (see [`RunConfig::checkpoint_every`]); 0 disables.
    pub checkpoint_every: u128,
    /// Idle poll interval.
    pub poll_ms: u64,
    /// Exit once the queue and all workers are empty (one-shot batch
    /// mode); otherwise keep serving.
    pub drain: bool,
    /// Stop scheduling after this many completions (served or failed).
    pub max_jobs: Option<usize>,
    /// Kill drill: workers self-interrupt after this many checkpoints and
    /// the daemon exits, leaving durable state for a successor.
    pub kill_after_checkpoints: Option<u32>,
}

impl DaemonConfig {
    /// Batch-mode defaults over a spool directory: drain when empty,
    /// single core, checkpoint every 2²² interactions (and no sooner than
    /// every `num_states` productive ones).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DaemonConfig {
            dir: dir.into(),
            cores: 1,
            checkpoint_every: 1 << 22,
            poll_ms: 20,
            drain: true,
            max_jobs: None,
            kill_after_checkpoints: None,
        }
    }
}

/// Counters of one [`Daemon::run`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DaemonStats {
    /// Jobs completed (engine runs + cache hits).
    pub completed: u64,
    /// Completions served from the result cache with zero engine
    /// interactions.
    pub cache_hits: u64,
    /// Engine completions that resumed from a durable checkpoint.
    pub resumed: u64,
    /// Jobs that failed (bad spec or engine rejection).
    pub failed: u64,
    /// Workers interrupted by the kill drill.
    pub interrupted: u64,
    /// Jobs found in `running/` at startup and requeued.
    pub recovered: u64,
}

/// Spool state of one job key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Queued, not yet claimed.
    Pending,
    /// Claimed by a worker (or orphaned by a killed daemon — requeued on
    /// the next start).
    Running,
    /// Completed; `source` is `"engine"` or `"cache"`.
    Done {
        /// How the job completed.
        source: String,
    },
    /// Failed; the reason is in `failed/<key>.err`.
    Failed,
    /// No trace of the key in the spool.
    Unknown,
}

/// Write `spec` into the spool's pending queue. Returns the content key
/// (also the spool file name) — submitting an identical spec twice is a
/// no-op beyond refreshing the file.
///
/// # Errors
///
/// Rejects invalid specs ([`ServiceError::Spec`]) and propagates spool
/// I/O failures.
pub fn submit_job(dir: &Path, spec: &JobSpec) -> Result<JobKey, ServiceError> {
    spec.validate()?;
    let key = spec.key()?;
    let pending = dir.join("pending");
    fs::create_dir_all(&pending)?;
    let path = pending.join(format!("{}.job", key.hex()));
    let tmp = path.with_extension("job.tmp");
    fs::write(&tmp, spec.encode())?;
    fs::rename(&tmp, path)?;
    Ok(key)
}

/// Look up the spool state of `key`.
pub fn job_status(dir: &Path, key: JobKey) -> JobStatus {
    let hex = key.hex();
    if dir.join("done").join(format!("{hex}.result")).exists() {
        let source = fs::read_to_string(dir.join("done").join(format!("{hex}.src")))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "engine".to_string());
        return JobStatus::Done { source };
    }
    if dir.join("failed").join(format!("{hex}.err")).exists() {
        return JobStatus::Failed;
    }
    if dir.join("running").join(format!("{hex}.job")).exists() {
        return JobStatus::Running;
    }
    if dir.join("pending").join(format!("{hex}.job")).exists() {
        return JobStatus::Pending;
    }
    JobStatus::Unknown
}

/// Read a completed job's result from the spool.
pub fn job_result(dir: &Path, key: JobKey) -> Option<JobResult> {
    let text = fs::read_to_string(dir.join("done").join(format!("{}.result", key.hex()))).ok()?;
    JobResult::decode(&text).ok()
}

enum WorkerOutcome {
    Done { resumed: bool },
    Interrupted,
    Failed,
}

struct WorkerMsg {
    cost: usize,
    outcome: WorkerOutcome,
    /// A spool update the worker could not make (requeue, failure
    /// record, or releasing its `running/` entry).
    spool_error: Option<std::io::Error>,
}

struct Worker {
    handle: thread::JoinHandle<()>,
}

/// The job daemon. Construct with [`Daemon::new`], drive with
/// [`Daemon::run`].
pub struct Daemon {
    cfg: DaemonConfig,
    /// The checkpoint store and result cache, opened by the first
    /// [`run`](Self::run).
    spool: Option<Spool>,
    stats: DaemonStats,
}

/// The durable stores of a laid-out spool.
#[derive(Clone)]
struct Spool {
    store: CheckpointStore,
    cache: ResultCache,
}

impl Spool {
    /// Create the spool's directory tree under `dir` and open its
    /// checkpoint store and result cache.
    fn lay_out(dir: &Path) -> std::io::Result<Self> {
        for sub in ["pending", "running", "done", "failed"] {
            fs::create_dir_all(dir.join(sub))?;
        }
        Ok(Spool {
            store: CheckpointStore::open(dir.join("checkpoints"))?,
            cache: ResultCache::open(dir.join("cache"))?,
        })
    }
}

impl Daemon {
    /// Open the spool and recover orphaned `running/` entries back into
    /// the queue. Reads the spool and writes nothing unless there is an
    /// orphan to requeue (then `pending/` is created if missing); the
    /// first [`run`](Self::run) lays out the rest.
    ///
    /// # Errors
    ///
    /// Propagates spool I/O failures; a spool without `running/` (or
    /// without any directory yet) has no orphans.
    pub fn new(cfg: DaemonConfig) -> Result<Self, ServiceError> {
        let mut stats = DaemonStats::default();
        // Crash recovery: a previous daemon died with these claimed.
        let orphans = match fs::read_dir(cfg.dir.join("running")) {
            Ok(entries) => Some(entries),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(e.into()),
        };
        let pending = cfg.dir.join("pending");
        for entry in orphans.into_iter().flatten().flatten() {
            if stats.recovered == 0 {
                fs::create_dir_all(&pending)?;
            }
            fs::rename(entry.path(), pending.join(entry.file_name()))?;
            stats.recovered += 1;
        }
        Ok(Daemon {
            cfg,
            spool: None,
            stats,
        })
    }

    /// Effective core budget.
    fn cores(&self) -> usize {
        if self.cfg.cores > 0 {
            self.cfg.cores
        } else {
            thread::available_parallelism().map_or(1, |p| p.get())
        }
    }

    /// Admission cost of a job: clamp its requested budget to the
    /// daemon's, then ask the engine's own split policy what it would
    /// actually use. (Jobs that request no budget cost one core — maximal
    /// queue concurrency.)
    fn admission_cost(&self, spec: &JobSpec) -> Result<usize, ServiceError> {
        let requested = spec.threads.clamp(1, self.cores());
        let protocol = spec.make_protocol()?;
        let (trial_workers, split_threads) = Scenario::new(protocol.as_ref())
            .threads(requested)
            .thread_split();
        Ok((trial_workers * split_threads).max(1))
    }

    /// Serve jobs until drained (or killed by the drill). Returns the
    /// run's counters.
    ///
    /// # Errors
    ///
    /// Propagates spool I/O failures, including the first one a worker
    /// reported (after every worker has been joined); individual job
    /// failures land in `failed/` and the stats, not here.
    pub fn run(&mut self) -> Result<DaemonStats, ServiceError> {
        let spool = match &self.spool {
            Some(spool) => spool.clone(),
            None => self.spool.insert(Spool::lay_out(&self.cfg.dir)?).clone(),
        };
        let cores = self.cores();
        let mut available = cores;
        let (tx, rx) = mpsc::channel::<WorkerMsg>();
        let mut workers: Vec<Worker> = Vec::new();
        let mut killing = false;
        let mut spool_error = None;

        loop {
            // Reap finished workers and their messages.
            while let Ok(msg) = rx.try_recv() {
                available += msg.cost;
                killing |= self.reap(msg, &mut spool_error);
            }
            workers.retain(|w| !w.handle.is_finished());

            let served = self.stats.completed + self.stats.failed;
            let quota_reached = self.cfg.max_jobs.is_some_and(|m| served >= m as u64);

            if !killing && !quota_reached {
                self.schedule(&spool, &mut available, &mut workers, &tx)?;
            }

            let queue_empty = dir_is_empty(&self.cfg.dir.join("pending"));
            if workers.is_empty() {
                if killing || quota_reached {
                    break;
                }
                if self.cfg.drain && queue_empty {
                    break;
                }
            }
            thread::sleep(Duration::from_millis(self.cfg.poll_ms));
        }

        for w in workers {
            let _ = w.handle.join();
        }
        // A joined worker's message may still be in flight.
        while let Ok(msg) = rx.try_recv() {
            self.reap(msg, &mut spool_error);
        }
        match spool_error {
            Some(e) => Err(ServiceError::Io(e)),
            None => Ok(self.stats),
        }
    }

    /// Count one worker's outcome and keep the first spool error any
    /// worker reported. Returns whether the worker was interrupted.
    fn reap(&mut self, msg: WorkerMsg, spool_error: &mut Option<std::io::Error>) -> bool {
        if spool_error.is_none() {
            *spool_error = msg.spool_error;
        }
        match msg.outcome {
            WorkerOutcome::Done { resumed } => {
                self.stats.completed += 1;
                if resumed {
                    self.stats.resumed += 1;
                }
                false
            }
            WorkerOutcome::Interrupted => {
                self.stats.interrupted += 1;
                true
            }
            WorkerOutcome::Failed => {
                self.stats.failed += 1;
                false
            }
        }
    }

    /// One scheduling sweep: claim every pending job that fits the
    /// remaining budget (cache hits complete inline and cost nothing).
    fn schedule(
        &mut self,
        spool: &Spool,
        available: &mut usize,
        workers: &mut Vec<Worker>,
        tx: &mpsc::Sender<WorkerMsg>,
    ) -> Result<(), ServiceError> {
        let pending_dir = self.cfg.dir.join("pending");
        let mut entries: Vec<PathBuf> = fs::read_dir(&pending_dir)?
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "job"))
            .collect();
        entries.sort(); // FIFO by key — deterministic claim order

        for path in entries {
            let quota_reached = self
                .cfg
                .max_jobs
                .is_some_and(|m| self.stats.completed + self.stats.failed >= m as u64);
            if quota_reached {
                break;
            }
            let spec = match fs::read_to_string(&path)
                .map_err(ServiceError::from)
                .and_then(|t| JobSpec::decode(&t))
                .and_then(|s| s.validate().map(|()| s))
            {
                Ok(spec) => spec,
                Err(e) => {
                    self.fail(&path, &format!("{e}"))?;
                    continue;
                }
            };
            let key = spec.key()?;

            // Cache first: an identical completed job is served without
            // touching an engine.
            if let Some(result) = spool.cache.get(key) {
                self.finish(key, &result, "cache")?;
                fs::remove_file(&path)?;
                spool.store.clear(key)?;
                self.stats.completed += 1;
                self.stats.cache_hits += 1;
                continue;
            }

            let cost = match self.admission_cost(&spec) {
                Ok(cost) => cost,
                Err(e) => {
                    self.fail(&path, &format!("{e}"))?;
                    continue;
                }
            };
            if cost > *available {
                continue; // keep queued; a later sweep admits it
            }

            // Claim and spawn. A spool path without a final component
            // cannot be claimed by rename; fail it like any other
            // malformed submission instead of aborting the daemon.
            let Some(job_name) = path.file_name() else {
                self.fail(&path, "spool entry has no file name")?;
                continue;
            };
            let running = self.cfg.dir.join("running").join(job_name);
            fs::rename(&path, &running)?;
            *available -= cost;
            let run_cfg = RunConfig {
                threads: cost,
                checkpoint_every: self.cfg.checkpoint_every,
                interrupt_after: self.cfg.kill_after_checkpoints,
            };
            let ctx = WorkerCtx {
                dir: self.cfg.dir.clone(),
                store: spool.store.clone(),
                cache: spool.cache.clone(),
                running,
                spec,
                key,
                run_cfg,
                cost,
                tx: tx.clone(),
            };
            workers.push(Worker {
                handle: thread::spawn(move || ctx.run()),
            });
        }
        Ok(())
    }

    /// Record a completed result in `done/`.
    fn finish(&self, key: JobKey, result: &JobResult, source: &str) -> Result<(), ServiceError> {
        write_done(&self.cfg.dir, key, result, source)?;
        Ok(())
    }

    /// Move a spool entry into `failed/` with its reason.
    fn fail(&mut self, path: &Path, reason: &str) -> Result<(), ServiceError> {
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("unknown")
            .to_string();
        fs::write(
            self.cfg.dir.join("failed").join(format!("{stem}.err")),
            reason,
        )?;
        fs::remove_file(path)?;
        self.stats.failed += 1;
        Ok(())
    }
}

fn write_done(dir: &Path, key: JobKey, result: &JobResult, source: &str) -> std::io::Result<()> {
    let done = dir.join("done");
    fs::create_dir_all(&done)?;
    let path = done.join(format!("{}.result", key.hex()));
    let tmp = path.with_extension("result.tmp");
    fs::write(&tmp, result.encode())?;
    fs::rename(&tmp, path)?;
    fs::write(done.join(format!("{}.src", key.hex())), source)
}

fn dir_is_empty(dir: &Path) -> bool {
    fs::read_dir(dir).map_or(true, |mut d| d.next().is_none())
}

/// Everything a worker thread owns.
struct WorkerCtx {
    dir: PathBuf,
    store: CheckpointStore,
    cache: ResultCache,
    running: PathBuf,
    spec: JobSpec,
    key: JobKey,
    run_cfg: RunConfig,
    cost: usize,
    tx: mpsc::Sender<WorkerMsg>,
}

impl WorkerCtx {
    fn run(self) {
        let (outcome, spool_error) = match run_job(&self.spec, &self.store, &self.run_cfg) {
            Ok(RunDisposition::Completed {
                result, resumed, ..
            }) => match self.record(&result) {
                Ok(()) => (WorkerOutcome::Done { resumed }, None),
                Err(e) => (WorkerOutcome::Failed, self.fail(&ServiceError::from(e))),
            },
            Ok(RunDisposition::Interrupted { .. }) => {
                // Leave checkpoints in place, requeue for a successor.
                // `running` always ends in a file name (the daemon built
                // it with `join(job_name)`); if that ever breaks, skip
                // the rename and let the orphan sweep requeue the job.
                let requeue = match self.running.file_name() {
                    Some(name) => fs::rename(&self.running, self.dir.join("pending").join(name)),
                    None => Ok(()),
                };
                (WorkerOutcome::Interrupted, requeue.err())
            }
            Err(e) => (WorkerOutcome::Failed, self.fail(&e)),
        };
        let _ = self.tx.send(WorkerMsg {
            cost: self.cost,
            outcome,
            spool_error,
        });
    }

    /// Memoise a completed result, publish it in `done/`, and release
    /// the job's `running/` entry.
    fn record(&self, result: &JobResult) -> std::io::Result<()> {
        self.cache.put(self.key, result)?;
        write_done(&self.dir, self.key, result, "engine")?;
        fs::remove_file(&self.running)
    }

    /// Record why the job failed in `failed/<key>.err` and release its
    /// `running/` entry. Both are attempted; returns the first error.
    fn fail(&self, reason: &ServiceError) -> Option<std::io::Error> {
        let recorded = fs::write(
            self.dir
                .join("failed")
                .join(format!("{}.err", self.key.hex())),
            format!("{reason}"),
        );
        let released = fs::remove_file(&self.running);
        recorded.and(released).err()
    }
}
