//! End-to-end service tests: kill/resume bit-identity, cache-first
//! serving, daemon crash recovery.

use ssr_engine::wire::SnapshotDecodeError;
use ssr_engine::EngineSnapshot;
use ssr_service::{
    daemon, run_job, submit_job, CheckpointStore, Daemon, DaemonConfig, JobInit, JobKey, JobResult,
    JobSpec, JobStatusKind, ResultCache, RunConfig, RunDisposition, ServiceError,
};
use std::path::{Path, PathBuf};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ssr-svc-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tree_job(n: usize, seed: u64) -> JobSpec {
    let mut spec = JobSpec::new("tree", n, seed);
    spec.init = JobInit::Stacked;
    spec
}

fn completed(disposition: RunDisposition) -> (JobResult, bool) {
    match disposition {
        RunDisposition::Completed {
            result, resumed, ..
        } => (result, resumed),
        other => panic!("expected completion, got {other:?}"),
    }
}

/// The acceptance criterion: a count-engine run at n = 65536, checkpointed
/// mid-batch and killed, restored in a fresh process-simulated daemon,
/// must produce a final report bit-identical to an uninterrupted run — at
/// 1 and at 4 threads (and across the two, since trajectories are
/// thread-count-invariant).
#[test]
fn kill_resume_is_bit_identical_at_n_65536() {
    let spec = tree_job(65_536, 42);
    let mut reference = None;
    for threads in [1usize, 4] {
        let dir = temp_dir(&format!("killresume-t{threads}"));
        let store = CheckpointStore::open(dir.join("checkpoints")).unwrap();

        // Uninterrupted reference run (no checkpoint store contact).
        let uninterrupted = RunConfig {
            threads,
            checkpoint_every: 0,
            interrupt_after: None,
        };
        let (expected, resumed) = completed(run_job(&spec, &store, &uninterrupted).unwrap());
        assert!(!resumed);
        assert_eq!(expected.status, JobStatusKind::Silent);
        assert!(expected.interactions_wide > 0);

        // Same run, checkpointing every 100k interactions, killed after
        // the first checkpoint lands (mid-batch, far from silence).
        let interrupted = RunConfig {
            threads,
            checkpoint_every: 100_000,
            interrupt_after: Some(1),
        };
        match run_job(&spec, &store, &interrupted).unwrap() {
            RunDisposition::Interrupted { checkpoints } => assert_eq!(checkpoints, 1),
            other => panic!("expected interruption, got {other:?}"),
        }
        let key = spec.key().unwrap();
        let (ckpt_clock, _) = store.latest(key).expect("a durable checkpoint");
        assert!(
            ckpt_clock < expected.interactions_wide,
            "killed well before completion"
        );

        // Fresh-daemon restore: resume and finish.
        let resume = RunConfig {
            threads,
            checkpoint_every: 100_000,
            interrupt_after: None,
        };
        let (resumed_result, was_resumed) = completed(run_job(&spec, &store, &resume).unwrap());
        assert!(was_resumed);
        assert_eq!(resumed_result, expected, "threads = {threads}");
        assert_eq!(
            resumed_result.parallel_time.to_bits(),
            expected.parallel_time.to_bits()
        );
        assert_eq!(store.latest(key), None, "completion clears checkpoints");

        // Thread-count invariance of the result itself.
        if let Some(prev) = &reference {
            assert_eq!(prev, &expected, "1-thread vs {threads}-thread");
        }
        reference = Some(expected);
    }
}

/// Resuming must also commute with *repeated* kills: two interruptions
/// then a final resume still lands on the reference result.
#[test]
fn repeated_kills_still_converge_to_the_reference() {
    let spec = tree_job(16_384, 7);
    let dir = temp_dir("rekill");
    let store = CheckpointStore::open(dir.join("checkpoints")).unwrap();
    let reference = {
        let plain = CheckpointStore::open(dir.join("ref-checkpoints")).unwrap();
        completed(
            run_job(
                &spec,
                &plain,
                &RunConfig {
                    threads: 1,
                    checkpoint_every: 0,
                    interrupt_after: None,
                },
            )
            .unwrap(),
        )
        .0
    };
    let kill = RunConfig {
        threads: 1,
        checkpoint_every: 20_000,
        interrupt_after: Some(1),
    };
    for _ in 0..2 {
        match run_job(&spec, &store, &kill).unwrap() {
            RunDisposition::Interrupted { .. } => {}
            RunDisposition::Completed { .. } => panic!("killed too late; lower the cadence"),
        }
    }
    let finish = RunConfig {
        threads: 1,
        checkpoint_every: 20_000,
        interrupt_after: None,
    };
    assert_eq!(completed(run_job(&spec, &store, &finish).unwrap()).0, reference);
}

/// Fault-plan jobs have no mid-run checkpoints but must be deterministic
/// per spec: re-running after a (simulated) kill reproduces the result.
#[test]
fn fault_plan_jobs_rerun_deterministically() {
    let mut spec = tree_job(8_192, 3);
    spec.init = JobInit::Perfect;
    spec.bursts = vec![(1_000, 16)];
    spec.max_interactions = 500_000_000;
    let dir = temp_dir("faultjob");
    let store = CheckpointStore::open(dir.join("checkpoints")).unwrap();
    let cfg = RunConfig::default();
    let (a, _) = completed(run_job(&spec, &store, &cfg).unwrap());
    let (b, _) = completed(run_job(&spec, &store, &cfg).unwrap());
    assert_eq!(a, b);
    let outcome = a.outcome.expect("fault jobs carry outcome stats");
    assert_eq!(outcome.bursts.len(), 1);
    assert_eq!(outcome.faults_injected, 16);
}

/// Daemon end-to-end: submit → drain → done (engine); resubmit → done via
/// cache hit with zero engine interactions executed.
#[test]
fn daemon_serves_resubmissions_from_cache() {
    let dir = temp_dir("daemon-cache");
    let spec = tree_job(4_096, 11);
    let key = submit_job(&dir, &spec).unwrap();
    assert_eq!(daemon::job_status(&dir, key), daemon::JobStatus::Pending);

    let stats = Daemon::new(DaemonConfig::new(&dir)).unwrap().run().unwrap();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.cache_hits, 0);
    assert_eq!(stats.failed, 0);
    assert_eq!(
        daemon::job_status(&dir, key),
        daemon::JobStatus::Done {
            source: "engine".into()
        }
    );
    let first = daemon::job_result(&dir, key).unwrap();

    // Resubmit the identical job (different requested thread budget —
    // not part of the identity).
    let mut again = spec.clone();
    again.threads = 4;
    let key2 = submit_job(&dir, &again).unwrap();
    assert_eq!(key2, key);
    let stats = Daemon::new(DaemonConfig::new(&dir)).unwrap().run().unwrap();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.cache_hits, 1, "second submission must hit the cache");
    assert_eq!(
        daemon::job_status(&dir, key),
        daemon::JobStatus::Done {
            source: "cache".into()
        }
    );
    assert_eq!(daemon::job_result(&dir, key).unwrap(), first);
}

/// Daemon kill drill: a checkpointed job interrupted mid-run is requeued;
/// a successor daemon resumes it from the durable checkpoint and the
/// result matches an uninterrupted daemon's.
#[test]
fn daemon_kill_and_successor_resume() {
    // Uninterrupted reference through a separate spool.
    let ref_dir = temp_dir("daemon-ref");
    let spec = tree_job(65_536, 42);
    let key = submit_job(&ref_dir, &spec).unwrap();
    let mut cfg = DaemonConfig::new(&ref_dir);
    cfg.checkpoint_every = 100_000;
    Daemon::new(cfg).unwrap().run().unwrap();
    let reference = daemon::job_result(&ref_dir, key).unwrap();

    // Killed daemon: worker interrupts after the first checkpoint.
    let dir = temp_dir("daemon-kill");
    submit_job(&dir, &spec).unwrap();
    let mut cfg = DaemonConfig::new(&dir);
    cfg.checkpoint_every = 100_000;
    cfg.kill_after_checkpoints = Some(1);
    let stats = Daemon::new(cfg).unwrap().run().unwrap();
    assert_eq!(stats.interrupted, 1);
    assert_eq!(stats.completed, 0);
    assert_eq!(daemon::job_status(&dir, key), daemon::JobStatus::Pending);

    // Successor daemon: resumes from the checkpoint and completes.
    let mut cfg = DaemonConfig::new(&dir);
    cfg.checkpoint_every = 100_000;
    let stats = Daemon::new(cfg).unwrap().run().unwrap();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.resumed, 1, "must resume, not restart");
    assert_eq!(stats.cache_hits, 0);
    assert_eq!(daemon::job_result(&dir, key).unwrap(), reference);
}

/// A daemon that dies between claiming and finishing (job left in
/// `running/`) must requeue it on the next start.
#[test]
fn daemon_startup_recovers_orphaned_running_jobs() {
    let dir = temp_dir("daemon-orphan");
    let spec = tree_job(4_096, 5);
    let key = submit_job(&dir, &spec).unwrap();
    // Simulate a crash post-claim: move the spool entry by hand.
    std::fs::create_dir_all(dir.join("running")).unwrap();
    std::fs::rename(
        dir.join("pending").join(format!("{}.job", key.hex())),
        dir.join("running").join(format!("{}.job", key.hex())),
    )
    .unwrap();
    assert_eq!(daemon::job_status(&dir, key), daemon::JobStatus::Running);

    let daemon = Daemon::new(DaemonConfig::new(&dir)).unwrap();
    let stats = daemon_run(daemon);
    assert_eq!(stats.recovered, 1);
    assert_eq!(stats.completed, 1);
    assert!(matches!(
        daemon::job_status(&dir, key),
        daemon::JobStatus::Done { .. }
    ));
}

fn daemon_run(mut d: Daemon) -> ssr_service::DaemonStats {
    d.run().unwrap()
}

/// Malformed spool entries fail loudly into `failed/` without wedging the
/// queue.
#[test]
fn daemon_quarantines_bad_specs() {
    let dir = temp_dir("daemon-bad");
    std::fs::create_dir_all(dir.join("pending")).unwrap();
    std::fs::write(dir.join("pending").join("deadbeef.job"), "not a spec").unwrap();
    let good = tree_job(4_096, 9);
    let key = submit_job(&dir, &good).unwrap();

    let stats = Daemon::new(DaemonConfig::new(&dir)).unwrap().run().unwrap();
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.completed, 1);
    assert!(dir.join("failed").join("deadbeef.err").exists());
    assert!(matches!(
        daemon::job_status(&dir, key),
        daemon::JobStatus::Done { .. }
    ));
}

/// The cache key guards against engine-kind aliasing: `auto` at
/// n ≥ 4096 *is* `count`, so the explicit spec hits the auto spec's
/// cached result — but `jump` is a different stepping discipline and must
/// not.
#[test]
fn cache_respects_engine_identity() {
    let dir = temp_dir("engine-identity");
    let auto = tree_job(4_096, 13);
    let mut count = auto.clone();
    count.engine = ssr_engine::EngineKind::Count;
    let mut jump = auto.clone();
    jump.engine = ssr_engine::EngineKind::Jump;

    assert_eq!(auto.key().unwrap(), count.key().unwrap());
    assert_ne!(auto.key().unwrap(), jump.key().unwrap());

    submit_job(&dir, &auto).unwrap();
    Daemon::new(DaemonConfig::new(&dir)).unwrap().run().unwrap();
    submit_job(&dir, &count).unwrap();
    submit_job(&dir, &jump).unwrap();
    let stats = Daemon::new(DaemonConfig::new(&dir)).unwrap().run().unwrap();
    assert_eq!(stats.cache_hits, 1, "count aliases auto; jump does not");
    assert_eq!(stats.completed, 2);
}

/// An `engine jump` spec at n = 1056: below the auto threshold, so the
/// `jump` kind is a distinct cache identity.
fn jump_job() -> JobSpec {
    let mut spec = tree_job(1056, 5);
    spec.engine = ssr_engine::EngineKind::Jump;
    spec
}

/// FNV-1a, the checksum of version 1 of the snapshot wire format.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Rewrite a wire snapshot into the blob older daemons wrote for `jump`
/// jobs: wire version 1, no count-control block (flags bit 1 clear, 32
/// bytes shorter), FNV-1a checksum.
fn without_count_control(blob: &[u8]) -> Vec<u8> {
    const FLAGS: usize = 6 + 2 + 8 + 8 + 4;
    const CTL: usize = 8 + 8 + 8 + 4 + 4;
    assert_eq!(blob[FLAGS] & 2, 2, "snapshot carries count control");
    let mut legacy = blob[..blob.len() - 8 - CTL].to_vec();
    legacy[6..8].copy_from_slice(&1u16.to_le_bytes());
    legacy[FLAGS] &= !2;
    let check = fnv1a(&legacy);
    legacy.extend_from_slice(&check.to_le_bytes());
    legacy
}

/// The `EngineKind` discriminants feed the content key, so existing
/// cache entries of `jump` jobs stay addressable.
#[test]
fn jump_spec_key_is_stable() {
    assert_eq!(jump_job().key().unwrap().hex(), "2cc6534ed38d28aa57974e105fcf1efe");
}

/// A checkpoint in the layout older daemons wrote for `jump` jobs
/// decodes, restores onto the exact-mode count engine, and finishes
/// bit-identical to an uninterrupted run.
#[test]
fn legacy_jump_checkpoint_resumes_bit_identically() {
    let spec = jump_job();
    let key = spec.key().unwrap();
    let dir = temp_dir("legacy-jump");
    let store = CheckpointStore::open(dir.join("checkpoints")).unwrap();
    let plain = RunConfig {
        threads: 1,
        checkpoint_every: 0,
        interrupt_after: None,
    };
    let (expected, _) = completed(run_job(&spec, &store, &plain).unwrap());
    assert_eq!(
        (expected.interactions_wide, expected.productive),
        (3_802_118, 6_224)
    );
    assert_eq!(expected.parallel_time.to_bits(), 0x40ac_20fb_26c9_b26d);

    let kill = RunConfig {
        threads: 1,
        checkpoint_every: 20_000,
        interrupt_after: Some(1),
    };
    match run_job(&spec, &store, &kill).unwrap() {
        RunDisposition::Interrupted { checkpoints } => assert_eq!(checkpoints, 1),
        other => panic!("expected interruption, got {other:?}"),
    }
    let (clock, blob) = store.latest(key).unwrap();
    let legacy = without_count_control(&blob);
    // Byte for byte the checkpoint the stand-alone jump engine wrote.
    assert_eq!((clock, legacy.len()), (20_022, 4_493));
    assert_eq!(fnv1a(&legacy), 0xb698_c1e3_ba69_adfe);
    store.save(key, clock, &legacy).unwrap();

    let (resumed, was_resumed) = completed(run_job(&spec, &store, &plain).unwrap());
    assert!(was_resumed);
    assert_eq!(resumed, expected);
    assert_eq!(
        resumed.parallel_time.to_bits(),
        expected.parallel_time.to_bits()
    );
}

/// The checkpoint files of `key` in `store_dir`, oldest first.
fn checkpoint_files(store_dir: &Path, key: JobKey) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(store_dir.join(key.hex()))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    files
}

/// Flip one byte in the middle of a checkpoint file.
fn corrupt(path: &Path) {
    let mut blob = std::fs::read(path).unwrap();
    let mid = blob.len() / 2;
    blob[mid] ^= 0x5A;
    std::fs::write(path, blob).unwrap();
}

/// Run `spec` uninterrupted, then again killed after two checkpoints at
/// a 20k-interaction cadence; returns the reference result, the store
/// holding the two checkpoints, and its directory.
fn killed_after_two_checkpoints(
    spec: &JobSpec,
    name: &str,
) -> (JobResult, CheckpointStore, PathBuf) {
    let dir = temp_dir(name);
    let store_dir = dir.join("checkpoints");
    let store = CheckpointStore::open(&store_dir).unwrap();
    let plain = RunConfig {
        threads: 1,
        checkpoint_every: 0,
        interrupt_after: None,
    };
    let (reference, _) = completed(run_job(spec, &store, &plain).unwrap());
    let kill = RunConfig {
        threads: 1,
        checkpoint_every: 20_000,
        interrupt_after: Some(2),
    };
    match run_job(spec, &store, &kill).unwrap() {
        RunDisposition::Interrupted { checkpoints } => assert_eq!(checkpoints, 2),
        other => panic!("expected interruption, got {other:?}"),
    }
    assert_eq!(checkpoint_files(&store_dir, spec.key().unwrap()).len(), 2);
    (reference, store, store_dir)
}

/// A damaged newest checkpoint does not fail the job: it resumes from
/// the older retained one and finishes bit-identical to an
/// uninterrupted run.
#[test]
fn corrupt_newest_checkpoint_resumes_from_the_older_one() {
    let spec = tree_job(16_384, 17);
    let key = spec.key().unwrap();
    let (reference, store, store_dir) = killed_after_two_checkpoints(&spec, "corrupt-newest");
    let files = checkpoint_files(&store_dir, key);
    corrupt(&files[1]);
    let newest = std::fs::read(&files[1]).unwrap();
    assert_eq!(
        EngineSnapshot::from_wire(&newest, spec.shape().unwrap()).unwrap_err(),
        SnapshotDecodeError::ChecksumMismatch
    );

    let finish = RunConfig {
        threads: 1,
        checkpoint_every: 20_000,
        interrupt_after: None,
    };
    let (result, resumed) = completed(run_job(&spec, &store, &finish).unwrap());
    assert!(resumed, "the older checkpoint is a valid resume point");
    assert_eq!(result, reference);
    assert_eq!(
        result.parallel_time.to_bits(),
        reference.parallel_time.to_bits()
    );
}

/// With every checkpoint damaged the job starts afresh and still lands
/// on the reference result.
#[test]
fn all_checkpoints_corrupt_restarts_from_scratch() {
    let spec = tree_job(16_384, 19);
    let key = spec.key().unwrap();
    let (reference, store, store_dir) = killed_after_two_checkpoints(&spec, "corrupt-all");
    let files = checkpoint_files(&store_dir, key);
    corrupt(&files[1]);
    // The older one torn mid-write instead.
    let torn = std::fs::read(&files[0]).unwrap();
    std::fs::write(&files[0], &torn[..torn.len() / 3]).unwrap();

    let finish = RunConfig {
        threads: 1,
        checkpoint_every: 0,
        interrupt_after: None,
    };
    let (result, resumed) = completed(run_job(&spec, &store, &finish).unwrap());
    assert!(!resumed, "no checkpoint decodes");
    assert_eq!(result, reference);
    assert_eq!(store.latest(key), None, "completion clears checkpoints");
}

/// A kill between a recycling save's rename and its write leaves the
/// oldest blob under the newest clock's name. That blob is a valid
/// between-quanta state, so the job resumes from it, rewrites the two
/// checkpoints it passes again, and finishes bit-identical.
#[test]
fn kill_between_recycle_rename_and_write_still_resumes_bit_identically() {
    let spec = tree_job(16_384, 29);
    let key = spec.key().unwrap();
    let (reference, store, store_dir) = killed_after_two_checkpoints(&spec, "kill-window");
    let old = checkpoint_files(&store_dir, key);
    let (oldest, newer) = (
        std::fs::read(&old[0]).unwrap(),
        std::fs::read(&old[1]).unwrap(),
    );

    // Where the third save lands, and what it writes, from a second
    // store that runs the same job one checkpoint further.
    let third_dir = store_dir.with_file_name("third-checkpoints");
    let third_store = CheckpointStore::open(&third_dir).unwrap();
    let three = RunConfig {
        threads: 1,
        checkpoint_every: 20_000,
        interrupt_after: Some(3),
    };
    run_job(&spec, &third_store, &three).unwrap();
    let (third_clock, third_blob) = third_store.latest(key).unwrap();

    // The torn state: the oldest file renamed to the third clock's name,
    // its old blob still inside.
    let stale = store_dir
        .join(key.hex())
        .join(format!("ckpt-{third_clock:032x}.snap"));
    std::fs::rename(&old[0], &stale).unwrap();
    assert_eq!(store.latest(key), Some((third_clock, oldest.clone())));

    // Resuming from the stale blob replays the second and third
    // checkpoints, rewriting both files in place with the right blobs.
    let two = RunConfig {
        threads: 1,
        checkpoint_every: 20_000,
        interrupt_after: Some(2),
    };
    match run_job(&spec, &store, &two).unwrap() {
        RunDisposition::Interrupted { checkpoints } => assert_eq!(checkpoints, 2),
        other => panic!("expected interruption, got {other:?}"),
    }
    assert_eq!(checkpoint_files(&store_dir, key), [old[1].clone(), stale]);
    assert_eq!(std::fs::read(&old[1]).unwrap(), newer);
    assert_eq!(store.latest(key), Some((third_clock, third_blob)));

    let finish = RunConfig {
        threads: 1,
        checkpoint_every: 20_000,
        interrupt_after: None,
    };
    let (result, resumed) = completed(run_job(&spec, &store, &finish).unwrap());
    assert!(resumed);
    assert_eq!(result, reference);
    assert_eq!(
        result.parallel_time.to_bits(),
        reference.parallel_time.to_bits()
    );
}

/// A finished job whose result cannot be recorded fails with the I/O
/// error in `failed/<key>.err` instead of vanishing from the spool.
#[test]
fn daemon_records_why_publishing_a_result_failed() {
    let dir = temp_dir("daemon-put-fails");
    let spec = tree_job(4_096, 23);
    let key = submit_job(&dir, &spec).unwrap();
    // A directory where the cache entry goes: `put`'s rename fails (and
    // the cache lookup before the run is a miss).
    std::fs::create_dir_all(dir.join("cache").join(format!("{}.result", key.hex()))).unwrap();

    let stats = Daemon::new(DaemonConfig::new(&dir)).unwrap().run().unwrap();
    assert_eq!((stats.completed, stats.failed), (0, 1));
    assert_eq!(daemon::job_status(&dir, key), daemon::JobStatus::Failed);
    let reason =
        std::fs::read_to_string(dir.join("failed").join(format!("{}.err", key.hex()))).unwrap();
    assert!(
        reason.starts_with("io: ") && reason.contains("os error"),
        "{reason}"
    );
    assert!(!dir
        .join("running")
        .join(format!("{}.job", key.hex()))
        .exists());
}

/// A worker that cannot update the spool (here: `failed/` is a file, so
/// the failure record cannot be written) makes `run` return the I/O
/// error once every worker has been joined, instead of losing it.
#[test]
fn daemon_returns_a_spool_error_a_worker_hit() {
    let dir = temp_dir("daemon-spool-error");
    let spec = tree_job(4_096, 23);
    let key = submit_job(&dir, &spec).unwrap();
    let mut daemon = Daemon::new(DaemonConfig::new(&dir)).unwrap();
    std::fs::remove_dir(dir.join("failed")).unwrap();
    std::fs::write(dir.join("failed"), "not a directory").unwrap();
    // Force a publish failure, as in the test above.
    std::fs::create_dir_all(dir.join("cache").join(format!("{}.result", key.hex()))).unwrap();

    match daemon.run() {
        Err(ServiceError::Io(_)) => {}
        other => panic!("expected the worker's spool error, got {other:?}"),
    }
}

/// Restoring a checkpoint into a *different* job must be impossible: the
/// store is keyed, and even a hand-moved blob is rejected by the wire
/// layer's schema-hash check.
#[test]
fn checkpoints_do_not_cross_jobs() {
    let dir = temp_dir("cross-job");
    let store = CheckpointStore::open(dir.join("checkpoints")).unwrap();
    let spec_a = tree_job(16_384, 1);
    let kill = RunConfig {
        threads: 1,
        checkpoint_every: 20_000,
        interrupt_after: Some(1),
    };
    match run_job(&spec_a, &store, &kill).unwrap() {
        RunDisposition::Interrupted { .. } => {}
        other => panic!("expected interruption, got {other:?}"),
    }
    // Graft A's checkpoint under B's key (B: different n ⇒ different
    // schema hash).
    let spec_b = tree_job(8_192, 1);
    let (clock, blob) = store.latest(spec_a.key().unwrap()).unwrap();
    store.save(spec_b.key().unwrap(), clock, &blob).unwrap();
    let finish = RunConfig {
        threads: 1,
        checkpoint_every: 0,
        interrupt_after: None,
    };
    match run_job(&spec_b, &store, &finish) {
        Err(ssr_service::ServiceError::Snapshot(_)) => {}
        other => panic!("grafted checkpoint must be rejected, got {other:?}"),
    }
}

/// The result cache survives corruption: a damaged entry is a miss, and
/// the daemon recomputes instead of serving garbage.
#[test]
fn corrupt_cache_entry_forces_recompute() {
    let dir = temp_dir("corrupt-cache");
    let spec = tree_job(4_096, 21);
    let key = submit_job(&dir, &spec).unwrap();
    Daemon::new(DaemonConfig::new(&dir)).unwrap().run().unwrap();
    let reference = daemon::job_result(&dir, key).unwrap();

    std::fs::write(
        dir.join("cache").join(format!("{}.result", key.hex())),
        "garbage",
    )
    .unwrap();
    submit_job(&dir, &spec).unwrap();
    let stats = Daemon::new(DaemonConfig::new(&dir)).unwrap().run().unwrap();
    assert_eq!(stats.cache_hits, 0);
    assert_eq!(stats.completed, 1);
    assert_eq!(daemon::job_result(&dir, key).unwrap(), reference);
}

/// A timed-out job is still a deterministic, memoisable result.
#[test]
fn timeouts_are_results_and_cacheable() {
    let dir = temp_dir("timeout");
    let mut spec = tree_job(16_384, 2);
    spec.max_interactions = 50_000; // far below stabilisation
    let key = submit_job(&dir, &spec).unwrap();
    let stats = Daemon::new(DaemonConfig::new(&dir)).unwrap().run().unwrap();
    assert_eq!(stats.completed, 1);
    let result = daemon::job_result(&dir, key).unwrap();
    assert_eq!(result.status, JobStatusKind::Timeout);

    submit_job(&dir, &spec).unwrap();
    let stats = Daemon::new(DaemonConfig::new(&dir)).unwrap().run().unwrap();
    assert_eq!(stats.cache_hits, 1);
}

/// ResultCache is shared daemon infrastructure but also works standalone
/// (the bench uses it this way).
#[test]
fn standalone_cache_round_trip() {
    let dir = temp_dir("standalone-cache");
    let cache = ResultCache::open(&dir).unwrap();
    let spec = tree_job(4_096, 1);
    let key = spec.key().unwrap();
    assert!(cache.get(key).is_none());
    let result = JobResult {
        status: JobStatusKind::Silent,
        interactions: 10,
        interactions_wide: 10,
        productive: 5,
        parallel_time: 10.0 / 4096.0,
        outcome: None,
    };
    cache.put(key, &result).unwrap();
    assert_eq!(cache.get(key), Some(result));
}

/// A line-of-traps job from a uniform start: the count engine skips
/// almost all of its interactions as nulls.
fn line_job(n: usize, seed: u64) -> JobSpec {
    let mut spec = JobSpec::new("line", n, seed);
    spec.init = JobInit::Uniform;
    spec
}

/// Run `spec` to completion; returns the result and the checkpoints the
/// call took.
fn run_to_completion(spec: &JobSpec, store: &CheckpointStore, cfg: &RunConfig) -> (JobResult, u32) {
    match run_job(spec, store, cfg).unwrap() {
        RunDisposition::Completed {
            result,
            checkpoints,
            ..
        } => (result, checkpoints),
        other => panic!("expected completion, got {other:?}"),
    }
}

/// Run `spec` until it interrupts itself after `after` checkpoints.
fn run_until_interrupted(spec: &JobSpec, store: &CheckpointStore, after: u32) {
    let cfg = RunConfig {
        interrupt_after: Some(after),
        ..RunConfig::default()
    };
    match run_job(spec, store, &cfg).unwrap() {
        RunDisposition::Interrupted { checkpoints } => assert_eq!(checkpoints, after),
        other => panic!("expected interruption, got {other:?}"),
    }
}

/// At the default cadence every save waits for `num_states` productive
/// interactions, so a job takes at most `productive / num_states`
/// checkpoints however many nulls the engine skips, and finishes
/// bit-identical to a run without checkpoints.
#[test]
fn default_cadence_checkpoints_are_paced_by_work() {
    for spec in [line_job(4096, 2), tree_job(65_536, 1)] {
        let dir = temp_dir(&format!("work-floor-{}", spec.protocol));
        let store = CheckpointStore::open(dir.join("checkpoints")).unwrap();
        let plain = RunConfig {
            checkpoint_every: 0,
            ..RunConfig::default()
        };
        let (reference, _) = run_to_completion(&spec, &store, &plain);
        let (result, checkpoints) = run_to_completion(&spec, &store, &RunConfig::default());
        let floor = u64::from(spec.shape().unwrap().num_states);
        assert!(
            checkpoints >= 1 && u64::from(checkpoints) <= result.productive / floor,
            "{}: {checkpoints} checkpoints for {} productive steps, floor {floor}",
            spec.protocol,
            result.productive
        );
        assert_eq!(result, reference, "{}", spec.protocol);
        assert_eq!(
            result.parallel_time.to_bits(),
            reference.parallel_time.to_bits()
        );
    }
}

/// The work floor's baseline is restored with the checkpoint: killed at
/// checkpoint k and resumed, a job's next checkpoint lands on the clock
/// (and blob) of an uninterrupted run's checkpoint k + 1.
#[test]
fn resumed_runs_checkpoint_at_the_uninterrupted_clocks() {
    let spec = line_job(4096, 2);
    let key = spec.key().unwrap();
    let k = 3;
    let dir = temp_dir("work-floor-resume");
    let resumed = CheckpointStore::open(dir.join("resumed")).unwrap();
    run_until_interrupted(&spec, &resumed, k);
    run_until_interrupted(&spec, &resumed, 1);
    let uninterrupted = CheckpointStore::open(dir.join("uninterrupted")).unwrap();
    run_until_interrupted(&spec, &uninterrupted, k + 1);

    let (clock, blob) = resumed.latest(key).unwrap();
    assert_eq!(uninterrupted.latest(key), Some((clock, blob)));
}

/// A cadence of 0 still disables checkpoints, so the kill drill never
/// fires.
#[test]
fn zero_cadence_takes_no_checkpoints() {
    let spec = tree_job(16_384, 3);
    let dir = temp_dir("zero-cadence");
    let store = CheckpointStore::open(dir.join("checkpoints")).unwrap();
    let cfg = RunConfig {
        threads: 1,
        checkpoint_every: 0,
        interrupt_after: Some(1),
    };
    let (result, checkpoints) = run_to_completion(&spec, &store, &cfg);
    assert_eq!(checkpoints, 0);
    assert_eq!(result.status, JobStatusKind::Silent);
    assert_eq!(store.latest(spec.key().unwrap()), None);
}
