//! Durable checkpoint store: versioned snapshot blobs per job key.
//!
//! One directory per job (`<root>/<key>/`), one file per checkpoint
//! (`ckpt-<clock>.snap`, clock zero-padded to 32 hex digits so
//! lexicographic order is clock order), each holding one raw wire blob.
//! The store keeps only the newest [`KEEP`](CheckpointStore::KEEP)
//! checkpoints per job, so a damaged newest file still leaves an older
//! resume point without unbounded disk growth.
//!
//! Steady-state saves create no file. [`save`](CheckpointStore::save)
//! recycles one:
//!
//! * a job's first `KEEP` saves create their files directly;
//! * once the job holds `KEEP` checkpoints, the oldest is renamed to the
//!   new clock's name and overwritten in place (truncated only when the
//!   new blob is shorter);
//! * a save at a clock that already has a file overwrites that file;
//! * files beyond `KEEP` (an older store killed before it pruned could
//!   leave them) are removed first.
//!
//! What a kill leaves on disk, at each point of a recycling save:
//!
//! * **before the rename** — the previous `KEEP` checkpoints, untouched;
//! * **between the rename and the write** — the oldest blob under the
//!   newest name. It is still a complete between-quanta state, so a
//!   resume from it replays to the same result, only from further back;
//! * **during the write** — a torn newest file. The wire checksum rejects
//!   it and the reader falls back to the next older checkpoint, which
//!   this save never touched.
//!
//! Readers ([`newest_first`](CheckpointStore::newest_first)) therefore
//! must decode and verify each blob and fall back on failure, as
//! [`run_job`](crate::run_job) does.

use crate::spec::JobKey;
use std::fs::{self, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// On-disk checkpoint store rooted at one directory.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    root: PathBuf,
}

impl CheckpointStore {
    /// Checkpoints retained per job (newest first).
    pub const KEEP: usize = 2;

    /// Open (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(CheckpointStore { root })
    }

    fn job_dir(&self, key: JobKey) -> PathBuf {
        self.root.join(key.hex())
    }

    fn ckpt_name(clock: u128) -> String {
        format!("ckpt-{clock:032x}.snap")
    }

    /// Persist a snapshot blob for `key` at interaction-clock `clock`,
    /// recycling the oldest retained checkpoint once `key` holds
    /// [`KEEP`](Self::KEEP) (see the module docs for what a kill at each
    /// step leaves behind).
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn save(&self, key: JobKey, clock: u128, blob: &[u8]) -> io::Result<()> {
        let dir = self.job_dir(key);
        fs::create_dir_all(&dir)?;
        let held = self.list(&dir);
        let path = dir.join(Self::ckpt_name(clock));
        let exists = held.iter().any(|&(c, _)| c == clock);
        // Every other file, oldest first; the newest KEEP - 1 of them stay.
        let mut others: Vec<PathBuf> = held
            .into_iter()
            .filter_map(|(c, p)| (c != clock).then_some(p))
            .collect();
        let stale_len = others.len().saturating_sub(Self::KEEP - 1);
        let mut stale = others.drain(..stale_len);
        let recycled = if exists { None } else { stale.next_back() };
        for old in stale {
            fs::remove_file(old)?;
        }
        if let Some(old) = recycled {
            fs::rename(old, &path)?;
        }
        // No O_TRUNC: a same-length overwrite keeps the file's blocks.
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        if file.metadata()?.len() > blob.len() as u64 {
            file.set_len(blob.len() as u64)?;
        }
        file.write_all(blob)
    }

    /// The newest checkpoint for `key`: `(clock, blob)`, or `None` when
    /// the job has none. Unreadable files are skipped; a torn blob is
    /// returned as it is, so callers verify it (see the module docs).
    pub fn latest(&self, key: JobKey) -> Option<(u128, Vec<u8>)> {
        self.newest_first(key).next()
    }

    /// Every readable checkpoint for `key` as `(clock, blob)`, newest
    /// first, each file read only when the iterator reaches it.
    pub fn newest_first(&self, key: JobKey) -> impl Iterator<Item = (u128, Vec<u8>)> {
        self.list(&self.job_dir(key))
            .into_iter()
            .rev()
            .filter_map(|(clock, path)| fs::read(path).ok().map(|blob| (clock, blob)))
    }

    /// Number of checkpoints currently stored for `key`.
    pub fn count(&self, key: JobKey) -> usize {
        self.list(&self.job_dir(key)).len()
    }

    /// Remove every checkpoint of `key` (job completed).
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures other than the directory being
    /// absent already.
    pub fn clear(&self, key: JobKey) -> io::Result<()> {
        match fs::remove_dir_all(self.job_dir(key)) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }

    /// All checkpoints under `dir`, sorted by clock ascending.
    fn list(&self, dir: &Path) -> Vec<(u128, PathBuf)> {
        let Ok(read) = fs::read_dir(dir) else {
            return Vec::new();
        };
        let mut entries: Vec<(u128, PathBuf)> = read
            .flatten()
            .filter_map(|e| {
                let name = e.file_name().into_string().ok()?;
                let clock = name
                    .strip_prefix("ckpt-")?
                    .strip_suffix(".snap")?
                    .trim_start_matches('0');
                let clock = if clock.is_empty() {
                    0
                } else {
                    u128::from_str_radix(clock, 16).ok()?
                };
                Some((clock, e.path()))
            })
            .collect();
        entries.sort_unstable();
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(name: &str) -> CheckpointStore {
        let dir =
            std::env::temp_dir().join(format!("ssr-store-test-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        CheckpointStore::open(dir).unwrap()
    }

    fn key(b: u8) -> JobKey {
        JobKey([b; 16])
    }

    #[test]
    fn latest_returns_newest_and_prunes_to_keep() {
        let store = temp_store("prune");
        let k = key(1);
        assert_eq!(store.latest(k), None);
        for clock in [10u128, 20, 30, 40] {
            store
                .save(k, clock, format!("blob-{clock}").as_bytes())
                .unwrap();
        }
        assert_eq!(store.count(k), CheckpointStore::KEEP);
        let (clock, blob) = store.latest(k).unwrap();
        assert_eq!(clock, 40);
        assert_eq!(blob, b"blob-40");
        let clocks: Vec<u128> = store.newest_first(k).map(|(clock, _)| clock).collect();
        assert_eq!(clocks, [40, 30]);
        store.clear(k).unwrap();
        assert_eq!(store.latest(k), None);
        store.clear(k).unwrap(); // idempotent
    }

    #[test]
    fn jobs_are_isolated_and_clocks_sort_numerically() {
        let store = temp_store("isolate");
        let (a, b) = (key(2), key(3));
        // A clock over u64 range must still sort above small ones.
        store.save(a, 5, b"small").unwrap();
        store.save(a, u64::MAX as u128 + 7, b"wide").unwrap();
        store.save(b, 9, b"other-job").unwrap();
        assert_eq!(store.latest(a).unwrap().0, u64::MAX as u128 + 7);
        assert_eq!(store.latest(b).unwrap().1, b"other-job");
        store.clear(a).unwrap();
        assert_eq!(store.latest(b).unwrap().0, 9);
    }

    /// Every checkpoint of `k` as `(clock, blob)`, oldest first.
    fn held(store: &CheckpointStore, k: JobKey) -> Vec<(u128, Vec<u8>)> {
        let mut all: Vec<_> = store.newest_first(k).collect();
        all.reverse();
        all
    }

    #[test]
    fn many_saves_keep_the_newest_clocks_and_contents() {
        let store = temp_store("many");
        let k = key(4);
        // Lengths vary from save to save, so recycled files both grow
        // and shrink along the way.
        let blob = |i: u8| vec![i; 1 + (usize::from(i) * 37) % 300];
        for i in 1..=50u8 {
            store.save(k, u128::from(i) * 1000, &blob(i)).unwrap();
            assert!(store.count(k) <= CheckpointStore::KEEP);
        }
        assert_eq!(store.count(k), CheckpointStore::KEEP);
        let expected: Vec<(u128, Vec<u8>)> = (1..=50u8)
            .map(|i| (u128::from(i) * 1000, blob(i)))
            .skip(50 - CheckpointStore::KEEP)
            .collect();
        assert_eq!(held(&store, k), expected);
    }

    #[test]
    fn shorter_blob_over_a_recycled_longer_file_reads_back_exactly() {
        let store = temp_store("shrink");
        let k = key(5);
        store.save(k, 1, &[0xAB; 4096]).unwrap();
        store.save(k, 2, &[0xCD; 4096]).unwrap();
        // Recycles the 4096-byte file of clock 1.
        store.save(k, 3, b"short").unwrap();
        assert_eq!(
            held(&store, k),
            [(2, vec![0xCD; 4096]), (3, b"short".to_vec())]
        );
    }

    #[test]
    fn resave_at_an_existing_clock_replaces_that_file() {
        let store = temp_store("resave");
        let k = key(6);
        store.save(k, 10, b"ten").unwrap();
        store.save(k, 20, b"twenty, first version").unwrap();
        store.save(k, 20, b"twenty v2").unwrap();
        assert_eq!(
            held(&store, k),
            [(10, b"ten".to_vec()), (20, b"twenty v2".to_vec())]
        );
        // The same holds for the older of the two files.
        store.save(k, 10, b"ten again, longer").unwrap();
        assert_eq!(
            held(&store, k),
            [
                (10, b"ten again, longer".to_vec()),
                (20, b"twenty v2".to_vec())
            ]
        );
    }

    #[test]
    fn legacy_files_beyond_keep_are_removed_first() {
        let store = temp_store("legacy");
        let k = key(7);
        let dir = store.job_dir(k);
        fs::create_dir_all(&dir).unwrap();
        for i in 1..=5u8 {
            fs::write(dir.join(CheckpointStore::ckpt_name(i.into())), [i]).unwrap();
        }
        store.save(k, 6, b"six").unwrap();
        assert_eq!(held(&store, k), [(5, vec![5]), (6, b"six".to_vec())]);
    }

    #[cfg(unix)]
    #[test]
    fn steady_state_saves_reuse_the_retained_files() {
        use std::collections::BTreeSet;
        use std::os::unix::fs::MetadataExt;
        let store = temp_store("inodes");
        let k = key(8);
        let inodes = |store: &CheckpointStore| -> BTreeSet<u64> {
            store
                .list(&store.job_dir(k))
                .iter()
                .map(|(_, path)| fs::metadata(path).unwrap().ino())
                .collect()
        };
        store.save(k, 1, b"one").unwrap();
        store.save(k, 2, b"two").unwrap();
        let first = inodes(&store);
        for clock in 3..20u128 {
            store
                .save(k, clock, format!("blob {clock}").as_bytes())
                .unwrap();
            assert_eq!(
                inodes(&store),
                first,
                "save at clock {clock} made a new file"
            );
        }
    }
}
