//! Durable checkpoint store: versioned snapshot blobs per job key.
//!
//! One directory per job (`<root>/<key>/`), one file per checkpoint
//! (`ckpt-<clock>.snap`, clock zero-padded to 32 hex digits so
//! lexicographic order is clock order). Writes are atomic (tmp + rename)
//! and the store keeps only the newest [`KEEP`](CheckpointStore::KEEP)
//! checkpoints per job — enough to survive a crash *during* a checkpoint
//! write without unbounded disk growth.

use crate::spec::JobKey;
use std::fs;
use std::io;
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
    /// atomically, then prune old checkpoints beyond
    /// [`KEEP`](Self::KEEP).
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn save(&self, key: JobKey, clock: u128, blob: &[u8]) -> io::Result<()> {
        let dir = self.job_dir(key);
        fs::create_dir_all(&dir)?;
        let tmp = dir.join(format!("{}.tmp", Self::ckpt_name(clock)));
        fs::write(&tmp, blob)?;
        fs::rename(&tmp, dir.join(Self::ckpt_name(clock)))?;
        self.prune(&dir)
    }

    /// The newest checkpoint for `key`: `(clock, blob)`, or `None` when
    /// the job has none. Unreadable entries are skipped (a torn write is
    /// just an older resume point).
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

    fn prune(&self, dir: &Path) -> io::Result<()> {
        let entries = self.list(dir);
        if entries.len() > Self::KEEP {
            for (_, path) in &entries[..entries.len() - Self::KEEP] {
                fs::remove_file(path)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(name: &str) -> CheckpointStore {
        let dir = std::env::temp_dir().join(format!(
            "ssr-store-test-{}-{name}",
            std::process::id()
        ));
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
            store.save(k, clock, format!("blob-{clock}").as_bytes()).unwrap();
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
}
