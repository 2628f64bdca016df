//! A fault-injecting filesystem: the [`FsIo`] seam under a chaos plan.
//!
//! [`FaultyFs`] wraps the real filesystem and consults its [`Chaos`]
//! runtime's indexed schedules before every read and write: the plan names
//! exact 1-based event ordinals that fail, return short, or corrupt the
//! payload in flight. Ordinals are global across the scenario (the 2nd
//! write the store performs, wherever it lands), which keeps fault timing
//! exact in single-driver scenarios like the chaos soak's scripted retrain
//! loop.

use crate::Chaos;
use sqp_common::fsio::{FsIo, RealFs};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// An [`FsIo`] that injects the [`Chaos`] plan's disk faults in front of
/// the real filesystem.
///
/// # Examples
///
/// ```
/// use sqp_common::fsio::FsIo;
/// use sqp_faults::{Chaos, FaultPlan};
///
/// let chaos = Chaos::new(FaultPlan {
///     seed: 7,
///     write_error_on: vec![1], // the first write fails...
///     ..FaultPlan::default()
/// });
/// let fs = chaos.faulty_fs();
/// let dir = std::env::temp_dir().join(format!("sqp-faultyfs-doc-{}", std::process::id()));
/// fs.create_dir_all(&dir).unwrap();
/// let path = dir.join("snap.bin");
/// assert!(fs.write_atomic(&path, b"payload").is_err());
/// fs.write_atomic(&path, b"payload").unwrap(); // ...the second succeeds
/// assert_eq!(fs.read(&path).unwrap(), b"payload");
/// # std::fs::remove_dir_all(&dir).unwrap();
/// ```
#[derive(Debug)]
pub struct FaultyFs {
    chaos: Arc<Chaos>,
    inner: RealFs,
}

impl FaultyFs {
    /// A fault-injecting filesystem driven by `chaos`.
    pub(crate) fn new(chaos: Arc<Chaos>) -> Self {
        Self {
            chaos,
            inner: RealFs,
        }
    }

    fn injected(kind: &str, ordinal: u64) -> io::Error {
        io::Error::other(format!("injected chaos {kind} error (event #{ordinal})"))
    }
}

impl FsIo for FaultyFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let ordinal = self.chaos.reads.fetch_add(1, Ordering::SeqCst) + 1;
        if self.chaos.plan().read_error_on.contains(&ordinal) {
            self.chaos.note_read_error();
            return Err(Self::injected("read", ordinal));
        }
        let mut bytes = self.inner.read(path)?;
        if self.chaos.plan().short_read_on.contains(&ordinal) {
            self.chaos.note_short_read();
            // Deterministic truncation: drop the second half (at least one
            // byte), modeling a reader that hit EOF early.
            bytes.truncate(bytes.len() / 2);
        }
        Ok(bytes)
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let ordinal = self.chaos.writes.fetch_add(1, Ordering::SeqCst) + 1;
        if self.chaos.plan().write_error_on.contains(&ordinal) {
            self.chaos.note_write_error();
            return Err(Self::injected("write", ordinal));
        }
        if self.chaos.plan().corrupt_write_on.contains(&ordinal) && !bytes.is_empty() {
            self.chaos.note_corrupt_write();
            // One deterministic byte flip at a seed+ordinal-derived offset:
            // the file lands complete (the atomic rename succeeds) but its
            // checksum no longer matches — a silent-corruption model.
            let mut corrupted = bytes.to_vec();
            let pos = (sqp_common::hash::fx_hash_one(&(self.chaos.plan().seed, ordinal))
                % corrupted.len() as u64) as usize;
            corrupted[pos] ^= 0xA5;
            return self.inner.write_atomic(path, &corrupted);
        }
        self.inner.write_atomic(path, bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.list(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultPlan;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sqp-faultyfs-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn scheduled_read_faults_fire_on_exact_ordinals() {
        let dir = scratch("read");
        let chaos = Chaos::new(FaultPlan {
            seed: 3,
            read_error_on: vec![2],
            short_read_on: vec![3],
            ..FaultPlan::default()
        });
        let fs = chaos.faulty_fs();
        let path = dir.join("f.bin");
        fs.write_atomic(&path, b"0123456789").unwrap();
        assert_eq!(fs.read(&path).unwrap(), b"0123456789"); // #1 clean
        assert!(fs.read(&path).is_err()); // #2 injected error
        assert_eq!(fs.read(&path).unwrap(), b"01234"); // #3 short
        assert_eq!(fs.read(&path).unwrap(), b"0123456789"); // #4 clean
        let stats = chaos.stats();
        assert_eq!((stats.read_errors, stats.short_reads), (1, 1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_write_flips_exactly_one_byte_deterministically() {
        let dir = scratch("corrupt");
        let payload = vec![0u8; 64];
        let read_back = |seed| {
            let chaos = Chaos::new(FaultPlan {
                seed,
                corrupt_write_on: vec![1],
                ..FaultPlan::default()
            });
            let fs = chaos.faulty_fs();
            let path = dir.join(format!("c-{seed}.bin"));
            fs.write_atomic(&path, &payload).unwrap();
            fs.read(&path).unwrap()
        };
        let a = read_back(11);
        let b = read_back(11);
        assert_eq!(a, b, "corruption must be seed-deterministic");
        assert_eq!(a.len(), payload.len());
        let flipped: Vec<usize> = (0..a.len()).filter(|&i| a[i] != payload[i]).collect();
        assert_eq!(flipped.len(), 1);
        assert_eq!(a[flipped[0]], 0xA5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quiet_plan_passes_everything_through() {
        let dir = scratch("quiet");
        let chaos = Chaos::new(FaultPlan::quiet(5));
        let fs = chaos.faulty_fs();
        let path = dir.join("f.bin");
        fs.write_atomic(&path, b"data").unwrap();
        assert_eq!(fs.read(&path).unwrap(), b"data");
        fs.rename(&path, &dir.join("g.bin")).unwrap();
        assert_eq!(fs.list(&dir).unwrap(), vec![dir.join("g.bin")]);
        fs.remove_file(&dir.join("g.bin")).unwrap();
        let stats = chaos.stats();
        assert_eq!((stats.reads, stats.writes), (1, 1));
        assert_eq!(
            stats.read_errors + stats.write_errors + stats.corrupt_writes,
            0
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
