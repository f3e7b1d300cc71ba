//! Virtual disk under the durability layer.
//!
//! Everything the WAL and segment writers do to stable storage goes
//! through two object-safe traits — [`DurFile`] (an append-only byte
//! device with an explicit durable watermark) and [`Vfs`] (a flat
//! namespace of such files) — so the same durability code runs against
//! two backends:
//!
//! * [`FsVfs`] — real files in a directory via `std::fs`, for actual
//!   durable deployments and the on-disk benches.
//! * [`MemVfs`] — a deterministic in-memory disk that tracks, per
//!   file, which prefix has been fsynced, consults a
//!   [`DiskFaultPlan`] for injected short writes / fsync failures /
//!   kill-at-offset, and can produce *crash images*: the byte state a
//!   real disk could legally present after a crash (synced bytes
//!   always survive; unsynced bytes survive partially or not at all).
//!
//! The fault model is the contract the recovery proofs lean on: a
//! kill at byte offset `K` persists exactly the first `K` appended
//! bytes (the straddling append is torn mid-record), and a crash with
//! dropped page cache keeps each file's synced prefix plus an
//! arbitrary prefix of its unsynced tail. Chaos tests sweep both.
//!
//! This module is on the `cargo xtask lint` deny list: no panicking
//! constructs, no unchecked indexing.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::PathBuf;
use std::sync::Arc;
use tacc_simnode::faults::DiskFaultPlan;

/// Why a durable-storage operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DiskError {
    /// The (simulated) process is dead: nothing works any more.
    Killed,
    /// An append persisted only a prefix of its buffer.
    ShortWrite {
        /// Bytes that did reach the file before the failure.
        wrote: usize,
    },
    /// fsync failed; the durable watermark did not advance.
    SyncFailed,
    /// The stored bytes failed validation during recovery.
    Corrupt(&'static str),
    /// Underlying operating-system error.
    Io(String),
}

impl fmt::Display for DiskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiskError::Killed => write!(f, "process killed by fault plan"),
            DiskError::ShortWrite { wrote } => write!(f, "short write ({wrote} bytes persisted)"),
            DiskError::SyncFailed => write!(f, "fsync failed"),
            DiskError::Corrupt(what) => write!(f, "corrupt stored data: {what}"),
            DiskError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for DiskError {}

/// An append-only byte device with an explicit durability watermark.
///
/// `append` may fail after persisting a prefix (the torn-record case);
/// callers that need record atomicity must [`DurFile::truncate`] back
/// to the last record boundary they know to be whole. `sync` makes
/// everything appended so far durable.
pub trait DurFile {
    /// Append `buf`; on failure a prefix may have been persisted.
    fn append(&mut self, buf: &[u8]) -> Result<(), DiskError>;
    /// Make every appended byte durable.
    fn sync(&mut self) -> Result<(), DiskError>;
    /// Cut the file back to `len` bytes (used to drop a torn tail
    /// before re-appending).
    fn truncate(&mut self, len: u64) -> Result<(), DiskError>;
    /// Current file length in bytes.
    fn len(&self) -> u64;
    /// True when the file holds no bytes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A flat namespace of [`DurFile`]s plus whole-file reads — everything
/// recovery and the writers need, small enough that a deterministic
/// in-memory model ([`MemVfs`]) implements it exactly.
pub trait Vfs {
    /// Open `name` for appending, creating it if missing, first
    /// truncating it to `keep` bytes (recovery passes the length of
    /// the valid prefix so a torn tail never precedes fresh records).
    fn open_append(&self, name: &str, keep: u64) -> Result<Box<dyn DurFile>, DiskError>;
    /// Read the whole file, or `None` when it does not exist.
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, DiskError>;
    /// Delete a file (succeeds when it is already gone).
    fn remove(&self, name: &str) -> Result<(), DiskError>;
    /// Names of every file, sorted.
    fn list(&self) -> Result<Vec<String>, DiskError>;
}

// ---------------------------------------------------------------------
// In-memory fault-injectable disk
// ---------------------------------------------------------------------

/// One in-memory file: its bytes and how much of them is fsynced.
#[derive(Clone, Debug, Default)]
struct MemFileData {
    bytes: Vec<u8>,
    synced: usize,
}

/// Shared state of a [`MemVfs`] disk.
#[derive(Debug, Default)]
struct MemDiskState {
    files: BTreeMap<String, MemFileData>,
    plan: DiskFaultPlan,
    /// Bytes absorbed across every append on the disk.
    appended_total: u64,
    /// Append operations attempted (short-write ordinals index this).
    appends: u64,
    /// Sync operations attempted (sync-failure ordinals index this).
    syncs: u64,
    /// Set once the kill offset has been crossed.
    killed: bool,
}

/// Observability counters of a [`MemVfs`] disk, for test assertions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemDiskStats {
    /// Bytes absorbed across every append.
    pub appended_bytes: u64,
    /// Append operations attempted.
    pub appends: u64,
    /// Sync operations attempted.
    pub syncs: u64,
    /// True once the kill offset has been crossed.
    pub killed: bool,
}

/// Deterministic in-memory disk with fault injection (see module docs).
#[derive(Clone, Default)]
pub struct MemVfs {
    state: Arc<Mutex<MemDiskState>>,
}

impl MemVfs {
    /// A fresh, fault-free disk.
    pub fn new() -> MemVfs {
        MemVfs::default()
    }

    /// A fresh disk that consults `plan` on every operation.
    // alloc: cold-fn (disk construction, test/sim harness setup)
    pub fn with_faults(plan: DiskFaultPlan) -> MemVfs {
        MemVfs {
            state: Arc::new(Mutex::new(MemDiskState {
                plan,
                ..MemDiskState::default()
            })),
        }
    }

    /// Current disk counters.
    pub fn stats(&self) -> MemDiskStats {
        let s = self.state.lock();
        MemDiskStats {
            appended_bytes: s.appended_total,
            appends: s.appends,
            syncs: s.syncs,
            killed: s.killed,
        }
    }

    /// The crash image after a kill: every *persisted* byte survives
    /// (the kill already stopped persistence at the fault offset).
    /// Returns a fresh fault-free disk holding the image, as a new
    /// process would see it at boot.
    // alloc: cold-fn (fault-injection snapshot for chaos tests, never on the write path)
    pub fn crash_image(&self) -> MemVfs {
        let s = self.state.lock();
        let files = s
            .files
            .iter()
            .map(|(name, f)| {
                (
                    name.clone(),
                    MemFileData {
                        bytes: f.bytes.clone(),
                        synced: f.bytes.len(),
                    },
                )
            })
            .collect();
        MemVfs {
            state: Arc::new(Mutex::new(MemDiskState {
                files,
                ..MemDiskState::default()
            })),
        }
    }

    /// The crash image after a power loss that drops the page cache:
    /// each file keeps its synced prefix plus at most `torn_extra`
    /// bytes of its unsynced tail (a torn in-flight write). Returns a
    /// fresh fault-free disk holding the image.
    // alloc: cold-fn (fault-injection snapshot for chaos tests, never on the write path)
    pub fn crash_image_dropping_unsynced(&self, torn_extra: usize) -> MemVfs {
        let s = self.state.lock();
        let files = s
            .files
            .iter()
            .map(|(name, f)| {
                let keep = f.bytes.len().min(f.synced.saturating_add(torn_extra));
                (
                    name.clone(),
                    MemFileData {
                        bytes: f.bytes.get(..keep).unwrap_or(&[]).to_vec(),
                        synced: keep,
                    },
                )
            })
            .collect();
        MemVfs {
            state: Arc::new(Mutex::new(MemDiskState {
                files,
                ..MemDiskState::default()
            })),
        }
    }

    /// Flip a single bit at `(file-index, byte, bit)` — corruption
    /// injection for recovery tests. Returns false when out of range.
    pub fn flip_bit(&self, name: &str, byte: usize, bit: u8) -> bool {
        let mut s = self.state.lock();
        match s.files.get_mut(name).and_then(|f| f.bytes.get_mut(byte)) {
            Some(b) => {
                *b ^= 1u8 << (bit % 8);
                true
            }
            None => false,
        }
    }

    /// Total bytes currently stored across every file.
    pub fn total_bytes(&self) -> u64 {
        let s = self.state.lock();
        s.files.values().map(|f| f.bytes.len() as u64).sum()
    }
}

impl fmt::Debug for MemVfs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.state.lock();
        f.debug_struct("MemVfs")
            .field("files", &s.files.len())
            .field("appended_total", &s.appended_total)
            .field("killed", &s.killed)
            .finish()
    }
}

/// Handle to one file on a [`MemVfs`] disk.
struct MemFile {
    state: Arc<Mutex<MemDiskState>>,
    name: String,
}

impl DurFile for MemFile {
    fn append(&mut self, buf: &[u8]) -> Result<(), DiskError> {
        let mut s = self.state.lock();
        if s.killed {
            return Err(DiskError::Killed);
        }
        let ordinal = s.appends;
        s.appends += 1;
        // Kill-at-offset: persist up to the boundary, then die.
        if let Some(kill) = s.plan.kill_at_offset {
            let room = kill.saturating_sub(s.appended_total);
            if (buf.len() as u64) > room {
                let keep = room as usize;
                s.appended_total += keep as u64;
                s.killed = true;
                let kept = buf.get(..keep).unwrap_or(&[]);
                if let Some(f) = s.files.get_mut(&self.name) {
                    f.bytes.extend_from_slice(kept);
                }
                return Err(DiskError::Killed);
            }
        }
        if s.plan.short_write(ordinal) {
            let keep = buf.len() / 2;
            s.appended_total += keep as u64;
            let kept = buf.get(..keep).unwrap_or(&[]);
            if let Some(f) = s.files.get_mut(&self.name) {
                f.bytes.extend_from_slice(kept);
            }
            return Err(DiskError::ShortWrite { wrote: keep });
        }
        s.appended_total += buf.len() as u64;
        match s.files.get_mut(&self.name) {
            Some(f) => {
                f.bytes.extend_from_slice(buf);
                Ok(())
            }
            // alloc: cold (error path: the backing file was removed under us)
            None => Err(DiskError::Io(format!("{}: file removed", self.name))),
        }
    }

    fn sync(&mut self) -> Result<(), DiskError> {
        let mut s = self.state.lock();
        if s.killed {
            return Err(DiskError::Killed);
        }
        let ordinal = s.syncs;
        s.syncs += 1;
        if s.plan.sync_fails(ordinal) {
            return Err(DiskError::SyncFailed);
        }
        match s.files.get_mut(&self.name) {
            Some(f) => {
                f.synced = f.bytes.len();
                Ok(())
            }
            // alloc: cold (error path: the backing file was removed under us)
            None => Err(DiskError::Io(format!("{}: file removed", self.name))),
        }
    }

    fn truncate(&mut self, len: u64) -> Result<(), DiskError> {
        let mut s = self.state.lock();
        if s.killed {
            return Err(DiskError::Killed);
        }
        match s.files.get_mut(&self.name) {
            Some(f) => {
                f.bytes.truncate(len as usize);
                f.synced = f.synced.min(f.bytes.len());
                Ok(())
            }
            // alloc: cold (error path: the backing file was removed under us)
            None => Err(DiskError::Io(format!("{}: file removed", self.name))),
        }
    }

    fn len(&self) -> u64 {
        let s = self.state.lock();
        s.files
            .get(&self.name)
            .map(|f| f.bytes.len() as u64)
            .unwrap_or(0)
    }
}

impl Vfs for MemVfs {
    // alloc: cold-fn (file open, startup/recovery-time; appends reuse the handle)
    fn open_append(&self, name: &str, keep: u64) -> Result<Box<dyn DurFile>, DiskError> {
        {
            let mut s = self.state.lock();
            if s.killed {
                return Err(DiskError::Killed);
            }
            let f = s.files.entry(name.to_string()).or_default();
            f.bytes.truncate(keep as usize);
            f.synced = f.synced.min(f.bytes.len());
        }
        Ok(Box::new(MemFile {
            state: Arc::clone(&self.state),
            name: name.to_string(),
        }))
    }

    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, DiskError> {
        let s = self.state.lock();
        if s.killed {
            return Err(DiskError::Killed);
        }
        Ok(s.files.get(name).map(|f| f.bytes.clone())) // alloc: cold (whole-file read, recovery-time only)
    }

    fn remove(&self, name: &str) -> Result<(), DiskError> {
        let mut s = self.state.lock();
        if s.killed {
            return Err(DiskError::Killed);
        }
        s.files.remove(name);
        Ok(())
    }

    fn list(&self) -> Result<Vec<String>, DiskError> {
        let s = self.state.lock();
        if s.killed {
            return Err(DiskError::Killed);
        }
        Ok(s.files.keys().cloned().collect()) // alloc: cold (directory listing, recovery-time only)
    }
}

// ---------------------------------------------------------------------
// Real filesystem backend
// ---------------------------------------------------------------------

fn io_err(e: std::io::Error) -> DiskError {
    DiskError::Io(e.to_string()) // alloc: cold (error path)
}

/// Real files under one directory, via `std::fs`. Appends buffer in
/// the OS page cache until [`DurFile::sync`] (`fdatasync`), matching
/// the durability semantics [`MemVfs`] models.
#[derive(Clone, Debug)]
pub struct FsVfs {
    root: PathBuf,
}

impl FsVfs {
    /// Open (creating if needed) the directory `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<FsVfs, DiskError> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(io_err)?;
        Ok(FsVfs { root })
    }

    /// The backing directory.
    pub fn root(&self) -> &std::path::Path {
        &self.root
    }
}

/// Handle to one real file.
struct FsFile {
    file: fs::File,
    len: u64,
}

impl DurFile for FsFile {
    fn append(&mut self, buf: &[u8]) -> Result<(), DiskError> {
        self.file.write_all(buf).map_err(io_err)?;
        self.len += buf.len() as u64;
        Ok(())
    }

    fn sync(&mut self) -> Result<(), DiskError> {
        self.file.sync_data().map_err(io_err)
    }

    fn truncate(&mut self, len: u64) -> Result<(), DiskError> {
        self.file.set_len(len).map_err(io_err)?;
        self.file.seek(SeekFrom::End(0)).map_err(io_err)?;
        self.len = len;
        Ok(())
    }

    fn len(&self) -> u64 {
        self.len
    }
}

impl Vfs for FsVfs {
    // alloc: cold-fn (file open, startup/recovery-time; appends reuse the handle)
    fn open_append(&self, name: &str, keep: u64) -> Result<Box<dyn DurFile>, DiskError> {
        let path = self.root.join(name);
        let file = fs::OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(&path)
            .map_err(io_err)?;
        file.set_len(keep).map_err(io_err)?;
        let mut file = file;
        file.seek(SeekFrom::End(0)).map_err(io_err)?;
        Ok(Box::new(FsFile { file, len: keep }))
    }

    // alloc: cold-fn (whole-file read, recovery-time only)
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, DiskError> {
        let path = self.root.join(name);
        match fs::File::open(&path) {
            Ok(mut f) => {
                let mut buf = Vec::new();
                f.read_to_end(&mut buf).map_err(io_err)?;
                Ok(Some(buf))
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err(e)),
        }
    }

    fn remove(&self, name: &str) -> Result<(), DiskError> {
        match fs::remove_file(self.root.join(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err(e)),
        }
    }

    // alloc: cold-fn (directory listing, recovery-time only)
    fn list(&self) -> Result<Vec<String>, DiskError> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.root).map_err(io_err)? {
            let entry = entry.map_err(io_err)?;
            if let Some(name) = entry.file_name().to_str() {
                out.push(name.to_string());
            }
        }
        out.sort();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_append_sync_read_round_trip() {
        let vfs = MemVfs::new();
        let mut f = vfs.open_append("a.wal", 0).unwrap();
        f.append(b"hello ").unwrap();
        f.append(b"world").unwrap();
        assert_eq!(f.len(), 11);
        f.sync().unwrap();
        assert_eq!(vfs.read("a.wal").unwrap().unwrap(), b"hello world");
        assert_eq!(vfs.read("missing").unwrap(), None);
        assert_eq!(vfs.list().unwrap(), vec!["a.wal".to_string()]);
        vfs.remove("a.wal").unwrap();
        assert_eq!(vfs.read("a.wal").unwrap(), None);
        vfs.remove("a.wal").unwrap(); // idempotent
    }

    #[test]
    fn open_append_truncates_to_keep() {
        let vfs = MemVfs::new();
        let mut f = vfs.open_append("x", 0).unwrap();
        f.append(b"0123456789").unwrap();
        f.sync().unwrap();
        drop(f);
        let f2 = vfs.open_append("x", 4).unwrap();
        assert_eq!(f2.len(), 4);
        drop(f2);
        assert_eq!(vfs.read("x").unwrap().unwrap(), b"0123");
    }

    #[test]
    fn kill_at_offset_tears_the_straddling_append() {
        let vfs = MemVfs::with_faults(DiskFaultPlan::kill_at(7));
        let mut f = vfs.open_append("w", 0).unwrap();
        f.append(b"0123").unwrap(); // 4 bytes, under the limit
        let err = f.append(b"abcdef").unwrap_err(); // would cross 7
        assert_eq!(err, DiskError::Killed);
        assert_eq!(f.sync().unwrap_err(), DiskError::Killed);
        assert!(vfs.stats().killed);
        // The crash image holds exactly the persisted 7 bytes.
        let image = vfs.crash_image();
        assert_eq!(image.read("w").unwrap().unwrap(), b"0123abc");
        // The dead disk refuses everything.
        assert_eq!(vfs.read("w").unwrap_err(), DiskError::Killed);
        assert!(vfs.open_append("other", 0).is_err());
    }

    #[test]
    fn short_write_persists_half_and_reports() {
        let plan = DiskFaultPlan {
            short_write_at: vec![1],
            ..DiskFaultPlan::default()
        };
        let vfs = MemVfs::with_faults(plan);
        let mut f = vfs.open_append("w", 0).unwrap();
        f.append(b"good").unwrap();
        let err = f.append(b"broken!!").unwrap_err();
        assert_eq!(err, DiskError::ShortWrite { wrote: 4 });
        assert_eq!(f.len(), 8);
        // Caller repairs by truncating back to the record boundary.
        f.truncate(4).unwrap();
        f.append(b"broken!!").unwrap();
        f.sync().unwrap();
        assert_eq!(vfs.read("w").unwrap().unwrap(), b"goodbroken!!");
    }

    #[test]
    fn sync_failure_keeps_watermark_and_crash_drops_unsynced() {
        let plan = DiskFaultPlan {
            sync_fail_at: vec![1],
            ..DiskFaultPlan::default()
        };
        let vfs = MemVfs::with_faults(plan);
        let mut f = vfs.open_append("w", 0).unwrap();
        f.append(b"AAAA").unwrap();
        f.sync().unwrap(); // sync 0: ok, watermark 4
        f.append(b"BBBB").unwrap();
        assert_eq!(f.sync().unwrap_err(), DiskError::SyncFailed);
        f.append(b"CC").unwrap();
        // Power loss: synced prefix survives, plus 1 torn byte.
        let image = vfs.crash_image_dropping_unsynced(1);
        assert_eq!(image.read("w").unwrap().unwrap(), b"AAAAB");
        // With nothing torn, exactly the synced prefix survives.
        let image = vfs.crash_image_dropping_unsynced(0);
        assert_eq!(image.read("w").unwrap().unwrap(), b"AAAA");
    }

    #[test]
    fn bit_flips_hit_stored_bytes() {
        let vfs = MemVfs::new();
        let mut f = vfs.open_append("w", 0).unwrap();
        f.append(&[0u8; 4]).unwrap();
        assert!(vfs.flip_bit("w", 2, 3));
        assert!(!vfs.flip_bit("w", 99, 0));
        assert_eq!(vfs.read("w").unwrap().unwrap(), vec![0, 0, 8, 0]);
    }

    #[test]
    fn fs_vfs_round_trips_real_files() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target")
            .join(format!("tacc-vfs-test-{}", std::process::id()));
        let vfs = FsVfs::open(&dir).unwrap();
        let mut f = vfs.open_append("a.seg", 0).unwrap();
        f.append(b"columns").unwrap();
        f.sync().unwrap();
        drop(f);
        assert_eq!(vfs.read("a.seg").unwrap().unwrap(), b"columns");
        assert!(vfs.list().unwrap().contains(&"a.seg".to_string()));
        // Reopen keeping a prefix, append more.
        let mut f = vfs.open_append("a.seg", 3).unwrap();
        assert_eq!(f.len(), 3);
        f.append(b"XY").unwrap();
        drop(f);
        assert_eq!(vfs.read("a.seg").unwrap().unwrap(), b"colXY");
        vfs.remove("a.seg").unwrap();
        assert_eq!(vfs.read("a.seg").unwrap(), None);
        let _ = fs::remove_dir_all(&dir);
    }
}
