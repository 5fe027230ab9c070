//! Persistence backend abstraction and the baseline file backend.
//!
//! [`PersistBackend`] is the seam between the database engine and the I/O
//! path. The engine calls it for WAL appends/syncs, snapshot production,
//! and recovery reads; implementations decide *how* bytes reach storage:
//!
//! * [`FileBackend`] (here) — WAL and snapshot **files** through the
//!   traditional kernel path (`slimio-kpath`): buffered `write()`, shared
//!   journal lock, fsync, page cache. This is the paper's baseline.
//! * `PassthruBackend` (in the `slimio` crate) — raw LBA regions through
//!   per-path io_uring rings with FDP placement hints. This is SlimIO.
//!
//! Both are synchronous-with-timestamps so the same engine drives the
//! functional tests and the discrete-event experiments.

use slimio_des::SimTime;
use slimio_kpath::{Fd, FsError, SimFs};

/// Which snapshot a request concerns (§2.1: the two snapshot types have
/// different lifetimes, which is what FDP placement exploits).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SnapshotKind {
    /// Automatic snapshot cut when the WAL grows past its threshold;
    /// short-lived (invalidated by the next WAL-snapshot).
    WalSnapshot,
    /// Administrator-requested point-in-time backup; long-lived.
    OnDemand,
}

/// Timing of one backend call, as observed by the calling process.
#[derive(Clone, Copy, Debug, Default)]
pub struct IoTiming {
    /// When the call returns and the caller may proceed.
    pub done_at: SimTime,
    /// CPU the caller burned inside the call (syscalls, copies, ring
    /// pushes) — the non-overlappable part.
    pub cpu: SimTime,
}

impl IoTiming {
    /// A zero-cost completion at `now`.
    pub fn instant(now: SimTime) -> Self {
        IoTiming {
            done_at: now,
            cpu: SimTime::ZERO,
        }
    }
}

/// Backend faults.
#[derive(Debug)]
pub enum BackendError {
    /// Underlying file-system error.
    Fs(FsError),
    /// Snapshot protocol misuse or failure.
    Snapshot(String),
    /// Device-level failure.
    Device(slimio_nvme::DeviceError),
}

impl From<FsError> for BackendError {
    fn from(e: FsError) -> Self {
        BackendError::Fs(e)
    }
}

impl From<slimio_nvme::DeviceError> for BackendError {
    fn from(e: slimio_nvme::DeviceError) -> Self {
        BackendError::Device(e)
    }
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::Fs(e) => write!(f, "fs: {e}"),
            BackendError::Snapshot(s) => write!(f, "snapshot: {s}"),
            BackendError::Device(e) => write!(f, "device: {e}"),
        }
    }
}

impl std::error::Error for BackendError {}

/// The persistence seam between engine and I/O path.
pub trait PersistBackend {
    /// Appends WAL bytes (buffered; durability comes from
    /// [`PersistBackend::wal_sync`]).
    fn wal_append(&mut self, data: &[u8], now: SimTime) -> Result<IoTiming, BackendError>;

    /// Makes all appended WAL bytes durable.
    fn wal_sync(&mut self, now: SimTime) -> Result<IoTiming, BackendError>;

    /// Bytes in the current WAL generation (drives WAL-snapshot rotation).
    fn wal_len(&self) -> u64;

    /// Starts a snapshot of the given kind. At most one snapshot may be in
    /// progress (§2.1). For [`SnapshotKind::WalSnapshot`] the backend also
    /// opens a fresh WAL generation so post-fork writes are separable.
    fn snapshot_begin(
        &mut self,
        kind: SnapshotKind,
        now: SimTime,
    ) -> Result<IoTiming, BackendError>;

    /// Appends one chunk of the in-progress snapshot stream.
    fn snapshot_chunk(&mut self, data: &[u8], now: SimTime) -> Result<IoTiming, BackendError>;

    /// Seals and atomically publishes the snapshot. For a WAL-snapshot the
    /// superseded WAL generation and previous WAL-snapshot are deleted
    /// only now — never before the new one is durable (§4.2).
    fn snapshot_commit(&mut self, now: SimTime) -> Result<IoTiming, BackendError>;

    /// Abandons the in-progress snapshot, leaving prior state intact.
    fn snapshot_abort(&mut self, now: SimTime) -> Result<IoTiming, BackendError>;

    /// Reads back the newest committed snapshot of `kind`, if any.
    fn load_snapshot(
        &mut self,
        kind: SnapshotKind,
        now: SimTime,
    ) -> Result<(Option<Vec<u8>>, IoTiming), BackendError>;

    /// Reads back every WAL generation newer than the last WAL-snapshot,
    /// oldest first, concatenated.
    fn load_wal(&mut self, now: SimTime) -> Result<(Vec<u8>, IoTiming), BackendError>;
}

/// Baseline backend: files on a journaling file system.
pub struct FileBackend {
    fs: SimFs,
    wal_fd: Fd,
    wal_gen: u64,
    wal_written: u64,
    /// WAL generations not yet covered by a committed WAL-snapshot.
    live_gens: Vec<u64>,
    snapshot: Option<SnapshotState>,
}

struct SnapshotState {
    kind: SnapshotKind,
    fd: Fd,
    written: u64,
    /// WAL generations the snapshot supersedes on commit.
    covers: Vec<u64>,
}

fn wal_name(g: u64) -> String {
    format!("wal.{g:06}")
}

const TMP_SNAP: &str = "snapshot.tmp";

fn snap_name(kind: SnapshotKind) -> &'static str {
    match kind {
        SnapshotKind::WalSnapshot => "snapshot.wal.rdb",
        SnapshotKind::OnDemand => "snapshot.od.rdb",
    }
}

impl FileBackend {
    /// Creates a backend on a fresh file system.
    pub fn new(mut fs: SimFs) -> Result<Self, BackendError> {
        let wal_fd = fs.create(&wal_name(0))?;
        Ok(FileBackend {
            fs,
            wal_fd,
            wal_gen: 0,
            wal_written: 0,
            live_gens: vec![0],
            snapshot: None,
        })
    }

    /// Re-mounts a backend over a file system that already holds state
    /// (post-crash recovery). Scans for the newest WAL generation chain.
    pub fn remount(fs: SimFs) -> Result<Self, BackendError> {
        let mut gens: Vec<u64> = fs
            .list()
            .iter()
            .filter_map(|n| n.strip_prefix("wal.").and_then(|s| s.parse().ok()))
            .collect();
        gens.sort_unstable();
        let mut fs = fs;
        let (wal_gen, live_gens, wal_fd) = if let Some(&last) = gens.last() {
            let fd = fs.open(&wal_name(last))?;
            (last, gens.clone(), fd)
        } else {
            let fd = fs.create(&wal_name(0))?;
            (0, vec![0], fd)
        };
        let wal_written = fs.size(wal_fd)?;
        Ok(FileBackend {
            fs,
            wal_fd,
            wal_gen,
            wal_written,
            live_gens,
            snapshot: None,
        })
    }

    /// The underlying file system (diagnostics, crash injection).
    pub fn fs(&self) -> &SimFs {
        &self.fs
    }

    /// Mutable file-system access (crash injection in tests).
    pub fn fs_mut(&mut self) -> &mut SimFs {
        &mut self.fs
    }

    /// Consumes the backend, returning the file system (for remounting
    /// after a simulated crash).
    pub fn into_fs(self) -> SimFs {
        self.fs
    }

    fn outcome_to_timing(o: slimio_kpath::WriteOutcome) -> IoTiming {
        IoTiming {
            done_at: o.done_at,
            cpu: o.syscall_cpu + o.fs_cpu,
        }
    }
}

impl PersistBackend for FileBackend {
    fn wal_append(&mut self, data: &[u8], now: SimTime) -> Result<IoTiming, BackendError> {
        // One writev-shaped call per append: under group commit the engine
        // hands a whole batch of records as one buffer, so the batch costs
        // a single syscall and a single journal acquisition.
        let o = self
            .fs
            .writev(self.wal_fd, self.wal_written, &[data], now)?;
        self.wal_written += data.len() as u64;
        Ok(Self::outcome_to_timing(o))
    }

    fn wal_sync(&mut self, now: SimTime) -> Result<IoTiming, BackendError> {
        let o = self.fs.fsync(self.wal_fd, now)?;
        Ok(Self::outcome_to_timing(o))
    }

    fn wal_len(&self) -> u64 {
        self.wal_written
    }

    fn snapshot_begin(
        &mut self,
        kind: SnapshotKind,
        now: SimTime,
    ) -> Result<IoTiming, BackendError> {
        if self.snapshot.is_some() {
            return Err(BackendError::Snapshot(
                "a snapshot is already in progress".into(),
            ));
        }
        let fd = self.fs.create(TMP_SNAP)?;
        let covers = if kind == SnapshotKind::WalSnapshot {
            // Rotate to a fresh WAL generation; the snapshot covers all
            // prior generations.
            let covered = self.live_gens.clone();
            self.wal_gen += 1;
            self.wal_fd = self.fs.create(&wal_name(self.wal_gen))?;
            self.wal_written = 0;
            self.live_gens.push(self.wal_gen);
            covered
        } else {
            Vec::new()
        };
        self.snapshot = Some(SnapshotState {
            kind,
            fd,
            written: 0,
            covers,
        });
        Ok(IoTiming::instant(now))
    }

    fn snapshot_chunk(&mut self, data: &[u8], now: SimTime) -> Result<IoTiming, BackendError> {
        let st = self
            .snapshot
            .as_mut()
            .ok_or_else(|| BackendError::Snapshot("no snapshot in progress".into()))?;
        let o = self
            .fs
            .write(st.fd, st.written, data.len() as u64, Some(data), now)?;
        st.written += data.len() as u64;
        Ok(Self::outcome_to_timing(o))
    }

    fn snapshot_commit(&mut self, now: SimTime) -> Result<IoTiming, BackendError> {
        let st = self
            .snapshot
            .take()
            .ok_or_else(|| BackendError::Snapshot("no snapshot in progress".into()))?;
        // Durable before visible: fsync the temp file, then rename.
        let o = self.fs.fsync(st.fd, now)?;
        self.fs.rename(TMP_SNAP, snap_name(st.kind))?;
        if st.kind == SnapshotKind::WalSnapshot {
            // Only now is the old WAL chain garbage (§4.2: delete old data
            // only after the new snapshot is durable).
            for g in st.covers {
                self.live_gens.retain(|&x| x != g);
                let _ = self.fs.delete(&wal_name(g), now);
            }
        }
        Ok(Self::outcome_to_timing(o))
    }

    fn snapshot_abort(&mut self, now: SimTime) -> Result<IoTiming, BackendError> {
        if let Some(st) = self.snapshot.take() {
            let _ = self.fs.delete(TMP_SNAP, now);
            // An aborted WAL-snapshot leaves the rotated WAL chain in
            // place; recovery replays across generations.
            let _ = st;
        }
        Ok(IoTiming::instant(now))
    }

    fn load_snapshot(
        &mut self,
        kind: SnapshotKind,
        now: SimTime,
    ) -> Result<(Option<Vec<u8>>, IoTiming), BackendError> {
        match self.fs.open(snap_name(kind)) {
            Err(_) => Ok((None, IoTiming::instant(now))),
            Ok(fd) => {
                let size = self.fs.size(fd)?;
                let (data, o) = self.fs.read(fd, 0, size, now)?;
                Ok((data, Self::outcome_to_timing(o)))
            }
        }
    }

    fn load_wal(&mut self, now: SimTime) -> Result<(Vec<u8>, IoTiming), BackendError> {
        let mut out = Vec::new();
        let mut t = now;
        let mut cpu = SimTime::ZERO;
        for &g in &self.live_gens.clone() {
            let Ok(fd) = self.fs.open(&wal_name(g)) else {
                continue;
            };
            let size = self.fs.size(fd)?;
            if size == 0 {
                continue;
            }
            let (data, o) = self.fs.read(fd, 0, size, t)?;
            t = o.done_at;
            cpu += o.syscall_cpu;
            if let Some(d) = data {
                out.extend_from_slice(&d);
            }
        }
        Ok((out, IoTiming { done_at: t, cpu }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimio_ftl::PlacementMode;
    use slimio_kpath::{FsProfile, KernelCosts};
    use slimio_nvme::{DeviceConfig, DeviceHandle};

    fn backend() -> FileBackend {
        let dev = DeviceHandle::new(DeviceConfig::tiny(PlacementMode::Conventional));
        let fs = SimFs::new(dev, KernelCosts::default(), FsProfile::f2fs());
        FileBackend::new(fs).unwrap()
    }

    #[test]
    fn wal_append_accumulates() {
        let mut b = backend();
        b.wal_append(b"record-1", SimTime::ZERO).unwrap();
        b.wal_append(b"record-2", SimTime::ZERO).unwrap();
        assert_eq!(b.wal_len(), 16);
        let (wal, _) = b.load_wal(SimTime::ZERO).unwrap();
        assert_eq!(&wal, b"record-1record-2");
    }

    #[test]
    fn snapshot_lifecycle_publishes_atomically() {
        let mut b = backend();
        b.snapshot_begin(SnapshotKind::OnDemand, SimTime::ZERO)
            .unwrap();
        b.snapshot_chunk(b"part-a|", SimTime::ZERO).unwrap();
        b.snapshot_chunk(b"part-b", SimTime::ZERO).unwrap();
        // Not yet visible.
        let (pre, _) = b
            .load_snapshot(SnapshotKind::OnDemand, SimTime::ZERO)
            .unwrap();
        assert!(pre.is_none());
        b.snapshot_commit(SimTime::ZERO).unwrap();
        let (post, _) = b
            .load_snapshot(SnapshotKind::OnDemand, SimTime::ZERO)
            .unwrap();
        assert_eq!(post.unwrap(), b"part-a|part-b");
    }

    #[test]
    fn wal_snapshot_rotates_and_prunes_wal() {
        let mut b = backend();
        b.wal_append(b"old-old-old", SimTime::ZERO).unwrap();
        b.snapshot_begin(SnapshotKind::WalSnapshot, SimTime::ZERO)
            .unwrap();
        // Writes during the snapshot land in the new generation.
        b.wal_append(b"new", SimTime::ZERO).unwrap();
        assert_eq!(b.wal_len(), 3);
        b.snapshot_chunk(b"snapdata", SimTime::ZERO).unwrap();
        b.snapshot_commit(SimTime::ZERO).unwrap();
        // Old generation deleted; only post-fork records remain.
        let (wal, _) = b.load_wal(SimTime::ZERO).unwrap();
        assert_eq!(&wal, b"new");
    }

    #[test]
    fn abort_keeps_prior_state() {
        let mut b = backend();
        b.wal_append(b"keep-me", SimTime::ZERO).unwrap();
        b.snapshot_begin(SnapshotKind::WalSnapshot, SimTime::ZERO)
            .unwrap();
        b.wal_append(b"+tail", SimTime::ZERO).unwrap();
        b.snapshot_chunk(b"partial", SimTime::ZERO).unwrap();
        b.snapshot_abort(SimTime::ZERO).unwrap();
        // No snapshot visible; the full WAL chain still replays.
        let (snap, _) = b
            .load_snapshot(SnapshotKind::WalSnapshot, SimTime::ZERO)
            .unwrap();
        assert!(snap.is_none());
        let (wal, _) = b.load_wal(SimTime::ZERO).unwrap();
        assert_eq!(&wal, b"keep-me+tail");
    }

    #[test]
    fn concurrent_snapshots_rejected() {
        let mut b = backend();
        b.snapshot_begin(SnapshotKind::OnDemand, SimTime::ZERO)
            .unwrap();
        assert!(b
            .snapshot_begin(SnapshotKind::WalSnapshot, SimTime::ZERO)
            .is_err());
    }

    #[test]
    fn commit_replaces_previous_snapshot() {
        let mut b = backend();
        for round in 0..3u8 {
            b.snapshot_begin(SnapshotKind::OnDemand, SimTime::ZERO)
                .unwrap();
            b.snapshot_chunk(&[round; 16], SimTime::ZERO).unwrap();
            b.snapshot_commit(SimTime::ZERO).unwrap();
        }
        let (snap, _) = b
            .load_snapshot(SnapshotKind::OnDemand, SimTime::ZERO)
            .unwrap();
        assert_eq!(snap.unwrap(), vec![2u8; 16]);
    }

    #[test]
    fn synced_wal_survives_crash_unsynced_tail_lost() {
        let mut b = backend();
        b.wal_append(b"durable!", SimTime::ZERO).unwrap();
        b.wal_sync(SimTime::ZERO).unwrap();
        b.wal_append(b"volatile", SimTime::ZERO).unwrap();
        // Power cut: page cache gone.
        let mut fs = b.into_fs();
        fs.crash();
        let mut b2 = FileBackend::remount(fs).unwrap();
        let (wal, _) = b2.load_wal(SimTime::ZERO).unwrap();
        // The durable prefix is intact; the unsynced tail reads as zeroes
        // (not the lost bytes).
        assert_eq!(&wal[..8], b"durable!");
        assert!(wal[8..].iter().all(|&x| x == 0));
    }
}
