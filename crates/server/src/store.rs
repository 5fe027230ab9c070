//! Backend selection and restartable backing storage.
//!
//! A [`Store`] owns what survives a server restart: the emulated NVMe
//! device (NAND is non-volatile) and, for the kernel path, the simulated
//! file system. [`Store::open`] hands out an [`AnyBackend`] — fresh on
//! first open, recovered from on-device state afterwards — and the server
//! returns it via [`Store::close`] (clean shutdown) or [`Store::crash`]
//! (kill -9 equivalent: the kernel path loses its page cache, the
//! passthru path loses staged ring state; only synced bytes survive).

use std::sync::Arc;

use slimio::layout::WAL_FRAC;
use slimio::pids::PidSet;
use slimio::{Layout, PassthruBackend};
use slimio_des::SimTime;
use slimio_imdb::backend::{BackendError, FileBackend, IoTiming, PersistBackend, SnapshotKind};
use slimio_kpath::{FsProfile, KernelCosts, SimFs};
use slimio_nvme::{DeviceConfig, DeviceHandle};
use slimio_uring::{SharedClock, SqPollStats};

/// Which I/O path serves the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendKind {
    /// Baseline: WAL + snapshot files on F2FS through the kernel path.
    Kernel,
    /// SlimIO: raw LBA regions through per-path io_uring rings.
    Passthru,
}

impl BackendKind {
    /// Lower-case name, as shown in `INFO` and accepted by `--backend`.
    pub fn name(&self) -> &'static str {
        match self {
            BackendKind::Kernel => "kernel",
            BackendKind::Passthru => "passthru",
        }
    }
}

/// Store construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// I/O path.
    pub kind: BackendKind,
    /// FDP device (placement IDs honored) vs conventional.
    pub fdp: bool,
    /// Device scale relative to the paper's 180 GiB FEMU geometry.
    pub ratio: f64,
    /// Writer shards: the LBA space is carved into N self-similar
    /// sub-layouts, each with its own placement-stream PIDs. N = 1 is the
    /// classic whole-device layout; N > 1 is passthru only.
    pub shards: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            kind: BackendKind::Passthru,
            fdp: true,
            ratio: 1.0 / 16.0,
            shards: 1,
        }
    }
}

/// Either persistence backend behind one concrete type, so the engine
/// (`Db<B>`) can be monomorphic in the server.
pub enum AnyBackend {
    /// Kernel path (boxed: it carries the whole file-system model).
    Kernel(Box<FileBackend>),
    /// SlimIO passthru path (boxed: it carries two rings).
    Passthru(Box<PassthruBackend>),
}

impl AnyBackend {
    /// The underlying emulated device.
    pub fn device(&self) -> &DeviceHandle {
        match self {
            AnyBackend::Kernel(b) => b.fs().device(),
            AnyBackend::Passthru(b) => b.device(),
        }
    }

    /// Snapshots device/FTL/NAND telemetry (one lock acquisition).
    pub fn device_telemetry(&self) -> slimio_nvme::DeviceTelemetry {
        self.device().telemetry()
    }

    /// The Snapshot-Path ring's park / wake-up counts; the kernel path
    /// has no ring.
    pub fn sqpoll_stats(&self) -> Option<Arc<SqPollStats>> {
        match self {
            AnyBackend::Kernel(_) => None,
            AnyBackend::Passthru(b) => Some(b.snapshot_ring_stats()),
        }
    }
}

impl PersistBackend for AnyBackend {
    fn wal_append(&mut self, data: &[u8], now: SimTime) -> Result<IoTiming, BackendError> {
        match self {
            AnyBackend::Kernel(b) => b.wal_append(data, now),
            AnyBackend::Passthru(b) => b.wal_append(data, now),
        }
    }

    fn wal_sync(&mut self, now: SimTime) -> Result<IoTiming, BackendError> {
        match self {
            AnyBackend::Kernel(b) => b.wal_sync(now),
            AnyBackend::Passthru(b) => b.wal_sync(now),
        }
    }

    fn wal_len(&self) -> u64 {
        match self {
            AnyBackend::Kernel(b) => b.wal_len(),
            AnyBackend::Passthru(b) => b.wal_len(),
        }
    }

    fn snapshot_begin(
        &mut self,
        kind: SnapshotKind,
        now: SimTime,
    ) -> Result<IoTiming, BackendError> {
        match self {
            AnyBackend::Kernel(b) => b.snapshot_begin(kind, now),
            AnyBackend::Passthru(b) => b.snapshot_begin(kind, now),
        }
    }

    fn snapshot_chunk(&mut self, data: &[u8], now: SimTime) -> Result<IoTiming, BackendError> {
        match self {
            AnyBackend::Kernel(b) => b.snapshot_chunk(data, now),
            AnyBackend::Passthru(b) => b.snapshot_chunk(data, now),
        }
    }

    fn snapshot_commit(&mut self, now: SimTime) -> Result<IoTiming, BackendError> {
        match self {
            AnyBackend::Kernel(b) => b.snapshot_commit(now),
            AnyBackend::Passthru(b) => b.snapshot_commit(now),
        }
    }

    fn snapshot_abort(&mut self, now: SimTime) -> Result<IoTiming, BackendError> {
        match self {
            AnyBackend::Kernel(b) => b.snapshot_abort(now),
            AnyBackend::Passthru(b) => b.snapshot_abort(now),
        }
    }

    fn load_snapshot(
        &mut self,
        kind: SnapshotKind,
        now: SimTime,
    ) -> Result<(Option<Vec<u8>>, IoTiming), BackendError> {
        match self {
            AnyBackend::Kernel(b) => b.load_snapshot(kind, now),
            AnyBackend::Passthru(b) => b.load_snapshot(kind, now),
        }
    }

    fn load_wal(&mut self, now: SimTime) -> Result<(Vec<u8>, IoTiming), BackendError> {
        match self {
            AnyBackend::Kernel(b) => b.load_wal(now),
            AnyBackend::Passthru(b) => b.load_wal(now),
        }
    }
}

/// Restartable backing storage: the device (and, for the kernel path, the
/// file system) that persists across server lifetimes.
pub struct Store {
    cfg: StoreConfig,
    device: DeviceHandle,
    clock: SharedClock,
    /// Kernel path only: the mounted file system between runs.
    fs: Option<SimFs>,
    /// False until the first [`Store::open`] — first open formats,
    /// subsequent opens recover.
    opened: bool,
}

impl Store {
    /// Builds a store over a fresh live-mode device and a wall clock.
    pub fn new(cfg: StoreConfig) -> Self {
        assert!(cfg.shards >= 1, "at least one shard");
        assert!(
            cfg.shards == 1 || cfg.kind == BackendKind::Passthru,
            "--shards > 1 requires the passthru backend"
        );
        let device = DeviceHandle::new(DeviceConfig::live_with_pids(
            cfg.fdp,
            cfg.ratio,
            PidSet::device_pids(cfg.shards),
        ));
        Store {
            cfg,
            device,
            clock: SharedClock::new_wall(),
            fs: None,
            opened: false,
        }
    }

    /// Configured writer-shard count.
    pub fn shards(&self) -> usize {
        self.cfg.shards
    }

    /// The LBA sub-layout of shard `shard` (passthru).
    fn shard_layout(&self, shard: usize) -> Layout {
        let capacity = self
            .device
            .lock()
            .expect("device mutex poisoned")
            .capacity_blocks();
        let per = capacity / self.cfg.shards as u64;
        Layout::partition_at(shard as u64 * per, per, WAL_FRAC)
    }

    /// The store's wall clock (shared with rings and the server).
    pub fn clock(&self) -> SharedClock {
        self.clock.clone()
    }

    /// Configured I/O path.
    pub fn kind(&self) -> BackendKind {
        self.cfg.kind
    }

    /// True when the device honors placement IDs.
    pub fn fdp(&self) -> bool {
        self.cfg.fdp
    }

    /// The emulated device.
    pub fn device(&self) -> &DeviceHandle {
        &self.device
    }

    /// Opens the store's one backend: formats on first open, recovers
    /// from on-device state on every later open. For single-shard callers
    /// that drive an engine directly; the server uses
    /// [`Store::open_shards`].
    pub fn open(&mut self) -> Result<AnyBackend, BackendError> {
        assert_eq!(self.cfg.shards, 1, "Store::open hands out one backend");
        let backend = self.open_shards()?.pop();
        Ok(backend.expect("one shard, one backend"))
    }

    /// Opens one backend per configured shard: formats each shard's LBA
    /// slice on first open, recovers every slice on later opens. One
    /// shard is the N = 1 case of the same carve-up: its slice is the
    /// whole device and its PIDs are shard 0's.
    pub fn open_shards(&mut self) -> Result<Vec<AnyBackend>, BackendError> {
        // An injected power-cut (or torn write) leaves the device powered
        // off; restarting the server on the same store is the power cycle.
        self.device
            .lock()
            .expect("device mutex poisoned")
            .power_on();
        let mut out = Vec::with_capacity(self.cfg.shards);
        match self.cfg.kind {
            BackendKind::Kernel => {
                let fs = self.fs.take().unwrap_or_else(|| {
                    SimFs::new(
                        self.device.clone(),
                        KernelCosts::default(),
                        FsProfile::f2fs(),
                    )
                });
                let b = if self.opened {
                    FileBackend::remount(fs)?
                } else {
                    FileBackend::new(fs)?
                };
                out.push(AnyBackend::Kernel(Box::new(b)));
            }
            BackendKind::Passthru => {
                for shard in 0..self.cfg.shards {
                    let (device, clock) = (self.device.clone(), self.clock.clone());
                    let (layout, pids) = (self.shard_layout(shard), PidSet::for_shard(shard));
                    let b = if self.opened {
                        PassthruBackend::recover_at(device, clock, layout, pids)?
                    } else {
                        PassthruBackend::new_at(device, clock, layout, pids)
                    };
                    out.push(AnyBackend::Passthru(Box::new(b)));
                }
            }
        }
        self.opened = true;
        Ok(out)
    }

    /// Returns a cleanly shut-down backend to the store.
    pub fn close(&mut self, backend: AnyBackend) {
        if let AnyBackend::Kernel(b) = backend {
            self.fs = Some(b.into_fs());
        }
        // Passthru: dropping the backend drains its rings; durable state
        // already lives on the device.
    }

    /// Returns a backend after a crash (kill -9 equivalent): the kernel
    /// path drops its page cache, the passthru path loses staged ring
    /// state. Only synced bytes survive to the next [`Store::open`].
    pub fn crash(&mut self, backend: AnyBackend) {
        match backend {
            AnyBackend::Kernel(b) => {
                let mut fs = b.into_fs();
                fs.crash();
                self.fs = Some(fs);
            }
            AnyBackend::Passthru(b) => drop(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimio_imdb::{Db, DbConfig, LogPolicy};

    fn tiny_store(kind: BackendKind) -> Store {
        Store::new(StoreConfig {
            kind,
            fdp: kind == BackendKind::Passthru,
            ratio: 1.0 / 128.0,
            shards: 1,
        })
    }

    fn db_cfg() -> DbConfig {
        DbConfig {
            policy: LogPolicy::Always,
            ..DbConfig::default()
        }
    }

    #[test]
    fn open_crash_reopen_recovers_synced_writes() {
        for kind in [BackendKind::Kernel, BackendKind::Passthru] {
            let mut store = tiny_store(kind);
            let backend = store.open().unwrap();
            let mut db = Db::new(backend, db_cfg());
            db.set(b"alpha", b"1", SimTime::ZERO).unwrap();
            db.set(b"beta", b"2", SimTime::ZERO).unwrap();
            store.crash(db.into_backend());

            let backend = store.open().unwrap();
            let (mut db, replayed) = Db::recover(backend, db_cfg(), SimTime::ZERO).unwrap();
            assert_eq!(replayed, 2, "{kind:?}");
            assert_eq!(&*db.get(b"alpha").unwrap(), b"1", "{kind:?}");
            assert_eq!(&*db.get(b"beta").unwrap(), b"2", "{kind:?}");
            store.close(db.into_backend());
        }
    }

    #[test]
    fn clean_close_reopen_preserves_state() {
        for kind in [BackendKind::Kernel, BackendKind::Passthru] {
            let mut store = tiny_store(kind);
            let backend = store.open().unwrap();
            let mut db = Db::new(backend, db_cfg());
            db.set(b"k", b"v", SimTime::ZERO).unwrap();
            store.close(db.into_backend());

            let backend = store.open().unwrap();
            let (mut db, _) = Db::recover(backend, db_cfg(), SimTime::ZERO).unwrap();
            assert_eq!(&*db.get(b"k").unwrap(), b"v", "{kind:?}");
            store.close(db.into_backend());
        }
    }

    /// `2 + snapshot pages + live WAL pages + 128` device page reads per
    /// shard for `Store::open` + `Db::recover`: two metadata pages, each
    /// live page once, and at most one read batch past the durable head.
    /// No clocks: the FTL's page-read counter is the measurement.
    #[test]
    fn restart_reads_each_live_page_once() {
        const PAGE: u64 = slimio_nvme::LBA_BYTES as u64;
        for shards in [1usize, 2] {
            let mut store = Store::new(StoreConfig {
                shards,
                ratio: 1.0 / 128.0,
                ..StoreConfig::default()
            });
            let mut dbs: Vec<_> = store
                .open_shards()
                .unwrap()
                .into_iter()
                .map(|b| Db::new(b, db_cfg()))
                .collect();
            let write = |dbs: &mut Vec<Db<AnyBackend>>, range: std::ops::Range<usize>| {
                for i in range {
                    let key = format!("budget:{i:04}");
                    dbs[i % shards]
                        .set(key.as_bytes(), &[i as u8; 1500], SimTime::ZERO)
                        .unwrap();
                }
            };
            // Shard 0 restarts from a WAL-snapshot plus a tail; any other
            // shard from its log alone.
            write(&mut dbs, 0..120);
            dbs[0]
                .snapshot_run(SnapshotKind::WalSnapshot, SimTime::ZERO)
                .unwrap();
            write(&mut dbs, 120..300);

            let (mut snapshot_pages, mut wal_pages) = (0, 0);
            for db in dbs {
                let AnyBackend::Passthru(b) = db.backend() else {
                    unreachable!("passthru store");
                };
                let snapshot = b.slot_table().len_of(slimio::slots::SlotRole::WalSnapshot);
                snapshot_pages += snapshot.div_ceil(PAGE);
                // A tail in mid-page can make the log straddle one more page.
                wal_pages += b.wal_len().div_ceil(PAGE) + 1;
                store.crash(db.into_backend());
            }
            let budget = shards as u64 * (2 + 128) + snapshot_pages + wal_pages;

            let reads = |store: &Store| store.device().telemetry().reads;
            let before = reads(&store);
            let backends = store.open_shards().unwrap();
            let opened = reads(&store);
            let mut keys = 0;
            for b in backends {
                let (db, _) = Db::recover(b, db_cfg(), SimTime::ZERO).unwrap();
                keys += db.len();
                store.close(db.into_backend());
            }
            assert_eq!(keys, 300, "shards={shards}");
            let after = reads(&store);
            assert!(
                after - before <= budget,
                "shards={shards}: restart read {} pages, budget {budget}",
                after - before
            );
            // Replay consumes what `open` scanned: past it only the snapshot
            // slot is read, never the WAL region again.
            assert_eq!(
                after - opened,
                snapshot_pages,
                "shards={shards}: `Db::recover` read the device beyond the snapshot slot"
            );
        }
    }

    /// `appendfsync everysec` is write + fsync once per interval: what a
    /// timer tick flushed survives a kill on both I/O paths; SETs still
    /// inside the interval may be lost, and what comes back is a prefix.
    /// Virtual time only — `now` is an argument, nothing sleeps.
    #[test]
    fn everysec_tick_makes_what_it_flushed_durable() {
        let cfg = DbConfig {
            policy: LogPolicy::periodical_default(),
            ..DbConfig::default()
        };
        let key = |i: u64| format!("sec:{i:03}").into_bytes();
        for kind in [BackendKind::Kernel, BackendKind::Passthru] {
            let mut store = tiny_store(kind);
            let mut db = Db::new(store.open().unwrap(), cfg);
            for i in 0..50 {
                db.set(&key(i), b"v", SimTime::from_millis(i)).unwrap();
            }
            db.tick(SimTime::from_millis(1_500)).unwrap();
            for i in 50..60 {
                db.set(&key(i), b"v", SimTime::from_millis(1_550 + i))
                    .unwrap();
            }
            store.crash(db.into_backend());

            let (mut db, _) = Db::recover(store.open().unwrap(), cfg, SimTime::ZERO).unwrap();
            let kept = (0..60).take_while(|&i| db.get(&key(i)).is_some()).count();
            assert!(
                kept >= 50,
                "{kind:?}: only {kept} of 50 flushed SETs survived"
            );
            assert_eq!(db.len(), kept, "{kind:?}: recovered state is not a prefix");
            store.close(db.into_backend());
        }
    }
}
