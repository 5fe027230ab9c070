//! The two I/O stacks as lane-timing models.
//!
//! Both stacks drive the *same* emulated NVMe device; they differ only in
//! the path — exactly the paper's experimental control. The baseline
//! ([`KernelPath`]) routes every byte through `slimio-kpath`'s functional
//! file system (syscalls, journal lock, page cache, writeback); SlimIO
//! ([`PassthruPath`]) pays ring-push costs and submits straight to the
//! device with per-stream Placement IDs, with a bounded in-flight window
//! standing in for ring depth (the source of the Figure 4 GC nosedives:
//! when GC stalls the dies, the window fills and the submitter blocks).

use std::collections::VecDeque;

use slimio::layout::Layout;
use slimio::pids;
use slimio::slots::{SlotRole, SlotTable};
use slimio_des::SimTime;
use slimio_kpath::{Fd, FsProfile, KernelCosts, SimFs};
use slimio_nvme::{Command, DeviceHandle, LBA_BYTES};
use slimio_uring::PassthruCosts;

/// Timing of one path operation as seen by the calling lane.
#[derive(Clone, Copy, Debug, Default)]
pub struct LaneTiming {
    /// When the lane may proceed.
    pub done_at: SimTime,
    /// CPU the lane burned inside the call.
    pub cpu: SimTime,
}

/// An I/O path as the system model sees it.
pub trait PathModel {
    /// Writes `bytes` of WAL data (the engine's buffer flush).
    fn wal_append(&mut self, bytes: u64, now: SimTime) -> LaneTiming;
    /// Durability barrier for the WAL.
    fn wal_sync(&mut self, now: SimTime) -> LaneTiming;
    /// WAL bytes accumulated since the last rotation.
    fn wal_len(&self) -> u64;
    /// Starts a snapshot stream (and, for WAL-snapshots, rotates the WAL).
    fn snap_begin(&mut self, rotate_wal: bool, now: SimTime);
    /// Writes `bytes` of snapshot stream on the snapshot lane.
    fn snap_write(&mut self, bytes: u64, now: SimTime) -> LaneTiming;
    /// Seals the snapshot: data durable, previous generation discarded.
    fn snap_commit(&mut self, now: SimTime) -> LaneTiming;
    /// The shared device.
    fn device(&self) -> &DeviceHandle;
    /// Cumulative I/O-path CPU charged to the snapshot lane (Fig. 2a).
    fn snap_io_cpu(&self) -> SimTime;
    /// Cumulative blocking the snapshot lane spent waiting on the device
    /// or throttling (Fig. 2a "SSD" share).
    fn snap_dev_wait(&self) -> SimTime;
    /// File-system write-path CPU charged to the snapshot lane (Table 2;
    /// zero for passthru).
    fn fs_cpu_snapshot(&self) -> SimTime;
}

impl<P: PathModel + ?Sized> PathModel for Box<P> {
    fn wal_append(&mut self, bytes: u64, now: SimTime) -> LaneTiming {
        (**self).wal_append(bytes, now)
    }
    fn wal_sync(&mut self, now: SimTime) -> LaneTiming {
        (**self).wal_sync(now)
    }
    fn wal_len(&self) -> u64 {
        (**self).wal_len()
    }
    fn snap_begin(&mut self, rotate_wal: bool, now: SimTime) {
        (**self).snap_begin(rotate_wal, now)
    }
    fn snap_write(&mut self, bytes: u64, now: SimTime) -> LaneTiming {
        (**self).snap_write(bytes, now)
    }
    fn snap_commit(&mut self, now: SimTime) -> LaneTiming {
        (**self).snap_commit(now)
    }
    fn device(&self) -> &DeviceHandle {
        (**self).device()
    }
    fn snap_io_cpu(&self) -> SimTime {
        (**self).snap_io_cpu()
    }
    fn snap_dev_wait(&self) -> SimTime {
        (**self).snap_dev_wait()
    }
    fn fs_cpu_snapshot(&self) -> SimTime {
        (**self).fs_cpu_snapshot()
    }
}

// ---------------------------------------------------------------------
// Baseline: the traditional kernel path.
// ---------------------------------------------------------------------

/// Baseline stack: WAL and snapshot files on a journaling file system.
pub struct KernelPath {
    fs: SimFs,
    wal_fd: Fd,
    wal_off: u64,
    wal_gen: u64,
    snap: Option<(Fd, u64)>,
    rotate_pending: Option<u64>,
    snap_io_cpu: SimTime,
    snap_dev_wait: SimTime,
    fs_cpu_snapshot: SimTime,
    /// Cumulative time the WAL lane spent throttled on writeback.
    pub wal_throttle: SimTime,
    /// Cumulative time the WAL lane waited for the journal lock.
    pub wal_journal: SimTime,
    /// Cumulative WAL fsync blocking.
    pub wal_sync_wait: SimTime,
}

impl KernelPath {
    /// Mounts the baseline stack with the given FS profile.
    pub fn new(device: DeviceHandle, profile: FsProfile) -> Self {
        let mut fs = SimFs::new(device, KernelCosts::default(), profile);
        let wal_fd = fs.create("wal.000000").expect("create wal");
        KernelPath {
            fs,
            wal_fd,
            wal_off: 0,
            wal_gen: 0,
            snap: None,
            rotate_pending: None,
            snap_io_cpu: SimTime::ZERO,
            snap_dev_wait: SimTime::ZERO,
            fs_cpu_snapshot: SimTime::ZERO,
            wal_throttle: SimTime::ZERO,
            wal_journal: SimTime::ZERO,
            wal_sync_wait: SimTime::ZERO,
        }
    }

    /// The mounted file system (diagnostics).
    pub fn fs(&self) -> &SimFs {
        &self.fs
    }
}

impl PathModel for KernelPath {
    fn wal_append(&mut self, bytes: u64, now: SimTime) -> LaneTiming {
        let o = self
            .fs
            .write(self.wal_fd, self.wal_off, bytes, None, now)
            .expect("wal write");
        self.wal_off += bytes;
        self.wal_throttle += o.throttle_wait;
        self.wal_journal += o.journal_wait;
        LaneTiming {
            done_at: o.done_at,
            cpu: o.syscall_cpu + o.fs_cpu,
        }
    }

    fn wal_sync(&mut self, now: SimTime) -> LaneTiming {
        let o = self.fs.fsync(self.wal_fd, now).expect("wal fsync");
        self.wal_sync_wait += o.done_at.saturating_sub(now);
        LaneTiming {
            done_at: o.done_at,
            cpu: o.syscall_cpu + o.fs_cpu,
        }
    }

    fn wal_len(&self) -> u64 {
        self.wal_off
    }

    fn snap_begin(&mut self, rotate_wal: bool, _now: SimTime) {
        let fd = self.fs.create("snapshot.tmp").expect("create snapshot");
        self.snap = Some((fd, 0));
        if rotate_wal {
            // New WAL generation; the old file is deleted at commit.
            self.rotate_pending = Some(self.wal_gen);
            self.wal_gen += 1;
            self.wal_fd = self
                .fs
                .create(&format!("wal.{:06}", self.wal_gen))
                .expect("rotate wal");
            self.wal_off = 0;
        }
    }

    fn snap_write(&mut self, bytes: u64, now: SimTime) -> LaneTiming {
        let (fd, off) = self.snap.expect("snapshot not begun");
        let o = self
            .fs
            .write(fd, off, bytes, None, now)
            .expect("snap write");
        self.snap = Some((fd, off + bytes));
        let cpu = o.syscall_cpu + o.fs_cpu;
        self.snap_io_cpu += cpu + o.journal_wait;
        self.snap_dev_wait += o.throttle_wait;
        self.fs_cpu_snapshot += o.fs_cpu;
        LaneTiming {
            done_at: o.done_at,
            cpu,
        }
    }

    fn snap_commit(&mut self, now: SimTime) -> LaneTiming {
        let (fd, _) = self.snap.take().expect("snapshot not begun");
        let o = self.fs.fsync(fd, now).expect("snap fsync");
        self.snap_dev_wait += o.done_at.saturating_sub(now);
        self.fs
            .rename("snapshot.tmp", "snapshot.rdb")
            .expect("publish snapshot");
        if let Some(old) = self.rotate_pending.take() {
            self.fs
                .delete(&format!("wal.{old:06}"), o.done_at)
                .expect("prune old wal");
        }
        LaneTiming {
            done_at: o.done_at,
            cpu: o.syscall_cpu,
        }
    }

    fn device(&self) -> &DeviceHandle {
        self.fs.device()
    }

    fn snap_io_cpu(&self) -> SimTime {
        self.snap_io_cpu
    }

    fn snap_dev_wait(&self) -> SimTime {
        self.snap_dev_wait
    }

    fn fs_cpu_snapshot(&self) -> SimTime {
        self.fs_cpu_snapshot
    }
}

// ---------------------------------------------------------------------
// SlimIO: the passthru path.
// ---------------------------------------------------------------------

/// A bounded in-flight window standing in for an SQ of fixed depth.
#[derive(Debug, Default)]
struct Window {
    inflight: VecDeque<SimTime>,
    depth: usize,
}

impl Window {
    fn new(depth: usize) -> Self {
        Window {
            inflight: VecDeque::with_capacity(depth),
            depth,
        }
    }

    /// Records a submission completing at `done`; returns the time the
    /// submitter is released (later than `now` only when the window was
    /// full — ring backpressure).
    fn push(&mut self, now: SimTime, done: SimTime) -> SimTime {
        // Retire completions that are in the past.
        while self.inflight.front().is_some_and(|&t| t <= now) {
            self.inflight.pop_front();
        }
        let mut release = now;
        if self.inflight.len() >= self.depth {
            // Block until the oldest in-flight completes.
            release = self.inflight.pop_front().expect("non-empty");
        }
        self.inflight.push_back(done);
        release
    }

    /// Waits for everything in flight (flush/commit barrier).
    fn drain(&mut self, now: SimTime) -> SimTime {
        let done = self.inflight.back().copied().unwrap_or(now).max(now);
        self.inflight.clear();
        done
    }
}

/// SlimIO stack: WAL-Path and Snapshot-Path rings over raw LBA regions.
pub struct PassthruPath {
    device: DeviceHandle,
    layout: Layout,
    costs: PassthruCosts,
    slots: SlotTable,
    /// Whether to attach FDP placement IDs (false = conventional device
    /// or the Fig. 4 "SlimIO without FDP" middle ground).
    use_pids: bool,
    // WAL region cursors (monotonic bytes).
    wal_head: u64,
    wal_tail: u64,
    fork_tail: u64,
    wal_window: Window,
    // Snapshot stream state.
    snap_role: SlotRole,
    snap_written: u64,
    snap_window: Window,
    rotate_pending: bool,
    snap_io_cpu: SimTime,
    snap_dev_wait: SimTime,
}

impl PassthruPath {
    /// Builds the passthru stack over `device`. `use_pids` selects FDP
    /// tagging (the device must be in FDP mode for the PIDs to matter).
    pub fn new(device: DeviceHandle, ring_depth: usize, use_pids: bool) -> Self {
        let capacity = device
            .lock()
            .expect("device mutex poisoned")
            .capacity_blocks();
        let layout = Layout::default_for(capacity);
        // Formatting: SlimIO owns the LBA space (§4.2), so initialization
        // deallocates it wholesale — an aged device starts clean, exactly
        // like running blkdiscard before mounting a fresh deployment.
        let format = Command::Deallocate {
            lba: 0,
            blocks: capacity,
        };
        let (_, formatted) = device.submit(format, SimTime::ZERO);
        formatted.into_result().expect("format LBA space");
        PassthruPath {
            device,
            layout,
            costs: PassthruCosts::default(),
            slots: SlotTable::default(),
            use_pids,
            wal_head: 0,
            wal_tail: 0,
            fork_tail: 0,
            wal_window: Window::new(ring_depth),
            snap_role: SlotRole::WalSnapshot,
            snap_written: 0,
            snap_window: Window::new(ring_depth),
            rotate_pending: false,
            snap_io_cpu: SimTime::ZERO,
            snap_dev_wait: SimTime::ZERO,
        }
    }

    /// Executes one command on the device; returns its completion time.
    /// Every command stays inside the formatted LBA space, so a failure
    /// is a bug in this path's bookkeeping.
    fn submit(&self, cmd: Command, at: SimTime) -> SimTime {
        let (done, result) = self.device.submit(cmd, at);
        result.into_result().expect("passthru path command");
        done
    }

    /// One timing-only page write at `lba` on stream `pid`.
    fn write_page(&self, lba: u64, pid: slimio_ftl::Pid, at: SimTime) -> SimTime {
        let write = Command::Write {
            lba,
            blocks: 1,
            pid,
            data: None,
        };
        self.submit(write, at)
    }

    /// Selects which slot role the next snapshot publishes to.
    pub fn set_snapshot_role(&mut self, role: SlotRole) {
        self.snap_role = role;
    }

    fn pid(&self, stream: slimio_ftl::Pid) -> slimio_ftl::Pid {
        if self.use_pids {
            stream
        } else {
            0
        }
    }

    /// Submits `pages` device page writes starting at the WAL head. Each
    /// submission is issued at the time the ring window admits it, so the
    /// device sees a paced stream and commands from other queues
    /// interleave fairly (NVMe round-robin arbitration).
    fn submit_wal_pages(&mut self, first_page: u64, pages: u64, now: SimTime) -> SimTime {
        let mut issue = now;
        let pid = self.pid(pids::WAL);
        for p in first_page..first_page + pages {
            let lba = self.layout.wal_lba + p % self.layout.wal_lbas;
            let done = self.write_page(lba, pid, issue);
            issue = issue.max(self.wal_window.push(issue, done));
        }
        issue
    }
}

impl PathModel for PassthruPath {
    fn wal_append(&mut self, bytes: u64, now: SimTime) -> LaneTiming {
        let page = LBA_BYTES as u64;
        let first_incomplete = self.wal_head / page;
        self.wal_head += bytes;
        let complete_end = self.wal_head / page;
        let pages = complete_end.saturating_sub(first_incomplete);
        let cpu = self.costs.submit_sqpoll(pages.max(1));
        let mut done = now + cpu;
        if pages > 0 {
            // Ring backpressure can block the submitter (Fig. 4).
            let release = self.submit_wal_pages(first_incomplete, pages, now);
            done = done.max(release);
        }
        LaneTiming { done_at: done, cpu }
    }

    fn wal_sync(&mut self, now: SimTime) -> LaneTiming {
        let page = LBA_BYTES as u64;
        let cpu = self.costs.submit_enter(1) + self.costs.cqe_reap;
        let mut t = now + cpu;
        if !self.wal_head.is_multiple_of(page) {
            // Rewrite the partial tail page in place.
            let p = self.wal_head / page;
            let lba = self.layout.wal_lba + p % self.layout.wal_lbas;
            let done = self.write_page(lba, self.pid(pids::WAL), now);
            self.wal_window.push(now, done);
        }
        t = t.max(self.wal_window.drain(now));
        LaneTiming { done_at: t, cpu }
    }

    fn wal_len(&self) -> u64 {
        self.wal_head - self.wal_tail
    }

    fn snap_begin(&mut self, rotate_wal: bool, _now: SimTime) {
        self.snap_written = 0;
        self.rotate_pending = rotate_wal;
        self.fork_tail = self.wal_head;
        self.snap_role = if rotate_wal {
            SlotRole::WalSnapshot
        } else {
            SlotRole::OnDemand
        };
    }

    fn snap_write(&mut self, bytes: u64, now: SimTime) -> LaneTiming {
        let page = LBA_BYTES as u64;
        let slot_lba = self.layout.slot_lba(self.slots.reserve());
        let first = self.snap_written / page;
        self.snap_written += bytes;
        let end = self.snap_written / page;
        let pages = end.saturating_sub(first);
        let pid = self.pid(match self.snap_role {
            SlotRole::WalSnapshot => pids::WAL_SNAPSHOT,
            SlotRole::OnDemand => pids::ON_DEMAND,
            SlotRole::Reserve => unreachable!("snapshot role is never Reserve"),
        });
        // SQPOLL submission: ring pushes only, no syscall. Submissions
        // are paced by the ring window so the device queue never holds
        // more than a ring's worth of this stream at once.
        let cpu = self.costs.submit_sqpoll(pages.max(1));
        let mut issue = now;
        for p in first..end {
            let lba = slot_lba + (p % self.layout.slot_lbas);
            let done = self.write_page(lba, pid, issue);
            issue = issue.max(self.snap_window.push(issue, done));
        }
        let done = (now + cpu).max(issue);
        self.snap_io_cpu += cpu;
        self.snap_dev_wait += done.saturating_sub(now + cpu);
        LaneTiming { done_at: done, cpu }
    }

    fn snap_commit(&mut self, now: SimTime) -> LaneTiming {
        let cpu = self.costs.submit_enter(2);
        // 1. Data durable.
        let t_data = self.snap_window.drain(now);
        self.snap_dev_wait += t_data.saturating_sub(now);
        // 2. Promote + metadata page.
        let (_, demoted) = self.slots.promote(self.snap_role, self.snap_written);
        let t_meta = self.write_page(self.layout.meta_lba, self.pid(pids::META), t_data);
        // 3. Deallocate superseded data.
        let page = LBA_BYTES as u64;
        if self.rotate_pending {
            let first_dead = self.wal_tail / page;
            let end_dead = self.fork_tail / page;
            let mut p = first_dead;
            while p < end_dead {
                let slot = p % self.layout.wal_lbas;
                let blocks = (self.layout.wal_lbas - slot).min(end_dead - p);
                let lba = self.layout.wal_lba + slot;
                self.submit(Command::Deallocate { lba, blocks }, t_meta);
                p += blocks;
            }
            self.wal_tail = self.fork_tail;
            self.rotate_pending = false;
        }
        let demoted = Command::Deallocate {
            lba: self.layout.slot_lba(demoted),
            blocks: self.layout.slot_lbas,
        };
        self.submit(demoted, t_meta);
        LaneTiming {
            done_at: t_meta,
            cpu,
        }
    }

    fn device(&self) -> &DeviceHandle {
        &self.device
    }

    fn snap_io_cpu(&self) -> SimTime {
        self.snap_io_cpu
    }

    fn snap_dev_wait(&self) -> SimTime {
        self.snap_dev_wait
    }

    fn fs_cpu_snapshot(&self) -> SimTime {
        SimTime::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimio_ftl::{FtlConfig, PlacementMode};
    use slimio_nand::{Geometry, Latencies};
    use slimio_nvme::DeviceConfig;

    fn timing_device(mode: PlacementMode) -> DeviceHandle {
        let geometry = Geometry::scaled(0.05);
        let ftl = match mode {
            PlacementMode::Conventional => FtlConfig::conventional(geometry),
            PlacementMode::Fdp { .. } => FtlConfig::fdp_with_ru(geometry, 64 * 1024 * 1024),
        };
        DeviceHandle::new(DeviceConfig {
            ftl,
            latencies: Latencies::default(),
            store_data: false,
            honor_deallocate: true,
        })
    }

    #[test]
    fn kernel_wal_append_is_buffered_and_cheap() {
        let dev = timing_device(PlacementMode::Conventional);
        let mut k = KernelPath::new(dev, FsProfile::f2fs());
        let t = k.wal_append(100_000, SimTime::ZERO);
        // Buffered write: CPU-bound microseconds, no NAND wait.
        assert!(t.done_at < SimTime::from_micros(200), "{:?}", t.done_at);
        assert!(t.cpu > SimTime::from_micros(1));
        assert_eq!(k.wal_len(), 100_000);
    }

    #[test]
    fn kernel_sync_waits_for_device() {
        let dev = timing_device(PlacementMode::Conventional);
        let mut k = KernelPath::new(dev, FsProfile::f2fs());
        let t1 = k.wal_append(64 * 1024, SimTime::ZERO);
        let t2 = k.wal_sync(t1.done_at);
        assert!(t2.done_at - t1.done_at >= SimTime::from_micros(200));
    }

    #[test]
    fn kernel_snapshot_rotation_resets_wal_len() {
        let dev = timing_device(PlacementMode::Conventional);
        let mut k = KernelPath::new(dev, FsProfile::f2fs());
        k.wal_append(500_000, SimTime::ZERO);
        k.snap_begin(true, SimTime::ZERO);
        assert_eq!(k.wal_len(), 0);
        k.wal_append(1000, SimTime::ZERO);
        k.snap_write(100_000, SimTime::ZERO);
        let t = k.snap_commit(SimTime::ZERO);
        assert!(t.done_at > SimTime::ZERO);
        assert_eq!(k.wal_len(), 1000);
        assert!(k.fs_cpu_snapshot() > SimTime::ZERO);
    }

    #[test]
    fn passthru_append_is_submission_cost_only() {
        let dev = timing_device(PlacementMode::Fdp { max_pids: 8 });
        let mut p = PassthruPath::new(dev, 256, true);
        let t = p.wal_append(64 * 1024, SimTime::ZERO);
        // 16 SQE pushes ≈ 2.4 µs; never waits for NAND.
        assert!(t.done_at < SimTime::from_micros(20), "{:?}", t.done_at);
        let s = p.wal_sync(t.done_at);
        assert!(s.done_at - t.done_at >= SimTime::from_micros(200));
    }

    #[test]
    fn passthru_cheaper_than_kernel_per_append() {
        let devk = timing_device(PlacementMode::Conventional);
        let devp = timing_device(PlacementMode::Fdp { max_pids: 8 });
        let mut k = KernelPath::new(devk, FsProfile::f2fs());
        let mut p = PassthruPath::new(devp, 256, true);
        let tk = k.wal_append(128 * 1024, SimTime::ZERO);
        let tp = p.wal_append(128 * 1024, SimTime::ZERO);
        assert!(
            tp.cpu < tk.cpu,
            "passthru {:?} must beat kernel {:?}",
            tp.cpu,
            tk.cpu
        );
    }

    #[test]
    fn window_backpressure_blocks_submitter() {
        let mut w = Window::new(4);
        let now = SimTime::ZERO;
        let far = SimTime::from_millis(10);
        for _ in 0..4 {
            assert_eq!(w.push(now, far), now);
        }
        // Fifth submission must wait for the first completion.
        assert_eq!(w.push(now, far), far);
    }

    #[test]
    fn window_retires_completed_entries() {
        let mut w = Window::new(2);
        w.push(SimTime::ZERO, SimTime::from_micros(10));
        w.push(SimTime::ZERO, SimTime::from_micros(20));
        // At t=50 both are done: no blocking.
        let r = w.push(SimTime::from_micros(50), SimTime::from_micros(60));
        assert_eq!(r, SimTime::from_micros(50));
        assert_eq!(w.drain(SimTime::from_micros(50)), SimTime::from_micros(60));
    }

    #[test]
    fn fdp_path_keeps_waf_one_across_rotations() {
        let dev = timing_device(PlacementMode::Fdp { max_pids: 8 });
        let mut p = PassthruPath::new(dev.clone(), 256, true);
        let mut t = SimTime::ZERO;
        for _ in 0..3 {
            // Push a WAL generation's worth of traffic, then rotate.
            for _ in 0..50 {
                let r = p.wal_append(256 * 1024, t);
                t = r.done_at;
            }
            p.snap_begin(true, t);
            for _ in 0..20 {
                let r = p.snap_write(256 * 1024, t);
                t = r.done_at;
            }
            let r = p.snap_commit(t);
            t = r.done_at;
        }
        let waf = dev.telemetry().waf;
        assert!((waf - 1.0).abs() < 1e-9, "WAF {waf}");
    }

    #[test]
    fn conventional_passthru_amplifies_under_rotation_pressure() {
        // SlimIO-without-FDP (Fig. 4): a conventional device interleaves
        // WAL pages (dead at the next rotation) with snapshot pages (alive
        // until the rotation after that) in the same RUs. Generations
        // sized like the paper's (WAL region ≈ 30% of the device, each
        // snapshot ≈ 12%) keep utilization high enough that GC must run
        // while mixed RUs still hold live snapshot pages → relocations.
        let geometry = Geometry::scaled(0.02); // 2 GiB device
        let dev = DeviceHandle::new(DeviceConfig {
            ftl: FtlConfig::conventional(geometry),
            latencies: Latencies::default(),
            store_data: false,
            honor_deallocate: true,
        });
        let mut p = PassthruPath::new(dev.clone(), 1 << 20, false);
        let mut t = SimTime::ZERO;
        let chunk = 256 * 1024u64;
        let wal_gen_bytes = p.layout.wal_bytes() * 8 / 10;
        let snap_bytes = p.layout.slot_bytes() * 9 / 10;
        // Long-lived on-demand snapshot occupying one slot.
        p.snap_begin(false, t);
        let mut w = 0;
        while w < snap_bytes {
            t = p.snap_write(chunk, t).done_at;
            w += chunk;
        }
        t = p.snap_commit(t).done_at;
        // WAL-snapshot generations under pressure. The snapshot is
        // produced *while* WAL traffic continues (as in the real system),
        // so WAL and snapshot pages interleave within the conventional
        // device's RUs — the lifetime mixing §3.1.4 describes.
        for _ in 0..5 {
            let mut w = 0u64;
            while w < wal_gen_bytes / 2 {
                t = p.wal_append(chunk, t).done_at;
                w += chunk;
            }
            p.snap_begin(true, t);
            let mut s = 0u64;
            while s < snap_bytes || w < wal_gen_bytes {
                if s < snap_bytes {
                    t = p.snap_write(chunk, t).done_at;
                    s += chunk;
                }
                if w < wal_gen_bytes {
                    t = p.wal_append(chunk, t).done_at;
                    w += chunk;
                }
            }
            t = p.snap_commit(t).done_at;
        }
        let waf = dev.telemetry().waf;
        assert!(waf > 1.005, "conventional mixing should amplify: WAF {waf}");
    }
}
