//! The emulated controller: FTL + NAND timing + data plane.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use slimio_des::SimTime;
use slimio_ftl::{Ftl, FtlConfig, FtlError, FtlStats, Lpn, Pid, PlacementMode, WriteResult};
use slimio_nand::{Latencies, NandTimer};

use crate::command::{Completion, DeviceError};
use crate::fault::{FaultAction, FaultPlan, FaultState};
use crate::LBA_BYTES;

/// Device construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct DeviceConfig {
    /// FTL layout and placement mode.
    pub ftl: FtlConfig,
    /// NAND operation latencies.
    pub latencies: Latencies,
    /// Whether to keep page payloads in RAM. The functional stack needs
    /// this; pure timing simulations turn it off to stay allocation-free.
    pub store_data: bool,
    /// Whether Dataset Management (deallocate/TRIM) reaches the FTL.
    /// FEMU's black-box FTL ignores it — invalidation then happens only
    /// by overwrite, which is what ages conventional devices under
    /// generational workloads. Defaults to true (spec-conformant device);
    /// the paper-fidelity experiments turn it off.
    pub honor_deallocate: bool,
}

impl DeviceConfig {
    /// Paper-configured conventional SSD (baseline).
    pub fn conventional(geometry: slimio_nand::Geometry) -> Self {
        DeviceConfig {
            ftl: FtlConfig::conventional(geometry),
            latencies: Latencies::default(),
            store_data: true,
            honor_deallocate: true,
        }
    }

    /// Paper-configured FDP SSD (1 GiB RUs, 8 PIDs).
    pub fn fdp(geometry: slimio_nand::Geometry) -> Self {
        DeviceConfig {
            ftl: FtlConfig::fdp(geometry),
            latencies: Latencies::default(),
            store_data: true,
            honor_deallocate: true,
        }
    }

    /// Tiny device for unit tests.
    pub fn tiny(mode: PlacementMode) -> Self {
        DeviceConfig {
            ftl: FtlConfig::tiny(mode),
            latencies: Latencies::default(),
            store_data: true,
            honor_deallocate: true,
        }
    }

    /// Live-serving device: the paper's FEMU geometry scaled by `ratio`,
    /// with the data plane enabled so real payloads round-trip. FDP mode
    /// shrinks the RU with the device (keeping the 180 GB / 1 GiB ratio)
    /// but never below one block per die, so append points still stripe
    /// across the full die population.
    pub fn live(fdp: bool, ratio: f64) -> Self {
        Self::live_with_pids(fdp, ratio, 8)
    }

    /// [`DeviceConfig::live`] with an explicit PID budget. A sharded
    /// write path dedicates three placement streams to every shard (WAL,
    /// WAL-snapshot, on-demand snapshot) plus the shared metadata stream,
    /// so the device must advertise more than the paper's 8 PIDs once the
    /// shard count grows.
    pub fn live_with_pids(fdp: bool, ratio: f64, max_pids: u8) -> Self {
        let geometry = slimio_nand::Geometry::scaled(ratio);
        let ftl = if fdp {
            let ru_bytes = (((1u64 << 30) as f64 * ratio) as u64)
                .max(geometry.dies() as u64 * geometry.block_bytes())
                .next_power_of_two();
            FtlConfig::fdp_with_ru_pids(geometry, ru_bytes, max_pids)
        } else {
            FtlConfig::conventional(geometry)
        };
        DeviceConfig {
            ftl,
            latencies: Latencies::default(),
            store_data: true,
            honor_deallocate: true,
        }
    }
}

/// The emulated NVMe SSD.
///
/// All methods take the caller's current virtual time and return
/// completion timestamps computed against the internal per-die/per-channel
/// queues — so contention between callers (WAL path vs snapshot path) and
/// GC-induced stalls surface as later `done_at` values, never as blocking.
pub struct NvmeDevice {
    cfg: DeviceConfig,
    ftl: Ftl,
    timer: NandTimer,
    store: Option<HashMap<Lpn, Box<[u8]>>>,
    powered: bool,
    /// Completion time of the latest write, for `Flush` barriers.
    last_write_done: SimTime,
    /// Armed fault schedule; `None` (the default) costs one branch per write.
    fault: Option<FaultState>,
    /// Counters bumped here, under the device lock, and read through a
    /// [`DeviceHandle`](crate::DeviceHandle) without it.
    pub(crate) counters: Arc<Counters>,
}

/// The device's running counters as relaxed atomics: anyone may read
/// them; only the device writes them, with its lock held, so it adds with
/// a load and a store rather than a locked read-modify-write.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    write_commands: AtomicU64,
    wall_stall_ns: AtomicU64,
    gc_passes: AtomicU64,
    host_pages: AtomicU64,
}

impl Counters {
    /// Re-publishes the FTL-owned counts after the FTL may have moved.
    fn mirror(&self, stats: &FtlStats) {
        self.gc_passes.store(stats.gc_passes, Relaxed);
        self.host_pages.store(stats.waf.host_pages(), Relaxed);
    }

    pub(crate) fn load(&self) -> DeviceCounters {
        DeviceCounters {
            write_commands: self.write_commands.load(Relaxed),
            wall_stall_ns: self.wall_stall_ns.load(Relaxed),
            gc_passes: self.gc_passes.load(Relaxed),
            host_pages: self.host_pages.load(Relaxed),
        }
    }
}

/// The counters a running server reads per batch, read without the
/// device lock. Each field is exact as of some instant; fields read
/// together may straddle a command running on another thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeviceCounters {
    /// Write commands accepted since construction (fault-armed or not,
    /// retries included), so harnesses can enumerate crash points of a
    /// recorded workload.
    pub write_commands: u64,
    /// Wall-clock nanoseconds spent stalled in injected `slow@` faults.
    /// The live server reads the delta around a group commit to
    /// attribute the stall to the device-sync stage.
    pub wall_stall_ns: u64,
    /// GC passes (foreground + background) run so far.
    pub gc_passes: u64,
    /// Host pages programmed.
    pub host_pages: u64,
}

/// A consistent snapshot of device/FTL/NAND state for telemetry export.
/// Taken under the device lock so all fields describe the same instant.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DeviceTelemetry {
    /// Live write amplification factor (NAND pages / host pages).
    pub waf: f64,
    /// Host pages programmed.
    pub host_pages: u64,
    /// Pages relocated by garbage collection.
    pub gc_copied_pages: u64,
    /// GC passes (foreground + background) run so far.
    pub gc_passes: u64,
    /// Blocks erased.
    pub erases: u64,
    /// Pages invalidated via Dataset Management (TRIM).
    pub trimmed_pages: u64,
    /// Read commands served by the FTL.
    pub reads: u64,
    /// Total die-busy time across all dies, in simulated nanoseconds.
    pub die_busy_ns: u64,
    /// Wall-clock nanoseconds spent in injected `slow@` device stalls.
    pub wall_stall_ns: u64,
    /// Advertised capacity in bytes.
    pub capacity_bytes: u64,
    /// Reclaim units on the free list.
    pub free_rus: u64,
    /// Logical pages currently mapped.
    pub live_pages: u64,
    /// Write commands accepted since construction.
    pub write_commands: u64,
    /// Per-placement-ID RU occupancy: `(pid, rus_held, valid_pages)` for
    /// every PID owning at least one non-free RU.
    pub ru_occupancy: Vec<(u8, u64, u64)>,
}

impl NvmeDevice {
    /// Builds a powered-on, empty device.
    pub fn new(cfg: DeviceConfig) -> Self {
        NvmeDevice {
            ftl: Ftl::new(cfg.ftl),
            timer: NandTimer::new(cfg.ftl.geometry, cfg.latencies),
            store: cfg.store_data.then(HashMap::new),
            powered: true,
            last_write_done: SimTime::ZERO,
            fault: None,
            counters: Arc::default(),
            cfg,
        }
    }

    /// Advertised capacity in logical blocks.
    pub fn capacity_blocks(&self) -> u64 {
        self.ftl.logical_pages()
    }

    /// Current write amplification factor.
    pub fn waf(&self) -> f64 {
        self.ftl.stats().waf_value()
    }

    /// FTL statistics (GC passes, trims, host/GC page counts).
    pub fn ftl_stats(&self) -> &FtlStats {
        self.ftl.stats()
    }

    fn check_power(&self) -> Result<(), DeviceError> {
        if self.powered {
            Ok(())
        } else {
            Err(DeviceError::PoweredOff)
        }
    }

    /// Cuts power. Subsequent commands fail until [`NvmeDevice::power_on`].
    /// Data already programmed to NAND persists (it is non-volatile); the
    /// I/O-path layers above are responsible for modelling lost in-flight
    /// submissions.
    pub fn power_off(&mut self) {
        self.powered = false;
    }

    /// Restores power.
    pub fn power_on(&mut self) {
        self.powered = true;
    }

    /// Arms a fault plan with a fresh write counter, replacing any armed
    /// plan. Power-cut and torn plans disarm themselves when they fire, so
    /// a post-crash power-on does not re-trigger them.
    pub fn arm_fault(&mut self, plan: FaultPlan) {
        self.fault = Some(FaultState::new(plan));
    }

    /// Disarms the current fault plan, if any.
    pub fn disarm_fault(&mut self) {
        self.fault = None;
    }

    /// The armed fault plan, if any.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.fault.as_ref().map(|f| f.plan())
    }

    /// Snapshots device, FTL, and NAND state for telemetry export.
    pub fn telemetry(&self) -> DeviceTelemetry {
        let stats = self.ftl.stats();
        let counters = self.counters.load();
        DeviceTelemetry {
            waf: stats.waf_value(),
            host_pages: stats.waf.host_pages(),
            gc_copied_pages: stats.waf.gc_copied_pages(),
            gc_passes: stats.gc_passes,
            erases: stats.waf.erases(),
            trimmed_pages: stats.trimmed_pages,
            reads: stats.reads,
            die_busy_ns: self.timer.total_die_busy().as_nanos(),
            wall_stall_ns: counters.wall_stall_ns,
            capacity_bytes: self.capacity_blocks() * LBA_BYTES as u64,
            free_rus: self.ftl.free_rus() as u64,
            live_pages: self.ftl.live_pages(),
            write_commands: counters.write_commands,
            ru_occupancy: self.ftl.pid_occupancy(),
        }
    }

    /// One host page into the FTL, mirrored into the counters whether or
    /// not it succeeds (a failed write may still have run GC passes).
    fn ftl_write(&mut self, lpn: Lpn, pid: Pid) -> Result<WriteResult, FtlError> {
        let res = self.ftl.write(lpn, pid);
        self.counters.mirror(self.ftl.stats());
        res
    }

    /// A torn write: program only the first `keep` payload bytes (boundary
    /// page zero-padded), then cut power. The host never sees a completion
    /// — from its side this is a power cut mid-transfer — so no NAND time
    /// is charged and no `Completion` is produced.
    fn torn_write(
        &mut self,
        lba: Lpn,
        blocks: u64,
        pid: Pid,
        data: Option<&[u8]>,
        keep: usize,
    ) -> Result<Completion, DeviceError> {
        let keep = keep.min(blocks as usize * LBA_BYTES);
        let pages = keep.div_ceil(LBA_BYTES) as u64;
        for i in 0..pages {
            let lpn = lba + i;
            self.ftl_write(lpn, pid)?;
            if let (Some(store), Some(d)) = (self.store.as_mut(), data) {
                let start = i as usize * LBA_BYTES;
                let end = ((i as usize + 1) * LBA_BYTES).min(keep);
                let mut page = vec![0u8; LBA_BYTES];
                page[..end - start].copy_from_slice(&d[start..end]);
                store.insert(lpn, page.into_boxed_slice());
            }
        }
        self.powered = false;
        Err(DeviceError::PoweredOff)
    }

    /// Writes `blocks` logical blocks at `lba` with placement hint `pid`.
    ///
    /// `data`, when provided, must be exactly `blocks * 4096` bytes and is
    /// retained in the data plane (if enabled). GC work the FTL performs to
    /// make room is charged to the NAND dies *before* the host programs,
    /// which is how GC stalls propagate into host-visible latency.
    pub fn write(
        &mut self,
        lba: Lpn,
        blocks: u64,
        pid: Pid,
        data: Option<&[u8]>,
        now: SimTime,
    ) -> Result<Completion, DeviceError> {
        self.check_power()?;
        if let Some(d) = data {
            let expected = blocks as usize * LBA_BYTES;
            if d.len() != expected {
                return Err(DeviceError::PayloadSize {
                    expected,
                    got: d.len(),
                });
            }
        }
        let cmds = &self.counters.write_commands;
        cmds.store(cmds.load(Relaxed) + 1, Relaxed);
        if let Some(fault) = self.fault.as_mut() {
            match fault.on_write() {
                FaultAction::Proceed => {}
                FaultAction::Fail => return Err(DeviceError::Injected),
                FaultAction::PowerCut => {
                    self.fault = None;
                    self.powered = false;
                    return Err(DeviceError::PoweredOff);
                }
                FaultAction::Torn { keep_bytes } => {
                    self.fault = None;
                    return self.torn_write(lba, blocks, pid, data, keep_bytes);
                }
                FaultAction::Slow { per_write_us } => {
                    // Wall-clock stall, not DES cost: only the live server
                    // (overload tests) ever arms slow plans, and stalling
                    // here — with the device lock held — models a device
                    // whose queue the writer thread is stuck behind.
                    std::thread::sleep(std::time::Duration::from_micros(per_write_us));
                    let stall = &self.counters.wall_stall_ns;
                    stall.store(stall.load(Relaxed) + per_write_us * 1_000, Relaxed);
                }
            }
        }
        let mut done = now;
        let mut gc_copied = 0u64;
        let mut gc_erases = 0u64;
        for i in 0..blocks {
            let lpn = lba + i;
            let res = self.ftl_write(lpn, pid)?;
            // Charge GC first: relocations and erases occupy dies, delaying
            // the host program that queued behind them. Victim RUs stripe
            // their blocks across dies, so each die in the stripe absorbs
            // (roughly) one erase per reclaimed RU.
            for pass in &res.gc {
                for copy in &pass.copies {
                    self.timer.copy_page(copy.dst.die, now);
                    gc_copied += 1;
                }
                gc_erases += pass.erased_blocks as u64;
                for b in 0..pass.erased_blocks.min(self.cfg.ftl.geometry.dies()) {
                    let die = b % self.cfg.ftl.geometry.dies();
                    self.timer.erase_block(die, now);
                }
            }
            let t = self.timer.program_page(res.dst.die, now);
            done = done.max(t);
            if let (Some(store), Some(d)) = (self.store.as_mut(), data) {
                let src = &d[i as usize * LBA_BYTES..(i as usize + 1) * LBA_BYTES];
                store.insert(lpn, src.into());
            }
        }
        self.last_write_done = self.last_write_done.max(done);
        Ok(Completion {
            done_at: done,
            gc_copied,
            gc_erases,
        })
    }

    /// Reads `blocks` logical blocks at `lba`. Returns the completion and,
    /// when the data plane is enabled, the payload (unwritten blocks read
    /// as zeroes, matching NVMe deallocated-block behaviour).
    pub fn read(
        &mut self,
        lba: Lpn,
        blocks: u64,
        now: SimTime,
    ) -> Result<(Completion, Option<Vec<u8>>), DeviceError> {
        self.check_power()?;
        let mut done = now;
        let mut out = self
            .store
            .is_some()
            .then(|| vec![0u8; blocks as usize * LBA_BYTES]);
        for i in 0..blocks {
            let lpn = lba + i;
            if let Some(ptr) = self.ftl.read(lpn)? {
                let t = self.timer.read_page(ptr.die, now);
                done = done.max(t);
            }
            if let (Some(buf), Some(store)) = (out.as_mut(), self.store.as_ref()) {
                if let Some(page) = store.get(&lpn) {
                    buf[i as usize * LBA_BYTES..(i as usize + 1) * LBA_BYTES].copy_from_slice(page);
                }
            }
        }
        Ok((
            Completion {
                done_at: done,
                gc_copied: 0,
                gc_erases: 0,
            },
            out,
        ))
    }

    /// Deallocates (trims) a block range. Pure mapping work — no NAND
    /// time. When the device does not honor Dataset Management (FEMU's
    /// FTL), the command completes successfully but invalidates nothing.
    pub fn deallocate(
        &mut self,
        lba: Lpn,
        blocks: u64,
        now: SimTime,
    ) -> Result<Completion, DeviceError> {
        self.check_power()?;
        if !self.cfg.honor_deallocate {
            return Ok(Completion {
                done_at: now,
                gc_copied: 0,
                gc_erases: 0,
            });
        }
        self.ftl.trim_range(lba, blocks)?;
        if let Some(store) = self.store.as_mut() {
            for lpn in lba..lba + blocks {
                store.remove(&lpn);
            }
        }
        Ok(Completion {
            done_at: now,
            gc_copied: 0,
            gc_erases: 0,
        })
    }

    /// Flush barrier: completes when every previously accepted write has
    /// reached the NAND array.
    pub fn flush(&mut self, now: SimTime) -> Result<Completion, DeviceError> {
        self.check_power()?;
        Ok(Completion {
            done_at: now.max(self.last_write_done),
            gc_copied: 0,
            gc_erases: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> NvmeDevice {
        NvmeDevice::new(DeviceConfig::tiny(PlacementMode::Conventional))
    }

    fn page(fill: u8) -> Vec<u8> {
        vec![fill; LBA_BYTES]
    }

    #[test]
    fn write_read_roundtrip_data() {
        let mut dev = tiny();
        let data = page(0xAB);
        dev.write(10, 1, 0, Some(&data), SimTime::ZERO).unwrap();
        let (_, out) = dev.read(10, 1, SimTime::ZERO).unwrap();
        assert_eq!(out.unwrap(), data);
    }

    #[test]
    fn unwritten_blocks_read_zeroes() {
        let mut dev = tiny();
        let (c, out) = dev.read(5, 2, SimTime::ZERO).unwrap();
        assert_eq!(out.unwrap(), vec![0u8; 2 * LBA_BYTES]);
        // No NAND access for unmapped blocks.
        assert_eq!(c.done_at, SimTime::ZERO);
    }

    #[test]
    fn multi_block_write_stripes_dies() {
        let mut dev = tiny();
        let data = vec![7u8; 8 * LBA_BYTES];
        let c = dev.write(0, 8, 0, Some(&data), SimTime::ZERO).unwrap();
        // 8 pages across 4 dies (2 per die): ~2 programs serialized per
        // die, well under 8 serialized programs.
        let serial = SimTime::from_micros(8 * 204);
        assert!(c.done_at < serial, "{:?}", c.done_at);
        let (_, out) = dev.read(0, 8, SimTime::ZERO).unwrap();
        assert_eq!(out.unwrap(), data);
    }

    #[test]
    fn payload_size_mismatch_rejected() {
        let mut dev = tiny();
        let err = dev
            .write(0, 2, 0, Some(&page(1)), SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, DeviceError::PayloadSize { .. }));
    }

    #[test]
    fn flush_waits_for_writes() {
        let mut dev = tiny();
        let c = dev.write(0, 1, 0, Some(&page(1)), SimTime::ZERO).unwrap();
        let f = dev.flush(SimTime::ZERO).unwrap();
        assert_eq!(f.done_at, c.done_at);
        // A flush after everything completed is instantaneous.
        let f2 = dev.flush(c.done_at + SimTime::from_secs(1)).unwrap();
        assert_eq!(f2.done_at, c.done_at + SimTime::from_secs(1));
    }

    #[test]
    fn deallocate_clears_data_and_mapping() {
        let mut dev = tiny();
        dev.write(3, 1, 0, Some(&page(9)), SimTime::ZERO).unwrap();
        dev.deallocate(3, 1, SimTime::ZERO).unwrap();
        let (_, out) = dev.read(3, 1, SimTime::ZERO).unwrap();
        assert_eq!(out.unwrap(), page(0));
        assert_eq!(dev.telemetry().live_pages, 0);
    }

    #[test]
    fn power_off_rejects_commands_but_keeps_data() {
        let mut dev = tiny();
        dev.write(0, 1, 0, Some(&page(5)), SimTime::ZERO).unwrap();
        dev.power_off();
        assert!(matches!(
            dev.write(1, 1, 0, Some(&page(6)), SimTime::ZERO),
            Err(DeviceError::PoweredOff)
        ));
        assert!(matches!(
            dev.read(0, 1, SimTime::ZERO),
            Err(DeviceError::PoweredOff)
        ));
        dev.power_on();
        let (_, out) = dev.read(0, 1, SimTime::ZERO).unwrap();
        assert_eq!(out.unwrap(), page(5));
    }

    #[test]
    fn power_cut_plan_drops_triggering_write_and_powers_off() {
        let mut dev = tiny();
        dev.arm_fault("pc@2".parse().unwrap());
        dev.write(0, 1, 0, Some(&page(1)), SimTime::ZERO).unwrap();
        assert!(matches!(
            dev.write(1, 1, 0, Some(&page(2)), SimTime::ZERO),
            Err(DeviceError::PoweredOff)
        ));
        // The plan consumed itself: power-on does not re-trigger it.
        assert_eq!(dev.fault_plan(), None);
        dev.power_on();
        let (_, out) = dev.read(0, 2, SimTime::ZERO).unwrap();
        let mut expect = page(1);
        expect.extend_from_slice(&page(0)); // write 2 never persisted
        assert_eq!(out.unwrap(), expect);
    }

    #[test]
    fn torn_plan_persists_prefix_only() {
        let mut dev = tiny();
        // Keep one full page plus 100 bytes of a 3-page write.
        dev.arm_fault(format!("torn@1:{}", LBA_BYTES + 100).parse().unwrap());
        let data: Vec<u8> = (0..3 * LBA_BYTES).map(|i| (i % 251) as u8 + 1).collect();
        assert!(matches!(
            dev.write(0, 3, 0, Some(&data), SimTime::ZERO),
            Err(DeviceError::PoweredOff)
        ));
        dev.power_on();
        let (_, out) = dev.read(0, 3, SimTime::ZERO).unwrap();
        let out = out.unwrap();
        assert_eq!(&out[..LBA_BYTES + 100], &data[..LBA_BYTES + 100]);
        assert!(out[LBA_BYTES + 100..].iter().all(|&b| b == 0));
    }

    #[test]
    fn transient_plan_fails_window_then_recovers() {
        let mut dev = tiny();
        dev.arm_fault("fail@2x2".parse().unwrap());
        dev.write(0, 1, 0, Some(&page(1)), SimTime::ZERO).unwrap();
        for _ in 0..2 {
            assert!(matches!(
                dev.write(1, 1, 0, Some(&page(2)), SimTime::ZERO),
                Err(DeviceError::Injected)
            ));
        }
        // Third retry lands past the window; nothing from the failed
        // attempts persisted in the meantime.
        dev.write(1, 1, 0, Some(&page(2)), SimTime::ZERO).unwrap();
        let (_, out) = dev.read(1, 1, SimTime::ZERO).unwrap();
        assert_eq!(out.unwrap(), page(2));
        assert_eq!(dev.telemetry().write_commands, 4);
    }

    #[test]
    fn overwrites_turn_into_gc_eventually() {
        let mut dev = tiny();
        let cap = dev.capacity_blocks();
        let data = page(1);
        let mut saw_gc = false;
        for round in 0..3u64 {
            for lba in 0..cap {
                let c = dev.write(lba, 1, 0, Some(&data), SimTime::ZERO).unwrap();
                saw_gc |= c.gc_erases > 0;
                let _ = round;
            }
        }
        assert!(saw_gc, "three full overwrites must trigger GC");
        assert!(dev.waf() >= 1.0);
    }

    #[test]
    fn gc_stall_delays_host_write() {
        // Compare a write that triggers GC against one that doesn't: the
        // GC-triggering completion must be later (die occupied by erase).
        let mut dev = tiny();
        let cap = dev.capacity_blocks();
        let data = page(2);
        let mut clean_latency = SimTime::ZERO;
        let mut gc_latency = SimTime::ZERO;
        for round in 0..4u64 {
            for lba in 0..cap {
                let c = dev.write(lba, 1, 0, Some(&data), SimTime::ZERO).unwrap();
                if c.gc_erases == 0 && clean_latency == SimTime::ZERO {
                    clean_latency = c.done_at;
                }
                if c.gc_erases > 0 {
                    gc_latency = gc_latency.max(c.done_at);
                }
                let _ = round;
            }
        }
        assert!(
            gc_latency > clean_latency,
            "{gc_latency} <= {clean_latency}"
        );
    }

    #[test]
    fn live_presets_validate_and_store_data() {
        for fdp in [false, true] {
            for ratio in [0.02, 0.05] {
                let cfg = DeviceConfig::live(fdp, ratio);
                assert!(cfg.ftl.validate().is_ok(), "{:?}", cfg.ftl.validate());
                assert!(cfg.store_data && cfg.honor_deallocate);
                let mut dev = NvmeDevice::new(cfg);
                assert!(dev.capacity_blocks() > 0);
                let data = page(0x5A);
                dev.write(0, 1, 0, Some(&data), SimTime::ZERO).unwrap();
                let (_, out) = dev.read(0, 1, SimTime::ZERO).unwrap();
                assert_eq!(out.unwrap(), data);
            }
        }
    }

    #[test]
    fn fdp_device_accepts_pids_and_keeps_waf_one() {
        let mut dev = NvmeDevice::new(DeviceConfig::tiny(PlacementMode::Fdp { max_pids: 4 }));
        let cap = dev.capacity_blocks();
        let wal = cap / 2;
        let data = page(3);
        for _ in 0..4 {
            for lba in 0..wal {
                dev.write(lba, 1, 1, Some(&data), SimTime::ZERO).unwrap();
            }
            dev.deallocate(0, wal, SimTime::ZERO).unwrap();
        }
        assert!((dev.waf() - 1.0).abs() < 1e-12, "WAF {}", dev.waf());
    }
}
