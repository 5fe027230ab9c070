//! The two-lane co-simulation: main process × snapshot process.
//!
//! The main lane is Redis's single-threaded event loop serving a
//! closed-loop client population (the paper's 50 redis-benchmark clients /
//! 8 YCSB threads): a client reissues the moment its reply lands, so the
//! server is saturated and per-op latency ≈ clients × service time, with
//! tail spikes wherever the I/O path blocks the loop — WAL flushes,
//! fsyncs, ring backpressure, fork pauses, CoW faults.
//!
//! The snapshot lane is the forked child: iterate, compress
//! (CPU-dominated), write through its own path. The lanes advance
//! whichever is behind in virtual time; they interact only through shared
//! FCFS resources (journal lock, NAND dies) and the CoW state — the same
//! contention surface as the real system.

use slimio_des::{SimTime, Xoshiro256};
use slimio_metrics::{Histogram, Timeline, WafTracker};
use slimio_workload::{OpKind, WorkloadGen};

use crate::cost::CostModel;
use crate::cow::CowState;
use crate::stack::PathModel;

/// WAL durability policy (mirrors `slimio-imdb`'s, duplicated here so the
/// timing model does not depend on the functional engine).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// Buffer; write per event-loop batch; fsync every `interval`
    /// (Redis `everysec`, the paper's Periodical-Log).
    Periodical {
        /// fsync cadence.
        interval: SimTime,
    },
    /// Group-committed write+fsync on every batch (Always-Log).
    Always,
}

/// Model configuration (workload and path are passed to [`SystemModel::new`]).
#[derive(Clone, Copy, Debug)]
pub struct SystemConfig {
    /// Logging policy.
    pub policy: Policy,
    /// WAL bytes that trigger an automatic WAL-snapshot.
    pub wal_snapshot_threshold: u64,
    /// Run an On-Demand snapshot after the measured ops (the paper's
    /// redis-benchmark repetitions end with one).
    pub on_demand_at_end: bool,
    /// Additionally take an On-Demand snapshot every N ops (the paper
    /// repeats the redis-benchmark five times with one OD snapshot per
    /// repetition; multi-rep runs model that with `total_ops / reps`).
    pub od_interval_ops: Option<u64>,
    /// Cost constants.
    pub cost: CostModel,
    /// RPS timeline bucket width.
    pub stats_interval: SimTime,
    /// Snapshot lane batch, in entries, between interleave points.
    pub snap_batch: u64,
    /// Fixed per-entry memory overhead (dict + robj headers).
    pub entry_overhead: u64,
    /// RNG seed for CoW sampling.
    pub seed: u64,
    /// Cap on measured operations (overrides the workload's run length;
    /// 0 + `on_demand_at_end` = the Figure 2 "Snapshot Only" scenario).
    pub ops_limit: Option<u64>,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            policy: Policy::Periodical {
                interval: SimTime::from_secs(1),
            },
            wal_snapshot_threshold: u64::MAX,
            on_demand_at_end: false,
            od_interval_ops: None,
            cost: CostModel::default(),
            stats_interval: SimTime::from_secs(1),
            snap_batch: 1024,
            entry_overhead: 64,
            seed: 0x51_1A10,
            ops_limit: None,
        }
    }
}

/// Everything a run produces.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Operations completed.
    pub ops: u64,
    /// Total simulated duration.
    pub duration: SimTime,
    /// Mean RPS over the whole run (the paper's "Average RPS").
    pub avg_rps: f64,
    /// RPS during non-snapshot periods ("WAL Only").
    pub wal_only_rps: f64,
    /// RPS while a snapshot was running ("WAL&Snapshot").
    pub wal_snap_rps: f64,
    /// SET latency histogram (ns).
    pub set_lat: Histogram,
    /// GET latency histogram (ns).
    pub get_lat: Histogram,
    /// Completed snapshot durations, in order.
    pub snapshot_times: Vec<SimTime>,
    /// Per-snapshot lane-time breakdown fractions
    /// `(in_memory, kernel_io, device_wait)` summing to ≤ 1.
    pub snapshot_breakdown: Vec<(f64, f64, f64)>,
    /// Snapshot write throughput (stored bytes / duration), MB/s, per
    /// snapshot.
    pub snapshot_mbps: Vec<f64>,
    /// WAL flush throughput while each snapshot ran, MB/s.
    pub wal_mbps_during_snap: Vec<f64>,
    /// Resident memory before any snapshot (GB-equivalent bytes).
    pub mem_base: u64,
    /// Peak resident memory (base + CoW retention).
    pub mem_peak: u64,
    /// Device write amplification counters.
    pub waf: WafTracker,
    /// FS write-path CPU / snapshot duration (Table 2; 0 for passthru).
    pub fs_cpu_fraction: f64,
    /// Completed-op rate timeline (Figures 4 and 5).
    pub timeline: Timeline,
    /// GC passes the device ran.
    pub gc_passes: u64,
    /// Simulation events processed (scheduler steps), for events/sec
    /// throughput reporting of the simulator itself.
    pub events: u64,
}

struct SnapJob {
    started: SimTime,
    t: SimTime,
    entries_total: u64,
    entries_done: u64,
    raw_total: u64,
    raw_done: u64,
    stored_carry: f64,
    cpu_spent: SimTime,
    wal_bytes_at_start: u64,
    cow: CowState,
}

/// The co-simulation driver.
pub struct SystemModel<G: WorkloadGen, P: PathModel> {
    cfg: SystemConfig,
    gen: G,
    path: P,
    rng: Xoshiro256,
    // main lane
    now: SimTime,
    ready: std::collections::VecDeque<SimTime>,
    ops_done: u64,
    wal_batch_bytes: u64,
    wal_batch_ops: u32,
    group: Vec<SimTime>, // enqueue times awaiting a group commit
    last_fsync: SimTime,
    wal_flushed_bytes: u64,
    // keyspace
    present: Vec<u64>,
    live_keys: u64,
    mem_base: u64,
    mem_peak: u64,
    // snapshot lane
    snap: Option<SnapJob>,
    // stats
    set_lat: Histogram,
    get_lat: Histogram,
    timeline: Timeline,
    time_wal_only: SimTime,
    ops_wal_only: u64,
    time_wal_snap: SimTime,
    ops_wal_snap: u64,
    last_done: SimTime,
    snapshot_times: Vec<SimTime>,
    snapshot_breakdown: Vec<(f64, f64, f64)>,
    snapshot_mbps: Vec<f64>,
    wal_mbps_during_snap: Vec<f64>,
    snap_io_cpu_mark: SimTime,
    snap_dev_wait_mark: SimTime,
    fs_cpu_total: SimTime,
    snap_total_time: SimTime,
}

impl<G: WorkloadGen, P: PathModel> SystemModel<G, P> {
    /// Builds a model over a workload and an I/O path.
    pub fn new(cfg: SystemConfig, gen: G, path: P) -> Self {
        let clients = gen.clients().max(1);
        let key_space = gen.key_space();
        let mut ready = std::collections::VecDeque::with_capacity(clients as usize);
        for _ in 0..clients {
            ready.push_back(SimTime::ZERO);
        }
        SystemModel {
            rng: Xoshiro256::new(cfg.seed),
            timeline: Timeline::new(cfg.stats_interval.as_nanos()),
            present: vec![0u64; (key_space as usize).div_ceil(64)],
            cfg,
            gen,
            path,
            now: SimTime::ZERO,
            ready,
            ops_done: 0,
            wal_batch_bytes: 0,
            wal_batch_ops: 0,
            group: Vec::new(),
            last_fsync: SimTime::ZERO,
            wal_flushed_bytes: 0,
            live_keys: 0,
            mem_base: 0,
            mem_peak: 0,
            snap: None,
            set_lat: Histogram::new(),
            get_lat: Histogram::new(),
            time_wal_only: SimTime::ZERO,
            ops_wal_only: 0,
            time_wal_snap: SimTime::ZERO,
            ops_wal_snap: 0,
            last_done: SimTime::ZERO,
            snapshot_times: Vec::new(),
            snapshot_breakdown: Vec::new(),
            snapshot_mbps: Vec::new(),
            wal_mbps_during_snap: Vec::new(),
            snap_io_cpu_mark: SimTime::ZERO,
            snap_dev_wait_mark: SimTime::ZERO,
            fs_cpu_total: SimTime::ZERO,
            snap_total_time: SimTime::ZERO,
        }
    }

    /// Pre-populates `records` keys (the YCSB load phase) without timing.
    pub fn preload(&mut self, records: u64) {
        let vlen = self.gen.value_len() as u64;
        for key in 0..records.min(self.gen.key_space()) {
            self.mark_present(key);
        }
        self.mem_base = self.live_keys * (vlen + 8 + self.cfg.entry_overhead);
        self.mem_peak = self.mem_base;
    }

    fn mark_present(&mut self, key: u64) -> bool {
        let w = (key / 64) as usize;
        let bit = 1u64 << (key % 64);
        let new = self.present[w] & bit == 0;
        if new {
            self.present[w] |= bit;
            self.live_keys += 1;
        }
        new
    }

    fn mem_used(&self) -> u64 {
        self.mem_base + self.snap.as_ref().map_or(0, |s| s.cow.retained_bytes())
    }

    fn wal_record_bytes(&self, value_len: u32) -> u64 {
        // len + seq + op + klen + key(8) + vlen + crc framing ≈ 33 bytes.
        value_len as u64 + 33
    }

    /// One main-lane step: serve the next queued client request.
    fn server_step(&mut self) {
        let enqueue = self.ready.pop_front().expect("clients never vanish");
        let op = self.gen.next_op();
        let start = self.now.max(enqueue);
        let mut t = start;

        let is_get = op.kind == OpKind::Get;
        t += self.cfg.cost.cmd_cpu(is_get, op.value_len as u64);

        if !is_get {
            // Keyspace + memory accounting.
            if self.mark_present(op.key) {
                self.mem_base += op.value_len as u64 + 8 + self.cfg.entry_overhead;
            }
            // CoW fault on first touch while a snapshot runs (§2.2).
            if let Some(s) = self.snap.as_mut() {
                let pages = (op.value_len as u64).div_ceil(4096).max(1);
                t += s.cow.on_write(pages, &mut self.rng);
            }
            // WAL buffer append (user-space memcpy).
            let rec = self.wal_record_bytes(op.value_len);
            t += self.cfg.cost.memcpy(rec);
            self.wal_batch_bytes += rec;
            self.wal_batch_ops += 1;
        }

        match self.cfg.policy {
            Policy::Always => {
                if !is_get {
                    self.group.push(enqueue);
                }
                // The event-loop iteration ends — and its group commit
                // fires — when the batch is full OR no further client has
                // a request pending (all are blocked awaiting the fsync).
                let group_full = self.group.len() as u32 >= self.cfg.cost.group_commit_ops
                    || (!self.group.is_empty() && self.ready.is_empty());
                // Commit the group when full, or when a GET is about to
                // be answered after pending writes (read-your-writes).
                if group_full {
                    let a = self.path.wal_append(self.wal_batch_bytes, t);
                    self.wal_flushed_bytes += self.wal_batch_bytes;
                    self.wal_batch_bytes = 0;
                    self.wal_batch_ops = 0;
                    let s = self.path.wal_sync(a.done_at);
                    t = s.done_at;
                    // Every writer in the group completes now.
                    let group = std::mem::take(&mut self.group);
                    for enq in group {
                        let lat = t.saturating_sub(enq);
                        self.record_op(false, lat, t);
                        self.ready.push_back(t);
                    }
                    // The current op (if a GET) completes now too.
                    if is_get {
                        let lat = t.saturating_sub(enqueue);
                        self.record_op(true, lat, t);
                        self.ready.push_back(t);
                    }
                    self.advance_main(t);
                    return;
                }
                if is_get {
                    let lat = t.saturating_sub(enqueue);
                    self.record_op(true, lat, t);
                    self.ready.push_back(t);
                    self.advance_main(t);
                    return;
                }
                // SET waiting for its group: client is replied to only at
                // commit; its completion is recorded then. The server
                // moves on.
                self.advance_main(t);
            }
            Policy::Periodical { interval } => {
                // Event-loop batch write of the AOF buffer.
                if self.wal_batch_ops >= self.cfg.cost.wal_write_batch_ops {
                    let a = self.path.wal_append(self.wal_batch_bytes, t);
                    self.wal_flushed_bytes += self.wal_batch_bytes;
                    self.wal_batch_bytes = 0;
                    self.wal_batch_ops = 0;
                    if std::env::var_os("SLIMIO_TRACE").is_some()
                        && a.done_at.saturating_sub(t) > SimTime::from_millis(10)
                    {
                        eprintln!(
                            "TRACE wal_append stall {:?} at t={:?} (cpu {:?})",
                            a.done_at.saturating_sub(t),
                            t,
                            a.cpu
                        );
                    }
                    t = a.done_at;
                }
                // Background fsync cadence (does not block the loop; the
                // journal/device time it consumes still contends).
                if self.now.saturating_sub(self.last_fsync) >= interval {
                    self.last_fsync = self.now;
                    let _ = self.path.wal_sync(t);
                }
                let lat = t.saturating_sub(enqueue);
                self.record_op(is_get, lat, t);
                self.ready.push_back(t);
                self.advance_main(t);
            }
        }
        self.maybe_start_wal_snapshot();
    }

    fn advance_main(&mut self, t: SimTime) {
        // Phase attribution of wall time.
        let dt = t.saturating_sub(self.last_done);
        if self.snap.is_some() {
            self.time_wal_snap += dt;
        } else {
            self.time_wal_only += dt;
        }
        self.last_done = t;
        self.now = t;
        self.ops_done += 1;
        if self.snap.is_some() {
            self.ops_wal_snap += 1;
        } else {
            self.ops_wal_only += 1;
        }
        self.mem_peak = self.mem_peak.max(self.mem_used());
    }

    fn record_op(&mut self, is_get: bool, lat: SimTime, done: SimTime) {
        if is_get {
            self.get_lat.record(lat.as_nanos());
        } else {
            self.set_lat.record(lat.as_nanos());
        }
        self.timeline.add(done.as_nanos(), 1);
    }

    fn maybe_start_wal_snapshot(&mut self) {
        if self.snap.is_some() {
            return;
        }
        if let Some(interval) = self.cfg.od_interval_ops {
            if self.ops_done > 0 && self.ops_done.is_multiple_of(interval) {
                self.start_snapshot(false);
                return;
            }
        }
        if self.path.wal_len() >= self.cfg.wal_snapshot_threshold {
            self.start_snapshot(true);
        }
    }

    fn start_snapshot(&mut self, is_wal_snapshot: bool) {
        debug_assert!(self.snap.is_none());
        // fork(): the main loop stalls for the page-table copy.
        let pause = self.cfg.cost.fork_pause(self.mem_base);
        self.now += pause;
        self.last_done = self.now;
        self.path.snap_begin(is_wal_snapshot, self.now);
        self.snap_io_cpu_mark = self.path.snap_io_cpu();
        self.snap_dev_wait_mark = self.path.snap_dev_wait();
        let raw_total = self.live_keys * self.gen.value_len() as u64;
        self.snap = Some(SnapJob {
            started: self.now,
            t: self.now,
            entries_total: self.live_keys,
            entries_done: 0,
            raw_total,
            raw_done: 0,
            stored_carry: 0.0,
            cpu_spent: SimTime::ZERO,
            wal_bytes_at_start: self.wal_flushed_bytes,
            cow: CowState::new(self.mem_base, self.cfg.cost.cow_page_copy),
        });
    }

    /// One snapshot-lane step.
    fn snapshot_step(&mut self, parent_active: bool) {
        let Some(s) = self.snap.as_mut() else {
            return;
        };
        let n = self.cfg.snap_batch.min(s.entries_total - s.entries_done);
        if n > 0 {
            let raw = n * (s.raw_total / s.entries_total.max(1));
            s.entries_done += n;
            s.raw_done += raw;
            s.stored_carry += raw as f64 * self.cfg.cost.compress_ratio;
            let stored = s.stored_carry as u64;
            s.stored_carry -= stored as f64;
            // Write first, at the lane's current (lagging) time, so that
            // shared resources (journal lock, NAND dies) are touched in
            // global time order — the co-sim invariant. Physically this is
            // the pipelined child: batch k streams out while batch k+1 is
            // being compressed. The baseline's blocking write() still
            // serializes because its done_at feeds the compression below.
            let w = self.path.snap_write(stored, s.t);
            s.t = w.done_at;
            let cpu = self.cfg.cost.snap_cpu(n, raw, parent_active);
            s.cpu_spent += cpu;
            s.t += cpu;
        }
        if s.entries_done >= s.entries_total {
            let c = self.path.snap_commit(s.t);
            let s = self.snap.take().expect("present");
            let end = c.done_at;
            let duration = end.saturating_sub(s.started);
            self.snapshot_times.push(duration);
            // Fig. 2a breakdown: in-memory vs kernel path vs device.
            let io_cpu = self
                .path
                .snap_io_cpu()
                .saturating_sub(self.snap_io_cpu_mark);
            let dev = self
                .path
                .snap_dev_wait()
                .saturating_sub(self.snap_dev_wait_mark);
            let d = duration.as_nanos().max(1) as f64;
            self.snapshot_breakdown.push((
                s.cpu_spent.as_nanos() as f64 / d,
                io_cpu.as_nanos() as f64 / d,
                dev.as_nanos() as f64 / d,
            ));
            let stored_total = s.raw_done as f64 * self.cfg.cost.compress_ratio;
            self.snapshot_mbps
                .push(stored_total / 1e6 / duration.as_secs_f64().max(1e-9));
            let wal_bytes = self.wal_flushed_bytes - s.wal_bytes_at_start;
            self.wal_mbps_during_snap
                .push(wal_bytes as f64 / 1e6 / duration.as_secs_f64().max(1e-9));
            self.snap_total_time += duration;
            // Release CoW memory.
            self.mem_peak = self.mem_peak.max(self.mem_base + s.cow.retained_bytes());
        }
    }

    /// Runs like [`SystemModel::run`] but also hands back the path model
    /// so callers can read stack-specific diagnostics.
    pub fn run_keep_path(self) -> (RunResult, P) {
        let mut me = self;
        let r = me.run_inner();
        (r, me.path)
    }

    /// Runs the workload to completion (plus trailing snapshots).
    pub fn run(mut self) -> RunResult {
        self.run_inner()
    }

    fn run_inner(&mut self) -> RunResult {
        let total = self
            .cfg
            .ops_limit
            .unwrap_or(u64::MAX)
            .min(self.gen.total_ops());
        let mut events = 0u64;
        while self.ops_done < total || self.snap.is_some() {
            events += 1;
            let snap_t = self.snap.as_ref().map(|s| s.t);
            match snap_t {
                Some(st) if st <= self.now || self.ops_done >= total => {
                    let parent_active = self.ops_done < total;
                    self.snapshot_step(parent_active);
                }
                _ if self.ops_done < total => self.server_step(),
                _ => unreachable!("loop condition guarantees work exists"),
            }
        }
        // Final flush of any straggling WAL bytes.
        if self.wal_batch_bytes > 0 {
            let a = self.path.wal_append(self.wal_batch_bytes, self.now);
            self.wal_flushed_bytes += self.wal_batch_bytes;
            self.wal_batch_bytes = 0;
            self.now = a.done_at;
        }
        // Any writers still waiting on a never-filled group commit.
        if !self.group.is_empty() {
            let s = self.path.wal_sync(self.now);
            let t = s.done_at;
            let group = std::mem::take(&mut self.group);
            for enq in group {
                let lat = t.saturating_sub(enq);
                self.record_op(false, lat, t);
            }
            self.now = t;
        }
        if self.cfg.on_demand_at_end {
            self.start_snapshot(false);
            while self.snap.is_some() {
                self.snapshot_step(false);
            }
            if let Some(s) = self.snap.as_ref() {
                self.now = self.now.max(s.t);
            }
            self.now = self.now.max(self.last_done);
        }
        self.fs_cpu_total = self.path.fs_cpu_snapshot();

        let duration = self
            .now
            .max(self.snapshot_times.iter().fold(SimTime::ZERO, |a, _| a));
        let (waf, gc_passes) = {
            let dev = self.path.device().lock().expect("device mutex poisoned");
            (dev.ftl_stats().waf.clone(), dev.ftl_stats().gc_passes)
        };
        RunResult {
            ops: self.ops_done,
            duration,
            avg_rps: self.ops_done as f64 / duration.as_secs_f64().max(1e-9),
            wal_only_rps: self.ops_wal_only as f64 / self.time_wal_only.as_secs_f64().max(1e-9),
            wal_snap_rps: self.ops_wal_snap as f64 / self.time_wal_snap.as_secs_f64().max(1e-9),
            set_lat: std::mem::take(&mut self.set_lat),
            get_lat: std::mem::take(&mut self.get_lat),
            snapshot_times: std::mem::take(&mut self.snapshot_times),
            snapshot_breakdown: std::mem::take(&mut self.snapshot_breakdown),
            snapshot_mbps: std::mem::take(&mut self.snapshot_mbps),
            wal_mbps_during_snap: std::mem::take(&mut self.wal_mbps_during_snap),
            mem_base: self.mem_base,
            mem_peak: self.mem_peak,
            waf,
            fs_cpu_fraction: if self.snap_total_time > SimTime::ZERO {
                self.fs_cpu_total.as_nanos() as f64 / self.snap_total_time.as_nanos() as f64
            } else {
                0.0
            },
            timeline: std::mem::replace(&mut self.timeline, Timeline::new(1)),
            gc_passes,
            events,
        }
    }
}

#[cfg(test)]
mod dbg_tests {
    use super::*;
    use crate::stack::{LaneTiming, PathModel};
    use slimio_nvme::DeviceHandle;

    struct StubPath {
        dev: DeviceHandle,
        wal: u64,
    }
    impl PathModel for StubPath {
        fn wal_append(&mut self, bytes: u64, now: SimTime) -> LaneTiming {
            self.wal += bytes;
            LaneTiming {
                done_at: now + SimTime::from_micros(2),
                cpu: SimTime::from_micros(2),
            }
        }
        fn wal_sync(&mut self, now: SimTime) -> LaneTiming {
            LaneTiming {
                done_at: now + SimTime::from_micros(200),
                cpu: SimTime::from_micros(5),
            }
        }
        fn wal_len(&self) -> u64 {
            self.wal
        }
        fn snap_begin(&mut self, _r: bool, _n: SimTime) {
            self.wal = 0;
        }
        fn snap_write(&mut self, _b: u64, now: SimTime) -> LaneTiming {
            LaneTiming {
                done_at: now + SimTime::from_micros(100),
                cpu: SimTime::from_micros(10),
            }
        }
        fn snap_commit(&mut self, now: SimTime) -> LaneTiming {
            LaneTiming {
                done_at: now,
                cpu: SimTime::ZERO,
            }
        }
        fn device(&self) -> &DeviceHandle {
            &self.dev
        }
        fn snap_io_cpu(&self) -> SimTime {
            SimTime::ZERO
        }
        fn snap_dev_wait(&self) -> SimTime {
            SimTime::ZERO
        }
        fn fs_cpu_snapshot(&self) -> SimTime {
            SimTime::ZERO
        }
    }

    #[test]
    fn ops_continue_during_snapshots() {
        let dev = DeviceHandle::new(slimio_nvme::DeviceConfig::tiny(
            slimio_ftl::PlacementMode::Conventional,
        ));
        let gen = slimio_workload::RedisBench::new(slimio_workload::Scale::ratio(0.002), 1);
        let cfg = SystemConfig {
            wal_snapshot_threshold: 10_000_000, // ~10MB -> several rotations
            ..SystemConfig::default()
        };
        let model = SystemModel::new(cfg, gen, StubPath { dev, wal: 0 });
        let r = model.run();
        eprintln!(
            "snaps={} walOnly={} walSnap={} opsSnapPhase~{}",
            r.snapshot_times.len(),
            r.wal_only_rps,
            r.wal_snap_rps,
            r.wal_snap_rps
                * r.snapshot_times
                    .iter()
                    .map(|t| t.as_secs_f64())
                    .sum::<f64>()
        );
        assert!(!r.snapshot_times.is_empty());
        assert!(
            r.wal_snap_rps > 0.3 * r.wal_only_rps,
            "main lane starved during snapshots: {} vs {}",
            r.wal_snap_rps,
            r.wal_only_rps
        );
    }
}
