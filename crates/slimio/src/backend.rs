//! The SlimIO persistence backend: per-path rings + LBA space management.
//!
//! Implements [`slimio_imdb::backend::PersistBackend`] so the unmodified
//! engine (`slimio-imdb`) runs on top — mirroring the paper's claim that
//! Redis's logging policy and snapshot format are preserved while only the
//! I/O path changes (§4.1).
//!
//! Topology (Figure 3): the **WAL-Path** is an enter-driven ring used by
//! the main process — submission costs one SQE push plus an amortized
//! `io_uring_enter`; completions are harvested by a dedicated handler
//! (modeled by opportunistic reaps). The **Snapshot-Path** is an SQPOLL
//! ring: a poller thread drains the SQ, so the snapshot process submits
//! with a ring push — plus one wake-up if the poller went to sleep, which
//! it does a short grace after the last entry (the real SQPOLL contract:
//! no syscall while a snapshot streams, no CPU between snapshots). Both
//! rings target the same emulated NVMe device; every write carries its
//! stream's Placement ID (§4.3).
//!
//! The file reads top to bottom as: constants → construction ([`build`]
//! is the one constructor body) → the one write path ([`submit_writes`])
//! → the one read path ([`read_pages`]) and the WAL scan over it → the
//! nine [`PersistBackend`] methods, each a few lines over those helpers.
//!
//! [`build`]: PassthruBackend::build
//! [`submit_writes`]: PassthruBackend::submit_writes

use std::sync::Arc;

use slimio_des::SimTime;
use slimio_ftl::Pid;
use slimio_imdb::backend::{BackendError, IoTiming, PersistBackend, SnapshotKind};
use slimio_imdb::wal::{self as walcodec, WalDecodeError};
use slimio_nvme::{DeviceError, DeviceHandle, LBA_BYTES};
use slimio_uring::{
    Cqe, CqeResult, IoUring, PassthruCosts, RingError, RingMode, SharedClock, SqPollStats, Sqe,
    SqeOp,
};

use crate::layout::{Layout, META_LBAS};
use crate::metadata::{pick_newest, MetaRecord};
use crate::pids::PidSet;
use crate::slots::{SlotRole, SlotTable};
use crate::wal_log::{PageWrite, WalLog};

const PAGE: u64 = LBA_BYTES as u64;

/// SQ depth of each ring.
const RING_DEPTH: usize = 256;

/// Bounded re-drives of a transiently failed write — the completion
/// handler's requeue. Mirrors the kernel path's block-layer retry bound.
const WRITE_RETRIES: usize = 64;

/// Longest contiguous run of pages folded into one write SQE (bounds the
/// gather copy).
const MAX_RUN: usize = 64;

/// Pages per read command on the restart path (512 KiB): large batched
/// passthru reads instead of one syscall per `read()` through the page
/// cache (§5.3, Table 5).
const READ_BATCH: u64 = 128;

struct SnapState {
    kind: SnapshotKind,
    slot: usize,
    staged: Vec<u8>,
    written_pages: u64,
    stream_bytes: u64,
    fork_tail: u64,
}

/// The SlimIO backend.
pub struct PassthruBackend {
    clock: SharedClock,
    /// CPU cost constants for ring operations.
    costs: PassthruCosts,
    layout: Layout,
    pids: PidSet,
    wal_ring: IoUring,
    snap_ring: IoUring,
    wal: WalLog,
    slots: SlotTable,
    epoch: u64,
    snap: Option<SnapState>,
    /// The validated `[tail, head)` bytes the restart scan read. The first
    /// [`PersistBackend::load_wal`] hands them over instead of reading the
    /// device again; anything that moves the head or the tail drops them.
    recovered_wal: Option<Vec<u8>>,
}

fn role_of(kind: SnapshotKind) -> SlotRole {
    match kind {
        SnapshotKind::WalSnapshot => SlotRole::WalSnapshot,
        SnapshotKind::OnDemand => SlotRole::OnDemand,
    }
}

fn pid_of(pids: PidSet, kind: SnapshotKind) -> Pid {
    match kind {
        SnapshotKind::WalSnapshot => pids.wal_snapshot,
        SnapshotKind::OnDemand => pids.on_demand,
    }
}

/// Handles one CQE. A write the device failed transiently comes back in
/// its CQE and is re-driven synchronously on the device (bounded); every
/// other error surfaces.
fn absorb_cqe(device: &DeviceHandle, cqe: Cqe) -> Result<SimTime, BackendError> {
    let (mut t, mut result) = (cqe.completed_at, cqe.result);
    for _ in 0..WRITE_RETRIES {
        let CqeResult::Requeue(cmd) = result else {
            break;
        };
        (t, result) = device.submit(*cmd, t);
    }
    result
        .into_result()
        .map(|_| t)
        .map_err(BackendError::Device)
}

/// The backend's one device reader. Fetches `pages` pages starting at
/// page `first` of the circular region `(lba, lbas)` into `buf`,
/// [`READ_BATCH`] pages per command, each command clamped at the region's
/// wrap. After every batch `more(buf)` says whether to go on, so the WAL
/// scan stops at the durable head instead of the region's end. Returns
/// the last completion time; a device without a data plane leaves `buf`
/// untouched.
fn read_pages(
    device: &DeviceHandle,
    (lba, lbas): (u64, u64),
    first: u64,
    pages: u64,
    now: SimTime,
    buf: &mut Vec<u8>,
    mut more: impl FnMut(&[u8]) -> bool,
) -> Result<SimTime, DeviceError> {
    let (mut p, end, mut t) = (first, first + pages, now);
    while p < end {
        let at = p % lbas;
        let run = READ_BATCH.min(end - p).min(lbas - at);
        let read = SqeOp::Read {
            lba: lba + at,
            blocks: run,
        };
        let (done, result) = device.submit(read, t);
        let data = result.into_result()?;
        t = t.max(done);
        p += run;
        let Some(data) = data else { break };
        buf.extend_from_slice(&data);
        if !more(buf) {
            break;
        }
    }
    Ok(t)
}

/// Reads the log from `tail`'s page on and finds the durable head:
/// records are accepted while they parse, their CRCs hold and their
/// sequence numbers strictly increase — a torn tail, deallocated zeroes
/// and a previous lap's stale data all end the scan. Returns the bytes
/// from the tail's page floor up to the head, and the completion time.
fn scan_wal(
    device: &DeviceHandle,
    layout: &Layout,
    tail: u64,
    now: SimTime,
) -> Result<(Vec<u8>, SimTime), DeviceError> {
    let skip = (tail % PAGE) as usize;
    // The log never fills its region: one page stays slack (`WalLog::append`).
    let max_live = (layout.wal_bytes() - PAGE) as usize;
    let pages = (skip + max_live).div_ceil(LBA_BYTES) as u64;
    let region = (layout.wal_lba, layout.wal_lbas);
    let (mut live, mut last_seq) = (0usize, None);
    let mut buf = Vec::new();
    let scan = |buf: &[u8]| loop {
        let rest = &buf[skip + live..];
        match walcodec::decode_ref(rest) {
            Ok((rec, used)) if last_seq.is_none_or(|s| rec.seq > s) => {
                last_seq = Some(rec.seq);
                live += used;
            }
            // The record continues in pages not read yet — unless the
            // length it declares cannot fit in what is left of the region.
            Err(WalDecodeError::Truncated) => {
                return rest
                    .first_chunk()
                    .is_none_or(|len| live + 4 + u32::from_le_bytes(*len) as usize <= max_live);
            }
            _ => return false,
        }
    };
    let t = read_pages(device, region, tail / PAGE, pages, now, &mut buf, scan)?;
    buf.resize(skip + live, 0);
    Ok((buf, t))
}

impl PassthruBackend {
    /// Creates a backend over a fresh device, taking the whole LBA space.
    pub fn new(device: DeviceHandle, clock: SharedClock) -> Self {
        let capacity = device
            .lock()
            .expect("device mutex poisoned")
            .capacity_blocks();
        let layout = Layout::default_for(capacity);
        Self::new_at(device, clock, layout, PidSet::for_shard(0))
    }

    /// Creates a backend over a caller-chosen LBA sub-range of a fresh
    /// device, tagging its streams with `pids`. One sharded server runs N
    /// of these over one device; each formats (deallocates) only its own
    /// slice — use [`PassthruBackend::recover_at`] to adopt existing state
    /// instead. The caller is responsible for handing out disjoint layouts.
    pub fn new_at(device: DeviceHandle, clock: SharedClock, layout: Layout, pids: PidSet) -> Self {
        let blocks = layout.end_lba() - layout.meta_lba;
        let format = SqeOp::Deallocate {
            lba: layout.meta_lba,
            blocks,
        };
        let (_, formatted) = device.submit(format, SimTime::ZERO);
        formatted.into_result().expect("format LBA range");
        let wal = WalLog::new(layout.wal_lba, layout.wal_lbas);
        Self::build(device, clock, layout, pids, wal, SlotTable::default(), 0)
    }

    fn build(
        device: DeviceHandle,
        clock: SharedClock,
        layout: Layout,
        pids: PidSet,
        wal: WalLog,
        slots: SlotTable,
        epoch: u64,
    ) -> Self {
        PassthruBackend {
            wal_ring: IoUring::new(device.clone(), clock.clone(), RING_DEPTH, RingMode::Enter),
            snap_ring: IoUring::new(device, clock.clone(), RING_DEPTH, RingMode::SqPoll),
            clock,
            costs: PassthruCosts::default(),
            layout,
            pids,
            wal,
            slots,
            epoch,
            snap: None,
            recovered_wal: None,
        }
    }

    /// Rebuilds a backend from a device that already holds SlimIO state —
    /// the §4.2 recovery procedure over the whole LBA space.
    pub fn recover(device: DeviceHandle, clock: SharedClock) -> Result<Self, BackendError> {
        let capacity = device
            .lock()
            .expect("device mutex poisoned")
            .capacity_blocks();
        let layout = Layout::default_for(capacity);
        Self::recover_at(device, clock, layout, PidSet::for_shard(0))
    }

    /// [`PassthruBackend::recover`] over a caller-chosen LBA sub-range —
    /// the shard-recovery entry point. `layout` must match the one the
    /// shard was created with. Reads the metadata region for the slot
    /// roles and the WAL tail, then scans the WAL region forward from the
    /// tail to the durable head — once: the scanned bytes are kept for the
    /// engine's replay.
    pub fn recover_at(
        device: DeviceHandle,
        clock: SharedClock,
        layout: Layout,
        pids: PidSet,
    ) -> Result<Self, BackendError> {
        let (region, t0, mut pages) = ((layout.meta_lba, META_LBAS), SimTime::ZERO, Vec::new());
        read_pages(&device, region, 0, META_LBAS, t0, &mut pages, |_| true)?;
        let meta = pages
            .split_at_checked(LBA_BYTES)
            .and_then(|(a, b)| pick_newest(a, b))
            .unwrap_or_default();
        let tail = meta.wal_tail;
        let (mut log, _) = scan_wal(&device, &layout, tail, t0)?;
        // `log` starts at the tail's page floor, which is never later than
        // the head's: its last `head % PAGE` bytes are the staged partial page.
        let head = tail - tail % PAGE + log.len() as u64;
        let partial = log[log.len() - (head % PAGE) as usize..].to_vec();
        let wal = WalLog::restore(layout.wal_lba, layout.wal_lbas, tail, head, partial);
        let slots = SlotTable::from_meta(meta.roles, meta.slot_len);
        let mut backend = Self::build(device, clock, layout, pids, wal, slots, meta.epoch);
        log.drain(..(tail % PAGE) as usize);
        backend.recovered_wal = Some(log);
        Ok(backend)
    }

    /// The LBA layout in use.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The placement-stream PIDs this backend writes with.
    pub fn pids(&self) -> PidSet {
        self.pids
    }

    /// The device both rings submit to.
    pub fn device(&self) -> &DeviceHandle {
        self.wal_ring.device()
    }

    /// Current slot table (diagnostics).
    pub fn slot_table(&self) -> &SlotTable {
        &self.slots
    }

    /// How often the Snapshot-Path ring's poller went to sleep and was
    /// woken; shareable with a telemetry thread.
    pub fn snapshot_ring_stats(&self) -> Arc<SqPollStats> {
        Arc::clone(self.snap_ring.sqpoll_stats())
    }

    /// Submits one operation to a ring, draining it on backpressure.
    fn submit(ring: &mut IoUring, op: SqeOp, now: SimTime) -> Result<(), BackendError> {
        // No cookie: a completion carries all a re-drive needs.
        let mut sqe = Sqe {
            user_data: 0,
            op,
            submitted_at: now,
        };
        loop {
            match ring.submit(sqe) {
                Ok(()) => return Ok(()),
                Err(RingError::SqFull(back)) => {
                    sqe = *back;
                    ring.enter();
                    Self::reap(ring)?;
                    std::thread::yield_now();
                }
            }
        }
    }

    /// The one write path — WAL pages, the sync page, the metadata page
    /// and snapshot pages all go through it. Contiguous-LBA runs coalesce
    /// into one multi-block SQE each (the `writev` shape), so a
    /// group-committed batch or a snapshot chunk reaches the device as a
    /// handful of commands instead of one per page. Fault plans count
    /// these commands: what the crash matrix enumerates is what ships.
    fn submit_writes(
        ring: &mut IoUring,
        mut pages: Vec<PageWrite>,
        pid: Pid,
        now: SimTime,
    ) -> Result<(), BackendError> {
        let runs = pages
            .chunk_by_mut(|a, b| b.lba == a.lba + 1)
            .flat_map(|run| run.chunks_mut(MAX_RUN));
        for run in runs {
            let data = if let [page] = run {
                std::mem::take(&mut page.data)
            } else {
                let mut gather = Vec::with_capacity(run.len() * LBA_BYTES);
                for page in run.iter() {
                    gather.extend_from_slice(&page.data);
                }
                gather.into_boxed_slice()
            };
            let op = SqeOp::Write {
                lba: run[0].lba,
                blocks: run.len() as u64,
                pid,
                data: Some(data),
            };
            Self::submit(ring, op, now)?;
        }
        Ok(())
    }

    /// Opportunistic reap, so completions don't pile up.
    fn reap(ring: &mut IoUring) -> Result<(), BackendError> {
        while let Some(cqe) = ring.reap() {
            absorb_cqe(ring.device(), cqe)?;
        }
        Ok(())
    }

    /// Waits out a ring, surfacing the first device error and returning
    /// the latest completion time.
    fn drain(ring: &mut IoUring, now: SimTime) -> Result<SimTime, BackendError> {
        let mut t = now;
        for cqe in ring.wait_all() {
            t = t.max(absorb_cqe(ring.device(), cqe)?);
        }
        Ok(t)
    }

    /// Writes and flushes a metadata record; returns its completion time.
    fn commit_meta(&mut self, record: &MetaRecord, now: SimTime) -> Result<SimTime, BackendError> {
        let page = PageWrite {
            lba: self.layout.meta_lba + record.target_lba(),
            data: record.encode().into_boxed_slice(),
        };
        let ring = &mut self.wal_ring;
        Self::submit_writes(ring, vec![page], self.pids.meta, now)?;
        Self::submit(ring, SqeOp::Flush, now)?;
        Self::drain(ring, now)
    }

    fn deallocate(&mut self, ranges: &[(u64, u64)], now: SimTime) -> Result<SimTime, BackendError> {
        let ring = &mut self.wal_ring;
        for &(lba, blocks) in ranges.iter().filter(|r| r.1 > 0) {
            Self::submit(ring, SqeOp::Deallocate { lba, blocks }, now)?;
        }
        Self::drain(ring, now)
    }
}

impl PersistBackend for PassthruBackend {
    fn wal_append(&mut self, data: &[u8], now: SimTime) -> Result<IoTiming, BackendError> {
        self.clock.advance_to(now);
        self.recovered_wal = None;
        let pages = self
            .wal
            .append(data)
            .map_err(|e| BackendError::Snapshot(e.to_string()))?;
        let n = pages.len() as u64;
        let ring = &mut self.wal_ring;
        Self::submit_writes(ring, pages, self.pids.wal, now)?;
        // The amortized `io_uring_enter`: every full page of this append is
        // handed to the device before the call returns, so only the staged
        // partial page waits for the next sync. The dedicated completion
        // handler (the paper's CQ thread) is modeled by the reap.
        ring.enter();
        Self::reap(ring)?;
        // Submission-side cost only, charged per page even when runs
        // coalesce into fewer SQEs, so simulated figures do not depend on
        // batch geometry; the vectoring saves ring slots and device
        // commands, which the live path measures directly.
        let cpu = self.costs.submit_sqpoll(n.max(1));
        Ok(IoTiming {
            done_at: now + cpu,
            cpu,
        })
    }

    fn wal_sync(&mut self, now: SimTime) -> Result<IoTiming, BackendError> {
        self.clock.advance_to(now);
        let page = self.wal.sync_page().into_iter().collect();
        let ring = &mut self.wal_ring;
        Self::submit_writes(ring, page, self.pids.wal, now)?;
        Self::submit(ring, SqeOp::Flush, now)?;
        let cpu = self.costs.submit_enter(1) + self.costs.cqe_reap;
        let done_at = Self::drain(ring, now + cpu)?;
        Ok(IoTiming { done_at, cpu })
    }

    fn wal_len(&self) -> u64 {
        self.wal.live_bytes()
    }

    fn snapshot_begin(
        &mut self,
        kind: SnapshotKind,
        now: SimTime,
    ) -> Result<IoTiming, BackendError> {
        if self.snap.is_some() {
            return Err(BackendError::Snapshot(
                "a snapshot is already in progress".into(),
            ));
        }
        self.snap = Some(SnapState {
            kind,
            slot: self.slots.reserve(),
            staged: Vec::with_capacity(LBA_BYTES),
            written_pages: 0,
            stream_bytes: 0,
            fork_tail: self.wal.head(),
        });
        Ok(IoTiming::instant(now))
    }

    fn snapshot_chunk(&mut self, data: &[u8], now: SimTime) -> Result<IoTiming, BackendError> {
        self.clock.advance_to(now);
        let st = self
            .snap
            .as_mut()
            .ok_or_else(|| BackendError::Snapshot("no snapshot in progress".into()))?;
        st.stream_bytes += data.len() as u64;
        st.staged.extend_from_slice(data);
        // Cut the staged bytes into whole pages; the remainder stays staged.
        let full = st.staged.len() / LBA_BYTES;
        if st.written_pages + full as u64 > self.layout.slot_lbas {
            return Err(BackendError::Snapshot(format!(
                "snapshot exceeds slot capacity ({} LBAs)",
                self.layout.slot_lbas
            )));
        }
        let first_lba = self.layout.slot_lba(st.slot) + st.written_pages;
        let pages = (first_lba..)
            .zip(st.staged.chunks_exact(LBA_BYTES))
            .map(|(lba, page)| PageWrite {
                lba,
                data: page.into(),
            })
            .collect();
        st.staged.drain(..full * LBA_BYTES);
        st.written_pages += full as u64;
        let pid = pid_of(self.pids, st.kind);
        let ring = &mut self.snap_ring;
        Self::submit_writes(ring, pages, pid, now)?;
        // SQPOLL: ring pushes; at most the first pays a wake-up.
        let cpu = self.costs.submit_sqpoll((full as u64).max(1));
        Self::reap(ring)?;
        Ok(IoTiming {
            done_at: now + cpu,
            cpu,
        })
    }

    fn snapshot_commit(&mut self, now: SimTime) -> Result<IoTiming, BackendError> {
        self.clock.advance_to(now);
        let mut st = self
            .snap
            .take()
            .ok_or_else(|| BackendError::Snapshot("no snapshot in progress".into()))?;
        let ring = &mut self.snap_ring;
        // Final partial page, zero-padded.
        if !st.staged.is_empty() {
            if st.written_pages >= self.layout.slot_lbas {
                return Err(BackendError::Snapshot(
                    "snapshot exceeds slot capacity".into(),
                ));
            }
            st.staged.resize(LBA_BYTES, 0);
            let page = PageWrite {
                lba: self.layout.slot_lba(st.slot) + st.written_pages,
                data: st.staged.into_boxed_slice(),
            };
            Self::submit_writes(ring, vec![page], pid_of(self.pids, st.kind), now)?;
        }
        // 1. Snapshot data durable.
        Self::submit(ring, SqeOp::Flush, now)?;
        let t_data = Self::drain(ring, now)?;

        // 2. Promote the reserve slot; advance the WAL tail for
        //    WAL-snapshots; commit metadata atomically.
        let (_promoted, demoted) = self.slots.promote(role_of(st.kind), st.stream_bytes);
        let dead_wal = if st.kind == SnapshotKind::WalSnapshot {
            self.recovered_wal = None;
            self.wal.truncate_to(st.fork_tail)
        } else {
            Vec::new()
        };
        self.epoch += 1;
        let record = MetaRecord {
            epoch: self.epoch,
            wal_tail: self.wal.tail(),
            roles: self.slots.roles(),
            slot_len: self.slots.lens(),
        };
        let t_meta = self.commit_meta(&record, t_data)?;

        // 3. Only now deallocate superseded data (§4.2): the demoted slot
        //    and the covered WAL generation.
        let mut ranges = dead_wal;
        ranges.push((self.layout.slot_lba(demoted), self.layout.slot_lbas));
        let t_done = self.deallocate(&ranges, t_meta)?;
        let cpu = self.costs.submit_enter(2);
        Ok(IoTiming {
            done_at: t_done,
            cpu,
        })
    }

    fn snapshot_abort(&mut self, now: SimTime) -> Result<IoTiming, BackendError> {
        if let Some(st) = self.snap.take() {
            // Drain in-flight writes, then discard the reserve slot pages.
            let t = Self::drain(&mut self.snap_ring, now)?;
            let slot_lba = self.layout.slot_lba(st.slot);
            if st.written_pages > 0 {
                self.deallocate(&[(slot_lba, st.written_pages)], t)?;
            }
        }
        Ok(IoTiming::instant(now))
    }

    fn load_snapshot(
        &mut self,
        kind: SnapshotKind,
        now: SimTime,
    ) -> Result<(Option<Vec<u8>>, IoTiming), BackendError> {
        let role = role_of(kind);
        let len = self.slots.len_of(role);
        if len == 0 {
            return Ok((None, IoTiming::instant(now)));
        }
        let slot = self.layout.slot_lba(self.slots.slot_of(role));
        let (region, pages) = ((slot, self.layout.slot_lbas), len.div_ceil(PAGE));
        let mut data = Vec::with_capacity((pages * PAGE) as usize);
        let done_at = read_pages(self.device(), region, 0, pages, now, &mut data, |_| true)?;
        data.truncate(len as usize);
        // Batched passthru reads: one submission per batch, no per-page
        // syscalls.
        let cpu = self.costs.submit_enter(pages.div_ceil(READ_BATCH));
        let data = (!data.is_empty()).then_some(data);
        Ok((data, IoTiming { done_at, cpu }))
    }

    fn load_wal(&mut self, now: SimTime) -> Result<(Vec<u8>, IoTiming), BackendError> {
        // Make sure every accepted append has executed.
        let t0 = Self::drain(&mut self.wal_ring, now)?;
        if let Some(log) = self.recovered_wal.take() {
            return Ok((log, IoTiming::instant(t0)));
        }
        // A live backend reads its own log the way a restart would: the
        // same scan, so what comes back is what the device holds.
        let tail = self.wal.tail();
        let (mut log, done_at) = scan_wal(self.device(), &self.layout, tail, t0)?;
        let batches = (log.len() as u64).div_ceil(READ_BATCH * PAGE).max(1);
        log.drain(..(tail % PAGE) as usize);
        let cpu = self.costs.submit_enter(batches);
        Ok((log, IoTiming { done_at, cpu }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimio_ftl::PlacementMode;
    use slimio_nvme::DeviceConfig;

    fn device() -> DeviceHandle {
        DeviceHandle::new(DeviceConfig::tiny(PlacementMode::Fdp { max_pids: 8 }))
    }

    fn backend(dev: &DeviceHandle) -> PassthruBackend {
        PassthruBackend::new(dev.clone(), SharedClock::new())
    }

    fn wal_record(seq: u64, payload_len: usize) -> Vec<u8> {
        let rec = walcodec::WalRecord::Set {
            seq,
            key: format!("key-{seq}").into_bytes(),
            value: vec![seq as u8; payload_len],
        };
        let mut buf = Vec::new();
        walcodec::encode(&rec, &mut buf);
        buf
    }

    #[test]
    fn wal_append_sync_load_roundtrip() {
        let dev = device();
        let mut b = backend(&dev);
        let mut expect = Vec::new();
        for seq in 1..=20u64 {
            let r = wal_record(seq, 500);
            expect.extend_from_slice(&r);
            b.wal_append(&r, SimTime::ZERO).unwrap();
        }
        b.wal_sync(SimTime::ZERO).unwrap();
        let (wal, _) = b.load_wal(SimTime::ZERO).unwrap();
        assert_eq!(wal, expect);
        let recs = walcodec::replay(&wal);
        assert_eq!(recs.len(), 20);
    }

    #[test]
    fn multi_page_append_coalesces_into_fewer_write_commands() {
        let dev = device();
        let mut b = backend(&dev);
        // A ~16-page record: unarmed, contiguous LBAs coalesce into far
        // fewer device write commands than pages.
        let rec = wal_record(1, 16 * LBA_BYTES);
        let pages = rec.len().div_ceil(LBA_BYTES) as u64;
        let before = dev.counters().write_commands;
        b.wal_append(&rec, SimTime::ZERO).unwrap();
        b.wal_sync(SimTime::ZERO).unwrap();
        let coalesced = dev.counters().write_commands - before;
        assert!(
            coalesced < pages,
            "expected < {pages} write commands, saw {coalesced}"
        );
        // Contents still replay byte-for-byte.
        let (wal, _) = b.load_wal(SimTime::ZERO).unwrap();
        assert_eq!(wal, rec);

        // Armed with a plan that never fires, the same workload issues the
        // same commands: fault plans count what production submits.
        let run = |arm: bool| {
            let dev = device();
            let mut b = backend(&dev);
            if arm {
                dev.lock()
                    .unwrap()
                    .arm_fault("fail@100000".parse().unwrap());
            }
            for seq in 1..=4u64 {
                b.wal_append(&wal_record(seq, 3 * LBA_BYTES), SimTime::ZERO)
                    .unwrap();
                b.wal_sync(SimTime::ZERO).unwrap();
            }
            b.snapshot_begin(SnapshotKind::WalSnapshot, SimTime::ZERO)
                .unwrap();
            b.snapshot_chunk(&vec![7u8; 70 * LBA_BYTES + 9], SimTime::ZERO)
                .unwrap();
            b.snapshot_commit(SimTime::ZERO).unwrap();
            dev.counters().write_commands
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn snapshot_commit_promotes_reserve_slot() {
        let dev = device();
        let mut b = backend(&dev);
        let r0 = b.slot_table().reserve();
        b.snapshot_begin(SnapshotKind::OnDemand, SimTime::ZERO)
            .unwrap();
        b.snapshot_chunk(&vec![0xCD; 10_000], SimTime::ZERO)
            .unwrap();
        b.snapshot_commit(SimTime::ZERO).unwrap();
        assert_ne!(b.slot_table().reserve(), r0);
        let (data, _) = b
            .load_snapshot(SnapshotKind::OnDemand, SimTime::ZERO)
            .unwrap();
        assert_eq!(data.unwrap(), vec![0xCD; 10_000]);
        // The WAL-snapshot slot is still empty.
        let (none, _) = b
            .load_snapshot(SnapshotKind::WalSnapshot, SimTime::ZERO)
            .unwrap();
        assert!(none.is_none());
    }

    #[test]
    fn only_a_snapshot_wakes_the_sleeping_snapshot_ring() {
        let dev = device();
        let mut b = backend(&dev);
        let ring = b.snapshot_ring_stats();
        while ring.parks() == 0 {
            std::thread::yield_now();
        }
        // The WAL-Path is enter-driven: the SET path never pays a wake-up.
        for seq in 1..=20u64 {
            b.wal_append(&wal_record(seq, 500), SimTime::ZERO).unwrap();
            b.wal_sync(SimTime::ZERO).unwrap();
        }
        assert_eq!(ring.wakeups(), 0);
        b.snapshot_begin(SnapshotKind::OnDemand, SimTime::ZERO)
            .unwrap();
        b.snapshot_chunk(&vec![0xCD; 10_000], SimTime::ZERO)
            .unwrap();
        b.snapshot_commit(SimTime::ZERO).unwrap();
        assert!(ring.wakeups() >= 1);
        let (data, _) = b
            .load_snapshot(SnapshotKind::OnDemand, SimTime::ZERO)
            .unwrap();
        assert_eq!(data.unwrap(), vec![0xCD; 10_000]);
    }

    #[test]
    fn wal_snapshot_truncates_wal() {
        let dev = device();
        let mut b = backend(&dev);
        b.wal_append(&wal_record(1, 3000), SimTime::ZERO).unwrap();
        b.wal_sync(SimTime::ZERO).unwrap();
        b.snapshot_begin(SnapshotKind::WalSnapshot, SimTime::ZERO)
            .unwrap();
        // Records arriving during the snapshot belong to the new tail.
        let post = wal_record(2, 100);
        b.wal_append(&post, SimTime::ZERO).unwrap();
        b.snapshot_chunk(b"snapshot-bytes", SimTime::ZERO).unwrap();
        b.snapshot_commit(SimTime::ZERO).unwrap();
        b.wal_sync(SimTime::ZERO).unwrap();
        let (wal, _) = b.load_wal(SimTime::ZERO).unwrap();
        assert_eq!(wal, post);
    }

    #[test]
    fn abort_leaves_previous_snapshot() {
        let dev = device();
        let mut b = backend(&dev);
        b.snapshot_begin(SnapshotKind::OnDemand, SimTime::ZERO)
            .unwrap();
        b.snapshot_chunk(b"v1", SimTime::ZERO).unwrap();
        b.snapshot_commit(SimTime::ZERO).unwrap();
        b.snapshot_begin(SnapshotKind::OnDemand, SimTime::ZERO)
            .unwrap();
        b.snapshot_chunk(&vec![9u8; 5000], SimTime::ZERO).unwrap();
        b.snapshot_abort(SimTime::ZERO).unwrap();
        let (data, _) = b
            .load_snapshot(SnapshotKind::OnDemand, SimTime::ZERO)
            .unwrap();
        assert_eq!(data.unwrap(), b"v1");
    }

    #[test]
    fn recovery_restores_slots_and_wal() {
        let dev = device();
        {
            let mut b = backend(&dev);
            for seq in 1..=5u64 {
                b.wal_append(&wal_record(seq, 2000), SimTime::ZERO).unwrap();
            }
            b.wal_sync(SimTime::ZERO).unwrap();
            b.snapshot_begin(SnapshotKind::WalSnapshot, SimTime::ZERO)
                .unwrap();
            b.snapshot_chunk(&vec![0xAB; 9000], SimTime::ZERO).unwrap();
            b.snapshot_commit(SimTime::ZERO).unwrap();
            for seq in 6..=8u64 {
                b.wal_append(&wal_record(seq, 100), SimTime::ZERO).unwrap();
            }
            b.wal_sync(SimTime::ZERO).unwrap();
        } // drop = crash (rings drained on drop; device retains NAND state)
        let mut r = PassthruBackend::recover(dev.clone(), SharedClock::new()).unwrap();
        let (snap, _) = r
            .load_snapshot(SnapshotKind::WalSnapshot, SimTime::ZERO)
            .unwrap();
        assert_eq!(snap.unwrap(), vec![0xAB; 9000]);
        let (wal, _) = r.load_wal(SimTime::ZERO).unwrap();
        let recs = walcodec::replay(&wal);
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].seq(), 6);
        assert_eq!(recs[2].seq(), 8);
    }

    #[test]
    fn recovery_with_unsynced_tail_loses_only_tail() {
        let dev = device();
        {
            let mut b = backend(&dev);
            b.wal_append(&wal_record(1, 1000), SimTime::ZERO).unwrap();
            b.wal_sync(SimTime::ZERO).unwrap();
            // Unsynced: staged partial page never hits the device.
            b.wal_append(&wal_record(2, 50), SimTime::ZERO).unwrap();
        }
        let mut r = PassthruBackend::recover(dev.clone(), SharedClock::new()).unwrap();
        let (wal, _) = r.load_wal(SimTime::ZERO).unwrap();
        let recs = walcodec::replay(&wal);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].seq(), 1);
    }

    #[test]
    fn crash_mid_snapshot_preserves_previous_snapshot() {
        // Crash after the new snapshot's data is written but before its
        // metadata commit: recovery must come up on the previous epoch,
        // whose slot was deliberately not yet deallocated (§4.2).
        let dev = device();
        {
            let mut b = backend(&dev);
            b.snapshot_begin(SnapshotKind::OnDemand, SimTime::ZERO)
                .unwrap();
            b.snapshot_chunk(b"epoch-1", SimTime::ZERO).unwrap();
            b.snapshot_commit(SimTime::ZERO).unwrap();
            b.snapshot_begin(SnapshotKind::OnDemand, SimTime::ZERO)
                .unwrap();
            b.snapshot_chunk(&vec![0x77u8; 20_000], SimTime::ZERO)
                .unwrap();
            // No commit — power cut here.
        }
        let mut r = PassthruBackend::recover(dev.clone(), SharedClock::new()).unwrap();
        let (snap, _) = r
            .load_snapshot(SnapshotKind::OnDemand, SimTime::ZERO)
            .unwrap();
        assert_eq!(snap.unwrap(), b"epoch-1");
        // And the next snapshot still works (reserve slot reusable).
        r.snapshot_begin(SnapshotKind::OnDemand, SimTime::ZERO)
            .unwrap();
        r.snapshot_chunk(b"epoch-2", SimTime::ZERO).unwrap();
        r.snapshot_commit(SimTime::ZERO).unwrap();
        let (snap, _) = r
            .load_snapshot(SnapshotKind::OnDemand, SimTime::ZERO)
            .unwrap();
        assert_eq!(snap.unwrap(), b"epoch-2");
    }

    #[test]
    fn transient_write_faults_are_retried_through_the_rings() {
        let dev = device();
        let mut b = backend(&dev);
        b.wal_append(&wal_record(1, 3000), SimTime::ZERO).unwrap();
        b.wal_sync(SimTime::ZERO).unwrap();
        // Fail a window of writes: the completion handler re-drives each
        // failed page, so the append/sync still succeed and no WAL hole
        // (which replay would truncate at) is left behind.
        dev.lock().unwrap().arm_fault("fail@1x3".parse().unwrap());
        b.wal_append(&wal_record(2, 3000), SimTime::ZERO).unwrap();
        b.wal_sync(SimTime::ZERO).unwrap();
        dev.lock().unwrap().disarm_fault();
        let (wal, _) = b.load_wal(SimTime::ZERO).unwrap();
        assert_eq!(walcodec::replay(&wal).len(), 2);
    }

    #[test]
    fn power_cut_surfaces_and_recovery_sees_synced_prefix() {
        let dev = device();
        {
            let mut b = backend(&dev);
            b.wal_append(&wal_record(1, 1000), SimTime::ZERO).unwrap();
            b.wal_sync(SimTime::ZERO).unwrap();
            dev.lock().unwrap().arm_fault("pc@1".parse().unwrap());
            b.wal_append(&wal_record(2, 1000), SimTime::ZERO).unwrap();
            assert!(
                b.wal_sync(SimTime::ZERO).is_err(),
                "sync must surface the cut"
            );
        }
        dev.lock().unwrap().power_on();
        let mut r = PassthruBackend::recover(dev.clone(), SharedClock::new()).unwrap();
        let (wal, _) = r.load_wal(SimTime::ZERO).unwrap();
        let recs = walcodec::replay(&wal);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].seq(), 1);
    }

    #[test]
    fn fdp_waf_stays_one_across_generations() {
        let dev = device();
        let mut b = backend(&dev);
        // Several WAL-snapshot generations with interleaved WAL traffic.
        let mut seq = 0u64;
        for _ in 0..4 {
            for _ in 0..10 {
                seq += 1;
                b.wal_append(&wal_record(seq, 3000), SimTime::ZERO).unwrap();
            }
            b.wal_sync(SimTime::ZERO).unwrap();
            b.snapshot_begin(SnapshotKind::WalSnapshot, SimTime::ZERO)
                .unwrap();
            b.snapshot_chunk(&vec![1u8; 40_000], SimTime::ZERO).unwrap();
            b.snapshot_commit(SimTime::ZERO).unwrap();
        }
        let waf = dev.telemetry().waf;
        assert!((waf - 1.0).abs() < 1e-12, "WAF {waf}");
    }

    #[test]
    fn snapshot_overflow_is_rejected() {
        let dev = device();
        let mut b = backend(&dev);
        let slot_bytes = b.layout().slot_bytes();
        b.snapshot_begin(SnapshotKind::OnDemand, SimTime::ZERO)
            .unwrap();
        let chunk = vec![0u8; 64 * 1024];
        let mut written = 0u64;
        let mut overflowed = false;
        while written <= slot_bytes + chunk.len() as u64 {
            match b.snapshot_chunk(&chunk, SimTime::ZERO) {
                Ok(_) => written += chunk.len() as u64,
                Err(BackendError::Snapshot(msg)) => {
                    assert!(msg.contains("slot capacity"), "{msg}");
                    overflowed = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(overflowed);
    }

    #[test]
    fn restart_reads_a_wrapped_log_once() {
        use slimio_imdb::{Db, DbConfig};
        let dev = device();
        let cfg = DbConfig::default();
        let mut db = Db::new(backend(&dev), cfg);
        let region = db.backend().layout().wal_bytes();
        // Two generations of 0.6 regions each over a handful of keys: the
        // WAL-snapshot between them moves the tail, the second one runs
        // the head past the region's end.
        let fill = |db: &mut Db<PassthruBackend>| {
            let until = db.stats().wal_bytes + region * 6 / 10;
            while db.stats().wal_bytes < until {
                let key = [b'k', (db.stats().sets % 8) as u8];
                db.set(&key, &[0x5A; 3000], SimTime::ZERO).unwrap();
                db.flush_wal(SimTime::ZERO).unwrap();
            }
            db.sync_wal(SimTime::ZERO).unwrap();
        };
        fill(&mut db);
        db.snapshot_run(SnapshotKind::WalSnapshot, SimTime::ZERO)
            .unwrap();
        fill(&mut db);
        assert!(db.stats().wal_bytes > region, "the log must wrap");
        let (seq, live) = (db.seq(), db.backend().wal_len());
        let snapshot = db.backend().slot_table().len_of(SlotRole::WalSnapshot);
        drop(db); // crash

        let reads = || dev.telemetry().reads;
        let before = reads();
        let r = PassthruBackend::recover(dev.clone(), SharedClock::new()).unwrap();
        assert_eq!(r.wal_len(), live, "the scan must cross the wrap");
        let (db, _) = Db::recover(r, cfg, SimTime::ZERO).unwrap();
        assert_eq!((db.seq(), db.len()), (seq, 8));
        let budget = 2 + snapshot.div_ceil(PAGE) + live.div_ceil(PAGE) + 1 + READ_BATCH;
        let read = reads() - before;
        assert!(read <= budget, "restart read {read} pages, budget {budget}");
    }
}
