//! The SQ/CQ ring pair bound to an emulated NVMe device.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use slimio_nvme::{DeviceError, NvmeDevice};
use std::sync::Mutex;

use crate::clock::SharedClock;
use crate::spsc::{self, Consumer, Producer};
use crate::sqe::{Cqe, CqeResult, Sqe, SqeOp};

/// How submissions reach the device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RingMode {
    /// The submitter drives processing by calling [`IoUring::enter`]
    /// (models `io_uring_enter(2)`).
    Enter,
    /// A dedicated poller thread drains the SQ continuously (models
    /// `IORING_SETUP_SQPOLL`): submission is a ring push, no syscall.
    SqPoll,
}

/// Errors surfaced by ring operations.
#[derive(Debug)]
pub enum RingError {
    /// The submission queue is full; the entry is handed back.
    SqFull(Box<Sqe>),
}

impl std::fmt::Display for RingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RingError::SqFull(_) => write!(f, "submission queue full"),
        }
    }
}

impl std::error::Error for RingError {}

enum Engine {
    Enter {
        sq_cons: Consumer<Sqe>,
        cq_prod: Producer<Cqe>,
    },
    SqPoll {
        stop: Arc<AtomicBool>,
        handle: Option<JoinHandle<()>>,
    },
}

/// An io_uring-like queue pair over an [`NvmeDevice`].
///
/// One `IoUring` is owned by one submitting thread (like a real ring mapped
/// into one process). Multiple rings may share a device — that is exactly
/// the SlimIO topology: the WAL-Path ring lives in the main process, the
/// Snapshot-Path ring in the snapshot process, and they meet only at the
/// NVMe controller.
pub struct IoUring {
    sq_prod: Producer<Sqe>,
    cq_cons: Consumer<Cqe>,
    engine: Engine,
    device: Arc<Mutex<NvmeDevice>>,
    clock: SharedClock,
    outstanding: u64,
}

/// Executes one SQE against the device and builds its CQE.
fn execute(device: &Mutex<NvmeDevice>, clock: &SharedClock, sqe: Sqe) -> Cqe {
    let now = sqe.submitted_at.max(clock.now());
    let user_data = sqe.user_data;
    let mut dev = device.lock().unwrap();
    let (completed_at, result) = match sqe.op {
        SqeOp::Write {
            lba,
            blocks,
            pid,
            data,
        } => match dev.write(lba, blocks, pid, data.as_deref(), now) {
            Ok(c) => (
                c.done_at,
                CqeResult::Done {
                    gc_copied: c.gc_copied,
                },
            ),
            Err(DeviceError::Injected) => {
                let op = SqeOp::Write {
                    lba,
                    blocks,
                    pid,
                    data,
                };
                (now, CqeResult::Requeue(Box::new(op)))
            }
            Err(e) => (now, CqeResult::Error(e)),
        },
        SqeOp::Read { lba, blocks } => match dev.read(lba, blocks, now) {
            Ok((c, data)) => (c.done_at, CqeResult::Data(data)),
            Err(e) => (now, CqeResult::Error(e)),
        },
        SqeOp::Deallocate { lba, blocks } => match dev.deallocate(lba, blocks, now) {
            Ok(c) => (c.done_at, CqeResult::Done { gc_copied: 0 }),
            Err(e) => (now, CqeResult::Error(e)),
        },
        SqeOp::Flush => match dev.flush(now) {
            Ok(c) => (c.done_at, CqeResult::Done { gc_copied: 0 }),
            Err(e) => (now, CqeResult::Error(e)),
        },
    };
    drop(dev);
    clock.advance_to(completed_at);
    Cqe {
        user_data,
        completed_at,
        result,
    }
}

impl IoUring {
    /// Creates a ring pair of the given depth over `device`.
    ///
    /// In [`RingMode::SqPoll`] a poller thread starts immediately and runs
    /// until the ring is dropped.
    pub fn new(
        device: Arc<Mutex<NvmeDevice>>,
        clock: SharedClock,
        depth: usize,
        mode: RingMode,
    ) -> Self {
        let (sq_prod, sq_cons) = spsc::ring::<Sqe>(depth);
        let (cq_prod, cq_cons) = spsc::ring::<Cqe>(depth * 2);
        let engine = match mode {
            RingMode::Enter => Engine::Enter { sq_cons, cq_prod },
            RingMode::SqPoll => {
                let stop = Arc::new(AtomicBool::new(false));
                let stop2 = Arc::clone(&stop);
                let clock2 = clock.clone();
                let device = Arc::clone(&device);
                let handle = std::thread::Builder::new()
                    .name("sqpoll".into())
                    .spawn(move || {
                        loop {
                            let mut worked = false;
                            while let Some(sqe) = sq_cons.pop() {
                                worked = true;
                                let mut cqe = execute(&device, &clock2, sqe);
                                // Spin until the CQ has room (the consumer
                                // is obligated to reap).
                                loop {
                                    match cq_prod.push(cqe) {
                                        Ok(()) => break,
                                        Err(back) => {
                                            cqe = back;
                                            std::thread::yield_now();
                                        }
                                    }
                                }
                            }
                            if !worked {
                                if stop2.load(Ordering::Acquire) {
                                    break;
                                }
                                std::thread::yield_now();
                            }
                        }
                    })
                    .expect("spawn sqpoll thread");
                Engine::SqPoll {
                    stop,
                    handle: Some(handle),
                }
            }
        };
        IoUring {
            sq_prod,
            cq_cons,
            engine,
            device,
            clock,
            outstanding: 0,
        }
    }

    /// Convenience: enter-mode ring.
    pub fn new_enter(device: Arc<Mutex<NvmeDevice>>, clock: SharedClock, depth: usize) -> Self {
        Self::new(device, clock, depth, RingMode::Enter)
    }

    /// Convenience: SQPOLL-mode ring.
    pub fn new_sqpoll(device: Arc<Mutex<NvmeDevice>>, clock: SharedClock, depth: usize) -> Self {
        Self::new(device, clock, depth, RingMode::SqPoll)
    }

    /// The mode this ring runs in.
    pub fn mode(&self) -> RingMode {
        match self.engine {
            Engine::Enter { .. } => RingMode::Enter,
            Engine::SqPoll { .. } => RingMode::SqPoll,
        }
    }

    /// The shared clock.
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    /// Commands submitted but not yet reaped.
    pub fn outstanding(&self) -> u64 {
        self.outstanding
    }

    /// Pushes an SQE. In SQPOLL mode the poller picks it up immediately;
    /// in enter mode it sits until [`IoUring::enter`].
    pub fn submit(&mut self, sqe: Sqe) -> Result<(), RingError> {
        match self.sq_prod.push(sqe) {
            Ok(()) => {
                self.outstanding += 1;
                Ok(())
            }
            Err(back) => Err(RingError::SqFull(Box::new(back))),
        }
    }

    /// Processes pending SQEs (enter mode only; no-op under SQPOLL).
    /// Returns the number of commands executed.
    pub fn enter(&mut self) -> usize {
        match &mut self.engine {
            Engine::SqPoll { .. } => 0,
            Engine::Enter { sq_cons, cq_prod } => {
                let mut n = 0;
                while let Some(sqe) = sq_cons.pop() {
                    let cqe = execute(&self.device, &self.clock, sqe);
                    cq_prod.push(cqe).expect("CQ sized 2x SQ cannot fill");
                    n += 1;
                }
                n
            }
        }
    }

    /// Non-blocking completion harvest.
    pub fn reap(&mut self) -> Option<Cqe> {
        let cqe = self.cq_cons.pop()?;
        self.outstanding -= 1;
        Some(cqe)
    }

    /// Blocks (spinning/yielding) until all outstanding commands complete,
    /// returning their CQEs in completion order. In enter mode this drives
    /// processing itself.
    pub fn wait_all(&mut self) -> Vec<Cqe> {
        let mut out = Vec::with_capacity(self.outstanding as usize);
        while self.outstanding > 0 {
            self.enter();
            match self.reap() {
                Some(c) => out.push(c),
                None => std::thread::yield_now(),
            }
        }
        out
    }
}

impl Drop for IoUring {
    fn drop(&mut self) {
        if let Engine::SqPoll { stop, handle } = &mut self.engine {
            stop.store(true, Ordering::Release);
            if let Some(h) = handle.take() {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimio_des::SimTime;
    use slimio_ftl::PlacementMode;
    use slimio_nvme::{DeviceConfig, LBA_BYTES};

    fn device() -> Arc<Mutex<NvmeDevice>> {
        Arc::new(Mutex::new(NvmeDevice::new(DeviceConfig::tiny(
            PlacementMode::Fdp { max_pids: 4 },
        ))))
    }

    fn write_sqe(user_data: u64, lba: u64, fill: u8) -> Sqe {
        Sqe {
            user_data,
            op: SqeOp::Write {
                lba,
                blocks: 1,
                pid: 1,
                data: Some(vec![fill; LBA_BYTES].into_boxed_slice()),
            },
            submitted_at: SimTime::ZERO,
        }
    }

    #[test]
    fn enter_mode_write_read_roundtrip() {
        let dev = device();
        let clock = SharedClock::new();
        let mut ring = IoUring::new_enter(Arc::clone(&dev), clock, 8);
        ring.submit(write_sqe(1, 5, 0xEE)).unwrap();
        ring.submit(Sqe {
            user_data: 2,
            op: SqeOp::Read { lba: 5, blocks: 1 },
            submitted_at: SimTime::ZERO,
        })
        .unwrap();
        let cqes = ring.wait_all();
        assert_eq!(cqes.len(), 2);
        assert_eq!(cqes[0].user_data, 1);
        match &cqes[1].result {
            CqeResult::Data(Some(d)) => assert!(d.iter().all(|&b| b == 0xEE)),
            other => panic!("unexpected read result: {other:?}"),
        }
    }

    #[test]
    fn sqpoll_mode_processes_without_enter() {
        let dev = device();
        let clock = SharedClock::new();
        let mut ring = IoUring::new_sqpoll(Arc::clone(&dev), clock, 8);
        assert_eq!(ring.mode(), RingMode::SqPoll);
        for i in 0..4 {
            ring.submit(write_sqe(i, i, i as u8)).unwrap();
        }
        // Never call enter(); the poller thread must drain the SQ.
        let cqes = ring.wait_all();
        assert_eq!(cqes.len(), 4);
        assert!(cqes.iter().all(Cqe::is_ok));
        // Completions arrive in submission order (single poller).
        let ids: Vec<u64> = cqes.iter().map(|c| c.user_data).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn enter_is_noop_under_sqpoll() {
        let dev = device();
        let mut ring = IoUring::new_sqpoll(dev, SharedClock::new(), 8);
        assert_eq!(ring.enter(), 0);
    }

    #[test]
    fn sq_full_hands_back_entry() {
        let dev = device();
        let mut ring = IoUring::new_enter(dev, SharedClock::new(), 2);
        ring.submit(write_sqe(1, 0, 1)).unwrap();
        ring.submit(write_sqe(2, 1, 2)).unwrap();
        match ring.submit(write_sqe(3, 2, 3)) {
            Err(RingError::SqFull(sqe)) => assert_eq!(sqe.user_data, 3),
            other => panic!("expected SqFull, got {other:?}"),
        }
        // Draining makes room again.
        ring.enter();
        ring.submit(write_sqe(3, 2, 3)).unwrap();
        let cqes = ring.wait_all();
        assert_eq!(cqes.len(), 3);
    }

    #[test]
    fn device_errors_surface_as_cqe_errors() {
        let dev = device();
        dev.lock().unwrap().power_off();
        let mut ring = IoUring::new_enter(dev, SharedClock::new(), 4);
        ring.submit(write_sqe(9, 0, 0)).unwrap();
        let cqes = ring.wait_all();
        assert_eq!(cqes.len(), 1);
        assert!(!cqes[0].is_ok());
    }

    #[test]
    fn transiently_failed_write_comes_back_in_its_cqe() {
        let dev = device();
        dev.lock().unwrap().arm_fault("fail@1".parse().unwrap());
        let mut ring = IoUring::new_enter(dev, SharedClock::new(), 4);
        ring.submit(write_sqe(7, 3, 0xAB)).unwrap();
        let cqe = ring.wait_all().pop().unwrap();
        assert!(!cqe.is_ok());
        match cqe.result {
            CqeResult::Requeue(op) => match *op {
                SqeOp::Write { lba, data, .. } => {
                    assert_eq!(lba, 3);
                    assert!(data.unwrap().iter().all(|&b| b == 0xAB));
                }
                other => panic!("a write was submitted, got back {other:?}"),
            },
            other => panic!("expected the op handed back, got {other:?}"),
        }
    }

    #[test]
    fn two_rings_share_one_device() {
        // WAL-Path in this thread, Snapshot-Path in another — the SlimIO
        // topology. Both write disjoint ranges with different PIDs.
        let dev = device();
        let clock = SharedClock::new();
        let mut wal_ring = IoUring::new_enter(Arc::clone(&dev), clock.clone(), 64);
        let dev2 = Arc::clone(&dev);
        let clock2 = clock.clone();
        let snapshot = std::thread::spawn(move || {
            let mut snap_ring = IoUring::new_sqpoll(dev2, clock2, 64);
            for i in 0..32u64 {
                let mut sqe = Sqe {
                    user_data: i,
                    op: SqeOp::Write {
                        lba: 512 + i,
                        blocks: 1,
                        pid: 2,
                        data: Some(vec![0xBB; LBA_BYTES].into_boxed_slice()),
                    },
                    submitted_at: SimTime::ZERO,
                };
                loop {
                    match snap_ring.submit(sqe) {
                        Ok(()) => break,
                        Err(RingError::SqFull(back)) => {
                            sqe = *back;
                            std::thread::yield_now();
                        }
                    }
                }
            }
            snap_ring.wait_all().len()
        });
        for i in 0..32u64 {
            wal_ring.submit(write_sqe(i, i, 0xAA)).unwrap();
        }
        let wal_done = wal_ring.wait_all();
        assert_eq!(wal_done.len(), 32);
        assert_eq!(snapshot.join().unwrap(), 32);
        // Verify both ranges via a fresh ring.
        let mut check = IoUring::new_enter(Arc::clone(&dev), clock, 8);
        check
            .submit(Sqe {
                user_data: 0,
                op: SqeOp::Read { lba: 0, blocks: 1 },
                submitted_at: SimTime::ZERO,
            })
            .unwrap();
        check
            .submit(Sqe {
                user_data: 1,
                op: SqeOp::Read {
                    lba: 512,
                    blocks: 1,
                },
                submitted_at: SimTime::ZERO,
            })
            .unwrap();
        let cqes = check.wait_all();
        for (cqe, expect) in cqes.iter().zip([0xAAu8, 0xBB]) {
            match &cqe.result {
                CqeResult::Data(Some(d)) => assert!(d.iter().all(|&b| b == expect)),
                other => panic!("unexpected: {other:?}"),
            }
        }
        // FDP separation held: disjoint PIDs, no GC copies needed ever.
        assert!((dev.lock().unwrap().waf() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn flush_and_deallocate_complete() {
        let dev = device();
        let mut ring = IoUring::new_enter(dev, SharedClock::new(), 8);
        ring.submit(write_sqe(1, 0, 7)).unwrap();
        ring.submit(Sqe {
            user_data: 2,
            op: SqeOp::Flush,
            submitted_at: SimTime::ZERO,
        })
        .unwrap();
        ring.submit(Sqe {
            user_data: 3,
            op: SqeOp::Deallocate { lba: 0, blocks: 1 },
            submitted_at: SimTime::ZERO,
        })
        .unwrap();
        let cqes = ring.wait_all();
        assert_eq!(cqes.len(), 3);
        assert!(cqes.iter().all(Cqe::is_ok));
        // Flush completed no earlier than the write it fenced.
        assert!(cqes[1].completed_at >= cqes[0].completed_at);
    }

    #[test]
    fn outstanding_tracks_inflight() {
        let dev = device();
        let mut ring = IoUring::new_enter(dev, SharedClock::new(), 8);
        assert_eq!(ring.outstanding(), 0);
        ring.submit(write_sqe(1, 0, 1)).unwrap();
        ring.submit(write_sqe(2, 1, 1)).unwrap();
        assert_eq!(ring.outstanding(), 2);
        ring.enter();
        while ring.reap().is_some() {}
        assert_eq!(ring.outstanding(), 0);
    }
}
