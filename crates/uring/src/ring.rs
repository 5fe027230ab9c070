//! The SQ/CQ ring pair bound to an emulated NVMe device.
//!
//! A ring owns no device logic: each entry it executes goes to the
//! device through [`DeviceHandle::submit`], and the ring adds only the
//! queueing, the cookie and the shared clock. Rings built over clones of
//! one [`DeviceHandle`] meet only there.
//!
//! An SQPOLL ring's poller is event-driven on the submission side, the
//! way the kernel's is: it drains the SQ, keeps looking for
//! `SQ_THREAD_IDLE` after the last entry, then publishes
//! `need_wakeup`, re-checks the SQ and `stop`, and sleeps.
//! [`IoUring::submit`] pushes, fences, and wakes the poller only when
//! that flag is up (`IORING_SQ_NEED_WAKEUP` / `IORING_ENTER_SQ_WAKEUP`).
//! Both sides do *store, `SeqCst` fence, load* — the submitter stores the
//! SQ tail and loads the flag, the poller stores the flag and loads the
//! tail — so at least one of them sees the other's store: either the
//! poller finds the entry and does not sleep, or the submitter finds the
//! flag and wakes it. A wake-up can be spurious, never lost.

use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use slimio_nvme::DeviceHandle;

use crate::clock::SharedClock;
use crate::spsc::{self, Consumer, Producer};
use crate::sqe::{Cqe, Sqe};

/// How long an SQPOLL poller keeps polling an empty SQ before it sleeps
/// (io_uring's `sq_thread_idle`). `cargo bench -p slimio-bench --bench
/// micro` prices the trade, in ns per submit→reap round of one page write
/// on 2 vCPUs: `uring/submit_reap_enter` 78, `uring/submit_reap_sqpoll_hot`
/// 987 (poller inside the grace: the submit is a bare ring push),
/// `uring/submit_reap_sqpoll_parked` 28 506 (poller asleep: the round pays
/// the futex wake and the poller's way back onto a CPU). Waking costs
/// some 25 µs, so the grace is several times that: a submitter that comes
/// back within 200 µs never pays it, and one that stays away longer pays
/// it once — a live `BGSAVE` cuts a 256 KiB chunk every few milliseconds
/// and wakes the poller once per chunk, under 1 % of the chunk's time —
/// against 200 µs of polling per idle period instead of a core for as
/// long as the ring exists.
const SQ_THREAD_IDLE: Duration = Duration::from_micros(200);

/// How submissions reach the device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RingMode {
    /// The submitter drives processing by calling [`IoUring::enter`]
    /// (models `io_uring_enter(2)`).
    Enter,
    /// A dedicated poller thread drains the SQ (models
    /// `IORING_SETUP_SQPOLL`): submission is a ring push, plus one
    /// wake-up if the poller went to sleep — after a short idle grace it
    /// does, so a ring with nothing submitted costs no CPU.
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

/// How often an SQPOLL ring's poller went to sleep and was woken.
/// Shareable, so telemetry can read a ring another thread owns; both stay
/// zero on an enter-mode ring.
#[derive(Debug, Default)]
pub struct SqPollStats {
    parks: AtomicU64,
    wakeups: AtomicU64,
}

impl SqPollStats {
    /// Times the poller found the SQ still empty after the idle grace
    /// and went to sleep.
    pub fn parks(&self) -> u64 {
        self.parks.load(Ordering::Relaxed)
    }

    /// Times a submit found the poller asleep and woke it.
    pub fn wakeups(&self) -> u64 {
        self.wakeups.load(Ordering::Relaxed)
    }
}

/// What the submitter and its poller share besides the two rings.
#[derive(Default)]
struct Handshake {
    /// Raised by `Drop`: the poller drains the SQ and exits.
    stop: AtomicBool,
    /// Raised by the poller before it sleeps; a submit that sees it owes
    /// the poller an `unpark` (and lowers it, so a burst pays one).
    need_wakeup: AtomicBool,
}

enum Engine {
    Enter {
        sq_cons: Consumer<Sqe>,
        cq_prod: Producer<Cqe>,
    },
    SqPoll {
        shared: Arc<Handshake>,
        handle: Option<JoinHandle<()>>,
    },
}

/// An io_uring-like queue pair over an emulated NVMe device.
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
    device: DeviceHandle,
    clock: SharedClock,
    outstanding: u64,
    stats: Arc<SqPollStats>,
}

/// Executes one SQE on the device and builds its CQE.
fn execute(device: &DeviceHandle, clock: &SharedClock, sqe: Sqe) -> Cqe {
    let now = sqe.submitted_at.max(clock.now());
    let (completed_at, result) = device.submit(sqe.op, now);
    clock.advance_to(completed_at);
    Cqe {
        user_data: sqe.user_data,
        completed_at,
        result,
    }
}

/// The SQPOLL poller: drain, linger for [`SQ_THREAD_IDLE`], sleep.
fn poll_sq(
    sq_cons: Consumer<Sqe>,
    cq_prod: Producer<Cqe>,
    device: &DeviceHandle,
    clock: &SharedClock,
    shared: &Handshake,
    stats: &SqPollStats,
) {
    let mut idle_since = None;
    loop {
        let mut worked = false;
        while let Some(sqe) = sq_cons.pop() {
            worked = true;
            let mut cqe = execute(device, clock, sqe);
            // Back off until the CQ has room (the consumer is obligated
            // to reap — unless it is gone, and then nobody wants the CQE).
            while let Err(back) = cq_prod.push(cqe) {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                cqe = back;
                std::thread::yield_now();
            }
        }
        if worked {
            idle_since = None;
            continue;
        }
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        if idle_since.get_or_insert_with(Instant::now).elapsed() < SQ_THREAD_IDLE {
            std::thread::yield_now();
            continue;
        }
        // Publish, then look again: an entry pushed (or a stop raised)
        // before the flag was visible has nobody to wake us.
        shared.need_wakeup.store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        if sq_cons.is_empty() && !shared.stop.load(Ordering::SeqCst) {
            stats.parks.fetch_add(1, Ordering::Relaxed);
            std::thread::park();
        }
        shared.need_wakeup.store(false, Ordering::SeqCst);
        idle_since = None;
    }
}

impl IoUring {
    /// Creates a ring pair of the given depth over `device`: a
    /// [`DeviceHandle`], or a shared device that converts into one.
    ///
    /// In [`RingMode::SqPoll`] a poller thread starts immediately and runs
    /// until the ring is dropped.
    pub fn new(
        device: impl Into<DeviceHandle>,
        clock: SharedClock,
        depth: usize,
        mode: RingMode,
    ) -> Self {
        let device = device.into();
        let (sq_prod, sq_cons) = spsc::ring::<Sqe>(depth);
        let (cq_prod, cq_cons) = spsc::ring::<Cqe>(depth * 2);
        let stats = Arc::new(SqPollStats::default());
        let engine = match mode {
            RingMode::Enter => Engine::Enter { sq_cons, cq_prod },
            RingMode::SqPoll => {
                let shared = Arc::new(Handshake::default());
                let (device, clock) = (device.clone(), clock.clone());
                let (shared2, stats2) = (Arc::clone(&shared), Arc::clone(&stats));
                let handle = std::thread::Builder::new()
                    .name("sqpoll".into())
                    .spawn(move || poll_sq(sq_cons, cq_prod, &device, &clock, &shared2, &stats2))
                    .expect("spawn sqpoll thread");
                Engine::SqPoll {
                    shared,
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
            stats,
        }
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

    /// The device this ring submits to.
    pub fn device(&self) -> &DeviceHandle {
        &self.device
    }

    /// Commands submitted but not yet reaped.
    pub fn outstanding(&self) -> u64 {
        self.outstanding
    }

    /// The poller's park / wake-up counts.
    pub fn sqpoll_stats(&self) -> &Arc<SqPollStats> {
        &self.stats
    }

    /// True once the poller thread has exited. Before `drop`, only a panic
    /// in [`execute`] makes it.
    fn dead_poller(&self) -> bool {
        matches!(&self.engine, Engine::SqPoll { handle: Some(h), .. } if h.is_finished())
    }

    /// Pushes an SQE. In SQPOLL mode the poller picks it up — at once if
    /// it is polling, after one wake-up if it went to sleep; in enter mode
    /// the entry sits until [`IoUring::enter`].
    ///
    /// # Panics
    /// On a full SQ whose poller thread has died: nothing will ever drain
    /// it.
    pub fn submit(&mut self, sqe: Sqe) -> Result<(), RingError> {
        if let Err(back) = self.sq_prod.push(sqe) {
            assert!(
                !self.dead_poller(),
                "SQPOLL ring: the poller thread died; the SQ is full and {} commands will never complete",
                self.outstanding
            );
            return Err(RingError::SqFull(Box::new(back)));
        }
        self.outstanding += 1;
        if let Engine::SqPoll { shared, handle } = &self.engine {
            // Pairs with the poller's fence between raising the flag and
            // re-checking the SQ.
            fence(Ordering::SeqCst);
            if shared.need_wakeup.load(Ordering::SeqCst)
                && shared.need_wakeup.swap(false, Ordering::SeqCst)
            {
                self.stats.wakeups.fetch_add(1, Ordering::Relaxed);
                let poller = handle.as_ref().expect("joined only in drop");
                poller.thread().unpark();
            }
        }
        Ok(())
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
    ///
    /// # Panics
    /// When an SQPOLL ring's poller thread has died with commands
    /// outstanding: they will never complete.
    pub fn wait_all(&mut self) -> Vec<Cqe> {
        let mut out = Vec::with_capacity(self.outstanding as usize);
        while self.outstanding > 0 {
            self.enter();
            match self.reap() {
                Some(c) => out.push(c),
                None => {
                    assert!(
                        !self.dead_poller(),
                        "SQPOLL ring: the poller thread died with {} commands outstanding",
                        self.outstanding
                    );
                    std::thread::yield_now();
                }
            }
        }
        out
    }
}

impl Drop for IoUring {
    fn drop(&mut self) {
        if let Engine::SqPoll { shared, handle } = &mut self.engine {
            shared.stop.store(true, Ordering::SeqCst);
            if let Some(h) = handle.take() {
                // Unconditionally: an unpark ahead of the park makes that
                // park return at once, so this wake-up cannot be lost.
                h.thread().unpark();
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sqe::{CqeResult, SqeOp};
    use slimio_des::SimTime;
    use slimio_ftl::PlacementMode;
    use slimio_nvme::{DeviceConfig, LBA_BYTES};

    fn device() -> DeviceHandle {
        DeviceHandle::new(DeviceConfig::tiny(PlacementMode::Fdp { max_pids: 4 }))
    }

    fn enter_ring(dev: &DeviceHandle, clock: SharedClock, depth: usize) -> IoUring {
        IoUring::new(dev.clone(), clock, depth, RingMode::Enter)
    }

    fn sqpoll_ring(dev: &DeviceHandle, clock: SharedClock, depth: usize) -> IoUring {
        IoUring::new(dev.clone(), clock, depth, RingMode::SqPoll)
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
        let mut ring = enter_ring(&dev, clock, 8);
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
        let mut ring = sqpoll_ring(&dev, clock, 8);
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

    /// Waits — however long it takes — until the poller has gone to
    /// sleep more than `seen` times.
    fn await_park(ring: &IoUring, seen: u64) {
        while ring.sqpoll_stats().parks() <= seen {
            std::thread::sleep(SQ_THREAD_IDLE / 4);
        }
    }

    #[test]
    fn idle_poller_parks_and_the_next_submit_wakes_it() {
        let mut ring = sqpoll_ring(&device(), SharedClock::new(), 8);
        await_park(&ring, 0);
        assert_eq!(ring.sqpoll_stats().wakeups(), 0);
        ring.submit(write_sqe(1, 0, 1)).unwrap();
        let cqes = ring.wait_all();
        assert_eq!(cqes.len(), 1);
        assert!(cqes[0].is_ok());
        assert_eq!(ring.sqpoll_stats().wakeups(), 1);
        // It worked, lingered, and went back to sleep.
        await_park(&ring, 1);
        assert_eq!(ring.sqpoll_stats().wakeups(), 1);
    }

    #[test]
    fn submits_to_a_poller_that_is_awake_pay_no_wakeup() {
        let dev = device();
        let mut ring = sqpoll_ring(&dev, SharedClock::new(), 16);
        // Pin the poller inside `execute`: it pops the first entry and
        // blocks on the device, awake, for as long as this guard lives.
        let guard = dev.lock().unwrap();
        ring.submit(write_sqe(0, 0, 0)).unwrap();
        while !ring.sq_prod.is_empty() {
            std::thread::yield_now();
        }
        let woken = ring.sqpoll_stats().wakeups();
        for i in 1..16 {
            ring.submit(write_sqe(i, i, i as u8)).unwrap();
        }
        assert_eq!(
            ring.sqpoll_stats().wakeups(),
            woken,
            "the hot path pays no futex"
        );
        drop(guard);
        let ids: Vec<u64> = ring.wait_all().iter().map(|c| c.user_data).collect();
        assert_eq!(ids, (0..16).collect::<Vec<u64>>());
    }

    /// The lost-wake-up hunt: rounds of submit → wait for every CQE, with
    /// seeded pauses between rounds that land before, on and after the
    /// moment the poller goes to sleep. A lost wake-up hangs `wait_all`.
    #[test]
    fn no_wakeup_is_lost_whenever_the_submit_lands() {
        const ROUNDS: u64 = 100_000;
        let mut rng = slimio_des::Xoshiro256::new(0x5EED_5157);
        let mut ring = sqpoll_ring(&device(), SharedClock::new(), 8);
        let mut next = 0u64;
        for _ in 0..ROUNDS {
            // Mostly back to back; one round in sixteen straddles the
            // grace, half of those within a few microseconds of its end.
            let pause = match rng.gen_range(64) {
                0..=59 => Duration::ZERO,
                60 => SQ_THREAD_IDLE / 2,
                61 | 62 => {
                    SQ_THREAD_IDLE - Duration::from_micros(4)
                        + Duration::from_nanos(rng.gen_range(8_000))
                }
                _ => SQ_THREAD_IDLE * 2,
            };
            let t0 = Instant::now();
            while t0.elapsed() < pause {
                std::hint::spin_loop();
            }
            let burst = 1 + rng.gen_range(3);
            for i in 0..burst {
                let sqe = Sqe {
                    user_data: next + i,
                    op: SqeOp::Write {
                        lba: (next + i) % 64,
                        blocks: 1,
                        pid: 1,
                        data: None,
                    },
                    submitted_at: SimTime::ZERO,
                };
                ring.submit(sqe).unwrap();
            }
            let cqes = ring.wait_all();
            assert_eq!(cqes.len() as u64, burst);
            for cqe in cqes {
                assert!(cqe.is_ok(), "{cqe:?}");
                assert_eq!(cqe.user_data, next, "CQEs stay FIFO");
                next += 1;
            }
        }
        let stats = ring.sqpoll_stats();
        assert!(stats.parks() > 0 && stats.wakeups() > 0, "{stats:?}");
    }

    /// Poisons `dev`'s mutex, so the next `execute` panics its thread.
    fn poison(dev: &DeviceHandle) {
        let dev = dev.clone();
        let _ = std::thread::spawn(move || {
            let _guard = dev.lock().unwrap();
            panic!("poisoning the device mutex");
        })
        .join();
    }

    #[test]
    #[should_panic(expected = "poller thread died with 1 commands outstanding")]
    fn wait_all_on_a_dead_poller_fails_instead_of_hanging() {
        let dev = device();
        let mut ring = sqpoll_ring(&dev, SharedClock::new(), 8);
        poison(&dev);
        ring.submit(write_sqe(1, 0, 1)).unwrap();
        ring.wait_all();
    }

    #[test]
    #[should_panic(expected = "poller thread died; the SQ is full")]
    fn submit_to_a_full_sq_of_a_dead_poller_fails_instead_of_spinning() {
        let dev = device();
        let mut ring = sqpoll_ring(&dev, SharedClock::new(), 2);
        poison(&dev);
        // The backend's back-off: retry a full SQ until it drains.
        for i in 0.. {
            while ring.submit(write_sqe(i, i, 0)).is_err() {
                std::thread::yield_now();
            }
        }
    }

    #[test]
    fn enter_is_noop_under_sqpoll() {
        let dev = device();
        let mut ring = sqpoll_ring(&dev, SharedClock::new(), 8);
        assert_eq!(ring.enter(), 0);
    }

    #[test]
    fn sq_full_hands_back_entry() {
        let dev = device();
        let mut ring = enter_ring(&dev, SharedClock::new(), 2);
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
        let mut ring = enter_ring(&dev, SharedClock::new(), 4);
        ring.submit(write_sqe(9, 0, 0)).unwrap();
        let cqes = ring.wait_all();
        assert_eq!(cqes.len(), 1);
        assert!(!cqes[0].is_ok());
    }

    #[test]
    fn transiently_failed_write_comes_back_in_its_cqe() {
        let dev = device();
        dev.lock().unwrap().arm_fault("fail@1".parse().unwrap());
        let mut ring = enter_ring(&dev, SharedClock::new(), 4);
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
        let mut wal_ring = enter_ring(&dev, clock.clone(), 64);
        let dev2 = dev.clone();
        let clock2 = clock.clone();
        let snapshot = std::thread::spawn(move || {
            let mut snap_ring = sqpoll_ring(&dev2, clock2, 64);
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
        let mut check = enter_ring(&dev, clock, 8);
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
        assert!((dev.telemetry().waf - 1.0).abs() < 1e-12);
    }

    #[test]
    fn flush_and_deallocate_complete() {
        let dev = device();
        let mut ring = enter_ring(&dev, SharedClock::new(), 8);
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
        let mut ring = enter_ring(&dev, SharedClock::new(), 8);
        assert_eq!(ring.outstanding(), 0);
        ring.submit(write_sqe(1, 0, 1)).unwrap();
        ring.submit(write_sqe(2, 1, 1)).unwrap();
        assert_eq!(ring.outstanding(), 2);
        ring.enter();
        while ring.reap().is_some() {}
        assert_eq!(ring.outstanding(), 0);
    }
}
