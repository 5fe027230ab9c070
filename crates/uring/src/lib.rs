//! An in-process emulation of io_uring with NVMe passthru.
//!
//! The paper's SlimIO path is io_uring in SQPOLL mode issuing NVMe passthru
//! commands (`IORING_OP_URING_CMD`) straight to the NVMe character device,
//! bypassing the VFS, file systems, page cache, and block-layer scheduler.
//! This crate reproduces that path's *shape* inside one process:
//!
//! * [`spsc::SpscRing`] — a lock-free single-producer/single-consumer ring
//!   buffer (the SQ and CQ are exactly this in real io_uring: shared-memory
//!   rings with one producer and one consumer each).
//! * [`IoUring`] — an SQ/CQ pair bound to an emulated NVMe device through
//!   a `slimio_nvme::DeviceHandle`. An entry's [`SqeOp`] and its
//!   completion's [`CqeResult`] are the device's own command and outcome
//!   types, re-exported. Two operating modes:
//!   - **SQPOLL** ([`RingMode::SqPoll`]): a dedicated poller thread drains
//!     the SQ, so submission is just a ring push — no syscall, matching the
//!     paper's Snapshot-Path configuration (§4.1) — plus one wake-up when
//!     the poller, idle past a short grace, has gone to sleep;
//!   - **enter-driven** ([`RingMode::Enter`]): the submitter calls
//!     [`IoUring::enter`], modelling the `io_uring_enter(2)` syscall.
//! * [`SharedClock`] — an atomic virtual clock shared between submitter
//!   and poller threads, letting the functional stack carry device
//!   timestamps without wall-clock flakiness.
//! * [`PassthruCosts`] — the calibrated CPU costs of ring operations, used
//!   by the discrete-event system model (`slimio-system`).
//!
//! Because each `IoUring` owns its own rings and poller, a WAL-Path ring in
//! the main thread and a Snapshot-Path ring in a snapshot thread never
//! contend on anything except the NVMe device itself — the write isolation
//! the paper is after.

#![warn(missing_docs)]

pub mod clock;
pub mod costs;
pub mod ring;
pub mod spsc;
pub mod sqe;

pub use clock::SharedClock;
pub use costs::PassthruCosts;
pub use ring::{IoUring, RingError, RingMode, SqPollStats};
pub use spsc::SpscRing;
pub use sqe::{Cqe, CqeResult, Sqe, SqeOp};
