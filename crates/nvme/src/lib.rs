//! An emulated NVMe SSD with Flexible Data Placement support.
//!
//! This crate plays the role of the FEMU-emulated FDP device in the paper's
//! testbed. It binds together:
//!
//! * the FTL state machine (`slimio-ftl`) — placement, GC, WAF;
//! * the NAND timing oracle (`slimio-nand`) — per-die/channel latency;
//! * a RAM-backed **data plane** so the functional stack (WAL, snapshots,
//!   recovery) moves real bytes and can be crash-tested.
//!
//! The device is synchronous-with-timestamps: callers pass the current
//! virtual time and receive the completion time of each command. Both the
//! io_uring emulation (`slimio-uring`) and the kernel-path model
//! (`slimio-kpath`) sit on top of this interface, so baseline and SlimIO
//! stacks exercise *the same device* — exactly the paper's setup, where the
//! only difference is the path and the placement hints.
//!
//! A device shared between paths lives behind a [`DeviceHandle`], the one
//! way to reach it. [`DeviceHandle::submit`] is where every I/O [`Command`]
//! meets the device — the point where, in the paper's Figure 3, the
//! WAL-Path and Snapshot-Path rings meet at the NVMe controller.
//! [`DeviceHandle::counters`] reads the counters a running server polls
//! per batch (write commands, injected stall time, GC passes, host pages)
//! as relaxed atomics the device bumps, so it never waits for the device;
//! [`DeviceHandle::lock`] hands out the whole device for admin calls and
//! for callers that drive it across a loop.
//!
//! The logical block size equals the NAND page size (4 KiB), so
//! LBA == LPN throughout.

#![warn(missing_docs)]

pub mod command;
pub mod device;
pub mod fault;
pub mod handle;

pub use command::{Command, Completion, CqeResult, DeviceError};
pub use device::{DeviceConfig, DeviceCounters, DeviceTelemetry, NvmeDevice};
pub use fault::{FaultKind, FaultPlan, FaultSpecError};
pub use handle::DeviceHandle;

/// Logical block size in bytes (equal to the NAND page size).
pub const LBA_BYTES: usize = 4096;
