//! Submission and completion entry types.

use slimio_des::SimTime;
use slimio_ftl::{Lpn, Pid};
use slimio_nvme::DeviceError;

/// Operation carried by a submission entry — the NVMe passthru command set
//  SlimIO needs (write with placement ID, read, deallocate, flush).
#[derive(Clone, Debug)]
pub enum SqeOp {
    /// Passthru write: `blocks` logical blocks at `lba`, placement `pid`,
    /// with payload (omit for timing-only runs).
    Write {
        /// Starting LBA.
        lba: Lpn,
        /// Block count.
        blocks: u64,
        /// Placement identifier carried in the NVMe directive field.
        pid: Pid,
        /// Optional payload of `blocks * 4096` bytes.
        data: Option<Box<[u8]>>,
    },
    /// Passthru read of `blocks` logical blocks at `lba`.
    Read {
        /// Starting LBA.
        lba: Lpn,
        /// Block count.
        blocks: u64,
    },
    /// Deallocate a range.
    Deallocate {
        /// Starting LBA.
        lba: Lpn,
        /// Block count.
        blocks: u64,
    },
    /// Device flush barrier.
    Flush,
}

/// A submission queue entry.
#[derive(Clone, Debug)]
pub struct Sqe {
    /// Caller cookie, returned verbatim in the matching [`Cqe`].
    pub user_data: u64,
    /// The operation.
    pub op: SqeOp,
    /// Virtual time at which the host submitted this entry.
    pub submitted_at: SimTime,
}

/// Result payload of a completed entry.
#[derive(Clone, Debug)]
pub enum CqeResult {
    /// Write/deallocate/flush completed.
    Done {
        /// GC pages relocated while serving this command.
        gc_copied: u64,
    },
    /// Read completed; payload present when the device stores data.
    Data(Option<Vec<u8>>),
    /// The device rejected the command.
    Error(DeviceError),
    /// A write failed transiently ([`DeviceError::Injected`]) and persisted
    /// nothing: the operation is handed back for the submitter to re-drive
    /// (the way [`crate::RingError::SqFull`] hands back an unqueued entry).
    Requeue(Box<SqeOp>),
}

/// A completion queue entry.
#[derive(Clone, Debug)]
pub struct Cqe {
    /// Cookie from the originating [`Sqe`].
    pub user_data: u64,
    /// Virtual completion time on the device.
    pub completed_at: SimTime,
    /// Outcome.
    pub result: CqeResult,
}

impl Cqe {
    /// True when the operation succeeded.
    pub fn is_ok(&self) -> bool {
        !matches!(self.result, CqeResult::Error(_) | CqeResult::Requeue(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cqe_ok_detection() {
        let ok = Cqe {
            user_data: 1,
            completed_at: SimTime::ZERO,
            result: CqeResult::Done { gc_copied: 0 },
        };
        assert!(ok.is_ok());
        let err = Cqe {
            user_data: 2,
            completed_at: SimTime::ZERO,
            result: CqeResult::Error(DeviceError::PoweredOff),
        };
        assert!(!err.is_ok());
    }
}
