//! Submission and completion entry types.
//!
//! An entry carries the device's own command and comes back with the
//! device's own outcome: the ring adds only the cookie and the
//! timestamps.

use slimio_des::SimTime;

/// Operation carried by a submission entry: the device's
/// [`Command`](slimio_nvme::Command), the NVMe passthru command set
/// SlimIO needs (write with placement ID, read, deallocate, flush).
pub use slimio_nvme::Command as SqeOp;
pub use slimio_nvme::CqeResult;

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

/// A completion queue entry.
#[derive(Clone, Debug)]
pub struct Cqe {
    /// Cookie from the originating [`Sqe`].
    pub user_data: u64,
    /// Virtual completion time on the device.
    pub completed_at: SimTime,
    /// Outcome. A write the device failed transiently comes back in
    /// [`CqeResult::Requeue`] for the submitter to re-drive, the way
    /// [`crate::RingError::SqFull`] hands back an unqueued entry.
    pub result: CqeResult,
}

impl Cqe {
    /// True when the operation succeeded.
    pub fn is_ok(&self) -> bool {
        self.result.is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimio_nvme::DeviceError;

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
