//! NVMe command and completion types.

use slimio_des::SimTime;
use slimio_ftl::{FtlError, Lpn, Pid};

/// The I/O command set the emulated controller accepts: the NVMe
/// passthru commands SlimIO needs (write with placement ID, read,
/// deallocate, flush).
///
/// One value is one command, whichever way it travels: an io_uring
/// submission entry carries it (`slimio-uring` re-exports it as
/// `SqeOp`), and [`DeviceHandle::submit`](crate::DeviceHandle::submit)
/// executes it. `Write` carries a placement identifier, mirroring the
/// NVMe 2.0 directive fields that FDP uses; conventional devices ignore
/// it. Its payload is optional, so timing-only callers (the
/// discrete-event simulation) don't have to materialize buffers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// Write `blocks` logical blocks starting at `lba`, tagged with `pid`.
    Write {
        /// Starting logical block address.
        lba: Lpn,
        /// Number of 4 KiB logical blocks.
        blocks: u64,
        /// FDP placement identifier (0 = default stream).
        pid: Pid,
        /// Payload of exactly `blocks * 4096` bytes; `None` for
        /// timing-only runs.
        data: Option<Box<[u8]>>,
    },
    /// Read `blocks` logical blocks starting at `lba`.
    Read {
        /// Starting logical block address.
        lba: Lpn,
        /// Number of 4 KiB logical blocks.
        blocks: u64,
    },
    /// Deallocate (trim) `blocks` logical blocks starting at `lba`.
    Deallocate {
        /// Starting logical block address.
        lba: Lpn,
        /// Number of 4 KiB logical blocks.
        blocks: u64,
    },
    /// Flush — a barrier that completes when all previously submitted
    /// writes have reached the NAND array.
    Flush,
}

impl Command {
    /// Number of logical blocks this command touches.
    pub fn blocks(&self) -> u64 {
        match self {
            Command::Write { blocks, .. }
            | Command::Read { blocks, .. }
            | Command::Deallocate { blocks, .. } => *blocks,
            Command::Flush => 0,
        }
    }
}

/// Outcome of one executed [`Command`].
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
    /// nothing: the command is handed back for the submitter to re-drive.
    Requeue(Box<Command>),
}

impl CqeResult {
    /// True when the command succeeded.
    pub fn is_ok(&self) -> bool {
        !matches!(self, CqeResult::Error(_) | CqeResult::Requeue(_))
    }

    /// The read payload (`None` for other commands and for a device
    /// without a data plane), or the error; a handed-back write is
    /// [`DeviceError::Injected`].
    pub fn into_result(self) -> Result<Option<Vec<u8>>, DeviceError> {
        match self {
            CqeResult::Done { .. } => Ok(None),
            CqeResult::Data(data) => Ok(data),
            CqeResult::Error(e) => Err(e),
            CqeResult::Requeue(_) => Err(DeviceError::Injected),
        }
    }
}

/// Completion record for a submitted command.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Completion {
    /// Virtual time at which the command finished on the device.
    pub done_at: SimTime,
    /// Pages the device relocated for GC while serving this command
    /// (0 in the common case; large values mark the GC stalls of Figure 4).
    pub gc_copied: u64,
    /// Erase-block erases triggered while serving this command.
    pub gc_erases: u64,
}

/// Device-level errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeviceError {
    /// The FTL rejected the operation.
    Ftl(FtlError),
    /// A read touched an LBA that has never been written (and strict reads
    /// were requested).
    UnwrittenRead {
        /// The offending LBA.
        lba: Lpn,
    },
    /// Payload length does not match the block count.
    PayloadSize {
        /// Bytes expected (`blocks * 4096`).
        expected: usize,
        /// Bytes provided.
        got: usize,
    },
    /// Device is powered off (crash injection).
    PoweredOff,
    /// A transient failure injected by an armed fault plan. Nothing was
    /// persisted; the host may retry the command.
    Injected,
}

impl From<FtlError> for DeviceError {
    fn from(e: FtlError) -> Self {
        DeviceError::Ftl(e)
    }
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::Ftl(e) => write!(f, "ftl: {e}"),
            DeviceError::UnwrittenRead { lba } => write!(f, "read of unwritten lba {lba}"),
            DeviceError::PayloadSize { expected, got } => {
                write!(f, "payload size {got} != expected {expected}")
            }
            DeviceError::PoweredOff => write!(f, "device is powered off"),
            DeviceError::Injected => write!(f, "injected transient write failure"),
        }
    }
}

impl std::error::Error for DeviceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_block_counts() {
        assert_eq!(
            Command::Write {
                lba: 0,
                blocks: 8,
                pid: 1,
                data: None,
            }
            .blocks(),
            8
        );
        assert_eq!(Command::Read { lba: 0, blocks: 3 }.blocks(), 3);
        assert_eq!(Command::Flush.blocks(), 0);
    }

    #[test]
    fn error_display() {
        let e = DeviceError::PayloadSize {
            expected: 4096,
            got: 100,
        };
        assert!(e.to_string().contains("4096"));
        let e = DeviceError::UnwrittenRead { lba: 7 };
        assert!(e.to_string().contains("7"));
    }
}
