//! [`DeviceHandle`]: the one way to reach a shared device.

use std::sync::{Arc, LockResult, Mutex, MutexGuard, PoisonError};

use slimio_des::SimTime;

use crate::command::{Command, Completion, CqeResult, DeviceError};
use crate::device::{Counters, DeviceConfig, DeviceCounters, DeviceTelemetry, NvmeDevice};

/// A shared emulated device. Cloning it shares the device.
///
/// Every I/O command reaches the device through [`DeviceHandle::submit`].
/// [`DeviceHandle::counters`] reads what a running server polls per batch
/// without taking the device lock; [`DeviceHandle::lock`] hands out the
/// whole device for admin calls (power, fault plans, capacity) and for
/// sections that drive it across a loop.
#[derive(Clone)]
pub struct DeviceHandle {
    device: Arc<Mutex<NvmeDevice>>,
    counters: Arc<Counters>,
}

impl DeviceHandle {
    /// Builds a powered-on, empty device behind a new handle.
    pub fn new(cfg: DeviceConfig) -> Self {
        Arc::new(Mutex::new(NvmeDevice::new(cfg))).into()
    }

    /// Executes one command at virtual time `now` and returns its
    /// completion time and outcome. A write the device failed
    /// transiently ([`DeviceError::Injected`]) comes back whole in
    /// [`CqeResult::Requeue`], completing at `now`, as does any error.
    ///
    /// # Panics
    /// When a thread panicked while holding the device.
    // Inlined across crates: every ring entry runs through here.
    #[inline]
    pub fn submit(&self, cmd: Command, now: SimTime) -> (SimTime, CqeResult) {
        let mut dev = self.device.lock().expect("device mutex poisoned");
        let done = |r: Result<Completion, DeviceError>| match r {
            Ok(c) => (
                c.done_at,
                CqeResult::Done {
                    gc_copied: c.gc_copied,
                },
            ),
            Err(e) => (now, CqeResult::Error(e)),
        };
        match cmd {
            Command::Write {
                lba,
                blocks,
                pid,
                ref data,
            } => match dev.write(lba, blocks, pid, data.as_deref(), now) {
                Err(DeviceError::Injected) => (now, CqeResult::Requeue(Box::new(cmd))),
                r => done(r),
            },
            Command::Read { lba, blocks } => match dev.read(lba, blocks, now) {
                Ok((c, data)) => (c.done_at, CqeResult::Data(data)),
                Err(e) => (now, CqeResult::Error(e)),
            },
            Command::Deallocate { lba, blocks } => done(dev.deallocate(lba, blocks, now)),
            Command::Flush => done(dev.flush(now)),
        }
    }

    /// The whole device, for what is not an I/O command.
    pub fn lock(&self) -> LockResult<MutexGuard<'_, NvmeDevice>> {
        self.device.lock()
    }

    /// The device's running counters, read without its lock: a thread
    /// holding [`DeviceHandle::lock`] does not block this.
    pub fn counters(&self) -> DeviceCounters {
        self.counters.load()
    }

    /// A consistent snapshot of device, FTL and NAND state, taken under
    /// the device lock. It reads numbers only, so it stays readable after
    /// a thread panicked while holding the device: `INFO` and `/metrics`
    /// keep answering.
    pub fn telemetry(&self) -> DeviceTelemetry {
        self.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .telemetry()
    }
}

/// Adopts a device its caller already shares behind a mutex.
impl From<Arc<Mutex<NvmeDevice>>> for DeviceHandle {
    fn from(device: Arc<Mutex<NvmeDevice>>) -> Self {
        let counters = Arc::clone(&device.lock().expect("device mutex poisoned").counters);
        DeviceHandle { device, counters }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LBA_BYTES;
    use slimio_des::Xoshiro256;
    use slimio_ftl::PlacementMode;

    fn tiny() -> DeviceConfig {
        DeviceConfig::tiny(PlacementMode::Conventional)
    }

    fn write(lba: u64, blocks: u64, fill: Option<u8>) -> Command {
        Command::Write {
            lba,
            blocks,
            pid: 0,
            data: fill.map(|b| vec![b; blocks as usize * LBA_BYTES].into_boxed_slice()),
        }
    }

    #[test]
    fn counters_are_read_while_the_device_is_held() {
        let h = DeviceHandle::new(tiny());
        h.lock()
            .unwrap()
            .arm_fault("slow@1:1".parse().expect("valid spec"));
        let cap = h.lock().unwrap().capacity_blocks();
        // Two full overwrite passes: the second must collect.
        let writes = 2 * cap;
        for i in 0..writes {
            assert!(h.submit(write(i % cap, 1, None), SimTime::ZERO).1.is_ok());
        }
        let guard = h.lock().unwrap();
        let gc_passes = guard.ftl_stats().gc_passes;
        assert!(gc_passes > 0, "the overwrite pass collected nothing");
        assert_eq!(
            h.counters(),
            DeviceCounters {
                write_commands: writes,
                wall_stall_ns: writes * 1_000,
                gc_passes,
                host_pages: writes,
            }
        );
        drop(guard);
    }

    /// The command sequence for the differential test: payload and
    /// timing-only writes of one to eight blocks, reads, deallocates and
    /// flushes at rising times, and enough overwrites to force GC.
    fn sequence(cap: u64) -> Vec<(Command, SimTime)> {
        let mut rng = Xoshiro256::new(0xD1FF);
        let mut out = Vec::new();
        for i in 0..3 * cap {
            let now = SimTime::from_micros(i * 7);
            let lba = rng.gen_range(cap - 8);
            let blocks = 1 + rng.gen_range(8);
            let cmd = match rng.gen_range(10) {
                0..=3 => write(lba, blocks, Some(i as u8)),
                4..=6 => write(lba, blocks, None),
                7 => Command::Read { lba, blocks },
                8 => Command::Deallocate { lba, blocks },
                _ => Command::Flush,
            };
            out.push((cmd, now));
        }
        out
    }

    #[test]
    fn submit_matches_the_direct_device_methods() {
        let h = DeviceHandle::new(tiny());
        let mut twin = NvmeDevice::new(tiny());
        for (cmd, now) in sequence(twin.capacity_blocks()) {
            let (done, result) = h.submit(cmd.clone(), now);
            let (direct_done, direct_data) = match cmd {
                Command::Write {
                    lba,
                    blocks,
                    pid,
                    data,
                } => (twin.write(lba, blocks, pid, data.as_deref(), now), None),
                Command::Read { lba, blocks } => match twin.read(lba, blocks, now) {
                    Ok((c, data)) => (Ok(c), data),
                    Err(e) => (Err(e), None),
                },
                Command::Deallocate { lba, blocks } => (twin.deallocate(lba, blocks, now), None),
                Command::Flush => (twin.flush(now), None),
            };
            let direct_done = direct_done.expect("the twin accepts the command").done_at;
            assert_eq!(done, direct_done);
            assert_eq!(result.into_result(), Ok(direct_data));
        }
        let telemetry = h.telemetry();
        assert!(telemetry.gc_passes > 0, "the sequence never forced GC");
        assert_eq!(telemetry, twin.telemetry());
    }

    #[test]
    fn a_transiently_failed_write_comes_back_and_succeeds_when_resubmitted() {
        let h = DeviceHandle::new(tiny());
        h.lock()
            .unwrap()
            .arm_fault("fail@2".parse().expect("valid spec"));
        assert!(h.submit(write(0, 1, Some(1)), SimTime::ZERO).1.is_ok());
        let sent = write(1, 2, Some(2));
        let (_, result) = h.submit(sent.clone(), SimTime::ZERO);
        let CqeResult::Requeue(back) = result else {
            panic!("expected the write handed back, got {result:?}");
        };
        assert_eq!(*back, sent);
        assert!(h.submit(*back, SimTime::ZERO).1.is_ok());
        // Both attempts count: fault plans index write commands.
        assert_eq!(h.counters().write_commands, 3);
        let (_, read) = h.submit(Command::Read { lba: 1, blocks: 2 }, SimTime::ZERO);
        let page = read.into_result().expect("read").expect("data plane");
        assert!(page.iter().all(|&b| b == 2));
    }
}
