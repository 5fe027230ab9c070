//! Experiment construction: device, stack, workload, and scale in one
//! place, so every table/figure binary builds runs the same way.
//!
//! A scale of `s` shrinks *everything* proportionally — key range, op
//! count, device capacity, RU size, WAL-rotation threshold — so capacity
//! pressure, GC frequency per byte written, and snapshot-to-WAL ratios
//! match the paper's full-size configuration. The default scale (1/16)
//! runs each table cell in seconds; `--full` in the bench binaries sets
//! `s = 1`.

use slimio_des::SimTime;
use slimio_kpath::FsProfile;
use slimio_nand::{Geometry, Latencies};
use slimio_nvme::{DeviceConfig, DeviceHandle};
use slimio_workload::{RedisBench, Scale, WorkloadGen, YcsbA};

use crate::cost::CostModel;
use crate::model::{Policy, RunResult, SystemConfig, SystemModel};
use crate::stack::{KernelPath, PassthruPath, PathModel};

/// Which I/O stack to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StackKind {
    /// Baseline: EXT4 over a conventional SSD.
    KernelExt4,
    /// Baseline: F2FS over a conventional SSD (the paper's default
    /// baseline, Table 3–5).
    KernelF2fs,
    /// SlimIO passthru over a conventional SSD (Figure 4's middle
    /// ground — fast path, no placement).
    PassthruConventional,
    /// SlimIO passthru over the FDP SSD (the full system).
    PassthruFdp,
}

impl StackKind {
    /// Human-readable label used in the output tables.
    pub fn label(&self) -> &'static str {
        match self {
            StackKind::KernelExt4 => "Baseline (EXT4)",
            StackKind::KernelF2fs => "Baseline",
            StackKind::PassthruConventional => "SlimIO w/o FDP",
            StackKind::PassthruFdp => "SlimIO",
        }
    }
}

/// Which workload to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadKind {
    /// redis-benchmark: 50 clients, 4 KiB values, write-only.
    RedisBench,
    /// YCSB-A: 8 threads, 2 KiB values, 50:50 GET:SET, Zipfian.
    YcsbA,
}

/// One fully specified run.
#[derive(Clone, Copy, Debug)]
pub struct Experiment {
    /// Workload.
    pub workload: WorkloadKind,
    /// I/O stack.
    pub stack: StackKind,
    /// Logging policy.
    pub policy: Policy,
    /// Proportional scale (1.0 = the paper's configuration).
    pub scale: f64,
    /// Device capacity relative to the scaled paper device (1.0 = the
    /// paper's 180 GB × scale; < 1 raises GC pressure, the Figure 2
    /// "under GC" scenario).
    pub device_ratio: f64,
    /// Age the device before the run: write every logical LBA once so the
    /// FTL starts fully valid and every subsequent write works against GC
    /// (the Figure 2 "under GC" scenario).
    pub age_device: bool,
    /// Run an on-demand snapshot at the end (redis-benchmark reps do).
    pub on_demand_at_end: bool,
    /// Workload repetitions in one run (the paper repeats the
    /// redis-benchmark five times over the same device, building the GC
    /// pressure behind Table 3's WAF and Figure 4's dips; each repetition
    /// ends with an On-Demand snapshot).
    pub reps: u32,
    /// RNG seed.
    pub seed: u64,
    /// Cost-model overrides.
    pub cost: CostModel,
}

impl Experiment {
    /// The paper's default setup for a workload/stack/policy at 1/16
    /// scale.
    pub fn new(workload: WorkloadKind, stack: StackKind, policy: Policy) -> Self {
        Experiment {
            workload,
            stack,
            policy,
            scale: 1.0 / 16.0,
            device_ratio: 1.0,
            age_device: false,
            on_demand_at_end: workload == WorkloadKind::RedisBench,
            reps: if workload == WorkloadKind::RedisBench {
                3
            } else {
                1
            },
            seed: 42,
            cost: CostModel::default(),
        }
    }

    /// Builds the emulated device for this experiment.
    pub fn build_device(&self) -> DeviceHandle {
        let geometry = Geometry::scaled((self.scale * self.device_ratio).min(1.0));
        let ftl = match self.stack {
            StackKind::PassthruFdp => {
                // RU scales with the device (1 GiB at full scale), but
                // never below one block per die so sequential streams keep
                // full die parallelism on scaled devices.
                let ru_bytes = ((1u64 << 30) as f64 * self.scale * self.device_ratio) as u64;
                let ru_bytes = ru_bytes
                    .max(geometry.dies() as u64 * geometry.block_bytes())
                    .next_power_of_two();
                slimio_ftl::FtlConfig::fdp_with_ru(geometry, ru_bytes)
            }
            _ => slimio_ftl::FtlConfig::conventional(geometry),
        };
        DeviceHandle::new(DeviceConfig {
            ftl,
            latencies: Latencies::default(),
            store_data: false,
            // FEMU's black-box FTL ignores Dataset Management: on the
            // emulated testbed, invalidation happens only by overwrite.
            honor_deallocate: false,
        })
    }

    /// Builds the I/O path over `device`.
    pub fn build_path(&self, device: DeviceHandle) -> Box<dyn PathModel> {
        match self.stack {
            StackKind::KernelExt4 => Box::new(KernelPath::new(device, FsProfile::ext4())),
            StackKind::KernelF2fs => Box::new(KernelPath::new(device, FsProfile::f2fs())),
            StackKind::PassthruConventional => Box::new(PassthruPath::new(device, 256, false)),
            StackKind::PassthruFdp => Box::new(PassthruPath::new(device, 256, true)),
        }
    }

    /// Builds the workload generator (repeated `reps` times).
    pub fn build_workload(&self) -> Box<dyn WorkloadGen> {
        let inner: Box<dyn WorkloadGen> = match self.workload {
            WorkloadKind::RedisBench => {
                Box::new(RedisBench::new(Scale::ratio(self.scale), self.seed))
            }
            WorkloadKind::YcsbA => Box::new(YcsbA::new(Scale::ratio(self.scale), self.seed)),
        };
        if self.reps > 1 {
            Box::new(Repeated {
                inner,
                factor: self.reps as u64,
            })
        } else {
            inner
        }
    }

    /// The WAL-snapshot rotation threshold (the paper's 52 GB, scaled).
    pub fn wal_threshold(&self) -> u64 {
        (52.0e9 * self.scale) as u64
    }

    /// Assembles the system configuration.
    pub fn system_config(&self) -> SystemConfig {
        let mut cost = self.cost;
        if self.workload == WorkloadKind::YcsbA {
            // YCSB values are synthetic random bytes: incompressible.
            cost.compress_ratio = 1.0;
        }
        let base_ops = match self.workload {
            WorkloadKind::RedisBench => {
                slimio_workload::RedisBench::new(Scale::ratio(self.scale), self.seed).total_ops()
            }
            WorkloadKind::YcsbA => {
                slimio_workload::YcsbA::new(Scale::ratio(self.scale), self.seed).total_ops()
            }
        };
        SystemConfig {
            policy: self.policy,
            wal_snapshot_threshold: self.wal_threshold(),
            on_demand_at_end: self.on_demand_at_end,
            od_interval_ops: (self.reps > 1 && self.on_demand_at_end).then_some(base_ops),
            cost,
            stats_interval: SimTime::from_secs(1),
            snap_batch: 1024,
            entry_overhead: 64,
            seed: self.seed ^ 0x5EED,
            ops_limit: None,
        }
    }

    /// Fills every logical LBA once (an "aged" device with no free
    /// logical space at the FTL — the standard way to provoke sustained
    /// GC).
    pub fn age(device: &DeviceHandle) {
        let mut dev = device.lock().expect("device mutex poisoned");
        let cap = dev.capacity_blocks();
        let mut lba = 0;
        while lba < cap {
            let n = 512.min(cap - lba);
            dev.write(lba, n, 0, None, SimTime::ZERO)
                .expect("age write");
            lba += n;
        }
    }

    /// Runs the experiment end to end.
    pub fn run(&self) -> RunResult {
        let device = self.build_device();
        if self.age_device {
            Self::age(&device);
        }
        let path = self.build_path(device.clone());
        let gen = self.build_workload();
        let preload = gen.preload_records();
        let mut model = SystemModel::new(self.system_config(), gen, path);
        if preload > 0 {
            model.preload(preload);
        }
        model.run()
    }
}

/// Repeats an inner workload `factor` times (the paper's repetitions).
struct Repeated {
    inner: Box<dyn WorkloadGen>,
    factor: u64,
}

impl WorkloadGen for Repeated {
    fn next_op(&mut self) -> slimio_workload::Op {
        self.inner.next_op()
    }
    fn total_ops(&self) -> u64 {
        self.inner.total_ops() * self.factor
    }
    fn key_space(&self) -> u64 {
        self.inner.key_space()
    }
    fn value_len(&self) -> u32 {
        self.inner.value_len()
    }
    fn clients(&self) -> u32 {
        self.inner.clients()
    }
    fn preload_records(&self) -> u64 {
        self.inner.preload_records()
    }
}

/// Convenience: the paper's Periodical-Log policy.
pub fn periodical() -> Policy {
    Policy::Periodical {
        interval: SimTime::from_secs(1),
    }
}

/// Convenience: the paper's Always-Log policy.
pub fn always() -> Policy {
    Policy::Always
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: WorkloadKind, stack: StackKind, policy: Policy) -> Experiment {
        let mut e = Experiment::new(workload, stack, policy);
        e.scale = 1.0 / 512.0;
        e
    }

    #[test]
    fn smoke_redis_bench_baseline() {
        let r = tiny(
            WorkloadKind::RedisBench,
            StackKind::KernelF2fs,
            periodical(),
        )
        .run();
        assert!(r.ops > 0);
        assert!(r.avg_rps > 1000.0, "rps {}", r.avg_rps);
        assert!(r.duration > SimTime::ZERO);
        // redis-benchmark reps end with an on-demand snapshot.
        assert!(!r.snapshot_times.is_empty());
    }

    #[test]
    fn smoke_redis_bench_slimio() {
        let r = tiny(
            WorkloadKind::RedisBench,
            StackKind::PassthruFdp,
            periodical(),
        )
        .run();
        assert!(r.ops > 0);
        assert!((r.waf.waf() - 1.0).abs() < 1e-9, "WAF {}", r.waf.waf());
    }

    #[test]
    fn slimio_beats_baseline_on_wal_only_rps() {
        let base = tiny(
            WorkloadKind::RedisBench,
            StackKind::KernelF2fs,
            periodical(),
        )
        .run();
        let slim = tiny(
            WorkloadKind::RedisBench,
            StackKind::PassthruFdp,
            periodical(),
        )
        .run();
        assert!(
            slim.wal_only_rps > base.wal_only_rps,
            "slimio {} must beat baseline {}",
            slim.wal_only_rps,
            base.wal_only_rps
        );
    }

    #[test]
    fn always_log_slower_than_periodical() {
        let peri = tiny(
            WorkloadKind::RedisBench,
            StackKind::KernelF2fs,
            periodical(),
        )
        .run();
        let alws = tiny(WorkloadKind::RedisBench, StackKind::KernelF2fs, always()).run();
        assert!(
            alws.avg_rps < peri.avg_rps,
            "always {} must be slower than periodical {}",
            alws.avg_rps,
            peri.avg_rps
        );
    }

    #[test]
    fn ycsb_runs_with_preload_and_gets() {
        let r = tiny(WorkloadKind::YcsbA, StackKind::KernelF2fs, periodical()).run();
        assert!(r.get_lat.count() > 0);
        assert!(r.set_lat.count() > 0);
        assert!(r.mem_base > 0);
    }

    #[test]
    fn memory_roughly_doubles_during_snapshots() {
        let mut e = tiny(
            WorkloadKind::RedisBench,
            StackKind::KernelF2fs,
            periodical(),
        );
        e.on_demand_at_end = false;
        // Force several WAL-snapshots by shrinking the run's threshold:
        // handled via scale; just check the invariant when snapshots ran.
        let r = e.run();
        if !r.snapshot_times.is_empty() {
            assert!(r.mem_peak > r.mem_base);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let e = tiny(
            WorkloadKind::RedisBench,
            StackKind::PassthruFdp,
            periodical(),
        );
        let a = e.run();
        let b = e.run();
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.duration, b.duration);
        assert_eq!(a.set_lat.p999(), b.set_lat.p999());
        assert_eq!(a.mem_peak, b.mem_peak);
    }
}
