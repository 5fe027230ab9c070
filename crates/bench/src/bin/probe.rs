//! Developer diagnostic: where does main-lane time go on the baseline?

use slimio_bench::Cli;
use slimio_kpath::FsProfile;
use slimio_system::experiment::periodical;
use slimio_system::stack::KernelPath;
use slimio_system::{Experiment, StackKind, SystemModel, WorkloadKind};

fn main() {
    let cli = Cli::parse();
    let e = cli.configure(Experiment::new(
        WorkloadKind::RedisBench,
        StackKind::KernelF2fs,
        periodical(),
    ));
    let path = KernelPath::new(e.build_device(), FsProfile::f2fs());
    let gen = e.build_workload();
    let model = SystemModel::new(e.system_config(), gen, path);
    let (r, path) = model.run_keep_path();
    eprintln!(
        "ops={} dur={:.2}s walOnly={:.0} walSnap={:.0} snaps={:?}",
        r.ops,
        r.duration.as_secs_f64(),
        r.wal_only_rps,
        r.wal_snap_rps,
        r.snapshot_times
            .iter()
            .map(|t| t.as_secs_f64())
            .collect::<Vec<_>>()
    );
    eprintln!(
        "main-lane: throttle={:.3}s journal={:.3}s syncWait={:.3}s",
        path.wal_throttle.as_secs_f64(),
        path.wal_journal.as_secs_f64(),
        path.wal_sync_wait.as_secs_f64(),
    );
    eprintln!(
        "snap-lane: io_cpu={:.3}s dev_wait={:.3}s fs_cpu={:.3}s",
        path.snap_io_cpu().as_secs_f64(),
        path.snap_dev_wait().as_secs_f64(),
        path.fs_cpu_snapshot().as_secs_f64(),
    );
    eprintln!(
        "cache: hits={} misses={} dirty={} journalBusy={:.3}s",
        path.fs().cache().hits(),
        path.fs().cache().misses(),
        path.fs().cache().dirty_count(),
        path.fs().journal_busy().as_secs_f64(),
    );
}

// Re-exported trait methods used above.
use slimio_system::stack::PathModel;
