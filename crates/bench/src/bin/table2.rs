//! Table 2 — CPU usage of the file-system write path in the snapshot
//! process (F2FS baseline).
//!
//! Two scenarios: Snapshot-Only (no query traffic) and Snapshot&WAL. The
//! paper measures 11.53 % and 13.61 % of snapshot-process CPU cycles in
//! the F2FS write path — "control path" overhead the passthru path
//! removes entirely.

use std::time::Instant;

use slimio_bench::{maybe_write_perf, paper, run_cells, summarize, Cli, PerfCell};
use slimio_metrics::Table;
use slimio_system::experiment::periodical;
use slimio_system::{Experiment, StackKind, WorkloadKind};

fn main() {
    let cli = Cli::parse();
    let suite_start = Instant::now();
    println!("Table 2: CPU usage of the F2FS write path during snapshots\n");
    let mut table = Table::new(["scenario", "FS-path CPU % (meas)", "FS-path CPU % (paper)"]);

    let cells = [
        ("snapshot-only", paper::TABLE2_SNAPSHOT_ONLY_PCT),
        ("snapshot&wal", paper::TABLE2_SNAPSHOT_WAL_PCT),
    ];
    let results = run_cells(&cells, cli.jobs, |_, &(label, _)| {
        let mut e = cli.configure(Experiment::new(
            WorkloadKind::RedisBench,
            StackKind::KernelF2fs,
            periodical(),
        ));
        let t0 = Instant::now();
        let r = if label == "snapshot-only" {
            // Snapshot-Only: no measured query phase — preload the
            // dataset, run zero queries, then take one on-demand snapshot
            // against the idle system.
            e.on_demand_at_end = true;
            run_snapshot_only(e)
        } else {
            e.run()
        };
        (r, t0.elapsed().as_secs_f64())
    });
    let mut perf = Vec::new();
    for ((label, paper_pct), (r, wall)) in cells.iter().zip(&results) {
        summarize(label, r);
        perf.push(PerfCell::from_run(label, *wall, r));
        let row_label = if *label == "snapshot-only" {
            "Snapshot Only"
        } else {
            "Snapshot&WAL"
        };
        table.row([
            row_label.to_string(),
            format!("{:.2}", r.fs_cpu_fraction * 100.0),
            format!("{paper_pct:.2}"),
        ]);
    }
    println!("{}", table.render());
    if cli.csv {
        println!("{}", table.render_csv());
    }
    maybe_write_perf(&cli, "table2", suite_start.elapsed().as_secs_f64(), &perf);
}

/// Preloads the dataset, runs zero queries, and takes one on-demand
/// snapshot against the idle system — the paper's Snapshot-Only scenario.
fn run_snapshot_only(e: Experiment) -> slimio_system::RunResult {
    let path = e.build_path(e.build_device());
    let gen = e.build_workload();
    let keys = gen.key_space();
    let mut sys_cfg = e.system_config();
    sys_cfg.ops_limit = Some(0);
    sys_cfg.on_demand_at_end = true;
    let mut model = slimio_system::SystemModel::new(sys_cfg, gen, path);
    model.preload(keys);
    model.run()
}
