//! Figure 2 — Analysis of snapshot duration and throughput (baseline).
//!
//! (a) Snapshot-time distribution: how much of the snapshot lane's wall
//!     time is in-memory work (scan/compress/copy), kernel I/O path, and
//!     SSD waiting, across three scenarios: Snapshot-Only, Snapshot&WAL,
//!     and Snapshot&WAL under GC. Paper: ~15 % kernel share in
//!     Snapshot-Only, growing with contention, with SSD time exploding
//!     under GC.
//! (b) Throughput: snapshot throughput vs WAL throughput vs ideal.
//!     Paper: snapshot throughput 30–45 % below WAL throughput; WAL
//!     stays stable under GC while snapshots degrade.

use std::time::Instant;

use slimio_bench::{maybe_write_perf, run_cells, summarize, Cli, PerfCell};
use slimio_metrics::Table;
use slimio_system::experiment::periodical;
use slimio_system::{Experiment, RunResult, StackKind, WorkloadKind};

fn scenario(cli: &Cli, wal_active: bool, gc_pressure: bool) -> RunResult {
    let mut e = cli.configure(Experiment::new(
        WorkloadKind::RedisBench,
        StackKind::KernelF2fs,
        periodical(),
    ));
    if gc_pressure {
        // An aged device: every logical LBA valid at the FTL, so all
        // writes during the run contend with sustained GC.
        e.age_device = true;
    }
    if wal_active {
        e.run()
    } else {
        // Snapshot-Only: preload the dataset, run zero queries, snapshot
        // the idle system.
        let path = e.build_path(e.build_device());
        let gen = e.build_workload();
        let keys = gen.key_space();
        let mut cfg = e.system_config();
        cfg.ops_limit = Some(0);
        cfg.on_demand_at_end = true;
        let mut model = slimio_system::SystemModel::new(cfg, gen, path);
        model.preload(keys);
        model.run()
    }
}

fn main() {
    let cli = Cli::parse();
    let suite_start = Instant::now();
    println!("Figure 2: snapshot duration distribution and throughput (baseline)\n");
    let cells = [
        ("Snapshot Only", "snapshot-only", false, false),
        ("Snapshot & WAL", "snapshot+wal", true, false),
        ("Snapshot & WAL (under GC)", "snapshot+wal+gc", true, true),
    ];
    let results = run_cells(&cells, cli.jobs, |_, &(_, _, wal_active, gc_pressure)| {
        let t0 = Instant::now();
        let r = scenario(&cli, wal_active, gc_pressure);
        (r, t0.elapsed().as_secs_f64())
    });
    let mut perf = Vec::new();
    let mut runs = Vec::new();
    for ((title, label, _, _), (r, wall)) in cells.iter().zip(results.iter()) {
        summarize(label, r);
        perf.push(PerfCell::from_run(label, *wall, r));
        runs.push((*title, r));
    }

    println!("(a) Snapshot time distribution (fractions of snapshot duration)");
    let mut a = Table::new([
        "scenario",
        "in-memory",
        "kernel I/O path",
        "SSD wait",
        "snap time s",
    ]);
    for (label, r) in &runs {
        // Average the per-snapshot breakdowns.
        let n = r.snapshot_breakdown.len().max(1) as f64;
        let (mut mem, mut io, mut dev) = (0.0, 0.0, 0.0);
        for &(m, i, d) in &r.snapshot_breakdown {
            mem += m / n;
            io += i / n;
            dev += d / n;
        }
        let mean_snap: f64 = r
            .snapshot_times
            .iter()
            .map(|t| t.as_secs_f64())
            .sum::<f64>()
            / r.snapshot_times.len().max(1) as f64;
        a.row([
            label.to_string(),
            format!("{:.1}%", mem * 100.0),
            format!("{:.1}%", io * 100.0),
            format!("{:.1}%", dev * 100.0),
            format!("{:.1}", mean_snap / cli.scale),
        ]);
    }
    println!("{}", a.render());
    println!("(paper: kernel path ≈ 15% in Snapshot-Only, rising with WAL contention;");
    println!(" SSD share grows sharply under GC)\n");

    println!("(b) Throughput analysis (MB/s)");
    let mut b = Table::new(["scenario", "snapshot MB/s", "WAL MB/s", "snap/WAL ratio"]);
    for (label, r) in &runs {
        let snap: f64 = r.snapshot_mbps.iter().sum::<f64>() / r.snapshot_mbps.len().max(1) as f64;
        let wal: f64 =
            r.wal_mbps_during_snap.iter().sum::<f64>() / r.wal_mbps_during_snap.len().max(1) as f64;
        let ratio = if wal > 0.0 { snap / wal } else { f64::NAN };
        b.row([
            label.to_string(),
            format!("{snap:.1}"),
            format!("{wal:.1}"),
            format!("{ratio:.2}"),
        ]);
    }
    println!("{}", b.render());
    println!("(paper: snapshot throughput 30–45% below WAL throughput when concurrent;");
    println!(" WAL throughput stable under GC, snapshot throughput degrades)");
    maybe_write_perf(&cli, "fig2", suite_start.elapsed().as_secs_f64(), &perf);
}
