//! Ablations for the design choices DESIGN.md calls out.
//!
//! 1. **SQPOLL on the Snapshot-Path** (§4.1): submission-side CPU with and
//!    without the polling kernel thread.
//! 2. **FDP Reclaim-Unit size** (§4.3): WAF and GC traffic as the RU
//!    shrinks/grows around the paper's 1 GiB (scaled), under the
//!    generational WAL/snapshot pattern.
//! 3. **Placement-ID assignment** (§4.3): separated streams vs everything
//!    on one PID vs conventional — isolating *where* the WAF 1.00 comes
//!    from.
//!
//! ```sh
//! cargo run --release -p slimio-bench --bin ablations
//! ```

use std::time::Instant;

use slimio_bench::{maybe_write_perf, run_cells, Cli, PerfCell};
use slimio_des::SimTime;
use slimio_ftl::FtlConfig;
use slimio_metrics::Table;
use slimio_nand::{Geometry, Latencies};
use slimio_nvme::{DeviceConfig, NvmeDevice};
use slimio_system::experiment::periodical;
use slimio_system::{Experiment, StackKind, WorkloadKind};
use slimio_uring::PassthruCosts;

fn main() {
    let cli = Cli::parse();
    let suite_start = Instant::now();

    // ---- 1. SQPOLL ablation: submission CPU per command -------------
    println!("Ablation 1: SQPOLL vs enter-driven submission (CPU per command)\n");
    let costs = PassthruCosts::default();
    let mut t = Table::new(["mode", "1 cmd", "16 cmds", "256 cmds"]);
    t.row([
        "SQPOLL (ring push only)".to_string(),
        format!("{}", costs.submit_sqpoll(1)),
        format!("{}", costs.submit_sqpoll(16)),
        format!("{}", costs.submit_sqpoll(256)),
    ]);
    t.row([
        "enter-driven (io_uring_enter)".to_string(),
        format!("{}", costs.submit_enter(1)),
        format!("{}", costs.submit_enter(16)),
        format!("{}", costs.submit_enter(256)),
    ]);
    println!("{}", t.render());
    println!("(the syscall amortizes with batch size; SQPOLL removes it entirely —");
    println!(" why the paper runs the snapshot process's frequent small writes in SQPOLL)\n");

    // ---- 2. RU-size sweep -------------------------------------------
    println!("Ablation 2: FDP Reclaim-Unit size vs WAF (generational pattern)\n");
    let geometry = Geometry::scaled(0.02);
    let mut t = Table::new(["RU size", "RUs", "WAF", "GC copies"]);
    for ru_mb in [16u64, 32, 64, 128, 256] {
        let cfg = FtlConfig::fdp_with_ru(geometry, ru_mb << 20);
        if cfg.validate().is_err() {
            t.row([format!("{ru_mb} MiB"), "-".into(), "n/a".into(), "-".into()]);
            continue;
        }
        let mut dev = NvmeDevice::new(DeviceConfig {
            ftl: cfg,
            latencies: Latencies::default(),
            store_data: false,
            honor_deallocate: true,
        });
        let waf = generational_pattern(&mut dev, true);
        t.row([
            format!("{ru_mb} MiB"),
            cfg.total_rus().to_string(),
            format!("{waf:.4}"),
            dev.ftl_stats().waf.gc_copied_pages().to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("(with whole-generation lifetimes, any RU size keeps WAF at 1.00 as long");
    println!(" as streams stay separated — the separation, not the RU size, is load-bearing)\n");

    // ---- 3. Placement assignment ------------------------------------
    println!("Ablation 3: placement assignment (same traffic, same device geometry)\n");
    let mut t = Table::new(["assignment", "WAF", "GC copies"]);
    for (label, fdp, separate) in [
        ("conventional device", false, false),
        ("FDP, one PID for everything", true, false),
        ("FDP, per-lifetime PIDs (SlimIO)", true, true),
    ] {
        let cfg = if fdp {
            FtlConfig::fdp_with_ru(geometry, 64 << 20)
        } else {
            FtlConfig::conventional(geometry)
        };
        let mut dev = NvmeDevice::new(DeviceConfig {
            ftl: cfg,
            latencies: Latencies::default(),
            store_data: false,
            honor_deallocate: true,
        });
        let waf = generational_pattern(&mut dev, separate);
        t.row([
            label.to_string(),
            format!("{waf:.4}"),
            dev.ftl_stats().waf.gc_copied_pages().to_string(),
        ]);
    }
    println!("{}", t.render());

    // ---- 4. End-to-end: SQPOLL off on the snapshot path -------------
    println!("\nAblation 4: whole-system run, SlimIO vs SlimIO-without-FDP vs baseline\n");
    let mut t = Table::new(["stack", "WAL-only RPS", "avg RPS", "p999 ms", "WAF"]);
    let cells = [
        StackKind::KernelF2fs,
        StackKind::PassthruConventional,
        StackKind::PassthruFdp,
    ];
    let results = run_cells(&cells, cli.jobs, |_, &stack| {
        let mut e = cli.configure(Experiment::new(
            WorkloadKind::RedisBench,
            stack,
            periodical(),
        ));
        e.scale = (cli.scale / 4.0).max(1.0 / 512.0); // quick cells
        let t0 = Instant::now();
        let r = e.run();
        (r, t0.elapsed().as_secs_f64())
    });
    let mut perf = Vec::new();
    for (stack, (r, wall)) in cells.iter().zip(&results) {
        perf.push(PerfCell::from_run(stack.label(), *wall, r));
        t.row([
            stack.label().to_string(),
            format!("{:.0}", r.wal_only_rps),
            format!("{:.0}", r.avg_rps),
            format!("{:.3}", r.set_lat.p999() as f64 / 1e6),
            format!("{:.3}", r.waf.waf()),
        ]);
    }
    println!("{}", t.render());
    maybe_write_perf(
        &cli,
        "ablations",
        suite_start.elapsed().as_secs_f64(),
        &perf,
    );
}

/// The §3.1.4 lifetime pattern: interleaved WAL + snapshot traffic with
/// whole-generation deallocation, plus one long-lived backup stream.
fn generational_pattern(d: &mut NvmeDevice, separate: bool) -> f64 {
    let t = SimTime::ZERO;
    let capacity = d.capacity_blocks();
    let layout = slimio::layout::Layout::default_for(capacity);
    let pid = |stream: u8| if separate { stream } else { 0 };
    let chunk = 64u64;
    let gen_pages = layout.wal_lbas * 8 / 10;
    let snap_pages = layout.slot_lbas * 9 / 10;
    // Long-lived backup in slot 2.
    let mut p = 0;
    while p < snap_pages {
        let n = chunk.min(snap_pages - p);
        d.write(layout.slot_lba(2) + p, n, pid(3), None, t).unwrap();
        p += n;
    }
    let mut wal_head = 0u64;
    for generation in 0..5u64 {
        let slot = layout.slot_lba((generation % 2) as usize);
        let (mut w, mut s) = (0u64, 0u64);
        while w < gen_pages || s < snap_pages {
            if w < gen_pages {
                let off = wal_head % layout.wal_lbas;
                let n = chunk.min(gen_pages - w).min(layout.wal_lbas - off);
                d.write(layout.wal_lba + off, n, pid(1), None, t).unwrap();
                wal_head += n;
                w += n;
            }
            if s < snap_pages {
                let n = chunk.min(snap_pages - s);
                d.write(slot + s, n, pid(2), None, t).unwrap();
                s += n;
            }
        }
        // Rotation: trim the dead WAL generation and the demoted slot.
        let dead_start = wal_head - w;
        let mut p = dead_start;
        while p < wal_head {
            let off = p % layout.wal_lbas;
            let n = (layout.wal_lbas - off).min(wal_head - p);
            d.deallocate(layout.wal_lba + off, n, t).unwrap();
            p += n;
        }
        d.deallocate(
            layout.slot_lba(((generation + 1) % 2) as usize),
            layout.slot_lbas,
            t,
        )
        .unwrap();
    }
    d.waf()
}
