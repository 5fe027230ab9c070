//! Write-amplification ablation (§4.3, Table 3's WAF column).
//!
//! Runs the same WAL + snapshot rotation pattern against three device
//! configurations and prints the resulting WAF:
//!
//! * conventional placement (all streams share an append point);
//! * FDP with the paper's stream assignment (WAL / WAL-snapshot /
//!   on-demand separated);
//! * FDP with everything forced onto one PID (placement without
//!   separation — shows the hint assignment, not the FDP plumbing, is
//!   what eliminates GC traffic).
//!
//! ```sh
//! cargo run --release --example waf_study
//! ```

use slimio_suite::des::SimTime;
use slimio_suite::ftl::FtlConfig;
use slimio_suite::metrics::Table;
use slimio_suite::nand::{Geometry, Latencies};
use slimio_suite::nvme::{DeviceConfig, NvmeDevice};

/// One WAL generation + snapshot rotation cycle, writing at raw LBA level
/// with the SlimIO region layout. `separate` controls PID assignment.
fn run_pattern(d: &mut NvmeDevice, separate: bool) -> f64 {
    let t = SimTime::ZERO;
    let capacity = d.capacity_blocks();
    let layout = slimio_suite::slimio::layout::Layout::default_for(capacity);
    let pid = |stream: u8| if separate { stream } else { 0 };
    let chunk_pages = 64u64;

    // Long-lived on-demand snapshot in slot 2.
    let od_lba = layout.slot_lba(2);
    for p in (0..layout.slot_lbas * 9 / 10).step_by(chunk_pages as usize) {
        let n = chunk_pages.min(layout.slot_lbas * 9 / 10 - p);
        d.write(od_lba + p, n, pid(3), None, t).unwrap();
    }

    // Six WAL generations, each interleaving WAL appends with the
    // WAL-snapshot being cut, then trimming the dead generation — the
    // paper's §3.1.4 lifetime pattern.
    let gen_pages = layout.wal_lbas * 8 / 10;
    let snap_pages = layout.slot_lbas * 9 / 10;
    let mut wal_head = 0u64;
    for generation in 0..6u64 {
        let slot = layout.slot_lba((generation % 2) as usize);
        let mut written_snap = 0u64;
        let mut written_wal = 0u64;
        while written_wal < gen_pages || written_snap < snap_pages {
            if written_wal < gen_pages {
                let n = chunk_pages.min(gen_pages - written_wal);
                let lba = layout.wal_lba + (wal_head % layout.wal_lbas);
                let n = n.min(layout.wal_lbas - (wal_head % layout.wal_lbas));
                d.write(lba, n, pid(1), None, t).unwrap();
                wal_head += n;
                written_wal += n;
            }
            if written_snap < snap_pages {
                let n = chunk_pages.min(snap_pages - written_snap);
                d.write(slot + written_snap, n, pid(2), None, t).unwrap();
                written_snap += n;
            }
        }
        // Rotation: old WAL generation + previous WAL-snapshot slot die.
        let dead_start = wal_head - written_wal;
        let mut p = dead_start;
        while p < wal_head {
            let slot_off = p % layout.wal_lbas;
            let run = (layout.wal_lbas - slot_off).min(wal_head - p);
            d.deallocate(layout.wal_lba + slot_off, run, t).unwrap();
            p += run;
        }
        let old_slot = layout.slot_lba(((generation + 1) % 2) as usize);
        d.deallocate(old_slot, layout.slot_lbas, t).unwrap();
    }
    d.waf()
}

fn main() {
    let geometry = Geometry::scaled(0.02); // 2 GiB device keeps this quick
    let configs: [(&str, FtlConfig, bool); 3] = [
        (
            "conventional (baseline device)",
            FtlConfig::conventional(geometry),
            false,
        ),
        (
            "FDP, streams separated (SlimIO)",
            FtlConfig::fdp_with_ru(geometry, 64 << 20),
            true,
        ),
        (
            "FDP, single PID (no separation)",
            FtlConfig::fdp_with_ru(geometry, 64 << 20),
            false,
        ),
    ];
    let mut table = Table::new(["configuration", "WAF", "GC passes", "GC copies"]);
    for (label, ftl, separate) in configs {
        let mut dev = NvmeDevice::new(DeviceConfig {
            ftl,
            latencies: Latencies::default(),
            store_data: false,
            honor_deallocate: true,
        });
        let waf = run_pattern(&mut dev, separate);
        table.row([
            label.to_string(),
            format!("{waf:.4}"),
            dev.ftl_stats().gc_passes.to_string(),
            dev.ftl_stats().waf.gc_copied_pages().to_string(),
        ]);
    }
    println!("{}", table.render());
    println!("(paper Table 3: baseline WAF 1.14–1.24, SlimIO WAF 1.00)");
}
