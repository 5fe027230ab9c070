//! The paper's motivating HPC scenario (§1): a CFD simulation streaming
//! per-timestep intermediate fields (pressure, velocity) into an IMDB for
//! fast inter-process exchange, with snapshot-based checkpoints.
//!
//! Each timestep writes one field vector per grid partition; every
//! `CHECKPOINT_EVERY` timesteps an On-Demand snapshot checkpoints the
//! state. Halfway through, the node "crashes" and the run resumes from the
//! last checkpoint plus the WAL tail — demonstrating exactly the recovery
//! path Table 5 measures.
//!
//! ```sh
//! cargo run --release --example cfd_checkpoint
//! ```

use slimio_suite::des::SimTime;
use slimio_suite::ftl::PlacementMode;
use slimio_suite::imdb::backend::SnapshotKind;
use slimio_suite::imdb::{Db, DbConfig, LogPolicy};
use slimio_suite::nvme::{DeviceConfig, DeviceHandle};
use slimio_suite::slimio::PassthruBackend;
use slimio_suite::uring::SharedClock;

const PARTITIONS: u32 = 16;
const TIMESTEPS: u32 = 40;
const CHECKPOINT_EVERY: u32 = 10;
const FIELD_BYTES: usize = 2048;

/// Deterministic fake field data for (timestep, partition).
fn field(step: u32, part: u32) -> Vec<u8> {
    let mut v = Vec::with_capacity(FIELD_BYTES);
    let mut x = (u64::from(step) << 32 | u64::from(part)) | 1;
    while v.len() < FIELD_BYTES {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        v.extend_from_slice(&x.to_le_bytes());
    }
    v.truncate(FIELD_BYTES);
    v
}

fn run_timestep(db: &mut Db<PassthruBackend>, step: u32) {
    for part in 0..PARTITIONS {
        let key = format!("field:p{part:02}:latest");
        db.set(key.as_bytes(), &field(step, part), SimTime::ZERO)
            .unwrap();
    }
    let step_key = b"sim:last_step";
    db.set(step_key, step.to_string().as_bytes(), SimTime::ZERO)
        .unwrap();
}

fn main() {
    let device = DeviceHandle::new(DeviceConfig::tiny(PlacementMode::Fdp { max_pids: 8 }));
    let cfg = DbConfig {
        policy: LogPolicy::Always,
        wal_snapshot_threshold: u64::MAX, // checkpoints are explicit here
        ..DbConfig::default()
    };
    let mut db = Db::new(
        PassthruBackend::new(device.clone(), SharedClock::new()),
        cfg,
    );

    let crash_at = TIMESTEPS / 2 + 3; // between checkpoints
    let mut last_checkpoint = 0;
    for step in 1..=crash_at {
        run_timestep(&mut db, step);
        if step % CHECKPOINT_EVERY == 0 {
            // On-demand checkpoint: long-lived, gets its own PID / RUs.
            db.snapshot_run(SnapshotKind::OnDemand, SimTime::ZERO)
                .unwrap();
            last_checkpoint = step;
            println!(
                "checkpoint at timestep {step} (WAF {:.3})",
                device.telemetry().waf
            );
        }
    }
    println!("simulated crash after timestep {crash_at} (last checkpoint: {last_checkpoint})");
    drop(db);

    // Recovery. The engine replays snapshot + WAL, so we resume from the
    // *crash* point, not the checkpoint — the WAL covered the gap.
    let backend =
        PassthruBackend::recover(device.clone(), SharedClock::new()).expect("backend recovery");
    let (mut db, replayed) = Db::recover(backend, cfg, SimTime::ZERO).expect("db recovery");
    let resumed_from: u32 = String::from_utf8(db.get(b"sim:last_step").unwrap().to_vec())
        .unwrap()
        .parse()
        .unwrap();
    println!("recovered at timestep {resumed_from} ({replayed} WAL records replayed)");
    assert_eq!(resumed_from, crash_at);

    // Verify a field survived bit-exact.
    let got = db.get(b"field:p07:latest").unwrap();
    assert_eq!(&*got, field(crash_at, 7).as_slice());

    // Resume the run to completion.
    for step in resumed_from + 1..=TIMESTEPS {
        run_timestep(&mut db, step);
        if step % CHECKPOINT_EVERY == 0 {
            db.snapshot_run(SnapshotKind::OnDemand, SimTime::ZERO)
                .unwrap();
            println!("checkpoint at timestep {step}");
        }
    }
    println!(
        "simulation complete: {} keys, final WAF {:.3}",
        db.len(),
        device.telemetry().waf
    );
    assert_eq!(
        &*db.get(b"sim:last_step").unwrap(),
        TIMESTEPS.to_string().as_bytes()
    );
    println!("cfd_checkpoint OK");
}
