//! Quickstart: a Redis-like database persisting through SlimIO.
//!
//! Builds the emulated FDP SSD, mounts the SlimIO passthru backend on it,
//! runs a workload with WAL + snapshot persistence, then simulates a crash
//! and recovers — all in-process.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use slimio_suite::des::SimTime;
use slimio_suite::ftl::PlacementMode;
use slimio_suite::imdb::backend::SnapshotKind;
use slimio_suite::imdb::{Db, DbConfig, LogPolicy};
use slimio_suite::nvme::{DeviceConfig, DeviceHandle};
use slimio_suite::slimio::PassthruBackend;
use slimio_suite::uring::SharedClock;

fn main() {
    // 1. An emulated FDP SSD (tiny geometry: 16 MiB — plenty for a demo).
    let device = DeviceHandle::new(DeviceConfig::tiny(PlacementMode::Fdp { max_pids: 8 }));

    // 2. The SlimIO backend: WAL-Path + Snapshot-Path rings, LBA regions,
    //    FDP placement IDs.
    let clock = SharedClock::new();
    let backend = PassthruBackend::new(device.clone(), clock);

    // 3. A database with the default Periodical-Log policy.
    let cfg = DbConfig {
        policy: LogPolicy::Always, // make every write durable for the demo
        wal_snapshot_threshold: 1 << 20,
        ..DbConfig::default()
    };
    let mut db = Db::new(backend, cfg);

    // 4. Write some data.
    let t = SimTime::ZERO;
    for i in 0..1000u32 {
        let key = format!("sensor:{i:04}");
        let value = format!("{{\"temp\": {}, \"ok\": true}}", 20 + i % 10);
        db.set(key.as_bytes(), value.as_bytes(), t).unwrap();
    }
    println!("wrote {} keys, mem = {} bytes", db.len(), db.mem_used());

    // 5. Cut a snapshot (this is the paper's WAL-snapshot: it also rotates
    //    the WAL and deallocates the old generation — whole Reclaim Units
    //    at a time, so WAF stays 1.00).
    db.snapshot_run(SnapshotKind::WalSnapshot, t).unwrap();
    println!(
        "snapshot committed; device WAF = {:.3}",
        device.telemetry().waf
    );

    // 6. More writes after the snapshot land in the new WAL generation.
    db.set(b"after:snapshot", b"still-durable", t).unwrap();

    // 7. Crash: drop the engine and backend. NAND contents survive.
    drop(db);

    // 8. Recover: read metadata, load the snapshot, replay the WAL tail.
    let recovered_backend =
        PassthruBackend::recover(device.clone(), SharedClock::new()).expect("recover backend");
    let (mut db2, replayed) = Db::recover(recovered_backend, cfg, t).expect("recover db");
    println!(
        "recovered {} keys (replayed {} WAL records after the snapshot)",
        db2.len(),
        replayed
    );
    assert_eq!(db2.len(), 1001);
    assert_eq!(&*db2.get(b"after:snapshot").unwrap(), b"still-durable");
    assert_eq!(
        &*db2.get(b"sensor:0042").unwrap(),
        b"{\"temp\": 22, \"ok\": true}"
    );
    println!("quickstart OK");
}
