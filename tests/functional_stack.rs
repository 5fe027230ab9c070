//! Cross-crate integration: the functional engine over both persistence
//! backends.
//!
//! The same command stream runs against the baseline file backend
//! (kernel path) and the SlimIO passthru backend; both must recover to
//! identical keyspaces, and the devices must show the paper's WAF split.

use slimio_suite::des::{SimTime, Xoshiro256};
use slimio_suite::ftl::PlacementMode;
use slimio_suite::imdb::backend::{FileBackend, SnapshotKind};
use slimio_suite::imdb::{Db, DbConfig, LogPolicy};
use slimio_suite::kpath::{FsProfile, KernelCosts, SimFs};
use slimio_suite::nvme::{DeviceConfig, DeviceHandle};
use slimio_suite::slimio::PassthruBackend;
use slimio_suite::uring::SharedClock;

fn fdp_device() -> DeviceHandle {
    DeviceHandle::new(DeviceConfig::tiny(PlacementMode::Fdp { max_pids: 8 }))
}

fn conventional_device() -> DeviceHandle {
    DeviceHandle::new(DeviceConfig::tiny(PlacementMode::Conventional))
}

fn db_config() -> DbConfig {
    DbConfig {
        policy: LogPolicy::Always,
        wal_snapshot_threshold: 256 * 1024,
        snapshot_chunk: 8 * 1024,
        entry_overhead: 64,
    }
}

/// Drives a deterministic op stream against a database, snapshotting on
/// threshold, and returns the final expected keyspace.
fn drive<B: slimio_suite::imdb::PersistBackend>(
    db: &mut Db<B>,
    ops: usize,
    seed: u64,
) -> std::collections::BTreeMap<Vec<u8>, Vec<u8>> {
    let mut rng = Xoshiro256::new(seed);
    let mut expect = std::collections::BTreeMap::new();
    let t = SimTime::ZERO;
    for i in 0..ops {
        let key = format!("key:{:03}", rng.gen_range(150)).into_bytes();
        if rng.gen_bool(0.15) {
            db.del(&key, t).unwrap();
            expect.remove(&key);
        } else {
            let value = vec![(i % 251) as u8; 64 + (i % 512)];
            db.set(&key, &value, t).unwrap();
            expect.insert(key, value);
        }
        db.maybe_wal_snapshot(t).unwrap();
        if db.snapshot_active() {
            db.snapshot_step(32, t).unwrap();
        }
    }
    // Finish any in-flight snapshot and make the tail durable.
    while db.snapshot_active() {
        db.snapshot_step(64, t).unwrap();
    }
    db.flush_wal(t).unwrap();
    db.sync_wal(t).unwrap();
    expect
}

fn verify<B: slimio_suite::imdb::PersistBackend>(
    db: &mut Db<B>,
    expect: &std::collections::BTreeMap<Vec<u8>, Vec<u8>>,
) {
    assert_eq!(db.len(), expect.len(), "key count mismatch");
    for (k, v) in expect {
        let got = db.get(k).unwrap_or_else(|| panic!("missing key {k:?}"));
        assert_eq!(&*got, v.as_slice(), "value mismatch for {k:?}");
    }
}

#[test]
fn both_backends_recover_identical_state() {
    // Baseline: files on F2FS over a conventional device.
    let base_dev = conventional_device();
    let fs = SimFs::new(base_dev.clone(), KernelCosts::default(), FsProfile::f2fs());
    let mut base_db = Db::new(FileBackend::new(fs).unwrap(), db_config());
    let expect_base = drive(&mut base_db, 3000, 7);

    // SlimIO: passthru over an FDP device.
    let slim_dev = fdp_device();
    let backend = PassthruBackend::new(slim_dev.clone(), SharedClock::new());
    let mut slim_db = Db::new(backend, db_config());
    let expect_slim = drive(&mut slim_db, 3000, 7);

    // Same op stream → same expected keyspace.
    assert_eq!(expect_base, expect_slim);

    // Crash both; recover both; verify both.
    let mut fs = base_db.into_backend().into_fs();
    fs.crash();
    let (mut base_rec, _) = Db::recover(
        FileBackend::remount(fs).unwrap(),
        db_config(),
        SimTime::ZERO,
    )
    .unwrap();
    verify(&mut base_rec, &expect_base);

    drop(slim_db);
    let backend = PassthruBackend::recover(slim_dev.clone(), SharedClock::new()).unwrap();
    let (mut slim_rec, _) = Db::recover(backend, db_config(), SimTime::ZERO).unwrap();
    verify(&mut slim_rec, &expect_slim);

    // The paper's WAF split: FDP-separated SlimIO stays at 1.00.
    let slim_waf = slim_dev.telemetry().waf;
    assert!(
        (slim_waf - 1.0).abs() < 1e-9,
        "SlimIO/FDP must not amplify: {slim_waf}"
    );
    assert!(base_dev.telemetry().waf >= 1.0);
}

#[test]
fn on_demand_and_wal_snapshots_coexist() {
    let dev = fdp_device();
    let backend = PassthruBackend::new(dev.clone(), SharedClock::new());
    let mut cfg = db_config();
    cfg.wal_snapshot_threshold = 48 * 1024;
    let mut db = Db::new(backend, cfg);
    let t = SimTime::ZERO;
    for i in 0..200u32 {
        db.set(format!("k{i}").as_bytes(), &vec![1u8; 512], t)
            .unwrap();
    }
    // A manual backup (On-Demand), then keep writing and rotating.
    db.snapshot_run(SnapshotKind::OnDemand, t).unwrap();
    for i in 200..400u32 {
        db.set(format!("k{i}").as_bytes(), &vec![2u8; 512], t)
            .unwrap();
        db.maybe_wal_snapshot(t).unwrap();
        while db.snapshot_active() {
            db.snapshot_step(64, t).unwrap();
        }
    }
    db.flush_wal(t).unwrap();
    db.sync_wal(t).unwrap();
    assert!(
        db.stats().wal_snapshots >= 1,
        "rotation should have happened"
    );
    assert_eq!(db.stats().od_snapshots, 1);
    drop(db);

    // Recovery uses the WAL-snapshot chain and sees everything.
    let backend = PassthruBackend::recover(dev.clone(), SharedClock::new()).unwrap();
    let (mut rec, _) = Db::recover(backend, cfg, t).unwrap();
    assert_eq!(rec.len(), 400);
    assert_eq!(&*rec.get(b"k0").unwrap(), &[1u8; 512][..]);
    assert_eq!(&*rec.get(b"k399").unwrap(), &[2u8; 512][..]);
}

#[test]
fn repeated_crash_recover_cycles_converge() {
    let dev = fdp_device();
    let t = SimTime::ZERO;
    let mut surviving = 0usize;
    {
        let backend = PassthruBackend::new(dev.clone(), SharedClock::new());
        let mut db = Db::new(backend, db_config());
        for i in 0..500u32 {
            db.set(format!("k{i}").as_bytes(), &[9u8; 200], t).unwrap();
        }
        db.flush_wal(t).unwrap();
        db.sync_wal(t).unwrap();
        surviving += 500;
    }
    // Crash/recover three times, adding data each round.
    for round in 0..3u32 {
        let backend = PassthruBackend::recover(dev.clone(), SharedClock::new()).unwrap();
        let (mut db, _) = Db::recover(backend, db_config(), t).unwrap();
        assert_eq!(db.len(), surviving, "round {round}");
        for i in 0..100u32 {
            db.set(format!("r{round}-{i}").as_bytes(), b"x", t).unwrap();
        }
        db.maybe_wal_snapshot(t).unwrap();
        while db.snapshot_active() {
            db.snapshot_step(64, t).unwrap();
        }
        db.flush_wal(t).unwrap();
        db.sync_wal(t).unwrap();
        surviving += 100;
    }
    let backend = PassthruBackend::recover(dev.clone(), SharedClock::new()).unwrap();
    let (db, _) = Db::recover(backend, db_config(), t).unwrap();
    assert_eq!(db.len(), surviving);
}
