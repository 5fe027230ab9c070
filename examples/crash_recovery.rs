//! Crash-consistency tour of the SlimIO LBA space manager (§4.2).
//!
//! Walks through the failure scenarios the three-slot design and the A/B
//! metadata scheme exist for:
//!
//! 1. crash with an unsynced WAL tail → synced prefix recovers, tail lost;
//! 2. crash mid-snapshot (reserve slot partially written) → previous
//!    snapshot intact;
//! 3. torn metadata page → recovery falls back to the previous epoch;
//! 4. repeated snapshot generations → reserve-slot rotation never loses
//!    the other kind's snapshot.
//!
//! ```sh
//! cargo run --release --example crash_recovery
//! ```

use slimio_suite::des::SimTime;
use slimio_suite::ftl::PlacementMode;
use slimio_suite::imdb::backend::{PersistBackend, SnapshotKind};
use slimio_suite::imdb::wal::{encode, replay, WalRecord};
use slimio_suite::nvme::{DeviceConfig, DeviceHandle};
use slimio_suite::slimio::PassthruBackend;
use slimio_suite::uring::SharedClock;

fn device() -> DeviceHandle {
    DeviceHandle::new(DeviceConfig::tiny(PlacementMode::Fdp { max_pids: 8 }))
}

fn fresh(dev: &DeviceHandle) -> PassthruBackend {
    PassthruBackend::new(dev.clone(), SharedClock::new())
}

fn recover(dev: &DeviceHandle) -> PassthruBackend {
    PassthruBackend::recover(dev.clone(), SharedClock::new()).expect("recovery")
}

fn wal_record(seq: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    encode(
        &WalRecord::Set {
            seq,
            key: format!("k{seq}").into_bytes(),
            value: vec![seq as u8; 256],
        },
        &mut buf,
    );
    buf
}

fn main() {
    let t = SimTime::ZERO;

    // --- Scenario 1: unsynced tail is lost, synced prefix survives. ---
    let dev = device();
    {
        let mut b = fresh(&dev);
        b.wal_append(&wal_record(1), t).unwrap();
        b.wal_append(&wal_record(2), t).unwrap();
        b.wal_sync(t).unwrap();
        b.wal_append(&wal_record(3), t).unwrap(); // never synced
    } // crash
    let mut b = recover(&dev);
    let (wal, _) = b.load_wal(t).unwrap();
    let recs = replay(&wal);
    println!(
        "scenario 1: {} of 3 records durable (record 3 was unsynced)",
        recs.len()
    );
    assert_eq!(recs.len(), 2);

    // --- Scenario 2: crash mid-snapshot leaves the old snapshot intact. ---
    let dev = device();
    {
        let mut b = fresh(&dev);
        b.snapshot_begin(SnapshotKind::OnDemand, t).unwrap();
        b.snapshot_chunk(b"checkpoint-v1", t).unwrap();
        b.snapshot_commit(t).unwrap();
        b.snapshot_begin(SnapshotKind::OnDemand, t).unwrap();
        b.snapshot_chunk(&vec![0xDE; 50_000], t).unwrap();
        // crash before commit: the reserve slot holds garbage, the
        // metadata still points at v1.
    }
    let mut b = recover(&dev);
    let (snap, _) = b.load_snapshot(SnapshotKind::OnDemand, t).unwrap();
    println!(
        "scenario 2: recovered snapshot = {:?}",
        String::from_utf8_lossy(&snap.clone().unwrap())
    );
    assert_eq!(snap.unwrap(), b"checkpoint-v1");

    // --- Scenario 3: torn metadata page → previous epoch wins. ---
    // (The A/B pages alternate; corrupting the newest one must fall back.)
    let dev = device();
    let meta_lba = {
        let mut b = fresh(&dev);
        b.snapshot_begin(SnapshotKind::OnDemand, t).unwrap();
        b.snapshot_chunk(b"epoch-1", t).unwrap();
        b.snapshot_commit(t).unwrap(); // epoch 1 → page B
        b.snapshot_begin(SnapshotKind::WalSnapshot, t).unwrap();
        b.snapshot_chunk(b"walsnap-epoch-2", t).unwrap();
        b.snapshot_commit(t).unwrap(); // epoch 2 → page A
        b.layout().meta_lba
    };
    {
        // Tear epoch 2's page (LBA parity 0).
        let mut d = dev.lock().expect("device mutex poisoned");
        d.write(meta_lba, 1, 0, Some(&vec![0xFF; 4096]), t).unwrap();
    }
    let mut b = recover(&dev);
    let (od, _) = b.load_snapshot(SnapshotKind::OnDemand, t).unwrap();
    let (ws, _) = b.load_snapshot(SnapshotKind::WalSnapshot, t).unwrap();
    println!(
        "scenario 3: after tearing the newest metadata page, OD snapshot {:?} survives, \
         WAL-snapshot of the torn epoch is (correctly) gone: {:?}",
        String::from_utf8_lossy(&od.clone().unwrap()),
        ws.is_none()
    );
    assert_eq!(od.unwrap(), b"epoch-1");

    // --- Scenario 4: slot rotation never clobbers the other kind. ---
    let dev = device();
    let mut b = fresh(&dev);
    b.snapshot_begin(SnapshotKind::OnDemand, t).unwrap();
    b.snapshot_chunk(b"precious-backup", t).unwrap();
    b.snapshot_commit(t).unwrap();
    for gen in 0..6u8 {
        b.snapshot_begin(SnapshotKind::WalSnapshot, t).unwrap();
        b.snapshot_chunk(&vec![gen; 1000], t).unwrap();
        b.snapshot_commit(t).unwrap();
    }
    let (od, _) = b.load_snapshot(SnapshotKind::OnDemand, t).unwrap();
    let (ws, _) = b.load_snapshot(SnapshotKind::WalSnapshot, t).unwrap();
    println!(
        "scenario 4: after 6 WAL-snapshot rotations the on-demand backup survives ({} bytes), \
         newest WAL-snapshot is generation {}",
        od.as_ref().unwrap().len(),
        ws.unwrap()[0],
    );
    assert_eq!(od.unwrap(), b"precious-backup");

    println!("crash_recovery OK (device WAF {:.3})", dev.telemetry().waf);
}
