//! Randomized tests on the engine: recovery equivalence under randomized
//! command sequences with interleaved snapshots, flushes, and syncs.
//!
//! The invariant is the database's core durability contract: after a sync,
//! crash-and-recover yields exactly the keyspace produced by the original
//! command sequence — regardless of where snapshots were cut or how their
//! production interleaved with writes. Command scripts come from the
//! workspace's deterministic PRNG so every case reproduces from its seed.

use std::collections::BTreeMap;

use slimio_des::{SimTime, Xoshiro256};
use slimio_ftl::PlacementMode;
use slimio_imdb::backend::{FileBackend, SnapshotKind};
use slimio_imdb::{Db, DbConfig, LogPolicy};
use slimio_kpath::{FsProfile, KernelCosts, SimFs};
use slimio_nvme::{DeviceConfig, DeviceHandle};

#[derive(Clone, Debug)]
enum Cmd {
    Set { key: u8, len: u16 },
    Del { key: u8 },
    BeginWalSnapshot,
    BeginOdSnapshot,
    StepSnapshot,
    FlushSync,
}

fn gen_cmd(rng: &mut Xoshiro256) -> Cmd {
    // Weights mirror the original strategy: 8 set : 2 del : 1 wal-snap :
    // 1 od-snap : 3 step : 2 flush+sync.
    match rng.gen_range(17) {
        0..=7 => Cmd::Set {
            key: rng.gen_range(256) as u8,
            len: 1 + rng.gen_range(599) as u16,
        },
        8 | 9 => Cmd::Del {
            key: rng.gen_range(256) as u8,
        },
        10 => Cmd::BeginWalSnapshot,
        11 => Cmd::BeginOdSnapshot,
        12..=14 => Cmd::StepSnapshot,
        _ => Cmd::FlushSync,
    }
}

fn value_for(key: u8, len: u16, version: u32) -> Vec<u8> {
    let mut v = vec![key; len as usize];
    v.extend_from_slice(&version.to_le_bytes());
    v
}

#[test]
fn synced_state_always_recovers() {
    let mut rng = Xoshiro256::new(0xD8_5EED);
    for _case in 0..24 {
        let n = 1 + rng.gen_range(119) as usize;
        let cmds: Vec<Cmd> = (0..n).map(|_| gen_cmd(&mut rng)).collect();

        let dev = DeviceHandle::new(DeviceConfig::tiny(PlacementMode::Conventional));
        let fs = SimFs::new(dev, KernelCosts::default(), FsProfile::f2fs());
        let cfg = DbConfig {
            policy: LogPolicy::Always,
            wal_snapshot_threshold: u64::MAX, // snapshots are explicit here
            snapshot_chunk: 2048,
            entry_overhead: 64,
        };
        let mut db = Db::new(FileBackend::new(fs).unwrap(), cfg);
        let mut shadow: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let t = SimTime::ZERO;
        let mut version = 0u32;

        for cmd in &cmds {
            match cmd {
                Cmd::Set { key, len } => {
                    version += 1;
                    let k = vec![*key; 3];
                    let v = value_for(*key, *len, version);
                    db.set(&k, &v, t).unwrap();
                    shadow.insert(k, v);
                }
                Cmd::Del { key } => {
                    let k = vec![*key; 3];
                    db.del(&k, t).unwrap();
                    shadow.remove(&k);
                }
                Cmd::BeginWalSnapshot => {
                    let _ = db.snapshot_begin(SnapshotKind::WalSnapshot, t);
                }
                Cmd::BeginOdSnapshot => {
                    let _ = db.snapshot_begin(SnapshotKind::OnDemand, t);
                }
                Cmd::StepSnapshot => {
                    if db.snapshot_active() {
                        db.snapshot_step(16, t).unwrap();
                    }
                }
                Cmd::FlushSync => {
                    db.flush_wal(t).unwrap();
                    db.sync_wal(t).unwrap();
                }
            }
        }
        // Finish any in-flight snapshot and sync, then crash + recover.
        while db.snapshot_active() {
            db.snapshot_step(64, t).unwrap();
        }
        db.flush_wal(t).unwrap();
        db.sync_wal(t).unwrap();

        let mut fs = db.into_backend().into_fs();
        fs.crash();
        let (mut rec, _) = Db::recover(FileBackend::remount(fs).unwrap(), cfg, t).unwrap();

        assert_eq!(rec.len(), shadow.len());
        for (k, v) in &shadow {
            let got = rec.get(k);
            assert!(got.is_some(), "missing key {k:?}");
            assert_eq!(&*got.unwrap(), v.as_slice());
        }
    }
}
