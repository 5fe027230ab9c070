//! Exhaustive crash-point property: for *every* device-write boundary a
//! workload crosses, a power cut at exactly that write leaves recovery
//! with a clean prefix of the record sequence — at least everything
//! acked under `appendfsync always`, at most everything issued, and
//! never a value outside {pre-op, post-op}.
//!
//! This drives the engine directly over a [`Store`] (no TCP), so the
//! enumeration over `pc@n` for n = 1..=W is cheap enough to be complete.
//! It runs twice: with records that fit one page, and with values past
//! 4 KiB so one append spans pages and reaches the device as vectored
//! multi-block commands — the armed run and the counting run take the
//! same submit path, so `n` means the same write in both.

use slimio_des::SimTime;
use slimio_imdb::{Db, DbConfig, LogPolicy};
use slimio_nvme::FaultPlan;
use slimio_server::BackendKind;

mod common;
use common::store_for;

const OPS: usize = 12;
const RATIO: f64 = 1.0 / 128.0;

fn cfg() -> DbConfig {
    DbConfig {
        policy: LogPolicy::Always,
        ..DbConfig::default()
    }
}

fn key(i: usize) -> Vec<u8> {
    format!("prop:{i:03}").into_bytes()
}

/// Value `i`, zero-padded on the right to at least `min_len` bytes.
fn val(i: usize, min_len: usize) -> Vec<u8> {
    let mut v = format!("value-{i}").into_bytes();
    v.resize(v.len().max(min_len), 0);
    v
}

/// Runs the fixed workload with no faults and reports how many device
/// write commands it issues after the backend is open.
fn fault_free_write_count(kind: BackendKind, min_len: usize) -> u64 {
    let mut store = store_for(kind, RATIO);
    let backend = store.open().expect("open");
    let mut db = Db::new(backend, cfg());
    let before = store.device().counters().write_commands;
    for i in 0..OPS {
        db.set(&key(i), &val(i, min_len), SimTime::ZERO)
            .expect("set");
    }
    let after = store.device().counters().write_commands;
    store.close(db.into_backend());
    after - before
}

fn wal_boundary_prefix(kind: BackendKind, min_len: usize) {
    let writes = fault_free_write_count(kind, min_len);
    assert!(
        writes >= OPS as u64,
        "{kind:?}: Always must issue at least one device write per op"
    );

    for n in 1..=writes {
        let mut store = store_for(kind, RATIO);
        let backend = store.open().expect("open");
        let mut db = Db::new(backend, cfg());
        let plan: FaultPlan = format!("pc@{n}").parse().unwrap();
        store.device().lock().unwrap().arm_fault(plan);

        // Run until the power cut surfaces; every op before it acked.
        let mut acked = 0usize;
        let mut issued = 0usize;
        for i in 0..OPS {
            issued = i + 1;
            match db.set(&key(i), &val(i, min_len), SimTime::ZERO) {
                Ok(_) => acked = i + 1,
                Err(_) => break,
            }
        }
        assert!(
            acked < issued || issued == OPS,
            "{kind:?} pc@{n}: plan never fired mid-workload"
        );

        // The crash: drop volatile state, power the device back on, and
        // recover from what made it to NAND.
        store.crash(db.into_backend());
        let backend = store.open().expect("reopen");
        let (mut rec, _) = Db::recover(backend, cfg(), SimTime::ZERO).expect("recover");

        // Recovered state must be exactly the synced prefix: some m with
        // acked <= m <= issued, every key below m intact, none above it.
        let mut m = 0usize;
        while m < OPS && rec.get(&key(m)).is_some() {
            m += 1;
        }
        for i in m..OPS {
            assert!(
                rec.get(&key(i)).is_none(),
                "{kind:?} pc@{n}: key {i} present past the recovered prefix {m}"
            );
        }
        for i in 0..m {
            assert_eq!(
                &*rec.get(&key(i)).unwrap(),
                &val(i, min_len)[..],
                "{kind:?} pc@{n}: key {i} recovered with a foreign value"
            );
        }
        assert!(
            m >= acked,
            "{kind:?} pc@{n}: acked prefix {acked} shrank to {m} after recovery"
        );
        assert!(
            m <= issued,
            "{kind:?} pc@{n}: recovery invented records ({m} > issued {issued})"
        );
        assert_eq!(rec.len(), m, "{kind:?} pc@{n}: stray keys in recovery");
        store.close(rec.into_backend());
    }
}

#[test]
fn kernel_every_write_boundary_recovers_the_synced_prefix() {
    wal_boundary_prefix(BackendKind::Kernel, 0);
    wal_boundary_prefix(BackendKind::Kernel, 5000);
}

#[test]
fn passthru_every_write_boundary_recovers_the_synced_prefix() {
    wal_boundary_prefix(BackendKind::Passthru, 0);
    wal_boundary_prefix(BackendKind::Passthru, 5000);
}
