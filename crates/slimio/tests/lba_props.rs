//! Randomized tests for the LBA space manager and crash recovery.
//!
//! Random scripts of WAL appends/syncs and snapshot begin/chunk/commit/
//! abort run against the passthru backend; at the end the backend is
//! dropped and recovered, and the §4.2 guarantees are checked: committed
//! snapshots intact, synced WAL prefix intact, sequence numbers monotone,
//! never a torn mix of generations. Scripts come from the workspace's
//! deterministic PRNG so every case reproduces from its seed.

use slimio::wal_log::WalLog;
use slimio::PassthruBackend;
use slimio_des::{SimTime, Xoshiro256};
use slimio_ftl::PlacementMode;
use slimio_imdb::backend::{PersistBackend, SnapshotKind};
use slimio_imdb::wal::{encode, replay, WalRecord};
use slimio_nvme::{DeviceConfig, DeviceHandle};
use slimio_uring::SharedClock;

#[derive(Clone, Debug)]
enum Op {
    Append(u16),
    Sync,
    SnapBegin(bool),
    SnapChunk(u16),
    SnapCommit,
    SnapAbort,
}

fn gen_op(rng: &mut Xoshiro256) -> Op {
    // Weights mirror the original strategy: 5 append : 3 sync : 1 begin :
    // 3 chunk : 1 commit : 1 abort.
    match rng.gen_range(14) {
        0..=4 => Op::Append(1 + rng.gen_range(1999) as u16),
        5..=7 => Op::Sync,
        8 => Op::SnapBegin(rng.gen_range(2) == 0),
        9..=11 => Op::SnapChunk(1 + rng.gen_range(4999) as u16),
        12 => Op::SnapCommit,
        _ => Op::SnapAbort,
    }
}

fn wal_record(seq: u64, len: u16) -> Vec<u8> {
    let mut buf = Vec::new();
    encode(
        &WalRecord::Set {
            seq,
            key: seq.to_be_bytes().to_vec(),
            value: vec![seq as u8; len as usize],
        },
        &mut buf,
    );
    buf
}

#[test]
fn random_script_crash_recovers_consistently() {
    let mut rng = Xoshiro256::new(0x1BA_5EED);
    for _case in 0..32 {
        let n = 1 + rng.gen_range(59) as usize;
        let ops: Vec<Op> = (0..n).map(|_| gen_op(&mut rng)).collect();

        let dev = DeviceHandle::new(DeviceConfig::tiny(PlacementMode::Fdp { max_pids: 8 }));
        let mut backend = PassthruBackend::new(dev.clone(), SharedClock::new());
        let t = SimTime::ZERO;
        let mut seq = 0u64;
        let mut synced: Vec<u64> = Vec::new();
        let mut unsynced: Vec<u64> = Vec::new();
        let mut snap_active = false;
        let mut pending_chunks: Vec<u8> = Vec::new();
        let mut pending_kind = SnapshotKind::OnDemand;
        let mut fork_seq = 0u64;
        let mut committed: std::collections::HashMap<SnapshotKind, Vec<u8>> =
            std::collections::HashMap::new();

        for op in &ops {
            match *op {
                Op::Append(len) => {
                    seq += 1;
                    if backend.wal_append(&wal_record(seq, len), t).is_ok() {
                        unsynced.push(seq);
                    } else {
                        seq -= 1; // region full; nothing appended
                    }
                }
                Op::Sync => {
                    backend.wal_sync(t).unwrap();
                    synced.append(&mut unsynced);
                }
                Op::SnapBegin(wal_kind) => {
                    let kind = if wal_kind {
                        SnapshotKind::WalSnapshot
                    } else {
                        SnapshotKind::OnDemand
                    };
                    if backend.snapshot_begin(kind, t).is_ok() {
                        snap_active = true;
                        pending_kind = kind;
                        pending_chunks.clear();
                        // Records at or below this sequence number are
                        // absorbed if (and only if) the snapshot commits.
                        fork_seq = seq;
                    }
                }
                Op::SnapChunk(len) => {
                    if snap_active {
                        let chunk = vec![0xC5u8; len as usize];
                        if backend.snapshot_chunk(&chunk, t).is_ok() {
                            pending_chunks.extend_from_slice(&chunk);
                        }
                    }
                }
                Op::SnapCommit => {
                    if snap_active {
                        backend.snapshot_commit(t).unwrap();
                        snap_active = false;
                        committed.insert(pending_kind, pending_chunks.clone());
                        if pending_kind == SnapshotKind::WalSnapshot {
                            // The snapshot absorbed every pre-fork record;
                            // the WAL tail advanced past them.
                            synced.retain(|s| *s > fork_seq);
                            unsynced.retain(|s| *s > fork_seq);
                        }
                    }
                }
                Op::SnapAbort => {
                    if snap_active {
                        backend.snapshot_abort(t).unwrap();
                        snap_active = false;
                    }
                }
            }
        }
        drop(backend); // crash

        let mut rec = PassthruBackend::recover(dev.clone(), SharedClock::new()).unwrap();

        // Committed snapshots are intact. (A zero-length commit is
        // indistinguishable from "no snapshot" — the engine never produces
        // one; the RDB format is never empty.)
        for (kind, bytes) in &committed {
            let (got, _) = rec.load_snapshot(*kind, t).unwrap();
            if bytes.is_empty() {
                assert!(got.is_none() || got.as_deref() == Some(&[][..]));
            } else {
                assert_eq!(
                    got.as_deref(),
                    Some(bytes.as_slice()),
                    "snapshot {kind:?} lost or corrupted"
                );
            }
        }

        // The synced WAL prefix of the live generation replays, in order.
        let (wal, _) = rec.load_wal(t).unwrap();
        let seqs: Vec<u64> = replay(&wal).iter().map(|r| r.seq()).collect();
        assert!(
            seqs.len() >= synced.len(),
            "synced records lost: got {seqs:?}, expected at least {synced:?}"
        );
        assert_eq!(&seqs[..synced.len()], synced.as_slice());
        for w in seqs.windows(2) {
            assert!(w[0] < w[1], "replay out of order: {seqs:?}");
        }
    }
}

#[test]
fn wal_log_append_truncate_invariants() {
    let mut rng = Xoshiro256::new(0x1BA_70C5);
    for _case in 0..32 {
        let n = 1 + rng.gen_range(199) as usize;
        let region_lbas = 64u64; // 256 KiB region
        let mut log = WalLog::new(10, region_lbas);
        for _ in 0..n {
            // 4 append : 1 truncate.
            if rng.gen_range(5) < 4 {
                let arg = 1 + rng.gen_range(8999);
                let before = log.head();
                match log.append(&vec![7u8; arg as usize]) {
                    Ok(pages) => {
                        assert_eq!(log.head(), before + arg);
                        for pw in &pages {
                            assert!(pw.lba >= 10 && pw.lba < 10 + region_lbas);
                            assert_eq!(pw.data.len(), 4096);
                        }
                    }
                    Err(_) => {
                        // Full: state unchanged.
                        assert_eq!(log.head(), before);
                    }
                }
            } else {
                let pct = rng.gen_range(100);
                let span = log.head() - log.tail();
                let new_tail = log.tail() + span * pct / 100;
                let dead = log.truncate_to(new_tail);
                for (lba, n) in dead {
                    assert!(lba >= 10 && lba + n <= 10 + region_lbas);
                    assert!(n >= 1);
                }
                assert_eq!(log.tail(), new_tail);
            }
            assert!(log.live_bytes() <= log.capacity());
            assert!(log.tail() <= log.head());
        }
    }
}
