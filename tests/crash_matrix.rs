//! Crash-at-every-point recovery matrix for the SlimIO backend.
//!
//! Replays the same scripted persistence workload, crashing after each
//! prefix of its steps, and asserts that recovery always yields a
//! consistent state: the newest *committed* snapshot plus every *synced*
//! WAL record after its fork point — never a torn mix (§4.2).

use slimio_suite::des::SimTime;
use slimio_suite::ftl::PlacementMode;
use slimio_suite::imdb::backend::{PersistBackend, SnapshotKind};
use slimio_suite::imdb::wal::{encode, replay, WalRecord};
use slimio_suite::nvme::{DeviceConfig, DeviceHandle};
use slimio_suite::slimio::PassthruBackend;
use slimio_suite::uring::SharedClock;

/// A scripted persistence step.
#[derive(Clone, Copy, Debug)]
enum Step {
    Append(u64),
    Sync,
    SnapBegin(SnapshotKind),
    SnapChunk(u8),
    SnapCommit,
    SnapAbort,
}

const SCRIPT: &[Step] = &[
    Step::Append(1),
    Step::Append(2),
    Step::Sync,
    Step::SnapBegin(SnapshotKind::WalSnapshot),
    Step::SnapChunk(0xA1),
    Step::Append(3),
    Step::SnapChunk(0xA2),
    Step::SnapCommit,
    Step::Sync,
    Step::Append(4),
    Step::SnapBegin(SnapshotKind::OnDemand),
    Step::SnapChunk(0xB1),
    Step::SnapAbort,
    Step::Append(5),
    Step::Sync,
    Step::SnapBegin(SnapshotKind::WalSnapshot),
    Step::SnapChunk(0xC1),
    Step::SnapCommit,
    Step::Append(6),
    Step::Sync,
];

fn wal_record(seq: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    encode(
        &WalRecord::Set {
            seq,
            key: format!("key{seq}").into_bytes(),
            value: vec![seq as u8; 300],
        },
        &mut buf,
    );
    buf
}

/// Tracks what *must* be recoverable at any crash point.
#[derive(Clone, Debug, Default)]
struct Oracle {
    /// Sequence numbers synced in the current WAL chain (post-fork).
    synced: Vec<u64>,
    /// Appended but not yet synced.
    unsynced: Vec<u64>,
    /// Appended records that a committed WAL-snapshot absorbed.
    absorbed: Vec<u64>,
    /// Committed WAL-snapshot chunks, if any.
    wal_snapshot: Option<Vec<u8>>,
    /// Pending snapshot (kind, bytes, wal records at fork).
    pending: Option<(SnapshotKind, Vec<u8>, usize)>,
    /// Committed on-demand snapshot.
    od_snapshot: Option<Vec<u8>>,
}

fn run_prefix(len: usize) -> (DeviceHandle, Oracle) {
    let dev = DeviceHandle::new(DeviceConfig::tiny(PlacementMode::Fdp { max_pids: 8 }));
    let mut backend = PassthruBackend::new(dev.clone(), SharedClock::new());
    let mut oracle = Oracle::default();
    let t = SimTime::ZERO;
    for step in &SCRIPT[..len] {
        match *step {
            Step::Append(seq) => {
                backend.wal_append(&wal_record(seq), t).unwrap();
                oracle.unsynced.push(seq);
            }
            Step::Sync => {
                backend.wal_sync(t).unwrap();
                oracle.synced.append(&mut oracle.unsynced);
            }
            Step::SnapBegin(kind) => {
                backend.snapshot_begin(kind, t).unwrap();
                // Records synced before the fork are covered by the
                // snapshot once it commits.
                let covered = oracle.synced.len() + oracle.unsynced.len();
                oracle.pending = Some((kind, Vec::new(), covered));
            }
            Step::SnapChunk(fill) => {
                let chunk = vec![fill; 700];
                backend.snapshot_chunk(&chunk, t).unwrap();
                if let Some((_, data, _)) = oracle.pending.as_mut() {
                    data.extend_from_slice(&chunk);
                }
            }
            Step::SnapCommit => {
                backend.snapshot_commit(t).unwrap();
                let (kind, data, covered) = oracle.pending.take().expect("pending");
                match kind {
                    SnapshotKind::WalSnapshot => {
                        // The snapshot absorbs every record up to the fork.
                        let mut all: Vec<u64> = std::mem::take(&mut oracle.synced);
                        all.append(&mut oracle.unsynced);
                        let (covered_recs, after) = all.split_at(covered.min(all.len()));
                        oracle.absorbed.extend_from_slice(covered_recs);
                        // Post-fork records: appended but re-staged into the
                        // new generation; they were never synced after the
                        // rotation unless a later Sync happens.
                        oracle.unsynced = after.to_vec();
                        oracle.wal_snapshot = Some(data);
                    }
                    SnapshotKind::OnDemand => {
                        oracle.od_snapshot = Some(data);
                    }
                }
            }
            Step::SnapAbort => {
                backend.snapshot_abort(t).unwrap();
                oracle.pending = None;
            }
        }
    }
    drop(backend); // crash
    (dev, oracle)
}

#[test]
fn crash_after_every_step_recovers_consistently() {
    for crash_point in 0..=SCRIPT.len() {
        let (dev, oracle) = run_prefix(crash_point);
        let mut rec = PassthruBackend::recover(dev.clone(), SharedClock::new())
            .unwrap_or_else(|e| panic!("recovery failed at crash point {crash_point}: {e}"));

        // 1. The committed WAL-snapshot matches the oracle.
        let (snap, _) = rec
            .load_snapshot(SnapshotKind::WalSnapshot, SimTime::ZERO)
            .unwrap();
        match (&oracle.wal_snapshot, &snap) {
            (Some(want), Some(got)) => {
                assert_eq!(got, want, "wal-snapshot bytes at crash point {crash_point}")
            }
            (None, Some(_)) => panic!("phantom wal-snapshot at {crash_point}"),
            (Some(_), None) => panic!("lost committed wal-snapshot at {crash_point}"),
            (None, None) => {}
        }

        // 2. The WAL replays to at least the synced records of the current
        //    generation, in order, and never reaches past what was
        //    appended.
        let (wal, _) = rec.load_wal(SimTime::ZERO).unwrap();
        let seqs: Vec<u64> = replay(&wal).iter().map(|r| r.seq()).collect();
        assert!(
            seqs.len() >= oracle.synced.len(),
            "crash {crash_point}: synced records lost: {seqs:?} vs {:?}",
            oracle.synced
        );
        assert_eq!(
            &seqs[..oracle.synced.len()],
            oracle.synced.as_slice(),
            "crash {crash_point}: synced prefix mismatch"
        );
        let appended: Vec<u64> = oracle
            .synced
            .iter()
            .chain(&oracle.unsynced)
            .copied()
            .collect();
        assert!(
            seqs.len() <= appended.len(),
            "crash {crash_point}: phantom records {seqs:?}"
        );
        assert_eq!(&appended[..seqs.len()], seqs.as_slice());

        // 3. Monotone sequence invariant.
        for w in seqs.windows(2) {
            assert!(w[0] < w[1], "crash {crash_point}: replay out of order");
        }
    }
}

#[test]
fn committed_od_snapshot_survives_any_later_crash() {
    // Crash points after the OD abort step (index 13+) must never disturb
    // the absence of OD data; the earlier prefix (after step 13's abort)
    // has no committed OD snapshot at all — verify it stays that way.
    for crash_point in 13..=SCRIPT.len() {
        let (dev, oracle) = run_prefix(crash_point);
        let mut rec = PassthruBackend::recover(dev.clone(), SharedClock::new()).unwrap();
        let (od, _) = rec
            .load_snapshot(SnapshotKind::OnDemand, SimTime::ZERO)
            .unwrap();
        assert_eq!(
            od.is_some(),
            oracle.od_snapshot.is_some(),
            "crash {crash_point}: OD snapshot presence mismatch"
        );
    }
}
