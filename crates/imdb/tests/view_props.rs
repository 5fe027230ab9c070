//! Concurrency stress tests for the seqlock/epoch keyspace index.
//!
//! The writer thread mutates and publishes while reader threads hammer
//! `get`/`contains` the whole time. The properties checked are exactly
//! the ones the seqlock + epoch + publish protocol promises:
//!
//! - **No torn reads.** A reader never observes a key paired with a
//!   value written for a different key, and never observes a
//!   half-initialised entry — every `get` returns a value that some
//!   `set` stored under that exact key.
//! - **Per-key monotonicity.** Values for a key carry a round number
//!   that only moves forward; a reader that saw round `r` for a key
//!   never later sees `r' < r` for the same key (slot coherence inside
//!   a table, seqlock validation across resizes).
//! - **Publish bound.** A round number observed in a value is never
//!   greater than the round `published()` reports *after* the read: a
//!   reader never sees a value from a batch that is applied but not yet
//!   published.
//! - **Read-your-writes.** Once the writer has acked a round (published
//!   it, then told the readers), no read returns an older one.
//! - **Quiescent agreement.** After the writer finishes, every reader
//!   agrees with the final map contents.
//!
//! The churn test adds deletes and reinserts so the table goes through
//! deleted-entry purges and doubling resizes under concurrent readers,
//! under the same publish bound.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use slimio_imdb::ReadView;

const KEYS: usize = 48;
const READERS: usize = 4;

fn key(j: usize) -> Arc<[u8]> {
    format!("vk:{j:04}").into_bytes().into()
}

/// Value for key `j` at round `r`: both coordinates are embedded so a
/// torn read (value from another key, or a stale/future round) is
/// detectable from the bytes alone.
fn val(r: u64, j: usize) -> Arc<[u8]> {
    format!("r{r:08}:k{j:04}").into_bytes().into()
}

fn parse_val(b: &[u8]) -> (u64, usize) {
    let s = std::str::from_utf8(b).expect("torn read: value not UTF-8");
    let (r, k) = s.split_once(":k").expect("torn read: malformed value");
    let r = r
        .strip_prefix('r')
        .and_then(|x| x.parse().ok())
        .expect("torn read: malformed round");
    let k = k.parse().expect("torn read: malformed key index");
    (r, k)
}

/// Write-heavy overwrite loop: every round rewrites all keys and
/// publishes under the round number, while readers check pairing,
/// monotonicity, and both publish bounds on every single read.
#[test]
fn seqlock_readers_never_observe_torn_or_stale_values() {
    let rounds: u64 = if std::env::var("SLIMIO_STRESS").is_ok() {
        4000
    } else {
        800
    };
    let (mut writer, view) = ReadView::new();

    // Round 0 seeds every key so readers always expect a hit.
    for j in 0..KEYS {
        writer.set(&key(j), &val(0, j));
    }
    writer.publish(0);
    // Highest round the writer has published *and then* announced — what
    // an ack is to a connection.
    let acked = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..READERS)
        .map(|t| {
            let view = Arc::clone(&view);
            let acked = Arc::clone(&acked);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let reader = view.register().expect("reader slot");
                let mut last_seen = [0u64; KEYS];
                let mut reads = 0u64;
                while !stop.load(Ordering::Acquire) {
                    for (j, last) in last_seen.iter_mut().enumerate() {
                        let k = key(j);
                        let own_ack = acked.load(Ordering::Acquire);
                        let v = reader.get(&k).expect("seeded key vanished");
                        let published = reader.published();
                        let (r, kj) = parse_val(&v);
                        assert_eq!(kj, j, "reader {t}: torn read — key {j} paired with {kj}");
                        assert!(
                            r >= *last,
                            "reader {t}: key {j} went backwards ({r} after {last})"
                        );
                        assert!(
                            r <= published,
                            "reader {t}: key {j} shows round {r}, published is {published}"
                        );
                        assert!(
                            r >= own_ack,
                            "reader {t}: key {j} shows round {r} after the ack of {own_ack}"
                        );
                        *last = r;
                        assert!(reader.contains(&k));
                        reads += 1;
                    }
                }
                (last_seen, reads)
            })
        })
        .collect();

    for r in 1..=rounds {
        for j in 0..KEYS {
            writer.set(&key(j), &val(r, j));
        }
        writer.publish(r);
        acked.store(r, Ordering::Release);
    }
    stop.store(true, Ordering::Release);

    let mut total_reads = 0;
    for h in readers {
        let (last_seen, reads) = h.join().expect("reader panicked");
        total_reads += reads;
        for (j, &r) in last_seen.iter().enumerate() {
            assert!(r <= rounds, "key {j} ended past the final round");
        }
    }
    assert!(total_reads > 0, "readers never ran");

    // Quiescent check: a fresh reader sees exactly the final round.
    let reader = view.register().expect("reader slot");
    for j in 0..KEYS {
        assert_eq!(reader.get(&key(j)).as_deref(), Some(&*val(rounds, j)));
    }
    assert_eq!(view.published(), rounds);
}

/// Insert/delete churn across many more keys than the initial table
/// capacity: the table doubles and purges deleted keys' entries
/// repeatedly while readers probe. Deleted keys may be observed either
/// present (old version) or absent, but a present value must always be
/// well-formed, correctly paired, and from a published batch — values
/// carry the publish sequence their batch goes out under.
#[test]
fn resize_and_tombstone_churn_under_concurrent_readers() {
    const CHURN_KEYS: usize = 4096;
    let (mut writer, view) = ReadView::new();
    let stop = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..READERS)
        .map(|t| {
            let view = Arc::clone(&view);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let reader = view.register().expect("reader slot");
                let mut hits = 0u64;
                let mut probes = 0u64;
                while !stop.load(Ordering::Acquire) {
                    for j in (t..CHURN_KEYS).step_by(READERS) {
                        if let Some(v) = reader.get(&key(j)) {
                            let published = reader.published();
                            let (seq, kj) = parse_val(&v);
                            assert_eq!(kj, j, "reader {t}: torn read during churn");
                            assert!(
                                seq <= published,
                                "reader {t}: key {j} from batch {seq}, published is {published}"
                            );
                            hits += 1;
                        }
                        probes += 1;
                    }
                }
                (hits, probes)
            })
        })
        .collect();

    // Three waves: fill, delete every other key, refill in later
    // batches. Interleaved publishes keep the epoch advancing so retired
    // tables and entries actually get reclaimed mid-run.
    let mut seq = 0u64;
    let mut wave_start = 0u64;
    for _wave in 0..3 {
        wave_start = seq + 1;
        for j in 0..CHURN_KEYS {
            writer.set(&key(j), &val(seq + 1, j));
            if j % 64 == 63 {
                seq += 1;
                writer.publish(seq);
            }
        }
        for j in (0..CHURN_KEYS).step_by(2) {
            writer.del(&key(j));
            if j % 64 == 62 {
                seq += 1;
                writer.publish(seq);
            }
        }
        seq += 1;
        writer.publish(seq);
    }
    stop.store(true, Ordering::Release);

    let mut total_probes = 0;
    for h in readers {
        let (_, probes) = h.join().expect("reader panicked");
        total_probes += probes;
    }
    assert!(total_probes > 0, "readers never ran");

    // Quiescent: odd keys live, as the final wave filled them; even
    // deleted.
    let reader = view.register().expect("reader slot");
    for j in 0..CHURN_KEYS {
        if j % 2 == 1 {
            let (batch, kj) = parse_val(&reader.get(&key(j)).expect("odd keys live"));
            assert!(kj == j && batch >= wave_start, "key {j} holds {batch}:{kj}");
        } else {
            assert_eq!(reader.get(&key(j)), None, "deleted key {j} resurrected");
            assert!(!reader.contains(&key(j)));
        }
    }
}
