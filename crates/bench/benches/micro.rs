//! Microbenchmarks for the hot building blocks, self-harnessed (no
//! external bench framework; `harness = false`).
//!
//! These are component-level benches (the table/figure reproductions live
//! in the `table*`/`fig*` binaries): event scheduler, ring transfer,
//! io_uring submit→reap in both ring modes, FTL write/GC, compression,
//! WAL/RDB codecs, histogram recording, restart on both I/O paths, the
//! keyspace index at three sizes, Zipfian sampling. Each bench reports ns/op over a fixed iteration
//! count after a warmup pass; pass `--quick` to shrink iteration counts
//! for CI smoke runs.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use slimio::PassthruBackend;
use slimio_des::{Scheduler, SimTime, Xoshiro256};
use slimio_ftl::{Ftl, FtlConfig, PlacementMode};
use slimio_imdb::backend::{BackendError, IoTiming, PersistBackend, SnapshotKind};
use slimio_imdb::compress;
use slimio_imdb::rdb::RdbWriter;
use slimio_imdb::wal::{decode, encode, WalRecord};
use slimio_imdb::{Db, DbConfig, LogPolicy};
use slimio_metrics::Histogram;
use slimio_nvme::{DeviceConfig, DeviceHandle, NvmeDevice};
use slimio_server::{BackendKind, Store, StoreConfig};
use slimio_uring::{spsc, IoUring, RingMode, SharedClock, Sqe, SqeOp};
use slimio_workload::Zipfian;

struct Harness {
    scale: u64,
}

impl Harness {
    /// Time `iters` calls of `op` (after a 1/8 warmup) and print ns/op.
    /// Returns seconds per op so callers can compute ratios.
    fn bench<F: FnMut(u64)>(&self, name: &str, iters: u64, mut op: F) -> f64 {
        let iters = (iters * self.scale / 100).max(1);
        for i in 0..iters / 8 {
            op(i);
        }
        let start = Instant::now();
        for i in 0..iters {
            op(i);
        }
        Self::report(name, start.elapsed(), iters)
    }

    fn report(name: &str, total: Duration, iters: u64) -> f64 {
        let secs = total.as_secs_f64() / iters as f64;
        println!("{name:<40} {:>12.1} ns/op   ({iters} iters)", secs * 1e9);
        secs
    }
}

/// The pre-calendar-queue scheduler: a plain binary heap over
/// `Reverse((at, seq))`, kept here as the baseline the calendar queue is
/// measured against.
struct RefHeap {
    heap: BinaryHeap<Reverse<(SimTime, u64)>>,
    seq: u64,
}

impl RefHeap {
    fn new() -> Self {
        RefHeap {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
    fn push(&mut self, at: SimTime) {
        self.heap.push(Reverse((at, self.seq)));
        self.seq += 1;
    }
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        self.heap.pop().map(|Reverse(e)| e)
    }
}

/// Hold-model schedule: pop one event, push a successor a short random
/// delay in the future. This is exactly the steady-state shape the DES
/// main loop produces.
fn sched_delays(n: usize) -> Vec<u64> {
    let mut rng = Xoshiro256::new(0x5C_4ED);
    (0..n).map(|_| rng.gen_range(20_000)).collect()
}

fn bench_sched(h: &Harness) {
    const LIVE: usize = 16384;
    // Small enough to stay cache-resident: the bench should time the
    // scheduler, not misses on the delay table.
    let delays = sched_delays(1 << 12);

    // Both queues persist across rounds (steady-state hold model). The
    // heap and calendar blocks are timed in *alternating pairs* so slow
    // machine drift affects both sides equally; the reported ratio is the
    // ratio of the paired sums.
    let mut heap = RefHeap::new();
    let mut cal: Scheduler<u32> = Scheduler::new();
    for i in 0..LIVE {
        heap.push(SimTime(delays[i % delays.len()]));
        cal.at(SimTime(delays[i % delays.len()]), i as u32);
    }
    let rounds = (48 * h.scale / 100).max(1) as usize;
    let block = LIVE;
    let mut heap_ns: Vec<f64> = Vec::with_capacity(rounds);
    let mut cal_ns: Vec<f64> = Vec::with_capacity(rounds);
    let mut ratios: Vec<f64> = Vec::with_capacity(rounds);
    let (mut hi, mut ci) = (0usize, 0usize);
    for round in 0..rounds + rounds / 8 {
        let warm = round < rounds / 8; // warmup pairs are not counted
        let t0 = Instant::now();
        for _ in 0..block {
            let (t, _) = heap.pop().unwrap();
            heap.push(SimTime(t.0 + delays[(hi * 7 + 13) % delays.len()]));
            hi += 1;
        }
        let t1 = Instant::now();
        for _ in 0..block {
            let (t, ev) = cal.pop().unwrap();
            cal.at(SimTime(t.0 + delays[(ci * 7 + 13) % delays.len()]), ev);
            ci += 1;
        }
        if !warm {
            let h_secs = t1.duration_since(t0).as_secs_f64();
            let c_secs = t1.elapsed().as_secs_f64();
            heap_ns.push(h_secs / block as f64 * 1e9);
            cal_ns.push(c_secs / block as f64 * 1e9);
            ratios.push(h_secs / c_secs);
        }
    }
    // Medians: a scheduler tick or frequency excursion that lands inside
    // one side's block skews that pair's ratio, not the whole result.
    let median = |v: &mut Vec<f64>| {
        v.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
        v[v.len() / 2]
    };
    println!(
        "sched/heap_hold_model                    {:>12.1} ns/op   (median of {rounds} rounds)",
        median(&mut heap_ns)
    );
    println!(
        "sched/calendar_hold_model                {:>12.1} ns/op   (median of {rounds} rounds)",
        median(&mut cal_ns)
    );
    println!(
        "sched/speedup calendar vs heap           {:>11.2}x   (median of paired rounds)",
        median(&mut ratios)
    );

    h.bench("sched/calendar_same_time_burst", 40, |_| {
        let mut q: Scheduler<u32> = Scheduler::new();
        for round in 0..16u64 {
            let t = SimTime(round * 1000);
            for i in 0..512u32 {
                q.at(t, i);
            }
            for _ in 0..512 {
                std::hint::black_box(q.pop());
            }
        }
    });
}

fn bench_spsc(h: &Harness) {
    let (p, cons) = spsc::ring::<u64>(1024);
    h.bench("spsc/push_pop", 4_000_000, |i| {
        p.push(i).unwrap();
        std::hint::black_box(cons.pop().unwrap());
    });
}

/// One 4 KiB timing-only write through a ring: submit, then reap its
/// completion. `enter` is the WAL-Path's mode; `sqpoll_hot` finds the
/// poller polling (the submit is a bare ring push), `sqpoll_parked` finds
/// it asleep (the submit pays the wake-up, the reap waits for the poller
/// to get back onto a CPU). The gap between the last two is what
/// `slimio-uring`'s idle grace buys for as long as it lasts, and what a
/// ring left alone for longer pays once.
fn bench_uring(h: &Harness) {
    let ring = |mode| {
        let dev = DeviceHandle::new(DeviceConfig {
            store_data: false,
            ..DeviceConfig::tiny(PlacementMode::Conventional)
        });
        IoUring::new(dev, SharedClock::new(), 64, mode)
    };
    let round = |ring: &mut IoUring, i: u64| {
        let op = SqeOp::Write {
            lba: i % 1024,
            blocks: 1,
            pid: 0,
            data: None,
        };
        let sqe = Sqe {
            user_data: i,
            op,
            submitted_at: SimTime::ZERO,
        };
        ring.submit(sqe).expect("SQ has room");
        ring.enter();
        while ring.reap().is_none() {
            std::hint::spin_loop();
        }
    };
    let mut enter = ring(RingMode::Enter);
    h.bench("uring/submit_reap_enter", 1_000_000, |i| {
        round(&mut enter, i)
    });
    let mut sqpoll = ring(RingMode::SqPoll);
    h.bench("uring/submit_reap_sqpoll_hot", 1_000_000, |i| {
        round(&mut sqpoll, i)
    });
    // Timed by hand: the wait for the poller to fall asleep is not the op.
    // `parks` is read *before* a round, so the park that follows the round
    // always moves it — read after, a park that beat the read is waited
    // for forever.
    let iters = (2_000 * h.scale / 100).max(1);
    let mut total = Duration::ZERO;
    let mut parks = sqpoll.sqpoll_stats().parks();
    round(&mut sqpoll, 0);
    for i in 0..iters {
        while sqpoll.sqpoll_stats().parks() == parks {
            std::thread::sleep(Duration::from_micros(50));
        }
        // Parked, and only our submit wakes it: stable until the round.
        parks = sqpoll.sqpoll_stats().parks();
        let t0 = Instant::now();
        round(&mut sqpoll, i);
        total += t0.elapsed();
    }
    Harness::report("uring/submit_reap_sqpoll_parked", total, iters);
}

fn bench_ftl(h: &Harness) {
    for (name, mode) in [
        ("conventional", PlacementMode::Conventional),
        ("fdp", PlacementMode::Fdp { max_pids: 4 }),
    ] {
        h.bench(&format!("ftl/write_churn_{name}"), 20, |_| {
            let mut ftl = Ftl::new(FtlConfig::tiny(mode));
            let cap = ftl.logical_pages();
            // Two full overwrite passes: allocation + GC paths.
            for round in 0..2u64 {
                for lpn in 0..cap {
                    ftl.write(lpn, (round % 4) as u8).unwrap();
                }
            }
            std::hint::black_box(ftl.stats().waf_value());
        });
    }
}

fn bench_device(h: &Harness) {
    let mut dev = NvmeDevice::new(DeviceConfig {
        store_data: false,
        ..DeviceConfig::tiny(PlacementMode::Conventional)
    });
    let cap = dev.capacity_blocks();
    h.bench("nvme/timing_write_4k", 1_000_000, |i| {
        let lba = i % cap;
        std::hint::black_box(dev.write(lba, 1, 0, None, SimTime::ZERO).unwrap());
    });
}

fn bench_compress(h: &Harness) {
    let text = br#"{"ts":123456,"field":"pressure","value":0.482,"unit":"Pa"}"#.repeat(90);
    let mut state = 1u64;
    let random: Vec<u8> = (0..4096)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 56) as u8
        })
        .collect();
    for (name, data) in [("text_4k", &text[..4096]), ("random_4k", &random[..])] {
        h.bench(&format!("lzf/compress_{name}"), 200_000, |_| {
            std::hint::black_box(compress::compress(data));
        });
        let mut comp = compress::Compressor::new();
        let mut out = Vec::new();
        h.bench(&format!("lzf/compress_into_{name}"), 200_000, |_| {
            comp.compress_into(data, &mut out);
            std::hint::black_box(out.len());
        });
        let compressed = compress::compress(data);
        h.bench(&format!("lzf/decompress_{name}"), 400_000, |_| {
            std::hint::black_box(compress::decompress(&compressed, data.len()).unwrap());
        });
    }
}

fn bench_codecs(h: &Harness) {
    let rec = WalRecord::Set {
        seq: 42,
        key: b"key:00001234".to_vec(),
        value: vec![7u8; 4096],
    };
    let mut buf = Vec::with_capacity(8192);
    h.bench("codec/wal_encode_4k", 1_000_000, |_| {
        buf.clear();
        std::hint::black_box(encode(&rec, &mut buf));
    });
    let mut encoded = Vec::new();
    encode(&rec, &mut encoded);
    h.bench("codec/wal_decode_4k", 1_000_000, |_| {
        std::hint::black_box(decode(&encoded).unwrap());
    });
    let value = vec![3u8; 4096];
    h.bench("codec/rdb_entry_4k", 10_000, |_| {
        let mut w = RdbWriter::new(64, 1 << 20);
        for i in 0..64u32 {
            w.entry(&i.to_be_bytes(), &value);
        }
        w.finish();
        std::hint::black_box(w.drain_chunk(true));
    });
}

fn bench_metrics(h: &Harness) {
    let mut hist = Histogram::new();
    let mut x = 1u64;
    h.bench("metrics/histogram_record", 8_000_000, |_| {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        hist.record(std::hint::black_box(x >> 40));
    });
    let mut hist = Histogram::new();
    for v in 0..100_000u64 {
        hist.record(v * 17 % 1_000_000);
    }
    h.bench("metrics/histogram_p999", 200_000, |_| {
        std::hint::black_box(hist.p999());
    });
}

/// Group-commit batch-size sweep over the passthru path under
/// Always-Log: each op queues `batch` SETs in the engine and then pays
/// one WAL flush + one device sync for the whole batch — the live
/// writer's commit shape. The per-SET cost should fall steeply from b1
/// (one sync per SET, the unbatched live path) to b64.
fn bench_group_commit(h: &Harness) {
    let value = vec![b'v'; 64];
    for batch in [1u64, 4, 16, 64] {
        let device = DeviceHandle::new(DeviceConfig::live(true, 1.0 / 128.0));
        let mut db = Db::new(
            PassthruBackend::new(device, SharedClock::new()),
            DbConfig {
                policy: LogPolicy::Always,
                ..DbConfig::default()
            },
        );
        let mut k = 0u64;
        let per_op = h.bench(
            &format!("group_commit/passthru_always_b{batch}"),
            6_400 / batch,
            |_| {
                for _ in 0..batch {
                    k = (k + 1) % 512;
                    db.set_queued(format!("key:{k:06}").as_bytes(), &value);
                }
                let t = db.flush_wal(SimTime::ZERO).unwrap();
                db.sync_wal(t.done_at).unwrap();
            },
        );
        println!(
            "{:<40} {:>12.1} ns/SET",
            format!("group_commit/per_set_b{batch}"),
            per_op * 1e9 / batch as f64
        );
    }
}

/// Table 5's live counterpart: a restart (`Store::crash` → `open` →
/// `Db::recover`) over a fixed 50 000-record log on each I/O path. The
/// ratio of the two per-record lines is what the live benchmark's
/// `kpath.recovery_ratio` measures end to end.
fn bench_restart(h: &Harness) {
    const RECORDS: u64 = 50_000;
    let cfg = DbConfig {
        policy: LogPolicy::Always,
        ..DbConfig::default()
    };
    let value = [b'v'; 128];
    for kind in [BackendKind::Kernel, BackendKind::Passthru] {
        let mut store = Store::new(StoreConfig {
            kind,
            fdp: kind == BackendKind::Passthru,
            ratio: 1.0 / 128.0,
            shards: 1,
        });
        let mut db = Db::new(store.open().unwrap(), cfg);
        for i in 0..RECORDS {
            db.set_queued(format!("key:{i:06}").as_bytes(), &value);
            if i % 64 == 63 || i + 1 == RECORDS {
                db.batch_commit(SimTime::ZERO).unwrap();
            }
        }
        let mut backend = Some(db.into_backend());
        let name = format!("recovery/restart_{}", kind.name());
        let per_restart = h.bench(&name, 8, |_| {
            store.crash(backend.take().expect("one backend in hand"));
            let reopened = store.open().unwrap();
            let (db, replayed) = Db::recover(reopened, cfg, SimTime::ZERO).unwrap();
            assert_eq!(replayed, RECORDS);
            backend = Some(db.into_backend());
        });
        println!(
            "{:<40} {:>12.1} ns/record",
            format!("{name}_per_record"),
            per_restart * 1e9 / RECORDS as f64
        );
    }
}

/// A backend that accepts and forgets everything, so the keyspace bench
/// times the engine's index and WAL encode, not a device.
struct NullBackend;

impl PersistBackend for NullBackend {
    fn wal_append(&mut self, _: &[u8], now: SimTime) -> Result<IoTiming, BackendError> {
        Ok(IoTiming::instant(now))
    }
    fn wal_sync(&mut self, now: SimTime) -> Result<IoTiming, BackendError> {
        Ok(IoTiming::instant(now))
    }
    fn wal_len(&self) -> u64 {
        0
    }
    fn snapshot_begin(&mut self, _: SnapshotKind, now: SimTime) -> Result<IoTiming, BackendError> {
        Ok(IoTiming::instant(now))
    }
    fn snapshot_chunk(&mut self, _: &[u8], now: SimTime) -> Result<IoTiming, BackendError> {
        Ok(IoTiming::instant(now))
    }
    fn snapshot_commit(&mut self, now: SimTime) -> Result<IoTiming, BackendError> {
        Ok(IoTiming::instant(now))
    }
    fn snapshot_abort(&mut self, now: SimTime) -> Result<IoTiming, BackendError> {
        Ok(IoTiming::instant(now))
    }
    fn load_snapshot(
        &mut self,
        _: SnapshotKind,
        now: SimTime,
    ) -> Result<(Option<Vec<u8>>, IoTiming), BackendError> {
        Ok((None, IoTiming::instant(now)))
    }
    fn load_wal(&mut self, now: SimTime) -> Result<(Vec<u8>, IoTiming), BackendError> {
        Ok((Vec::new(), IoTiming::instant(now)))
    }
}

/// The one keyspace index from both sides, over the bench client's
/// `key:<12 digits>` format at 10k / 100k / 1M keys: the writer's
/// `set_queued` (overwrites, in batches of 16 with the commit + publish
/// untimed, as the live writer runs it) and a registered reader's
/// lock-free `get`. Per-op cost should stay within cache-miss distance
/// across the sizes; on a badly mixed hash it grows with the key count.
fn bench_keyspace(h: &Harness) {
    const BATCH: usize = 16;
    let key = |i: u64| format!("key:{i:012}").into_bytes();
    let value = [b'v'; 64];
    // The 1M pair costs ~2 s of preload; CI's quick run skips it.
    let sizes: &[(u64, &str)] = if h.scale < 100 {
        &[(10_000, "10k"), (100_000, "100k")]
    } else {
        &[(10_000, "10k"), (100_000, "100k"), (1_000_000, "1m")]
    };
    for &(n, label) in sizes {
        let mut db = Db::new(NullBackend, DbConfig::default());
        for i in 0..n {
            db.set_queued(&key(i), &value);
            if i % 4096 == 4095 {
                db.flush_wal(SimTime::ZERO).unwrap();
                db.publish_view();
            }
        }
        db.flush_wal(SimTime::ZERO).unwrap();
        db.publish_view();
        let mut rng = Xoshiro256::new(0x6b65_7973 ^ n);
        let ops: Vec<Vec<u8>> = (0..(200_000 * h.scale / 100).max(1))
            .map(|_| key(rng.gen_range(n)))
            .collect();

        let mut set_time = Duration::ZERO;
        for batch in ops.chunks(BATCH) {
            let t0 = Instant::now();
            for k in batch {
                db.set_queued(k, &value);
            }
            set_time += t0.elapsed();
            db.flush_wal(SimTime::ZERO).unwrap();
            db.publish_view();
        }
        let iters = ops.len() as u64;
        Harness::report(&format!("keyspace/set_queued_{label}"), set_time, iters);

        let reader = db.read_view().register().expect("a fresh view has slots");
        let t0 = Instant::now();
        let hits = ops.iter().filter(|k| reader.get(k).is_some()).count();
        Harness::report(&format!("keyspace/get_hit_{label}"), t0.elapsed(), iters);
        assert_eq!(hits, ops.len());
    }
}

fn bench_zipf(h: &Harness) {
    let z = Zipfian::new(9_000_000);
    let mut rng = Xoshiro256::new(7);
    h.bench("workload/zipf_sample_9m", 4_000_000, |_| {
        std::hint::black_box(z.sample_scrambled(&mut rng));
    });
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let h = Harness {
        scale: if quick { 10 } else { 100 },
    };
    println!(
        "micro benches ({} mode)",
        if quick { "quick" } else { "full" }
    );
    bench_sched(&h);
    bench_spsc(&h);
    bench_uring(&h);
    bench_ftl(&h);
    bench_device(&h);
    bench_compress(&h);
    bench_codecs(&h);
    bench_metrics(&h);
    bench_group_commit(&h);
    bench_restart(&h);
    bench_keyspace(&h);
    bench_zipf(&h);
}
