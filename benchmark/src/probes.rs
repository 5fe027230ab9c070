//! One probe per layer: direct, timed calls into each layer's public
//! functions, fed the workload's own generated keys and values so probe
//! inputs and server inputs come from the same distribution.
//!
//! Probes run single-threaded with no server running. Each records a
//! root span per layer and a child span per timed phase. Layers nest
//! (engine → backend → ring → device → FTL) and a call from outside sees
//! only the outermost, so each inner layer is also probed alone on the
//! same input and the self times are estimated by subtraction.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use slimio_des::SimTime;
use slimio_ftl::{Ftl, FtlConfig, PlacementMode};
use slimio_imdb::backend::{PersistBackend, SnapshotKind};
use slimio_imdb::{compress, rdb, wal, Db, DbConfig, ReadView, SnapshotJob};
use slimio_nvme::{DeviceConfig, NvmeDevice, LBA_BYTES};
use slimio_server::resp::{self, Parser};
use slimio_server::{BackendKind, Store, StoreConfig};
use slimio_uring::{IoUring, RingMode, SharedClock, Sqe, SqeOp};

use crate::gen::{self, Op, OpStream, Stamp, KEY_LEN};
use crate::harness::RATIO;
use crate::procfs;
use crate::trace::ProbeSpans;
use crate::workload::{Workload, CONNS};

/// Operations sampled from the workload's stream per probe.
const OPS: usize = 16_384;
/// `--smoke` divides every probe's iteration count by this.
const SMOKE_DIVISOR: usize = 8;
/// Records per commit batch — the pipeline depth of the closed loops.
const BATCH: usize = 16;
/// Entries the snapshot and view probes load at most (bounds probe time
/// on the 200 000-key workload; the distribution of sizes is unchanged).
const MAX_ENTRIES: u64 = 50_000;
const SNAPSHOT_CHUNK: usize = 256 << 10;

type Entry = (Arc<[u8]>, Arc<[u8]>);

/// Probe inputs generated from the workload and seed.
struct Inputs {
    /// `(key, value, is_get)` in stream order.
    ops: Vec<([u8; KEY_LEN], Vec<u8>, bool)>,
    /// The keyspace (first version of every key), capped.
    entries: Vec<Entry>,
    /// Keys that are never written.
    absent: Vec<[u8; KEY_LEN]>,
}

impl Inputs {
    fn generate(w: &Workload, seed: u64, scale: usize) -> Inputs {
        let mut stream = OpStream::new(seed, 0, CONNS, w.keys, w.dist, w.get_pct);
        let mut key = [0u8; KEY_LEN];
        let mut ops = Vec::with_capacity(OPS / scale);
        for seq in 1..=(OPS / scale) as u32 {
            let (key_id, is_get) = match stream.next_op() {
                Op::Get { key_id } => (key_id, true),
                Op::Set { key_id, .. } => (key_id, false),
            };
            gen::write_key(&mut key, key_id);
            let mut value = vec![0u8; w.value_len];
            gen::fill_value(
                &mut value,
                seed,
                Stamp {
                    key_id,
                    seq,
                    conn: 0,
                },
            );
            ops.push((key, value, is_get));
        }
        let n = w.keys.min(MAX_ENTRIES);
        let mut value = vec![0u8; w.value_len];
        let entries = (0..n)
            .map(|id| {
                gen::write_key(&mut key, id);
                let stamp = Stamp {
                    key_id: id,
                    seq: 1,
                    conn: (id % CONNS as u64) as u8,
                };
                gen::fill_value(&mut value, seed, stamp);
                (Arc::from(&key[..]), Arc::from(&value[..]))
            })
            .collect();
        let absent = (0..1024)
            .map(|i| {
                gen::write_key(&mut key, w.keys + i);
                key
            })
            .collect();
        Inputs {
            ops,
            entries,
            absent,
        }
    }
}

/// Collected probe results plus the spans that produced them.
pub struct Probed {
    pub metrics: BTreeMap<&'static str, f64>,
    pub spans: ProbeSpans,
}

struct Ctx {
    /// Divisor of the fixed iteration counts (1, or 8 under `--smoke`).
    scale: u64,
    out: BTreeMap<&'static str, f64>,
    spans: ProbeSpans,
    layer: Option<u64>,
    layer_name: &'static str,
}

impl Ctx {
    /// Opens a layer; phases timed until the next `layer` call nest
    /// under it.
    fn layer(&mut self, name: &'static str) {
        self.close_layer();
        self.layer_name = name;
        // Record the root now (ended later) so children can name it.
        let now = Instant::now();
        self.layer = Some(self.spans.record(name, now, now, None));
    }

    fn close_layer(&mut self) {
        if let Some(id) = self.layer.take() {
            let end = Instant::now().saturating_duration_since(self.spans.origin());
            if let Some(root) = self.spans.spans.iter_mut().find(|s| s.id == id) {
                root.end_ns = end.as_nanos() as u64;
            }
        }
    }

    /// Times `f` as one phase of the current layer; returns the seconds
    /// it took.
    fn phase<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.spans
            .record(&format!("{}.{name}", self.layer_name), t0, t1, self.layer);
        (out, (t1 - t0).as_secs_f64())
    }

    fn put(&mut self, name: &'static str, value: f64) {
        self.out.insert(name, value);
    }
}

fn passthru_store() -> Store {
    Store::new(StoreConfig {
        kind: BackendKind::Passthru,
        fdp: true,
        ratio: RATIO,
        shards: 1,
    })
}

fn private_device() -> NvmeDevice {
    NvmeDevice::new(DeviceConfig::live(true, RATIO))
}

/// Runs every layer probe on inputs generated for `w`.
pub fn run(w: &Workload, seed: u64, origin: Instant, smoke: bool) -> Probed {
    let scale = if smoke { SMOKE_DIVISOR } else { 1 };
    let inputs = Inputs::generate(w, seed, scale);
    let mut c = Ctx {
        scale: scale as u64,
        out: BTreeMap::new(),
        spans: ProbeSpans::new(origin),
        layer: None,
        layer_name: "",
    };
    probe_resp(&mut c, &inputs);
    probe_view(&mut c, &inputs);
    probe_wal(&mut c, &inputs);
    probe_snapshot(&mut c, &inputs);
    probe_engine(&mut c, &inputs);
    let pages_per_batch = probe_backend(&mut c, &inputs);
    probe_uring(&mut c);
    probe_nvme(&mut c);
    probe_ftl(&mut c);
    c.close_layer();
    self_times(&mut c, pages_per_batch);
    Probed {
        metrics: c.out,
        spans: c.spans,
    }
}

/// `Parser::next_command_frame` over the workload's request bytes and
/// the reply encoders over the workload's replies.
fn probe_resp(c: &mut Ctx, inp: &Inputs) {
    c.layer("probe.resp");
    let mut wire = Vec::new();
    for (key, value, is_get) in &inp.ops {
        if *is_get {
            resp::encode_command_slices(&[b"GET", key], &mut wire);
        } else {
            resp::encode_command_slices(&[b"SET", key, value], &mut wire);
        }
    }
    let mut parser = Parser::new();
    let (parsed, secs) = c.phase("parse", || {
        let mut n = 0usize;
        // 16 KiB at a time, as the connection thread's reads deliver it.
        for chunk in wire.chunks(16 << 10) {
            parser.feed(chunk);
            while let Some(frame) = parser.next_command_frame().expect("own encoding parses") {
                black_box(frame.arg(frame.arg_count() - 1));
                n += 1;
            }
        }
        n
    });
    assert_eq!(parsed, inp.ops.len(), "parser dropped commands");
    c.put("resp.parse_ns_per_cmd", secs * 1e9 / parsed as f64);

    let mut out = Vec::with_capacity(BATCH * 600);
    let (_, secs) = c.phase("encode", || {
        for batch in inp.ops.chunks(BATCH) {
            out.clear();
            for (_, value, is_get) in batch {
                if *is_get {
                    resp::encode_bulk(value, &mut out);
                } else {
                    resp::encode_simple("OK", &mut out);
                }
            }
            black_box(&out);
        }
    });
    c.put(
        "resp.encode_ns_per_reply",
        secs * 1e9 / inp.ops.len() as f64,
    );
}

/// The lock-free read view: hits, misses, and the writer's set+publish.
fn probe_view(c: &mut Ctx, inp: &Inputs) {
    c.layer("probe.view");
    let (mut writer, view) = ReadView::new();
    for (k, v) in &inp.entries {
        writer.set(k, v);
    }
    writer.publish(1);
    let reader = view.register().expect("a fresh view has reader slots");
    // Keys of the sampled stream that the capped keyspace holds.
    let present: Vec<&[u8; KEY_LEN]> = inp
        .ops
        .iter()
        .map(|(k, _, _)| k)
        .filter(|k| reader.get(&k[..]).is_some())
        .collect();
    const ROUNDS: usize = 8;
    let (hits, secs) = c.phase("get_hit", || {
        let mut hits = 0usize;
        for _ in 0..ROUNDS {
            for k in &present {
                hits += usize::from(black_box(reader.get(&k[..])).is_some());
            }
        }
        hits
    });
    assert_eq!(hits, present.len() * ROUNDS);
    c.put("view.get_hit_ns", secs * 1e9 / hits.max(1) as f64);
    let (_, secs) = c.phase("get_miss", || {
        for _ in 0..ROUNDS * 8 {
            for k in &inp.absent {
                assert!(black_box(reader.get(&k[..])).is_none());
            }
        }
    });
    c.put(
        "view.get_miss_ns",
        secs * 1e9 / (inp.absent.len() * ROUNDS * 8) as f64,
    );

    let updates: Vec<Entry> = inp
        .ops
        .iter()
        .map(|(k, v, _)| (Arc::from(&k[..]), Arc::from(&v[..])))
        .collect();
    let (_, secs) = c.phase("set_publish", || {
        for (i, batch) in updates.chunks(BATCH).enumerate() {
            for (k, v) in batch {
                writer.set(k, v);
            }
            writer.publish(2 + i as u64);
        }
    });
    c.put("view.publish_ns_per_op", secs * 1e9 / updates.len() as f64);
}

/// WAL record encode and replay.
fn probe_wal(c: &mut Ctx, inp: &Inputs) {
    c.layer("probe.wal");
    let mut buf = Vec::with_capacity(BATCH * 700);
    let (_, secs) = c.phase("encode", || {
        for (i, batch) in inp.ops.chunks(BATCH).enumerate() {
            buf.clear();
            for (j, (k, v, _)) in batch.iter().enumerate() {
                wal::encode_set((i * BATCH + j) as u64 + 1, k, v, &mut buf);
            }
            black_box(&buf);
        }
    });
    c.put("wal.encode_ns_per_rec", secs * 1e9 / inp.ops.len() as f64);

    let mut log = Vec::new();
    for (i, (k, v, _)) in inp.ops.iter().enumerate() {
        wal::encode_set(i as u64 + 1, k, v, &mut log);
    }
    let (records, secs) = c.phase("replay", || wal::replay(&log).len());
    assert_eq!(records, inp.ops.len(), "replay stopped early");
    c.put("wal.replay_ns_per_rec", secs * 1e9 / records as f64);
}

/// Snapshot freeze/serialize, the RDB reader and the compressor.
fn probe_snapshot(c: &mut Ctx, inp: &Inputs) {
    c.layer("probe.snapshot");
    let (mut job, secs) = c.phase("freeze", || {
        SnapshotJob::freeze(
            SnapshotKind::OnDemand,
            inp.entries.iter().map(|(k, v)| (k, v)),
            SNAPSHOT_CHUNK,
        )
    });
    c.put("snapshot.freeze_ms", secs * 1e3);
    let mut stream = Vec::new();
    let (_, secs) = c.phase("step", || loop {
        let stats = job
            .step_each(512, &mut |chunk: &[u8]| {
                stream.extend_from_slice(chunk);
                Ok::<(), std::convert::Infallible>(())
            })
            .expect("infallible sink");
        if stats.finished {
            break;
        }
    });
    c.put(
        "snapshot.step_ns_per_entry",
        secs * 1e9 / inp.entries.len() as f64,
    );
    let (entries, secs) = c.phase("rdb_read", || {
        rdb::read_all(&stream).expect("own stream reads back")
    });
    assert_eq!(entries.len(), inp.entries.len());
    c.put("rdb.read_mb_per_s", stream.len() as f64 / 1e6 / secs);

    let mut raw = Vec::new();
    for (_, v) in &inp.entries {
        if raw.len() >= 4 << 20 {
            break;
        }
        raw.extend_from_slice(v);
    }
    let (packed, secs) = c.phase("compress", || compress::compress(&raw));
    black_box(packed);
    c.put("compress.mb_per_s", raw.len() as f64 / 1e6 / secs);
}

/// `Db<AnyBackend>` driven the way the writer thread drives it:
/// `set_queued` × 16, then one `batch_commit` (flush + sync).
fn probe_engine(c: &mut Ctx, inp: &Inputs) {
    c.layer("probe.engine");
    let mut store = passthru_store();
    let clock = store.clock();
    let backend = store.open().expect("fresh store opens");
    let mut db = Db::new(
        backend,
        DbConfig {
            policy: slimio_imdb::LogPolicy::Always,
            wal_snapshot_threshold: 1 << 30,
            ..DbConfig::default()
        },
    );
    let pass = |db: &mut Db<_>, timed: bool| {
        let (mut set_ns, mut commit_ns) = (0u128, 0u128);
        for batch in inp.ops.chunks(BATCH) {
            let t0 = Instant::now();
            for (k, v, _) in batch {
                black_box(db.set_queued(k, v));
            }
            let t1 = Instant::now();
            db.batch_commit(clock.now())
                .expect("commit on a healthy device");
            if timed {
                set_ns += (t1 - t0).as_nanos();
                commit_ns += t1.elapsed().as_nanos();
            }
        }
        (set_ns, commit_ns)
    };
    // First pass populates the keyspace and warms the path, untimed.
    pass(&mut db, false);
    let ((set_ns, commit_ns), _) = c.phase("set_queued_x16+batch_commit", || pass(&mut db, true));
    let batches = inp.ops.len().div_ceil(BATCH) as f64;
    c.put("engine.set_queued_ns", set_ns as f64 / inp.ops.len() as f64);
    c.put(
        "engine.batch_commit_us_b16",
        commit_ns as f64 / 1e3 / batches,
    );
    let (_, secs) = c.phase("get", || {
        for (k, _, _) in &inp.ops {
            black_box(db.get(k));
        }
    });
    c.put("engine.get_ns", secs * 1e9 / inp.ops.len() as f64);
    store.close(db.into_backend());
}

/// The passthru backend through the `PersistBackend` seam. Returns host
/// pages written per 16-record batch (the multiplier for the inner
/// layers' per-page costs).
fn probe_backend(c: &mut Ctx, inp: &Inputs) -> f64 {
    c.layer("probe.backend");
    let mut store = passthru_store();
    let clock = store.clock();
    let mut backend = store.open().expect("fresh store opens");
    let batches: Vec<Vec<u8>> = inp
        .ops
        .chunks(BATCH)
        .enumerate()
        .map(|(i, batch)| {
            let mut buf = Vec::new();
            for (j, (k, v, _)) in batch.iter().enumerate() {
                wal::encode_set((i * BATCH + j) as u64 + 1, k, v, &mut buf);
            }
            buf
        })
        .collect();
    let pages0 = backend.device_telemetry().host_pages;
    let ((append_ns, sync_ns), _) = c.phase("wal_append+wal_sync", || {
        let (mut append_ns, mut sync_ns) = (0u128, 0u128);
        for b in &batches {
            let t0 = Instant::now();
            backend.wal_append(b, clock.now()).expect("append");
            let t1 = Instant::now();
            backend.wal_sync(clock.now()).expect("sync");
            append_ns += (t1 - t0).as_nanos();
            sync_ns += t1.elapsed().as_nanos();
        }
        (append_ns, sync_ns)
    });
    let n = batches.len() as f64;
    let pages_per_batch = (backend.device_telemetry().host_pages - pages0) as f64 / n;
    c.put("backend.wal_append_us_b16", append_ns as f64 / 1e3 / n);
    c.put("backend.wal_sync_us", sync_ns as f64 / 1e3 / n);
    let wal_bytes: usize = batches.iter().map(Vec::len).sum();

    // A snapshot of SNAPSHOT_CHUNK-sized chunks cut from the keyspace's
    // own RDB stream.
    let stream = slimio_imdb::engine::serialize_entries(
        inp.entries.iter().map(|(k, v)| (k, v)),
        SNAPSHOT_CHUNK,
    );
    backend
        .snapshot_begin(SnapshotKind::OnDemand, clock.now())
        .expect("begin");
    let chunks: Vec<&[u8]> = stream.chunks(SNAPSHOT_CHUNK).collect();
    let (_, secs) = c.phase("snapshot_chunk", || {
        for chunk in &chunks {
            backend.snapshot_chunk(chunk, clock.now()).expect("chunk");
        }
    });
    c.put(
        "backend.snapshot_chunk_us",
        secs * 1e6 / chunks.len() as f64,
    );
    backend.snapshot_commit(clock.now()).expect("commit");

    // Crash, then the recovery entry points in the order a restart
    // calls them.
    store.crash(backend);
    let (mut backend, secs) = c.phase("recover_open", || store.open().expect("recover"));
    c.put("backend.recover_open_ms", secs * 1e3);
    let (snap, secs) = c.phase("load_snapshot", || {
        backend
            .load_snapshot(SnapshotKind::OnDemand, clock.now())
            .expect("load snapshot")
            .0
            .expect("the committed snapshot is found")
    });
    assert_eq!(
        snap.len(),
        stream.len(),
        "snapshot came back a different size"
    );
    c.put(
        "backend.load_snapshot_mb_per_s",
        snap.len() as f64 / 1e6 / secs,
    );
    let (log, secs) = c.phase("load_wal", || {
        backend.load_wal(clock.now()).expect("load wal").0
    });
    assert!(log.len() >= wal_bytes, "synced WAL bytes went missing");
    c.put("backend.load_wal_mb_per_s", log.len() as f64 / 1e6 / secs);
    store.close(backend);
    pages_per_batch
}

fn page_write(i: u64, page: &[u8]) -> Sqe {
    Sqe {
        user_data: i,
        op: SqeOp::Write {
            lba: i % 4096,
            blocks: 1,
            pid: 1,
            data: Some(page.into()),
        },
        submitted_at: SimTime::ZERO,
    }
}

/// One ring over a private device: submit one page write, reap its
/// completion; both ring modes. Then the cost of an idle SQPOLL ring.
fn probe_uring(c: &mut Ctx) {
    c.layer("probe.uring");
    let page = vec![0xa5u8; LBA_BYTES];
    let n = 20_000 / c.scale;
    for (mode, metric, phase) in [
        (
            RingMode::SqPoll,
            "uring.submit_reap_ns_sqpoll",
            "submit_reap_sqpoll",
        ),
        (
            RingMode::Enter,
            "uring.submit_reap_ns_enter",
            "submit_reap_enter",
        ),
    ] {
        let device = Arc::new(Mutex::new(private_device()));
        let mut ring = IoUring::new(device, SharedClock::new_wall(), 256, mode);
        let (_, secs) = c.phase(phase, || {
            for i in 0..n {
                ring.submit(page_write(i, &page)).expect("SQ has room");
                ring.enter();
                loop {
                    match ring.reap() {
                        Some(cqe) => {
                            assert!(cqe.is_ok(), "write failed: {cqe:?}");
                            break;
                        }
                        None => std::thread::yield_now(),
                    }
                }
            }
        });
        c.put(metric, secs * 1e9 / n as f64);
        if mode == RingMode::SqPoll {
            // The poller thread's cost with nothing to do.
            let (cores, _) = c.phase("idle_sqpoll", || {
                let (t0, c0) = (Instant::now(), procfs::live_threads_cpu_ns());
                std::thread::sleep(Duration::from_millis(300));
                let cpu = procfs::live_threads_cpu_ns().saturating_sub(c0);
                cpu as f64 / t0.elapsed().as_nanos() as f64
            });
            c.put("uring.idle_cores_per_ring", cores);
        }
    }
}

/// The emulated device called directly: one-page writes and reads with
/// payloads, as the live server issues them.
fn probe_nvme(c: &mut Ctx) {
    c.layer("probe.nvme");
    let mut dev = private_device();
    let page = vec![0x5au8; LBA_BYTES];
    let n = 50_000 / c.scale;
    let (_, secs) = c.phase("write", || {
        for i in 0..n {
            black_box(
                dev.write(i % 8192, 1, 1, Some(&page), SimTime::ZERO)
                    .expect("write"),
            );
        }
    });
    c.put("nvme.write_ns_per_page", secs * 1e9 / n as f64);
    let (_, secs) = c.phase("read", || {
        for i in 0..n {
            black_box(dev.read(i % 8192, 1, SimTime::ZERO).expect("read"));
        }
    });
    c.put("nvme.read_ns_per_page", secs * 1e9 / n as f64);
}

/// FTL page writes on the tiny geometry: a first fill (no GC) on FDP,
/// then random overwrites on a conventional device (GC running).
fn probe_ftl(c: &mut Ctx) {
    c.layer("probe.ftl");
    let fills = 40 / c.scale;
    let mut pages = 0u64;
    let (_, secs) = c.phase("write_nogc", || {
        for _ in 0..fills {
            let mut ftl = Ftl::new(FtlConfig::tiny(PlacementMode::Fdp { max_pids: 4 }));
            let cap = ftl.logical_pages();
            for lpn in 0..cap {
                ftl.write(lpn, 1).expect("fill");
            }
            pages += cap;
            assert_eq!(ftl.stats().gc_passes, 0, "a first fill must not collect");
        }
    });
    c.put("ftl.write_ns_per_page_nogc", secs * 1e9 / pages as f64);

    let mut ftl = Ftl::new(FtlConfig::tiny(PlacementMode::Conventional));
    let cap = ftl.logical_pages();
    for lpn in 0..cap {
        ftl.write(lpn, 0).expect("fill");
    }
    let mut rng = slimio_des::Xoshiro256::new(0x5eed);
    let churn = cap * 20 / c.scale;
    let (_, secs) = c.phase("write_gc", || {
        for _ in 0..churn {
            ftl.write(rng.gen_range(cap), 0).expect("overwrite");
        }
    });
    assert!(ftl.stats().gc_passes > 0, "churn must have collected");
    c.put("ftl.write_ns_per_page_gc", secs * 1e9 / churn as f64);
}

/// Self time per layer for one 16-record commit, by subtraction: each
/// layer's total on that input minus the total of the layer below it.
fn self_times(c: &mut Ctx, pages_per_batch: f64) {
    let m = |c: &Ctx, k: &str| c.out.get(k).copied().unwrap_or(f64::NAN);
    let engine =
        m(c, "engine.set_queued_ns") * BATCH as f64 / 1e3 + m(c, "engine.batch_commit_us_b16");
    let backend = m(c, "backend.wal_append_us_b16") + m(c, "backend.wal_sync_us");
    let ring = pages_per_batch * m(c, "uring.submit_reap_ns_enter") / 1e3;
    let nvme = pages_per_batch * m(c, "nvme.write_ns_per_page") / 1e3;
    let ftl = pages_per_batch * m(c, "ftl.write_ns_per_page_nogc") / 1e3;
    c.put("self.engine_us_b16", engine - backend);
    c.put("self.backend_us_b16", backend - ring);
    c.put("self.uring_us_b16", ring - nvme);
    c.put("self.nvme_us_b16", nvme - ftl);
    c.put("self.ftl_us_b16", ftl);
}
