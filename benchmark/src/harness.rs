//! Driving an in-process server through one workload: set-up, measured
//! windows, the idle reading, kill and restart, and the correctness gate.
//!
//! A *cell* is one server lifetime on one store: a set-up (timed, for
//! `setup_s`) and one measured window. The untraced run of a workload is
//! `fresh_windows` cells; the last one then goes through fixed log →
//! idle → kill → restart → verify. The traced run reuses the same pieces
//! with client spans and the `/metrics` listener switched on, and adds
//! comparison cells.

use std::io;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use slimio_imdb::crc::Crc32;
use slimio_server::{BackendKind, Server, ServerHandle, ServerOpts, Store, StoreConfig};

use crate::client::{Conn, Failures, OwnedReply, Schedule, Shared, Traffic, Worker};
use crate::gen::{self, Stamp, KEY_LEN};
use crate::procfs;
use crate::prom::{self, Scrape};
use crate::stats::{self, Latencies, SlicedLatencies};
use crate::trace::Tracer;
use crate::workload::{Pacing, Workload, CONNS};

/// Device scale of every store (1/64 of the paper's 180 GiB geometry).
pub const RATIO: f64 = 1.0 / 64.0;
/// Commands per burst while preloading and reading back.
const BULK_PIPELINE: usize = 64;
/// Width of the throughput/CPU sampling slices inside a window.
const SLICE: Duration = Duration::from_millis(500);
/// How often the window's sampling thread polls `INFO` for finished
/// snapshots.
const SNAPSHOT_POLL: Duration = Duration::from_millis(50);

/// What varies between cells of one workload.
#[derive(Clone, Copy, Debug)]
pub struct CellCfg {
    pub kind: BackendKind,
    pub shards: usize,
    /// Record client spans and start the `/metrics` listener.
    pub trace: bool,
}

impl CellCfg {
    pub const UNTRACED: CellCfg = CellCfg {
        kind: BackendKind::Passthru,
        shards: 1,
        trace: false,
    };
}

/// Run-wide parameters.
#[derive(Clone, Copy, Debug)]
pub struct RunParams {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    /// Time origin of every span.
    pub origin: Instant,
}

/// What `--smoke` cuts short; everything else runs exactly as of record.
impl RunParams {
    /// Length of the idle-CPU reading.
    fn idle(&self) -> Duration {
        Duration::from_millis(if self.smoke { 100 } else { 2_000 })
    }

    /// Restarts timed; `recovery_s` is their median.
    fn recoveries(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }
}

fn server_opts(w: &Workload, cfg: CellCfg) -> ServerOpts {
    ServerOpts {
        policy: w.policy(),
        wal_snapshot_threshold: w.wal_snapshot_threshold,
        metrics_addr: cfg.trace.then(|| "127.0.0.1:0".to_string()),
        ..ServerOpts::default()
    }
}

fn other(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// A running server with its generator connections.
pub struct Live {
    handle: Option<ServerHandle>,
    opts: ServerOpts,
    pub workers: Vec<Worker>,
    ctl: Conn,
    pub setup_s: f64,
}

/// Runs `f` on every worker in its own thread and joins them all.
fn on_workers<F>(workers: &mut [Worker], f: F) -> io::Result<()>
where
    F: Fn(&mut Worker) -> io::Result<()> + Sync,
{
    std::thread::scope(|s| {
        let handles: Vec<_> = workers.iter_mut().map(|w| s.spawn(|| f(w))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect::<io::Result<Vec<()>>>()
    })
    .map(|_| ())
}

impl Live {
    /// Store, server start, connections, preload and warm-up — everything
    /// before the first measured request, timed as one set-up.
    pub fn setup(w: &Workload, cfg: CellCfg, p: &RunParams) -> io::Result<Live> {
        let t0 = Instant::now();
        let store = Store::new(StoreConfig {
            kind: cfg.kind,
            fdp: cfg.kind == BackendKind::Passthru,
            ratio: RATIO,
            shards: cfg.shards,
        });
        let opts = server_opts(w, cfg);
        let handle = Server::start(store, opts.clone()).map_err(other)?;
        let addr = handle.addr();
        let traffic = Traffic {
            seed: p.seed,
            conns: CONNS,
            keys: w.keys,
            value_len: w.value_len,
            dist: w.dist,
            get_pct: w.get_pct,
            pipeline: w.pipeline,
            preloaded: w.preload,
        };
        // Room for every SET the windows can issue, so the model's log
        // never reallocates (a multi-MiB memcpy) inside a measured window.
        let per_s = match w.pacing {
            Pacing::Closed => 150_000.0 * f64::from(100 - w.get_pct.min(100)) / 100.0,
            Pacing::Open { rate } => rate / CONNS as f64,
        };
        let expected_sets = (w.keys / CONNS as u64 + w.warmup_ops + w.footprint_ops) as usize
            + (per_s * (p.seconds + 1.0)) as usize;
        let mut workers = (0..CONNS)
            .map(|id| Worker::connect(addr, id, traffic, expected_sets))
            .collect::<io::Result<Vec<_>>>()?;
        if cfg.trace {
            for wk in &mut workers {
                wk.tracer = Some(Tracer::new(p.origin, wk.id));
            }
        }
        let ctl = Conn::connect(addr)?;
        if w.preload {
            on_workers(&mut workers, |wk| wk.preload(BULK_PIPELINE))?;
        }
        on_workers(&mut workers, |wk| wk.run_count(w.warmup_ops))?;
        Ok(Live {
            handle: Some(handle),
            opts,
            workers,
            ctl,
            setup_s: t0.elapsed().as_secs_f64(),
        })
    }

    fn handle(&self) -> &ServerHandle {
        self.handle.as_ref().expect("server is running")
    }

    pub fn scrape(&self) -> io::Result<Scrape> {
        let addr = self
            .handle()
            .metrics_addr()
            .ok_or_else(|| other("cell was started without a metrics listener"))?;
        prom::scrape(addr)
    }

    /// Adds this cell's operation and failure counts to the run's totals.
    pub fn tally(&self, attempted: &mut u64, fails: &mut Failures) {
        for wk in &self.workers {
            *attempted += wk.attempted;
            fails.add(&wk.fails);
        }
    }

    /// Stops the server without ceremony and drops the store.
    pub fn discard(mut self) {
        if let Some(h) = self.handle.take() {
            drop(h.kill());
        }
    }

    /// One measured window of `dur`.
    pub fn window(&mut self, w: &Workload, dur: Duration) -> io::Result<WindowStats> {
        let expected = match w.pacing {
            Pacing::Closed => (dur.as_secs_f64() * 40_000.0) as usize,
            Pacing::Open { rate } => (dur.as_secs_f64() * rate) as usize / CONNS + 16,
        };
        let shared = Shared::default();
        let ctl = &mut self.ctl;
        let workers = &mut self.workers;
        let mut out = WindowStats::default();
        let mut result = Ok(());
        std::thread::scope(|s| {
            let t_start = Instant::now();
            let cpu0 = procfs::process_cpu_ns();
            let shared = &shared;
            let handles: Vec<_> = workers
                .iter_mut()
                .map(|wk| {
                    wk.begin_window(t_start, dur, expected);
                    s.spawn(move || match w.pacing {
                        Pacing::Closed => wk.run_closed(shared),
                        Pacing::Open { rate } => {
                            let sched = Schedule::even(rate, CONNS, wk.id, dur);
                            wk.run_open(t_start, &sched, shared)
                        }
                    })
                })
                .collect();

            // This thread samples: throughput and CPU per slice, and
            // finished snapshots via INFO; it also sends the BGSAVEs.
            let (mut slice_t, mut slice_ops, mut slice_cpu) = (t_start, 0u64, cpu0);
            let mut next_slice = t_start + SLICE;
            let mut snapshots = SnapshotMonitor::default();
            let mut next_tick = t_start + SNAPSHOT_POLL;
            let t_end = t_start + dur;
            loop {
                let now = Instant::now();
                if now >= t_end {
                    break;
                }
                std::thread::sleep(next_tick.min(t_end) - now);
                next_tick += SNAPSHOT_POLL;
                let now = Instant::now();
                // BGSAVE k of n is due at k / (n + 1) of the window.
                let elapsed = now.duration_since(t_start).as_secs_f64() / dur.as_secs_f64();
                let due = (elapsed * f64::from(w.bgsaves + 1)) as u32;
                if let Err(e) = snapshots.poll(ctl, due.min(w.bgsaves)) {
                    result = Err(e);
                    break;
                }
                if now >= next_slice && now < t_end {
                    let (ops, cpu) = (shared.ops.load(Ordering::Relaxed), procfs::process_cpu_ns());
                    out.slices.push(Slice {
                        secs: now.duration_since(slice_t).as_secs_f64(),
                        ops: ops - slice_ops,
                        cpu_ns: cpu - slice_cpu,
                    });
                    (slice_t, slice_ops, slice_cpu) = (now, ops, cpu);
                    next_slice += SLICE;
                }
            }
            // Close the window: read the counters at the instant the stop
            // flag rises, while every generator thread is still alive.
            let t_stop = Instant::now();
            out.snapshot_ms = snapshots.durations_ms;
            out.ops = shared.ops.load(Ordering::Relaxed);
            out.cpu_ns = procfs::process_cpu_ns() - cpu0;
            out.secs = t_stop.duration_since(t_start).as_secs_f64();
            shared.stop.store(true, Ordering::Relaxed);
            for h in handles {
                if let Err(e) = h.join().expect("generator thread panicked") {
                    result = Err(e);
                }
            }
        });
        result?;
        Ok(out)
    }

    /// Waits until no snapshot is in flight (a WAL-snapshot may outlive
    /// the window) so the idle reading and the kill see a settled server.
    pub fn quiesce(&mut self) -> io::Result<()> {
        let deadline = Instant::now() + Duration::from_secs(60);
        while self.ctl.info()?.u64("snapshot_in_progress") != Some(0) {
            if Instant::now() > deadline {
                return Err(other("snapshot still in progress after 60 s"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(())
    }

    /// Starts a snapshot with `cmd` on the settled server and waits for it.
    fn snapshot_now(&mut self, cmd: &[u8]) -> io::Result<()> {
        self.quiesce()?;
        match self.ctl.command(&[cmd])? {
            OwnedReply::Simple(_) => self.quiesce(),
            other_reply => Err(other(format!(
                "{} answered {other_reply:?}",
                String::from_utf8_lossy(cmd)
            ))),
        }
    }

    /// The serving footprint: `VmHWM` after a fixed amount of the
    /// workload's own traffic and one snapshot, on the process's first
    /// store. Memory follows the work done (the in-memory device keeps
    /// every page it was given) and a window of fixed length does an
    /// amount of work that follows the machine, so the windows' peak
    /// spreads as their throughput does; and stores that come and go leave
    /// the allocator's arenas in a different state every run. The reading
    /// is therefore taken before the first window, after work that is the
    /// same in every run.
    pub fn footprint(&mut self, w: &Workload) -> io::Result<f64> {
        on_workers(&mut self.workers, |wk| wk.run_count(w.footprint_ops))?;
        self.snapshot_now(b"BGSAVE")?;
        Ok(procfs::peak_rss_mb())
    }

    /// Puts the log into a known state before the kill, so recovery reads
    /// the same amount however fast the window ran and wherever in the
    /// WAL-snapshot cycle it ended. A workload whose WAL-snapshots fire
    /// cuts one now and writes a fixed tail behind it (half the
    /// threshold, so none is triggered); one with `wal_records_at_kill`
    /// tops its WAL up to that many SETs on this store (a window that
    /// outran the target leaves a longer log).
    pub fn fix_log(&mut self, w: &Workload) -> io::Result<()> {
        self.quiesce()?;
        if w.wal_snapshots_fire() {
            self.snapshot_now(b"BGREWRITEAOF")?;
            let record = (w.value_len + KEY_LEN + 21) as u64;
            let per_conn = w.wal_snapshot_threshold / 2 / record / CONNS as u64;
            on_workers(&mut self.workers, |wk| wk.run_count(per_conn))?;
        }
        if let Some(records) = w.wal_records_at_kill {
            let issued: u64 = self.workers.iter().map(|wk| wk.model.issued() as u64).sum();
            let per_conn = records.saturating_sub(issued) / CONNS as u64;
            on_workers(&mut self.workers, |wk| wk.run_count(per_conn))?;
        }
        Ok(())
    }

    /// Process CPU over wall time with every connection open and nothing
    /// in flight.
    pub fn idle_cores(&self, dur: Duration) -> f64 {
        let (t0, c0) = (Instant::now(), procfs::live_threads_cpu_ns());
        std::thread::sleep(dur);
        let cpu = procfs::live_threads_cpu_ns().saturating_sub(c0);
        cpu as f64 / t0.elapsed().as_nanos() as f64
    }

    /// `kill()` then restart on the same store; returns seconds from
    /// `kill()` returning to `Server::start` returning. Generators are
    /// reconnected afterwards.
    pub fn kill_restart(&mut self) -> io::Result<f64> {
        let store = self.handle.take().expect("server is running").kill();
        let t0 = Instant::now();
        let handle = Server::start(store, self.opts.clone()).map_err(other)?;
        let secs = t0.elapsed().as_secs_f64();
        let addr = handle.addr();
        self.handle = Some(handle);
        self.ctl = Conn::connect(addr)?;
        for wk in &mut self.workers {
            wk.reconnect(addr)?;
        }
        Ok(secs)
    }

    /// Recovery time: the server is killed and restarted three times
    /// (every kill after the first finds the same durable state) and the
    /// median restart is reported. A restart here is mostly first-touch
    /// page faults, whose cost on a shared VM moves by tens of percent
    /// from one second to the next; one reading in three is often an
    /// outlier.
    pub fn timed_recovery(&mut self, p: &RunParams) -> io::Result<f64> {
        let restarts = (0..p.recoveries())
            .map(|_| self.kill_restart())
            .collect::<io::Result<Vec<f64>>>()?;
        Ok(stats::median(&restarts))
    }

    /// The restart half of the correctness gate: reads every key back
    /// and holds the recovered state against the generators' models.
    pub fn verify(&mut self, w: &Workload, p: &RunParams) -> io::Result<Verified> {
        let mut v = Verified::default();
        let mut found = Vec::with_capacity(self.workers.len());
        for wk in &mut self.workers {
            found.push(wk.read_back(BULK_PIPELINE)?);
            v.read_back += wk.model.slots() as u64;
        }
        for (wk, found) in self.workers.iter().zip(&found) {
            // The recovered state must be a prefix of this connection's
            // SETs: exactly what its first `cut` SETs leave behind, where
            // `cut` is the newest sequence number that survived.
            let cut = found.iter().copied().max().unwrap_or(0);
            let expect = wk.model.state_at(cut.min(wk.model.issued()));
            v.fails.wrong_replies +=
                found.iter().zip(&expect).filter(|(f, e)| f != e).count() as u64;
            // Durability: under Always an acknowledged SET's value must be
            // readable. Under everysec the tail may be lost by design;
            // that loss is reported, not failed.
            let lost = (0..found.len())
                .filter(|&slot| found[slot] < wk.model.acked_seq(slot as u32))
                .count() as u64;
            if w.always_log {
                v.fails.lost_acked += lost;
            } else {
                v.lost_unsynced += lost;
            }
        }
        let live_keys: u64 = found.iter().flatten().filter(|&&s| s != 0).count() as u64;
        let recovered = self.handle().recovered_keys();
        let dbsize = self.ctl.command(&[b"DBSIZE"])?;
        if recovered != live_keys || dbsize != OwnedReply::Int(live_keys as i64) {
            eprintln!("verify: recovered_keys={recovered} DBSIZE={dbsize:?} but read-back found {live_keys}");
            v.fails.wrong_replies += 1;
        }
        // DEBUG DIGEST is a CRC-32 over the sorted keyspace; key ids in
        // ascending order are the keys in lexicographic order.
        let mut crc = Crc32::new();
        let (mut key, mut value) = ([0u8; KEY_LEN], vec![0u8; w.value_len]);
        for id in 0..w.keys {
            let (conn, slot) = ((id % CONNS as u64) as usize, (id / CONNS as u64) as usize);
            let seq = found[conn][slot];
            if seq == 0 {
                continue;
            }
            gen::write_key(&mut key, id);
            gen::fill_value(
                &mut value,
                p.seed,
                Stamp {
                    key_id: id,
                    seq,
                    conn: conn as u8,
                },
            );
            crc.update(&(KEY_LEN as u32).to_le_bytes());
            crc.update(&key);
            crc.update(&(value.len() as u32).to_le_bytes());
            crc.update(&value);
        }
        let want = format!("{:08x}", crc.finish());
        let digest = self.ctl.command(&[b"DEBUG", b"DIGEST"])?;
        if digest != OwnedReply::Bulk(want.clone().into_bytes()) {
            eprintln!("verify: DEBUG DIGEST {digest:?}, model says {want}");
            v.fails.wrong_replies += 1;
        }
        Ok(v)
    }

    /// Bytes of key + value in the SETs acknowledged on this cell.
    pub fn acked_user_bytes(&self) -> u64 {
        self.workers.iter().map(|wk| wk.acked_user_bytes).sum()
    }

    /// Clean shutdown; returns the device's final write amplification
    /// and telemetry.
    pub fn finish(mut self) -> slimio_nvme::DeviceTelemetry {
        let store = self.handle.take().expect("server is running").shutdown();
        let dev = store.device().lock().expect("device mutex poisoned");
        dev.telemetry()
    }
}

/// The in-window snapshot monitor: sends the window's `BGSAVE`s and
/// collects the duration of every snapshot that finishes.
#[derive(Default)]
struct SnapshotMonitor {
    bgsaves_sent: u32,
    /// Snapshots finished as of the previous poll.
    seen: Option<u64>,
    durations_ms: Vec<f64>,
}

impl SnapshotMonitor {
    /// One `INFO` poll. Sends a `BGSAVE` while fewer than `due` were
    /// accepted (the server refuses one while another snapshot holds the
    /// single snapshot slot; the next poll retries) and records a newly
    /// finished snapshot's duration as the server timed it.
    fn poll(&mut self, ctl: &mut Conn, due: u32) -> io::Result<()> {
        if self.bgsaves_sent < due && matches!(ctl.command(&[b"BGSAVE"])?, OwnedReply::Simple(_)) {
            self.bgsaves_sent += 1;
        }
        let info = ctl.info()?;
        let done = info.u64("wal_snapshots").unwrap_or(0) + info.u64("od_snapshots").unwrap_or(0);
        if self.seen.is_some_and(|s| done > s) {
            if let Some(ms) = info.u64("last_snapshot_ms") {
                self.durations_ms.push(ms as f64);
            }
        }
        self.seen = Some(done);
        Ok(())
    }
}

/// Throughput and CPU over one sampling slice of a window.
#[derive(Clone, Copy, Debug)]
pub struct Slice {
    pub secs: f64,
    pub ops: u64,
    pub cpu_ns: u64,
}

/// What the sampling thread saw of one window.
#[derive(Clone, Debug, Default)]
pub struct WindowStats {
    pub secs: f64,
    pub ops: u64,
    pub cpu_ns: u64,
    pub slices: Vec<Slice>,
    /// Durations of the snapshots that finished inside the window.
    pub snapshot_ms: Vec<f64>,
}

impl WindowStats {
    pub fn add(&mut self, o: &WindowStats) {
        self.secs += o.secs;
        self.ops += o.ops;
        self.cpu_ns += o.cpu_ns;
        self.slices.extend_from_slice(&o.slices);
        self.snapshot_ms.extend_from_slice(&o.snapshot_ms);
    }

    pub fn rps(&self) -> f64 {
        self.ops as f64 / self.secs
    }

    pub fn cpu_us_per_op(&self) -> f64 {
        self.cpu_ns as f64 / 1000.0 / self.ops.max(1) as f64
    }
}

/// Outcome of the post-restart check.
#[derive(Clone, Copy, Debug, Default)]
pub struct Verified {
    pub fails: Failures,
    /// Keys read back.
    pub read_back: u64,
    /// Acknowledged-but-unsynced writes lost under everysec (allowed).
    pub lost_unsynced: u64,
}

/// Latency samples of every worker, merged sub-window by sub-window,
/// and their schedule lags pooled.
pub fn merged_latencies(workers: &[Worker]) -> (SlicedLatencies, Latencies) {
    let (mut lat, mut lag) = (SlicedLatencies::default(), Latencies::default());
    for wk in workers {
        lat.merge(&wk.lat);
        lag.merge(&wk.lag);
    }
    (lat, lag)
}

/// Everything the untraced run of one workload measured.
pub struct Untraced {
    pub setups_s: Vec<f64>,
    pub window: WindowStats,
    pub lat: SlicedLatencies,
    pub lag: Latencies,
    pub late_sends: u64,
    pub idle_cores: f64,
    pub recovery_s: f64,
    pub waf: f64,
    /// `VmHWM` after the fixed-work phase on the first store
    /// ([`Live::footprint`]): the serving footprint.
    pub peak_rss_mb: f64,
    /// `VmHWM` when the last window and the idle reading are over; it
    /// follows the windows' throughput.
    pub peak_rss_after_windows_mb: f64,
    /// `VmHWM` after the restart: what recovery adds on top.
    pub peak_rss_after_recovery_mb: f64,
    pub attempted: u64,
    pub fails: Failures,
    pub verified: Verified,
}

/// The untraced run: the numbers of record.
pub fn run_untraced(w: &Workload, p: &RunParams) -> io::Result<Untraced> {
    let per_window = Duration::from_secs_f64(p.seconds / w.fresh_windows as f64);
    let mut setups_s = Vec::new();
    let mut window = WindowStats::default();
    let (mut lat, mut lag) = (SlicedLatencies::default(), Latencies::default());
    let (mut late_sends, mut attempted, mut fails) = (0, 0, Failures::default());
    let (mut last, mut peak_rss_mb) = (None, 0.0);
    for i in 0..w.fresh_windows {
        let mut live = Live::setup(w, CellCfg::UNTRACED, p)?;
        setups_s.push(live.setup_s);
        if i == 0 {
            peak_rss_mb = live.footprint(w)?;
        }
        window.add(&live.window(w, per_window)?);
        let (l, g) = merged_latencies(&live.workers);
        lat.append(l);
        lag.merge(&g);
        late_sends += live.workers.iter().map(|wk| wk.late_sends).sum::<u64>();
        if i + 1 < w.fresh_windows {
            live.tally(&mut attempted, &mut fails);
            live.discard();
        } else {
            last = Some(live);
        }
    }
    let mut live = last.expect("at least one window");
    // A smoke window is too short to promise a finished snapshot.
    if window.snapshot_ms.is_empty() && !p.smoke {
        return Err(other("no snapshot finished inside a window"));
    }

    live.fix_log(w)?;
    let idle_cores = live.idle_cores(p.idle());
    let peak_rss_after_windows_mb = procfs::peak_rss_mb();
    let recovery_s = live.timed_recovery(p)?;
    // Read before verification: read-back buffers are the benchmark's
    // memory, not the server's.
    let peak_rss_after_recovery_mb = procfs::peak_rss_mb();
    let verified = live.verify(w, p)?;
    live.tally(&mut attempted, &mut fails);
    attempted += verified.read_back;
    fails.add(&verified.fails);
    let telemetry = live.finish();
    // The FDP promise: NAND pages programmed == host pages written.
    if telemetry.waf > 1.005 {
        eprintln!("gate: waf {} exceeds 1.005 on an FDP device", telemetry.waf);
        fails.wrong_replies += 1;
    }
    Ok(Untraced {
        setups_s,
        window,
        lat,
        lag,
        late_sends,
        idle_cores,
        recovery_s,
        waf: telemetry.waf,
        peak_rss_mb,
        peak_rss_after_windows_mb,
        peak_rss_after_recovery_mb,
        attempted,
        fails,
        verified,
    })
}
