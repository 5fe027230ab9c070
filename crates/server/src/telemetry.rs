//! Live-server telemetry: per-stage write-path histograms, sampled
//! device/governor/replication series, the Prometheus `/metrics`
//! listener, and the Redis-compatible `SLOWLOG` / `LATENCY` state.
//!
//! Everything here is live-path only. The DES experiment pipeline never
//! constructs a [`Telemetry`]. The [`Registry`] is the server's one stats
//! store: every count, level and latency the server owns is an `Arc`'d
//! handle into it, held by whoever updates it ([`crate::server::Shared`],
//! the governor, each shard's [`ShardMetrics`] slot), recorded with
//! relaxed atomics, and rendered twice — as `INFO` text and as
//! `/metrics`. Only state the server does *not* own as a plain number is
//! sampled into the registry at scrape time: device/FTL telemetry,
//! replication state and admission-gate depth (each lives under its own
//! mutex for functional reasons), each shard's snapshot-ring poller
//! counts (the ring's own atomics), and uptime.
//!
//! Stage taxonomy for one write, matching the writer's batch loop:
//!
//! * `admission` — connection thread parked at the shard gate;
//! * `queue`     — channel send until the owning writer starts the batch;
//! * `execute`   — engine mutation + WAL-record queueing (whole batch);
//! * `wal_append`— the group commit's WAL flush (whole batch);
//! * `device_sync` — the commit's device sync barrier, plus any injected
//!   wall-clock device stall (`slow@` faults) attributed here;
//! * `reply`     — backlog pump, view publish, and reply release.
//!
//! Batch-scoped stages record once per group-commit batch; `admission`
//! and `queue` record once per command.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use slimio_metrics::{AtomicHistogram, Counter, IntGauge, Registry};
use slimio_nvme::DeviceHandle;
use slimio_uring::SqPollStats;

use crate::govern::lock_ok;
use crate::repl::{ReplState, ReplicaPeer, Role};
use crate::server::Shared;

/// A stage (or spike source) at least this long is recorded as a
/// `LATENCY` event, mirroring Redis' default `latency-monitor-threshold`.
const LATENCY_EVENT_THRESHOLD_NS: u64 = 50 * 1_000_000;

/// Most entries the slowlog ring retains (Redis' `slowlog-max-len`).
const SLOWLOG_MAX_LEN: usize = 128;
/// Most argv entries one slowlog entry keeps.
const SLOWLOG_MAX_ARGS: usize = 32;
/// Longest argv payload one slowlog entry keeps per argument.
const SLOWLOG_MAX_ARG_BYTES: usize = 128;
/// Most samples `LATENCY HISTORY` retains per event (Redis keeps 160).
const LATENCY_MAX_SAMPLES: usize = 160;

#[inline]
pub(crate) fn dur_ns(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

fn unix_secs() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// One shard writer's slot in the registry: the stage recorders its
/// batch loop touches plus the engine levels it publishes once per batch
/// (and again right before it renders `INFO`/`DBSIZE`), so shard 0 reads
/// every shard — itself included — the same way and no writer ever
/// touches another writer's engine.
pub(crate) struct ShardMetrics {
    pub(crate) admission: Arc<AtomicHistogram>,
    pub(crate) queue: Arc<AtomicHistogram>,
    pub(crate) execute: Arc<AtomicHistogram>,
    pub(crate) wal_append: Arc<AtomicHistogram>,
    pub(crate) device_sync: Arc<AtomicHistogram>,
    pub(crate) reply: Arc<AtomicHistogram>,
    pub(crate) batches: Arc<Counter>,
    pub(crate) batch_commands: Arc<Counter>,
    /// Live keys in this shard's keyspace.
    pub(crate) keys: Arc<IntGauge>,
    /// This shard's resident engine memory.
    pub(crate) mem_used: Arc<IntGauge>,
    /// Bytes in this shard's WAL region.
    pub(crate) wal_len: Arc<IntGauge>,
    /// Completed WAL-threshold / on-demand snapshots.
    pub(crate) wal_snapshots: Arc<Counter>,
    pub(crate) od_snapshots: Arc<Counter>,
    /// Newest engine sequence published to this shard's read view.
    pub(crate) published_seq: Arc<Counter>,
    // The rest is read by `INFO` and the OOM gate only. It is not
    // registered: the `/metrics` series set is a contract with scrapers.
    /// This shard's governed (maxmemory-relevant) bytes; summed across
    /// shards for the global OOM gate.
    pub(crate) mem_governed: IntGauge,
    /// Newest global batch sequence this shard stamped onto a frame.
    pub(crate) last_gseq: IntGauge,
    /// A snapshot is mid-flight on this shard.
    pub(crate) snapshot_active: AtomicBool,
    /// Group-commit batch sizes (requests per batch).
    pub(crate) batch_sizes: AtomicHistogram,
}

/// One retained slow command.
#[derive(Clone)]
pub(crate) struct SlowEntry {
    pub(crate) id: u64,
    pub(crate) unix_ts: u64,
    pub(crate) dur_us: u64,
    pub(crate) args: Vec<Vec<u8>>,
    pub(crate) shard: usize,
    /// The command's batch's per-stage breakdown, microseconds.
    pub(crate) stages: Vec<(&'static str, u64)>,
}

impl SlowEntry {
    /// `queue=12us execute=3us …` — the breakdown line attached to each
    /// `SLOWLOG GET` entry.
    pub(crate) fn stage_summary(&self) -> String {
        let mut s = String::new();
        for (name, us) in &self.stages {
            if !s.is_empty() {
                s.push(' ');
            }
            s.push_str(&format!("{name}={us}us"));
        }
        s
    }
}

/// Redis-compatible slowlog: a bounded ring of commands that exceeded
/// the configured threshold, with per-stage timings attached.
pub(crate) struct SlowLog {
    entries: Mutex<VecDeque<SlowEntry>>,
    next_id: AtomicU64,
    /// Microseconds; negative disables logging entirely.
    threshold_us: i64,
}

impl SlowLog {
    fn new(threshold_us: i64) -> Self {
        SlowLog {
            entries: Mutex::new(VecDeque::new()),
            next_id: AtomicU64::new(0),
            threshold_us,
        }
    }

    /// False when `--slowlog-log-slower-than -1` disabled the log — the
    /// writer then skips all slowlog bookkeeping for the batch.
    pub(crate) fn enabled(&self) -> bool {
        self.threshold_us >= 0
    }

    pub(crate) fn threshold_us(&self) -> i64 {
        self.threshold_us
    }

    /// Records one command if its duration reaches the threshold.
    pub(crate) fn maybe_record(
        &self,
        dur: Duration,
        mut args: Vec<Vec<u8>>,
        shard: usize,
        stages: Vec<(&'static str, u64)>,
    ) {
        if !self.enabled() {
            return;
        }
        let dur_us = (dur_ns(dur) / 1_000).min(i64::MAX as u64);
        if dur_us < self.threshold_us as u64 {
            return;
        }
        args.truncate(SLOWLOG_MAX_ARGS);
        for a in &mut args {
            if a.len() > SLOWLOG_MAX_ARG_BYTES {
                let dropped = a.len() - SLOWLOG_MAX_ARG_BYTES;
                a.truncate(SLOWLOG_MAX_ARG_BYTES);
                a.extend_from_slice(format!("... ({dropped} more bytes)").as_bytes());
            }
        }
        let entry = SlowEntry {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            unix_ts: unix_secs(),
            dur_us,
            args,
            shard,
            stages,
        };
        let mut entries = lock_ok(&self.entries);
        if entries.len() == SLOWLOG_MAX_LEN {
            entries.pop_front();
        }
        entries.push_back(entry);
    }

    /// Newest-first, up to `count` entries (`None` = all).
    pub(crate) fn get(&self, count: Option<usize>) -> Vec<SlowEntry> {
        let entries = lock_ok(&self.entries);
        let take = count.unwrap_or(entries.len()).min(entries.len());
        entries.iter().rev().take(take).cloned().collect()
    }

    pub(crate) fn len(&self) -> usize {
        lock_ok(&self.entries).len()
    }

    pub(crate) fn reset(&self) {
        lock_ok(&self.entries).clear();
    }
}

/// History of one latency event source.
struct EventHistory {
    samples: VecDeque<(u64, u64)>, // (unix seconds, milliseconds)
    max_ms: u64,
}

/// Redis-compatible `LATENCY` event tracking: named spike sources
/// (writer stalls, sync spikes, GC pauses), each with a bounded sample
/// history and an all-time max.
pub(crate) struct LatencyTracker {
    events: Mutex<Vec<(&'static str, EventHistory)>>,
}

impl LatencyTracker {
    fn new() -> Self {
        LatencyTracker {
            events: Mutex::new(Vec::new()),
        }
    }

    /// Records `ns` as a spike of `event` if it reaches the threshold.
    pub(crate) fn observe(&self, event: &'static str, ns: u64) {
        if ns >= LATENCY_EVENT_THRESHOLD_NS {
            self.record(event, ns / 1_000_000);
        }
    }

    fn record(&self, event: &'static str, ms: u64) {
        let mut events = lock_ok(&self.events);
        let hist = match events.iter_mut().find(|(n, _)| *n == event) {
            Some((_, h)) => h,
            None => {
                events.push((
                    event,
                    EventHistory {
                        samples: VecDeque::new(),
                        max_ms: 0,
                    },
                ));
                &mut events.last_mut().expect("just pushed").1
            }
        };
        if hist.samples.len() == LATENCY_MAX_SAMPLES {
            hist.samples.pop_front();
        }
        hist.samples.push_back((unix_secs(), ms));
        hist.max_ms = hist.max_ms.max(ms);
    }

    /// `LATENCY HISTORY <event>`: the retained `(ts, ms)` samples.
    pub(crate) fn history(&self, event: &[u8]) -> Vec<(u64, u64)> {
        lock_ok(&self.events)
            .iter()
            .find(|(n, _)| n.as_bytes() == event)
            .map(|(_, h)| h.samples.iter().copied().collect())
            .unwrap_or_default()
    }

    /// `LATENCY LATEST`: per event, `(name, last_ts, last_ms, max_ms)`.
    pub(crate) fn latest(&self) -> Vec<(&'static str, u64, u64, u64)> {
        lock_ok(&self.events)
            .iter()
            .filter_map(|(n, h)| {
                let &(ts, ms) = h.samples.back()?;
                Some((*n, ts, ms, h.max_ms))
            })
            .collect()
    }

    /// `LATENCY RESET`: drops every event, returning how many were
    /// tracked.
    pub(crate) fn reset(&self) -> usize {
        let mut events = lock_ok(&self.events);
        let n = events.len();
        events.clear();
        n
    }

    /// Distinct events currently tracked (INFO).
    pub(crate) fn event_count(&self) -> usize {
        lock_ok(&self.events).len()
    }

    /// The most recently recorded event, if any (INFO).
    pub(crate) fn last_event(&self) -> Option<(&'static str, u64)> {
        lock_ok(&self.events)
            .iter()
            .filter_map(|(n, h)| h.samples.back().map(|&(ts, _)| (*n, ts)))
            .max_by_key(|&(_, ts)| ts)
    }
}

/// The server's telemetry root, shared by every thread via [`Shared`].
pub(crate) struct Telemetry {
    /// All registered series; the `/metrics` listener renders it.
    pub(crate) registry: Registry,
    /// Per-shard writer slots.
    pub(crate) shards: Vec<ShardMetrics>,
    /// End-to-end writer-path command latency (parse → reply drained).
    pub(crate) e2e: Arc<AtomicHistogram>,
    /// Read-path (connection-thread GET/EXISTS) latency.
    pub(crate) reads: Arc<AtomicHistogram>,
    pub(crate) slowlog: SlowLog,
    pub(crate) latency: LatencyTracker,
    /// Bound metrics port, 0 when no listener is running (INFO).
    pub(crate) metrics_port: AtomicU64,
}

impl Telemetry {
    pub(crate) fn new(shards: usize, slowlog_threshold_us: i64) -> Self {
        let r = Registry::new();
        let slots = (0..shards)
            .map(|i| {
                let shard = i.to_string();
                let labels: &[(&str, &str)] = &[("shard", &shard)];
                let stage = |name: &'static str| {
                    r.histogram(
                        "slimio_write_stage_seconds",
                        &[("stage", name), ("shard", &shard)],
                        "Write-path stage latency per group-commit batch",
                    )
                };
                ShardMetrics {
                    admission: stage("admission"),
                    queue: stage("queue"),
                    execute: stage("execute"),
                    wal_append: stage("wal_append"),
                    device_sync: stage("device_sync"),
                    reply: stage("reply"),
                    batches: r.counter(
                        "slimio_write_batches_total",
                        labels,
                        "Group-commit batches committed",
                    ),
                    batch_commands: r.counter(
                        "slimio_write_batch_commands_total",
                        labels,
                        "Commands executed through the write path",
                    ),
                    keys: r.int_gauge("slimio_keys", labels, "Live keys per shard"),
                    mem_used: r.int_gauge(
                        "slimio_mem_used_bytes",
                        labels,
                        "Engine bytes per shard",
                    ),
                    wal_len: r.int_gauge("slimio_wal_len_bytes", labels, "WAL bytes per shard"),
                    wal_snapshots: r.counter(
                        "slimio_wal_snapshots_total",
                        labels,
                        "WAL-threshold snapshots completed",
                    ),
                    od_snapshots: r.counter(
                        "slimio_od_snapshots_total",
                        labels,
                        "On-demand snapshots completed",
                    ),
                    published_seq: r.counter(
                        "slimio_view_published_seq",
                        labels,
                        "Newest engine sequence published to the read view",
                    ),
                    mem_governed: IntGauge::new(),
                    last_gseq: IntGauge::new(),
                    snapshot_active: AtomicBool::new(false),
                    batch_sizes: AtomicHistogram::new(),
                }
            })
            .collect();
        let e2e = r.histogram(
            "slimio_write_e2e_seconds",
            &[],
            "End-to-end writer-path command latency (parse to reply)",
        );
        let reads = r.histogram(
            "slimio_read_seconds",
            &[],
            "Read-path latency served on connection threads",
        );
        Telemetry {
            registry: r,
            shards: slots,
            e2e,
            reads,
            slowlog: SlowLog::new(slowlog_threshold_us),
            latency: LatencyTracker::new(),
            metrics_port: AtomicU64::new(0),
        }
    }

    /// Command latency percentiles `(p50, p99, p999)` in nanoseconds over
    /// every writer-path and read-path command — `INFO`'s
    /// `latency_p*_us`, computed from the same two histograms `/metrics`
    /// exports.
    pub(crate) fn command_latency(&self) -> (u64, u64, u64) {
        let mut h = self.e2e.snapshot();
        h.merge(&self.reads.snapshot());
        (h.p50(), h.p99(), h.p999())
    }

    /// Refreshes the sampled series, then renders the whole registry as
    /// Prometheus text. Called per scrape; never on a hot path.
    pub(crate) fn render(&self, ctx: &MetricsCtx) -> String {
        self.sample(ctx);
        self.registry.render_prometheus()
    }

    /// Copies what the server does not own as a registry handle into the
    /// registry: uptime (a clock), admission-gate depth (the semaphore
    /// under its condvar mutex), replication state (under the repl lock),
    /// the device's own telemetry (under the device lock) and each
    /// shard's snapshot-ring poller counts.
    fn sample(&self, ctx: &MetricsCtx) {
        let MetricsCtx {
            shared,
            repl,
            device,
            rings,
        } = ctx;
        let r = &self.registry;
        r.gauge("slimio_uptime_seconds", &[], "Seconds since server start")
            .set(shared.start.elapsed().as_secs_f64());
        for i in 0..self.shards.len() {
            r.int_gauge(
                "slimio_shard_queue_depth",
                &[("shard", &i.to_string())],
                "Admission-gate depth per shard",
            )
            .set(shared.gov.shard_depth(i) as u64);
        }
        for (i, ring) in rings.iter().enumerate() {
            let Some(ring) = ring else { continue };
            let shard = i.to_string();
            for (name, help, v) in [
                (
                    "slimio_sqpoll_parks_total",
                    "Times the snapshot ring's idle poller went to sleep",
                    ring.parks(),
                ),
                (
                    "slimio_sqpoll_wakeups_total",
                    "Times a submit woke the snapshot ring's sleeping poller",
                    ring.wakeups(),
                ),
            ] {
                r.counter(name, &[("shard", &shard)], help).set(v);
            }
        }
        {
            let mut rs = repl.lock();
            rs.peers.retain(|p| p.alive.load(Ordering::SeqCst));
            let end = rs.backlog.end();
            let lag =
                |p: &ReplicaPeer| end.saturating_sub(p.acked.load(Ordering::SeqCst).max(p.base));
            r.counter(
                "slimio_repl_backlog_end_bytes",
                &[],
                "Replication stream offset (backlog end)",
            )
            .set(end);
            r.counter(
                "slimio_repl_applied_offset_bytes",
                &[],
                "Upstream stream bytes applied (replica role)",
            )
            .set(rs.applied_offset);
            for (name, help, v) in [
                (
                    "slimio_repl_is_primary",
                    "1 when this node is a primary",
                    (rs.role == Role::Primary) as u64,
                ),
                (
                    "slimio_repl_backlog_bytes",
                    "Replication backlog bytes retained",
                    rs.backlog.len() as u64,
                ),
                (
                    "slimio_repl_connected_replicas",
                    "Attached replicas",
                    rs.peers.len() as u64,
                ),
                (
                    "slimio_repl_max_lag_bytes",
                    "Worst replica feed lag in stream bytes",
                    rs.peers.iter().map(lag).max().unwrap_or(0),
                ),
            ] {
                r.int_gauge(name, &[], help).set(v);
            }
        }
        // Device / FTL / NAND, one lock acquisition for a consistent
        // snapshot.
        let dt = device.telemetry();
        r.gauge_with_decimals(
            "slimio_device_waf",
            &[],
            "Live write amplification factor",
            2,
        )
        .set(dt.waf);
        for (name, help, v) in [
            (
                "slimio_device_host_pages_total",
                "Host pages programmed",
                dt.host_pages,
            ),
            (
                "slimio_device_gc_copied_pages_total",
                "Pages relocated by GC",
                dt.gc_copied_pages,
            ),
            (
                "slimio_device_gc_passes_total",
                "GC passes run",
                dt.gc_passes,
            ),
            ("slimio_device_erases_total", "Blocks erased", dt.erases),
            (
                "slimio_device_trimmed_pages_total",
                "Pages invalidated by TRIM",
                dt.trimmed_pages,
            ),
            ("slimio_device_reads_total", "FTL read operations", dt.reads),
            (
                "slimio_device_write_commands_total",
                "Write commands accepted",
                dt.write_commands,
            ),
        ] {
            r.counter(name, &[], help).set(v);
        }
        for (name, help, v) in [
            (
                "slimio_device_die_busy_seconds",
                "Total simulated die-busy time across all dies",
                dt.die_busy_ns as f64 / 1e9,
            ),
            (
                "slimio_device_wall_stall_seconds",
                "Wall-clock time lost to injected device stalls",
                dt.wall_stall_ns as f64 / 1e9,
            ),
            (
                "slimio_device_capacity_bytes",
                "Advertised capacity",
                dt.capacity_bytes as f64,
            ),
            (
                "slimio_device_free_rus",
                "Reclaim units on the free list",
                dt.free_rus as f64,
            ),
            (
                "slimio_device_live_pages",
                "Mapped logical pages",
                dt.live_pages as f64,
            ),
        ] {
            r.gauge(name, &[], help).set(v);
        }
        for (pid, rus, valid) in dt.ru_occupancy {
            let pid = pid.to_string();
            let labels: &[(&str, &str)] = &[("pid", &pid)];
            r.gauge(
                "slimio_device_ru_occupancy",
                labels,
                "Reclaim units held per placement ID",
            )
            .set(rus as f64);
            r.gauge(
                "slimio_device_ru_live_pages",
                labels,
                "Valid pages held per placement ID",
            )
            .set(valid as f64);
        }
    }
}

/// Everything the metrics listener thread needs to answer a scrape.
pub(crate) struct MetricsCtx {
    pub(crate) shared: Arc<Shared>,
    pub(crate) repl: Arc<ReplState>,
    pub(crate) device: DeviceHandle,
    /// Per shard, its snapshot ring's poller counts (passthru only).
    pub(crate) rings: Vec<Option<Arc<SqPollStats>>>,
}

/// Binds `addr` and serves Prometheus text on `GET /metrics` over
/// hand-rolled HTTP/1.0 (std-only, one request per connection). The
/// thread polls the server's stop flags and exits with them.
pub(crate) fn spawn_metrics_listener(
    addr: &str,
    ctx: MetricsCtx,
) -> std::io::Result<(SocketAddr, JoinHandle<()>)> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let bound = listener.local_addr()?;
    let handle = std::thread::Builder::new()
        .name("slimio-metrics".to_string())
        .spawn(move || metrics_loop(listener, ctx))?;
    Ok((bound, handle))
}

fn metrics_loop(listener: TcpListener, ctx: MetricsCtx) {
    while !ctx.shared.stopping() {
        match listener.accept() {
            Ok((stream, _)) => {
                // Scrapes are rare and the render is cheap; serve inline.
                let _ = serve_scrape(stream, &ctx);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => break,
        }
    }
}

fn serve_scrape(mut stream: TcpStream, ctx: &MetricsCtx) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    // Read the request head (we only care about the request line).
    let mut buf = [0u8; 4096];
    let mut len = 0usize;
    while len < buf.len() {
        let n = stream.read(&mut buf[len..])?;
        if n == 0 {
            break;
        }
        len += n;
        if buf[..len].windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
    }
    let head = String::from_utf8_lossy(&buf[..len]);
    let mut parts = head.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, content_type, body) =
        if method == "GET" && (path == "/metrics" || path.starts_with("/metrics?")) {
            let tel = &ctx.shared.tel;
            (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                tel.render(ctx),
            )
        } else {
            ("404 Not Found", "text/plain", "not found\n".to_string())
        };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowlog_threshold_and_ring() {
        let log = SlowLog::new(1_000); // 1ms
        log.maybe_record(
            Duration::from_micros(500),
            vec![b"SET".to_vec()],
            0,
            Vec::new(),
        );
        assert_eq!(log.len(), 0, "sub-threshold command must not land");
        for i in 0..(SLOWLOG_MAX_LEN + 10) {
            log.maybe_record(
                Duration::from_millis(2),
                vec![format!("cmd{i}").into_bytes()],
                0,
                vec![("device_sync", 2_000)],
            );
        }
        assert_eq!(log.len(), SLOWLOG_MAX_LEN, "ring must stay bounded");
        let newest = log.get(Some(1));
        assert_eq!(newest.len(), 1);
        assert_eq!(
            newest[0].args[0],
            format!("cmd{}", SLOWLOG_MAX_LEN + 9).into_bytes(),
            "GET must return newest first"
        );
        assert_eq!(newest[0].stage_summary(), "device_sync=2000us");
        log.reset();
        assert_eq!(log.len(), 0);
    }

    #[test]
    fn slowlog_disabled_records_nothing() {
        let log = SlowLog::new(-1);
        assert!(!log.enabled());
        log.maybe_record(
            Duration::from_secs(10),
            vec![b"SET".to_vec()],
            0,
            Vec::new(),
        );
        assert_eq!(log.len(), 0);
    }

    #[test]
    fn slowlog_truncates_long_args() {
        let log = SlowLog::new(0);
        log.maybe_record(
            Duration::from_millis(1),
            vec![b"SET".to_vec(), vec![b'x'; 1000]],
            0,
            Vec::new(),
        );
        let e = log.get(None).remove(0);
        assert!(e.args[1].len() < 200, "arg must be truncated");
        assert!(e.args[1].ends_with(b"more bytes)"));
    }

    #[test]
    fn latency_tracker_history_latest_reset() {
        let t = LatencyTracker::new();
        t.record("device-sync", 80);
        t.record("device-sync", 120);
        t.record("gc", 60);
        let hist = t.history(b"device-sync");
        assert_eq!(hist.len(), 2);
        assert_eq!(hist[1].1, 120);
        let latest = t.latest();
        assert_eq!(latest.len(), 2);
        let ds = latest.iter().find(|(n, ..)| *n == "device-sync").unwrap();
        assert_eq!((ds.2, ds.3), (120, 120));
        assert_eq!(t.reset(), 2);
        assert!(t.history(b"device-sync").is_empty());
        assert_eq!(t.event_count(), 0);
    }

    #[test]
    fn latency_history_is_bounded() {
        let t = LatencyTracker::new();
        for i in 0..(LATENCY_MAX_SAMPLES as u64 + 40) {
            t.record("writer-stall", i);
        }
        let hist = t.history(b"writer-stall");
        assert_eq!(hist.len(), LATENCY_MAX_SAMPLES);
        let latest = t.latest();
        assert_eq!(latest[0].3, LATENCY_MAX_SAMPLES as u64 + 39, "max survives");
    }

    #[test]
    fn telemetry_renders_stage_series_per_shard() {
        let tel = Telemetry::new(2, 10_000);
        tel.shards[0].queue.record(1_000);
        tel.shards[1].device_sync.record(2_000_000);
        tel.shards[0].batches.inc();
        let text = tel.registry.render_prometheus();
        assert!(text.contains("slimio_write_stage_seconds_count{stage=\"queue\",shard=\"0\"} 1"));
        assert!(
            text.contains("slimio_write_stage_seconds_count{stage=\"device_sync\",shard=\"1\"} 1")
        );
        assert!(text.contains("slimio_write_batches_total{shard=\"0\"} 1"));
        assert!(text.contains("slimio_write_batches_total{shard=\"1\"} 0"));
    }
}
