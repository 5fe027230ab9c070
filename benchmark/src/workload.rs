//! The four named workloads and the metric names they are judged by.
//!
//! `BENCHMARK.json` at the repository root repeats these names for the
//! driver; a unit test keeps the two in step.

use slimio_imdb::LogPolicy;

use crate::gen::KeyDist;

/// How requests are issued.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Pacing {
    /// Each connection keeps `pipeline` commands in flight and sends the
    /// next burst when the previous one has been answered.
    Closed,
    /// Requests are due on a fixed schedule of `rate` per second over all
    /// connections, one in flight per connection, latency from due time.
    Open { rate: f64 },
}

/// One workload: a traffic mix chosen to load the layers differently.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`; the README gives the full case.
    pub why: &'static str,
    pub pacing: Pacing,
    pub pipeline: usize,
    pub get_pct: u8,
    pub value_len: usize,
    pub keys: u64,
    pub dist: KeyDist,
    pub always_log: bool,
    pub wal_snapshot_threshold: u64,
    /// Write every key once before warm-up.
    pub preload: bool,
    /// Commands per connection sent before the first measured one.
    pub warmup_ops: u64,
    /// Commands per connection of the fixed-work phase after which
    /// `peak_rss_mb` is read (`Live::footprint`): memory follows the work
    /// done, and a window of fixed length does not do a fixed amount.
    pub footprint_ops: u64,
    /// Measured windows, each on a fresh store with its own set-up;
    /// `--seconds` is split evenly over them.
    pub fresh_windows: usize,
    /// `BGSAVE`s sent inside each window, evenly spaced. `snapshot_s` is
    /// the mean duration of the snapshots that finish inside the window,
    /// these and the WAL-snapshots the server starts itself; the small
    /// keyspaces snapshot in milliseconds and take several for a steady
    /// mean.
    pub bgsaves: u32,
    /// Top the WAL up to this many SETs before the kill, so recovery
    /// replays a fixed amount of log.
    pub wal_records_at_kill: Option<u64>,
}

impl Workload {
    pub fn policy(&self) -> LogPolicy {
        if self.always_log {
            LogPolicy::Always
        } else {
            LogPolicy::periodical_default()
        }
    }

    /// Whether the WAL reaches the WAL-snapshot threshold in a run (the
    /// other workloads set it out of reach).
    pub fn wal_snapshots_fire(&self) -> bool {
        self.wal_snapshot_threshold < GIB
    }

    /// The dataset shrunk for `--smoke`, which proves the harness and
    /// reports nothing.
    pub fn smoke(mut self) -> Workload {
        self.keys = (self.keys / 20).max(2_000);
        self.warmup_ops = self.warmup_ops.min(2_000);
        self.footprint_ops /= 20;
        if self.wal_snapshots_fire() {
            self.wal_snapshot_threshold = 2 << 20;
        }
        self.wal_records_at_kill = self.wal_records_at_kill.map(|r| r / 20);
        self
    }
}

/// Connections (= generator threads). The benchmark machine has two
/// hardware threads; more generators than that would measure the
/// scheduler.
pub const CONNS: usize = 2;

const GIB: u64 = 1 << 30;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "set_always",
        why: "100% pipelined SETs under appendfsync-always: the group-commit write path does nearly all the work; WAL-only recovery",
        pacing: Pacing::Closed,
        pipeline: 16,
        get_pct: 0,
        value_len: 128,
        keys: 10_000,
        dist: KeyDist::Uniform,
        always_log: true,
        wal_snapshot_threshold: GIB,
        preload: false,
        warmup_ops: 20_000,
        footprint_ops: 100_000,
        fresh_windows: 4,
        bgsaves: 4,
        wal_records_at_kill: Some(500_000),
    },
    Workload {
        name: "get90_zipf",
        why: "90% GET / 10% SET, Zipfian over 50k preloaded 256 B values (~15 MB, beyond L2): RESP and the read plane dominate, the write path should matter little",
        pacing: Pacing::Closed,
        pipeline: 16,
        get_pct: 90,
        value_len: 256,
        keys: 50_000,
        dist: KeyDist::Zipf(0.99),
        always_log: true,
        wal_snapshot_threshold: GIB,
        preload: true,
        warmup_ops: 50_000,
        footprint_ops: 50_000,
        fresh_windows: 1,
        bgsaves: 4,
        wal_records_at_kill: None,
    },
    Workload {
        name: "snap_recover",
        why: "100% SETs of 512 B under everysec with a 16 MiB WAL-snapshot threshold and a mid-window BGSAVE: WAL and snapshot streams compete, then snapshot + WAL-tail recovery",
        pacing: Pacing::Closed,
        pipeline: 16,
        get_pct: 0,
        value_len: 512,
        keys: 50_000,
        dist: KeyDist::Uniform,
        always_log: false,
        wal_snapshot_threshold: 16 << 20,
        preload: true,
        warmup_ops: 10_000,
        footprint_ops: 30_000,
        fresh_windows: 1,
        bgsaves: 1,
        wal_records_at_kill: None,
    },
    Workload {
        name: "set_open_lowrate",
        why: "open loop, 2000 unpipelined SET/s on a mostly idle server: wake-ups, timers and thread handoffs set latency; counter-workload for idle-CPU trades",
        pacing: Pacing::Open { rate: 2_000.0 },
        pipeline: 1,
        get_pct: 0,
        value_len: 128,
        keys: 10_000,
        dist: KeyDist::Uniform,
        always_log: true,
        wal_snapshot_threshold: GIB,
        preload: false,
        warmup_ops: 2_000,
        footprint_ops: 5_000,
        fresh_windows: 4,
        bgsaves: 2,
        wal_records_at_kill: None,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Direction in which a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// Name, unit and direction of a reported metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The end-to-end metrics the driver bounds; measured by the untraced
/// run, carried by its result line. The driver refuses a benchmark in
/// which any bounded metric spreads, over ten runs, by more than its
/// bound, and the widest bound it allows is 25 %. On the two-vCPU shared
/// VM this was built on every wall-clock reading of the closed loops
/// follows the host's state, which shifts by 20–40 % on a scale of
/// minutes (README, "How steady the numbers are"), so only readings that
/// do not follow it can be bounded there. The rest of the issue's set is
/// [`OBSERVED`].
pub const END_TO_END: [MetricDef; 4] = [
    lower("setup_s", "s"),
    lower("idle_cpu_cores", "cores"),
    lower("waf", "ratio"),
    lower("peak_rss_mb", "MiB"),
];

/// A metric the untraced run measures, prints and records in every
/// result file, and that `compare` judges by `bound` — but that the
/// driver cannot bound (see [`END_TO_END`]).
#[derive(Clone, Copy, Debug)]
pub struct ObservedDef {
    pub def: MetricDef,
    /// Share of the parent's median by which it may worsen: the issue's.
    pub bound: f64,
}

/// What a user of the server would see beyond [`END_TO_END`]: the rest
/// of the issue's end-to-end set, with the issue's bounds. (`fail_frac`,
/// the eleventh, is the `failed` / `attempted` pair of every result.)
pub const OBSERVED: [ObservedDef; 6] = [
    ObservedDef {
        def: higher("rps", "1/s"),
        bound: 0.10,
    },
    ObservedDef {
        def: lower("p50_us", "us"),
        bound: 0.10,
    },
    ObservedDef {
        def: lower("p99_us", "us"),
        bound: 0.25,
    },
    ObservedDef {
        def: lower("cpu_us_per_op", "us"),
        bound: 0.10,
    },
    ObservedDef {
        def: lower("recovery_s", "s"),
        bound: 0.10,
    },
    ObservedDef {
        def: lower("snapshot_s", "s"),
        bound: 0.15,
    },
];

/// Single-layer numbers; measured by the traced run, never bounded.
pub const PER_LAYER: [MetricDef; 53] = [
    lower("client.p999_us", "us"),
    lower("client.late_frac", "ratio"),
    lower("client.sched_lag_p99_us", "us"),
    lower("client.encode_ns_per_cmd", "ns"),
    lower("client.residual_us", "us"),
    lower("client.trace_overhead_frac", "ratio"),
    lower("resp.parse_ns_per_cmd", "ns"),
    lower("resp.encode_ns_per_reply", "ns"),
    lower("server.stage_admission_us", "us"),
    lower("server.stage_queue_us", "us"),
    lower("server.stage_execute_us", "us"),
    lower("server.stage_wal_append_us", "us"),
    lower("server.stage_device_sync_us", "us"),
    lower("server.stage_reply_us", "us"),
    higher("server.batch_cmds_mean", "count"),
    lower("server.write_e2e_us_mean", "us"),
    lower("server.read_us_mean", "us"),
    higher("server.shards2_rps_ratio", "ratio"),
    lower("govern.queue_hwm", "count"),
    lower("govern.busy_refused", "count"),
    lower("view.get_hit_ns", "ns"),
    lower("view.get_miss_ns", "ns"),
    lower("view.publish_ns_per_op", "ns"),
    lower("engine.set_queued_ns", "ns"),
    lower("engine.batch_commit_us_b16", "us"),
    lower("engine.get_ns", "ns"),
    lower("wal.encode_ns_per_rec", "ns"),
    lower("wal.replay_ns_per_rec", "ns"),
    lower("snapshot.freeze_ms", "ms"),
    lower("snapshot.step_ns_per_entry", "ns"),
    higher("rdb.read_mb_per_s", "MB/s"),
    higher("compress.mb_per_s", "MB/s"),
    lower("backend.wal_append_us_b16", "us"),
    lower("backend.wal_sync_us", "us"),
    lower("backend.snapshot_chunk_us", "us"),
    higher("backend.load_wal_mb_per_s", "MB/s"),
    higher("backend.load_snapshot_mb_per_s", "MB/s"),
    lower("backend.recover_open_ms", "ms"),
    lower("backend.dev_bytes_per_user_byte", "ratio"),
    lower("uring.submit_reap_ns_sqpoll", "ns"),
    lower("uring.submit_reap_ns_enter", "ns"),
    lower("uring.idle_cores_per_ring", "cores"),
    lower("nvme.write_ns_per_page", "ns"),
    lower("nvme.read_ns_per_page", "ns"),
    lower("nvme.write_cmds_per_kop", "count"),
    lower("nvme.host_pages_per_kop", "count"),
    lower("nvme.die_busy_s", "s"),
    lower("ftl.write_ns_per_page_nogc", "ns"),
    lower("ftl.write_ns_per_page_gc", "ns"),
    lower("ftl.gc_copied_pages", "count"),
    lower("ftl.erases", "count"),
    higher("kpath.rps_ratio", "ratio"),
    lower("kpath.recovery_ratio", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn spec() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names(list: &Json) -> Vec<(String, String, String)> {
        list.as_arr()
            .unwrap()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn defs(list: &[MetricDef]) -> Vec<(String, String, String)> {
        list.iter()
            .map(|m| {
                let better = if m.better == Better::Lower {
                    "lower"
                } else {
                    "higher"
                };
                (m.name.to_string(), m.unit.to_string(), better.to_string())
            })
            .collect()
    }

    #[test]
    fn benchmark_json_names_exactly_what_the_code_reports() {
        let spec = spec();
        assert_eq!(names(spec.get("end_to_end").unwrap()), defs(&END_TO_END));
        assert_eq!(names(spec.get("per_layer").unwrap()), defs(&PER_LAYER));
        let workloads: Vec<(String, String)> = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                let s = |k: &str| w.get(k).and_then(Json::as_str).unwrap().to_string();
                (s("name"), s("why"))
            })
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn benchmark_json_stays_inside_the_contract_limits() {
        let spec = spec();
        let keys: Vec<&str> = spec.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let mut seen = std::collections::HashSet::new();
        let mut check_name = |n: &str| {
            assert!(n.len() <= 64 && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
            assert!(seen.insert(n.to_string()), "{n} used twice");
        };
        for w in spec.get("workloads").and_then(Json::as_arr).unwrap() {
            check_name(w.get("name").and_then(Json::as_str).unwrap());
            assert!(w.get("why").and_then(Json::as_str).unwrap().len() <= 200);
        }
        let mut has_setup = false;
        for m in spec.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let name = m.get("name").and_then(Json::as_str).unwrap();
            check_name(name);
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{name} bound {bound}");
            has_setup |= name == "setup_s" && m.get("unit").and_then(Json::as_str) == Some("s");
        }
        assert!(has_setup);
        for m in spec.get("per_layer").and_then(Json::as_arr).unwrap() {
            check_name(m.get("name").and_then(Json::as_str).unwrap());
            assert!(m.get("unit").and_then(Json::as_str).unwrap().len() <= 16);
        }
        let secs = spec.get("run_seconds").and_then(Json::as_f64).unwrap();
        assert!((1.0..=60.0).contains(&secs) && secs.fract() == 0.0);
        assert_eq!(
            spec.get("paths").and_then(Json::as_arr).unwrap(),
            [Json::Str("benchmark".into())]
        );
    }

    #[test]
    fn workload_table_is_consistent() {
        for w in &WORKLOADS {
            assert_eq!(w.keys % CONNS as u64, 0, "{}", w.name);
            assert!(w.value_len >= crate::gen::HEADER);
            assert!(w.fresh_windows >= 1 && w.why.len() <= 200, "{}", w.name);
            assert!(w.bgsaves >= 1, "{}", w.name);
            assert!(w.footprint_ops >= 1, "{}", w.name);
            assert_eq!(by_name(w.name).unwrap().name, w.name);
            let s = w.smoke();
            assert!(s.keys <= w.keys && s.keys % CONNS as u64 == 0);
        }
        assert!(by_name("nope").is_none());
    }
}
