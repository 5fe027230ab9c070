//! Telemetry integration: the Prometheus `/metrics` listener under real
//! mixed load, per-stage histogram coherence against the end-to-end
//! series, and the SLOWLOG/LATENCY path under an injected device stall.

use slimio_imdb::LogPolicy;
use slimio_server::bench::{self, BenchOpts};
use slimio_server::resp::Value;
use slimio_server::{Server, ServerOpts};

mod common;
use common::{http_get, sample, scrape, send, store_sharded};

const RATIO: f64 = 1.0 / 128.0;

fn opts_with_metrics() -> ServerOpts {
    ServerOpts {
        policy: LogPolicy::Always,
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServerOpts::default()
    }
}

fn bench_load(port: u16, requests: u64, pipeline: usize, get_ratio: u8, clients: usize) {
    let report = bench::run(&BenchOpts {
        host: "127.0.0.1".to_string(),
        port,
        clients,
        requests,
        pipeline,
        get_ratio,
        value_len: 64,
        keyspace: 512,
        ..BenchOpts::default()
    })
    .expect("bench run");
    assert_eq!(report.errors, 0, "bench saw errors");
}

/// Mixed pipelined load at 4 shards: every advertised series family is
/// present, counters are monotonic across scrapes, and each shard shows
/// up with its own label.
#[test]
fn metrics_scrape_under_mixed_load() {
    let handle = Server::start(store_sharded(4, RATIO), opts_with_metrics()).expect("start");
    let mport = handle.metrics_addr().expect("metrics bound").port();
    bench_load(handle.port(), 4000, 8, 50, 4);

    let text = scrape(mport);
    // Series presence, one probe per family.
    for series in [
        "slimio_write_stage_seconds_bucket",
        "slimio_write_e2e_seconds_count",
        "slimio_read_seconds_count",
        "slimio_write_batches_total",
        "slimio_ops_total",
        "slimio_connections",
        "slimio_blocked_clients",
        "slimio_engine_bytes",
        "slimio_repl_is_primary",
        "slimio_device_waf",
        "slimio_device_host_pages_total",
        "slimio_device_ru_occupancy",
        "slimio_keys",
        "slimio_shard_queue_depth",
        "slimio_view_published_seq",
    ] {
        assert!(text.contains(series), "missing series {series}\n{text}");
    }
    // HELP/TYPE metadata renders once per family.
    assert!(text.contains("# TYPE slimio_write_stage_seconds histogram"));
    assert!(text.contains("# TYPE slimio_device_waf gauge"));
    // Every shard records batches under its own label, and every stage
    // shows up.
    for s in 0..4 {
        let batches = sample(
            &text,
            &format!("slimio_write_batches_total{{shard=\"{s}\"}}"),
        )
        .unwrap_or_else(|| panic!("no batches sample for shard {s}"));
        assert!(batches > 0.0, "shard {s} committed no batches");
    }
    for stage in [
        "admission",
        "queue",
        "execute",
        "wal_append",
        "device_sync",
        "reply",
    ] {
        assert!(
            text.contains(&format!("stage=\"{stage}\"")),
            "stage {stage} missing"
        );
    }
    // The paper's FDP claim, live: append-only WAL streams at WAF 1.00.
    assert_eq!(sample(&text, "slimio_device_waf"), Some(1.0));
    let ops1 = sample(&text, "slimio_ops_total").expect("ops sample");
    let e2e1 = sample(&text, "slimio_write_e2e_seconds_count").expect("e2e count");
    assert!(ops1 > 0.0 && e2e1 > 0.0);

    // More load → counters only go up.
    bench_load(handle.port(), 2000, 4, 30, 2);
    let text2 = scrape(mport);
    let ops2 = sample(&text2, "slimio_ops_total").expect("ops sample");
    let e2e2 = sample(&text2, "slimio_write_e2e_seconds_count").expect("e2e count");
    assert!(
        ops2 > ops1,
        "ops_total must be monotonic ({ops1} -> {ops2})"
    );
    assert!(
        e2e2 > e2e1,
        "e2e count must be monotonic ({e2e1} -> {e2e2})"
    );

    // Unknown paths get a 404, not a scrape.
    let (status, _) = http_get(mport, "/nope");
    assert!(status.contains("404"), "expected 404, got {status}");

    handle.shutdown();
}

/// The per-stage series and the end-to-end series describe the same
/// commands, so their *counts* are tied together exactly: `queue` records
/// once per command, the batch-scoped stages once per group-commit batch
/// (every batch of a pure-SET load commits), and the e2e series once per
/// command. And with the slowlog threshold at 0 every command is logged
/// with its batch's stage breakdown, which must fit inside the command's
/// own duration — both are read off the same clock on the writer thread.
/// Nothing here compares clocks across threads or depends on how the
/// scheduler interleaves them.
#[test]
fn stage_counts_and_slowlog_breakdowns_are_coherent() {
    const SETS: u64 = 2000;
    let opts = ServerOpts {
        slowlog_threshold_us: 0,
        ..opts_with_metrics()
    };
    let handle = Server::start(store_sharded(1, RATIO), opts).expect("start");
    let mport = handle.metrics_addr().expect("metrics bound").port();
    bench_load(handle.port(), SETS, 4, 0, 2);

    let text = scrape(mport);
    let count = |series: &str| sample(&text, series).unwrap_or_else(|| panic!("no {series}"));
    let stage = |st: &str| {
        count(&format!(
            "slimio_write_stage_seconds_count{{stage=\"{st}\",shard=\"0\"}}"
        ))
    };
    let batches = count("slimio_write_batches_total{shard=\"0\"}");
    assert_eq!(stage("queue"), SETS as f64);
    assert_eq!(count("slimio_write_e2e_seconds_count"), SETS as f64);
    assert_eq!(
        count("slimio_write_batch_commands_total{shard=\"0\"}"),
        SETS as f64
    );
    assert!(batches >= 1.0 && batches <= SETS as f64);
    for st in ["execute", "wal_append", "device_sync", "reply"] {
        assert_eq!(stage(st), batches, "stage {st} vs batches");
    }

    let Value::Array(entries) = send(handle.port(), &[b"SLOWLOG", b"GET", b"-1"]) else {
        panic!("SLOWLOG GET did not return an array")
    };
    assert!(!entries.is_empty(), "threshold 0 must log every command");
    for e in &entries {
        let Value::Array(fields) = e else {
            panic!("malformed slowlog entry")
        };
        let (Value::Int(dur_us), Value::Bulk(stages)) = (&fields[2], &fields[5]) else {
            panic!("slowlog entry without duration/stages: {fields:?}")
        };
        let stages = String::from_utf8_lossy(stages);
        let sum: i64 = stages
            .split_whitespace()
            .map(|kv| {
                let us = kv.split_once('=').and_then(|(_, v)| v.strip_suffix("us"));
                us.and_then(|v| v.parse::<i64>().ok())
                    .unwrap_or_else(|| panic!("bad stage '{kv}' in '{stages}'"))
            })
            .sum();
        assert_eq!(stages.split_whitespace().count(), 5, "{stages}");
        assert!(sum <= *dur_us, "stages {stages} exceed duration {dur_us}us");
    }
    handle.shutdown();
}

/// An injected `slow@` device stall must surface everywhere the operator
/// would look: a SLOWLOG entry whose breakdown is dominated by the
/// `device_sync` stage, and a `LATENCY` event for `device-sync`.
/// RESETs clear both.
#[test]
fn slow_fault_surfaces_in_slowlog_and_latency() {
    let handle = Server::start(store_sharded(1, RATIO), opts_with_metrics()).expect("start");
    let port = handle.port();
    let one = |args: &[&str]| {
        let parts: Vec<&[u8]> = args.iter().map(|a| a.as_bytes()).collect();
        send(port, &parts)
    };

    // 80 ms per device write from the next write on: far past both the
    // 10 ms slowlog default and the 50 ms latency-event threshold.
    let armed = one(&["DEBUG", "FAULT", "slow@1:80000"]);
    assert!(
        !matches!(armed, Value::Error(_)),
        "arming failed: {armed:?}"
    );
    let set = one(&["SET", "stalled-key", "v"]);
    assert!(matches!(set, Value::Simple(_)), "SET failed: {set:?}");
    one(&["DEBUG", "FAULT", "OFF"]);

    // SLOWLOG: the stalled SET is there, device_sync dominates.
    let Value::Array(entries) = one(&["SLOWLOG", "GET"]) else {
        panic!("SLOWLOG GET did not return an array")
    };
    assert!(!entries.is_empty(), "stalled SET missing from slowlog");
    let Value::Array(fields) = &entries[0] else {
        panic!("malformed slowlog entry")
    };
    let Value::Int(dur_us) = fields[2] else {
        panic!("slowlog entry has no duration")
    };
    assert!(
        dur_us >= 80_000,
        "stall not reflected in duration: {dur_us}us"
    );
    let Value::Array(argv) = &fields[3] else {
        panic!("slowlog entry has no argv")
    };
    assert_eq!(argv.first(), Some(&Value::Bulk(b"SET".to_vec())));
    let Value::Bulk(stages_raw) = &fields[5] else {
        panic!("slowlog entry has no stage breakdown")
    };
    let stages = String::from_utf8_lossy(stages_raw).into_owned();
    let stage_us = |name: &str| -> u64 {
        stages
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix(&format!("{name}=")))
            .and_then(|v| v.strip_suffix("us"))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("stage {name} missing from '{stages}'"))
    };
    let sync_us = stage_us("device_sync");
    assert!(
        sync_us >= 80_000,
        "stall not attributed to device_sync: {stages}"
    );
    for other in ["queue", "execute", "wal_append", "reply"] {
        assert!(
            sync_us > stage_us(other),
            "device_sync not dominant: {stages}"
        );
    }

    // LATENCY: the stall registered as a device-sync spike >= 80 ms.
    let Value::Array(history) = one(&["LATENCY", "HISTORY", "device-sync"]) else {
        panic!("LATENCY HISTORY did not return an array")
    };
    assert!(!history.is_empty(), "no device-sync latency event");
    let Value::Array(pair) = &history[0] else {
        panic!("malformed latency sample")
    };
    let Value::Int(ms) = pair[1] else {
        panic!("latency sample has no duration")
    };
    assert!(ms >= 80, "device-sync event too small: {ms}ms");

    // INFO surfaces the same state.
    let Value::Bulk(info_raw) = one(&["INFO"]) else {
        panic!("INFO did not return bulk")
    };
    let info = String::from_utf8_lossy(&info_raw).into_owned();
    assert!(
        info.contains("# Telemetry"),
        "INFO missing Telemetry section"
    );
    assert!(info.contains("latency_last_event:device-sync"), "{info}");

    // RESETs clear both sides.
    assert!(matches!(one(&["SLOWLOG", "RESET"]), Value::Simple(_)));
    assert_eq!(one(&["SLOWLOG", "LEN"]), Value::Int(0));
    let Value::Int(cleared) = one(&["LATENCY", "RESET"]) else {
        panic!("LATENCY RESET did not return an integer")
    };
    assert!(cleared >= 1);
    let Value::Array(after) = one(&["LATENCY", "HISTORY", "device-sync"]) else {
        panic!("LATENCY HISTORY did not return an array")
    };
    assert!(after.is_empty(), "history survived RESET");

    handle.shutdown();
}

/// Every `/metrics` family as `name kind label-keys`, written from the
/// output of the commit before the stats stores were merged. `benchmark/`
/// and the CI greps parse these names, kinds and labels.
const METRIC_FAMILIES: &str = "\
slimio_blocked_clients gauge
slimio_busy_refused_total counter
slimio_connections gauge
slimio_connections_total counter
slimio_device_capacity_bytes gauge
slimio_device_die_busy_seconds gauge
slimio_device_erases_total counter
slimio_device_free_rus gauge
slimio_device_gc_copied_pages_total counter
slimio_device_gc_passes_total counter
slimio_device_host_pages_total counter
slimio_device_live_pages gauge
slimio_device_reads_total counter
slimio_device_ru_live_pages gauge pid
slimio_device_ru_occupancy gauge pid
slimio_device_trimmed_pages_total counter
slimio_device_waf gauge
slimio_device_wall_stall_seconds gauge
slimio_device_write_commands_total counter
slimio_engine_bytes gauge
slimio_engine_peak_bytes gauge
slimio_evicted_clients_total counter
slimio_evicted_replicas_total counter
slimio_keys gauge shard
slimio_mem_used_bytes gauge shard
slimio_net_in_bytes_total counter
slimio_net_out_bytes_total counter
slimio_od_snapshots_total counter shard
slimio_oom_refused_total counter
slimio_ops_total counter
slimio_read_seconds histogram
slimio_repl_applied_offset_bytes counter
slimio_repl_backlog_bytes gauge
slimio_repl_backlog_end_bytes counter
slimio_repl_connected_replicas gauge
slimio_repl_is_primary gauge
slimio_repl_max_lag_bytes gauge
slimio_shard_busy_refused_total counter shard
slimio_shard_queue_cap gauge shard
slimio_shard_queue_depth gauge shard
slimio_shard_queue_hwm gauge shard
slimio_sqpoll_parks_total counter shard
slimio_sqpoll_wakeups_total counter shard
slimio_uptime_seconds gauge
slimio_view_published_seq counter shard
slimio_wal_len_bytes gauge shard
slimio_wal_snapshots_total counter shard
slimio_write_batch_commands_total counter shard
slimio_write_batches_total counter shard
slimio_write_e2e_seconds histogram
slimio_write_stage_seconds histogram stage,shard";

/// `INFO`'s section headers and keys in order (a primary's view;
/// `shard*` stands for one `shardN` line per shard).
const INFO_LAYOUT: &str = "\
# Server|backend|fdp|uptime_in_seconds|\
# Clients|connected_clients|\
# Stats|total_connections_received|total_commands_processed|total_net_input_bytes|\
total_net_output_bytes|avg_ops_per_sec|latency_p50_us|latency_p99_us|latency_p999_us|\
# Persistence|keys|mem_used_bytes|wal_len|wal_snapshots|od_snapshots|snapshot_in_progress|\
last_snapshot_ms|recovered_keys|wal_records_replayed|\
# Resources|maxmemory|engine_bytes|engine_peak_bytes|writer_queue_depth|writer_queue_cap|\
writer_queue_hwm|blocked_clients|busy_refused|oom_refused|evicted_clients|evicted_replicas|\
reply_buf_soft_limit_bytes|repl_feed_limit_bytes|\
# Shards|shards|shard*|\
# Replication|role|master_replid|master_repl_offset|repl_backlog_bytes|connected_replicas|\
# Telemetry|metrics_port|slowlog_len|slowlog_threshold_us|latency_events|latency_last_event|\
# Device|waf|device_capacity_bytes";

/// `name kind label-keys` per family present in a scrape, histogram
/// sample suffixes and the `le` label folded away.
fn metric_families(text: &str) -> Vec<String> {
    let mut kinds: Vec<(&str, &str)> = Vec::new();
    let mut out = std::collections::BTreeSet::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            kinds.push(rest.split_once(' ').expect("TYPE line"));
        } else if !line.starts_with('#') {
            let series = line.rsplit_once(' ').expect("sample line").0;
            let (name, labels) = series.split_once('{').unwrap_or((series, ""));
            let (family, kind) = kinds
                .iter()
                .rev()
                .find(|(f, _)| name.starts_with(f))
                .unwrap_or_else(|| panic!("sample {name} before its TYPE line"));
            let keys: Vec<&str> = labels
                .trim_end_matches('}')
                .split(',')
                .filter_map(|kv| kv.split_once('=').map(|(k, _)| k))
                .filter(|k| *k != "le")
                .collect();
            out.insert(
                format!("{family} {kind} {}", keys.join(","))
                    .trim()
                    .to_string(),
            );
        }
    }
    out.into_iter().collect()
}

/// INFO and `/metrics` are two renderings of one stats store: their
/// layouts are pinned to literal lists (so a refactor cannot silently
/// rename what scrapers and CI read), and on a quiesced server every
/// quantity both print has the same value in both — at one shard and at
/// two, which take the same code path.
#[test]
fn info_and_metrics_are_two_renderings_of_the_same_numbers() {
    const INFO_REQUEST_BYTES: f64 = 14.0; // "*1\r\n$4\r\nINFO\r\n"
    for shards in [1usize, 2] {
        let handle = Server::start(store_sharded(shards, RATIO), opts_with_metrics()).unwrap();
        let mport = handle.metrics_addr().expect("metrics bound").port();
        bench_load(handle.port(), 1200, 4, 30, 3);
        // Quiesce: a connection thread leaves the client gauge last,
        // after all its other accounting, so `connections == 0` means
        // every counter below has settled.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        let text = loop {
            let text = scrape(mport);
            if sample(&text, "slimio_connections") == Some(0.0) {
                break text;
            }
            assert!(std::time::Instant::now() < deadline, "clients never left");
        };
        let info = common::info(handle.port());

        // (a) INFO layout.
        let layout: Vec<&str> = info
            .lines()
            .filter(|l| !l.is_empty())
            .map(|l| l.split_once(':').map_or(l, |(k, _)| k))
            .collect();
        let shard_keys: Vec<String> = (0..shards).map(|i| format!("shard{i}")).collect();
        let want: Vec<&str> = INFO_LAYOUT
            .split('|')
            .flat_map(|k| match k {
                "shard*" => shard_keys.iter().map(String::as_str).collect(),
                k => vec![k],
            })
            .collect();
        assert_eq!(layout, want, "INFO layout changed ({shards} shards)");
        // (b) /metrics families.
        let want: Vec<&str> = METRIC_FAMILIES.lines().collect();
        assert_eq!(metric_families(&text), want, "/metrics families changed");

        // (c) Same numbers. The INFO connection is the one thing that
        // happened after the scrape: one more client, 14 more bytes in.
        let field = |key: &str| -> String {
            let line = info
                .lines()
                .find_map(|l| l.strip_prefix(&format!("{key}:")));
            line.unwrap_or_else(|| panic!("INFO lacks {key}"))
                .to_string()
        };
        let metric = |series: &str| sample(&text, series).unwrap_or_else(|| panic!("no {series}"));
        for (key, series, own) in [
            ("total_commands_processed", "slimio_ops_total", 0.0),
            ("connected_clients", "slimio_connections", 1.0),
            (
                "total_connections_received",
                "slimio_connections_total",
                1.0,
            ),
            (
                "total_net_input_bytes",
                "slimio_net_in_bytes_total",
                INFO_REQUEST_BYTES,
            ),
            ("total_net_output_bytes", "slimio_net_out_bytes_total", 0.0),
            ("busy_refused", "slimio_busy_refused_total", 0.0),
            ("oom_refused", "slimio_oom_refused_total", 0.0),
            ("evicted_clients", "slimio_evicted_clients_total", 0.0),
            ("evicted_replicas", "slimio_evicted_replicas_total", 0.0),
            ("blocked_clients", "slimio_blocked_clients", 0.0),
            ("engine_bytes", "slimio_engine_bytes", 0.0),
            ("engine_peak_bytes", "slimio_engine_peak_bytes", 0.0),
            ("master_repl_offset", "slimio_repl_backlog_end_bytes", 0.0),
            ("waf", "slimio_device_waf", 0.0),
        ] {
            let got: f64 = field(key).parse().expect("numeric INFO field");
            assert_eq!(got, metric(series) + own, "{key} vs {series}");
        }
        // `shardN:` sub-fields in order, and the per-shard series each
        // one must agree with (where one exists).
        let shard_fields = [
            ("queue_depth", Some("slimio_shard_queue_depth")),
            ("queue_cap", Some("slimio_shard_queue_cap")),
            ("queue_hwm", Some("slimio_shard_queue_hwm")),
            ("busy_refused", Some("slimio_shard_busy_refused_total")),
            ("batch_p50", None),
            ("wal_len", Some("slimio_wal_len_bytes")),
            ("keys", Some("slimio_keys")),
            ("last_gseq", None),
        ];
        let mut keys_total = 0.0;
        for i in 0..shards {
            let line = field(&format!("shard{i}"));
            let sub: Vec<&str> = line.split(',').collect();
            assert_eq!(sub.len(), shard_fields.len(), "{line}");
            for (kv, (key, family)) in sub.iter().zip(shard_fields) {
                let value = kv.strip_prefix(key).and_then(|v| v.strip_prefix('='));
                let value: f64 = value.and_then(|v| v.parse().ok()).expect(kv);
                if let Some(family) = family {
                    let want = metric(&format!("{family}{{shard=\"{i}\"}}"));
                    assert_eq!(value, want, "shard{i} {key} vs {family}");
                }
            }
            keys_total += metric(&format!("slimio_keys{{shard=\"{i}\"}}"));
        }
        assert!(keys_total > 0.0, "load left no keys");
        assert_eq!(field("keys").parse::<f64>().unwrap(), keys_total);
        handle.shutdown();
    }
}
