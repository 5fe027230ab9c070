//! `live_rps` — live-mode throughput roll-up: a real `slimio-server`
//! instance on an ephemeral port, driven by the closed-loop bench client,
//! for both backends × both fsync policies × pipeline depth {1, 16}.
//!
//! Unlike the `table*`/`fig*` binaries these numbers are wall-clock, not
//! discrete-event simulation: they measure the server's batched write
//! path (group commit + vectored submission) end to end, plus GET-heavy
//! (90% GET / 10% SET) cells that exercise the lock-free read path, and
//! a replication read-scaling cell (`get90-replica`) where a
//! WAL-shipping replica serves the GET side while the primary takes the
//! SETs. An `overload` cell floods a
//! deliberately slowed device behind a small admission queue — `-BUSY`
//! refusals are expected there, and its p999 column is the latency of
//! probe GETs issued during the flood, the read-path-stays-bounded
//! acceptance number. Headline acceptance ratios print at the end:
//! pipelined Always-Log throughput over unbatched, shard scaling, and
//! replica-fanout GET-heavy throughput over the single node.

use std::time::{Duration, Instant};

use slimio_bench::{maybe_write_perf, Cli, PerfCell};
use slimio_des::SimTime;
use slimio_imdb::LogPolicy;
use slimio_metrics::Histogram;
use slimio_server::bench::{self, BenchOpts};
use slimio_server::resp::Value;
use slimio_server::{BackendKind, GovernorOpts, Server, ServerOpts, Store, StoreConfig};

struct Cell {
    label: String,
    policy: LogPolicy,
    kind: BackendKind,
    pipeline: usize,
    /// Percent of bench requests issued as GETs.
    get_ratio: u8,
    /// Writer shards (1 = classic single-writer path).
    shards: usize,
}

fn main() {
    let cli = Cli::parse();
    let total_start = Instant::now();
    // Default scale (1/16) drives 20k requests per cell; --quick clamps
    // the scale to 1/64 (5k requests) for CI smoke runs.
    let requests = ((320_000.0 * cli.scale) as u64).max(1_000);

    let policies = [
        ("always", LogPolicy::Always),
        (
            "everysec",
            LogPolicy::Periodical {
                flush_interval: SimTime::from_secs(1),
            },
        ),
    ];
    let mut cells: Vec<Cell> = Vec::new();
    for (pname, policy) in policies {
        for kind in [BackendKind::Kernel, BackendKind::Passthru] {
            for pipeline in [1usize, 16] {
                cells.push(Cell {
                    label: format!("{}/{pname}/P{pipeline}", kind.name()),
                    policy,
                    kind,
                    pipeline,
                    get_ratio: 0,
                    shards: 1,
                });
            }
        }
    }
    // GET-heavy (90/10) pipelined cells: the lock-free read path.
    for kind in [BackendKind::Kernel, BackendKind::Passthru] {
        cells.push(Cell {
            label: format!("{}/always/P16/get90", kind.name()),
            policy: LogPolicy::Always,
            kind,
            pipeline: 16,
            get_ratio: 90,
            shards: 1,
        });
    }
    // Shard sweep: set-heavy pipelined passthru cells at 1/2/4 writer
    // shards — same seed and config, so the trio is the sharded-write-
    // path scaling comparison. Each shard carries its own writer thread,
    // group-commit batch, WAL region, and FDP placement ID; WAF must
    // stay 1.00 in every cell (asserted below) because shard WAL streams
    // land in distinct reclaim units.
    for shards in [1usize, 2, 4] {
        cells.push(Cell {
            label: format!("passthru/always/P16/shards{shards}"),
            policy: LogPolicy::Always,
            kind: BackendKind::Passthru,
            pipeline: 16,
            get_ratio: 0,
            shards,
        });
    }

    println!("live-mode RPS ({} requests per cell, 4 clients)", requests);
    println!(
        "{:<28} {:>12} {:>12} {:>10}",
        "cell", "rps", "p999_us", "waf"
    );

    let mut perf: Vec<PerfCell> = Vec::new();
    let mut rps_by_label: Vec<(String, f64)> = Vec::new();
    for cell in &cells {
        let store = Store::new(StoreConfig {
            kind: cell.kind,
            fdp: cell.kind == BackendKind::Passthru,
            ratio: 1.0 / 64.0,
            shards: cell.shards,
        });
        let handle = Server::start(
            store,
            ServerOpts {
                policy: cell.policy,
                ..ServerOpts::default()
            },
        )
        .expect("server start");
        let opts = BenchOpts {
            port: handle.port(),
            clients: 4,
            requests,
            value_len: 128,
            keyspace: 10_000,
            seed: cli.seed,
            pipeline: cell.pipeline,
            get_ratio: cell.get_ratio,
            ..BenchOpts::default()
        };
        let started = Instant::now();
        let report = bench::run(&opts).expect("bench run");
        let wall = started.elapsed().as_secs_f64();
        let store = handle.shutdown();
        let waf = store.device().lock().unwrap().waf();
        assert_eq!(report.errors, 0, "{}: bench saw error replies", cell.label);
        if cell.shards > 1 {
            assert!(
                waf < 1.005,
                "{}: sharded FDP cell must keep WAF at 1.00, got {waf:.4}",
                cell.label
            );
        }
        println!(
            "{:<28} {:>12.0} {:>12.1} {:>10.2}",
            cell.label,
            report.rps(),
            report.hist.p999() as f64 / 1000.0,
            waf
        );
        perf.push(PerfCell {
            label: cell.label.clone(),
            wall_secs: wall,
            events: report.ops,
            avg_rps: report.rps(),
            p999_ms: report.hist.p999() as f64 / 1e6,
            waf,
        });
        rps_by_label.push((cell.label.clone(), report.rps()));
    }

    // Read-scaling cell: a replica attaches to the primary, full-syncs,
    // and serves the GET side of the 90/10 split locally while the
    // primary takes the SET side — the fan-out topology from the README
    // quickstart. Throughput counts both sides over the shared wall.
    for kind in [BackendKind::Kernel, BackendKind::Passthru] {
        let mk_store = || {
            Store::new(StoreConfig {
                kind,
                fdp: kind == BackendKind::Passthru,
                ratio: 1.0 / 64.0,
                shards: 1,
            })
        };
        let primary = Server::start(
            mk_store(),
            ServerOpts {
                policy: LogPolicy::Always,
                ..ServerOpts::default()
            },
        )
        .expect("primary start");
        let pport = primary.port();
        let replica = Server::start(
            mk_store(),
            ServerOpts {
                policy: LogPolicy::Always,
                replica_of: Some(format!("127.0.0.1:{pport}")),
                ..ServerOpts::default()
            },
        )
        .expect("replica start");
        // Preload the keyspace so replica GETs return real values, then
        // pin the replica to the preload's stream offset.
        let preload = bench::run(&BenchOpts {
            port: pport,
            clients: 4,
            requests: 10_000,
            value_len: 128,
            keyspace: 10_000,
            seed: cli.seed,
            pipeline: 16,
            ..BenchOpts::default()
        })
        .expect("preload");
        assert_eq!(preload.errors, 0, "preload saw error replies");
        let caught_up = bench::oneshot(
            "127.0.0.1",
            pport,
            &[b"WAIT".to_vec(), b"1".to_vec(), b"30000".to_vec()],
        )
        .expect("WAIT");
        assert!(
            matches!(caught_up, slimio_server::resp::Value::Int(n) if n >= 1),
            "replica never caught up: {caught_up:?}"
        );

        let set_opts = BenchOpts {
            port: pport,
            clients: 2,
            requests: requests / 10,
            value_len: 128,
            keyspace: 10_000,
            seed: cli.seed,
            pipeline: 16,
            ..BenchOpts::default()
        };
        let get_opts = BenchOpts {
            port: replica.port(),
            clients: 4,
            requests: requests - requests / 10,
            value_len: 128,
            keyspace: 10_000,
            seed: cli.seed + 1,
            pipeline: 16,
            get_ratio: 100,
            ..BenchOpts::default()
        };
        let started = Instant::now();
        let writer = std::thread::spawn(move || bench::run(&set_opts));
        let get_report = bench::run(&get_opts).expect("replica GET bench");
        let set_report = writer
            .join()
            .expect("writer bench panicked")
            .expect("SET bench");
        let wall = started.elapsed().as_secs_f64();
        replica.shutdown();
        let store = primary.shutdown();
        let waf = store.device().lock().unwrap().waf();
        assert_eq!(get_report.errors, 0, "replica GETs saw error replies");
        assert_eq!(set_report.errors, 0, "primary SETs saw error replies");

        let ops = get_report.ops + set_report.ops;
        let rps = ops as f64 / wall.max(1e-9);
        let mut hist = get_report.hist;
        hist.merge(&set_report.hist);
        let label = format!("{}/always/P16/get90-replica", kind.name());
        println!(
            "{:<28} {:>12.0} {:>12.1} {:>10.2}",
            label,
            rps,
            hist.p999() as f64 / 1000.0,
            waf
        );
        perf.push(PerfCell {
            label: label.clone(),
            wall_secs: wall,
            events: ops,
            avg_rps: rps,
            p999_ms: hist.p999() as f64 / 1e6,
            waf,
        });
        rps_by_label.push((label, rps));
    }

    // Overload cell: a deliberately slowed device behind a small
    // admission queue, flooded with pipelined SETs while a probe
    // connection measures GET latency. Unlike every other cell this one
    // EXPECTS error replies — overflow writes are refused with `-BUSY`;
    // what must hold is the bound: the queue high-water stays at its cap
    // and probe GETs stay fast while the write path is saturated. The
    // cell's p999 column is the probe GET latency, not the flood's.
    {
        let queue_cap = 16usize;
        let store = Store::new(StoreConfig {
            kind: BackendKind::Kernel,
            fdp: false,
            ratio: 1.0 / 64.0,
            shards: 1,
        });
        let handle = Server::start(
            store,
            ServerOpts {
                policy: LogPolicy::Always,
                govern: GovernorOpts {
                    queue_cap,
                    admit_park: Duration::from_millis(1),
                    ..GovernorOpts::default()
                },
                ..ServerOpts::default()
            },
        )
        .expect("overload server start");
        let port = handle.port();
        let one = |parts: &[&[u8]]| {
            let args: Vec<Vec<u8>> = parts.iter().map(|p| p.to_vec()).collect();
            bench::oneshot_timeout("127.0.0.1", port, &args, Some(Duration::from_secs(10)))
                .expect("oneshot under overload")
        };
        assert_eq!(one(&[b"SET", b"probe", b"v"]), Value::ok());
        assert_eq!(one(&[b"DEBUG", b"FAULT", b"slow@1:5000"]), Value::ok());

        let flood_opts = BenchOpts {
            port,
            clients: 4,
            requests: (requests / 4).max(2_000),
            value_len: 128,
            keyspace: 10_000,
            seed: cli.seed,
            pipeline: 16,
            ..BenchOpts::default()
        };
        let started = Instant::now();
        let flood = std::thread::spawn(move || bench::run(&flood_opts));
        let mut probe = Histogram::new();
        while !flood.is_finished() {
            let t0 = Instant::now();
            let v = one(&[b"GET", b"probe"]);
            assert_eq!(v, Value::bulk(b"v"), "probe GET failed under flood");
            probe.record(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
            std::thread::sleep(Duration::from_millis(2));
        }
        let report = flood.join().expect("flood thread").expect("flood bench");
        let wall = started.elapsed().as_secs_f64();
        assert_eq!(one(&[b"DEBUG", b"FAULT", b"OFF"]), Value::ok());
        let Value::Bulk(text) = one(&[b"INFO"]) else {
            panic!("INFO did not answer after overload");
        };
        let text = String::from_utf8_lossy(&text).into_owned();
        let field = |name: &str| -> u64 {
            text.lines()
                .find_map(|l| l.strip_prefix(&format!("{name}:")))
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("INFO missing {name}"))
        };
        let hwm = field("writer_queue_hwm");
        assert!(
            hwm as usize <= queue_cap,
            "queue high-water {hwm} escaped its cap {queue_cap}"
        );
        // Bounded, not instant: the probe shares the host with a flood.
        assert!(
            probe.p999() < 2_000_000_000,
            "probe GET p999 {} ns is unbounded under flood",
            probe.p999()
        );
        let store = handle.shutdown();
        let waf = store.device().lock().unwrap().waf();
        let label = "kernel/always/P16/overload".to_string();
        println!(
            "{:<28} {:>12.0} {:>12.1} {:>10.2}",
            label,
            report.rps(),
            probe.p999() as f64 / 1000.0,
            waf
        );
        println!(
            "overload governance: queue hwm {hwm}/{queue_cap}, busy_refused {}, \
             {} of {} flood replies were -BUSY, probe GET p99 {:.1} us",
            field("busy_refused"),
            report.errors,
            report.ops,
            probe.p99() as f64 / 1000.0,
        );
        perf.push(PerfCell {
            label: label.clone(),
            wall_secs: wall,
            events: report.ops,
            avg_rps: report.rps(),
            p999_ms: probe.p999() as f64 / 1e6,
            waf,
        });
        rps_by_label.push((label, report.rps()));
    }

    // Headline: group commit must make pipelined Always-Log at least as
    // fast as the unbatched loop (in practice far faster).
    let rps = |label: &str| {
        rps_by_label
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, r)| *r)
            .expect("cell ran")
    };
    for kind in ["kernel", "passthru"] {
        let base = rps(&format!("{kind}/always/P1"));
        let piped = rps(&format!("{kind}/always/P16"));
        println!(
            "group-commit speedup ({kind}, always): {:.2}x (P16 {:.0} rps vs P1 {:.0} rps)",
            piped / base.max(1e-9),
            piped,
            base
        );
    }
    // Headline: shard scaling — the set-heavy pipelined passthru cell at
    // 2 and 4 writer shards over the single-shard baseline. Scaling
    // tracks available cores: each shard's writer burns its own CPU on
    // a core of its own, so a multi-core host approaches linear and a
    // single-core host approaches parity (the sweep still proves the
    // sharded path costs nothing and WAF holds at 1.00).
    {
        let base = rps("passthru/always/P16/shards1");
        for n in [2usize, 4] {
            let sharded = rps(&format!("passthru/always/P16/shards{n}"));
            println!(
                "shard scaling (passthru, always, set-heavy): {n} shards {:.2}x \
                 ({:.0} rps vs {:.0} rps at 1 shard)",
                sharded / base.max(1e-9),
                sharded,
                base
            );
        }
    }
    // Headline: read scaling — the same 90/10 split with the GET side
    // fanned out to a replica vs served by the single node. Both nodes
    // share this host's cores (and the replica is applying the write
    // stream while it serves), so < 1.0x is normal here; the cell's job
    // is to track absolute replica-read throughput end to end. On
    // separate hosts the fanout adds capacity instead of splitting it.
    for kind in ["kernel", "passthru"] {
        let single = rps(&format!("{kind}/always/P16/get90"));
        let fanned = rps(&format!("{kind}/always/P16/get90-replica"));
        println!(
            "replica read scaling ({kind}, 90% GET): {:.2}x (replica-fanout {:.0} rps vs single-node {:.0} rps)",
            fanned / single.max(1e-9),
            fanned,
            single
        );
    }

    maybe_write_perf(&cli, "live_rps", total_start.elapsed().as_secs_f64(), &perf);
}
