//! `slimio-server` — serve the SlimIO storage stack over RESP2.
//!
//! ```text
//! slimio-server [--addr HOST] [--port N] [--backend kernel|passthru]
//!               [--fdp] [--ratio F] [--shards N]
//!               [--appendfsync always|everysec]
//!               [--wal-snapshot-mb N] [--snapshot-chunk-kb N]
//!               [--fault-plan SPEC] [--replica-of HOST:PORT]
//!               [--repl-backlog-mb N] [--maxmemory BYTES]
//!               [--writer-queue N] [--repl-feed-limit-mb N]
//!               [--metrics-port N] [--slowlog-log-slower-than US]
//! ```
//!
//! `--metrics-port N` serves Prometheus text on `GET /metrics` at
//! `HOST:N` (same host as `--addr`): per-stage write-path latency
//! histograms, device/FTL counters (live WAF, GC, per-PID reclaim-unit
//! occupancy), governor and replication series. Port 0 picks an
//! ephemeral port (reported in `INFO`'s `metrics_port`).
//! `--slowlog-log-slower-than` sets the `SLOWLOG` threshold in
//! microseconds (default 10000; negative disables).
//!
//! `--shards N` splits the keyspace into N writer shards (passthru
//! only): each shard runs its own writer thread, group-commit batch,
//! WAL region, and FDP placement ID, so shard WAL streams land in
//! distinct reclaim units and SET throughput scales with shards while
//! WAF stays 1.00. The default (1) is the classic single-writer path.
//!
//! Resource governance: `--maxmemory` bounds the engine's governed bytes
//! (keyspace + staged view ops + WAL buffer) — past it, writes get
//! `-OOM` while reads keep flowing; `--writer-queue` caps commands
//! queued to the writer thread — past it, connection threads park
//! briefly and overflow gets `-BUSY`; `--repl-feed-limit-mb` is the most
//! a replica may lag before the primary evicts it (it re-attaches via
//! partial resync). All three surface in `INFO`'s `# Resources` section.
//!
//! `--replica-of` starts the server as a replica: it full-syncs from the
//! given primary, applies its WAL stream through its own engine (and its
//! own WAL), serves reads, and rejects writes with `-READONLY` until a
//! client promotes it with `REPLICAOF NO ONE`.
//!
//! `--fault-plan` arms a deterministic device fault before the server
//! starts: `pc@N` (power cut at the Nth write command), `torn@N:B` (the
//! Nth write persists only its first B bytes, then power cuts), or
//! `fail@N[xK]` (writes N..N+K fail transiently). See `DEBUG FAULT` for
//! arming plans at runtime.

use slimio_imdb::LogPolicy;
use slimio_nvme::FaultPlan;
use slimio_server::{BackendKind, GovernorOpts, Server, ServerOpts, Store, StoreConfig};

struct Args {
    addr: String,
    port: u16,
    store: StoreConfig,
    opts_policy: LogPolicy,
    wal_snapshot_mb: u64,
    snapshot_chunk_kb: usize,
    fault_plan: Option<FaultPlan>,
    replica_of: Option<String>,
    repl_backlog_mb: usize,
    govern: GovernorOpts,
    metrics_port: Option<u16>,
    slowlog_threshold_us: i64,
}

fn usage() -> ! {
    eprintln!(
        "usage: slimio-server [--addr host] [--port n] [--backend kernel|passthru] [--fdp]\n\
         \x20                    [--ratio f] [--shards n] [--appendfsync always|everysec]\n\
         \x20                    [--wal-snapshot-mb n] [--snapshot-chunk-kb n]\n\
         \x20                    [--fault-plan pc@N|torn@N:B|fail@N[xK]|slow@N:US]\n\
         \x20                    [--replica-of host:port] [--repl-backlog-mb n]\n\
         \x20                    [--maxmemory bytes] [--writer-queue n] [--repl-feed-limit-mb n]\n\
         \x20                    [--metrics-port n] [--slowlog-log-slower-than us]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1".to_string(),
        port: 6400,
        store: StoreConfig::default(),
        opts_policy: LogPolicy::periodical_default(),
        wal_snapshot_mb: 256,
        snapshot_chunk_kb: 256,
        fault_plan: None,
        replica_of: None,
        repl_backlog_mb: 1,
        govern: GovernorOpts::default(),
        metrics_port: None,
        slowlog_threshold_us: 10_000,
    };
    let mut fdp_flag = false;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let next = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i - 1).cloned().unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        let flag = argv[i].clone();
        i += 1;
        match flag.as_str() {
            "--addr" => args.addr = next(&mut i),
            "--port" => args.port = next(&mut i).parse().unwrap_or_else(|_| usage()),
            "--backend" => {
                args.store.kind = match next(&mut i).as_str() {
                    "kernel" => BackendKind::Kernel,
                    "passthru" => BackendKind::Passthru,
                    _ => usage(),
                }
            }
            "--fdp" => fdp_flag = true,
            "--ratio" => args.store.ratio = next(&mut i).parse().unwrap_or_else(|_| usage()),
            "--shards" => {
                let n: usize = next(&mut i).parse().unwrap_or_else(|_| usage());
                if n == 0 || n > 16 {
                    eprintln!("slimio-server: --shards must be in 1..=16");
                    usage()
                }
                args.store.shards = n
            }
            "--appendfsync" => {
                args.opts_policy = match next(&mut i).as_str() {
                    "always" => LogPolicy::Always,
                    "everysec" => LogPolicy::periodical_default(),
                    _ => usage(),
                }
            }
            "--wal-snapshot-mb" => {
                args.wal_snapshot_mb = next(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--snapshot-chunk-kb" => {
                args.snapshot_chunk_kb = next(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--fault-plan" => {
                let spec = next(&mut i);
                args.fault_plan = Some(spec.parse().unwrap_or_else(|e| {
                    eprintln!("slimio-server: bad --fault-plan '{spec}': {e}");
                    usage()
                }))
            }
            "--replica-of" => {
                let spec = next(&mut i);
                if !spec.contains(':') {
                    eprintln!("slimio-server: --replica-of wants host:port, got '{spec}'");
                    usage()
                }
                args.replica_of = Some(spec)
            }
            "--repl-backlog-mb" => {
                args.repl_backlog_mb = next(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--maxmemory" => {
                args.govern.maxmemory = next(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--writer-queue" => {
                let cap: usize = next(&mut i).parse().unwrap_or_else(|_| usage());
                if cap == 0 {
                    eprintln!("slimio-server: --writer-queue must be >= 1");
                    usage()
                }
                args.govern.queue_cap = cap
            }
            "--repl-feed-limit-mb" => {
                args.govern.repl_feed_limit =
                    next(&mut i).parse::<u64>().unwrap_or_else(|_| usage()) << 20
            }
            "--metrics-port" => {
                args.metrics_port = Some(next(&mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--slowlog-log-slower-than" => {
                args.slowlog_threshold_us = next(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    // --fdp only matters for the passthru path; the kernel path always
    // runs over a conventional device, like the paper's baseline.
    args.store.fdp = fdp_flag && args.store.kind == BackendKind::Passthru;
    if args.store.shards > 1 && args.store.kind != BackendKind::Passthru {
        eprintln!("slimio-server: --shards > 1 requires --backend passthru");
        usage()
    }
    args
}

fn main() {
    let args = parse_args();
    let store = Store::new(args.store);
    if let Some(plan) = args.fault_plan {
        println!("slimio-server: fault plan armed: {plan}");
        store
            .device()
            .lock()
            .expect("device mutex poisoned")
            .arm_fault(plan);
    }
    let opts = ServerOpts {
        addr: format!("{}:{}", args.addr, args.port),
        policy: args.opts_policy,
        wal_snapshot_threshold: args.wal_snapshot_mb << 20,
        snapshot_chunk: args.snapshot_chunk_kb << 10,
        replica_of: args.replica_of.clone(),
        repl_backlog_bytes: args.repl_backlog_mb << 20,
        govern: args.govern,
        metrics_addr: args.metrics_port.map(|p| format!("{}:{}", args.addr, p)),
        slowlog_threshold_us: args.slowlog_threshold_us,
    };
    let handle = match Server::start(store, opts) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("slimio-server: failed to start: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "slimio-server listening on {} (backend {}{}, {} keys recovered, {} WAL records replayed{})",
        handle.addr(),
        args.store.kind.name(),
        match (args.store.fdp, args.store.shards) {
            (true, s) if s > 1 => format!("+fdp x{s} shards"),
            (true, _) => "+fdp".to_string(),
            (false, _) => String::new(),
        },
        handle.recovered_keys(),
        handle.wal_records_replayed(),
        match &args.replica_of {
            Some(p) => format!(", replica of {p}"),
            None => String::new(),
        },
    );
    if let Some(maddr) = handle.metrics_addr() {
        println!("slimio-server: metrics on http://{maddr}/metrics");
    }
    // Serve until a client sends SHUTDOWN.
    handle.join();
    println!("slimio-server: clean shutdown");
}
