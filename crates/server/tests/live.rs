//! End-to-end tests for live mode: a real server on an ephemeral port,
//! driven over TCP, killed without warning, and restarted on the same
//! backing store.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use slimio_imdb::LogPolicy;
use slimio_server::bench::{self, BenchOpts};
use slimio_server::resp::{self, Parser, Value};
use slimio_server::{BackendKind, Server, ServerHandle, ServerOpts};

mod common;
use common::{batch, cmd, info_field, send, store_for};

const RATIO: f64 = 1.0 / 64.0;

/// Every acked write must be durable, so a kill at any command boundary
/// loses nothing that was acknowledged.
fn opts_always() -> ServerOpts {
    ServerOpts {
        policy: LogPolicy::Always,
        wal_snapshot_threshold: 1 << 20,
        snapshot_chunk: 64 << 10,
        ..ServerOpts::default()
    }
}

fn wait_snapshot_done(port: u16) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if info_field(port, "snapshot_in_progress").as_deref() == Some("0") {
            return;
        }
        assert!(Instant::now() < deadline, "snapshot never finished");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn roundtrip_kill_recover(kind: BackendKind) {
    let handle = Server::start(store_for(kind, RATIO), opts_always()).expect("start");
    let port = handle.port();

    assert_eq!(send(port, &[b"PING"]), Value::Simple("PONG".into()));
    for i in 0..200u32 {
        let key = format!("key:{i:04}");
        let val = format!("value-{i}");
        assert_eq!(
            send(port, &[b"SET", key.as_bytes(), val.as_bytes()]),
            Value::ok(),
            "{kind:?} SET {i}"
        );
    }
    assert_eq!(send(port, &[b"GET", b"key:0042"]), Value::bulk(b"value-42"));
    assert_eq!(
        send(port, &[b"DEL", b"key:0000", b"key:0001"]),
        Value::Int(2)
    );
    assert_eq!(send(port, &[b"DEL", b"key:0000"]), Value::Int(0));
    assert_eq!(
        send(port, &[b"EXISTS", b"key:0002", b"key:0000"]),
        Value::Int(1)
    );
    assert_eq!(send(port, &[b"DBSIZE"]), Value::Int(198));

    assert_eq!(
        send(port, &[b"BGSAVE"]),
        Value::Simple("Background saving started".into())
    );
    wait_snapshot_done(port);

    for i in 200..250u32 {
        let key = format!("key:{i:04}");
        assert_eq!(
            send(port, &[b"SET", key.as_bytes(), b"post-save"]),
            Value::ok()
        );
    }

    // Kill without shutdown: only synced state survives. Under Always,
    // that is every acknowledged write.
    let store = handle.kill();
    let handle = Server::start(store, opts_always()).expect("restart");
    let port = handle.port();

    assert_eq!(handle.recovered_keys(), 248, "{kind:?}");
    assert_eq!(send(port, &[b"DBSIZE"]), Value::Int(248));
    assert_eq!(send(port, &[b"GET", b"key:0042"]), Value::bulk(b"value-42"));
    assert_eq!(
        send(port, &[b"GET", b"key:0249"]),
        Value::bulk(b"post-save")
    );
    assert_eq!(send(port, &[b"GET", b"key:0000"]), Value::Null);

    handle.shutdown();
}

#[test]
fn kernel_roundtrip_kill_recover() {
    roundtrip_kill_recover(BackendKind::Kernel);
}

#[test]
fn passthru_fdp_roundtrip_kill_recover() {
    roundtrip_kill_recover(BackendKind::Passthru);
}

/// Clean shutdown then restart must preserve the keyspace too, including
/// via a client-issued SHUTDOWN handled by `join()`.
#[test]
fn clean_shutdown_preserves_keyspace() {
    let handle =
        Server::start(store_for(BackendKind::Passthru, RATIO), opts_always()).expect("start");
    let port = handle.port();
    for i in 0..50u32 {
        let key = format!("clean:{i}");
        assert_eq!(send(port, &[b"SET", key.as_bytes(), b"v"]), Value::ok());
    }
    assert_eq!(send(port, &[b"SHUTDOWN"]), Value::ok());
    let store = handle.join();

    let handle = Server::start(store, opts_always()).expect("restart");
    let port = handle.port();
    assert_eq!(send(port, &[b"DBSIZE"]), Value::Int(50));
    handle.shutdown();
}

/// A pipelined client writes a burst with SHUTDOWN in the middle. Every
/// command in the burst — including the ones queued behind SHUTDOWN —
/// must receive a reply; pre-SHUTDOWN writes succeed, post-SHUTDOWN
/// commands are refused, and none are silently dropped on a dead channel.
#[test]
fn shutdown_replies_to_all_pipelined_commands() {
    const BEFORE: usize = 16;
    const AFTER: usize = 16;
    let handle =
        Server::start(store_for(BackendKind::Passthru, RATIO), opts_always()).expect("start");
    let port = handle.port();

    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut burst = Vec::new();
    for i in 0..BEFORE {
        let key = format!("pre:{i}");
        resp::encode_command(
            &[b"SET".to_vec(), key.into_bytes(), b"v".to_vec()],
            &mut burst,
        );
    }
    resp::encode_command(&[b"SHUTDOWN".to_vec()], &mut burst);
    for i in 0..AFTER {
        let key = format!("post:{i}");
        resp::encode_command(
            &[b"SET".to_vec(), key.into_bytes(), b"v".to_vec()],
            &mut burst,
        );
    }
    stream.write_all(&burst).unwrap();

    let mut parser = Parser::new();
    let mut rbuf = vec![0u8; 4096];
    let total = BEFORE + 1 + AFTER;
    let mut replies = Vec::new();
    while replies.len() < total {
        match bench::read_value(&mut stream, &mut parser, &mut rbuf) {
            Ok(v) => replies.push(v),
            Err(e) => panic!(
                "connection died after {} of {total} replies: {e}",
                replies.len()
            ),
        }
    }
    for (i, r) in replies.iter().take(BEFORE).enumerate() {
        assert_eq!(*r, Value::ok(), "pre-SHUTDOWN SET {i}");
    }
    assert_eq!(replies[BEFORE], Value::ok(), "SHUTDOWN reply");
    for (i, r) in replies.iter().skip(BEFORE + 1).enumerate() {
        assert!(
            matches!(r, Value::Error(msg) if msg.contains("shutting down")),
            "post-SHUTDOWN command {i} got {r:?}"
        );
    }
    handle.join();
}

/// Kill the server while a client is mid-burst. Every write the client
/// saw `+OK` for must be present after restart (Always = acked ⇒ synced);
/// unacked writes may or may not survive.
#[test]
fn mid_load_kill_recovers_all_acked_writes() {
    let handle =
        Server::start(store_for(BackendKind::Passthru, RATIO), opts_always()).expect("start");
    let port = handle.port();

    let acked = Arc::new(Mutex::new(Vec::<u32>::new()));
    let stop = Arc::new(AtomicBool::new(false));
    let client = {
        let acked = Arc::clone(&acked);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let Ok(mut stream) = TcpStream::connect(("127.0.0.1", port)) else {
                return;
            };
            let _ = stream.set_nodelay(true);
            let mut parser = Parser::new();
            let mut rbuf = vec![0u8; 4096];
            let mut out = Vec::new();
            for i in 0..u32::MAX {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let key = format!("load:{i:08}");
                out.clear();
                resp::encode_command(
                    &[b"SET".to_vec(), key.into_bytes(), vec![b'v'; 128]],
                    &mut out,
                );
                if stream.write_all(&out).is_err() {
                    break;
                }
                match bench::read_value(&mut stream, &mut parser, &mut rbuf) {
                    Ok(v) if v == Value::ok() => acked.lock().unwrap().push(i),
                    _ => break,
                }
            }
        })
    };

    // Let it push writes, then pull the plug mid-stream.
    std::thread::sleep(Duration::from_millis(400));
    let store = handle.kill();
    stop.store(true, Ordering::SeqCst);
    client.join().unwrap();

    let acked = acked.lock().unwrap();
    assert!(!acked.is_empty(), "client never got an ack");

    let handle = Server::start(store, opts_always()).expect("restart");
    let port = handle.port();
    for &i in acked.iter() {
        let key = format!("load:{i:08}");
        assert_eq!(
            send(port, &[b"GET", key.as_bytes()]),
            Value::bulk(vec![b'v'; 128]),
            "acked write load:{i:08} lost after kill"
        );
    }
    handle.shutdown();
}

/// The headline SlimIO result: after at least one full WAL-snapshot cycle
/// on the passthru+FDP path, device write amplification is exactly 1.00.
#[test]
fn passthru_fdp_waf_stays_one() {
    let opts = ServerOpts {
        policy: LogPolicy::Always,
        wal_snapshot_threshold: 64 << 10,
        snapshot_chunk: 16 << 10,
        ..ServerOpts::default()
    };
    let handle = Server::start(store_for(BackendKind::Passthru, RATIO), opts).expect("start");
    let port = handle.port();

    let value = vec![b'w'; 4096];
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut i = 0u32;
    loop {
        let key = format!("waf:{i:06}");
        assert_eq!(send(port, &[b"SET", key.as_bytes(), &value]), Value::ok());
        i += 1;
        if i.is_multiple_of(16)
            && info_field(port, "wal_snapshots")
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0)
                >= 1
        {
            break;
        }
        assert!(Instant::now() < deadline, "WAL snapshot never triggered");
    }
    wait_snapshot_done(port);

    assert_eq!(
        info_field(port, "waf").as_deref(),
        Some("1.00"),
        "passthru+FDP must keep device WAF at exactly 1.00"
    );
    handle.shutdown();
}

/// Group commit never reorders replies within a connection: a pipelined
/// burst that interleaves SETs and GETs over the same keys must get its
/// replies back in request order, each GET observing the SET sent just
/// before it — across batch boundaries too (the burst is bigger than one
/// writer batch).
#[test]
fn group_commit_preserves_reply_order_within_connection() {
    const ROUNDS: usize = 200;
    let handle =
        Server::start(store_for(BackendKind::Passthru, RATIO), opts_always()).expect("start");
    let port = handle.port();

    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut burst = Vec::new();
    for i in 0..ROUNDS {
        let val = format!("v{i}");
        resp::encode_command(
            &[b"SET".to_vec(), b"ord:key".to_vec(), val.into_bytes()],
            &mut burst,
        );
        resp::encode_command(&[b"GET".to_vec(), b"ord:key".to_vec()], &mut burst);
    }
    stream.write_all(&burst).unwrap();

    let mut parser = Parser::new();
    let mut rbuf = vec![0u8; 64 << 10];
    for i in 0..ROUNDS {
        let set_reply = bench::read_value(&mut stream, &mut parser, &mut rbuf).expect("set reply");
        assert_eq!(set_reply, Value::ok(), "round {i}: SET reply out of order");
        let get_reply = bench::read_value(&mut stream, &mut parser, &mut rbuf).expect("get reply");
        assert_eq!(
            get_reply,
            Value::bulk(format!("v{i}").as_bytes()),
            "round {i}: GET did not observe the SET pipelined just before it"
        );
    }
    handle.shutdown();
}

/// `appendfsync everysec` with an interval that never elapses here: the
/// user-level WAL buffer must still stay bounded — the writer commits a
/// batch like an `Always` one once the buffer reaches its cap — and what
/// a cap flushed must have been synced too, so a kill keeps it. Without
/// the cap all 8 MiB sit in the buffer and the restart recovers nothing.
#[test]
fn everysec_wal_buffer_is_capped_and_cap_flushes_are_synced() {
    const WRITES: usize = 2048;
    const KEYS: usize = 16;
    const VAL: usize = 4096;
    /// The writer's cap plus one full batch on top of it.
    const BUFFER_BOUND: usize = (1 << 20) + 128 * (VAL + 64);
    let opts = ServerOpts {
        policy: LogPolicy::Periodical {
            flush_interval: slimio_des::SimTime::from_secs(3600),
        },
        ..ServerOpts::default()
    };
    let handle =
        Server::start(store_for(BackendKind::Passthru, RATIO), opts.clone()).expect("start");
    let port = handle.port();

    // 8 MiB of SETs over a tiny keyspace, so governed memory is the
    // buffer and little else. Each value leads with its write index.
    let key = |i: usize| format!("cap:{:02}", i % KEYS).into_bytes();
    let cmds: Vec<_> = (0..WRITES)
        .map(|i| {
            let mut val = format!("{i:08}").into_bytes();
            val.resize(VAL, b'.');
            cmd(&[b"SET", &key(i), &val])
        })
        .collect();
    for reply in batch(port, &cmds) {
        assert_eq!(reply, Value::ok());
    }
    let peak: usize = info_field(port, "engine_peak_bytes")
        .expect("INFO engine_peak_bytes")
        .parse()
        .unwrap();
    assert!(
        peak < KEYS * (VAL + 128) + BUFFER_BOUND,
        "governed memory peaked at {peak} B: the everysec buffer is not bounded"
    );

    let handle = Server::start(handle.kill(), opts).expect("restart");
    let port = handle.port();
    let index_of = |k: usize| match send(port, &[b"GET", &key(k)]) {
        Value::Bulk(v) => Some(std::str::from_utf8(&v[..8]).unwrap().parse().unwrap()),
        Value::Null => None,
        other => panic!("GET -> {other:?}"),
    };
    let recovered: Vec<Option<usize>> = (0..KEYS).map(index_of).collect();
    let newest = recovered.iter().flatten().copied().max().unwrap_or(0);
    assert!(
        newest + BUFFER_BOUND / VAL >= WRITES,
        "write {newest} of {WRITES} is the newest recovered: cap flushes were not synced"
    );
    // And it is a prefix: each key holds its last write at or before
    // `newest`.
    for (k, got) in recovered.iter().enumerate() {
        let want = (0..=newest).rev().find(|i| i % KEYS == k);
        assert_eq!(*got, want, "key {k} after recovering up to write {newest}");
    }
    handle.shutdown();
}

/// The batched path must not be slower than the unbatched one: on the
/// same seed and workload, Always-Log throughput with pipeline 16 must
/// beat pipeline 1 (in practice by a wide margin — one sync covers the
/// whole batch).
#[test]
fn pipelined_always_rps_at_least_unbatched() {
    fn run_with_pipeline(pipeline: usize) -> f64 {
        let handle =
            Server::start(store_for(BackendKind::Passthru, RATIO), opts_always()).expect("start");
        let opts = BenchOpts {
            port: handle.port(),
            clients: 4,
            requests: 4000,
            value_len: 64,
            keyspace: 500,
            seed: 42,
            pipeline,
            ..BenchOpts::default()
        };
        let report = bench::run(&opts).expect("bench run");
        assert_eq!(report.ops, 4000, "pipeline {pipeline}");
        assert_eq!(report.errors, 0, "pipeline {pipeline}");
        handle.shutdown();
        report.rps()
    }

    let unbatched = run_with_pipeline(1);
    let batched = run_with_pipeline(16);
    assert!(
        batched >= unbatched,
        "group commit made the pipelined path slower: P16 {batched:.0} rps vs P1 {unbatched:.0} rps"
    );
}

/// The bundled load generator completes, counts every request, and
/// reports sane latency percentiles.
#[test]
fn bench_smoke_reports_throughput() {
    fn run_against(handle: &ServerHandle) -> bench::BenchReport {
        let opts = BenchOpts {
            port: handle.port(),
            clients: 4,
            requests: 2000,
            value_len: 64,
            keyspace: 500,
            ..BenchOpts::default()
        };
        bench::run(&opts).expect("bench run")
    }

    for kind in [BackendKind::Kernel, BackendKind::Passthru] {
        let handle = Server::start(store_for(kind, RATIO), opts_always()).expect("start");
        let report = run_against(&handle);
        assert_eq!(report.ops, 2000, "{kind:?}");
        assert_eq!(report.errors, 0, "{kind:?}");
        assert!(report.rps() > 0.0, "{kind:?}");
        assert!(report.hist.p99() >= report.hist.p50(), "{kind:?}");
        let dbsize = send(handle.port(), &[b"DBSIZE"]);
        match dbsize {
            Value::Int(n) => assert!(n > 0 && n <= 500, "{kind:?}: {n}"),
            other => panic!("{kind:?}: DBSIZE returned {other:?}"),
        }
        handle.shutdown();
    }
}
