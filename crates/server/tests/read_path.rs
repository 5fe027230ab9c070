//! Consistency tests for the lock-free read path: GET/EXISTS/PING are
//! served on connection threads straight from the epoch-published view,
//! so these tests pin down the guarantees that split must preserve:
//!
//! - **Read-your-writes.** A connection that pipelines `SET k v` then
//!   `GET k` sees `v` — its own ack stalls the local read until the
//!   writer publishes that batch.
//! - **Monotonic reads.** A connection never observes a value older
//!   than one it already saw for the same key, even while another
//!   connection overwrites the key as fast as it can.
//! - **Reply order.** Local replies never overtake writer replies owed
//!   earlier on the same connection — an interleaved burst comes back
//!   in exact request order.
//! - **Reads stay off the storage stack.** A pipelined GET storm issues
//!   zero device write commands and grows the WAL by zero bytes.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use slimio_imdb::view::MAX_READERS;
use slimio_imdb::LogPolicy;
use slimio_server::bench::{self, BenchOpts};
use slimio_server::resp::{self, Parser, Value};
use slimio_server::{BackendKind, Server, ServerOpts};

mod common;
use common::{connect, sample, scrape, store_for};

const RATIO: f64 = 1.0 / 64.0;

fn opts_always() -> ServerOpts {
    ServerOpts {
        policy: LogPolicy::Always,
        ..ServerOpts::default()
    }
}

/// Encodes `parts` into `out` as one RESP command.
fn push_cmd(out: &mut Vec<u8>, parts: &[&[u8]]) {
    resp::encode_command_slices(parts, out);
}

fn read_reply(stream: &mut TcpStream, parser: &mut Parser, rbuf: &mut [u8]) -> Value {
    bench::read_value(stream, parser, rbuf).expect("reply")
}

/// One writer connection pipelines `SET k v_i; GET k; EXISTS k` bursts
/// while hammer connections spin on pipelined GETs of the same key. The
/// writer's GET must return exactly the value it just wrote (its SET was
/// acked earlier in the same reply stream), and every hammer connection
/// must observe the version counter moving only forward.
#[test]
fn read_your_writes_and_monotonic_reads_under_hammer() {
    const ROUNDS: u64 = 300;
    const HAMMERS: usize = 3;
    const HAMMER_PIPELINE: usize = 8;
    let handle =
        Server::start(store_for(BackendKind::Passthru, RATIO), opts_always()).expect("start");
    let port = handle.port();

    // Seed so hammers always hit.
    let mut stream = connect(port);
    let mut parser = Parser::new();
    let mut rbuf = vec![0u8; 64 << 10];
    let mut out = Vec::new();
    push_cmd(&mut out, &[b"SET", b"ryw:key", b"a:00000000"]);
    stream.write_all(&out).unwrap();
    assert_eq!(read_reply(&mut stream, &mut parser, &mut rbuf), Value::ok());

    let stop = Arc::new(AtomicBool::new(false));
    let hammers: Vec<_> = (0..HAMMERS)
        .map(|t| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut stream = connect(port);
                let mut parser = Parser::new();
                let mut rbuf = vec![0u8; 64 << 10];
                let mut out = Vec::new();
                let mut last = 0u64;
                let mut reads = 0u64;
                while !stop.load(Ordering::Acquire) {
                    out.clear();
                    for _ in 0..HAMMER_PIPELINE {
                        push_cmd(&mut out, &[b"GET", b"ryw:key"]);
                    }
                    stream.write_all(&out).unwrap();
                    for _ in 0..HAMMER_PIPELINE {
                        let Value::Bulk(b) = read_reply(&mut stream, &mut parser, &mut rbuf) else {
                            panic!("hammer {t}: GET of seeded key not bulk");
                        };
                        let s = std::str::from_utf8(&b).expect("torn value");
                        let i: u64 = s
                            .strip_prefix("a:")
                            .and_then(|x| x.parse().ok())
                            .unwrap_or_else(|| panic!("hammer {t}: malformed value {s:?}"));
                        assert!(
                            i >= last,
                            "hammer {t}: monotonic reads violated ({i} after {last})"
                        );
                        last = i;
                        reads += 1;
                    }
                }
                reads
            })
        })
        .collect();

    for i in 1..=ROUNDS {
        let val = format!("a:{i:08}");
        out.clear();
        push_cmd(&mut out, &[b"SET", b"ryw:key", val.as_bytes()]);
        push_cmd(&mut out, &[b"GET", b"ryw:key"]);
        push_cmd(&mut out, &[b"EXISTS", b"ryw:key"]);
        stream.write_all(&out).unwrap();
        assert_eq!(
            read_reply(&mut stream, &mut parser, &mut rbuf),
            Value::ok(),
            "round {i}: SET"
        );
        assert_eq!(
            read_reply(&mut stream, &mut parser, &mut rbuf),
            Value::bulk(val.as_bytes()),
            "round {i}: read-your-writes violated — GET missed own acked SET"
        );
        assert_eq!(
            read_reply(&mut stream, &mut parser, &mut rbuf),
            Value::Int(1),
            "round {i}: EXISTS"
        );
    }
    stop.store(true, Ordering::Release);
    let total: u64 = hammers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total > 0, "hammer connections never completed a read");
    handle.shutdown();
}

/// One connection pipelines a burst that alternates writer-routed
/// commands (SET/DEL) with locally-served ones (GET/EXISTS/PING); the
/// replies must come back in exact request order with the values the
/// sequential program implies — local serving may never let a read
/// overtake a write queued before it.
#[test]
fn mixed_pipeline_replies_in_exact_request_order() {
    const ROUNDS: usize = 100;
    let handle =
        Server::start(store_for(BackendKind::Kernel, RATIO), opts_always()).expect("start");
    let port = handle.port();
    let mut stream = connect(port);
    let mut parser = Parser::new();
    let mut rbuf = vec![0u8; 64 << 10];

    let mut out = Vec::new();
    let mut expect: Vec<Value> = Vec::new();
    for i in 0..ROUNDS {
        let val = format!("m{i}");
        push_cmd(&mut out, &[b"SET", b"mix:key", val.as_bytes()]);
        expect.push(Value::ok());
        push_cmd(&mut out, &[b"GET", b"mix:key"]);
        expect.push(Value::bulk(val.as_bytes()));
        push_cmd(&mut out, &[b"PING"]);
        expect.push(Value::Simple("PONG".into()));
        push_cmd(&mut out, &[b"EXISTS", b"mix:key", b"mix:none"]);
        expect.push(Value::Int(1));
        push_cmd(&mut out, &[b"DEL", b"mix:key"]);
        expect.push(Value::Int(1));
        push_cmd(&mut out, &[b"GET", b"mix:key"]);
        expect.push(Value::Null);
        push_cmd(&mut out, &[b"EXISTS", b"mix:key"]);
        expect.push(Value::Int(0));
    }
    stream.write_all(&out).unwrap();
    for (i, want) in expect.iter().enumerate() {
        let got = read_reply(&mut stream, &mut parser, &mut rbuf);
        assert_eq!(got, *want, "reply {i} out of order or wrong");
    }
    handle.shutdown();
}

/// GETs served from the view must never reach the storage stack: after
/// the write phase settles, a pipelined GET storm leaves the device's
/// write-command counter and the WAL length exactly where they were.
#[test]
fn get_storm_issues_zero_device_writes() {
    for kind in [BackendKind::Kernel, BackendKind::Passthru] {
        let store = store_for(kind, RATIO);
        let device = store.device().clone();
        let handle = Server::start(store, opts_always()).expect("start");
        let port = handle.port();

        // Write phase: populate the keyspace through the writer.
        let write_opts = BenchOpts {
            port,
            clients: 2,
            requests: 2_000,
            value_len: 64,
            keyspace: 500,
            pipeline: 16,
            ..BenchOpts::default()
        };
        let report = bench::run(&write_opts).expect("write phase");
        assert_eq!(report.errors, 0, "{kind:?}: write phase errors");

        let writes_before = device.counters().write_commands;

        // Read phase: 100% GETs, pipelined, several connections.
        let read_opts = BenchOpts {
            port,
            clients: 4,
            requests: 8_000,
            value_len: 64,
            keyspace: 500,
            pipeline: 16,
            get_ratio: 100,
            ..BenchOpts::default()
        };
        let report = bench::run(&read_opts).expect("read phase");
        assert_eq!(report.errors, 0, "{kind:?}: read phase errors");
        assert_eq!(report.ops, 8_000, "{kind:?}: read phase short");

        let writes_after = device.counters().write_commands;
        assert_eq!(
            writes_before, writes_after,
            "{kind:?}: GET storm issued device write commands"
        );
        handle.shutdown();
    }
}

/// Connection number `MAX_READERS + 1` gets no reader slot, so its
/// GET/EXISTS/PING go through the shard writer instead of the view — the
/// read-path series stays put — with the same answers, read-your-writes
/// and reply order. Once a slot holder closes, a fresh connection is
/// served from the view again.
#[test]
fn reads_stay_correct_when_reader_slots_are_exhausted() {
    let opts = ServerOpts {
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..opts_always()
    };
    let handle = Server::start(store_for(BackendKind::Passthru, RATIO), opts).expect("start");
    let port = handle.port();
    let mport = handle.metrics_addr().expect("metrics bound").port();
    let local_reads = || sample(&scrape(mport), "slimio_read_seconds_count").expect("series");
    let mut rbuf = vec![0u8; 16 << 10];
    // A connection takes its slot when the server accepts it; a PING
    // round trip proves that has happened.
    let mut idle: Vec<TcpStream> = (0..MAX_READERS).map(|_| connect(port)).collect();
    let mut ping = Vec::new();
    push_cmd(&mut ping, &[b"PING"]);
    for c in &mut idle {
        c.write_all(&ping).unwrap();
        let pong = read_reply(c, &mut Parser::new(), &mut rbuf);
        assert_eq!(pong, Value::Simple("PONG".into()));
    }
    // SET / GET / PING / EXISTS pipelined on one fresh connection;
    // returns how many of its reads the view served.
    let mut round = |key: &[u8]| {
        let before = local_reads();
        let mut stream = connect(port);
        let mut out = Vec::new();
        push_cmd(&mut out, &[b"SET", key, b"v1"]);
        push_cmd(&mut out, &[b"GET", key]);
        push_cmd(&mut out, &[b"PING"]);
        push_cmd(&mut out, &[b"EXISTS", key]);
        stream.write_all(&out).unwrap();
        let mut parser = Parser::new();
        for want in [
            Value::ok(),
            Value::bulk(b"v1"),
            Value::Simple("PONG".into()),
            Value::Int(1),
        ] {
            assert_eq!(read_reply(&mut stream, &mut parser, &mut rbuf), want);
        }
        local_reads() - before
    };
    assert_eq!(
        round(b"nw:257"),
        0.0,
        "connection 257 must be writer-routed"
    );
    // The server frees the slot when the closed connection's thread sees
    // EOF, which is asynchronous to this client: retry until it has.
    drop(idle.pop());
    let deadline = Instant::now() + Duration::from_secs(20);
    while round(b"nw:fresh") != 2.0 {
        assert!(Instant::now() < deadline, "freed reader slot never reused");
    }
    handle.shutdown();
}
