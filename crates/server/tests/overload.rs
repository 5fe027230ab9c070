//! Overload and resource-governance tests: a live server driven past its
//! configured bounds — slowed device, pipelined write floods, memory
//! caps, slow consumers, stalled replicas, panicking connection threads
//! — asserting it degrades to bounded queues and explicit refusals
//! (`-BUSY`, `-OOM`, eviction) instead of unbounded buffering or a
//! poisoned-lock cascade.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use slimio_imdb::LogPolicy;
use slimio_server::resp::{self, Parser, Value};
use slimio_server::{BackendKind, GovernorOpts, Server, ServerOpts};

mod common;
use common::{cmd, info_field, send, store_for};

const RATIO: f64 = 1.0 / 64.0;

fn opts(govern: GovernorOpts) -> ServerOpts {
    ServerOpts {
        policy: LogPolicy::Always,
        govern,
        ..ServerOpts::default()
    }
}

fn info_u64(port: u16, field: &str) -> u64 {
    info_field(port, field)
        .unwrap_or_else(|| panic!("INFO missing {field}"))
        .parse()
        .unwrap_or_else(|_| panic!("INFO {field} not a number"))
}

/// Polls INFO until `field` satisfies `pred` or the deadline lapses.
fn wait_info(port: u16, field: &str, pred: impl Fn(u64) -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if pred(info_u64(port, field)) {
            return;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Writes every command in one burst, then collects every reply.
fn pipeline(port: u16, cmds: &[Vec<Vec<u8>>], deadline: Duration) -> Vec<Value> {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    let mut buf = Vec::new();
    for c in cmds {
        resp::encode_command(c, &mut buf);
    }
    stream.write_all(&buf).expect("pipeline write");
    let mut parser = Parser::new();
    let mut rbuf = vec![0u8; 64 << 10];
    let mut out = Vec::new();
    let t_end = Instant::now() + deadline;
    while out.len() < cmds.len() {
        if let Some(v) = parser.next_value().expect("bad RESP from server") {
            out.push(v);
            continue;
        }
        assert!(
            Instant::now() < t_end,
            "pipeline stalled at {}/{} replies",
            out.len(),
            cmds.len()
        );
        match stream.read(&mut rbuf) {
            Ok(0) => panic!("server closed mid-pipeline at {}/{}", out.len(), cmds.len()),
            Ok(n) => parser.feed(&rbuf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => panic!("pipeline read failed: {e}"),
        }
    }
    out
}

fn err_text(v: &Value) -> Option<&str> {
    match v {
        Value::Error(e) => Some(e.as_str()),
        _ => None,
    }
}

/// A pipelined write flood against a device slowed 20 ms per write must
/// keep the admission queue at its configured bound (high-water from
/// INFO), refuse the overflow with `-BUSY`, and leave the read path and
/// INFO responsive throughout.
#[test]
fn flood_against_slow_device_bounds_queue_and_refuses_busy() {
    let handle = Server::start(
        store_for(BackendKind::Kernel, RATIO),
        opts(GovernorOpts {
            queue_cap: 8,
            admit_park: Duration::from_millis(5),
            ..GovernorOpts::default()
        }),
    )
    .expect("start");
    let port = handle.port();

    assert_eq!(send(port, &[b"SET", b"seed", b"v"]), Value::ok());
    assert_eq!(
        send(port, &[b"DEBUG", b"FAULT", b"slow@1:20000"]),
        Value::ok()
    );

    // Flood from a second thread while this one watches the read path.
    let flood = std::thread::spawn(move || {
        let cmds: Vec<Vec<Vec<u8>>> = (0..300)
            .map(|i| {
                let k = format!("flood:{i}");
                cmd(&[b"SET", k.as_bytes(), b"xxxxxxxxxxxxxxxx"])
            })
            .collect();
        pipeline(port, &cmds, Duration::from_secs(60))
    });

    // While the writer is saturated, lock-free GETs must stay fast and
    // INFO must keep answering. Bound each read generously — the point
    // is bounded, not instant.
    let mut read_worst = Duration::ZERO;
    for _ in 0..20 {
        let t0 = Instant::now();
        assert_eq!(send(port, &[b"GET", b"seed"]), Value::bulk(b"v"));
        read_worst = read_worst.max(t0.elapsed());
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        read_worst < Duration::from_secs(5),
        "read path latency unbounded under flood: {read_worst:?}"
    );
    assert!(
        info_field(port, "writer_queue_cap").is_some(),
        "INFO dead under flood"
    );

    let replies = flood.join().expect("flood thread");
    let ok = replies.iter().filter(|v| **v == Value::ok()).count();
    let busy = replies
        .iter()
        .filter(|v| err_text(v).is_some_and(|e| e.starts_with("BUSY")))
        .count();
    assert_eq!(ok + busy, replies.len(), "only OK or -BUSY expected");
    assert!(busy > 0, "flood past a full queue must see -BUSY refusals");
    assert!(ok > 0, "some writes must still land");

    assert_eq!(send(port, &[b"DEBUG", b"FAULT", b"OFF"]), Value::ok());
    let hwm = info_u64(port, "writer_queue_hwm");
    assert!(
        (1..=8).contains(&hwm),
        "queue high-water {hwm} escaped its configured bound 8"
    );
    assert!(info_u64(port, "busy_refused") >= busy as u64);
    assert_eq!(info_u64(port, "writer_queue_depth"), 0, "queue must drain");
    handle.shutdown();
}

/// Past `--maxmemory`, SET gets `-OOM` while GET and DEL keep working;
/// deleting enough frees headroom for writes again.
#[test]
fn maxmemory_refuses_writes_while_reads_and_deletes_flow() {
    let handle = Server::start(
        store_for(BackendKind::Kernel, RATIO),
        opts(GovernorOpts {
            maxmemory: 24 << 10,
            ..GovernorOpts::default()
        }),
    )
    .expect("start");
    let port = handle.port();

    let val = vec![b'v'; 1024];
    let mut accepted = 0u32;
    let mut oomed = false;
    for i in 0..64u32 {
        let key = format!("mem:{i:03}");
        match send(port, &[b"SET", key.as_bytes(), &val]) {
            v if v == Value::ok() => accepted += 1,
            v => {
                let e = err_text(&v).expect("SET reply must be OK or error");
                assert!(e.starts_with("OOM"), "expected -OOM, got {e:?}");
                oomed = true;
                break;
            }
        }
    }
    assert!(oomed, "64 KiB of writes never tripped a 24 KiB maxmemory");
    assert!(
        accepted >= 8,
        "bound tripped far too early ({accepted} sets)"
    );

    // Reads flow; so do deletes — they are the way out.
    assert_eq!(send(port, &[b"GET", b"mem:000"]), Value::bulk(&val[..]));
    assert!(info_u64(port, "oom_refused") >= 1);
    assert!(info_u64(port, "engine_bytes") > 0);
    for i in 0..accepted {
        let key = format!("mem:{i:03}");
        assert_eq!(send(port, &[b"DEL", key.as_bytes()]), Value::Int(1));
    }
    assert_eq!(
        send(port, &[b"SET", b"after", &val]),
        Value::ok(),
        "freed memory must re-admit writes"
    );
    handle.shutdown();
}

/// Deep pipelines drain mid-burst at the per-connection in-flight cap:
/// every command still succeeds, in order.
#[test]
fn deep_pipeline_survives_small_inflight_cap() {
    let handle = Server::start(
        store_for(BackendKind::Kernel, RATIO),
        opts(GovernorOpts {
            conn_inflight_cap: 4,
            ..GovernorOpts::default()
        }),
    )
    .expect("start");
    let port = handle.port();
    let cmds: Vec<Vec<Vec<u8>>> = (0..64)
        .map(|i| {
            let k = format!("deep:{i}");
            cmd(&[b"SET", k.as_bytes(), b"v"])
        })
        .collect();
    let replies = pipeline(port, &cmds, Duration::from_secs(30));
    assert!(replies.iter().all(|v| *v == Value::ok()));
    assert_eq!(send(port, &[b"DBSIZE"]), Value::Int(64));
    handle.shutdown();
}

/// A client that requests megabytes of replies and never reads its
/// socket is evicted at the write-stall timeout, reclaiming its buffers,
/// while other clients stay unaffected.
#[test]
fn slow_client_is_evicted_at_the_write_stall_timeout() {
    let handle = Server::start(
        store_for(BackendKind::Kernel, RATIO),
        opts(GovernorOpts {
            reply_buf_soft_limit: 4 << 10,
            client_write_stall: Duration::from_millis(300),
            ..GovernorOpts::default()
        }),
    )
    .expect("start");
    let port = handle.port();

    let big = vec![b'x'; 64 << 10];
    assert_eq!(send(port, &[b"SET", b"big", &big]), Value::ok());

    // 600 pipelined GETs of 64 KiB ≈ 38 MiB of replies — far past any
    // kernel socket buffer — and the client never reads a byte.
    let mut hog = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    hog.set_nodelay(true).unwrap();
    let mut burst = Vec::new();
    for _ in 0..600 {
        resp::encode_command(&cmd(&[b"GET", b"big"]), &mut burst);
    }
    hog.write_all(&burst).expect("burst write");

    wait_info(port, "evicted_clients", |v| v >= 1, "slow-client eviction");
    // The server stays healthy for everyone else.
    assert_eq!(send(port, &[b"GET", b"big"]), Value::bulk(&big[..]));
    drop(hog);
    handle.shutdown();
}

/// `WAIT` semantics under no replicas: a finite timeout returns the
/// acked count when it lapses; `timeout 0` blocks until satisfied (or
/// server stop), never instantly.
#[test]
fn wait_honors_timeouts_and_blocks_on_zero() {
    let handle = Server::start(
        store_for(BackendKind::Kernel, RATIO),
        opts(GovernorOpts::default()),
    )
    .expect("start");
    let port = handle.port();
    assert_eq!(send(port, &[b"SET", b"k", b"v"]), Value::ok());

    // Finite timeout: lapse and report 0 acked replicas.
    let t0 = Instant::now();
    assert_eq!(send(port, &[b"WAIT", b"1", b"150"]), Value::Int(0));
    let waited = t0.elapsed();
    assert!(
        waited >= Duration::from_millis(140),
        "WAIT returned before its timeout ({waited:?})"
    );
    assert!(waited < Duration::from_secs(10), "WAIT overshot wildly");

    // Zero replicas needed is satisfied immediately.
    let t0 = Instant::now();
    assert_eq!(send(port, &[b"WAIT", b"0", b"0"]), Value::Int(0));
    assert!(t0.elapsed() < Duration::from_secs(1));

    // `timeout 0` blocks forever: still parked after 400 ms, and the
    // INFO blocked_clients gauge sees it; server shutdown releases it.
    let blocked = std::thread::spawn(move || {
        let t0 = Instant::now();
        let v = send(port, &[b"WAIT", b"1", b"0"]);
        (v, t0.elapsed())
    });
    wait_info(port, "blocked_clients", |v| v >= 1, "WAIT to park");
    std::thread::sleep(Duration::from_millis(400));
    assert!(!blocked.is_finished(), "WAIT 1 0 must not return early");
    let store_back = handle.shutdown();
    let (v, waited) = blocked.join().expect("blocked WAIT thread");
    assert_eq!(v, Value::Int(0), "released WAIT reports the acked count");
    assert!(waited >= Duration::from_millis(400));
    drop(store_back);
}

/// A panicking connection thread (DEBUG PANIC unwinds it mid-command)
/// must not hurt the server: INFO still answers with latency stats, new
/// connections attach, and the client gauge recovers.
#[test]
fn poisoned_connection_locks_do_not_cascade() {
    let handle = Server::start(
        store_for(BackendKind::Kernel, RATIO),
        opts(GovernorOpts::default()),
    )
    .expect("start");
    let port = handle.port();
    assert_eq!(send(port, &[b"SET", b"k", b"v"]), Value::ok());

    for round in 0..2 {
        let mut victim = TcpStream::connect(("127.0.0.1", port)).expect("connect");
        victim.set_nodelay(true).unwrap();
        let mut buf = Vec::new();
        resp::encode_command(&cmd(&[b"DEBUG", b"PANIC"]), &mut buf);
        victim.write_all(&buf).expect("send DEBUG PANIC");
        // The thread dies mid-command: no reply, just EOF (or reset).
        victim
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut sink = [0u8; 64];
        let _ = victim.read(&mut sink);
        drop(victim);

        // Gauge and INFO both survived the unwound thread.
        // The polling connection counts itself, so "settled" is 1, not
        // 0 — what matters is the dead victim was unregistered.
        wait_info(
            port,
            "connected_clients",
            |v| v <= 1,
            "client gauge to settle",
        );
        let Value::Bulk(text) = send(port, &[b"INFO"]) else {
            panic!("INFO did not answer after panic round {round}");
        };
        let text = String::from_utf8_lossy(&text).into_owned();
        assert!(text.contains("latency_p50_us:"), "histogram stats gone");
        assert!(text.contains("# Resources"), "resources section gone");
        assert_eq!(send(port, &[b"GET", b"k"]), Value::bulk(b"v"));
        assert_eq!(send(port, &[b"SET", b"k2", b"v2"]), Value::ok());
    }
    handle.shutdown();
}

/// Reads the FULLRESYNC preamble a fake replica sees: the header line
/// and the snapshot bulk, returning (replid, offset, leftover raw bytes).
fn read_fullresync(stream: &mut TcpStream, parser: &mut Parser) -> (String, u64) {
    let mut rbuf = vec![0u8; 64 << 10];
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut header: Option<(String, u64)> = None;
    loop {
        match parser.next_value().expect("bad RESP preamble") {
            Some(Value::Simple(s)) if header.is_none() => {
                let rest = s.strip_prefix("FULLRESYNC ").expect("expected FULLRESYNC");
                let mut it = rest.split_whitespace();
                let replid = it.next().expect("replid").to_string();
                let offset = it.next().and_then(|o| o.parse().ok()).expect("offset");
                header = Some((replid, offset));
            }
            Some(Value::Bulk(_)) if header.is_some() => return header.unwrap(),
            Some(other) => panic!("unexpected preamble value: {other:?}"),
            None => {
                assert!(Instant::now() < deadline, "preamble never arrived");
                match stream.read(&mut rbuf) {
                    Ok(0) => panic!("primary closed during preamble"),
                    Ok(n) => parser.feed(&rbuf[..n]),
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut => {}
                    Err(e) => panic!("preamble read failed: {e}"),
                }
            }
        }
    }
}

/// A replica that attaches, then stalls (never acks, never reads past
/// the snapshot) is evicted once it lags the feed limit — and can come
/// back with `PSYNC <replid> <offset>`, receive `+CONTINUE` with the
/// backlog tail, ack it, and count toward `WAIT` again.
#[test]
fn stalled_replica_is_evicted_then_recovers_via_partial_resync() {
    let handle = Server::start(
        store_for(BackendKind::Kernel, RATIO),
        opts(GovernorOpts {
            repl_feed_limit: 2048,
            ..GovernorOpts::default()
        }),
    )
    .expect("start");
    let port = handle.port();
    assert_eq!(send(port, &[b"SET", b"seed", b"v"]), Value::ok());

    // Fake replica: full handshake, then total silence — no acks.
    let mut stall = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    stall.set_nodelay(true).unwrap();
    stall
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let mut hello = Vec::new();
    resp::encode_command(&cmd(&[b"REPLCONF", b"listening-port", b"1"]), &mut hello);
    resp::encode_command(&cmd(&[b"PSYNC", b"?", b"-1"]), &mut hello);
    stall.write_all(&hello).expect("handshake");
    let mut parser = Parser::new();
    let (replid, base) = read_ok_then_fullresync(&mut stall, &mut parser);
    wait_info(port, "connected_replicas", |v| v == 1, "replica to attach");

    // Push well past the 2 KiB feed limit; the stalled peer never
    // acks, so the publishing writer evicts it.
    for i in 0..80u32 {
        let key = format!("r:{i:03}");
        let val = vec![b'r'; 100];
        assert_eq!(send(port, &[b"SET", key.as_bytes(), &val]), Value::ok());
    }
    wait_info(port, "evicted_replicas", |v| v >= 1, "replica eviction");
    wait_info(port, "connected_replicas", |v| v == 0, "peer list to clear");
    drop(stall);

    // Reconnect claiming the FULLRESYNC offset: everything since
    // is still in the backlog, so the primary must answer
    // +CONTINUE and ship the missing tail.
    let mut back = TcpStream::connect(("127.0.0.1", port)).expect("reconnect");
    back.set_nodelay(true).unwrap();
    back.set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let mut hello = Vec::new();
    resp::encode_command(&cmd(&[b"REPLCONF", b"listening-port", b"1"]), &mut hello);
    let off = base.to_string();
    resp::encode_command(
        &cmd(&[b"PSYNC", replid.as_bytes(), off.as_bytes()]),
        &mut hello,
    );
    back.write_all(&hello).expect("re-handshake");
    let mut parser = Parser::new();
    expect_ok(&mut back, &mut parser);
    match read_simple(&mut back, &mut parser) {
        s if s == "CONTINUE" => {}
        s => panic!("expected +CONTINUE after eviction, got +{s}"),
    }
    // Consume the tail up to the primary's current offset, then
    // ack it: the recovered replica counts toward WAIT again.
    let end = info_u64(port, "master_repl_offset");
    let mut have = base + parser.take_remaining().len() as u64;
    let mut rbuf = vec![0u8; 64 << 10];
    let deadline = Instant::now() + Duration::from_secs(20);
    while have < end {
        assert!(Instant::now() < deadline, "tail never fully arrived");
        match back.read(&mut rbuf) {
            Ok(0) => panic!("primary closed while shipping the tail"),
            Ok(n) => have += n as u64,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => panic!("tail read failed: {e}"),
        }
    }
    let mut ack = Vec::new();
    let have_s = have.to_string();
    resp::encode_command(&cmd(&[b"REPLCONF", b"ACK", have_s.as_bytes()]), &mut ack);
    back.write_all(&ack).expect("ack");
    assert_eq!(
        send(port, &[b"WAIT", b"1", b"5000"]),
        Value::Int(1),
        "recovered replica must count toward WAIT"
    );
    handle.shutdown();
}

/// Reads `+OK` (REPLCONF) then the FULLRESYNC header + snapshot bulk.
fn read_ok_then_fullresync(stream: &mut TcpStream, parser: &mut Parser) -> (String, u64) {
    expect_ok(stream, parser);
    read_fullresync(stream, parser)
}

fn expect_ok(stream: &mut TcpStream, parser: &mut Parser) {
    match read_simple(stream, parser).as_str() {
        "OK" => {}
        other => panic!("expected +OK, got +{other}"),
    }
}

/// Reads one simple-string reply.
fn read_simple(stream: &mut TcpStream, parser: &mut Parser) -> String {
    let mut rbuf = vec![0u8; 64 << 10];
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match parser.next_value().expect("bad RESP") {
            Some(Value::Simple(s)) => return s,
            Some(other) => panic!("expected simple string, got {other:?}"),
            None => {
                assert!(Instant::now() < deadline, "reply never arrived");
                match stream.read(&mut rbuf) {
                    Ok(0) => panic!("connection closed mid-reply"),
                    Ok(n) => parser.feed(&rbuf[..n]),
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut => {}
                    Err(e) => panic!("read failed: {e}"),
                }
            }
        }
    }
}
