//! Replication end-to-end tests: real primary + replica server pairs on
//! ephemeral ports, full sync under live write load, `WAIT`-backed
//! read-your-primary's-writes, kill -9 of the primary with promotion,
//! the replica's own WAL surviving a replica kill, and a crash-matrix
//! cell with a replica attached at every kill point.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use slimio_imdb::LogPolicy;
use slimio_server::resp::Value;
use slimio_server::{BackendKind, Server, ServerOpts};

mod common;
use common::{batch, cmd, digest, info_field, send, store_for, wait_one};

const RATIO: f64 = 1.0 / 128.0;

fn opts_primary() -> ServerOpts {
    ServerOpts {
        policy: LogPolicy::Always,
        wal_snapshot_threshold: 64 << 20,
        snapshot_chunk: 64 << 10,
        ..ServerOpts::default()
    }
}

fn opts_replica_of(primary_port: u16) -> ServerOpts {
    ServerOpts {
        replica_of: Some(format!("127.0.0.1:{primary_port}")),
        ..opts_primary()
    }
}

/// Polls until the replica's dataset digest equals `want` (a fallback
/// for paths where `WAIT` is not applicable).
fn wait_digest(port: u16, want: &str) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if digest(port) == want {
            return;
        }
        assert!(Instant::now() < deadline, "replica digest never converged");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Full sync while the primary is actively taking writes: the snapshot
/// freeze plus WAL tail hand the replica a consistent cut, and the live
/// stream carries everything after it — datasets converge exactly.
#[test]
fn full_sync_under_write_load_converges() {
    let primary =
        Server::start(store_for(BackendKind::Passthru, RATIO), opts_primary()).expect("start");
    let pport = primary.port();

    // Preload so the full sync has a real snapshot to ship.
    let cmds: Vec<Vec<Vec<u8>>> = (0..200)
        .map(|i| {
            cmd(&[
                b"SET",
                format!("pre:{i:04}").as_bytes(),
                format!("v{i}").as_bytes(),
            ])
        })
        .collect();
    for r in batch(pport, &cmds) {
        assert_eq!(r, Value::ok());
    }

    // Live load concurrent with the replica's attach + full sync.
    let stop = Arc::new(AtomicBool::new(false));
    let loader = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut round = 0u32;
            while !stop.load(Ordering::SeqCst) {
                let cmds: Vec<Vec<Vec<u8>>> = (0..32)
                    .map(|i| {
                        cmd(&[
                            b"SET",
                            format!("live:{:04}", (round * 7 + i) % 500).as_bytes(),
                            format!("r{round}:{i}").as_bytes(),
                        ])
                    })
                    .collect();
                for r in batch(pport, &cmds) {
                    assert_eq!(r, Value::ok());
                }
                round += 1;
            }
        })
    };
    // Let the load get going, then attach the replica mid-stream.
    std::thread::sleep(Duration::from_millis(100));
    let replica = Server::start(
        store_for(BackendKind::Passthru, RATIO),
        opts_replica_of(pport),
    )
    .expect("replica");
    let rport = replica.port();
    std::thread::sleep(Duration::from_millis(300));
    stop.store(true, Ordering::SeqCst);
    loader.join().expect("loader panicked");

    // Every write above was acked before the loader stopped, so the
    // backlog covers them; WAIT pins the replica to that offset.
    wait_one(pport);
    assert_eq!(
        digest(pport),
        digest(rport),
        "datasets diverged after full sync under load"
    );
    assert_eq!(
        send(pport, &[b"DBSIZE"]),
        send(rport, &[b"DBSIZE"]),
        "key counts diverged"
    );

    replica.shutdown();
    primary.shutdown();
}

/// Read scaling semantics: after `SET` + `WAIT 1`, the replica serves
/// the primary's write locally; client writes bounce with `-READONLY`;
/// `INFO` reports both roles and replica lag fields.
#[test]
fn replica_serves_reads_rejects_writes_and_reports_info() {
    let primary =
        Server::start(store_for(BackendKind::Kernel, RATIO), opts_primary()).expect("start");
    let pport = primary.port();
    let replica = Server::start(
        store_for(BackendKind::Kernel, RATIO),
        opts_replica_of(pport),
    )
    .expect("replica");
    let rport = replica.port();

    assert_eq!(send(pport, &[b"SET", b"greeting", b"hello"]), Value::ok());
    wait_one(pport);

    // Read-your-primary's-writes on the replica, served from its view.
    assert_eq!(send(rport, &[b"GET", b"greeting"]), Value::bulk(b"hello"));
    assert_eq!(send(rport, &[b"EXISTS", b"greeting"]), Value::Int(1));

    // Writes are refused until promotion.
    match send(rport, &[b"SET", b"illegal", b"x"]) {
        Value::Error(e) => assert!(
            e.starts_with("READONLY"),
            "replica write rejected with wrong error: {e}"
        ),
        other => panic!("replica accepted a write: {other:?}"),
    }
    match send(rport, &[b"DEL", b"greeting"]) {
        Value::Error(e) => assert!(e.starts_with("READONLY")),
        other => panic!("replica accepted a DEL: {other:?}"),
    }

    // Roles, offsets, and lag in INFO.
    assert_eq!(info_field(pport, "role").as_deref(), Some("primary"));
    assert_eq!(info_field(rport, "role").as_deref(), Some("replica"));
    assert_eq!(
        info_field(pport, "connected_replicas").as_deref(),
        Some("1")
    );
    let master_off: u64 = info_field(pport, "master_repl_offset")
        .expect("offset missing")
        .parse()
        .expect("offset not a number");
    assert!(master_off > 0, "stream offset never advanced");
    let applied: u64 = info_field(rport, "replica_applied_offset")
        .expect("applied offset missing")
        .parse()
        .expect("applied offset not a number");
    assert_eq!(applied, master_off, "replica INFO lags the WAIT point");
    assert_eq!(
        info_field(rport, "replica_link").as_deref(),
        Some("streaming")
    );
    // Network accounting moved real bytes in both directions.
    let net_out: u64 = info_field(pport, "total_net_output_bytes")
        .expect("net out missing")
        .parse()
        .unwrap();
    assert!(net_out > 0);

    // `WAIT 0` is trivially satisfied; WAIT for two replicas times out
    // at zero or one (only one is attached) and reports the true count.
    assert_eq!(send(pport, &[b"WAIT", b"0", b"100"]), Value::Int(1));
    match send(pport, &[b"WAIT", b"2", b"200"]) {
        Value::Int(n) => assert!(n <= 1, "phantom replica acked"),
        other => panic!("WAIT 2 -> {other:?}"),
    }

    replica.shutdown();
    primary.shutdown();
}

/// The acceptance criterion: every write acked through `WAIT 1` (offset
/// ≤ N in the stream) is served by the replica after `kill -9` of the
/// primary and `REPLICAOF NO ONE` promotion — and the promoted node
/// accepts writes.
#[test]
fn promotion_serves_acked_prefix_after_primary_kill() {
    let primary =
        Server::start(store_for(BackendKind::Passthru, RATIO), opts_primary()).expect("start");
    let pport = primary.port();
    let replica = Server::start(
        store_for(BackendKind::Passthru, RATIO),
        opts_replica_of(pport),
    )
    .expect("replica");
    let rport = replica.port();

    // Ack each burst at the replica before moving on: after WAIT 1
    // returns, the replica has acknowledged the stream offset covering
    // the burst, so *every* one of these keys is in the acked prefix.
    let mut acked: Vec<(String, String)> = Vec::new();
    for burst in 0..10 {
        let fresh: Vec<(String, String)> = (0..10)
            .map(|i| (format!("k:{burst}:{i}"), format!("v{burst}:{i}")))
            .collect();
        let cmds: Vec<Vec<Vec<u8>>> = fresh
            .iter()
            .map(|(k, v)| cmd(&[b"SET", k.as_bytes(), v.as_bytes()]))
            .collect();
        for r in batch(pport, &cmds) {
            assert_eq!(r, Value::ok());
        }
        wait_one(pport);
        acked.extend(fresh);
    }

    // kill -9 the primary mid-stream.
    primary.kill();

    // Before promotion the orphaned replica still refuses writes.
    match send(rport, &[b"SET", b"early", b"x"]) {
        Value::Error(e) => assert!(e.starts_with("READONLY")),
        other => panic!("orphaned replica accepted a write: {other:?}"),
    }

    // Promote; the node must serve the entire acked prefix and take
    // writes.
    assert_eq!(send(rport, &[b"REPLICAOF", b"NO", b"ONE"]), Value::ok());
    assert_eq!(info_field(rport, "role").as_deref(), Some("primary"));
    for (k, v) in &acked {
        assert_eq!(
            send(rport, &[b"GET", k.as_bytes()]),
            Value::bulk(v.as_bytes()),
            "acked write {k} missing after promotion"
        );
    }
    assert_eq!(send(rport, &[b"SET", b"post-promo", b"ok"]), Value::ok());
    assert_eq!(send(rport, &[b"GET", b"post-promo"]), Value::bulk(b"ok"));

    replica.shutdown();
}

/// The replica persists applied records through its own WAL stack: a
/// `WAIT`-acked write survives kill -9 *of the replica* and restart of
/// its store as a standalone node.
#[test]
fn replica_kill_recovers_applied_writes_from_its_own_wal() {
    let primary =
        Server::start(store_for(BackendKind::Kernel, RATIO), opts_primary()).expect("start");
    let pport = primary.port();
    let replica = Server::start(
        store_for(BackendKind::Kernel, RATIO),
        opts_replica_of(pport),
    )
    .expect("replica");

    let cmds: Vec<Vec<Vec<u8>>> = (0..50)
        .map(|i| {
            cmd(&[
                b"SET",
                format!("wal:{i:03}").as_bytes(),
                format!("v{i}").as_bytes(),
            ])
        })
        .collect();
    for r in batch(pport, &cmds) {
        assert_eq!(r, Value::ok());
    }
    let want = digest(pport);
    wait_one(pport);

    // The replica acks only after its own group commit, so under Always
    // everything it acked is on its own device.
    let store = replica.kill();
    let revived = Server::start(store, opts_primary()).expect("restart replica store");
    assert_eq!(revived.recovered_keys(), 50);
    assert_eq!(digest(revived.port()), want);

    revived.shutdown();
    primary.shutdown();
}

/// Runtime `REPLICAOF host port` on a node that already has data: the
/// full sync replaces its keyspace with the primary's, and `REPLICAOF
/// NO ONE` hands it back write duty.
#[test]
fn runtime_replicaof_replaces_keyspace() {
    let primary =
        Server::start(store_for(BackendKind::Kernel, RATIO), opts_primary()).expect("start");
    let pport = primary.port();
    let other =
        Server::start(store_for(BackendKind::Kernel, RATIO), opts_primary()).expect("start");
    let oport = other.port();

    for r in batch(
        pport,
        &(0..30)
            .map(|i| cmd(&[b"SET", format!("p:{i}").as_bytes(), b"from-primary"]))
            .collect::<Vec<_>>(),
    ) {
        assert_eq!(r, Value::ok());
    }
    for r in batch(
        oport,
        &(0..20)
            .map(|i| cmd(&[b"SET", format!("o:{i}").as_bytes(), b"stale"]))
            .collect::<Vec<_>>(),
    ) {
        assert_eq!(r, Value::ok());
    }

    let want = digest(pport);
    let pport_arg = pport.to_string();
    assert_eq!(
        send(oport, &[b"REPLICAOF", b"127.0.0.1", pport_arg.as_bytes()]),
        Value::ok()
    );
    // Full sync replaces the stale keyspace wholesale.
    wait_digest(oport, &want);
    assert_eq!(send(oport, &[b"DBSIZE"]), Value::Int(30));
    assert_eq!(send(oport, &[b"GET", b"o:0"]), Value::Null);
    assert_eq!(send(oport, &[b"GET", b"p:0"]), Value::bulk(b"from-primary"));

    assert_eq!(send(oport, &[b"REPLICAOF", b"NO", b"ONE"]), Value::ok());
    assert_eq!(send(oport, &[b"SET", b"mine", b"again"]), Value::ok());

    other.shutdown();
    primary.shutdown();
}

/// Crash-matrix cell with a replica attached at every kill point: for
/// each k, a fresh replica attaches, k acked+WAIT-confirmed writes land,
/// the primary dies, and both sides of the invariant are checked — the
/// restarted primary recovers every acked write (Always policy), and the
/// promoted replica serves the same acked prefix.
#[test]
fn crash_matrix_with_replica_attached() {
    let points: usize = std::env::var("SLIMIO_CRASH_POINTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6)
        .min(12);
    let mut durable: Vec<(String, String)> = Vec::new();
    let mut handle =
        Server::start(store_for(BackendKind::Passthru, RATIO), opts_primary()).expect("start");
    for k in 1..=points {
        let pport = handle.port();
        let replica = Server::start(
            store_for(BackendKind::Passthru, RATIO),
            opts_replica_of(pport),
        )
        .expect("replica");
        let rport = replica.port();

        let fresh: Vec<(String, String)> = (0..k)
            .map(|i| (format!("cm:{k}:{i}"), format!("v{k}:{i}")))
            .collect();
        let cmds: Vec<Vec<Vec<u8>>> = fresh
            .iter()
            .map(|(key, val)| cmd(&[b"SET", key.as_bytes(), val.as_bytes()]))
            .collect();
        for r in batch(pport, &cmds) {
            assert_eq!(r, Value::ok(), "run {k}: write not acked");
        }
        wait_one(pport);

        // Kill the primary with the replica live at this exact point.
        let store = handle.kill();

        // The promoted replica serves the full acked history.
        assert_eq!(send(rport, &[b"REPLICAOF", b"NO", b"ONE"]), Value::ok());
        for (key, val) in durable.iter().chain(&fresh) {
            assert_eq!(
                send(rport, &[b"GET", key.as_bytes()]),
                Value::bulk(val.as_bytes()),
                "run {k}: promoted replica missing acked {key}"
            );
        }
        replica.shutdown();

        // And so does the restarted primary (Always: acked ⇒ durable).
        handle = Server::start(store, opts_primary()).expect("restart");
        let pport = handle.port();
        for (key, val) in durable.iter().chain(&fresh) {
            assert_eq!(
                send(pport, &[b"GET", key.as_bytes()]),
                Value::bulk(val.as_bytes()),
                "run {k}: restarted primary missing acked {key}"
            );
        }
        durable.extend(fresh);
    }
    handle.shutdown();
}
