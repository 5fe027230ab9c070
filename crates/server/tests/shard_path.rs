//! Sharded write-path tests: per-key ordering under a 4-shard hammer,
//! read-your-writes across shards, cross-shard multi-key commands,
//! merged recovery after clean restart, the crash matrix at
//! `--shards 4` (every acked write survives kill -9 at every point),
//! and replica convergence by digest with a sharded primary feeding a
//! differently-sharded replica.

use std::time::{Duration, Instant};

use slimio_imdb::LogPolicy;
use slimio_server::resp::Value;
use slimio_server::{Server, ServerOpts};

mod common;
use common::{batch, cmd, digest, send, store_sharded, wait_one};

const RATIO: f64 = 1.0 / 128.0;

fn opts() -> ServerOpts {
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
        ..opts()
    }
}

/// Four writer threads, each hammering its own key set with pipelined
/// bursts of increasing values over one connection: per-key ordering
/// within a shard means the final value of every key is the last one
/// its thread wrote, and every ack arrives in request order.
#[test]
fn per_key_ordering_under_four_shard_hammer() {
    let server = Server::start(store_sharded(4, RATIO), opts()).expect("start");
    let port = server.port();

    let workers: Vec<_> = (0..4)
        .map(|t| {
            std::thread::spawn(move || {
                // 8 keys per thread spread across shards, 25 rounds of
                // pipelined SETs each.
                for round in 0..25u32 {
                    let cmds: Vec<Vec<Vec<u8>>> = (0..8)
                        .map(|k| {
                            cmd(&[
                                b"SET",
                                format!("hammer:{t}:{k}").as_bytes(),
                                format!("r{round}").as_bytes(),
                            ])
                        })
                        .collect();
                    for r in batch(port, &cmds) {
                        assert_eq!(r, Value::ok(), "thread {t} round {round}: write refused");
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("hammer thread panicked");
    }

    // Every key holds its thread's last write.
    for t in 0..4 {
        for k in 0..8 {
            assert_eq!(
                send(port, &[b"GET", format!("hammer:{t}:{k}").as_bytes()]),
                Value::bulk(b"r24"),
                "key hammer:{t}:{k} lost its final write"
            );
        }
    }
    server.shutdown();
}

/// One pipelined burst that interleaves SETs and GETs of keys landing
/// on different shards: each GET observes the SET acked before it on
/// the same connection, regardless of which shard owns the key.
#[test]
fn read_your_writes_across_shards() {
    let server = Server::start(store_sharded(4, RATIO), opts()).expect("start");
    let port = server.port();

    let mut cmds = Vec::new();
    for i in 0..64 {
        let key = format!("ryw:{i}");
        let val = format!("v{i}");
        cmds.push(cmd(&[b"SET", key.as_bytes(), val.as_bytes()]));
        cmds.push(cmd(&[b"GET", key.as_bytes()]));
    }
    let replies = batch(port, &cmds);
    for i in 0..64 {
        assert_eq!(replies[2 * i], Value::ok(), "SET ryw:{i} refused");
        assert_eq!(
            replies[2 * i + 1],
            Value::bulk(format!("v{i}").as_bytes()),
            "GET ryw:{i} missed its own write"
        );
    }
    server.shutdown();
}

/// Multi-key DEL and EXISTS split per shard and recombine: the counts
/// must equal the single-shard answer.
#[test]
fn cross_shard_multikey_del_and_exists() {
    let server = Server::start(store_sharded(4, RATIO), opts()).expect("start");
    let port = server.port();

    for i in 0..16 {
        assert_eq!(
            send(port, &[b"SET", format!("mk:{i}").as_bytes(), b"x"]),
            Value::ok()
        );
    }
    let keys: Vec<String> = (0..16).map(|i| format!("mk:{i}")).collect();
    let mut exists_cmd: Vec<&[u8]> = vec![b"EXISTS"];
    exists_cmd.extend(keys.iter().map(|k| k.as_bytes()));
    exists_cmd.push(b"mk:missing");
    assert_eq!(send(port, &exists_cmd), Value::Int(16));

    let mut del_cmd: Vec<&[u8]> = vec![b"DEL"];
    del_cmd.extend(keys.iter().take(10).map(|k| k.as_bytes()));
    del_cmd.push(b"mk:missing");
    assert_eq!(send(port, &del_cmd), Value::Int(10));

    assert_eq!(send(port, &exists_cmd), Value::Int(6));
    assert_eq!(send(port, &[b"DBSIZE"]), Value::Int(6));
    server.shutdown();
}

/// The sharded digest is the digest of the merged keyspace: a 4-shard
/// server and a 1-shard server loaded with identical data agree.
#[test]
fn sharded_digest_matches_single_shard() {
    let sharded = Server::start(store_sharded(4, RATIO), opts()).expect("start");
    let single = Server::start(store_sharded(1, RATIO), opts()).expect("start");

    for port in [sharded.port(), single.port()] {
        let cmds: Vec<Vec<Vec<u8>>> = (0..100)
            .map(|i| {
                cmd(&[
                    b"SET",
                    format!("dg:{i:03}").as_bytes(),
                    format!("v{i}").as_bytes(),
                ])
            })
            .collect();
        for r in batch(port, &cmds) {
            assert_eq!(r, Value::ok());
        }
    }
    assert_eq!(
        digest(sharded.port()),
        digest(single.port()),
        "sharded digest diverges from single-shard digest of the same data"
    );
    single.shutdown();
    sharded.shutdown();
}

/// Clean restart of a 4-shard store replays every shard's WAL region
/// and rebuilds the merged keyspace (the gap check runs on the way up).
#[test]
fn sharded_restart_recovers_merged_keyspace() {
    let server = Server::start(store_sharded(4, RATIO), opts()).expect("start");
    let port = server.port();
    let cmds: Vec<Vec<Vec<u8>>> = (0..200)
        .map(|i| {
            cmd(&[
                b"SET",
                format!("rec:{i:03}").as_bytes(),
                format!("v{i}").as_bytes(),
            ])
        })
        .collect();
    for r in batch(port, &cmds) {
        assert_eq!(r, Value::ok());
    }
    let want = digest(port);
    let store = server.shutdown();

    let revived = Server::start(store, opts()).expect("restart");
    assert_eq!(revived.recovered_keys(), 200);
    assert_eq!(digest(revived.port()), want, "merged recovery diverged");
    assert_eq!(send(revived.port(), &[b"DBSIZE"]), Value::Int(200));
    revived.shutdown();
}

/// Crash-matrix cell at `--shards 4`: for each kill point k, k acked
/// writes land (spread over all shards), the server dies with kill -9,
/// and the restart must serve every previously acked write — the
/// ack ⇒ durable invariant holds per shard and the merged recovery
/// reassembles the global prefix.
#[test]
fn crash_matrix_at_four_shards() {
    let points: usize = std::env::var("SLIMIO_CRASH_POINTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6)
        .min(12);
    let mut durable: Vec<(String, String)> = Vec::new();
    let mut handle = Server::start(store_sharded(4, RATIO), opts()).expect("start");
    for k in 1..=points {
        let port = handle.port();
        let fresh: Vec<(String, String)> = (0..k)
            .map(|i| (format!("cm4:{k}:{i}"), format!("v{k}:{i}")))
            .collect();
        let cmds: Vec<Vec<Vec<u8>>> = fresh
            .iter()
            .map(|(key, val)| cmd(&[b"SET", key.as_bytes(), val.as_bytes()]))
            .collect();
        for r in batch(port, &cmds) {
            assert_eq!(r, Value::ok(), "run {k}: write not acked");
        }

        let store = handle.kill();
        handle = Server::start(store, opts()).expect("restart");
        let port = handle.port();
        for (key, val) in durable.iter().chain(&fresh) {
            assert_eq!(
                send(port, &[b"GET", key.as_bytes()]),
                Value::bulk(val.as_bytes()),
                "run {k}: restarted server missing acked {key}"
            );
        }
        durable.extend(fresh);
    }
    handle.shutdown();
}

/// A 4-shard primary feeding a 2-shard replica: the replica re-shards
/// the stream by its own hash, applies frames in global-sequence order,
/// and converges to the primary's digest; promotion then serves the
/// whole acked prefix.
#[test]
fn sharded_primary_replicates_to_differently_sharded_replica() {
    let primary = Server::start(store_sharded(4, RATIO), opts()).expect("start");
    let pport = primary.port();

    // Preload so the full sync ships a real cross-shard snapshot.
    let cmds: Vec<Vec<Vec<u8>>> = (0..150)
        .map(|i| {
            cmd(&[
                b"SET",
                format!("rep:{i:03}").as_bytes(),
                format!("v{i}").as_bytes(),
            ])
        })
        .collect();
    for r in batch(pport, &cmds) {
        assert_eq!(r, Value::ok());
    }

    let replica = Server::start(store_sharded(2, RATIO), opts_replica_of(pport)).expect("replica");
    let rport = replica.port();

    // Live writes after attach, answered by all four shard writers.
    let cmds: Vec<Vec<Vec<u8>>> = (0..150)
        .map(|i| {
            cmd(&[
                b"SET",
                format!("rep:{:03}", i % 75).as_bytes(),
                format!("w{i}").as_bytes(),
            ])
        })
        .collect();
    for r in batch(pport, &cmds) {
        assert_eq!(r, Value::ok());
    }
    wait_one(pport);
    assert_eq!(
        digest(pport),
        digest(rport),
        "sharded replica diverged from sharded primary"
    );
    assert_eq!(send(pport, &[b"DBSIZE"]), send(rport, &[b"DBSIZE"]));

    // Kill the primary; the promoted replica serves the acked prefix.
    let want = digest(pport);
    primary.kill();
    assert_eq!(send(rport, &[b"REPLICAOF", b"NO", b"ONE"]), Value::ok());
    assert_eq!(digest(rport), want);
    assert_eq!(send(rport, &[b"SET", b"post-promo", b"ok"]), Value::ok());
    replica.shutdown();
}

/// `INFO` carries the `# Shards` section with one line per shard, and
/// WAF stays 1.00 on the sharded FDP path — each shard's WAL stream
/// lands in its own reclaim unit, so shard interleaving adds no
/// device-level garbage collection.
#[test]
fn sharded_info_and_waf() {
    let server = Server::start(store_sharded(4, RATIO), opts()).expect("start");
    let port = server.port();
    let cmds: Vec<Vec<Vec<u8>>> = (0..400)
        .map(|i| {
            cmd(&[
                b"SET",
                format!("waf:{i:03}").as_bytes(),
                vec![b'x'; 256].as_slice(),
            ])
        })
        .collect();
    for r in batch(port, &cmds) {
        assert_eq!(r, Value::ok());
    }

    let Value::Bulk(text) = send(port, &[b"INFO"]) else {
        panic!("INFO did not return bulk");
    };
    let text = String::from_utf8_lossy(&text).into_owned();
    assert!(text.contains("shards:4"), "INFO missing shards count");
    for i in 0..4 {
        assert!(
            text.contains(&format!("shard{i}:queue_depth=")),
            "INFO missing shard{i} line"
        );
    }
    let waf = text
        .lines()
        .find_map(|l| l.strip_prefix("waf:"))
        .expect("INFO missing waf")
        .to_string();
    assert_eq!(waf, "1.00", "sharded FDP path must keep WAF at 1.00");

    // All four shards took writes (the hash spreads 400 keys).
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let Value::Bulk(text) = send(port, &[b"INFO"]) else {
            panic!("INFO did not return bulk");
        };
        let text = String::from_utf8_lossy(&text).into_owned();
        let lines: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("shard") && l.contains(":queue_depth="))
            .collect();
        let all_active = lines.len() == 4
            && lines.iter().all(|l| {
                l.split("wal_len=")
                    .nth(1)
                    .and_then(|t| t.split(',').next())
                    .and_then(|v| v.parse::<u64>().ok())
                    .is_some_and(|v| v > 0)
            });
        if all_active {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "some shard never took a write: {lines:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    server.shutdown();
}
