//! Live-path crash matrix: both backends × both log policies, a kill at
//! every k-th acked command, restart on the same store, and the
//! durability invariant checked after every restart.
//!
//! Invariant (ISSUE §Tentpole): every acked `appendfsync always` write
//! survives a crash at any command boundary; under any policy the
//! survivors of a run form a prefix of that run's issue order, previously
//! durable keys never regress, lost keys never resurrect, and no key is
//! ever recovered into a state outside {pre-op, post-op}.
//!
//! The sweep size is `SLIMIO_CRASH_POINTS` (default 50 crash points per
//! backend × policy cell); CI runs a bounded smoke with a smaller value.
//! Torn-page and transient-failure plans are exercised by the
//! `debug_fault_*` tests below, armed through the `DEBUG FAULT` command.

use std::io::Write;
use std::net::TcpStream;

use slimio_des::SimTime;
use slimio_imdb::LogPolicy;
use slimio_server::bench;
use slimio_server::resp::{self, Parser, Value};
use slimio_server::{BackendKind, Server, ServerOpts};

mod common;
use common::{batch, send, store_for};

const RATIO: f64 = 1.0 / 128.0;

fn crash_points() -> usize {
    std::env::var("SLIMIO_CRASH_POINTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(50)
}

fn opts(policy: LogPolicy) -> ServerOpts {
    ServerOpts {
        policy,
        wal_snapshot_threshold: 64 << 20,
        snapshot_chunk: 64 << 10,
        ..ServerOpts::default()
    }
}

/// A short flush interval so some periodical-policy writes become durable
/// between wall-clock kills — otherwise every run would trivially lose
/// its whole burst and the prefix check would never see a mixed outcome.
fn periodical_fast() -> LogPolicy {
    LogPolicy::Periodical {
        flush_interval: SimTime::from_millis(50),
    }
}

fn set(k: &str, v: &str) -> Vec<Vec<u8>> {
    vec![
        b"SET".to_vec(),
        k.as_bytes().to_vec(),
        v.as_bytes().to_vec(),
    ]
}

fn get(k: &str) -> Vec<Vec<u8>> {
    vec![b"GET".to_vec(), k.as_bytes().to_vec()]
}

/// One backend × policy cell of the matrix: for every k in 1..=points,
/// ack k commands, kill at that crash point, restart on the same store,
/// and check the invariant against everything issued so far.
fn run_matrix_cell(kind: BackendKind, policy: LogPolicy, always: bool) {
    let points = crash_points();
    let tag = if always { "a" } else { "p" };
    // Keys verified durable after an earlier restart, with their values.
    let mut durable: Vec<(String, String)> = Vec::new();
    // Keys observed lost after a crash: a later replay must never
    // resurrect them.
    let mut lost: Vec<String> = Vec::new();
    // Last known durable value of the repeatedly overwritten hot key.
    let mut hot_expect: Option<String> = None;

    let mut handle = Server::start(store_for(kind, RATIO), opts(policy)).expect("start");
    for k in 1..=points {
        let port = handle.port();

        // This run's burst: a hot-key overwrite followed by k-1 fresh
        // keys, all acked before the kill.
        let hot_val = format!("hot-{k}");
        let fresh: Vec<(String, String)> = (1..k)
            .map(|i| (format!("{tag}:{k}:{i}"), format!("v{k}:{i}")))
            .collect();
        let mut cmds = vec![set("hot", &hot_val)];
        for (key, val) in &fresh {
            cmds.push(set(key, val));
        }
        for (i, r) in batch(port, &cmds).iter().enumerate() {
            assert_eq!(*r, Value::ok(), "{kind:?} run {k}: command {i} not acked");
        }

        // Crash point k: kill right after the k-th ack, restart on the
        // same store.
        let store = handle.kill();
        handle = Server::start(store, opts(policy)).expect("restart");
        let port = handle.port();

        let mut cmds = vec![get("hot")];
        for (key, _) in &fresh {
            cmds.push(get(key));
        }
        for (key, _) in &durable {
            cmds.push(get(key));
        }
        for key in &lost {
            cmds.push(get(key));
        }
        let replies = batch(port, &cmds);
        let (hot_reply, rest) = replies.split_first().unwrap();
        let (fresh_replies, rest) = rest.split_at(fresh.len());
        let (durable_replies, lost_replies) = rest.split_at(durable.len());

        // Fresh keys: survivors must form a prefix of issue order (the
        // WAL is sequential), each with exactly the written value.
        let mut seen_absent = false;
        let mut survived = 0usize;
        for ((key, val), r) in fresh.iter().zip(fresh_replies) {
            match r {
                Value::Bulk(b) => {
                    assert!(
                        !seen_absent,
                        "{kind:?} run {k}: {key} survived after an earlier record \
                         was lost — recovered state is not a WAL prefix"
                    );
                    assert_eq!(
                        b,
                        val.as_bytes(),
                        "{kind:?} run {k}: {key} recovered outside {{pre-op, post-op}}"
                    );
                    survived += 1;
                }
                Value::Null => seen_absent = true,
                other => panic!("{kind:?} run {k}: GET {key} -> {other:?}"),
            }
        }
        if always {
            assert_eq!(
                survived,
                fresh.len(),
                "{kind:?} run {k}: acked appendfsync-always write lost"
            );
        }

        // Hot key: either this run's value (post-op) or the last durable
        // one (pre-op); and never older than a surviving later record.
        match hot_reply {
            Value::Bulk(b) => {
                let got = String::from_utf8_lossy(b).into_owned();
                if got == hot_val {
                    hot_expect = Some(hot_val.clone());
                } else {
                    assert_eq!(
                        Some(&got),
                        hot_expect.as_ref(),
                        "{kind:?} run {k}: hot key recovered outside {{pre-op, post-op}}"
                    );
                    assert_eq!(
                        survived, 0,
                        "{kind:?} run {k}: a later record survived but the hot \
                         overwrite issued before it did not"
                    );
                }
            }
            Value::Null => {
                assert!(
                    hot_expect.is_none(),
                    "{kind:?} run {k}: durable hot key vanished"
                );
                assert_eq!(
                    survived, 0,
                    "{kind:?} run {k}: a later record survived but the hot \
                     overwrite issued before it did not"
                );
            }
            other => panic!("{kind:?} run {k}: GET hot -> {other:?}"),
        }
        if always {
            assert_eq!(
                hot_expect.as_deref(),
                Some(hot_val.as_str()),
                "{kind:?} run {k}: acked hot overwrite lost"
            );
        }

        // Previously durable keys never regress; lost keys never
        // resurrect.
        for ((key, val), r) in durable.iter().zip(durable_replies) {
            assert_eq!(
                *r,
                Value::bulk(val.as_bytes()),
                "{kind:?} run {k}: durable key {key} regressed after replay"
            );
        }
        for (key, r) in lost.iter().zip(lost_replies) {
            assert_eq!(
                *r,
                Value::Null,
                "{kind:?} run {k}: lost key {key} resurrected by replay"
            );
        }

        for (i, (key, val)) in fresh.into_iter().enumerate() {
            if i < survived {
                durable.push((key, val));
            } else {
                lost.push(key);
            }
        }
    }
    handle.shutdown();
}

#[test]
fn crash_matrix_kernel_always() {
    run_matrix_cell(BackendKind::Kernel, LogPolicy::Always, true);
}

#[test]
fn crash_matrix_kernel_periodical() {
    run_matrix_cell(BackendKind::Kernel, periodical_fast(), false);
}

#[test]
fn crash_matrix_passthru_always() {
    run_matrix_cell(BackendKind::Passthru, LogPolicy::Always, true);
}

#[test]
fn crash_matrix_passthru_periodical() {
    run_matrix_cell(BackendKind::Passthru, periodical_fast(), false);
}

/// The group-commit cell: a pipelined client (`--pipeline 16` shape — 16
/// SETs written before any reply is read) under Always-Log, killed right
/// after the burst acks, for every crash point. The writer group-commits
/// the burst under one sync, so every ack must still imply durability:
/// the whole batch survives the restart with correct values, and earlier
/// runs' keys never regress.
///
/// With `hammers > 0` it is also the read-path cell: that many GET-hammer
/// connections are actively reading from the lock-free view at every
/// kill point. Reads never touch the WAL or the device, so the recovery
/// invariants are exactly the same — no matter how many readers were
/// mid-probe when the plug was pulled.
fn run_pipelined_cell(kind: BackendKind, hammers: usize) {
    const PIPELINE: usize = 16;
    // With live reader threads every round restarts them too; cap that
    // sweep so the cell stays CI-sized.
    let points = if hammers > 0 {
        crash_points().min(12)
    } else {
        crash_points()
    };
    let mut durable: Vec<(String, String)> = Vec::new();
    let mut handle = Server::start(store_for(kind, RATIO), opts(LogPolicy::Always)).expect("start");
    for k in 1..=points {
        let port = handle.port();

        // GET hammers spin on last run's keys until the kill tears their
        // connection down. Replies must only ever be bulk or null — an
        // error reply would mean the read path broke under concurrent
        // writes.
        let readers: Vec<_> = (0..hammers)
            .map(|t| {
                std::thread::spawn(move || {
                    let Ok(mut stream) = TcpStream::connect(("127.0.0.1", port)) else {
                        return;
                    };
                    let _ = stream.set_nodelay(true);
                    let mut parser = Parser::new();
                    let mut rbuf = vec![0u8; 16 << 10];
                    let mut out = Vec::new();
                    loop {
                        out.clear();
                        for i in 0..8 {
                            let key = format!("pl:{}:{i}", k.saturating_sub(1).max(1));
                            resp::encode_command_slices(&[b"GET", key.as_bytes()], &mut out);
                        }
                        if stream.write_all(&out).is_err() {
                            return;
                        }
                        for _ in 0..8 {
                            match bench::read_value(&mut stream, &mut parser, &mut rbuf) {
                                Ok(Value::Bulk(_)) | Ok(Value::Null) => {}
                                Ok(other) => {
                                    panic!("hammer {t}: GET returned {other:?}")
                                }
                                // The kill severs the connection
                                // mid-burst; that is the exit signal.
                                Err(_) => return,
                            }
                        }
                    }
                })
            })
            .collect();

        let burst: Vec<(String, String)> = (0..PIPELINE)
            .map(|i| (format!("pl:{k}:{i}"), format!("v{k}:{i}")))
            .collect();
        let cmds: Vec<Vec<Vec<u8>>> = burst.iter().map(|(key, val)| set(key, val)).collect();
        // `batch` writes all 16 commands before reading any reply — the
        // same wire shape as `slimio-cli bench -P 16`.
        for (i, r) in batch(port, &cmds).iter().enumerate() {
            assert_eq!(
                *r,
                Value::ok(),
                "{kind:?} run {k}: pipelined command {i} not acked"
            );
        }

        // Kill with any readers still live, then reap them.
        let store = handle.kill();
        for h in readers {
            h.join().expect("hammer panicked");
        }
        handle = Server::start(store, opts(LogPolicy::Always)).expect("restart");
        let port = handle.port();

        // Every acked write in the burst was group-committed before its
        // reply was released, so all of them must survive.
        let mut cmds: Vec<Vec<Vec<u8>>> = burst.iter().map(|(key, _)| get(key)).collect();
        for (key, _) in &durable {
            cmds.push(get(key));
        }
        let replies = batch(port, &cmds);
        let (burst_replies, durable_replies) = replies.split_at(burst.len());
        for ((key, val), r) in burst.iter().zip(burst_replies) {
            assert_eq!(
                *r,
                Value::bulk(val.as_bytes()),
                "{kind:?} run {k}: acked pipelined write {key} lost or corrupted \
                 ({hammers} readers active at kill)"
            );
        }
        for ((key, val), r) in durable.iter().zip(durable_replies) {
            assert_eq!(
                *r,
                Value::bulk(val.as_bytes()),
                "{kind:?} run {k}: durable key {key} regressed ({hammers} readers active at kill)"
            );
        }
        durable.extend(burst);
    }
    handle.shutdown();
}

#[test]
fn crash_matrix_kernel_always_pipelined() {
    run_pipelined_cell(BackendKind::Kernel, 0);
}

#[test]
fn crash_matrix_passthru_always_pipelined() {
    run_pipelined_cell(BackendKind::Passthru, 0);
}

#[test]
fn crash_matrix_kernel_always_pipelined_with_readers() {
    run_pipelined_cell(BackendKind::Kernel, 2);
}

#[test]
fn crash_matrix_passthru_always_pipelined_with_readers() {
    run_pipelined_cell(BackendKind::Passthru, 2);
}

/// A `pc@N` plan armed through `DEBUG FAULT` behaves like power loss at
/// the Nth device write: the in-flight command errors, everything acked
/// before it survives the restart, and the interrupted command lands in
/// pre-op or post-op — never in between.
#[test]
fn debug_fault_power_cut_loses_nothing_acked() {
    for kind in [BackendKind::Kernel, BackendKind::Passthru] {
        let handle = Server::start(store_for(kind, RATIO), opts(LogPolicy::Always)).expect("start");
        let port = handle.port();
        let mut acked: Vec<String> = Vec::new();
        for i in 0..5 {
            let key = format!("pc:base:{i}");
            assert_eq!(send(port, &[b"SET", key.as_bytes(), b"v"]), Value::ok());
            acked.push(key);
        }
        assert_eq!(send(port, &[b"DEBUG", b"FAULT", b"pc@6"]), Value::ok());
        let mut failed_key = None;
        for i in 0..64 {
            let key = format!("pc:post:{i}");
            match send(port, &[b"SET", key.as_bytes(), b"v"]) {
                v if v == Value::ok() => acked.push(key),
                Value::Error(_) => {
                    failed_key = Some(key);
                    break;
                }
                other => panic!("{kind:?}: SET -> {other:?}"),
            }
        }
        let failed_key = failed_key.expect("power cut never fired");

        let store = handle.kill();
        let handle = Server::start(store, opts(LogPolicy::Always)).expect("restart");
        let port = handle.port();
        for key in &acked {
            assert_eq!(
                send(port, &[b"GET", key.as_bytes()]),
                Value::bulk(b"v"),
                "{kind:?}: acked {key} lost to the injected power cut"
            );
        }
        match send(port, &[b"GET", failed_key.as_bytes()]) {
            Value::Null | Value::Bulk(_) => {}
            other => panic!("{kind:?}: interrupted key -> {other:?}"),
        }
        handle.shutdown();
    }
}

/// A torn page persists only a byte prefix of the triggering write. The
/// recovered state is still a clean prefix of the record sequence — the
/// classic torn-tail problem can roll the log back, but replay truncates
/// at the tear instead of surfacing a mixed state.
#[test]
fn debug_fault_torn_page_truncates_cleanly() {
    for kind in [BackendKind::Kernel, BackendKind::Passthru] {
        // keep=2048 comfortably covers the few hundred bytes of earlier
        // records sharing the WAL tail page, so only the victim is at
        // risk; keep=16 tears into them and must roll the prefix back.
        for keep in [2048usize, 16] {
            let handle =
                Server::start(store_for(kind, RATIO), opts(LogPolicy::Always)).expect("start");
            let port = handle.port();
            let issued: Vec<String> = (0..10).map(|i| format!("torn:{i}")).collect();
            for key in &issued {
                assert_eq!(send(port, &[b"SET", key.as_bytes(), b"v"]), Value::ok());
            }
            let spec = format!("torn@1:{keep}");
            assert_eq!(
                send(port, &[b"DEBUG", b"FAULT", spec.as_bytes()]),
                Value::ok()
            );
            match send(port, &[b"SET", b"torn:victim", b"v"]) {
                Value::Error(_) => {}
                other => panic!("{kind:?} keep={keep}: torn write acked: {other:?}"),
            }

            let store = handle.kill();
            let handle = Server::start(store, opts(LogPolicy::Always)).expect("restart");
            let port = handle.port();
            // Survivors must form a prefix of issue order with correct
            // values; with a generous keep, every acked record survives.
            let mut seen_absent = false;
            let mut survived = 0usize;
            for key in &issued {
                match send(port, &[b"GET", key.as_bytes()]) {
                    Value::Bulk(b) => {
                        assert!(
                            !seen_absent,
                            "{kind:?} keep={keep}: {key} survived past a tear"
                        );
                        assert_eq!(b, b"v", "{kind:?} keep={keep}: {key} corrupted");
                        survived += 1;
                    }
                    Value::Null => seen_absent = true,
                    other => panic!("{kind:?} keep={keep}: GET {key} -> {other:?}"),
                }
            }
            if keep == 2048 {
                assert_eq!(
                    survived,
                    issued.len(),
                    "{kind:?}: generous tear rolled back acked records"
                );
            }
            match send(port, &[b"GET", b"torn:victim"]) {
                Value::Null => {}
                Value::Bulk(b) => assert_eq!(b, b"v", "{kind:?} keep={keep}: victim corrupted"),
                other => panic!("{kind:?} keep={keep}: GET victim -> {other:?}"),
            }
            handle.shutdown();
        }
    }
}

/// Transient write failures below the retry budget are invisible to
/// clients: the write acks, and it is durable across a kill.
#[test]
fn debug_fault_transient_failures_are_absorbed() {
    for kind in [BackendKind::Kernel, BackendKind::Passthru] {
        let handle = Server::start(store_for(kind, RATIO), opts(LogPolicy::Always)).expect("start");
        let port = handle.port();
        assert_eq!(send(port, &[b"SET", b"tr:base", b"v"]), Value::ok());
        // The next 8 device writes fail transiently; retries absorb them.
        assert_eq!(send(port, &[b"DEBUG", b"FAULT", b"fail@1x8"]), Value::ok());
        assert_eq!(
            send(port, &[b"SET", b"tr:flaky", b"v"]),
            Value::ok(),
            "{kind:?}: transient failures under the retry budget must not surface"
        );
        assert_eq!(send(port, &[b"DEBUG", b"FAULT", b"OFF"]), Value::ok());

        let store = handle.kill();
        let handle = Server::start(store, opts(LogPolicy::Always)).expect("restart");
        let port = handle.port();
        for key in [&b"tr:base"[..], &b"tr:flaky"[..]] {
            assert_eq!(
                send(port, &[b"GET", key]),
                Value::bulk(b"v"),
                "{kind:?}: write lost despite ack"
            );
        }
        handle.shutdown();
    }
}
