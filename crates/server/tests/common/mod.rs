//! Helpers shared by the server integration tests. Each test binary
//! compiles this module for itself and uses its own subset.
#![allow(dead_code)]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use slimio_server::bench;
use slimio_server::resp::{self, Parser, Value};
use slimio_server::{BackendKind, Store, StoreConfig};

/// A fresh single-shard store on `kind` (FDP on the passthru path only,
/// like the paper's two configurations).
pub fn store_for(kind: BackendKind, ratio: f64) -> Store {
    Store::new(StoreConfig {
        kind,
        fdp: kind == BackendKind::Passthru,
        ratio,
        shards: 1,
    })
}

/// A fresh FDP passthru store carved into `shards` writer shards.
pub fn store_sharded(shards: usize, ratio: f64) -> Store {
    Store::new(StoreConfig {
        kind: BackendKind::Passthru,
        fdp: true,
        ratio,
        shards,
    })
}

pub fn cmd(parts: &[&[u8]]) -> Vec<Vec<u8>> {
    parts.iter().map(|p| p.to_vec()).collect()
}

/// One command over a fresh connection, with a whole-operation deadline
/// so a wedged server fails the test instead of hanging it.
pub fn send(port: u16, parts: &[&[u8]]) -> Value {
    bench::oneshot_timeout(
        "127.0.0.1",
        port,
        &cmd(parts),
        Some(Duration::from_secs(30)),
    )
    .expect("oneshot failed")
}

/// The whole `INFO` reply as text.
pub fn info(port: u16) -> String {
    let Value::Bulk(text) = send(port, &[b"INFO"]) else {
        panic!("INFO did not return bulk");
    };
    String::from_utf8_lossy(&text).into_owned()
}

pub fn info_field(port: u16, field: &str) -> Option<String> {
    info(port)
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{field}:")).map(|v| v.to_string()))
}

pub fn connect(port: u16) -> TcpStream {
    let stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
}

/// Pipelines `cmds` over one connection and returns one reply per command.
pub fn batch(port: u16, cmds: &[Vec<Vec<u8>>]) -> Vec<Value> {
    let mut stream = connect(port);
    let mut out = Vec::new();
    for c in cmds {
        resp::encode_command(c, &mut out);
    }
    stream.write_all(&out).unwrap();
    let mut parser = Parser::new();
    let mut rbuf = vec![0u8; 64 << 10];
    let mut replies = Vec::with_capacity(cmds.len());
    while replies.len() < cmds.len() {
        replies.push(bench::read_value(&mut stream, &mut parser, &mut rbuf).expect("reply"));
    }
    replies
}

pub fn digest(port: u16) -> String {
    match send(port, &[b"DEBUG", b"DIGEST"]) {
        Value::Bulk(b) => String::from_utf8_lossy(&b).into_owned(),
        other => panic!("DEBUG DIGEST -> {other:?}"),
    }
}

/// `WAIT 1` with a generous timeout; the replica must reach the
/// primary's current stream offset.
pub fn wait_one(port: u16) {
    match send(port, &[b"WAIT", b"1", b"20000"]) {
        Value::Int(n) if n >= 1 => {}
        other => panic!("WAIT 1 -> {other:?} (replica never caught up)"),
    }
}

/// One HTTP/1.0 GET against the metrics listener; returns (status line,
/// body).
pub fn http_get(port: u16, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connect metrics");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\nHost: localhost\r\n\r\n").as_bytes())
        .expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    let status = head.lines().next().unwrap_or("").to_string();
    (status, body.to_string())
}

pub fn scrape(port: u16) -> String {
    let (status, body) = http_get(port, "/metrics");
    assert!(status.contains("200"), "scrape failed: {status}");
    body
}

/// The value of the sample whose name (with labels, if any) is exactly
/// `series` — e.g. `slimio_ops_total` or
/// `slimio_write_stage_seconds_sum{stage="queue",shard="0"}`.
pub fn sample(text: &str, series: &str) -> Option<f64> {
    text.lines().find_map(|l| {
        l.strip_prefix(series)
            .and_then(|rest| rest.strip_prefix(' '))
            .and_then(|v| v.trim().parse().ok())
    })
}
