//! An idle server is idle. One test in a binary of its own, so no
//! sibling test's threads share the process whose CPU it reads: a
//! passthru+FDP server with four shards (four SQPOLL snapshot rings) and
//! four open connections, after one `BGSAVE` has made every poller wake,
//! work and go back to sleep, must use next to no CPU.

use std::time::Duration;

use slimio_server::resp::Value;
use slimio_server::{Server, ServerOpts};

mod common;
use common::{batch, cmd, connect, info_field, sample, scrape, send, store_sharded};

const SHARDS: usize = 4;

/// `utime + stime` of this process in seconds, `None` where there is no
/// `/proc`. Fields 14 and 15 of `stat`, counted after the parenthesised
/// command name (which may hold spaces), in `USER_HZ` ticks — 100 on
/// every Linux ABI.
fn process_cpu_secs() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    let mut fields = stat.rsplit_once(')')?.1.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}

/// `(parks, wakeups)` of every shard's snapshot ring, from one scrape.
fn ring_counts(mport: u16) -> Vec<(f64, f64)> {
    let text = scrape(mport);
    let of = |name: &str, shard: usize| {
        let series = format!("slimio_sqpoll_{name}_total{{shard=\"{shard}\"}}");
        sample(&text, &series).unwrap_or_else(|| panic!("no {series}"))
    };
    (0..SHARDS)
        .map(|s| (of("parks", s), of("wakeups", s)))
        .collect()
}

/// Scrapes until `settled` holds, and returns that scrape.
fn await_rings(mport: u16, settled: impl Fn(&[(f64, f64)]) -> bool) -> Vec<(f64, f64)> {
    loop {
        let counts = ring_counts(mport);
        if settled(&counts) {
            return counts;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn an_idle_sharded_server_uses_no_cpu() {
    if process_cpu_secs().is_none() {
        eprintln!("skipped: no /proc/self/stat on this platform");
        return;
    }
    let opts = ServerOpts {
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServerOpts::default()
    };
    let handle = Server::start(store_sharded(SHARDS, 1.0 / 128.0), opts).expect("start");
    let (port, mport) = (
        handle.port(),
        handle.metrics_addr().expect("metrics").port(),
    );
    // Keys on every shard, so every shard's snapshot has pages to write.
    let sets: Vec<_> = (0..400)
        .map(|i| cmd(&[b"SET", format!("key:{i:04}").as_bytes(), &[b'v'; 256]]))
        .collect();
    assert!(batch(port, &sets).iter().all(|r| *r == Value::ok()));
    let conns: Vec<_> = (0..4).map(|_| connect(port)).collect();

    // Every poller asleep, then one BGSAVE: each must be woken for it,
    // and each must go back to sleep after it.
    let before = await_rings(mport, |c| c.iter().all(|&(parks, _)| parks >= 1.0));
    let started = send(port, &[b"BGSAVE"]);
    assert_eq!(started, Value::Simple("Background saving started".into()));
    while info_field(port, "od_snapshots").as_deref() != Some("4")
        || info_field(port, "snapshot_in_progress").as_deref() != Some("0")
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    let asleep_again = |c: &[(f64, f64)]| c.iter().zip(&before).all(|(now, b)| now.0 > b.0);
    let quiet0 = await_rings(mport, asleep_again);
    for (shard, (now, b)) in quiet0.iter().zip(&before).enumerate() {
        assert!(
            now.1 > b.1,
            "BGSAVE woke shard {shard}'s poller: {b:?} -> {now:?}"
        );
    }

    let cpu0 = process_cpu_secs().expect("read above");
    let t0 = std::time::Instant::now();
    std::thread::sleep(Duration::from_secs(1));
    let cores = (process_cpu_secs().expect("read above") - cpu0) / t0.elapsed().as_secs_f64();
    assert!(cores < 0.15, "idle server used {cores:.3} cores");
    assert_eq!(
        ring_counts(mport),
        quiet0,
        "nothing submitted, nothing woken"
    );

    drop(conns);
    handle.shutdown();
}
