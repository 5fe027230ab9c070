//! The control plane shard 0's writer carries between data batches:
//! `INFO`, `CONFIG GET`, `DEBUG`, `SLOWLOG`, `LATENCY`, the
//! `BGSAVE`/`BGREWRITEAOF` broadcast, cross-shard keyspace gathers, the
//! `PSYNC` handoff, `REPLICAOF` and `SHUTDOWN`. Everything here is an
//! `impl Writer` method because it runs on the writer thread, serialized
//! with that shard's batches — but none of it is on the data path.
//!
//! Cross-shard answers never special-case the shard count or the shard
//! that happens to be asking: totals are read from every shard's
//! registry slot (the asking shard publishes its own first), and
//! keyspace-wide operations gather from every *other* shard — an empty
//! set when there is one.

use std::fmt::{Display, Write as _};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use slimio_imdb::backend::SnapshotKind;
use slimio_imdb::{engine, Entry, LogPolicy};

use crate::govern::ShardGate;
use crate::repl::{self, LinkCtx, ReplicaPeer};
use crate::resp::{self, Value};
use crate::server::{recv_polling, wrong_args, Request};
use crate::telemetry::ShardMetrics;
use crate::writer::Writer;

/// `INFO` text under construction: `# Section` headers separated by a
/// blank line, `key:value` lines, CRLF line ends.
#[derive(Default)]
pub(crate) struct InfoText(String);

impl InfoText {
    fn section(&mut self, name: &str) {
        let sep = if self.0.is_empty() { "" } else { "\r\n" };
        let _ = write!(self.0, "{sep}# {name}\r\n");
    }

    pub(crate) fn kv(&mut self, key: impl Display, value: impl Display) {
        let _ = write!(self.0, "{key}:{value}\r\n");
    }
}

impl Writer {
    /// Every command [`Writer::dispatch`] does not execute against the
    /// engine itself. None of these queue a WAL record.
    pub(crate) fn control(&mut self, cmd: &[u8], args: &[Vec<u8>]) -> Value {
        match cmd {
            b"DBSIZE" => {
                self.publish_slot();
                Value::Int(
                    self.shared
                        .tel
                        .shards
                        .iter()
                        .map(|m| m.keys.get())
                        .sum::<u64>() as i64,
                )
            }
            b"BGSAVE" => self.bg_cmd(SnapshotKind::OnDemand, "Background saving started"),
            b"BGREWRITEAOF" => {
                self.bg_cmd(SnapshotKind::WalSnapshot, "Background WAL snapshot started")
            }
            b"INFO" => Value::Bulk(self.info_text().into_bytes()),
            b"SLOWLOG" => self.slowlog_cmd(args),
            b"LATENCY" => self.latency_cmd(args),
            b"DEBUG" => self.debug_cmd(args),
            b"CONFIG" => self.config_cmd(args),
            b"COMMAND" => Value::Array(Vec::new()),
            // Replicas identify themselves (listening-port) and report
            // stream progress (ACK) with REPLCONF; both just need an OK.
            b"REPLCONF" => Value::ok(),
            b"REPLICAOF" | b"SLAVEOF" => self.replicaof_cmd(args),
            b"SHUTDOWN" => {
                let nosave = args
                    .get(1)
                    .map(|a| a.eq_ignore_ascii_case(b"NOSAVE"))
                    .unwrap_or(false);
                // Raised on the shared state so *every* shard writer
                // (not just this dispatching one) honors it.
                self.shared.nosave.store(nosave, Ordering::SeqCst);
                self.shared.raise_stop();
                Value::ok()
            }
            _ => Value::err(format!(
                "unknown command '{}'",
                String::from_utf8_lossy(cmd)
            )),
        }
    }

    /// `SLOWLOG GET [count] | LEN | RESET` over the shared slowlog.
    /// Entries mirror Redis' shape — `[id, unix_ts, duration_us, argv,
    /// "shard:<n>", "<stage breakdown>"]` — with the last two slots
    /// (Redis' client addr/name) repurposed for the owning shard and the
    /// batch's per-stage timings.
    fn slowlog_cmd(&self, args: &[Vec<u8>]) -> Value {
        let slowlog = &self.shared.tel.slowlog;
        let Some(sub) = args.get(1) else {
            return wrong_args("slowlog");
        };
        if sub.eq_ignore_ascii_case(b"LEN") {
            return Value::Int(slowlog.len() as i64);
        }
        if sub.eq_ignore_ascii_case(b"RESET") {
            slowlog.reset();
            return Value::ok();
        }
        if sub.eq_ignore_ascii_case(b"GET") {
            let count = match args.get(2) {
                None => Some(10),
                Some(raw) => match String::from_utf8_lossy(raw).parse::<i64>() {
                    Ok(n) if n < 0 => None, // -1 = everything
                    Ok(n) => Some(n as usize),
                    Err(_) => return Value::err("value is not an integer or out of range"),
                },
            };
            let entries = slowlog
                .get(count)
                .into_iter()
                .map(|e| {
                    Value::Array(vec![
                        Value::Int(e.id as i64),
                        Value::Int(e.unix_ts as i64),
                        Value::Int(e.dur_us.min(i64::MAX as u64) as i64),
                        Value::Array(e.args.iter().map(|a| Value::Bulk(a.clone())).collect()),
                        Value::Bulk(format!("shard:{}", e.shard).into_bytes()),
                        Value::Bulk(e.stage_summary().into_bytes()),
                    ])
                })
                .collect();
            return Value::Array(entries);
        }
        Value::err("unknown SLOWLOG subcommand; try GET [count]|LEN|RESET")
    }

    /// `LATENCY HISTORY <event> | LATEST | RESET`, Redis-shaped, over
    /// the spike events the writer records (`device-sync`, `wal-append`,
    /// `writer-stall`, `gc`).
    fn latency_cmd(&self, args: &[Vec<u8>]) -> Value {
        let latency = &self.shared.tel.latency;
        let Some(sub) = args.get(1) else {
            return wrong_args("latency");
        };
        if sub.eq_ignore_ascii_case(b"HISTORY") {
            let Some(event) = args.get(2) else {
                return wrong_args("latency history");
            };
            return Value::Array(
                latency
                    .history(event)
                    .into_iter()
                    .map(|(ts, ms)| {
                        Value::Array(vec![Value::Int(ts as i64), Value::Int(ms as i64)])
                    })
                    .collect(),
            );
        }
        if sub.eq_ignore_ascii_case(b"LATEST") {
            return Value::Array(
                latency
                    .latest()
                    .into_iter()
                    .map(|(name, ts, last, max)| {
                        Value::Array(vec![
                            Value::Bulk(name.as_bytes().to_vec()),
                            Value::Int(ts as i64),
                            Value::Int(last as i64),
                            Value::Int(max as i64),
                        ])
                    })
                    .collect(),
            );
        }
        if sub.eq_ignore_ascii_case(b"RESET") {
            return Value::Int(latency.reset() as i64);
        }
        Value::err("unknown LATENCY subcommand; try HISTORY <event>|LATEST|RESET")
    }

    /// `DEBUG FAULT <spec>` arms a deterministic fault plan on the device
    /// (`pc@N`, `torn@N:B`, `fail@N[xK]`); `DEBUG FAULT OFF` disarms it;
    /// `DEBUG FAULT` reports the armed plan and the write-command count.
    fn debug_cmd(&mut self, args: &[Vec<u8>]) -> Value {
        // `DEBUG DIGEST` answers a CRC-32 over the sorted keyspace, the
        // primary/replica convergence check used by tests and CI. On a
        // sharded server the keyspace is gathered from every shard and
        // merged, so the digest is identical to a single-shard server
        // holding the same keys.
        if args.len() == 2 && args[1].eq_ignore_ascii_case(b"DIGEST") {
            return match self.gather_entries() {
                Some(entries) => {
                    Value::Bulk(format!("{:08x}", engine::digest_of_sorted(&entries)).into_bytes())
                }
                None => Value::err("DIGEST unavailable: shard gather failed"),
            };
        }
        if args.len() < 2 || !args[1].eq_ignore_ascii_case(b"FAULT") {
            return Value::err(
                "unknown DEBUG subcommand; try DEBUG FAULT <spec>|OFF or DEBUG DIGEST",
            );
        }
        let device = self.db.backend().device();
        match args.len() {
            2 => {
                let plan = device.lock().expect("device mutex poisoned").fault_plan();
                let plan = plan.map_or_else(|| "off".to_string(), |p| p.to_string());
                let writes = device.counters().write_commands;
                Value::Bulk(format!("plan:{plan} writes_seen:{writes}").into_bytes())
            }
            3 => {
                if args[2].eq_ignore_ascii_case(b"OFF") {
                    device.lock().expect("device mutex poisoned").disarm_fault();
                    return Value::ok();
                }
                match String::from_utf8_lossy(&args[2]).parse::<slimio_nvme::FaultPlan>() {
                    Ok(plan) => {
                        device
                            .lock()
                            .expect("device mutex poisoned")
                            .arm_fault(plan);
                        Value::ok()
                    }
                    Err(e) => Value::err(format!("bad fault spec: {e}")),
                }
            }
            _ => Value::err("wrong number of arguments for 'debug fault'"),
        }
    }

    /// Gathers a point-in-time copy of the full keyspace: own shard's
    /// entries plus every other shard's, merged and sorted. Only shard 0
    /// calls this (for `DEBUG DIGEST` and full-sync snapshots); other
    /// shards answer between batches, after their own commit + backlog
    /// pump. Returns `None` on kill, shutdown teardown, or a wedged
    /// shard (~5s cap).
    fn gather_entries(&mut self) -> Option<Vec<Entry>> {
        let mut entries = self.db.sorted_entries();
        let mut pending = Vec::with_capacity(self.txs.len() - 1);
        for (i, tx) in self.txs.iter().enumerate() {
            if i == self.shard {
                continue;
            }
            let (etx, erx) = mpsc::channel();
            if tx.send(Request::Entries { reply: etx }).is_err() {
                return None;
            }
            pending.push(erx);
        }
        for erx in pending {
            let kill = &self.shared.kill;
            let mut e = recv_polling(&erx, |waited| {
                kill.load(Ordering::SeqCst) || waited >= Duration::from_secs(5)
            })?;
            entries.append(&mut e);
        }
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        Some(entries)
    }

    /// `BGSAVE`/`BGREWRITEAOF`: starts a snapshot on this shard, then
    /// broadcasts the start to every other shard. Reports the classic
    /// already-in-progress error if any shard refuses (shards that did
    /// start still run their snapshots to completion).
    fn bg_cmd(&mut self, kind: SnapshotKind, started: &str) -> Value {
        if self.begin_snapshot(kind).is_err() {
            return Value::err("Background save already in progress");
        }
        let mut ok = true;
        for (i, tx) in self.txs.iter().enumerate() {
            if i == self.shard {
                continue;
            }
            let (btx, brx) = mpsc::channel();
            if tx.send(Request::Bg { kind, reply: btx }).is_err() {
                ok = false;
                continue;
            }
            match brx.recv_timeout(Duration::from_secs(1)) {
                Ok(b) => ok &= b,
                Err(_) => ok = false,
            }
        }
        if ok {
            Value::Simple(started.to_string())
        } else {
            Value::err("Background save already in progress")
        }
    }

    /// Answers keyspace gathers parked by this batch. Runs after the
    /// commit + backlog pump + view publish, so the handed-back entries
    /// reflect exactly the frames this shard has published.
    pub(crate) fn answer_gathers(&mut self) {
        if self.pending_gathers.is_empty() {
            return;
        }
        for reply in std::mem::take(&mut self.pending_gathers) {
            let _ = reply.send(self.db.sorted_entries());
        }
    }

    /// `REPLICAOF NO ONE` promotes; `REPLICAOF host port` (re-)attaches
    /// this node to a primary and spawns a fresh link thread under a new
    /// epoch, severing any previous link.
    fn replicaof_cmd(&mut self, args: &[Vec<u8>]) -> Value {
        if args.len() != 3 {
            return wrong_args("replicaof");
        }
        if args[1].eq_ignore_ascii_case(b"no") && args[2].eq_ignore_ascii_case(b"one") {
            self.repl.promote();
            return Value::ok();
        }
        let host = String::from_utf8_lossy(&args[1]).to_string();
        let Ok(port) = String::from_utf8_lossy(&args[2]).parse::<u16>() else {
            return Value::err("Invalid master port");
        };
        let epoch = self.repl.set_primary(format!("{host}:{port}"));
        repl::spawn_link(LinkCtx {
            txs: self.txs.clone(),
            repl: Arc::clone(&self.repl),
            shared: Arc::clone(&self.shared),
            epoch,
        });
        Value::ok()
    }

    /// Serves PSYNC handoffs parked by this batch (shard 0 only). Runs
    /// after the commit, so flushing any straggling buffered WAL bytes
    /// (a no-op under `Always`) and pumping the tap makes the backlog
    /// end cover this shard's every published frame.
    ///
    /// On a sharded primary the full-sync snapshot spans every shard,
    /// and other shards keep committing while it is gathered — so the
    /// peer is registered (with its attach offset = backlog end) BEFORE
    /// the gather, under the same repl lock that read the offset.
    /// Frames published during the gather queue in the feed behind the
    /// preamble; the snapshot may already contain some of their
    /// effects, and the replica re-applies them harmlessly because
    /// SET/DEL by key are idempotent and applied in gseq order.
    pub(crate) fn handle_pending_syncs(&mut self) {
        if self.pending_syncs.is_empty() {
            return;
        }
        if self.db.wal_buffered_bytes() > 0 {
            let now = self.now();
            let _ = self.db.flush_wal(now);
        }
        self.pump_repl();
        for (args, stream, addr) in std::mem::take(&mut self.pending_syncs) {
            let (feed_tx, feed_rx) = mpsc::channel();
            let mut inner = self.repl.lock();
            // Partial resync only when the replica followed *this*
            // stream and every byte it is missing is still retained.
            let partial = repl::parse_psync(&args)
                .filter(|(id, _)| *id == inner.replid)
                .and_then(|(_, off)| inner.backlog.tail_from(off).map(|tail| (off, tail)));
            // `acked` stays at the attach offset (0 for a full sync)
            // until the replica reports applied progress (the WAIT
            // contract); `base` carries the attach offset so feed-lag
            // eviction doesn't judge a fresh replica on stream bytes
            // that predate it.
            let (init_acked, base, full_offset) = match &partial {
                Some((off, _)) => (*off, *off, None),
                None => {
                    let offset = inner.backlog.end();
                    (0, offset, Some(offset))
                }
            };
            let acked = Arc::new(AtomicU64::new(init_acked));
            let alive = Arc::new(AtomicBool::new(true));
            let replid = inner.replid.clone();
            inner.peers.push(ReplicaPeer {
                addr,
                acked: Arc::clone(&acked),
                base,
                alive: Arc::clone(&alive),
                feed: feed_tx,
            });
            drop(inner);
            let mut preamble = Vec::new();
            match (partial, full_offset) {
                (Some((_, tail)), _) => {
                    preamble.extend_from_slice(b"+CONTINUE\r\n");
                    preamble.extend_from_slice(&tail);
                }
                (None, Some(offset)) => {
                    let snapshot_chunk = self.db.config().snapshot_chunk;
                    let Some(entries) = self.gather_entries() else {
                        // Gather failed (kill/teardown mid-gather): the
                        // replica is dropped; it will retry its sync.
                        alive.store(false, Ordering::SeqCst);
                        continue;
                    };
                    let snapshot = engine::serialize_entries(
                        entries.iter().map(|(k, v)| (k, v)),
                        snapshot_chunk,
                    );
                    preamble
                        .extend_from_slice(format!("+FULLRESYNC {replid} {offset}\r\n").as_bytes());
                    resp::encode_bulk(&snapshot, &mut preamble);
                }
                (None, None) => unreachable!(),
            }
            repl::spawn_feed(
                stream,
                preamble,
                feed_rx,
                acked,
                alive,
                Arc::clone(&self.shared),
            );
        }
    }

    fn config_cmd(&self, args: &[Vec<u8>]) -> Value {
        if args.len() != 3 || !args[1].eq_ignore_ascii_case(b"GET") {
            return wrong_args("config");
        }
        let pattern = String::from_utf8_lossy(&args[2]).to_ascii_lowercase();
        let appendfsync = match self.db.config().policy {
            LogPolicy::Always => "always",
            LogPolicy::Periodical { .. } => "everysec",
        };
        let threshold = self.db.config().wal_snapshot_threshold.to_string();
        let maxmemory = self.shared.gov.opts().maxmemory.to_string();
        let entries: [(&str, &str); 6] = [
            ("appendfsync", appendfsync),
            ("save", ""),
            ("maxmemory", &maxmemory),
            ("backend", self.shared.backend_name),
            ("fdp", if self.shared.fdp { "yes" } else { "no" }),
            ("wal-snapshot-threshold", &threshold),
        ];
        let mut out = Vec::new();
        for (k, v) in entries {
            if pattern == "*" || pattern == k {
                out.push(Value::bulk(k.as_bytes()));
                out.push(Value::bulk(v.as_bytes()));
            }
        }
        Value::Array(out)
    }

    /// `INFO`: one rendering of the registry handles (and of the few
    /// things that are not plain numbers) — `/metrics` is the other.
    /// Section order, key names and value formats are contract.
    fn info_text(&self) -> String {
        // Own slot first, so every shard below — this one included — is
        // read the same way and the asking shard's numbers are exact.
        self.publish_slot();
        let (sh, tel) = (&*self.shared, &*self.shared.tel);
        let gov = &sh.gov;
        let sum = |f: fn(&ShardMetrics) -> u64| tel.shards.iter().map(f).sum::<u64>();
        let uptime = sh.start.elapsed();
        let ops = sh.ops.get();
        let (p50, p99, p999) = tel.command_latency();
        let us = |ns: u64| format!("{:.1}", ns as f64 / 1000.0);
        let dt = self.db.backend().device().telemetry();
        let (waf, capacity) = (dt.waf, dt.capacity_bytes);
        let mut t = InfoText::default();
        t.section("Server");
        t.kv("backend", sh.backend_name);
        t.kv("fdp", sh.fdp as u8);
        t.kv("uptime_in_seconds", uptime.as_secs());
        t.section("Clients");
        t.kv("connected_clients", sh.connections.get());
        t.section("Stats");
        t.kv("total_connections_received", sh.total_connections.get());
        t.kv("total_commands_processed", ops);
        t.kv("total_net_input_bytes", sh.net_in.get());
        t.kv("total_net_output_bytes", sh.net_out.get());
        t.kv(
            "avg_ops_per_sec",
            format_args!("{:.1}", ops as f64 / uptime.as_secs_f64().max(1e-9)),
        );
        t.kv("latency_p50_us", us(p50));
        t.kv("latency_p99_us", us(p99));
        t.kv("latency_p999_us", us(p999));
        t.section("Persistence");
        t.kv("keys", sum(|m| m.keys.get()));
        t.kv("mem_used_bytes", sum(|m| m.mem_used.get()));
        t.kv("wal_len", sum(|m| m.wal_len.get()));
        t.kv("wal_snapshots", sum(|m| m.wal_snapshots.get()));
        t.kv("od_snapshots", sum(|m| m.od_snapshots.get()));
        let snapshotting = |m: &ShardMetrics| m.snapshot_active.load(Ordering::Relaxed);
        t.kv(
            "snapshot_in_progress",
            tel.shards.iter().any(snapshotting) as u8,
        );
        match self.last_snapshot_ms {
            Some(ms) => t.kv("last_snapshot_ms", ms),
            None => t.kv("last_snapshot_ms", "-"),
        }
        t.kv("recovered_keys", sh.recovered_keys);
        t.kv("wal_records_replayed", sh.wal_records_replayed);
        t.section("Resources");
        let gates = |f: fn(&ShardGate) -> u64| gov.gates.iter().map(f).sum::<u64>();
        t.kv("maxmemory", gov.opts().maxmemory);
        t.kv("engine_bytes", gov.engine_bytes.get());
        t.kv("engine_peak_bytes", gov.engine_hwm.get());
        t.kv(
            "writer_queue_depth",
            (0..gov.gates.len())
                .map(|i| gov.shard_depth(i))
                .sum::<usize>(),
        );
        t.kv("writer_queue_cap", gates(|g| g.cap.get()));
        t.kv("writer_queue_hwm", gates(|g| g.hwm.get()));
        t.kv("blocked_clients", gov.blocked_clients.get());
        t.kv("busy_refused", gov.busy_refused.get());
        t.kv("oom_refused", gov.oom_refused.get());
        t.kv("evicted_clients", gov.evicted_clients.get());
        t.kv("evicted_replicas", gov.evicted_replicas.get());
        t.kv(
            "reply_buf_soft_limit_bytes",
            gov.opts().reply_buf_soft_limit,
        );
        t.kv("repl_feed_limit_bytes", gov.opts().repl_feed_limit);
        t.section("Shards");
        t.kv("shards", tel.shards.len());
        for (i, (m, g)) in tel.shards.iter().zip(&gov.gates).enumerate() {
            t.kv(
                format_args!("shard{i}"),
                format_args!(
                    "queue_depth={},queue_cap={},queue_hwm={},busy_refused={},\
                     batch_p50={},wal_len={},keys={},last_gseq={}",
                    gov.shard_depth(i),
                    g.cap.get(),
                    g.hwm.get(),
                    g.busy.get(),
                    m.batch_sizes.snapshot().p50(),
                    m.wal_len.get(),
                    m.keys.get(),
                    m.last_gseq.get(),
                ),
            );
        }
        t.section("Replication");
        self.repl.info_lines(&mut t);
        t.section("Telemetry");
        t.kv("metrics_port", tel.metrics_port.load(Ordering::SeqCst));
        t.kv("slowlog_len", tel.slowlog.len());
        t.kv("slowlog_threshold_us", tel.slowlog.threshold_us());
        t.kv("latency_events", tel.latency.event_count());
        t.kv(
            "latency_last_event",
            tel.latency.last_event().map_or("-", |(name, _)| name),
        );
        t.section("Device");
        t.kv("waf", format_args!("{waf:.2}"));
        t.kv("device_capacity_bytes", capacity);
        t.0
    }
}
