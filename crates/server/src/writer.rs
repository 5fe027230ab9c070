//! One shard's writer thread: owns that shard's engine (its slice of the
//! keyspace over its own WAL region and FDP placement IDs), serializes
//! that shard's commands, group-commits each batch with one flush+sync,
//! publishes the batch to the read view and the replication backlog
//! before any reply is released, pumps background snapshots, applies a
//! primary's stream when this node is a replica, and performs the final
//! flush on clean shutdown. Shard 0's writer additionally carries the
//! control plane, which lives in [`crate::control`].

use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use slimio_des::SimTime;
use slimio_imdb::backend::{PersistBackend, SnapshotKind};
use slimio_imdb::engine::DbError;
use slimio_imdb::wal::WalRecord;
use slimio_imdb::{Db, Entry, LogPolicy};
use slimio_uring::SharedClock;

use crate::conn::governed_cmd;
use crate::repl::{ReplState, READONLY_MSG};
use crate::resp::Value;
use crate::server::{wrong_args, Request, Shared, SHUTTING_DOWN};
use crate::store::AnyBackend;
use crate::telemetry::{dur_ns, ShardMetrics};

/// Most requests one group-committed batch drains from the queue. Bounds
/// reply latency for the batch's first command and the size of the
/// coalesced WAL write; only requests already queued are taken, so an
/// undersubscribed server still commits batches of one with no added
/// wait.
const MAX_BATCH: usize = 128;
/// How many index entries one background snapshot step serializes while
/// the command queue is drained.
const IDLE_STEP_ENTRIES: usize = 512;
/// Step size interleaved with command processing under load.
const BUSY_STEP_ENTRIES: usize = 64;
/// A busy step runs once per this many commands while a snapshot is live.
const BUSY_STEP_EVERY: u32 = 4;
/// How long the writer keeps draining queued requests with an error reply
/// after shutdown begins. Connection threads notice `stop` within their
/// 100 ms read timeout, so one idle window this long means the queue is
/// truly dry.
const SHUTDOWN_DRAIN_IDLE: Duration = Duration::from_millis(150);
/// Longest the writer parks on its queue before re-checking `stop`.
const IDLE_POLL: Duration = Duration::from_millis(100);
/// Shortest such park: a flush already due is ticked without spinning.
const MIN_POLL: Duration = Duration::from_millis(1);
/// Most bytes `everysec` leaves in the engine's user-level WAL buffer
/// between interval flushes. Without a bound the buffer holds one
/// interval of records at whatever rate they arrive — tens of MiB that
/// are then copied twice more on their way to the device.
const WAL_BUFFER_CAP: usize = 1 << 20;

/// The reply (and "nothing to commit") for a request that landed behind
/// a `SHUTDOWN` in its batch.
fn refused() -> (Value, bool) {
    (Value::Error(SHUTTING_DOWN.to_string()), false)
}

/// One shard's writer. Only shard 0 ever blocks on other shards (gathers,
/// `Bg` broadcasts); other shards never block on shard 0, so there is no
/// cross-writer deadlock.
pub(crate) struct Writer {
    pub(crate) shard: usize,
    pub(crate) db: Db<AnyBackend>,
    rx: mpsc::Receiver<Request>,
    /// Senders to every shard writer (our own included). Shard 0 uses
    /// them for gathers and snapshot broadcasts; runtime `REPLICAOF`
    /// hands a clone to the spawned link thread. Their existence means
    /// channel disconnect can no longer signal shutdown; the idle wait
    /// polls `stop` instead.
    pub(crate) txs: Vec<mpsc::Sender<Request>>,
    pub(crate) shared: Arc<Shared>,
    pub(crate) repl: Arc<ReplState>,
    clock: SharedClock,
    snap_started: Option<Instant>,
    pub(crate) last_snapshot_ms: Option<u64>,
    cmds_since_step: u32,
    /// PSYNC handoffs parked during batch execution, served between
    /// batches (after the commit + backlog pump, so the replica's
    /// attach offset covers every frame this shard has published).
    pub(crate) pending_syncs: Vec<(Vec<Vec<u8>>, TcpStream, String)>,
    /// Keyspace-gather requests from shard 0 parked during batch
    /// execution, answered between batches after the commit + backlog
    /// pump so the reply reflects only published state.
    pub(crate) pending_gathers: Vec<mpsc::Sender<Vec<Entry>>>,
    /// FTL GC pass count at the last batch boundary (for the `gc`
    /// LATENCY event).
    prev_gc_passes: u64,
}

impl Writer {
    pub(crate) fn new(
        shard: usize,
        db: Db<AnyBackend>,
        rx: mpsc::Receiver<Request>,
        txs: Vec<mpsc::Sender<Request>>,
        shared: Arc<Shared>,
        repl: Arc<ReplState>,
        clock: SharedClock,
    ) -> Self {
        Writer {
            shard,
            db,
            rx,
            txs,
            shared,
            repl,
            clock,
            snap_started: None,
            last_snapshot_ms: None,
            cmds_since_step: 0,
            pending_syncs: Vec::new(),
            pending_gathers: Vec::new(),
            prev_gc_passes: 0,
        }
    }

    pub(crate) fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Runs until shutdown or kill; returns the backend so the store can
    /// be reassembled.
    pub(crate) fn run(mut self) -> AnyBackend {
        let mut pending: Vec<(mpsc::Sender<(Value, u64)>, Value)> = Vec::with_capacity(MAX_BATCH);
        let mut write_acks: Vec<usize> = Vec::with_capacity(MAX_BATCH);
        // Slowlog bookkeeping per batch: (enqueue time, queue-stage ns,
        // argv) for each executed client command.
        let mut cmd_meta: Vec<(Instant, u64, Vec<Vec<u8>>)> = Vec::new();
        // An owned handle, so the batch loop can record stages while
        // `self` is mutably borrowed by dispatch.
        let tel = Arc::clone(&self.shared.tel);
        // Baseline the GC delta: a restarted server shares the
        // in-process device, whose counters carry prior history.
        self.prev_gc_passes = self.db.backend().device().counters().gc_passes;
        loop {
            if self.shared.kill.load(Ordering::SeqCst) {
                return self.db.into_backend();
            }
            // First request of a batch. Pump the snapshot while the queue
            // is empty; otherwise park on the channel — until the
            // Periodical flush timer owes buffered WAL bytes their flush,
            // and never longer than the idle poll. The writer holds its
            // own sender clone (for link threads), so teardown's sender
            // drop can never surface as a disconnect here: every slice
            // ends in a `stop` check.
            let first = if self.db.snapshot_active() {
                match self.rx.try_recv() {
                    Ok(r) => Some(r),
                    Err(mpsc::TryRecvError::Empty) => {
                        self.step_snapshot(IDLE_STEP_ENTRIES);
                        continue;
                    }
                    Err(mpsc::TryRecvError::Disconnected) => None,
                }
            } else {
                let flush_due_in = self.flush_due_in();
                let slice = flush_due_in.map_or(IDLE_POLL, |d| d.clamp(MIN_POLL, IDLE_POLL));
                match self.rx.recv_timeout(slice) {
                    Ok(r) => Some(r),
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        if self.shared.stop.load(Ordering::SeqCst) {
                            break;
                        }
                        if flush_due_in.is_some() {
                            let now = self.now();
                            let _ = self.db.tick(now);
                            // A timer-driven flush ships its records too.
                            self.pump_repl();
                        }
                        continue;
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => None,
                }
            };
            let Some(first) = first else { break };

            // Drain whatever else is already queued into one batch — no
            // waiting, so a lone request still commits immediately.
            let mut batch = Vec::with_capacity(8);
            batch.push(first);
            while batch.len() < MAX_BATCH {
                match self.rx.try_recv() {
                    Ok(r) => batch.push(r),
                    Err(_) => break,
                }
            }
            let batch_len = batch.len() as u32;
            // Give the drained commands' admission slots back right away
            // so parked connections refill the queue while this batch
            // commits. Queued-but-undrained work is therefore bounded by
            // `queue_cap`, and total writer-held work by `queue_cap`
            // plus one MAX_BATCH batch in flight.
            let governed_drained = batch
                .iter()
                .filter(|r| {
                    matches!(r, Request::Cmd { args, .. }
                        if args.first().is_some_and(|c| governed_cmd(c)))
                })
                .count();
            self.shared.gov.release(self.shard, governed_drained);

            let rec = &tel.shards[self.shard];
            let slowlog_on = tel.slowlog.enabled();
            let t_exec = Instant::now();
            let mut max_queue_ns = 0u64;
            let mut n_cmds = 0u64;
            cmd_meta.clear();

            // Execute every command, queueing WAL records in the engine
            // while deferring the flush; every reply is parked until the
            // group commit lands so no ack precedes its batch's sync.
            pending.clear();
            write_acks.clear();
            let mut refusing = false;
            for req in batch {
                let (sender, (value, wrote)) = match req {
                    Request::Sync { args, stream, addr } => {
                        // Parked until after the commit/pump below, so
                        // the frozen keyspace matches the backlog end.
                        // A refused (shutting-down) sync just drops the
                        // socket.
                        if !refusing {
                            self.pending_syncs.push((args, stream, addr));
                        }
                        continue;
                    }
                    Request::Cmd {
                        args,
                        queued_at,
                        reply,
                    } => {
                        let q_ns = dur_ns(t_exec.saturating_duration_since(queued_at));
                        rec.queue.record(q_ns);
                        max_queue_ns = max_queue_ns.max(q_ns);
                        n_cmds += 1;
                        // Once SHUTDOWN has landed in this batch,
                        // everything pipelined behind it is refused,
                        // matching what the post-loop drain would tell
                        // it (the publish below still stamps these).
                        let outcome = if refusing {
                            refused()
                        } else {
                            let outcome = self.dispatch(&args);
                            if slowlog_on {
                                cmd_meta.push((queued_at, q_ns, args));
                            }
                            outcome
                        };
                        (reply, outcome)
                    }
                    Request::ReplSet { reply, .. } | Request::ReplApply { reply, .. }
                        if refusing =>
                    {
                        (reply, refused())
                    }
                    Request::ReplSet {
                        entries,
                        epoch,
                        reply,
                    } => (reply, self.apply_full_reset(&entries, epoch)),
                    Request::ReplApply {
                        records,
                        epoch,
                        reply,
                    } => (reply, self.apply_repl_records(records, epoch)),
                    Request::Entries { reply } => {
                        // Parked until after the commit/pump below so the
                        // reply covers every published frame; a refused
                        // (shutting-down) gather drops its sender, which
                        // the waiting shard reads as failure.
                        if !refusing {
                            self.pending_gathers.push(reply);
                        }
                        continue;
                    }
                    Request::Bg { kind, reply } => {
                        // BGSAVE/BGREWRITEAOF broadcast from shard 0:
                        // answered inline — whether the snapshot started
                        // does not depend on this batch's commit.
                        let ok = !refusing && self.begin_snapshot(kind).is_ok();
                        let _ = reply.send(ok);
                        continue;
                    }
                };
                if wrote {
                    write_acks.push(pending.len());
                }
                pending.push((sender, value));
                if self.shared.stop.load(Ordering::SeqCst) {
                    refusing = true;
                }
            }
            let shutting_down = refusing || self.shared.stop.load(Ordering::SeqCst);
            let t_commit = Instant::now();
            let exec_ns = dur_ns(t_commit.duration_since(t_exec));
            rec.execute.record(exec_ns);

            // Group commit: one WAL flush and (under Always) one device
            // sync cover the whole batch. If it fails, retract every ack
            // that was contingent on this commit.
            let (mut wal_ns, mut sync_ns, mut gc_delta) = (0u64, 0u64, 0u64);
            if !write_acks.is_empty() {
                match self.group_commit() {
                    Ok(split) => (wal_ns, sync_ns) = split,
                    Err(e) => {
                        let err = Value::err(format!("write failed: {e}"));
                        for &i in &write_acks {
                            pending[i].1 = err.clone();
                        }
                        // The errored acks also cover ReplSet/ReplApply:
                        // the link thread reads an error ack as link
                        // failure and never advances the acked upstream
                        // offset.
                    }
                }
                let gc_total = self.db.backend().device().counters().gc_passes;
                gc_delta = gc_total.saturating_sub(self.prev_gc_passes);
                self.prev_gc_passes = gc_total;
                rec.wal_append.record(wal_ns);
                rec.device_sync.record(sync_ns);
            }
            let t_post = Instant::now();
            // Ship this batch's committed records as one gseq-stamped
            // frame — backlog end now covers every write acked below,
            // which is the invariant `WAIT` relies on.
            self.pump_repl();
            // Publish the batch's keyspace mutations into the read view
            // *before* releasing any reply: a connection that sees an ack
            // must already be able to read its own write locally. (On
            // commit failure the keyspace was still mutated, matching the
            // engine's existing semantics, so the batch publishes either
            // way — readers follow the keyspace, not the WAL.)
            let published_seq = self.db.publish_view();
            // Publish this shard's slot (engine levels, published
            // sequence, batch size) and mirror the cross-shard governed
            // footprint and its high-water mark; once per batch is plenty
            // of resolution.
            self.publish_slot();
            rec.published_seq.set(published_seq);
            rec.batch_sizes.record(batch_len as u64);
            self.shared
                .gov
                .record_engine_bytes(self.total_mem_governed());
            // Release replies in execution order; each connection's
            // replies land on its own channel in request order.
            for (reply, value) in pending.drain(..) {
                let _ = reply.send((value, published_seq));
            }
            let t_done = Instant::now();
            let reply_ns = dur_ns(t_done.duration_since(t_post));
            rec.reply.record(reply_ns);
            rec.batches.inc();
            rec.batch_commands.add(n_cmds);
            // LATENCY spike events: anything that held this batch (and
            // thus every connection parked behind it) at least the
            // threshold.
            tel.latency.observe("device-sync", sync_ns);
            tel.latency.observe("wal-append", wal_ns);
            tel.latency.observe("writer-stall", max_queue_ns);
            if gc_delta > 0 {
                tel.latency
                    .observe("gc", dur_ns(t_post.duration_since(t_commit)));
            }
            // Slowlog: a command's duration spans its enqueue to this
            // batch's reply release; the attached stage breakdown is the
            // batch's, with the command's own queue wait.
            if slowlog_on && !cmd_meta.is_empty() {
                let thr_us = tel.slowlog.threshold_us().max(0) as u64;
                for (queued_at, q_ns, args) in cmd_meta.drain(..) {
                    let dur = t_done.saturating_duration_since(queued_at);
                    if dur_ns(dur) / 1_000 < thr_us {
                        continue;
                    }
                    tel.slowlog.maybe_record(
                        dur,
                        args,
                        self.shard,
                        vec![
                            ("queue", q_ns / 1_000),
                            ("execute", exec_ns / 1_000),
                            ("wal_append", wal_ns / 1_000),
                            ("device_sync", sync_ns / 1_000),
                            ("reply", reply_ns / 1_000),
                        ],
                    );
                }
            }
            if !write_acks.is_empty() {
                self.after_write();
            }
            self.answer_gathers();
            self.handle_pending_syncs();

            if self.db.snapshot_active() {
                self.cmds_since_step += batch_len;
                if self.cmds_since_step >= BUSY_STEP_EVERY {
                    self.cmds_since_step = 0;
                    self.step_snapshot(BUSY_STEP_ENTRIES);
                }
            }
            if shutting_down {
                break;
            }
        }

        // A kill can race the blocking recv above (teardown drops the
        // sender): never run the clean-flush path once kill is set.
        if self.shared.kill.load(Ordering::SeqCst) {
            return self.db.into_backend();
        }

        // Shutting down cleanly: requests still queued on the channel —
        // pipelined behind the command that initiated shutdown, or raced
        // in from other connections — must not be dropped on the floor.
        // Every forwarded command gets a reply, even if it is an error.
        let final_seq = self.db.publish_view();
        while let Ok(req) = self.rx.recv_timeout(SHUTDOWN_DRAIN_IDLE) {
            if let Request::Cmd { args, .. } = &req {
                // Admitted commands drained here still hold their queue
                // slots; give them back so parked admitters can fail
                // fast instead of riding out their full deadline.
                if args.first().is_some_and(|c| governed_cmd(c)) {
                    self.shared.gov.release(self.shard, 1);
                }
            }
            match req {
                Request::Cmd { reply, .. }
                | Request::ReplSet { reply, .. }
                | Request::ReplApply { reply, .. } => {
                    let _ = reply.send((refused().0, final_seq));
                }
                // A sync that raced shutdown just loses its socket; a
                // gather that raced it loses its sender (the waiting
                // shard reads the disconnect as failure).
                Request::Sync { .. } | Request::Entries { .. } => {}
                Request::Bg { reply, .. } => {
                    let _ = reply.send(false);
                }
            }
        }

        // Clean exit: finish any in-flight snapshot, then make the WAL
        // durable — unless the client asked for SHUTDOWN NOSAVE.
        if !self.shared.nosave.load(Ordering::SeqCst) {
            while self.db.snapshot_active() {
                let now = self.now();
                if self.db.snapshot_step(IDLE_STEP_ENTRIES, now).is_err() {
                    break;
                }
            }
            let now = self.now();
            let _ = self.db.flush_wal(now);
            let _ = self.db.sync_wal(now);
        }
        self.db.into_backend()
    }

    fn step_snapshot(&mut self, entries: usize) {
        let now = self.now();
        match self.db.snapshot_step(entries, now) {
            Ok(true) => {
                if let Some(t0) = self.snap_started.take() {
                    self.last_snapshot_ms =
                        Some(t0.elapsed().as_millis().min(u64::MAX as u128) as u64);
                }
                // A snapshot pumped to its end between batches: no batch
                // follows to publish that it is over.
                self.publish_slot();
            }
            Ok(false) => {}
            Err(_) => {
                self.snap_started = None;
            }
        }
    }

    pub(crate) fn begin_snapshot(&mut self, kind: SnapshotKind) -> Result<(), DbError> {
        let now = self.now();
        self.db.snapshot_begin(kind, now)?;
        self.snap_started = Some(Instant::now());
        Ok(())
    }

    /// How long until the Periodical flush timer owes buffered WAL bytes
    /// their flush — the first-request wait must end by then and `tick`.
    /// `None` when nothing is owed.
    fn flush_due_in(&self) -> Option<Duration> {
        let due = self.db.flush_due_at()?;
        Some(Duration::from_nanos(
            due.saturating_sub(self.now()).as_nanos(),
        ))
    }

    /// The batch's single commit point. Under `Always` this issues the
    /// flush and sync unconditionally — a mid-batch BGSAVE/BGREWRITEAOF
    /// flushes the buffer as a side effect of forking, and those records
    /// still need this sync before their acks may be released. Under
    /// `Periodical` the flush — and the sync of what it flushed — stays
    /// interval-gated inside the engine, as in the paper, until the
    /// buffer reaches [`WAL_BUFFER_CAP`]: that batch commits like an
    /// `Always` one, which is strictly stronger than `everysec` asks
    /// (Redis `write()`s every loop and defers only the fsync).
    ///
    /// Returns the commit's wall-clock cost split at the flush/sync
    /// boundary — the `wal_append` and `device_sync` telemetry stages.
    /// An injected device stall (`slow@` faults) that slept during the
    /// flush phase is re-attributed to `device_sync`, where it belongs
    /// causally, so `wal_append` stays a pure software cost; stall during
    /// the sync phase is already inside the sync timing.
    fn group_commit(&mut self) -> Result<(u64, u64), DbError> {
        let now = self.now();
        let stall = |db: &Db<AnyBackend>| db.backend().device().counters().wall_stall_ns;
        let stall0 = stall(&self.db);
        let t_flush = Instant::now();
        let sync_from = match self.db.config().policy {
            LogPolicy::Periodical { .. } if self.db.wal_buffered_bytes() < WAL_BUFFER_CAP => {
                self.db.batch_commit(now).map(|_| None)?
            }
            _ => Some(self.db.flush_wal(now)?.done_at),
        };
        let flush_ns = dur_ns(t_flush.elapsed());
        let flush_stall_ns = stall(&self.db).saturating_sub(stall0);
        let t_sync = Instant::now();
        let mut sync_ns = 0;
        if let Some(at) = sync_from {
            self.db.sync_wal(at)?;
            sync_ns = dur_ns(t_sync.elapsed());
        }
        Ok((
            flush_ns.saturating_sub(flush_stall_ns),
            sync_ns.saturating_add(flush_stall_ns),
        ))
    }

    /// Executes one command. The second return value marks a reply whose
    /// ack is contingent on the batch's group commit: the engine has only
    /// queued its WAL records, and the writer must not release the reply
    /// until the commit lands (or must replace it with an error).
    fn dispatch(&mut self, args: &[Vec<u8>]) -> (Value, bool) {
        let Some(cmd) = args.first() else {
            return (Value::err("empty command"), false);
        };
        let cmd = cmd.to_ascii_uppercase();
        let reply = match cmd.as_slice() {
            b"PING" => match args.len() {
                1 => Value::Simple("PONG".to_string()),
                2 => Value::Bulk(args[1].clone()),
                _ => wrong_args("ping"),
            },
            b"SET" => {
                if args.len() != 3 {
                    return (wrong_args("set"), false);
                }
                if self.repl.is_replica() {
                    return (Value::Error(READONLY_MSG.to_string()), false);
                }
                // The memory gate covers only client SETs: DELs shrink
                // the keyspace and must always go through (they are the
                // way out of an OOM condition), replica applies must
                // track the primary, and reads never touch the writer.
                // The gate is global: own live footprint plus every
                // other shard's last published one.
                let incoming = (args[1].len() + args[2].len()) as u64;
                if self
                    .shared
                    .gov
                    .refuse_oom(self.total_mem_governed(), incoming)
                {
                    return (
                        Value::Error(
                            "OOM command not allowed when used memory > 'maxmemory'".to_string(),
                        ),
                        false,
                    );
                }
                self.db.set_queued(&args[1], &args[2]);
                return (Value::ok(), true);
            }
            b"GET" => {
                if args.len() != 2 {
                    return (wrong_args("get"), false);
                }
                match self.db.get(&args[1]) {
                    Some(v) => Value::Bulk(v.to_vec()),
                    None => Value::Null,
                }
            }
            b"DEL" => {
                if args.len() < 2 {
                    return (wrong_args("del"), false);
                }
                if self.repl.is_replica() {
                    return (Value::Error(READONLY_MSG.to_string()), false);
                }
                let mut removed = 0i64;
                for key in &args[1..] {
                    let (_, was_removed) = self.db.del_queued(key);
                    if was_removed {
                        removed += 1;
                    }
                }
                // Only an effective delete queued a WAL record.
                return (Value::Int(removed), removed > 0);
            }
            b"EXISTS" => {
                if args.len() < 2 {
                    return (wrong_args("exists"), false);
                }
                let mut found = 0i64;
                for key in &args[1..] {
                    if self.db.get(key).is_some() {
                        found += 1;
                    }
                }
                Value::Int(found)
            }
            // Everything else is control plane (shard 0 only).
            _ => self.control(&cmd, args),
        };
        (reply, false)
    }

    /// Post-write bookkeeping: start a WAL-threshold snapshot if the log
    /// has grown past the configured bound.
    fn after_write(&mut self) {
        if self.db.snapshot_active() {
            return;
        }
        let now = self.now();
        if let Ok(true) = self.db.maybe_wal_snapshot(now) {
            self.snap_started = Some(Instant::now());
        }
    }

    /// Drains the engine's WAL tap into the replication backlog as one
    /// `(shard, gseq)`-tagged frame, fanned out to the attached
    /// replicas' feeds. Everything in the tap has been flushed (and,
    /// under `Always`, synced) — only durable records ever ship. The
    /// gseq is stamped under the repl lock, so backlog byte order *is*
    /// global batch order and the replica's in-order apply linearizes
    /// cross-shard effects.
    pub(crate) fn pump_repl(&mut self) {
        let bytes = self.db.take_tapped_wal();
        if !bytes.is_empty() {
            let gseq = self
                .repl
                .publish_frame(self.shard as u16, bytes, &self.shared.gov);
            self.slot().last_gseq.set(gseq);
        }
    }

    /// This shard's slot in the registry.
    pub(crate) fn slot(&self) -> &ShardMetrics {
        &self.shared.tel.shards[self.shard]
    }

    /// Publishes this shard's engine levels into its slot. Runs once per
    /// batch, and again right before shard 0 renders `INFO`/`DBSIZE` —
    /// which is why those can read every shard, their own included, from
    /// the slots alone and still be exact for the dispatching shard.
    pub(crate) fn publish_slot(&self) {
        let st = self.slot();
        st.keys.set(self.db.len() as u64);
        st.mem_used.set(self.db.mem_used());
        st.wal_len.set(self.db.backend().wal_len());
        let stats = self.db.stats();
        st.wal_snapshots.set(stats.wal_snapshots);
        st.od_snapshots.set(stats.od_snapshots);
        st.snapshot_active
            .store(self.db.snapshot_active(), Ordering::Relaxed);
    }

    /// Cross-shard governed bytes for the OOM gate and `engine_bytes`: own
    /// engine live (published here, per call, because a batch's SETs must
    /// each see the ones before them), other shards from their last
    /// publication (at most one batch stale — the gate is a soft limit
    /// either way).
    fn total_mem_governed(&self) -> u64 {
        self.slot().mem_governed.set(self.db.mem_governed());
        self.shared
            .tel
            .shards
            .iter()
            .map(|s| s.mem_governed.get())
            .sum()
    }

    /// Full-sync landing on a replica: replace this shard's slice of
    /// the keyspace with its split of the shipped snapshot (the link
    /// thread already parsed and re-sharded it by this node's own
    /// `shard_of`) *through the queued-write path*, so the reset is
    /// logged in this shard's own WAL and committed/published like any
    /// other batch. The link advances the acked upstream offset only
    /// after every shard acks its slice.
    fn apply_full_reset(&mut self, entries: &[(Vec<u8>, Vec<u8>)], epoch: u64) -> (Value, bool) {
        if !self.repl.link_current(epoch) {
            return (Value::err("stale replication link"), false);
        }
        for key in self.db.keys() {
            let _ = self.db.del_queued(&key);
        }
        for (k, v) in entries {
            self.db.set_queued(k, v);
        }
        (Value::ok(), true)
    }

    /// Applies this shard's slice of decoded upstream stream records.
    /// SET/DEL by key are idempotent, so a partial-resync overlap
    /// re-applying a record is harmless.
    fn apply_repl_records(&mut self, records: Vec<WalRecord>, epoch: u64) -> (Value, bool) {
        if !self.repl.link_current(epoch) {
            return (Value::err("stale replication link"), false);
        }
        let mut wrote = false;
        for rec in records {
            match rec {
                WalRecord::Set { key, value, .. } => {
                    self.db.set_queued(&key, &value);
                    wrote = true;
                }
                WalRecord::Del { key, .. } => {
                    let (_, removed) = self.db.del_queued(&key);
                    wrote |= removed;
                }
            }
        }
        (Value::ok(), wrote)
    }
}
