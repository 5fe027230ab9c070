//! The live server: a multi-threaded RESP2 front end over `N` sharded
//! writer engine threads, with a lock-free read fast path.
//!
//! Architecture (a sharded generalization of Redis' single-threaded
//! *write* semantics): per-connection reader threads parse RESP2 frames
//! in place from a reusable read buffer. The keyspace is split across
//! `--shards N` writer threads by [`shard_of`] (the key hash); each
//! writer owns a full `Db<AnyBackend>` over its own disjoint LBA
//! sub-layout, its own FDP placement IDs, its own slice of the
//! admission governor, and its own group-commit batch. Write and admin
//! commands are forwarded over the owning shard's MPSC channel
//! (control-plane commands all route to shard 0); read-only commands
//! (GET, EXISTS, PING) are served directly on the connection thread
//! against the owning shard's published [`ReadView`] — they never
//! enqueue to a writer and never touch the storage stack. Each writer
//! drains its queue into bounded batches and group-commits each batch:
//! commands execute against the engine with their WAL records queued,
//! then one flush (and, under `Always`, one device sync) covers the
//! whole batch, the batch's keyspace mutations are *published* into the
//! shard's read view, and only after that are the batch's replies
//! released — an ack still implies durability, and because the publish
//! precedes the ack, a connection that has seen an ack can already read
//! its own write from the view (read-your-writes). Each reply carries
//! the shard's publish sequence; before serving a local read, a
//! connection waits (trivially, per the ordering above) until the key's
//! shard view has published that shard's newest acked sequence, and
//! first drains any writer replies it still owes the socket so the
//! reply stream stays in request order. Per-key ordering holds because
//! a key always hashes to the same shard; multi-key DEL/EXISTS split
//! per shard and their integer replies are summed. Replies accumulate
//! in a per-connection scratch encoder and go out with one vectored
//! write per drained burst; large values are spliced in as `Arc` slices
//! without copying. Each writer pumps background snapshots between
//! batches, triggers WAL-threshold snapshots exactly like the simulated
//! pipeline does, and runs its own periodic flush timer, so an idle
//! shard can never delay another shard's `appendfsync everysec`
//! deadline.
//!
//! Replication rides the same write path (see [`crate::repl`] for the
//! protocol): after each group commit a writer drains its engine's WAL
//! tap into the replication backlog as one frame, stamped with a global
//! batch sequence under the replication lock — the single total order
//! that linearizes cross-shard effects — and fanned out to the attached
//! replicas' feeds, *before* any reply is released, so a client holding
//! a write's ack knows the backlog already covers it, which is what
//! lets `WAIT` run entirely on the connection thread. `PSYNC` hands the
//! raw socket from the connection thread to shard 0's writer, which
//! registers the replica and gathers a keyspace snapshot across all
//! shards. A replica runs a link thread that re-shards the shipped
//! frames by its own shard function and applies them through these same
//! writers (so applied records land in the replica's own per-shard WALs
//! and views) and rejects client writes with `-READONLY`.
//!
//! Module map, one responsibility each: this module owns start-up,
//! teardown and the types every thread shares ([`Shared`], [`Request`]);
//! [`crate::conn`] owns sockets — accept, parse, route, the local read
//! path, reply assembly; [`crate::writer`] owns a shard's engine — batch,
//! group commit, publish, replica apply; [`crate::control`] is the
//! control plane shard 0's writer carries — INFO, CONFIG, DEBUG, SLOWLOG,
//! LATENCY, BGSAVE broadcast, keyspace gathers, PSYNC handoff, REPLICAOF.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use slimio_imdb::backend::SnapshotKind;
use slimio_imdb::engine::DbError;
use slimio_imdb::fxhash::hash_key;
use slimio_imdb::wal::WalRecord;
use slimio_imdb::{Db, DbConfig, Entry, LogPolicy};
use slimio_metrics::{Counter, IntGauge};

use crate::conn::accept_loop;
use crate::govern::{Governor, GovernorOpts};
use crate::repl::{self, LinkCtx, ReplState};
use crate::resp::Value;
use crate::store::{AnyBackend, Store};
use crate::telemetry::{self, MetricsCtx, Telemetry};
use crate::writer::Writer;

/// The error every command refused by a stopping server is answered with.
pub(crate) const SHUTTING_DOWN: &str = "ERR server shutting down";
/// How often a thread blocked on a channel re-checks the stop flags.
const POLL: Duration = Duration::from_millis(100);

/// Redis' arity error for `cmd`.
pub(crate) fn wrong_args(cmd: &str) -> Value {
    Value::err(format!("wrong number of arguments for '{cmd}' command"))
}

/// True for the error a socket read or write returns when its timeout
/// lapsed with nothing transferred — the cue to re-check the stop flags.
pub(crate) fn timed_out(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Blocks on `rx` in [`POLL`] slices, asking `give_up(waited so far)`
/// after each empty slice. Every cross-thread wait in the server goes
/// through here, because no channel disconnect can be relied on to end
/// one: connections and writers keep sender clones of their own alive.
/// `None` means gave up, or the sender really is gone.
pub(crate) fn recv_polling<T>(
    rx: &mpsc::Receiver<T>,
    mut give_up: impl FnMut(Duration) -> bool,
) -> Option<T> {
    let mut waited = Duration::ZERO;
    loop {
        match rx.recv_timeout(POLL) {
            Ok(v) => return Some(v),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                waited += POLL;
                if give_up(waited) {
                    return None;
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return None,
        }
    }
}

/// Hard cap on writer shards: reply bookkeeping packs the shards a
/// command touches into a `u16` bitmask.
pub(crate) const MAX_SHARDS: usize = 16;

/// The shard that owns `key`: the engine's key hash modulo the shard
/// count. Every layer — connection routing, replica link re-sharding,
/// tests — must agree on this function, and a key's shard never changes
/// while the shard count holds, which is what makes per-key ordering a
/// per-shard property. (The hash is avalanched, so the modulo spreads
/// keys that differ only in their middle bytes — see
/// [`slimio_imdb::fxhash`].)
pub(crate) fn shard_of(key: &[u8], shards: usize) -> usize {
    if shards == 1 {
        return 0;
    }
    (hash_key(key) as usize) % shards
}

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerOpts {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// WAL durability policy (`Always` = every acked write is synced).
    pub policy: LogPolicy,
    /// WAL bytes that trigger a background WAL snapshot.
    pub wal_snapshot_threshold: u64,
    /// Snapshot serialization chunk size in bytes.
    pub snapshot_chunk: usize,
    /// Start as a replica of `host:port`: connect, full-sync, apply the
    /// primary's stream, serve reads, reject writes. `REPLICAOF NO ONE`
    /// promotes at runtime.
    pub replica_of: Option<String>,
    /// Bytes of recent WAL stream retained for replica partial resync.
    pub repl_backlog_bytes: usize,
    /// Resource-governance limits: writer queue bound, `maxmemory`,
    /// slow-consumer eviction thresholds.
    pub govern: GovernorOpts,
    /// Bind address for the Prometheus `/metrics` listener; `None`
    /// disables it. Stage histograms and SLOWLOG still record either way.
    pub metrics_addr: Option<String>,
    /// `SLOWLOG` threshold in microseconds; negative disables the log
    /// (Redis' `slowlog-log-slower-than`).
    pub slowlog_threshold_us: i64,
}

impl Default for ServerOpts {
    fn default() -> Self {
        ServerOpts {
            addr: "127.0.0.1:0".to_string(),
            policy: LogPolicy::Always,
            wal_snapshot_threshold: 256 << 20,
            snapshot_chunk: 256 << 10,
            replica_of: None,
            repl_backlog_bytes: repl::DEFAULT_BACKLOG_BYTES,
            govern: GovernorOpts::default(),
            metrics_addr: None,
            slowlog_threshold_us: 10_000,
        }
    }
}

/// Server start-up failure.
#[derive(Debug)]
pub enum ServerError {
    /// Socket setup failed.
    Io(std::io::Error),
    /// Backend open failed.
    Backend(slimio_imdb::backend::BackendError),
    /// Engine recovery failed.
    Db(DbError),
    /// Sharded recovery produced a gap in the merged global sequence:
    /// some shard's WAL claims records another shard's tail should
    /// bracket but doesn't hold. Starting would silently drop acked
    /// writes, so the server refuses to.
    Recovery(String),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "io: {e}"),
            ServerError::Backend(e) => write!(f, "backend: {e}"),
            ServerError::Db(e) => write!(f, "db: {e}"),
            ServerError::Recovery(msg) => write!(f, "recovery: {msg}"),
        }
    }
}

impl std::error::Error for ServerError {}

/// State shared between the accept loop, connection threads, the
/// writers, replication threads, and the handle. Every count here is a
/// handle into `tel.registry` — the one copy `INFO` and `/metrics` both
/// render.
pub(crate) struct Shared {
    /// Clean-stop request: stop accepting, drain, flush, exit.
    pub(crate) stop: AtomicBool,
    /// Crash request: abandon everything unsynced (kill -9 equivalent).
    pub(crate) kill: AtomicBool,
    /// `SHUTDOWN NOSAVE` raises this so *every* shard writer skips its
    /// final flush, not just the one that dispatched the command.
    pub(crate) nosave: AtomicBool,
    /// Commands processed.
    pub(crate) ops: Arc<Counter>,
    /// Currently connected clients.
    pub(crate) connections: Arc<IntGauge>,
    /// Connections accepted since start.
    pub(crate) total_connections: Arc<Counter>,
    /// Bytes read from client and replication sockets.
    pub(crate) net_in: Arc<Counter>,
    /// Bytes written to client and replication sockets.
    pub(crate) net_out: Arc<Counter>,
    /// Server start, for uptime and throughput.
    pub(crate) start: Instant,
    /// Resource governance: bounded admission and overload accounting,
    /// one gate slice per shard.
    pub(crate) gov: Governor,
    /// Telemetry root: the registry, per-shard writer slots, SLOWLOG and
    /// LATENCY state. `Arc` so writers can hold their own handle without
    /// borrowing through `Shared` mid-dispatch.
    pub(crate) tel: Arc<Telemetry>,
    /// Start-up facts `INFO` and `CONFIG GET` report.
    pub(crate) backend_name: &'static str,
    pub(crate) fdp: bool,
    pub(crate) recovered_keys: u64,
    pub(crate) wal_records_replayed: u64,
    /// Our serving port, announced upstream by link threads.
    pub(crate) port: u16,
}

impl Shared {
    /// True once a clean stop or a kill has been requested.
    pub(crate) fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst) || self.kill.load(Ordering::SeqCst)
    }

    /// Requests a clean stop — the one way `stop` is raised — and wakes
    /// every connection thread parked at an admission gate, so none rides
    /// out its `admit_park` deadline on a server that is already leaving.
    pub(crate) fn raise_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.gov.wake_parked();
    }
}

/// One unit of work in flight to the writer thread. Command replies
/// carry the engine sequence published when the command's batch
/// committed; connections track the max as their newest acked sequence
/// for the read-your-writes guard.
pub(crate) enum Request {
    /// A client command forwarded by a connection thread.
    Cmd {
        args: Vec<Vec<u8>>,
        /// When the connection thread enqueued this command (after
        /// admission) — the start of the `queue` telemetry stage.
        queued_at: Instant,
        reply: mpsc::Sender<(Value, u64)>,
    },
    /// A `PSYNC` handoff: the connection thread surrenders the socket;
    /// shard 0's writer registers the replica between batches, gathers
    /// the cross-shard keyspace, and spawns the replica's feed thread.
    Sync {
        args: Vec<Vec<u8>>,
        stream: TcpStream,
        addr: String,
    },
    /// Replica link thread → one shard writer: replace this shard's
    /// slice of the keyspace with its split of a full-sync snapshot
    /// (already parsed and re-sharded by the link). Acked only after
    /// the local group commit.
    ReplSet {
        entries: Vec<(Vec<u8>, Vec<u8>)>,
        epoch: u64,
        reply: mpsc::Sender<(Value, u64)>,
    },
    /// Replica link thread → one shard writer: apply this shard's
    /// records from decoded stream frames. Acked only after the local
    /// group commit.
    ReplApply {
        records: Vec<WalRecord>,
        epoch: u64,
        reply: mpsc::Sender<(Value, u64)>,
    },
    /// Shard 0 → another shard: hand back a point-in-time copy of your
    /// keyspace (for `DEBUG DIGEST` and full-sync snapshots). Answered
    /// between batches, after the commit + backlog pump, so the reply
    /// covers every frame the shard has published.
    Entries { reply: mpsc::Sender<Vec<Entry>> },
    /// Shard 0 → another shard: start a background snapshot of the
    /// given kind (the BGSAVE / BGREWRITEAOF broadcast). Replies
    /// whether the snapshot was started.
    Bg {
        kind: SnapshotKind,
        reply: mpsc::Sender<bool>,
    },
}

/// A running server. Tear down with [`ServerHandle::shutdown`] (clean),
/// [`ServerHandle::kill`] (simulated crash), or [`ServerHandle::join`]
/// (wait for a client-issued `SHUTDOWN`). All three give the [`Store`]
/// back so the caller can restart on the same device.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    writers: Vec<JoinHandle<AnyBackend>>,
    txs: Vec<mpsc::Sender<Request>>,
    store: Store,
    metrics: Option<JoinHandle<()>>,
    metrics_addr: Option<SocketAddr>,
}

impl ServerHandle {
    /// Bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Bound port.
    pub fn port(&self) -> u16 {
        self.addr.port()
    }

    /// Keys present after start-up recovery.
    pub fn recovered_keys(&self) -> u64 {
        self.shared.recovered_keys
    }

    /// WAL records replayed during start-up recovery.
    pub fn wal_records_replayed(&self) -> u64 {
        self.shared.wal_records_replayed
    }

    /// Bound address of the Prometheus `/metrics` listener, when one
    /// was requested via [`ServerOpts::metrics_addr`].
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Stops cleanly: finishes any active snapshot, flushes and syncs the
    /// WAL, and returns the store for a later restart.
    pub fn shutdown(self) -> Store {
        self.shared.raise_stop();
        self.teardown(false)
    }

    /// Kills the server as if the process died mid-run: no flush, no
    /// sync, no snapshot completion. The store comes back with only the
    /// durable (synced) state, exactly like power loss.
    pub fn kill(self) -> Store {
        self.shared.kill.store(true, Ordering::SeqCst);
        self.shared.raise_stop();
        self.teardown(true)
    }

    /// Blocks until a client issues `SHUTDOWN`, then tears down cleanly.
    /// (`SHUTDOWN` dispatches on shard 0, which raises `stop`; every
    /// other shard writer notices within its idle-poll window.)
    pub fn join(self) -> Store {
        self.teardown(false)
    }

    /// Joins every thread and hands the shard backends back to the
    /// store. The writers come first: they return once `stop` is raised,
    /// whether by the caller (`shutdown`/`kill`) or by a client's
    /// `SHUTDOWN` (`join`); raising it again afterwards is what stops the
    /// accept and metrics threads in the `join` case.
    fn teardown(mut self, crash: bool) -> Store {
        let backends: Vec<AnyBackend> = self
            .writers
            .into_iter()
            .map(|w| w.join().expect("writer thread panicked"))
            .collect();
        self.shared.raise_stop();
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        if let Some(m) = self.metrics.take() {
            let _ = m.join();
        }
        drop(self.txs);
        for b in backends {
            if crash {
                self.store.crash(b);
            } else {
                self.store.close(b);
            }
        }
        self.store
    }
}

/// The listening server factory.
pub struct Server;

impl Server {
    /// Opens (or recovers) the store's shard backends, recovers each
    /// shard's keyspace (asserting the merged global sequence is
    /// gap-free), binds the listener, and spawns the accept thread plus
    /// one writer thread per shard.
    pub fn start(mut store: Store, opts: ServerOpts) -> Result<ServerHandle, ServerError> {
        let clock = store.clock();
        let shards = store.shards();
        assert!(
            (1..=MAX_SHARDS).contains(&shards),
            "shard count must be in 1..={MAX_SHARDS}, got {shards}"
        );
        let backends = store.open_shards().map_err(ServerError::Backend)?;
        let rings = backends.iter().map(AnyBackend::sqpoll_stats).collect();
        let cfg = DbConfig {
            policy: opts.policy,
            wal_snapshot_threshold: opts.wal_snapshot_threshold,
            snapshot_chunk: opts.snapshot_chunk,
            ..DbConfig::default()
        };
        let mut dbs = Vec::with_capacity(shards);
        let mut seq_lists: Vec<Vec<u64>> = Vec::with_capacity(shards);
        let mut recovered_keys = 0u64;
        let mut replayed = 0u64;
        for backend in backends {
            let (mut db, shard_replayed, seqs) =
                Db::recover_with_seqs(backend, cfg, clock.now()).map_err(ServerError::Db)?;
            recovered_keys += db.len() as u64;
            replayed += shard_replayed;
            // Mirror every flushed WAL byte for the replication backlog;
            // each writer drains its tap after each group commit.
            db.enable_wal_tap();
            seq_lists.push(seqs);
            dbs.push(db);
        }
        // Refuse to start on a gap in the merged global sequence — it
        // means some shard's durable WAL is missing records that
        // neighboring shards prove were acked. (With one shard the merge
        // is that shard's own tail, which must be contiguous too.)
        check_merged_recovery(&seq_lists).map_err(ServerError::Recovery)?;
        // One global monotonic record sequence across all shards: seed it
        // past every shard's recovered high-water mark, then install it
        // so each shard's WAL stream stays strictly increasing while
        // cross-shard writes stay totally ordered.
        let max_seq = dbs.iter().map(|d| d.seq()).max().unwrap_or(0);
        let counter = Arc::new(AtomicU64::new(max_seq));
        for db in &mut dbs {
            db.set_shared_seq(Arc::clone(&counter));
        }
        // Recovery published each recovered keyspace, so no reader ever
        // observes a pre-recovery view.
        let views: Vec<_> = dbs.iter().map(Db::read_view).collect();

        let listener = TcpListener::bind(&opts.addr).map_err(ServerError::Io)?;
        listener.set_nonblocking(true).map_err(ServerError::Io)?;
        let addr = listener.local_addr().map_err(ServerError::Io)?;

        let tel = Arc::new(Telemetry::new(shards, opts.slowlog_threshold_us));
        let r = &tel.registry;
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            kill: AtomicBool::new(false),
            nosave: AtomicBool::new(false),
            ops: r.counter("slimio_ops_total", &[], "Commands processed"),
            connections: r.int_gauge("slimio_connections", &[], "Connected clients"),
            total_connections: r.counter(
                "slimio_connections_total",
                &[],
                "Connections accepted since start",
            ),
            net_in: r.counter("slimio_net_in_bytes_total", &[], "Bytes read from sockets"),
            net_out: r.counter(
                "slimio_net_out_bytes_total",
                &[],
                "Bytes written to sockets",
            ),
            start: Instant::now(),
            gov: Governor::new(opts.govern, shards, r),
            tel: Arc::clone(&tel),
            backend_name: store.kind().name(),
            fdp: store.fdp(),
            recovered_keys,
            wal_records_replayed: replayed,
            port: addr.port(),
        });
        let repl = Arc::new(ReplState::new(
            opts.replica_of.clone(),
            opts.repl_backlog_bytes,
        ));

        let (txs, rxs): (Vec<_>, Vec<_>) = (0..shards).map(|_| mpsc::channel::<Request>()).unzip();

        let mut writers = Vec::with_capacity(shards);
        for (shard, (db, rx)) in dbs.into_iter().zip(rxs).enumerate() {
            let writer = Writer::new(
                shard,
                db,
                rx,
                txs.clone(),
                Arc::clone(&shared),
                Arc::clone(&repl),
                clock.clone(),
            );
            let w = std::thread::Builder::new()
                .name(format!("slimio-writer-{shard}"))
                .spawn(move || writer.run())
                .map_err(ServerError::Io)?;
            writers.push(w);
        }

        let accept = {
            let shared = Arc::clone(&shared);
            let repl = Arc::clone(&repl);
            let txs = txs.clone();
            std::thread::Builder::new()
                .name("slimio-accept".to_string())
                .spawn(move || accept_loop(listener, txs, shared, views, repl))
                .map_err(ServerError::Io)?
        };

        if opts.replica_of.is_some() {
            repl::spawn_link(LinkCtx {
                txs: txs.clone(),
                repl: Arc::clone(&repl),
                shared: Arc::clone(&shared),
                epoch: repl.epoch(),
            });
        }

        let (metrics, metrics_addr) = match opts.metrics_addr.as_deref() {
            Some(maddr) => {
                let ctx = MetricsCtx {
                    shared: Arc::clone(&shared),
                    repl: Arc::clone(&repl),
                    device: store.device().clone(),
                    rings,
                };
                let (bound, handle) =
                    telemetry::spawn_metrics_listener(maddr, ctx).map_err(ServerError::Io)?;
                tel.metrics_port
                    .store(bound.port() as u64, Ordering::SeqCst);
                (Some(handle), Some(bound))
            }
            None => (None, None),
        };

        Ok(ServerHandle {
            addr,
            shared,
            accept: Some(accept),
            writers,
            txs,
            store,
            metrics,
            metrics_addr,
        })
    }
}

/// Sharded recovery merge check. Each shard replays its own WAL tail —
/// a contiguous run of *its* records, whose seqs are a strictly
/// increasing subsequence of the global sequence. Inside the window
/// every shard's tail spans (`max` of first replayed seqs ..= `min` of
/// last replayed seqs), every global seq belongs to exactly one shard
/// and must therefore appear in the union; a hole means durable acked
/// records went missing. Vacuously satisfied when any shard replayed
/// nothing (its tail bounds no window).
fn check_merged_recovery(seq_lists: &[Vec<u64>]) -> Result<(), String> {
    if seq_lists.iter().any(|l| l.is_empty()) {
        return Ok(());
    }
    let lo = seq_lists.iter().map(|l| l[0]).max().unwrap();
    let hi = seq_lists.iter().map(|l| *l.last().unwrap()).min().unwrap();
    if lo > hi {
        return Ok(());
    }
    let mut merged: Vec<u64> = seq_lists
        .iter()
        .flatten()
        .copied()
        .filter(|s| (lo..=hi).contains(s))
        .collect();
    merged.sort_unstable();
    let expected = (hi - lo + 1) as usize;
    merged.dedup();
    if merged.len() != expected {
        let mut missing = lo;
        let mut prev = lo.wrapping_sub(1);
        for &s in &merged {
            if s != prev + 1 {
                missing = prev + 1;
                break;
            }
            prev = s;
        }
        return Err(format!(
            "merged WAL replay has a gap at seq {missing}: window [{lo}, {hi}] holds {} of {expected} records",
            merged.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The key → shard mapping is part of the on-device format: a restart
    /// finds a key's records in the WAL region of the shard this function
    /// names. Pinned to the values existing multi-shard stores were
    /// written with.
    #[test]
    fn shard_of_is_pinned() {
        let pinned: [(&[u8], usize, usize); 8] = [
            (b"key:000000000001", 0, 2),
            (b"key:000000001234", 0, 0),
            (b"key:000000049999", 0, 0),
            (b"key:000000200000", 1, 1),
            (b"a", 0, 2),
            (b"user:42", 1, 1),
            (b"the quick brown fox", 1, 3),
            (b"k\0bin\xff", 1, 3),
        ];
        for (key, of2, of4) in pinned {
            assert_eq!((shard_of(key, 2), shard_of(key, 4)), (of2, of4), "{key:?}");
            assert_eq!(shard_of(key, 1), 0);
        }
    }
}
