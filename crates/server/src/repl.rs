//! Replication: WAL-shipping primary/replica with full sync, read
//! scaling, and `WAIT` durability.
//!
//! The replication stream *is* the WAL stream, carried in frames. Each
//! writer (shard) thread taps every byte it flushes to its backend
//! (after the group commit's sync under `Always`, so only durable
//! records ship) and publishes the tapped segment as one frame:
//!
//! ```text
//! [u32 payload_len][u16 shard][u64 gseq][payload: raw WAL records]
//! ```
//!
//! The global batch sequence `gseq` is stamped under the replication
//! lock at publish time, so the backlog's byte order *is* gseq order —
//! the single total order that linearizes cross-shard effects for
//! replicas and `WAIT`. Frames land in a bounded in-memory backlog plus
//! the feed channel of every attached replica. Offsets are byte counts
//! into the framed stream.
//!
//! Attach protocol (one TCP connection, replica → primary):
//!
//! 1. `REPLCONF listening-port <port>` — registers the replica's own
//!    serving port (cosmetic, for `INFO`).
//! 2. `PSYNC <replid> <offset>` (`PSYNC ? -1` on first attach). The
//!    primary answers `+CONTINUE\r\n` followed by the backlog tail when
//!    the replid matches and the offset is still retained (partial
//!    resync), or `+FULLRESYNC <replid> <offset>\r\n` followed by one
//!    RESP bulk holding a point-in-time RDB stream of the keyspace.
//!    After the header + payload, the socket carries stream frames.
//! 3. The replica applies shipped frames in gseq (= arrival) order,
//!    re-sharding each frame's records by its *own* shard function and
//!    applying them through its normal engine — its own WAL, group
//!    commit, snapshots, and published read view — then reports
//!    `REPLCONF ACK <offset>` on the same socket. The feed thread reads
//!    acks opportunistically; `WAIT` polls them.
//!
//! Promotion is `REPLICAOF NO ONE`: the link epoch bumps (stale link
//! threads and their in-flight applies are refused), the role flips, and
//! the node keeps serving its applied dataset — now writable. The
//! downstream stream identity (replid + backlog) never changes across
//! promotion, because the node's own WAL stream is what downstream
//! replicas were following all along.

use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::Duration;

use slimio_imdb::wal::{self, WalDecodeError, WalRecord};

use crate::control::InfoText;
use crate::govern::{lock_ok, Governor};
use crate::resp::{self, Parser, Value};
use crate::server::{recv_polling, shard_of, timed_out, Request, Shared};

/// Error returned for writes sent to a replica.
pub(crate) const READONLY_MSG: &str = "READONLY You can't write against a read only replica.";

/// Default replication backlog capacity (bytes of WAL stream retained
/// for partial resync).
pub(crate) const DEFAULT_BACKLOG_BYTES: usize = 1 << 20;

/// Stream frame header: payload length (u32), origin shard (u16),
/// global batch sequence (u64), all little-endian.
pub(crate) const FRAME_HDR: usize = 4 + 2 + 8;

/// Encodes one stream frame onto `out`.
pub(crate) fn encode_frame(shard: u16, gseq: u64, payload: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&shard.to_le_bytes());
    out.extend_from_slice(&gseq.to_le_bytes());
    out.extend_from_slice(payload);
}

/// Decodes one complete frame from the front of `buf`. Returns
/// `(shard, gseq, payload, bytes_consumed)`, or `None` while the frame
/// is still incomplete.
pub(crate) fn decode_frame(buf: &[u8]) -> Option<(u16, u64, &[u8], usize)> {
    if buf.len() < FRAME_HDR {
        return None;
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
    let shard = u16::from_le_bytes(buf[4..6].try_into().unwrap());
    let gseq = u64::from_le_bytes(buf[6..14].try_into().unwrap());
    let total = FRAME_HDR + len;
    if buf.len() < total {
        return None;
    }
    Some((shard, gseq, &buf[FRAME_HDR..total], total))
}

/// Which side of replication this node is on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Role {
    /// Accepts writes, ships its WAL stream to replicas.
    Primary,
    /// Applies a primary's stream, serves reads, rejects writes.
    Replica,
}

/// One attached replica, as the primary sees it.
pub(crate) struct ReplicaPeer {
    /// Peer address (ip:listening-port when the replica announced one).
    pub(crate) addr: String,
    /// Highest stream offset the replica has acknowledged.
    pub(crate) acked: Arc<AtomicU64>,
    /// Stream offset the replica attached at. `acked` stays 0 until the
    /// replica has *applied and acknowledged* data — the meaning `WAIT`
    /// depends on — so feed-lag eviction measures from
    /// `max(acked, base)`: a freshly full-synced replica is judged on
    /// bytes shipped since its snapshot, not on the whole stream.
    pub(crate) base: u64,
    /// Cleared by the feed thread when the connection dies, or by the
    /// writer to evict a replica that lagged past the feed limit.
    pub(crate) alive: Arc<AtomicBool>,
    /// Live stream segments, writer thread → feed thread.
    pub(crate) feed: mpsc::Sender<Arc<[u8]>>,
}

/// Bounded window of the most recent WAL stream bytes. `start` is the
/// absolute stream offset of `buf[0]`; eviction moves it forward.
pub(crate) struct Backlog {
    buf: Vec<u8>,
    start: u64,
    cap: usize,
}

impl Backlog {
    fn new(cap: usize) -> Self {
        Backlog {
            buf: Vec::new(),
            start: 0,
            cap: cap.max(1),
        }
    }

    /// Absolute offset one past the newest byte — the primary's
    /// `master_repl_offset`.
    pub(crate) fn end(&self) -> u64 {
        self.start + self.buf.len() as u64
    }

    /// Bytes currently retained.
    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
        if self.buf.len() > self.cap {
            let excess = self.buf.len() - self.cap;
            self.buf.drain(..excess);
            self.start += excess as u64;
        }
    }

    /// The stream from absolute offset `from` to the end, if every byte
    /// of it is still retained (partial-resync eligibility).
    pub(crate) fn tail_from(&self, from: u64) -> Option<Vec<u8>> {
        if from < self.start || from > self.end() {
            return None;
        }
        Some(self.buf[(from - self.start) as usize..].to_vec())
    }
}

/// Replication state shared between the writer thread, connection
/// threads (`WAIT`), feed threads, and the replica link thread.
pub(crate) struct ReplState {
    inner: Mutex<ReplInner>,
}

/// The lock-guarded interior of [`ReplState`].
pub(crate) struct ReplInner {
    /// Current role.
    pub(crate) role: Role,
    /// Identity of this node's own (downstream) WAL stream.
    pub(crate) replid: String,
    /// Retained tail of the downstream stream.
    pub(crate) backlog: Backlog,
    /// Attached replicas.
    pub(crate) peers: Vec<ReplicaPeer>,
    /// Upstream primary address, when role is replica.
    pub(crate) primary_addr: Option<String>,
    /// Upstream stream identity, for partial resync on reconnect.
    pub(crate) upstream_replid: Option<String>,
    /// Upstream stream bytes applied and committed locally.
    pub(crate) applied_offset: u64,
    /// Bumped on every REPLICAOF transition; stale link threads (and
    /// their in-flight applies) carry an old epoch and are refused.
    pub(crate) link_epoch: u64,
    /// Last global batch sequence stamped onto a published frame. The
    /// stamp happens under this lock, so backlog byte order is gseq
    /// order — the cross-shard linearization point.
    pub(crate) next_gseq: u64,
    /// Link thread status for `INFO`: "down", "connecting", "streaming".
    pub(crate) link_status: &'static str,
}

impl ReplState {
    /// Builds the initial state: a primary, or (with `primary_addr`) a
    /// replica whose link thread the server spawns at start-up.
    pub(crate) fn new(primary_addr: Option<String>, backlog_bytes: usize) -> Self {
        let role = if primary_addr.is_some() {
            Role::Replica
        } else {
            Role::Primary
        };
        ReplState {
            inner: Mutex::new(ReplInner {
                role,
                replid: gen_replid(),
                backlog: Backlog::new(backlog_bytes),
                peers: Vec::new(),
                primary_addr,
                upstream_replid: None,
                applied_offset: 0,
                link_epoch: 1,
                next_gseq: 0,
                link_status: "down",
            }),
        }
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, ReplInner> {
        // Poisoning-tolerant: replication state must stay reachable even
        // if some thread panicked while holding it; every update keeps
        // the interior structurally valid.
        lock_ok(&self.inner)
    }

    /// True when writes must be refused with `-READONLY`.
    pub(crate) fn is_replica(&self) -> bool {
        self.lock().role == Role::Replica
    }

    /// The current link epoch (the token start-up hands its link thread).
    pub(crate) fn epoch(&self) -> u64 {
        self.lock().link_epoch
    }

    /// True while `epoch` names the live replica link — the guard on
    /// every apply shipped by a link thread.
    pub(crate) fn link_current(&self, epoch: u64) -> bool {
        let inner = self.lock();
        inner.role == Role::Replica && inner.link_epoch == epoch
    }

    /// End of the downstream stream (the `WAIT` target offset).
    pub(crate) fn backlog_end(&self) -> u64 {
        self.lock().backlog.end()
    }

    /// Number of live replicas that have acknowledged at least `target`.
    pub(crate) fn count_acked(&self, target: u64) -> usize {
        let mut inner = self.lock();
        inner.peers.retain(|p| p.alive.load(Ordering::SeqCst));
        inner
            .peers
            .iter()
            .filter(|p| p.acked.load(Ordering::SeqCst) >= target)
            .count()
    }

    /// Frames one tapped WAL segment — stamping the next global batch
    /// sequence under the lock, so concurrent shard writers serialize
    /// here and the backlog's byte order is gseq order — then appends it
    /// to the backlog and fans it out to every live feed, evicting
    /// replicas that have lagged past the governor's feed limit. Called
    /// by each shard's writer thread after its group commit — so
    /// eviction is part of publishing, and a stalled replica can never
    /// make a writer queue segments for it without bound. Returns the
    /// stamped gseq.
    pub(crate) fn publish_frame(&self, shard: u16, payload: Vec<u8>, gov: &Governor) -> u64 {
        let limit = gov.opts().repl_feed_limit;
        let mut inner = self.lock();
        inner.next_gseq += 1;
        let gseq = inner.next_gseq;
        let mut framed = Vec::with_capacity(FRAME_HDR + payload.len());
        encode_frame(shard, gseq, &payload, &mut framed);
        let seg: Arc<[u8]> = framed.into();
        inner.backlog.push(&seg);
        let end = inner.backlog.end();
        inner.peers.retain(|p| {
            if !p.alive.load(Ordering::SeqCst) {
                return false;
            }
            let lag = end.saturating_sub(p.acked.load(Ordering::SeqCst).max(p.base));
            if limit > 0 && lag > limit {
                // Too far behind: cut it loose. Dropping the feed sender
                // disconnects the feed thread's channel, and the cleared
                // flag aborts any socket write it is stalled in; the
                // replica's link will reconnect and partial-resync from
                // the backlog if its missing bytes are still retained.
                p.alive.store(false, Ordering::SeqCst);
                gov.evicted_replicas.inc();
                return false;
            }
            p.feed.send(Arc::clone(&seg)).is_ok()
        });
        gseq
    }

    /// Records locally committed upstream progress (writer thread, after
    /// the applying batch's group commit). A full sync also rebinds the
    /// upstream stream identity.
    pub(crate) fn set_applied(&self, epoch: u64, offset: u64, upstream_replid: Option<String>) {
        let mut inner = self.lock();
        if inner.role != Role::Replica || inner.link_epoch != epoch {
            return;
        }
        inner.applied_offset = offset;
        if let Some(id) = upstream_replid {
            inner.upstream_replid = Some(id);
        }
    }

    /// Link thread status update, ignored once the epoch is stale.
    pub(crate) fn set_link_status(&self, epoch: u64, status: &'static str) {
        let mut inner = self.lock();
        if inner.link_epoch == epoch {
            inner.link_status = status;
        }
    }

    /// `REPLICAOF NO ONE`: flip to primary, keeping the applied dataset
    /// and the downstream stream identity. Returns true if a demoted
    /// link was actually severed.
    pub(crate) fn promote(&self) -> bool {
        let mut inner = self.lock();
        inner.link_epoch += 1;
        inner.link_status = "down";
        inner.primary_addr = None;
        let was_replica = inner.role == Role::Replica;
        inner.role = Role::Primary;
        was_replica
    }

    /// `REPLICAOF host port`: become (or re-target) a replica. Returns
    /// the new link epoch for the link thread about to be spawned.
    pub(crate) fn set_primary(&self, addr: String) -> u64 {
        let mut inner = self.lock();
        inner.link_epoch += 1;
        inner.role = Role::Replica;
        inner.primary_addr = Some(addr);
        inner.link_status = "connecting";
        inner.link_epoch
    }

    /// Appends the `INFO` `# Replication` section.
    pub(crate) fn info_lines(&self, out: &mut InfoText) {
        let mut inner = self.lock();
        inner.peers.retain(|p| p.alive.load(Ordering::SeqCst));
        let end = inner.backlog.end();
        out.kv(
            "role",
            match inner.role {
                Role::Primary => "primary",
                Role::Replica => "replica",
            },
        );
        out.kv("master_replid", &inner.replid);
        out.kv("master_repl_offset", end);
        out.kv("repl_backlog_bytes", inner.backlog.len());
        out.kv("connected_replicas", inner.peers.len());
        for (i, p) in inner.peers.iter().enumerate() {
            let acked = p.acked.load(Ordering::SeqCst);
            out.kv(
                format_args!("replica{i}"),
                format_args!(
                    "addr={},ack_offset={acked},lag_bytes={}",
                    p.addr,
                    end.saturating_sub(acked)
                ),
            );
        }
        if inner.role == Role::Replica {
            out.kv("primary_addr", inner.primary_addr.as_deref().unwrap_or("-"));
            out.kv("replica_link", inner.link_status);
            out.kv("replica_applied_offset", inner.applied_offset);
        }
    }
}

/// A process-unique 40-hex stream id (Redis replid shape). No RNG dep:
/// wall time, pid, and a counter through splitmix64.
fn gen_replid() -> String {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let mut x = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
        ^ ((std::process::id() as u64) << 32)
        ^ COUNTER
            .fetch_add(1, Ordering::Relaxed)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut next = || {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let s = format!("{:016x}{:016x}{:016x}", next(), next(), next());
    s[..40].to_string()
}

// ---------------------------------------------------------------------
// Primary side: the per-replica feed thread.
// ---------------------------------------------------------------------

/// Spawns the thread that owns an attached replica's socket: writes the
/// sync preamble (FULLRESYNC/CONTINUE header, optional snapshot bulk,
/// backlog tail), then forwards live stream segments while reading
/// `REPLCONF ACK` replies into the peer's acked offset.
pub(crate) fn spawn_feed(
    stream: TcpStream,
    preamble: Vec<u8>,
    rx: mpsc::Receiver<Arc<[u8]>>,
    acked: Arc<AtomicU64>,
    alive: Arc<AtomicBool>,
    shared: Arc<Shared>,
) {
    let _ = std::thread::Builder::new()
        .name("slimio-repl-feed".to_string())
        .spawn(move || {
            run_feed(stream, preamble, rx, &acked, &alive, &shared);
            alive.store(false, Ordering::SeqCst);
        });
}

/// Writes one stream segment, resumably: the socket carries a short
/// write timeout, and every stall re-checks the peer's `alive` flag —
/// so a feed thread wedged against a stalled replica notices its
/// eviction (or server stop) within one timeout instead of blocking in
/// `write_all` forever. Returns false when the feed must end.
fn write_seg(stream: &mut TcpStream, seg: &[u8], alive: &AtomicBool, shared: &Shared) -> bool {
    let mut off = 0usize;
    while off < seg.len() {
        match stream.write(&seg[off..]) {
            Ok(0) => return false,
            Ok(n) => off += n,
            Err(e) if timed_out(&e) => {
                if !alive.load(Ordering::SeqCst) || shared.stopping() {
                    return false;
                }
            }
            Err(_) => return false,
        }
    }
    shared.net_out.add(seg.len() as u64);
    true
}

fn run_feed(
    mut stream: TcpStream,
    preamble: Vec<u8>,
    rx: mpsc::Receiver<Arc<[u8]>>,
    acked: &AtomicU64,
    alive: &AtomicBool,
    shared: &Shared,
) {
    let _ = stream.set_nodelay(true);
    // A short read timeout doubles as the loop cadence for ACK polling;
    // the write timeout bounds each stalled-socket write attempt so
    // `write_seg` gets to re-check liveness.
    if stream
        .set_read_timeout(Some(Duration::from_millis(1)))
        .is_err()
        || stream
            .set_write_timeout(Some(Duration::from_millis(100)))
            .is_err()
    {
        return;
    }
    if !write_seg(&mut stream, &preamble, alive, shared) {
        return;
    }
    let mut parser = Parser::new();
    let mut rbuf = [0u8; 4096];
    loop {
        if shared.stopping() || !alive.load(Ordering::SeqCst) {
            return;
        }
        // Park briefly for the next live segment; drain the queue in one
        // go so a burst of group commits costs one wake-up.
        match rx.recv_timeout(Duration::from_millis(10)) {
            Ok(seg) => {
                if !write_seg(&mut stream, &seg, alive, shared) {
                    return;
                }
                while let Ok(seg) = rx.try_recv() {
                    if !write_seg(&mut stream, &seg, alive, shared) {
                        return;
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            // The writer pruned this peer or the server is gone.
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        }
        // Opportunistic ACK read (bounded by the 1 ms socket timeout).
        match stream.read(&mut rbuf) {
            Ok(0) => return,
            Ok(n) => {
                shared.net_in.add(n as u64);
                parser.feed(&rbuf[..n]);
                loop {
                    match parser.next_command() {
                        Ok(Some(args)) => {
                            if args.len() == 3
                                && args[0].eq_ignore_ascii_case(b"REPLCONF")
                                && args[1].eq_ignore_ascii_case(b"ACK")
                            {
                                if let Ok(off) = String::from_utf8_lossy(&args[2]).parse::<u64>() {
                                    acked.fetch_max(off, Ordering::SeqCst);
                                }
                            }
                        }
                        Ok(None) => break,
                        Err(_) => return,
                    }
                }
            }
            Err(e) if timed_out(&e) => {}
            Err(_) => return,
        }
    }
}

// ---------------------------------------------------------------------
// Replica side: the link thread.
// ---------------------------------------------------------------------

/// Everything the replica's link thread needs.
pub(crate) struct LinkCtx {
    /// Request channels into this node's own shard writer threads. The
    /// link re-shards the upstream stream by the local shard function,
    /// so primary and replica shard counts are independent.
    pub(crate) txs: Vec<mpsc::Sender<Request>>,
    pub(crate) repl: Arc<ReplState>,
    pub(crate) shared: Arc<Shared>,
    /// The epoch this link was spawned under; any mismatch means a
    /// newer REPLICAOF superseded it.
    pub(crate) epoch: u64,
}

impl LinkCtx {
    fn current(&self) -> bool {
        self.repl.link_current(self.epoch) && !self.shared.stopping()
    }
}

/// Spawns the replica's link thread: connect to the primary, sync, apply
/// the stream through the writer, ack; reconnect with backoff until the
/// epoch goes stale or the server stops.
pub(crate) fn spawn_link(ctx: LinkCtx) {
    let _ = std::thread::Builder::new()
        .name("slimio-repl-link".to_string())
        .spawn(move || {
            while ctx.current() {
                let _ = link_once(&ctx);
                ctx.repl.set_link_status(ctx.epoch, "down");
                for _ in 0..3 {
                    if !ctx.current() {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
            }
        });
}

fn io_err(msg: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::other(msg.to_string())
}

fn connect(addr: &str, timeout: Duration) -> std::io::Result<TcpStream> {
    let sa = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io_err(format!("no address for {addr}")))?;
    TcpStream::connect_timeout(&sa, timeout)
}

fn send_cmd(stream: &mut TcpStream, args: &[&[u8]], shared: &Shared) -> std::io::Result<()> {
    let mut buf = Vec::new();
    resp::encode_command_slices(args, &mut buf);
    stream.write_all(&buf)?;
    shared.net_out.add(buf.len() as u64);
    Ok(())
}

/// Reads one RESP reply, honoring stop/epoch while the socket idles.
fn read_reply(
    stream: &mut TcpStream,
    parser: &mut Parser,
    rbuf: &mut [u8],
    ctx: &LinkCtx,
) -> std::io::Result<Value> {
    loop {
        if let Some(v) = parser
            .next_value()
            .map_err(|e| io_err(format!("primary sent bad RESP: {e}")))?
        {
            return Ok(v);
        }
        match stream.read(rbuf) {
            Ok(0) => return Err(io_err("primary closed the connection")),
            Ok(n) => {
                ctx.shared.net_in.add(n as u64);
                parser.feed(&rbuf[..n]);
            }
            Err(e) if timed_out(&e) => {
                if !ctx.current() {
                    return Err(io_err("replication link superseded"));
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// Waits for the writer's ack of one ReplSet/ReplApply request.
fn wait_writer_ack(rx: &mpsc::Receiver<(Value, u64)>, ctx: &LinkCtx) -> std::io::Result<Value> {
    match recv_polling(rx, |_| !ctx.current()) {
        Some((v, _seq)) if v.is_error() => Err(io_err(format!("writer refused apply: {v:?}"))),
        Some((v, _seq)) => Ok(v),
        None => Err(io_err("writer gone or replication link superseded")),
    }
}

/// One connect→sync→stream session against the primary. Returns on any
/// error or when the link goes stale; the caller decides about retrying.
fn link_once(ctx: &LinkCtx) -> std::io::Result<()> {
    let Some(addr) = ctx.repl.lock().primary_addr.clone() else {
        return Ok(());
    };
    ctx.repl.set_link_status(ctx.epoch, "connecting");
    let mut stream = connect(&addr, Duration::from_secs(1))?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    let mut parser = Parser::new();
    let mut rbuf = vec![0u8; 64 << 10];

    // Announce our own serving port (cosmetic, for the primary's INFO).
    let port_str = ctx.shared.port.to_string();
    send_cmd(
        &mut stream,
        &[b"REPLCONF", b"listening-port", port_str.as_bytes()],
        &ctx.shared,
    )?;
    match read_reply(&mut stream, &mut parser, &mut rbuf, ctx)? {
        Value::Simple(s) if s == "OK" => {}
        other => return Err(io_err(format!("REPLCONF rejected: {other:?}"))),
    }

    // PSYNC with our known upstream position, or `? -1` for first attach.
    let (req_id, req_off) = {
        let inner = ctx.repl.lock();
        match &inner.upstream_replid {
            Some(id) => (id.clone(), inner.applied_offset.to_string()),
            None => ("?".to_string(), "-1".to_string()),
        }
    };
    send_cmd(
        &mut stream,
        &[b"PSYNC", req_id.as_bytes(), req_off.as_bytes()],
        &ctx.shared,
    )?;
    let header = match read_reply(&mut stream, &mut parser, &mut rbuf, ctx)? {
        Value::Simple(s) => s,
        other => return Err(io_err(format!("bad PSYNC reply: {other:?}"))),
    };

    let mut offset: u64;
    if let Some(rest) = header.strip_prefix("FULLRESYNC ") {
        let mut parts = rest.split_whitespace();
        let replid = parts.next().unwrap_or("").to_string();
        offset = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io_err(format!("bad FULLRESYNC header: {header}")))?;
        let snapshot = match read_reply(&mut stream, &mut parser, &mut rbuf, ctx)? {
            Value::Bulk(b) => b,
            other => return Err(io_err(format!("bad full-sync payload: {other:?}"))),
        };
        // Replace the whole keyspace through our own shard writers: the
        // link parses the RDB payload once, splits the entries by the
        // *local* shard function, and every shard (even one receiving no
        // entries) clears and reloads its slice. The reset runs the
        // normal engine path, so it lands in each shard's own WAL and
        // read view like any other batch.
        let entries = slimio_imdb::rdb::read_all(&snapshot)
            .map_err(|e| io_err(format!("bad full-sync payload: {e}")))?;
        let shards = ctx.txs.len();
        let mut split: Vec<Vec<(Vec<u8>, Vec<u8>)>> = (0..shards).map(|_| Vec::new()).collect();
        for (k, v) in entries {
            let s = shard_of(&k, shards);
            split[s].push((k, v));
        }
        let mut acks = Vec::with_capacity(shards);
        for (s, entries) in split.into_iter().enumerate() {
            let (atx, arx) = mpsc::channel();
            ctx.txs[s]
                .send(Request::ReplSet {
                    entries,
                    epoch: ctx.epoch,
                    reply: atx,
                })
                .map_err(|_| io_err("writer gone"))?;
            acks.push(arx);
        }
        for arx in &acks {
            wait_writer_ack(arx, ctx)?;
        }
        // Every shard committed its slice: the snapshot offset is now
        // durable and readable here, in full.
        ctx.repl.set_applied(ctx.epoch, offset, Some(replid));
        let off_str = offset.to_string();
        send_cmd(
            &mut stream,
            &[b"REPLCONF", b"ACK", off_str.as_bytes()],
            &ctx.shared,
        )?;
    } else if header.starts_with("CONTINUE") {
        offset = ctx.repl.lock().applied_offset;
    } else {
        return Err(io_err(format!("bad PSYNC reply: +{header}")));
    }
    ctx.repl.set_link_status(ctx.epoch, "streaming");

    // RESP ends here: everything further on this socket is the framed
    // WAL stream. Bytes that rode in behind the last parsed reply carry
    // over into the raw buffer.
    let mut carry = parser.take_remaining();
    let shards = ctx.txs.len();
    loop {
        if !ctx.current() {
            return Ok(());
        }
        // Decode every complete frame buffered so far. Frames arrive in
        // gseq order (each is stamped under the primary's replication
        // lock before entering the backlog), and every record of this
        // round is applied — on all shards — before the round's ack, so
        // the acked prefix is always a gseq-contiguous prefix of the
        // primary's stream.
        let mut consumed = 0usize;
        let mut split: Vec<Vec<WalRecord>> = (0..shards).map(|_| Vec::new()).collect();
        while let Some((_shard, _gseq, payload, used)) = decode_frame(&carry[consumed..]) {
            let mut at = 0usize;
            while at < payload.len() {
                match wal::decode(&payload[at..]) {
                    Ok((rec, n)) => {
                        let key = match &rec {
                            WalRecord::Set { key, .. } => key,
                            WalRecord::Del { key, .. } => key,
                        };
                        // Re-shard by the *local* shard function: the
                        // frame's origin shard is the primary's layout,
                        // not ours.
                        split[shard_of(key, shards)].push(rec);
                        at += n;
                    }
                    // A frame carries whole records: truncation inside
                    // one is corruption, not a short read.
                    Err(WalDecodeError::Truncated) => {
                        return Err(io_err("corrupt replication stream: torn record in frame"))
                    }
                    Err(e) => return Err(io_err(format!("corrupt replication stream: {e:?}"))),
                }
            }
            consumed += used;
        }
        if consumed > 0 {
            carry.drain(..consumed);
            offset += consumed as u64;
            let mut acks = Vec::new();
            for (s, records) in split.into_iter().enumerate() {
                if records.is_empty() {
                    continue;
                }
                let (atx, arx) = mpsc::channel();
                ctx.txs[s]
                    .send(Request::ReplApply {
                        records,
                        epoch: ctx.epoch,
                        reply: atx,
                    })
                    .map_err(|_| io_err("writer gone"))?;
                acks.push(arx);
            }
            // Each shard acks after its batch's group commit and view
            // publish: acking upstream means "durable and readable
            // here" — on every shard the round touched.
            for arx in &acks {
                wait_writer_ack(arx, ctx)?;
            }
            ctx.repl.set_applied(ctx.epoch, offset, None);
            let off_str = offset.to_string();
            send_cmd(
                &mut stream,
                &[b"REPLCONF", b"ACK", off_str.as_bytes()],
                &ctx.shared,
            )?;
        }
        match stream.read(&mut rbuf) {
            Ok(0) => return Err(io_err("primary closed the stream")),
            Ok(n) => {
                ctx.shared.net_in.add(n as u64);
                carry.extend_from_slice(&rbuf[..n]);
            }
            Err(e) if timed_out(&e) => {}
            Err(e) => return Err(e),
        }
    }
}

// ---------------------------------------------------------------------
// PSYNC request parsing (primary side).
// ---------------------------------------------------------------------

/// Parses `PSYNC <replid> <offset>` into a partial-resync request, or
/// `None` for a full sync (`? -1`, malformed, or negative offset).
pub(crate) fn parse_psync(args: &[Vec<u8>]) -> Option<(String, u64)> {
    if args.len() != 3 {
        return None;
    }
    let id = String::from_utf8_lossy(&args[1]).to_string();
    if id == "?" {
        return None;
    }
    let off: i64 = String::from_utf8_lossy(&args[2]).parse().ok()?;
    if off < 0 {
        return None;
    }
    Some((id, off as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backlog_evicts_from_the_front_and_tracks_offsets() {
        let mut b = Backlog::new(8);
        b.push(b"abcd");
        assert_eq!(b.end(), 4);
        assert_eq!(b.tail_from(0).as_deref(), Some(&b"abcd"[..]));
        b.push(b"efgh");
        assert_eq!(b.end(), 8);
        b.push(b"ij");
        // Capacity 8: the two oldest bytes are gone.
        assert_eq!(b.end(), 10);
        assert_eq!(b.len(), 8);
        assert_eq!(b.tail_from(0), None, "evicted offsets are gone");
        assert_eq!(b.tail_from(2).as_deref(), Some(&b"cdefghij"[..]));
        assert_eq!(b.tail_from(9).as_deref(), Some(&b"j"[..]));
        assert_eq!(b.tail_from(10).as_deref(), Some(&b""[..]), "end is valid");
        assert_eq!(b.tail_from(11), None, "future offsets are not");
    }

    #[test]
    fn frame_roundtrip_and_truncation() {
        let mut buf = Vec::new();
        encode_frame(3, 42, b"payload", &mut buf);
        encode_frame(0, 43, b"", &mut buf);
        let (shard, gseq, payload, used) = decode_frame(&buf).unwrap();
        assert_eq!((shard, gseq, payload), (3, 42, &b"payload"[..]));
        let (shard2, gseq2, payload2, used2) = decode_frame(&buf[used..]).unwrap();
        assert_eq!((shard2, gseq2, payload2), (0, 43, &b""[..]));
        assert_eq!(used + used2, buf.len());
        // Every strict prefix of a single frame is "incomplete", never
        // a bogus decode.
        for cut in 0..used {
            assert!(decode_frame(&buf[..cut]).is_none(), "cut at {cut}");
        }
    }

    #[test]
    fn psync_parsing() {
        let a = |s: &str| s.as_bytes().to_vec();
        assert_eq!(parse_psync(&[a("PSYNC"), a("?"), a("-1")]), None);
        assert_eq!(
            parse_psync(&[a("PSYNC"), a("abc"), a("42")]),
            Some(("abc".to_string(), 42))
        );
        assert_eq!(parse_psync(&[a("PSYNC"), a("abc"), a("-7")]), None);
        assert_eq!(parse_psync(&[a("PSYNC")]), None);
    }

    #[test]
    fn replids_are_distinct_and_40_hex() {
        let a = gen_replid();
        let b = gen_replid();
        assert_eq!(a.len(), 40);
        assert!(a.bytes().all(|c| c.is_ascii_hexdigit()));
        assert_ne!(a, b);
    }
}
