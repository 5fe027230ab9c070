//! The connection side of the live server: the accept loop, and one
//! thread per client that parses RESP2 frames in place, routes each
//! command, serves reads locally against the shard views, forwards
//! everything else to the owning shard writer(s), and assembles the reply
//! stream in request order.
//!
//! Nothing here touches an engine or the device. A connection's only
//! couplings to the write path are the per-shard request channels, the
//! admission governor, and the published read views.

use std::io::{IoSlice, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use slimio_imdb::{ReadHandle, ReadView};
use slimio_metrics::IntGauge;

use crate::repl::ReplState;
use crate::resp::{self, Value};
use crate::server::{
    recv_polling, shard_of, timed_out, wrong_args, Request, Shared, SHUTTING_DOWN,
};
use crate::telemetry::dur_ns;

/// Values at least this long are vector-written straight from their
/// `Arc` storage instead of being copied into the reply scratch buffer.
const ZERO_COPY_THRESHOLD: usize = 4096;
/// Most reply segments one `writev` submits (Linux caps iovecs at 1024;
/// stay far below it).
const MAX_IOVECS: usize = 64;

/// One unit of the `connected_clients` gauge. Taken by the accept loop
/// *before* it spawns the connection thread and moved into that thread's
/// closure, so the gauge drops exactly once wherever the guard ends up:
/// at thread exit, when the thread unwinds from a panic, or — the spawn
/// having failed — without the thread ever running.
pub(crate) struct ConnGuard(Arc<IntGauge>);

impl ConnGuard {
    fn new(gauge: &Arc<IntGauge>) -> Self {
        gauge.inc();
        ConnGuard(Arc::clone(gauge))
    }
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.dec();
    }
}

pub(crate) fn accept_loop(
    listener: TcpListener,
    txs: Vec<mpsc::Sender<Request>>,
    shared: Arc<Shared>,
    views: Vec<Arc<ReadView>>,
    repl: Arc<ReplState>,
) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !shared.stopping() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let guard = ConnGuard::new(&shared.connections);
                shared.total_connections.inc();
                let conn = Conn::new(stream, txs.clone(), Arc::clone(&shared), &views, &repl);
                if let Ok(h) = std::thread::Builder::new()
                    .name("slimio-conn".to_string())
                    .spawn(move || conn.run(guard))
                {
                    conns.push(h);
                }
                conns.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
    for h in conns {
        let _ = h.join();
    }
}

/// One reply segment: a range of the scratch buffer, or a shared value
/// spliced in without copying.
enum Seg {
    /// `scratch[start..end]`.
    Scratch(usize, usize),
    /// A whole `Arc`'d value (zero-copy GET payload).
    Shared(Arc<[u8]>),
}

/// Per-connection reply accumulator: small replies append to one reusable
/// scratch buffer, large GET payloads ride along as `Arc` segments, and
/// the whole burst goes to the socket with vectored writes.
struct ReplyBuf {
    scratch: Vec<u8>,
    segs: Vec<Seg>,
    /// Start of the scratch range not yet claimed by a segment.
    open: usize,
}

impl ReplyBuf {
    fn new() -> Self {
        ReplyBuf {
            scratch: Vec::with_capacity(16 << 10),
            segs: Vec::new(),
            open: 0,
        }
    }

    fn clear(&mut self) {
        self.scratch.clear();
        self.segs.clear();
        self.open = 0;
    }

    fn is_empty(&self) -> bool {
        self.segs.is_empty() && self.scratch.is_empty()
    }

    /// Bytes currently pending toward the socket (scratch plus spliced
    /// shared values) — what the reply soft limit is measured against.
    fn byte_len(&self) -> usize {
        self.scratch.len()
            + self
                .segs
                .iter()
                .map(|s| match s {
                    Seg::Scratch(..) => 0,
                    Seg::Shared(v) => v.len(),
                })
                .sum::<usize>()
    }

    /// Closes the currently accumulating scratch range into a segment.
    fn seal_scratch(&mut self) {
        if self.open < self.scratch.len() {
            self.segs.push(Seg::Scratch(self.open, self.scratch.len()));
            self.open = self.scratch.len();
        }
    }

    /// Appends a GET hit. Values past [`ZERO_COPY_THRESHOLD`] are spliced
    /// in as shared segments; small ones are cheaper to memcpy than to
    /// spend an iovec on.
    fn push_bulk_value(&mut self, v: Arc<[u8]>) {
        if v.len() < ZERO_COPY_THRESHOLD {
            resp::encode_bulk(&v, &mut self.scratch);
        } else {
            resp::encode_bulk_header(v.len(), &mut self.scratch);
            self.seal_scratch();
            self.segs.push(Seg::Shared(v));
            self.scratch.extend_from_slice(b"\r\n");
        }
    }

    /// Appends an owned reply value (the writer-thread reply path).
    fn push_value(&mut self, v: &Value) {
        resp::encode(v, &mut self.scratch);
    }

    /// Writes every pending segment with as few `writev` calls as
    /// possible, then resets the buffer. Returns the bytes written.
    fn write_to(&mut self, stream: &mut TcpStream) -> std::io::Result<usize> {
        self.seal_scratch();
        let mut slices: Vec<&[u8]> = Vec::with_capacity(self.segs.len());
        for seg in &self.segs {
            match seg {
                Seg::Scratch(s, e) => slices.push(&self.scratch[*s..*e]),
                Seg::Shared(v) => slices.push(v),
            }
        }
        let total: usize = slices.iter().map(|s| s.len()).sum();
        let (mut idx, mut off) = (0usize, 0usize);
        while idx < slices.len() {
            let end = (idx + MAX_IOVECS).min(slices.len());
            let mut iov: Vec<IoSlice<'_>> = Vec::with_capacity(end - idx);
            iov.push(IoSlice::new(&slices[idx][off..]));
            for s in &slices[idx + 1..end] {
                iov.push(IoSlice::new(s));
            }
            let mut n = stream.write_vectored(&iov)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "socket wrote zero bytes",
                ));
            }
            // Advance (idx, off) across however much the kernel took.
            while n > 0 {
                let rem = slices[idx].len() - off;
                if n >= rem {
                    n -= rem;
                    idx += 1;
                    off = 0;
                } else {
                    off += n;
                    n = 0;
                }
            }
        }
        self.clear();
        Ok(total)
    }
}

/// `WAIT <numreplicas> <timeout-ms>` on the connection thread. The
/// target is the current end of the replication backlog: the writer
/// publishes each batch's WAL bytes *before* releasing its replies, so
/// once this connection's own acks are drained (the caller guarantees
/// it), the backlog end covers every write this client has seen
/// acknowledged. Polls replica acks until enough replicas reach the
/// target, the timeout lapses (0 = no timeout), or the server stops;
/// replies with the replica count that had reached the target.
fn serve_wait(
    frame: &resp::CommandFrame<'_>,
    repl: &ReplState,
    shared: &Shared,
    reply: &mut ReplyBuf,
) {
    if frame.arg_count() != 3 {
        reply.push_value(&wrong_args("wait"));
        return;
    }
    let parse = |b: &[u8]| {
        std::str::from_utf8(b)
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
    };
    let (Some(need), Some(timeout_ms)) = (parse(frame.arg(1)), parse(frame.arg(2))) else {
        resp::encode_error(
            "ERR value is not an integer or out of range",
            &mut reply.scratch,
        );
        return;
    };
    let target = repl.backlog_end();
    // `timeout 0` is Redis's block-forever: no deadline at all.
    let deadline = (timeout_ms > 0).then(|| Instant::now() + Duration::from_millis(timeout_ms));
    // Acks usually land within a round trip, so start polling tight and
    // back off geometrically: a satisfied WAIT answers in ~a millisecond
    // while a long one settles to a capped cadence instead of spinning.
    let mut backoff = Duration::from_millis(1);
    shared.gov.blocked_clients.inc();
    let have = loop {
        let have = repl.count_acked(target);
        if have as u64 >= need || shared.stopping() || deadline.is_some_and(|d| Instant::now() >= d)
        {
            break have;
        }
        let nap = match deadline {
            Some(d) => backoff.min(d.saturating_duration_since(Instant::now())),
            None => backoff,
        };
        std::thread::sleep(nap);
        backoff = (backoff * 2).min(Duration::from_millis(16));
    };
    shared.gov.blocked_clients.dec();
    resp::encode_int(have as i64, &mut reply.scratch);
}

/// `GET` / `EXISTS` against the shard views (the read path), arity
/// errors included so the reply stream stays in order. Each key is read
/// from *its own shard's* view after waiting (trivially) for that shard's
/// newest acked sequence — waiting on one global sequence would couple a
/// shard's reads to every other shard's publish cadence.
fn serve_read(
    frame: &resp::CommandFrame<'_>,
    readers: &[ReadHandle],
    last_acks: &[u64],
    reply: &mut ReplyBuf,
) {
    let shards = readers.len();
    if frame.arg(0).eq_ignore_ascii_case(b"GET") {
        if frame.arg_count() != 2 {
            return reply.push_value(&wrong_args("get"));
        }
        let s = shard_of(frame.arg(1), shards);
        // Read-your-writes: the newest acked write of *this connection*
        // on this key's shard must be visible. Publish-before-ack makes
        // this a no-op in practice; it is the invariant, not a wait.
        readers[s].wait_published(last_acks[s]);
        match readers[s].get(frame.arg(1)) {
            Some(v) => reply.push_bulk_value(v),
            None => resp::encode_null(&mut reply.scratch),
        }
    } else {
        // EXISTS key [key ...]
        if frame.arg_count() < 2 {
            return reply.push_value(&wrong_args("exists"));
        }
        let mut found = 0i64;
        for i in 1..frame.arg_count() {
            let s = shard_of(frame.arg(i), shards);
            readers[s].wait_published(last_acks[s]);
            if readers[s].contains(frame.arg(i)) {
                found += 1;
            }
        }
        resp::encode_int(found, &mut reply.scratch);
    }
}

/// True for the data-plane commands that must reserve a writer-queue
/// slot before being forwarded. Control-plane commands (INFO, CONFIG,
/// SHUTDOWN, replication handshakes, …) bypass admission so the node
/// stays observable and administrable while saturated — they are bounded
/// by the per-connection in-flight cap instead.
pub(crate) fn governed_cmd(cmd: &[u8]) -> bool {
    cmd.eq_ignore_ascii_case(b"SET")
        || cmd.eq_ignore_ascii_case(b"DEL")
        || cmd.eq_ignore_ascii_case(b"GET")
        || cmd.eq_ignore_ascii_case(b"EXISTS")
}

/// One writer-bound command whose reply (or replies) the socket is
/// still owed, in request order.
struct Owed {
    /// When the command was parsed, for the latency histogram.
    t0: Instant,
    /// The shards that each owe exactly one reply for this command.
    mask: u16,
    /// How the per-shard replies collapse into one client reply.
    combine: Combine,
}

/// Reply-combining rule for one forwarded command.
#[derive(Clone, Copy)]
enum Combine {
    /// Single-shard command: pass its one reply through.
    Pass,
    /// Multi-key command split across shards: sum the integer replies
    /// (DEL's removed count, EXISTS's found count). Any error reply
    /// wins over the sum.
    SumInt,
}

/// One forwarded sub-command: the shard it goes to and its args.
type ShardRequest = (usize, Vec<Vec<u8>>);

/// Decides which shard writer(s) one forwarded command goes to.
/// Multi-key DEL/EXISTS split into one sub-command per owning shard,
/// their integer replies summed; single-key data commands go to the
/// key's shard; everything else — the control plane — runs on shard 0.
fn plan_requests(args: Vec<Vec<u8>>, shards: usize) -> (Vec<ShardRequest>, Combine) {
    let Some(cmd) = args.first() else {
        return (vec![(0, args)], Combine::Pass);
    };
    let multi_key = cmd.eq_ignore_ascii_case(b"DEL") || cmd.eq_ignore_ascii_case(b"EXISTS");
    if shards > 1 && multi_key && args.len() > 2 {
        let mut per: Vec<Vec<Vec<u8>>> = vec![Vec::new(); shards];
        let mut it = args.into_iter();
        let name = it.next().expect("first arg checked above");
        for key in it {
            per[shard_of(&key, shards)].push(key);
        }
        let plan: Vec<(usize, Vec<Vec<u8>>)> = per
            .into_iter()
            .enumerate()
            .filter(|(_, keys)| !keys.is_empty())
            .map(|(s, keys)| {
                let mut sub = Vec::with_capacity(1 + keys.len());
                sub.push(name.clone());
                sub.extend(keys);
                (s, sub)
            })
            .collect();
        return (plan, Combine::SumInt);
    }
    let keyed = multi_key || cmd.eq_ignore_ascii_case(b"SET") || cmd.eq_ignore_ascii_case(b"GET");
    let s = if keyed && args.len() >= 2 {
        shard_of(&args[1], shards)
    } else {
        0
    };
    (vec![(s, args)], Combine::Pass)
}

/// Why a connection stops serving.
enum End {
    /// The socket failed, or now belongs to a replication feed: this
    /// thread must not write to it again.
    Closed,
    /// A shard writer is gone (kill, or a shutdown race): flush the
    /// replies already settled, then close.
    LostWriter,
    /// Settle what is owed, answer with this error, then close.
    Fatal(String),
}

/// One client connection's state machine.
struct Conn {
    stream: TcpStream,
    txs: Vec<mpsc::Sender<Request>>,
    shared: Arc<Shared>,
    repl: Arc<ReplState>,
    /// Read handles make GET/EXISTS local — one per shard view, all or
    /// nothing. `register` returns None once a view's reader registry is
    /// full; those connections route every command through the writers.
    readers: Option<Vec<ReadHandle>>,
    /// One reply channel per shard for the whole connection: each shard's
    /// writer sends replies back over that shard's pair (in that shard's
    /// request order), so a pipelined burst costs no per-command channel
    /// allocation and cross-shard replies are re-sequenced by `owed`.
    rtxs: Vec<mpsc::Sender<(Value, u64)>>,
    rrxs: Vec<mpsc::Receiver<(Value, u64)>>,
    /// Writer-bound commands whose replies are still owed.
    owed: Vec<Owed>,
    /// Newest engine sequence this connection has seen acked, per shard.
    last_acks: Vec<u64>,
    reply: ReplyBuf,
    /// The port a replica announced via `REPLCONF listening-port`, kept
    /// so its PSYNC handoff can be labeled with a useful address.
    replconf_port: Option<u16>,
}

impl Conn {
    fn new(
        stream: TcpStream,
        txs: Vec<mpsc::Sender<Request>>,
        shared: Arc<Shared>,
        views: &[Arc<ReadView>],
        repl: &Arc<ReplState>,
    ) -> Self {
        let shards = txs.len();
        let (rtxs, rrxs) = (0..shards).map(|_| mpsc::channel()).unzip();
        Conn {
            stream,
            txs,
            shared,
            repl: Arc::clone(repl),
            readers: views.iter().map(|v| v.register()).collect(),
            rtxs,
            rrxs,
            owed: Vec::new(),
            last_acks: vec![0; shards],
            reply: ReplyBuf::new(),
            replconf_port: None,
        }
    }

    fn run(mut self, _guard: ConnGuard) {
        let _ = self.stream.set_nodelay(true);
        let _ = self
            .stream
            .set_read_timeout(Some(Duration::from_millis(100)));
        // A socket that won't take reply bytes for this long is a slow
        // consumer: the flush fails and the connection is evicted rather
        // than letting its buffers grow or its thread block forever.
        let _ = self
            .stream
            .set_write_timeout(Some(self.shared.gov.opts().client_write_stall));
        let mut parser = resp::Parser::new();
        loop {
            match parser.fill_from(&mut self.stream) {
                Ok(0) => break,
                Ok(n) => self.shared.net_in.add(n as u64),
                Err(e) if timed_out(&e) => {
                    if self.shared.stopping() {
                        break;
                    }
                    continue;
                }
                Err(_) => break,
            }
            self.reply.clear();
            self.owed.clear();
            match self.serve_burst(&mut parser).and_then(|()| self.flush()) {
                Ok(()) => {}
                Err(End::Closed) => break,
                Err(End::LostWriter) => {
                    let _ = self.flush();
                    break;
                }
                Err(End::Fatal(msg)) => {
                    let _ = self.settle();
                    resp::encode_error(&msg, &mut self.reply.scratch);
                    let _ = self.flush();
                    break;
                }
            }
            // The stop check sits *after* the burst is processed and
            // written, so a pipelined burst that contains SHUTDOWN still
            // gets every reply onto the wire before the connection winds
            // down.
            if self.shared.stopping() {
                break;
            }
        }
    }

    /// Drains one burst: local commands execute immediately (after any
    /// owed writer replies, to keep the reply stream in request order);
    /// writer commands are forwarded so the writer can drain them into
    /// one group-committed batch; whatever is still owed at the end of
    /// the burst is collected before the caller flushes.
    fn serve_burst(&mut self, parser: &mut resp::Parser) -> Result<(), End> {
        loop {
            match parser.next_command_frame() {
                Ok(Some(frame)) => {
                    self.serve(&frame)?;
                    // Mid-burst flush once the accumulated reply bytes
                    // pass the soft limit: per-connection reply memory
                    // turns into socket backpressure, and a client that
                    // won't drain it hits the write-stall timeout and is
                    // evicted instead of growing the buffer forever.
                    if self.reply.byte_len() >= self.shared.gov.opts().reply_buf_soft_limit {
                        self.flush()?;
                    }
                }
                Ok(None) => return self.settle(),
                Err(e) => return Err(End::Fatal(format!("ERR Protocol error: {e}"))),
            }
        }
    }

    /// Routes one command. `PING`, `WAIT`, and — when this connection
    /// holds reader slots — `GET`/`EXISTS` are answered on this thread,
    /// after settling owed writer replies (for reply order, and because a
    /// `WAIT` target must cover this connection's own acks). Everything
    /// that can mutate, sync, or inspect writer-owned state (INFO and
    /// DBSIZE included) is forwarded to the writers.
    fn serve(&mut self, frame: &resp::CommandFrame<'_>) -> Result<(), End> {
        let t0 = Instant::now();
        let is = |name: &[u8]| frame.arg(0).eq_ignore_ascii_case(name);
        if is(b"PSYNC") {
            return self.hand_off(frame);
        }
        let local_read = self.readers.is_some() && (is(b"GET") || is(b"EXISTS"));
        if !(local_read || is(b"PING") || is(b"WAIT")) {
            return self.forward(frame.to_owned_args(), t0);
        }
        self.settle()?;
        if let (true, Some(readers)) = (local_read, &self.readers) {
            serve_read(frame, readers, &self.last_acks, &mut self.reply);
            self.shared.tel.reads.record(dur_ns(t0.elapsed()));
        } else if is(b"WAIT") {
            serve_wait(frame, &self.repl, &self.shared, &mut self.reply);
        } else {
            match frame.arg_count() {
                1 => resp::encode_simple("PONG", &mut self.reply.scratch),
                2 => resp::encode_bulk(frame.arg(1), &mut self.reply.scratch),
                _ => self.reply.push_value(&wrong_args("ping")),
            }
        }
        self.shared.ops.inc();
        Ok(())
    }

    /// `PSYNC`: flush everything owed so the sync preamble is the next
    /// thing on the wire, then hand the socket to shard 0's writer and
    /// bow out — the feed thread owns the socket now (and if the handoff
    /// failed, the server is tearing down or out of descriptors: close
    /// either way).
    fn hand_off(&mut self, frame: &resp::CommandFrame<'_>) -> Result<(), End> {
        self.settle()?;
        self.flush()?;
        let peer_ip = self
            .stream
            .peer_addr()
            .map(|a| a.ip().to_string())
            .unwrap_or_else(|_| "?".to_string());
        let addr = match self.replconf_port {
            Some(p) => format!("{peer_ip}:{p}"),
            None => format!("{peer_ip}:?"),
        };
        if let Ok(stream) = self.stream.try_clone() {
            let _ = self.txs[0].send(Request::Sync {
                args: frame.to_owned_args(),
                stream,
                addr,
            });
        }
        Err(End::Closed)
    }

    /// Forwards one command to the shard writer(s) that own it, after
    /// admission, and records what the socket is now owed.
    fn forward(&mut self, args: Vec<Vec<u8>>, t0: Instant) -> Result<(), End> {
        if args.len() == 2
            && args[0].eq_ignore_ascii_case(b"DEBUG")
            && args[1].eq_ignore_ascii_case(b"PANIC")
        {
            // Crash hook for the panic-safety regression test: unwind
            // this connection thread mid-command. The client gauge
            // (`ConnGuard`), INFO, and every other connection must
            // survive it.
            panic!("DEBUG PANIC requested by client");
        }
        if args.len() == 3
            && args[0].eq_ignore_ascii_case(b"REPLCONF")
            && args[1].eq_ignore_ascii_case(b"listening-port")
        {
            self.replconf_port = String::from_utf8_lossy(&args[2]).parse().ok();
        }
        // Deep pipelines may not park unbounded replies at the writers:
        // past the in-flight cap, settle what is owed before forwarding
        // more.
        if self.owed.len() >= self.shared.gov.opts().conn_inflight_cap {
            self.settle()?;
        }
        let governed = args.first().is_some_and(|c| governed_cmd(c));
        let (plan, combine) = plan_requests(args, self.txs.len());
        if governed {
            // `plan` lists shards in ascending order (the split walks
            // 0..shards), which is the lock order `admit_all` reserves
            // slots in.
            let involved: Vec<usize> = plan.iter().map(|(s, _)| *s).collect();
            let t_adm = Instant::now();
            let admitted = self.shared.gov.admit_all(&involved, &self.shared.stop);
            // Admission wait lands on the first shard the command touches
            // (recorded even for refusals — the park before -BUSY is real
            // client-visible latency).
            self.shared.tel.shards[involved[0]]
                .admission
                .record(dur_ns(t_adm.elapsed()));
            if !admitted {
                // Some shard's queue full past the admission park: refuse
                // here, on the connection thread, after settling owed
                // replies so the error lands in request order.
                // (`admit_all` already rolled back any slots it took.)
                self.settle()?;
                resp::encode_error(
                    "BUSY writer queue is full, try again later",
                    &mut self.reply.scratch,
                );
                self.shared.ops.inc();
                return Ok(());
            }
        }
        let mut mask = 0u16;
        let mut send_failed = false;
        let queued_at = Instant::now();
        for (s, sub) in plan {
            let req = Request::Cmd {
                args: sub,
                queued_at,
                reply: self.rtxs[s].clone(),
            };
            if send_failed || self.txs[s].send(req).is_err() {
                // A dead writer channel means teardown: give this and
                // every later slot back; shards already sent release
                // theirs on drain.
                if governed {
                    self.shared.gov.release(s, 1);
                }
                send_failed = true;
            } else {
                mask |= 1 << s;
            }
        }
        if send_failed {
            return Err(End::Fatal(SHUTTING_DOWN.to_string()));
        }
        self.owed.push(Owed { t0, mask, combine });
        Ok(())
    }

    /// Collects every owed command's per-shard replies, in request order,
    /// combining each command's replies into one client reply. Per shard,
    /// replies arrive in that shard's request order, so walking the owed
    /// list front to back and each mask in ascending shard order matches
    /// sends to replies exactly.
    fn settle(&mut self) -> Result<(), End> {
        let Conn {
            owed,
            rrxs,
            last_acks,
            reply,
            shared,
            ..
        } = self;
        for o in owed.drain(..) {
            let mut sum = 0i64;
            let mut first_err: Option<Value> = None;
            let mut single: Option<Value> = None;
            for (s, rrx) in rrxs.iter().enumerate() {
                if o.mask & (1 << s) == 0 {
                    continue;
                }
                let (value, seq) = wait_reply(rrx, shared).ok_or(End::LostWriter)?;
                last_acks[s] = last_acks[s].max(seq);
                match &value {
                    Value::Int(n) => sum += *n,
                    Value::Error(_) if first_err.is_none() => first_err = Some(value.clone()),
                    _ => {}
                }
                single = Some(value);
            }
            let combined = match o.combine {
                Combine::Pass => single.expect("owed entry with an empty shard mask"),
                Combine::SumInt => first_err.unwrap_or(Value::Int(sum)),
            };
            shared.tel.e2e.record(dur_ns(o.t0.elapsed()));
            shared.ops.inc();
            reply.push_value(&combined);
        }
        Ok(())
    }

    /// Flushes the reply buffer to the socket, counting the bytes into
    /// the server's network-out total. A write stall (the socket refusing
    /// bytes past the configured write timeout) counts as a slow-client
    /// eviction; every caller treats the error as fatal for the
    /// connection, which is what reclaims the buffers.
    fn flush(&mut self) -> Result<(), End> {
        if self.reply.is_empty() {
            return Ok(());
        }
        match self.reply.write_to(&mut self.stream) {
            Ok(n) => {
                self.shared.net_out.add(n as u64);
                Ok(())
            }
            Err(e) => {
                if timed_out(&e) {
                    self.shared.gov.evicted_clients.inc();
                }
                Err(End::Closed)
            }
        }
    }
}

/// Waits for one reply from the writer. Gives up when the server is
/// being killed, or when a cleanly stopping server has stayed silent well
/// past its shutdown drain window (the request raced past the writer's
/// exit and will never be answered).
fn wait_reply(rrx: &mpsc::Receiver<(Value, u64)>, shared: &Shared) -> Option<(Value, u64)> {
    recv_polling(rrx, |waited| {
        shared.kill.load(Ordering::SeqCst)
            || (shared.stop.load(Ordering::SeqCst) && waited >= Duration::from_secs(2))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `accept_loop` takes the guard before `thread::Builder::spawn` and
    /// moves it into the closure; when the spawn fails the closure is
    /// dropped unrun, and that alone must give the gauge back.
    #[test]
    fn conn_guard_dropped_without_its_thread_running_restores_the_gauge() {
        let gauge = Arc::new(IntGauge::new());
        gauge.inc(); // some other, live connection
        let guard = ConnGuard::new(&gauge);
        assert_eq!(gauge.get(), 2);
        let never_run = move || drop(guard);
        drop(never_run);
        assert_eq!(gauge.get(), 1);
    }
}
