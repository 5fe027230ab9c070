//! The load generator: one [`Worker`] per connection, a closed-loop
//! pipelined driver, an open-loop scheduled driver, and reply checking.
//!
//! Every reply is checked as it is parsed — a SET must answer `+OK`, a
//! GET must return a value this generator wrote for that key (see
//! [`crate::gen`]) — so throughput is never counted for wrong answers.
//! The reply parser borrows from the read buffer and allocates nothing;
//! requests are encoded with the server crate's own RESP encoder.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use slimio_server::resp;

use crate::gen::{self, Model, Op, OpStream, Stamp, KEY_LEN};
use crate::stats::{Latencies, SlicedLatencies};
use crate::trace::Tracer;

/// One RESP2 reply, borrowed from the read buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum Reply<'a> {
    Simple(&'a [u8]),
    Error(&'a [u8]),
    Int(i64),
    Nil,
    Bulk(&'a [u8]),
}

fn line(buf: &[u8]) -> Option<(&[u8], usize)> {
    let nl = buf.iter().position(|&b| b == b'\n')?;
    if nl == 0 || buf[nl - 1] != b'\r' {
        return None;
    }
    Some((&buf[..nl - 1], nl + 1))
}

fn parse_i64(digits: &[u8]) -> io::Result<i64> {
    std::str::from_utf8(digits)
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad_reply("malformed integer"))
}

fn bad_reply(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("bad reply: {what}"))
}

/// Parses one reply off the front of `buf`: `Ok(None)` while incomplete,
/// otherwise the reply and the bytes it occupied. Arrays never reach the
/// generator (it sends no command that answers with one).
pub fn parse_reply(buf: &[u8]) -> io::Result<Option<(Reply<'_>, usize)>> {
    let Some(&tag) = buf.first() else {
        return Ok(None);
    };
    let Some((head, used)) = line(&buf[1..]) else {
        // A reply line is short; a long run without CRLF is not RESP.
        if buf.len() > 64 * 1024 && !matches!(tag, b'$') {
            return Err(bad_reply("unterminated line"));
        }
        return Ok(None);
    };
    let used = used + 1;
    match tag {
        b'+' => Ok(Some((Reply::Simple(head), used))),
        b'-' => Ok(Some((Reply::Error(head), used))),
        b':' => Ok(Some((Reply::Int(parse_i64(head)?), used))),
        b'$' => {
            let len = parse_i64(head)?;
            if len == -1 {
                return Ok(Some((Reply::Nil, used)));
            }
            // Values here are ≤ 512 B and INFO a few KiB; anything huge
            // is a framing error, not something to buffer for.
            if !(0..=(16 << 20)).contains(&len) {
                return Err(bad_reply("bulk length out of range"));
            }
            let len = len as usize;
            let Some(body) = buf.get(used..used + len + 2) else {
                return Ok(None);
            };
            if &body[len..] != b"\r\n" {
                return Err(bad_reply("bulk not CRLF-terminated"));
            }
            Ok(Some((Reply::Bulk(&body[..len]), used + len + 2)))
        }
        other => Err(bad_reply(&format!("unexpected type byte {other:#04x}"))),
    }
}

/// Ways an operation can fail the correctness gate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Failures {
    /// `-ERR …` and any other error reply that is not a refusal.
    pub error_replies: u64,
    /// `-BUSY` / `-OOM`: the server declined the work.
    pub refusals: u64,
    /// A reply of the wrong shape, or a GET payload that is not the
    /// generator's value for that key (or a version it cannot be).
    pub wrong_replies: u64,
    /// Acknowledged writes not found after the restart.
    pub lost_acked: u64,
}

impl Failures {
    pub fn total(&self) -> u64 {
        self.error_replies + self.refusals + self.wrong_replies + self.lost_acked
    }

    pub fn add(&mut self, o: &Failures) {
        self.error_replies += o.error_replies;
        self.refusals += o.refusals;
        self.wrong_replies += o.wrong_replies;
        self.lost_acked += o.lost_acked;
    }

    fn count_error(&mut self, msg: &[u8]) {
        if msg.starts_with(b"BUSY") || msg.starts_with(b"OOM") {
            self.refusals += 1;
        } else {
            self.error_replies += 1;
        }
    }
}

/// A blocking RESP connection with reusable buffers.
pub struct Conn {
    stream: TcpStream,
    wbuf: Vec<u8>,
    rbuf: Vec<u8>,
    /// Unparsed bytes are `rbuf[rpos..rend]`.
    rpos: usize,
    rend: usize,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A wedged server must fail the run, not hang it past the
        // benchmark's own time limit.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_write_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            stream,
            wbuf: Vec::with_capacity(64 << 10),
            rbuf: vec![0u8; 256 << 10],
            rpos: 0,
            rend: 0,
        })
    }

    /// Reads more bytes, first reclaiming the parsed prefix.
    fn fill(&mut self) -> io::Result<()> {
        if self.rpos == self.rend {
            self.rpos = 0;
            self.rend = 0;
        } else if self.rpos > 0 && self.rend == self.rbuf.len() {
            self.rbuf.copy_within(self.rpos..self.rend, 0);
            self.rend -= self.rpos;
            self.rpos = 0;
        }
        if self.rend == self.rbuf.len() {
            let grown = self.rbuf.len() * 2;
            self.rbuf.resize(grown, 0);
        }
        let n = self.stream.read(&mut self.rbuf[self.rend..])?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.rend += n;
        Ok(())
    }

    /// Blocks until one whole reply is buffered and hands it to `f`.
    fn with_reply<T>(&mut self, f: impl FnOnce(Reply<'_>) -> T) -> io::Result<T> {
        loop {
            if let Some((reply, used)) = parse_reply(&self.rbuf[self.rpos..self.rend])? {
                let out = f(reply);
                self.rpos += used;
                return Ok(out);
            }
            self.fill()?;
        }
    }

    /// True when a whole reply is already buffered (no syscall needed).
    fn reply_buffered(&self) -> bool {
        matches!(parse_reply(&self.rbuf[self.rpos..self.rend]), Ok(Some(_)))
    }

    /// Sends one command and returns its reply as owned bytes — for the
    /// control commands (`INFO`, `DBSIZE`, `BGSAVE`, `DEBUG DIGEST`).
    pub fn command(&mut self, args: &[&[u8]]) -> io::Result<OwnedReply> {
        self.wbuf.clear();
        resp::encode_command_slices(args, &mut self.wbuf);
        self.stream.write_all(&self.wbuf)?;
        self.with_reply(|r| match r {
            Reply::Simple(s) => OwnedReply::Simple(String::from_utf8_lossy(s).into_owned()),
            Reply::Error(s) => OwnedReply::Error(String::from_utf8_lossy(s).into_owned()),
            Reply::Int(i) => OwnedReply::Int(i),
            Reply::Nil => OwnedReply::Nil,
            Reply::Bulk(b) => OwnedReply::Bulk(b.to_vec()),
        })
    }

    /// `INFO` parsed into `field → value`.
    pub fn info(&mut self) -> io::Result<Info> {
        match self.command(&[b"INFO"])? {
            OwnedReply::Bulk(text) => Ok(Info(String::from_utf8_lossy(&text).into_owned())),
            other => Err(bad_reply(&format!("INFO answered {other:?}"))),
        }
    }
}

/// A control-command reply that outlives the read buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OwnedReply {
    Simple(String),
    Error(String),
    Int(i64),
    Nil,
    Bulk(Vec<u8>),
}

/// The text of an `INFO` reply.
pub struct Info(String);

impl Info {
    pub fn field(&self, name: &str) -> Option<&str> {
        self.0
            .lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
            .map(str::trim)
    }

    pub fn u64(&self, name: &str) -> Option<u64> {
        self.field(name)?.parse().ok()
    }
}

/// What the generator must remember about a sent command to check its
/// reply.
#[derive(Clone, Copy)]
enum Sent {
    Set,
    /// A GET of `key_id`; when the key is this connection's own,
    /// `own_slot` and the newest sequence acknowledged before the burst.
    Get {
        key_id: u64,
        own: Option<(u32, u32)>,
    },
}

/// Static description of the traffic one worker generates.
#[derive(Clone, Copy, Debug)]
pub struct Traffic {
    pub seed: u64,
    pub conns: usize,
    pub keys: u64,
    pub value_len: usize,
    pub dist: gen::KeyDist,
    pub get_pct: u8,
    pub pipeline: usize,
    /// Every key is written before any GET is sent, so a nil GET is
    /// always wrong.
    pub preloaded: bool,
}

/// Counters shared between the workers and the sampling main thread.
#[derive(Default)]
pub struct Shared {
    /// Operations completed (replies checked) since the window opened.
    pub ops: AtomicU64,
    /// Raised by the main thread when the window closes.
    pub stop: AtomicBool,
}

/// One connection's generator: its socket, operation stream, model of
/// acknowledged writes, latency samples and failure counts.
pub struct Worker {
    pub id: usize,
    conn: Conn,
    traffic: Traffic,
    ops: OpStream,
    pub model: Model,
    value: Vec<u8>,
    key: [u8; KEY_LEN],
    sent: Vec<Sent>,
    /// One sample per burst (closed loop) or per request (open loop).
    pub lat: SlicedLatencies,
    /// How late each open-loop send started, relative to its due time.
    pub lag: Latencies,
    pub late_sends: u64,
    pub attempted: u64,
    pub fails: Failures,
    /// Bytes of key + value in acknowledged SETs (for bytes-per-user-byte).
    pub acked_user_bytes: u64,
    pub tracer: Option<Tracer>,
}

/// A send that starts this long after it was due, although the generator
/// was free and waiting for it, counts as late: the generator (or the
/// machine under it) failed to hold the schedule.
pub const LATE_SEND: Duration = Duration::from_millis(1);

impl Worker {
    pub fn connect(
        addr: SocketAddr,
        id: usize,
        traffic: Traffic,
        expected_sets: usize,
    ) -> io::Result<Worker> {
        let ops = OpStream::new(
            traffic.seed,
            id,
            traffic.conns,
            traffic.keys,
            traffic.dist,
            traffic.get_pct,
        );
        let model = Model::new(ops.own_keys(), expected_sets);
        Ok(Worker {
            id,
            conn: Conn::connect(addr)?,
            traffic,
            ops,
            model,
            value: vec![0u8; traffic.value_len],
            key: [0u8; KEY_LEN],
            sent: Vec::with_capacity(traffic.pipeline.max(64)),
            lat: SlicedLatencies::default(),
            lag: Latencies::default(),
            late_sends: 0,
            attempted: 0,
            fails: Failures::default(),
            acked_user_bytes: 0,
            tracer: None,
        })
    }

    /// Reconnects to a restarted server, keeping the model.
    pub fn reconnect(&mut self, addr: SocketAddr) -> io::Result<()> {
        self.conn = Conn::connect(addr)?;
        Ok(())
    }

    /// Starts a measured window at `start`: drops whatever warm-up
    /// recorded and sizes the sample buffers for `expected` samples.
    pub fn begin_window(&mut self, start: Instant, window: Duration, expected: usize) {
        self.lat = SlicedLatencies::new(start, window, expected);
        self.lag = Latencies::default();
        self.late_sends = 0;
        if let Some(t) = self.tracer.as_mut() {
            t.reset();
        }
    }

    fn encode_set(&mut self, key_id: u64, slot: u32) {
        let seq = self.model.issue(slot);
        gen::write_key(&mut self.key, key_id);
        gen::fill_value(
            &mut self.value,
            self.traffic.seed,
            Stamp {
                key_id,
                seq,
                conn: self.id as u8,
            },
        );
        resp::encode_command_slices(&[b"SET", &self.key, &self.value], &mut self.conn.wbuf);
        self.sent.push(Sent::Set);
    }

    fn encode_op(&mut self, op: Op) {
        match op {
            Op::Set { key_id, slot } => self.encode_set(key_id, slot),
            Op::Get { key_id } => {
                gen::write_key(&mut self.key, key_id);
                resp::encode_command_slices(&[b"GET", &self.key], &mut self.conn.wbuf);
                let conns = self.traffic.conns as u64;
                let own = (key_id % conns == self.id as u64).then(|| {
                    let slot = (key_id / conns) as u32;
                    (slot, self.model.acked_seq(slot))
                });
                self.sent.push(Sent::Get { key_id, own });
            }
        }
    }

    /// Checks the reply to the `i`-th command of the current burst.
    fn check(&mut self, i: usize) -> io::Result<()> {
        let sent = self.sent[i];
        let (seed, vlen, preloaded, me) = (
            self.traffic.seed,
            self.traffic.value_len,
            self.traffic.preloaded,
            self.id as u8,
        );
        let conns = self.traffic.conns as u64;
        let issued = self.model.issued();
        let mut fails = Failures::default();
        let mut acked = false;
        self.conn.with_reply(|reply| match (sent, reply) {
            (_, Reply::Error(msg)) => fails.count_error(msg),
            (Sent::Set, Reply::Simple(b"OK")) => acked = true,
            (Sent::Get { key_id, own }, Reply::Bulk(payload)) => {
                let ok = gen::check_value(payload, seed, key_id, vlen).is_some_and(|s| {
                    // The writer named in the value must be the key's owner,
                    // and for an own key the version must lie between what
                    // was acknowledged before this burst (read-your-writes)
                    // and what has been sent at all.
                    s.conn as u64 == key_id % conns
                        && own.is_none_or(|(_, acked_before)| {
                            s.conn == me && s.seq >= acked_before && s.seq <= issued
                        })
                });
                if !ok {
                    fails.wrong_replies += 1;
                }
            }
            (Sent::Get { own, .. }, Reply::Nil) => {
                // Nil is right only for a key nobody wrote yet.
                let written = preloaded || own.is_some_and(|(_, acked_before)| acked_before > 0);
                if written {
                    fails.wrong_replies += 1;
                }
            }
            _ => fails.wrong_replies += 1,
        })?;
        if matches!(sent, Sent::Set) {
            self.model.ack();
            if acked {
                self.acked_user_bytes += (KEY_LEN + vlen) as u64;
            }
        }
        self.fails.add(&fails);
        Ok(())
    }

    /// One closed-loop burst: encode `n` commands, send them, wait for
    /// and check all `n` replies. Records one latency sample (send →
    /// last reply checked) and, when tracing, the burst's spans.
    fn burst(&mut self, n: usize) -> io::Result<()> {
        let t_enc = Instant::now();
        self.conn.wbuf.clear();
        self.sent.clear();
        for _ in 0..n {
            let op = self.ops.next_op();
            self.encode_op(op);
        }
        self.attempted += n as u64;
        let t_send = Instant::now();
        self.conn.stream.write_all(&self.conn.wbuf)?;
        let t_sent = if self.tracer.is_some() {
            Some(Instant::now())
        } else {
            None
        };
        let mut t_first = None;
        for i in 0..n {
            if i == 0 && self.tracer.is_some() {
                // Split waiting (no reply byte yet) from parsing.
                while !self.conn.reply_buffered() {
                    self.conn.fill()?;
                }
                t_first = Some(Instant::now());
            }
            self.check(i)?;
        }
        let t_done = Instant::now();
        self.lat.record(t_done, (t_done - t_send).as_nanos() as u64);
        if let (Some(tr), Some(t_sent), Some(t_first)) = (self.tracer.as_mut(), t_sent, t_first) {
            tr.burst(n, t_enc, t_send, t_sent, t_first, t_done);
        }
        Ok(())
    }

    /// Closed loop: bursts of `pipeline` commands back to back until
    /// `shared.stop` rises. Every burst that is sent is also completed.
    pub fn run_closed(&mut self, shared: &Shared) -> io::Result<()> {
        let n = self.traffic.pipeline;
        while !shared.stop.load(Ordering::Relaxed) {
            self.burst(n)?;
            shared.ops.fetch_add(n as u64, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Closed loop for a fixed number of commands (preload, warm-up).
    pub fn run_count(&mut self, mut left: u64) -> io::Result<()> {
        while left > 0 {
            let n = left.min(self.traffic.pipeline as u64) as usize;
            self.burst(n)?;
            left -= n as u64;
        }
        Ok(())
    }

    /// Writes this connection's own keys once each, in slot order,
    /// `pipeline` at a time — the preload.
    pub fn preload(&mut self, pipeline: usize) -> io::Result<()> {
        let own = self.ops.own_keys() as u32;
        let mut slot = 0u32;
        while slot < own {
            let n = (own - slot).min(pipeline as u32);
            self.conn.wbuf.clear();
            self.sent.clear();
            for s in slot..slot + n {
                let key_id = self.ops.own_key_id(s);
                self.encode_set(key_id, s);
            }
            self.attempted += n as u64;
            self.conn.stream.write_all(&self.conn.wbuf)?;
            for i in 0..n as usize {
                self.check(i)?;
            }
            slot += n;
        }
        Ok(())
    }

    /// Open loop: request `i` is due at `start + offset + i * period`
    /// whether or not the server has kept up; one request is in flight
    /// per connection, so a stall delays the sends behind it and that
    /// delay is charged to them (latency runs from the *due* time).
    pub fn run_open(
        &mut self,
        start: Instant,
        schedule: &Schedule,
        shared: &Shared,
    ) -> io::Result<()> {
        for i in 0..schedule.count {
            let due = start + schedule.due(i);
            let now = Instant::now();
            // Behind schedule already (the previous reply came in after
            // this request was due): the delay is the server's and is
            // charged to latency, not to the generator.
            let on_time = now < due;
            if on_time {
                std::thread::sleep(due - now);
            }
            if shared.stop.load(Ordering::Relaxed) {
                break;
            }
            let t_enc = Instant::now();
            self.conn.wbuf.clear();
            self.sent.clear();
            let op = self.ops.next_op();
            self.encode_op(op);
            self.attempted += 1;
            let t_send = Instant::now();
            let lag = t_send.saturating_duration_since(due);
            self.lag.record(lag.as_nanos() as u64);
            if on_time && lag > LATE_SEND {
                self.late_sends += 1;
            }
            self.conn.stream.write_all(&self.conn.wbuf)?;
            let t_sent = if self.tracer.is_some() {
                Some(Instant::now())
            } else {
                None
            };
            let mut t_first = None;
            if self.tracer.is_some() {
                while !self.conn.reply_buffered() {
                    self.conn.fill()?;
                }
                t_first = Some(Instant::now());
            }
            self.check(0)?;
            let t_done = Instant::now();
            self.lat.record(
                t_done,
                t_done.saturating_duration_since(due).as_nanos() as u64,
            );
            shared.ops.fetch_add(1, Ordering::Relaxed);
            if let (Some(tr), Some(t_sent), Some(t_first)) = (self.tracer.as_mut(), t_sent, t_first)
            {
                tr.burst(1, t_enc, t_send, t_sent, t_first, t_done);
            }
        }
        Ok(())
    }

    /// Reads back every own key after a restart and returns the stamp
    /// sequence found per slot (0 = nil). Payloads that fail the value
    /// check count as wrong replies.
    pub fn read_back(&mut self, pipeline: usize) -> io::Result<Vec<u32>> {
        let own = self.ops.own_keys() as u32;
        let (seed, vlen, me) = (self.traffic.seed, self.traffic.value_len, self.id as u8);
        let mut found = vec![0u32; own as usize];
        let mut slot = 0u32;
        while slot < own {
            let n = (own - slot).min(pipeline as u32);
            self.conn.wbuf.clear();
            for s in slot..slot + n {
                gen::write_key(&mut self.key, self.ops.own_key_id(s));
                resp::encode_command_slices(&[b"GET", &self.key], &mut self.conn.wbuf);
            }
            self.conn.stream.write_all(&self.conn.wbuf)?;
            for s in slot..slot + n {
                let key_id = self.ops.own_key_id(s);
                let mut fails = Failures::default();
                let seq = self.conn.with_reply(|reply| match reply {
                    Reply::Nil => 0,
                    Reply::Bulk(p) => match gen::check_value(p, seed, key_id, vlen) {
                        Some(st) if st.conn == me => st.seq,
                        _ => {
                            fails.wrong_replies += 1;
                            0
                        }
                    },
                    Reply::Error(msg) => {
                        fails.count_error(msg);
                        0
                    }
                    _ => {
                        fails.wrong_replies += 1;
                        0
                    }
                })?;
                self.fails.add(&fails);
                found[s as usize] = seq;
            }
            slot += n;
        }
        Ok(found)
    }
}

/// An evenly spaced open-loop schedule for one connection.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Schedule {
    /// Gap between this connection's consecutive due times.
    pub period: Duration,
    /// This connection's phase, so the connections interleave evenly.
    pub offset: Duration,
    /// Requests in the window.
    pub count: u64,
}

impl Schedule {
    /// Splits `rate` requests/s evenly over `conns` connections for
    /// `window`: connection `conn` sends every `conns / rate` seconds,
    /// phase-shifted by `conn / rate`, so the merged stream is evenly
    /// spaced at `1 / rate`.
    pub fn even(rate: f64, conns: usize, conn: usize, window: Duration) -> Schedule {
        assert!(rate > 0.0 && conns >= 1 && conn < conns);
        let period = Duration::from_secs_f64(conns as f64 / rate);
        let offset = Duration::from_secs_f64(conn as f64 / rate);
        // Every due time strictly inside the window: ceil(usable / period).
        let usable = window.saturating_sub(offset);
        let count = usable.as_nanos().div_ceil(period.as_nanos().max(1)) as u64;
        Schedule {
            period,
            offset,
            count,
        }
    }

    /// Due time of request `i`, relative to the window start.
    pub fn due(&self, i: u64) -> Duration {
        // Integer nanoseconds: float scaling could land a nanosecond off.
        self.offset + Duration::from_nanos(self.period.as_nanos() as u64 * i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_reply_shape_and_waits_for_whole_frames() {
        let stream = b"+OK\r\n-BUSY try later\r\n:42\r\n$-1\r\n$5\r\nhe\r\no\r\n$0\r\n\r\n";
        let mut at = 0;
        let mut got = Vec::new();
        while at < stream.len() {
            let (r, used) = parse_reply(&stream[at..]).unwrap().unwrap();
            got.push(format!("{r:?}"));
            at += used;
        }
        assert_eq!(
            got,
            [
                "Simple([79, 75])",
                "Error([66, 85, 83, 89, 32, 116, 114, 121, 32, 108, 97, 116, 101, 114])",
                "Int(42)",
                "Nil",
                "Bulk([104, 101, 13, 10, 111])",
                "Bulk([])",
            ]
        );
        // Every proper prefix of a frame is "incomplete", never an error
        // and never a short reply.
        for frame in [&b"+OK\r\n"[..], b"$5\r\nhello\r\n", b":-7\r\n", b"$-1\r\n"] {
            for cut in 0..frame.len() {
                assert_eq!(
                    parse_reply(&frame[..cut]).unwrap(),
                    None,
                    "{frame:?} cut at {cut}"
                );
            }
            assert!(parse_reply(frame).unwrap().is_some());
        }
    }

    #[test]
    fn rejects_framing_errors() {
        assert!(parse_reply(b"*1\r\n").is_err(), "arrays are not expected");
        assert!(parse_reply(b"$5\r\nhelloXX").is_err());
        assert!(parse_reply(b":abc\r\n").is_err());
        assert!(parse_reply(b"$99999999999\r\n").is_err());
    }

    #[test]
    fn refusals_are_told_apart_from_errors() {
        let mut f = Failures::default();
        f.count_error(b"BUSY writer queue full");
        f.count_error(b"OOM command not allowed");
        f.count_error(b"ERR unknown command");
        assert_eq!((f.refusals, f.error_replies, f.total()), (2, 1, 3));
    }

    #[test]
    fn info_fields() {
        let info = Info("# Server\r\nwal_snapshots:3\r\nwal_snapshots_x:9\r\nwaf:1.00\r\n".into());
        assert_eq!(info.u64("wal_snapshots"), Some(3));
        assert_eq!(info.field("waf"), Some("1.00"));
        assert_eq!(info.field("missing"), None);
    }

    #[test]
    fn even_schedule_interleaves_connections_and_fills_the_window() {
        let w = Duration::from_secs(20);
        let a = Schedule::even(2000.0, 2, 0, w);
        let b = Schedule::even(2000.0, 2, 1, w);
        assert_eq!(a.period, Duration::from_millis(1));
        assert_eq!(
            (a.offset, b.offset),
            (Duration::ZERO, Duration::from_micros(500))
        );
        assert_eq!((a.count, b.count), (20_000, 20_000));
        assert_eq!(a.due(0), Duration::ZERO);
        assert_eq!(b.due(3), Duration::from_micros(3_500));
        // The last due time lies inside the window, the next one outside.
        for s in [a, b] {
            assert!(s.due(s.count - 1) < w);
            assert!(s.due(s.count) >= w);
        }
        // Merged, the two connections are evenly spaced at 1 / rate.
        let mut all: Vec<Duration> = (0..5).flat_map(|i| [a.due(i), b.due(i)]).collect();
        all.sort();
        for pair in all.windows(2) {
            assert_eq!(pair[1] - pair[0], Duration::from_micros(500));
        }
    }

    #[test]
    fn odd_windows_keep_every_due_time_inside() {
        let w = Duration::from_micros(2_250);
        let s = Schedule::even(2000.0, 2, 1, w);
        // Offset 500 µs, period 1 ms: due at 0.5 and 1.5 ms.
        assert_eq!(s.count, 2);
        assert!(s.due(s.count - 1) < w && s.due(s.count) >= w);
    }
}
