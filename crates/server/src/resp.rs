//! RESP2 wire protocol: values, encoding, and an incremental parser.
//!
//! The server speaks the Redis Serialization Protocol version 2 — the
//! protocol redis-benchmark and every Redis client library emit. Two
//! framings reach a server: *inline commands* (a plain text line, split on
//! whitespace) and *arrays of bulk strings* (`*N\r\n$len\r\narg\r\n…`),
//! which are binary-safe. Replies are [`Value`]s.
//!
//! [`Parser`] is incremental: feed it whatever bytes arrived on the
//! socket, ask for the next complete command/value, and it returns
//! `Ok(None)` until one is fully buffered. Nothing is consumed until a
//! frame is complete, so a byte stream split at *any* point parses to the
//! same result — the property test below proves it.

use std::fmt;

/// Longest accepted bulk string: Redis's 512 MB proto limit.
const MAX_BULK: i64 = 512 * 1024 * 1024;
/// Most elements accepted in one array frame.
const MAX_ARRAY: i64 = 1024 * 1024;
/// Longest accepted inline command / header line.
const MAX_INLINE: usize = 64 * 1024;

/// A RESP2 value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    /// Simple string: `+OK\r\n`.
    Simple(String),
    /// Error string: `-ERR …\r\n`.
    Error(String),
    /// Integer: `:42\r\n`.
    Int(i64),
    /// Bulk string (binary-safe): `$3\r\nfoo\r\n`.
    Bulk(Vec<u8>),
    /// Null bulk/array: `$-1\r\n`.
    Null,
    /// Array of values: `*2\r\n…`.
    Array(Vec<Value>),
}

impl Value {
    /// The canonical `+OK` reply.
    pub fn ok() -> Value {
        Value::Simple("OK".into())
    }

    /// A bulk string from anything byte-like.
    pub fn bulk(bytes: impl Into<Vec<u8>>) -> Value {
        Value::Bulk(bytes.into())
    }

    /// An `-ERR`-prefixed error reply.
    pub fn err(msg: impl fmt::Display) -> Value {
        Value::Error(format!("ERR {msg}"))
    }

    /// True for [`Value::Error`].
    pub fn is_error(&self) -> bool {
        matches!(self, Value::Error(_))
    }
}

/// Protocol violation found while parsing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RespError(pub String);

impl fmt::Display for RespError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for RespError {}

fn proto(msg: impl Into<String>) -> RespError {
    RespError(msg.into())
}

/// Appends a decimal integer without allocating (replaces
/// `i.to_string()` on reply hot paths).
#[inline]
fn push_int(out: &mut Vec<u8>, v: i64) {
    let mut buf = [0u8; 20];
    let neg = v < 0;
    // Build digits from the magnitude; unsigned_abs handles i64::MIN.
    let mut m = v.unsigned_abs();
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (m % 10) as u8;
        m /= 10;
        if m == 0 {
            break;
        }
    }
    if neg {
        out.push(b'-');
    }
    out.extend_from_slice(&buf[at..]);
}

/// Appends `+<s>\r\n`.
#[inline]
pub fn encode_simple(s: &str, out: &mut Vec<u8>) {
    out.push(b'+');
    out.extend_from_slice(s.as_bytes());
    out.extend_from_slice(b"\r\n");
}

/// Appends `-<msg>\r\n`.
#[inline]
pub fn encode_error(msg: &str, out: &mut Vec<u8>) {
    out.push(b'-');
    out.extend_from_slice(msg.as_bytes());
    out.extend_from_slice(b"\r\n");
}

/// Appends `:<i>\r\n`.
#[inline]
pub fn encode_int(i: i64, out: &mut Vec<u8>) {
    out.push(b':');
    push_int(out, i);
    out.extend_from_slice(b"\r\n");
}

/// Appends the `$<len>\r\n` header of a bulk string whose payload (and
/// trailing CRLF) the caller emits separately — the zero-copy reply path
/// uses this to splice an `Arc`'d value in without copying it.
#[inline]
pub fn encode_bulk_header(len: usize, out: &mut Vec<u8>) {
    out.push(b'$');
    push_int(out, len as i64);
    out.extend_from_slice(b"\r\n");
}

/// Appends a complete `$<len>\r\n<payload>\r\n` bulk string.
#[inline]
pub fn encode_bulk(payload: &[u8], out: &mut Vec<u8>) {
    encode_bulk_header(payload.len(), out);
    out.extend_from_slice(payload);
    out.extend_from_slice(b"\r\n");
}

/// Appends the RESP2 null bulk `$-1\r\n`.
#[inline]
pub fn encode_null(out: &mut Vec<u8>) {
    out.extend_from_slice(b"$-1\r\n");
}

/// Serializes a value in RESP2 framing.
pub fn encode(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Simple(s) => encode_simple(s, out),
        Value::Error(s) => encode_error(s, out),
        Value::Int(i) => encode_int(*i, out),
        Value::Bulk(b) => encode_bulk(b, out),
        Value::Null => encode_null(out),
        Value::Array(items) => {
            out.push(b'*');
            push_int(out, items.len() as i64);
            out.extend_from_slice(b"\r\n");
            for it in items {
                encode(it, out);
            }
        }
    }
}

/// Serializes a command from borrowed argument slices — the
/// allocation-free client-side twin of [`encode_command`].
pub fn encode_command_slices(args: &[&[u8]], out: &mut Vec<u8>) {
    out.push(b'*');
    push_int(out, args.len() as i64);
    out.extend_from_slice(b"\r\n");
    for a in args {
        encode_bulk(a, out);
    }
}

/// Serializes a command as an array of bulk strings — the client→server
/// framing every Redis client uses.
pub fn encode_command(args: &[Vec<u8>], out: &mut Vec<u8>) {
    out.push(b'*');
    push_int(out, args.len() as i64);
    out.extend_from_slice(b"\r\n");
    for a in args {
        encode_bulk(a, out);
    }
}

/// Takes one CRLF-terminated line: returns `(content, consumed)` with the
/// CRLF stripped from the content but counted in `consumed`.
fn take_line(b: &[u8]) -> Result<Option<(&[u8], usize)>, RespError> {
    match b.iter().position(|&c| c == b'\n') {
        Some(i) => {
            if i == 0 || b[i - 1] != b'\r' {
                return Err(proto("expected CRLF line terminator"));
            }
            Ok(Some((&b[..i - 1], i + 1)))
        }
        None if b.len() > MAX_INLINE => Err(proto("line exceeds 64 KiB")),
        None => Ok(None),
    }
}

fn parse_int(line: &[u8]) -> Result<i64, RespError> {
    let s = std::str::from_utf8(line).map_err(|_| proto("non-ASCII integer"))?;
    s.parse().map_err(|_| proto(format!("bad integer {s:?}")))
}

/// A byte range `[start, end)`.
type Span = (usize, usize);

/// Scans one bulk string at `b[0] == b'$'`: the payload's span within `b`
/// (`None` for the null bulk, `$-1`) and the bytes consumed, or `None`
/// while the frame is incomplete.
fn take_bulk(b: &[u8]) -> Result<Option<(Option<Span>, usize)>, RespError> {
    let Some((line, used)) = take_line(&b[1..])? else {
        return Ok(None);
    };
    let header = 1 + used;
    let len = parse_int(line)?;
    if len == -1 {
        return Ok(Some((None, header)));
    }
    if !(0..=MAX_BULK).contains(&len) {
        return Err(proto(format!("invalid bulk length {len}")));
    }
    let len = len as usize;
    let need = header + len + 2;
    if b.len() < need {
        return Ok(None);
    }
    if &b[header + len..need] != b"\r\n" {
        return Err(proto("bulk string not CRLF-terminated"));
    }
    Ok(Some((Some((header, header + len)), need)))
}

/// Parses one complete value from the head of `b`, returning it and the
/// bytes consumed, or `None` if the frame is not yet fully buffered.
/// Nothing is consumed until the whole frame (arrays included) is present.
fn parse_value(b: &[u8]) -> Result<Option<(Value, usize)>, RespError> {
    let Some(&tag) = b.first() else {
        return Ok(None);
    };
    match tag {
        b'+' | b'-' | b':' => {
            let Some((line, used)) = take_line(&b[1..])? else {
                return Ok(None);
            };
            let v = match tag {
                b'+' => Value::Simple(String::from_utf8_lossy(line).into_owned()),
                b'-' => Value::Error(String::from_utf8_lossy(line).into_owned()),
                _ => Value::Int(parse_int(line)?),
            };
            Ok(Some((v, 1 + used)))
        }
        b'$' => Ok(take_bulk(b)?.map(|(span, used)| match span {
            Some((s, e)) => (Value::Bulk(b[s..e].to_vec()), used),
            None => (Value::Null, used),
        })),
        b'*' => {
            let Some((line, used)) = take_line(&b[1..])? else {
                return Ok(None);
            };
            let mut at = 1 + used;
            let n = parse_int(line)?;
            if n == -1 {
                return Ok(Some((Value::Null, at)));
            }
            if !(0..=MAX_ARRAY).contains(&n) {
                return Err(proto(format!("invalid array length {n}")));
            }
            let mut items = Vec::with_capacity(n as usize);
            for _ in 0..n {
                match parse_value(&b[at..])? {
                    None => return Ok(None),
                    Some((v, used)) => {
                        items.push(v);
                        at += used;
                    }
                }
            }
            Ok(Some((Value::Array(items), at)))
        }
        other => Err(proto(format!("unexpected byte 0x{other:02x}"))),
    }
}

/// One complete command parsed *in place*: each argument is a span into
/// the parser's buffer, so the hot path (SET/GET bursts) never allocates
/// a `Vec<u8>` per bulk string. The borrow ties the frame's lifetime to
/// the parser — the next `next_command_frame`/`fill_from` call may move
/// or overwrite the underlying bytes, and the borrow checker enforces
/// that the frame is dead by then.
pub struct CommandFrame<'a> {
    buf: &'a [u8],
    spans: &'a [(usize, usize)],
}

impl<'a> CommandFrame<'a> {
    /// Number of arguments (command name included).
    pub fn arg_count(&self) -> usize {
        self.spans.len()
    }

    /// Argument `i` as a borrowed slice of the parser buffer.
    pub fn arg(&self, i: usize) -> &'a [u8] {
        let (s, e) = self.spans[i];
        &self.buf[s..e]
    }

    /// Copies every argument out — the bridge to the writer-thread path,
    /// which needs owned bytes that outlive the parser buffer.
    pub fn to_owned_args(&self) -> Vec<Vec<u8>> {
        self.spans
            .iter()
            .map(|&(s, e)| self.buf[s..e].to_vec())
            .collect()
    }
}

/// Scans one array-of-bulk-strings command starting at `b[0] == b'*'`,
/// recording absolute argument spans (offset by `base`). Returns the
/// bytes consumed, or `None` while the frame is incomplete.
fn parse_command_spans(
    b: &[u8],
    base: usize,
    spans: &mut Vec<(usize, usize)>,
) -> Result<Option<usize>, RespError> {
    let Some((line, used)) = take_line(&b[1..])? else {
        return Ok(None);
    };
    let mut at = 1 + used;
    let n = parse_int(line)?;
    if n == -1 {
        return Err(proto("null array is not a command"));
    }
    if !(0..=MAX_ARRAY).contains(&n) {
        return Err(proto(format!("invalid array length {n}")));
    }
    for _ in 0..n {
        let rb = &b[at..];
        let Some(&tag) = rb.first() else {
            return Ok(None);
        };
        if tag != b'$' {
            return Err(proto("command array must hold bulk strings"));
        }
        let Some((span, used)) = take_bulk(rb)? else {
            return Ok(None);
        };
        let Some((s, e)) = span else {
            return Err(proto("command array must hold bulk strings"));
        };
        spans.push((base + at + s, base + at + e));
        at += used;
    }
    Ok(Some(at))
}

/// Incremental RESP2 parser over a reusable byte buffer.
///
/// The buffer doubles as the connection's read buffer: [`Parser::fill_from`]
/// reads from the socket straight into the spare tail (no intermediate
/// copy), and [`Parser::next_command_frame`] yields argument spans into
/// it (no per-argument allocation). Valid bytes live in `buf[pos..filled]`.
#[derive(Default)]
pub struct Parser {
    buf: Vec<u8>,
    filled: usize,
    pos: usize,
    /// Reused span scratch for `next_command_frame`.
    spans: Vec<(usize, usize)>,
}

/// Spare tail capacity `fill_from` guarantees before reading.
const READ_CHUNK: usize = 16 * 1024;

impl Parser {
    /// Creates an empty parser.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends newly received bytes (copying them; socket paths should
    /// prefer [`Parser::fill_from`]).
    pub fn feed(&mut self, bytes: &[u8]) {
        self.reserve_tail(bytes.len());
        self.buf[self.filled..self.filled + bytes.len()].copy_from_slice(bytes);
        self.filled += bytes.len();
    }

    /// Reads once from `r` directly into the buffer's spare tail,
    /// returning the byte count (0 = EOF). Compacts first, so a long-
    /// lived connection reuses one steady-state allocation.
    pub fn fill_from(&mut self, r: &mut impl std::io::Read) -> std::io::Result<usize> {
        self.compact();
        self.reserve_tail(READ_CHUNK);
        let n = r.read(&mut self.buf[self.filled..])?;
        self.filled += n;
        Ok(n)
    }

    /// Ensures `buf[filled..]` has at least `extra` writable bytes. The
    /// zeroed tail is never exposed: only `buf[pos..filled]` is read.
    fn reserve_tail(&mut self, extra: usize) {
        let need = self.filled + extra;
        if need > self.buf.len() {
            let new_len = need.max(self.buf.len() * 2).max(READ_CHUNK);
            self.buf.resize(new_len, 0);
        }
    }

    /// Reclaims consumed prefix space.
    fn compact(&mut self) {
        if self.pos == self.filled {
            self.pos = 0;
            self.filled = 0;
        } else if self.pos >= 64 * 1024 {
            self.buf.copy_within(self.pos..self.filled, 0);
            self.filled -= self.pos;
            self.pos = 0;
        }
    }

    /// Next complete *command*, parsed in place: an array of bulk strings
    /// or an inline whitespace-split line. Returns `Ok(None)` until one
    /// is complete. The returned frame borrows the parser's buffer.
    pub fn next_command_frame(&mut self) -> Result<Option<CommandFrame<'_>>, RespError> {
        self.spans.clear();
        loop {
            // Skip blank separator lines (permitted between inline
            // commands; never occur inside a frame because frames are
            // consumed atomically).
            while self.pos < self.filled
                && (self.buf[self.pos] == b'\r' || self.buf[self.pos] == b'\n')
            {
                self.pos += 1;
            }
            if self.pos == self.filled {
                self.compact();
                return Ok(None);
            }
            let start = self.pos;
            let b = &self.buf[start..self.filled];
            if b[0] == b'*' {
                match parse_command_spans(b, start, &mut self.spans)? {
                    None => return Ok(None),
                    Some(used) => {
                        self.pos += used;
                        if self.spans.is_empty() {
                            continue; // "*0\r\n" — nothing to run
                        }
                        return Ok(Some(CommandFrame {
                            buf: &self.buf,
                            spans: &self.spans,
                        }));
                    }
                }
            }
            // Inline command: split the line into whitespace-separated
            // token spans.
            match b.iter().position(|&c| c == b'\n') {
                None if b.len() > MAX_INLINE => return Err(proto("inline command too long")),
                None => return Ok(None),
                Some(i) => {
                    let line_end = if i > 0 && b[i - 1] == b'\r' { i - 1 } else { i };
                    let mut t = 0;
                    while t < line_end {
                        if b[t] == b' ' || b[t] == b'\t' {
                            t += 1;
                            continue;
                        }
                        let s = t;
                        while t < line_end && b[t] != b' ' && b[t] != b'\t' {
                            t += 1;
                        }
                        self.spans.push((start + s, start + t));
                    }
                    self.pos += i + 1;
                    if self.spans.is_empty() {
                        continue;
                    }
                    return Ok(Some(CommandFrame {
                        buf: &self.buf,
                        spans: &self.spans,
                    }));
                }
            }
        }
    }

    /// Next complete *command* as owned argument vectors (compatibility
    /// wrapper over [`Parser::next_command_frame`]).
    pub fn next_command(&mut self) -> Result<Option<Vec<Vec<u8>>>, RespError> {
        Ok(self.next_command_frame()?.map(|f| f.to_owned_args()))
    }

    /// Takes every buffered-but-unparsed byte out of the parser,
    /// emptying it. A replica's link uses this at the RESP→raw boundary:
    /// after the full-sync bulk, the socket switches to the raw WAL
    /// stream, and any stream bytes that rode in with the last RESP read
    /// must carry over to the raw decoder.
    pub fn take_remaining(&mut self) -> Vec<u8> {
        let out = self.buf[self.pos..self.filled].to_vec();
        self.pos = 0;
        self.filled = 0;
        out
    }

    /// Next complete *value* (the client side: server replies).
    pub fn next_value(&mut self) -> Result<Option<Value>, RespError> {
        match parse_value(&self.buf[self.pos..self.filled])? {
            None => {
                self.compact();
                Ok(None)
            }
            Some((v, used)) => {
                self.pos += used;
                self.compact();
                Ok(Some(v))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimio_des::Xoshiro256;

    fn drain_commands(p: &mut Parser) -> Vec<Vec<Vec<u8>>> {
        let mut out = Vec::new();
        while let Some(c) = p.next_command().expect("valid stream") {
            out.push(c);
        }
        out
    }

    #[test]
    fn encode_decode_basic_values() {
        for v in [
            Value::ok(),
            Value::Error("ERR boom".into()),
            Value::Int(-42),
            Value::Bulk(b"hello\r\nworld".to_vec()),
            Value::Bulk(Vec::new()),
            Value::Null,
            Value::Array(vec![Value::Int(1), Value::Bulk(b"x".to_vec()), Value::Null]),
            Value::Array(Vec::new()),
        ] {
            let mut bytes = Vec::new();
            encode(&v, &mut bytes);
            let mut p = Parser::new();
            p.feed(&bytes);
            assert_eq!(p.next_value().unwrap(), Some(v));
            assert_eq!(p.next_value().unwrap(), None);
        }
    }

    #[test]
    fn inline_commands_parse() {
        let mut p = Parser::new();
        p.feed(b"PING\r\nSET  foo\tbar\r\n\r\nGET foo\n");
        let cmds = drain_commands(&mut p);
        assert_eq!(
            cmds,
            vec![
                vec![b"PING".to_vec()],
                vec![b"SET".to_vec(), b"foo".to_vec(), b"bar".to_vec()],
                vec![b"GET".to_vec(), b"foo".to_vec()],
            ]
        );
    }

    #[test]
    fn inline_command_split_across_feeds() {
        let mut p = Parser::new();
        p.feed(b"SET fo");
        assert_eq!(p.next_command().unwrap(), None);
        p.feed(b"o bar\r");
        assert_eq!(p.next_command().unwrap(), None);
        p.feed(b"\n");
        assert_eq!(
            p.next_command().unwrap().unwrap(),
            vec![b"SET".to_vec(), b"foo".to_vec(), b"bar".to_vec()]
        );
    }

    #[test]
    fn empty_bulk_string_roundtrips() {
        let cmd = vec![b"SET".to_vec(), b"k".to_vec(), Vec::new()];
        let mut bytes = Vec::new();
        encode_command(&cmd, &mut bytes);
        assert_eq!(bytes, b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$0\r\n\r\n");
        let mut p = Parser::new();
        p.feed(&bytes);
        assert_eq!(p.next_command().unwrap().unwrap(), cmd);
    }

    #[test]
    fn protocol_errors_are_reported() {
        let mut p = Parser::new();
        p.feed(b"*1\r\n:5\r\n"); // integers are not command arguments
        assert!(p.next_command().is_err());

        let mut p = Parser::new();
        p.feed(b"$5\r\nhello!x"); // bad terminator
        assert!(p.next_value().is_err());

        let mut p = Parser::new();
        p.feed(b"?what\r\n");
        assert!(p.next_value().is_err());
    }

    fn random_command(rng: &mut Xoshiro256, big: bool) -> Vec<Vec<u8>> {
        let nargs = 1 + rng.gen_range(4) as usize;
        (0..nargs)
            .map(|i| {
                let len = if big && i == nargs - 1 {
                    65_536 + rng.gen_range(8192) as usize // > 64 KiB
                } else {
                    [0usize, 1, 2, 7, 17, 64][rng.gen_range(6) as usize]
                };
                // Arbitrary binary content, deliberately including CR, LF,
                // '*', and '$' so framing cannot rely on payload bytes.
                (0..len).map(|_| rng.gen_range(256) as u8).collect()
            })
            .collect()
    }

    /// Satellite property test, part 1: random command arrays (binary-safe
    /// bulk strings, empty included) encode→decode identically, and the
    /// incremental parser yields the same result across *every* split
    /// point of the byte stream.
    #[test]
    fn command_roundtrip_across_all_split_points() {
        let mut rng = Xoshiro256::new(0xC0FFEE);
        for _ in 0..8 {
            let cmds: Vec<_> = (0..2).map(|_| random_command(&mut rng, false)).collect();
            let mut stream = Vec::new();
            for c in &cmds {
                encode_command(c, &mut stream);
            }
            for split in 0..=stream.len() {
                let mut p = Parser::new();
                p.feed(&stream[..split]);
                let mut got = drain_commands(&mut p);
                p.feed(&stream[split..]);
                got.extend(drain_commands(&mut p));
                assert_eq!(got, cmds, "split at {split}");
            }
        }
    }

    /// Satellite property test, part 2: >64 KiB values. Exhaustive splits
    /// would be O(n²) here, so check every frame-boundary-adjacent split
    /// plus a uniform sample, and chunked feeding at several chunk sizes.
    #[test]
    fn large_bulk_roundtrip_sampled_splits() {
        let mut rng = Xoshiro256::new(99);
        let cmds: Vec<_> = (0..2).map(|_| random_command(&mut rng, true)).collect();
        let mut stream = Vec::new();
        let mut boundaries = vec![0usize];
        for c in &cmds {
            encode_command(c, &mut stream);
            boundaries.push(stream.len());
        }
        let mut splits: Vec<usize> = Vec::new();
        for &b in &boundaries {
            for d in -2i64..=2 {
                let s = b as i64 + d;
                if (0..=stream.len() as i64).contains(&s) {
                    splits.push(s as usize);
                }
            }
        }
        for _ in 0..64 {
            splits.push(rng.gen_range(stream.len() as u64 + 1) as usize);
        }
        for split in splits {
            let mut p = Parser::new();
            p.feed(&stream[..split]);
            let mut got = drain_commands(&mut p);
            p.feed(&stream[split..]);
            got.extend(drain_commands(&mut p));
            assert_eq!(got, cmds, "split at {split}");
        }
        for chunk in [1usize, 7, 1024, 65_536] {
            let mut p = Parser::new();
            let mut got = Vec::new();
            for piece in stream.chunks(chunk) {
                p.feed(piece);
                got.extend(drain_commands(&mut p));
            }
            assert_eq!(got, cmds, "chunk size {chunk}");
        }
    }

    fn random_value(rng: &mut Xoshiro256, depth: usize) -> Value {
        match rng.gen_range(if depth == 0 { 5 } else { 6 }) {
            0 => Value::Simple(format!("s{}", rng.gen_range(1000))),
            1 => Value::Error(format!("ERR e{}", rng.gen_range(1000))),
            2 => Value::Int(rng.gen_range(u64::MAX) as i64),
            3 => {
                let len = [0usize, 3, 300][rng.gen_range(3) as usize];
                Value::Bulk((0..len).map(|_| rng.gen_range(256) as u8).collect())
            }
            4 => Value::Null,
            _ => {
                let n = rng.gen_range(4) as usize;
                Value::Array((0..n).map(|_| random_value(rng, depth - 1)).collect())
            }
        }
    }

    #[test]
    fn value_roundtrip_across_split_points() {
        let mut rng = Xoshiro256::new(7);
        for _ in 0..16 {
            let vals: Vec<_> = (0..3).map(|_| random_value(&mut rng, 2)).collect();
            let mut stream = Vec::new();
            for v in &vals {
                encode(v, &mut stream);
            }
            for split in 0..=stream.len() {
                let mut p = Parser::new();
                p.feed(&stream[..split]);
                let mut got = Vec::new();
                while let Some(v) = p.next_value().unwrap() {
                    got.push(v);
                }
                p.feed(&stream[split..]);
                while let Some(v) = p.next_value().unwrap() {
                    got.push(v);
                }
                assert_eq!(got, vals, "split at {split}");
            }
        }
    }
}
