//! Write-Ahead Log records and the user-level WAL buffer.
//!
//! Redis appends every write command to the AOF through a user-space
//! buffer; SlimIO preserves this logging policy unchanged (§4.1). The
//! record format here is binary RESP-equivalent:
//!
//! ```text
//! ┌─────────┬─────────┬────┬────────┬─────┬────────┬───────┬─────────┐
//! │ len:u32 │ seq:u64 │ op │klen:u32│ key │vlen:u32│ value │ crc:u32 │
//! └─────────┴─────────┴────┴────────┴─────┴────────┴───────┴─────────┘
//! ```
//!
//! `len` covers everything after itself. The CRC covers `seq..value`, so a
//! torn tail record (crash mid-append) fails its checksum and replay stops
//! cleanly at the last durable record.

use crate::crc::crc32;

/// A single logged write command.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// `SET key value`.
    Set {
        /// Monotonic sequence number.
        seq: u64,
        /// Key bytes.
        key: Vec<u8>,
        /// Value bytes.
        value: Vec<u8>,
    },
    /// `DEL key`.
    Del {
        /// Monotonic sequence number.
        seq: u64,
        /// Key bytes.
        key: Vec<u8>,
    },
}

impl WalRecord {
    /// The record's sequence number.
    pub fn seq(&self) -> u64 {
        match self {
            WalRecord::Set { seq, .. } | WalRecord::Del { seq, .. } => *seq,
        }
    }
}

const OP_SET: u8 = 1;
const OP_DEL: u8 = 2;

/// Serializes a `SET` directly from borrowed key/value bytes, appending to
/// `out`. Returns the encoded length. This is the engine's hot path: no
/// owned [`WalRecord`] (two `Vec` clones per command) is ever built.
pub fn encode_set(seq: u64, key: &[u8], value: &[u8], out: &mut Vec<u8>) -> usize {
    encode_parts(seq, OP_SET, key, value, out)
}

/// Serializes a `DEL` directly from a borrowed key, appending to `out`.
/// Returns the encoded length.
pub fn encode_del(seq: u64, key: &[u8], out: &mut Vec<u8>) -> usize {
    encode_parts(seq, OP_DEL, key, &[], out)
}

fn encode_parts(seq: u64, op: u8, key: &[u8], value: &[u8], out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0u8; 4]); // len placeholder
    let body_start = out.len();
    out.extend_from_slice(&seq.to_le_bytes());
    out.push(op);
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(&(value.len() as u32).to_le_bytes());
    out.extend_from_slice(value);
    let crc = crc32(&out[body_start..]);
    out.extend_from_slice(&crc.to_le_bytes());
    let len = (out.len() - body_start) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out.len() - start
}

/// Serializes a record, appending to `out`. Returns the encoded length.
pub fn encode(rec: &WalRecord, out: &mut Vec<u8>) -> usize {
    match rec {
        WalRecord::Set { seq, key, value } => encode_set(*seq, key, value, out),
        WalRecord::Del { seq, key } => encode_del(*seq, key, out),
    }
}

/// Decode errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalDecodeError {
    /// Fewer bytes than a full record header.
    Truncated,
    /// CRC mismatch (torn or corrupted record).
    BadCrc,
    /// Unknown opcode.
    BadOp(u8),
    /// Lengths inconsistent with the framing.
    BadFraming,
}

/// A record decoded in place: `key` and `value` borrow the log bytes, so
/// recovery applies a record without building an owned [`WalRecord`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalRecordRef<'a> {
    /// Monotonic sequence number.
    pub seq: u64,
    /// Key bytes.
    pub key: &'a [u8],
    /// `Some(value)` for a `SET`, `None` for a `DEL`.
    pub value: Option<&'a [u8]>,
}

impl WalRecordRef<'_> {
    /// Copies the record out of the log.
    pub fn to_owned(self) -> WalRecord {
        let (seq, key) = (self.seq, self.key.to_vec());
        match self.value.map(<[u8]>::to_vec) {
            Some(value) => WalRecord::Set { seq, key, value },
            None => WalRecord::Del { seq, key },
        }
    }
}

/// Decodes one record from the front of `buf` without copying it.
/// Returns the record and the bytes consumed.
pub fn decode_ref(buf: &[u8]) -> Result<(WalRecordRef<'_>, usize), WalDecodeError> {
    if buf.len() < 4 {
        return Err(WalDecodeError::Truncated);
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
    // No record is shorter than its fixed fields: such a length is garbage
    // (deallocated LBAs read as zeroes), not a record still arriving.
    if len < 8 + 1 + 4 + 4 + 4 {
        return Err(WalDecodeError::BadFraming);
    }
    if buf.len() < 4 + len {
        return Err(WalDecodeError::Truncated);
    }
    let body = &buf[4..4 + len - 4];
    let crc_stored = u32::from_le_bytes(buf[4 + len - 4..4 + len].try_into().unwrap());
    if crc32(body) != crc_stored {
        return Err(WalDecodeError::BadCrc);
    }
    let seq = u64::from_le_bytes(body[0..8].try_into().unwrap());
    let op = body[8];
    let klen = u32::from_le_bytes(body[9..13].try_into().unwrap()) as usize;
    if 13 + klen + 4 > body.len() {
        return Err(WalDecodeError::BadFraming);
    }
    let key = &body[13..13 + klen];
    let vlen = u32::from_le_bytes(body[13 + klen..13 + klen + 4].try_into().unwrap()) as usize;
    if 13 + klen + 4 + vlen != body.len() {
        return Err(WalDecodeError::BadFraming);
    }
    let value = match op {
        OP_SET => Some(&body[13 + klen + 4..]),
        OP_DEL => None,
        other => return Err(WalDecodeError::BadOp(other)),
    };
    Ok((WalRecordRef { seq, key, value }, 4 + len))
}

/// Decodes one record from the front of `buf` into an owned [`WalRecord`].
pub fn decode(buf: &[u8]) -> Result<(WalRecord, usize), WalDecodeError> {
    decode_ref(buf).map(|(rec, used)| (rec.to_owned(), used))
}

/// Walks a WAL byte stream in place, yielding records until the bytes run
/// out or a torn/corrupt record is hit (which ends the walk, mirroring
/// Redis's truncated-AOF handling).
pub fn records(mut buf: &[u8]) -> impl Iterator<Item = WalRecordRef<'_>> {
    std::iter::from_fn(move || {
        let (rec, used) = decode_ref(buf).ok()?;
        buf = &buf[used..];
        Some(rec)
    })
}

/// [`records`], copied out into owned records.
pub fn replay(buf: &[u8]) -> Vec<WalRecord> {
    records(buf).map(WalRecordRef::to_owned).collect()
}

/// The user-level WAL buffer (Redis's `aof_buf`).
///
/// Write queries append here; the engine flushes it to the backend when
/// idle or when the policy's time threshold fires (Periodical-Log), or
/// after every command (Always-Log).
#[derive(Debug, Default)]
pub struct WalBuffer {
    buf: Vec<u8>,
}

impl WalBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a `SET` from borrowed bytes — no owned record is built.
    pub fn push_set(&mut self, seq: u64, key: &[u8], value: &[u8]) -> usize {
        encode_set(seq, key, value, &mut self.buf)
    }

    /// Appends a `DEL` from a borrowed key — no owned record is built.
    pub fn push_del(&mut self, seq: u64, key: &[u8]) -> usize {
        encode_del(seq, key, &mut self.buf)
    }

    /// The buffered bytes, for flushing without giving up the allocation.
    /// Pair with [`WalBuffer::clear`] once the flush succeeds.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Empties the buffer, keeping its allocation for the next fill.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Bytes currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(seq: u64, k: &[u8], v: &[u8]) -> WalRecord {
        WalRecord::Set {
            seq,
            key: k.to_vec(),
            value: v.to_vec(),
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        for rec in [
            set(1, b"key", b"value"),
            set(u64::MAX, b"", b""),
            WalRecord::Del {
                seq: 42,
                key: b"gone".to_vec(),
            },
            set(7, &[0u8; 1000], &[0xFFu8; 4096]),
        ] {
            let mut buf = Vec::new();
            let n = encode(&rec, &mut buf);
            assert_eq!(n, buf.len());
            let (decoded, used) = decode(&buf).unwrap();
            assert_eq!(decoded, rec);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn replay_stream_of_records() {
        let mut buf = Vec::new();
        for i in 0..100u64 {
            encode(&set(i, format!("k{i}").as_bytes(), b"v"), &mut buf);
        }
        let recs = replay(&buf);
        assert_eq!(recs.len(), 100);
        assert_eq!(recs[99].seq(), 99);
    }

    #[test]
    fn torn_tail_stops_replay_cleanly() {
        let mut buf = Vec::new();
        encode(&set(1, b"a", b"1"), &mut buf);
        encode(&set(2, b"b", b"2"), &mut buf);
        let full = buf.len();
        encode(&set(3, b"c", b"3"), &mut buf);
        // Crash mid-append of record 3: cut anywhere inside it.
        for cut in full + 1..buf.len() {
            let recs = replay(&buf[..cut]);
            assert_eq!(recs.len(), 2, "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_record_stops_replay() {
        let mut buf = Vec::new();
        encode(&set(1, b"a", b"1"), &mut buf);
        let first = buf.len();
        encode(&set(2, b"b", b"2"), &mut buf);
        buf[first + 10] ^= 0x80; // flip a bit in record 2
        let recs = replay(&buf);
        assert_eq!(recs.len(), 1);
    }

    #[test]
    fn decode_rejects_bad_op() {
        let mut buf = Vec::new();
        encode(&set(1, b"k", b"v"), &mut buf);
        // Patch the opcode and re-CRC so only the opcode is wrong.
        buf[4 + 8] = 99;
        let body_len = buf.len() - 4;
        let crc = crate::crc::crc32(&buf[4..4 + body_len - 4]);
        let at = buf.len() - 4;
        buf[at..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(decode(&buf), Err(WalDecodeError::BadOp(99)));
    }

    #[test]
    fn buffer_accumulates_and_clears() {
        let mut wb = WalBuffer::new();
        assert!(wb.is_empty());
        wb.push_set(1, b"x", b"y");
        wb.push_del(2, b"x");
        assert_eq!(wb.len(), wb.bytes().len());
        assert_eq!(replay(wb.bytes()).len(), 2);
        wb.clear();
        assert!(wb.is_empty());
    }

    #[test]
    fn decode_empty_and_short_buffers() {
        assert_eq!(decode(&[]), Err(WalDecodeError::Truncated));
        assert_eq!(decode(&[1, 2]), Err(WalDecodeError::Truncated));
    }
}
