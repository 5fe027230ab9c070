//! Randomized tests for the on-media codecs: LZF compression, WAL records,
//! and RDB snapshot streams. These are the formats crash recovery depends
//! on, so the invariants are strict: lossless roundtrips for arbitrary
//! byte strings, graceful rejection of truncation and corruption, and
//! prefix-stability of WAL replay. Inputs come from the workspace's
//! deterministic PRNG so every case reproduces from its seed.

use slimio_des::Xoshiro256;
use slimio_imdb::compress;
use slimio_imdb::rdb::{self, RdbWriter};
use slimio_imdb::wal::{self, WalRecord};

fn random_bytes(rng: &mut Xoshiro256, max_len: u64) -> Vec<u8> {
    let len = rng.gen_range(max_len + 1) as usize;
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

#[test]
fn lzf_roundtrips_arbitrary_bytes() {
    let mut rng = Xoshiro256::new(0x12F_0001);
    for _case in 0..128 {
        let data = random_bytes(&mut rng, 8191);
        let c = compress::compress(&data);
        let d = compress::decompress(&c, data.len()).unwrap();
        assert_eq!(d, data);
    }
}

#[test]
fn lzf_roundtrips_compressible_bytes() {
    let mut rng = Xoshiro256::new(0x12F_0002);
    for _case in 0..128 {
        let seed_len = 1 + rng.gen_range(31) as usize;
        let seed: Vec<u8> = (0..seed_len).map(|_| rng.next_u64() as u8).collect();
        let reps = 1 + rng.gen_range(199) as usize;
        let data: Vec<u8> = seed
            .iter()
            .cycle()
            .take(seed.len() * reps)
            .copied()
            .collect();
        let c = compress::compress(&data);
        let d = compress::decompress(&c, data.len()).unwrap();
        assert_eq!(d, data);
        // Highly repetitive input must actually compress once nontrivial.
        if data.len() > 256 {
            assert!(c.len() < data.len());
        }
    }
}

#[test]
fn lzf_decompress_never_panics_on_garbage() {
    let mut rng = Xoshiro256::new(0x12F_0003);
    for _case in 0..128 {
        let garbage = random_bytes(&mut rng, 2047);
        let claimed_len = rng.gen_range(4096) as usize;
        // Any outcome is fine except a panic or an over-long output.
        if let Ok(out) = compress::decompress(&garbage, claimed_len) {
            assert!(out.len() <= claimed_len);
        }
    }
}

/// The borrowed decoder is the owned decoder: same fields and length, or
/// the same error.
fn assert_decoders_agree(buf: &[u8]) {
    match (wal::decode_ref(buf), wal::decode(buf)) {
        (Ok((r, used_ref)), Ok((o, used))) => {
            assert_eq!(used_ref, used);
            let (seq, key, value) = match &o {
                WalRecord::Set { seq, key, value } => (*seq, key, Some(value.as_slice())),
                WalRecord::Del { seq, key } => (*seq, key, None),
            };
            assert_eq!((r.seq, r.key, r.value), (seq, key.as_slice(), value));
        }
        (Err(a), Err(b)) => assert_eq!(a, b),
        (a, b) => panic!("decoders disagree: {a:?} vs {b:?}"),
    }
}

#[test]
fn wal_record_roundtrip() {
    let mut rng = Xoshiro256::new(0x12F_0004);
    for _case in 0..128 {
        let seq = rng.next_u64();
        let key = random_bytes(&mut rng, 127);
        let value = random_bytes(&mut rng, 4095);
        let rec = if rng.gen_range(2) == 0 {
            WalRecord::Del { seq, key }
        } else {
            WalRecord::Set { seq, key, value }
        };
        let mut buf = Vec::new();
        wal::encode(&rec, &mut buf);
        let (decoded, used) = wal::decode(&buf).unwrap();
        assert_eq!(decoded, rec);
        assert_eq!(used, buf.len());
        // Both decoders, at every truncation point and under every
        // single-bit flip (quadratic in the record, so on the shorter ones).
        for cut in 0..=buf.len() {
            assert_decoders_agree(&buf[..cut]);
        }
        if buf.len() <= 1024 {
            for bit in 0..buf.len() * 8 {
                buf[bit / 8] ^= 1 << (bit % 8);
                assert_decoders_agree(&buf);
                buf[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }
}

#[test]
fn wal_replay_of_any_prefix_is_a_record_prefix() {
    let mut rng = Xoshiro256::new(0x12F_0005);
    for _case in 0..128 {
        let n = 1 + rng.gen_range(19) as usize;
        let mut buf = Vec::new();
        for _ in 0..n {
            let rec = WalRecord::Set {
                seq: rng.next_u64(),
                key: random_bytes(&mut rng, 31),
                value: random_bytes(&mut rng, 255),
            };
            wal::encode(&rec, &mut buf);
        }
        let cut_ppm = rng.gen_range(1_000_000);
        let cut = (buf.len() as u64 * cut_ppm / 1_000_000) as usize;
        let replayed = wal::replay(&buf[..cut]);
        // A truncated log replays to a strict prefix of the full replay.
        let full = wal::replay(&buf);
        assert!(replayed.len() <= full.len());
        assert_eq!(&full[..replayed.len()], replayed.as_slice());
    }
}

#[test]
fn wal_single_bitflip_never_yields_wrong_record() {
    let mut rng = Xoshiro256::new(0x12F_0006);
    for _case in 0..128 {
        let key = {
            let mut k = random_bytes(&mut rng, 62);
            k.push(7); // 1..64 bytes
            k
        };
        let value = {
            let mut v = random_bytes(&mut rng, 510);
            v.push(9); // 1..512 bytes
            v
        };
        let rec = WalRecord::Set { seq: 7, key, value };
        let mut buf = Vec::new();
        wal::encode(&rec, &mut buf);
        let flip_bit = rng.next_u64() as u16;
        let pos = (flip_bit as usize / 8) % buf.len();
        let bit = flip_bit % 8;
        buf[pos] ^= 1 << bit;
        // Decoding may fail (expected) or, if the flip hit the length
        // prefix making the record appear truncated, report Truncated —
        // but it must never return a *different* record as valid.
        if let Ok((decoded, _)) = wal::decode(&buf) {
            assert_eq!(decoded, rec);
        }
    }
}

#[test]
fn rdb_roundtrips_arbitrary_entries() {
    let mut rng = Xoshiro256::new(0x12F_0007);
    for _case in 0..64 {
        let n = rng.gen_range(40) as usize;
        let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..n)
            .map(|_| (random_bytes(&mut rng, 63), random_bytes(&mut rng, 2047)))
            .collect();
        let chunk = 64 + rng.gen_range(8128) as usize;
        let mut w = RdbWriter::new(entries.len() as u64, chunk);
        let mut stream = Vec::new();
        for (k, v) in &entries {
            w.entry(k, v);
            while let Some(c) = w.drain_chunk(false) {
                stream.extend_from_slice(&c);
            }
        }
        w.finish();
        while let Some(c) = w.drain_chunk(true) {
            stream.extend_from_slice(&c);
        }
        let out = rdb::read_all(&stream).unwrap();
        assert_eq!(out.len(), entries.len());
        for ((k, v), (ek, ev)) in out.iter().zip(&entries) {
            assert_eq!(k, ek);
            assert_eq!(v, ev);
        }
    }
}

#[test]
fn rdb_detects_any_single_corruption() {
    let mut rng = Xoshiro256::new(0x12F_0008);
    for _case in 0..64 {
        let n = 1 + rng.gen_range(9) as usize;
        let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..n)
            .map(|_| {
                let mut k = random_bytes(&mut rng, 14);
                k.push(1); // 1..16 bytes
                let mut v = random_bytes(&mut rng, 126);
                v.push(2); // 1..128 bytes
                (k, v)
            })
            .collect();
        let mut w = RdbWriter::new(entries.len() as u64, 1 << 20);
        for (k, v) in &entries {
            w.entry(k, v);
        }
        w.finish();
        let mut stream = Vec::new();
        while let Some(c) = w.drain_chunk(true) {
            stream.extend_from_slice(&c);
        }
        let flip = rng.next_u64() as u32;
        let pos = (flip as usize / 8) % stream.len();
        stream[pos] ^= 1 << (flip % 8);
        assert!(
            rdb::read_all(&stream).is_err(),
            "corruption at byte {pos} undetected"
        );
    }
}
