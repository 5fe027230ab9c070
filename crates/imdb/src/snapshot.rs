//! The snapshot "child process": a frozen view serialized incrementally.
//!
//! Redis `fork()`s so the child sees a copy-on-write image of the keyspace
//! while the parent keeps serving queries (§2.2). In-process, the fork is
//! emulated at entry granularity: [`SnapshotJob::freeze`] captures an
//! `Arc`-shared entry list (the analogue of duplicating page tables —
//! cheap, O(entries) pointer copies), and subsequent overwrites in the
//! live map allocate fresh `Arc`s, leaving the job's view intact — exactly
//! CoW's semantics, with the memory-growth accounting handled by the
//! engine.

use std::sync::Arc;

use crate::backend::SnapshotKind;
use crate::rdb::RdbWriter;

/// A frozen (key, value) view sharing storage with the live keyspace.
type FrozenEntries = Vec<(Arc<[u8]>, Arc<[u8]>)>;

/// Result of one [`SnapshotJob::step_each`] call.
#[derive(Clone, Copy, Debug)]
pub struct StepStats {
    /// True once the stream (including trailer) is fully produced.
    pub finished: bool,
    /// Raw bytes serialized during this step (drives CPU-time charging in
    /// the system model: compression cost is proportional to input).
    pub raw_bytes: u64,
}

/// An in-progress snapshot.
pub struct SnapshotJob {
    kind: SnapshotKind,
    entries: FrozenEntries,
    cursor: usize,
    writer: RdbWriter,
    finished: bool,
    /// Reused chunk buffer handed to `step_each`'s `emit`.
    chunk: Vec<u8>,
}

impl SnapshotJob {
    /// Freezes a view of the keyspace ("fork") and prepares the writer.
    pub fn freeze<'a, I>(kind: SnapshotKind, live: I, chunk_size: usize) -> Self
    where
        I: Iterator<Item = (&'a Arc<[u8]>, &'a Arc<[u8]>)>,
    {
        let entries: FrozenEntries = live.map(|(k, v)| (Arc::clone(k), Arc::clone(v))).collect();
        let writer = RdbWriter::new(entries.len() as u64, chunk_size);
        SnapshotJob {
            kind,
            entries,
            cursor: 0,
            writer,
            finished: false,
            chunk: Vec::new(),
        }
    }

    /// Which snapshot this job produces.
    pub fn kind(&self) -> SnapshotKind {
        self.kind
    }

    /// Total entries in the frozen view.
    pub fn total_entries(&self) -> usize {
        self.entries.len()
    }

    /// Serializes up to `max_entries` further entries, compressing values
    /// and handing each full chunk to `emit` from a buffer owned (and
    /// reused) by the job. An `Err` from `emit` aborts the step
    /// immediately. Returns whether the stream (trailer included) is
    /// complete.
    pub fn step_each<E>(
        &mut self,
        max_entries: usize,
        emit: &mut dyn FnMut(&[u8]) -> Result<(), E>,
    ) -> Result<StepStats, E> {
        if self.finished {
            return Ok(StepStats {
                finished: true,
                raw_bytes: 0,
            });
        }
        let end = (self.cursor + max_entries).min(self.entries.len());
        let before_raw = self.writer.raw_bytes();
        while self.cursor < end {
            let (k, v) = &self.entries[self.cursor];
            self.writer.entry(k, v);
            self.cursor += 1;
            while self.writer.drain_chunk_into(false, &mut self.chunk) {
                emit(&self.chunk)?;
            }
        }
        let raw_bytes = self.writer.raw_bytes() - before_raw;
        if self.cursor == self.entries.len() {
            self.writer.finish();
            while self.writer.drain_chunk_into(true, &mut self.chunk) {
                emit(&self.chunk)?;
            }
            self.finished = true;
        }
        Ok(StepStats {
            finished: self.finished,
            raw_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rdb;
    use std::collections::HashMap;
    use std::convert::Infallible;

    fn sample_map(n: usize) -> HashMap<Arc<[u8]>, Arc<[u8]>> {
        (0..n)
            .map(|i| {
                let k: Arc<[u8]> = format!("key-{i:04}").into_bytes().into();
                let v: Arc<[u8]> = format!("value-{i}-").repeat(20).into_bytes().into();
                (k, v)
            })
            .collect()
    }

    /// One step; the chunks it emitted are appended to `stream`.
    fn step(job: &mut SnapshotJob, max_entries: usize, stream: &mut Vec<u8>) -> StepStats {
        let mut emit = |c: &[u8]| {
            stream.extend_from_slice(c);
            Ok::<(), Infallible>(())
        };
        let Ok(stats) = job.step_each(max_entries, &mut emit);
        stats
    }

    /// Steps `job` to its end, `max_entries` at a time; returns the stream.
    fn run(job: &mut SnapshotJob, max_entries: usize) -> Vec<u8> {
        let mut stream = Vec::new();
        while !step(job, max_entries, &mut stream).finished {}
        stream
    }

    #[test]
    fn full_serialization_roundtrips() {
        let map = sample_map(100);
        let mut job = SnapshotJob::freeze(SnapshotKind::OnDemand, map.iter(), 1024);
        assert_eq!(job.total_entries(), 100);
        let stream = run(&mut job, 7);
        let entries = rdb::read_all(&stream).unwrap();
        assert_eq!(entries.len(), 100);
        for (k, v) in entries {
            let found = map.get(k.as_slice()).expect("key present");
            assert_eq!(&v[..], &found[..]);
        }
    }

    #[test]
    fn view_is_immune_to_later_mutation() {
        let mut map = sample_map(10);
        let some_key = Arc::clone(map.keys().next().unwrap());
        let mut job = SnapshotJob::freeze(SnapshotKind::OnDemand, map.iter(), 64);
        // Mutate the live map after the freeze.
        map.insert(some_key, Arc::from(&b"OVERWRITTEN"[..]));
        map.clear();
        // The job still serializes the original 10 entries.
        let entries = rdb::read_all(&run(&mut job, 100)).unwrap();
        assert_eq!(entries.len(), 10);
        assert!(entries.iter().all(|(_, v)| v != b"OVERWRITTEN"));
    }

    #[test]
    fn step_reports_raw_bytes_for_cpu_charging() {
        let map = sample_map(8);
        let mut job = SnapshotJob::freeze(SnapshotKind::WalSnapshot, map.iter(), 1 << 20);
        let s = step(&mut job, 4, &mut Vec::new());
        assert!(s.raw_bytes > 0);
        assert!(!s.finished);
    }

    #[test]
    fn empty_keyspace_still_produces_valid_stream() {
        let map = sample_map(0);
        let mut job = SnapshotJob::freeze(SnapshotKind::OnDemand, map.iter(), 64);
        let mut stream = Vec::new();
        assert!(step(&mut job, 10, &mut stream).finished);
        assert_eq!(rdb::read_all(&stream).unwrap(), vec![]);
    }

    #[test]
    fn stepping_after_finish_is_idempotent() {
        let map = sample_map(3);
        let mut job = SnapshotJob::freeze(SnapshotKind::OnDemand, map.iter(), 64);
        run(&mut job, 10);
        let mut after = Vec::new();
        let s = step(&mut job, 10, &mut after);
        assert!(s.finished);
        assert_eq!(s.raw_bytes, 0);
        assert!(after.is_empty());
    }
}
