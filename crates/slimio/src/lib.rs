//! **SlimIO** — a lightweight I/O path with write isolation for FDP-backed
//! in-memory databases.
//!
//! This crate is the paper's contribution (§4): instead of sending WAL and
//! snapshot traffic through the kernel file-system path, the database
//! writes raw LBA ranges through per-path io_uring passthru rings, tagging
//! each stream with an FDP Placement ID so the SSD never mixes lifetimes.
//!
//! Components, mapping 1:1 onto the design sections:
//!
//! * **Snapshot–WAL separation via I/O passthru** (§4.1):
//!   [`PassthruBackend`] owns a *WAL-Path* ring (used by the main process;
//!   completions handled on demand) and a *Snapshot-Path* ring (SQPOLL
//!   mode — a kernel-thread emulation polls the SQ, so the snapshot
//!   process submits without any syscall). Redis's logging policy and
//!   snapshot format are preserved unchanged — this crate plugs into the
//!   `slimio-imdb` engine through the same [`PersistBackend`] seam the
//!   baseline file backend uses.
//! * **LBA space management** (§4.2): [`layout::Layout`] partitions the
//!   device into a Metadata Region, a WAL Region (a circular byte log,
//!   [`wal_log::WalLog`]), and a Snapshot Region of three slots managed by
//!   [`slots::SlotTable`] — WAL-Snapshot, On-Demand-Snapshot, and a
//!   Reserve slot. New snapshots always land in the Reserve slot; commit
//!   promotes it and demotes the superseded slot to Reserve.
//! * **Crash consistency** (§4.2): [`metadata::MetaRecord`] is written
//!   alternately to two metadata pages with an epoch and CRC; recovery
//!   loads the newest valid record ([`metadata::pick_newest`]), so
//!   a crash at *any* point leaves either the old or the new state fully
//!   intact — never a mix.
//! * **Recovery** (§4.2, Table 5): [`PassthruBackend::recover_at`] reads
//!   the metadata pages, then scans the WAL region once from the tail to
//!   the durable head with large batched passthru reads (no per-`read()`
//!   syscall, no page cache); the scanned bytes feed the engine's replay,
//!   and the committed snapshot streams back through the same reader.
//! * **FDP placement** (§4.3): every write carries its stream's PID
//!   ([`pids`]), so WAL generations, WAL-snapshots, and on-demand
//!   snapshots occupy disjoint Reclaim Units and deallocations free whole
//!   RUs — WAF 1.00.

#![warn(missing_docs)]

pub mod backend;
pub mod layout;
pub mod metadata;
pub mod slots;
pub mod wal_log;

pub use backend::PassthruBackend;
pub use layout::Layout;
pub use slimio_imdb::backend::PersistBackend;

/// FDP Placement ID assignment (§4.3): data with different lifetimes gets
/// different PIDs so the device groups it into distinct Reclaim Units.
pub mod pids {
    use slimio_ftl::Pid;

    /// Metadata region writes (tiny, overwritten in place).
    pub const META: Pid = 0;
    /// WAL appends — the shortest-lived stream.
    pub const WAL: Pid = 1;
    /// WAL-snapshots — invalidated by the next WAL-snapshot.
    pub const WAL_SNAPSHOT: Pid = 2;
    /// On-demand snapshots — long-lived backups.
    pub const ON_DEMAND: Pid = 3;

    /// The placement streams one backend instance writes with.
    ///
    /// A sharded write path runs one [`crate::PassthruBackend`] per shard;
    /// each shard's three data streams (WAL, WAL-snapshot, on-demand) get
    /// their own PIDs so no two shards ever share a Reclaim Unit — the
    /// paper's WAL-vs-snapshot isolation extended to WAL-vs-WAL. The
    /// metadata stream stays shared: its pages fully invalidate on every
    /// meta commit, so mixing shards there cannot create GC copy traffic.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct PidSet {
        /// Metadata region writes.
        pub meta: Pid,
        /// WAL appends.
        pub wal: Pid,
        /// WAL-snapshot writes.
        pub wal_snapshot: Pid,
        /// On-demand snapshot writes.
        pub on_demand: Pid,
    }

    impl PidSet {
        /// The PIDs for writer shard `shard`. Shard 0 gets exactly the
        /// classic [`META`]/[`WAL`]/[`WAL_SNAPSHOT`]/[`ON_DEMAND`]
        /// assignment, so the single-shard device traffic is unchanged.
        pub fn for_shard(shard: usize) -> PidSet {
            let base = 3 * shard as Pid;
            PidSet {
                meta: META,
                wal: WAL + base,
                wal_snapshot: WAL_SNAPSHOT + base,
                on_demand: ON_DEMAND + base,
            }
        }

        /// PIDs a device must support for `shards` writer shards.
        pub fn device_pids(shards: usize) -> u8 {
            (1 + 3 * shards as u16).max(8).min(u8::MAX as u16) as u8
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn shard0_matches_classic_constants() {
            let p = PidSet::for_shard(0);
            assert_eq!((p.meta, p.wal, p.wal_snapshot, p.on_demand), (0, 1, 2, 3));
        }

        #[test]
        fn shards_never_share_data_pids() {
            let mut seen = std::collections::HashSet::new();
            for s in 0..8 {
                let p = PidSet::for_shard(s);
                for pid in [p.wal, p.wal_snapshot, p.on_demand] {
                    assert!(seen.insert(pid), "pid {pid} reused by shard {s}");
                    assert_ne!(pid, META);
                }
            }
            assert!(PidSet::device_pids(4) >= 13);
            assert_eq!(PidSet::device_pids(1), 8);
        }
    }
}
