//! LBA space partitioning (§4.2).
//!
//! Bypassing the file system means SlimIO must manage the LBA space
//! itself. Fortunately IMDB persistence is sequential, so a static
//! partition suffices:
//!
//! ```text
//! ┌──────────┬──────────────────────────┬────────┬────────┬────────┐
//! │ Metadata │        WAL Region        │ Slot 0 │ Slot 1 │ Slot 2 │
//! │ (2 LBAs) │     (circular log)       │        │        │        │
//! └──────────┴──────────────────────────┴────────┴────────┴────────┘
//! ```
//!
//! The three equally-sized snapshot slots rotate between the roles
//! WAL-Snapshot / On-Demand / Reserve (see [`crate::slots`]).

use slimio_nvme::LBA_BYTES;

/// Number of metadata LBAs (two alternating pages, see
/// [`crate::metadata::pick_newest`]).
pub const META_LBAS: u64 = 2;

/// Fraction of a device (or shard slice) given to the WAL region: 40 %
/// WAL, 3 × 20 % slots. The paper's workloads rotate the WAL at 50–55 GB
/// on a 180 GB device, and each snapshot is ~20 GB, so slots comfortably
/// hold one snapshot each.
pub const WAL_FRAC: f64 = 0.40;

/// The static partition of the device's logical space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Layout {
    /// First LBA of the metadata region (0 for a whole-device layout;
    /// the sub-range base for a shard layout).
    pub meta_lba: u64,
    /// First LBA of the WAL region.
    pub wal_lba: u64,
    /// WAL region size in LBAs.
    pub wal_lbas: u64,
    /// First LBA of the snapshot region (slot 0).
    pub slots_lba: u64,
    /// Size of each of the three slots, in LBAs.
    pub slot_lbas: u64,
}

impl Layout {
    /// Partitions a device of `capacity_lbas`: metadata, then `wal_frac`
    /// of the remainder for the WAL region, then three equal slots.
    ///
    /// # Panics
    /// Panics if the device is too small to hold a meaningful layout
    /// (< 32 LBAs) or `wal_frac` is not within (0, 1).
    pub fn partition(capacity_lbas: u64, wal_frac: f64) -> Layout {
        Layout::partition_at(0, capacity_lbas, wal_frac)
    }

    /// Like [`Layout::partition`], but laid out inside the LBA range
    /// `[base_lba, base_lba + capacity_lbas)`. A sharded write path gives
    /// every shard its own self-similar sub-layout (metadata, WAL region,
    /// three slots) carved from a disjoint slice of the device.
    pub fn partition_at(base_lba: u64, capacity_lbas: u64, wal_frac: f64) -> Layout {
        assert!(
            capacity_lbas >= 32,
            "device too small: {capacity_lbas} LBAs"
        );
        assert!(
            wal_frac > 0.0 && wal_frac < 1.0,
            "wal_frac must be in (0,1), got {wal_frac}"
        );
        let usable = capacity_lbas - META_LBAS;
        let wal_lbas = ((usable as f64 * wal_frac) as u64).max(8);
        let slot_lbas = (usable - wal_lbas) / 3;
        assert!(slot_lbas >= 2, "slots too small; shrink wal_frac");
        Layout {
            meta_lba: base_lba,
            wal_lba: base_lba + META_LBAS,
            wal_lbas,
            slots_lba: base_lba + META_LBAS + wal_lbas,
            slot_lbas,
        }
    }

    /// The default [`WAL_FRAC`] split of a whole device.
    pub fn default_for(capacity_lbas: u64) -> Layout {
        Layout::partition(capacity_lbas, WAL_FRAC)
    }

    /// First LBA of slot `i` (0..3).
    pub fn slot_lba(&self, i: usize) -> u64 {
        debug_assert!(i < 3);
        self.slots_lba + i as u64 * self.slot_lbas
    }

    /// Capacity of one slot in bytes.
    pub fn slot_bytes(&self) -> u64 {
        self.slot_lbas * LBA_BYTES as u64
    }

    /// Capacity of the WAL region in bytes.
    pub fn wal_bytes(&self) -> u64 {
        self.wal_lbas * LBA_BYTES as u64
    }

    /// Total LBAs covered by the layout.
    pub fn end_lba(&self) -> u64 {
        self.slot_lba(2) + self.slot_lbas
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_device_without_overlap() {
        let l = Layout::default_for(10_000);
        assert_eq!(l.meta_lba, 0);
        assert_eq!(l.wal_lba, META_LBAS);
        assert_eq!(l.slots_lba, l.wal_lba + l.wal_lbas);
        assert_eq!(l.slot_lba(1), l.slot_lba(0) + l.slot_lbas);
        assert_eq!(l.slot_lba(2), l.slot_lba(1) + l.slot_lbas);
        assert!(l.end_lba() <= 10_000);
        // At most 2 LBAs of rounding slack.
        assert!(10_000 - l.end_lba() <= 4);
    }

    #[test]
    fn wal_fraction_respected() {
        let l = Layout::partition(100_000, 0.5);
        let frac = l.wal_lbas as f64 / 100_000.0;
        assert!((frac - 0.5).abs() < 0.01);
    }

    #[test]
    fn byte_accessors() {
        let l = Layout::partition(1_000, 0.4);
        assert_eq!(l.wal_bytes(), l.wal_lbas * 4096);
        assert_eq!(l.slot_bytes(), l.slot_lbas * 4096);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_device_rejected() {
        Layout::partition(16, 0.4);
    }

    #[test]
    #[should_panic(expected = "wal_frac")]
    fn bad_fraction_rejected() {
        Layout::partition(1_000, 1.5);
    }

    #[test]
    fn partition_at_offsets_every_region() {
        let base = Layout::partition(10_000, 0.4);
        let offset = Layout::partition_at(50_000, 10_000, 0.4);
        assert_eq!(offset.meta_lba, 50_000);
        assert_eq!(offset.wal_lba, base.wal_lba + 50_000);
        assert_eq!(offset.slots_lba, base.slots_lba + 50_000);
        assert_eq!(offset.wal_lbas, base.wal_lbas);
        assert_eq!(offset.slot_lbas, base.slot_lbas);
        assert_eq!(offset.end_lba(), base.end_lba() + 50_000);
        // Adjacent shard sub-ranges never overlap.
        let a = Layout::partition_at(0, 5_000, 0.4);
        let b = Layout::partition_at(5_000, 5_000, 0.4);
        assert!(a.end_lba() <= 5_000);
        assert!(b.meta_lba >= 5_000);
    }

    #[test]
    fn paper_scale_layout() {
        // 180 GB device → 45M 4 KiB LBAs.
        let capacity = 180u64 * 1_000_000_000 / 4096;
        let l = Layout::default_for(capacity);
        // Slots must hold a 20 GB snapshot.
        assert!(l.slot_bytes() > 20_000_000_000);
        // WAL region must hold the 50–55 GB rotation threshold.
        assert!(l.wal_bytes() > 55_000_000_000);
    }
}
