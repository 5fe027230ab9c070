//! Epoch-published concurrent read view of the keyspace.
//!
//! The live server runs one writer thread that owns the [`crate::Db`] and
//! many connection threads that, before this module existed, had to queue
//! even read-only GETs through the writer. [`ReadView`] is a second index
//! over the same `Arc<[u8]>` keys and values that connection threads may
//! probe locally, lock-free, while the writer keeps mutating it:
//!
//! * **Structure.** The view is a set of shards, each an open-addressing
//!   table of `AtomicPtr<Entry>` slots (linear probing, tombstones on
//!   delete, doubling resize at 3/4 load). An [`Entry`] is a heap cell
//!   holding the cached hash plus `Arc` clones of the key and value, so a
//!   reader that finds a live entry clones an `Arc` — it never copies
//!   bytes and never touches the writer's `HashMap`.
//! * **Seqlock.** Each shard carries a sequence counter. The writer makes
//!   it odd around every mutation; a reader samples it before and after
//!   probing and retries on a torn window (odd, or changed). Individual
//!   slot loads are already atomic, so the seqlock's job is merely to
//!   keep multi-slot probe sequences (and table swaps) consistent; retry
//!   windows are a handful of nanoseconds.
//! * **Epoch reclamation.** Memory safety does NOT come from the seqlock:
//!   a reader may hold a raw `Entry` pointer while validating. Unlinked
//!   entries and replaced tables are therefore *retired*, tagged with the
//!   view's current reclamation epoch, and only freed once every
//!   registered reader has either unpinned or pinned a later epoch. The
//!   writer advances the epoch on every [`ViewWriter::publish`].
//! * **Publish protocol.** The writer applies a batch's mutations and
//!   then stores the engine sequence number into `published` with
//!   `Release` ordering — *after* the batch's group commit and *before*
//!   any of the batch's replies are released. A connection that has seen
//!   an ack for engine seq `s` therefore already observes
//!   `published >= s` (the ack's channel send happens-after the publish
//!   store), which is what makes [`ReadHandle::wait_published`] the
//!   read-your-writes guard rather than a blocking wait.
//!
//! The simulated DES pipeline never installs a view, so nothing in this
//! module runs in the table1–table4 suites.

use std::hash::Hasher;
use std::sync::atomic::{fence, AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

use crate::fxhash::FxHasher;

/// Shard count. Sixteen shards keep writer/reader false sharing low while
/// bounding the per-view footprint; the shard is chosen by the hash's top
/// bits so the in-shard probe (low bits) stays independent of it.
const NSHARDS: usize = 16;
/// Slots every shard starts with (must be a power of two).
const INITIAL_CAP: usize = 64;
/// Maximum concurrently registered readers; connection threads beyond
/// this fall back to routing reads through the writer.
pub const MAX_READERS: usize = 256;
/// Retired garbage accumulated before a publish triggers a collection
/// scan over the reader registry.
const COLLECT_EVERY: usize = 64;

/// One live key/value cell. Readers reach it through a raw pointer loaded
/// from a slot; the `Arc` clones inside keep the actual bytes alive
/// independently of the writer's `HashMap`.
struct Entry {
    hash: u64,
    key: Arc<[u8]>,
    val: Arc<[u8]>,
}

/// Deleted-slot sentinel. The address of a private static is never a
/// valid heap `Entry`, so readers and the writer can compare against it
/// without ever dereferencing it.
static TOMBSTONE: u8 = 0;

#[inline]
fn tombstone() -> *mut Entry {
    std::ptr::addr_of!(TOMBSTONE) as *mut Entry
}

/// Open-addressing slot array. `mask == len - 1` (power-of-two sizing).
struct Table {
    mask: usize,
    slots: Box<[AtomicPtr<Entry>]>,
}

impl Table {
    fn new(cap: usize) -> Table {
        debug_assert!(cap.is_power_of_two());
        let slots: Vec<AtomicPtr<Entry>> = (0..cap)
            .map(|_| AtomicPtr::new(std::ptr::null_mut()))
            .collect();
        Table {
            mask: cap - 1,
            slots: slots.into_boxed_slice(),
        }
    }
}

struct Shard {
    /// Seqlock word: odd while the writer is inside a mutation.
    seq: AtomicU64,
    /// Current slot array; swapped wholesale on resize.
    table: AtomicPtr<Table>,
}

struct ReaderSlot {
    claimed: AtomicBool,
    /// Reclamation epoch this reader is pinned at; `u64::MAX` = unpinned.
    pin: AtomicU64,
}

/// The shared, concurrently readable keyspace view. Created alongside its
/// single [`ViewWriter`]; readers register for a [`ReadHandle`].
pub struct ReadView {
    shards: Box<[Shard]>,
    /// Engine sequence number of the newest published batch.
    published: AtomicU64,
    /// Reclamation epoch; bumped by every publish.
    epoch: AtomicU64,
    readers: Box<[ReaderSlot]>,
}

// SAFETY: all cross-thread state is atomics; the raw `Entry`/`Table`
// pointers they hold are only dereferenced under the pin/retire protocol
// documented on `ViewWriter::collect`.
unsafe impl Send for ReadView {}
unsafe impl Sync for ReadView {}

#[inline]
fn hash_key(key: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(key);
    h.finish()
}

#[inline]
fn shard_of(hash: u64) -> usize {
    (hash >> 60) as usize & (NSHARDS - 1)
}

impl ReadView {
    fn empty() -> ReadView {
        let shards: Vec<Shard> = (0..NSHARDS)
            .map(|_| Shard {
                seq: AtomicU64::new(0),
                table: AtomicPtr::new(Box::into_raw(Box::new(Table::new(INITIAL_CAP)))),
            })
            .collect();
        let readers: Vec<ReaderSlot> = (0..MAX_READERS)
            .map(|_| ReaderSlot {
                claimed: AtomicBool::new(false),
                pin: AtomicU64::new(u64::MAX),
            })
            .collect();
        ReadView {
            shards: shards.into_boxed_slice(),
            published: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            readers: readers.into_boxed_slice(),
        }
    }

    /// Creates a view and the writer half that feeds it.
    pub fn new() -> (ViewWriter, Arc<ReadView>) {
        let view = Arc::new(ReadView::empty());
        let writer = ViewWriter {
            view: Arc::clone(&view),
            meta: [ShardMeta { live: 0, tombs: 0 }; NSHARDS],
            garbage: Vec::new(),
            retired_since_collect: 0,
        };
        (writer, view)
    }

    /// Engine sequence of the newest published batch.
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::Acquire)
    }

    /// Claims a reader registration. Returns `None` when all
    /// [`MAX_READERS`] slots are taken — the caller must then route its
    /// reads through the writer instead.
    pub fn register(self: &Arc<Self>) -> Option<ReadHandle> {
        for (i, slot) in self.readers.iter().enumerate() {
            if slot
                .claimed
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                slot.pin.store(u64::MAX, Ordering::Release);
                return Some(ReadHandle {
                    view: Arc::clone(self),
                    slot: i,
                });
            }
        }
        None
    }
}

impl Drop for ReadView {
    fn drop(&mut self) {
        // The Arc refcount reaching zero proves no reader or writer is
        // left, so the remaining live entries and tables can be freed
        // directly. Retired-but-uncollected garbage belongs to the
        // ViewWriter and is freed by its own Drop.
        for shard in self.shards.iter() {
            let table = shard.table.load(Ordering::Relaxed);
            if table.is_null() {
                continue;
            }
            // SAFETY: exclusive access (drop); every non-null,
            // non-tombstone slot holds a live Box<Entry> allocated by the
            // writer and not yet retired.
            unsafe {
                for slot in (*table).slots.iter() {
                    let p = slot.load(Ordering::Relaxed);
                    if !p.is_null() && p != tombstone() {
                        drop(Box::from_raw(p));
                    }
                }
                drop(Box::from_raw(table));
            }
        }
    }
}

/// A registered reader's handle: lock-free `get`/`contains` plus the
/// publish-sequence primitives the server's read-your-writes rule needs.
pub struct ReadHandle {
    view: Arc<ReadView>,
    slot: usize,
}

impl ReadHandle {
    /// Engine sequence of the newest published batch.
    pub fn published(&self) -> u64 {
        self.view.published()
    }

    /// Spins until the view has published at least `seq`. With the
    /// publish-before-ack protocol this returns immediately — a connection
    /// only learns a seq from a reply, and the reply was sent after the
    /// publish — so the loop is an invariant guard, not a real wait.
    pub fn wait_published(&self, seq: u64) {
        let mut spins = 0u32;
        while self.view.published.load(Ordering::Acquire) < seq {
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Lock-free point lookup. Clones the value `Arc` — no byte copy.
    pub fn get(&self, key: &[u8]) -> Option<Arc<[u8]>> {
        let hash = hash_key(key);
        let shard = &self.view.shards[shard_of(hash)];
        self.pin();
        let result;
        let mut spins = 0u32;
        loop {
            let s1 = shard.seq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                // Writer mid-section. Spin briefly, then yield: on a
                // single core the writer cannot finish the section until
                // this thread gives the CPU back.
                spins += 1;
                if spins < 32 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
                continue;
            }
            let r = self.probe(shard, hash, key);
            // Order every probe load before the validating re-read: if
            // seq is unchanged, no writer section overlapped the probe.
            fence(Ordering::Acquire);
            if shard.seq.load(Ordering::Relaxed) == s1 {
                result = r;
                break;
            }
            spins += 1;
            if spins >= 32 {
                std::thread::yield_now();
            }
        }
        self.unpin();
        result
    }

    /// Lock-free existence check; no `Arc` clone.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.get(key).is_some()
    }

    /// Pins this reader at the current reclamation epoch. The re-check
    /// loop closes the race with a concurrent collection scan: once the
    /// second load returns the value we stored, any later scan must
    /// observe our pin (both are SeqCst) and will keep everything retired
    /// at or after it.
    fn pin(&self) {
        let slot = &self.view.readers[self.slot];
        let mut e = self.view.epoch.load(Ordering::SeqCst);
        loop {
            slot.pin.store(e, Ordering::SeqCst);
            let e2 = self.view.epoch.load(Ordering::SeqCst);
            if e2 == e {
                break;
            }
            e = e2;
        }
    }

    fn unpin(&self) {
        self.view.readers[self.slot]
            .pin
            .store(u64::MAX, Ordering::Release);
    }

    fn probe(&self, shard: &Shard, hash: u64, key: &[u8]) -> Option<Arc<[u8]>> {
        let table = shard.table.load(Ordering::Acquire);
        // SAFETY: the table pointer was published by the writer; a
        // replaced table is retired, and retirement only frees it after
        // every pinned reader (us included) has moved past its retire
        // epoch. Same for the entries loaded from its slots. The probe
        // terminates because the writer resizes before load ever reaches
        // capacity, so every table always contains a null slot.
        unsafe {
            let table = &*table;
            let mut i = (hash as usize) & table.mask;
            loop {
                let p = table.slots[i].load(Ordering::Acquire);
                if p.is_null() {
                    return None;
                }
                if p != tombstone() {
                    let entry = &*p;
                    if entry.hash == hash && &*entry.key == key {
                        return Some(Arc::clone(&entry.val));
                    }
                }
                i = (i + 1) & table.mask;
            }
        }
    }
}

impl Drop for ReadHandle {
    fn drop(&mut self) {
        let slot = &self.view.readers[self.slot];
        slot.pin.store(u64::MAX, Ordering::Release);
        slot.claimed.store(false, Ordering::Release);
    }
}

#[derive(Clone, Copy)]
struct ShardMeta {
    live: usize,
    tombs: usize,
}

enum Garbage {
    Entry(*mut Entry),
    Table(*mut Table),
}

/// The single writer half of a [`ReadView`]. Owned by the engine; all
/// mutation goes through it, so slots only ever race one writer against
/// lock-free readers.
pub struct ViewWriter {
    view: Arc<ReadView>,
    meta: [ShardMeta; NSHARDS],
    /// Retired allocations, tagged with the epoch they were retired in.
    garbage: Vec<(u64, Garbage)>,
    retired_since_collect: usize,
}

// SAFETY: the raw pointers in `garbage` are unlinked allocations this
// writer exclusively owns (readers can only still *observe* them, which
// the epoch protocol accounts for); moving the writer between threads is
// fine because there is only ever one writer.
unsafe impl Send for ViewWriter {}

impl ViewWriter {
    /// Inserts or replaces `key`. Clones both `Arc`s — no byte copy.
    pub fn set(&mut self, key: &Arc<[u8]>, val: &Arc<[u8]>) {
        let hash = hash_key(key);
        let sid = shard_of(hash);
        self.reserve_one(sid);
        let entry = Box::into_raw(Box::new(Entry {
            hash,
            key: Arc::clone(key),
            val: Arc::clone(val),
        }));
        let shard = &self.view.shards[sid];
        // SAFETY (writer sections, here and below): this is the only
        // writer, so Relaxed loads of the table pointer and slot contents
        // read our own prior stores; the seqlock odd/even protocol plus
        // Release stores make the mutation atomic from a reader's view.
        let table = unsafe { &*shard.table.load(Ordering::Relaxed) };
        shard.seq.fetch_add(1, Ordering::AcqRel); // even -> odd
        let mut i = (hash as usize) & table.mask;
        let mut first_tomb: Option<usize> = None;
        let replaced: Option<*mut Entry> = loop {
            let p = table.slots[i].load(Ordering::Relaxed);
            if p.is_null() {
                let target = first_tomb.unwrap_or(i);
                table.slots[target].store(entry, Ordering::Release);
                if first_tomb.is_some() {
                    self.meta[sid].tombs -= 1;
                }
                self.meta[sid].live += 1;
                break None;
            }
            if p == tombstone() {
                if first_tomb.is_none() {
                    first_tomb = Some(i);
                }
            } else {
                // SAFETY: non-null, non-tombstone slots hold live entries.
                let e = unsafe { &*p };
                if e.hash == hash && *e.key == **key {
                    table.slots[i].store(entry, Ordering::Release);
                    break Some(p);
                }
            }
            i = (i + 1) & table.mask;
        };
        shard.seq.fetch_add(1, Ordering::Release); // odd -> even
        if let Some(old) = replaced {
            self.retire(Garbage::Entry(old));
        }
    }

    /// Removes `key` if present (tombstones the slot).
    pub fn del(&mut self, key: &[u8]) {
        let hash = hash_key(key);
        let sid = shard_of(hash);
        let shard = &self.view.shards[sid];
        let table = unsafe { &*shard.table.load(Ordering::Relaxed) };
        shard.seq.fetch_add(1, Ordering::AcqRel);
        let mut i = (hash as usize) & table.mask;
        let removed: Option<*mut Entry> = loop {
            let p = table.slots[i].load(Ordering::Relaxed);
            if p.is_null() {
                break None;
            }
            if p != tombstone() {
                // SAFETY: non-null, non-tombstone slots hold live entries.
                let e = unsafe { &*p };
                if e.hash == hash && &*e.key == key {
                    table.slots[i].store(tombstone(), Ordering::Release);
                    self.meta[sid].live -= 1;
                    self.meta[sid].tombs += 1;
                    break Some(p);
                }
            }
            i = (i + 1) & table.mask;
        };
        shard.seq.fetch_add(1, Ordering::Release);
        if let Some(old) = removed {
            self.retire(Garbage::Entry(old));
        }
    }

    /// Publishes engine sequence `seq`: every mutation applied so far
    /// becomes part of the visible version, the reclamation epoch
    /// advances, and (periodically) retired garbage is collected.
    pub fn publish(&mut self, seq: u64) {
        self.view.published.store(seq, Ordering::Release);
        self.view.epoch.fetch_add(1, Ordering::SeqCst);
        if self.retired_since_collect >= COLLECT_EVERY {
            self.collect();
        }
    }

    /// Retired allocations not yet freed (test/diagnostic hook).
    pub fn garbage_len(&self) -> usize {
        self.garbage.len()
    }

    fn retire(&mut self, g: Garbage) {
        let epoch = self.view.epoch.load(Ordering::Relaxed);
        self.garbage.push((epoch, g));
        self.retired_since_collect += 1;
    }

    /// Frees every retired allocation whose retire epoch is strictly
    /// below the oldest pinned epoch. A reader pinned at epoch `p`
    /// observed every unlink retired before epoch `p` (the pin's SeqCst
    /// load of the epoch synchronizes with the publish that advanced it),
    /// so it can never be probing an allocation retired at `< p`; the
    /// current epoch bounds the scan when nothing is pinned.
    fn collect(&mut self) {
        self.retired_since_collect = 0;
        let mut min = self.view.epoch.load(Ordering::SeqCst);
        for r in self.view.readers.iter() {
            if r.claimed.load(Ordering::Acquire) {
                min = min.min(r.pin.load(Ordering::SeqCst));
            }
        }
        self.garbage.retain(|(epoch, g)| {
            if *epoch < min {
                // SAFETY: unlinked before epoch `min`; per the bound
                // above no current or future reader can reach it.
                unsafe { free_garbage(g) };
                false
            } else {
                true
            }
        });
    }

    /// Grows (or rebuilds, to purge tombstones) shard `sid` so one more
    /// insert keeps the load factor under 3/4, which also guarantees
    /// every reader probe terminates at a null slot.
    fn reserve_one(&mut self, sid: usize) {
        let meta = self.meta[sid];
        let shard = &self.view.shards[sid];
        let old_ptr = shard.table.load(Ordering::Relaxed);
        // SAFETY: single writer; the current table is live.
        let old = unsafe { &*old_ptr };
        let cap = old.mask + 1;
        if (meta.live + meta.tombs + 1) * 4 <= cap * 3 {
            return;
        }
        // Double when live entries dominate; same-size rebuild when the
        // pressure is mostly tombstones.
        let new_cap = if (meta.live + 1) * 2 > cap {
            cap * 2
        } else {
            cap
        };
        let new = Table::new(new_cap);
        for slot in old.slots.iter() {
            let p = slot.load(Ordering::Relaxed);
            if p.is_null() || p == tombstone() {
                continue;
            }
            // SAFETY: live entry owned by this view.
            let hash = unsafe { (*p).hash };
            let mut i = (hash as usize) & new.mask;
            while !new.slots[i].load(Ordering::Relaxed).is_null() {
                i = (i + 1) & new.mask;
            }
            new.slots[i].store(p, Ordering::Relaxed);
        }
        let new_ptr = Box::into_raw(Box::new(new));
        // Swap inside a write section so a reader never mixes probes of
        // the old and new arrays within one validated read.
        shard.seq.fetch_add(1, Ordering::AcqRel);
        shard.table.store(new_ptr, Ordering::Release);
        shard.seq.fetch_add(1, Ordering::Release);
        self.meta[sid].tombs = 0;
        self.retire(Garbage::Table(old_ptr));
    }
}

impl Drop for ViewWriter {
    fn drop(&mut self) {
        // Readers may still hold the Arc<ReadView> and be probing, so the
        // *live* structure must stay up — but retired garbage must be
        // freed here. Bump the epoch once so every unlink (including ones
        // retired at the final epoch, after the last publish) precedes
        // the new epoch, then wait out readers still pinned below it
        // (bounded: a pin spans one probe, microseconds) and free.
        let fence_epoch = self.view.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        for r in self.view.readers.iter() {
            while r.claimed.load(Ordering::Acquire) && r.pin.load(Ordering::SeqCst) < fence_epoch {
                std::thread::yield_now();
            }
        }
        for (_, g) in self.garbage.drain(..) {
            // SAFETY: unlinked allocations; no reader is pinned below the
            // final epoch anymore, so none can still observe them.
            unsafe { free_garbage(&g) };
        }
    }
}

/// Frees one retired allocation.
///
/// # Safety
/// The pointer must be an unlinked `Box`-allocated entry/table that no
/// reader can reach anymore (per the epoch bound in `collect`).
unsafe fn free_garbage(g: &Garbage) {
    match g {
        Garbage::Entry(p) => drop(Box::from_raw(*p)),
        Garbage::Table(p) => drop(Box::from_raw(*p)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arc(b: &[u8]) -> Arc<[u8]> {
        b.into()
    }

    #[test]
    fn set_get_del_roundtrip() {
        let (mut w, view) = ReadView::new();
        let h = view.register().expect("slot");
        assert!(h.get(b"k").is_none());
        w.set(&arc(b"k"), &arc(b"v1"));
        assert_eq!(&*h.get(b"k").unwrap(), b"v1");
        w.set(&arc(b"k"), &arc(b"v2"));
        assert_eq!(&*h.get(b"k").unwrap(), b"v2");
        w.del(b"k");
        assert!(h.get(b"k").is_none());
        w.publish(3);
        assert_eq!(h.published(), 3);
        h.wait_published(3);
    }

    #[test]
    fn survives_resize_churn() {
        let (mut w, view) = ReadView::new();
        let h = view.register().expect("slot");
        let n = 10_000u32;
        for i in 0..n {
            let k = format!("key:{i}");
            w.set(&arc(k.as_bytes()), &arc(&i.to_le_bytes()));
        }
        w.publish(u64::from(n));
        for i in (0..n).step_by(7) {
            let k = format!("key:{i}");
            assert_eq!(&*h.get(k.as_bytes()).unwrap(), &i.to_le_bytes());
        }
        for i in 0..n {
            if i % 2 == 0 {
                w.del(format!("key:{i}").as_bytes());
            }
        }
        w.publish(u64::from(n) + 1);
        for i in 0..n {
            let k = format!("key:{i}");
            assert_eq!(h.get(k.as_bytes()).is_some(), i % 2 == 1, "key {i}");
        }
    }

    #[test]
    fn registry_exhaustion_returns_none() {
        let (_w, view) = ReadView::new();
        let mut handles = Vec::new();
        while let Some(h) = view.register() {
            handles.push(h);
            assert!(handles.len() <= MAX_READERS);
        }
        assert_eq!(handles.len(), MAX_READERS);
        drop(handles.pop());
        assert!(view.register().is_some());
    }

    #[test]
    fn collect_frees_after_readers_unpin() {
        let (mut w, view) = ReadView::new();
        let h = view.register().expect("slot");
        for i in 0..200u32 {
            w.set(&arc(b"hot"), &arc(&i.to_le_bytes()));
            w.publish(u64::from(i) + 1);
        }
        // No reader is pinned (get() unpins before returning), so the
        // periodic collect inside publish must have drained most garbage.
        assert!(w.garbage_len() < 200, "garbage: {}", w.garbage_len());
        assert_eq!(&*h.get(b"hot").unwrap(), &199u32.to_le_bytes());
    }
}
