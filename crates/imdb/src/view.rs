//! The keyspace index: one table, written by the engine, read lock-free.
//!
//! [`crate::Db`] keeps its keys here and nowhere else. The engine's single
//! writer thread mutates the table through a [`ViewWriter`] (and reads its
//! own newest state back through it); connection threads probe the same
//! table through a [`ReadHandle`], concurrently, without ever queueing
//! behind the writer:
//!
//! * **Structure.** A set of shards, each an open-addressing table of
//!   `AtomicPtr<Entry>` slots (linear probing, doubling resize at 3/4
//!   load). The shard is picked by the key hash's top bits and the slot by
//!   its low bits ([`crate::fxhash::hash_key`] mixes both ends). An
//!   [`Entry`] is an immutable heap cell holding the cached hash plus `Arc`
//!   clones of the key and value, so a reader that finds a key clones an
//!   `Arc` — it never copies bytes. A deleted key is an entry with no
//!   value; it keeps its slot until the next rebuild of its shard.
//! * **Seqlock.** Each shard carries a sequence counter. The writer makes
//!   it odd around every mutation; a reader samples it before and after
//!   probing and retries on a torn window (odd, or changed). Individual
//!   slot loads are already atomic, so the seqlock's job is merely to
//!   keep multi-slot probe sequences (and table swaps) consistent; retry
//!   windows are a handful of nanoseconds.
//! * **Epoch reclamation.** Memory safety does NOT come from the seqlock:
//!   a reader may hold a raw `Entry` pointer while validating. Displaced
//!   entries and replaced tables are therefore *retired*, tagged with the
//!   view's current reclamation epoch, and only freed once every
//!   registered reader has either unpinned or pinned a later epoch. The
//!   writer advances the epoch on every [`ViewWriter::publish`].
//! * **Publish protocol.** The writer links a batch's entries as the
//!   commands execute — the table always holds the engine's newest state —
//!   but a reader never observes a write before its batch is published.
//!   Each entry records the epoch it was written in (`born`) and an
//!   immutable pointer to the entry it displaced (`prev`); a reader pinned
//!   at epoch `e` resolves a key to the first entry of its slot's chain
//!   with `born < e`, i.e. one written before the publish that started
//!   epoch `e`. Following `prev` is safe on the reclamation rule alone:
//!   the displaced entry was retired in the displacing entry's `born`
//!   epoch, which the reader only steps past when it is `>=` its own pin,
//!   and nothing retired at or after a pin is freed. `publish` stores the
//!   engine sequence number into `published` with `Release` ordering and
//!   then bumps the epoch — *after* the batch's group commit and *before*
//!   any of the batch's replies are released. A connection that has seen
//!   an ack for engine seq `s` therefore already observes `published >= s`
//!   and pins an epoch past the batch's (the ack's channel send
//!   happens-after both stores), which is what makes
//!   [`ReadHandle::wait_published`] the read-your-writes guard rather than
//!   a blocking wait. A reader may see a *newer* published state than its
//!   pin (a purged delete, below), never an unpublished one.

use std::sync::atomic::{fence, AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::fxhash::hash_key;

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

/// One version of one key. Readers reach it through a raw pointer loaded
/// from a slot (or from a newer version's `prev`); nothing in it changes
/// after it is linked.
struct Entry {
    hash: u64,
    key: Arc<[u8]>,
    /// `None` marks the key deleted.
    val: Option<Arc<[u8]>>,
    /// Reclamation epoch this version was written in: visible to readers
    /// pinned at a later epoch, i.e. once a publish has followed it.
    born: u64,
    /// The version this one displaced (null for a key's first). Skips any
    /// version born in the same epoch — no reader could ever resolve to
    /// it — so a reader pinned at the current epoch follows at most one.
    prev: *const Entry,
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

/// The shared, concurrently readable side of the keyspace index. Created
/// alongside its single [`ViewWriter`]; readers register for a
/// [`ReadHandle`].
pub struct ReadView {
    shards: Box<[Shard]>,
    /// Engine sequence number of the newest published batch.
    published: AtomicU64,
    /// Reclamation epoch; bumped by every publish.
    epoch: AtomicU64,
    readers: Box<[ReaderSlot]>,
    /// Garbage a dropped writer could not free: readers outlive it and may
    /// still follow a `prev` into it. Freed with the view.
    orphans: Mutex<Vec<(u64, Garbage)>>,
}

// SAFETY: all cross-thread state is atomics; the raw `Entry`/`Table`
// pointers they hold are only dereferenced under the pin/retire protocol
// documented on `ViewWriter::collect`.
unsafe impl Send for ReadView {}
unsafe impl Sync for ReadView {}

#[inline]
fn shard_of(hash: u64) -> usize {
    (hash >> 60) as usize & (NSHARDS - 1)
}

impl ReadView {
    /// Creates an empty index: the writer half and the shared read half.
    pub fn new() -> (ViewWriter, Arc<ReadView>) {
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
        let view = Arc::new(ReadView {
            shards: shards.into_boxed_slice(),
            published: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            readers: readers.into_boxed_slice(),
            orphans: Mutex::new(Vec::new()),
        });
        let writer = ViewWriter {
            view: Arc::clone(&view),
            meta: [ShardMeta { live: 0, used: 0 }; NSHARDS],
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
        // left, so every linked entry, every table and whatever the
        // writer left retired can be freed directly.
        let orphans = std::mem::take(&mut *self.orphans.lock().unwrap_or_else(|p| p.into_inner()));
        // SAFETY: exclusive access (drop). Every non-null slot holds a
        // Box<Entry> the writer linked and never retired; retired ones
        // are unlinked (reachable only through `prev`, which is not
        // followed here), so nothing is freed twice.
        unsafe {
            for shard in self.shards.iter() {
                let table = Box::from_raw(shard.table.load(Ordering::Relaxed));
                for slot in table.slots.iter() {
                    let p = slot.load(Ordering::Relaxed);
                    if !p.is_null() {
                        drop(Box::from_raw(p));
                    }
                }
            }
            for (_, g) in &orphans {
                free_garbage(g);
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

    /// Lock-free point lookup of the newest *published* value. Clones the
    /// value `Arc` — no byte copy.
    pub fn get(&self, key: &[u8]) -> Option<Arc<[u8]>> {
        let hash = hash_key(key);
        let shard = &self.view.shards[shard_of(hash)];
        let epoch = self.pin();
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
            let r = self.probe(shard, hash, key, epoch);
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

    /// Lock-free existence check.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.get(key).is_some()
    }

    /// Pins this reader at the current reclamation epoch and returns it.
    /// The re-check loop closes the race with a concurrent collection
    /// scan: once the second load returns the value we stored, any later
    /// scan must observe our pin (both are SeqCst) and will keep
    /// everything retired at or after it.
    fn pin(&self) -> u64 {
        let slot = &self.view.readers[self.slot];
        let mut e = self.view.epoch.load(Ordering::SeqCst);
        loop {
            slot.pin.store(e, Ordering::SeqCst);
            let e2 = self.view.epoch.load(Ordering::SeqCst);
            if e2 == e {
                return e;
            }
            e = e2;
        }
    }

    fn unpin(&self) {
        self.view.readers[self.slot]
            .pin
            .store(u64::MAX, Ordering::Release);
    }

    /// Resolves `key` as of pin epoch `epoch`.
    fn probe(&self, shard: &Shard, hash: u64, key: &[u8], epoch: u64) -> Option<Arc<[u8]>> {
        let table = shard.table.load(Ordering::Acquire);
        // SAFETY: the table pointer was published by the writer; a
        // replaced table is retired, and retirement only frees it after
        // every pinned reader (us included) has moved past its retire
        // epoch. Same for the entries loaded from its slots, and for
        // each `prev` followed: it is only read off an entry born at or
        // after our pin, and what that entry displaced was retired in
        // that same epoch. The probe terminates because the writer
        // resizes before load ever reaches capacity, so every table
        // always contains a null slot.
        unsafe {
            let table = &*table;
            let mut i = (hash as usize) & table.mask;
            loop {
                let mut p: *const Entry = table.slots[i].load(Ordering::Acquire);
                if p.is_null() {
                    return None;
                }
                if (*p).hash == hash && *(*p).key == *key {
                    // The first version a publish has already covered.
                    while !p.is_null() && (*p).born >= epoch {
                        p = (*p).prev;
                    }
                    return p.as_ref().and_then(|e| e.val.clone());
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
    /// Keys with a value.
    live: usize,
    /// Occupied slots: `live` plus deleted keys' entries not yet purged.
    used: usize,
}

enum Garbage {
    Entry(*mut Entry),
    Table(*mut Table),
}

/// The single writer half of a [`ReadView`], owned by the engine. All
/// mutation goes through it, so slots only ever race one writer against
/// lock-free readers; its own reads ([`ViewWriter::get`], `len`, `iter`)
/// see the newest state, published or not.
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
    /// The shared half, for reader registration.
    pub fn view(&self) -> &Arc<ReadView> {
        &self.view
    }

    /// Number of keys with a value.
    pub fn len(&self) -> usize {
        self.meta.iter().map(|m| m.live).sum()
    }

    /// True when no key has a value.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The newest value of `key`, published or not.
    pub fn get(&self, key: &[u8]) -> Option<&Arc<[u8]>> {
        let hash = hash_key(key);
        let (_, p) = self.locate(shard_of(hash), hash, key);
        self.linked(p)?.val.as_ref()
    }

    /// Every key with a value, newest state, in table order.
    pub fn iter(&self) -> impl Iterator<Item = (&Arc<[u8]>, &Arc<[u8]>)> {
        (0..NSHARDS).flat_map(move |sid| {
            self.table(sid).slots.iter().filter_map(move |slot| {
                let e = self.linked(slot.load(Ordering::Relaxed))?;
                Some((&e.key, e.val.as_ref()?))
            })
        })
    }

    /// Inserts or replaces `key`, returning the value it displaced.
    /// Clones both `Arc`s — no byte copy.
    pub fn set(&mut self, key: &Arc<[u8]>, val: &Arc<[u8]>) -> Option<Arc<[u8]>> {
        let hash = hash_key(key);
        let sid = shard_of(hash);
        self.reserve_one(sid);
        let (i, old) = self.locate(sid, hash, key);
        self.link(sid, i, old, hash, Arc::clone(key), Some(Arc::clone(val)))
    }

    /// Deletes `key`, returning its value; `None` (and no change) when it
    /// had none. The delete is a valueless version over the key's slot.
    pub fn del(&mut self, key: &[u8]) -> Option<Arc<[u8]>> {
        let hash = hash_key(key);
        let sid = shard_of(hash);
        let (i, old) = self.locate(sid, hash, key);
        let key = Arc::clone(&self.linked(old).filter(|e| e.val.is_some())?.key);
        self.link(sid, i, old, hash, key, None)
    }

    /// Shard `sid`'s current table, as the writer sees it.
    fn table(&self, sid: usize) -> &Table {
        // SAFETY: this is the only writer, so the Relaxed load reads our
        // own last store, and that table is live until `&mut self`
        // retires it.
        unsafe { &*self.view.shards[sid].table.load(Ordering::Relaxed) }
    }

    /// The entry behind a pointer read from a slot of a current table
    /// (`None` for a vacant slot's null).
    fn linked(&self, p: *mut Entry) -> Option<&Entry> {
        // SAFETY: what is linked was allocated by this writer and stays
        // live until `&mut self` unlinks and retires it.
        unsafe { p.as_ref() }
    }

    /// Where `key` lives in shard `sid`: its slot and the entry there, or
    /// the vacant slot (null entry) an insert would take.
    fn locate(&self, sid: usize, hash: u64, key: &[u8]) -> (usize, *mut Entry) {
        let table = self.table(sid);
        let mut i = (hash as usize) & table.mask;
        loop {
            let p = table.slots[i].load(Ordering::Relaxed);
            if self
                .linked(p)
                .is_none_or(|e| e.hash == hash && *e.key == *key)
            {
                return (i, p);
            }
            i = (i + 1) & table.mask;
        }
    }

    /// Links a new version of a key into slot `i` of shard `sid`, over
    /// `old` (null for a vacant slot), and retires `old`. Returns the
    /// displaced value.
    fn link(
        &mut self,
        sid: usize,
        i: usize,
        old: *mut Entry,
        hash: u64,
        key: Arc<[u8]>,
        val: Option<Arc<[u8]>>,
    ) -> Option<Arc<[u8]>> {
        let born = self.view.epoch.load(Ordering::Relaxed);
        let displaced = self.linked(old);
        let prev = match displaced {
            Some(o) if o.born == born => o.prev,
            _ => old.cast_const(),
        };
        let old_val = displaced.and_then(|o| o.val.clone());
        let meta = &mut self.meta[sid];
        meta.used += usize::from(old.is_null());
        meta.live = meta.live + usize::from(val.is_some()) - usize::from(old_val.is_some());
        let entry = Box::into_raw(Box::new(Entry {
            hash,
            key,
            val,
            born,
            prev,
        }));
        // The seqlock odd/even protocol plus the Release store make the
        // mutation atomic from a reader's view.
        let shard = &self.view.shards[sid];
        shard.seq.fetch_add(1, Ordering::AcqRel); // even -> odd
        self.table(sid).slots[i].store(entry, Ordering::Release);
        shard.seq.fetch_add(1, Ordering::Release); // odd -> even
        if !old.is_null() {
            self.retire(Garbage::Entry(old));
        }
        old_val
    }

    /// Publishes engine sequence `seq`: every mutation applied so far
    /// becomes visible to readers, the reclamation epoch advances, and
    /// (periodically) retired garbage is collected.
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
    /// so it can never be probing an allocation retired at `< p` — nor
    /// reach one through `prev`, which it follows only off entries born
    /// at `>= p`, into entries retired in that same epoch. The current
    /// epoch bounds the scan when nothing is pinned.
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

    /// Rebuilds shard `sid` — doubled when its keys need the room, same
    /// size when the pressure is deleted keys' entries — so one more
    /// insert keeps the load factor under 3/4, which also guarantees
    /// every probe terminates at a null slot.
    fn reserve_one(&mut self, sid: usize) {
        let old = self.table(sid);
        let cap = old.mask + 1;
        if (self.meta[sid].used + 1) * 4 <= cap * 3 {
            return;
        }
        // A deleted key's entry goes once its delete is published: absent
        // is then all a reader may still resolve it to. An unpublished
        // one stays, for the `prev` that readers still need.
        let epoch = self.view.epoch.load(Ordering::Relaxed);
        let keep = |p| {
            self.linked(p)
                .filter(|e| e.val.is_some() || e.born >= epoch)
        };
        let slots = || old.slots.iter().map(|slot| slot.load(Ordering::Relaxed));
        let kept = slots().filter(|&p| keep(p).is_some()).count();
        let mut new_cap = cap;
        while (kept + 1) * 2 > new_cap {
            new_cap *= 2;
        }
        let new = Table::new(new_cap);
        let mut purged = Vec::new();
        for p in slots() {
            let Some(e) = keep(p) else {
                if !p.is_null() {
                    purged.push(Garbage::Entry(p));
                }
                continue;
            };
            let mut i = (e.hash as usize) & new.mask;
            while !new.slots[i].load(Ordering::Relaxed).is_null() {
                i = (i + 1) & new.mask;
            }
            new.slots[i].store(p, Ordering::Relaxed);
        }
        let old_ptr = std::ptr::from_ref(old).cast_mut();
        let new_ptr = Box::into_raw(Box::new(new));
        // Swap inside a write section so a reader never mixes probes of
        // the old and new arrays within one validated read.
        let shard = &self.view.shards[sid];
        shard.seq.fetch_add(1, Ordering::AcqRel);
        shard.table.store(new_ptr, Ordering::Release);
        shard.seq.fetch_add(1, Ordering::Release);
        self.meta[sid].used = kept;
        self.retire(Garbage::Table(old_ptr));
        for g in purged {
            self.retire(g);
        }
    }
}

impl Drop for ViewWriter {
    fn drop(&mut self) {
        // Readers may still hold the Arc<ReadView> and be probing, and
        // the epoch must not move (that would show them this writer's
        // unpublished tail), so what is retired stays reachable through
        // `prev`: the view frees it when the last handle is gone.
        self.view
            .orphans
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .append(&mut self.garbage);
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
        assert_eq!(w.set(&arc(b"k"), &arc(b"v1")), None);
        w.publish(1);
        assert_eq!(&*h.get(b"k").unwrap(), b"v1");
        assert_eq!(w.set(&arc(b"k"), &arc(b"v2")).as_deref(), Some(&b"v1"[..]));
        w.publish(2);
        assert_eq!(&*h.get(b"k").unwrap(), b"v2");
        assert_eq!(w.del(b"k").as_deref(), Some(&b"v2"[..]));
        assert_eq!(w.del(b"k"), None, "a deleted key has nothing to delete");
        assert_eq!(w.del(b"never set"), None);
        w.publish(3);
        assert!(h.get(b"k").is_none());
        assert_eq!(h.published(), 3);
        h.wait_published(3);
        assert_eq!((w.len(), w.iter().count()), (0, 0));
    }

    /// The rule the engine's staging list used to enforce: the writer sees
    /// its own writes at once, a reader only after the publish.
    #[test]
    fn writes_are_invisible_to_readers_until_published() {
        let (mut w, view) = ReadView::new();
        let h = view.register().expect("slot");
        w.set(&arc(b"k"), &arc(b"old"));
        w.publish(1);

        w.set(&arc(b"k"), &arc(b"new"));
        w.set(&arc(b"fresh"), &arc(b"f"));
        assert_eq!(w.get(b"k").map(|v| &**v), Some(&b"new"[..]));
        assert_eq!(w.len(), 2);
        assert_eq!(&*h.get(b"k").unwrap(), b"old");
        assert!(h.get(b"fresh").is_none());
        w.publish(2);
        assert_eq!(&*h.get(b"k").unwrap(), b"new");
        assert_eq!(&*h.get(b"fresh").unwrap(), b"f");

        w.del(b"k");
        assert!(w.get(b"k").is_none());
        assert_eq!(&*h.get(b"k").unwrap(), b"new");
        w.publish(3);
        assert!(h.get(b"k").is_none());
    }

    #[test]
    fn same_epoch_overwrite_skips_the_never_visible_entry() {
        let (mut w, view) = ReadView::new();
        let h = view.register().expect("slot");
        w.set(&arc(b"k"), &arc(b"v0"));
        w.publish(1);
        let before = w.garbage_len();
        w.set(&arc(b"k"), &arc(b"v1"));
        w.set(&arc(b"k"), &arc(b"v2"));
        // Both displaced entries are retired — v1's too, though no reader
        // could ever have resolved to it — and the chain steps over it.
        assert_eq!(w.garbage_len(), before + 2);
        assert_eq!(&*h.get(b"k").unwrap(), b"v0");
        w.publish(2);
        assert_eq!(&*h.get(b"k").unwrap(), b"v2");
        // Delete then re-set inside one batch: same skip, through a
        // valueless entry.
        w.del(b"k");
        w.set(&arc(b"k"), &arc(b"v3"));
        assert_eq!(&*h.get(b"k").unwrap(), b"v2");
        w.publish(3);
        assert_eq!(&*h.get(b"k").unwrap(), b"v3");
    }

    #[test]
    fn a_pinned_reader_resolves_the_version_of_its_pin_epoch() {
        let (mut w, view) = ReadView::new();
        let h = view.register().expect("slot");
        w.set(&arc(b"k"), &arc(b"v1"));
        w.publish(1);
        let epoch = h.pin();
        // Two more published versions, with enough retirements in between
        // for `publish` to run collections past the pinned reader.
        for round in 2..=3u64 {
            for i in 0..2 * COLLECT_EVERY {
                w.set(&arc(b"churn"), &arc(&i.to_le_bytes()));
            }
            w.set(&arc(b"k"), &arc(format!("v{round}").as_bytes()));
            w.publish(round);
        }
        let hash = hash_key(b"k");
        let shard = &view.shards[shard_of(hash)];
        assert_eq!(&*h.probe(shard, hash, b"k", epoch).unwrap(), b"v1");
        assert!(w.garbage_len() > 4 * COLLECT_EVERY, "the pin holds garbage");
        h.unpin();
        assert_eq!(&*h.get(b"k").unwrap(), b"v3");
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
        // Unpublished deletes survive a rebuild: a wave of new keys forces
        // every shard to resize while readers must still see the old ones.
        for i in n..2 * n {
            let k = format!("key:{i}");
            w.set(&arc(k.as_bytes()), &arc(&i.to_le_bytes()));
        }
        for i in 0..n {
            assert!(h.get(format!("key:{i}").as_bytes()).is_some(), "key {i}");
        }
        w.publish(u64::from(n) + 1);
        for i in 0..2 * n {
            let k = format!("key:{i}");
            assert_eq!(
                h.get(k.as_bytes()).is_some(),
                i % 2 == 1 || i >= n,
                "key {i}"
            );
        }
        assert_eq!(w.len(), 3 * n as usize / 2);
        assert_eq!(w.iter().count(), w.len());
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

    /// A dropped writer publishes nothing more: its unpublished tail stays
    /// invisible to the readers that outlive it.
    #[test]
    fn dropping_the_writer_does_not_publish_its_tail() {
        let (mut w, view) = ReadView::new();
        let h = view.register().expect("slot");
        w.set(&arc(b"k"), &arc(b"acked"));
        w.publish(1);
        w.set(&arc(b"k"), &arc(b"in flight"));
        drop(w);
        assert_eq!(&*h.get(b"k").unwrap(), b"acked");
    }

    /// Table quality in counts, not time: 1 M of the bench client's keys
    /// must spread evenly over the shards and probe in short runs. (On
    /// the raw FxHash every such key started probing at the same slot.)
    #[test]
    fn bench_keys_spread_over_shards_and_probe_in_short_runs() {
        let (mut w, _view) = ReadView::new();
        let n = 1_000_000usize;
        let v = arc(b"");
        for i in 0..n {
            w.set(&arc(format!("key:{i:012}").as_bytes()), &v);
        }
        let mean = n / NSHARDS;
        let mut longest = 0usize;
        for sid in 0..NSHARDS {
            let live = w.meta[sid].live;
            assert!(
                (mean * 9 / 10..=mean * 11 / 10).contains(&live),
                "shard {sid} holds {live} of {n}"
            );
            let table = w.table(sid);
            for (i, slot) in table.slots.iter().enumerate() {
                if let Some(e) = w.linked(slot.load(Ordering::Relaxed)) {
                    let home = e.hash as usize & table.mask;
                    longest = longest.max((i.wrapping_sub(home) & table.mask) + 1);
                }
            }
        }
        assert!(longest <= 64, "longest probe sequence: {longest} slots");
    }
}
