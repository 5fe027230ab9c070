//! A minimal journaling file system over the emulated NVMe device.
//!
//! `SimFs` gives the baseline stack what EXT4/F2FS give Redis: named
//! files with extent allocation, buffered writes through a write-back page
//! cache, fsync with a journal commit, and sequential readahead on reads.
//! Every operation charges the POSIX-path costs ([`super::KernelCosts`],
//! [`super::FsProfile`]) and serializes journaled work on one shared lock —
//! the §3.1.2 contention point between the WAL and snapshot processes.

use std::collections::HashMap;

use slimio_des::{FcfsServer, SimTime};
use slimio_nvme::{Command, DeviceError, DeviceHandle, NvmeDevice, LBA_BYTES};

use crate::costs::{FsProfile, KernelCosts};
use crate::pagecache::PageCache;

/// File descriptor (also the stable file id).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Fd(pub u64);

/// File-system errors.
#[derive(Debug)]
pub enum FsError {
    /// No file with that name.
    NotFound(String),
    /// Stale descriptor.
    BadFd(Fd),
    /// The device rejected an operation.
    Device(DeviceError),
    /// No free extents left.
    OutOfSpace,
}

impl From<DeviceError> for FsError {
    fn from(e: DeviceError) -> Self {
        FsError::Device(e)
    }
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsError::NotFound(n) => write!(f, "file not found: {n}"),
            FsError::BadFd(fd) => write!(f, "bad file descriptor {fd:?}"),
            FsError::Device(e) => write!(f, "device error: {e}"),
            FsError::OutOfSpace => write!(f, "file system out of space"),
        }
    }
}

impl std::error::Error for FsError {}

/// Timing breakdown of a completed operation.
#[derive(Clone, Copy, Debug, Default)]
pub struct WriteOutcome {
    /// When the syscall returns to the caller.
    pub done_at: SimTime,
    /// CPU burned in the generic kernel path (syscall + copies).
    pub syscall_cpu: SimTime,
    /// CPU burned in the file-system write path — the Table 2 metric.
    pub fs_cpu: SimTime,
    /// Time spent waiting for the shared journal lock.
    pub journal_wait: SimTime,
    /// Time spent throttled on dirty-page writeback (device speed).
    pub throttle_wait: SimTime,
}

#[derive(Clone, Copy, Debug)]
struct Extent {
    lba: u64,
    pages: u64,
}

#[derive(Debug)]
struct FileMeta {
    name: String,
    extents: Vec<Extent>,
    size_bytes: u64,
}

/// Preferred allocation granularity in pages (8 MiB extents); shrunk on
/// small devices so tests with tiny geometries can hold several files.
const EXTENT_PAGES_MAX: u64 = 2048;
/// Writeback batch when a writer is throttled.
const WRITEBACK_BATCH: usize = 256;
/// Device-submission chunk for writeback/fsync: pages are issued in
/// die-parallel waves so a large flush occupies the device progressively
/// instead of reserving every die far into the future (which would starve
/// other submitters in the co-simulation).
const WB_CHUNK: usize = 64;
/// LBAs reserved at the top of the device for journal/node blocks.
const JOURNAL_LBAS: u64 = 64;
/// Bounded in-place retries of transiently failed page writes — the block
/// layer's requeue behaviour. Exhaustion (or any other device error)
/// surfaces to the caller.
const WRITE_RETRIES: usize = 64;

/// Writes one page, retrying injected transient failures in place.
fn write_page_retrying(
    dev: &mut NvmeDevice,
    lba: u64,
    data: Option<&[u8]>,
    now: SimTime,
) -> Result<slimio_nvme::Completion, DeviceError> {
    let mut attempts = 0;
    loop {
        match dev.write(lba, 1, 0, data, now) {
            Err(DeviceError::Injected) if attempts < WRITE_RETRIES => attempts += 1,
            other => return other,
        }
    }
}

/// The simulated file system.
pub struct SimFs {
    device: DeviceHandle,
    costs: KernelCosts,
    profile: FsProfile,
    cache: PageCache,
    /// The journaling lock every journaled operation serializes on.
    journal: FcfsServer,
    files: HashMap<u64, FileMeta>,
    by_name: HashMap<String, u64>,
    next_id: u64,
    alloc_cursor: u64,
    free_extents: std::collections::VecDeque<Extent>,
    capacity_pages: u64,
    extent_pages: u64,
    /// Cycling cursor into the reserved journal region.
    journal_cursor: u64,
}

impl SimFs {
    /// Mounts a fresh file system over `device` with the given profile.
    pub fn new(device: DeviceHandle, costs: KernelCosts, profile: FsProfile) -> Self {
        // The file system cycles through the whole logical space before
        // reusing freed segments (log-structured allocation: fresh
        // sections first, oldest-freed next — never hot-reuse). The top
        // JOURNAL_LBAS pages are reserved for journal/node blocks.
        let blocks = device
            .lock()
            .expect("device mutex poisoned")
            .capacity_blocks();
        let capacity_pages = (blocks - JOURNAL_LBAS) * 95 / 100;
        SimFs {
            device,
            costs,
            profile,
            // Dirty limit ≈ 10% of device size, a vm.dirty_ratio stand-in.
            cache: PageCache::new((capacity_pages / 10).max(64) as usize),
            journal: FcfsServer::new(),
            files: HashMap::new(),
            by_name: HashMap::new(),
            next_id: 1,
            alloc_cursor: 0,
            free_extents: std::collections::VecDeque::new(),
            capacity_pages,
            extent_pages: (capacity_pages / 16).clamp(16, EXTENT_PAGES_MAX),
            journal_cursor: 0,
        }
    }

    /// The mounted profile ("ext4"/"f2fs").
    pub fn profile(&self) -> &FsProfile {
        &self.profile
    }

    /// Page-cache statistics access.
    pub fn cache(&self) -> &PageCache {
        &self.cache
    }

    /// The underlying device handle.
    pub fn device(&self) -> &DeviceHandle {
        &self.device
    }

    /// Creates (or truncates) a file and returns its descriptor.
    pub fn create(&mut self, name: &str) -> Result<Fd, FsError> {
        if let Some(&id) = self.by_name.get(name) {
            // Truncate existing.
            self.truncate_inner(id)?;
            return Ok(Fd(id));
        }
        let id = self.next_id;
        self.next_id += 1;
        self.files.insert(
            id,
            FileMeta {
                name: name.to_string(),
                extents: Vec::new(),
                size_bytes: 0,
            },
        );
        self.by_name.insert(name.to_string(), id);
        Ok(Fd(id))
    }

    /// Opens an existing file.
    pub fn open(&self, name: &str) -> Result<Fd, FsError> {
        self.by_name
            .get(name)
            .map(|&id| Fd(id))
            .ok_or_else(|| FsError::NotFound(name.to_string()))
    }

    /// Current size of the file in bytes.
    pub fn size(&self, fd: Fd) -> Result<u64, FsError> {
        self.files
            .get(&fd.0)
            .map(|m| m.size_bytes)
            .ok_or(FsError::BadFd(fd))
    }

    /// Lists file names (diagnostics).
    pub fn list(&self) -> Vec<String> {
        let mut v: Vec<String> = self.by_name.keys().cloned().collect();
        v.sort();
        v
    }

    fn alloc_extent(&mut self) -> Result<Extent, FsError> {
        // Fresh space first, then oldest-freed extents (log-structured
        // allocators cycle through segments rather than hot-reusing the
        // just-freed ones). The delay between free and reuse is what
        // leaves stale-but-unoverwritten pages inside GC victims.
        if self.alloc_cursor + self.extent_pages <= self.capacity_pages {
            let e = Extent {
                lba: self.alloc_cursor,
                pages: self.extent_pages,
            };
            self.alloc_cursor += self.extent_pages;
            return Ok(e);
        }
        if let Some(e) = self.free_extents.pop_front() {
            return Ok(e);
        }
        Err(FsError::OutOfSpace)
    }

    fn ensure_pages(&mut self, id: u64, pages_needed: u64) -> Result<(), FsError> {
        loop {
            let have: u64 = self.files[&id].extents.iter().map(|e| e.pages).sum();
            if have >= pages_needed {
                return Ok(());
            }
            let e = self.alloc_extent()?;
            self.files.get_mut(&id).unwrap().extents.push(e);
        }
    }

    /// Translates a file page index to a device LBA.
    fn lba_of(&self, id: u64, page: u64) -> Option<u64> {
        let meta = self.files.get(&id)?;
        let mut remaining = page;
        for e in &meta.extents {
            if remaining < e.pages {
                return Some(e.lba + remaining);
            }
            remaining -= e.pages;
        }
        None
    }

    /// Buffered `write()` of `len` bytes at byte `offset`.
    ///
    /// `data`, when present, must be `len` bytes. Returns the timing
    /// breakdown; the caller resumes at `done_at`.
    pub fn write(
        &mut self,
        fd: Fd,
        offset: u64,
        len: u64,
        data: Option<&[u8]>,
        now: SimTime,
    ) -> Result<WriteOutcome, FsError> {
        let id = fd.0;
        if !self.files.contains_key(&id) {
            return Err(FsError::BadFd(fd));
        }
        if let Some(d) = data {
            debug_assert_eq!(d.len() as u64, len, "payload length mismatch");
        }
        let first_page = offset / LBA_BYTES as u64;
        let last_page = (offset + len).div_ceil(LBA_BYTES as u64);
        let pages = (last_page - first_page).max(1);
        self.ensure_pages(id, last_page)?;

        // 1. Syscall entry + user→kernel copy.
        let syscall_cpu = self.costs.write_syscall(pages);
        let mut t = now + syscall_cpu;

        // 2. File-system write path: the journal/transaction lock is held
        //    only for the logged metadata updates; the bulk of the FS CPU
        //    (allocation, tree updates, checksums) runs outside it.
        let fs_cpu = self.profile.cpu(pages);
        let hold = self.profile.journal_hold(pages);
        let (start, end) = self.journal.serve(t, hold);
        let journal_wait = start - t;
        t = end + fs_cpu;

        // 3. Dirty the cache.
        for p in first_page..last_page.max(first_page + 1) {
            let page_data = data.map(|d| {
                let mut page_buf = self.cached_page_or_zeroes(id, p);
                let page_start = p * LBA_BYTES as u64;
                let from = offset.max(page_start);
                let to = (offset + len).min(page_start + LBA_BYTES as u64);
                let src = &d[(from - offset) as usize..(to - offset) as usize];
                page_buf[(from - page_start) as usize..(to - page_start) as usize]
                    .copy_from_slice(src);
                page_buf
            });
            self.cache.write_page((id, p), page_data.as_deref());
        }

        // 4. Background writeback (the kworker): once the dirty set passes
        //    the background threshold, each write kicks out one batch —
        //    device time is charged but the writer does not wait. This is
        //    what interleaves WAL, snapshot, and backup pages on the
        //    device (the §3.1.4 lifetime mixing on conventional SSDs).
        if self.cache.dirty_count() >= self.cache.dirty_limit() / 2 {
            let _ = self.writeback_batch(t)?;
        }
        // 5. Hard throttle if the dirty set exceeds the limit: synchronous
        //    writeback at device speed (the §3.1.3 blocking).
        let mut throttle_wait = SimTime::ZERO;
        while self.cache.over_limit() {
            let wb_done = self.writeback_batch(t)?;
            throttle_wait += wb_done.saturating_sub(t);
            t = t.max(wb_done);
        }

        let meta = self.files.get_mut(&id).unwrap();
        meta.size_bytes = meta.size_bytes.max(offset + len);

        Ok(WriteOutcome {
            done_at: t,
            syscall_cpu,
            fs_cpu,
            journal_wait,
            throttle_wait,
        })
    }

    /// Vectored `writev()`: writes `bufs` back to back starting at byte
    /// `offset`, charging ONE syscall entry and ONE journal acquisition
    /// for the whole gather list. This is the kernel half of group
    /// commit: a batch of WAL records costs the syscall + journal-lock
    /// price of a single write, however many buffers carry it.
    pub fn writev(
        &mut self,
        fd: Fd,
        offset: u64,
        bufs: &[&[u8]],
        now: SimTime,
    ) -> Result<WriteOutcome, FsError> {
        let id = fd.0;
        if !self.files.contains_key(&id) {
            return Err(FsError::BadFd(fd));
        }
        let len: u64 = bufs.iter().map(|b| b.len() as u64).sum();
        let first_page = offset / LBA_BYTES as u64;
        let last_page = (offset + len).div_ceil(LBA_BYTES as u64);
        let pages = (last_page - first_page).max(1);
        self.ensure_pages(id, last_page)?;

        // 1. One syscall entry + user→kernel copy for the whole vector.
        let syscall_cpu = self.costs.write_syscall(pages);
        let mut t = now + syscall_cpu;

        // 2. One journal acquisition covers every buffer in the batch.
        let fs_cpu = self.profile.cpu(pages);
        let hold = self.profile.journal_hold(pages);
        let (start, end) = self.journal.serve(t, hold);
        let journal_wait = start - t;
        t = end + fs_cpu;

        // 3. Dirty the cache, each buffer at its running offset.
        let mut buf_off = offset;
        for d in bufs {
            let buf_len = d.len() as u64;
            if buf_len == 0 {
                continue;
            }
            let first = buf_off / LBA_BYTES as u64;
            let last = (buf_off + buf_len).div_ceil(LBA_BYTES as u64);
            for p in first..last {
                let mut page_buf = self.cached_page_or_zeroes(id, p);
                let page_start = p * LBA_BYTES as u64;
                let from = buf_off.max(page_start);
                let to = (buf_off + buf_len).min(page_start + LBA_BYTES as u64);
                let src = &d[(from - buf_off) as usize..(to - buf_off) as usize];
                page_buf[(from - page_start) as usize..(to - page_start) as usize]
                    .copy_from_slice(src);
                self.cache.write_page((id, p), Some(&page_buf[..]));
            }
            buf_off += buf_len;
        }

        // 4/5. Background writeback and the dirty-limit throttle behave
        //    exactly as in `write`.
        if self.cache.dirty_count() >= self.cache.dirty_limit() / 2 {
            let _ = self.writeback_batch(t)?;
        }
        let mut throttle_wait = SimTime::ZERO;
        while self.cache.over_limit() {
            let wb_done = self.writeback_batch(t)?;
            throttle_wait += wb_done.saturating_sub(t);
            t = t.max(wb_done);
        }

        let meta = self.files.get_mut(&id).unwrap();
        meta.size_bytes = meta.size_bytes.max(offset + len);

        Ok(WriteOutcome {
            done_at: t,
            syscall_cpu,
            fs_cpu,
            journal_wait,
            throttle_wait,
        })
    }

    fn cached_page_or_zeroes(&mut self, id: u64, page: u64) -> Box<[u8]> {
        match self.cache.peek_page((id, page)) {
            Some(Some(d)) => d.into(),
            _ => vec![0u8; LBA_BYTES].into_boxed_slice(),
        }
    }

    /// Writes one batch of dirty pages to the device in paced chunks;
    /// returns completion of the batch. On a persistent device error the
    /// pages that never reached media go back into the dirty set — the
    /// cache must not lose data it already took responsibility for.
    fn writeback_batch(&mut self, now: SimTime) -> Result<SimTime, FsError> {
        let batch = self.cache.take_dirty(WRITEBACK_BATCH);
        if batch.is_empty() {
            return Ok(now);
        }
        let mut cursor = now;
        let mut failed: Option<(usize, DeviceError)> = None;
        {
            let mut dev = self.device.lock().expect("device mutex poisoned");
            'batch: for (ci, chunk) in batch.chunks(WB_CHUNK).enumerate() {
                let mut chunk_done = cursor;
                for (i, ((file, page), data)) in chunk.iter().enumerate() {
                    let Some(lba) = self.lba_of(*file, *page) else {
                        continue; // file deleted while dirty
                    };
                    match write_page_retrying(&mut dev, lba, data.as_deref(), cursor) {
                        Ok(c) => chunk_done = chunk_done.max(c.done_at),
                        Err(e) => {
                            failed = Some((ci * WB_CHUNK + i, e));
                            break 'batch;
                        }
                    }
                }
                cursor = chunk_done;
            }
        }
        if let Some((idx, e)) = failed {
            for ((file, page), data) in &batch[idx..] {
                self.cache.write_page((*file, *page), data.as_deref());
            }
            return Err(FsError::Device(e));
        }
        Ok(cursor)
    }

    /// `fsync()`: flushes the file's dirty pages, then writes the
    /// journal/node blocks that make the transaction durable — the serial
    /// metadata chain that dominates fsync latency on journaling file
    /// systems.
    pub fn fsync(&mut self, fd: Fd, now: SimTime) -> Result<WriteOutcome, FsError> {
        let id = fd.0;
        if !self.files.contains_key(&id) {
            return Err(FsError::BadFd(fd));
        }
        let syscall_cpu = self.costs.syscall_fixed + self.costs.fsync_fixed;
        let t = now + syscall_cpu;
        // The journal lock is taken up front (transaction open); holding
        // it is brief — the data/metadata writes proceed outside it.
        let hold = self.profile.journal_hold(1);
        let (start, end) = self.journal.serve(t, hold);
        let journal_wait = start - t;
        let dirty = self.cache.take_dirty_of_file(id);
        let mut done;
        let mut failed: Option<(usize, DeviceError)> = None;
        {
            let mut dev = self.device.lock().expect("device mutex poisoned");
            // Data writeback, paced per chunk.
            let mut cursor = end;
            'data: for (ci, chunk) in dirty.chunks(WB_CHUNK).enumerate() {
                let mut chunk_done = cursor;
                for (i, ((_, page), data)) in chunk.iter().enumerate() {
                    let Some(lba) = self.lba_of(id, *page) else {
                        continue;
                    };
                    match write_page_retrying(&mut dev, lba, data.as_deref(), cursor) {
                        Ok(c) => chunk_done = chunk_done.max(c.done_at),
                        Err(e) => {
                            failed = Some((ci * WB_CHUNK + i, e));
                            break 'data;
                        }
                    }
                }
                cursor = chunk_done;
            }
            done = cursor;
            if failed.is_none() {
                // Serial journal/node writes: each depends on the previous.
                let journal_base = self.capacity_pages;
                for _ in 0..self.profile.fsync_journal_pages {
                    let lba = journal_base + (self.journal_cursor % JOURNAL_LBAS);
                    self.journal_cursor += 1;
                    match write_page_retrying(&mut dev, lba, None, done) {
                        Ok(c) => done = c.done_at,
                        // Data pages all reached media; only the journal
                        // commit failed, so nothing needs re-dirtying.
                        Err(e) => {
                            failed = Some((dirty.len(), e));
                            break;
                        }
                    }
                }
            }
        }
        if let Some((idx, e)) = failed {
            for ((_, page), data) in &dirty[idx..] {
                self.cache.write_page((id, *page), data.as_deref());
            }
            return Err(FsError::Device(e));
        }
        Ok(WriteOutcome {
            done_at: done,
            syscall_cpu,
            fs_cpu: self.profile.cpu_per_op,
            journal_wait,
            throttle_wait: SimTime::ZERO,
        })
    }

    /// Buffered `read()` of `len` bytes at byte `offset`. Returns the data
    /// (when the device stores payloads) and the completion time.
    pub fn read(
        &mut self,
        fd: Fd,
        offset: u64,
        len: u64,
        now: SimTime,
    ) -> Result<(Option<Vec<u8>>, WriteOutcome), FsError> {
        let id = fd.0;
        let meta = self.files.get(&id).ok_or(FsError::BadFd(fd))?;
        let len = len.min(meta.size_bytes.saturating_sub(offset));
        let first_page = offset / LBA_BYTES as u64;
        let last_page = (offset + len)
            .div_ceil(LBA_BYTES as u64)
            .max(first_page + 1);
        let pages = last_page - first_page;
        let syscall_cpu = self.costs.read_syscall(pages);
        let mut t = now + syscall_cpu;
        let mut buf: Option<Vec<u8>> = None;

        for p in first_page..last_page {
            // Readahead planning happens per leading page of the request.
            if let Some((ra_start, ra_len)) = self.cache.plan_readahead(id, p) {
                self.prefetch(id, ra_start, ra_len, t)?;
            }
            let hit = self.cache.contains((id, p));
            if !hit {
                // Demand miss: synchronous device read.
                let Some(lba) = self.lba_of(id, p) else {
                    continue;
                };
                let (done, data) = self.device.submit(Command::Read { lba, blocks: 1 }, t);
                t = t.max(done);
                self.cache
                    .fill_page((id, p), data.into_result()?.as_deref());
            }
            if let Some(Some(d)) = self.cache.read_page((id, p)) {
                let page_start = p * LBA_BYTES as u64;
                let from = offset.max(page_start);
                let to = (offset + len).min(page_start + LBA_BYTES as u64);
                let out = buf.get_or_insert_with(|| vec![0u8; len as usize]);
                out[(from - offset) as usize..(to - offset) as usize]
                    .copy_from_slice(&d[(from - page_start) as usize..(to - page_start) as usize]);
            }
        }
        Ok((
            buf,
            WriteOutcome {
                done_at: t,
                syscall_cpu,
                fs_cpu: SimTime::ZERO,
                journal_wait: SimTime::ZERO,
                throttle_wait: SimTime::ZERO,
            },
        ))
    }

    /// Prefetches `len` pages starting at `start` (asynchronously: device
    /// time is charged, the caller does not block).
    fn prefetch(&mut self, id: u64, start: u64, len: u64, now: SimTime) -> Result<(), FsError> {
        let meta = match self.files.get(&id) {
            Some(m) => m,
            None => return Ok(()),
        };
        let file_pages = meta.size_bytes.div_ceil(LBA_BYTES as u64);
        let end = (start + len).min(file_pages);
        for p in start..end {
            if self.cache.contains((id, p)) {
                continue;
            }
            let Some(lba) = self.lba_of(id, p) else {
                continue;
            };
            let (_, data) = self.device.submit(Command::Read { lba, blocks: 1 }, now);
            self.cache
                .fill_page((id, p), data.into_result()?.as_deref());
        }
        Ok(())
    }

    fn truncate_inner(&mut self, id: u64) -> Result<(), FsError> {
        self.cache.evict_file(id);
        let meta = self.files.get_mut(&id).unwrap();
        let extents = std::mem::take(&mut meta.extents);
        meta.size_bytes = 0;
        // Deliberately NO device deallocation here: file systems issue
        // discards lazily, batched, or not at all under sustained load, so
        // the FTL keeps treating deleted files' pages as valid until their
        // LBAs are overwritten — the §3.1.4 "insufficient mechanisms" gap
        // that inflates the baseline's WAF. (SlimIO's passthru path
        // deallocates superseded regions explicitly and promptly.) Freed
        // extents are reused LIFO, so invalidation happens by overwrite.
        self.free_extents.extend(extents);
        Ok(())
    }

    /// Deletes a file, trimming its extents on the device.
    pub fn delete(&mut self, name: &str, _now: SimTime) -> Result<(), FsError> {
        let id = self
            .by_name
            .remove(name)
            .ok_or_else(|| FsError::NotFound(name.to_string()))?;
        self.truncate_inner(id)?;
        self.files.remove(&id);
        Ok(())
    }

    /// Renames a file (used for atomic snapshot replacement, like Redis's
    /// `rename(2)` of the temp RDB file).
    pub fn rename(&mut self, from: &str, to: &str) -> Result<(), FsError> {
        let id = self
            .by_name
            .remove(from)
            .ok_or_else(|| FsError::NotFound(from.to_string()))?;
        if let Some(old) = self.by_name.remove(to) {
            self.truncate_inner(old)?;
            self.files.remove(&old);
        }
        self.by_name.insert(to.to_string(), id);
        if let Some(m) = self.files.get_mut(&id) {
            m.name = to.to_string();
        }
        Ok(())
    }

    /// Total journal busy time so far (contention diagnostics).
    pub fn journal_busy(&self) -> SimTime {
        self.journal.busy_time()
    }

    /// Simulates a power cut at the file-system level: the (volatile) page
    /// cache is lost — dirty pages that were never written back vanish —
    /// while file metadata survives (it is journaled) and device contents
    /// persist. Reads of never-persisted ranges return zeroes, exactly the
    /// torn-tail behaviour crash-recovery code must cope with.
    pub fn crash(&mut self) {
        let limit = self.cache.dirty_limit();
        self.cache = PageCache::new(limit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimio_ftl::PlacementMode;
    use slimio_nvme::DeviceConfig;

    fn fs() -> SimFs {
        let dev = DeviceHandle::new(DeviceConfig::tiny(PlacementMode::Conventional));
        SimFs::new(dev, KernelCosts::default(), FsProfile::f2fs())
    }

    #[test]
    fn create_write_read_roundtrip() {
        let mut f = fs();
        let fd = f.create("wal.log").unwrap();
        let data = vec![0x42u8; 10_000];
        let w = f
            .write(fd, 0, data.len() as u64, Some(&data), SimTime::ZERO)
            .unwrap();
        assert!(w.done_at > SimTime::ZERO);
        let (out, _) = f.read(fd, 0, data.len() as u64, w.done_at).unwrap();
        assert_eq!(out.unwrap(), data);
    }

    #[test]
    fn writev_matches_serial_writes_and_charges_one_journal_pass() {
        // Data: a writev of N buffers must leave the file identical to N
        // back-to-back writes.
        let mut f = fs();
        let fd = f.create("wal.log").unwrap();
        let bufs: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i + 1; 1500]).collect();
        let refs: Vec<&[u8]> = bufs.iter().map(|b| b.as_slice()).collect();
        let w = f.writev(fd, 0, &refs, SimTime::ZERO).unwrap();
        let total: u64 = bufs.iter().map(|b| b.len() as u64).sum();
        let (out, _) = f.read(fd, 0, total, w.done_at).unwrap();
        let flat: Vec<u8> = bufs.concat();
        assert_eq!(out.unwrap(), flat);

        // Cost: one gather write charges a single syscall + journal hold
        // over the total page count, so it finishes strictly sooner than
        // the same bytes as per-buffer writes.
        let mut serial = fs();
        let fd2 = serial.create("wal.log").unwrap();
        let mut t = SimTime::ZERO;
        let mut off = 0u64;
        for b in &bufs {
            let o = serial.write(fd2, off, b.len() as u64, Some(b), t).unwrap();
            t = o.done_at;
            off += b.len() as u64;
        }
        assert!(
            w.done_at < t,
            "writev ({:?}) must beat {} serial writes ({t:?})",
            w.done_at,
            bufs.len()
        );
    }

    #[test]
    fn unaligned_writes_preserve_neighbors() {
        let mut f = fs();
        let fd = f.create("x").unwrap();
        f.write(fd, 0, 8192, Some(&vec![1u8; 8192]), SimTime::ZERO)
            .unwrap();
        // Overwrite bytes 100..200 only.
        f.write(fd, 100, 100, Some(&[9u8; 100]), SimTime::ZERO)
            .unwrap();
        let (out, _) = f.read(fd, 0, 8192, SimTime::ZERO).unwrap();
        let out = out.unwrap();
        assert_eq!(out[99], 1);
        assert_eq!(out[100], 9);
        assert_eq!(out[199], 9);
        assert_eq!(out[200], 1);
    }

    #[test]
    fn fsync_persists_to_device() {
        let mut f = fs();
        let fd = f.create("rdb").unwrap();
        let data = vec![7u8; LBA_BYTES * 3];
        f.write(fd, 0, data.len() as u64, Some(&data), SimTime::ZERO)
            .unwrap();
        let before = f.device().telemetry().live_pages;
        let s = f.fsync(fd, SimTime::ZERO).unwrap();
        let after = f.device().telemetry().live_pages;
        assert!(
            after > before,
            "fsync should program pages: {before} -> {after}"
        );
        assert!(s.done_at >= SimTime::from_micros(200), "must wait for NAND");
    }

    #[test]
    fn buffered_write_is_fast_fsync_is_slow() {
        let mut f = fs();
        let fd = f.create("w").unwrap();
        let data = vec![1u8; LBA_BYTES];
        let w = f
            .write(fd, 0, LBA_BYTES as u64, Some(&data), SimTime::ZERO)
            .unwrap();
        // Buffered write: microseconds (no NAND wait).
        assert!(w.done_at < SimTime::from_micros(50), "{:?}", w.done_at);
        let s = f.fsync(fd, w.done_at).unwrap();
        assert!(s.done_at - w.done_at >= SimTime::from_micros(200));
    }

    #[test]
    fn journal_serializes_two_writers() {
        let mut f = fs();
        let a = f.create("wal").unwrap();
        let b = f.create("rdb").unwrap();
        // Two "processes" write at the same instant; the second must wait
        // for the journal.
        let w1 = f.write(a, 0, 4096, None, SimTime::ZERO).unwrap();
        let w2 = f.write(b, 0, 4096, None, SimTime::ZERO).unwrap();
        assert_eq!(w1.journal_wait, SimTime::ZERO);
        assert!(w2.journal_wait > SimTime::ZERO, "{w2:?}");
    }

    #[test]
    fn delete_frees_space_for_reuse() {
        let mut f = fs();
        let fd = f.create("a").unwrap();
        f.write(fd, 0, 64 * LBA_BYTES as u64, None, SimTime::ZERO)
            .unwrap();
        f.delete("a", SimTime::ZERO).unwrap();
        assert!(f.open("a").is_err());
        // Recreate and write again — reuses the freed extent.
        let fd2 = f.create("b").unwrap();
        f.write(fd2, 0, 4096, None, SimTime::ZERO).unwrap();
        assert_eq!(f.list(), vec!["b".to_string()]);
    }

    #[test]
    fn rename_replaces_target() {
        let mut f = fs();
        let a = f.create("temp-rdb").unwrap();
        f.write(a, 0, 4096, Some(&vec![5u8; 4096]), SimTime::ZERO)
            .unwrap();
        let old = f.create("dump.rdb").unwrap();
        f.write(old, 0, 4096, Some(&vec![1u8; 4096]), SimTime::ZERO)
            .unwrap();
        f.rename("temp-rdb", "dump.rdb").unwrap();
        let fd = f.open("dump.rdb").unwrap();
        let (out, _) = f.read(fd, 0, 4096, SimTime::ZERO).unwrap();
        assert!(out.unwrap().iter().all(|&b| b == 5));
        assert!(f.open("temp-rdb").is_err());
    }

    #[test]
    fn sequential_reads_warm_the_cache() {
        let mut f = fs();
        let fd = f.create("big").unwrap();
        let total = 64 * LBA_BYTES as u64;
        f.write(
            fd,
            0,
            total,
            Some(&vec![3u8; total as usize]),
            SimTime::ZERO,
        )
        .unwrap();
        f.fsync(fd, SimTime::ZERO).unwrap();
        // Evict to simulate a cold restart, then stream sequentially.
        f.cache.evict_file(fd.0);
        for p in 0..64u64 {
            f.read(fd, p * LBA_BYTES as u64, LBA_BYTES as u64, SimTime::ZERO)
                .unwrap();
        }
        let hits = f.cache().hits();
        let misses = f.cache().misses();
        assert!(
            hits > misses,
            "readahead should make most sequential reads hits: {hits} hits / {misses} misses"
        );
    }

    #[test]
    fn dirty_throttling_kicks_in() {
        // A single burst larger than the dirty limit must hard-throttle
        // (background writeback can only drain one batch per call).
        let mut f = fs();
        let fd = f.create("burst").unwrap();
        let limit = f.cache.dirty_limit() as u64;
        let w = f
            .write(fd, 0, limit * 4 * LBA_BYTES as u64, None, SimTime::ZERO)
            .unwrap();
        assert!(w.throttle_wait > SimTime::ZERO, "no throttling observed");
        // Steady drip stays under the hard limit thanks to background
        // writeback: no further throttling.
        let mut throttled = SimTime::ZERO;
        let mut t = w.done_at;
        for i in 0..limit {
            let o = f
                .write(fd, i * LBA_BYTES as u64, LBA_BYTES as u64, None, t)
                .unwrap();
            throttled += o.throttle_wait;
            t = o.done_at;
        }
        assert_eq!(throttled, SimTime::ZERO, "background writeback failed");
    }

    #[test]
    fn read_past_eof_is_clamped() {
        let mut f = fs();
        let fd = f.create("s").unwrap();
        f.write(fd, 0, 100, Some(&[1u8; 100]), SimTime::ZERO)
            .unwrap();
        let (out, _) = f.read(fd, 0, 10_000, SimTime::ZERO).unwrap();
        assert_eq!(out.unwrap().len(), 100);
        assert_eq!(f.size(fd).unwrap(), 100);
    }
}
