//! Resource governance for the live path: the bounded writer admission
//! queue and the counters behind `INFO`'s `# Resources` section and the
//! governor series of `/metrics` (one registry handle each, two renderings).
//!
//! The paper's write-isolation argument only holds if persistence
//! pressure cannot grow unbounded state inside the server: every queue on
//! the live path must have a cap and a policy for what happens at the
//! cap. The [`Governor`] owns the first of those queues — admission into
//! the single writer thread — and the shared accounting for the rest
//! (refused writes, evicted slow consumers, memory high-water marks).
//!
//! Admission works like a counting semaphore with a deadline: a
//! connection thread reserves a slot before sending a client command to
//! the writer; when the queue is full it parks on a condvar until a slot
//! frees, the deadline lapses (reply `-BUSY`, nothing enqueued), or the
//! server stops. The writer releases slots as it drains requests into a
//! batch, so total queued work is bounded by `queue_cap` plus one
//! in-flight batch — a constant, not a function of client count or
//! device speed. Replication applies (`ReplSet`/`ReplApply`) bypass
//! admission: the link thread ships one request at a time and waits for
//! its ack, so it is self-limiting, and starving it under client flood
//! would stall the replica exactly when it most needs to keep up.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use slimio_metrics::{Counter, IntGauge, Registry};

/// Recovers a mutex guard even when a panicking thread poisoned the lock.
/// Every governed structure keeps its invariants across panics (counters
/// and vecs are valid after any partial update), so inheriting the
/// poisoned state is always safe — and a crashed connection thread must
/// never take `INFO` or the accept path down with it.
pub(crate) fn lock_ok<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Tuning knobs for the governor, mirrored from `ServerOpts`.
#[derive(Clone, Copy, Debug)]
pub struct GovernorOpts {
    /// Most client commands queued to the writer at once. Further sends
    /// park up to [`GovernorOpts::admit_park`] and are then refused.
    pub queue_cap: usize,
    /// How long a connection thread parks for a queue slot before the
    /// command is refused with `-BUSY`.
    pub admit_park: Duration,
    /// Engine memory bound in bytes; 0 disables the check. Writes that
    /// would grow the engine past this refuse with `-OOM`; reads and
    /// deletes keep flowing.
    pub maxmemory: u64,
    /// Reply bytes a connection may accumulate before it is flushed
    /// mid-burst (turning memory growth into socket backpressure).
    pub reply_buf_soft_limit: usize,
    /// How long a client socket may refuse reply bytes before the
    /// connection is evicted.
    pub client_write_stall: Duration,
    /// Most bytes a replica may lag (unacked stream + queued feed
    /// segments) before the primary evicts it; 0 disables eviction.
    pub repl_feed_limit: u64,
    /// Most writer replies one connection may have outstanding before it
    /// must drain them; bounds per-connection parked-reply memory for
    /// arbitrarily deep client pipelines.
    pub conn_inflight_cap: usize,
}

impl Default for GovernorOpts {
    fn default() -> Self {
        GovernorOpts {
            queue_cap: 4096,
            admit_park: Duration::from_millis(50),
            maxmemory: 0,
            reply_buf_soft_limit: 256 << 10,
            client_write_stall: Duration::from_secs(5),
            repl_feed_limit: 64 << 20,
            conn_inflight_cap: 512,
        }
    }
}

/// One shard's admission gate: a counting semaphore slice of the global
/// writer queue, with its own refusal accounting so `INFO # Shards` can
/// attribute `-BUSY` pressure to the shard that caused it.
pub(crate) struct ShardGate {
    /// Client commands currently reserved into this shard's queue. The
    /// semaphore itself, so it lives under the lock the condvar needs;
    /// `/metrics` samples it at scrape time.
    depth: Mutex<usize>,
    /// Signaled whenever this shard's writer releases queue slots.
    freed: Condvar,
    /// Slots this shard may hold (its slice of `queue_cap`); set once.
    pub(crate) cap: Arc<IntGauge>,
    /// High-water mark of this shard's queue depth.
    pub(crate) hwm: Arc<IntGauge>,
    /// Commands refused with `-BUSY` at this shard's gate.
    pub(crate) busy: Arc<Counter>,
}

/// Shared resource accounting: per-shard admission gates plus the
/// overload counters `INFO # Resources` and `/metrics` both render. Every
/// count is a handle into the server's metrics registry — the only copy.
pub(crate) struct Governor {
    opts: GovernorOpts,
    /// One admission gate per writer shard; a single-shard server has one
    /// gate holding the whole `queue_cap`.
    pub(crate) gates: Vec<ShardGate>,
    /// Connection threads currently parked (admission or WAIT).
    pub(crate) blocked_clients: Arc<IntGauge>,
    /// Commands refused with `-BUSY` (admission deadline lapsed).
    pub(crate) busy_refused: Arc<Counter>,
    /// Writes refused with `-OOM` (`maxmemory` reached).
    pub(crate) oom_refused: Arc<Counter>,
    /// Clients disconnected for not draining their replies.
    pub(crate) evicted_clients: Arc<Counter>,
    /// Replicas disconnected for lagging past the feed limit.
    pub(crate) evicted_replicas: Arc<Counter>,
    /// Engine governed bytes across all shards, mirrored by each writer
    /// after each batch.
    pub(crate) engine_bytes: Arc<IntGauge>,
    /// High-water mark of `engine_bytes`.
    pub(crate) engine_hwm: Arc<IntGauge>,
}

impl Governor {
    pub(crate) fn new(opts: GovernorOpts, shards: usize, r: &Registry) -> Self {
        let shards = shards.max(1);
        let cap = (opts.queue_cap / shards).max(1);
        let gates = (0..shards)
            .map(|i| {
                let shard = i.to_string();
                let labels: &[(&str, &str)] = &[("shard", &shard)];
                let gate = ShardGate {
                    depth: Mutex::new(0),
                    freed: Condvar::new(),
                    cap: r.int_gauge("slimio_shard_queue_cap", labels, "Admission-gate capacity"),
                    hwm: r.int_gauge(
                        "slimio_shard_queue_hwm",
                        labels,
                        "Admission-gate depth high-water mark",
                    ),
                    busy: r.counter(
                        "slimio_shard_busy_refused_total",
                        labels,
                        "-BUSY refusals at this shard's gate",
                    ),
                };
                gate.cap.set(cap as u64);
                gate
            })
            .collect();
        Governor {
            opts,
            gates,
            blocked_clients: r.int_gauge(
                "slimio_blocked_clients",
                &[],
                "Connection threads parked (admission or WAIT)",
            ),
            busy_refused: r.counter(
                "slimio_busy_refused_total",
                &[],
                "Commands refused with -BUSY",
            ),
            oom_refused: r.counter("slimio_oom_refused_total", &[], "Writes refused with -OOM"),
            evicted_clients: r.counter(
                "slimio_evicted_clients_total",
                &[],
                "Slow clients disconnected",
            ),
            evicted_replicas: r.counter(
                "slimio_evicted_replicas_total",
                &[],
                "Replicas disconnected for lag",
            ),
            engine_bytes: r.int_gauge("slimio_engine_bytes", &[], "Governed engine bytes"),
            engine_hwm: r.int_gauge(
                "slimio_engine_peak_bytes",
                &[],
                "High-water mark of governed engine bytes",
            ),
        }
    }

    pub(crate) fn opts(&self) -> &GovernorOpts {
        &self.opts
    }

    /// Reserves one writer-queue slot at shard `shard`'s gate, parking up
    /// to the admission deadline when that gate is full. Returns false —
    /// and counts a `-BUSY` refusal against the shard — when no slot
    /// freed in time or the server began stopping; the caller must answer
    /// the command locally without enqueueing it.
    pub(crate) fn admit(&self, shard: usize, stopping: &AtomicBool) -> bool {
        let gate = &self.gates[shard];
        let cap = gate.cap.get() as usize;
        let mut depth = lock_ok(&gate.depth);
        if *depth >= cap {
            let deadline = Instant::now() + self.opts.admit_park;
            self.blocked_clients.inc();
            while *depth >= cap {
                let now = Instant::now();
                if now >= deadline || stopping.load(Ordering::SeqCst) {
                    self.blocked_clients.dec();
                    self.busy_refused.inc();
                    gate.busy.inc();
                    return false;
                }
                let (guard, _) = gate
                    .freed
                    .wait_timeout(depth, deadline - now)
                    .unwrap_or_else(|p| p.into_inner());
                depth = guard;
            }
            self.blocked_clients.dec();
        }
        *depth += 1;
        gate.hwm.set_max(*depth as u64);
        true
    }

    /// Reserves one slot at every gate in `shards` (ascending, so two
    /// split commands can never deadlock on each other); on the first
    /// refusal the slots already taken are rolled back and the whole
    /// admission fails. Used for multi-key commands that span shards —
    /// either every involved shard accepts its piece or none does.
    pub(crate) fn admit_all(&self, shards: &[usize], stopping: &AtomicBool) -> bool {
        debug_assert!(shards.windows(2).all(|w| w[0] < w[1]));
        for (i, &s) in shards.iter().enumerate() {
            if !self.admit(s, stopping) {
                for &taken in &shards[..i] {
                    self.release(taken, 1);
                }
                return false;
            }
        }
        true
    }

    /// Returns `n` queue slots to shard `shard`'s gate (the shard's
    /// writer, as it drains requests into a batch) and wakes parked
    /// connection threads.
    pub(crate) fn release(&self, shard: usize, n: usize) {
        if n == 0 {
            return;
        }
        let gate = &self.gates[shard];
        let mut depth = lock_ok(&gate.depth);
        *depth = depth.saturating_sub(n);
        drop(depth);
        gate.freed.notify_all();
    }

    /// Wakes every parked admission so it re-checks its `stopping` flag
    /// now. Raise the flag first: passing through each gate's lock orders
    /// the wake-up after any waiter's last look at the flag, so none can
    /// miss both.
    pub(crate) fn wake_parked(&self) {
        for gate in &self.gates {
            drop(lock_ok(&gate.depth));
            gate.freed.notify_all();
        }
    }

    /// Current depth of one shard's gate.
    pub(crate) fn shard_depth(&self, shard: usize) -> usize {
        *lock_ok(&self.gates[shard].depth)
    }

    /// True when a write of `incoming` more engine bytes must be refused
    /// with `-OOM`. Counts the refusal when it answers true.
    pub(crate) fn refuse_oom(&self, governed_now: u64, incoming: u64) -> bool {
        if self.opts.maxmemory == 0 || governed_now.saturating_add(incoming) <= self.opts.maxmemory
        {
            return false;
        }
        self.oom_refused.inc();
        true
    }

    /// Mirrors the engine's governed byte count (writer, once per batch).
    pub(crate) fn record_engine_bytes(&self, bytes: u64) {
        self.engine_bytes.set(bytes);
        self.engine_hwm.set_max(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gov(cap: usize, park_ms: u64) -> Governor {
        Governor::new(
            GovernorOpts {
                queue_cap: cap,
                admit_park: Duration::from_millis(park_ms),
                ..GovernorOpts::default()
            },
            1,
            &Registry::new(),
        )
    }

    #[test]
    fn admission_bounds_depth_and_counts_refusals() {
        let g = gov(2, 10);
        let stop = AtomicBool::new(false);
        assert!(g.admit(0, &stop));
        assert!(g.admit(0, &stop));
        let t0 = Instant::now();
        assert!(!g.admit(0, &stop), "full queue must refuse after the park");
        assert!(t0.elapsed() >= Duration::from_millis(10));
        assert_eq!(g.shard_depth(0), 2);
        assert_eq!(g.busy_refused.get(), 1);
        assert_eq!(g.gates[0].hwm.get(), 2);
        g.release(0, 1);
        assert!(g.admit(0, &stop), "released slot must re-admit");
    }

    #[test]
    fn parked_admission_wakes_on_release() {
        let g = Arc::new(gov(1, 5_000));
        let stop = Arc::new(AtomicBool::new(false));
        assert!(g.admit(0, &stop));
        let (g2, stop2) = (Arc::clone(&g), Arc::clone(&stop));
        let waiter = std::thread::spawn(move || {
            let t0 = Instant::now();
            (g2.admit(0, &stop2), t0.elapsed())
        });
        std::thread::sleep(Duration::from_millis(50));
        g.release(0, 1);
        let (admitted, waited) = waiter.join().unwrap();
        assert!(admitted, "waiter must get the freed slot");
        assert!(
            waited < Duration::from_secs(4),
            "must not ride out the park"
        );
    }

    #[test]
    fn stop_aborts_a_parked_admission() {
        let g = Arc::new(gov(1, 60_000));
        let stop = Arc::new(AtomicBool::new(false));
        assert!(g.admit(0, &stop));
        let (g2, stop2) = (Arc::clone(&g), Arc::clone(&stop));
        let waiter = std::thread::spawn(move || g2.admit(0, &stop2));
        std::thread::sleep(Duration::from_millis(20));
        // What `Shared::raise_stop` does. No slot frees, and the park is a
        // minute long: a stop that fails to wake the waiter hangs visibly.
        stop.store(true, Ordering::SeqCst);
        g.wake_parked();
        assert!(!waiter.join().unwrap(), "stop must refuse, not hang");
    }

    #[test]
    fn oom_gate_respects_zero_and_counts() {
        let g = Governor::new(
            GovernorOpts {
                maxmemory: 0,
                ..GovernorOpts::default()
            },
            1,
            &Registry::new(),
        );
        assert!(!g.refuse_oom(u64::MAX - 1, 1), "0 disables the bound");
        let g = Governor::new(
            GovernorOpts {
                maxmemory: 100,
                ..GovernorOpts::default()
            },
            1,
            &Registry::new(),
        );
        assert!(!g.refuse_oom(60, 40), "exactly at the bound is allowed");
        assert!(g.refuse_oom(60, 41));
        assert_eq!(g.oom_refused.get(), 1);
    }
}
