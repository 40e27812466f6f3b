//! Always-cheap observability: relaxed-atomic counter blocks and metrics
//! snapshots (DESIGN.md §14).
//!
//! The paper's claims are *overhead* claims, and ROADMAP item 3
//! (adaptive shard count, contention-aware stealing) is blocked on
//! "observed CAS-failure or refusal rates" — this module is that signal
//! surface. Two layers:
//!
//! 1. **Counter blocks** ([`QueueCounters`], [`WaitCounters`],
//!    [`ShardCounters`]) — cache-padded groups of `Relaxed` atomics
//!    embedded in the hot structures. With the `obs` feature off every
//!    type here is a ZST and every recording method an empty
//!    `#[inline(always)]` body, so the instrumented code compiles to
//!    exactly the uninstrumented code (the same zero-cost contract as
//!    `simx`, asserted by the tests at the bottom). Per-operation hot
//!    paths do not touch the shared block at all: they accumulate in a
//!    [`LocalQueueCounters`] carried by the per-thread handle (plain
//!    unsynchronized `u64`s, one register-width add each) and fold into
//!    the shared [`SharedQueueCounters`] block on handle drop, on an
//!    explicit `flush_metrics`, or every [`LOCAL_FLUSH_PERIOD`] calls —
//!    so `obs` *on* costs no atomic RMW per operation either (the E17
//!    budget, DESIGN.md §14.4).
//! 2. **[`MetricsSnapshot`]** — a cold-path, always-compiled view:
//!    ordered `(name, value)` pairs with delta arithmetic, a `Display`
//!    table, and serde-shim JSON. Reachable from every queue via
//!    [`ConcurrentQueue::metrics`](crate::ConcurrentQueue::metrics).
//!
//! ## Why `Relaxed` ordering is enough (and required)
//!
//! Counters are *statistics*, not synchronization: no protocol decision
//! reads them (the one functional counter, the shard quarantine refusal
//! count, stays `SeqCst` in `sharded.rs` and is merely *reported* here).
//! `Relaxed` increments cannot create happens-before edges, so turning
//! `obs` on cannot mask or introduce a memory-ordering bug in the
//! algorithms it observes. For the same reason the counters use plain
//! `std` atomics rather than the `simx` wrappers: they must not become
//! scheduling points, so the §11 explorer enumerates *identical*
//! execution sets (and state hashes) with the feature on or off.

use std::fmt;

#[cfg(feature = "obs")]
use std::sync::atomic::{AtomicU64, Ordering};

// ---------------------------------------------------------------------------
// Counter — one relaxed u64, the unit every block is built from
// ---------------------------------------------------------------------------

/// A single relaxed event counter. With `obs` off this is a ZST and all
/// methods are no-ops.
#[cfg(feature = "obs")]
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

/// A single relaxed event counter. With `obs` off this is a ZST and all
/// methods are no-ops.
#[cfg(not(feature = "obs"))]
#[derive(Debug, Default)]
pub struct Counter;

#[cfg(feature = "obs")]
impl Counter {
    /// A counter at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Count one event.
    #[inline]
    pub fn hit(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Count `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Raise the recorded high-watermark to `v` if it is higher.
    #[inline]
    pub fn record_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[cfg(not(feature = "obs"))]
impl Counter {
    /// A counter at zero.
    pub const fn new() -> Self {
        Counter
    }

    /// Count one event. (No-op: `obs` is off.)
    #[inline(always)]
    pub fn hit(&self) {}

    /// Count `n` events. (No-op: `obs` is off.)
    #[inline(always)]
    pub fn add(&self, _n: u64) {}

    /// Raise the recorded high-watermark. (No-op: `obs` is off.)
    #[inline(always)]
    pub fn record_max(&self, _v: u64) {}

    /// Current value — always 0 with `obs` off.
    #[inline(always)]
    pub fn get(&self) -> u64 {
        0
    }
}

// ---------------------------------------------------------------------------
// Hist32 — a log2-bucket histogram
// ---------------------------------------------------------------------------

/// Number of log2 buckets in [`Hist32`]: bucket `i` counts values whose
/// bit length is `i` (bucket 0 holds the value 0, bucket 31 saturates).
pub const HIST_BUCKETS: usize = 32;

/// A log2-bucket histogram of `u64` samples (park latencies in
/// nanoseconds). With `obs` off this is a ZST and recording is a no-op.
#[cfg(feature = "obs")]
#[derive(Debug)]
pub struct Hist32 {
    buckets: [AtomicU64; HIST_BUCKETS],
}

/// A log2-bucket histogram of `u64` samples (park latencies in
/// nanoseconds). With `obs` off this is a ZST and recording is a no-op.
#[cfg(not(feature = "obs"))]
#[derive(Debug, Default)]
pub struct Hist32;

/// Bucket index for a sample: its bit length, saturated to the last
/// bucket. 0 → 0, 1 → 1, 2..3 → 2, 4..7 → 3, …
pub fn hist_bucket(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

#[cfg(feature = "obs")]
impl Hist32 {
    /// An empty histogram.
    pub fn new() -> Self {
        Hist32 {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[hist_bucket(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Bucket counts, index = bit length of the sample.
    pub fn buckets(&self) -> [u64; HIST_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }
}

#[cfg(feature = "obs")]
impl Default for Hist32 {
    fn default() -> Self {
        Hist32::new()
    }
}

#[cfg(not(feature = "obs"))]
impl Hist32 {
    /// An empty histogram.
    pub fn new() -> Self {
        Hist32
    }

    /// Record one sample. (No-op: `obs` is off.)
    #[inline(always)]
    pub fn record(&self, _v: u64) {}

    /// Bucket counts — all zero with `obs` off.
    pub fn buckets(&self) -> [u64; HIST_BUCKETS] {
        [0; HIST_BUCKETS]
    }
}

// ---------------------------------------------------------------------------
// Counter blocks — one cache-padded group per hot structure
// ---------------------------------------------------------------------------

/// Per-queue operation counters: attached to the algorithm structs
/// (`OptimalQueue`, `ShardedQueue`) behind the `obs` feature. The block
/// is padded to its own cache-line pair so the statistics traffic never
/// shares a line with protocol words.
///
/// Invariant (asserted by `tests/obs_conservation.rs`): every `enqueue`
/// call ends as exactly one of success/full, and every `dequeue` call as
/// one of success/empty, so
/// `enq_attempts == enq_success + enq_full` and
/// `deq_attempts == deq_success + deq_empty`. Retries and helps count
/// *extra* loop iterations and are not part of the identity.
#[cfg_attr(feature = "obs", repr(align(128)))]
#[derive(Debug, Default)]
pub struct QueueCounters {
    /// `enqueue` calls entered.
    pub enq_attempts: Counter,
    /// `enqueue` calls that returned `Ok`.
    pub enq_success: Counter,
    /// `enqueue` calls refused with `Full`.
    pub enq_full: Counter,
    /// Extra enqueue loop iterations (failed CAS / stale counter reload).
    pub enq_retries: Counter,
    /// `dequeue` calls entered.
    pub deq_attempts: Counter,
    /// `dequeue` calls that returned an element.
    pub deq_success: Counter,
    /// `dequeue` calls that observed empty.
    pub deq_empty: Counter,
    /// Extra dequeue loop iterations (failed CAS on `dequeues`).
    pub deq_retries: Counter,
    /// Descriptor-helping steps performed on *another* thread's
    /// operation (Listing 5's `start_put_op` scan).
    pub helps: Counter,
    /// Highest occupancy ever observed at an enqueue linearization.
    pub occupancy_hwm: Counter,
}

impl QueueCounters {
    /// A zeroed block.
    pub fn new() -> Self {
        QueueCounters::default()
    }

    /// Append this block's counters to `snap` under `prefix`. With `obs`
    /// off nothing is appended (no fabricated zeros).
    #[cfg(not(feature = "obs"))]
    pub fn snapshot_into(&self, _prefix: &str, _snap: &mut MetricsSnapshot) {}

    /// Append this block's counters to `snap` under `prefix`. With `obs`
    /// off nothing is appended (no fabricated zeros).
    #[cfg(feature = "obs")]
    pub fn snapshot_into(&self, prefix: &str, snap: &mut MetricsSnapshot) {
        for (name, c) in [
            ("enq_attempts", &self.enq_attempts),
            ("enq_success", &self.enq_success),
            ("enq_full", &self.enq_full),
            ("enq_retries", &self.enq_retries),
            ("deq_attempts", &self.deq_attempts),
            ("deq_success", &self.deq_success),
            ("deq_empty", &self.deq_empty),
            ("deq_retries", &self.deq_retries),
            ("helps", &self.helps),
            ("occupancy_hwm", &self.occupancy_hwm),
        ] {
            snap.push(format!("{prefix}{name}"), c.get());
        }
    }
}

// ---------------------------------------------------------------------------
// SharedQueueCounters / LocalQueueCounters — the hot-path split
// ---------------------------------------------------------------------------

/// Shared ownership of a queue's [`QueueCounters`] block. The queue
/// embeds one of these; every handle's [`LocalQueueCounters`] holds a
/// clone, so a handle outliving its registration scope can still fold
/// its deltas in safely. Derefs to the block for cold-path reads
/// (`snapshot_into`) and for the rare counters recorded without a
/// handle in scope (`helps`). With `obs` off this is a ZST.
#[cfg(feature = "obs")]
#[derive(Debug, Clone, Default)]
pub struct SharedQueueCounters(std::sync::Arc<QueueCounters>);

/// Shared ownership of a queue's [`QueueCounters`] block. With `obs`
/// off this is a ZST and derefs to a static empty block.
#[cfg(not(feature = "obs"))]
#[derive(Debug, Clone, Copy, Default)]
pub struct SharedQueueCounters;

impl SharedQueueCounters {
    /// A zeroed shared block.
    #[cfg(feature = "obs")]
    pub fn new() -> Self {
        SharedQueueCounters::default()
    }

    /// A zeroed shared block. (ZST: `obs` is off.)
    #[cfg(not(feature = "obs"))]
    pub const fn new() -> Self {
        SharedQueueCounters
    }

    /// Start a handle-local accumulator bound to this block.
    pub fn local(&self) -> LocalQueueCounters {
        #[cfg(feature = "obs")]
        {
            LocalQueueCounters {
                shared: self.clone(),
                ..LocalQueueCounters::default()
            }
        }
        #[cfg(not(feature = "obs"))]
        {
            LocalQueueCounters
        }
    }
}

#[cfg(feature = "obs")]
impl std::ops::Deref for SharedQueueCounters {
    type Target = QueueCounters;
    fn deref(&self) -> &QueueCounters {
        &self.0
    }
}

#[cfg(not(feature = "obs"))]
impl std::ops::Deref for SharedQueueCounters {
    type Target = QueueCounters;
    fn deref(&self) -> &QueueCounters {
        static ZERO: QueueCounters = QueueCounters {
            enq_attempts: Counter,
            enq_success: Counter,
            enq_full: Counter,
            enq_retries: Counter,
            deq_attempts: Counter,
            deq_success: Counter,
            deq_empty: Counter,
            deq_retries: Counter,
            helps: Counter,
            occupancy_hwm: Counter,
        };
        &ZERO
    }
}

/// Handle-local accumulation folds into the shared block at least every
/// this many `enqueue`/`dequeue` calls, bounding how stale a snapshot
/// taken while handles are live can be. (Exact totals are guaranteed
/// once handles are dropped or `flush_metrics` has run.)
pub const LOCAL_FLUSH_PERIOD: u64 = 1024;

/// The hot half of [`QueueCounters`]: plain unsynchronized `u64`s
/// carried by the per-thread handle, so recording an operation is one
/// register-width add — no atomic RMW, no shared cache line. Deltas
/// fold into the [`SharedQueueCounters`] block (where `metrics()`
/// reads) on drop, on [`flush`](LocalQueueCounters::flush), and every
/// [`LOCAL_FLUSH_PERIOD`] operations. With `obs` off this is a ZST and
/// every method an empty `#[inline(always)]` body.
#[cfg(feature = "obs")]
#[derive(Debug, Default)]
pub struct LocalQueueCounters {
    shared: SharedQueueCounters,
    since_flush: u64,
    enq_attempts: u64,
    enq_success: u64,
    enq_full: u64,
    enq_retries: u64,
    deq_attempts: u64,
    deq_success: u64,
    deq_empty: u64,
    deq_retries: u64,
    occupancy_hwm: u64,
}

/// The hot half of [`QueueCounters`]. With `obs` off this is a ZST and
/// every method an empty `#[inline(always)]` body.
#[cfg(not(feature = "obs"))]
#[derive(Debug, Default)]
pub struct LocalQueueCounters;

#[cfg(feature = "obs")]
impl LocalQueueCounters {
    #[inline]
    fn tick(&mut self) {
        self.since_flush += 1;
        if self.since_flush >= LOCAL_FLUSH_PERIOD {
            self.flush();
        }
    }

    /// An `enqueue` call was entered.
    #[inline]
    pub fn enq_attempt(&mut self) {
        self.enq_attempts += 1;
        self.tick();
    }

    /// An `enqueue` linearized at the given occupancy (post-increment).
    #[inline]
    pub fn enq_success(&mut self, occupancy: u64) {
        self.enq_success += 1;
        if occupancy > self.occupancy_hwm {
            self.occupancy_hwm = occupancy;
        }
    }

    /// An `enqueue` was refused with `Full`.
    #[inline]
    pub fn enq_full(&mut self) {
        self.enq_full += 1;
    }

    /// An extra enqueue loop iteration (failed CAS / stale reload).
    #[inline]
    pub fn enq_retry(&mut self) {
        self.enq_retries += 1;
    }

    /// A `dequeue` call was entered.
    #[inline]
    pub fn deq_attempt(&mut self) {
        self.deq_attempts += 1;
        self.tick();
    }

    /// A `dequeue` returned an element.
    #[inline]
    pub fn deq_success(&mut self) {
        self.deq_success += 1;
    }

    /// A `dequeue` observed empty.
    #[inline]
    pub fn deq_empty(&mut self) {
        self.deq_empty += 1;
    }

    /// An extra dequeue loop iteration (failed CAS on `dequeues`).
    #[inline]
    pub fn deq_retry(&mut self) {
        self.deq_retries += 1;
    }

    /// Fold the accumulated deltas into the shared block and zero the
    /// locals. Relaxed `fetch_add`s — cold by construction.
    pub fn flush(&mut self) {
        let s: &QueueCounters = &self.shared;
        s.enq_attempts.add(std::mem::take(&mut self.enq_attempts));
        s.enq_success.add(std::mem::take(&mut self.enq_success));
        s.enq_full.add(std::mem::take(&mut self.enq_full));
        s.enq_retries.add(std::mem::take(&mut self.enq_retries));
        s.deq_attempts.add(std::mem::take(&mut self.deq_attempts));
        s.deq_success.add(std::mem::take(&mut self.deq_success));
        s.deq_empty.add(std::mem::take(&mut self.deq_empty));
        s.deq_retries.add(std::mem::take(&mut self.deq_retries));
        s.occupancy_hwm.record_max(self.occupancy_hwm);
        self.since_flush = 0;
    }
}

#[cfg(feature = "obs")]
impl Drop for LocalQueueCounters {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(not(feature = "obs"))]
impl LocalQueueCounters {
    /// An `enqueue` call was entered. (No-op: `obs` is off.)
    #[inline(always)]
    pub fn enq_attempt(&mut self) {}

    /// An `enqueue` linearized. (No-op: `obs` is off.)
    #[inline(always)]
    pub fn enq_success(&mut self, _occupancy: u64) {}

    /// An `enqueue` was refused. (No-op: `obs` is off.)
    #[inline(always)]
    pub fn enq_full(&mut self) {}

    /// An extra enqueue loop iteration. (No-op: `obs` is off.)
    #[inline(always)]
    pub fn enq_retry(&mut self) {}

    /// A `dequeue` call was entered. (No-op: `obs` is off.)
    #[inline(always)]
    pub fn deq_attempt(&mut self) {}

    /// A `dequeue` returned an element. (No-op: `obs` is off.)
    #[inline(always)]
    pub fn deq_success(&mut self) {}

    /// A `dequeue` observed empty. (No-op: `obs` is off.)
    #[inline(always)]
    pub fn deq_empty(&mut self) {}

    /// An extra dequeue loop iteration. (No-op: `obs` is off.)
    #[inline(always)]
    pub fn deq_retry(&mut self) {}

    /// Fold deltas into the shared block. (No-op: `obs` is off.)
    #[inline(always)]
    pub fn flush(&mut self) {}
}

/// Waiter-subsystem counters: one block per [`EventCount`](crate::EventCount)
/// (DESIGN.md §9), covering both the thread (blocking) and task (async)
/// clients.
#[cfg_attr(feature = "obs", repr(align(128)))]
#[derive(Debug, Default)]
pub struct WaitCounters {
    /// OS-thread parks (one per actual `cond.wait`).
    pub thread_parks: Counter,
    /// Task-waker registrations that went pending (async parks).
    pub task_parks: Counter,
    /// `wake_all` calls that found announced waiters.
    pub wakes: Counter,
    /// Waiters actually woken/drained by those calls.
    pub woken: Counter,
    /// Wakes after which the waiter's re-attempt still failed.
    pub spurious_wakes: Counter,
    /// Timed waits that ended by deadline expiry.
    pub timeout_expiries: Counter,
    /// Park latency (ns from first park to wait completion), log2
    /// buckets. Timestamp-free (all samples 0) under `sim-explore`.
    pub park_ns: Hist32,
}

impl WaitCounters {
    /// A zeroed block.
    pub fn new() -> Self {
        WaitCounters::default()
    }

    /// Append this block's counters (and histogram buckets with nonzero
    /// counts, as `{prefix}park_ns_p2_{bits}`) to `snap` under `prefix`.
    /// With `obs` off nothing is appended.
    #[cfg(not(feature = "obs"))]
    pub fn snapshot_into(&self, _prefix: &str, _snap: &mut MetricsSnapshot) {}

    /// Append this block's counters (and histogram buckets with nonzero
    /// counts, as `{prefix}park_ns_p2_{bits}`) to `snap` under `prefix`.
    /// With `obs` off nothing is appended.
    #[cfg(feature = "obs")]
    pub fn snapshot_into(&self, prefix: &str, snap: &mut MetricsSnapshot) {
        for (name, c) in [
            ("thread_parks", &self.thread_parks),
            ("task_parks", &self.task_parks),
            ("wakes", &self.wakes),
            ("woken", &self.woken),
            ("spurious_wakes", &self.spurious_wakes),
            ("timeout_expiries", &self.timeout_expiries),
        ] {
            snap.push(format!("{prefix}{name}"), c.get());
        }
        for (bits, n) in self.park_ns.buckets().into_iter().enumerate() {
            if n != 0 {
                snap.push(format!("{prefix}park_ns_p2_{bits}"), n);
            }
        }
    }
}

/// Scale-layer counters: one block per `ShardedQueue`. Per-shard
/// *refusal* counts are not duplicated here — the quarantine health
/// counter in `sharded.rs` is the one refusal mechanism (DESIGN.md §14)
/// and the snapshot reads it directly.
#[cfg_attr(feature = "obs", repr(align(128)))]
#[derive(Debug, Default)]
pub struct ShardCounters {
    /// Operations served by a non-home shard (work stealing).
    pub steals: Counter,
    /// Rotation-scan hops past the home shard (contention signal).
    pub rotations: Counter,
    /// Shards quarantined.
    pub quarantines: Counter,
}

impl ShardCounters {
    /// A zeroed block.
    pub fn new() -> Self {
        ShardCounters::default()
    }

    /// Append this block's counters to `snap` under `prefix`. With `obs`
    /// off nothing is appended.
    #[cfg(not(feature = "obs"))]
    pub fn snapshot_into(&self, _prefix: &str, _snap: &mut MetricsSnapshot) {}

    /// Append this block's counters to `snap` under `prefix`. With `obs`
    /// off nothing is appended.
    #[cfg(feature = "obs")]
    pub fn snapshot_into(&self, prefix: &str, snap: &mut MetricsSnapshot) {
        for (name, c) in [
            ("steals", &self.steals),
            ("rotations", &self.rotations),
            ("quarantines", &self.quarantines),
        ] {
            snap.push(format!("{prefix}{name}"), c.get());
        }
    }
}

// ---------------------------------------------------------------------------
// MetricsSnapshot — the cold-path view (always compiled)
// ---------------------------------------------------------------------------

/// An ordered set of named counter readings: the uniform currency every
/// layer reports in — queue blocks, eventcounts, shard health, shm
/// per-process stats. Always compiled (it costs nothing until taken);
/// with `obs` off the in-process sources simply contribute zeros or
/// nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    entries: Vec<(String, u64)>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        MetricsSnapshot::default()
    }

    /// Append a reading. Names repeat at the caller's peril; `get`
    /// returns the first match.
    pub fn push(&mut self, name: impl Into<String>, value: u64) {
        self.entries.push((name.into(), value));
    }

    /// The reading for `name`, if present.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// All readings, in insertion order.
    pub fn entries(&self) -> &[(String, u64)] {
        &self.entries
    }

    /// No readings at all?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Delta arithmetic: this snapshot minus `earlier`, per name
    /// (saturating; names absent from `earlier` count from zero).
    /// High-watermark entries are still point-in-time values after a
    /// delta, but monotone counters become rates over the interval.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::new();
        for (name, v) in &self.entries {
            let base = earlier.get(name).unwrap_or(0);
            out.push(name.clone(), v.saturating_sub(base));
        }
        out
    }

    /// Render as a JSON object (sibling of the `BENCH_*.json` artifacts;
    /// also available through the serde shim's `Serialize`).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        serde::Serialize::write_json(self, &mut out);
        out
    }
}

impl serde::Serialize for MetricsSnapshot {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        for (i, (name, v)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            serde::escape_str(name, out);
            out.push(':');
            out.push_str(&v.to_string());
        }
        out.push('}');
    }
}

impl fmt::Display for MetricsSnapshot {
    /// A two-column `name  value` table, insertion-ordered.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = self.entries.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        for (name, v) in &self.entries {
            writeln!(f, "{name:<width$}  {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_delta_display_json() {
        let mut a = MetricsSnapshot::new();
        a.push("enq_attempts", 10);
        a.push("enq_success", 7);
        let mut b = MetricsSnapshot::new();
        b.push("enq_attempts", 25);
        b.push("enq_success", 19);
        b.push("helps", 3);
        let d = b.delta(&a);
        assert_eq!(d.get("enq_attempts"), Some(15));
        assert_eq!(d.get("enq_success"), Some(12));
        assert_eq!(d.get("helps"), Some(3), "absent-in-earlier counts from 0");
        assert_eq!(
            b.to_json(),
            r#"{"enq_attempts":25,"enq_success":19,"helps":3}"#
        );
        let table = b.to_string();
        assert!(table.contains("enq_attempts  25"), "{table}");
        assert!(MetricsSnapshot::new().is_empty());
    }

    #[test]
    fn hist_buckets_are_bit_lengths() {
        assert_eq!(hist_bucket(0), 0);
        assert_eq!(hist_bucket(1), 1);
        assert_eq!(hist_bucket(2), 2);
        assert_eq!(hist_bucket(3), 2);
        assert_eq!(hist_bucket(4), 3);
        assert_eq!(hist_bucket(1023), 10);
        assert_eq!(hist_bucket(1024), 11);
        assert_eq!(hist_bucket(u64::MAX), HIST_BUCKETS - 1);
    }

    /// The zero-cost contract, mirroring `simx::layout_is_transparent`:
    /// with `obs` off every counter type is a ZST, so embedding the
    /// blocks in the queue structs changes neither size nor layout.
    #[cfg(not(feature = "obs"))]
    #[test]
    fn obs_off_counter_blocks_are_zero_sized() {
        assert_eq!(std::mem::size_of::<Counter>(), 0);
        assert_eq!(std::mem::size_of::<Hist32>(), 0);
        assert_eq!(std::mem::size_of::<QueueCounters>(), 0);
        assert_eq!(std::mem::size_of::<WaitCounters>(), 0);
        assert_eq!(std::mem::size_of::<ShardCounters>(), 0);
        assert_eq!(std::mem::size_of::<SharedQueueCounters>(), 0);
        assert_eq!(std::mem::size_of::<LocalQueueCounters>(), 0);
        let c = Counter::new();
        c.hit();
        c.add(5);
        c.record_max(9);
        assert_eq!(c.get(), 0, "no-op recording with obs off");
        let shared = SharedQueueCounters::new();
        let mut local = shared.local();
        local.enq_attempt();
        local.flush();
        let mut snap = MetricsSnapshot::new();
        shared.snapshot_into("", &mut snap);
        assert!(snap.is_empty(), "obs off: nothing recorded, nothing read");
    }

    /// Handle-local deltas become visible in the shared block on an
    /// explicit flush, on drop, and automatically after
    /// `LOCAL_FLUSH_PERIOD` operations — and never sooner than one of
    /// those (the visibility half of the hot-path-split contract).
    #[cfg(feature = "obs")]
    #[test]
    fn local_counters_fold_into_shared_on_flush_drop_and_period() {
        let shared = SharedQueueCounters::new();
        let mut local = shared.local();
        local.enq_attempt();
        local.enq_success(3);
        assert_eq!(shared.enq_success.get(), 0, "unflushed locals invisible");
        local.flush();
        assert_eq!(shared.enq_attempts.get(), 1);
        assert_eq!(shared.enq_success.get(), 1);
        assert_eq!(shared.occupancy_hwm.get(), 3);

        // Drop folds the tail in.
        let mut local2 = shared.local();
        local2.deq_attempt();
        local2.deq_empty();
        drop(local2);
        assert_eq!(shared.deq_attempts.get(), 1);
        assert_eq!(shared.deq_empty.get(), 1);

        // The periodic fold: after LOCAL_FLUSH_PERIOD attempts the
        // shared block has caught up without an explicit flush.
        let mut local3 = shared.local();
        for _ in 0..LOCAL_FLUSH_PERIOD {
            // Outcome recorded before the attempt tick: the periodic
            // fold fires inside `enq_attempt`, so this order makes the
            // final iteration's outcome part of the folded batch.
            local3.enq_full();
            local3.enq_attempt();
        }
        assert_eq!(shared.enq_attempts.get(), 1 + LOCAL_FLUSH_PERIOD);
        assert_eq!(shared.enq_full.get(), LOCAL_FLUSH_PERIOD);
    }

    /// With `obs` on the blocks live on their own cache-line pairs.
    #[cfg(feature = "obs")]
    #[test]
    fn obs_on_counter_blocks_are_padded_and_count() {
        assert_eq!(std::mem::align_of::<QueueCounters>(), 128);
        assert_eq!(std::mem::align_of::<WaitCounters>(), 128);
        assert_eq!(std::mem::align_of::<ShardCounters>(), 128);
        let c = Counter::new();
        c.hit();
        c.add(5);
        c.record_max(9);
        assert_eq!(c.get(), 9, "record_max saw 6 < 9");
        let h = Hist32::new();
        h.record(0);
        h.record(1000);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[10], 1);
        let q = QueueCounters::new();
        q.enq_attempts.add(3);
        let mut snap = MetricsSnapshot::new();
        q.snapshot_into("q.", &mut snap);
        assert_eq!(snap.get("q.enq_attempts"), Some(3));
        assert_eq!(snap.get("q.deq_empty"), Some(0));
    }
}
