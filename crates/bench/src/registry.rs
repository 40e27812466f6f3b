//! A dynamic, object-safe view over every queue in the workspace, so the
//! experiment drivers can sweep "all algorithms × all parameters" without
//! monomorphizing each combination.
//!
//! [`ConcurrentQueue`] is not object safe (associated `Handle`), so the
//! registry splits it in two: a [`DynQueue`] is the shared queue, and
//! [`DynQueue::register`] hands out a boxed [`DynHandle`] that the calling
//! thread owns and moves wherever it runs. Building a queue registers
//! nothing, so a heap measurement around [`QueueKind::build`] sees the
//! queue alone, and an operation costs the queue's own handle path plus
//! one virtual call — no lock.

use parking_lot::Mutex;

use bq_baselines::{MsQueue, MutexRingQueue, ScqStyleQueue, TwoNullQueue, VyukovQueue};
use bq_core::{
    byte_ring, ByteConsumer, ByteProducer, ConcurrentQueue, DcssQueue, DistinctQueue, LlScQueue,
    NaiveQueue, OptimalQueue, SegmentQueue, ShardedQueue,
};
use bq_memtrack::{FootprintBreakdown, MemoryFootprint};
use bq_shm::ShmQueue;

/// Object-safe queue interface for the experiment drivers.
pub trait DynQueue: Send + Sync {
    /// Algorithm name (stable across runs; used as table row label).
    fn name(&self) -> &'static str;
    /// A fresh handle for the calling thread. Queues with a thread bound
    /// `T` (Listings 4/5 and their compositions) panic past `T`
    /// registrations, so register once per worker and move the handle.
    fn register(&self) -> Box<dyn DynHandle + '_>;
    /// `n` fresh handles, one per worker thread.
    fn handles(&self, n: usize) -> Vec<Box<dyn DynHandle + '_>> {
        (0..n).map(|_| self.register()).collect()
    }
    /// Capacity `C`.
    fn capacity(&self) -> usize;
    /// Largest valid token.
    fn max_token(&self) -> u64;
    /// Structural footprint (the paper's overhead metric).
    fn footprint(&self) -> FootprintBreakdown;
    /// Is this implementation linearizable in general? (`false` for the
    /// strawman and the two-null model — they are included to *show* the
    /// lower bound, not to compete.)
    fn sound(&self) -> bool;
    /// Does this implementation preserve **global FIFO** order? `false`
    /// for the sharded compositions, which relax it to per-shard FIFO
    /// (DESIGN.md §8) — the sequential-spec and strict-FIFO suites skip
    /// those rows and the pool-spec suites cover them instead.
    fn fifo(&self) -> bool;
    /// Observability snapshot (DESIGN.md §14): the queue's counter blocks
    /// flattened to `name → value`. Handles fold their counters in when
    /// dropped, so the snapshot is exact once every handle is gone. Empty
    /// without the `obs` feature (and for implementations with no
    /// counters of their own).
    fn metrics(&self) -> bq_core::MetricsSnapshot {
        bq_core::MetricsSnapshot::new()
    }
}

/// A thread-owned access handle from [`DynQueue::register`].
pub trait DynHandle: Send {
    /// Enqueue `v`; `false` = full.
    fn enqueue(&mut self, v: u64) -> bool;
    /// Dequeue the oldest element, or `None` when empty.
    fn dequeue(&mut self) -> Option<u64>;
    /// Batch enqueue: accepts a prefix of `vs` (through the queue's
    /// native batch path where one exists) and returns the count.
    fn enqueue_many(&mut self, vs: &[u64]) -> usize {
        vs.iter().take_while(|&&v| self.enqueue(v)).count()
    }
    /// Batch dequeue: up to `max` elements appended to `out`; returns
    /// the count.
    fn dequeue_many(&mut self, max: usize, out: &mut Vec<u64>) -> usize {
        let before = out.len();
        out.extend(std::iter::from_fn(|| self.dequeue()).take(max));
        out.len() - before
    }
}

impl<Q: ConcurrentQueue> DynHandle for (&Q, Q::Handle) {
    fn enqueue(&mut self, v: u64) -> bool {
        self.0.enqueue(&mut self.1, v).is_ok()
    }

    fn dequeue(&mut self) -> Option<u64> {
        self.0.dequeue(&mut self.1)
    }

    fn enqueue_many(&mut self, vs: &[u64]) -> usize {
        self.0.enqueue_many(&mut self.1, vs)
    }

    fn dequeue_many(&mut self, max: usize, out: &mut Vec<u64>) -> usize {
        self.0.dequeue_many(&mut self.1, max, out)
    }
}

struct Registered<Q> {
    name: &'static str,
    sound: bool,
    fifo: bool,
    q: Q,
}

impl<Q: ConcurrentQueue + MemoryFootprint> DynQueue for Registered<Q> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn register(&self) -> Box<dyn DynHandle + '_> {
        Box::new((&self.q, self.q.register()))
    }

    fn capacity(&self) -> usize {
        self.q.capacity()
    }

    fn max_token(&self) -> u64 {
        self.q.max_token()
    }

    fn footprint(&self) -> FootprintBreakdown {
        self.q.footprint()
    }

    fn sound(&self) -> bool {
        self.sound
    }

    fn fifo(&self) -> bool {
        self.fifo
    }

    fn metrics(&self) -> bq_core::MetricsSnapshot {
        self.q.metrics()
    }
}

/// The byte ring behind the registry interface: `u64` tokens travel as
/// 8-byte little-endian messages (16-byte records: length header + body),
/// so the variable-length data path can sit in the same tables as the
/// slot queues. The ring itself is SPSC, so its two endpoints sit behind
/// mutexes that serialize any number of registered handles onto the two
/// roles — the only lock in the registry.
struct ByteTokenQueue {
    prod: Mutex<ByteProducer>,
    cons: Mutex<ByteConsumer>,
    cap: usize,
}

impl ByteTokenQueue {
    fn new(c: usize) -> Self {
        // Two records must fit for the wrap-pad progress bound; each
        // token record is exactly 16 bytes, so 16·C bytes = C tokens.
        let c = c.max(2);
        let (prod, cons) = byte_ring(16 * c, 8);
        ByteTokenQueue {
            prod: Mutex::new(prod),
            cons: Mutex::new(cons),
            cap: c,
        }
    }
}

impl DynHandle for &ByteTokenQueue {
    fn enqueue(&mut self, v: u64) -> bool {
        self.prod.lock().push(&v.to_le_bytes())
    }

    fn dequeue(&mut self) -> Option<u64> {
        let mut cons = self.cons.lock();
        let g = cons.try_read()?;
        let mut b = [0u8; 8];
        b.copy_from_slice(&g);
        Some(u64::from_le_bytes(b))
    }
}

impl DynQueue for ByteTokenQueue {
    fn name(&self) -> &'static str {
        "byte-ring"
    }

    fn register(&self) -> Box<dyn DynHandle + '_> {
        Box::new(self)
    }

    fn capacity(&self) -> usize {
        self.cap
    }

    fn max_token(&self) -> u64 {
        u64::MAX
    }

    fn footprint(&self) -> FootprintBreakdown {
        self.prod.lock().footprint()
    }

    fn sound(&self) -> bool {
        true
    }

    fn fifo(&self) -> bool {
        true
    }

    fn metrics(&self) -> bq_core::MetricsSnapshot {
        let mut snap = bq_core::MetricsSnapshot::new();
        if cfg!(feature = "obs") {
            snap.push("bytes_used_hwm", self.prod.lock().bytes_used_hwm());
        }
        snap
    }
}

/// Identifiers for every queue implementation in the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueKind {
    /// Unsound Θ(1) strawman (§3).
    Naive,
    /// Listing 1 segment queue, K = √C.
    Segment,
    /// Listing 1 with the paper's suggested segment-reuse pool.
    SegmentPooled,
    /// Listing 2, distinct elements.
    Distinct,
    /// Listing 3, LL/SC.
    LlSc,
    /// Listing 4, DCSS.
    Dcss,
    /// Listing 5, memory-optimal.
    Optimal,
    /// Michael–Scott (bounded).
    Ms,
    /// Vyukov MPMC.
    Vyukov,
    /// SCQ structural model.
    Scq,
    /// Tsigas–Zhang two-null model.
    TwoNull,
    /// Mutex ring.
    MutexRing,
    /// Scale layer: 4 shards of Listing 5 — Θ(S·T) overhead, per-shard
    /// FIFO (DESIGN.md §8).
    ShardedOptimal,
    /// Scale layer: 4 shards of Listing 1 segments.
    ShardedSegment,
    /// Shared-memory multi-process ring (`bq-shm`): the relocatable
    /// sequenced-ring layout in an `mmap` segment under the
    /// crash-consistent publication protocol. Registered here over its
    /// in-process `ConcurrentQueue` facade; the cross-process numbers are
    /// E13's fork-based workload.
    Shm,
    /// Variable-length byte ring (`bq_core::bytering`), tokens as 8-byte
    /// messages through the zero-copy grant machinery. SPSC by contract;
    /// its endpoints sit behind per-role mutexes so the MPMC drivers can run it
    /// (E15 measures the unserialized payload path directly).
    ByteRing,
}

/// All kinds, in the order the paper discusses them.
pub const ALL_KINDS: &[QueueKind] = &[
    QueueKind::Naive,
    QueueKind::Segment,
    QueueKind::SegmentPooled,
    QueueKind::Distinct,
    QueueKind::LlSc,
    QueueKind::Dcss,
    QueueKind::Optimal,
    QueueKind::Ms,
    QueueKind::Vyukov,
    QueueKind::Scq,
    QueueKind::TwoNull,
    QueueKind::MutexRing,
    QueueKind::ShardedOptimal,
    QueueKind::ShardedSegment,
    QueueKind::Shm,
    QueueKind::ByteRing,
];

/// Default shard count for the registry's sharded kinds (the sweep binary
/// varies `S` explicitly via [`sharded_optimal`]).
pub const DEFAULT_SHARDS: usize = 4;

impl QueueKind {
    /// Stable name used in tables and CLI arguments.
    pub fn name(self) -> &'static str {
        match self {
            QueueKind::Naive => "naive-O(1)-UNSOUND",
            QueueKind::Segment => "listing1-segment",
            QueueKind::SegmentPooled => "listing1-segment-pooled",
            QueueKind::Distinct => "listing2-distinct",
            QueueKind::LlSc => "listing3-llsc",
            QueueKind::Dcss => "listing4-dcss",
            QueueKind::Optimal => "listing5-optimal",
            QueueKind::Ms => "michael-scott",
            QueueKind::Vyukov => "vyukov",
            QueueKind::Scq => "scq-style",
            QueueKind::TwoNull => "tsigas-zhang-2null",
            QueueKind::MutexRing => "mutex-ring",
            QueueKind::ShardedOptimal => "sharded4-optimal",
            QueueKind::ShardedSegment => "sharded4-segment",
            QueueKind::Shm => "shm-mpmc",
            QueueKind::ByteRing => "byte-ring",
        }
    }

    /// The paper's asymptotic overhead claim for this implementation
    /// (shown alongside measurements in the tables).
    pub fn claimed_overhead(self) -> &'static str {
        match self {
            QueueKind::Naive => "Θ(1) [unsound]",
            QueueKind::Segment => "Θ(C/K + T·K)",
            QueueKind::SegmentPooled => "Θ(C/K + T·K)",
            QueueKind::Distinct => "Θ(1) [distinct]",
            QueueKind::LlSc => "Θ(1) [LL/SC hw]",
            QueueKind::Dcss => "Θ(T)",
            QueueKind::Optimal => "Θ(T)",
            QueueKind::Ms => "Θ(n)",
            QueueKind::Vyukov => "Θ(C)",
            QueueKind::Scq => "Θ(C)",
            QueueKind::TwoNull => "Θ(1) [unsound]",
            QueueKind::MutexRing => "Θ(1) [blocking]",
            QueueKind::ShardedOptimal => "Θ(S·T)",
            QueueKind::ShardedSegment => "Θ(C/K + S·T·K)",
            QueueKind::Shm => "Θ(C) [multi-proc]",
            QueueKind::ByteRing => "Θ(1) [SPSC bytes]",
        }
    }

    /// Instantiate with capacity `c` and thread bound `t`. No handle is
    /// registered: callers take one per worker with
    /// [`DynQueue::register`], at most `t` in all.
    pub fn build(self, c: usize, t: usize) -> Box<dyn DynQueue> {
        // The unsound models are included to *show* the lower bound; the
        // sharded kinds relax global FIFO to per-shard FIFO (DESIGN.md §8).
        let name = self.name();
        let sound = !matches!(self, QueueKind::Naive | QueueKind::TwoNull);
        let fifo = !matches!(self, QueueKind::ShardedOptimal | QueueKind::ShardedSegment);
        match self {
            QueueKind::Naive => registered(name, sound, fifo, NaiveQueue::with_capacity(c)),
            QueueKind::Segment => registered(name, sound, fifo, SegmentQueue::with_capacity(c)),
            QueueKind::SegmentPooled => registered(
                name,
                sound,
                fifo,
                SegmentQueue::with_pooled_segments(c, (c as f64).sqrt().round().max(1.0) as usize),
            ),
            QueueKind::Distinct => registered(name, sound, fifo, DistinctQueue::with_capacity(c)),
            QueueKind::LlSc => registered(name, sound, fifo, LlScQueue::with_capacity(c)),
            QueueKind::Dcss => registered(
                name,
                sound,
                fifo,
                DcssQueue::with_capacity_and_threads(c, t),
            ),
            QueueKind::Optimal => registered(
                name,
                sound,
                fifo,
                OptimalQueue::with_capacity_and_threads(c, t),
            ),
            QueueKind::Ms => registered(name, sound, fifo, MsQueue::with_capacity(c)),
            QueueKind::Vyukov => registered(name, sound, fifo, VyukovQueue::with_capacity(c)),
            QueueKind::Scq => registered(name, sound, fifo, ScqStyleQueue::with_capacity(c)),
            QueueKind::TwoNull => registered(name, sound, fifo, TwoNullQueue::with_capacity(c)),
            QueueKind::MutexRing => registered(name, sound, fifo, MutexRingQueue::with_capacity(c)),
            QueueKind::ShardedOptimal => registered(
                name,
                sound,
                fifo,
                ShardedQueue::<OptimalQueue>::optimal(c, DEFAULT_SHARDS, t),
            ),
            QueueKind::ShardedSegment => registered(
                name,
                sound,
                fifo,
                ShardedQueue::<SegmentQueue>::segmented(c, DEFAULT_SHARDS),
            ),
            // The sequenced-ring protocol needs two slots to tell full
            // from empty; the registry's smallest sweeps use 1.
            QueueKind::Shm => registered(
                name,
                sound,
                fifo,
                ShmQueue::<u64>::create_anon(c.max(2)).expect("anonymous shm segment"),
            ),
            QueueKind::ByteRing => Box::new(ByteTokenQueue::new(c)),
        }
    }
}

fn registered<Q: ConcurrentQueue + MemoryFootprint + 'static>(
    name: &'static str,
    sound: bool,
    fifo: bool,
    q: Q,
) -> Box<dyn DynQueue> {
    Box::new(Registered {
        name,
        sound,
        fifo,
        q,
    })
}

/// Build a `ShardedQueue<OptimalQueue>` with an explicit shard count `s`
/// behind the `DynQueue` interface — the shard/batch sweep binary (E11)
/// varies `S` beyond the registry's fixed default.
pub fn sharded_optimal(c: usize, s: usize, t: usize) -> Box<dyn DynQueue> {
    registered(
        "sharded-optimal",
        true,
        s <= 1, // a single shard degenerates to the plain FIFO queue
        ShardedQueue::<OptimalQueue>::optimal(c, s, t),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_builds_and_round_trips() {
        for k in ALL_KINDS {
            let q = k.build(16, 2);
            let (mut a, mut b) = (q.register(), q.register());
            assert!(a.enqueue(1), "{} rejects a first enqueue", q.name());
            assert_eq!(b.dequeue(), Some(1), "{} loses the element", q.name());
            assert_eq!(a.dequeue(), None, "{} not empty after drain", q.name());
            assert_eq!(q.capacity(), 16);
        }
    }

    #[test]
    fn names_are_unique_and_resolvable() {
        // A unique table name resolves to exactly one kind.
        let mut seen = std::collections::HashSet::new();
        for k in ALL_KINDS {
            assert!(seen.insert(k.name()), "duplicate name {}", k.name());
            assert_eq!(k.build(4, 1).name(), k.name());
        }
    }

    #[test]
    fn soundness_flags() {
        for k in ALL_KINDS {
            let q = k.build(4, 1);
            let expected = !matches!(k, QueueKind::Naive | QueueKind::TwoNull);
            assert_eq!(q.sound(), expected, "{}", q.name());
        }
    }

    #[test]
    fn every_kind_batch_round_trips() {
        for k in ALL_KINDS {
            let q = k.build(16, 2);
            let (mut a, mut b) = (q.register(), q.register());
            let vs: Vec<u64> = (1..=10).collect();
            assert_eq!(a.enqueue_many(&vs), 10, "{}", q.name());
            let mut out = Vec::new();
            assert_eq!(b.dequeue_many(10, &mut out), 10, "{}", q.name());
            out.sort_unstable();
            assert_eq!(out, vs, "{}: batch conservation", q.name());
            assert_eq!(a.dequeue_many(1, &mut out), 0, "{}", q.name());
        }
    }

    #[test]
    fn fifo_flags_mark_only_sharded_kinds_relaxed() {
        for k in ALL_KINDS {
            let q = k.build(8, 1);
            let expected = !matches!(k, QueueKind::ShardedOptimal | QueueKind::ShardedSegment);
            assert_eq!(q.fifo(), expected, "{}", q.name());
        }
    }

    #[test]
    fn sharded_optimal_builder_varies_shard_count() {
        for s in [1, 2, 8] {
            let q = sharded_optimal(16, s, 2);
            assert_eq!(q.capacity(), 16);
            assert_eq!(q.fifo(), s <= 1);
            let (mut a, mut b) = (q.register(), q.register());
            assert!(a.enqueue(5));
            assert_eq!(b.dequeue(), Some(5));
        }
    }

    #[test]
    fn metrics_flow_through_the_dyn_interface() {
        // The instrumented facades report through `DynQueue::metrics`;
        // with `obs` off every snapshot is empty (the zero-cost contract).
        let q = QueueKind::Optimal.build(8, 2);
        {
            let (mut a, mut b) = (q.register(), q.register());
            assert!(a.enqueue(1));
            assert_eq!(b.dequeue(), Some(1));
        } // dropping the handles folds their counters in
        let snap = q.metrics();
        if cfg!(feature = "obs") {
            assert_eq!(snap.get("enq_success"), Some(1), "{snap}");
            assert_eq!(snap.get("deq_success"), Some(1), "{snap}");
        } else {
            assert!(snap.is_empty());
        }
        // And kinds with no counters of their own stay harmlessly empty.
        let ms = QueueKind::Ms.build(8, 1);
        ms.register().enqueue(9);
        assert!(ms.metrics().is_empty());
    }

    #[test]
    fn footprints_are_positive() {
        for k in ALL_KINDS {
            let q = k.build(64, 2);
            // MS stores per-element, so occupy one slot before measuring.
            q.register().enqueue(1);
            let f = q.footprint();
            assert!(f.element_bytes > 0, "{}", q.name());
            assert!(f.overhead_bytes() > 0, "{}", q.name());
        }
    }
}
