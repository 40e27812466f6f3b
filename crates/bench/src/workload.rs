//! Workload drivers for the throughput experiments (E10).
//!
//! Two canonical workloads from the bounded-queue literature:
//!
//! * **pairs** — every thread alternates `enqueue`/`dequeue` on a
//!   half-full queue (uniform mixed contention);
//! * **producer/consumer** — half the threads enqueue a fixed item count,
//!   half drain, modelling the task-scheduler / io_uring-style usage the
//!   paper's introduction motivates;
//!
//! and one single-thread loop, [`solo_bursts`], for the solo time
//! experiments (E2's speed side, E10b and its E10c control).
//!
//! Hardware note: with more workers than host cores (stamped as
//! `host_cores` in every artifact) these measure contention behaviour
//! under preemption (retry rates, helping cost), not parallel speedup —
//! the relative *shape* across algorithms is still informative, and the
//! memory results (the paper's subject) are unaffected.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use bq_core::ConcurrentQueue;

use crate::registry::{DynHandle, DynQueue};

/// Result of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadResult {
    /// Total completed operations (enqueues + dequeues).
    pub ops: u64,
    /// Wall-clock seconds.
    pub secs: f64,
}

impl WorkloadResult {
    /// Million operations per second.
    pub fn mops(&self) -> f64 {
        self.ops as f64 / self.secs / 1e6
    }
}

/// Mixed enqueue/dequeue pairs: one worker per handle in `hs`, each
/// performing `ops_per_thread` enqueue+dequeue pairs on `q` pre-filled to
/// half capacity. Returns aggregate throughput.
pub fn pairs_throughput(
    q: &dyn DynQueue,
    hs: &mut [Box<dyn DynHandle + '_>],
    ops_per_thread: u64,
) -> WorkloadResult {
    prefill(q, hs);
    let token_base = AtomicU64::new(1_000_000);
    let start = Instant::now();
    std::thread::scope(|s| {
        for h in hs.iter_mut() {
            let token_base = &token_base;
            s.spawn(move || {
                for _ in 0..ops_per_thread {
                    // Fresh tokens keep the distinct-elements queues honest.
                    let v = token_base.fetch_add(1, Ordering::Relaxed);
                    while !h.enqueue(v) {
                        std::thread::yield_now();
                    }
                    while h.dequeue().is_none() {
                        std::thread::yield_now();
                    }
                }
            });
        }
    });
    WorkloadResult {
        ops: 2 * hs.len() as u64 * ops_per_thread,
        secs: start.elapsed().as_secs_f64(),
    }
}

/// Pre-fill `q` to C/2 through the first worker's handle, so both
/// operations of a pair usually succeed.
fn prefill(q: &dyn DynQueue, hs: &mut [Box<dyn DynHandle + '_>]) {
    for i in 0..(q.capacity() / 2) as u64 {
        assert!(hs[0].enqueue(1 + i), "pre-fill failed");
    }
}

/// Batched mixed pairs: like [`pairs_throughput`], but each worker moves
/// elements `batch` at a time through the queue's batch interface —
/// `rounds_per_thread` iterations of `enqueue_many(batch)` followed by
/// `dequeue_many(batch)` on a half-full queue. With `batch == 1` this
/// degenerates to the single-element path (same call overhead shape), so
/// `batched_pairs_throughput(q, hs, r, b)` vs `…(q, hs, r·b, 1)` isolates
/// the amortization win of batching (experiment E11).
pub fn batched_pairs_throughput(
    q: &dyn DynQueue,
    hs: &mut [Box<dyn DynHandle + '_>],
    rounds_per_thread: u64,
    batch: usize,
) -> WorkloadResult {
    let threads = hs.len();
    assert!(batch > 0, "batch must be positive");
    // Every worker must be able to finish its in-flight batch without any
    // other worker dequeuing, or the workload can wedge with all workers
    // stuck mid-batch on a full queue.
    assert!(
        threads * batch <= q.capacity() - q.capacity() / 2,
        "threads × batch must fit in the post-prefill free space"
    );
    prefill(q, hs);
    let start = Instant::now();
    std::thread::scope(|s| {
        for (tid, h) in hs.iter_mut().enumerate() {
            s.spawn(move || {
                // Token generation and buffers live outside the measured
                // per-element path: a per-thread counter and reused
                // vectors, so the B = 1 column pays no per-element
                // harness cost the B = 32 column amortizes — the speedup
                // isolates the queue's batch path, not the driver.
                let mut next = 1_000_000 + tid as u64 * rounds_per_thread * batch as u64;
                let mut vs = vec![0u64; batch];
                let mut buf = Vec::with_capacity(batch);
                for _ in 0..rounds_per_thread {
                    for slot in vs.iter_mut() {
                        *slot = next;
                        next += 1;
                    }
                    let mut sent = 0;
                    while sent < batch {
                        let n = h.enqueue_many(&vs[sent..]);
                        sent += n;
                        if n == 0 {
                            std::thread::yield_now();
                        }
                    }
                    let mut got = 0;
                    while got < batch {
                        buf.clear();
                        let n = h.dequeue_many(batch - got, &mut buf);
                        got += n;
                        if n == 0 {
                            std::thread::yield_now();
                        }
                    }
                }
            });
        }
    });
    WorkloadResult {
        ops: 2 * threads as u64 * rounds_per_thread * batch as u64,
        secs: start.elapsed().as_secs_f64(),
    }
}

/// One thread, one handle: `rounds` rounds of `burst` enqueues followed
/// by `burst` dequeues on `q`, which starts and ends empty. `burst = 1`
/// is the solo enqueue+dequeue pair (E10b, E10c); `burst = C` fills the
/// queue and drains it (E2). Generic over the queue, so no registry
/// indirection is timed along with the algorithm.
pub fn solo_bursts<Q: ConcurrentQueue>(
    q: &Q,
    h: &mut Q::Handle,
    burst: usize,
    rounds: u64,
) -> WorkloadResult {
    let mut next = 1u64;
    let start = Instant::now();
    for _ in 0..rounds {
        for _ in 0..burst {
            q.enqueue(h, next).expect("a burst fits in the queue");
            next += 1;
        }
        for _ in 0..burst {
            q.dequeue(h).expect("every enqueued element is dequeued");
        }
    }
    WorkloadResult {
        ops: 2 * burst as u64 * rounds,
        secs: start.elapsed().as_secs_f64(),
    }
}

/// Producer/consumer transfer: the first half of `hs` produce
/// `items_per_producer` fresh tokens each while the second half drain
/// until every item has been observed.
pub fn producer_consumer_throughput(
    hs: &mut [Box<dyn DynHandle + '_>],
    items_per_producer: u64,
) -> WorkloadResult {
    let (producers, consumers) = hs.split_at_mut(hs.len() / 2);
    let total = producers.len() as u64 * items_per_producer;
    let consumed = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        for (p, h) in producers.iter_mut().enumerate() {
            s.spawn(move || {
                let base = 1 + p as u64 * items_per_producer;
                for i in 0..items_per_producer {
                    while !h.enqueue(base + i) {
                        std::thread::yield_now();
                    }
                }
            });
        }
        for h in consumers.iter_mut() {
            let consumed = &consumed;
            s.spawn(move || {
                // Exit once every produced item has been consumed by
                // someone; until then, keep draining.
                while consumed.load(Ordering::Relaxed) < total {
                    if h.dequeue().is_some() {
                        consumed.fetch_add(1, Ordering::Relaxed);
                    } else {
                        std::thread::yield_now();
                    }
                }
            });
        }
    });
    WorkloadResult {
        ops: 2 * total,
        secs: start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::QueueKind;

    #[test]
    fn pairs_runs_on_every_sound_queue() {
        for kind in crate::registry::ALL_KINDS {
            let q = kind.build(16, 2);
            if !q.sound() {
                continue; // the unsound models may corrupt under contention
            }
            let r = pairs_throughput(&*q, &mut q.handles(2), 200);
            assert_eq!(r.ops, 800);
            assert!(r.secs > 0.0);
            assert!(r.mops() > 0.0);
        }
    }

    #[test]
    fn batched_pairs_runs_on_every_sound_queue() {
        for kind in crate::registry::ALL_KINDS {
            let q = kind.build(16, 2);
            if !q.sound() {
                continue;
            }
            let mut hs = q.handles(2);
            let r = batched_pairs_throughput(&*q, &mut hs, 50, 4);
            assert_eq!(r.ops, 800, "{}", q.name());
            assert!(r.mops() > 0.0);
            // Pairs preserve the pre-fill level.
            let mut out = Vec::new();
            assert_eq!(hs[0].dequeue_many(16, &mut out), 8, "{}", q.name());
        }
    }

    #[test]
    fn batched_pairs_batch_one_equals_single_path_ops() {
        let q = crate::registry::QueueKind::ShardedOptimal.build(16, 2);
        let r = batched_pairs_throughput(&*q, &mut q.handles(1), 100, 1);
        assert_eq!(r.ops, 200);
    }

    #[test]
    fn producer_consumer_conserves_count() {
        let q = QueueKind::Optimal.build(8, 4);
        let mut hs = q.handles(4);
        let r = producer_consumer_throughput(&mut hs, 500);
        assert_eq!(r.ops, 2000);
        // Queue drained exactly.
        assert_eq!(hs[0].dequeue(), None);
    }

    #[test]
    fn solo_bursts_counts_ops_and_leaves_the_queue_empty() {
        let q = bq_core::SegmentQueue::with_capacity_and_segment_size(16, 4);
        let mut h = q.register();
        let r = solo_bursts(&q, &mut h, 16, 3);
        assert_eq!(r.ops, 96);
        assert!(q.dequeue(&mut h).is_none());
        let r = solo_bursts(&q, &mut h, 1, 10);
        assert_eq!(r.ops, 20);
        assert!(q.is_empty());
    }

    #[test]
    fn pairs_leaves_queue_at_prefill_level() {
        let q = QueueKind::Vyukov.build(16, 2);
        let mut hs = q.handles(1);
        let r = pairs_throughput(&*q, &mut hs, 100);
        assert_eq!(r.ops, 200);
        // Pre-fill was C/2 = 8; pairs preserve the level.
        let mut n = 0;
        while hs[0].dequeue().is_some() {
            n += 1;
        }
        assert_eq!(n, 8);
    }
}
