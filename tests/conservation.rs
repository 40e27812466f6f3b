//! Concurrent conservation tests: under multi-producer/multi-consumer
//! load, every sound queue must deliver each enqueued token exactly once
//! (no loss, no duplication) and preserve per-producer FIFO order — the
//! latter only for the globally-FIFO kinds; the sharded compositions
//! relax it to per-shard FIFO (DESIGN.md §8) and are held to exactly-once
//! delivery plus exact residue.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

use membq::bench_registry::{DynHandle, DynQueue, QueueKind, ALL_KINDS};

/// Exactly-once delivery over the consumers' combined streams.
fn check_exactly_once(outputs: &[Vec<u64>], total: u64, name: &str) {
    let mut seen = HashSet::new();
    for out in outputs {
        for &v in out {
            assert!(seen.insert(v), "{name}: duplicate token {v}");
        }
    }
    assert_eq!(seen.len() as u64, total, "{name}: tokens lost");
}

/// Per-producer FIFO within each consumer's stream (a weaker but
/// schedule-independent consequence of linearizability). Tokens encode
/// their producer as `1 + p·per + i`. The sharded kinds legitimately
/// violate this once a producer overflows its home shard, so callers
/// gate it on `DynQueue::fifo`.
fn check_per_producer_fifo(outputs: &[Vec<u64>], producers: usize, per: u64, name: &str) {
    for out in outputs {
        let mut last = vec![0u64; producers];
        for &v in out {
            let p = ((v - 1) / per) as usize;
            assert!(
                v > last[p],
                "{name}: consumer saw producer {p}'s tokens out of order"
            );
            last[p] = v;
        }
    }
}

/// Run `producers` producer threads against consumer threads that own
/// the handles in `consumers`; each consumer drains with `take` (which
/// appends to its output and returns the count) until every token has
/// arrived. Returns the consumers' output streams.
fn run_mpmc(
    producers: Vec<Box<dyn DynHandle + '_>>,
    consumers: &mut [Box<dyn DynHandle + '_>],
    total: u64,
    produce: impl Fn(usize, &mut dyn DynHandle) + Sync,
    take: impl Fn(&mut dyn DynHandle, &mut Vec<u64>) -> usize + Sync,
) -> Vec<Vec<u64>> {
    let consumed = AtomicU64::new(0);
    let (consumed, produce, take) = (&consumed, &produce, &take);
    std::thread::scope(|s| {
        for (p, mut h) in producers.into_iter().enumerate() {
            s.spawn(move || produce(p, &mut *h));
        }
        let workers: Vec<_> = consumers
            .iter_mut()
            .map(|h| {
                s.spawn(move || {
                    let mut got = Vec::new();
                    loop {
                        let done = consumed.load(Ordering::Relaxed) >= total;
                        let n = take(&mut **h, &mut got);
                        if n > 0 {
                            consumed.fetch_add(n as u64, Ordering::Relaxed);
                        } else if done {
                            break;
                        } else {
                            std::thread::yield_now();
                        }
                    }
                    got
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    })
}

fn mpmc_conservation(q: &dyn DynQueue, producers: usize, consumers: usize, per: u64) {
    let total = per * producers as u64;
    let mut cons = q.handles(consumers);
    let outputs = run_mpmc(
        q.handles(producers),
        &mut cons,
        total,
        |p, h| {
            let base = 1 + p as u64 * per;
            for i in 0..per {
                while !h.enqueue(base + i) {
                    std::thread::yield_now();
                }
            }
        },
        |h, got| match h.dequeue() {
            Some(v) => {
                got.push(v);
                1
            }
            None => 0,
        },
    );

    check_exactly_once(&outputs, total, q.name());
    if q.fifo() {
        check_per_producer_fifo(&outputs, producers, per, q.name());
    }
    assert_eq!(
        cons[0].dequeue(),
        None,
        "{}: residue after conservation",
        q.name()
    );
}

#[test]
fn mpmc_conservation_all_sound_queues() {
    for kind in ALL_KINDS {
        let q = kind.build(16, 4);
        if !q.sound() {
            continue;
        }
        mpmc_conservation(&*q, 2, 2, 2_000);
    }
}

#[test]
fn mpmc_conservation_tiny_capacity_high_churn() {
    // Capacity 2 maximizes wraparound pressure: every slot is reused
    // thousands of times.
    for kind in [
        QueueKind::Distinct,
        QueueKind::Dcss,
        QueueKind::Optimal,
        QueueKind::Segment,
        QueueKind::LlSc,
        QueueKind::Vyukov,
        QueueKind::ShardedOptimal,
        QueueKind::ShardedSegment,
    ] {
        let q = kind.build(2, 4);
        mpmc_conservation(&*q, 2, 2, 1_500);
    }
}

#[test]
fn spsc_strict_fifo_all_sound_queues() {
    for kind in ALL_KINDS {
        let q = kind.build(8, 2);
        if !q.sound() || !q.fifo() {
            continue; // sharded kinds: per-shard FIFO only (DESIGN.md §8)
        }
        let (mut prod, mut cons) = (q.register(), q.register());
        let n = 4_000u64;
        std::thread::scope(|s| {
            s.spawn(move || {
                for v in 1..=n {
                    while !prod.enqueue(v) {
                        std::thread::yield_now();
                    }
                }
            });
            let mut expect = 1u64;
            while expect <= n {
                match cons.dequeue() {
                    Some(v) => {
                        assert_eq!(v, expect, "{}: SPSC order broken", q.name());
                        expect += 1;
                    }
                    None => std::thread::yield_now(),
                }
            }
        });
    }
}

/// Batched MPMC conservation: producers push through `enqueue_many`,
/// consumers drain through `dequeue_many` — the native batch fast paths
/// (segment runs, slot runs) under real contention. For FIFO kinds,
/// per-producer order must additionally survive batching (elements of a
/// batch linearize in slice order).
fn batched_mpmc_conservation(q: &dyn DynQueue, producers: usize, per: u64, batch: usize) {
    let total = per * producers as u64;
    let mut cons = q.handles(2);
    let outputs = run_mpmc(
        q.handles(producers),
        &mut cons,
        total,
        |p, h| {
            let vals: Vec<u64> = (0..per).map(|i| 1 + p as u64 * per + i).collect();
            let mut sent = 0usize;
            while sent < vals.len() {
                let end = (sent + batch).min(vals.len());
                let n = h.enqueue_many(&vals[sent..end]);
                sent += n;
                if n == 0 {
                    std::thread::yield_now();
                }
            }
        },
        |h, got| {
            let before = got.len();
            let n = h.dequeue_many(batch, got);
            assert_eq!(n, got.len() - before, "{}: count contract", q.name());
            n
        },
    );

    check_exactly_once(&outputs, total, q.name());
    if q.fifo() {
        // Elements of a batch linearize in slice order, so batching must
        // not cost the FIFO kinds their per-producer order.
        check_per_producer_fifo(&outputs, producers, per, q.name());
    }
    assert_eq!(
        cons[0].dequeue(),
        None,
        "{}: residue after batches",
        q.name()
    );
}

#[test]
fn batched_mpmc_conservation_all_sound_queues() {
    for kind in ALL_KINDS {
        let q = kind.build(16, 4);
        if !q.sound() {
            continue;
        }
        batched_mpmc_conservation(&*q, 2, 1_500, 5);
    }
}

#[test]
fn batched_conservation_tiny_capacity_sharded() {
    // Minimum shard sizes (C=4 over 4 shards → 1 slot each) under batch
    // churn: the steal rotation is exercised on every operation.
    for kind in [QueueKind::ShardedOptimal, QueueKind::ShardedSegment] {
        let q = kind.build(4, 4);
        batched_mpmc_conservation(&*q, 2, 1_000, 3);
    }
}

#[test]
fn repeated_value_storm_on_value_independent_queues() {
    // Every producer enqueues the SAME token: the regime where Listing 2's
    // assumption fails but the value-independent designs must stay exact.
    for kind in [
        QueueKind::Dcss,
        QueueKind::Optimal,
        QueueKind::Segment,
        QueueKind::LlSc,
        QueueKind::Vyukov,
        QueueKind::Scq,
        QueueKind::MutexRing,
        QueueKind::Ms,
        QueueKind::ShardedOptimal,
        QueueKind::ShardedSegment,
    ] {
        let q = kind.build(4, 3);
        let mut cons = q.register();
        let per = 2_500u64;
        std::thread::scope(|s| {
            for mut h in q.handles(2) {
                s.spawn(move || {
                    for _ in 0..per {
                        while !h.enqueue(42) {
                            std::thread::yield_now();
                        }
                    }
                });
            }
            let mut got = 0u64;
            while got < 2 * per {
                match cons.dequeue() {
                    Some(v) => {
                        assert_eq!(v, 42, "{}", q.name());
                        got += 1;
                    }
                    None => std::thread::yield_now(),
                }
            }
        });
        assert_eq!(cons.dequeue(), None, "{}: exact count", q.name());
    }
}
