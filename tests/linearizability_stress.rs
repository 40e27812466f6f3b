//! Linearizability stress: record small concurrent histories from the
//! *real* queue implementations (OS threads, real interleavings) and feed
//! them to the Wing–Gong checker from `bq-sim`.
//!
//! The recorded invoke/return order is obtained through a mutex-guarded
//! log, which can only *coarsen* real-time precedence (an operation's
//! logged invoke is no later than its actual start; its logged return is
//! no earlier than its actual end), so any history that fails the checker
//! would be a genuine linearizability bug.
//!
//! The scale layer (DESIGN.md §8) is covered the same way:
//!
//! * **batch paths** on the strict-FIFO queues record each batch element
//!   as an individual operation spanning the batch call (each element
//!   linearizes individually inside it — the recorded interval contains
//!   its true linearization point) and must pass the **strict queue**
//!   checker;
//! * **`ShardedQueue<OptimalQueue>`** relaxes global FIFO to per-shard
//!   FIFO, so its histories are checked against the **pool (multiset)**
//!   spec (`check_history_pool`) — and `sharding_relaxes_fifo_exactly`
//!   pins that the relaxation is exactly that: the strict checker rejects
//!   a sharded history that the pool checker (and per-shard order)
//!   accepts. We deliberately assert nothing stronger.

use std::sync::Arc;

use membq::bench_registry::QueueKind;
use membq::sim::{check_history, check_history_pool, History, HistoryEvent, Op, OpId, Ret};
use parking_lot::Mutex;

/// Shared history recorder assigning operation ids in logged-invoke order
/// (the convention `check_history` expects).
struct Recorder {
    inner: Mutex<History>,
    next: Mutex<usize>,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            inner: Mutex::new(History::new()),
            next: Mutex::new(0),
        }
    }

    fn invoke(&self, tid: usize, op: Op) -> OpId {
        let mut h = self.inner.lock();
        let mut n = self.next.lock();
        let id = OpId(*n);
        *n += 1;
        h.push(HistoryEvent::Invoke { id, tid, op });
        id
    }

    fn ret(&self, id: OpId, ret: Ret) {
        self.inner.lock().push(HistoryEvent::Return { id, ret });
    }

    /// Invoke a whole batch under one lock acquisition: every element of
    /// an `enqueue_many`/`dequeue_many` call becomes its own operation
    /// whose logged invoke precedes the call and whose return follows it.
    fn invoke_many(&self, tid: usize, ops: impl IntoIterator<Item = Op>) -> Vec<OpId> {
        let mut h = self.inner.lock();
        let mut n = self.next.lock();
        ops.into_iter()
            .map(|op| {
                let id = OpId(*n);
                *n += 1;
                h.push(HistoryEvent::Invoke { id, tid, op });
                id
            })
            .collect()
    }
}

/// Tiny deterministic per-seed generator (split-mix), so the stress mix
/// differs across the required ≥ 3 seeds without depending on the rand
/// shim.
struct SeedMix(u64);

impl SeedMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Shared driver for the batch-path stress: 3 threads issue a seed-driven
/// mix of `enqueue_many`/`dequeue_many`, every element recorded as an
/// individual spanning operation; `check` judges each round's history.
fn stress_batch_paths(
    kind: QueueKind,
    capacity: usize,
    rounds: usize,
    seed: u64,
    check: fn(&History, usize) -> bool,
) {
    for round in 0..rounds {
        let q = kind.build(capacity, 3);
        let rec = Arc::new(Recorder::new());
        let base = 1 + round as u64 * 1000 + seed * 1_000_000;

        std::thread::scope(|s| {
            for (tid, mut h) in q.handles(3).into_iter().enumerate() {
                let rec = Arc::clone(&rec);
                s.spawn(move || {
                    let mut mix = SeedMix(seed ^ (tid as u64) << 32 ^ round as u64);
                    for i in 0..3u64 {
                        let batch = 1 + (mix.next() % 2) as usize; // 1..=2
                        if mix.next().is_multiple_of(2) {
                            let vs: Vec<u64> = (0..batch as u64)
                                .map(|j| base + tid as u64 * 100 + i * 10 + j)
                                .collect();
                            let ids = rec.invoke_many(tid, vs.iter().map(|&v| Op::Enqueue(v)));
                            let n = h.enqueue_many(&vs);
                            for (k, id) in ids.into_iter().enumerate() {
                                rec.ret(id, if k < n { Ret::EnqOk } else { Ret::EnqFull });
                            }
                        } else {
                            let ids = rec.invoke_many(tid, std::iter::repeat_n(Op::Dequeue, batch));
                            let mut out = Vec::new();
                            h.dequeue_many(batch, &mut out);
                            for (k, id) in ids.into_iter().enumerate() {
                                rec.ret(
                                    id,
                                    match out.get(k) {
                                        Some(&v) => Ret::DeqVal(v),
                                        None => Ret::DeqEmpty,
                                    },
                                );
                            }
                        }
                        std::thread::yield_now();
                    }
                });
            }
        });

        let history = rec.inner.lock().clone();
        assert!(
            check(&history, capacity),
            "{} produced a bad batch history (seed {seed}, round {round}):\n{}",
            kind.name(),
            history.render()
        );
    }
}

fn stress_one(kind: QueueKind, capacity: usize, rounds: usize) {
    for round in 0..rounds {
        let q = kind.build(capacity, 3);
        let rec = Arc::new(Recorder::new());
        // Distinct tokens per round so the Listing 2 rows stay within their
        // assumption; the value-independent queues don't care.
        let base = 1 + round as u64 * 100;

        std::thread::scope(|s| {
            for (tid, mut h) in q.handles(3).into_iter().enumerate() {
                let rec = Arc::clone(&rec);
                s.spawn(move || {
                    for i in 0..4u64 {
                        if (tid + i as usize).is_multiple_of(2) {
                            let v = base + tid as u64 * 10 + i;
                            let id = rec.invoke(tid, Op::Enqueue(v));
                            let ok = h.enqueue(v);
                            rec.ret(id, if ok { Ret::EnqOk } else { Ret::EnqFull });
                        } else {
                            let id = rec.invoke(tid, Op::Dequeue);
                            let got = h.dequeue();
                            rec.ret(
                                id,
                                match got {
                                    Some(v) => Ret::DeqVal(v),
                                    None => Ret::DeqEmpty,
                                },
                            );
                        }
                        std::thread::yield_now();
                    }
                });
            }
        });

        let history = rec.inner.lock().clone();
        let verdict = check_history(&history, capacity);
        assert!(
            verdict.is_linearizable(),
            "{} produced a non-linearizable history (round {round}):\n{}",
            kind.name(),
            history.render()
        );
    }
}

#[test]
fn listing2_distinct_histories_linearizable() {
    stress_one(QueueKind::Distinct, 2, 60);
}

#[test]
fn listing4_dcss_histories_linearizable() {
    stress_one(QueueKind::Dcss, 2, 60);
}

#[test]
fn listing5_optimal_histories_linearizable() {
    stress_one(QueueKind::Optimal, 2, 60);
}

#[test]
fn listing1_segment_histories_linearizable() {
    stress_one(QueueKind::Segment, 2, 60);
}

#[test]
fn listing3_llsc_histories_linearizable() {
    stress_one(QueueKind::LlSc, 2, 60);
}

// NOTE: Vyukov-style rings are deliberately NOT stress-checked
// for strict linearizability: their `enqueue` can report full spuriously
// while a same-slot consumer from the previous round is mid-flight (see
// `bq_baselines::vyukov` docs) — the semantic relaxation the paper says
// Θ(C) ring buffers accept. Their conservation properties are covered in
// tests/conservation.rs instead.

#[test]
fn mutex_ring_histories_linearizable() {
    stress_one(QueueKind::MutexRing, 2, 60);
}

#[test]
fn larger_capacity_mixed_histories() {
    for kind in [QueueKind::Optimal, QueueKind::Dcss, QueueKind::Distinct] {
        stress_one(kind, 4, 30);
    }
}

// ---------------------------------------------------------------------------
// Scale layer (DESIGN.md §8): sharded queues and batch paths
// ---------------------------------------------------------------------------

fn strict_check(h: &History, c: usize) -> bool {
    check_history(h, c).is_linearizable()
}

fn pool_check(h: &History, c: usize) -> bool {
    check_history_pool(h, c).is_linearizable()
}

/// Single-op histories from `ShardedQueue<OptimalQueue>` against the pool
/// spec, across 3 seeds (the token bases and thread mixes differ).
#[test]
fn sharded_optimal_histories_pool_linearizable() {
    for seed in [1u64, 2, 3] {
        for round in 0..30usize {
            let q = QueueKind::ShardedOptimal.build(4, 3);
            let rec = Arc::new(Recorder::new());
            let base = 1 + round as u64 * 100 + seed * 10_000;
            std::thread::scope(|s| {
                for (tid, mut h) in q.handles(3).into_iter().enumerate() {
                    let rec = Arc::clone(&rec);
                    s.spawn(move || {
                        for i in 0..4u64 {
                            if (tid as u64 + i + seed).is_multiple_of(2) {
                                let v = base + tid as u64 * 10 + i;
                                let id = rec.invoke(tid, Op::Enqueue(v));
                                let ok = h.enqueue(v);
                                rec.ret(id, if ok { Ret::EnqOk } else { Ret::EnqFull });
                            } else {
                                let id = rec.invoke(tid, Op::Dequeue);
                                let got = h.dequeue();
                                rec.ret(
                                    id,
                                    match got {
                                        Some(v) => Ret::DeqVal(v),
                                        None => Ret::DeqEmpty,
                                    },
                                );
                            }
                            std::thread::yield_now();
                        }
                    });
                }
            });
            let history = rec.inner.lock().clone();
            assert!(
                check_history_pool(&history, 4).is_linearizable(),
                "sharded4-optimal broke the pool spec (seed {seed}, round {round}):\n{}",
                history.render()
            );
        }
    }
}

/// Batch paths over the strict-FIFO queues must still satisfy the strict
/// queue spec: each batch element is an individually linearizable op.
#[test]
fn batch_paths_on_fifo_queues_strictly_linearizable() {
    for seed in [1u64, 2, 3] {
        for kind in [QueueKind::Optimal, QueueKind::Segment, QueueKind::Dcss] {
            stress_batch_paths(kind, 2, 20, seed, strict_check);
        }
    }
}

/// Batch paths over the sharded composition against the pool spec.
#[test]
fn batch_paths_on_sharded_pool_linearizable() {
    for seed in [1u64, 2, 3] {
        stress_batch_paths(QueueKind::ShardedOptimal, 4, 20, seed, pool_check);
        stress_batch_paths(QueueKind::ShardedSegment, 4, 20, seed, pool_check);
    }
}

/// Pins the relaxation contract **exactly**: a deterministic sharded
/// execution produces a history that (a) violates global FIFO — the
/// strict checker rejects it — while (b) the pool checker accepts it and
/// (c) per-shard FIFO holds. We assert nothing stronger than (b)+(c):
/// that *is* the documented `ShardedQueue` contract.
#[test]
fn sharding_relaxes_fifo_exactly() {
    use membq::core::{ConcurrentQueue, OptimalQueue, ShardedQueue};

    // 2 shards × 2 slots, one thread (home shard 0).
    let q = ShardedQueue::<OptimalQueue>::optimal(4, 2, 1);
    let mut h = q.register();
    let mut history = History::new();
    let mut next_id = 0usize;
    let mut record = |op: Op, ret: Ret, history: &mut History| {
        history.push(HistoryEvent::Invoke {
            id: OpId(next_id),
            tid: 0,
            op,
        });
        history.push(HistoryEvent::Return {
            id: OpId(next_id),
            ret,
        });
        next_id += 1;
    };

    // Fill: 1,2 land in shard 0; 3,4 overflow into shard 1.
    for v in 1..=4u64 {
        q.enqueue(&mut h, v).unwrap();
        record(Op::Enqueue(v), Ret::EnqOk, &mut history);
    }
    // Drain home shard, refill it, then drain everything.
    let mut order = Vec::new();
    for _ in 0..2 {
        let v = q.dequeue(&mut h).unwrap();
        record(Op::Dequeue, Ret::DeqVal(v), &mut history);
        order.push(v);
    }
    q.enqueue(&mut h, 5).unwrap();
    record(Op::Enqueue(5), Ret::EnqOk, &mut history);
    while let Some(v) = q.dequeue(&mut h) {
        record(Op::Dequeue, Ret::DeqVal(v), &mut history);
        order.push(v);
    }

    // (a) global FIFO is genuinely violated (5 overtakes 3 and 4)...
    assert_eq!(order, vec![1, 2, 5, 3, 4]);
    assert!(
        !check_history(&history, 4).is_linearizable(),
        "history unexpectedly satisfies the strict queue spec"
    );
    // (b) ...the pool spec holds...
    assert!(
        check_history_pool(&history, 4).is_linearizable(),
        "pool spec must accept the sharded history:\n{}",
        history.render()
    );
    // (c) ...and per-shard FIFO holds: shard 0 carried 1,2,5 and shard 1
    // carried 3,4, each delivered in enqueue order.
    let shard0: Vec<u64> = order
        .iter()
        .copied()
        .filter(|v| [1, 2, 5].contains(v))
        .collect();
    let shard1: Vec<u64> = order
        .iter()
        .copied()
        .filter(|v| [3, 4].contains(v))
        .collect();
    assert_eq!(shard0, vec![1, 2, 5], "per-shard FIFO (home shard)");
    assert_eq!(shard1, vec![3, 4], "per-shard FIFO (overflow shard)");
}
