//! Property-based sequential specification tests: every queue in the
//! workspace, driven single-threaded through an arbitrary operation
//! sequence, must behave exactly like the sequential bounded queue of
//! Figure 1 — now including the scale layer's batch operations, replayed
//! against the `SeqRingQueue` batch oracle.
//!
//! The sharded kinds relax global FIFO to per-shard FIFO (DESIGN.md §8),
//! so they are excluded from the FIFO-oracle properties (via
//! `DynQueue::fifo`) and covered by their own pool-semantics property:
//! single-threaded, a sharded queue's `Full`/`None` reports are *exact*
//! (the scan is not raced), so acceptance counts and conservation must
//! match the oracle — only the ordering is permuted.

use std::collections::VecDeque;

use membq::bench_registry::{DynQueue, ALL_KINDS};
use membq::core::SeqRingQueue;
use proptest::prelude::*;

/// Smoke-sized case counts under `MEMBQ_SMOKE=1` (CI short path).
fn cases(full: u32) -> u32 {
    if bq_bench::smoke_mode() {
        (full / 4).max(4)
    } else {
        full
    }
}

#[derive(Debug, Clone, Copy)]
enum OpKind {
    Enq,
    Deq,
}

fn op_strategy() -> impl Strategy<Value = Vec<OpKind>> {
    prop::collection::vec(prop_oneof![Just(OpKind::Enq), Just(OpKind::Deq)], 1..200)
}

/// Interleaved single + batch operations for the batch-extension property.
#[derive(Debug, Clone, Copy)]
enum BatchOp {
    Enq,
    Deq,
    EnqMany(usize),
    DeqMany(usize),
}

fn batch_op_strategy() -> impl Strategy<Value = Vec<BatchOp>> {
    prop::collection::vec(
        prop_oneof![
            Just(BatchOp::Enq),
            Just(BatchOp::Deq),
            (0usize..7).prop_map(BatchOp::EnqMany),
            (0usize..7).prop_map(BatchOp::DeqMany),
        ],
        1..120,
    )
}

fn run_against_model(q: &dyn DynQueue, ops: &[OpKind]) {
    let mut h = q.register();
    let c = q.capacity();
    let mut model: VecDeque<u64> = VecDeque::new();
    let mut next_token = 1u64;
    for (step, op) in ops.iter().enumerate() {
        match op {
            OpKind::Enq => {
                let v = next_token;
                next_token += 1;
                let accepted = h.enqueue(v);
                let model_accepts = model.len() < c;
                assert_eq!(
                    accepted,
                    model_accepts,
                    "{}: step {step}: enqueue acceptance diverged (len {})",
                    q.name(),
                    model.len()
                );
                if model_accepts {
                    model.push_back(v);
                }
            }
            OpKind::Deq => {
                let got = h.dequeue();
                let want = model.pop_front();
                assert_eq!(got, want, "{}: step {step}: dequeue diverged", q.name());
            }
        }
    }
    // Drain and compare the residue.
    while let Some(want) = model.pop_front() {
        assert_eq!(h.dequeue(), Some(want), "{}: residue diverged", q.name());
    }
    assert_eq!(h.dequeue(), None, "{}: queue must end empty", q.name());
}

/// Replay interleaved single/batch ops against the `SeqRingQueue` batch
/// oracle: acceptance counts and delivered values must agree elementwise.
fn run_batches_against_oracle(q: &dyn DynQueue, ops: &[BatchOp]) {
    let mut h = q.register();
    let mut oracle = SeqRingQueue::with_capacity(q.capacity());
    let mut next_token = 1u64;
    let mut fresh = |n: usize| -> Vec<u64> {
        let vs: Vec<u64> = (0..n as u64).map(|i| next_token + i).collect();
        next_token += n as u64;
        vs
    };
    for (step, op) in ops.iter().enumerate() {
        match *op {
            BatchOp::Enq => {
                let v = fresh(1)[0];
                assert_eq!(
                    h.enqueue(v),
                    oracle.enqueue(v).is_ok(),
                    "{}: step {step}: single enqueue diverged",
                    q.name()
                );
            }
            BatchOp::Deq => {
                assert_eq!(
                    h.dequeue(),
                    oracle.dequeue(),
                    "{}: step {step}: single dequeue diverged",
                    q.name()
                );
            }
            BatchOp::EnqMany(n) => {
                let vs = fresh(n);
                let got = h.enqueue_many(&vs);
                let want = oracle.enqueue_many(&vs);
                assert_eq!(
                    got,
                    want,
                    "{}: step {step}: enqueue_many accepted count diverged",
                    q.name()
                );
            }
            BatchOp::DeqMany(max) => {
                let mut got = Vec::new();
                let mut want = Vec::new();
                assert_eq!(
                    h.dequeue_many(max, &mut got),
                    oracle.dequeue_many(max, &mut want),
                    "{}: step {step}: dequeue_many count diverged",
                    q.name()
                );
                assert_eq!(
                    got,
                    want,
                    "{}: step {step}: batch values diverged",
                    q.name()
                );
            }
        }
    }
    // Drain both and compare the residue in one batched sweep.
    let mut got = Vec::new();
    let mut want = Vec::new();
    h.dequeue_many(q.capacity() + 1, &mut got);
    oracle.dequeue_many(q.capacity() + 1, &mut want);
    assert_eq!(got, want, "{}: residue diverged", q.name());
}

/// The sharded kinds, single-threaded: counts are exact, ordering is a
/// permutation — conservation against a multiset model.
fn run_sharded_pool_semantics(q: &dyn DynQueue, ops: &[BatchOp]) {
    let mut h = q.register();
    let mut live: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    let c = q.capacity();
    let mut next_token = 1u64;
    for (step, op) in ops.iter().enumerate() {
        match *op {
            BatchOp::Enq | BatchOp::EnqMany(_) => {
                let n = if let BatchOp::EnqMany(n) = *op { n } else { 1 };
                let vs: Vec<u64> = (0..n as u64).map(|i| next_token + i).collect();
                next_token += n as u64;
                let accepted = h.enqueue_many(&vs);
                // Quiescent sharded full-reports are exact: accept until C.
                assert_eq!(
                    accepted,
                    n.min(c - live.len()),
                    "{}: step {step}: acceptance count not exact when quiescent",
                    q.name()
                );
                live.extend(&vs[..accepted]);
            }
            BatchOp::Deq | BatchOp::DeqMany(_) => {
                let max = if let BatchOp::DeqMany(m) = *op { m } else { 1 };
                let mut out = Vec::new();
                let n = h.dequeue_many(max, &mut out);
                assert_eq!(
                    n,
                    max.min(live.len()),
                    "{}: step {step}: dequeue count not exact when quiescent",
                    q.name()
                );
                for v in out {
                    assert!(
                        live.remove(&v),
                        "{}: step {step}: fabricated or duplicated {v}",
                        q.name()
                    );
                }
            }
        }
    }
    let mut rest = Vec::new();
    h.dequeue_many(c + 1, &mut rest);
    assert_eq!(rest.len(), live.len(), "{}: residue count", q.name());
    for v in rest {
        assert!(live.remove(&v), "{}: residue fabricated {v}", q.name());
    }
    assert!(live.is_empty(), "{}: elements lost: {live:?}", q.name());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(48)))]

    #[test]
    fn all_fifo_queues_match_the_sequential_spec(ops in op_strategy(), cap in 1usize..9) {
        for kind in ALL_KINDS {
            // Vyukov's sequence encoding requires C ≥ 2 (see its docs).
            if cap < 2 && matches!(kind, membq::bench_registry::QueueKind::Vyukov) {
                continue;
            }
            let q = kind.build(cap, 1);
            if !q.fifo() {
                continue; // sharded kinds: per-shard FIFO only (see below)
            }
            run_against_model(&*q, &ops);
        }
    }

    #[test]
    fn batch_ops_match_the_seq_ring_oracle(ops in batch_op_strategy(), cap in 2usize..9) {
        // Every FIFO queue in the registry, including the native batch
        // fast paths (segment runs, Vyukov slot runs), against Figure 1's
        // batch oracle.
        for kind in ALL_KINDS {
            let q = kind.build(cap, 1);
            if !q.fifo() {
                continue;
            }
            run_batches_against_oracle(&*q, &ops);
        }
    }

    #[test]
    fn sharded_kinds_obey_pool_semantics_sequentially(
        ops in batch_op_strategy(),
        cap in 4usize..17,
    ) {
        for kind in [
            membq::bench_registry::QueueKind::ShardedOptimal,
            membq::bench_registry::QueueKind::ShardedSegment,
        ] {
            let q = kind.build(cap, 1);
            assert!(!q.fifo(), "sharded kinds must be flagged relaxed");
            run_sharded_pool_semantics(&*q, &ops);
        }
    }

    #[test]
    fn wraparound_heavy_sequences(cap in 2usize..5, rounds in 1usize..40) {
        // Alternating fill/empty exercises many rounds through each slot —
        // the regime where versioned nulls, sequence numbers and descriptor
        // rounds must all keep working.
        for kind in ALL_KINDS {
            let q = kind.build(cap, 1);
            if !q.fifo() {
                // Sharded kinds: fill/empty counts stay exact, order is
                // per-shard — covered by the pool-semantics property.
                continue;
            }
            let mut h = q.register();
            let mut next = 1u64;
            for _ in 0..rounds {
                for _ in 0..cap {
                    assert!(h.enqueue(next), "{}", q.name());
                    next += 1;
                }
                assert!(!h.enqueue(next), "{} must report full", q.name());
                for i in 0..cap {
                    let want = next - (cap - i) as u64;
                    assert_eq!(h.dequeue(), Some(want), "{}", q.name());
                }
                assert_eq!(h.dequeue(), None, "{} must report empty", q.name());
            }
        }
    }

    #[test]
    fn wraparound_heavy_batch_runs(cap in 2usize..6, rounds in 1usize..30) {
        // The batch paths under maximal wraparound: full-capacity runs,
        // every round, against the oracle.
        for kind in ALL_KINDS {
            let q = kind.build(cap, 1);
            if !q.fifo() {
                continue;
            }
            let mut h = q.register();
            let mut oracle = SeqRingQueue::with_capacity(cap);
            let mut next = 1u64;
            for _ in 0..rounds {
                let vs: Vec<u64> = (0..(cap + 1) as u64).map(|i| next + i).collect();
                next += vs.len() as u64;
                assert_eq!(
                    h.enqueue_many(&vs),
                    oracle.enqueue_many(&vs),
                    "{}: full-capacity run must accept exactly C",
                    q.name()
                );
                let mut got = Vec::new();
                let mut want = Vec::new();
                assert_eq!(
                    h.dequeue_many(cap + 1, &mut got),
                    oracle.dequeue_many(cap + 1, &mut want),
                    "{}",
                    q.name()
                );
                assert_eq!(got, want, "{}: wraparound batch order", q.name());
            }
        }
    }
}
