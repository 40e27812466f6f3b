//! Live observability tour (DESIGN.md §14): put a sharded queue and a
//! blocking pair under real threaded load and watch the always-cheap
//! counter blocks tell the story — per-shard refusals and steals,
//! occupancy high-water marks, park/wake traffic, and the snapshot
//! delta arithmetic that turns two readings into a rate table.
//!
//! Built without the feature the same program runs the same workload and
//! prints empty snapshots — that is the zero-cost contract, visible:
//!
//! ```text
//! cargo run --release --example observatory                  # obs off
//! cargo run --release --features obs --example observatory   # obs on
//! ```
//!
//! `MEMBQ_SMOKE=1` shrinks the workload so `tests/examples_smoke.rs`
//! can execute this end to end in milliseconds.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use membq::core::obs::MetricsSnapshot;
use membq::prelude::*;

/// Print a snapshot as an indented table, or the obs-off explanation.
fn show(title: &str, m: &MetricsSnapshot) {
    println!("--- {title} ---");
    if m.is_empty() {
        println!("  (empty: built without the `obs` feature — every counter");
        println!("   is a zero-sized no-op; rerun with `--features obs`)\n");
        return;
    }
    for line in m.to_string().lines() {
        println!("  {line}");
    }
    println!();
}

/// Phase 1: a 2-shard queue, two producers, two consumers, and a mid-run
/// quarantine of shard 0 — steals, rotations, and the health layer's
/// refusal counts all move.
fn sharded_phase(per: u64) {
    let q = Arc::new(ShardedQueue::<OptimalQueue>::optimal(8, 2, 5));
    let total = 2 * per;
    let consumed = Arc::new(AtomicU64::new(0));

    let before = q.metrics();
    std::thread::scope(|s| {
        for _ in 0..2 {
            let q = Arc::clone(&q);
            s.spawn(move || {
                let mut h = q.register();
                for v in 1..=per {
                    while q.enqueue(&mut h, v).is_err() {
                        std::thread::yield_now();
                    }
                }
            });
        }
        for _ in 0..2 {
            let q = Arc::clone(&q);
            let consumed = Arc::clone(&consumed);
            s.spawn(move || {
                let mut h = q.register();
                loop {
                    let done = consumed.load(Ordering::Relaxed) >= total;
                    match q.dequeue(&mut h) {
                        Some(_) => {
                            consumed.fetch_add(1, Ordering::Relaxed);
                        }
                        None if done => break,
                        None => std::thread::yield_now(),
                    }
                }
            });
        }
        // Mid-traffic quarantine: producers homed on shard 0 reroute,
        // which shows up as steals; the flag itself is `quarantines  1`.
        q.quarantine(0);
    });

    let after = q.metrics();
    show("sharded queue, cumulative", &after);
    show("sharded queue, this run (delta)", &after.delta(&before));
}

/// Phase 2: a tiny blocking pair that parks constantly, so the wait
/// blocks fill in — parks, wakes, and the log2 park-latency histogram
/// (`not_empty.park_ns_p2_*` buckets).
fn blocking_phase(per: u64) {
    let q: Arc<BlockingQueue<u64, OptimalQueue>> = Arc::new(BlockingQueue::new(
        OptimalQueue::with_capacity_and_threads(2, 2),
    ));
    std::thread::scope(|s| {
        let qp = Arc::clone(&q);
        s.spawn(move || {
            let mut h = qp.register();
            for v in 1..=per {
                qp.send(&mut h, v).unwrap();
            }
        });
        let mut h = q.register();
        for _ in 0..per {
            q.recv(&mut h).unwrap();
        }
    });
    show("blocking pair (capacity 2)", &q.metrics());
}

fn main() {
    let per: u64 = if bq_bench::smoke_mode() { 500 } else { 50_000 };
    println!(
        "observatory: obs feature {} — workload {per} values/producer\n",
        if cfg!(feature = "obs") { "ON" } else { "OFF" }
    );
    sharded_phase(per);
    blocking_phase(per);
    println!(
        "Counters are relaxed increments on cache lines the operations\n\
         already own; E17 in EXPERIMENTS.md prices the whole layer at\n\
         <= 5% on the uncontended blocking pair."
    );
}
