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
//! * the **peak overhead and live segments** under a producer/consumer
//!   churn with `T` threads (which surfaces the T·K term: retired
//!   segments pinned by in-flight readers), and
//! * the **speed** of one thread filling the queue to `C` and draining it
//!   (tiny segments allocate constantly; huge ones are cheap to cross);
//!
//! the churn peaks and the speed each as the median (q1–q3) of
//! [`bq_bench::measure::repeat`]'s trials. The verdict line is
//! [`churn_verdict`] of the median churn peaks.
//!
//! Run: `cargo run --release -p bq-bench --bin k_sweep`

use std::sync::Arc;

use bq_bench::measure::{repeat, Spread, TRIALS};
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

/// The E2 verdict on the median churn peaks `(K, bytes)`, given in
/// ascending K from K = 4 to K = C: names the K with the smallest median,
/// and calls the U-shape reproduced only when the medians at both ends of
/// the sweep exceed the one at K = √C.
fn churn_verdict(peaks: &[(usize, f64)], sqrt_c: usize) -> String {
    let median_at = |k| peaks.iter().find(|p| p.0 == k).expect("K swept").1;
    let (best_k, _) = *peaks
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("a sweep");
    let ends = [peaks[0].0, peaks[peaks.len() - 1].0];
    let u_shaped = ends.iter().all(|&k| median_at(k) > median_at(sqrt_c));
    let outcome = if u_shaped {
        "reproduced"
    } else {
        "did not reproduce"
    };
    format!(
        "minimum median churn-peak overhead at K = {best_k} (√C = {sqrt_c}); the U-shape \
         around √C of the paper's Θ(C/K + T·K) trade-off {outcome}"
    )
}

fn main() {
    let c = 1 << 14; // 16384
    let sqrt_c = (c as f64).sqrt() as usize; // 128
    let producers = 4;
    let items = 40_000u64 / producers as u64;

    println!("=== E2: segment-size sweep, C = {c}, T = {producers}+1 threads ===");
    println!("paper claim: overhead Θ(C/K + T·K), minimized Θ(T·√C) at K = √C = {sqrt_c}");
    println!("churn and speed columns: median (q1–q3) of {TRIALS} runs\n");
    println!(
        "{:>6} {:>10} {:>16} {:>28} {:>20} {:>22}",
        "K", "C/K", "steady ovh (B)", "churn peak (B)", "peak segments", "fill+drain Mops"
    );

    let mut peaks = Vec::new();
    for k in [4usize, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384] {
        let steady = steady_state_overhead(c, k);
        // Each run's peak segments, beside `repeat`'s peak bytes; the
        // first entry is the warm-up run.
        let mut segs = Vec::new();
        let peak = repeat(|| {
            let (bytes, s) = churn_peak_overhead(c, k, producers, items);
            segs.push(s as f64);
            bytes as f64
        });
        let segs = Spread::of(&segs[1..]);
        let q = SegmentQueue::with_capacity_and_segment_size(c, k);
        let mut h = q.register();
        let mops = repeat(|| solo_bursts(&q, &mut h, c, 1).mops());
        println!(
            "{:>6} {:>10} {:>16} {:>28} {:>20} {:>22}",
            k,
            c / k,
            steady,
            format!("{peak:.0}"),
            format!("{segs:.0}"),
            format!("{mops:.2}")
        );
        peaks.push((k, peak.median));
    }
    println!("\n{}", churn_verdict(&peaks, sqrt_c));

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

#[cfg(test)]
mod tests {
    use super::churn_verdict;

    #[test]
    fn a_u_shape_reproduces_and_names_its_minimum() {
        let v = churn_verdict(
            &[(4, 900.0), (64, 300.0), (128, 400.0), (16384, 800.0)],
            128,
        );
        assert!(v.contains("at K = 64 "), "{v}");
        assert!(v.ends_with("trade-off reproduced"), "{v}");
    }

    #[test]
    fn a_monotone_sweep_does_not_reproduce() {
        let rising = [(4, 100.0), (128, 200.0), (16384, 300.0)];
        let v = churn_verdict(&rising, 128);
        assert!(v.contains("at K = 4 "), "{v}");
        assert!(v.ends_with("did not reproduce"), "{v}");
        let falling = [(4, 300.0), (128, 200.0), (16384, 100.0)];
        let v = churn_verdict(&falling, 128);
        assert!(v.contains("at K = 16384 "), "{v}");
        assert!(v.ends_with("did not reproduce"), "{v}");
    }
}
