//! **Experiment E11** — the scale layer's shard × batch sweep.
//!
//! Sweeps `ShardedQueue<OptimalQueue>` over shard counts `S` and batch
//! sizes `B` on the mixed-pairs workload (E11), then isolates the
//! batching win on the fixed registry configurations: the
//! single-element path against the batched path at equal element counts
//! (E11b). Every cell is measured with [`bq_bench::measure`] on a fresh
//! queue per run and printed as `median (q1–q3)`; both tables land in
//! `BENCH_shard_sweep.json`.
//!
//! Hardware note: the shard dimension can show parallel speedup only up
//! to the host's core count (`host_cores` in the artifact) — sharding
//! removes counter contention, which only materializes with real
//! parallelism. The batch dimension amortizes per-call costs (virtual
//! call, shard scan, epoch pin, tail CAS) and shows up even solo.
//!
//! Run: `cargo run --release -p bq-bench --bin shard_sweep`

use bq_bench::measure::{measure, repeat, Spread, TRIALS};
use bq_bench::meta::{run_meta, smoke_mode, write_bench_json};
use bq_bench::registry::{sharded_optimal, DynQueue, QueueKind};
use bq_bench::workload::batched_pairs_throughput;
use serde::Serialize;

/// One row of `BENCH_shard_sweep.json`: an E11 cell, or one side of an
/// E11b comparison.
#[derive(Serialize)]
struct SweepRow {
    experiment: &'static str,
    /// `sharded{S}-optimal` for E11, the registry kind for E11b.
    queue: String,
    batch: usize,
    threads: usize,
    /// Median Mops.
    mops: f64,
    ops: u64,
    /// E11b's batched side: median (q1–q3) of the per-pair speed-ups
    /// over B = 1.
    speedup: Option<Spread>,
}

/// Mops of `elems` elements per thread moved `b` at a time through `q`,
/// which the caller builds fresh for each run.
fn batched_mops(q: Box<dyn DynQueue>, threads: usize, elems: u64, b: usize) -> f64 {
    batched_pairs_throughput(&*q, &mut q.handles(threads), elems / b as u64, b).mops()
}

fn main() {
    let meta = run_meta();
    let (c, threads) = (1024, 2usize);
    let elems: u64 = if smoke_mode() { 4_096 } else { 65_536 };
    let ops = 2 * threads as u64 * elems;
    let batches = [1usize, 8, 64];
    let mut rows: Vec<SweepRow> = Vec::new();

    println!("=== E11: shard × batch sweep — ShardedQueue<OptimalQueue> ===");
    println!(
        "C = {c}, {threads} threads, {elems} pairs/thread (constant element count per\n\
         cell); {} host cores. each cell: {TRIALS} runs, each on a fresh queue;\n\
         median (q1–q3) Mops\n",
        meta.host_cores
    );
    print!("{:>8}", "S \\ B");
    for b in batches {
        print!(" {:>22}", format!("B={b} Mops"));
    }
    println!();
    for s in [1usize, 2, 4, 8] {
        print!("{s:>8}");
        for b in batches {
            let mops = repeat(|| batched_mops(sharded_optimal(c, s, threads), threads, elems, b));
            print!(" {:>22}", format!("{mops:.2}"));
            rows.push(SweepRow {
                experiment: "E11-shard-batch",
                queue: format!("sharded{s}-optimal"),
                batch: b,
                threads,
                mops: mops.median,
                ops,
                speedup: None,
            });
        }
        println!();
    }

    let batch = 32;
    println!("\n=== E11b: batched vs single-element path (B={batch} vs B=1) ===");
    println!(
        "same element count on both sides; each kind compares B=1 with B={batch} over\n\
         {TRIALS} interleaved pairs, each run on a fresh queue; median (q1–q3)\n"
    );
    println!(
        "{:<20} {:>20} {:>20} {:>20}",
        "queue",
        "single Mops",
        format!("B={batch} Mops"),
        "speedup (x)"
    );
    for kind in [
        QueueKind::Optimal,
        QueueKind::ShardedOptimal,
        QueueKind::Segment,
        QueueKind::ShardedSegment,
        QueueKind::Vyukov,
    ] {
        let t = measure(
            || batched_mops(kind.build(c, threads), threads, elems, 1),
            || batched_mops(kind.build(c, threads), threads, elems, batch),
        );
        let (single, batched) = (Spread::of(&t.a), Spread::of(&t.b));
        let speedup = t.per_pair(|single, batched| batched / single);
        println!(
            "{:<20} {:>20} {:>20} {:>20}",
            kind.name(),
            format!("{single:.2}"),
            format!("{batched:.2}"),
            format!("{speedup:.2}")
        );
        for (b, side, speedup) in [(1, single, None), (batch, batched, Some(speedup))] {
            rows.push(SweepRow {
                experiment: "E11b-batch-win",
                queue: kind.name().to_string(),
                batch: b,
                threads,
                mops: side.median,
                ops,
                speedup,
            });
        }
    }
    println!(
        "\nReading: batching amortizes the per-operation fixed costs (registry\n\
         virtual call, shard selection, epoch pin, find_segment walk, one tail\n\
         CAS per Vyukov slot run); the shard dimension needs more cores than\n\
         threads to show its contention win."
    );

    write_bench_json("BENCH_shard_sweep.json", &meta, &rows);
    println!(
        "\nwrote {} rows to BENCH_shard_sweep.json (git_sha {}, smoke {}, {} cores)",
        rows.len(),
        meta.git_sha,
        meta.smoke,
        meta.host_cores
    );
}
