//! **Experiment E11** — the scale layer's shard × batch sweep.
//!
//! Sweeps `ShardedQueue<OptimalQueue>` over shard counts `S` and batch
//! sizes `B` on the mixed-pairs workload, then isolates the batching win
//! on the fixed registry configurations (single-element path vs batched
//! path at equal element counts).
//!
//! Hardware note: the shard dimension can show parallel speedup only up
//! to the host's core count (`host_cores` in the artifact) — sharding
//! removes counter contention, which only materializes with real
//! parallelism. The batch dimension amortizes per-call costs (virtual
//! call, shard scan, epoch pin, tail CAS) and shows up even solo.
//!
//! Run: `cargo run --release -p bq-bench --bin shard_sweep`

use bq_bench::meta::{run_meta, smoke_mode, write_bench_json};
use bq_bench::registry::{sharded_optimal, QueueKind};
use bq_bench::workload::{batched_pairs_throughput, print_batch_win_table};
use serde::Serialize;

/// One machine-readable cell for `BENCH_shard_sweep.json`.
#[derive(Serialize)]
struct SweepCell {
    experiment: &'static str,
    shards: usize,
    batch: usize,
    threads: usize,
    mops: f64,
    ops: u64,
}

fn main() {
    let smoke = smoke_mode();
    let meta = run_meta();
    let c = 1024;
    let threads = 2usize;
    let total_elems_per_thread: u64 = if smoke { 4_096 } else { 65_536 };
    let shard_counts = [1usize, 2, 4, 8];
    let batches = [1usize, 8, 64];

    println!("=== E11: shard × batch sweep — ShardedQueue<OptimalQueue> ===");
    println!(
        "C = {c}, {threads} threads, {total_elems_per_thread} pairs/thread \
         (constant element count per cell)\n"
    );
    print!("{:>8}", "S \\ B");
    for b in batches {
        print!(" {:>12}", format!("B={b} Mops"));
    }
    println!();
    let mut cells: Vec<SweepCell> = Vec::new();
    for s in shard_counts {
        print!("{:>8}", s);
        for b in batches {
            let q = sharded_optimal(c, s, threads);
            let rounds = total_elems_per_thread / b as u64;
            let r = batched_pairs_throughput(&*q, &mut q.handles(threads), rounds, b);
            print!(" {:>12.3}", r.mops());
            cells.push(SweepCell {
                experiment: "E11-shard-batch",
                shards: s,
                batch: b,
                threads,
                mops: r.mops(),
                ops: r.ops,
            });
        }
        println!();
    }

    println!("\n=== E11b: batched vs single-element path (B=32 vs B=1) ===\n");
    print_batch_win_table(
        &[
            QueueKind::Optimal,
            QueueKind::ShardedOptimal,
            QueueKind::Segment,
            QueueKind::ShardedSegment,
            QueueKind::Vyukov,
        ],
        c,
        threads,
        total_elems_per_thread,
        32,
    );
    println!(
        "\nReading: batching amortizes the per-operation fixed costs (registry\n\
         virtual call, shard selection, epoch pin, find_segment walk, one tail\n\
         CAS per Vyukov slot run); the shard dimension needs multi-core\n\
         hardware to show its contention win — see the ROADMAP open item."
    );

    write_bench_json("BENCH_shard_sweep.json", &meta, &cells);
    println!(
        "\nwrote {} cells to BENCH_shard_sweep.json (git_sha {}, smoke {}, {} cores)",
        cells.len(),
        meta.git_sha,
        meta.smoke,
        meta.host_cores
    );
}
