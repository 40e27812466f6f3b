//! **Experiment E10** — throughput and the Θ(T)-time cost of memory
//! optimality.
//!
//! Three tables:
//!
//! * E10a: mixed enqueue/dequeue pairs, all algorithms × thread counts —
//!   the general performance landscape (§1: memory-friendliness
//!   correlates with performance; Θ(C) industrial designs are fastest);
//! * E10b: Listing 5 single-threaded operation cost as a function of the
//!   thread bound `T`, against `T = 1` — the paper's closing open
//!   question: its memory-optimal queue scans the `T`-slot announcement
//!   array on every operation, so per-op cost grows with `T` even
//!   without contention (E7's time side);
//! * E10c: the same comparison for Vyukov's queue, which has no thread
//!   bound, so its ratio shows what "no slowdown" reads as.
//!
//! It also prints the waiting-façade (E12), cross-process (E13),
//! zero-copy (E15), deadline (E16) and `obs` (E17) sections. Every
//! timed number is measured with [`bq_bench::measure`] and printed as
//! `median (q1–q3)`; the medians land in `BENCH_throughput_table.json`,
//! and the bar-bound numbers of E15–E17 also land in
//! `BENCH_trajectory.jsonl`, where `trajectory_check` judges them.
//!
//! Run: `cargo run --release -p bq-bench --bin throughput_table`

use bq_baselines::VyukovQueue;
use bq_bench::facade::{async_pairs_throughput, timed_pairs, PATIENCE};
use bq_bench::measure::{measure, repeat, Spread, TRIALS};
use bq_bench::meta::{append_trajectory, run_meta, smoke_mode, write_bench_json};
use bq_bench::payload::{
    payload_pairs_bytering, payload_pairs_grant, payload_pairs_move, PAYLOAD_BYTES,
};
use bq_bench::registry::ALL_KINDS;
use bq_bench::shm_procs::shm_fork_pairs_throughput;
use bq_bench::workload::{pairs_throughput, solo_bursts};
use bq_core::{ConcurrentQueue, OptimalQueue, TimeLimit};
use serde::Serialize;

/// One machine-readable measurement for `BENCH_throughput_table.json`.
#[derive(Serialize)]
struct BenchRow {
    experiment: &'static str,
    queue: String,
    workers: usize,
    mops: f64,
    ops: u64,
}

/// One E10b/E10c row: `pairs` solo enqueue+dequeue pairs on the queue
/// `build(t)` against `build(1)`, over [`measure`]'s interleaved pairs.
/// Prints the T = t side's ns/op and the median per-pair slowdown
/// against T = 1, and returns the row for the JSON file.
fn solo_vs_t1<Q: ConcurrentQueue>(
    experiment: &'static str,
    name: &str,
    t: usize,
    pairs: u64,
    build: impl Fn(usize) -> Q,
) -> BenchRow {
    let (one, many) = (build(1), build(t));
    let (mut h1, mut ht) = (one.register(), many.register());
    let trials = measure(
        || 1e3 / solo_bursts(&one, &mut h1, 1, pairs).mops(),
        || 1e3 / solo_bursts(&many, &mut ht, 1, pairs).mops(),
    );
    let ns = Spread::of(&trials.b);
    let slowdown = trials.per_pair(|one, many| many / one);
    println!(
        "{t:>6} {:>22} {:>20}",
        format!("{ns:.1}"),
        format!("{slowdown:.2}")
    );
    BenchRow {
        experiment,
        queue: format!("{name}-T{t}"),
        workers: 1,
        mops: 1e3 / ns.median,
        ops: 2 * pairs,
    }
}

fn main() {
    let smoke = smoke_mode();
    let meta = run_meta();
    let c = 1024;
    let ops = if smoke { 2_000u64 } else { 20_000u64 };
    let thread_counts = [1usize, 2, 4];
    let mut bench_rows: Vec<BenchRow> = Vec::new();

    println!("=== E10a: mixed pairs throughput (C = {c}, {ops} pairs/thread) ===");
    println!(
        "{} host cores: columns with more threads than cores measure contention, not\n\
         speedup. each cell: {TRIALS} runs, each on a fresh queue; median (q1–q3) Mops\n",
        meta.host_cores
    );
    print!("{:<24} {:>14}", "queue", "claimed ovh");
    for t in thread_counts {
        print!(" {:>20}", format!("{t}th Mops"));
    }
    println!();
    for kind in ALL_KINDS {
        if !kind.build(4, 1).sound() {
            continue; // unsound models are not performance candidates
        }
        print!("{:<24} {:>14}", kind.name(), kind.claimed_overhead());
        for t in thread_counts {
            let mops = repeat(|| {
                let q = kind.build(c, t);
                let r = pairs_throughput(&*q, &mut q.handles(t), ops);
                r.mops()
            });
            print!(" {:>20}", format!("{mops:.2}"));
            bench_rows.push(BenchRow {
                experiment: "E10a-pairs",
                queue: kind.name().to_string(),
                workers: t,
                mops: mops.median,
                ops: 2 * t as u64 * ops,
            });
        }
        println!();
    }

    let solo_pairs = if smoke { 3_000u64 } else { 30_000u64 };
    println!("\n=== E10b: Listing 5 per-op cost vs thread bound T (solo thread) ===");
    println!(
        "the announcement array is scanned on every op → cost grows ~linearly in T.\n\
         each row runs {solo_pairs} enqueue+dequeue pairs per trial, T = 1 against T = t\n\
         over {TRIALS} interleaved pairs; median (q1–q3)\n"
    );
    println!("{:>6} {:>22} {:>20}", "T", "ns/op (solo)", "vs T=1 (x)");
    for t in [1usize, 2, 4, 8, 16, 32, 64, 128] {
        bench_rows.push(solo_vs_t1(
            "E10b-optimal-vs-T",
            "listing5-optimal",
            t,
            solo_pairs,
            |t| OptimalQueue::with_capacity_and_threads(c, t),
        ));
    }
    println!(
        "\nReading: memory optimality costs time — Θ(T) per operation — matching the\n\
         paper's §3.6 remark and its open question whether O(1)-time memory-optimal\n\
         queues exist."
    );

    println!("\n=== E10c: Vyukov control for E10b (per-slot design, no thread bound) ===");
    println!(
        "the same loop and comparison; Vyukov's queue takes no T, so both sides of\n\
         a row are the same queue and the ratio shows what no slowdown reads as\n"
    );
    println!("{:>6} {:>22} {:>20}", "T", "ns/op (solo)", "vs T=1 (x)");
    for t in [1usize, 8, 64] {
        bench_rows.push(solo_vs_t1(
            "E10c-vyukov-vs-T",
            "vyukov",
            t,
            solo_pairs,
            |_| VyukovQueue::with_capacity(c),
        ));
    }

    println!("\n=== E12: waiting façades — blocking vs async pairs (DESIGN.md §9) ===");
    println!(
        "same Listing 5 data path and the same eventcount pair; the only\n\
         difference is what parks on a full/empty queue: an OS thread\n\
         (condvar) or an async task (registered waker, block_on driver).\n\
         C = 4 forces real parking; {} host cores: rows with more threads\n\
         than cores price the wake path under preemption, not speedup.\n\
         each row: {TRIALS} interleaved blocking/async pairs; median (q1–q3)\n",
        meta.host_cores
    );
    println!(
        "{:>7} {:>20} {:>20} {:>20}",
        "threads", "blocking Mops", "async Mops", "async/blocking (x)"
    );
    let facade_ops = if smoke { 1_000u64 } else { 10_000u64 };
    for threads in [1usize, 2, 4] {
        let t = measure(
            || timed_pairs(4, threads, facade_ops, TimeLimit::Never).mops(),
            || async_pairs_throughput(4, threads, facade_ops).mops(),
        );
        let ratio = t.per_pair(|blocking, async_| async_ / blocking);
        let (blocking, async_) = (Spread::of(&t.a), Spread::of(&t.b));
        println!(
            "{threads:>7} {:>20} {:>20} {:>20}",
            format!("{blocking:.2}"),
            format!("{async_:.2}"),
            format!("{ratio:.2}")
        );
        for (queue, side) in [("blocking-optimal", blocking), ("async-optimal", async_)] {
            bench_rows.push(BenchRow {
                experiment: "E12-facade-pairs",
                queue: queue.to_string(),
                workers: threads,
                mops: side.median,
                ops: 2 * threads as u64 * facade_ops,
            });
        }
    }
    println!(
        "\nReading: the async façade pays future/waker bookkeeping per wait but\n\
         wakes without a kernel unpark when the task is re-polled on a live\n\
         thread; neither path contains timed polling."
    );

    println!(
        "\n=== E16: timed waits — send_within/recv_within, Timeout vs Never (DESIGN.md §13) ==="
    );
    println!(
        "same entry points, façade and data path on both sides; only the\n\
         TimeLimit differs: Never vs a Timeout that never fires. the timeout\n\
         resolves lazily at the FIRST PARK, so the uncontended row must show\n\
         ~zero overhead (claim: <= 5%); contended rows add one clock read\n\
         per park. {TRIALS} interleaved pairs per row; median (q1–q3)\n"
    );
    // Larger than the other sections even in smoke: the headline is a
    // percent-level *difference*, which tiny runs drown in noise.
    let timed_ops = if smoke { 20_000u64 } else { 100_000u64 };
    println!(
        "{:<22} {:>7} {:>12} {:>12} {:>24}",
        "workload", "threads", "untimed Mops", "timed Mops", "overhead %"
    );
    let mut e16_headline: Vec<(&str, Spread)> = Vec::new();
    for (label, key, cap, threads) in [
        ("uncontended", "uncontended_overhead_pct", 1024usize, 1usize),
        ("contended", "contended_2th_overhead_pct", 4, 2),
        ("contended", "contended_4th_overhead_pct", 4, 4),
    ] {
        let t = measure(
            || timed_pairs(cap, threads, timed_ops, TimeLimit::Never).mops(),
            || timed_pairs(cap, threads, timed_ops, TimeLimit::Timeout(PATIENCE)).mops(),
        );
        let overhead = t.per_pair(|never, timed| (never / timed - 1.0) * 100.0);
        let (never, timed) = (Spread::of(&t.a), Spread::of(&t.b));
        println!(
            "{:<22} {:>7} {:>12.3} {:>12.3} {:>24}",
            format!("{label} (C={cap})"),
            threads,
            never.median,
            timed.median,
            format!("{overhead:.1}")
        );
        for (queue, side) in [
            ("blocking-optimal", never),
            ("blocking-optimal-timed", timed),
        ] {
            bench_rows.push(BenchRow {
                experiment: "E16-timed-pairs",
                queue: format!("{queue}-{threads}th-c{cap}"),
                workers: threads,
                mops: side.median,
                ops: 2 * threads as u64 * timed_ops,
            });
        }
        if threads == 1 {
            e16_headline.push(("uncontended_untimed_mops", never));
            e16_headline.push(("uncontended_timed_mops", timed));
        }
        e16_headline.push((key, overhead));
    }
    println!(
        "\nReading: a timed op that never parks never reads the clock — the\n\
         deadline is a value in a register until the first failed attempt.\n\
         The §13 claim bounds the uncontended median overhead at 5%."
    );

    println!("\n=== E17: observability overhead — `obs` counters on vs off (DESIGN.md §14) ===");
    let obs_on = cfg!(feature = "obs");
    let lane = if obs_on { "on" } else { "off" };
    println!(
        "this build has the obs feature {lane}. it measures E16's untimed\n\
         uncontended arm (C=1024, 1 thread) {TRIALS} times and appends one\n\
         E17-obs-lane row to BENCH_trajectory.jsonl. run the other lane:\n\
         \n    cargo run --release -p bq-bench {}--bin throughput_table\n\n\
         then trajectory_check pairs each obs-on row with the nearest\n\
         earlier obs-off row of this commit and judges the median of the\n\
         pair ratios (claim: <= 5% uncontended)\n",
        if obs_on { "" } else { "--features obs " },
    );
    let e17 = repeat(|| timed_pairs(1024, 1, timed_ops, TimeLimit::Never).mops());
    println!("counters {lane}: {e17:.3} Mops");
    bench_rows.push(BenchRow {
        experiment: "E17-obs-overhead",
        queue: format!("blocking-optimal-obs-{lane}"),
        workers: 1,
        mops: e17.median,
        ops: 2 * timed_ops,
    });
    append_trajectory(&meta, "E17-obs-lane", &[("obs", &obs_on), ("mops", &e17)]);

    println!("\n=== E13: cross-process pairs — ShmQueue over fork (bq-shm) ===");
    println!(
        "each worker is a separate PROCESS sharing one mmap segment; the\n\
         protocol is the crash-consistent publication scheme of DESIGN.md\n\
         §10. {} host cores: rows with more processes than cores measure\n\
         the protocol under context switching (plus amortized fork cost).\n\
         each row: {TRIALS} runs, each on a fresh segment; median (q1–q3)\n",
        meta.host_cores
    );
    println!("{:<14} {:>20}", "procs (P+C)", "Mops");
    let shm_per = if smoke { 2_000u64 } else { 20_000u64 };
    for (p, cons) in [(1u64, 1u64), (2, 2)] {
        let mops = repeat(|| shm_fork_pairs_throughput(c, p, cons, shm_per).mops());
        println!(
            "{:<14} {:>20}",
            format!("{p}P + {cons}C"),
            format!("{mops:.2}")
        );
        bench_rows.push(BenchRow {
            experiment: "E13-shm-fork-pairs",
            queue: "shm-mpmc".to_string(),
            workers: (p + cons) as usize,
            mops: mops.median,
            ops: 2 * p * shm_per,
        });
    }
    println!(
        "\nReading: the same sequenced-ring data path as `vyukov`, paying\n\
         SeqCst helping CASes and process-grade context switches; the row\n\
         exists to show the multi-process backend is in the same regime,\n\
         not to win."
    );

    println!("\n=== E15: zero-copy payload path — {PAYLOAD_BYTES} B messages, 1P + 1C ===");
    println!(
        "same ring machinery three ways: move = two full payload copies per\n\
         message (local→slot, slot→local); grant = fill/checksum the slot\n\
         bytes in place (DESIGN.md §12); byte-ring = grants plus a length\n\
         header per record. every run checksums every byte delivered.\n\
         {} host cores; each path is compared with move over {TRIALS}\n\
         interleaved pairs; median (q1–q3)\n",
        meta.host_cores
    );
    let slots = 64;
    let payload_msgs = if smoke { 5_000u64 } else { 50_000u64 };
    let grant = measure(
        || payload_pairs_move(slots, payload_msgs).kmsgs(),
        || payload_pairs_grant(slots, payload_msgs).kmsgs(),
    );
    let bytes = measure(
        || payload_pairs_move(slots, payload_msgs).kmsgs(),
        || payload_pairs_bytering(slots, payload_msgs).kmsgs(),
    );
    let grant_speedup = grant.per_pair(|mv, grant| grant / mv);
    let bytes_speedup = bytes.per_pair(|mv, bytes| bytes / mv);
    let (move_kmsgs, grant_kmsgs, bytes_kmsgs) = (
        Spread::of(&grant.a),
        Spread::of(&grant.b),
        Spread::of(&bytes.b),
    );
    println!("{:<12} {:>28} {:>24}", "path", "kmsg/s", "vs move (x)");
    for (name, kmsgs, vs_move) in [
        ("move", move_kmsgs, None),
        ("grant", grant_kmsgs, Some(grant_speedup)),
        ("byte-ring", bytes_kmsgs, Some(bytes_speedup)),
    ] {
        println!(
            "{:<12} {:>28} {:>24}",
            name,
            format!("{kmsgs:.1}"),
            vs_move.map_or("-".to_string(), |s| format!("{s:.2}"))
        );
        bench_rows.push(BenchRow {
            experiment: "E15-payload-4k",
            queue: format!("reloc-ring-{name}"),
            workers: 2,
            mops: kmsgs.median / 1e3,
            ops: payload_msgs,
        });
    }
    println!(
        "\nReading: the grant path is the move path minus the two copies;\n\
         here grant measured {:.2}x move (median) and byte-ring {:.2}x.\n\
         The claim is grant >= 1.0x move.",
        grant_speedup.median, bytes_speedup.median
    );

    write_bench_json("BENCH_throughput_table.json", &meta, &bench_rows);
    append_trajectory(
        &meta,
        "E15-payload-4k",
        &[
            ("move_kmsgs", &move_kmsgs),
            ("grant_kmsgs", &grant_kmsgs),
            ("bytering_kmsgs", &bytes_kmsgs),
            ("grant_speedup_vs_move", &grant_speedup),
            ("bytering_speedup_vs_move", &bytes_speedup),
        ],
    );
    let e16_headline: Vec<(&str, &dyn Serialize)> = e16_headline
        .iter()
        .map(|(k, v)| (*k, v as &dyn Serialize))
        .collect();
    append_trajectory(&meta, "E16-timed-pairs", &e16_headline);
    println!(
        "\nwrote {} rows to BENCH_throughput_table.json (git_sha {}, smoke {}, {} cores)\n\
         appended E17, E15 and E16 rows to BENCH_trajectory.jsonl",
        bench_rows.len(),
        meta.git_sha,
        meta.smoke,
        meta.host_cores
    );
}
