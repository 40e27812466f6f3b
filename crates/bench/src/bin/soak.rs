//! Liveness soak: hammer the contended workloads on every sound queue and
//! print progress per round, so a rare hang identifies its algorithm (the
//! last line printed is the one that stuck). Since the scale layer landed
//! this includes the batched paths and the sharded compositions — the
//! descriptor-verdict class of race (DESIGN.md §7.1) is exactly what this
//! binary exists to catch pre-merge (CI runs a bounded number of rounds).
//!
//! The log is the record: every step of a round prints before it runs,
//! each fault plan's replayable `plan:v1:` artifact prints before its
//! round, and a failing round panics, so the process exits non-zero
//! with the panic message after the round's last `round N: …` line.
//!
//! Run: `cargo run --release -p bq-bench --bin soak [rounds]`

use std::io::Write;
use std::time::Duration;

use bq_bench::facade::{async_pairs_throughput, timed_pairs, timed_recv_dropped_wake_round};
use bq_bench::registry::{sharded_optimal, ALL_KINDS};
use bq_bench::shm_procs::{shm_crash_round, shm_fault_round_with_stats, shm_fork_pairs_throughput};
use bq_bench::workload::{
    batched_pairs_throughput, pairs_throughput, producer_consumer_throughput,
};
use bq_core::TimeLimit;
use bq_shm::FaultPlan;

fn run_round(round: u64) {
    for kind in ALL_KINDS {
        if !kind.build(4, 1).sound() {
            continue;
        }
        print!("round {round}: {} pairs ... ", kind.name());
        std::io::stdout().flush().unwrap();
        let q = kind.build(16, 2);
        let r = pairs_throughput(&*q, &mut q.handles(2), 200);
        print!("ok ({} ops); batched ... ", r.ops);
        std::io::stdout().flush().unwrap();
        let q = kind.build(16, 2);
        let r = batched_pairs_throughput(&*q, &mut q.handles(2), 50, 4);
        print!("ok ({} ops); pc ... ", r.ops);
        std::io::stdout().flush().unwrap();
        let q = kind.build(8, 4);
        let r = producer_consumer_throughput(&mut q.handles(4), 500);
        println!("ok ({} ops)", r.ops);
    }
    // Non-default shard counts only reachable through the sweep builder.
    for s in [2usize, 8] {
        print!("round {round}: sharded-optimal(S={s}) batched ... ");
        std::io::stdout().flush().unwrap();
        let q = sharded_optimal(32, s, 4);
        let r = batched_pairs_throughput(&*q, &mut q.handles(4), 50, 4);
        println!("ok ({} ops)", r.ops);
    }
    // Waiting façades (DESIGN.md §9): a tiny capacity makes the
    // workers park constantly, hammering the eventcount wake paths —
    // a lost wake shows up here as a hang naming the façade.
    print!("round {round}: blocking-optimal pairs ... ");
    std::io::stdout().flush().unwrap();
    let r = timed_pairs(2, 3, 300, TimeLimit::Never);
    print!("ok ({} ops); async-optimal pairs ... ", r.ops);
    std::io::stdout().flush().unwrap();
    let r = async_pairs_throughput(2, 3, 300);
    println!("ok ({} ops)", r.ops);
    // Cross-process rounds (bq-shm): fork-based pairs, then a
    // producer SIGKILLed mid-stream. The write budget walks through
    // the residues of the 5-write enqueue sequence round by round,
    // so over a soak the kill lands between every pair of shared
    // writes; the drivers panic on wedge or conservation failure.
    print!("round {round}: shm fork-pairs ... ");
    std::io::stdout().flush().unwrap();
    let r = shm_fork_pairs_throughput(16, 2, 2, 200);
    print!("ok ({} ops); shm producer-kill ... ", r.ops);
    std::io::stdout().flush().unwrap();
    let budget = 1 + (round * 7) % 23;
    let published = shm_crash_round(budget);
    println!("ok ({published} published before kill)");
    // Unified fault rounds (DESIGN.md §13.4): a seed-derived
    // FaultPlan per round. The replayable plan:v1: artifact is
    // printed BEFORE the round runs, so a panic or wedge below is
    // reproducible from the log alone (`FaultPlan::from_str`).
    let plan = FaultPlan::from_seed(round);
    print!("round {round}: shm fault plan {plan} ... ");
    std::io::stdout().flush().unwrap();
    let (published, stats) = shm_fault_round_with_stats(&plan);
    print!("ok ({published} published); ");
    // The round's cross-process post-mortem (DESIGN.md §14): poison
    // count and the per-process tallies, dead producer included.
    println!("stats {}", stats.to_json());
    // drop_wakes is driver-side: withhold every wake and require the
    // deadline (not a hang) to end a timed wait.
    if plan.drop_wakes {
        print!("round {round}: dropped-wake timed recv ... ");
        std::io::stdout().flush().unwrap();
        let timeout = Duration::from_millis(25);
        let waited = timed_recv_dropped_wake_round(timeout);
        assert!(
            waited < timeout + Duration::from_millis(250),
            "timed recv overshot deadline + quantum: {waited:?}"
        );
        println!("ok (deadline recovered in {waited:?})");
    } else {
        println!("round {round}: no dropped wakes in this plan");
    }
}

fn main() {
    let rounds: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(50);
    for round in 0..rounds {
        run_round(round);
    }
    println!("soak complete: {rounds} rounds");
}
