//! The memory check: the paper's metric, `overhead_bytes`, of each
//! stack's token queue, its breakdown by overhead class, and the element
//! storage every bounded queue of capacity `C` needs (`8·C` bytes of
//! 64-bit value-locations).

use bq_core::{OptimalQueue, ShardedQueue};
use bq_memtrack::{FootprintBreakdown, MemoryFootprint, OverheadClass};
use bq_shm::ShmQueue;

use crate::workload::{Workload, PIPELINE_SHARDS, WORKLOADS};

const CLASSES: [OverheadClass; 7] = [
    OverheadClass::Counters,
    OverheadClass::PerSlotMetadata,
    OverheadClass::Descriptors,
    OverheadClass::Announcement,
    OverheadClass::Linkage,
    OverheadClass::Locks,
    OverheadClass::Other,
];

/// Footprint of the token queue under test in `w`'s stack, built with
/// the same parameters as the measured stack.
pub fn footprint(w: Workload) -> FootprintBreakdown {
    let (c, t) = (w.capacity(), w.threads());
    match w {
        Workload::Solo | Workload::Handoff => {
            OptimalQueue::with_capacity_and_threads(c, t).footprint()
        }
        Workload::Pipeline => {
            ShardedQueue::<OptimalQueue>::optimal(c, PIPELINE_SHARDS, t).footprint()
        }
        Workload::ShmStream => ShmQueue::<u64>::create_anon(c)
            .expect("anonymous shm segment")
            .footprint(),
    }
}

/// Print every stack's breakdown and check its element storage.
/// Returns the overhead bytes of `w` and whether every check held.
pub fn report(w: Workload) -> (usize, bool) {
    let mut ok = true;
    let mut ours = 0;
    for x in WORKLOADS {
        let f = footprint(x);
        let c = x.capacity();
        let elements_ok = f.element_bytes == 8 * c;
        ok &= elements_ok;
        let classes: Vec<String> = CLASSES
            .iter()
            .filter(|&&k| f.class_bytes(k) > 0)
            .map(|&k| format!("{k}={}", f.class_bytes(k)))
            .collect();
        println!(
            "# memory {:<10} C={c:<5} T={:<3} element_bytes={} (8*C {}) overhead_bytes={} [{}]",
            x.name(),
            match x.threads() {
                0 => "-".to_string(),
                t => t.to_string(),
            },
            f.element_bytes,
            if elements_ok { "ok" } else { "MISMATCH" },
            f.overhead_bytes(),
            classes.join(", ")
        );
        if x == w {
            ours = f.overhead_bytes();
        }
    }
    let overhead = |x| footprint(x).overhead_bytes();
    let (two, many, sharded) = (
        overhead(Workload::Handoff),
        overhead(Workload::Solo),
        overhead(Workload::Pipeline),
    );
    let slope = (many as f64 - two as f64) / (64.0 - 2.0);
    println!(
        "# memory shape: Theta(T) from handoff (T=2, {two} B) to solo (T=64, {many} B), {slope:.1} B per thread; \
         Theta(S*T) in pipeline: {sharded} B = S={PIPELINE_SHARDS} x {two} B + {} B shard directory",
        sharded as i64 - (PIPELINE_SHARDS * two) as i64
    );
    (ours, ok)
}
