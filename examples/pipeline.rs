//! A three-stage stream-processing pipeline over **blocking batched
//! sharded queues** — the scale layer (DESIGN.md §8) plus the waiting
//! stack (§9) applied to the DPDK/SPDK style usage the paper's §1 cites.
//!
//! ```text
//! cargo run --release --example pipeline
//! ```
//!
//! parse → checksum → aggregate, one thread per stage; each pair of
//! stages is connected by a `BlockingQueue<u64, ShardedQueue<OptimalQueue>>`
//! and packets move in `BATCH`-sized runs through `send_all`/`recv_many`.
//! The blocking façade buys two things over the previous raw-queue
//! version: full/empty conditions **park** the stage thread on the shared
//! eventcount (no yield-spinning), and shutdown is **`close()`-driven** —
//! a stage drains until `recv_many` returns empty (closed + drained) and
//! then closes its own downstream queue, so no stage needs to know the
//! packet count and no sentinel value flows through the data path. The
//! aggregate stage verifies **exactly-once delivery** with a bitmap
//! rather than strict order — sharding keeps per-shard FIFO only,
//! exactly the contract the queue documents.

use membq::core::{BlockingQueue, OptimalQueue, ShardedQueue};
use membq::prelude::MemoryFootprint;

const RING: usize = 256;
const SHARDS: usize = 4;
const BATCH: usize = 32;

/// Packet count: full-size by default, tiny under smoke mode (the CI
/// run that keeps examples from rotting). Only the parse stage knows it.
fn packet_count() -> u64 {
    if bq_bench::smoke_mode() {
        5_000
    } else {
        200_000
    }
}

type Link = BlockingQueue<u64, ShardedQueue<OptimalQueue>>;

/// Stage 1: "parse" — tag each raw packet id with a length field, emit
/// in batch runs, then close the link: downstream drains and stops.
fn parse(packets: u64, q: &Link) {
    let mut h = q.register();
    let mut batch = Vec::with_capacity(BATCH);
    for id in 1..=packets {
        // Packed "packet": id in low 48 bits, synthetic length above.
        let len = 64 + (id * 37) % 1400;
        batch.push((len << 48) | id);
        if batch.len() == BATCH || id == packets {
            q.send_all(&mut h, std::mem::take(&mut batch))
                .expect("downstream closed the link early");
            batch = Vec::with_capacity(BATCH);
        }
    }
    q.close();
}

/// Stage 2: "checksum" — drain batches until the upstream closes, fold a
/// cheap hash over each packet word, forward; then close downstream.
fn checksum(inq: &Link, outq: &Link) {
    let mut hi = inq.register();
    let mut ho = outq.register();
    loop {
        let buf = inq.recv_many(&mut hi, BATCH);
        if buf.is_empty() {
            break; // upstream closed and fully drained
        }
        let out: Vec<u64> = buf
            .into_iter()
            .map(|pkt| {
                let sum = pkt
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .rotate_left(17)
                    .wrapping_add(pkt >> 48);
                // Keep 15 checksum bits with the id: the record must stay
                // a valid 63-bit token (OptimalQueue reserves the top bit).
                let id = pkt & ((1 << 48) - 1);
                (sum & 0x7FFF) << 48 | id
            })
            .collect();
        outq.send_all(&mut ho, out)
            .expect("aggregate closed the link early");
    }
    outq.close();
}

fn main() {
    // Stage links: each admits both endpoint threads (T = 2 per link).
    let q1: Link = BlockingQueue::new(ShardedQueue::<OptimalQueue>::optimal(RING, SHARDS, 2));
    let q2: Link = BlockingQueue::new(ShardedQueue::<OptimalQueue>::optimal(RING, SHARDS, 2));
    println!(
        "stage links: two blocking sharded queues ({SHARDS} shards × {} slots), \
         {} bytes overhead each (Θ(S·T), independent of depth)",
        RING / SHARDS,
        q1.inner_queue().overhead_bytes()
    );

    let packets = packet_count();
    let start = std::time::Instant::now();
    std::thread::scope(|s| {
        s.spawn(|| parse(packets, &q1));
        s.spawn(|| checksum(&q1, &q2));

        // Stage 3 (this thread): aggregate with an exactly-once bitmap —
        // sharding relaxes global order, so order is not asserted. Runs
        // until the checksum stage closes q2: no shared count, no
        // sentinel.
        let mut h = q2.register();
        let mut seen = vec![false; packets as usize + 1];
        let mut done = 0u64;
        let mut checksum_mix = 0u64;
        loop {
            let buf = q2.recv_many(&mut h, BATCH);
            if buf.is_empty() {
                break; // pipeline shut down cleanly
            }
            for rec in buf {
                let id = (rec & ((1 << 48) - 1)) as usize;
                assert!(!seen[id], "packet {id} delivered twice");
                seen[id] = true;
                checksum_mix ^= rec >> 48;
                done += 1;
            }
        }
        assert_eq!(done, packets, "close-driven shutdown lost packets");
        assert!(
            seen[1..].iter().all(|&b| b),
            "every packet delivered exactly once"
        );
        let secs = start.elapsed().as_secs_f64();
        println!(
            "processed {packets} packets through 3 stages in {:.3}s \
             ({:.2} M packets/s end-to-end), checksum mix {checksum_mix:#06x}",
            secs,
            packets as f64 / secs / 1e6
        );
    });
    println!(
        "exactly-once delivery verified across both hops; batches of {BATCH} \
         amortize the per-packet queue cost, close() propagates shutdown \
         stage-to-stage (per-shard FIFO, pool semantics)"
    );
}
