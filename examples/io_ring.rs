//! An io_uring-style submission/completion ring pair — the paper's §1
//! names `io_uring`, DPDK and SPDK as the natural home of bounded queues.
//!
//! ```text
//! cargo run --release --example io_ring
//! ```
//!
//! Structure (mirroring the kernel interface):
//! * **SQ** (submission queue): the application enqueues request
//!   descriptors; the "kernel" side drains them.
//! * **CQ** (completion queue): the kernel enqueues completions; the
//!   application reaps them.
//! * **data rings**: two variable-length byte rings carry the *payload*
//!   bytes — write data travelling app → kernel and read data travelling
//!   kernel → app — through zero-copy grants (`bq_core::byte_ring`,
//!   DESIGN.md §12), the role played by registered buffers in io_uring.
//!
//! Request descriptors are *unique tokens* (monotonic request ids packed
//! with an opcode), which is precisely the distinct-elements assumption of
//! Listing 2 — so both descriptor rings can run with **Θ(1) memory
//! overhead**. This is the paper's positive result applied where its
//! assumption genuinely holds.
//!
//! Payload pairing invariant: the kernel serves submissions in SQ FIFO
//! order and the app submits write payloads *before* their SQEs, so the
//! n-th write SQE pairs with the n-th message in the write-data ring (and
//! symmetrically for read completions) — no offsets travel in the
//! descriptors.

use std::sync::Arc;

use membq::prelude::*;

/// Pack an opcode and a request id into one token (id in the low 55 bits).
fn sqe(opcode: u8, req_id: u64) -> u64 {
    assert!(req_id < 1 << 55);
    ((opcode as u64) << 56) | req_id | 1 << 55 // bit 55 keeps tokens non-zero
}

fn sqe_opcode(tok: u64) -> u8 {
    (tok >> 56) as u8
}

fn sqe_id(tok: u64) -> u64 {
    tok & ((1 << 55) - 1)
}

/// Completion: the request id packed with a status byte.
fn cqe(req_id: u64, status: u8) -> u64 {
    ((status as u64) << 56) | req_id | 1 << 55
}

const OP_READ: u8 = 1;
const OP_WRITE: u8 = 2;
const STATUS_OK: u8 = 0x7F;

/// Largest payload one request carries.
const MAX_PAYLOAD: usize = 1024;

/// Request `id`'s payload length (1..=MAX_PAYLOAD, varied so the data
/// rings exercise their wrap padding).
fn payload_len(id: u64) -> usize {
    (id as usize * 131) % MAX_PAYLOAD + 1
}

/// Byte `j` of request `id`'s payload — deterministic, so each side can
/// verify the other's bytes without a side channel.
fn payload_byte(id: u64, j: usize) -> u8 {
    (id as u8).wrapping_mul(17).wrapping_add(j as u8)
}

fn main() {
    const RING_DEPTH: usize = 64;
    const DATA_BYTES: usize = 16 * 1024;
    let requests: u64 = if bq_bench::smoke_mode() {
        1_000
    } else {
        10_000
    };

    let sq = Arc::new(DistinctQueue::with_capacity(RING_DEPTH));
    let cq = Arc::new(DistinctQueue::with_capacity(RING_DEPTH));
    // Data planes: write payloads app → kernel, read payloads kernel → app.
    let (mut wr_tx, mut wr_rx) = byte_ring(DATA_BYTES, MAX_PAYLOAD);
    let (mut rd_tx, mut rd_rx) = byte_ring(DATA_BYTES, MAX_PAYLOAD);

    println!(
        "SQ/CQ rings of depth {RING_DEPTH}: overhead {} + {} bytes (two counters each, Θ(1))",
        sq.overhead_bytes(),
        cq.overhead_bytes()
    );
    println!(
        "data rings: {DATA_BYTES} B each, messages ≤ {MAX_PAYLOAD} B, zero-copy grants both ways"
    );

    let kernel_sq = Arc::clone(&sq);
    let kernel_cq = Arc::clone(&cq);
    let kernel = std::thread::spawn(move || {
        let mut sqh = kernel_sq.register();
        let mut cqh = kernel_cq.register();
        let mut served = 0u64;
        let mut reads = 0u64;
        let mut writes = 0u64;
        let mut write_bytes = 0u64;
        while served < requests {
            let Some(tok) = kernel_sq.dequeue(&mut sqh) else {
                std::thread::yield_now();
                continue;
            };
            let id = sqe_id(tok);
            match sqe_opcode(tok) {
                OP_READ => {
                    reads += 1;
                    // "Perform the read": grant space on the read-data
                    // ring and fill the sector pattern in place.
                    let len = payload_len(id);
                    loop {
                        if let Some(mut g) = rd_tx.try_grant(len) {
                            for (j, b) in g.buf()[..len].iter_mut().enumerate() {
                                *b = payload_byte(id, j);
                            }
                            g.commit(len);
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
                OP_WRITE => {
                    writes += 1;
                    // "Perform the write": borrow the payload in place
                    // from the write-data ring and verify every byte.
                    loop {
                        if let Some(g) = wr_rx.try_read() {
                            assert_eq!(g.len(), payload_len(id), "write {id} length");
                            for (j, &b) in g.iter().enumerate() {
                                assert_eq!(b, payload_byte(id, j), "write {id} byte {j}");
                            }
                            write_bytes += g.len() as u64;
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
                other => panic!("unknown opcode {other}"),
            }
            let completion = cqe(id, STATUS_OK);
            let mut c = completion;
            loop {
                match kernel_cq.enqueue(&mut cqh, c) {
                    Ok(()) => break,
                    Err(Full(back)) => {
                        c = back;
                        std::thread::yield_now();
                    }
                }
            }
            served += 1;
        }
        (reads, writes, write_bytes)
    });

    // Application: submit and reap with a bounded number of in-flight
    // requests (classic io_uring discipline).
    let mut sqh = sq.register();
    let mut cqh = cq.register();
    let mut submitted = 0u64;
    let mut reaped = 0u64;
    let mut read_bytes = 0u64;
    // A write SQE whose payload is already committed but whose SQ slot
    // wasn't available. It must go in before any newer work (the FIFO
    // pairing invariant), and it must not block the reap phase — the
    // kernel may be waiting on *us* to drain the read-data ring.
    let mut pending_sqe: Option<u64> = None;
    let mut completed = vec![false; requests as usize];
    while reaped < requests {
        if let Some(tok) = pending_sqe {
            if sq.enqueue(&mut sqh, tok).is_ok() {
                pending_sqe = None;
                submitted += 1;
            }
        }
        // Submit as long as the SQ (and the data ring) accept.
        while pending_sqe.is_none() && submitted < requests {
            let opcode = if submitted.is_multiple_of(3) {
                OP_WRITE
            } else {
                OP_READ
            };
            if opcode == OP_WRITE {
                // Payload goes in *before* the SQE so the kernel never
                // sees a descriptor whose data hasn't been published.
                let len = payload_len(submitted);
                let Some(mut g) = wr_tx.try_grant(len) else {
                    break; // data ring full — go reap instead
                };
                for (j, b) in g.buf()[..len].iter_mut().enumerate() {
                    *b = payload_byte(submitted, j);
                }
                g.commit(len);
            }
            match sq.enqueue(&mut sqh, sqe(opcode, submitted)) {
                Ok(()) => submitted += 1,
                Err(_) => {
                    // SQ full. A write's payload is already committed, so
                    // its SQE must be first in line next round.
                    if opcode == OP_WRITE {
                        pending_sqe = Some(sqe(opcode, submitted));
                    }
                    break; // go reap
                }
            }
        }
        // Reap completions; read completions carry payload to verify.
        while let Some(tok) = cq.dequeue(&mut cqh) {
            assert_eq!(sqe_opcode(tok), STATUS_OK, "status byte is where we put it");
            let id = sqe_id(tok);
            assert!(!completed[id as usize], "request {id} completed twice");
            completed[id as usize] = true;
            if !id.is_multiple_of(3) {
                // A read: its payload is the next read-data message
                // (kernel commits data before the CQE; CQ is FIFO).
                loop {
                    if let Some(g) = rd_rx.try_read() {
                        assert_eq!(g.len(), payload_len(id), "read {id} length");
                        for (j, &b) in g.iter().enumerate() {
                            assert_eq!(b, payload_byte(id, j), "read {id} byte {j}");
                        }
                        read_bytes += g.len() as u64;
                        break;
                    }
                    std::thread::yield_now();
                }
            }
            reaped += 1;
        }
        std::thread::yield_now();
    }

    let (reads, writes, write_bytes) = kernel.join().unwrap();
    assert!(completed.iter().all(|&b| b), "every request completed");
    assert_eq!(reads + writes, requests);
    println!(
        "served {requests} requests ({reads} reads, {writes} writes), all completed exactly once"
    );
    println!(
        "moved {write_bytes} write bytes app→kernel and {read_bytes} read bytes kernel→app,\n\
         every byte checksum-verified in place (no payload copies on either side)"
    );
    println!("in-flight bound held at ring depth {RING_DEPTH} throughout");
}
