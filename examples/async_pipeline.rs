//! An async three-stage pipeline over the `Future`-based queue façade:
//! many tasks, few threads — the "serve millions of users" shape where
//! waiting parks a *task* (a registered waker) instead of an OS thread.
//!
//! ```text
//! cargo run --release --example async_pipeline
//! ```
//!
//! produce → transform → aggregate. Eight producer tasks multiplex on
//! ONE thread, eight transform tasks on ONE other thread (a tiny
//! in-example cooperative executor; the `pollster` shim's `block_on`
//! drives the aggregate stage on the main thread). The stages are
//! connected by `AsyncQueue<u64, ShardedQueue<OptimalQueue>>` — the full
//! stack: memory-optimal Listing 5 shards (Θ(S·T) overhead), batched
//! shard-affine transfer, and the DESIGN.md §9 waiter subsystem parking
//! the tasks on wake generations. Shutdown is `close()`-driven: no
//! sentinel values, no counts shared across stages — each stage just
//! drains until the upstream queue reports closed.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Context, Wake, Waker};
use std::thread::Thread;

use membq::core::{AsyncQueue, OptimalQueue, ShardedQueue};
use membq::prelude::MemoryFootprint;

const RING: usize = 128;
const SHARDS: usize = 4;
const BATCH: usize = 16;
const PRODUCER_TASKS: usize = 8;
const TRANSFORM_TASKS: usize = 8;

fn packet_count() -> u64 {
    if bq_bench::smoke_mode() {
        4_000
    } else {
        120_000
    }
}

type Pipe = AsyncQueue<u64, ShardedQueue<OptimalQueue>>;

// ---------------------------------------------------------------------------
// A minimal cooperative executor: run N tasks on the calling thread,
// parking it only when no task is runnable. Each task's waker marks it
// ready and unparks the thread — the same wake-generation bumps that
// would unpark a blocking thread now just flip a flag.
// ---------------------------------------------------------------------------

struct TaskNotify {
    ready: AtomicBool,
    thread: Thread,
}

impl Wake for TaskNotify {
    fn wake(self: Arc<Self>) {
        // Flag before unpark, so the executor's post-park rescan sees it.
        self.ready.store(true, Ordering::SeqCst);
        self.thread.unpark();
    }
}

/// Poll every task to completion, round-robin over the runnable ones.
fn run_all(futs: Vec<Pin<Box<dyn Future<Output = ()>>>>) {
    let me = std::thread::current();
    struct Entry {
        fut: Pin<Box<dyn Future<Output = ()>>>,
        state: Arc<TaskNotify>,
    }
    let mut tasks: Vec<Option<Entry>> = futs
        .into_iter()
        .map(|fut| {
            Some(Entry {
                fut,
                state: Arc::new(TaskNotify {
                    ready: AtomicBool::new(true), // first poll is free
                    thread: me.clone(),
                }),
            })
        })
        .collect();
    let mut remaining = tasks.len();
    while remaining > 0 {
        let mut progressed = false;
        for slot in tasks.iter_mut() {
            let Some(entry) = slot else { continue };
            if entry.state.ready.swap(false, Ordering::SeqCst) {
                progressed = true;
                let waker = Waker::from(Arc::clone(&entry.state));
                let mut cx = Context::from_waker(&waker);
                if entry.fut.as_mut().poll(&mut cx).is_ready() {
                    *slot = None;
                    remaining -= 1;
                }
            }
        }
        if !progressed && remaining > 0 {
            // Nothing runnable: park until some waker fires. A wake that
            // lands between the scan and this park left an unpark token,
            // so the park returns immediately and the rescan sees the
            // ready flag — no lost wakeup, no timed polling.
            std::thread::park();
        }
    }
}

/// One producer task: push its id range downstream in batches.
async fn produce(q: Arc<Pipe>, from: u64, to: u64) {
    let mut h = q.register();
    let mut batch = Vec::with_capacity(BATCH);
    for id in from..=to {
        batch.push(id);
        if batch.len() == BATCH || id == to {
            q.send_all(&mut h, std::mem::take(&mut batch))
                .await
                .expect("pipe closed under the producers");
        }
    }
}

/// One transform task: drain upstream batches until close, tag each
/// packet with a checksum, forward downstream.
async fn transform(inq: Arc<Pipe>, outq: Arc<Pipe>) {
    let mut hi = inq.register();
    let mut ho = outq.register();
    loop {
        let batch = inq.recv_many(&mut hi, BATCH).await;
        if batch.is_empty() {
            return; // upstream closed and fully drained
        }
        let out: Vec<u64> = batch
            .into_iter()
            .map(|id| {
                let sum = id
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .rotate_left(17)
                    .wrapping_add(id >> 32);
                // 15 checksum bits above the 48-bit id: stays a valid
                // 63-bit token for the optimal shards.
                (sum & 0x7FFF) << 48 | id
            })
            .collect();
        outq.send_all(&mut ho, out)
            .await
            .expect("pipe closed under the transforms");
    }
}

fn main() {
    let packets = packet_count();
    // Per-queue thread bound: every producer/transform task registers a
    // handle, plus one for the pre-run registration below / the main
    // aggregate handle.
    let q1: Arc<Pipe> = Arc::new(AsyncQueue::new(ShardedQueue::<OptimalQueue>::optimal(
        RING,
        SHARDS,
        PRODUCER_TASKS + TRANSFORM_TASKS + 1,
    )));
    let q2: Arc<Pipe> = Arc::new(AsyncQueue::new(ShardedQueue::<OptimalQueue>::optimal(
        RING,
        SHARDS,
        TRANSFORM_TASKS + 1,
    )));
    println!(
        "stage links: two async sharded queues ({SHARDS} shards × {} slots), \
         {} bytes overhead each (Θ(S·T), independent of depth)",
        RING / SHARDS,
        q1.inner_queue().overhead_bytes()
    );

    let start = std::time::Instant::now();
    std::thread::scope(|s| {
        // Thread 1: all producer tasks, multiplexed. When every producer
        // is done, close q1 — the transforms' drain-then-closed signal.
        {
            let q1 = Arc::clone(&q1);
            s.spawn(move || {
                let per = packets / PRODUCER_TASKS as u64;
                let tasks: Vec<Pin<Box<dyn Future<Output = ()>>>> = (0..PRODUCER_TASKS as u64)
                    .map(|p| {
                        let q = Arc::clone(&q1);
                        let from = 1 + p * per;
                        let to = if p == PRODUCER_TASKS as u64 - 1 {
                            packets
                        } else {
                            (p + 1) * per
                        };
                        Box::pin(produce(q, from, to)) as Pin<Box<dyn Future<Output = ()>>>
                    })
                    .collect();
                run_all(tasks);
                q1.close();
            });
        }

        // Thread 2: all transform tasks, multiplexed; close q2 when done.
        {
            let q1 = Arc::clone(&q1);
            let q2 = Arc::clone(&q2);
            s.spawn(move || {
                let tasks: Vec<Pin<Box<dyn Future<Output = ()>>>> = (0..TRANSFORM_TASKS)
                    .map(|_| {
                        Box::pin(transform(Arc::clone(&q1), Arc::clone(&q2)))
                            as Pin<Box<dyn Future<Output = ()>>>
                    })
                    .collect();
                run_all(tasks);
                q2.close();
            });
        }

        // Main thread: aggregate with an exactly-once bitmap (sharding
        // relaxes global order), driven by the dependency-free block_on.
        let mut h = q2.register();
        let mut seen = vec![false; packets as usize + 1];
        let mut checksum_mix = 0u64;
        let mut done = 0u64;
        pollster::block_on(async {
            loop {
                let batch = q2.recv_many(&mut h, BATCH).await;
                if batch.is_empty() {
                    break; // q2 closed and drained: the pipeline is over
                }
                for rec in batch {
                    let id = (rec & ((1 << 48) - 1)) as usize;
                    assert!(!seen[id], "packet {id} delivered twice");
                    seen[id] = true;
                    checksum_mix ^= rec >> 48;
                    done += 1;
                }
            }
        });
        assert_eq!(done, packets, "close-driven shutdown lost packets");
        assert!(
            seen[1..].iter().all(|&b| b),
            "every packet delivered exactly once"
        );
        let secs = start.elapsed().as_secs_f64();
        println!(
            "processed {packets} packets through 3 async stages in {:.3}s \
             ({:.2} M packets/s end-to-end), checksum mix {checksum_mix:#06x}",
            secs,
            packets as f64 / secs / 1e6
        );
    });
    println!(
        "{} producer + {} transform tasks multiplexed on 2 threads (+ main); \
         full/empty conditions parked tasks via registered wakers — no OS \
         thread blocked per waiter, no sentinel shutdown values, no timed polls",
        PRODUCER_TASKS, TRANSFORM_TASKS
    );
}
