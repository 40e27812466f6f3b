//! Multi-**process** pairs workload: 2 producer and 2 consumer processes
//! share one `ShmQueue` through `fork`, logging every operation to a
//! shared [`OpLog`]. The parent then checks
//!
//! 1. **element conservation** — every value enqueued is dequeued exactly
//!    once, and nothing else ever comes out, and
//! 2. **pool linearizability** — the reconstructed history passes the
//!    Wing–Gong checker against the bounded-queue *pool* specification
//!    (`bq_sim::lincheck::check_history_pool`).
//!
//! Blocking retries are logged as **one** operation (invoke before the
//! first attempt, return after the successful one), which only *widens*
//! the operation's interval — the sound direction for a linearizability
//! check (see `bq_shm::oplog` docs).

use std::sync::atomic::Ordering;
use std::sync::Mutex;
use std::time::Duration;

use bq_shm::{fork_child, ChildExit, OpKind, OpLog, RetKind, ShmQueue};
use bq_sim::controller::OpId;
use bq_sim::lincheck::{check_history_pool, History, HistoryEvent};
use bq_sim::machine::{Op, Ret};

/// Forky tests share a binary with the std test harness's threads, so
/// they are serialized (see `bq_shm::harness` docs on fork discipline).
static FORK_LOCK: Mutex<()> = Mutex::new(());

const PRODUCERS: u64 = 2;
const CONSUMERS: u64 = 2;
/// Per-producer element count. Total ops = 2·P·PER + 2·C·PER = 32 events
/// over 16 operations — comfortably inside the checker's 63-op budget.
const PER: u64 = 4;

fn yield_now() {
    // SAFETY: sched_yield has no preconditions; allocation-free (a child
    // of a threaded parent must not touch the allocator).
    unsafe {
        libc::sched_yield();
    }
}

#[test]
fn two_producer_two_consumer_processes_conserve_and_linearize() {
    let _g = FORK_LOCK.lock().unwrap();
    let q = ShmQueue::<u64>::create_anon(4).unwrap();
    let log = OpLog::create_anon(256).unwrap();

    let mut children = Vec::new();
    for p in 0..PRODUCERS {
        let q = q.clone();
        let log = log.clone();
        children.push(
            fork_child(move || {
                let mut h = q.register();
                for i in 0..PER {
                    let v = 1 + p * PER + i; // globally distinct, non-zero
                    let rec = log.log_invoke(p, OpKind::Enqueue, v);
                    while q.enqueue(&mut h, v).is_err() {
                        yield_now();
                    }
                    if let Some(rec) = rec {
                        log.log_return(rec, RetKind::EnqOk, 0);
                    }
                }
            })
            .unwrap(),
        );
    }
    for c in 0..CONSUMERS {
        let q = q.clone();
        let log = log.clone();
        children.push(
            fork_child(move || {
                let mut h = q.register();
                for _ in 0..PER {
                    let rec = log.log_invoke(PRODUCERS + c, OpKind::Dequeue, 0);
                    let v = loop {
                        if let Some(v) = q.dequeue(&mut h) {
                            break v;
                        }
                        yield_now();
                    };
                    if let Some(rec) = rec {
                        log.log_return(rec, RetKind::DeqVal, v);
                    }
                }
            })
            .unwrap(),
        );
    }

    for mut child in children {
        let end = child
            .wait_deadline(Duration::from_secs(30))
            .unwrap()
            .expect("child wedged: queue or log stopped making progress");
        assert_eq!(end, ChildExit::Exited(0));
    }

    let (events, pending) = log.reconstruct();
    assert!(pending.is_empty(), "no process died: no pending ops");
    assert_eq!(
        events.len(),
        2 * (PRODUCERS + CONSUMERS) as usize * PER as usize
    );

    // Conservation straight off the log: multiset in == multiset out.
    let mut enqueued = Vec::new();
    let mut dequeued = Vec::new();
    let mut history = History::new();
    for e in &events {
        match *e {
            bq_shm::LoggedEvent::Invoke {
                rec,
                tid,
                kind,
                value,
            } => {
                let op = match kind {
                    OpKind::Enqueue => {
                        enqueued.push(value);
                        Op::Enqueue(value)
                    }
                    OpKind::Dequeue => Op::Dequeue,
                };
                history.push(HistoryEvent::Invoke {
                    id: OpId(rec),
                    tid: tid as usize,
                    op,
                });
            }
            bq_shm::LoggedEvent::Return { rec, ret, ret_val } => {
                let ret = match ret {
                    RetKind::EnqOk => Ret::EnqOk,
                    RetKind::EnqFull => Ret::EnqFull,
                    RetKind::DeqVal => {
                        dequeued.push(ret_val);
                        Ret::DeqVal(ret_val)
                    }
                    RetKind::DeqEmpty => Ret::DeqEmpty,
                };
                history.push(HistoryEvent::Return { id: OpId(rec), ret });
            }
        }
    }

    enqueued.sort_unstable();
    dequeued.sort_unstable();
    assert_eq!(
        enqueued,
        (1..=PRODUCERS * PER).collect::<Vec<_>>(),
        "producers enqueued exactly the planned distinct values"
    );
    assert_eq!(enqueued, dequeued, "element conservation across processes");
    assert!(q.is_empty(), "all published elements were drained");

    assert!(
        check_history_pool(&history, q.capacity()).is_linearizable(),
        "cross-process history must linearize as a bounded pool:\n{}",
        history.render()
    );
}

/// A longer run past the log's usefulness: conservation via the segment's
/// scratch counters (sum + count accumulated with `fetch_add`), no
/// checker. Exercises many wrap-arounds of a tiny ring under 4 processes.
#[test]
fn long_pairs_run_conserves_sums() {
    let _g = FORK_LOCK.lock().unwrap();
    let q = ShmQueue::<u64>::create_anon(8).unwrap();
    let per: u64 = if std::env::var("MEMBQ_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0") {
        200
    } else {
        2_000
    };

    let mut children = Vec::new();
    for p in 0..PRODUCERS {
        let q = q.clone();
        children.push(
            fork_child(move || {
                let mut h = q.register();
                for i in 0..per {
                    let v = 1 + p * per + i;
                    while q.enqueue(&mut h, v).is_err() {
                        yield_now();
                    }
                }
            })
            .unwrap(),
        );
    }
    for _ in 0..CONSUMERS {
        let q = q.clone();
        children.push(
            fork_child(move || {
                let mut h = q.register();
                let seg = q.segment();
                // Quota: consumers split the stream evenly.
                for _ in 0..(PRODUCERS * per / CONSUMERS) {
                    let v = loop {
                        if let Some(v) = q.dequeue(&mut h) {
                            break v;
                        }
                        yield_now();
                    };
                    seg.scratch(0).fetch_add(v, Ordering::SeqCst);
                    seg.scratch(1).fetch_add(1, Ordering::SeqCst);
                }
            })
            .unwrap(),
        );
    }
    for mut child in children {
        let end = child
            .wait_deadline(Duration::from_secs(60))
            .unwrap()
            .expect("child wedged");
        assert_eq!(end, ChildExit::Exited(0));
    }

    let n = PRODUCERS * per;
    let seg = q.segment();
    assert_eq!(seg.scratch(1).load(Ordering::SeqCst), n);
    assert_eq!(
        seg.scratch(0).load(Ordering::SeqCst),
        n * (n + 1) / 2,
        "sum of 1..=n: every element came out exactly once"
    );
    assert!(q.is_empty());
}
