//! Multi-process bounded queue: several **processes** (not threads) share
//! one `ShmQueue` through an anonymous `mmap` segment, and the queue
//! survives one of them being `SIGKILL`ed mid-enqueue.
//!
//! ```text
//! cargo run --release --example multi_process
//! ```
//!
//! Three acts:
//! 1. producer and consumer processes stream values through a shared
//!    ring, with element conservation checked by the parent;
//! 2. a producer is killed between two shared writes of its enqueue, and
//!    the survivors reclaim the orphaned slot and drain to empty;
//! 3. the same layout placed in a *file*-backed segment and reopened at
//!    a different base address — the relocatable layout at work.
//!
//! `MEMBQ_SMOKE=1` shrinks the stream for CI.

use std::sync::atomic::Ordering;

use membq::shm::{fork_child, ChildExit, ShmQueue};

fn yield_now() {
    // SAFETY: sched_yield has no preconditions; forked children of this
    // process must stay allocation-free (see bq_shm::harness docs).
    unsafe {
        libc::sched_yield();
    }
}

fn main() {
    let per: u64 = if bq_bench::smoke_mode() { 500 } else { 20_000 };

    // ── 1. Producer/consumer across fork ────────────────────────────────
    let q = ShmQueue::<u64>::create_anon(64).expect("anonymous shared segment");
    println!(
        "ShmQueue(C=64) in an anonymous MAP_SHARED segment; streaming {} values\n\
         through 2 producer + 2 consumer processes ...",
        2 * per
    );

    let mut children = Vec::new();
    for p in 0..2u64 {
        let q = q.clone();
        children.push(
            fork_child(move || {
                let mut h = q.register();
                for i in 0..per {
                    while q.enqueue(&mut h, 1 + p * per + i).is_err() {
                        yield_now();
                    }
                }
            })
            .expect("fork"),
        );
    }
    for _ in 0..2 {
        let q = q.clone();
        children.push(
            fork_child(move || {
                let mut h = q.register();
                let seg = q.segment();
                for _ in 0..per {
                    let v = loop {
                        if let Some(v) = q.dequeue(&mut h) {
                            break v;
                        }
                        yield_now();
                    };
                    seg.scratch(0).fetch_add(v, Ordering::SeqCst);
                }
            })
            .expect("fork"),
        );
    }
    for child in children {
        assert_eq!(child.wait().expect("waitpid"), ChildExit::Exited(0));
    }
    let n = 2 * per;
    assert_eq!(
        q.segment().scratch(0).load(Ordering::SeqCst),
        n * (n + 1) / 2,
        "conservation"
    );
    println!("  conservation holds: sum of consumed values = n(n+1)/2\n");

    // ── 2. Crash consistency ────────────────────────────────────────────
    println!("killing a producer after 12 shared writes (inside its 3rd enqueue) ...");
    let q = ShmQueue::<u64>::create_anon(8).expect("segment");
    let seg = q.segment().clone();
    let qp = q.clone();
    let victim = fork_child(move || {
        let mut h = qp.register();
        qp.segment()
            .scratch(7)
            .store(h.proc_idx() as u64 + 1, Ordering::SeqCst);
        h.arm_crash_after_writes(12);
        for v in 1..=100u64 {
            while qp.enqueue(&mut h, v).is_err() {
                yield_now();
            }
        }
    })
    .expect("fork");
    assert_eq!(
        victim.wait().expect("waitpid"),
        ChildExit::Signaled(libc::SIGKILL)
    );
    // The parent reaped the victim, so it may authoritatively flag the
    // liveness slot; helpers then reclaim the orphaned claim.
    seg.mark_dead(seg.scratch(7).load(Ordering::SeqCst) as usize - 1);

    let mut h = q.register();
    let mut drained = Vec::new();
    while let Some(v) = q.dequeue(&mut h) {
        drained.push(v);
    }
    println!(
        "  survivors drained {:?} — the killed enqueue (value 3) died before\n\
         its publish CAS, so it never linearized; the queue is empty and usable",
        drained
    );
    assert_eq!(drained, vec![1, 2]);
    q.enqueue(&mut h, 77)
        .expect("queue still fully operational");
    assert_eq!(q.dequeue(&mut h), Some(77));

    // ── 3. File-backed relocation ───────────────────────────────────────
    let path = std::env::temp_dir().join(format!("membq_example_{}.shm", std::process::id()));
    {
        let q = ShmQueue::<u64>::create_file(&path, 16).expect("file-backed segment");
        let mut h = q.register();
        for v in [10, 20, 30] {
            q.enqueue(&mut h, v).unwrap();
        }
    } // unmapped: only the file holds the queue now
    let q = ShmQueue::<u64>::open_file(&path).expect("reopen validates magic/version/tag");
    let mut h = q.register();
    println!(
        "\nreopened the file-backed queue at a different base: len = {}, head = {:?}",
        q.len(),
        q.dequeue(&mut h)
    );
    assert_eq!(q.dequeue(&mut h), Some(20));
    assert_eq!(q.dequeue(&mut h), Some(30));
    let _ = std::fs::remove_file(&path);
    println!("\nall good: conservation, crash recovery, and relocation each verified");
}
