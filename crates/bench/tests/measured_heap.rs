//! The counting allocator's view of `QueueKind::build` (the measured
//! column of E1/E6/E7): building a queue registers no handles, so a kind
//! whose claimed overhead does not grow with the thread bound `T` must
//! pin the same heap bytes at `T = 1` and at `T = 64`.

use bq_bench::registry::{QueueKind, ALL_KINDS};
use bq_memtrack::{AllocScope, TrackingAlloc};

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

fn measured(kind: QueueKind, c: usize, t: usize) -> usize {
    let scope = AllocScope::begin();
    let q = kind.build(c, t);
    let live = scope.live_delta();
    drop(q);
    live
}

#[test]
fn t_independent_kinds_measure_the_same_heap_at_any_t() {
    let mut checked = 0;
    for &kind in ALL_KINDS {
        if kind.claimed_overhead().contains('T') {
            continue;
        }
        let (t1, t64) = (measured(kind, 1024, 1), measured(kind, 1024, 64));
        assert!(t1 > 0, "{}: building allocates nothing?", kind.name());
        assert_eq!(
            t1,
            t64,
            "{}: claimed {} but the measured heap moved with T",
            kind.name(),
            kind.claimed_overhead()
        );
        checked += 1;
    }
    assert!(checked >= 8, "only {checked} T-independent kinds checked");
}
