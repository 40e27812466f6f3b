//! Memory-overhead report across every queue in the workspace — the
//! paper's core metric, measured two ways (structural accounting and the
//! counting allocator) so they can be cross-checked.
//!
//! ```text
//! cargo run --release --example overhead_report
//! ```

use bq_memtrack::report::render_breakdown;
use bq_memtrack::{AllocScope, OverheadRow, TrackingAlloc};
use membq::bench_registry::ALL_KINDS;

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

fn main() {
    let c = 1 << 12;
    let t = 8;
    println!("memory overhead report at C = {c}, T = {t}\n");

    for kind in ALL_KINDS {
        let scope = AllocScope::begin();
        let q = kind.build(c, t);
        let measured = scope.live_delta();
        let row = OverheadRow {
            name: format!("{} [{}]", kind.name(), kind.claimed_overhead()),
            capacity: c,
            threads: t,
            breakdown: q.footprint(),
            measured_heap_bytes: Some(measured),
        };
        print!("{}", render_breakdown(&row));
        let structural = row.breakdown.total_bytes();
        let ratio = measured as f64 / structural.max(1) as f64;
        println!(
            "  structural total {structural} B vs measured heap {measured} B (x{ratio:.2} — \
             allocator rounding, cache padding, container headers)\n"
        );
    }

    println!(
        "The paper's result in one line: every row that is both sound and flat in C\n\
         pays at least Θ(T) (Listings 4/5), and every Θ(1) row either blocks\n\
         (mutex), assumes distinctness (Listing 2), assumes LL/SC hardware\n\
         (Listing 3), or is demonstrably non-linearizable (naive, two-null)."
    );
}
