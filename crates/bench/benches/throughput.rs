//! Criterion bench for **E10a**: mixed enqueue/dequeue pair cost per
//! algorithm, single-threaded (the uncontended fast path) and with 2
//! threads (contended).
//!
//! Run: `cargo bench -p bq-bench --bench throughput`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use bq_bench::registry::ALL_KINDS;
use bq_bench::workload::pairs_throughput;

fn bench_pairs(crit: &mut Criterion) {
    let mut group = crit.benchmark_group("pairs");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_millis(800));
    group.warm_up_time(std::time::Duration::from_millis(200));
    for kind in ALL_KINDS {
        if !kind.build(4, 1).sound() {
            continue;
        }
        for threads in [1usize, 2] {
            let ops = 1_000u64;
            group.throughput(Throughput::Elements(2 * threads as u64 * ops));
            group.bench_with_input(BenchmarkId::new(kind.name(), threads), &threads, |b, &t| {
                b.iter(|| {
                    let q = kind.build(1024, t);
                    let mut hs = q.handles(t);
                    pairs_throughput(&*q, &mut hs, ops)
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_pairs);
criterion_main!(benches);
