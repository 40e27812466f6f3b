//! Criterion bench: single uncontended enqueue+dequeue latency for every
//! algorithm (the fast-path cost a library user pays when contention is
//! low — the common case the paper's §1 says standard-library queues must
//! optimize for).
//!
//! Run: `cargo bench -p bq-bench --bench op_latency`

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use bq_bench::registry::ALL_KINDS;

fn bench_op_latency(crit: &mut Criterion) {
    let mut group = crit.benchmark_group("solo_pair_latency");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_millis(800));
    group.warm_up_time(std::time::Duration::from_millis(200));
    for kind in ALL_KINDS {
        if !kind.build(4, 1).sound() {
            continue;
        }
        group.throughput(Throughput::Elements(2));
        group.bench_function(kind.name(), |b| {
            let q = kind.build(1024, 1);
            let mut h = q.register();
            let mut v = 0u64;
            b.iter(|| {
                v += 1;
                assert!(h.enqueue(v));
                h.dequeue().unwrap()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_op_latency);
criterion_main!(benches);
