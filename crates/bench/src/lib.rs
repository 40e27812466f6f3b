//! # bq-bench — the experiment harness
//!
//! Shared machinery for the reproduction's experiments (DESIGN.md §4):
//! a dynamic queue registry so every experiment can iterate over all queue
//! implementations uniformly, workload drivers for the time experiments,
//! and their one measurement protocol ([`measure`]): every timed number
//! the binaries print is the median (q1–q3) of its trials.
//!
//! The runnable entry points are:
//!
//! * `cargo run --release -p bq-bench --bin overhead_table` — E1/E3/E5/E6/E7/E9
//! * `cargo run --release -p bq-bench --bin k_sweep` — E2 (memory and speed)
//! * `cargo run --release -p bq-bench --bin adversary` — E4/E8
//! * `cargo run --release -p bq-bench --bin throughput_table` — E7's time side, E10a–E10c/E12/E13/E15/E16/E17
//! * `cargo run --release -p bq-bench --bin trajectory_check` — the E15–E17 bars
//! * `cargo run --release -p bq-bench --bin shard_sweep` — E11 (shard × batch) and E11b (the batch win)
//! * `cargo run --release -p bq-bench --bin soak [rounds]` — liveness soak

pub mod facade;
pub mod measure;
pub mod meta;
pub mod payload;
pub mod registry;
pub mod shm_procs;
pub mod workload;

pub use facade::async_pairs_throughput;
pub use meta::{append_trajectory, run_meta, smoke_mode, write_bench_json, BenchDoc, RunMeta};
pub use payload::{
    payload_pairs_bytering, payload_pairs_grant, payload_pairs_move, PayloadResult, PAYLOAD_BYTES,
};
pub use registry::{sharded_optimal, DynQueue, QueueKind, ALL_KINDS, DEFAULT_SHARDS};
pub use shm_procs::{shm_crash_round, shm_fork_pairs_throughput};
pub use workload::{
    batched_pairs_throughput, pairs_throughput, producer_consumer_throughput, WorkloadResult,
};
