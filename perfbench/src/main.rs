//! The repository benchmark: four workloads driven through the real,
//! monomorphized user stack, with end-to-end metrics from an untraced
//! run and per-layer metrics from a traced run.
//!
//! ```text
//! perfbench --workload <solo|handoff|pipeline|shm_stream> --seed <n>
//!           --seconds <s> --trace <0|1> [--trace-out <file>]
//! ```
//!
//! Human-readable lines start with `#`; the last line of standard output
//! is one JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`. The exit code is non-zero when any delivery or
//! consistency check fails. See RATIONALE.md for why each workload and
//! metric exists.

mod check;
mod memory;
mod stats;
mod trace;
mod workload;

use std::io::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use check::Payloads;
use stats::{failed_share, median, percentile, quieter_half};
use trace::{Dir, Layer, LayerStats, ThreadTrace, TraceTotals, LAYERS};
use workload::{Episode, Run, Workload, WORKLOADS};

/// Length of one measured episode. A run is many episodes, and each
/// timing metric is the median over them.
const EPISODE: Duration = Duration::from_millis(250);
/// Untimed episode that lets caches and lazy set-up settle.
const WARMUP: Duration = Duration::from_millis(250);
/// Set-up samples taken before each measured episode of an untraced
/// run, so they spread over the whole run like the other samples.
const SETUP_REPS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(1..=60).contains(&s) {
                    return Err(format!("seconds must be 1..=60, got {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            "--trace-out" => trace_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        trace_out,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn stamp() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into());
    format!(
        "commit={commit} host_cores={cores} cpu_model=\"{}\"",
        cpu_model()
    )
}

/// Totals over a run's episodes.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, e: &Episode) {
        self.attempted += e.attempted;
        self.failed += e.failed;
    }
}

/// One line per metric: its median and every episode's value.
fn print_spread(name: &str, unit: &str, v: &[f64]) {
    let each: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
    println!(
        "# {name:<16} median {:>14.4} {unit:<7} over {} episodes: {}",
        median(v),
        v.len(),
        each.join(" ")
    );
}

/// The untraced run: end-to-end metrics.
fn untraced(args: &Args, pay: &Payloads, overhead: usize, tally: &mut Tally) -> Vec<Metric> {
    let w = args.workload;
    // Throughput and latency episodes alternate, half the time each.
    let pairs = (args.seconds as u128 * 1000 / (2 * EPISODE.as_millis())).max(1);
    let (mut closed, mut latency, mut setup) = (vec![], vec![], vec![]);
    for _ in 0..pairs {
        for (run, into) in [
            (Run::Closed(EPISODE), &mut closed),
            (Run::Latency(EPISODE), &mut latency),
        ] {
            for _ in 0..SETUP_REPS {
                let e = w.episode(false, Run::SetupOnly, pay);
                tally.add(&e);
                setup.push(e.setup_ns as f64 / 1e9);
            }
            let e = w.episode(false, run, pay);
            tally.add(&e);
            into.push(e);
        }
    }
    let closed = quieter(closed);
    let latency = quieter(latency);
    let rate: Vec<f64> = closed.iter().map(Episode::msgs_per_s).collect();
    let cpu: Vec<f64> = closed
        .iter()
        .map(|e| e.cpu_ns as f64 / e.delivered.max(1) as f64)
        .collect();
    let lat_us = |p| -> Vec<f64> {
        latency
            .iter()
            .filter_map(|e| Some(percentile(&e.lat_ns, p)?.value as f64 / 1e3))
            .collect()
    };
    let (p50, p90) = (lat_us(50.0), lat_us(90.0));
    let mut pooled: Vec<u64> = latency
        .iter()
        .flat_map(|e| e.lat_ns.iter().copied())
        .collect();
    pooled.sort_unstable();
    print_spread("msgs_per_s", "msg/s", &rate);
    print_spread("cpu_ns_per_msg", "ns/msg", &cpu);
    print_spread("lat_p50_us", "us", &p50);
    print_spread("lat_p90_us", "us", &p90);
    print_spread("setup_s", "s", &setup);
    for p in [50.0, 90.0, 99.0, 100.0] {
        if let Some(q) = percentile(&pooled, p) {
            println!(
                "# latency p{p:<3} {:>10.3} us  ({} samples, {} beyond; latency episodes pooled)",
                q.value as f64 / 1e3,
                q.samples,
                q.beyond
            );
        }
    }
    let share = failed_share(tally.failed, tally.attempted);
    println!(
        "# failed_share {share} ({} of {} messages)",
        tally.failed, tally.attempted
    );
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("msgs_per_s", median(&rate), "msg/s"),
        m("lat_p50_us", median(&p50), "us"),
        m("lat_p90_us", median(&p90), "us"),
        m("cpu_ns_per_msg", median(&cpu), "ns/msg"),
        m("overhead_bytes", overhead as f64, "B"),
        m("setup_s", median(&setup), "s"),
        m("delivered_share", 1.0 - share, "share"),
    ]
}

/// Keep the episodes of [`quieter_half`], and say which were kept.
fn quieter(episodes: Vec<Episode>) -> Vec<Episode> {
    let steal: Vec<u64> = episodes.iter().map(|e| e.steal_ticks).collect();
    let keep = quieter_half(&steal);
    println!(
        "# host steal ticks per episode: {:?}; the {} with the least count",
        steal,
        keep.len()
    );
    let mut keep = keep.into_iter().peekable();
    episodes
        .into_iter()
        .enumerate()
        .filter_map(|(i, e)| keep.next_if_eq(&i).map(|_| e))
        .collect()
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn p50(s: &LayerStats, d: Dir) -> f64 {
    s.dur[d as usize].percentile(50.0).unwrap_or(0.0)
}

/// The traced run: untraced and traced episodes alternate, so the
/// tracing overhead is measured under the same conditions as the spans.
fn traced(args: &Args, pay: &Payloads, tally: &mut Tally) -> (Vec<Metric>, bool) {
    let w = args.workload;
    let pairs = (args.seconds as u128 * 1000 / (2 * EPISODE.as_millis())).max(1);
    let (mut plain, mut traced) = (vec![], vec![]);
    let mut totals = TraceTotals::default();
    let (mut msgs, mut wakes) = (0u64, 0u64);
    let mut tiling_ok = true;
    let mut logs: Vec<(usize, ThreadTrace)> = Vec::new();
    for ep in 0..pairs as usize {
        let mut p = w.episode(false, Run::Closed(EPISODE), pay);
        tally.add(&p);
        p.lat_ns.clear();
        plain.push(p);
        let mut t = w.episode(true, Run::Closed(EPISODE), pay);
        tally.add(&t);
        msgs += t.delivered;
        wakes += t.wakes;
        for th in t.traces.drain(..) {
            if !th.tiling.holds() {
                println!("# tiling broken: {:?}", th.tiling);
                tiling_ok = false;
            }
            totals.add(&th);
            logs.push((ep, th));
        }
        t.lat_ns.clear();
        traced.push(t);
    }
    let plain_rate: Vec<f64> = quieter(plain).iter().map(Episode::msgs_per_s).collect();
    let traced_rate: Vec<f64> = quieter(traced).iter().map(Episode::msgs_per_s).collect();
    let overhead_share = 1.0 - median(&traced_rate) / median(&plain_rate);
    print_spread("untraced msgs/s", "msg/s", &plain_rate);
    print_spread("traced msgs/s", "msg/s", &traced_rate);
    println!(
        "# tiling: per-thread self times tile wall time: {} ({} thread traces)",
        if tiling_ok { "yes" } else { "NO" },
        logs.len()
    );
    println!("# layer        calls(enq/deq)        failed(enq/deq)     p50 ns(enq/deq)    self ns/msg  wait ns/msg");
    for l in LAYERS {
        let s = totals.layer(l);
        if s.all_calls() == 0 && l != Layer::Harness {
            continue;
        }
        println!(
            "# {:<12} {:>10}/{:<10} {:>9}/{:<9} {:>9.1}/{:<9.1} {:>11.2} {:>11.2}",
            l.name(),
            s.calls[0],
            s.calls[1],
            s.failed[0],
            s.failed[1],
            p50(s, Dir::Enq),
            p50(s, Dir::Deq),
            ratio(s.self_ns, msgs),
            ratio(s.wait_ns, msgs)
        );
    }
    let harness = totals.layer(Layer::Harness).self_ns;
    let thread_ns: u64 = LAYERS.iter().map(|&l| totals.layer(l).self_ns).sum();
    println!(
        "# harness self time is {:.3} of thread time; trace.overhead_share {overhead_share:.4} (traced vs untraced msgs/s)",
        ratio(harness, thread_ns)
    );
    if let Some(path) = &args.trace_out {
        if let Err(e) = write_spans(path, w, args.seed, &logs) {
            eprintln!("perfbench: cannot write spans to {path}: {e}");
        }
    }

    let l = |x| totals.layer(x);
    let per_msg = |x: Layer| ratio(l(x).self_ns, msgs);
    let share = |x: Layer, d: Dir| ratio(l(x).failed[d as usize], l(x).calls[d as usize]);
    let m = |name, value, unit| Metric { name, value, unit };
    let (o, b, a, sh, shm) = (
        l(Layer::Optimal),
        l(Layer::Blocking),
        l(Layer::AsyncQueue),
        l(Layer::Sharded),
        l(Layer::Shm),
    );
    let metrics = vec![
        m("optimal.enq_ns_p50", p50(o, Dir::Enq), "ns"),
        m("optimal.deq_ns_p50", p50(o, Dir::Deq), "ns"),
        m("optimal.self_ns_per_msg", per_msg(Layer::Optimal), "ns/msg"),
        m(
            "optimal.enq_full_share",
            share(Layer::Optimal, Dir::Enq),
            "share",
        ),
        m(
            "optimal.deq_empty_share",
            share(Layer::Optimal, Dir::Deq),
            "share",
        ),
        m("blocking.send_ns_p50", p50(b, Dir::Enq), "ns"),
        m("blocking.recv_ns_p50", p50(b, Dir::Deq), "ns"),
        m(
            "blocking.self_ns_per_msg",
            per_msg(Layer::Blocking),
            "ns/msg",
        ),
        m("blocking.wait_ns_per_msg", ratio(b.wait_ns, msgs), "ns/msg"),
        m(
            "blocking.waited_call_share",
            ratio(b.waited_calls, b.all_calls()),
            "share",
        ),
        m("event.wakes_per_msg", ratio(wakes, msgs), "count/msg"),
        m("async_queue.send_ns_p50", p50(a, Dir::Enq), "ns"),
        m("async_queue.recv_ns_p50", p50(a, Dir::Deq), "ns"),
        m(
            "async_queue.self_ns_per_msg",
            per_msg(Layer::AsyncQueue),
            "ns/msg",
        ),
        m(
            "async_queue.wait_ns_per_msg",
            ratio(a.wait_ns, msgs),
            "ns/msg",
        ),
        m(
            "async_queue.polls_per_call",
            ratio(a.polls, a.all_calls()),
            "count/call",
        ),
        m("sharded.self_ns_per_msg", per_msg(Layer::Sharded), "ns/msg"),
        m(
            "sharded.shard_calls_per_call",
            ratio(sh.child_calls, sh.all_calls()),
            "count/call",
        ),
        m(
            "sharded.steal_share",
            ratio(sh.steals, sh.moving_calls),
            "share",
        ),
        m("shm.enq_ns_p50", p50(shm, Dir::Enq), "ns"),
        m("shm.deq_ns_p50", p50(shm, Dir::Deq), "ns"),
        m("shm.self_ns_per_msg", per_msg(Layer::Shm), "ns/msg"),
        m("shm.enq_full_share", share(Layer::Shm, Dir::Enq), "share"),
        m("shm.deq_empty_share", share(Layer::Shm, Dir::Deq), "share"),
        m("harness.ns_per_msg", per_msg(Layer::Harness), "ns/msg"),
        m(
            "harness.backoff_ns_per_msg",
            per_msg(Layer::Backoff),
            "ns/msg",
        ),
        m("trace.overhead_share", overhead_share, "share"),
    ];
    (metrics, tiling_ok)
}

/// Write the whole spans of the sampled messages, one per line.
fn write_spans(
    path: &str,
    w: Workload,
    seed: u64,
    logs: &[(usize, ThreadTrace)],
) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "# {} workload={} seed={seed}", stamp(), w.name())?;
    writeln!(
        out,
        "episode\tthread\tseq\tlayer\tdir\tdepth\tstart_ns\tend_ns\tself_ns\tmoved"
    )?;
    for (thread, (ep, t)) in logs.iter().enumerate() {
        for s in &t.log {
            writeln!(
                out,
                "{ep}\t{thread}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.seq,
                s.layer.name(),
                if s.dir == Dir::Enq { "enq" } else { "deq" },
                s.depth,
                s.start_ns,
                s.end_ns,
                s.self_ns,
                s.moved
            )?;
        }
    }
    out.flush()
}

fn json(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <1..60> --trace <0|1> [--trace-out <file>]",
                WORKLOADS.map(|w| w.name()).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} {}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        stamp()
    );
    let pay = Payloads::new(args.seed);
    println!("# payloads: {} distinct values, repeating", pay.distinct());
    let (overhead, memory_ok) = memory::report(w);

    let mut tally = Tally::default();
    let warm = w.episode(args.trace, Run::Closed(WARMUP), &pay);
    tally.add(&warm);
    let (metrics, checks_ok) = if args.trace {
        traced(&args, &pay, &mut tally)
    } else {
        (untraced(&args, &pay, overhead, &mut tally), true)
    };
    let correct = tally.failed == 0 && memory_ok && checks_ok;
    if !correct {
        eprintln!(
            "perfbench: checks failed (failed messages {}, memory check {}, trace tiling {})",
            tally.failed,
            if memory_ok { "ok" } else { "FAILED" },
            if checks_ok { "ok" } else { "FAILED" }
        );
    }
    println!("{}", json(correct, &tally, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric listed under `section` of the
    /// benchmark definition at the root of the repository.
    fn declared(section: &str) -> Vec<(String, String)> {
        let def = include_str!("../../BENCHMARK.json");
        let start = def
            .find(&format!("\"{section}\""))
            .expect("section present");
        let end = def[start..].find(']').map_or(def.len(), |e| start + e);
        let field = |line: &str, key: &str| {
            let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
            Some(rest[..rest.find('"')?].to_string())
        };
        def[start..end]
            .lines()
            .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
            .collect()
    }

    fn emitted(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn both_runs_report_exactly_the_declared_metrics() {
        let pay = Payloads::new(1);
        let args = |trace| Args {
            workload: Workload::Pipeline,
            seed: 1,
            seconds: 1,
            trace,
            trace_out: None,
        };
        let mut tally = Tally::default();
        let e2e = untraced(&args(false), &pay, 1, &mut tally);
        assert_eq!(emitted(&e2e), declared("end_to_end"));
        let (layers, tiles) = traced(&args(true), &pay, &mut tally);
        assert_eq!(emitted(&layers), declared("per_layer"));
        assert!(tiles, "per-thread self times tile wall time");
        assert_eq!(tally.failed, 0);
        let line = json(true, &tally, &e2e);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
        assert!(line.contains("\"delivered_share\": {\"value\": 1, \"unit\": \"share\"}"));
    }
}
