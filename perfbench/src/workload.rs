//! The four workloads, each one episode at a time: build the stack,
//! register handles and spawn the threads (set-up), release them
//! together, run a closed loop until told to stop, drain, and check
//! every delivery.
//!
//! Every workload is written once, generic over the token queue and a
//! `TR` flag. The untraced stack is the plain monomorphized user stack;
//! the traced stack puts [`Traced`] around the token queues and turns on
//! the harness's own spans around each facade call.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use bq_core::{AsyncQueue, BlockingQueue, OptimalQueue, PointerCapable, ShardedQueue};
use bq_shm::ShmQueue;

use crate::check::{FifoCheck, OnceCheck, Payloads};
use crate::trace::{self, CountPolls, Dir, Layer, Outcome, ThreadTrace, Traced};

/// Every `SAMPLE`-th message has its latency measured.
pub const SAMPLE: u64 = 64;
/// The stop flag is read once per this many messages.
const STOP_EVERY: u64 = 64;

/// `pipeline` batch size for `send_all` / `recv_many`.
pub const BATCH: usize = 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Solo,
    Handoff,
    Pipeline,
    ShmStream,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload::Solo,
    Workload::Handoff,
    Workload::Pipeline,
    Workload::ShmStream,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Solo => "solo",
            Workload::Handoff => "handoff",
            Workload::Pipeline => "pipeline",
            Workload::ShmStream => "shm_stream",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        WORKLOADS.into_iter().find(|w| w.name() == s)
    }

    /// Capacity `C` of the stack's token queue (all shards together).
    pub fn capacity(self) -> usize {
        match self {
            Workload::Solo | Workload::ShmStream => 1024,
            Workload::Handoff => 16,
            Workload::Pipeline => 256,
        }
    }

    /// Thread bound `T` of each `OptimalQueue` (none for `shm_stream`).
    pub fn threads(self) -> usize {
        match self {
            Workload::Solo => 64,
            Workload::Handoff | Workload::Pipeline => 2,
            Workload::ShmStream => 0,
        }
    }

    /// Messages a latency episode lets be in flight (sent and not yet
    /// delivered): one send's worth, so latency is that of a message (a
    /// batch in `pipeline`) through an otherwise idle stack. `solo` holds
    /// one message at a time by construction.
    pub fn latency_window(self) -> Option<u64> {
        match self {
            Workload::Solo => None,
            Workload::Handoff | Workload::ShmStream => Some(1),
            Workload::Pipeline => Some(BATCH as u64),
        }
    }

    /// Number of workload threads, which run on the first allowed CPUs.
    fn workers(self) -> usize {
        if self == Workload::Solo {
            1
        } else {
            2
        }
    }

    /// Run one episode.
    pub fn episode(self, traced: bool, run: Run, pay: &Payloads) -> Episode {
        let cpus: Vec<usize> = allowed_cpus().into_iter().take(self.workers()).collect();
        let steal_from = steal_ticks(&cpus);
        let mut e = self.episode_on(traced, run, pay);
        e.steal_ticks = steal_ticks(&cpus).saturating_sub(steal_from);
        e
    }

    fn episode_on(self, traced: bool, run: Run, pay: &Payloads) -> Episode {
        let (c, t) = (self.capacity(), self.threads());
        let run = RunCtl {
            length: run.length(),
            window: match run {
                Run::Latency(_) => self.latency_window(),
                _ => None,
            },
        };
        let optimal = move |c| OptimalQueue::with_capacity_and_threads(c, t);
        let traced_pipeline = move || {
            let shards = (0..PIPELINE_SHARDS)
                .map(|i| traced_optimal(optimal(c / PIPELINE_SHARDS), i as u32))
                .collect();
            Traced::new(ShardedQueue::from_shards(shards), Layer::Sharded, 0)
        };
        // Each workload builds its stack through the closure it is given,
        // inside its set-up timing.
        match (self, traced) {
            (Workload::Solo, false) => solo::<_, false>(|| optimal(c), run, pay),
            (Workload::Solo, true) => solo::<_, true>(|| traced_optimal(optimal(c), 0), run, pay),
            (Workload::Handoff, false) => handoff::<_, false>(|| optimal(c), run, pay),
            (Workload::Handoff, true) => {
                handoff::<_, true>(|| traced_optimal(optimal(c), 0), run, pay)
            }
            (Workload::Pipeline, false) => pipeline::<_, false>(
                || ShardedQueue::<OptimalQueue>::optimal(c, PIPELINE_SHARDS, t),
                run,
                pay,
            ),
            (Workload::Pipeline, true) => pipeline::<_, true>(traced_pipeline, run, pay),
            (Workload::ShmStream, tr) => {
                if tr {
                    shm_stream::<true>(c, run, pay)
                } else {
                    shm_stream::<false>(c, run, pay)
                }
            }
        }
    }
}

/// How an episode runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Run {
    /// Set up and tear down at once: a set-up sample.
    SetupOnly,
    /// Closed loop: the producer sends as fast as the queue accepts.
    Closed(Duration),
    /// Closed loop with at most [`Workload::latency_window`] messages
    /// in flight: latency with a fixed occupancy, not a random walk
    /// between an empty and a full queue.
    Latency(Duration),
}

impl Run {
    fn length(self) -> Option<Duration> {
        match self {
            Run::SetupOnly => None,
            Run::Closed(d) | Run::Latency(d) => Some(d),
        }
    }
}

#[derive(Clone, Copy)]
struct RunCtl {
    length: Option<Duration>,
    window: Option<u64>,
}

/// Shards `S` of the `pipeline` stack.
pub const PIPELINE_SHARDS: usize = 4;

fn traced_optimal(q: OptimalQueue, part: u32) -> Traced<OptimalQueue> {
    Traced::new(q, Layer::Optimal, part)
}

/// What one episode measured.
pub struct Episode {
    pub setup_ns: u64,
    /// Messages the producers tried to send.
    pub attempted: u64,
    pub failed: u64,
    pub delivered: u64,
    /// From the first thread's release to the last thread's finish.
    pub wall_ns: u64,
    /// CPU time of the workload threads over their timed loops.
    pub cpu_ns: u64,
    /// Latencies of the sampled messages, ascending.
    pub lat_ns: Vec<u64>,
    /// Wake generations published on both eventcounts.
    pub wakes: u64,
    /// Clock ticks the hypervisor took from the workload's CPUs during
    /// the episode (the `steal` column of `/proc/stat`; 0 where absent).
    pub steal_ticks: u64,
    pub traces: Vec<ThreadTrace>,
}

impl Episode {
    pub fn msgs_per_s(&self) -> f64 {
        self.delivered as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }
}

/// Shared episode control: the release barrier, the stop flag, and the
/// clock every thread reads.
struct Ctl {
    /// Workers that have registered their handles.
    ready: AtomicUsize,
    workers: usize,
    start: Barrier,
    stop: AtomicBool,
    epoch: Instant,
    run: RunCtl,
    /// Messages delivered so far, published by the consumer when a
    /// window is set.
    delivered: Padded,
}

/// An atomic on a cache line (pair) of its own.
#[repr(align(128))]
struct Padded(AtomicU64);

impl Ctl {
    fn new(workers: usize, run: RunCtl) -> Self {
        Ctl {
            ready: AtomicUsize::new(0),
            workers,
            start: Barrier::new(workers + 1),
            stop: AtomicBool::new(false),
            epoch: Instant::now(),
            run,
            delivered: Padded(AtomicU64::new(0)),
        }
    }

    /// Called before sending messages `..end`: with a window, wait until
    /// at most `window` messages would be in flight. `seen` caches the
    /// consumer's last published count.
    #[inline]
    fn wait_window(&self, end: u64, seen: &mut u64) {
        let Some(w) = self.run.window else { return };
        let mut spins = 0u32;
        while end > *seen + w {
            *seen = self.delivered.0.load(Ordering::Acquire);
            spins += 1;
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Called by the consumer after each delivery.
    #[inline]
    fn publish_delivered(&self, n: u64) {
        if self.run.window.is_some() {
            self.delivered.0.store(n, Ordering::Release);
        }
    }

    fn ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    #[inline]
    fn stop_at(&self, seq: u64) -> bool {
        seq.is_multiple_of(STOP_EVERY) && self.stop.load(Ordering::Relaxed)
    }

    /// The main thread's part: set-up ends once every worker has
    /// registered (read without sleeping, so the time does not include a
    /// wake-up of this thread); then release the workers together and let
    /// them run for `run`. Returns the set-up time.
    fn release(&self, setup_from: Instant) -> u64 {
        while self.ready.load(Ordering::Acquire) < self.workers {
            std::thread::yield_now();
        }
        let setup_ns = setup_from.elapsed().as_nanos() as u64;
        if self.run.length.is_none() {
            self.stop.store(true, Ordering::Relaxed);
        }
        self.start.wait();
        if let Some(d) = self.run.length {
            std::thread::sleep(d);
            self.stop.store(true, Ordering::Relaxed);
        }
        setup_ns
    }
}

/// One worker thread's record.
#[derive(Default)]
struct Side {
    start_ns: u64,
    end_ns: u64,
    cpu_ns: u64,
    attempted: u64,
    sent: u64,
    /// Facade calls that returned an error.
    errors: u64,
    /// Send start of message `i * SAMPLE`.
    send_at: Vec<u64>,
    /// `(seq, time the delivering call returned)` of sampled messages.
    recv_at: Vec<(u64, u64)>,
    fifo: Option<FifoCheck>,
    once: Option<OnceCheck>,
    trace: Option<ThreadTrace>,
}

impl Side {
    /// Report ready, wait for the release, then start this thread's
    /// clocks.
    fn begin<const TR: bool>(ctl: &Ctl) -> Side {
        ctl.ready.fetch_add(1, Ordering::Release);
        ctl.start.wait();
        if TR {
            trace::install(ctl.epoch);
        }
        Side {
            start_ns: ctl.ns(),
            cpu_ns: thread_cpu_ns(),
            ..Side::default()
        }
    }

    fn end<const TR: bool>(&mut self, ctl: &Ctl) {
        self.cpu_ns = thread_cpu_ns() - self.cpu_ns;
        self.end_ns = ctl.ns();
        if TR {
            self.trace = Some(trace::take());
        }
    }
}

/// CPUs this process may run on, lowest first.
fn allowed_cpus() -> Vec<usize> {
    extern "C" {
        fn sched_getaffinity(pid: libc::pid_t, size: usize, mask: *mut u64) -> libc::c_int;
    }
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..mask.len() * 64)
        .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .collect()
}

/// Steal ticks accumulated so far on `cpus`, from `/proc/stat`.
fn steal_ticks(cpus: &[usize]) -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return 0;
    };
    stat.lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let cpu: usize = f.next()?.strip_prefix("cpu")?.parse().ok()?;
            // user nice system idle iowait irq softirq steal
            cpus.contains(&cpu).then(|| f.nth(7)?.parse::<u64>().ok())?
        })
        .sum()
}

/// Pin the calling thread to the `k`-th allowed CPU, so the two workload
/// threads run on different cores in every episode instead of wherever
/// the scheduler's wake placement puts them. Best effort: with one
/// allowed CPU, or when the call is refused, the thread stays unpinned.
fn pin(k: usize) {
    extern "C" {
        fn sched_setaffinity(pid: libc::pid_t, size: usize, mask: *const u64) -> libc::c_int;
    }
    let cpus = allowed_cpus();
    if cpus.len() < 2 {
        return;
    }
    let cpu = cpus[k % cpus.len()];
    let mut mask = [0u64; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed;
    // pid 0 names the calling thread. A refusal leaves it unpinned.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

/// CPU time of the calling thread.
fn thread_cpu_ns() -> u64 {
    const CLOCK_THREAD_CPUTIME_ID: libc::clockid_t = 3;
    let mut ts = libc::timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec and the clock id is a
    // Linux constant; clock_gettime has no other preconditions.
    let rc = unsafe { libc::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Run `call` as a harness span of `layer` when tracing.
#[inline(always)]
fn span<const TR: bool, R>(
    layer: Layer,
    dir: Dir,
    call: impl FnOnce() -> R,
    out: impl FnOnce(&R) -> Outcome,
) -> R {
    if !TR {
        return call();
    }
    trace::begin(layer, dir);
    let r = call();
    trace::end(layer, dir, 0, out(&r));
    r
}

#[inline(always)]
fn set_seq<const TR: bool>(seq: u64) {
    if TR {
        trace::set_seq(seq);
    }
}

fn ok_if<E>(r: &Result<(), E>) -> Outcome {
    Outcome::of(usize::from(r.is_ok()), r.is_ok())
}

fn some_if<T>(r: &Option<T>) -> Outcome {
    Outcome::of(usize::from(r.is_some()), r.is_some())
}

fn combine(setup_ns: u64, sides: Vec<Side>, wakes: u64) -> Episode {
    let attempted = sides.iter().map(|s| s.attempted).sum();
    let sent = sides.iter().map(|s| s.sent).sum();
    let errors: u64 = sides.iter().map(|s| s.errors).sum();
    let (mut failed, mut delivered) = (errors, 0);
    for s in &sides {
        if let Some(c) = &s.fifo {
            failed += c.failed(sent);
            delivered += c.received;
        }
        if let Some(c) = &s.once {
            failed += c.failed(sent);
            delivered += c.received;
        }
    }
    let send_at: &[u64] = sides
        .iter()
        .find(|s| !s.send_at.is_empty())
        .map_or(&[], |s| &s.send_at);
    let mut lat_ns: Vec<u64> = sides
        .iter()
        .flat_map(|s| &s.recv_at)
        .filter_map(|&(seq, t)| {
            let at = *send_at.get((seq / SAMPLE) as usize)?;
            seq.is_multiple_of(SAMPLE).then(|| t.saturating_sub(at))
        })
        .collect();
    lat_ns.sort_unstable();
    let start = sides.iter().map(|s| s.start_ns).min().unwrap_or(0);
    let end = sides.iter().map(|s| s.end_ns).max().unwrap_or(0);
    Episode {
        setup_ns,
        attempted,
        failed,
        delivered,
        wall_ns: end - start,
        cpu_ns: sides.iter().map(|s| s.cpu_ns).sum(),
        lat_ns,
        wakes,
        steal_ticks: 0,
        traces: sides.into_iter().filter_map(|s| s.trace).collect(),
    }
}

fn join(h: std::thread::ScopedJoinHandle<'_, Side>) -> Side {
    h.join().expect("workload thread panicked")
}

/// `solo`: one thread, `send` then `recv` of each message through
/// `BlockingQueue`; the queue never makes it wait.
fn solo<Q: PointerCapable, const TR: bool>(
    make: impl FnOnce() -> Q,
    run: RunCtl,
    pay: &Payloads,
) -> Episode {
    let setup_from = Instant::now();
    let q = BlockingQueue::<u64, Q>::new(make());
    let ctl = Ctl::new(1, run);
    std::thread::scope(|s| {
        let worker = s.spawn(|| {
            pin(0);
            let mut h = q.register();
            let mut side = Side::begin::<TR>(&ctl);
            let mut check = FifoCheck::default();
            let mut seq = 0;
            while !ctl.stop_at(seq) {
                let sampled = seq.is_multiple_of(SAMPLE);
                let t0 = if sampled { ctl.ns() } else { 0 };
                set_seq::<TR>(seq);
                side.attempted += 1;
                let sent = span::<TR, _>(
                    Layer::Blocking,
                    Dir::Enq,
                    || q.send(&mut h, pay.value(seq)),
                    ok_if,
                );
                if sent.is_err() {
                    side.errors += 1;
                    break;
                }
                side.sent += 1;
                let got = span::<TR, _>(Layer::Blocking, Dir::Deq, || q.recv(&mut h), some_if);
                let Some(v) = got else { break };
                check.observe(v, pay);
                if sampled {
                    side.send_at.push(t0);
                    side.recv_at.push((seq, ctl.ns()));
                }
                seq += 1;
            }
            side.end::<TR>(&ctl);
            side.fifo = Some(check);
            side
        });
        let setup_ns = ctl.release(setup_from);
        let side = join(worker);
        let wakes = q.not_full_event().generation() + q.not_empty_event().generation();
        combine(setup_ns, vec![side], wakes)
    })
}

/// `handoff`: one producer and one consumer thread over a small
/// `BlockingQueue`, single-element `send`/`recv`; the producer closes
/// the queue when told to stop and the consumer drains it.
fn handoff<Q: PointerCapable, const TR: bool>(
    make: impl FnOnce() -> Q,
    run: RunCtl,
    pay: &Payloads,
) -> Episode {
    let setup_from = Instant::now();
    let q = BlockingQueue::<u64, Q>::new(make());
    let ctl = Ctl::new(2, run);
    std::thread::scope(|s| {
        let producer = s.spawn(|| {
            pin(0);
            let mut h = q.register();
            let mut side = Side::begin::<TR>(&ctl);
            let (mut seq, mut seen) = (0, 0);
            while !ctl.stop_at(seq) {
                ctl.wait_window(seq + 1, &mut seen);
                let sampled = seq.is_multiple_of(SAMPLE);
                let t0 = if sampled { ctl.ns() } else { 0 };
                set_seq::<TR>(seq);
                side.attempted += 1;
                let sent = span::<TR, _>(
                    Layer::Blocking,
                    Dir::Enq,
                    || q.send(&mut h, pay.value(seq)),
                    ok_if,
                );
                if sent.is_err() {
                    side.errors += 1;
                    break;
                }
                side.sent += 1;
                if sampled {
                    side.send_at.push(t0);
                }
                seq += 1;
            }
            side.end::<TR>(&ctl);
            q.close();
            side
        });
        let consumer = s.spawn(|| {
            pin(1);
            let mut h = q.register();
            let mut side = Side::begin::<TR>(&ctl);
            let mut check = FifoCheck::default();
            loop {
                let seq = check.received;
                set_seq::<TR>(seq);
                let got = span::<TR, _>(Layer::Blocking, Dir::Deq, || q.recv(&mut h), some_if);
                let Some(v) = got else { break };
                check.observe(v, pay);
                ctl.publish_delivered(check.received);
                if seq.is_multiple_of(SAMPLE) {
                    side.recv_at.push((seq, ctl.ns()));
                }
            }
            side.end::<TR>(&ctl);
            side.fifo = Some(check);
            side
        });
        let setup_ns = ctl.release(setup_from);
        let sides = vec![join(producer), join(consumer)];
        let wakes = q.not_full_event().generation() + q.not_empty_event().generation();
        combine(setup_ns, sides, wakes)
    })
}

/// `pipeline`: one producer and one consumer, each driving the async
/// facade with `pollster::block_on`, batches of [`BATCH`] through
/// `send_all` / `recv_many` over a sharded queue.
fn pipeline<Q: PointerCapable, const TR: bool>(
    make: impl FnOnce() -> Q,
    run: RunCtl,
    pay: &Payloads,
) -> Episode {
    let setup_from = Instant::now();
    let q = AsyncQueue::<u64, Q>::new(make());
    let ctl = Ctl::new(2, run);
    std::thread::scope(|s| {
        let producer = s.spawn(|| {
            pin(0);
            let mut h = q.register();
            let mut side = Side::begin::<TR>(&ctl);
            let (mut seq, mut seen) = (0, 0);
            while !ctl.stop_at(seq) {
                let batch: Vec<u64> = (seq..seq + BATCH as u64).map(|i| pay.tagged(i)).collect();
                ctl.wait_window(seq + BATCH as u64, &mut seen);
                let sampled = seq.is_multiple_of(SAMPLE);
                let t0 = if sampled { ctl.ns() } else { 0 };
                set_seq::<TR>(seq);
                side.attempted += BATCH as u64;
                let sent = span::<TR, _>(
                    Layer::AsyncQueue,
                    Dir::Enq,
                    || {
                        if TR {
                            pollster::block_on(CountPolls(q.send_all(&mut h, batch)))
                        } else {
                            pollster::block_on(q.send_all(&mut h, batch))
                        }
                    },
                    |r| match r {
                        Ok(()) => Outcome::of(BATCH, true),
                        Err(e) => Outcome::of(BATCH - e.0.len(), false),
                    },
                );
                if let Err(unsent) = sent {
                    side.errors += unsent.0.len() as u64;
                    side.sent += (BATCH - unsent.0.len()) as u64;
                    break;
                }
                side.sent += BATCH as u64;
                if sampled {
                    side.send_at.push(t0);
                }
                seq += BATCH as u64;
            }
            side.end::<TR>(&ctl);
            q.close();
            side
        });
        let consumer = s.spawn(|| {
            pin(1);
            let mut h = q.register();
            let mut side = Side::begin::<TR>(&ctl);
            let mut check = OnceCheck::default();
            loop {
                set_seq::<TR>(check.received);
                let got = span::<TR, _>(
                    Layer::AsyncQueue,
                    Dir::Deq,
                    || {
                        if TR {
                            pollster::block_on(CountPolls(q.recv_many(&mut h, BATCH)))
                        } else {
                            pollster::block_on(q.recv_many(&mut h, BATCH))
                        }
                    },
                    |v| Outcome::of(v.len(), !v.is_empty()),
                );
                if got.is_empty() {
                    break;
                }
                let t = ctl.ns();
                for v in got {
                    let seq = check.observe(v, pay);
                    if seq.is_multiple_of(SAMPLE) {
                        side.recv_at.push((seq, t));
                    }
                }
                ctl.publish_delivered(check.received);
            }
            side.end::<TR>(&ctl);
            side.once = Some(check);
            side
        });
        let setup_ns = ctl.release(setup_from);
        let sides = vec![join(producer), join(consumer)];
        let sync = q.blocking();
        let wakes = sync.not_full_event().generation() + sync.not_empty_event().generation();
        combine(setup_ns, sides, wakes)
    })
}

/// `shm_stream`: one producer and one consumer thread over a `ShmQueue`
/// in an anonymous segment, yielding on full and on empty — the E13
/// worker loop on threads.
fn shm_stream<const TR: bool>(c: usize, run: RunCtl, pay: &Payloads) -> Episode {
    let setup_from = Instant::now();
    let q = ShmQueue::<u64>::create_anon(c).expect("anonymous shm segment");
    let ctl = Ctl::new(2, run);
    // Messages sent, published once the producer is done.
    let sent_total = AtomicU64::new(u64::MAX);
    let backoff = |dir| {
        span::<TR, _>(Layer::Backoff, dir, std::thread::yield_now, |_| {
            Outcome::of(0, true)
        })
    };
    std::thread::scope(|s| {
        let producer = s.spawn(|| {
            pin(0);
            let mut h = q.register();
            let mut side = Side::begin::<TR>(&ctl);
            let (mut seq, mut seen) = (0, 0);
            while !ctl.stop_at(seq) {
                let v = pay.value(seq);
                ctl.wait_window(seq + 1, &mut seen);
                let sampled = seq.is_multiple_of(SAMPLE);
                let t0 = if sampled { ctl.ns() } else { 0 };
                set_seq::<TR>(seq);
                side.attempted += 1;
                while span::<TR, _>(Layer::Shm, Dir::Enq, || q.enqueue(&mut h, v), ok_if).is_err() {
                    backoff(Dir::Enq);
                }
                side.sent += 1;
                if sampled {
                    side.send_at.push(t0);
                }
                seq += 1;
            }
            side.end::<TR>(&ctl);
            sent_total.store(side.sent, Ordering::Release);
            side
        });
        let consumer = s.spawn(|| {
            pin(1);
            let mut h = q.register();
            let mut side = Side::begin::<TR>(&ctl);
            let mut check = FifoCheck::default();
            loop {
                let seq = check.received;
                set_seq::<TR>(seq);
                match span::<TR, _>(Layer::Shm, Dir::Deq, || q.dequeue(&mut h), some_if) {
                    Some(v) => {
                        check.observe(v, pay);
                        ctl.publish_delivered(check.received);
                        if seq.is_multiple_of(SAMPLE) {
                            side.recv_at.push((seq, ctl.ns()));
                        }
                    }
                    None if check.received >= sent_total.load(Ordering::Acquire) => {
                        // Everything sent has arrived; anything still
                        // queued is a duplicate and fails the check.
                        while let Some(v) = q.dequeue(&mut h) {
                            check.observe(v, pay);
                        }
                        break;
                    }
                    None => backoff(Dir::Deq),
                }
            }
            side.end::<TR>(&ctl);
            side.fifo = Some(check);
            side
        });
        let setup_ns = ctl.release(setup_from);
        let sides = vec![join(producer), join(consumer)];
        combine(setup_ns, sides, 0)
    })
}
