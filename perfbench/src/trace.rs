//! The traced run's recorder. Spans are taken from outside the program:
//! the harness brackets its facade calls, and [`Traced`] brackets every
//! call the facade (or the sharded layer) makes into the token queue it
//! wraps. Nothing inside `crates/*/src` is instrumented.
//!
//! Each thread owns one [`Recorder`] in thread-local memory. A span that
//! closes folds into its layer's totals at once (calls, durations,
//! self time = duration − time covered by its children, waits), so the
//! recorder's memory stays fixed however long the run. Spans of every
//! [`LOG_EVERY`]-th message are also kept whole, tagged with that
//! message's sequence number, and written out when the run ends.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};
use std::time::Instant;

use bq_core::obs::MetricsSnapshot;
use bq_core::{ConcurrentQueue, Full, PointerCapable};

use crate::stats::Histogram;

/// The layers a span can belong to, named after the repository's
/// modules. `Harness` is the benchmark's own loop code; `Backoff` is
/// the yield the `shm_stream` loop makes after a full or empty result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Harness,
    Backoff,
    Blocking,
    AsyncQueue,
    Sharded,
    Optimal,
    Shm,
}

pub const LAYERS: [Layer; 7] = [
    Layer::Harness,
    Layer::Backoff,
    Layer::Blocking,
    Layer::AsyncQueue,
    Layer::Sharded,
    Layer::Optimal,
    Layer::Shm,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Harness => "harness",
            Layer::Backoff => "backoff",
            Layer::Blocking => "blocking",
            Layer::AsyncQueue => "async_queue",
            Layer::Sharded => "sharded",
            Layer::Optimal => "optimal",
            Layer::Shm => "shm",
        }
    }

    fn idx(self) -> usize {
        self as usize
    }
}

/// Direction of a call: towards the queue (`send`, `enqueue`) or out of
/// it (`recv`, `dequeue`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    Enq = 0,
    Deq = 1,
}

/// What a call achieved: how many elements it moved and whether it did
/// what was asked. A call that is not `ok` (full, empty, or a batch
/// accepted only in part) is a failed attempt; the next attempt inside
/// the same parent ends the parent's wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    pub moved: usize,
    pub ok: bool,
}

impl Outcome {
    pub fn of(moved: usize, ok: bool) -> Self {
        Outcome { moved, ok }
    }
}

/// Every `LOG_EVERY`-th message has its spans kept whole.
pub const LOG_EVERY: u64 = 4096;
/// Whole spans kept per thread, at most.
const LOG_CAP: usize = 1 << 16;

/// One whole span of a sampled message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    pub seq: u64,
    pub layer: Layer,
    pub dir: Dir,
    pub depth: u8,
    pub start_ns: u64,
    pub end_ns: u64,
    pub self_ns: u64,
    pub moved: usize,
}

/// Totals for one layer on one thread.
#[derive(Clone, Default)]
pub struct LayerStats {
    pub calls: [u64; 2],
    /// Calls whose outcome was not `ok`.
    pub failed: [u64; 2],
    pub dur: [Histogram; 2],
    pub self_ns: u64,
    /// Time inside this layer's spans between a failed child attempt and
    /// the next child attempt. Part of `self_ns`.
    pub wait_ns: u64,
    /// Calls that waited at least once.
    pub waited_calls: u64,
    /// Child spans opened under this layer's spans.
    pub child_calls: u64,
    /// Future polls counted under this layer's spans.
    pub polls: u64,
    /// Calls that moved at least one element.
    pub moving_calls: u64,
    /// Moving calls in which a child other than the first one visited
    /// moved an element (for `sharded`: a steal off the home shard).
    pub steals: u64,
}

impl LayerStats {
    fn merge(&mut self, o: &LayerStats) {
        for d in 0..2 {
            self.calls[d] += o.calls[d];
            self.failed[d] += o.failed[d];
            self.dur[d].merge(&o.dur[d]);
        }
        self.self_ns += o.self_ns;
        self.wait_ns += o.wait_ns;
        self.waited_calls += o.waited_calls;
        self.child_calls += o.child_calls;
        self.polls += o.polls;
        self.moving_calls += o.moving_calls;
        self.steals += o.steals;
    }

    pub fn all_calls(&self) -> u64 {
        self.calls[0] + self.calls[1]
    }
}

/// An open span.
struct Open {
    layer: Layer,
    dir: Dir,
    start: u64,
    child_ns: u64,
    fail_end: Option<u64>,
    wait_ns: u64,
    waited: bool,
    children: u64,
    polls: u64,
    first_part: Option<u32>,
    stole: bool,
}

/// One thread's spans, folded as they close.
pub struct Recorder {
    epoch: Instant,
    stack: Vec<Open>,
    layers: Vec<LayerStats>,
    /// Sum of the durations of spans opened with nothing open.
    top_ns: u64,
    seq: u64,
    log: Vec<SpanRecord>,
    /// Spans closed with a label other than the open one's.
    mismatched: u64,
    start_ns: u64,
}

impl Recorder {
    /// A recorder timing against `epoch`, whose thread wall time starts
    /// now.
    pub fn new(epoch: Instant) -> Self {
        Self::starting_at(epoch, epoch.elapsed().as_nanos() as u64)
    }

    fn starting_at(epoch: Instant, start_ns: u64) -> Self {
        Recorder {
            epoch,
            stack: Vec::with_capacity(8),
            layers: vec![LayerStats::default(); LAYERS.len()],
            top_ns: 0,
            seq: 0,
            log: Vec::new(),
            mismatched: 0,
            start_ns,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span at time `t` (ns since the epoch).
    pub fn begin_at(&mut self, layer: Layer, dir: Dir, t: u64) {
        if let Some(parent) = self.stack.last_mut() {
            parent.children += 1;
            if let Some(f) = parent.fail_end.take() {
                parent.wait_ns += t.saturating_sub(f);
                parent.waited = true;
            }
        }
        self.stack.push(Open {
            layer,
            dir,
            start: t,
            child_ns: 0,
            fail_end: None,
            wait_ns: 0,
            waited: false,
            children: 0,
            polls: 0,
            first_part: None,
            stole: false,
        });
    }

    /// Close the innermost span at time `t`. `part` tells the parent
    /// which of its parts the span covered (a shard index).
    pub fn end_at(&mut self, layer: Layer, dir: Dir, part: u32, out: Outcome, t: u64) {
        let open = self.stack.pop().expect("span closed with none open");
        if open.layer != layer || open.dir != dir {
            self.mismatched += 1;
        }
        let dur = t.saturating_sub(open.start);
        let self_ns = dur.saturating_sub(open.child_ns);
        let s = &mut self.layers[open.layer.idx()];
        let d = open.dir as usize;
        s.calls[d] += 1;
        s.failed[d] += u64::from(!out.ok);
        s.dur[d].record(dur);
        s.self_ns += self_ns;
        s.wait_ns += open.wait_ns;
        s.waited_calls += u64::from(open.waited);
        s.child_calls += open.children;
        s.polls += open.polls;
        s.moving_calls += u64::from(out.moved > 0);
        s.steals += u64::from(out.moved > 0 && open.stole);
        match self.stack.last_mut() {
            Some(parent) => {
                parent.child_ns += dur;
                let first = *parent.first_part.get_or_insert(part);
                if out.moved > 0 && part != first {
                    parent.stole = true;
                }
                if !out.ok {
                    parent.fail_end = Some(t);
                }
            }
            None => self.top_ns += dur,
        }
        if self.seq.is_multiple_of(LOG_EVERY) && self.log.len() < LOG_CAP {
            self.log.push(SpanRecord {
                seq: self.seq,
                layer: open.layer,
                dir: open.dir,
                depth: self.stack.len() as u8,
                start_ns: open.start,
                end_ns: t,
                self_ns,
                moved: out.moved,
            });
        }
    }

    /// Count one future poll against the innermost open span.
    pub fn poll(&mut self) {
        if let Some(open) = self.stack.last_mut() {
            open.polls += 1;
        }
    }

    /// Tag the spans that follow with a message sequence number.
    pub fn set_seq(&mut self, seq: u64) {
        self.seq = seq;
    }

    /// Close the thread's books at time `t`: its wall time is
    /// `start..t`, and `harness` gets what no top-level span covers.
    pub fn finish_at(mut self, t: u64) -> ThreadTrace {
        let wall_ns = t.saturating_sub(self.start_ns);
        let unclosed = self.stack.len() as u64;
        let harness_ns = wall_ns as i64 - self.top_ns as i64;
        self.layers[Layer::Harness.idx()].self_ns = harness_ns.max(0) as u64;
        let layer_self: u64 = self.layers.iter().map(|s| s.self_ns).sum();
        ThreadTrace {
            layers: self.layers,
            log: self.log,
            tiling: Tiling {
                wall_ns,
                self_sum_ns: layer_self,
                harness_ns,
                unclosed,
                mismatched: self.mismatched,
            },
        }
    }

    pub fn finish(self) -> ThreadTrace {
        let t = self.now();
        self.finish_at(t)
    }
}

/// Whether one thread's self times tile its wall time: every span
/// closed under its own label, no top-level span reaching outside the
/// thread's wall time, and the per-layer self times summing exactly to
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tiling {
    pub wall_ns: u64,
    pub self_sum_ns: u64,
    pub harness_ns: i64,
    pub unclosed: u64,
    pub mismatched: u64,
}

impl Tiling {
    pub fn holds(&self) -> bool {
        self.unclosed == 0
            && self.mismatched == 0
            && self.harness_ns >= 0
            && self.self_sum_ns == self.wall_ns
    }
}

/// A finished thread's trace.
pub struct ThreadTrace {
    pub layers: Vec<LayerStats>,
    pub log: Vec<SpanRecord>,
    pub tiling: Tiling,
}

/// Layer totals summed over threads and episodes.
#[derive(Clone)]
pub struct TraceTotals {
    pub layers: Vec<LayerStats>,
}

impl Default for TraceTotals {
    fn default() -> Self {
        TraceTotals {
            layers: vec![LayerStats::default(); LAYERS.len()],
        }
    }
}

impl TraceTotals {
    pub fn add(&mut self, t: &ThreadTrace) {
        for (a, b) in self.layers.iter_mut().zip(&t.layers) {
            a.merge(b);
        }
    }

    pub fn layer(&self, l: Layer) -> &LayerStats {
        &self.layers[l.idx()]
    }
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording on this thread.
pub fn install(epoch: Instant) {
    REC.with(|r| *r.borrow_mut() = Some(Recorder::new(epoch)));
}

/// Stop recording on this thread and return its trace.
pub fn take() -> ThreadTrace {
    REC.with(|r| r.borrow_mut().take())
        .expect("no recorder installed on this thread")
        .finish()
}

#[inline]
fn with(f: impl FnOnce(&mut Recorder)) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            f(rec)
        }
    })
}

#[inline]
pub fn begin(layer: Layer, dir: Dir) {
    with(|r| {
        let t = r.now();
        r.begin_at(layer, dir, t)
    })
}

#[inline]
pub fn end(layer: Layer, dir: Dir, part: u32, out: Outcome) {
    with(|r| {
        let t = r.now();
        r.end_at(layer, dir, part, out, t)
    })
}

#[inline]
pub fn set_seq(seq: u64) {
    with(|r| r.set_seq(seq))
}

/// A token queue whose every call is a span of `layer`. The facades and
/// `ShardedQueue::from_shards` accept it in place of the queue it wraps,
/// so the traced stack is the real stack with clocks at its seams.
pub struct Traced<Q> {
    inner: Q,
    layer: Layer,
    part: u32,
}

impl<Q> Traced<Q> {
    /// Wrap `inner` as layer `layer`; `part` is its index among its
    /// siblings (a shard index), 0 otherwise.
    pub fn new(inner: Q, layer: Layer, part: u32) -> Self {
        Traced { inner, layer, part }
    }

    #[inline]
    fn span<R>(&self, dir: Dir, call: impl FnOnce() -> R, out: impl FnOnce(&R) -> Outcome) -> R {
        begin(self.layer, dir);
        let r = call();
        end(self.layer, dir, self.part, out(&r));
        r
    }
}

impl<Q: ConcurrentQueue> ConcurrentQueue for Traced<Q> {
    type Handle = Q::Handle;

    fn register(&self) -> Q::Handle {
        self.inner.register()
    }

    fn enqueue(&self, h: &mut Q::Handle, v: u64) -> Result<(), Full> {
        self.span(
            Dir::Enq,
            || self.inner.enqueue(h, v),
            |r| Outcome::of(usize::from(r.is_ok()), r.is_ok()),
        )
    }

    fn dequeue(&self, h: &mut Q::Handle) -> Option<u64> {
        self.span(
            Dir::Deq,
            || self.inner.dequeue(h),
            |r| Outcome::of(usize::from(r.is_some()), r.is_some()),
        )
    }

    fn enqueue_many(&self, h: &mut Q::Handle, vs: &[u64]) -> usize {
        self.span(
            Dir::Enq,
            || self.inner.enqueue_many(h, vs),
            |&n| Outcome::of(n, n == vs.len()),
        )
    }

    fn dequeue_many(&self, h: &mut Q::Handle, max: usize, out: &mut Vec<u64>) -> usize {
        self.span(
            Dir::Deq,
            || self.inner.dequeue_many(h, max, out),
            |&n| Outcome::of(n, n > 0),
        )
    }

    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn max_token(&self) -> u64 {
        self.inner.max_token()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics()
    }

    fn flush_metrics(&self, h: &mut Q::Handle) {
        self.inner.flush_metrics(h)
    }
}

impl<Q: PointerCapable> PointerCapable for Traced<Q> {
    fn drop_handle(&self) -> Q::Handle {
        self.inner.drop_handle()
    }
}

/// A future that counts its polls against the innermost open span.
pub struct CountPolls<F>(pub F);

impl<F: Future + Unpin> Future for CountPolls<F> {
    type Output = F::Output;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        with(|r| r.poll());
        Pin::new(&mut self.0).poll(cx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec() -> Recorder {
        Recorder::starting_at(Instant::now(), 0)
    }

    const OK: Outcome = Outcome { moved: 1, ok: true };
    const MISS: Outcome = Outcome {
        moved: 0,
        ok: false,
    };

    #[test]
    fn self_time_subtracts_nested_children() {
        let mut r = rec();
        // harness 0..10, blocking 10..60 with optimal children 15..25
        // (full) and 40..50 (accepted), harness 60..100.
        r.begin_at(Layer::Blocking, Dir::Enq, 10);
        r.begin_at(Layer::Optimal, Dir::Enq, 15);
        r.end_at(Layer::Optimal, Dir::Enq, 0, MISS, 25);
        r.begin_at(Layer::Optimal, Dir::Enq, 40);
        r.end_at(Layer::Optimal, Dir::Enq, 0, OK, 50);
        r.end_at(Layer::Blocking, Dir::Enq, 0, OK, 60);
        let t = r.finish_at(100);
        let l = |x: Layer| &t.layers[x.idx()];
        assert_eq!(l(Layer::Optimal).self_ns, 20);
        assert_eq!(l(Layer::Blocking).self_ns, 30);
        assert_eq!(l(Layer::Harness).self_ns, 50);
        assert_eq!(l(Layer::Optimal).calls, [2, 0]);
        assert_eq!(l(Layer::Optimal).failed, [1, 0]);
        assert_eq!(l(Layer::Blocking).child_calls, 2);
        // The wait is the gap from the failed attempt's end to the next
        // attempt's start.
        assert_eq!(l(Layer::Blocking).wait_ns, 15);
        assert_eq!(l(Layer::Blocking).waited_calls, 1);
        assert!(t.tiling.holds(), "{:?}", t.tiling);
    }

    #[test]
    fn three_levels_nest_and_steals_are_seen() {
        let mut r = rec();
        r.begin_at(Layer::AsyncQueue, Dir::Deq, 0);
        r.poll();
        r.begin_at(Layer::Sharded, Dir::Deq, 5);
        // Home shard 1 is empty, shard 2 delivers: a steal.
        r.begin_at(Layer::Optimal, Dir::Deq, 6);
        r.end_at(Layer::Optimal, Dir::Deq, 1, MISS, 8);
        r.begin_at(Layer::Optimal, Dir::Deq, 9);
        r.end_at(Layer::Optimal, Dir::Deq, 2, Outcome::of(32, true), 19);
        r.end_at(Layer::Sharded, Dir::Deq, 0, Outcome::of(32, true), 20);
        r.end_at(Layer::AsyncQueue, Dir::Deq, 0, Outcome::of(32, true), 30);
        let t = r.finish_at(30);
        let l = |x: Layer| &t.layers[x.idx()];
        assert_eq!(l(Layer::Optimal).self_ns, 12);
        assert_eq!(l(Layer::Sharded).self_ns, 3);
        assert_eq!(l(Layer::AsyncQueue).self_ns, 15);
        assert_eq!(l(Layer::Harness).self_ns, 0);
        assert_eq!(l(Layer::Sharded).steals, 1);
        assert_eq!(l(Layer::Sharded).child_calls, 2);
        assert_eq!(l(Layer::AsyncQueue).polls, 1);
        assert_eq!(l(Layer::Sharded).wait_ns, 1);
        assert!(t.tiling.holds());
    }

    #[test]
    fn home_shard_success_is_not_a_steal() {
        let mut r = rec();
        r.begin_at(Layer::Sharded, Dir::Enq, 0);
        r.begin_at(Layer::Optimal, Dir::Enq, 1);
        r.end_at(Layer::Optimal, Dir::Enq, 3, OK, 2);
        r.end_at(Layer::Sharded, Dir::Enq, 0, OK, 3);
        let t = r.finish_at(3);
        assert_eq!(t.layers[Layer::Sharded.idx()].steals, 0);
        assert_eq!(t.layers[Layer::Sharded.idx()].moving_calls, 1);
    }

    #[test]
    fn broken_nesting_breaks_the_tiling() {
        let mut r = rec();
        r.begin_at(Layer::Blocking, Dir::Enq, 0);
        r.begin_at(Layer::Optimal, Dir::Enq, 1);
        r.end_at(Layer::Optimal, Dir::Enq, 0, OK, 2);
        let t = r.finish_at(10);
        assert_eq!(t.tiling.unclosed, 1);
        assert!(!t.tiling.holds());

        let mut r = rec();
        r.begin_at(Layer::Shm, Dir::Enq, 0);
        r.end_at(Layer::Shm, Dir::Deq, 0, OK, 5);
        assert!(!r.finish_at(10).tiling.holds(), "label mismatch");

        // A top-level span reaching past the thread's end.
        let mut r = rec();
        r.begin_at(Layer::Shm, Dir::Enq, 0);
        r.end_at(Layer::Shm, Dir::Enq, 0, OK, 20);
        let t = r.finish_at(10);
        assert!(t.tiling.harness_ns < 0 && !t.tiling.holds());
    }

    #[test]
    fn sampled_messages_keep_whole_spans() {
        let mut r = rec();
        r.set_seq(LOG_EVERY);
        r.begin_at(Layer::Shm, Dir::Enq, 0);
        r.end_at(Layer::Shm, Dir::Enq, 0, OK, 4);
        r.set_seq(LOG_EVERY + 1);
        r.begin_at(Layer::Shm, Dir::Enq, 4);
        r.end_at(Layer::Shm, Dir::Enq, 0, OK, 6);
        let t = r.finish_at(6);
        assert_eq!(t.log.len(), 1);
        let s = t.log[0];
        assert_eq!((s.seq, s.depth, s.start_ns, s.end_ns), (LOG_EVERY, 0, 0, 4));
    }

    #[test]
    fn traced_queue_records_through_the_thread_recorder() {
        let q = Traced::new(
            bq_core::OptimalQueue::with_capacity_and_threads(2, 1),
            Layer::Optimal,
            0,
        );
        let mut h = q.register();
        install(Instant::now());
        assert_eq!(q.enqueue_many(&mut h, &[1, 2, 3]), 2);
        let mut out = Vec::new();
        assert_eq!(q.dequeue_many(&mut h, 4, &mut out), 2);
        assert_eq!(q.dequeue(&mut h), None);
        let t = take();
        let o = &t.layers[Layer::Optimal.idx()];
        assert_eq!(o.calls, [1, 2]);
        assert_eq!(o.failed, [1, 1], "partial batch and empty dequeue");
        assert!(t.tiling.holds());
    }
}
