//! A blocking façade over the non-blocking queues: `send` waits for space,
//! `recv` waits for an element.
//!
//! The paper's §1 mentions the trivial blocking solution (a lock has Θ(1)
//! overhead but poor scalability). This type shows the practical middle
//! ground real systems use: the *data path* stays the lock-free queue —
//! all transfers go through it, no element is ever protected by a lock —
//! and waiting is delegated to the [`EventCount`] waiter subsystem
//! (DESIGN.md §9), one instance per direction, used **only to park**
//! threads that found the queue full/empty. The memory cost of the
//! parking layer is Θ(1) on top of whatever the underlying queue pays,
//! so e.g. `BlockingQueue<T, OptimalQueue>` is a blocking-API queue with
//! Θ(T) total overhead.
//!
//! ## One wait per direction
//!
//! Each direction has one waiting entry point taking a [`TimeLimit`]
//! ([`send_within`](BlockingQueue::send_within) and
//! [`send_all_within`](BlockingQueue::send_all_within),
//! [`recv_within`](BlockingQueue::recv_within) and
//! [`recv_many_within`](BlockingQueue::recv_many_within)); `send`,
//! `recv`, `send_all` and `recv_many` are the same calls under
//! [`TimeLimit::Never`]. Each is one [`EventCount::wait`] over one
//! private *attempt step* per direction, shared with the async façade
//! ([`crate::AsyncQueue`]), which drives futures off the *same two
//! eventcount instances* — blocking threads and async tasks can wait on
//! one queue simultaneously. The lost-wake argument lives in the
//! [`crate::event`] module docs; this file contains no parking machinery
//! of its own. The [`Shape`] parameter ([`One`] or [`Many`]) picks the
//! single or batch form of a step.
//!
//! A send boxes its items once and retries on the unaccepted token
//! suffix, so a parked send never round-trips its values through `Box`
//! on a wake.
//!
//! ## Shutdown: `close()` with drain semantics
//!
//! [`close`](BlockingQueue::close) disconnects the queue without needing
//! sentinel ("poison") values: subsequent and parked `send`s return the
//! value back as an error, while receivers **drain every element already
//! accepted** and only then observe the closed state (`recv` → `None`,
//! `recv_many` → empty vector). A send racing `close` may still deposit
//! its element — it is never lost: it remains in the queue for later
//! receivers (or the destructor's drain). Conservation is unaffected.
//! When a timed wait expires, `close` beats the timeout: a queue closed
//! first reports `Closed`, never `Timeout`.

use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;

use crate::simx::SimAtomicBool;

use crate::boxed::{box_token, unbox_token, BoxedHandle, BoxedQueue, PointerCapable};
use crate::event::{EventCount, TimeLimit};

/// Error returned by a blocking/async `send` on a closed queue: carries
/// the unsent value(s) back to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Error returned by `try_send`: the queue was full or already closed.
/// Either way the value comes back to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The queue holds `C` elements (retry may succeed later).
    Full(T),
    /// The queue is closed (no send will ever succeed again).
    Closed(T),
}

impl<T> TrySendError<T> {
    /// The rejected value, whatever the reason.
    pub fn into_inner(self) -> T {
        match self {
            TrySendError::Full(v) | TrySendError::Closed(v) => v,
        }
    }
}

/// Error returned by `try_recv`: nothing to take right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// The queue was observed empty but is still open.
    Empty,
    /// The queue was observed empty after it was closed. (A send racing
    /// `close` may still deposit later; see the module docs.)
    Closed,
}

/// Error returned by a time-limited send: the value comes back in both
/// cases, and the two failure causes stay distinguishable — a `Timeout`
/// may be retried, a `Closed` never succeeds again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendTimeoutError<T> {
    /// The deadline passed with the queue still full. A `close()` racing
    /// the deadline is pinned the other way: when the queue was closed
    /// first, the error is [`Closed`](Self::Closed), never `Timeout`.
    Timeout(T),
    /// The queue is closed (no send will ever succeed again).
    Closed(T),
}

impl<T> SendTimeoutError<T> {
    /// The unsent value(s), whatever the reason.
    pub fn into_inner(self) -> T {
        match self {
            SendTimeoutError::Timeout(v) | SendTimeoutError::Closed(v) => v,
        }
    }

    /// `true` for the retryable [`Timeout`](Self::Timeout) case.
    pub fn is_timeout(&self) -> bool {
        matches!(self, SendTimeoutError::Timeout(_))
    }
}

impl<T> std::fmt::Display for SendTimeoutError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendTimeoutError::Timeout(_) => write!(f, "send timed out (queue still full)"),
            SendTimeoutError::Closed(_) => write!(f, "send on closed queue"),
        }
    }
}

impl<T: std::fmt::Debug> std::error::Error for SendTimeoutError<T> {}

/// Error returned by a time-limited `recv`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// The deadline passed with the queue still empty and open. As with
    /// sends, `close()` racing the deadline is pinned: when the queue
    /// was closed and drained first, the error is
    /// [`Closed`](Self::Closed), never `Timeout`.
    Timeout,
    /// The queue is closed and fully drained.
    Closed,
}

impl std::fmt::Display for RecvTimeoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvTimeoutError::Timeout => write!(f, "recv timed out (queue still empty)"),
            RecvTimeoutError::Closed => write!(f, "recv on closed and drained queue"),
        }
    }
}

impl std::error::Error for RecvTimeoutError {}

/// The single-value form of a waiting operation: moves one `T`.
#[derive(Debug, Clone, Copy)]
pub struct One;

/// The batch form of a waiting operation: moves a `Vec<T>`. A receive
/// takes at most the carried bound.
#[derive(Debug, Clone, Copy)]
pub struct Many(pub(crate) usize);

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::One {}
    impl Sealed for super::Many {}
}

/// Single ([`One`]) or batch ([`Many`]) form of a waiting operation.
/// Sealed: the façades' futures are generic over it, nothing else is.
pub trait Shape<T: Send>: sealed::Sealed {
    /// What one operation moves: `T` or `Vec<T>`.
    type Items;
    #[doc(hidden)]
    type Tokens: AsRef<[u64]>;
    #[doc(hidden)]
    fn tokens(items: Self::Items, boxed: impl FnMut(T) -> u64) -> Self::Tokens;
    #[doc(hidden)]
    fn items(tokens: &[u64], unboxed: impl FnMut(u64) -> T) -> Self::Items;
    #[doc(hidden)]
    fn take<Q: PointerCapable>(
        &self,
        q: &BlockingQueue<T, Q>,
        h: &mut BoxedHandle<Q>,
    ) -> Option<Self::Items>;
}

impl<T: Send> Shape<T> for One {
    type Items = T;
    type Tokens = [u64; 1];
    fn tokens(item: T, mut boxed: impl FnMut(T) -> u64) -> [u64; 1] {
        [boxed(item)]
    }
    fn items(tokens: &[u64], mut unboxed: impl FnMut(u64) -> T) -> T {
        unboxed(tokens[0])
    }
    fn take<Q: PointerCapable>(
        &self,
        q: &BlockingQueue<T, Q>,
        h: &mut BoxedHandle<Q>,
    ) -> Option<T> {
        q.take_one(h)
    }
}

impl<T: Send> Shape<T> for Many {
    type Items = Vec<T>;
    type Tokens = Vec<u64>;
    fn tokens(items: Vec<T>, boxed: impl FnMut(T) -> u64) -> Vec<u64> {
        items.into_iter().map(boxed).collect()
    }
    fn items(tokens: &[u64], mut unboxed: impl FnMut(u64) -> T) -> Vec<T> {
        tokens.iter().map(|&t| unboxed(t)).collect()
    }
    fn take<Q: PointerCapable>(
        &self,
        q: &BlockingQueue<T, Q>,
        h: &mut BoxedHandle<Q>,
    ) -> Option<Vec<T>> {
        // Failed attempts push nothing, so they allocate nothing.
        let mut out = Vec::new();
        (q.try_recv_many(h, self.0, &mut out) > 0).then_some(out)
    }
}

/// The unaccepted part of a send: every item boxed once, retried as the
/// token suffix `tokens[sent..]`. Dropping it drops the unsent values.
pub(crate) struct Unsent<T: Send, S: Shape<T>> {
    tokens: S::Tokens,
    sent: usize,
    _owns: PhantomData<T>,
}

impl<T: Send, S: Shape<T>> Unsent<T, S> {
    pub(crate) fn new(items: S::Items) -> Self {
        Unsent {
            tokens: S::tokens(items, box_token),
            sent: 0,
            _owns: PhantomData,
        }
    }

    /// Offer the suffix to `push`, which returns how many it accepted.
    /// While the suffix is on offer this record owns none of it, so a
    /// panic out of `push` leaks the suffix rather than freeing tokens
    /// the queue may already hold.
    fn offer(&mut self, push: impl FnOnce(&[u64]) -> usize) -> usize {
        let from = std::mem::replace(&mut self.sent, self.tokens.as_ref().len());
        let n = push(&self.tokens.as_ref()[from..]);
        self.sent = from + n;
        n
    }

    fn is_done(&self) -> bool {
        self.sent == self.tokens.as_ref().len()
    }

    /// Hand the unsent suffix back as values.
    fn take(&mut self) -> S::Items {
        let from = std::mem::replace(&mut self.sent, self.tokens.as_ref().len());
        S::items(&self.tokens.as_ref()[from..], unbox_token)
    }
}

impl<T: Send, S: Shape<T>> Drop for Unsent<T, S> {
    fn drop(&mut self) {
        for &t in &self.tokens.as_ref()[self.sent..] {
            drop(unbox_token::<T>(t));
        }
    }
}

/// Blocking bounded queue over any pointer-capable token queue.
///
/// ```
/// use bq_core::{BlockingQueue, OptimalQueue};
///
/// let q: BlockingQueue<String, OptimalQueue> =
///     BlockingQueue::new(OptimalQueue::with_capacity_and_threads(8, 2));
/// let mut h = q.register();
/// q.send(&mut h, "job".to_string()).unwrap();
/// assert_eq!(q.recv(&mut h), Some("job".to_string()));
/// q.close();
/// assert_eq!(q.recv(&mut h), None, "closed and drained");
/// ```
pub struct BlockingQueue<T: Send, Q: PointerCapable> {
    inner: BoxedQueue<T, Q>,
    not_full: EventCount,
    not_empty: EventCount,
    closed: SimAtomicBool,
    poisoned: SimAtomicBool,
}

impl<T: Send, Q: PointerCapable> BlockingQueue<T, Q> {
    /// Wrap an empty token queue.
    pub fn new(inner: Q) -> Self {
        BlockingQueue {
            inner: BoxedQueue::new(inner),
            not_full: EventCount::new(),
            not_empty: EventCount::new(),
            closed: SimAtomicBool::new(false),
            poisoned: SimAtomicBool::new(false),
        }
    }

    /// Obtain a per-thread handle.
    pub fn register(&self) -> BoxedHandle<Q> {
        self.inner.register()
    }

    /// The eventcount senders wait on ("not full"). Exposed so the async
    /// façade can register wakers against the same generations, and for
    /// instrumentation (waiter counts in tests).
    pub fn not_full_event(&self) -> &EventCount {
        &self.not_full
    }

    /// The eventcount receivers wait on ("not empty"); see
    /// [`not_full_event`](Self::not_full_event).
    pub fn not_empty_event(&self) -> &EventCount {
        &self.not_empty
    }

    /// Borrow the underlying token queue (footprint accounting and other
    /// read-only introspection — the façade's typed API is the only safe
    /// transfer path).
    pub fn inner_queue(&self) -> &Q {
        self.inner.inner()
    }

    /// Close the queue: wakes every parked sender and receiver. Senders
    /// fail from now on; receivers drain the remaining elements and then
    /// observe the closed state. Idempotent.
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        self.not_full.wake_all();
        self.not_empty.wake_all();
    }

    /// Has [`close`](Self::close) been called?
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// Did a panic unwind out of a queue operation mid-flight? A
    /// poisoned queue is permanently closed (fault containment: the
    /// inner data structure may hold a half-applied transition), but
    /// already-accepted elements still drain. The panic itself is
    /// re-thrown to the thread that hit it; *other* threads observe
    /// `Closed` errors plus this flag.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }

    /// Run an inner-queue operation, converting a panic that unwinds out
    /// of it into a poisoned + closed queue before re-throwing. This is
    /// the facade-level catch: both the blocking and async surfaces
    /// funnel every data-path call through here.
    fn contain<R>(&self, f: impl FnOnce() -> R) -> R {
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(r) => r,
            Err(payload) => {
                self.poisoned.store(true, Ordering::SeqCst);
                self.close();
                resume_unwind(payload);
            }
        }
    }

    /// Non-blocking enqueue (delegates to the lock-free path).
    pub fn try_send(&self, h: &mut BoxedHandle<Q>, value: T) -> Result<(), TrySendError<T>> {
        if self.is_closed() {
            return Err(TrySendError::Closed(value));
        }
        match self.contain(|| self.inner.enqueue(h, value)) {
            Ok(()) => {
                self.not_empty.wake_all();
                Ok(())
            }
            Err(v) => Err(TrySendError::Full(v)),
        }
    }

    /// Non-blocking dequeue.
    pub fn try_recv(&self, h: &mut BoxedHandle<Q>) -> Result<T, TryRecvError> {
        self.take_one(h).ok_or_else(|| {
            if self.is_closed() {
                TryRecvError::Closed
            } else {
                TryRecvError::Empty
            }
        })
    }

    /// Dequeue one element and wake the senders, without reading the
    /// closed flag.
    fn take_one(&self, h: &mut BoxedHandle<Q>) -> Option<T> {
        let v = self.contain(|| self.inner.dequeue(h))?;
        self.not_full.wake_all();
        Some(v)
    }

    /// Non-blocking batch enqueue: accepts a prefix (through the inner
    /// queue's batch path) and returns the rejected suffix — everything,
    /// untouched, when the queue is closed (check
    /// [`is_closed`](Self::is_closed) to tell the cases apart).
    pub fn try_send_many(&self, h: &mut BoxedHandle<Q>, items: Vec<T>) -> Vec<T> {
        if self.is_closed() {
            return items;
        }
        let total = items.len();
        let rejected = self.contain(|| self.inner.enqueue_many(h, items));
        if rejected.len() < total {
            self.not_empty.wake_all();
        }
        rejected
    }

    /// Non-blocking batch dequeue into `out`; returns the count taken.
    pub fn try_recv_many(&self, h: &mut BoxedHandle<Q>, max: usize, out: &mut Vec<T>) -> usize {
        let n = self.contain(|| self.inner.dequeue_many(h, max, out));
        if n > 0 {
            self.not_full.wake_all();
        }
        n
    }

    /// Enqueue, waiting while the queue is full. Fails only when the
    /// queue is (or becomes) closed, returning the value.
    pub fn send(&self, h: &mut BoxedHandle<Q>, value: T) -> Result<(), SendError<T>> {
        self.send_within(h, value, TimeLimit::Never)
            .map_err(|e| SendError(e.into_inner()))
    }

    /// Dequeue, waiting while the queue is empty. Returns `None` only
    /// once the queue is closed **and** observed empty after the closed
    /// flag (drain semantics: every accepted element is delivered first).
    pub fn recv(&self, h: &mut BoxedHandle<Q>) -> Option<T> {
        self.recv_within(h, TimeLimit::Never).ok()
    }

    /// Batch enqueue, waiting until **every** item is accepted. On close,
    /// returns the unsent suffix (already-accepted items stay in the
    /// queue for receivers to drain).
    pub fn send_all(&self, h: &mut BoxedHandle<Q>, items: Vec<T>) -> Result<(), SendError<Vec<T>>> {
        self.send_all_within(h, items, TimeLimit::Never)
            .map_err(|e| SendError(e.into_inner()))
    }

    /// Batch dequeue, waiting until at least one element arrives; returns
    /// 1..=`max` values. An **empty vector** means the queue is closed
    /// and fully drained (for `max > 0` that is the only way it can be
    /// empty).
    pub fn recv_many(&self, h: &mut BoxedHandle<Q>, max: usize) -> Vec<T> {
        self.recv_many_within(h, max, TimeLimit::Never)
            .unwrap_or_default()
    }

    /// [`send`](Self::send) under a time limit: when `limit` passes with
    /// the queue still full, the value comes back as
    /// [`SendTimeoutError::Timeout`]. A send that never waits never
    /// reads the clock.
    pub fn send_within(
        &self,
        h: &mut BoxedHandle<Q>,
        value: T,
        limit: TimeLimit,
    ) -> Result<(), SendTimeoutError<T>> {
        self.send_shaped::<One>(h, value, limit)
    }

    /// [`recv`](Self::recv) under a time limit. `Closed` keeps drain
    /// semantics: every accepted element is delivered before the closed
    /// state is reported.
    pub fn recv_within(
        &self,
        h: &mut BoxedHandle<Q>,
        limit: TimeLimit,
    ) -> Result<T, RecvTimeoutError> {
        self.recv_shaped(h, One, limit)
    }

    /// [`send_all`](Self::send_all) under a time limit: on timeout the
    /// unsent suffix comes back as `Timeout(suffix)`; the accepted prefix
    /// stays in the queue (conservation, as with close).
    pub fn send_all_within(
        &self,
        h: &mut BoxedHandle<Q>,
        items: Vec<T>,
        limit: TimeLimit,
    ) -> Result<(), SendTimeoutError<Vec<T>>> {
        self.send_shaped::<Many>(h, items, limit)
    }

    /// [`recv_many`](Self::recv_many) under a time limit: `Ok` is always
    /// non-empty; `Timeout` means the limit passed with nothing to take,
    /// `Closed` means closed and fully drained.
    pub fn recv_many_within(
        &self,
        h: &mut BoxedHandle<Q>,
        max: usize,
        limit: TimeLimit,
    ) -> Result<Vec<T>, RecvTimeoutError> {
        assert!(max > 0, "recv_many needs a positive batch bound");
        self.recv_shaped(h, Many(max), limit)
    }

    fn send_shaped<S: Shape<T>>(
        &self,
        h: &mut BoxedHandle<Q>,
        items: S::Items,
        limit: TimeLimit,
    ) -> Result<(), SendTimeoutError<S::Items>> {
        let mut unsent = Unsent::<T, S>::new(items);
        settle(&self.not_full, limit, |expired| {
            self.send_step(h, &mut unsent, expired)
        })
    }

    fn recv_shaped<S: Shape<T>>(
        &self,
        h: &mut BoxedHandle<Q>,
        shape: S,
        limit: TimeLimit,
    ) -> Result<S::Items, RecvTimeoutError> {
        settle(&self.not_empty, limit, |expired| {
            self.recv_step(h, &shape, expired)
        })
    }

    /// The send-side attempt step, shared by both façades: closed beats
    /// everything, an expired wait gives the suffix back as `Timeout`,
    /// otherwise offer the suffix and finish once all of it is accepted.
    pub(crate) fn send_step<S: Shape<T>>(
        &self,
        h: &mut BoxedHandle<Q>,
        unsent: &mut Unsent<T, S>,
        expired: bool,
    ) -> Option<Result<(), SendTimeoutError<S::Items>>> {
        if self.is_closed() {
            return Some(Err(SendTimeoutError::Closed(unsent.take())));
        }
        if expired {
            return Some(Err(SendTimeoutError::Timeout(unsent.take())));
        }
        if unsent.offer(|t| self.contain(|| self.inner.enqueue_tokens(h, t))) > 0 {
            self.not_empty.wake_all();
        }
        unsent.is_done().then_some(Ok(()))
    }

    /// The recv-side attempt step, shared by both façades: take; else,
    /// if closed, one last drain *after* reading the flag (an element
    /// deposited between the failed take and the flag read cannot be
    /// skipped); an expired wait skips the first take and reports
    /// `Timeout` only for a queue still open.
    pub(crate) fn recv_step<S: Shape<T>>(
        &self,
        h: &mut BoxedHandle<Q>,
        shape: &S,
        expired: bool,
    ) -> Option<Result<S::Items, RecvTimeoutError>> {
        if !expired {
            if let Some(got) = shape.take(self, h) {
                return Some(Ok(got));
            }
        }
        if self.is_closed() {
            return Some(shape.take(self, h).ok_or(RecvTimeoutError::Closed));
        }
        expired.then_some(Err(RecvTimeoutError::Timeout))
    }

    /// Capacity of the underlying queue.
    pub fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    /// Approximate length.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Approximate emptiness.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Observability snapshot (DESIGN.md §14): the inner queue's own
    /// counters, then the two eventcounts' waiter statistics under
    /// `not_full.` / `not_empty.` prefixes. The async façade shares the
    /// same eventcounts, so task parks show up here too. Empty with
    /// `obs` off.
    /// Data-path counts from operations on a still-live handle appear
    /// only after that handle drops, a
    /// [`flush_metrics`](BlockingQueue::flush_metrics) call, or the
    /// periodic fold (`LOCAL_FLUSH_PERIOD` operations).
    pub fn metrics(&self) -> crate::obs::MetricsSnapshot {
        let mut snap = self.inner.inner().metrics();
        self.not_full.snapshot_into("not_full.", &mut snap);
        self.not_empty.snapshot_into("not_empty.", &mut snap);
        snap
    }

    /// Fold `h`'s handle-local data-path counters into the shared block
    /// so the next [`metrics`](BlockingQueue::metrics) read is exact for
    /// this handle's operations (DESIGN.md §14.1).
    pub fn flush_metrics(&self, h: &mut BoxedHandle<Q>) {
        self.inner.flush_metrics(h);
    }
}

/// Run one direction's thread wait: `step(false)` is an attempt and
/// `step(true)` settles a wait whose limit passed (it always returns
/// `Some`).
fn settle<R>(ec: &EventCount, limit: TimeLimit, mut step: impl FnMut(bool) -> Option<R>) -> R {
    ec.wait(limit, || step(false))
        .or_else(|| step(true))
        .expect("an expired step settles the wait")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimal::OptimalQueue;
    use crate::sharded::ShardedQueue;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn make(c: usize, t: usize) -> BlockingQueue<u64, OptimalQueue> {
        BlockingQueue::new(OptimalQueue::with_capacity_and_threads(c, t))
    }

    #[test]
    fn try_paths_mirror_inner_queue() {
        let q = make(2, 1);
        let mut h = q.register();
        q.try_send(&mut h, 1).unwrap();
        q.try_send(&mut h, 2).unwrap();
        assert_eq!(q.try_send(&mut h, 3), Err(TrySendError::Full(3)));
        assert_eq!(q.try_recv(&mut h), Ok(1));
        assert_eq!(q.try_recv(&mut h), Ok(2));
        assert_eq!(q.try_recv(&mut h), Err(TryRecvError::Empty));
    }

    #[test]
    fn send_blocks_until_space() {
        let q = Arc::new(make(1, 2));
        let mut h = q.register();
        q.try_send(&mut h, 1).unwrap();
        let q2 = Arc::clone(&q);
        let sender = std::thread::spawn(move || {
            let mut h2 = q2.register();
            // Blocks until the main thread drains.
            q2.send(&mut h2, 2).unwrap();
        });
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.try_recv(&mut h), Ok(1));
        sender.join().unwrap();
        assert_eq!(q.recv(&mut h), Some(2));
    }

    #[test]
    fn recv_blocks_until_element() {
        let q = Arc::new(make(4, 2));
        let q2 = Arc::clone(&q);
        let receiver = std::thread::spawn(move || {
            let mut h = q2.register();
            q2.recv(&mut h)
        });
        std::thread::sleep(Duration::from_millis(20));
        let mut h = q.register();
        q.send(&mut h, 77).unwrap();
        assert_eq!(receiver.join().unwrap(), Some(77));
    }

    #[test]
    fn blocking_transfer_full_stream() {
        let q = Arc::new(make(4, 2));
        let n = 5_000u64;
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || {
            let mut h = q2.register();
            for v in 1..=n {
                q2.send(&mut h, v).unwrap();
            }
        });
        let mut h = q.register();
        for expect in 1..=n {
            assert_eq!(q.recv(&mut h), Some(expect), "single-producer order");
        }
        producer.join().unwrap();
        assert!(q.is_empty());
    }

    #[test]
    fn batch_send_all_blocks_until_everything_fits() {
        let q = Arc::new(make(2, 2));
        let q2 = Arc::clone(&q);
        let sender = std::thread::spawn(move || {
            let mut h = q2.register();
            // 5 items through a 2-slot queue: must park at least once.
            q2.send_all(&mut h, (1..=5).collect()).unwrap();
        });
        let mut h = q.register();
        let mut got = Vec::new();
        while got.len() < 5 {
            got.extend(q.recv_many(&mut h, 3));
        }
        sender.join().unwrap();
        assert_eq!(got, vec![1, 2, 3, 4, 5], "SPSC batch order preserved");
        assert!(q.is_empty());
    }

    #[test]
    fn blocking_over_sharded_queue_composes() {
        // The Θ(1) parking layer stacks on the scale layer: a blocking
        // sharded queue with batch transfer.
        let q: Arc<BlockingQueue<u64, ShardedQueue<OptimalQueue>>> = Arc::new(BlockingQueue::new(
            ShardedQueue::<OptimalQueue>::optimal(8, 4, 2),
        ));
        let n = 2_000u64;
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || {
            let mut h = q2.register();
            let mut next = 1u64;
            while next <= n {
                let batch: Vec<u64> = (next..=(next + 7).min(n)).collect();
                next += batch.len() as u64;
                q2.send_all(&mut h, batch).unwrap();
            }
        });
        let mut h = q.register();
        let mut seen = std::collections::HashSet::new();
        while seen.len() < n as usize {
            for v in q.recv_many(&mut h, 8) {
                assert!(seen.insert(v), "duplicate {v}");
            }
        }
        producer.join().unwrap();
        assert!(q.is_empty(), "exact conservation through both layers");
    }

    #[test]
    fn many_parked_senders_all_wake() {
        let q = Arc::new(make(1, 4));
        let mut h = q.register();
        q.try_send(&mut h, 99).unwrap();
        let mut senders = Vec::new();
        for v in 1..=3u64 {
            let q = Arc::clone(&q);
            senders.push(std::thread::spawn(move || {
                let mut h = q.register();
                q.send(&mut h, v).unwrap();
            }));
        }
        // All three park on the full queue; drain one slot at a time.
        let mut got = vec![q.recv(&mut h).unwrap()];
        for _ in 0..3 {
            got.push(q.recv(&mut h).unwrap());
        }
        for s in senders {
            s.join().unwrap();
        }
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3, 99]);
        assert!(q.is_empty());
    }

    #[test]
    fn close_fails_senders_and_drains_receivers() {
        let q = make(4, 1);
        let mut h = q.register();
        q.send(&mut h, 1).unwrap();
        q.send(&mut h, 2).unwrap();
        q.close();
        assert!(q.is_closed());
        // Senders see errors, values come back.
        assert_eq!(q.send(&mut h, 3), Err(SendError(3)));
        assert_eq!(q.try_send(&mut h, 4), Err(TrySendError::Closed(4)));
        assert_eq!(q.try_send_many(&mut h, vec![5, 6]), vec![5, 6]);
        assert_eq!(q.send_all(&mut h, vec![7, 8]), Err(SendError(vec![7, 8])));
        // Receivers drain, then observe closed.
        assert_eq!(q.recv(&mut h), Some(1));
        assert_eq!(q.recv_many(&mut h, 4), vec![2]);
        assert_eq!(q.recv(&mut h), None);
        assert_eq!(q.recv_many(&mut h, 4), Vec::<u64>::new());
        assert_eq!(q.try_recv(&mut h), Err(TryRecvError::Closed));
    }

    #[test]
    fn close_wakes_parked_receiver() {
        let q = Arc::new(make(4, 2));
        let q2 = Arc::clone(&q);
        let receiver = std::thread::spawn(move || {
            let mut h = q2.register();
            q2.recv(&mut h)
        });
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(
            receiver.join().unwrap(),
            None,
            "woken by close, not a value"
        );
    }

    #[test]
    fn close_wakes_parked_sender_with_value_back() {
        let q = Arc::new(make(1, 2));
        let mut h = q.register();
        q.send(&mut h, 1).unwrap();
        let q2 = Arc::clone(&q);
        let sender = std::thread::spawn(move || {
            let mut h = q2.register();
            q2.send(&mut h, 2)
        });
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(sender.join().unwrap(), Err(SendError(2)));
        // The accepted element survives for draining.
        assert_eq!(q.recv(&mut h), Some(1));
        assert_eq!(q.recv(&mut h), None);
    }

    #[test]
    fn close_mid_send_all_returns_unsent_suffix() {
        let q = Arc::new(make(2, 2));
        let q2 = Arc::clone(&q);
        let sender = std::thread::spawn(move || {
            let mut h = q2.register();
            // 5 items through 2 slots: parks after the first 2.
            q2.send_all(&mut h, (1..=5).collect())
        });
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        let unsent = sender.join().unwrap().unwrap_err().0;
        let mut h = q.register();
        let mut drained = Vec::new();
        while let Some(v) = q.recv(&mut h) {
            drained.push(v);
        }
        // Conservation: accepted prefix + returned suffix = everything.
        drained.extend(unsent.iter().copied());
        drained.sort_unstable();
        assert_eq!(drained, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn timed_send_on_full_queue_times_out_with_value_back() {
        let q = make(1, 1);
        let mut h = q.register();
        q.try_send(&mut h, 1).unwrap();
        let start = std::time::Instant::now();
        let err = q
            .send_within(&mut h, 2, TimeLimit::Timeout(Duration::from_millis(30)))
            .unwrap_err();
        assert_eq!(err, SendTimeoutError::Timeout(2), "value handed back");
        assert!(err.is_timeout());
        let waited = start.elapsed();
        assert!(
            waited >= Duration::from_millis(30),
            "returned {waited:?} before the timeout"
        );
        // Bounded latency: deadline + one generous scheduling quantum.
        assert!(
            waited < Duration::from_secs(5),
            "woke far too late: {waited:?}"
        );
        assert_eq!(q.not_full_event().waiter_count(), 0, "no leaked waiter");
    }

    #[test]
    fn timed_recv_on_empty_queue_times_out() {
        let q = make(4, 1);
        let mut h = q.register();
        let start = std::time::Instant::now();
        assert_eq!(
            q.recv_within(&mut h, TimeLimit::Timeout(Duration::from_millis(30))),
            Err(RecvTimeoutError::Timeout)
        );
        assert!(start.elapsed() >= Duration::from_millis(30));
        assert_eq!(
            q.recv_within(&mut h, TimeLimit::Deadline(std::time::Instant::now())),
            Err(RecvTimeoutError::Timeout),
            "already-expired deadline returns immediately"
        );
        assert_eq!(q.not_empty_event().waiter_count(), 0);
    }

    #[test]
    fn timed_ops_succeed_without_reaching_the_deadline() {
        let q = Arc::new(make(1, 2));
        let mut h = q.register();
        q.try_send(&mut h, 1).unwrap();
        let q2 = Arc::clone(&q);
        let sender = std::thread::spawn(move || {
            let mut h2 = q2.register();
            q2.send_within(
                &mut h2,
                2,
                TimeLimit::Deadline(std::time::Instant::now() + Duration::from_secs(30)),
            )
        });
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(
            q.recv_within(&mut h, TimeLimit::Timeout(Duration::from_secs(30))),
            Ok(1)
        );
        sender.join().unwrap().unwrap();
        assert_eq!(q.recv(&mut h), Some(2));
    }

    #[test]
    fn closed_queue_reports_closed_not_timeout() {
        // The close-vs-timeout pin, deterministic half, for every (shape,
        // limit) pair: the queue is closed strictly before the call, so
        // even an expired limit must blame the close, not the clock, and
        // receivers still drain every accepted element first.
        let past = Instant::now() - Duration::from_millis(1);
        for limit in [
            TimeLimit::Never,
            TimeLimit::Deadline(past),
            TimeLimit::Timeout(Duration::ZERO),
        ] {
            let q = make(2, 1);
            let mut h = q.register();
            q.try_send(&mut h, 1).unwrap();
            q.try_send(&mut h, 2).unwrap();
            q.close();
            assert_eq!(
                q.send_within(&mut h, 9, limit),
                Err(SendTimeoutError::Closed(9)),
                "one, {limit:?}: closed beats timeout for senders"
            );
            assert_eq!(
                q.send_all_within(&mut h, vec![7, 8], limit),
                Err(SendTimeoutError::Closed(vec![7, 8])),
                "many, {limit:?}"
            );
            assert_eq!(q.recv_within(&mut h, limit), Ok(1), "one, {limit:?}");
            assert_eq!(
                q.recv_many_within(&mut h, 4, limit),
                Ok(vec![2]),
                "many, {limit:?}"
            );
            assert_eq!(
                q.recv_within(&mut h, limit),
                Err(RecvTimeoutError::Closed),
                "one, {limit:?}: closed-and-drained beats timeout"
            );
            assert_eq!(
                q.recv_many_within(&mut h, 4, limit),
                Err(RecvTimeoutError::Closed),
                "many, {limit:?}"
            );
        }
    }

    #[test]
    fn close_racing_a_parked_timed_receiver_reports_closed() {
        // The racing half: a receiver parked under a long deadline is
        // woken by close() and must report Closed promptly — not sleep
        // out its deadline, and never report Timeout.
        let q = Arc::new(make(4, 2));
        let q2 = Arc::clone(&q);
        let receiver = std::thread::spawn(move || {
            let mut h = q2.register();
            q2.recv_within(
                &mut h,
                TimeLimit::Deadline(std::time::Instant::now() + Duration::from_secs(60)),
            )
        });
        while q.not_empty_event().waiter_count() == 0 {
            std::thread::yield_now();
        }
        let start = std::time::Instant::now();
        q.close();
        assert_eq!(receiver.join().unwrap(), Err(RecvTimeoutError::Closed));
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "woken by close, not the deadline"
        );
    }

    #[test]
    fn timed_batch_send_returns_unsent_suffix_on_timeout() {
        let q = make(2, 1);
        let mut h = q.register();
        let err = q
            .send_all_within(
                &mut h,
                vec![1, 2, 3, 4, 5],
                TimeLimit::Timeout(Duration::from_millis(30)),
            )
            .unwrap_err();
        assert_eq!(
            err,
            SendTimeoutError::Timeout(vec![3, 4, 5]),
            "accepted prefix stays queued, suffix comes back"
        );
        // Conservation: prefix + suffix = everything.
        assert_eq!(
            q.recv_many_within(&mut h, 8, TimeLimit::Timeout(Duration::ZERO)),
            Ok(vec![1, 2])
        );
    }

    #[test]
    fn timed_batch_recv_takes_what_arrives() {
        let q = Arc::new(make(4, 2));
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            let mut h = q2.register();
            q2.send(&mut h, 42).unwrap();
        });
        let mut h = q.register();
        assert_eq!(
            q.recv_many_within(
                &mut h,
                4,
                TimeLimit::Deadline(std::time::Instant::now() + Duration::from_secs(30))
            ),
            Ok(vec![42])
        );
        producer.join().unwrap();
        assert_eq!(
            q.recv_many_within(&mut h, 4, TimeLimit::Timeout(Duration::from_millis(10))),
            Err(RecvTimeoutError::Timeout)
        );
    }

    /// A pointer-capable queue with an injectable panic, for exercising
    /// the poisoning path. Sequential ring under a mutex — correctness,
    /// not scalability, is the point here.
    struct PanicSwitchQueue {
        inner: std::sync::Mutex<crate::queue::SeqRingQueue>,
        panic_next: std::sync::atomic::AtomicBool,
    }

    impl PanicSwitchQueue {
        fn new(c: usize) -> Self {
            PanicSwitchQueue {
                inner: std::sync::Mutex::new(crate::queue::SeqRingQueue::with_capacity(c)),
                panic_next: std::sync::atomic::AtomicBool::new(false),
            }
        }
    }

    impl crate::queue::ConcurrentQueue for PanicSwitchQueue {
        type Handle = ();
        fn register(&self) {}
        fn enqueue(&self, _h: &mut (), v: u64) -> Result<(), crate::queue::Full> {
            if self.panic_next.swap(false, Ordering::SeqCst) {
                panic!("injected fault: enqueue died mid-operation");
            }
            self.inner.lock().unwrap().enqueue(v)
        }
        fn dequeue(&self, _h: &mut ()) -> Option<u64> {
            if self.panic_next.swap(false, Ordering::SeqCst) {
                panic!("injected fault: dequeue died mid-operation");
            }
            self.inner.lock().unwrap().dequeue()
        }
        fn capacity(&self) -> usize {
            self.inner.lock().unwrap().capacity()
        }
        fn max_token(&self) -> u64 {
            (1 << 62) - 1
        }
        fn len(&self) -> usize {
            self.inner.lock().unwrap().len()
        }
    }

    impl crate::boxed::PointerCapable for PanicSwitchQueue {
        fn drop_handle(&self) {}
    }

    #[test]
    fn panic_mid_operation_poisons_and_closes_the_queue() {
        let q: BlockingQueue<u64, PanicSwitchQueue> = BlockingQueue::new(PanicSwitchQueue::new(4));
        let mut h = q.register();
        q.send(&mut h, 1).unwrap();
        assert!(!q.is_poisoned());
        q.inner_queue().panic_next.store(true, Ordering::SeqCst);
        // The panic propagates to the faulting caller...
        let unwound = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _ = q.try_send(&mut h, 2);
        }));
        assert!(unwound.is_err(), "the injected panic is re-thrown");
        // ...and every other caller sees a poisoned, closed queue with
        // typed errors instead of a hang or a secondary panic.
        assert!(q.is_poisoned());
        assert!(q.is_closed());
        assert_eq!(q.try_send(&mut h, 3), Err(TrySendError::Closed(3)));
        assert_eq!(q.send(&mut h, 4), Err(SendError(4)));
        assert_eq!(
            q.send_within(&mut h, 5, TimeLimit::Timeout(Duration::ZERO)),
            Err(SendTimeoutError::Closed(5))
        );
        // Accepted elements still drain (the fault hit before any state
        // transition of the inner ring).
        assert_eq!(q.recv(&mut h), Some(1));
        assert_eq!(q.recv(&mut h), None);
    }

    /// DESIGN.md §14: the façade snapshot stitches the data path's
    /// counters to the waiting stack's, with nothing fabricated when
    /// `obs` is off.
    #[test]
    fn facade_metrics_cover_data_path_and_waiting_stack() {
        let q = make(2, 1);
        let mut h = q.register();
        q.try_send(&mut h, 1).unwrap();
        q.try_send(&mut h, 2).unwrap();
        assert_eq!(q.try_send(&mut h, 3), Err(TrySendError::Full(3)));
        assert_eq!(
            q.recv_within(&mut h, TimeLimit::Timeout(Duration::from_millis(5)))
                .ok(),
            Some(1)
        );
        assert_eq!(
            q.recv_many_within(&mut h, 4, TimeLimit::Timeout(Duration::from_millis(5))),
            Ok(vec![2])
        );
        assert_eq!(
            q.recv_within(&mut h, TimeLimit::Timeout(Duration::from_millis(5))),
            Err(RecvTimeoutError::Timeout)
        );
        // The handle is still live: fold its data-path deltas in first
        // (the §14.1 visibility contract this test also documents).
        q.flush_metrics(&mut h);
        let snap = q.metrics();
        if cfg!(feature = "obs") {
            assert_eq!(snap.get("enq_success"), Some(2));
            assert_eq!(snap.get("enq_full"), Some(1));
            assert!(
                snap.get("not_empty.timeout_expiries").unwrap() >= 1,
                "the timed-out recv parked on not_empty: {snap}"
            );
            assert_eq!(snap.get("not_full.timeout_expiries"), Some(0));
        } else {
            assert!(snap.is_empty(), "obs off: no fabricated zeros");
        }
    }

    #[test]
    fn waiter_accounting_rises_and_returns_to_zero() {
        // The façade's waiting state is exactly the two eventcounts (the
        // waiter subsystem the async façade also reads): a parked
        // receiver must become visible through the shared
        // instrumentation and disappear from it after the hand-off.
        let q = Arc::new(make(4, 2));
        let q2 = Arc::clone(&q);
        let receiver = std::thread::spawn(move || {
            let mut h = q2.register();
            q2.recv(&mut h)
        });
        // The receiver announces itself before parking; wait for that.
        while q.not_empty_event().waiter_count() == 0 {
            std::thread::yield_now();
        }
        let mut h = q.register();
        q.send(&mut h, 9).unwrap();
        assert_eq!(receiver.join().unwrap(), Some(9));
        assert_eq!(q.not_empty_event().waiter_count(), 0, "waiter released");
        assert_eq!(q.not_empty_event().registered_wakers(), 0);
        assert_eq!(q.not_full_event().waiter_count(), 0);
    }
}
