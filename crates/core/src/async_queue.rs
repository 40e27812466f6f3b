//! An async (`Future`-based) façade over the bounded queues: `send`
//! awaits space, `recv` awaits an element — parking **tasks**, not OS
//! threads.
//!
//! [`AsyncQueue`] is the third client layer of the waiter subsystem
//! (DESIGN.md §9): it wraps the *same* [`BlockingQueue`] state — the
//! lock-free data path plus one [`EventCount`] per direction — and adds
//! two hand-rolled futures, [`SendFuture`] and [`RecvFuture`], whose
//! wakers register against the eventcount's wake generations. Because
//! both façades share the two eventcount instances, blocking threads and
//! async tasks can wait on **one queue at the same time**: a thread's
//! `send` wakes a task's pending `recv` and vice versa
//! ([`blocking`](AsyncQueue::blocking) exposes the sync view). No
//! executor dependency exists; any executor works, and the
//! dependency-free `pollster` shim's `block_on` is enough to drive it.
//!
//! Each future is generic over the [`Shape`] (single value or batch) and
//! carries a [`TimeLimit`]; every poll runs the same private attempt
//! step per direction as the blocking façade. Its output type is the
//! caller's: `send` resolves to `Result<(), SendError<T>>`,
//! `send_within` to `Result<(), SendTimeoutError<T>>`, and so on.
//!
//! ## Poll protocol
//!
//! Every poll runs the same loop, `WaitState::poll_with` (the async
//! mirror of [`EventCount::wait`]):
//!
//! 1. **try** the non-blocking operation — if it completes, done;
//! 2. snapshot the wake **generation** and **register** the task's waker
//!    against it (the registration counts as an announced waiter; a
//!    stale snapshot means a wake was just published, so re-try from 1);
//! 3. **re-try** the operation — this closes the race with a notifier
//!    that read `waiters == 0` before the registration;
//! 4. return `Pending` — or, for a limited future whose deadline has
//!    passed, settle it (close still beats timeout).
//!
//! Linearization of the wake hand-off: the registration takes effect
//! under the eventcount's gate lock, and every notifier bumps the
//! generation under the same lock before draining wakers. A transition
//! that completes before step 3's retry is observed by the retry; one
//! that completes after it finds the waker registered (step 2 happened
//! under the lock) and wakes the task. There is no window in between —
//! hence no lost wakeup and **no timed polling anywhere**.
//!
//! Under [`TimeLimit::Never`] a future reads no clock and arms no timer.
//! A limited future resolves its deadline at the first `Pending` and arms
//! one `timerwheel` entry with the current waker, disarming it when it
//! resolves or is dropped.
//!
//! ## Cancellation safety
//!
//! Dropping a pending future deregisters its waker (removing it from
//! the waiter list and the waiter count), disarms its timer, and drops
//! any not-yet-sent values as plain values (a send boxes its items once;
//! the unsent token suffix is unboxed on drop). A `recv` future takes
//! elements only at the moment it resolves `Ready`, so a dropped pending
//! `recv` can never lose one. And because eventcount wakes are
//! broadcast, a cancelled waiter can never have swallowed a wake another
//! waiter needed. `tests/async_cancel.rs` asserts all three properties
//! under stress.

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll, Waker};
use std::time::Instant;

use crate::blocking::{
    BlockingQueue, Many, One, RecvTimeoutError, SendError, SendTimeoutError, Shape, TryRecvError,
    TrySendError, Unsent,
};
use crate::boxed::{BoxedHandle, PointerCapable};
use crate::event::{EventCount, TimeLimit, WaiterId};

/// Async bounded queue over any pointer-capable token queue.
///
/// ```
/// use bq_core::{AsyncQueue, OptimalQueue};
///
/// let q: AsyncQueue<String, OptimalQueue> =
///     AsyncQueue::new(OptimalQueue::with_capacity_and_threads(8, 2));
/// let mut h = q.register();
/// pollster::block_on(async {
///     q.send(&mut h, "job".to_string()).await.unwrap();
///     assert_eq!(q.recv(&mut h).await, Some("job".to_string()));
/// });
/// ```
pub struct AsyncQueue<T: Send, Q: PointerCapable> {
    sync: BlockingQueue<T, Q>,
}

impl<T: Send, Q: PointerCapable> AsyncQueue<T, Q> {
    /// Wrap an empty token queue.
    pub fn new(inner: Q) -> Self {
        AsyncQueue {
            sync: BlockingQueue::new(inner),
        }
    }

    /// Build the async façade over an existing blocking façade, keeping
    /// its state (useful to adopt a queue already shared with threads).
    pub fn from_blocking(sync: BlockingQueue<T, Q>) -> Self {
        AsyncQueue { sync }
    }

    /// The blocking view of the **same queue**: same data path, same two
    /// eventcounts. Threads using this view and tasks using the async
    /// methods wake each other.
    pub fn blocking(&self) -> &BlockingQueue<T, Q> {
        &self.sync
    }

    /// Obtain a per-thread/per-task handle. Handles must not be shared
    /// between concurrently running tasks (each future borrows one
    /// exclusively while in flight).
    pub fn register(&self) -> BoxedHandle<Q> {
        self.sync.register()
    }

    /// Borrow the underlying token queue (read-only introspection; see
    /// [`BlockingQueue::inner_queue`]).
    pub fn inner_queue(&self) -> &Q {
        self.sync.inner_queue()
    }

    /// Close the queue: pending and future `send`s fail (value returned),
    /// receivers drain then observe `None`/empty. Wakes every parked
    /// thread and task. Idempotent.
    pub fn close(&self) {
        self.sync.close();
    }

    /// Has [`close`](Self::close) been called?
    pub fn is_closed(&self) -> bool {
        self.sync.is_closed()
    }

    /// Non-blocking enqueue (no future involved).
    pub fn try_send(&self, h: &mut BoxedHandle<Q>, value: T) -> Result<(), TrySendError<T>> {
        self.sync.try_send(h, value)
    }

    /// Non-blocking dequeue (no future involved).
    pub fn try_recv(&self, h: &mut BoxedHandle<Q>) -> Result<T, TryRecvError> {
        self.sync.try_recv(h)
    }

    /// Enqueue, resolving when the value is accepted; `Err(SendError)`
    /// returns the value if the queue closes first.
    pub fn send<'a>(
        &'a self,
        h: &'a mut BoxedHandle<Q>,
        value: T,
    ) -> SendFuture<'a, T, Q, One, Result<(), SendError<T>>> {
        SendFuture::new(self, h, value, TimeLimit::Never, |r| {
            r.map_err(|e| SendError(e.into_inner()))
        })
    }

    /// Dequeue, resolving to `Some(v)` when an element arrives, or
    /// `None` once the queue is closed and drained.
    pub fn recv<'a>(&'a self, h: &'a mut BoxedHandle<Q>) -> RecvFuture<'a, T, Q, One, Option<T>> {
        RecvFuture::new(self, h, One, TimeLimit::Never, Result::ok)
    }

    /// Batch enqueue, resolving once **every** item is accepted; on
    /// close, resolves to the unsent suffix.
    pub fn send_all<'a>(
        &'a self,
        h: &'a mut BoxedHandle<Q>,
        items: Vec<T>,
    ) -> SendFuture<'a, T, Q, Many, Result<(), SendError<Vec<T>>>> {
        SendFuture::new(self, h, items, TimeLimit::Never, |r| {
            r.map_err(|e| SendError(e.into_inner()))
        })
    }

    /// Batch dequeue, resolving to 1..=`max` values — or an empty vector
    /// once the queue is closed and drained.
    pub fn recv_many<'a>(
        &'a self,
        h: &'a mut BoxedHandle<Q>,
        max: usize,
    ) -> RecvFuture<'a, T, Q, Many, Vec<T>> {
        assert!(max > 0, "recv_many needs a positive batch bound");
        RecvFuture::new(
            self,
            h,
            Many(max),
            TimeLimit::Never,
            Result::unwrap_or_default,
        )
    }

    /// [`send`](Self::send) under a time limit: resolves to
    /// [`SendTimeoutError::Timeout`] (value handed back) if the queue is
    /// still full when `limit` passes; a `close()` racing the deadline
    /// is pinned to `Closed`, as in the blocking façade.
    pub fn send_within<'a>(
        &'a self,
        h: &'a mut BoxedHandle<Q>,
        value: T,
        limit: TimeLimit,
    ) -> SendFuture<'a, T, Q, One, Result<(), SendTimeoutError<T>>> {
        SendFuture::new(self, h, value, limit, |r| r)
    }

    /// [`recv`](Self::recv) under a time limit: resolves to
    /// [`RecvTimeoutError::Timeout`] if the queue is still empty when
    /// `limit` passes; `Closed` keeps drain semantics and wins the
    /// close-vs-timeout race.
    pub fn recv_within<'a>(
        &'a self,
        h: &'a mut BoxedHandle<Q>,
        limit: TimeLimit,
    ) -> RecvFuture<'a, T, Q, One, Result<T, RecvTimeoutError>> {
        RecvFuture::new(self, h, One, limit, |r| r)
    }

    /// Capacity of the underlying queue.
    pub fn capacity(&self) -> usize {
        self.sync.capacity()
    }

    /// Approximate length.
    pub fn len(&self) -> usize {
        self.sync.len()
    }

    /// Approximate emptiness.
    pub fn is_empty(&self) -> bool {
        self.sync.is_empty()
    }

    /// Observability snapshot (DESIGN.md §14). The async façade drives
    /// the *same* two eventcounts as the blocking one, so this is
    /// exactly [`BlockingQueue::metrics`]: task registrations appear as
    /// `not_full.task_parks` / `not_empty.task_parks`. Empty with `obs`
    /// off.
    pub fn metrics(&self) -> crate::obs::MetricsSnapshot {
        self.sync.metrics()
    }
}

/// Per-future wait state: the time limit, at most one live waker
/// registration, and at most one armed timer.
struct WaitState {
    limit: TimeLimit,
    reg: Option<WaiterId>,
    timer: Option<timerwheel::TimerKey>,
}

impl WaitState {
    fn new(limit: TimeLimit) -> Self {
        WaitState {
            limit,
            reg: None,
            timer: None,
        }
    }

    /// One poll of the eventcount protocol described in the module docs.
    /// `step(false)` is one attempt, returning `Some(r)` when the
    /// operation completed (with success *or* a terminal closed result);
    /// `step(true)` settles a future whose deadline passed.
    fn poll_with<R>(
        &mut self,
        ec: &EventCount,
        waker: &Waker,
        mut step: impl FnMut(bool) -> Option<R>,
    ) -> Poll<R> {
        // A registration or timer surviving from the previous poll is
        // stale: it may hold an outdated waker (the task can migrate
        // between polls), or the registration was already drained by the
        // wake that caused this poll. Drop both and go through the full
        // announce cycle again.
        self.cancel(ec);
        if let Some(r) = step(false) {
            return Poll::Ready(r);
        }
        loop {
            let gen = ec.generation();
            match ec.register(gen, waker) {
                Some(id) => {
                    // Announced. Re-attempt to close the race with a
                    // notifier that read `waiters == 0` before our
                    // registration landed.
                    if let Some(r) = step(false) {
                        ec.deregister(id);
                        return Poll::Ready(r);
                    }
                    self.reg = Some(id);
                    break;
                }
                // A wake was published between the snapshot and the gate
                // lock: whatever it announced may satisfy us — re-try
                // instead of sleeping through it.
                None => {
                    if let Some(r) = step(false) {
                        return Poll::Ready(r);
                    }
                }
            }
        }
        // Untimed futures stop here: no clock read, no timer.
        self.limit = self.limit.resolve();
        if let TimeLimit::Deadline(deadline) = self.limit {
            if Instant::now() >= deadline {
                self.cancel(ec);
                return Poll::Ready(step(true).expect("an expired step settles the wait"));
            }
            self.timer = Some(timerwheel::schedule_at(deadline, waker.clone()));
        }
        Poll::Pending
    }

    /// Cancellation half: drop any live registration and armed timer.
    fn cancel(&mut self, ec: &EventCount) {
        if let Some(id) = self.reg.take() {
            ec.deregister(id);
        }
        if let Some(k) = self.timer.take() {
            timerwheel::cancel(k);
        }
    }
}

/// Future returned by [`AsyncQueue::send`], [`AsyncQueue::send_all`] and
/// [`AsyncQueue::send_within`]: `S` is the shape, `O` the output.
pub struct SendFuture<'a, T: Send, Q: PointerCapable, S: Shape<T>, O> {
    queue: &'a BlockingQueue<T, Q>,
    handle: &'a mut BoxedHandle<Q>,
    unsent: Unsent<T, S>,
    wait: WaitState,
    output: fn(Result<(), SendTimeoutError<S::Items>>) -> O,
}

impl<'a, T: Send, Q: PointerCapable, S: Shape<T>, O> SendFuture<'a, T, Q, S, O> {
    fn new(
        queue: &'a AsyncQueue<T, Q>,
        handle: &'a mut BoxedHandle<Q>,
        items: S::Items,
        limit: TimeLimit,
        output: fn(Result<(), SendTimeoutError<S::Items>>) -> O,
    ) -> Self {
        SendFuture {
            queue: &queue.sync,
            handle,
            unsent: Unsent::new(items),
            wait: WaitState::new(limit),
            output,
        }
    }
}

// The futures never hand out pins into their own storage, so they are
// plain state machines — safe to consider Unpin regardless of `T`.
impl<T: Send, Q: PointerCapable, S: Shape<T>, O> Unpin for SendFuture<'_, T, Q, S, O> {}

impl<T: Send, Q: PointerCapable, S: Shape<T>, O> Future for SendFuture<'_, T, Q, S, O> {
    type Output = O;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<O> {
        let SendFuture {
            queue,
            handle,
            unsent,
            wait,
            output,
        } = self.get_mut();
        wait.poll_with(queue.not_full_event(), cx.waker(), |expired| {
            queue.send_step(handle, unsent, expired)
        })
        .map(*output)
    }
}

impl<T: Send, Q: PointerCapable, S: Shape<T>, O> Drop for SendFuture<'_, T, Q, S, O> {
    fn drop(&mut self) {
        self.wait.cancel(self.queue.not_full_event());
        // The unsent suffix drops (unboxed) with `self.unsent`; accepted
        // items stay queued.
    }
}

/// Future returned by [`AsyncQueue::recv`], [`AsyncQueue::recv_many`] and
/// [`AsyncQueue::recv_within`]: `S` is the shape, `O` the output.
pub struct RecvFuture<'a, T: Send, Q: PointerCapable, S: Shape<T>, O> {
    queue: &'a BlockingQueue<T, Q>,
    handle: &'a mut BoxedHandle<Q>,
    shape: S,
    wait: WaitState,
    output: fn(Result<S::Items, RecvTimeoutError>) -> O,
}

impl<'a, T: Send, Q: PointerCapable, S: Shape<T>, O> RecvFuture<'a, T, Q, S, O> {
    fn new(
        queue: &'a AsyncQueue<T, Q>,
        handle: &'a mut BoxedHandle<Q>,
        shape: S,
        limit: TimeLimit,
        output: fn(Result<S::Items, RecvTimeoutError>) -> O,
    ) -> Self {
        RecvFuture {
            queue: &queue.sync,
            handle,
            shape,
            wait: WaitState::new(limit),
            output,
        }
    }
}

impl<T: Send, Q: PointerCapable, S: Shape<T>, O> Unpin for RecvFuture<'_, T, Q, S, O> {}

impl<T: Send, Q: PointerCapable, S: Shape<T>, O> Future for RecvFuture<'_, T, Q, S, O> {
    type Output = O;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<O> {
        let RecvFuture {
            queue,
            handle,
            shape,
            wait,
            output,
        } = self.get_mut();
        wait.poll_with(queue.not_empty_event(), cx.waker(), |expired| {
            queue.recv_step(handle, shape, expired)
        })
        .map(*output)
    }
}

impl<T: Send, Q: PointerCapable, S: Shape<T>, O> Drop for RecvFuture<'_, T, Q, S, O> {
    fn drop(&mut self) {
        // Elements are taken only in the resolving poll, so a cancelled
        // receive holds none.
        self.wait.cancel(self.queue.not_empty_event());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimal::OptimalQueue;
    use crate::sharded::ShardedQueue;
    use pollster::block_on;
    use std::sync::Arc;

    fn make(c: usize, t: usize) -> AsyncQueue<u64, OptimalQueue> {
        AsyncQueue::new(OptimalQueue::with_capacity_and_threads(c, t))
    }

    #[test]
    fn roundtrip_without_waiting() {
        let q = make(4, 1);
        let mut h = q.register();
        block_on(async {
            q.send(&mut h, 7).await.unwrap();
            q.send(&mut h, 8).await.unwrap();
            assert_eq!(q.recv(&mut h).await, Some(7));
            assert_eq!(q.recv(&mut h).await, Some(8));
        });
        assert!(q.is_empty());
    }

    #[test]
    fn pending_recv_wakes_on_cross_thread_send() {
        let q = Arc::new(make(4, 2));
        let q2 = Arc::clone(&q);
        let receiver = std::thread::spawn(move || {
            let mut h = q2.register();
            block_on(q2.recv(&mut h))
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        let mut h = q.register();
        block_on(q.send(&mut h, 42)).unwrap();
        assert_eq!(receiver.join().unwrap(), Some(42));
    }

    #[test]
    fn pending_send_wakes_when_space_appears() {
        let q = Arc::new(make(1, 2));
        let mut h = q.register();
        block_on(q.send(&mut h, 1)).unwrap();
        let q2 = Arc::clone(&q);
        let sender = std::thread::spawn(move || {
            let mut h = q2.register();
            block_on(q2.send(&mut h, 2))
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(block_on(q.recv(&mut h)), Some(1));
        sender.join().unwrap().unwrap();
        assert_eq!(block_on(q.recv(&mut h)), Some(2));
    }

    #[test]
    fn batch_futures_roundtrip() {
        let q = Arc::new(make(2, 2));
        let q2 = Arc::clone(&q);
        let sender = std::thread::spawn(move || {
            let mut h = q2.register();
            // 6 items through 2 slots: the future must park repeatedly.
            block_on(q2.send_all(&mut h, (1..=6).collect())).unwrap();
        });
        let mut h = q.register();
        let mut got = Vec::new();
        while got.len() < 6 {
            let batch = block_on(q.recv_many(&mut h, 4));
            assert!(!batch.is_empty(), "open queue never yields empty batches");
            got.extend(batch);
        }
        sender.join().unwrap();
        assert_eq!(got, vec![1, 2, 3, 4, 5, 6]);
        assert!(q.is_empty());
    }

    #[test]
    fn close_drains_then_reports_none() {
        let q = make(4, 1);
        let mut h = q.register();
        block_on(async {
            q.send(&mut h, 1).await.unwrap();
            q.send(&mut h, 2).await.unwrap();
            q.close();
            assert_eq!(q.send(&mut h, 3).await, Err(SendError(3)));
            assert_eq!(
                q.send_all(&mut h, vec![4, 5]).await,
                Err(SendError(vec![4, 5]))
            );
            assert_eq!(q.recv(&mut h).await, Some(1), "drain before closed");
            assert_eq!(q.recv_many(&mut h, 4).await, vec![2]);
            assert_eq!(q.recv(&mut h).await, None);
            assert_eq!(q.recv_many(&mut h, 4).await, Vec::<u64>::new());
        });
    }

    #[test]
    fn close_wakes_pending_async_recv() {
        let q = Arc::new(make(4, 2));
        let q2 = Arc::clone(&q);
        let receiver = std::thread::spawn(move || {
            let mut h = q2.register();
            block_on(q2.recv(&mut h))
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(receiver.join().unwrap(), None);
    }

    #[test]
    fn sync_and_async_waiters_share_one_queue() {
        // A blocking thread and an async task wait on the same queue;
        // one producer satisfies both through the shared eventcounts.
        let q = Arc::new(make(4, 3));
        let q_sync = Arc::clone(&q);
        let sync_recv = std::thread::spawn(move || {
            let mut h = q_sync.register();
            q_sync.blocking().recv(&mut h)
        });
        let q_async = Arc::clone(&q);
        let async_recv = std::thread::spawn(move || {
            let mut h = q_async.register();
            block_on(q_async.recv(&mut h))
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        let mut h = q.register();
        q.blocking().send(&mut h, 1).unwrap();
        block_on(q.send(&mut h, 2)).unwrap();
        let mut got = vec![
            sync_recv.join().unwrap().unwrap(),
            async_recv.join().unwrap().unwrap(),
        ];
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn timed_futures_roundtrip_without_arming_a_timer() {
        let q = make(4, 1);
        let mut h = q.register();
        block_on(async {
            q.send_within(
                &mut h,
                7,
                TimeLimit::Timeout(std::time::Duration::from_secs(30)),
            )
            .await
            .unwrap();
            assert_eq!(
                q.recv_within(
                    &mut h,
                    TimeLimit::Deadline(Instant::now() + std::time::Duration::from_secs(30))
                )
                .await,
                Ok(7)
            );
        });
        assert!(q.is_empty());
    }

    #[test]
    fn timed_send_future_times_out_with_value_back() {
        let q = make(1, 1);
        let mut h = q.register();
        q.try_send(&mut h, 1).unwrap();
        let start = Instant::now();
        let err = block_on(q.send_within(
            &mut h,
            2,
            TimeLimit::Timeout(std::time::Duration::from_millis(30)),
        ))
        .unwrap_err();
        assert_eq!(err, SendTimeoutError::Timeout(2));
        assert!(start.elapsed() >= std::time::Duration::from_millis(30));
        assert_eq!(q.blocking().not_full_event().registered_wakers(), 0);
    }

    #[test]
    fn timed_recv_future_times_out_on_empty_queue() {
        let q = make(4, 1);
        let mut h = q.register();
        assert_eq!(
            block_on(q.recv_within(
                &mut h,
                TimeLimit::Timeout(std::time::Duration::from_millis(30))
            )),
            Err(RecvTimeoutError::Timeout)
        );
        assert_eq!(
            block_on(q.recv_within(&mut h, TimeLimit::Deadline(Instant::now()))),
            Err(RecvTimeoutError::Timeout),
            "already-expired deadline resolves on the first poll"
        );
        assert_eq!(q.blocking().not_empty_event().registered_wakers(), 0);
    }

    #[test]
    fn timed_recv_future_wins_the_race_when_an_element_arrives() {
        let q = Arc::new(make(4, 2));
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            let mut h = q2.register();
            block_on(q2.send(&mut h, 42)).unwrap();
        });
        let mut h = q.register();
        assert_eq!(
            block_on(q.recv_within(
                &mut h,
                TimeLimit::Deadline(Instant::now() + std::time::Duration::from_secs(30))
            )),
            Ok(42)
        );
        producer.join().unwrap();
    }

    #[test]
    fn closed_queue_timed_futures_report_closed_not_timeout() {
        // The blocking façade's close-beats-timeout pin, through the
        // futures, for every (shape, limit) pair the async surface has:
        // the batch futures are untimed, the single ones take any limit.
        let past = Instant::now() - std::time::Duration::from_millis(1);
        for limit in [
            TimeLimit::Never,
            TimeLimit::Deadline(past),
            TimeLimit::Timeout(std::time::Duration::ZERO),
        ] {
            let q = make(4, 1);
            let mut h = q.register();
            q.try_send(&mut h, 1).unwrap();
            q.try_send(&mut h, 2).unwrap();
            q.close();
            block_on(async {
                assert_eq!(
                    q.send_within(&mut h, 9, limit).await,
                    Err(SendTimeoutError::Closed(9)),
                    "{limit:?}"
                );
                assert_eq!(
                    q.recv_within(&mut h, limit).await,
                    Ok(1),
                    "{limit:?}: drain first"
                );
                assert_eq!(
                    q.recv_within(&mut h, limit).await,
                    Ok(2),
                    "{limit:?}: drain first"
                );
                assert_eq!(
                    q.recv_within(&mut h, limit).await,
                    Err(RecvTimeoutError::Closed),
                    "{limit:?}"
                );
            });
        }
    }

    #[test]
    fn cancelled_send_all_drops_the_unsent_suffix_as_values() {
        // A send holds its unsent suffix as boxed tokens; dropping the
        // pending future must unbox and drop each of them, while the
        // accepted prefix stays queued.
        struct Noop;
        impl std::task::Wake for Noop {
            fn wake(self: Arc<Self>) {}
        }
        let waker = Waker::from(Arc::new(Noop));
        let mut cx = Context::from_waker(&waker);
        let q: AsyncQueue<Arc<()>, OptimalQueue> =
            AsyncQueue::new(OptimalQueue::with_capacity_and_threads(2, 1));
        let mut h = q.register();
        let item = Arc::new(());
        let mut fut = q.send_all(&mut h, vec![Arc::clone(&item); 5]);
        assert!(Pin::new(&mut fut).poll(&mut cx).is_pending(), "2 of 5 fit");
        assert_eq!(Arc::strong_count(&item), 6);
        drop(fut);
        assert_eq!(Arc::strong_count(&item), 3, "the 3 unsent values dropped");
        assert_eq!(q.len(), 2, "the accepted prefix stays queued");
    }

    #[test]
    fn composes_with_sharded_scale_layer() {
        let q: Arc<AsyncQueue<u64, ShardedQueue<OptimalQueue>>> = Arc::new(AsyncQueue::new(
            ShardedQueue::<OptimalQueue>::optimal(8, 4, 2),
        ));
        let n = 1_000u64;
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || {
            let mut h = q2.register();
            block_on(async {
                let mut next = 1u64;
                while next <= n {
                    let batch: Vec<u64> = (next..=(next + 7).min(n)).collect();
                    next += batch.len() as u64;
                    q2.send_all(&mut h, batch).await.unwrap();
                }
                q2.close();
            });
        });
        let mut h = q.register();
        let mut seen = std::collections::HashSet::new();
        block_on(async {
            loop {
                let batch = q.recv_many(&mut h, 8).await;
                if batch.is_empty() {
                    break; // closed + drained
                }
                for v in batch {
                    assert!(seen.insert(v), "duplicate {v}");
                }
            }
        });
        producer.join().unwrap();
        assert_eq!(seen.len() as u64, n, "exact conservation, close-driven");
    }
}
