//! Bounded FIFO hand-off queues between the connection router and the
//! engine loop, and the doorbell the engine loop parks on.
//!
//! One queue per route shard. The router is the only pusher (it holds
//! the router lock while pushing, so pushes are serialized and each
//! queue sees strictly increasing sequence numbers); the engine loop is
//! the only popper. Capacity is the backpressure mechanism: a full
//! queue either blocks the router ([`BoundedQueue::push`]) or sheds the
//! arrival ([`BoundedQueue::is_full`] checked first), per the server's
//! `shed` setting.
//!
//! The queues never wake the engine loop themselves: every producer of
//! engine work rings one shared `Doorbell` after publishing it, and
//! the engine loop parks on that bell when it finds nothing to do. A
//! ring costs one atomic add unless the engine is actually parked.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded FIFO with blocking push and non-blocking draining pop.
pub struct BoundedQueue<T> {
    cap: usize,
    state: Mutex<State<T>>,
    not_full: Condvar,
}

impl<T> BoundedQueue<T> {
    /// An empty queue holding at most `cap` items (`cap >= 1`).
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "queue capacity must be positive");
        Self {
            cap,
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            not_full: Condvar::new(),
        }
    }

    /// The capacity the queue was built with.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue poisoned").items.len()
    }

    /// Whether the queue holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether a push would block (or shed) right now.
    pub fn is_full(&self) -> bool {
        self.len() >= self.cap
    }

    /// Pushes `item`, blocking while the queue is full. Returns the
    /// item back if the queue was closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut s = self.state.lock().expect("queue poisoned");
        while s.items.len() >= self.cap && !s.closed {
            s = self.not_full.wait(s).expect("queue poisoned");
        }
        if s.closed {
            return Err(item);
        }
        s.items.push_back(item);
        Ok(())
    }

    /// Pops up to `max` items into `out` without blocking. Returns how
    /// many were taken.
    pub fn drain_into(&self, out: &mut Vec<T>, max: usize) -> usize {
        let mut s = self.state.lock().expect("queue poisoned");
        // Pushers only wait on a full queue, so a drain from below
        // capacity has nobody to wake and skips the futex call.
        let was_full = s.items.len() >= self.cap;
        let take = max.min(s.items.len());
        out.extend(s.items.drain(..take));
        if was_full && take > 0 {
            self.not_full.notify_all();
        }
        take
    }

    /// Closes the queue: pending items stay poppable, further pushes
    /// fail, blocked pushers wake.
    pub fn close(&self) {
        self.state.lock().expect("queue poisoned").closed = true;
        self.not_full.notify_all();
    }
}

/// A wake-up signal for one consumer that parks when idle.
///
/// Producers [`ring`](Doorbell::ring) after publishing work; the
/// consumer takes a [`snapshot`](Doorbell::snapshot) of the ring count
/// *before* it looks for work and, finding none, calls
/// [`wait`](Doorbell::wait) with that snapshot. A ring that lands
/// anywhere after the snapshot makes the wait return at once, so no
/// wake-up is lost between the look and the park.
///
/// The consumer announces that it is parking (`parked`, set under the
/// mutex) and only then re-reads the count; a ringer bumps the count
/// and only then reads `parked`. With both orders sequentially
/// consistent, at least one side sees the other: either the consumer
/// sees the new count and does not sleep, or the ringer sees `parked`
/// and notifies under the mutex, which it can only take once the
/// consumer is inside the condvar wait. A ringer that finds the
/// consumer busy pays one atomic add and no system call.
pub(crate) struct Doorbell {
    rings: AtomicU64,
    parked: AtomicBool,
    lock: Mutex<()>,
    wake: Condvar,
}

impl Doorbell {
    /// A bell nobody has rung or parked on.
    pub fn new() -> Self {
        Self {
            rings: AtomicU64::new(0),
            parked: AtomicBool::new(false),
            lock: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    /// The ring count, to pass to [`wait`](Doorbell::wait) after a
    /// fruitless look for work.
    pub fn snapshot(&self) -> u64 {
        self.rings.load(Ordering::SeqCst)
    }

    /// Signals that work was published; wakes the consumer only if it
    /// is parked. Of a burst of rings against one park, only the first
    /// clears `parked` and pays for the notify.
    pub fn ring(&self) {
        self.rings.fetch_add(1, Ordering::SeqCst);
        if self.parked.load(Ordering::SeqCst) && self.parked.swap(false, Ordering::SeqCst) {
            let _guard = self.lock.lock().expect("doorbell poisoned");
            self.wake.notify_one();
        }
    }

    /// Parks until the ring count differs from `seen` or `timeout`
    /// elapses. Returns whether a ring arrived (`false`: timed out).
    pub fn wait(&self, seen: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut guard = self.lock.lock().expect("doorbell poisoned");
        let rung = loop {
            // Re-announced on every pass: a ringer may have cleared the
            // flag with a late notify that woke this wait spuriously.
            self.parked.store(true, Ordering::SeqCst);
            if self.rings.load(Ordering::SeqCst) != seen {
                break true;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break false;
            }
            guard = self
                .wake
                .wait_timeout(guard, left)
                .expect("doorbell poisoned")
                .0;
        };
        self.parked.store(false, Ordering::SeqCst);
        rung
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_and_bounded_drain() {
        let q = BoundedQueue::new(8);
        for n in 0..5 {
            q.push(n).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(q.drain_into(&mut out, 3), 3);
        assert_eq!(out, vec![0, 1, 2]);
        assert_eq!(q.drain_into(&mut out, 10), 2);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert!(q.is_empty());
    }

    #[test]
    fn full_queue_blocks_push_until_popped() {
        let q = Arc::new(BoundedQueue::new(2));
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert!(q.is_full());
        let pusher = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(3))
        };
        // The pusher is stuck until we make room.
        std::thread::sleep(Duration::from_millis(20));
        assert!(!pusher.is_finished(), "push through a full queue");
        let mut out = Vec::new();
        q.drain_into(&mut out, 1);
        pusher.join().unwrap().unwrap();
        q.drain_into(&mut out, 10);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn close_fails_pushes_but_keeps_pending_items() {
        let q = BoundedQueue::new(4);
        q.push("kept").unwrap();
        q.close();
        assert_eq!(q.push("dropped"), Err("dropped"));
        let mut out = Vec::new();
        assert_eq!(q.drain_into(&mut out, 10), 1);
        assert_eq!(out, vec!["kept"]);
    }

    #[test]
    fn close_wakes_a_blocked_pusher() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(1).unwrap();
        let pusher = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(2))
        };
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(pusher.join().unwrap(), Err(2));
    }

    /// Every doorbell wait below would only end by this timeout if a
    /// wake-up were lost.
    const LOST_WAKEUP: Duration = Duration::from_secs(10);

    #[test]
    fn doorbell_ring_after_the_snapshot_skips_the_park() {
        let bell = Doorbell::new();
        let seen = bell.snapshot();
        bell.ring();
        let started = Instant::now();
        assert!(bell.wait(seen, LOST_WAKEUP), "a ring after the snapshot");
        assert!(started.elapsed() < LOST_WAKEUP / 2, "the wait blocked");
    }

    #[test]
    fn doorbell_without_a_ring_times_out() {
        let bell = Doorbell::new();
        let seen = bell.snapshot();
        let started = Instant::now();
        assert!(!bell.wait(seen, Duration::from_millis(20)));
        assert!(started.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn doorbell_hands_off_100k_items_without_a_lost_wakeup() {
        const N: u64 = 100_000;
        // A small queue makes the producer block on a full queue and the
        // consumer park on an empty one, many times each.
        let q = BoundedQueue::new(16);
        let bell = Doorbell::new();
        let started = Instant::now();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for n in 0..N {
                    if q.push(n).is_err() {
                        return; // the consumer gave up and closed the queue
                    }
                    bell.ring();
                }
            });
            let mut got = Vec::with_capacity(N as usize);
            let mut lost_wakeup = false;
            while (got.len() as u64) < N && !lost_wakeup {
                let seen = bell.snapshot();
                if q.drain_into(&mut got, usize::MAX) == 0 {
                    // Only the fallback timeout can end a park this late.
                    let parked = Instant::now();
                    bell.wait(seen, LOST_WAKEUP);
                    lost_wakeup = parked.elapsed() >= LOST_WAKEUP;
                }
            }
            // Unblocks a producer stuck on a full queue, so a failure
            // below ends the test instead of hanging the scope's join.
            q.close();
            assert!(!lost_wakeup, "lost wake-up");
            assert!(got.iter().copied().eq(0..N), "hand-off reordered items");
        });
        assert!(
            started.elapsed() < LOST_WAKEUP / 2,
            "{:?}",
            started.elapsed()
        );
    }
}
