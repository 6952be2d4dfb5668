//! A bounded MPMC channel with overload statistics.
//!
//! The workspace's vendored `crossbeam` stand-in implements channels on
//! `std::sync::mpsc`, where `bounded()` does not actually enforce its
//! capacity. This module provides a real bounded queue on a
//! `Mutex<VecDeque>` + condvars with the two disciplines the stack
//! needs:
//!
//! * [`Sender::try_send`] — *shed*: a full queue rejects the message
//!   immediately with [`TrySendError::Full`] and bumps the shared
//!   [`QueueStats::shed`] counter. Used where the producer must never
//!   block (the runtime's output stream, the in-process network).
//! * [`Sender::send`] — *backpressure*: a full queue blocks the
//!   producer until space frees (counted in [`QueueStats::blocked`]).
//!   Used where the producer can afford to wait and loss is worse than
//!   latency (the TCP reader thread).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

// Under `--cfg loom` the lock and condvar come from the model-checking
// harness, which injects preemption points at every acquisition so the
// loom tests (and the regular unit tests, rerun under the same cfg)
// explore adversarial schedules. The std and loom APIs are identical,
// including poison recovery, so no other line of this module changes.
#[cfg(loom)]
use loom::sync::{Arc, Condvar, Mutex, MutexGuard};
#[cfg(not(loom))]
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Error returned by [`Sender::send`] when every receiver is gone; the
/// unsent message is handed back.
#[derive(PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> std::fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SendError(..)")
    }
}

/// Error returned by [`Sender::try_send`].
#[derive(PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The queue is at capacity; the message was shed (and counted).
    Full(T),
    /// Every receiver is gone.
    Disconnected(T),
}

impl<T> std::fmt::Debug for TrySendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrySendError::Full(_) => f.write_str("Full(..)"),
            TrySendError::Disconnected(_) => f.write_str("Disconnected(..)"),
        }
    }
}

/// Error returned by [`Receiver::recv`] when the queue is empty and
/// every sender is gone.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RecvError;

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// No message arrived before the timeout.
    Timeout,
    /// The queue is empty and every sender is gone.
    Disconnected,
}

/// Error returned by [`Receiver::try_recv`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TryRecvError {
    /// The queue is currently empty.
    Empty,
    /// The queue is empty and every sender is gone.
    Disconnected,
}

#[derive(Debug, Default)]
struct StatCells {
    shed: AtomicU64,
    blocked: AtomicU64,
    peak_depth: AtomicU64,
}

/// A live handle onto a queue's overload counters. Cheap to clone;
/// reads reflect the queue's state at the moment of the call.
#[derive(Clone, Debug)]
pub struct QueueStats {
    cells: Arc<StatCells>,
    capacity: usize,
}

impl QueueStats {
    /// Messages rejected by [`Sender::try_send`] because the queue was
    /// full.
    #[must_use]
    pub fn shed(&self) -> u64 {
        self.cells.shed.load(Ordering::Relaxed)
    }

    /// Times a [`Sender::send`] had to wait for space (backpressure
    /// events, not messages lost).
    #[must_use]
    pub fn blocked(&self) -> u64 {
        self.cells.blocked.load(Ordering::Relaxed)
    }

    /// Highest queue depth ever observed.
    #[must_use]
    pub fn peak_depth(&self) -> u64 {
        self.cells.peak_depth.load(Ordering::Relaxed)
    }

    /// The queue's fixed capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

struct Inner<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
}

struct Shared<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    stats: Arc<StatCells>,
    capacity: usize,
}

impl<T> Shared<T> {
    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn push(&self, inner: &mut Inner<T>, value: T) {
        inner.queue.push_back(value);
        let depth = inner.queue.len() as u64;
        self.stats.peak_depth.fetch_max(depth, Ordering::Relaxed);
        self.not_empty.notify_one();
    }
}

/// The sending half of a bounded queue. Clones share the queue.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half of a bounded queue. Clones share the queue, each
/// message going to exactly one receiver.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Creates a bounded queue with the given capacity (at least 1).
#[must_use]
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        inner: Mutex::new(Inner {
            queue: VecDeque::new(),
            senders: 1,
            receivers: 1,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        stats: Arc::new(StatCells::default()),
        capacity: capacity.max(1),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.lock().senders += 1;
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut inner = self.shared.lock();
        inner.senders -= 1;
        if inner.senders == 0 {
            // Wake receivers so they observe the disconnect.
            drop(inner);
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.shared.lock().receivers += 1;
        Receiver {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut inner = self.shared.lock();
        inner.receivers -= 1;
        if inner.receivers == 0 {
            drop(inner);
            self.shared.not_full.notify_all();
        }
    }
}

impl<T> Sender<T> {
    /// Sends without blocking. A full queue sheds the message (counted
    /// in [`QueueStats::shed`]) and returns it in
    /// [`TrySendError::Full`].
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let mut inner = self.shared.lock();
        if inner.receivers == 0 {
            return Err(TrySendError::Disconnected(value));
        }
        if inner.queue.len() >= self.shared.capacity {
            self.shared.stats.shed.fetch_add(1, Ordering::Relaxed);
            return Err(TrySendError::Full(value));
        }
        self.shared.push(&mut inner, value);
        Ok(())
    }

    /// Sends, blocking while the queue is full (backpressure). Fails
    /// only when every receiver is gone.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut inner = self.shared.lock();
        if inner.queue.len() >= self.shared.capacity && inner.receivers > 0 {
            self.shared.stats.blocked.fetch_add(1, Ordering::Relaxed);
        }
        while inner.queue.len() >= self.shared.capacity {
            if inner.receivers == 0 {
                return Err(SendError(value));
            }
            inner = self
                .shared
                .not_full
                .wait(inner)
                .unwrap_or_else(|e| e.into_inner());
        }
        if inner.receivers == 0 {
            return Err(SendError(value));
        }
        self.shared.push(&mut inner, value);
        Ok(())
    }

    /// The number of messages currently queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// True if the queue holds no messages.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if the queue is at capacity.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.len() >= self.shared.capacity
    }

    /// A live handle onto this queue's overload counters.
    #[must_use]
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            cells: Arc::clone(&self.shared.stats),
            capacity: self.shared.capacity,
        }
    }
}

impl<T> Receiver<T> {
    /// Blocks until a message arrives or every sender is gone.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut inner = self.shared.lock();
        loop {
            if let Some(v) = inner.queue.pop_front() {
                self.shared.not_full.notify_one();
                return Ok(v);
            }
            if inner.senders == 0 {
                return Err(RecvError);
            }
            inner = self
                .shared
                .not_empty
                .wait(inner)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Blocks up to `timeout` for a message.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.shared.lock();
        loop {
            if let Some(v) = inner.queue.pop_front() {
                self.shared.not_full.notify_one();
                return Ok(v);
            }
            if inner.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                return Err(RecvTimeoutError::Timeout);
            };
            let (guard, res) = self
                .shared
                .not_empty
                .wait_timeout(inner, remaining)
                .unwrap_or_else(|e| e.into_inner());
            inner = guard;
            if res.timed_out() && inner.queue.is_empty() {
                return Err(RecvTimeoutError::Timeout);
            }
        }
    }

    /// Receives without blocking.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut inner = self.shared.lock();
        if let Some(v) = inner.queue.pop_front() {
            self.shared.not_full.notify_one();
            return Ok(v);
        }
        if inner.senders == 0 {
            return Err(TryRecvError::Disconnected);
        }
        Err(TryRecvError::Empty)
    }

    /// Drains currently queued messages without blocking.
    pub fn try_iter(&self) -> impl Iterator<Item = T> + '_ {
        std::iter::from_fn(move || self.try_recv().ok())
    }

    /// The number of messages currently queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// True if the queue holds no messages.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A live handle onto this queue's overload counters.
    #[must_use]
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            cells: Arc::clone(&self.shared.stats),
            capacity: self.shared.capacity,
        }
    }
}

impl<T> std::fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "flow::Sender(cap={})", self.shared.capacity)
    }
}

impl<T> std::fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "flow::Receiver(cap={})", self.shared.capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn try_send_sheds_when_full_and_counts_it() {
        let (tx, rx) = bounded(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert!(matches!(tx.try_send(3), Err(TrySendError::Full(3))));
        assert!(matches!(tx.try_send(4), Err(TrySendError::Full(4))));
        assert_eq!(tx.stats().shed(), 2);
        assert_eq!(tx.stats().peak_depth(), 2);
        assert_eq!(rx.recv(), Ok(1));
        tx.try_send(5).unwrap();
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Ok(5));
    }

    #[test]
    fn blocking_send_applies_backpressure() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let producer = thread::spawn(move || {
            // Blocks until the consumer drains the first message.
            tx.send(2).unwrap();
            tx.stats().blocked()
        });
        thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        let blocked = producer.join().unwrap();
        assert_eq!(blocked, 1);
        assert_eq!(rx.stats().shed(), 0);
    }

    #[test]
    fn disconnects_are_observed() {
        let (tx, rx) = bounded::<u32>(4);
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError));
        let (tx, rx) = bounded::<u32>(4);
        drop(rx);
        assert!(matches!(tx.send(1), Err(SendError(1))));
        assert!(matches!(tx.try_send(2), Err(TrySendError::Disconnected(2))));
    }

    #[test]
    fn capacity_is_enforced_across_cloned_senders() {
        let (tx, rx) = bounded(3);
        let tx2 = tx.clone();
        tx.try_send(1).unwrap();
        tx2.try_send(2).unwrap();
        tx.try_send(3).unwrap();
        assert!(matches!(tx2.try_send(4), Err(TrySendError::Full(4))));
        drop(tx);
        drop(tx2);
        let drained: Vec<u32> = rx.try_iter().collect();
        assert_eq!(drained, vec![1, 2, 3]);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        let (tx, rx) = bounded(1);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send(9).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(100)), Ok(9));
    }

    #[test]
    fn queue_survives_a_poisoned_lock() {
        // Regression test for poison propagation: every internal lock
        // acquisition recovers with `PoisonError::into_inner` instead
        // of unwrapping, so one panicking thread must not take the
        // queue down for every other handle. Poison the mutex directly
        // (the public API never runs user code under the lock, so this
        // is the only way the state can arise).
        let (tx, rx) = bounded(4);
        tx.try_send(1).unwrap();
        let shared = Arc::clone(&tx.shared);
        let poisoner = thread::spawn(move || {
            let _guard = shared.inner.lock().unwrap();
            panic!("poisoning the queue lock on purpose");
        });
        assert!(poisoner.join().is_err(), "poisoner thread must panic");
        // Every operation still works and the queued state is intact.
        tx.send(2).unwrap();
        assert_eq!(tx.len(), 2);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(1)),
            Err(RecvTimeoutError::Timeout)
        );
        let tx2 = tx.clone();
        drop(tx);
        drop(tx2);
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn mpmc_under_contention_delivers_everything_within_bound() {
        let (tx, rx) = bounded(8);
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let tx = tx.clone();
                thread::spawn(move || {
                    for i in 0..100 {
                        tx.send(p * 1000 + i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let rx = rx.clone();
                thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Ok(v) = rx.recv() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let mut all: Vec<u32> = Vec::new();
        for c in consumers {
            all.extend(c.join().unwrap());
        }
        all.sort_unstable();
        let expected: Vec<u32> = (0..4)
            .flat_map(|p| (0..100).map(move |i| p * 1000 + i))
            .collect();
        assert_eq!(all, expected);
        assert!(rx.stats().peak_depth() <= 8);
    }
}
