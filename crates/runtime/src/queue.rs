//! Bounded MPMC work queue: the serving layer's backpressure primitive.
//!
//! A [`WorkQueue`] is a fixed-capacity FIFO shared by any number of
//! producer and consumer threads. Producers *block* when the queue is
//! full — that is the backpressure contract: a client that submits
//! faster than the workers drain is slowed at the submission call, not
//! buffered without bound. Consumers block when the queue is empty and
//! wake when work arrives or the queue is closed.
//!
//! [`WorkQueue::pop_batch`] is the batching hook: it blocks for the
//! first item, then greedily drains whatever else is already queued (up
//! to a cap) in one critical section — so a busy queue yields full
//! batches and an idle one yields singletons, with no artificial
//! batching delay in either case.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Error returned when pushing to a closed queue; carries the rejected
/// item back to the caller.
#[derive(Debug, PartialEq, Eq)]
pub struct QueueClosed<T>(pub T);

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Bounded multi-producer multi-consumer FIFO with blocking push/pop.
pub struct WorkQueue<T> {
    state: Mutex<QueueState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    cap: usize,
}

impl<T> WorkQueue<T> {
    /// Creates a queue holding at most `cap` items (`cap` ≥ 1 enforced).
    pub fn bounded(cap: usize) -> Self {
        WorkQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Capacity bound.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .items
            .len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Blocks until there is room, then enqueues. Fails (returning the
    /// item) only if the queue is closed.
    pub fn push(&self, item: T) -> Result<(), QueueClosed<T>> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        while st.items.len() >= self.cap && !st.closed {
            st = self.not_full.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        if st.closed {
            return Err(QueueClosed(item));
        }
        st.items.push_back(item);
        drop(st);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocks until an item is available; `None` means the queue was
    /// closed and fully drained (the consumer's shutdown signal).
    pub fn pop(&self) -> Option<T> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(item) = st.items.pop_front() {
                drop(st);
                self.not_full.notify_one();
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self.not_empty.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Blocks for the first item, then drains up to `max` items total in
    /// one critical section. Returns an empty vec only when the queue is
    /// closed and drained.
    pub fn pop_batch(&self, max: usize) -> Vec<T> {
        let max = max.max(1);
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if !st.items.is_empty() {
                let take = st.items.len().min(max);
                let batch: Vec<T> = st.items.drain(..take).collect();
                drop(st);
                // Up to `take` slots opened; wake that many producers.
                for _ in 0..take {
                    self.not_full.notify_one();
                }
                return batch;
            }
            if st.closed {
                return Vec::new();
            }
            st = self.not_empty.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Closes the queue: later pushes fail, consumers drain what is left
    /// and then observe shutdown. Idempotent.
    pub fn close(&self) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.closed = true;
        drop(st);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn fifo_order_single_thread() {
        let q = WorkQueue::bounded(8);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        assert_eq!(q.len(), 5);
        for i in 0..5 {
            assert_eq!(q.pop(), Some(i));
        }
    }

    #[test]
    fn pop_batch_drains_up_to_max() {
        let q = WorkQueue::bounded(8);
        for i in 0..6 {
            q.push(i).unwrap();
        }
        assert_eq!(q.pop_batch(4), vec![0, 1, 2, 3]);
        assert_eq!(q.pop_batch(4), vec![4, 5]);
    }

    #[test]
    fn close_unblocks_consumers_and_rejects_producers() {
        let q = WorkQueue::<u32>::bounded(2);
        q.close();
        assert_eq!(q.push(1), Err(QueueClosed(1)));
        assert_eq!(q.pop(), None);
        assert!(q.pop_batch(4).is_empty());
    }

    #[test]
    fn drains_queued_items_after_close() {
        let q = WorkQueue::bounded(4);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.close();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn full_queue_blocks_producer_until_pop() {
        let q = WorkQueue::bounded(1);
        q.push(10).unwrap();
        let unblocked = AtomicUsize::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                q.push(20).unwrap(); // blocks until the main thread pops
                unblocked.store(1, Ordering::SeqCst);
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert_eq!(unblocked.load(Ordering::SeqCst), 0, "push must block");
            assert_eq!(q.pop(), Some(10));
            while q.is_empty() {
                std::thread::yield_now();
            }
            assert_eq!(q.pop(), Some(20));
        });
    }

    #[test]
    fn mpmc_delivers_every_item_exactly_once() {
        let q = WorkQueue::bounded(4);
        let total = 200usize;
        let sum = AtomicUsize::new(0);
        let popped = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for p in 0..2 {
                let q = &q;
                s.spawn(move || {
                    for i in 0..total / 2 {
                        q.push(p * (total / 2) + i + 1).unwrap();
                    }
                });
            }
            for _ in 0..3 {
                let (q, sum, popped) = (&q, &sum, &popped);
                s.spawn(move || {
                    for batch in std::iter::from_fn(|| {
                        let b = q.pop_batch(8);
                        (!b.is_empty()).then_some(b)
                    }) {
                        for v in batch {
                            sum.fetch_add(v, Ordering::SeqCst);
                            popped.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                });
            }
            while popped.load(Ordering::SeqCst) < total {
                std::thread::yield_now();
            }
            q.close();
        });
        assert_eq!(sum.load(Ordering::SeqCst), total * (total + 1) / 2);
    }
}
