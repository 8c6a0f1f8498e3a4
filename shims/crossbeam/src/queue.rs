//! Concurrent queues.

use crate::seg::{PopResult, SegList};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Mutex;

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// An unbounded lock-free MPMC queue (segmented, like crossbeam's).
///
/// Producers claim slots with a fetch-add, consumers with a CAS; exhausted
/// segments are recycled through the epoch-lite reclaimer.  The previous
/// mutexed implementation is retained, test-only, as
/// `reference::SegQueue` and serves as the property-test oracle.
pub struct SegQueue<T> {
    list: SegList<T>,
}

impl<T> SegQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        SegQueue { list: SegList::new() }
    }

    /// Pushes an element to the back of the queue.
    pub fn push(&self, value: T) {
        self.list.push(value);
    }

    /// Pops an element from the front of the queue.
    ///
    /// Internally retries lost races, so `None` always means the queue was
    /// observed empty.  Backoff escalates from spinning to yielding so a
    /// producer preempted mid-commit cannot pin this consumer for a whole
    /// scheduling quantum.
    pub fn pop(&self) -> Option<T> {
        let mut spins = 0u32;
        loop {
            match self.list.try_pop() {
                PopResult::Item(v) => return Some(v),
                PopResult::Empty => return None,
                PopResult::Retry => {
                    spins += 1;
                    if spins > 64 {
                        std::thread::yield_now();
                    } else {
                        std::hint::spin_loop();
                    }
                }
            }
        }
    }

    /// [`pop`](Self::pop) for a caller that is the queue's *only consumer*,
    /// skipping the epoch-reclaimer pin/unpin (two `SeqCst` RMWs on shared
    /// counters per operation).
    ///
    /// This is a **shim-only extension** (real `crossbeam` has no
    /// equivalent; a swap back to the real crate is a mechanical rename to
    /// [`pop`](Self::pop)).  It exists for drain loops that already hold
    /// phase-level quiescence — e.g. a stop-the-world pause draining
    /// barrier buffers after the concurrent crew has been waited out —
    /// where the pin traffic is pure overhead.
    ///
    /// # Safety
    ///
    /// No other thread may pop from this queue (via this method or
    /// [`pop`](Self::pop)) for the duration of the caller's drain.
    /// Concurrent pushes are safe.  See `SegList::try_pop_unpinned` for the
    /// full argument.
    pub unsafe fn pop_exclusive(&self) -> Option<T> {
        let mut spins = 0u32;
        loop {
            // SAFETY: forwarded contract — the caller is the only consumer.
            match unsafe { self.list.try_pop_unpinned() } {
                PopResult::Item(v) => return Some(v),
                PopResult::Empty => return None,
                PopResult::Retry => {
                    spins += 1;
                    if spins > 64 {
                        std::thread::yield_now();
                    } else {
                        std::hint::spin_loop();
                    }
                }
            }
        }
    }

    /// Returns `true` if the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Number of queued elements.
    pub fn len(&self) -> usize {
        self.list.len()
    }
}

impl<T> Default for SegQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> fmt::Debug for SegQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SegQueue").field("len", &self.len()).finish()
    }
}

/// A bounded MPMC queue; `push` fails when the queue is full.
///
/// Only used for small fixed-capacity buffers (the block allocator's clean
/// buffer), so the mutexed implementation is kept: the capacity check and
/// the push are one critical section.
pub struct ArrayQueue<T> {
    inner: Mutex<VecDeque<T>>,
    capacity: usize,
}

impl<T> ArrayQueue<T> {
    /// Creates a queue with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be non-zero");
        ArrayQueue { inner: Mutex::new(VecDeque::with_capacity(capacity)), capacity }
    }

    /// Attempts to push; returns the value back if the queue is full.
    pub fn push(&self, value: T) -> Result<(), T> {
        let mut q = lock(&self.inner);
        if q.len() >= self.capacity {
            Err(value)
        } else {
            q.push_back(value);
            Ok(())
        }
    }

    /// Pops an element from the front of the queue.
    pub fn pop(&self) -> Option<T> {
        lock(&self.inner).pop_front()
    }

    /// The queue's capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of queued elements.
    pub fn len(&self) -> usize {
        lock(&self.inner).len()
    }

    /// Returns `true` if the queue is empty.
    pub fn is_empty(&self) -> bool {
        lock(&self.inner).is_empty()
    }
}

impl<T> fmt::Debug for ArrayQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ArrayQueue").field("len", &self.len()).field("capacity", &self.capacity).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seg_queue_fifo() {
        let q = SegQueue::new();
        q.push(1);
        q.push(2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn array_queue_bounds() {
        let q = ArrayQueue::new(2);
        assert_eq!(q.capacity(), 2);
        assert!(q.push(1).is_ok());
        assert!(q.push(2).is_ok());
        assert_eq!(q.push(3), Err(3));
        assert_eq!(q.pop(), Some(1));
        assert!(q.push(3).is_ok());
    }
}
