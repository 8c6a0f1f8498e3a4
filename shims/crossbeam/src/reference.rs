//! Mutexed reference implementations, retained as oracles.
//!
//! These are the original `VecDeque`-behind-a-`Mutex` shims that the
//! lock-free [`queue`](crate::queue) / [`deque`](crate::deque) types
//! replaced.  They are trivially correct (one lock serialises everything),
//! which makes them the semantic model for the shim's property tests; the
//! module is compiled only for those tests.

use crate::deque::Steal;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Mutex;

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The mutexed unbounded MPMC queue (oracle for
/// [`queue::SegQueue`](crate::queue::SegQueue)).
pub struct SegQueue<T> {
    inner: Mutex<VecDeque<T>>,
}

impl<T> SegQueue<T> {
    /// Creates an empty queue.
    pub const fn new() -> Self {
        SegQueue { inner: Mutex::new(VecDeque::new()) }
    }

    /// Pushes an element to the back of the queue.
    pub fn push(&self, value: T) {
        lock(&self.inner).push_back(value);
    }

    /// Pops an element from the front of the queue.
    pub fn pop(&self) -> Option<T> {
        lock(&self.inner).pop_front()
    }

    /// Returns `true` if the queue is empty.
    pub fn is_empty(&self) -> bool {
        lock(&self.inner).is_empty()
    }

    /// Number of queued elements.
    pub fn len(&self) -> usize {
        lock(&self.inner).len()
    }
}

impl<T> Default for SegQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> fmt::Debug for SegQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("reference::SegQueue").field("len", &self.len()).finish()
    }
}

/// The mutexed injector (oracle for
/// [`deque::Injector`](crate::deque::Injector)).
pub struct Injector<T> {
    inner: Mutex<VecDeque<T>>,
}

impl<T> Injector<T> {
    /// Creates an empty injector.
    pub fn new() -> Self {
        Injector { inner: Mutex::new(VecDeque::new()) }
    }

    /// Pushes an element.
    pub fn push(&self, value: T) {
        lock(&self.inner).push_back(value);
    }

    /// Attempts to steal one element.  Returns [`Steal::Retry`] when the
    /// queue is contended, matching crossbeam's non-blocking contract.
    pub fn steal(&self) -> Steal<T> {
        match self.inner.try_lock() {
            Ok(mut q) => match q.pop_front() {
                Some(v) => Steal::Success(v),
                None => Steal::Empty,
            },
            Err(std::sync::TryLockError::Poisoned(e)) => match e.into_inner().pop_front() {
                Some(v) => Steal::Success(v),
                None => Steal::Empty,
            },
            Err(std::sync::TryLockError::WouldBlock) => Steal::Retry,
        }
    }
}

impl<T> Default for Injector<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> fmt::Debug for Injector<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("reference::Injector")
    }
}

/// A mutexed work-stealing deque (oracle for
/// [`deque::Worker`](crate::deque::Worker) /
/// [`deque::Stealer`](crate::deque::Stealer)): the owner pushes and pops at
/// the back, stealers take from the front.
pub struct Deque<T> {
    inner: Mutex<VecDeque<T>>,
}

impl<T> Deque<T> {
    /// Creates an empty deque.
    pub fn new() -> Self {
        Deque { inner: Mutex::new(VecDeque::new()) }
    }

    /// Owner push (bottom / LIFO end).
    pub fn push(&self, value: T) {
        lock(&self.inner).push_back(value);
    }

    /// Owner pop (bottom / LIFO end).
    pub fn pop(&self) -> Option<T> {
        lock(&self.inner).pop_back()
    }

    /// Steal from the top (FIFO end).
    pub fn steal(&self) -> Steal<T> {
        match lock(&self.inner).pop_front() {
            Some(v) => Steal::Success(v),
            None => Steal::Empty,
        }
    }

    /// Returns `true` if the deque is empty.
    pub fn is_empty(&self) -> bool {
        lock(&self.inner).is_empty()
    }

    /// Number of elements in the deque.
    pub fn len(&self) -> usize {
        lock(&self.inner).len()
    }
}

impl<T> Default for Deque<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> fmt::Debug for Deque<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("reference::Deque").field("len", &self.len()).finish()
    }
}
