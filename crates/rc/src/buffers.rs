//! Chunked, lock-free producer/consumer buffers.
//!
//! The coalescing write barrier produces two streams per mutator: the
//! *decrement buffer* (the overwritten referents, which will receive
//! decrements and which seed the SATB snapshot) and the *modified-field
//! buffer* (addresses whose final referents will receive increments at the
//! next pause) — §3.2.1 and §3.4.
//!
//! # Chunking protocol
//!
//! Mutators accumulate entries in small thread-local chunks
//! ([`DEFAULT_CHUNK_SIZE`] entries) and publish full chunks to a
//! [`SharedBuffer`]; the collector drains whole chunks.  Publishing is the
//! only synchronised step, so the barrier's common case — appending to a
//! local `Vec` — costs no atomics at all, and the consumer amortises its
//! queue traffic over a thousand entries at a time.  Every buffered value
//! is a [`Stamped`] carrying its target line's reuse epoch at capture time
//! (see `lxr_heap::epoch` for the validate-on-apply protocol).
//!
//! # Concurrency
//!
//! A [`SharedBuffer`] is a lock-free MPMC chunk queue: any number of
//! mutators push concurrently, and draining is safe from any thread.  The
//! RC pause — which drains the sinks with mutators stopped and the
//! concurrent crew waited out — is the buffers' only consumer in practice,
//! and uses the unpinned
//! [`drain_exclusive`](SharedBuffer::drain_exclusive) fast path; the
//! `len`/`is_empty` counters are advisory (maintained relaxed) and may
//! transiently over-report during a publish.

use crossbeam::queue::SegQueue;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The default number of entries in a published chunk.
pub const DEFAULT_CHUNK_SIZE: usize = 1024;

/// A captured value carrying the reuse epoch of its target line at capture
/// time (see `lxr_heap::epoch` for the stamp/validate protocol).
///
/// Every deferred-work stream — decrement buffers, modified-field buffers,
/// the lazy decrement queue, SATB gray entries — stores `Stamped` values;
/// the application sites compare the stamp against the line's current epoch
/// and drop the entry as provably stale on a mismatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamped<T> {
    /// The captured value (an object reference or a slot address).
    pub value: T,
    /// The target line's reuse epoch at capture time.
    pub epoch: u8,
}

impl<T> Stamped<T> {
    /// Stamps `value` with `epoch`.
    #[inline]
    pub fn new(value: T, epoch: u8) -> Self {
        Stamped { value, epoch }
    }
}

/// A lock-free, multi-producer multi-consumer buffer of chunks.
///
/// # Example
///
/// ```
/// use lxr_rc::SharedBuffer;
/// let buf: SharedBuffer<u64> = SharedBuffer::new();
/// buf.push_chunk(vec![1, 2, 3]);
/// buf.push_chunk(vec![4]);
/// assert_eq!(buf.len(), 4);
/// let mut all: Vec<u64> = buf.drain().into_iter().flatten().collect();
/// all.sort();
/// assert_eq!(all, vec![1, 2, 3, 4]);
/// assert!(buf.is_empty());
/// ```
#[derive(Debug)]
pub struct SharedBuffer<T> {
    chunks: SegQueue<Vec<T>>,
    entries: AtomicUsize,
}

impl<T> SharedBuffer<T> {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        SharedBuffer { chunks: SegQueue::new(), entries: AtomicUsize::new(0) }
    }

    /// Publishes a chunk of entries.  Empty chunks are ignored.
    pub fn push_chunk(&self, chunk: Vec<T>) {
        if chunk.is_empty() {
            return;
        }
        lxr_failpoints::failpoint!("rc.chunk-flush");
        self.entries.fetch_add(chunk.len(), Ordering::Relaxed);
        self.chunks.push(chunk);
    }

    /// Pops one chunk, if any.
    pub fn pop_chunk(&self) -> Option<Vec<T>> {
        let chunk = self.chunks.pop()?;
        self.entries.fetch_sub(chunk.len(), Ordering::Relaxed);
        Some(chunk)
    }

    /// Drains every currently queued chunk.
    pub fn drain(&self) -> Vec<Vec<T>> {
        let mut out = Vec::new();
        while let Some(chunk) = self.pop_chunk() {
            out.push(chunk);
        }
        out
    }

    /// [`drain`](Self::drain) for a caller that is the buffer's *only
    /// consumer*, skipping the queue's epoch-reclaimer pin/unpin (two
    /// `SeqCst` RMWs per popped chunk).
    ///
    /// This is the drain the RC pause uses on the barrier sinks: the world
    /// is stopped and the concurrent crew has been waited out, so the pause
    /// controller is provably the only thread touching the buffer and the
    /// pin traffic is pure overhead.
    ///
    /// # Safety
    ///
    /// No other thread may pop from this buffer (via any method) for the
    /// duration of the call.  Concurrent pushes are safe.  See
    /// `SegQueue::pop_exclusive` for the full argument.
    pub unsafe fn drain_exclusive(&self) -> Vec<Vec<T>> {
        let mut out = Vec::new();
        // SAFETY: forwarded contract — the caller is the only consumer.
        while let Some(chunk) = unsafe { self.chunks.pop_exclusive() } {
            self.entries.fetch_sub(chunk.len(), Ordering::Relaxed);
            out.push(chunk);
        }
        out
    }

    /// Approximate number of queued entries.
    pub fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed)
    }

    /// Returns `true` if no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Default for SharedBuffer<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn empty_chunks_are_ignored() {
        let b: SharedBuffer<u32> = SharedBuffer::new();
        b.push_chunk(Vec::new());
        assert!(b.is_empty());
        assert!(b.pop_chunk().is_none());
    }

    #[test]
    fn len_tracks_pushes_and_pops() {
        let b: SharedBuffer<u32> = SharedBuffer::new();
        b.push_chunk(vec![1, 2, 3]);
        b.push_chunk(vec![4, 5]);
        assert_eq!(b.len(), 5);
        let c = b.pop_chunk().unwrap();
        assert_eq!(b.len(), 5 - c.len());
        b.drain();
        assert_eq!(b.len(), 0);
    }

    #[test]
    fn exclusive_drain_with_live_producers_loses_nothing() {
        // The exclusive (unpinned) drain's contract allows concurrent
        // *pushes*; only concurrent pops are forbidden.  Race four pushers
        // against one exclusive-draining consumer and account for every
        // element.
        let b: Arc<SharedBuffer<usize>> = Arc::new(SharedBuffer::new());
        let producers: Vec<_> = (0..4)
            .map(|t| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    for i in 0..500 {
                        b.push_chunk(vec![t * 1000 + i]);
                    }
                })
            })
            .collect();
        let mut all = Vec::new();
        for _ in 0..1000 {
            // SAFETY: this is the only thread that ever pops `b`.
            all.extend(unsafe { b.drain_exclusive() }.into_iter().flatten());
        }
        for p in producers {
            p.join().unwrap();
        }
        // SAFETY: the producers have joined and this thread is still the
        // only one that ever pops `b`.
        all.extend(unsafe { b.drain_exclusive() }.into_iter().flatten());
        assert_eq!(b.len(), 0);
        // Assert the count *before* dedup: double delivery (the signature
        // of an unpinned-drain reclamation bug) must fail, not be deduped
        // away.
        assert_eq!(all.len(), 2000, "every chunk delivered exactly once");
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 2000, "no element delivered twice");
    }

    #[test]
    fn concurrent_producers_lose_nothing() {
        let b: Arc<SharedBuffer<usize>> = Arc::new(SharedBuffer::new());
        let producers: Vec<_> = (0..4)
            .map(|t| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    for i in 0..100 {
                        b.push_chunk(vec![t * 1000 + i]);
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let mut all: Vec<usize> = b.drain().into_iter().flatten().collect();
        assert_eq!(all.len(), 400);
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 400);
    }
}
