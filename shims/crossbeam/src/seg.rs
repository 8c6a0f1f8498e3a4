//! The lock-free segmented MPMC FIFO core shared by [`crate::queue::SegQueue`]
//! and [`crate::deque::Injector`].
//!
//! The queue is a singly-linked list of fixed-size segments.  Producers
//! claim a write slot with one `fetch_add` on the tail segment's `alloc`
//! cursor and commit it with a release store of the slot's `ready` flag;
//! consumers claim a read slot with one CAS on the head segment's `read`
//! cursor.  A full segment is extended by CAS-installing a `next` segment
//! and helping the shared `tail` pointer forward; an exhausted segment is
//! unlinked by CAS-advancing `head` and handed to the epoch-based
//! [`Reclaimer`](crate::reclaim::Reclaimer), which frees it once no
//! in-flight operation can still hold a reference.  Operations pin
//! themselves through the per-thread epoch-slot domain
//! ([`crate::epoch_slots`]): one relaxed store plus one fence on entry, one
//! release store on exit, no shared-counter RMWs on the hot path.
//!
//! Consumers are non-blocking: [`SegList::try_pop`] reports
//! [`PopResult::Retry`] instead of waiting when it loses a race or observes
//! a producer mid-commit, which is exactly the contract
//! `crossbeam::deque::Steal` exposes.

use crate::reclaim::Reclaimer;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};

/// Slots per segment.  32 two-word entries keep a segment around half a
/// kilobyte — small enough that a mostly-empty queue is cheap, large enough
/// that the segment-crossing cold path is rare.
pub(crate) const SEG_CAP: usize = 32;

/// Outcome of a non-blocking pop.
pub(crate) enum PopResult<T> {
    /// An element was dequeued.
    Item(T),
    /// The queue was observed empty.
    Empty,
    /// A race was lost (or a producer is mid-commit); retry.
    Retry,
}

struct Segment<T> {
    /// Next write slot; values `>= SEG_CAP` mean "full, extend the list".
    alloc: AtomicUsize,
    /// Next read slot; only ever advanced by CAS, never past `SEG_CAP`.
    read: AtomicUsize,
    /// Per-slot commit flags: set once the value is written.
    ready: [AtomicBool; SEG_CAP],
    slots: [UnsafeCell<MaybeUninit<T>>; SEG_CAP],
    next: AtomicPtr<Segment<T>>,
}

impl<T> Segment<T> {
    fn boxed() -> *mut Segment<T> {
        Box::into_raw(Box::new(Segment {
            alloc: AtomicUsize::new(0),
            read: AtomicUsize::new(0),
            ready: std::array::from_fn(|_| AtomicBool::new(false)),
            slots: std::array::from_fn(|_| UnsafeCell::new(MaybeUninit::uninit())),
            next: AtomicPtr::new(ptr::null_mut()),
        }))
    }
}

/// The lock-free segmented queue core.
pub(crate) struct SegList<T> {
    head: AtomicPtr<Segment<T>>,
    tail: AtomicPtr<Segment<T>>,
    /// Element count, maintained as increment-before-commit /
    /// decrement-after-take so it never underflows; it may transiently
    /// over-count elements that are still being committed.
    len: AtomicUsize,
    reclaim: Reclaimer<Box<Segment<T>>>,
}

// SAFETY: elements move across threads through the queue (`T: Send`); all
// shared segment state is accessed atomically, and segment lifetime is
// governed by the reclaimer's pin/retire protocol.
unsafe impl<T: Send> Send for SegList<T> {}
// SAFETY: as for `Send`: every shared operation is atomic or pinned.
unsafe impl<T: Send> Sync for SegList<T> {}

impl<T> SegList<T> {
    pub(crate) fn new() -> Self {
        let seg = Segment::boxed();
        SegList {
            head: AtomicPtr::new(seg),
            tail: AtomicPtr::new(seg),
            len: AtomicUsize::new(0),
            reclaim: Reclaimer::new(),
        }
    }

    /// Enqueues `value` at the tail.  Lock-free; never fails.
    pub(crate) fn push(&self, value: T) {
        let pinned = self.reclaim.pin();
        loop {
            let tail = self.tail.load(Ordering::Acquire);
            // SAFETY: `tail` is reachable from the queue and we are pinned,
            // so the segment cannot be freed under us.
            let seg = unsafe { &*tail };
            let i = seg.alloc.fetch_add(1, Ordering::AcqRel);
            if i < SEG_CAP {
                // SAFETY: slot `i` was claimed exclusively by the fetch_add
                // above and is only read after `ready[i]` is set below.
                unsafe { (*seg.slots[i].get()).write(value) };
                self.len.fetch_add(1, Ordering::Release);
                seg.ready[i].store(true, Ordering::Release);
                self.reclaim.unpin(pinned);
                return;
            }
            // Segment full: install (or help install) the next segment and
            // swing the shared tail forward, then retry the claim there.
            let next = seg.next.load(Ordering::Acquire);
            if next.is_null() {
                let fresh = Segment::boxed();
                match seg.next.compare_exchange(ptr::null_mut(), fresh, Ordering::AcqRel, Ordering::Acquire) {
                    Ok(_) => {
                        let _ = self.tail.compare_exchange(tail, fresh, Ordering::AcqRel, Ordering::Acquire);
                    }
                    Err(other) => {
                        // SAFETY: `fresh` was never shared.
                        unsafe { drop(Box::from_raw(fresh)) };
                        let _ = self.tail.compare_exchange(tail, other, Ordering::AcqRel, Ordering::Acquire);
                    }
                }
            } else {
                let _ = self.tail.compare_exchange(tail, next, Ordering::AcqRel, Ordering::Acquire);
            }
        }
    }

    /// Dequeues from the head without blocking.
    pub(crate) fn try_pop(&self) -> PopResult<T> {
        let pinned = self.reclaim.pin();
        let result = self.try_pop_inner();
        self.reclaim.unpin(pinned);
        result
    }

    /// [`try_pop`](Self::try_pop) without the reclaimer pin/unpin (an
    /// epoch-slot store/fence pair — or two `SeqCst` RMWs on shared
    /// counters for a slotless thread).
    ///
    /// # Safety
    ///
    /// The caller must guarantee **no concurrent consumer**: no other
    /// thread may execute `try_pop`/`try_pop_unpinned` on this queue for
    /// the whole duration of the caller's drain.  Concurrent *producers*
    /// are fine.
    ///
    /// Why that suffices: the pin exists solely to keep a segment alive
    /// while a stalled operation still holds a reference to it, and
    /// segments are only ever *freed* on the consumer side — `try_pop`
    /// unlinks an exhausted segment and hands it to the reclaimer, whose
    /// `retire` may free earlier garbage.  With a single consumer, the only
    /// thread that can trigger a free is the caller itself, and the only
    /// segment references it holds at that point are to segments still
    /// linked from `head` (it re-reads `head` after every unlink), which
    /// are never retired.  Producers never free anything, and remain
    /// protected from the caller's retires by their own pins.
    pub(crate) unsafe fn try_pop_unpinned(&self) -> PopResult<T> {
        self.try_pop_inner()
    }

    fn try_pop_inner(&self) -> PopResult<T> {
        loop {
            let head = self.head.load(Ordering::Acquire);
            // SAFETY: pinned, so `head` cannot be freed under us.
            let seg = unsafe { &*head };
            let r = seg.read.load(Ordering::Acquire);
            if r >= SEG_CAP {
                // Segment exhausted: unlink it and retire it to the
                // reclaimer (the loser of the CAS just re-reads `head`).
                let next = seg.next.load(Ordering::Acquire);
                if next.is_null() {
                    return PopResult::Empty;
                }
                // Help `tail` past this segment *before* unlinking it: a
                // producer that installed `next` may have stalled before its
                // own tail swing, and retiring a segment that `tail` still
                // points at would let a later (freshly pinned) producer load
                // a dangling tail.  `tail` lags `head` by at most one
                // segment — slots in `next` are only claimed once `tail`
                // reaches it — so one CAS suffices, and after it `tail` can
                // never point here again (CAS only succeeds forward).  The
                // unlink-then-retire thus happens-before any later pin for
                // *both* entry pointers (see the reclaimer's coherence
                // argument).
                let _ = self.tail.compare_exchange(head, next, Ordering::AcqRel, Ordering::Acquire);
                if self.head.compare_exchange(head, next, Ordering::AcqRel, Ordering::Acquire).is_ok() {
                    // SAFETY: `head` is now unreachable from the queue; the
                    // reclaimer defers the free past every pinned operation.
                    self.reclaim.retire(unsafe { Box::from_raw(head) });
                }
                continue;
            }
            let committed = seg.alloc.load(Ordering::Acquire).min(SEG_CAP);
            if r >= committed {
                // No producer has claimed slot `r` yet.  `alloc < SEG_CAP`
                // implies no later segment exists, so the queue is empty.
                return PopResult::Empty;
            }
            if !seg.ready[r].load(Ordering::Acquire) {
                // Slot claimed but not yet committed: the producer is
                // mid-flight.  Report contention rather than spin.
                return PopResult::Retry;
            }
            match seg.read.compare_exchange(r, r + 1, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => {
                    // SAFETY: the CAS claimed slot `r` exclusively, and the
                    // acquire load of `ready[r]` ordered the value write
                    // before this read.
                    let value = unsafe { (*seg.slots[r].get()).assume_init_read() };
                    self.len.fetch_sub(1, Ordering::Release);
                    return PopResult::Item(value);
                }
                Err(_) => return PopResult::Retry,
            }
        }
    }

    /// Number of queued elements (may transiently over-count elements still
    /// being committed by a producer).
    pub(crate) fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for SegList<T> {
    fn drop(&mut self) {
        // Exclusive access: walk the chain, drop the unread committed
        // values, and free every live segment.  Retired segments are freed
        // by the reclaimer's own drop.
        let mut p = *self.head.get_mut();
        while !p.is_null() {
            // SAFETY: `p` is owned by the queue and unreachable elsewhere.
            let mut seg = unsafe { Box::from_raw(p) };
            let r = *seg.read.get_mut();
            let a = (*seg.alloc.get_mut()).min(SEG_CAP);
            for i in r..a {
                if *seg.ready[i].get_mut() {
                    // SAFETY: slot `i` is committed and was never consumed.
                    unsafe { (*seg.slots[i].get()).assume_init_drop() };
                }
            }
            p = *seg.next.get_mut();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn pop<T>(list: &SegList<T>) -> Option<T> {
        loop {
            match list.try_pop() {
                PopResult::Item(v) => return Some(v),
                PopResult::Empty => return None,
                PopResult::Retry => std::hint::spin_loop(),
            }
        }
    }

    #[test]
    fn fifo_across_many_segments() {
        let list = SegList::new();
        let n = SEG_CAP * 5 + 7;
        for i in 0..n {
            list.push(i);
        }
        assert_eq!(list.len(), n);
        for i in 0..n {
            assert_eq!(pop(&list), Some(i));
        }
        assert_eq!(pop(&list), None);
        assert!(list.is_empty());
    }

    #[test]
    fn drop_releases_unconsumed_boxes() {
        // Miri-style sanity: values that were pushed but never popped are
        // dropped exactly once when the queue is dropped.
        let list = SegList::new();
        for i in 0..(SEG_CAP * 3) {
            list.push(Arc::new(i));
        }
        let probe = Arc::new(0usize);
        list.push(Arc::clone(&probe));
        assert_eq!(Arc::strong_count(&probe), 2);
        drop(list);
        assert_eq!(Arc::strong_count(&probe), 1);
    }

    #[test]
    fn concurrent_producers_and_consumers_deliver_exactly_once() {
        let list: Arc<SegList<usize>> = Arc::new(SegList::new());
        let producers = 4;
        let per_producer = 5000;
        let consumed = Arc::new(std::sync::Mutex::new(Vec::new()));

        let mut handles = Vec::new();
        for p in 0..producers {
            let list = Arc::clone(&list);
            handles.push(std::thread::spawn(move || {
                for i in 0..per_producer {
                    list.push(p * per_producer + i);
                }
            }));
        }
        let stop = Arc::new(AtomicBool::new(false));
        let mut consumers = Vec::new();
        for _ in 0..3 {
            let list = Arc::clone(&list);
            let consumed = Arc::clone(&consumed);
            let stop = Arc::clone(&stop);
            consumers.push(std::thread::spawn(move || {
                let mut local = Vec::new();
                loop {
                    match list.try_pop() {
                        PopResult::Item(v) => local.push(v),
                        PopResult::Retry => std::hint::spin_loop(),
                        PopResult::Empty => {
                            if stop.load(Ordering::Acquire) && list.is_empty() {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                }
                consumed.lock().unwrap().extend(local);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Release);
        for c in consumers {
            c.join().unwrap();
        }
        let mut all = consumed.lock().unwrap().clone();
        while let Some(v) = pop(&list) {
            all.push(v);
        }
        all.sort_unstable();
        let expect: Vec<usize> = (0..producers * per_producer).collect();
        assert_eq!(all, expect, "every element delivered exactly once");
    }
}
