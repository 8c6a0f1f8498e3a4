//! Work-stealing deques: a lock-free Chase–Lev [`Worker`]/[`Stealer`] pair
//! and a lock-free segmented [`Injector`].
//!
//! The deque is the classic Chase–Lev design with the memory orderings of
//! Lê, Pop, Cohen & Zappa Nardelli, *Correct and Efficient Work-Stealing
//! for Weak Memory Models* (PPoPP'13): the single owner pushes and pops at
//! the *bottom* (LIFO), any number of stealers take from the *top* (FIFO).
//! The backing buffer is bounded but growable — it starts small and doubles
//! when full; retired buffers are kept alive until the deque is dropped so
//! that a stealer racing with a grow can still read through a stale buffer
//! pointer (the total retired memory is bounded by one extra copy of the
//! largest buffer, since capacities grow geometrically).
//!
//! The [`Injector`] is the shared FIFO a scheduler seeds phases through and
//! overflow-pushes into; it is the segmented queue of `crate::seg` with
//! crossbeam's non-blocking [`Steal`] contract.
//!
//! The original mutexed implementations are retained, test-only, in
//! `crate::reference` as the property-test oracles.

use crate::seg::{PopResult, SegList};
use std::cell::{Cell, UnsafeCell};
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicIsize, AtomicPtr, Ordering};
use std::sync::{Arc, Mutex};
use std::{fmt, ptr};

/// The result of a steal attempt.
pub enum Steal<T> {
    /// An element was stolen.
    Success(T),
    /// The queue was observed empty.
    Empty,
    /// The operation lost a race and should be retried.
    Retry,
}

// ---- the growable circular buffer ------------------------------------------

struct Buffer<T> {
    ptr: *mut UnsafeCell<MaybeUninit<T>>,
    cap: usize,
}

impl<T> Buffer<T> {
    fn alloc(cap: usize) -> *mut Buffer<T> {
        debug_assert!(cap.is_power_of_two());
        let mut slots: Vec<UnsafeCell<MaybeUninit<T>>> = Vec::with_capacity(cap);
        slots.resize_with(cap, || UnsafeCell::new(MaybeUninit::uninit()));
        let ptr = Box::into_raw(slots.into_boxed_slice()) as *mut UnsafeCell<MaybeUninit<T>>;
        Box::into_raw(Box::new(Buffer { ptr, cap }))
    }

    /// # Safety
    ///
    /// `buf` must come from [`Buffer::alloc`] and not be freed twice; no
    /// live element may remain in slots the caller still owns.
    unsafe fn free(buf: *mut Buffer<T>) {
        let b = Box::from_raw(buf);
        drop(Vec::from_raw_parts(b.ptr, b.cap, b.cap));
    }

    #[inline]
    fn slot(&self, index: isize) -> *mut MaybeUninit<T> {
        // SAFETY: `cap` is a power of two, so the masked offset is below
        // `cap` and stays inside the `cap`-slot allocation behind `ptr`.
        unsafe { (*self.ptr.add(index as usize & (self.cap - 1))).get() }
    }

    /// # Safety
    ///
    /// The owner must have exclusive claim on logical `index`.
    #[inline]
    unsafe fn write(&self, index: isize, value: T) {
        ptr::write(self.slot(index), MaybeUninit::new(value));
    }

    /// Reads the raw bytes of logical `index` without asserting validity.
    /// This is the speculative half of a steal: the bytes may be stale or
    /// torn if the claim CAS subsequently fails, so the caller must only
    /// `assume_init` the result *after* winning the claim.
    ///
    /// # Safety
    ///
    /// `index` must be in bounds of the buffer.
    #[inline]
    unsafe fn read_speculative(&self, index: isize) -> MaybeUninit<T> {
        ptr::read(self.slot(index))
    }

    /// # Safety
    ///
    /// The caller must own logical `index` and the slot must be initialised.
    #[inline]
    unsafe fn read(&self, index: isize) -> T {
        self.read_speculative(index).assume_init()
    }
}

struct Inner<T> {
    /// Stealers claim from here (monotonically increasing).
    top: AtomicIsize,
    /// The owner pushes/pops here.
    bottom: AtomicIsize,
    buffer: AtomicPtr<Buffer<T>>,
    /// Buffers replaced by grows, freed when the deque is dropped.
    retired: Mutex<Vec<*mut Buffer<T>>>,
}

// SAFETY: elements are transferred across threads (`T: Send`); indices are
// atomics and the buffer pointer is only mutated by the single owner, with
// release/acquire publication to stealers.
unsafe impl<T: Send> Send for Inner<T> {}
// SAFETY: as for `Send`: shared access goes through the atomics, and a
// slot's value is moved out only by whoever wins its claim.
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        let t = *self.top.get_mut();
        let b = *self.bottom.get_mut();
        let buf = *self.buffer.get_mut();
        // SAFETY: `&mut self` means no owner or stealer is left; `[t, b)`
        // are exactly the initialised slots of the current buffer, and each
        // buffer (current or retired) is freed here once.
        unsafe {
            for i in t..b {
                drop((*buf).read(i));
            }
            Buffer::free(buf);
            for old in self.retired.get_mut().unwrap_or_else(|e| e.into_inner()).drain(..) {
                Buffer::free(old);
            }
        }
    }
}

/// Initial deque capacity (doubles on overflow).
const MIN_CAP: usize = 32;

/// The owner half of a Chase–Lev work-stealing deque: single-threaded
/// LIFO push/pop at the bottom.
pub struct Worker<T> {
    inner: Arc<Inner<T>>,
    /// `Worker` is `Send` but deliberately `!Sync`: only one thread may own
    /// the bottom end at a time.
    _not_sync: PhantomData<Cell<()>>,
}

// SAFETY: moving the single owner to another thread is fine for `T: Send`.
unsafe impl<T: Send> Send for Worker<T> {}

/// The stealing half: any number of threads may FIFO-steal from the top.
pub struct Stealer<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for Stealer<T> {
    fn clone(&self) -> Self {
        Stealer { inner: Arc::clone(&self.inner) }
    }
}

// SAFETY: stealing is multi-consumer-safe by construction.
unsafe impl<T: Send> Send for Stealer<T> {}
// SAFETY: a shared `Stealer` only steals, which any number of threads may
// do at once.
unsafe impl<T: Send> Sync for Stealer<T> {}

impl<T> Default for Worker<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Worker<T> {
    /// Creates an empty deque (LIFO for the owner, FIFO for stealers).
    pub fn new() -> Self {
        Worker {
            inner: Arc::new(Inner {
                top: AtomicIsize::new(0),
                bottom: AtomicIsize::new(0),
                buffer: AtomicPtr::new(Buffer::alloc(MIN_CAP)),
                retired: Mutex::new(Vec::new()),
            }),
            _not_sync: PhantomData,
        }
    }

    /// Creates a [`Stealer`] handle for this deque.
    pub fn stealer(&self) -> Stealer<T> {
        Stealer { inner: Arc::clone(&self.inner) }
    }

    /// Pushes an element onto the owner's end, growing the buffer if full.
    pub fn push(&self, value: T) {
        let inner = &*self.inner;
        let b = inner.bottom.load(Ordering::Relaxed);
        let t = inner.top.load(Ordering::Acquire);
        let mut buf = inner.buffer.load(Ordering::Relaxed);
        // SAFETY: the buffer pointer is valid (only the owner replaces it).
        if b - t >= unsafe { (*buf).cap } as isize {
            buf = self.grow(t, b, buf);
        }
        // SAFETY: logical index `b` is outside [top, bottom) and therefore
        // owned by us; publication happens via the release store below.
        unsafe { (*buf).write(b, value) };
        inner.bottom.store(b + 1, Ordering::Release);
    }

    /// Doubles the buffer, copying the live range `[t, b)`.  The old buffer
    /// is retired (not freed) because a concurrent stealer may still read
    /// through it; its claim CAS decides ownership of the value either way.
    fn grow(&self, t: isize, b: isize, old: *mut Buffer<T>) -> *mut Buffer<T> {
        // SAFETY: `old` stays valid until drop (retired, never freed early).
        let old_ref = unsafe { &*old };
        let new = Buffer::alloc((old_ref.cap * 2).max(MIN_CAP));
        // SAFETY: `new` is fresh and unpublished, with room for the live
        // range `[t, b)` (at most `cap` elements); the copied bytes are
        // owned by whoever later wins each slot's claim, in either buffer.
        unsafe {
            for i in t..b {
                ptr::copy_nonoverlapping(old_ref.slot(i), (*new).slot(i), 1);
            }
        }
        self.inner.buffer.store(new, Ordering::Release);
        self.inner.retired.lock().unwrap_or_else(|e| e.into_inner()).push(old);
        new
    }

    /// Pops from the owner's end (LIFO).
    pub fn pop(&self) -> Option<T> {
        let inner = &*self.inner;
        let b = inner.bottom.load(Ordering::Relaxed) - 1;
        let buf = inner.buffer.load(Ordering::Relaxed);
        inner.bottom.store(b, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let t = inner.top.load(Ordering::Relaxed);
        if t > b {
            // Empty: restore bottom.
            inner.bottom.store(b + 1, Ordering::Relaxed);
            return None;
        }
        if t == b {
            // Last element: race the stealers for it.
            let won = inner.top.compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed).is_ok();
            inner.bottom.store(b + 1, Ordering::Relaxed);
            // SAFETY: winning the CAS grants exclusive claim on index `b`.
            return if won { Some(unsafe { (*buf).read(b) }) } else { None };
        }
        // SAFETY: `t < b`, so index `b` cannot be claimed by any stealer.
        Some(unsafe { (*buf).read(b) })
    }

    /// Returns `true` if the deque appears empty.
    pub fn is_empty(&self) -> bool {
        let b = self.inner.bottom.load(Ordering::Relaxed);
        let t = self.inner.top.load(Ordering::Relaxed);
        b <= t
    }

    /// Number of elements currently in the deque.
    pub fn len(&self) -> usize {
        let b = self.inner.bottom.load(Ordering::Relaxed);
        let t = self.inner.top.load(Ordering::Relaxed);
        (b - t).max(0) as usize
    }
}

impl<T> fmt::Debug for Worker<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Worker").field("len", &self.len()).finish()
    }
}

impl<T> Stealer<T> {
    /// Attempts to steal one element from the top (FIFO end).
    pub fn steal(&self) -> Steal<T> {
        let inner = &*self.inner;
        let t = inner.top.load(Ordering::Acquire);
        fence(Ordering::SeqCst);
        let b = inner.bottom.load(Ordering::Acquire);
        if t >= b {
            return Steal::Empty;
        }
        let buf = inner.buffer.load(Ordering::Acquire);
        // Speculative read of the raw bytes only — a `T` is materialised
        // after the claim CAS succeeds, so a lost race never conjures a
        // possibly-invalid value.
        // SAFETY: the buffer (current or retired) stays allocated until the
        // deque drops, and a retired buffer still holds a bit-copy of index
        // `t` (grows copy, they do not move).
        let value = unsafe { (*buf).read_speculative(t) };
        if inner.top.compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed).is_ok() {
            // SAFETY: winning the CAS grants exclusive claim on index `t`,
            // whose bytes were published before `bottom` advanced past it.
            Steal::Success(unsafe { value.assume_init() })
        } else {
            Steal::Retry
        }
    }

    /// Returns `true` if the deque appears empty.
    pub fn is_empty(&self) -> bool {
        let t = self.inner.top.load(Ordering::Acquire);
        let b = self.inner.bottom.load(Ordering::Acquire);
        b <= t
    }
}

impl<T> fmt::Debug for Stealer<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Stealer")
    }
}

// ---- the shared injector ----------------------------------------------------

/// A lock-free FIFO queue that many threads push to and steal from: the
/// shared half of a two-level work-stealing scheduler.
pub struct Injector<T> {
    list: SegList<T>,
}

impl<T> Injector<T> {
    /// Creates an empty injector.
    pub fn new() -> Self {
        Injector { list: SegList::new() }
    }

    /// Pushes an element.
    pub fn push(&self, value: T) {
        self.list.push(value);
    }

    /// Attempts to steal one element.  Returns [`Steal::Retry`] when a race
    /// was lost or a producer is mid-commit, matching crossbeam's
    /// non-blocking contract.
    pub fn steal(&self) -> Steal<T> {
        match self.list.try_pop() {
            PopResult::Item(v) => Steal::Success(v),
            PopResult::Empty => Steal::Empty,
            PopResult::Retry => Steal::Retry,
        }
    }

    /// Returns `true` if the injector appears empty.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Number of queued elements.
    pub fn len(&self) -> usize {
        self.list.len()
    }
}

impl<T> Default for Injector<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> fmt::Debug for Injector<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Injector")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn owner_lifo_stealer_fifo() {
        let w = Worker::new();
        let s = w.stealer();
        w.push(1);
        w.push(2);
        w.push(3);
        assert_eq!(w.len(), 3);
        assert!(matches!(s.steal(), Steal::Success(1)), "stealers take the oldest");
        assert_eq!(w.pop(), Some(3), "the owner takes the newest");
        assert_eq!(w.pop(), Some(2));
        assert_eq!(w.pop(), None);
        assert!(matches!(s.steal(), Steal::Empty));
        assert!(w.is_empty() && s.is_empty());
    }

    #[test]
    fn growth_preserves_contents() {
        let w: Worker<usize> = Worker::new();
        let n = MIN_CAP * 9 + 3; // force several grows
        for i in 0..n {
            w.push(i);
        }
        assert_eq!(w.len(), n);
        for i in (0..n).rev() {
            assert_eq!(w.pop(), Some(i));
        }
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn unconsumed_elements_drop_with_the_deque() {
        let probe = Arc::new(());
        let w = Worker::new();
        for _ in 0..(MIN_CAP * 3) {
            w.push(Arc::clone(&probe));
        }
        let s = w.stealer();
        assert!(matches!(s.steal(), Steal::Success(_)));
        drop(s);
        drop(w);
        assert_eq!(Arc::strong_count(&probe), 1);
    }

    #[test]
    fn concurrent_stealers_take_each_item_exactly_once() {
        let w: Worker<usize> = Worker::new();
        let n = 20_000;
        let done = Arc::new(AtomicBool::new(false));
        let taken = Arc::new(Mutex::new(Vec::new()));

        let stealers: Vec<_> = (0..3)
            .map(|_| {
                let s = w.stealer();
                let done = Arc::clone(&done);
                let taken = Arc::clone(&taken);
                std::thread::spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        match s.steal() {
                            Steal::Success(v) => local.push(v),
                            Steal::Retry => std::hint::spin_loop(),
                            Steal::Empty => {
                                if done.load(Ordering::Acquire) && s.is_empty() {
                                    break;
                                }
                                std::thread::yield_now();
                            }
                        }
                    }
                    taken.lock().unwrap().extend(local);
                })
            })
            .collect();

        let mut popped = Vec::new();
        for i in 0..n {
            w.push(i);
            if i % 3 == 0 {
                if let Some(v) = w.pop() {
                    popped.push(v);
                }
            }
        }
        while let Some(v) = w.pop() {
            popped.push(v);
        }
        done.store(true, Ordering::Release);
        for s in stealers {
            s.join().unwrap();
        }
        let mut all = taken.lock().unwrap().clone();
        all.extend(popped);
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "no element lost or duplicated");
    }

    #[test]
    fn injector_steals_in_order() {
        let inj = Injector::new();
        inj.push('a');
        inj.push('b');
        match inj.steal() {
            Steal::Success(c) => assert_eq!(c, 'a'),
            _ => panic!("expected success"),
        }
        assert!(matches!(inj.steal(), Steal::Success('b')));
        assert!(matches!(inj.steal(), Steal::Empty));
    }
}
