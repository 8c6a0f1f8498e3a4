//! Offline shim for the `crossbeam` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the *subset* of crossbeam's API that lxr-rs uses — and, as of
//! this revision, with real lock-free implementations rather than mutexed
//! stand-ins:
//!
//! * [`deque::Worker`] / [`deque::Stealer`] — a Chase–Lev work-stealing
//!   deque (bounded, growable) with the PPoPP'13 weak-memory orderings,
//! * [`deque::Injector`] and [`queue::SegQueue`] — segmented lock-free
//!   MPMC FIFOs sharing one core (`seg`) whose unlinked segments are
//!   freed through an epoch-based deferred reclaimer (`reclaim`) whose
//!   hot path is a per-thread epoch slot ([`epoch_slots`]): pin is one
//!   relaxed store plus one fence, not two `SeqCst` RMWs,
//! * [`queue::ArrayQueue`] — a small bounded buffer, still mutexed,
//! * unbounded [`channel`]s over `std::sync::mpsc`.
//!
//! The original mutexed implementations are retained in the test-only
//! `reference` module and serve as the property-test oracles (see the
//! tests at the bottom of this file).  The previous two-parity pin protocol
//! is likewise retained (as `epoch_slots`' fallback) and serves as the
//! reclamation oracle: the differential tests below force it process-wide
//! and replay the same churn.

#[doc(hidden)]
pub mod epoch_slots;
mod reclaim;
mod seg;

pub mod channel;
pub mod deque;
pub mod queue;
#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use crate::channel::unbounded;
    use crate::deque::{Injector, Steal, Worker};
    use crate::queue::SegQueue;
    use crate::reference;
    use proptest::prelude::*;

    #[test]
    fn channel_closes_when_senders_drop() {
        let (tx, rx) = unbounded();
        tx.send(7).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(7));
        assert!(rx.recv().is_err());
    }

    /// One operation of the single-threaded oracle scripts.
    ///
    /// With a single thread, `Steal::Retry` is impossible, so the
    /// lock-free structures must produce *exactly* the oracle's outcomes.
    fn run_script_queue(ops: &[(u8, u16)]) {
        let q = SegQueue::new();
        let oracle = reference::SegQueue::new();
        for &(op, v) in ops {
            if op % 3 == 0 {
                q.push(v);
                oracle.push(v);
            } else {
                assert_eq!(q.pop(), oracle.pop());
            }
            assert_eq!(q.len(), oracle.len());
            assert_eq!(q.is_empty(), oracle.is_empty());
        }
        loop {
            let (a, b) = (q.pop(), oracle.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    fn run_script_injector(ops: &[(u8, u16)]) {
        let inj = Injector::new();
        let oracle = reference::Injector::new();
        for &(op, v) in ops {
            if op % 3 == 0 {
                inj.push(v);
                oracle.push(v);
            } else {
                let got = match inj.steal() {
                    Steal::Success(x) => Some(x),
                    Steal::Empty => None,
                    Steal::Retry => panic!("Retry is impossible single-threaded"),
                };
                let want = match oracle.steal() {
                    Steal::Success(x) => Some(x),
                    _ => None,
                };
                assert_eq!(got, want);
            }
        }
    }

    fn run_script_deque(ops: &[(u8, u16)]) {
        let w = Worker::new();
        let s = w.stealer();
        let oracle = reference::Deque::new();
        for &(op, v) in ops {
            match op % 4 {
                // Bias towards pushes so the deque grows past its initial
                // capacity and the grow path is exercised.
                0 | 1 => {
                    w.push(v);
                    oracle.push(v);
                }
                2 => assert_eq!(w.pop(), oracle.pop()),
                _ => {
                    let got = match s.steal() {
                        Steal::Success(x) => Some(x),
                        Steal::Empty => None,
                        Steal::Retry => panic!("Retry is impossible single-threaded"),
                    };
                    let want = match oracle.steal() {
                        Steal::Success(x) => Some(x),
                        _ => None,
                    };
                    assert_eq!(got, want);
                }
            }
            assert_eq!(w.len(), oracle.len());
        }
        while let Some(got) = w.pop() {
            assert_eq!(Some(got), oracle.pop());
        }
        assert!(oracle.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The lock-free `SegQueue` agrees with the mutexed oracle on
        /// arbitrary single-threaded push/pop interleavings (crossing many
        /// segment boundaries).
        #[test]
        fn seg_queue_matches_mutexed_oracle(
            ops in proptest::collection::vec((0u8..6, 0u16..1000), 1..400),
        ) {
            run_script_queue(&ops);
        }

        /// The same scripts with every pin forced through the two-parity
        /// fallback: the retained old reclamation protocol is the oracle
        /// for the epoch-slot fast path — identical outcomes, either way
        /// the queue pins.
        #[test]
        fn seg_queue_matches_oracle_under_fallback_pinning(
            ops in proptest::collection::vec((0u8..6, 0u16..1000), 1..400),
        ) {
            let _serial = crate::epoch_slots::quiescence_lock();
            crate::epoch_slots::set_fallback_forced(true);
            let result = std::panic::catch_unwind(|| run_script_queue(&ops));
            crate::epoch_slots::set_fallback_forced(false);
            result.unwrap();
        }

        /// The lock-free `Injector` agrees with the mutexed oracle.
        #[test]
        fn injector_matches_mutexed_oracle(
            ops in proptest::collection::vec((0u8..6, 0u16..1000), 1..400),
        ) {
            run_script_injector(&ops);
        }

        /// The Chase–Lev deque agrees with the mutexed oracle on arbitrary
        /// single-threaded push/pop/steal scripts (including buffer grows).
        #[test]
        fn chase_lev_matches_mutexed_oracle(
            ops in proptest::collection::vec((0u8..8, 0u16..1000), 1..500),
        ) {
            run_script_deque(&ops);
        }
    }

    /// Multi-threaded oracle comparison: the lock-free deque and the
    /// mutexed reference run the same randomized push/steal interleaving;
    /// both must deliver every pushed element exactly once.
    #[test]
    fn chase_lev_interleaved_steals_match_reference_semantics() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::{Arc, Mutex};

        for round in 0..4u64 {
            let w: Worker<u64> = Worker::new();
            let oracle = Arc::new(reference::Deque::<u64>::new());
            let done = Arc::new(AtomicBool::new(false));
            let stolen = Arc::new(Mutex::new(Vec::new()));
            let oracle_stolen = Arc::new(Mutex::new(Vec::new()));

            let threads: Vec<_> = (0..2)
                .map(|_| {
                    let s = w.stealer();
                    let oracle = Arc::clone(&oracle);
                    let done = Arc::clone(&done);
                    let stolen = Arc::clone(&stolen);
                    let oracle_stolen = Arc::clone(&oracle_stolen);
                    std::thread::spawn(move || loop {
                        let mut progress = false;
                        if let Steal::Success(v) = s.steal() {
                            stolen.lock().unwrap().push(v);
                            progress = true;
                        }
                        if let Steal::Success(v) = oracle.steal() {
                            oracle_stolen.lock().unwrap().push(v);
                            progress = true;
                        }
                        if !progress && done.load(Ordering::Acquire) && s.is_empty() && oracle.is_empty() {
                            return;
                        }
                    })
                })
                .collect();

            let n = 4000u64;
            let mut kept = Vec::new();
            let mut oracle_kept = Vec::new();
            for i in 0..n {
                let v = round * 1_000_000 + i;
                w.push(v);
                oracle.push(v);
                if i % 5 == 0 {
                    if let Some(x) = w.pop() {
                        kept.push(x);
                    }
                    if let Some(x) = oracle.pop() {
                        oracle_kept.push(x);
                    }
                }
            }
            while let Some(x) = w.pop() {
                kept.push(x);
            }
            while let Some(x) = oracle.pop() {
                oracle_kept.push(x);
            }
            done.store(true, Ordering::Release);
            for t in threads {
                t.join().unwrap();
            }
            let mut all: Vec<u64> = stolen.lock().unwrap().clone();
            all.extend(kept);
            all.sort_unstable();
            let mut oracle_all: Vec<u64> = oracle_stolen.lock().unwrap().clone();
            oracle_all.extend(oracle_kept);
            oracle_all.sort_unstable();
            assert_eq!(all, oracle_all, "both deliver the same multiset, exactly once");
            assert_eq!(all.len(), n as usize);
        }
    }

    /// Multi-threaded SegQueue churn cycling through hundreds of segments:
    /// segment retirement and deferred reclamation under concurrent
    /// pinning.  Values are boxed so a reclamation bug (double free,
    /// use-after-free of a popped slot) corrupts the allocator loudly
    /// rather than silently; exactly-once delivery is asserted by count.
    fn churn(threads: usize, per_thread: usize) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        let q: Arc<SegQueue<Box<usize>>> = Arc::new(SegQueue::new());
        let total = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let q = Arc::clone(&q);
                let total = Arc::clone(&total);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        q.push(Box::new(t * 100_000 + i));
                        if i % 2 == 1 {
                            while q.pop().is_none() {
                                std::thread::yield_now();
                            }
                            while q.pop().is_none() {
                                std::thread::yield_now();
                            }
                            total.fetch_add(2, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        let mut rest = 0;
        while q.pop().is_some() {
            rest += 1;
        }
        assert_eq!(total.load(Ordering::Relaxed) + rest, threads * per_thread, "every element exactly once");
    }

    /// Churn on the epoch-slot fast path (the default), asserting the slot
    /// protocol actually carried the load.
    #[test]
    fn seg_queue_reclamation_churn() {
        let _serial = crate::epoch_slots::quiescence_lock();
        let before = crate::epoch_slots::pin_counts().0;
        churn(4, 10_000);
        assert!(crate::epoch_slots::pin_counts().0 > before, "slot pins carried the churn");
    }

    /// The identical churn with every pin forced through the retained
    /// two-parity protocol: the differential oracle for the slot path.
    #[test]
    fn seg_queue_reclamation_churn_fallback_oracle() {
        let _serial = crate::epoch_slots::quiescence_lock();
        crate::epoch_slots::set_fallback_forced(true);
        let before = crate::epoch_slots::pin_counts().1;
        let result = std::panic::catch_unwind(|| churn(4, 10_000));
        crate::epoch_slots::set_fallback_forced(false);
        result.unwrap();
        assert!(crate::epoch_slots::pin_counts().1 > before, "fallback pins carried the churn");
    }

    /// Churn while a toggler thread flips the forced-fallback switch, so
    /// slot-pinned and parity-pinned operations interleave on the same
    /// queue: the mixed mode the advance rule must support (each protocol
    /// independently blocks the advance).
    #[test]
    fn seg_queue_reclamation_churn_mixed_pinning() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let _serial = crate::epoch_slots::quiescence_lock();
        let stop = Arc::new(AtomicBool::new(false));
        let toggler = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut forced = false;
                while !stop.load(Ordering::Acquire) {
                    forced = !forced;
                    crate::epoch_slots::set_fallback_forced(forced);
                    std::thread::yield_now();
                }
            })
        };
        let result = std::panic::catch_unwind(|| churn(4, 10_000));
        stop.store(true, Ordering::Release);
        toggler.join().unwrap();
        crate::epoch_slots::set_fallback_forced(false);
        result.unwrap();
    }

    /// More simultaneous pinners than epoch slots: the overflow threads
    /// must degrade to the fallback protocol (and the whole cohort still
    /// pins and unpins correctly).  Slots are recycled at thread exit, so
    /// later tests get the fast path back.
    #[test]
    fn slot_exhaustion_falls_back_to_parity_protocol() {
        use std::sync::{Arc, Barrier};

        let _serial = crate::epoch_slots::quiescence_lock();
        let q: Arc<SegQueue<usize>> = Arc::new(SegQueue::new());
        let n = 96; // MAX_SLOTS is 64
        let before_fallback = crate::epoch_slots::pin_counts().1;
        let barrier = Arc::new(Barrier::new(n));
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let q = Arc::clone(&q);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    // First push claims a slot (or exhausts the array);
                    // the barrier keeps all claims alive simultaneously.
                    q.push(i);
                    barrier.wait();
                    q.push(i + n);
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        assert!(
            crate::epoch_slots::pin_counts().1 > before_fallback,
            "overflow threads took the fallback protocol"
        );
        let mut count = 0;
        while q.pop().is_some() {
            count += 1;
        }
        assert_eq!(count, 2 * n);
    }
}
