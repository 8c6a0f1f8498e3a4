//! The parallel GC worker pool: a work-bucket scheduler over two-level work
//! stealing.
//!
//! LXR "employs parallelism for scalability in every collection phase"
//! (§1, §3.5).  The pool owns a fixed set of persistent worker threads, and
//! [`WorkerPool::run_bucket_graph`] is its one phase entry point: a phase
//! is a **DAG of work buckets** (the mmtk scheduler's bucket idea) whose
//! items the workers (plus the calling thread) drain, with processing an
//! item free to push follow-on items (e.g. recursive decrements or
//! transitive marking).  A flat phase — seeds plus their transitive
//! follow-on work — is the degenerate one-bucket graph: the caller declares
//! one bucket and pushes follow-on work into the id
//! [`BucketGraph::bucket`] returned.
//!
//! # Scheduling
//!
//! Work is scheduled at two levels:
//!
//! * **Local deques.**  Every participant owns a lock-free Chase–Lev deque
//!   ([`crossbeam::deque::Worker`]).  [`BucketHandle::push`] into an open
//!   bucket appends to the owner's end, and the owner pops from that same
//!   end — follow-on work runs LIFO on the thread that generated it, which
//!   keeps the hot path free of shared-memory contention and walks object
//!   graphs depth-first-ish (good locality for recursive
//!   increments/decrements).  The deques are bounded but growable: they
//!   start small and double when full, up to a spill threshold beyond which
//!   pushes overflow to the bucket's injector — a pathological expansion
//!   (one item fanning out into millions) is bounded per worker and
//!   published where everyone can help.
//! * **Bucket injectors.**  Root-bucket seeds are dealt into the local
//!   deques in one contiguous run per participant (neighbouring seeds
//!   usually share cache lines); local overflow, and every item for a
//!   bucket that has not opened yet, goes to that bucket's lock-free
//!   segmented [`crossbeam::deque::Injector`].  An idle participant first
//!   steals FIFO from its siblings' deques (scanning from its own index so
//!   contention spreads out), then from the injectors of the open buckets.
//!
//! # Work buckets
//!
//! Phases with internal dependency structure (the RC pause's "decrements
//! before deferred release", "SATB feed before catch-up") run as *one*
//! fork/join instead of back-to-back phases that each pay a full barrier:
//! the caller declares buckets with dependency edges and seed items.
//!
//! * Bucket ids are declaration-ordered and an edge may only point at an
//!   earlier bucket, so the graph is **acyclic by construction** — there is
//!   no run-time cycle detection to get wrong.
//! * Each bucket keeps a pending counter: it is incremented before an item
//!   becomes visible and decremented after the item's processing (and
//!   hence all of its pushes) completes, so a bucket is **drained** exactly
//!   when it is open and its counter is zero.  Exactly one worker wins the
//!   drained transition; the winner decrements each successor's
//!   outstanding-dependency count and opens those that reach zero (an
//!   empty bucket cascades straight through, bounded by the longest
//!   dependency chain).  The graph is done when every bucket has drained.
//! * Items may be pushed into any bucket that has not drained: open-bucket
//!   pushes land on the pusher's local deque, closed-bucket pushes park in
//!   the target's injector until it opens.  The drain detection relies on
//!   the *push contract*: pushes into bucket B come only from B's own items
//!   or from items of B's (transitive) dependency predecessors — a drained
//!   predecessor has no in-flight items, so no push can arrive after B
//!   retires.  Violations are caught by a `debug_assert` in
//!   [`BucketHandle::push`].
//! * Workers with nothing to pop or steal **park** on a monitor instead of
//!   spinning; every injector push and bucket opening wakes them, and a
//!   2 ms timeout bounds the cost of a lost wakeup.
//!
//! The concurrent crew does *not* run on the bucket scheduler: crew workers
//! must yield within one preemption quantum of a pause request, while a
//! bucket-graph participant runs its graph to completion (see
//! `lxr-core`'s `concurrent` module).
//!
//! # Observability
//!
//! Every participant owns a cache-line-padded counter block
//! (pushes/pops/steals/parks plus a queue-depth gauge) cheap enough for
//! release builds; [`WorkerPool::sched_totals`] sums them (the runtime
//! folds per-collection deltas into `GcStats`) and
//! [`WorkerPool::phase_snapshot`] renders them per worker, together with
//! the running phase's open buckets and their pending-item counts.

use crate::watchdog::Watchdog;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

type Job = Box<dyn FnOnce(usize) + Send + 'static>;

/// Per-worker scheduler counters, cache-line padded so two workers bumping
/// their own counters never share a line.  Cheap enough for release builds:
/// every update is a relaxed RMW (or plain store) on memory only this
/// worker writes on the hot path.
#[repr(align(128))]
#[derive(Default)]
struct WorkerCounters {
    /// Follow-on items pushed by this worker (local deque or spilled).
    pushes: AtomicU64,
    /// Items this worker popped from its own local deque.
    pops: AtomicU64,
    /// Items this worker stole from a sibling deque or a bucket injector.
    steals: AtomicU64,
    /// Times this worker parked on the phase monitor waiting for work.
    parks: AtomicU64,
    /// Last observed local-deque depth (a gauge, not a counter).
    depth: AtomicUsize,
}

/// Totals of the per-worker scheduler counters, summed across every
/// participant.  Monotonic across the pool's lifetime; consumers fold
/// per-collection deltas into [`lxr_runtime` stats](crate::stats::GcStats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedTotals {
    /// Follow-on items pushed.
    pub pushes: u64,
    /// Items popped from a local deque by its owner.
    pub pops: u64,
    /// Items obtained by stealing (sibling deque or bucket injector).
    pub steals: u64,
    /// Parking events (a worker found no work and blocked on the monitor).
    pub parks: u64,
}

/// A pool of persistent GC worker threads used for parallel collection
/// phases.
///
/// # Example
///
/// ```
/// use lxr_runtime::workers::{BucketGraph, WorkerPool};
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use std::sync::Arc;
///
/// let pool = WorkerPool::new(4);
/// let sum = Arc::new(AtomicUsize::new(0));
/// let sum2 = sum.clone();
/// // A flat phase is a one-bucket graph: sum 1..=100 in parallel, each
/// // item n <= 50 pushing n + 100 as follow-on work into the same bucket.
/// let mut graph = BucketGraph::new();
/// let bucket = graph.bucket("sum", &[], (1..=100usize).collect());
/// pool.run_bucket_graph("example", graph, move |_bucket, item, ctx| {
///     sum2.fetch_add(item, Ordering::Relaxed);
///     if item <= 50 {
///         ctx.push(bucket, item + 100);
///     }
/// });
/// assert_eq!(sum.load(Ordering::Relaxed), 5050 + (101..=150).sum::<usize>());
/// ```
pub struct WorkerPool {
    senders: Vec<Sender<Job>>,
    threads: Vec<std::thread::JoinHandle<()>>,
    /// Deadline applied to every phase (disarmed by default; armed from
    /// [`crate::RuntimeOptions::watchdog_ms`] at runtime construction).
    watchdog: Mutex<Watchdog>,
    /// Observation point for watchdog state dumps: the currently running
    /// phase, if any.
    probe: Mutex<Option<PhaseProbe>>,
    /// One counter block per participant (workers, then the caller last).
    /// Lives on the pool, not the phase, so totals accumulate across a
    /// whole collection cycle.
    counters: Arc<Vec<WorkerCounters>>,
}

/// What a state dump can see of a running phase.
struct PhaseProbe {
    label: &'static str,
    started: Instant,
    /// Renders the phase's bucket state (drained count, open buckets with
    /// their pending-item counts).
    detail: Box<dyn Fn() -> String + Send>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("workers", &self.senders.len()).finish()
    }
}

/// Local-deque length beyond which pushes spill to the bucket's injector.
/// Bounds per-worker deque memory during pathological fan-out (one item
/// expanding into millions) and publishes the excess where every idle
/// participant can grab it FIFO.
const SPILL_THRESHOLD: usize = 4096;

impl WorkerPool {
    /// Spawns `workers` persistent worker threads (at least one).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let mut senders = Vec::with_capacity(workers);
        let mut threads = Vec::with_capacity(workers);
        for i in 0..workers {
            let (tx, rx): (Sender<Job>, Receiver<Job>) = unbounded();
            senders.push(tx);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("gc-worker-{i}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            job(i);
                        }
                    })
                    .expect("failed to spawn GC worker"),
            );
        }
        let counters = Arc::new((0..workers + 1).map(|_| WorkerCounters::default()).collect());
        WorkerPool {
            senders,
            threads,
            watchdog: Mutex::new(Watchdog::disarmed()),
            probe: Mutex::new(None),
            counters,
        }
    }

    /// Sums the per-worker scheduler counters across every participant.
    /// Monotonic; callers diff successive snapshots for per-cycle deltas.
    pub fn sched_totals(&self) -> SchedTotals {
        let mut t = SchedTotals::default();
        for c in self.counters.iter() {
            t.pushes += c.pushes.load(Ordering::Relaxed);
            t.pops += c.pops.load(Ordering::Relaxed);
            t.steals += c.steals.load(Ordering::Relaxed);
            t.parks += c.parks.load(Ordering::Relaxed);
        }
        t
    }

    /// Arms (or disarms) the per-phase deadline.  Called once at runtime
    /// construction from [`crate::RuntimeOptions::watchdog_ms`].
    pub fn arm_watchdog(&self, watchdog: Watchdog) {
        *self.watchdog.lock().unwrap_or_else(|e| e.into_inner()) = watchdog;
    }

    fn current_watchdog(&self) -> Watchdog {
        self.watchdog.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// One line describing the pool for watchdog state dumps: thread count,
    /// the running phase's label, age and open buckets (each with its
    /// pending-item count), and per-worker queue-depth and
    /// push/pop/steal/park counters.
    pub fn phase_snapshot(&self) -> String {
        let running = match self.probe.try_lock() {
            Ok(guard) => match &*guard {
                Some(p) => {
                    format!("phase `{}` running for {:?}; {}", p.label, p.started.elapsed(), (p.detail)())
                }
                None => "no phase running".to_string(),
            },
            Err(_) => "(probe contended)".to_string(),
        };
        let mut per_worker = String::new();
        for (i, c) in self.counters.iter().enumerate() {
            use std::fmt::Write;
            let _ = write!(
                per_worker,
                " w{i}[q={} push={} pop={} steal={} park={}]",
                c.depth.load(Ordering::Relaxed),
                c.pushes.load(Ordering::Relaxed),
                c.pops.load(Ordering::Relaxed),
                c.steals.load(Ordering::Relaxed),
                c.parks.load(Ordering::Relaxed),
            );
        }
        format!("workers: {} threads; {};{}", self.senders.len(), running, per_worker)
    }

    /// Number of worker threads (excluding the calling thread, which also
    /// participates in phases).
    pub fn size(&self) -> usize {
        self.senders.len()
    }

    /// Runs one bucket-graph phase to completion and returns the order in
    /// which buckets opened (root buckets first, every other bucket after
    /// its last dependency drained).
    ///
    /// Workers drain any open bucket's items; `process` receives the item's
    /// bucket id and may push follow-on work into any not-yet-drained
    /// bucket through the [`BucketHandle`].  A bucket retires when it is
    /// open with zero items queued or in flight; retiring opens successors
    /// whose dependencies have all drained, and the phase ends when every
    /// bucket has retired.  The calling thread participates alongside the
    /// workers.
    pub fn run_bucket_graph<T, F>(&self, label: &'static str, graph: BucketGraph<T>, process: F) -> Vec<usize>
    where
        T: Send + 'static,
        F: Fn(usize, T, &BucketHandle<T>) + Send + Sync + 'static,
    {
        let participants = self.senders.len() + 1;
        let mut states = Vec::with_capacity(graph.buckets.len());
        let mut successors: Vec<Vec<usize>> = vec![Vec::new(); graph.buckets.len()];
        for (id, spec) in graph.buckets.iter().enumerate() {
            for &d in &spec.deps {
                successors[d].push(id);
            }
        }
        let locals: Vec<Worker<(usize, T)>> = (0..participants).map(|_| Worker::new()).collect();
        // The participant that receives the next root bucket's first run.
        let mut first = 0usize;
        for (id, (spec, succ)) in graph.buckets.into_iter().zip(successors).enumerate() {
            let state = BucketState {
                label: spec.label,
                queue: Injector::new(),
                pending: AtomicUsize::new(spec.seeds.len()),
                deps_remaining: AtomicUsize::new(spec.deps.len()),
                open: AtomicBool::new(false),
                drained: AtomicBool::new(false),
                successors: succ,
            };
            if spec.deps.is_empty() {
                // Root-bucket seeds are dealt into the local deques in one
                // contiguous run per participant, so every participant
                // starts with work.  Neighbouring seeds tend to touch
                // neighbouring memory (the fields of one object, one
                // line's side metadata): a run keeps them on one thread
                // instead of spreading them over threads that would then
                // contend for the same cache lines.
                let run = spec.seeds.len().div_ceil(participants);
                for (i, s) in spec.seeds.into_iter().enumerate() {
                    locals[(first + i / run) % participants].push((id, s));
                }
                first += 1;
            } else {
                // Non-root seeds wait in the bucket's own injector until it
                // opens.
                for s in spec.seeds {
                    state.queue.push(s);
                }
            }
            states.push(state);
        }
        let shared = Arc::new(GraphShared {
            remaining: AtomicUsize::new(states.len()),
            buckets: states,
            stealers: locals.iter().map(Worker::stealer).collect(),
            open_log: Mutex::new(Vec::new()),
            parked: AtomicUsize::new(0),
            monitor: Mutex::new(()),
            wake: Condvar::new(),
            counters: Arc::clone(&self.counters),
            watchdog: self.current_watchdog(),
            started: Instant::now(),
            label,
        });
        // Open the roots before any worker runs: an empty root cascades its
        // successors here, single-threaded, which is safe because the same
        // retire protocol runs either way.
        for id in 0..shared.buckets.len() {
            if shared.buckets[id].deps_remaining.load(Ordering::Relaxed) == 0 {
                shared.open_bucket(id);
            }
        }
        let probe_shared = Arc::clone(&shared);
        *self.probe.lock().unwrap_or_else(|e| e.into_inner()) = Some(PhaseProbe {
            label,
            started: shared.started,
            detail: Box::new(move || probe_shared.bucket_summary()),
        });

        let process = Arc::new(process);
        let (done_tx, done_rx) = unbounded::<()>();
        // Hand the deques out in creation order so `stealers[worker_id]` is
        // each participant's own deque (the steal rotation skips itself).
        let mut locals = locals.into_iter();
        for (i, sender) in self.senders.iter().enumerate() {
            let handle = BucketHandle { local: locals.next(), shared: Arc::clone(&shared), worker_id: i };
            let process = Arc::clone(&process);
            let done_tx = done_tx.clone();
            let job: Job = Box::new(move |worker_id| {
                debug_assert_eq!(worker_id, handle.worker_id);
                drain_graph(&handle, process.as_ref());
                let _ = done_tx.send(());
            });
            sender.send(job).expect("GC worker thread has exited");
        }
        let handle =
            BucketHandle { local: locals.next(), shared: Arc::clone(&shared), worker_id: participants - 1 };
        drain_graph(&handle, process.as_ref());
        for _ in 0..self.senders.len() {
            if shared.watchdog.armed() {
                loop {
                    match done_rx.recv_timeout(Duration::from_millis(20)) {
                        Ok(()) => break,
                        Err(RecvTimeoutError::Timeout) => shared.watchdog.check(label, shared.started),
                        Err(RecvTimeoutError::Disconnected) => panic!("GC worker thread has exited"),
                    }
                }
            } else {
                done_rx.recv().expect("GC worker thread has exited");
            }
        }
        *self.probe.lock().unwrap_or_else(|e| e.into_inner()) = None;
        debug_assert!(shared.buckets.iter().all(|b| b.drained.load(Ordering::Relaxed)));
        let log = std::mem::take(&mut *shared.open_log.lock().unwrap_or_else(|e| e.into_inner()));
        log
    }
}

/// How long a parked participant sleeps before re-checking for work on its
/// own.  Wakers notify the monitor on every injector push and bucket
/// opening, so the timeout only bounds the cost of a lost wakeup.
const PARK_TICK: Duration = Duration::from_millis(2);

/// A declaration of one pause's work-bucket DAG: each bucket has a label,
/// dependency edges to earlier buckets, and seed items.
///
/// Bucket ids are declaration-ordered and dependencies may only name
/// already-declared buckets, so the graph is **acyclic by construction** —
/// no cycle check is needed at run time.
///
/// # Example
///
/// ```
/// use lxr_runtime::workers::{BucketGraph, WorkerPool};
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use std::sync::Arc;
///
/// let mut g = BucketGraph::new();
/// let a = g.bucket("decs", &[], vec![10usize, 20]);
/// let b = g.bucket("release", &[a], vec![1]);
/// let count = Arc::new(AtomicUsize::new(0));
/// let count2 = count.clone();
/// let pool = WorkerPool::new(2);
/// let order = pool.run_bucket_graph("pause", g, move |_bucket, item, _ctx| {
///     count2.fetch_add(item, Ordering::Relaxed);
/// });
/// assert_eq!(order, vec![a, b]); // `release` opened after `decs` drained
/// assert_eq!(count.load(Ordering::Relaxed), 31);
/// ```
pub struct BucketGraph<T> {
    buckets: Vec<BucketSpec<T>>,
}

struct BucketSpec<T> {
    label: &'static str,
    deps: Vec<usize>,
    seeds: Vec<T>,
}

impl<T> Default for BucketGraph<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> BucketGraph<T> {
    /// An empty graph.
    pub fn new() -> Self {
        BucketGraph { buckets: Vec::new() }
    }

    /// Declares a bucket and returns its id.  `deps` must name buckets
    /// declared earlier (their ids are smaller), which makes the graph
    /// acyclic by construction; the bucket opens once every dependency has
    /// drained.  A bucket with no dependencies is a root and opens
    /// immediately.
    ///
    /// # Panics
    ///
    /// Panics if a dependency id is not smaller than this bucket's id.
    pub fn bucket(&mut self, label: &'static str, deps: &[usize], seeds: Vec<T>) -> usize {
        let id = self.buckets.len();
        let mut deps: Vec<usize> = deps.to_vec();
        deps.sort_unstable();
        deps.dedup();
        for &d in &deps {
            assert!(d < id, "bucket `{label}` depends on not-yet-declared bucket {d}");
        }
        self.buckets.push(BucketSpec { label, deps, seeds: seeds.into_iter().collect() });
        id
    }

    /// Number of declared buckets.
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// Whether no buckets have been declared.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }
}

/// Run-time state of one bucket.
struct BucketState<T> {
    label: &'static str,
    /// Items pushed while the bucket was closed, or spilled past the local
    /// deques; drained by anyone once the bucket is open.
    queue: Injector<T>,
    /// Items queued or in flight for this bucket.  Transiently zero only
    /// when the bucket is truly empty: the counter is incremented before an
    /// item becomes visible and decremented only after its processing (and
    /// all of its pushes) completes.
    pending: AtomicUsize,
    /// Dependencies not yet drained; the bucket opens when this hits zero.
    deps_remaining: AtomicUsize,
    /// Whether workers may process this bucket's items.
    open: AtomicBool,
    /// Whether the bucket has retired (open and observed empty); set by
    /// exactly one winner, which then opens the successors.
    drained: AtomicBool,
    /// Buckets whose `deps_remaining` this bucket decrements on retiring.
    successors: Vec<usize>,
}

/// State shared by every participant of one bucket-graph phase.
struct GraphShared<T> {
    buckets: Vec<BucketState<T>>,
    /// Buckets not yet drained; the phase ends when this reaches zero.
    remaining: AtomicUsize,
    /// One stealer per participant's local deque.
    stealers: Vec<Stealer<(usize, T)>>,
    /// Bucket-opening order, for the determinism tests and diagnostics.
    open_log: Mutex<Vec<usize>>,
    /// Participants currently blocked on the monitor; wakers skip the lock
    /// entirely while this is zero.
    parked: AtomicUsize,
    monitor: Mutex<()>,
    wake: Condvar,
    counters: Arc<Vec<WorkerCounters>>,
    watchdog: Watchdog,
    started: Instant,
    label: &'static str,
}

/// Handle given to bucket-graph callbacks for pushing follow-on work.
pub struct BucketHandle<T> {
    /// This participant's local deque of `(bucket, item)` pairs.
    local: Option<Worker<(usize, T)>>,
    shared: Arc<GraphShared<T>>,
    /// The index of the worker running this callback (the calling thread is
    /// the last index).
    pub worker_id: usize,
}

impl<T> BucketHandle<T> {
    /// Enqueues a follow-on item into `bucket`.
    ///
    /// May target this item's own bucket or any other bucket, **provided**
    /// the target has not already drained — the scheduler's drain detection
    /// relies on pushes into a bucket coming only from its own items or
    /// from items of its (transitive) dependency predecessors, which cannot
    /// still be in flight once the target retires.
    ///
    /// Items for an open bucket land on this worker's local deque (LIFO)
    /// unless it is full; items for a closed bucket are parked in that
    /// bucket's injector until it opens.
    pub fn push(&self, bucket: usize, item: T) {
        let b = &self.shared.buckets[bucket];
        debug_assert!(!b.drained.load(Ordering::Relaxed), "push into already-drained bucket `{}`", b.label);
        b.pending.fetch_add(1, Ordering::Relaxed);
        let counters = &self.shared.counters[self.worker_id];
        counters.pushes.fetch_add(1, Ordering::Relaxed);
        match &self.local {
            Some(local) if b.open.load(Ordering::Relaxed) && local.len() < SPILL_THRESHOLD => {
                local.push((bucket, item));
                counters.depth.store(local.len(), Ordering::Relaxed);
            }
            _ => {
                lxr_failpoints::failpoint!("workers.spill");
                b.queue.push(item);
                self.shared.wake_one_if_parked();
            }
        }
    }
}

impl<T> GraphShared<T> {
    /// Records that one item of `bucket` finished processing; the last item
    /// out tries to retire the bucket.
    fn finish_item(&self, bucket: usize) {
        if self.buckets[bucket].pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.try_retire(bucket);
        }
    }

    /// Retires `bucket` if it is open with nothing queued or in flight.
    /// Exactly one caller wins the `drained` swap; the winner decrements
    /// each successor's dependency count (opening those that reach zero)
    /// and drops the phase's remaining-bucket count.
    fn try_retire(&self, bucket: usize) {
        let b = &self.buckets[bucket];
        if !b.open.load(Ordering::Acquire) || b.pending.load(Ordering::Acquire) != 0 {
            return;
        }
        if b.drained.swap(true, Ordering::AcqRel) {
            return;
        }
        for &s in &b.successors {
            if self.buckets[s].deps_remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                self.open_bucket(s);
            }
        }
        self.remaining.fetch_sub(1, Ordering::AcqRel);
        self.notify_all();
    }

    /// Opens `bucket` and immediately tries to retire it — an empty bucket
    /// cascades to its successors without any worker touching it.  The
    /// cascade depth is bounded by the longest dependency chain.
    fn open_bucket(&self, bucket: usize) {
        let b = &self.buckets[bucket];
        if b.open.swap(true, Ordering::AcqRel) {
            return; // already open (e.g. an empty-root cascade got here first)
        }
        self.open_log.lock().unwrap_or_else(|e| e.into_inner()).push(bucket);
        self.notify_all();
        self.try_retire(bucket);
    }

    /// Whether any participant could find an item right now: a non-empty
    /// sibling deque, or a non-empty injector of an open, undrained bucket.
    fn has_visible_work(&self) -> bool {
        self.stealers.iter().any(|s| !s.is_empty())
            || self.buckets.iter().any(|b| {
                b.open.load(Ordering::Relaxed) && !b.drained.load(Ordering::Relaxed) && !b.queue.is_empty()
            })
    }

    /// Parks the calling participant until woken or the park tick elapses.
    /// The park predicate is re-checked under the monitor lock, so a wakeup
    /// posted between the caller's last scan and the lock is never lost;
    /// the timeout bounds the one remaining race (a waker that observed
    /// `parked == 0` just before this thread blocked).
    fn park(&self, worker_id: usize) {
        let guard = self.monitor.lock().unwrap_or_else(|e| e.into_inner());
        if self.remaining.load(Ordering::Acquire) == 0 || self.has_visible_work() {
            return;
        }
        self.counters[worker_id].parks.fetch_add(1, Ordering::Relaxed);
        self.parked.fetch_add(1, Ordering::SeqCst);
        let (_guard, _timeout) = self.wake.wait_timeout(guard, PARK_TICK).unwrap_or_else(|e| e.into_inner());
        self.parked.fetch_sub(1, Ordering::SeqCst);
        self.watchdog.check(self.label, self.started);
    }

    /// Wakes every parked participant (bucket opened or phase finished).
    fn notify_all(&self) {
        if self.parked.load(Ordering::SeqCst) > 0 {
            let _guard = self.monitor.lock().unwrap_or_else(|e| e.into_inner());
            self.wake.notify_all();
        }
    }

    /// Wakes one parked participant (a single item became stealable).
    fn wake_one_if_parked(&self) {
        if self.parked.load(Ordering::SeqCst) > 0 {
            let _guard = self.monitor.lock().unwrap_or_else(|e| e.into_inner());
            self.wake.notify_one();
        }
    }

    /// One line for watchdog state dumps: drained count plus the open,
    /// undrained buckets with their pending-item counts.
    fn bucket_summary(&self) -> String {
        let total = self.buckets.len();
        let drained = total - self.remaining.load(Ordering::Relaxed);
        let mut open = String::new();
        for b in &self.buckets {
            if b.open.load(Ordering::Relaxed) && !b.drained.load(Ordering::Relaxed) {
                use std::fmt::Write;
                let _ = write!(open, "{}({}) ", b.label, b.pending.load(Ordering::Relaxed));
            }
        }
        format!("buckets drained={drained}/{total} open=[{}]", open.trim_end())
    }
}

/// One participant's bucket-graph drain loop: local work first, then
/// sibling steals, then the open buckets' injectors; parks when idle.
fn drain_graph<T, F>(handle: &BucketHandle<T>, process: &F)
where
    F: Fn(usize, T, &BucketHandle<T>),
{
    let shared = &*handle.shared;
    let counters = &shared.counters[handle.worker_id];
    let siblings = shared.stealers.len();
    let mut idle_spins = 0u32;
    'scheduler: loop {
        // 1. Drain the local deque (LIFO: freshest follow-on work first).
        if let Some(local) = &handle.local {
            while let Some((bucket, item)) = local.pop() {
                counters.pops.fetch_add(1, Ordering::Relaxed);
                counters.depth.store(local.len(), Ordering::Relaxed);
                process(bucket, item, handle);
                shared.finish_item(bucket);
                idle_spins = 0;
            }
        }
        // 2. Steal: siblings first (rotating from our own index), then the
        //    injectors of the open, undrained buckets.
        lxr_failpoints::failpoint!("workers.steal");
        let mut contended = false;
        for k in 1..siblings {
            let victim = (handle.worker_id + k) % siblings;
            match shared.stealers[victim].steal() {
                Steal::Success((bucket, item)) => {
                    counters.steals.fetch_add(1, Ordering::Relaxed);
                    process(bucket, item, handle);
                    shared.finish_item(bucket);
                    idle_spins = 0;
                    continue 'scheduler;
                }
                Steal::Retry => contended = true,
                Steal::Empty => {}
            }
        }
        for (bucket, b) in shared.buckets.iter().enumerate() {
            if !b.open.load(Ordering::Acquire) || b.drained.load(Ordering::Relaxed) {
                continue;
            }
            match b.queue.steal() {
                Steal::Success(item) => {
                    counters.steals.fetch_add(1, Ordering::Relaxed);
                    process(bucket, item, handle);
                    shared.finish_item(bucket);
                    idle_spins = 0;
                    continue 'scheduler;
                }
                Steal::Retry => contended = true,
                Steal::Empty => {
                    // Everything this bucket had is drained or in flight;
                    // if nothing is in flight either, retire it so its
                    // successors open.
                    if b.pending.load(Ordering::Acquire) == 0 {
                        shared.try_retire(bucket);
                    }
                }
            }
        }
        // 3. Nothing found: the phase is over once every bucket retired.
        if shared.remaining.load(Ordering::Acquire) == 0 {
            return;
        }
        idle_spins += 1;
        if contended {
            std::hint::spin_loop();
            continue;
        }
        if idle_spins > 128 {
            // Idle long enough that spinning wastes a core: park on the
            // monitor until a bucket opens or an injector push lands.  The
            // park re-checks the exit and work predicates under the lock
            // and times out every PARK_TICK as a lost-wakeup backstop.
            shared.park(handle.worker_id);
            idle_spins = 65; // re-scan a few times before parking again
        } else if idle_spins > 64 {
            shared.watchdog.check(shared.label, shared.started);
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channels terminates the worker loops.
        self.senders.clear();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    /// A one-bucket graph over `seeds` (the flat-phase shape) and the id
    /// its follow-on work is pushed into.
    fn flat<T>(seeds: Vec<T>) -> (BucketGraph<T>, usize) {
        let mut g = BucketGraph::new();
        let bucket = g.bucket("flat", &[], seeds);
        (g, bucket)
    }

    #[test]
    fn processes_every_seed_exactly_once() {
        let pool = WorkerPool::new(4);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        let (g, _) = flat((0..1000usize).collect());
        pool.run_bucket_graph("test", g, move |_b, item, _| {
            seen2.lock().unwrap().push(item);
        });
        let mut v = seen.lock().unwrap().clone();
        assert_eq!(v.len(), 1000);
        v.sort_unstable();
        v.dedup();
        assert_eq!(v.len(), 1000);
    }

    #[test]
    fn follow_on_work_is_processed_transitively() {
        // Each item n < 512 pushes 2n and 2n+1: a binary tree of work.
        let pool = WorkerPool::new(3);
        let count = Arc::new(AtomicUsize::new(0));
        let count2 = count.clone();
        let (g, b) = flat(vec![1usize]);
        pool.run_bucket_graph("test", g, move |_b, item, ctx| {
            count2.fetch_add(1, Ordering::Relaxed);
            if item < 512 {
                ctx.push(b, 2 * item);
                ctx.push(b, 2 * item + 1);
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 1023);
    }

    #[test]
    fn empty_phase_returns_immediately() {
        let pool = WorkerPool::new(2);
        let (g, _) = flat(Vec::<usize>::new());
        pool.run_bucket_graph("test", g, |_b, _item, _ctx| panic!("no work expected"));
    }

    #[test]
    fn multiple_phases_reuse_the_same_pool() {
        let pool = WorkerPool::new(2);
        for round in 0..5 {
            let sum = Arc::new(AtomicUsize::new(0));
            let sum2 = sum.clone();
            let (g, _) = flat((0..100usize).collect());
            pool.run_bucket_graph("test", g, move |_b, item, _| {
                sum2.fetch_add(item, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 4950, "round {round}");
        }
    }

    #[test]
    fn work_is_distributed_across_threads() {
        // On a single hardware thread the caller can race through every
        // item before a worker thread is even scheduled, so participation
        // is forced deterministically: item 0 parks its processor until a
        // *different* participant has processed something.
        let pool = WorkerPool::new(4);
        let ids = Arc::new(Mutex::new(HashSet::new()));
        let ids2 = ids.clone();
        let (g, _) = flat((0..10_000usize).collect());
        pool.run_bucket_graph("test", g, move |_b, item, ctx| {
            let mut guard = ids2.lock().unwrap();
            guard.insert(ctx.worker_id);
            if item == 0 {
                while guard.len() < 2 {
                    drop(guard);
                    std::thread::yield_now();
                    guard = ids2.lock().unwrap();
                }
            }
        });
        // At least two distinct participants (workers + caller) took part.
        assert!(ids.lock().unwrap().len() >= 2);
    }

    #[test]
    fn local_queue_overflow_spills_into_growth_then_injector() {
        // Every seed fans out far beyond the deque's initial capacity and
        // past the spill threshold, so each participant's local deque must
        // grow (multiple times) and then overflow to the shared injector,
        // while siblings concurrently steal — with no item lost or
        // duplicated.
        let pool = WorkerPool::new(3);
        let count = Arc::new(AtomicUsize::new(0));
        let count2 = count.clone();
        let fanout = SPILL_THRESHOLD * 3; // forces growth *and* injector spill
        let (g, b) = flat(vec![0usize; 4]);
        pool.run_bucket_graph("test", g, move |_b, item, ctx| {
            count2.fetch_add(1, Ordering::Relaxed);
            if item == 0 {
                for _ in 0..fanout {
                    ctx.push(b, 1);
                }
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 4 + 4 * fanout);
    }

    /// Position of bucket `b` in an open log (panics if absent).
    fn pos(log: &[usize], b: usize) -> usize {
        log.iter().position(|&x| x == b).unwrap()
    }

    #[test]
    fn diamond_graph_opens_in_dependency_order() {
        // a -> {b, c} -> d.  Every a-event must precede b/c opening, and
        // both b and c must drain before d opens.
        let pool = WorkerPool::new(3);
        let mut g = BucketGraph::new();
        let a = g.bucket("a", &[], (0..64usize).collect());
        let b = g.bucket("b", &[a], (0..32usize).collect());
        let c = g.bucket("c", &[a], (0..32usize).collect());
        let d = g.bucket("d", &[b, c], vec![0usize]);
        let events = Arc::new(Mutex::new(Vec::new()));
        let events2 = events.clone();
        let log = pool.run_bucket_graph("diamond", g, move |bucket, _item, _ctx| {
            events2.lock().unwrap().push(bucket);
        });
        assert_eq!(log.len(), 4);
        assert_eq!(pos(&log, a), 0);
        assert!(pos(&log, b) < pos(&log, d));
        assert!(pos(&log, c) < pos(&log, d));
        let events = events.lock().unwrap();
        assert_eq!(events.len(), 64 + 32 + 32 + 1);
        // No b/c/d item ran before the last a item: a's drain gates them.
        let last_a = events.iter().rposition(|&e| e == a).unwrap();
        let first_other = events.iter().position(|&e| e != a).unwrap();
        assert!(last_a < first_other || events[..first_other].iter().all(|&e| e == a));
        assert!(events.iter().take_while(|&&e| e == a).count() == 64, "all a items ran first");
    }

    #[test]
    fn cross_bucket_pushes_feed_successors() {
        // Bucket 0 items each push one item into bucket 1 (closed while 0
        // runs); those items must be deferred, then all processed.
        let pool = WorkerPool::new(2);
        let mut g = BucketGraph::new();
        let decs = g.bucket("decs", &[], (0..100usize).collect());
        let rel = g.bucket("release", &[decs], Vec::new());
        let processed = Arc::new(Mutex::new(Vec::new()));
        let processed2 = processed.clone();
        let log = pool.run_bucket_graph("cross", g, move |bucket, item, ctx| {
            processed2.lock().unwrap().push((bucket, item));
            if bucket == 0 {
                ctx.push(1, item + 1000);
            }
        });
        assert_eq!(log, vec![decs, rel]);
        let processed = processed.lock().unwrap();
        assert_eq!(processed.len(), 200);
        let rel_items: Vec<usize> = processed.iter().filter(|(b, _)| *b == rel).map(|&(_, i)| i).collect();
        assert_eq!(rel_items.len(), 100);
        assert!(rel_items.iter().all(|&i| i >= 1000));
        // Bucket-1 items only ran after every bucket-0 item: the push into
        // the closed bucket parked in its injector until `decs` drained.
        let first_rel = processed.iter().position(|(b, _)| *b == rel).unwrap();
        assert!(processed[..first_rel].iter().all(|(b, _)| *b == decs));
    }

    #[test]
    fn pushes_to_transitively_closed_bucket_are_deferred() {
        // 0 -> 1 -> 2; bucket-0 items push directly into bucket 2 (a
        // transitive successor, two edges away).  The items must wait for
        // bucket 2 to open and all be processed exactly once.
        let pool = WorkerPool::new(2);
        let mut g = BucketGraph::new();
        let b0 = g.bucket("b0", &[], (0..50usize).collect());
        let b1 = g.bucket("b1", &[b0], vec![7usize]);
        let b2 = g.bucket("b2", &[b1], Vec::new());
        let count = Arc::new(AtomicUsize::new(0));
        let count2 = count.clone();
        let log = pool.run_bucket_graph("chain", g, move |bucket, _item, ctx| {
            count2.fetch_add(1, Ordering::Relaxed);
            if bucket == 0 {
                ctx.push(2, 0);
            }
        });
        assert_eq!(log, vec![b0, b1, b2]);
        assert_eq!(count.load(Ordering::Relaxed), 50 + 1 + 50);
    }

    #[test]
    fn empty_bucket_chain_cascades_immediately() {
        let pool = WorkerPool::new(2);
        let mut g = BucketGraph::new();
        let b0 = g.bucket("e0", &[], Vec::new());
        let b1 = g.bucket("e1", &[b0], Vec::new());
        let b2 = g.bucket("e2", &[b1], Vec::new());
        let log = pool.run_bucket_graph("cascade", g, |_b, _i: usize, _ctx| panic!("no work expected"));
        assert_eq!(log, vec![b0, b1, b2]);
    }

    #[test]
    fn sched_counters_account_for_every_item() {
        // pops + steals across all participants equals items processed;
        // pushes equals the follow-on items.
        let pool = WorkerPool::new(3);
        let before = pool.sched_totals();
        let mut g = BucketGraph::new();
        g.bucket("count", &[], (0..500usize).collect());
        let n = Arc::new(AtomicUsize::new(0));
        let n2 = n.clone();
        pool.run_bucket_graph("counters", g, move |bucket, item, ctx| {
            n2.fetch_add(1, Ordering::Relaxed);
            if item < 500 {
                ctx.push(bucket, item + 10_000);
            }
        });
        let delta_of = |after: SchedTotals| SchedTotals {
            pushes: after.pushes - before.pushes,
            pops: after.pops - before.pops,
            steals: after.steals - before.steals,
            parks: after.parks - before.parks,
        };
        let d = delta_of(pool.sched_totals());
        assert_eq!(n.load(Ordering::Relaxed), 1000);
        assert_eq!(d.pushes, 500, "one follow-on per seed");
        assert_eq!(d.pops + d.steals, 1000, "every item popped or stolen exactly once");
    }

    #[test]
    fn bucket_snapshot_names_open_buckets() {
        // The probe detail surfaces bucket state while a graph runs.
        let pool = WorkerPool::new(2);
        let mut g = BucketGraph::new();
        g.bucket("lazy-decs", &[], vec![0usize]);
        let snap = Arc::new(Mutex::new(String::new()));
        let snap2 = snap.clone();
        let pool = Arc::new(pool);
        let pool2 = Arc::clone(&pool);
        pool.run_bucket_graph("probe", g, move |_b, _i, _ctx| {
            *snap2.lock().unwrap() = pool2.phase_snapshot();
        });
        let snap = snap.lock().unwrap();
        assert!(snap.contains("buckets drained="), "snapshot has bucket detail: {snap}");
        assert!(snap.contains("lazy-decs(1)"), "snapshot names the open bucket and its item count: {snap}");
    }

    #[test]
    fn deep_recursion_stress_with_stealing() {
        // A long dependency chain plus wide fanout: each of 8 seeds builds
        // a chain of 5000 follow-ons; total items = 8 * 5001.
        let pool = WorkerPool::new(4);
        let count = Arc::new(AtomicUsize::new(0));
        let count2 = count.clone();
        let (g, b) = flat((0..8usize).map(|_| 5000usize).collect());
        pool.run_bucket_graph("test", g, move |_b, depth, ctx| {
            count2.fetch_add(1, Ordering::Relaxed);
            if depth > 0 {
                ctx.push(b, depth - 1);
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 8 * 5001);
    }
}
