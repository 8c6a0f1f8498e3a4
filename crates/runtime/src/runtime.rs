//! The runtime: ties the heap, a plan, mutators, the GC controller and the
//! concurrent collector thread together.

use crate::mutator::{Mutator, MutatorShared};
use crate::pausegate::PauseGate;
use crate::plan::{Collection, ConcurrentWork, Plan, PlanContext, PlanFactory, RootSet};
use crate::rendezvous::Rendezvous;
use crate::stats::{GcReason, GcStats, PauseRecord, WorkCounter};
use crate::workers::WorkerPool;
use crate::RuntimeOptions;
use lxr_heap::{BlockAllocator, HeapSpace, LargeObjectSpace};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Shrink hysteresis for elastic heaps: a chunk must be observed fully free
/// at this many *consecutive* pause epilogues before it is released back to
/// the OS, so chunks do not bounce across the mapping boundary between
/// allocation bursts.
const SHRINK_IDLE_PAUSES: u32 = 2;

/// Attributes of the current pause, filled in by the plan during
/// [`Plan::collect`] and folded into the [`PauseRecord`] by the controller.
#[derive(Debug)]
pub struct PauseAttrs {
    kind: Mutex<&'static str>,
    started_satb: AtomicBool,
    lazy_incomplete: AtomicBool,
}

impl Default for PauseAttrs {
    fn default() -> Self {
        PauseAttrs {
            kind: Mutex::new("gc"),
            started_satb: AtomicBool::new(false),
            lazy_incomplete: AtomicBool::new(false),
        }
    }
}

impl PauseAttrs {
    /// Sets the pause's plan-specific label.
    pub fn set_kind(&self, kind: &'static str) {
        *self.kind.lock() = kind;
    }

    /// Marks this pause as having started an SATB trace.
    pub fn set_started_satb(&self) {
        self.started_satb.store(true, Ordering::Relaxed);
    }

    /// Marks this pause as having begun before lazy concurrent work from the
    /// previous epoch had finished.
    pub fn set_lazy_incomplete(&self) {
        self.lazy_incomplete.store(true, Ordering::Relaxed);
    }
}

/// State shared by the runtime handle, the mutators and the GC threads.
pub struct RuntimeShared {
    /// The collector.
    pub plan: Arc<dyn Plan>,
    /// The heap arena.
    pub space: Arc<HeapSpace>,
    /// The global block lists.
    pub blocks: Arc<BlockAllocator>,
    /// The large object space.
    pub los: Arc<LargeObjectSpace>,
    /// Shared statistics.
    pub stats: Arc<GcStats>,
    /// The stop-the-world rendezvous.
    pub rendezvous: Arc<Rendezvous>,
    /// Runtime options.
    pub options: RuntimeOptions,
    /// The parallel GC worker pool.
    pub workers: Arc<WorkerPool>,
    /// The request-aware pause gate (disabled unless
    /// [`RuntimeOptions::pause_gate`](crate::RuntimeOptions) is set).
    pub gate: PauseGate,
    /// Attributes of the pause currently being executed.
    pub pause_attrs: Arc<PauseAttrs>,

    mutators: Mutex<Vec<Arc<MutatorShared>>>,
    next_mutator_id: AtomicUsize,
    run_start: Instant,
    /// Wake epoch for the concurrent crew: bumped on every wake so that one
    /// `notify_all` releases *every* crew worker exactly once (a consumed
    /// boolean would release only the first to run).
    concurrent_wake: Mutex<u64>,
    concurrent_cv: Condvar,
}

impl std::fmt::Debug for RuntimeShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuntimeShared")
            .field("plan", &self.plan.name())
            .field("options", &self.options)
            .finish_non_exhaustive()
    }
}

impl RuntimeShared {
    /// A structured snapshot of this runtime for watchdog dumps: plan,
    /// rendezvous state, worker-pool phase, work counters, plan gauges.
    /// Uses only `try_lock`-style accessors so it is safe to call from a
    /// thread that may itself hold runtime locks.
    pub fn state_snapshot(&self) -> String {
        let mut out = format!("runtime[{}]: up {:?}\n", self.plan.name(), self.run_start.elapsed());
        out.push_str(&format!("  {}\n", self.rendezvous.debug_state()));
        out.push_str(&format!("  {}\n", self.workers.phase_snapshot()));
        out.push_str(&format!("  stats: {}\n", self.stats.work_summary()));
        let gauges = self.plan.gauges();
        if !gauges.is_empty() {
            out.push_str(&format!("  plan: {gauges}\n"));
        }
        out
    }

    /// Runs the plan's sanity verifier against the current roots.  The
    /// caller must ensure the heap is quiescent (no concurrently running
    /// mutators); the runtime calls this from inside pauses, and stress
    /// tests call it from their single mutator thread after a failure.
    pub fn verify_now(&self) -> crate::verify::VerifyReport {
        let root_set = RootSet {
            mutator_roots: {
                let mutators = self.mutators.lock();
                mutators.iter().map(|m| m.roots.clone()).collect()
            },
        };
        self.plan.verify(&root_set)
    }

    fn wake_concurrent(&self) {
        let mut epoch = self.concurrent_wake.lock();
        *epoch += 1;
        self.concurrent_cv.notify_all();
    }

    /// Opportunistically wakes the concurrent crew because a mutator is
    /// about to go idle (an open-loop arrival gap): idle mutator CPU is the
    /// cheapest time to run lazy decrements and SATB marking.  No-op when
    /// the plan has no pending concurrent work or no crew exists.
    pub(crate) fn kick_concurrent(&self) {
        if self.options.concurrent_thread && self.plan.has_concurrent_work() {
            self.stats.add(WorkCounter::GateKicks, 1);
            self.wake_concurrent();
        }
    }

    /// Parks the calling crew worker until a wake epoch newer than
    /// `last_seen` is published (or shutdown).  Returns `false` on shutdown.
    fn wait_for_concurrent_wake(&self, last_seen: &mut u64) -> bool {
        let mut epoch = self.concurrent_wake.lock();
        while *epoch == *last_seen {
            if self.rendezvous.is_shutdown() {
                return false;
            }
            self.concurrent_cv.wait(&mut epoch);
        }
        *last_seen = *epoch;
        !self.rendezvous.is_shutdown()
    }
}

struct RuntimeOwner {
    shared: Arc<RuntimeShared>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Drop for RuntimeOwner {
    fn drop(&mut self) {
        self.shared.rendezvous.shutdown();
        self.shared.wake_concurrent();
        for t in self.threads.lock().drain(..) {
            let _ = t.join();
        }
    }
}

/// A handle to a running managed-heap runtime.
///
/// The handle is cheap to clone and may be shared across threads; the
/// runtime's GC threads shut down when the last clone is dropped (or when
/// [`shutdown`](Runtime::shutdown) is called explicitly).
#[derive(Clone)]
pub struct Runtime {
    shared: Arc<RuntimeShared>,
    owner: Arc<RuntimeOwner>,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime").field("plan", &self.shared.plan.name()).finish_non_exhaustive()
    }
}

impl Runtime {
    /// Creates a runtime using plan `P`.
    pub fn new<P: PlanFactory>(options: RuntimeOptions) -> Runtime {
        Self::with_factory(options, |ctx| Arc::new(P::build(ctx)) as Arc<dyn Plan>)
    }

    /// Creates a runtime with an explicit plan factory (used by the harness
    /// to select collectors by name at run time).
    pub fn with_factory(
        options: RuntimeOptions,
        factory: impl FnOnce(PlanContext) -> Arc<dyn Plan>,
    ) -> Runtime {
        let mut options = options;
        // Environment fallbacks, so stress binaries and CI can drive the
        // chaos/verification machinery without plumbing options everywhere.
        if options.failpoints.is_none() {
            if let Ok(spec) = std::env::var("LXR_FAILPOINTS") {
                if !spec.is_empty() {
                    options.failpoints = Some(spec);
                }
            }
        }
        if options.verify_every_n_gcs.is_none() {
            if let Ok(n) = std::env::var("LXR_VERIFY_EVERY_N_GCS") {
                if let Ok(n) = n.parse::<u64>() {
                    options.verify_every_n_gcs = Some(n);
                }
            }
        }
        if let Some(spec) = &options.failpoints {
            if !lxr_failpoints::ENABLED {
                eprintln!(
                    "warning: failpoint schedule `{spec}` requested but the `failpoints` feature is \
                     compiled out; running without fault injection"
                );
            } else if !lxr_failpoints::active() {
                // An already-active schedule (e.g. a test's ScheduleGuard)
                // takes precedence over per-runtime options.
                lxr_failpoints::install_spec(spec)
                    .unwrap_or_else(|e| panic!("invalid failpoint schedule `{spec}`: {e}"));
            }
        }
        let space = Arc::new(HeapSpace::new(options.heap.clone()));
        let blocks = Arc::new(BlockAllocator::new(space.clone()));
        let los = Arc::new(LargeObjectSpace::new(space.clone(), blocks.clone()));
        let stats = Arc::new(GcStats::new());
        let ctx = PlanContext {
            space: space.clone(),
            blocks: blocks.clone(),
            los: los.clone(),
            stats: stats.clone(),
            options: options.clone(),
        };
        let plan = factory(ctx);
        if let Some(min) = plan.minimum_heap_bytes() {
            assert!(
                options.heap.heap_bytes >= min,
                "plan `{}` requires a heap of at least {} MB (requested {} MB)",
                plan.name(),
                min >> 20,
                options.heap.heap_bytes >> 20
            );
        }
        let workers = Arc::new(WorkerPool::new(options.gc_workers));
        let shared = Arc::new(RuntimeShared {
            plan,
            space,
            blocks,
            los,
            stats,
            rendezvous: Arc::new(Rendezvous::new()),
            gate: PauseGate::new(
                options.pause_gate,
                std::time::Duration::from_millis(options.pause_gate_defer_ms),
            ),
            options,
            workers,
            pause_attrs: Arc::new(PauseAttrs::default()),
            mutators: Mutex::new(Vec::new()),
            next_mutator_id: AtomicUsize::new(0),
            run_start: Instant::now(),
            concurrent_wake: Mutex::new(0),
            concurrent_cv: Condvar::new(),
        });
        crate::watchdog::register_runtime(Arc::downgrade(&shared));
        shared.workers.arm_watchdog(crate::watchdog::Watchdog::new(shared.options.watchdog_ms));

        let mut threads = Vec::new();
        {
            let shared = shared.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("gc-controller".to_string())
                    .spawn(move || controller_loop(shared))
                    .expect("failed to spawn GC controller"),
            );
        }
        if shared.options.concurrent_thread {
            // The concurrent crew: as many workers as the options request,
            // capped by what the plan's concurrent phase can exploit.
            let crew_size =
                shared.options.concurrent_workers.clamp(1, shared.plan.max_concurrent_workers().max(1));
            for worker_id in 0..crew_size {
                let shared = shared.clone();
                threads.push(
                    std::thread::Builder::new()
                        .name(format!("gc-concurrent-{worker_id}"))
                        .spawn(move || concurrent_crew_loop(shared, worker_id, crew_size))
                        .expect("failed to spawn concurrent GC crew worker"),
                );
            }
        }
        let owner = Arc::new(RuntimeOwner { shared: shared.clone(), threads: Mutex::new(threads) });
        Runtime { shared, owner }
    }

    /// The shared runtime state (heap, plan, statistics).
    pub fn shared(&self) -> &Arc<RuntimeShared> {
        &self.shared
    }

    /// The collector plan.
    pub fn plan(&self) -> &Arc<dyn Plan> {
        &self.shared.plan
    }

    /// Shared statistics.
    pub fn stats(&self) -> &Arc<GcStats> {
        &self.shared.stats
    }

    /// The heap arena.
    pub fn space(&self) -> &Arc<HeapSpace> {
        &self.shared.space
    }

    /// The global block allocator (for heap-occupancy queries).
    pub fn blocks(&self) -> &Arc<BlockAllocator> {
        &self.shared.blocks
    }

    /// Registers a new mutator thread and returns its handle.
    pub fn bind_mutator(&self) -> Mutator {
        let id = self.shared.next_mutator_id.fetch_add(1, Ordering::Relaxed);
        let shared_mutator = Arc::new(MutatorShared {
            id,
            roots: Arc::new(Mutex::new(Vec::new())),
            live: AtomicBool::new(true),
        });
        self.shared.mutators.lock().push(shared_mutator.clone());
        self.shared.rendezvous.register_mutator();
        let plan_mutator = self.shared.plan.create_mutator(id);
        Mutator::new(self.shared.clone(), shared_mutator, plan_mutator)
    }

    /// Requests a collection from outside any mutator and waits for it to
    /// complete.  Useful for forcing a final collection in tests and in the
    /// harness.
    pub fn request_gc_and_wait(&self) {
        let watchdog = crate::watchdog::Watchdog::new(self.shared.options.watchdog_ms);
        let started = Instant::now();
        let target = self.shared.rendezvous.completed_collections() + 1;
        self.shared.rendezvous.request_gc(GcReason::Requested);
        while self.shared.rendezvous.completed_collections() < target {
            if self.shared.rendezvous.is_shutdown() {
                return;
            }
            watchdog.check("request_gc_and_wait", started);
            std::thread::yield_now();
        }
    }

    /// Runs the plan's sanity verifier now (see
    /// [`RuntimeShared::verify_now`]).
    pub fn verify_now(&self) -> crate::verify::VerifyReport {
        self.shared.verify_now()
    }

    /// Milliseconds since the runtime was created.
    pub fn elapsed_ms(&self) -> f64 {
        self.shared.run_start.elapsed().as_secs_f64() * 1e3
    }

    /// Shuts the runtime down: stops the GC threads and waits for them.
    /// Called automatically when the last handle is dropped.
    pub fn shutdown(&self) {
        self.shared.rendezvous.shutdown();
        self.shared.wake_concurrent();
        for t in self.owner.threads.lock().drain(..) {
            let _ = t.join();
        }
    }
}

fn controller_loop(shared: Arc<RuntimeShared>) {
    let watchdog = crate::watchdog::Watchdog::new(shared.options.watchdog_ms);
    let mut gcs_since_verify = 0u64;
    // Pool scheduler counters are monotonic; fold the per-collection delta
    // into the work-counter stats after each pause.  Chunk-map events use
    // the same scheme (growth happens on the allocation path, so the delta
    // covers everything since the previous pause, not just the pause).
    let mut sched_last = shared.workers.sched_totals();
    let chunk_map = shared.space.chunk_map();
    let mut chunks_mapped_last = chunk_map.mapped_events();
    let mut chunks_released_last = chunk_map.released_events();
    while let Some(reason) = shared.rendezvous.wait_for_request() {
        let time_to_stop = shared.rendezvous.stop_the_world_watched(&watchdog);
        if shared.rendezvous.is_shutdown() {
            shared.rendezvous.resume_the_world();
            break;
        }
        let start_ms = shared.run_start.elapsed().as_secs_f64() * 1e3;
        let pause_start = Instant::now();

        let root_set = RootSet {
            mutator_roots: {
                let mutators = shared.mutators.lock();
                mutators.iter().map(|m| m.roots.clone()).collect()
            },
        };
        // Reset pause attributes for this pause.
        shared.pause_attrs.set_kind("gc");
        shared.pause_attrs.started_satb.store(false, Ordering::Relaxed);
        shared.pause_attrs.lazy_incomplete.store(false, Ordering::Relaxed);

        let collection = Collection {
            reason,
            workers: &shared.workers,
            roots: &root_set,
            stats: &shared.stats,
            attrs: &shared.pause_attrs,
            watchdog: watchdog.clone(),
        };
        shared.plan.collect(&collection);

        // Elastic shrink epilogue (collector-agnostic): chunks whose blocks
        // all sat on the central free list for `SHRINK_IDLE_PAUSES`
        // consecutive pauses are released back to the OS.  A no-op for
        // fixed-extent heaps.
        shared.blocks.release_cold_chunks(SHRINK_IDLE_PAUSES);

        let sched_now = shared.workers.sched_totals();
        shared.stats.add(crate::stats::WorkCounter::SchedPushes, sched_now.pushes - sched_last.pushes);
        shared.stats.add(crate::stats::WorkCounter::SchedPops, sched_now.pops - sched_last.pops);
        shared.stats.add(crate::stats::WorkCounter::SchedSteals, sched_now.steals - sched_last.steals);
        shared.stats.add(crate::stats::WorkCounter::SchedParks, sched_now.parks - sched_last.parks);
        sched_last = sched_now;

        let mapped_now = chunk_map.mapped_events();
        let released_now = chunk_map.released_events();
        shared.stats.add(crate::stats::WorkCounter::ChunksMapped, (mapped_now - chunks_mapped_last) as u64);
        shared
            .stats
            .add(crate::stats::WorkCounter::ChunksReleased, (released_now - chunks_released_last) as u64);
        chunks_mapped_last = mapped_now;
        chunks_released_last = released_now;
        match reason {
            GcReason::Predictive => shared.stats.add(crate::stats::WorkCounter::TriggerPredictive, 1),
            GcReason::Exhausted => shared.stats.add(crate::stats::WorkCounter::TriggerExhaustion, 1),
            GcReason::Threshold | GcReason::Requested => {}
        }

        // On-demand sanity verification: audit the plan's metadata against
        // an independent re-trace while the world is still stopped.
        gcs_since_verify += 1;
        if let Some(n) = shared.options.verify_every_n_gcs {
            if n > 0 && gcs_since_verify >= n {
                gcs_since_verify = 0;
                let report = shared.plan.verify(&root_set);
                if !report.ok() {
                    eprintln!("==== SANITY VERIFIER: heap audit failed after collection ====");
                    eprint!("{report}");
                    eprint!("{}", crate::watchdog::dump_all());
                    eprintln!("==== aborting ====");
                    std::process::abort();
                }
            }
        }

        let duration = pause_start.elapsed();
        shared.stats.add_stw_time(duration);
        shared.stats.record_pause(PauseRecord {
            start_ms,
            time_to_stop,
            duration,
            reason,
            kind: *shared.pause_attrs.kind.lock(),
            started_satb: shared.pause_attrs.started_satb.load(Ordering::Relaxed),
            lazy_incomplete: shared.pause_attrs.lazy_incomplete.load(Ordering::Relaxed),
            mapped_chunks: chunk_map.mapped_chunks(),
        });
        shared.rendezvous.resume_the_world();
        if shared.plan.has_concurrent_work() && shared.options.concurrent_thread {
            shared.wake_concurrent();
        }
    }
}

/// One concurrent crew worker.  All members of the crew sleep on the shared
/// wake epoch; each wake releases the whole crew, which then drives the
/// plan's concurrent work collectively (for LXR: popping seeds off the
/// shared gray/decrement queues into per-worker local buffers and stealing
/// from each other through those shared queues) until the work is drained
/// or a pause preempts it.
fn concurrent_crew_loop(shared: Arc<RuntimeShared>, worker_id: usize, crew_size: usize) {
    let mut last_wake = 0u64;
    loop {
        if !shared.wait_for_concurrent_wake(&mut last_wake) {
            return;
        }
        // Drain all pending concurrent work, yielding to pauses as needed.
        while shared.plan.has_concurrent_work() && !shared.rendezvous.is_shutdown() {
            let start = Instant::now();
            let rendezvous = shared.rendezvous.clone();
            let yield_requested: crate::plan::YieldCheck = Arc::new(move || rendezvous.gc_pending());
            let work = ConcurrentWork {
                workers: &shared.workers,
                stats: &shared.stats,
                yield_requested,
                worker_id,
                crew_size,
                watchdog: crate::watchdog::Watchdog::new(shared.options.watchdog_ms),
            };
            shared.plan.concurrent_work(&work);
            shared.stats.add_concurrent_time(start.elapsed());
            if shared.rendezvous.gc_pending() {
                // A pause is imminent; stop so the controller is not delayed.
                // We will be woken again after the pause if work remains.
                break;
            }
            // A sibling may hold the only remaining work in its local
            // buffers; don't spin hot through `has_concurrent_work` while
            // it finishes.
            std::thread::yield_now();
        }
    }
}
