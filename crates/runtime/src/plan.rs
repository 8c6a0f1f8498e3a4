//! The collector plan interface.
//!
//! A *plan* (MMTk terminology) is a complete collector: it owns the policy
//! metadata (reference-count tables, mark bits, log tables), decides when to
//! collect, performs stop-the-world collections when every mutator is
//! parked, and optionally performs concurrent work on the runtime's
//! concurrent collector thread.
//!
//! The per-thread, mutator-side half of a plan (allocator state and write
//! barrier) is a [`PlanMutator`], created by [`Plan::create_mutator`] and
//! owned by the mutator thread.

use crate::stats::{GcReason, GcStats};
use crate::workers::WorkerPool;
use lxr_heap::{BlockAllocator, HeapSpace, LargeObjectSpace};
use lxr_object::{ObjectReference, ObjectShape};
use parking_lot::Mutex;
use std::sync::Arc;

/// Everything a plan needs at construction time.
#[derive(Clone)]
pub struct PlanContext {
    /// The shared heap arena.
    pub space: Arc<HeapSpace>,
    /// The global clean/recycled block lists.
    pub blocks: Arc<BlockAllocator>,
    /// The large object space.
    pub los: Arc<LargeObjectSpace>,
    /// Shared statistics.
    pub stats: Arc<GcStats>,
    /// Runtime options (heap geometry, worker counts, …).
    pub options: crate::RuntimeOptions,
}

impl std::fmt::Debug for PlanContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanContext").field("options", &self.options).finish_non_exhaustive()
    }
}

/// Why a mutator-side allocation could not be satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocFailure {
    /// The heap (or the relevant space) is exhausted; a collection should be
    /// triggered and the allocation retried.
    OutOfMemory,
}

/// The mutator-side state of a plan: thread-local allocators and write/read
/// barriers.  One per mutator thread, created by [`Plan::create_mutator`].
pub trait PlanMutator: Send {
    /// Allocates and initialises an object of the given shape.
    ///
    /// # Errors
    ///
    /// Returns [`AllocFailure::OutOfMemory`] when the heap is exhausted; the
    /// runtime will trigger a collection and retry.
    fn alloc(&mut self, shape: ObjectShape) -> Result<ObjectReference, AllocFailure>;

    /// Performs a barriered write of reference field `index` of `src`.
    fn write_ref(&mut self, src: ObjectReference, index: usize, value: ObjectReference);

    /// Performs a barriered read of reference field `index` of `src`.
    fn read_ref(&mut self, src: ObjectReference, index: usize) -> ObjectReference;

    /// Resolves a reference the mutator is about to use directly (follows
    /// forwarding installed by a concurrent evacuation).  Plans that never
    /// move objects while mutators run return the reference unchanged.
    fn resolve(&mut self, obj: ObjectReference) -> ObjectReference {
        obj
    }

    /// Writes data field `index` of `src`.
    fn write_data(&mut self, src: ObjectReference, index: usize, value: u64);

    /// Reads data field `index` of `src`.
    fn read_data(&mut self, src: ObjectReference, index: usize) -> u64;

    /// Publishes any thread-local barrier state and retires thread-local
    /// allocation regions.  Called immediately before the thread parks for a
    /// collection or enters a blocked region.
    fn prepare_for_gc(&mut self);

    /// Number of objects this mutator has allocated since the last call
    /// (used for allocation-volume statistics).
    fn take_allocation_count(&mut self) -> u64 {
        0
    }
}

/// Access to every mutator's roots (one shadow stack per mutator) during a
/// stop-the-world collection.
pub struct RootSet {
    /// One shadow stack per registered mutator.
    pub mutator_roots: Vec<Arc<Mutex<Vec<ObjectReference>>>>,
}

impl std::fmt::Debug for RootSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RootSet").field("mutators", &self.mutator_roots.len()).finish()
    }
}

impl RootSet {
    /// Visits every root slot, allowing the visitor to update it in place
    /// (e.g. after evacuation).
    pub fn visit_roots<F: FnMut(&mut ObjectReference)>(&self, mut visit: F) {
        for stack in &self.mutator_roots {
            let mut stack = stack.lock();
            for slot in stack.iter_mut() {
                if !slot.is_null() {
                    visit(slot);
                }
            }
        }
    }

    /// Collects a snapshot of every non-null root.
    pub fn collect_roots(&self) -> Vec<ObjectReference> {
        let mut out = Vec::new();
        self.visit_roots(|r| out.push(*r));
        out
    }
}

/// Context handed to [`Plan::collect`] while the world is stopped.
pub struct Collection<'a> {
    /// Why this collection was triggered.
    pub reason: GcReason,
    /// The parallel worker pool.
    pub workers: &'a WorkerPool,
    /// All roots (may be mutated in place, e.g. to redirect to copies).
    pub roots: &'a RootSet,
    /// Shared statistics.
    pub stats: &'a GcStats,
    /// Attributes of this pause (label, SATB start, lazy completion), folded
    /// into the [`crate::stats::PauseRecord`] by the controller.
    pub attrs: &'a crate::runtime::PauseAttrs,
    /// Deadline for each phase of this pause (disarmed unless
    /// [`crate::RuntimeOptions::watchdog_ms`] is set).  Plans check it in
    /// their own wait loops; the worker pool checks it while draining.
    pub watchdog: crate::watchdog::Watchdog,
}

impl std::fmt::Debug for Collection<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collection").field("reason", &self.reason).finish_non_exhaustive()
    }
}

/// A shareable "should I yield to a pause?" check, cloneable into parallel
/// phase callbacks so concurrent work fanned out over the worker pool can
/// still yield promptly.
pub type YieldCheck = Arc<dyn Fn() -> bool + Send + Sync>;

/// Context handed to [`Plan::concurrent_work`] while mutators are running.
///
/// The runtime invokes `concurrent_work` from a *crew* of concurrent
/// collector threads; every member of the crew receives the same kind of
/// context, distinguished by [`worker_id`](Self::worker_id) (LXR uses it
/// to split the crew between decrement and trace duty).  Plans that run a
/// crew of one (the default, see [`Plan::max_concurrent_workers`]) can
/// ignore both fields.
pub struct ConcurrentWork<'a> {
    /// The parallel worker pool (shared with pauses; concurrent work may
    /// fan out over it, but must drain promptly when a pause is requested).
    pub workers: &'a WorkerPool,
    /// Shared statistics.
    pub stats: &'a GcStats,
    /// Set when a new pause has been requested; long-running concurrent work
    /// should yield promptly when it observes this.
    pub yield_requested: YieldCheck,
    /// The index of the concurrent crew worker making this call
    /// (`0..crew_size`).
    pub worker_id: usize,
    /// Total number of concurrent crew workers serving this plan.
    pub crew_size: usize,
    /// Deadline for concurrent-phase waits.  Unlike pause-phase expiry
    /// (which aborts), a concurrent trace that exceeds this deadline should
    /// *degrade*: give up gracefully and let the next pause finish the work
    /// stop-the-world.
    pub watchdog: crate::watchdog::Watchdog,
}

impl std::fmt::Debug for ConcurrentWork<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcurrentWork").finish_non_exhaustive()
    }
}

/// A complete collector.
///
/// Implementations in this workspace: `lxr_core::LxrPlan` (the paper's
/// contribution) and the baselines in `lxr_baselines` (SemiSpace, Serial,
/// Parallel, Immix, G1-like, Shenandoah-like, ZGC-like).
pub trait Plan: Send + Sync + 'static {
    /// A short, stable name identifying the plan *family* (e.g. "lxr",
    /// "g1", "shenandoah").  Variants of one family share this name — the
    /// LXR ablations and the sticky variant all report "lxr" — so it is a
    /// reporting label, not a registry key; the authoritative set of
    /// selectable collector names is `lxr_baselines::plan_registry` (see
    /// its `ALL_COLLECTORS` and `VARIANTS` slices).
    fn name(&self) -> &'static str;

    /// Creates the mutator-side state for a new mutator thread.
    fn create_mutator(&self, mutator_id: usize) -> Box<dyn PlanMutator>;

    /// Asks whether a collection should be triggered now (called from
    /// mutator allocation slow paths and periodic polls).
    fn poll(&self) -> Option<GcReason>;

    /// Whether a collection raised by [`poll`](Self::poll) for `reason` may
    /// be briefly parked by the request-aware [`PauseGate`](crate::PauseGate)
    /// to wait for a request boundary.  Exhaustion and explicit requests
    /// are never deferrable; the default allows the pacing triggers
    /// (threshold/predictive) unconditionally.  Plans should veto deferral
    /// when the heap is too close to its exhaustion backstop to wait out a
    /// request — LXR requires twice the heap-full backstop in headroom.
    fn defer_poll_trigger(&self, reason: GcReason) -> bool {
        matches!(reason, GcReason::Threshold | GcReason::Predictive)
    }

    /// Performs one stop-the-world collection.  Every mutator is parked and
    /// has had `prepare_for_gc` called on its [`PlanMutator`].
    fn collect(&self, collection: &Collection<'_>);

    /// Returns `true` if the plan has concurrent work pending; the runtime
    /// will then invoke [`concurrent_work`](Self::concurrent_work) on the
    /// concurrent collector thread.
    fn has_concurrent_work(&self) -> bool {
        false
    }

    /// Performs concurrent collection work while mutators run.
    ///
    /// Plans that return more than one from
    /// [`max_concurrent_workers`](Self::max_concurrent_workers) must accept
    /// concurrent invocations of this method from every crew worker.
    fn concurrent_work(&self, _work: &ConcurrentWork<'_>) {}

    /// The largest concurrent crew this plan can exploit.  The runtime
    /// spawns `min(options.concurrent_workers, max_concurrent_workers())`
    /// crew threads.  The default of one preserves the historical contract
    /// that [`concurrent_work`](Self::concurrent_work) is never entered
    /// concurrently; plans whose concurrent phase is thread-safe (LXR)
    /// override this.
    fn max_concurrent_workers(&self) -> usize {
        1
    }

    /// The minimum heap size (in bytes) this plan can operate in, if it has
    /// one (ZGC-like refuses very small heaps, mirroring the paper's
    /// observation that ZGC "requires a substantial minimum heap").
    fn minimum_heap_bytes(&self) -> Option<usize> {
        None
    }

    /// One line of plan-specific gauge state (pending counters, queue
    /// depths, phase flags) for watchdog state dumps.  Empty by default.
    fn gauges(&self) -> String {
        String::new()
    }

    /// Audits the plan's metadata against an independent re-trace of the
    /// object graph from `roots` (see [`crate::verify`]).  Called while the
    /// world is stopped.  The default reports the audit as unsupported.
    fn verify(&self, _roots: &RootSet) -> crate::verify::VerifyReport {
        crate::verify::VerifyReport::unsupported(self.name())
    }

    /// Describes the full metadata state of one object (block/line state,
    /// marks, RC count, field-log and remset membership, reuse epoch) for
    /// corruption reports.  `None` when the plan has nothing to add.
    fn describe_object(&self, _obj: ObjectReference) -> Option<String> {
        None
    }
}

/// Constructs a plan from a [`PlanContext`]; implemented by every concrete
/// plan so the runtime can be instantiated generically.
pub trait PlanFactory: Plan + Sized {
    /// Builds the plan.
    fn build(ctx: PlanContext) -> Self;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_set_visits_and_updates_all_slots() {
        let a = ObjectReference::from_raw(8);
        let b = ObjectReference::from_raw(16);
        let c = ObjectReference::from_raw(24);
        let set = RootSet {
            mutator_roots: vec![
                Arc::new(Mutex::new(vec![a, ObjectReference::NULL])),
                Arc::new(Mutex::new(vec![b, c])),
            ],
        };
        assert_eq!(set.collect_roots(), vec![a, b, c]);
        // Redirect every root to a single forwarded location.
        let fwd = ObjectReference::from_raw(1000);
        set.visit_roots(|r| *r = fwd);
        assert_eq!(set.collect_roots(), vec![fwd, fwd, fwd]);
        // Null slots are skipped, not visited.
        assert_eq!(set.mutator_roots[0].lock()[1], ObjectReference::NULL);
    }
}
