//! The mutator-facing API.
//!
//! A [`Mutator`] is the handle an application (or synthetic workload) thread
//! uses to interact with the managed heap: allocate objects, read and write
//! fields (through the plan's barriers), and manage *roots* — the shadow
//! stack slots that stand in for the thread's local variables, which the
//! collector scans at every pause.

use crate::plan::{AllocFailure, PlanMutator};
use crate::runtime::RuntimeShared;
use crate::stats::{GcReason, WorkCounter};
use lxr_object::{ObjectReference, ObjectShape};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// State shared between a mutator thread and the collector.
#[derive(Debug)]
pub struct MutatorShared {
    /// Stable identifier of this mutator.
    pub id: usize,
    /// The shadow stack: this thread's roots.  Shared with the collector's
    /// root set, which may update the slots in place during a pause.
    pub roots: Arc<Mutex<Vec<ObjectReference>>>,
    /// Whether this mutator still exists (cleared on drop).
    pub live: AtomicBool,
}

/// An index into a mutator's shadow stack, returned by
/// [`Mutator::push_root`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RootSlot(pub usize);

/// The per-thread handle to the managed heap.
///
/// Dropping the mutator deregisters it from the runtime and clears its
/// roots.
pub struct Mutator {
    runtime: Arc<RuntimeShared>,
    shared: Arc<MutatorShared>,
    plan_mutator: Box<dyn PlanMutator>,
    allocs_since_poll: usize,
    /// Objects `GcStats` has been told of, then the objects and words it has
    /// not (see [`fold_allocation_counts`](Self::fold_allocation_counts)).
    folded_objects: u64,
    unfolded_objects: u64,
    unfolded_words: u64,
}

impl std::fmt::Debug for Mutator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mutator")
            .field("id", &self.shared.id)
            .field("roots", &self.shared.roots.lock().len())
            .finish_non_exhaustive()
    }
}

impl Mutator {
    pub(crate) fn new(
        runtime: Arc<RuntimeShared>,
        shared: Arc<MutatorShared>,
        plan_mutator: Box<dyn PlanMutator>,
    ) -> Self {
        Mutator {
            runtime,
            shared,
            plan_mutator,
            allocs_since_poll: 0,
            folded_objects: 0,
            unfolded_objects: 0,
            unfolded_words: 0,
        }
    }

    /// This mutator's stable identifier.
    pub fn id(&self) -> usize {
        self.shared.id
    }

    /// Total objects allocated through this handle.
    pub fn total_allocations(&self) -> u64 {
        self.folded_objects + self.unfolded_objects
    }

    // ----- Allocation ------------------------------------------------------

    /// Allocates an object with `nrefs` reference fields, `ndata` data
    /// fields, and the given type tag.  Reference fields start null.
    ///
    /// Triggers collections (and retries) as needed.
    ///
    /// # Panics
    ///
    /// Panics if the allocation cannot be satisfied even after repeated
    /// collections (a genuine out-of-memory condition), or if the runtime is
    /// shutting down.
    pub fn alloc(&mut self, nrefs: u16, ndata: u16, type_tag: u32) -> ObjectReference {
        self.alloc_shape(ObjectShape::new(nrefs, ndata, type_tag))
    }

    /// Allocates an object of the given [`ObjectShape`].
    ///
    /// The retry loop is paced by *reclamation progress*, not a fixed
    /// attempt count: after each failed attempt it triggers a collection,
    /// and as long as the block allocator's release generation keeps
    /// advancing (some collection — a pause, lazy reclamation, a completed
    /// backup trace — freed at least one block since the previous attempt)
    /// it keeps retrying.  Heavy cyclic churn in a tight heap can
    /// legitimately need many pauses before the trace that frees memory
    /// completes; a fixed cap declared OOM spuriously in exactly that
    /// case.  Only when reclamation stalls outright — zero blocks released
    /// for `oom_retry_stall_ms` despite repeated collections — does the
    /// loop give up with a clean out-of-memory report.
    pub fn alloc_shape(&mut self, shape: ObjectShape) -> ObjectReference {
        self.allocs_since_poll += 1;
        if self.allocs_since_poll >= self.runtime.options.poll_interval_allocs {
            self.allocs_since_poll = 0;
            self.poll_and_park();
        }
        let mut attempts: u64 = 0;
        let mut last_generation: Option<usize> = None;
        let mut stalled_since: Option<std::time::Instant> = None;
        loop {
            let result = if let Some(lxr_failpoints::Action::FailAlloc) =
                lxr_failpoints::failpoint_act!("runtime.alloc")
            {
                Err(AllocFailure::OutOfMemory)
            } else {
                self.plan_mutator.alloc(shape)
            };
            match result {
                Ok(obj) => {
                    self.unfolded_objects += 1;
                    self.unfolded_words += shape.size_words() as u64;
                    return obj;
                }
                Err(AllocFailure::OutOfMemory) => {
                    lxr_failpoints::failpoint!("runtime.oom-retry");
                    attempts += 1;
                    let generation = self.runtime.blocks.release_generation();
                    if last_generation != Some(generation) {
                        stalled_since = None; // progress since the last attempt
                    } else if attempts > 2 {
                        let since = *stalled_since.get_or_insert_with(std::time::Instant::now);
                        let stall = std::time::Duration::from_millis(self.runtime.options.oom_retry_stall_ms);
                        assert!(
                            since.elapsed() < stall,
                            "out of memory: allocation of {:?} failed after {} collections with no \
                             reclamation progress for {:?} (plan {}, {} free / {} recycled / {} used of \
                             {} blocks; work: {})",
                            shape,
                            attempts - 1,
                            since.elapsed(),
                            self.runtime.plan.name(),
                            self.runtime.blocks.free_block_count(),
                            self.runtime.blocks.recycled_block_count(),
                            self.runtime.blocks.used_block_count(),
                            self.runtime.blocks.total_blocks(),
                            self.runtime.stats.work_summary(),
                        );
                    }
                    last_generation = Some(generation);
                    self.trigger_gc_and_wait(GcReason::Exhausted);
                    // If reclamation is gated on concurrent work — a
                    // mid-flight SATB trace that must complete before the
                    // next pause can reclaim cyclic garbage, or lazy
                    // decrements that free blocks directly — hammering
                    // back-to-back pauses would keep preempting the crew
                    // and starve the very work that frees memory.  Give
                    // the crew a bounded window to drain before retrying.
                    if attempts >= 2 {
                        self.wait_for_concurrent_reclamation();
                    }
                }
            }
        }
    }

    // ----- Field access ----------------------------------------------------

    /// Writes reference field `index` of `obj` (through the plan's write
    /// barrier).
    #[inline]
    pub fn write_ref(&mut self, obj: ObjectReference, index: usize, value: ObjectReference) {
        self.plan_mutator.write_ref(obj, index, value);
    }

    /// Reads reference field `index` of `obj` (through the plan's read
    /// barrier, if it has one).
    #[inline]
    pub fn read_ref(&mut self, obj: ObjectReference, index: usize) -> ObjectReference {
        self.plan_mutator.read_ref(obj, index)
    }

    /// Writes data field `index` of `obj`.
    #[inline]
    pub fn write_data(&mut self, obj: ObjectReference, index: usize, value: u64) {
        self.plan_mutator.write_data(obj, index, value);
    }

    /// Reads data field `index` of `obj`.
    #[inline]
    pub fn read_data(&mut self, obj: ObjectReference, index: usize) -> u64 {
        self.plan_mutator.read_data(obj, index)
    }

    // ----- Roots -----------------------------------------------------------

    /// Pushes `obj` onto this thread's shadow stack, making it a root.
    pub fn push_root(&mut self, obj: ObjectReference) -> RootSlot {
        let mut roots = self.shared.roots.lock();
        roots.push(obj);
        RootSlot(roots.len() - 1)
    }

    /// Pops the most recently pushed root.
    pub fn pop_root(&mut self) -> Option<ObjectReference> {
        let popped = self.shared.roots.lock().pop();
        popped.map(|r| self.plan_mutator.resolve(r))
    }

    /// Truncates the shadow stack to `len` roots.
    pub fn truncate_roots(&mut self, len: usize) {
        self.shared.roots.lock().truncate(len);
    }

    /// Overwrites root `slot`.
    pub fn set_root(&mut self, slot: RootSlot, obj: ObjectReference) {
        self.shared.roots.lock()[slot.0] = obj;
    }

    /// Reads root `slot` (resolving any forwarding installed by a concurrent
    /// evacuation).
    pub fn root(&mut self, slot: RootSlot) -> ObjectReference {
        let obj = self.shared.roots.lock()[slot.0];
        let resolved = self.plan_mutator.resolve(obj);
        if resolved != obj {
            self.shared.roots.lock()[slot.0] = resolved;
        }
        resolved
    }

    /// Number of roots on the shadow stack.
    pub fn root_count(&self) -> usize {
        self.shared.roots.lock().len()
    }

    // ----- Safepoints and blocking ----------------------------------------

    /// A GC safepoint: if a collection has been requested, flush barrier
    /// state and park until it completes.  Call this regularly from
    /// long-running loops that do not allocate.
    pub fn safepoint(&mut self) {
        lxr_failpoints::failpoint!("mutator.safepoint");
        if self.runtime.rendezvous.gc_pending() {
            self.park_for_gc();
        }
    }

    /// Polls the plan's pacing triggers and parks if a collection results.
    ///
    /// With the [pause gate](crate::PauseGate) enabled, a deferrable pacing
    /// trigger (threshold/predictive, and only if the plan's
    /// [`defer_poll_trigger`](crate::plan::Plan::defer_poll_trigger) agrees
    /// the heap has the headroom) raised mid-request is parked for the next
    /// request boundary instead of pausing on the spot.
    fn poll_and_park(&mut self) {
        if self.runtime.rendezvous.gc_pending() {
            self.park_for_gc();
            return;
        }
        self.fold_allocation_counts();
        if let Some(reason) = self.runtime.plan.poll() {
            if self.runtime.gate.enabled() && self.runtime.plan.defer_poll_trigger(reason) {
                match self.runtime.gate.try_defer(reason) {
                    crate::pausegate::Deferral::Parked => {
                        self.runtime.stats.add(WorkCounter::GateDeferredTriggers, 1);
                        return;
                    }
                    crate::pausegate::Deferral::Pending => return,
                    crate::pausegate::Deferral::Fire => {}
                }
            }
            self.trigger_gc_and_wait(reason);
        }
    }

    // ----- Request boundaries (serving workloads) --------------------------

    /// Marks the start of a request on this thread (a safepoint, plus
    /// bookkeeping for the [pause gate](crate::PauseGate)).  Serving engines
    /// bracket each request with [`begin_request`](Self::begin_request)/
    /// [`end_request`](Self::end_request) so deferrable collections land on
    /// the boundaries between them.
    pub fn begin_request(&mut self) {
        self.safepoint();
        if self.runtime.gate.enabled() {
            self.runtime.gate.begin_request();
        }
    }

    /// Marks the end of a request: releases any collection the gate parked
    /// while requests were in flight, pausing *here*, on the boundary,
    /// where no request's latency clock is running.
    pub fn end_request(&mut self) {
        if self.runtime.gate.enabled() {
            if let Some(reason) = self.runtime.gate.end_request() {
                self.runtime.stats.add(WorkCounter::GateBoundaryPauses, 1);
                self.trigger_gc_and_wait(reason);
            }
        }
    }

    /// Sleeps (blocked, so collections need not wait for this thread) until
    /// `deadline`, first spending the idle gap on GC: any gate-parked
    /// collection fires now, and the concurrent crew is kicked to soak up
    /// the idle CPU (Monk-style opportunism).  The open-loop serving engine
    /// calls this for every arrival-schedule gap.
    pub fn idle_until(&mut self, deadline: std::time::Instant) {
        if self.runtime.gate.enabled() {
            if let Some(reason) = self.runtime.gate.take_deferred() {
                self.runtime.stats.add(WorkCounter::GateBoundaryPauses, 1);
                self.trigger_gc_and_wait(reason);
            }
            self.runtime.kick_concurrent();
        }
        let now = std::time::Instant::now();
        if now < deadline {
            self.blocked(|| std::thread::sleep(deadline - now));
        }
    }

    /// Explicitly requests a collection and waits for it to complete.
    pub fn request_gc(&mut self) {
        self.trigger_gc_and_wait(GcReason::Requested);
    }

    fn trigger_gc_and_wait(&mut self, reason: GcReason) {
        self.runtime.rendezvous.request_gc(reason);
        self.park_for_gc();
    }

    /// Publishes this handle's allocation counts to `GcStats`, the only
    /// shared writes allocation accounting makes: at the allocation poll and
    /// wherever a collection may proceed without this thread, so the
    /// counters are exact whenever the world is stopped.
    fn fold_allocation_counts(&mut self) {
        let objects = std::mem::take(&mut self.unfolded_objects);
        self.folded_objects += objects;
        self.runtime.stats.add(WorkCounter::ObjectsAllocated, objects);
        self.runtime.stats.add(WorkCounter::WordsAllocated, std::mem::take(&mut self.unfolded_words));
    }

    fn park_for_gc(&mut self) {
        let start = std::time::Instant::now();
        self.fold_allocation_counts();
        self.plan_mutator.prepare_for_gc();
        self.runtime.rendezvous.safepoint_park();
        self.runtime.stats.add_alloc_stall(start.elapsed());
    }

    /// Waits (bounded) for the concurrent crew to drain its outstanding
    /// work, parking for any pause requested meanwhile.  Called from the
    /// out-of-memory retry path: when the heap is full of cyclic garbage,
    /// memory comes back only after the crew finishes the trace and the
    /// next pause reclaims, so retry-triggered pauses must not starve the
    /// crew.
    fn wait_for_concurrent_reclamation(&mut self) {
        if !self.runtime.options.concurrent_thread {
            return; // no crew: concurrent work would never drain
        }
        // Time-bounded: if the crew cannot drain within one stall window,
        // fall back to the retry loop's pauses rather than hanging (a
        // saturated heap can keep a backup trace "in progress" — restarted
        // every pause — indefinitely, and the retry loop's stall deadline
        // must get a chance to fire).
        let deadline = std::time::Instant::now()
            + std::time::Duration::from_millis(self.runtime.options.effective_oom_wait_concurrent_ms());
        while std::time::Instant::now() < deadline {
            if !self.runtime.plan.has_concurrent_work() || self.runtime.rendezvous.is_shutdown() {
                return;
            }
            if self.runtime.rendezvous.gc_pending() {
                self.park_for_gc();
            }
            std::thread::yield_now();
        }
    }

    /// Runs `f` with this mutator marked *blocked* (inactive): collections
    /// may proceed without waiting for this thread.  Use around operations
    /// that may wait indefinitely (queues, sockets, sleeps).
    pub fn blocked<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.fold_allocation_counts();
        self.plan_mutator.prepare_for_gc();
        self.runtime.rendezvous.enter_blocked();
        let result = f();
        self.runtime.rendezvous.exit_blocked();
        result
    }
}

impl Drop for Mutator {
    fn drop(&mut self) {
        self.fold_allocation_counts();
        self.plan_mutator.prepare_for_gc();
        self.shared.live.store(false, Ordering::Release);
        // Keep the roots: objects referenced by a completed thread's stack
        // are dead, so clear them so they can be reclaimed.
        self.shared.roots.lock().clear();
        self.runtime.rendezvous.deregister_mutator();
    }
}
