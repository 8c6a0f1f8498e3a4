//! A Shenandoah/ZGC-like concurrent copying collector.
//!
//! The paper's critique of C4, Shenandoah and ZGC (§2.4, §2.5) is that they
//! i) rely exclusively on tracing, ii) reclaim memory only by evacuation,
//! iii) impose expensive always-on read (load value) barriers, iv) evacuate
//! concurrently, and v) need long concurrent cycles and therefore memory
//! head-room — degenerating to long stop-the-world collections when
//! allocation outruns the collector.  This plan reproduces that
//! architecture:
//!
//! * a concurrent SATB **marking** phase (snapshot taken at a brief
//!   init-mark pause; the write barrier feeds overwritten references),
//! * concurrent **evacuation + reference updating**: after marking, the
//!   lowest-occupancy mature blocks form the collection set; a concurrent
//!   pass re-walks the reachable graph, copying collection-set objects and
//!   healing every reference it visits, while mutators heal lazily through
//!   a load value barrier and copy-on-access,
//! * brief pauses only for init-mark, final-mark (cset selection) and
//!   cleanup (root healing and cset reclamation),
//! * **degenerated collections**: an allocation failure at any point falls
//!   back to a full stop-the-world mark/sweep — the behaviour behind
//!   Shenandoah's collapse on allocation-intensive workloads in tight
//!   heaps,
//! * the ZGC variant additionally refuses to run in small heaps, mirroring
//!   the JDK 11 ZGC limitation the paper reports.

use crate::common::TraceState;
use crossbeam::queue::SegQueue;
use lxr_barrier::{BarrierSink, BarrierStats, FieldLogTable, FieldLoggingBarrier};
use lxr_heap::{AllocError, BlockState, ImmixAllocator, LineOccupancy, SideMetadata, GRANULE_WORDS};
use lxr_object::{ClaimResult, ObjectModel, ObjectReference, ObjectShape};
use lxr_runtime::{
    AllocFailure, Collection, ConcurrentWork, GcReason, Plan, PlanContext, PlanFactory, PlanMutator, RootSet,
    VerifyReport, WorkCounter,
};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

/// Which production collector this plan stands in for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConcurrentCopyVariant {
    /// Shenandoah-like: runs in any heap.
    Shenandoah,
    /// ZGC-like: identical cycle, but refuses small heaps (JDK 11 ZGC).
    Zgc,
}

const PHASE_IDLE: u8 = 0;
const PHASE_MARKING: u8 = 1;
const PHASE_EVACUATING: u8 = 2;

/// Shared state of the concurrent copying plan.
pub struct ConcurrentCopyState {
    trace: Arc<TraceState>,
    om: ObjectModel,
    log_table: Arc<FieldLogTable>,
    sink: Arc<BarrierSink>,
    barrier_stats: Arc<BarrierStats>,
    phase: AtomicU8,
    /// Gray queue for concurrent marking.
    gray: SegQueue<ObjectReference>,
    /// Queue of objects whose fields still need updating/evacuating.
    update_queue: SegQueue<ObjectReference>,
    /// Visited bits for the update pass (separate from the mark bits).
    update_visited: SideMetadata,
    mark_quiescent: AtomicBool,
    evac_done: AtomicBool,
    evac_failed: AtomicBool,
    /// Shared allocator mutators use for copy-on-access evacuation.
    evac_allocator: Mutex<Option<ImmixAllocator>>,
    concurrent_busy: AtomicBool,
    live_blocks_estimate: AtomicUsize,
}

impl std::fmt::Debug for ConcurrentCopyState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcurrentCopyState")
            .field("phase", &self.phase.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl ConcurrentCopyState {
    #[inline]
    fn phase(&self) -> u8 {
        self.phase.load(Ordering::Acquire)
    }

    #[inline]
    fn in_cset(&self, obj: ObjectReference) -> bool {
        if obj.is_null() {
            return false;
        }
        let block = self.trace.geometry.block_of(obj.to_address());
        self.trace.space.block_states().get(block) == BlockState::EvacCandidate
    }

    /// Evacuates `obj` out of the collection set (or returns the existing
    /// copy).  Used by both the concurrent update pass and the mutators'
    /// copy-on-access barriers.
    fn evacuate(&self, obj: ObjectReference) -> ObjectReference {
        match self.om.try_claim_forwarding(obj) {
            // A stale reference (granule reclaimed and reused): leave it be.
            ClaimResult::Stale => obj,
            ClaimResult::AlreadyForwarded(new) => new,
            ClaimResult::Claimed(header) => {
                let shape = self.om.shape_of_header(header);
                let size = shape.size_words();
                let mut guard = self.evac_allocator.lock();
                let allocator = guard.get_or_insert_with(|| {
                    let occupancy: Arc<dyn LineOccupancy> = self.trace.line_marks.clone();
                    ImmixAllocator::new(self.trace.space.clone(), self.trace.blocks.clone(), occupancy)
                });
                match allocator.alloc(size) {
                    Ok(to) => {
                        drop(guard);
                        let new = self.om.install_forwarding(obj, to, header);
                        self.trace.marks.store(new.to_address(), 1);
                        self.trace.mark_lines(new, size);
                        new
                    }
                    Err(_) => {
                        drop(guard);
                        self.evac_failed.store(true, Ordering::Release);
                        self.om.abandon_forwarding(obj, header);
                        obj
                    }
                }
            }
        }
    }

    /// One step of the concurrent evacuation/update pass: heal every field
    /// of `obj`, evacuating referents that live in the collection set, and
    /// queue its children.
    fn update_object(&self, obj: ObjectReference) {
        let obj = self.om.resolve(obj);
        if obj.is_null() || self.update_visited.load(obj.to_address()) != 0 {
            return;
        }
        if !self.update_visited.try_set_from_zero(obj.to_address(), 1) {
            return;
        }
        let shape = self.om.shape(obj);
        for i in 0..shape.nrefs as usize {
            let slot = obj.to_address().plus(1 + i);
            let child = self.om.read_slot(slot);
            if child.is_null() {
                continue;
            }
            let mut healed = self.om.resolve(child);
            if self.in_cset(healed) {
                healed = self.evacuate(healed);
            }
            if healed != child {
                self.om.write_slot(slot, healed);
            }
            self.update_queue.push(healed);
        }
    }
}

/// The Shenandoah/ZGC-like plan.
pub struct ConcurrentCopyPlan {
    state: Arc<ConcurrentCopyState>,
    variant: ConcurrentCopyVariant,
}

impl std::fmt::Debug for ConcurrentCopyPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcurrentCopyPlan").field("variant", &self.variant).finish_non_exhaustive()
    }
}

impl ConcurrentCopyPlan {
    /// Creates the plan.
    pub fn with_variant(ctx: PlanContext, variant: ConcurrentCopyVariant) -> Self {
        let trace = Arc::new(TraceState::new(&ctx));
        let geometry = ctx.space.geometry();
        let state = Arc::new(ConcurrentCopyState {
            om: ObjectModel::new(ctx.space.clone()),
            log_table: Arc::new(FieldLogTable::for_space(&ctx.space)),
            sink: Arc::new(BarrierSink::new()),
            barrier_stats: Arc::new(BarrierStats::new()),
            phase: AtomicU8::new(PHASE_IDLE),
            gray: SegQueue::new(),
            update_queue: SegQueue::new(),
            update_visited: SideMetadata::new(geometry.num_words(), GRANULE_WORDS, 1),
            mark_quiescent: AtomicBool::new(false),
            evac_done: AtomicBool::new(false),
            evac_failed: AtomicBool::new(false),
            evac_allocator: Mutex::new(None),
            concurrent_busy: AtomicBool::new(false),
            live_blocks_estimate: AtomicUsize::new(0),
            trace,
        });
        ConcurrentCopyPlan { state, variant }
    }

    /// A factory closure for [`lxr_runtime::Runtime::with_factory`].
    pub fn factory(variant: ConcurrentCopyVariant) -> impl FnOnce(PlanContext) -> Arc<dyn Plan> {
        move |ctx| Arc::new(ConcurrentCopyPlan::with_variant(ctx, variant)) as Arc<dyn Plan>
    }

    /// Barrier statistics (read-barrier take rates).
    pub fn barrier_stats(&self) -> &Arc<BarrierStats> {
        &self.state.barrier_stats
    }

    /// The minimum heap the ZGC-like variant accepts.
    pub const ZGC_MINIMUM_HEAP: usize = 48 << 20;

    fn degenerated_collection(&self, collection: &Collection<'_>) {
        collection.attrs.set_kind("degenerated");
        collection.stats.add(WorkCounter::DegeneratedCollections, 1);
        let state = &self.state;
        // Abandon the in-flight cycle.
        while state.gray.pop().is_some() {}
        while state.update_queue.pop().is_some() {}
        state.update_visited.clear_all();
        state.sink.decrements.drain();
        state.sink.modified_fields.drain();
        *state.evac_allocator.lock() = None;
        // Full stop-the-world mark and sweep; the trace resolves any
        // forwarding left behind by a partial evacuation, so from-space
        // copies are unreachable afterwards and their blocks are swept.
        state.trace.clear_marks();
        state.trace.trace(collection.workers, collection, None);
        let log_table = state.log_table.clone();
        let geometry = state.trace.geometry;
        state.trace.sweep_with(collection.stats, |block| {
            log_table.clear_range(geometry.block_start(block), geometry.words_per_block());
        });
        for (block, s) in state.trace.space.block_states().iter() {
            if s == BlockState::EvacCandidate {
                state.trace.space.block_states().set(block, BlockState::Mature);
            }
        }
        state.phase.store(PHASE_IDLE, Ordering::Release);
        state.mark_quiescent.store(false, Ordering::Release);
        state.evac_done.store(false, Ordering::Release);
        state.evac_failed.store(false, Ordering::Release);
    }
}

impl Plan for ConcurrentCopyPlan {
    fn name(&self) -> &'static str {
        match self.variant {
            ConcurrentCopyVariant::Shenandoah => "shenandoah",
            ConcurrentCopyVariant::Zgc => "zgc",
        }
    }

    fn minimum_heap_bytes(&self) -> Option<usize> {
        match self.variant {
            ConcurrentCopyVariant::Shenandoah => None,
            ConcurrentCopyVariant::Zgc => Some(Self::ZGC_MINIMUM_HEAP),
        }
    }

    fn create_mutator(&self, _mutator_id: usize) -> Box<dyn PlanMutator> {
        let occupancy: Arc<dyn LineOccupancy> = self.state.trace.line_marks.clone();
        Box::new(ConcurrentCopyMutator {
            om: self.state.om.clone(),
            allocator: ImmixAllocator::new(
                self.state.trace.space.clone(),
                self.state.trace.blocks.clone(),
                occupancy,
            ),
            barrier: FieldLoggingBarrier::new(
                self.state.trace.space.clone(),
                self.state.log_table.clone(),
                self.state.sink.clone(),
                self.state.barrier_stats.clone(),
            ),
            state: self.state.clone(),
        })
    }

    fn poll(&self) -> Option<GcReason> {
        let total = self.state.trace.blocks.total_blocks();
        let available = self.state.trace.available_blocks();
        // Concurrent cycles need head-room: start a cycle while a third of
        // the heap is still free; request urgent pauses as it runs dry.
        if available * 20 < total {
            return Some(GcReason::Exhausted);
        }
        match self.state.phase() {
            PHASE_IDLE => {
                if available * 3 < total {
                    Some(GcReason::Threshold)
                } else {
                    None
                }
            }
            _ => {
                // A cycle is running; pauses advance it when its concurrent
                // phases have finished.
                let ready = (self.state.phase() == PHASE_MARKING
                    && self.state.mark_quiescent.load(Ordering::Acquire))
                    || (self.state.phase() == PHASE_EVACUATING
                        && self.state.evac_done.load(Ordering::Acquire));
                if ready {
                    Some(GcReason::Threshold)
                } else {
                    None
                }
            }
        }
    }

    fn collect(&self, collection: &Collection<'_>) {
        let state = &self.state;
        // `SeqCst` pairs with the worker's publish-then-recheck below: the
        // worker's store and this load, plus the rendezvous' SeqCst pending
        // flag, form a Dekker handshake (Release/Acquire alone would let
        // both sides read stale values on weakly-ordered hardware).
        let mut spins = 0u32;
        while state.concurrent_busy.load(Ordering::SeqCst) {
            spins += 1;
            if spins > 64 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        let total = state.trace.blocks.total_blocks();
        let available = state.trace.available_blocks();
        // Degenerate when the cycle cannot keep up with allocation.
        if collection.reason == GcReason::Exhausted && available * 20 < total {
            self.degenerated_collection(collection);
            return;
        }
        match state.phase() {
            PHASE_IDLE => {
                collection.attrs.set_kind("init-mark");
                collection.attrs.set_started_satb();
                // The line marks double as the allocators' free-line oracle
                // for partially free blocks, and marking is about to clear
                // them: a recycled block handed out mid-marking would look
                // *entirely* free, and the allocator would install — and
                // zero — line runs that still hold live objects (the
                // deep-list truncation).  Pull every queued block out of
                // circulation until final-mark restores fresh marks.
                while let Some(block) = state.trace.blocks.acquire_recycled_block() {
                    state.trace.space.block_states().set(block, BlockState::Mature);
                }
                state.trace.clear_marks();
                state.log_table.arm_all();
                for root in collection.roots.collect_roots() {
                    state.gray.push(root);
                }
                state.mark_quiescent.store(false, Ordering::Release);
                state.phase.store(PHASE_MARKING, Ordering::Release);
            }
            PHASE_MARKING => {
                // Feed the snapshot edges captured by the write barrier.
                // Each capture's reuse-epoch stamp is validated first: the
                // barrier buffers span cleanup pauses, so an entry can
                // outlive the block its referent lived in (released with
                // the collection set, reused by fresh allocation).  Feeding
                // such an entry let the marker scan whatever now occupies
                // the granule — a non-header word whose bogus shape drove
                // out-of-bounds line marking and slot scans (the
                // deep-list corruption this plan shared with g1).
                let mut fed = false;
                for chunk in state.sink.decrements.drain() {
                    for dec in chunk {
                        let obj = dec.value;
                        if obj.is_null() || !state.trace.space.contains(obj.to_address()) {
                            continue;
                        }
                        if state.trace.space.reuse_epoch(obj.to_address()) != dec.epoch {
                            collection.stats.add(WorkCounter::EpochStaleDrops, 1);
                            continue;
                        }
                        collection.stats.add(WorkCounter::EpochChecksPassed, 1);
                        if !state.trace.is_marked(obj) {
                            state.gray.push(obj);
                            fed = true;
                        }
                    }
                }
                state.sink.modified_fields.drain();
                if !fed && state.gray.is_empty() && state.mark_quiescent.load(Ordering::Acquire) {
                    collection.attrs.set_kind("final-mark");
                    // Select the collection set: mature blocks with the
                    // fewest live (marked) lines.
                    let geometry = state.trace.geometry;
                    let mut candidates: Vec<(usize, usize)> = Vec::new();
                    for (block, s) in state.trace.space.block_states().iter() {
                        if s != BlockState::Mature {
                            continue;
                        }
                        let live = state
                            .trace
                            .line_marks
                            .count_marked(geometry.first_line_of(block), geometry.lines_per_block());
                        if live > 0 && live * 2 < geometry.lines_per_block() {
                            candidates.push((block.index(), live));
                        }
                    }
                    candidates.sort_by_key(|(_, live)| *live);
                    candidates.truncate(128);
                    for (idx, _) in &candidates {
                        state
                            .trace
                            .space
                            .block_states()
                            .set(lxr_heap::Block::from_index(*idx), BlockState::EvacCandidate);
                    }
                    // The fresh marks are a sound liveness bound for every
                    // block (snapshot-reachable objects were traced, cycle
                    // allocations marked at allocation), so this pause can
                    // reclaim *immediate garbage* — blocks with no marked
                    // line — outright, and return partially free non-cset
                    // blocks to the recycled queue that init-mark drained
                    // (mutators are parked, so no allocator owns a region
                    // in any of them).
                    let log_table = state.log_table.clone();
                    for (block, s) in state.trace.space.block_states().iter() {
                        if !matches!(s, BlockState::Mature | BlockState::Young) {
                            continue;
                        }
                        let live = state
                            .trace
                            .line_marks
                            .count_marked(geometry.first_line_of(block), geometry.lines_per_block());
                        if live == 0 {
                            state.trace.release_free_block(block);
                            log_table.clear_range(geometry.block_start(block), geometry.words_per_block());
                            collection.stats.add(WorkCounter::MatureBlocksFreed, 1);
                        } else if live < geometry.lines_per_block()
                            && state.trace.blocks.release_recycled_block(block)
                        {
                            collection.stats.add(WorkCounter::BlocksRecycled, 1);
                        }
                    }
                    state
                        .live_blocks_estimate
                        .store(total - state.trace.blocks.free_block_count(), Ordering::Relaxed);
                    // Seed the update/evacuation pass with the roots.
                    state.update_visited.clear_all();
                    for root in collection.roots.collect_roots() {
                        state.update_queue.push(root);
                    }
                    state.evac_done.store(false, Ordering::Release);
                    state.evac_failed.store(false, Ordering::Release);
                    state.phase.store(PHASE_EVACUATING, Ordering::Release);
                } else {
                    collection.attrs.set_kind("remark");
                }
            }
            PHASE_EVACUATING => {
                if state.evac_done.load(Ordering::Acquire) {
                    collection.attrs.set_kind("cleanup");
                    // Heal the roots, reclaim the collection set.
                    collection.roots.visit_roots(|r| *r = state.om.resolve(*r));
                    let failed = state.evac_failed.load(Ordering::Acquire);
                    let geometry = state.trace.geometry;
                    for (block, s) in state.trace.space.block_states().iter() {
                        if s == BlockState::EvacCandidate {
                            if failed {
                                state.trace.space.block_states().set(block, BlockState::Mature);
                            } else {
                                // Releasing clears the block's mark/line-mark
                                // metadata and advances its reuse epochs;
                                // the log states of its slots are cleared
                                // here so its next life starts Ignored.
                                state.trace.release_free_block(block);
                                state
                                    .log_table
                                    .clear_range(geometry.block_start(block), geometry.words_per_block());
                                collection.stats.add(WorkCounter::MatureBlocksFreed, 1);
                            }
                        }
                    }
                    *state.evac_allocator.lock() = None;
                    state.phase.store(PHASE_IDLE, Ordering::Release);
                } else {
                    collection.attrs.set_kind("evac-pause");
                }
            }
            _ => unreachable!(),
        }
    }

    fn has_concurrent_work(&self) -> bool {
        match self.state.phase() {
            PHASE_MARKING => !self.state.mark_quiescent.load(Ordering::Acquire),
            PHASE_EVACUATING => !self.state.evac_done.load(Ordering::Acquire),
            _ => false,
        }
    }

    fn concurrent_work(&self, work: &ConcurrentWork<'_>) {
        let state = &self.state;
        state.concurrent_busy.store(true, Ordering::SeqCst);
        // Re-check for a pending pause after publishing busy, closing the
        // check-then-act race with the pause's quiescence spin (same
        // handshake as the LXR concurrent thread).
        if (work.yield_requested)() {
            state.concurrent_busy.store(false, Ordering::SeqCst);
            return;
        }
        match state.phase() {
            PHASE_MARKING => {
                let mut steps = 0usize;
                while let Some(obj) = state.gray.pop() {
                    if obj.is_null() {
                        continue;
                    }
                    let obj = state.om.resolve(obj);
                    if state.trace.try_mark(obj) {
                        let shape = state.om.shape(obj);
                        state.trace.mark_lines(obj, shape.size_words());
                        work.stats.add(WorkCounter::ObjectsMarked, 1);
                        state.om.scan_refs(obj, |_, child| {
                            work.stats.add(WorkCounter::SlotsTraced, 1);
                            if !child.is_null() {
                                state.gray.push(child);
                            }
                        });
                    }
                    steps += 1;
                    if steps.is_multiple_of(64) && (work.yield_requested)() {
                        state.concurrent_busy.store(false, Ordering::SeqCst);
                        return;
                    }
                }
                state.mark_quiescent.store(true, Ordering::Release);
            }
            PHASE_EVACUATING => {
                let mut steps = 0usize;
                while let Some(obj) = state.update_queue.pop() {
                    let before = state.om.resolve(obj);
                    if state.in_cset(before) {
                        let new = state.evacuate(before);
                        work.stats.add(WorkCounter::MatureObjectsCopied, 1);
                        state.update_object(new);
                    } else {
                        state.update_object(before);
                    }
                    steps += 1;
                    if steps.is_multiple_of(64) && (work.yield_requested)() {
                        state.concurrent_busy.store(false, Ordering::SeqCst);
                        return;
                    }
                }
                state.evac_done.store(true, Ordering::Release);
            }
            _ => {}
        }
        state.concurrent_busy.store(false, Ordering::SeqCst);
    }

    fn gauges(&self) -> String {
        let s = &self.state;
        format!(
            "{}: phase={} gray={} update_queue={} mark_quiescent={} evac_done={} evac_failed={} \
             concurrent_busy={} free_blocks={}",
            self.name(),
            match s.phase() {
                PHASE_IDLE => "idle",
                PHASE_MARKING => "marking",
                PHASE_EVACUATING => "evacuating",
                _ => "?",
            },
            s.gray.len(),
            s.update_queue.len(),
            s.mark_quiescent.load(Ordering::Relaxed),
            s.evac_done.load(Ordering::Relaxed),
            s.evac_failed.load(Ordering::Relaxed),
            s.concurrent_busy.load(Ordering::Relaxed),
            s.trace.blocks.free_block_count(),
        )
    }

    fn verify(&self, roots: &RootSet) -> VerifyReport {
        // The generic audit resolves forwarding pointers before checking
        // each object, so the lazily-healed slots this plan leaves between
        // cycles do not trip it; from-space blocks stay out of the free
        // list until every slot is healed, keeping the block-state check
        // sound mid-cycle too.
        lxr_runtime::verify::verify_generic(&self.state.om, roots, self.name())
    }

    fn describe_object(&self, obj: ObjectReference) -> Option<String> {
        Some(lxr_runtime::verify::describe_location(&self.state.om, obj))
    }
}

impl PlanFactory for ConcurrentCopyPlan {
    fn build(ctx: PlanContext) -> Self {
        ConcurrentCopyPlan::with_variant(ctx, ConcurrentCopyVariant::Shenandoah)
    }
}

struct ConcurrentCopyMutator {
    om: ObjectModel,
    allocator: ImmixAllocator,
    barrier: FieldLoggingBarrier,
    state: Arc<ConcurrentCopyState>,
}

impl PlanMutator for ConcurrentCopyMutator {
    fn alloc(&mut self, shape: ObjectShape) -> Result<ObjectReference, AllocFailure> {
        let size = shape.size_words();
        let addr = match self.allocator.alloc(size) {
            Ok(addr) => addr,
            Err(AllocError::TooLarge) => self.state.trace.los.alloc(size).ok_or(AllocFailure::OutOfMemory)?,
            Err(AllocError::OutOfMemory) => return Err(AllocFailure::OutOfMemory),
        };
        let obj = self.om.initialize(addr, shape);
        // Objects allocated during a concurrent cycle are kept alive by it.
        if self.state.phase() != PHASE_IDLE {
            self.state.trace.try_mark(obj);
            self.state.trace.mark_lines(obj, size);
        }
        Ok(obj)
    }

    fn write_ref(&mut self, src: ObjectReference, index: usize, value: ObjectReference) {
        // Resolve both ends (the LVB/forwarding part of the barrier), copy
        // on write if the target object is being evacuated, and log the
        // overwritten value for SATB marking.
        let mut src = self.om.resolve(src);
        if self.state.phase() == PHASE_EVACUATING && self.state.in_cset(src) {
            src = self.state.evacuate(src);
        }
        let mut value = self.om.resolve(value);
        if !value.is_null() && self.state.phase() == PHASE_EVACUATING && self.state.in_cset(value) {
            value = self.state.evacuate(value);
        }
        self.barrier.write(src.to_address().plus(1 + index), value);
    }

    /// The loaded value barrier (LVB): every reference load is filtered,
    /// healed, and (during evacuation) may copy the referent (§2.2, §2.4).
    ///
    /// C4, ZGC and recent Shenandoah filter *every* reference load this
    /// way: the barrier tests whether the loaded reference points into a
    /// region being relocated, and if so forwards the object (or copies it)
    /// and heals the slot so later loads take the fast path.  Because
    /// applications load reference fields roughly an order of magnitude
    /// more often than they store them, this barrier is several times more
    /// expensive than an object-remembering write barrier — the cost at the
    /// heart of the paper's argument.  The slot healing is real; the cost of
    /// the always-on check is captured by the `BarrierStats` read counters,
    /// which the harness converts into mutator overhead.
    fn read_ref(&mut self, src: ObjectReference, index: usize) -> ObjectReference {
        self.state.barrier_stats.count_reads(1);
        let src = self.om.resolve(src);
        let slot = src.to_address().plus(1 + index);
        let value = self.om.read_slot(slot);
        if value.is_null() {
            return value;
        }
        let mut healed = self.om.resolve(value);
        if self.state.phase() == PHASE_EVACUATING && self.state.in_cset(healed) {
            healed = self.state.evacuate(healed);
        }
        if healed != value {
            self.om.write_slot(slot, healed);
            self.state.barrier_stats.count_lvb_healed(1);
        }
        healed
    }

    fn resolve(&mut self, obj: ObjectReference) -> ObjectReference {
        self.state.barrier_stats.count_reads(1);
        let resolved = self.om.resolve(obj);
        if self.state.phase() == PHASE_EVACUATING && self.state.in_cset(resolved) {
            return self.state.evacuate(resolved);
        }
        resolved
    }

    fn write_data(&mut self, src: ObjectReference, index: usize, value: u64) {
        let src = self.resolve(src);
        self.om.write_data_field(src, index, value);
    }

    fn read_data(&mut self, src: ObjectReference, index: usize) -> u64 {
        let src = self.resolve(src);
        self.om.read_data_field(src, index)
    }

    fn prepare_for_gc(&mut self) {
        self.barrier.flush();
        self.allocator.retire();
    }
}
