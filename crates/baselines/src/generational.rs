//! A G1-like generational regional collector.
//!
//! The plan reproduces the architecture the paper attributes to G1 (§2.5):
//! region (block) based, generational, with a write barrier and remembered
//! sets used to collect the young generation independently, and strictly
//! copying for young collections.  Young collections evacuate every
//! surviving young object into the old generation during a stop-the-world
//! pause; old-generation garbage is collected by an occasional full
//! mark-region pause (the analogue of G1's marking cycle plus mixed
//! collections — performed stop-the-world here, which preserves G1's
//! characteristic longer tail pauses on high-survival workloads while
//! keeping its good throughput).

use crate::common::{CopyConfig, TraceState};
use lxr_barrier::{BarrierSink, BarrierStats, FieldLogTable, FieldLoggingBarrier};
use lxr_heap::{AllocError, BlockState, ImmixAllocator, LineOccupancy};
use lxr_object::{ObjectModel, ObjectReference, ObjectShape};
use lxr_runtime::{
    AllocFailure, Collection, GcReason, Plan, PlanContext, PlanFactory, PlanMutator, RootSet, VerifyReport,
    WorkCounter,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A full (old-generation) collection is triggered when more than this
/// fraction of the heap's blocks is in use after a young collection.
const FULL_GC_OCCUPANCY: f64 = 0.55;

/// The G1-like generational regional plan.
pub struct GenerationalPlan {
    state: Arc<TraceState>,
    /// A young collection is triggered once this many bytes have been
    /// allocated since the previous collection: a quarter of the heap,
    /// clamped to 1–64 MB.
    young_target_bytes: usize,
    log_table: Arc<FieldLogTable>,
    sink: Arc<BarrierSink>,
    barrier_stats: Arc<BarrierStats>,
    words_at_last_gc: AtomicUsize,
}

impl std::fmt::Debug for GenerationalPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GenerationalPlan")
            .field("young_target_bytes", &self.young_target_bytes)
            .finish_non_exhaustive()
    }
}

impl GenerationalPlan {
    /// A factory closure for [`lxr_runtime::Runtime::with_factory`].
    pub fn factory() -> impl FnOnce(PlanContext) -> Arc<dyn lxr_runtime::Plan> {
        |ctx| Arc::new(GenerationalPlan::build(ctx)) as Arc<dyn lxr_runtime::Plan>
    }

    /// Barrier statistics.
    pub fn barrier_stats(&self) -> &Arc<BarrierStats> {
        &self.barrier_stats
    }

    fn young_collection(&self, collection: &Collection<'_>) {
        collection.attrs.set_kind("young");
        // The young generation is every block handed out clean since the
        // last collection.
        let mut candidates = Vec::new();
        for (block, state) in self.state.space.block_states().iter() {
            if state == BlockState::Young {
                self.state.space.block_states().set(block, BlockState::EvacCandidate);
                candidates.push(block);
            }
        }
        // Remembered set: fields of old objects written since the last
        // collection (captured by the write barrier).  Each entry's
        // reuse-epoch stamp is validated first: a stale slot — its line
        // released and reallocated since the barrier logged it — now
        // belongs to an unrelated object, and seeding the young trace with
        // it would heal a forwarded pointer straight into that object's
        // words (the deep-list corruption: clobbered headers re-read as
        // forwarding tag 3, out-of-bounds shapes, spurious OOM).  Valid
        // slots are re-armed so next epoch's writes are captured again.
        let mut remset_slots = Vec::new();
        for chunk in self.sink.modified_fields.drain() {
            for slot in chunk {
                if self.state.space.reuse_epoch(slot.value) != slot.epoch {
                    collection.stats.add(WorkCounter::EpochStaleDrops, 1);
                    continue;
                }
                collection.stats.add(WorkCounter::EpochChecksPassed, 1);
                self.log_table.mark_unlogged(slot.value);
                remset_slots.push(slot.value);
            }
        }
        self.sink.decrements.drain();

        // Bounded young trace: roots plus remembered slots, copying every
        // reachable object out of the candidate blocks; pointers that lead
        // outside the young generation are not followed.  Promoted objects
        // have their fields armed so future writes feed the remembered set.
        let copied_before = collection.stats.get(WorkCounter::MatureObjectsCopied);
        let copy = CopyConfig { copy_all: false, occupancy: self.state.line_marks.clone(), bounded: true };
        let log_table = self.log_table.clone();
        let arm: Arc<dyn Fn(ObjectReference, u16) + Send + Sync> = Arc::new(move |obj, nrefs| {
            for i in 0..nrefs as usize {
                log_table.mark_unlogged(obj.to_address().plus(1 + i));
            }
        });
        self.state.trace_with(collection.workers, collection, Some(copy), remset_slots, Some(arm));
        let _ = copied_before;

        // Candidate blocks whose every live object was copied out are free.
        // Releasing also clears the block's mark and field-log metadata and
        // advances its reuse epochs, so the next generational cycle cannot
        // inherit phantom line marks or Unlogged fields from this one.
        for block in candidates {
            let fully_evacuated = self.state.line_marks.count_marked(
                self.state.geometry.first_line_of(block),
                self.state.geometry.lines_per_block(),
            ) == 0;
            if fully_evacuated {
                self.state.release_free_block(block);
                self.log_table.clear_range(
                    self.state.geometry.block_start(block),
                    self.state.geometry.words_per_block(),
                );
                collection.stats.add(WorkCounter::YoungBlocksFreed, 1);
            } else {
                self.state.space.block_states().set(block, BlockState::Mature);
            }
        }
        // Promote the copy-target blocks (still in the Young state) to the
        // old generation so the next young collection does not re-copy them.
        for (block, state) in self.state.space.block_states().iter() {
            if state == BlockState::Young {
                self.state.space.block_states().set(block, BlockState::Mature);
            }
        }
    }

    fn full_collection(&self, collection: &Collection<'_>) {
        collection.attrs.set_kind("full");
        // Re-arm remembered slots (epoch-valid ones only — a stale slot's
        // line belongs to a new object whose fields must stay Ignored) and
        // discard the rest of the barrier output.
        for chunk in self.sink.modified_fields.drain() {
            for slot in chunk {
                if self.state.space.reuse_epoch(slot.value) == slot.epoch {
                    collection.stats.add(WorkCounter::EpochChecksPassed, 1);
                    self.log_table.mark_unlogged(slot.value);
                } else {
                    collection.stats.add(WorkCounter::EpochStaleDrops, 1);
                }
            }
        }
        self.sink.decrements.drain();

        // Mixed (compacting) collection on exhaustion.  A non-copying full
        // collection can only free *entirely* dead blocks, so old-gen
        // fragmentation — blocks with one live line each — accumulates
        // until young allocation, which needs whole fresh blocks, starves
        // while most of the heap sits in the recycled queue ("0 free / 192
        // recycled" in the thrash state).  When an allocation actually
        // failed, evacuate the sparsest half of the queued partial blocks
        // into the denser half: the trace copies their live objects out
        // (candidate blocks empty wholesale into free blocks), while the
        // copy allocators fill dead lines of the retained pool.
        let compacting = collection.reason == GcReason::Exhausted;
        let geometry = self.state.geometry;
        let mut candidates: Vec<lxr_heap::Block> = Vec::new();
        if compacting {
            let mut queued: Vec<(lxr_heap::Block, usize)> = Vec::new();
            while let Some(block) = self.state.blocks.acquire_recycled_block() {
                // Last-cycle line marks are a conservative liveness bound,
                // good enough to sort sparse from dense.
                let marked = self
                    .state
                    .line_marks
                    .count_marked(geometry.first_line_of(block), geometry.lines_per_block());
                queued.push((block, marked));
            }
            queued.sort_by_key(|&(_, marked)| marked);
            let evacuate = queued.len() / 2;
            for (i, &(block, _)) in queued.iter().enumerate() {
                if i < evacuate {
                    self.state.space.block_states().set(block, BlockState::EvacCandidate);
                    candidates.push(block);
                } else {
                    // The denser half is the target pool for the copies.
                    self.state.blocks.release_recycled_block(block);
                }
            }
        }
        if compacting {
            // Granule marks must be fresh (they decide reachability and,
            // afterwards, which candidates still hold in-place survivors),
            // but the *line* marks are kept: they are the copy allocators'
            // occupancy oracle for the target pool, where last-cycle marks
            // are still a sound conservative bound (mutators never allocate
            // into old blocks, so no live line is unmarked).
            self.state.marks.clear_all();
            self.state.live_words.store(0, Ordering::Relaxed);
        } else {
            self.state.clear_marks();
        }
        let log_table = self.log_table.clone();
        let arm: Arc<dyn Fn(ObjectReference, u16) + Send + Sync> = Arc::new(move |obj, nrefs| {
            for i in 0..nrefs as usize {
                log_table.mark_unlogged(obj.to_address().plus(1 + i));
            }
        });
        let copy = compacting.then(|| CopyConfig {
            copy_all: false,
            occupancy: self.state.line_marks.clone(),
            bounded: false,
        });
        self.state.trace_with(collection.workers, collection, copy, Vec::new(), Some(arm));

        // Resolve the evacuation candidates before the sweep: a candidate
        // with no granule mark holds no in-place survivor (copy failures
        // mark in place; successful copies mark only their new location),
        // so it is empty and becomes a whole free block — the point of the
        // compaction.  This must not be left to the line-mark sweep, whose
        // view of the candidates is polluted by last-cycle marks.
        for &block in &candidates {
            let start = geometry.block_start(block);
            if self.state.marks.count_nonzero_range(start, geometry.words_per_block()) == 0 {
                self.state.release_free_block(block);
                self.log_table.clear_range(start, geometry.words_per_block());
                collection.stats.add(WorkCounter::MatureBlocksFreed, 1);
            } else {
                self.state.space.block_states().set(block, BlockState::Mature);
            }
        }
        let log_table = self.log_table.clone();
        self.state.sweep_with(collection.stats, |block| {
            log_table.clear_range(geometry.block_start(block), geometry.words_per_block());
        });
        // Partially free old blocks stay queued for reuse — but only the
        // *promotion* copy allocators draw from that queue (mutator
        // allocators run with `use_recycled` off, preserving G1's
        // young-in-fresh-regions invariant: a young object allocated into
        // an old block would escape the remembered set).  Promoted copies
        // are armed and line-marked, so filling dead lines of mature blocks
        // with them is safe — and without it, old-generation fragmentation
        // (partially live blocks that a non-copying full collection can
        // never free) accumulated until the heap thrashed in back-to-back
        // exhausted full collections.
        // Everything that survives a full collection is old.
        for (block, state) in self.state.space.block_states().iter() {
            if matches!(state, BlockState::Young | BlockState::EvacCandidate) {
                self.state.space.block_states().set(block, BlockState::Mature);
            }
        }
    }
}

impl Plan for GenerationalPlan {
    fn name(&self) -> &'static str {
        "g1"
    }

    fn create_mutator(&self, _mutator_id: usize) -> Box<dyn PlanMutator> {
        let occupancy: Arc<dyn LineOccupancy> = self.state.line_marks.clone();
        let mut allocator =
            ImmixAllocator::new(self.state.space.clone(), self.state.blocks.clone(), occupancy);
        // Young objects must never share a block with old ones (they would
        // escape the remembered set), so mutators allocate only in fresh
        // blocks; the recycled queue is reserved for promotion copies.
        allocator.set_use_recycled(false);
        Box::new(GenerationalMutator {
            om: ObjectModel::new(self.state.space.clone()),
            allocator,
            state: self.state.clone(),
            barrier: FieldLoggingBarrier::new(
                self.state.space.clone(),
                self.log_table.clone(),
                self.sink.clone(),
                self.barrier_stats.clone(),
            ),
        })
    }

    fn poll(&self) -> Option<GcReason> {
        let total = self.state.blocks.total_blocks();
        if self.state.available_blocks() * 12 < total {
            return Some(GcReason::Threshold);
        }
        let allocated_bytes = (self
            .state
            .space
            .allocated_words()
            .saturating_sub(self.words_at_last_gc.load(Ordering::Relaxed)))
            * 8;
        if allocated_bytes > self.young_target_bytes {
            return Some(GcReason::Threshold);
        }
        None
    }

    fn collect(&self, collection: &Collection<'_>) {
        let total = self.state.blocks.total_blocks();
        let used = total - self.state.blocks.free_block_count();
        let full =
            collection.reason == GcReason::Exhausted || (used as f64) > FULL_GC_OCCUPANCY * total as f64;
        if full {
            self.full_collection(collection);
        } else {
            self.young_collection(collection);
        }
        self.words_at_last_gc.store(self.state.space.allocated_words(), Ordering::Relaxed);
    }

    fn verify(&self, roots: &RootSet) -> VerifyReport {
        lxr_runtime::verify::verify_generic(&self.state.om, roots, self.name())
    }

    fn describe_object(&self, obj: ObjectReference) -> Option<String> {
        Some(lxr_runtime::verify::describe_location(&self.state.om, obj))
    }
}

impl PlanFactory for GenerationalPlan {
    fn build(ctx: PlanContext) -> Self {
        GenerationalPlan {
            log_table: Arc::new(FieldLogTable::for_space(&ctx.space)),
            sink: Arc::new(BarrierSink::new()),
            barrier_stats: Arc::new(BarrierStats::new()),
            young_target_bytes: (ctx.options.heap.heap_bytes / 4).clamp(1 << 20, 64 << 20),
            state: Arc::new(TraceState::new(&ctx)),
            words_at_last_gc: AtomicUsize::new(0),
        }
    }
}

struct GenerationalMutator {
    om: ObjectModel,
    allocator: ImmixAllocator,
    state: Arc<TraceState>,
    barrier: FieldLoggingBarrier,
}

impl PlanMutator for GenerationalMutator {
    fn alloc(&mut self, shape: ObjectShape) -> Result<ObjectReference, AllocFailure> {
        let size = shape.size_words();
        let addr = match self.allocator.alloc(size) {
            Ok(addr) => addr,
            Err(AllocError::TooLarge) => {
                let addr = self.state.los.alloc(size).ok_or(AllocFailure::OutOfMemory)?;
                // Large objects are *born old* in this plan (never young
                // candidates, reclaimed only by full collections), so their
                // reference fields must feed the remembered set from the
                // very first write.  Leaving them `Ignored` — the seed's
                // behaviour — silently dropped every LOS→young edge created
                // before the first full trace armed them: the young
                // collection then evacuated and released blocks whose
                // objects the large object still referenced, and the
                // dangling entries fed later traces garbage headers (the
                // deep-list corruption's entry point).
                self.barrier.table().arm_range(addr.plus(1), shape.nrefs as usize);
                return Ok(self.om.initialize(addr, shape));
            }
            Err(AllocError::OutOfMemory) => return Err(AllocFailure::OutOfMemory),
        };
        Ok(self.om.initialize(addr, shape))
    }

    fn write_ref(&mut self, src: ObjectReference, index: usize, value: ObjectReference) {
        // G1's write barrier records cross-generation pointers; the
        // field-logging barrier captures the same information (the slot) and
        // skips fields of objects allocated this epoch, which cannot yet be
        // "old" sources.
        self.barrier.write(src.to_address().plus(1 + index), value);
    }

    fn read_ref(&mut self, src: ObjectReference, index: usize) -> ObjectReference {
        self.om.read_ref_field(src, index)
    }

    fn write_data(&mut self, src: ObjectReference, index: usize, value: u64) {
        self.om.write_data_field(src, index, value);
    }

    fn read_data(&mut self, src: ObjectReference, index: usize) -> u64 {
        self.om.read_data_field(src, index)
    }

    fn prepare_for_gc(&mut self) {
        self.barrier.flush();
        self.allocator.retire();
    }
}
