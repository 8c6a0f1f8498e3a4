//! Stop-the-world tracing baselines: Serial, Parallel, full-heap Immix
//! (mark-region), Immix with the LXR field barrier (for the §5.3 barrier
//! overhead experiment), and SemiSpace (mark-copy), which the LBO
//! methodology uses as one of its ideal-collector baselines.

use crate::common::{CopyConfig, TraceState};
use lxr_barrier::{BarrierSink, BarrierStats, FieldLogTable, FieldLoggingBarrier};
use lxr_heap::{AllocError, ImmixAllocator, LineOccupancy};
use lxr_object::{ObjectModel, ObjectReference, ObjectShape};
use lxr_runtime::{
    AllocFailure, Collection, GcReason, Plan, PlanContext, PlanFactory, PlanMutator, RootSet, VerifyReport,
    WorkCounter, WorkerPool,
};
use std::sync::Arc;

/// Which stop-the-world variant a [`MarkRegionPlan`] embodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StwVariant {
    /// Single GC thread, mark-region (no copying).
    Serial,
    /// Parallel GC threads, mark-region (no copying).
    Parallel,
    /// Parallel mark-region — the "full heap Immix" barrier-overhead
    /// baseline of §5.3 (identical to `Parallel`, kept distinct for
    /// reporting).
    Immix,
    /// Parallel mark-region with the LXR field-logging write barrier
    /// installed (its output is discarded); used to measure the barrier's
    /// mutator overhead.
    ImmixWithBarrier,
    /// Parallel copying: every live object is evacuated each collection.
    SemiSpace,
}

impl StwVariant {
    fn name(self) -> &'static str {
        match self {
            StwVariant::Serial => "serial",
            StwVariant::Parallel => "parallel",
            StwVariant::Immix => "immix",
            StwVariant::ImmixWithBarrier => "immix+barrier",
            StwVariant::SemiSpace => "semispace",
        }
    }
}

/// A simple stop-the-world tracing collector over the Immix heap structure.
pub struct MarkRegionPlan {
    state: Arc<TraceState>,
    variant: StwVariant,
    /// Private single-threaded pool used by the Serial variant.
    serial_pool: Option<WorkerPool>,
    /// Field-logging machinery for the `ImmixWithBarrier` variant.
    log_table: Arc<FieldLogTable>,
    sink: Arc<BarrierSink>,
    barrier_stats: Arc<BarrierStats>,
}

impl std::fmt::Debug for MarkRegionPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MarkRegionPlan").field("variant", &self.variant).finish_non_exhaustive()
    }
}

impl MarkRegionPlan {
    /// Creates a plan of the given variant.
    pub fn with_variant(ctx: PlanContext, variant: StwVariant) -> Self {
        let state = Arc::new(TraceState::new(&ctx));
        MarkRegionPlan {
            log_table: Arc::new(FieldLogTable::for_space(&ctx.space)),
            sink: Arc::new(BarrierSink::new()),
            barrier_stats: Arc::new(BarrierStats::new()),
            serial_pool: if variant == StwVariant::Serial { Some(WorkerPool::new(1)) } else { None },
            state,
            variant,
        }
    }

    /// A factory closure for [`lxr_runtime::Runtime::with_factory`].
    pub fn factory(variant: StwVariant) -> impl FnOnce(PlanContext) -> Arc<dyn Plan> {
        move |ctx| Arc::new(MarkRegionPlan::with_variant(ctx, variant)) as Arc<dyn Plan>
    }

    /// Barrier statistics (meaningful for the `ImmixWithBarrier` variant).
    pub fn barrier_stats(&self) -> &Arc<BarrierStats> {
        &self.barrier_stats
    }
}

impl Plan for MarkRegionPlan {
    fn name(&self) -> &'static str {
        self.variant.name()
    }

    fn create_mutator(&self, _mutator_id: usize) -> Box<dyn PlanMutator> {
        let occupancy: Arc<dyn LineOccupancy> = self.state.line_marks.clone();
        let barrier = if self.variant == StwVariant::ImmixWithBarrier {
            Some(FieldLoggingBarrier::new(
                self.state.space.clone(),
                self.log_table.clone(),
                self.sink.clone(),
                self.barrier_stats.clone(),
            ))
        } else {
            None
        };
        Box::new(MarkRegionMutator {
            om: ObjectModel::new(self.state.space.clone()),
            allocator: ImmixAllocator::new(self.state.space.clone(), self.state.blocks.clone(), occupancy),
            state: self.state.clone(),
            barrier,
        })
    }

    fn poll(&self) -> Option<GcReason> {
        let total = self.state.blocks.total_blocks();
        if self.state.available_blocks() * 8 < total {
            Some(GcReason::Threshold)
        } else {
            None
        }
    }

    fn collect(&self, collection: &Collection<'_>) {
        collection.attrs.set_kind("full");
        self.state.clear_marks();
        // Discard (and re-arm) any barrier output: the barrier-overhead
        // variant measures mutator cost only.  Epoch-stale slots are
        // skipped — their line was released and reallocated, so re-arming
        // would poison a fresh object's field.
        for chunk in self.sink.modified_fields.drain() {
            for slot in chunk {
                if self.state.space.reuse_epoch(slot.value) == slot.epoch {
                    self.log_table.mark_unlogged(slot.value);
                }
            }
        }
        self.sink.decrements.drain();

        let copy = if self.variant == StwVariant::SemiSpace {
            // Copy targets must be clean blocks: line marks were just
            // cleared, so recycled blocks would otherwise look empty while
            // still holding not-yet-copied objects.  Drain the recycled
            // queue; the trace will copy everything out of those blocks and
            // the sweep will free them.
            while self.state.blocks.acquire_recycled_block().is_some() {}
            Some(CopyConfig { copy_all: true, occupancy: self.state.line_marks.clone(), bounded: false })
        } else {
            None
        };
        let workers = self.serial_pool.as_ref().unwrap_or(collection.workers);
        self.state.trace(workers, collection, copy);
        if self.variant == StwVariant::SemiSpace {
            collection.stats.add(
                WorkCounter::WordsCopied,
                self.state.live_words.load(std::sync::atomic::Ordering::Relaxed) as u64,
            );
        }
        let log_table = self.log_table.clone();
        let geometry = self.state.geometry;
        self.state.sweep_with(collection.stats, |block| {
            log_table.clear_range(geometry.block_start(block), geometry.words_per_block());
        });
    }

    fn verify(&self, roots: &RootSet) -> VerifyReport {
        lxr_runtime::verify::verify_generic(&self.state.om, roots, self.name())
    }

    fn describe_object(&self, obj: ObjectReference) -> Option<String> {
        Some(lxr_runtime::verify::describe_location(&self.state.om, obj))
    }
}

/// Factory type for the default (parallel Immix) variant, so
/// `Runtime::new::<MarkRegionPlan>` works in examples and tests.
impl PlanFactory for MarkRegionPlan {
    fn build(ctx: PlanContext) -> Self {
        MarkRegionPlan::with_variant(ctx, StwVariant::Immix)
    }
}

struct MarkRegionMutator {
    om: ObjectModel,
    allocator: ImmixAllocator,
    state: Arc<TraceState>,
    barrier: Option<FieldLoggingBarrier>,
}

impl PlanMutator for MarkRegionMutator {
    fn alloc(&mut self, shape: ObjectShape) -> Result<ObjectReference, AllocFailure> {
        let size = shape.size_words();
        let addr = match self.allocator.alloc(size) {
            Ok(addr) => addr,
            Err(AllocError::TooLarge) => self.state.los.alloc(size).ok_or(AllocFailure::OutOfMemory)?,
            Err(AllocError::OutOfMemory) => return Err(AllocFailure::OutOfMemory),
        };
        Ok(self.om.initialize(addr, shape))
    }

    fn write_ref(&mut self, src: ObjectReference, index: usize, value: ObjectReference) {
        match &mut self.barrier {
            Some(barrier) => barrier.write(src.to_address().plus(1 + index), value),
            None => self.om.write_ref_field(src, index, value),
        }
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
        if let Some(barrier) = &mut self.barrier {
            barrier.flush();
        }
        self.allocator.retire();
    }
}
