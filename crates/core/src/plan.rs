//! The LXR plan: the glue between the runtime's [`Plan`] interface and the
//! collector's pause, concurrent and mutator components.

use crate::config::LxrConfig;
use crate::mutator::LxrMutator;
use crate::state::LxrState;
use lxr_barrier::BarrierStats;
use lxr_object::ObjectReference;
use lxr_runtime::{
    Collection, ConcurrentWork, GcReason, Plan, PlanContext, PlanFactory, PlanMutator, RootSet, VerifyReport,
};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Predictive-trigger lead, as a fraction of the predicted per-epoch
/// allocation volume: a collection is requested once the available memory
/// (free + recycled + growable) drops below the exhaustion backstop plus
/// this fraction of the allocation predicted for one epoch.
const PREDICTIVE_LEAD: f64 = 0.5;

/// Trigger an RC pause when fewer than this fraction of blocks are
/// available (clean + recycled); a backstop against running the heap
/// completely dry between pauses.
const HEAP_FULL_FRACTION: f64 = 0.08;

/// The LXR collector (§3): coalescing deferred reference counting over an
/// Immix heap, brief stop-the-world RC pauses with judicious copying, lazy
/// concurrent decrements, and an occasional concurrent SATB trace for
/// cyclic garbage, stuck counts and mature defragmentation.
pub struct LxrPlan {
    state: Arc<LxrState>,
}

impl std::fmt::Debug for LxrPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LxrPlan").field("state", &self.state).finish()
    }
}

impl LxrPlan {
    /// Creates an LXR plan with an explicit configuration.
    pub fn with_config(ctx: PlanContext, config: LxrConfig) -> Self {
        LxrPlan { state: Arc::new(LxrState::new(&ctx, config)) }
    }

    /// A plan factory closure with an explicit configuration, for use with
    /// [`lxr_runtime::Runtime::with_factory`].
    pub fn factory(config: LxrConfig) -> impl FnOnce(PlanContext) -> Arc<dyn Plan> {
        move |ctx| Arc::new(LxrPlan::with_config(ctx, config)) as Arc<dyn Plan>
    }

    /// The collector's shared state (exposed for tests and the experiment
    /// harness).
    pub fn state(&self) -> &Arc<LxrState> {
        &self.state
    }

    /// Barrier activity counters (slow-path take rate, write counts).
    pub fn barrier_stats(&self) -> &Arc<BarrierStats> {
        &self.state.barrier_stats
    }

    /// Completed RC epochs.
    pub fn epochs(&self) -> u64 {
        self.state.epochs.load(Ordering::Relaxed)
    }
}

impl Plan for LxrPlan {
    fn name(&self) -> &'static str {
        "lxr"
    }

    fn create_mutator(&self, _mutator_id: usize) -> Box<dyn PlanMutator> {
        Box::new(LxrMutator::new(self.state.clone()))
    }

    fn poll(&self) -> Option<GcReason> {
        let state = &self.state;
        let total = state.blocks.total_blocks();
        // Heap-full backstop: too few blocks available for allocation.
        // `available` counts growable (unmapped-chunk) capacity, so an
        // elastic heap grows all the way to `--heap-max` before the
        // backstop fires.
        let available = state.available_blocks();
        let backstop_blocks = (HEAP_FULL_FRACTION * total as f64).max(2.0);
        if (available as f64) <= backstop_blocks {
            return Some(GcReason::Threshold);
        }
        let allocated_words =
            state.space.allocated_words().saturating_sub(state.words_at_epoch_start.load(Ordering::Relaxed));
        // Predictive trigger: the allocation-rate predictor forecasts that
        // the epoch in flight will carry the heap into the backstop, so
        // collection (and its concurrent tail) starts before any allocator
        // actually fails.  Guarded by a block's worth of real allocation so
        // a freshly-finished pause cannot immediately re-trigger.
        if allocated_words >= state.geometry.words_per_block() {
            let predicted_epoch_words = state.predictors.lock().alloc_words_per_epoch.value();
            let available_words = (available as f64) * state.geometry.words_per_block() as f64;
            let backstop_words = backstop_blocks * state.geometry.words_per_block() as f64;
            if predicted_epoch_words > 0.0
                && available_words <= backstop_words + PREDICTIVE_LEAD * predicted_epoch_words
            {
                lxr_failpoints::failpoint!("trigger.predictive");
                return Some(GcReason::Predictive);
            }
        }
        // Survival trigger: predicted surviving volume of the allocation
        // since the last epoch exceeds the survival threshold (§3.2.1).
        let predicted_survival_bytes =
            allocated_words as f64 * 8.0 * state.predictors.lock().survival_rate.value();
        if predicted_survival_bytes > state.config.survival_threshold_bytes as f64 {
            return Some(GcReason::Threshold);
        }
        None
    }

    fn defer_poll_trigger(&self, reason: GcReason) -> bool {
        if !matches!(reason, GcReason::Threshold | GcReason::Predictive) {
            return false;
        }
        // The pause gate may park a pacing trigger only while the heap can
        // absorb the wait: deferral is bounded by twice the heap-full
        // backstop, so even if every in-flight request allocates through
        // the whole deferral window the backstop trigger (which is never
        // deferrable once `poll` reports it) still fires before exhaustion.
        let state = &self.state;
        let total = state.blocks.total_blocks();
        let backstop_blocks = (HEAP_FULL_FRACTION * total as f64).max(2.0);
        state.available_blocks() as f64 > 2.0 * backstop_blocks
    }

    fn collect(&self, collection: &Collection<'_>) {
        crate::pause::rc_pause(&self.state, collection);
    }

    fn has_concurrent_work(&self) -> bool {
        crate::concurrent::has_concurrent_work(&self.state)
    }

    fn concurrent_work(&self, work: &ConcurrentWork<'_>) {
        crate::concurrent::concurrent_work(&self.state, work);
    }

    fn max_concurrent_workers(&self) -> usize {
        // LXR's concurrent phases are crew-parallel: marking and lazy
        // decrements seed-and-steal through the shared gray and pending
        // queues, so any crew size the runtime offers is welcome.
        usize::MAX
    }

    fn gauges(&self) -> String {
        let s = &self.state;
        format!(
            "lxr: epochs={} satb_active={} satb_complete={} gray={} pending_decs={} lazy_pending={} \
             concurrent_active={} satb_tracers={} force_degenerate={} free_blocks={} recycled_blocks={}",
            s.epochs.load(Ordering::Relaxed),
            s.satb_active.load(Ordering::Relaxed),
            s.satb_complete.load(Ordering::Relaxed),
            s.gray.len(),
            s.pending_decs.len(),
            s.lazy_pending.load(Ordering::Relaxed),
            s.concurrent_active.load(Ordering::Relaxed),
            s.satb_tracers.load(Ordering::Relaxed),
            s.force_degenerate.load(Ordering::Relaxed),
            s.blocks.free_block_count(),
            s.blocks.recycled_block_count(),
        )
    }

    fn verify(&self, roots: &RootSet) -> VerifyReport {
        crate::verify::verify(&self.state, roots)
    }

    fn describe_object(&self, obj: ObjectReference) -> Option<String> {
        Some(crate::verify::describe_object(&self.state, obj))
    }
}

impl PlanFactory for LxrPlan {
    fn build(ctx: PlanContext) -> Self {
        let config = LxrConfig::for_heap(ctx.options.heap.heap_bytes);
        LxrPlan::with_config(ctx, config)
    }
}
