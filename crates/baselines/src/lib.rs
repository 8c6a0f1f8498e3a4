//! # lxr-baselines
//!
//! The comparison collectors of the LXR paper's evaluation, rebuilt on the
//! same heap substrate, object model and runtime as LXR itself so that the
//! comparisons are apples-to-apples:
//!
//! * [`MarkRegionPlan`] with [`StwVariant`]s `Serial`, `Parallel`, `Immix`,
//!   `ImmixWithBarrier` and `SemiSpace` — the stop-the-world collectors used
//!   by the lower-bound-overhead analysis (Figure 7) and the barrier
//!   overhead experiment (§5.3),
//! * [`GenerationalPlan`] — a G1-like generational regional collector
//!   (write barrier, remembered sets, stop-the-world young evacuation,
//!   full collections for the old generation),
//! * [`ConcurrentCopyPlan`] with [`ConcurrentCopyVariant`]s `Shenandoah` and
//!   `Zgc` — concurrent marking and concurrent evacuation behind load-value
//!   and SATB barriers, degenerating to stop-the-world collections when
//!   allocation outruns the cycle; the ZGC variant refuses small heaps.
//!
//! Every plan implements [`lxr_runtime::Plan`] and can be selected by name
//! through [`plan_registry`].

pub mod common;
pub mod concurrent_copy;
pub mod generational;
pub mod stw;

pub use common::{CopyConfig, LineMarks, TraceState};
pub use concurrent_copy::{ConcurrentCopyPlan, ConcurrentCopyVariant};
pub use generational::GenerationalPlan;
pub use stw::{MarkRegionPlan, StwVariant};

use lxr_runtime::{Plan, PlanContext};
use std::sync::Arc;

/// All collector names known to the workspace (LXR plus every baseline).
pub const ALL_COLLECTORS: &[&str] = &[
    "lxr",
    "lxr-sticky",
    "g1",
    "shenandoah",
    "zgc",
    "serial",
    "parallel",
    "immix",
    "immix+barrier",
    "semispace",
];

/// The collector variants every end-to-end suite must cover: the workload
/// zoo's family smoke, the harness chaos sweeps, and the CI stress matrices
/// all iterate this slice instead of hand-enumerating names, so a new
/// variant added here cannot silently miss a suite.
pub const VARIANTS: &[&str] = &["lxr", "lxr-sticky", "g1", "shenandoah"];

/// Builds a plan by name.  `"lxr"` (its ablations `"lxr-stw"`,
/// `"lxr-nosatb"`, `"lxr-nold"`, `"lxr-eager"`, and the generational
/// `"lxr-sticky"`) is constructed through [`lxr_core::LxrPlan`]; everything
/// else comes from this crate.
///
/// # Panics
///
/// Panics if the name is unknown.
pub fn plan_registry(name: &str) -> Box<dyn FnOnce(PlanContext) -> Arc<dyn Plan>> {
    match name {
        "lxr" => Box::new(|ctx: PlanContext| {
            let config = lxr_core::LxrConfig::for_heap(ctx.options.heap.heap_bytes);
            Arc::new(lxr_core::LxrPlan::with_config(ctx, config)) as Arc<dyn Plan>
        }),
        "lxr-stw" => Box::new(|ctx: PlanContext| {
            let config = lxr_core::LxrConfig::for_heap(ctx.options.heap.heap_bytes).stop_the_world();
            Arc::new(lxr_core::LxrPlan::with_config(ctx, config)) as Arc<dyn Plan>
        }),
        "lxr-nosatb" => Box::new(|ctx: PlanContext| {
            let config = lxr_core::LxrConfig::for_heap(ctx.options.heap.heap_bytes).without_concurrent_satb();
            Arc::new(lxr_core::LxrPlan::with_config(ctx, config)) as Arc<dyn Plan>
        }),
        "lxr-nold" => Box::new(|ctx: PlanContext| {
            let config = lxr_core::LxrConfig::for_heap(ctx.options.heap.heap_bytes).without_lazy_decrements();
            Arc::new(lxr_core::LxrPlan::with_config(ctx, config)) as Arc<dyn Plan>
        }),
        // LXR with the clean-block trigger forced: an SATB trace starts at
        // every opportunity.  Deterministic backup-trace exercise for tests
        // and trace-bound workload studies (cyclic garbage is reclaimed as
        // fast as the concurrent crew can mark, regardless of heap
        // pressure heuristics).
        "lxr-eager" => Box::new(|ctx: PlanContext| {
            let config = lxr_core::LxrConfig {
                clean_block_trigger_fraction: 1.0,
                ..lxr_core::LxrConfig::for_heap(ctx.options.heap.heap_bytes)
            };
            Arc::new(lxr_core::LxrPlan::with_config(ctx, config)) as Arc<dyn Plan>
        }),
        // Sticky (generational) LXR: mark bits persist across traces, and
        // most traces scan only the nursery — objects allocated or mutated
        // since the last trace — escalating to a full-heap trace
        // periodically and whenever the yield heuristic or a degenerate
        // pause demands one.
        "lxr-sticky" => Box::new(|ctx: PlanContext| {
            let config = lxr_core::LxrConfig::for_heap(ctx.options.heap.heap_bytes).sticky();
            Arc::new(lxr_core::LxrPlan::with_config(ctx, config)) as Arc<dyn Plan>
        }),
        "g1" => Box::new(GenerationalPlan::factory()),
        "shenandoah" => Box::new(ConcurrentCopyPlan::factory(ConcurrentCopyVariant::Shenandoah)),
        "zgc" => Box::new(ConcurrentCopyPlan::factory(ConcurrentCopyVariant::Zgc)),
        "serial" => Box::new(MarkRegionPlan::factory(StwVariant::Serial)),
        "parallel" => Box::new(MarkRegionPlan::factory(StwVariant::Parallel)),
        "immix" => Box::new(MarkRegionPlan::factory(StwVariant::Immix)),
        "immix+barrier" => Box::new(MarkRegionPlan::factory(StwVariant::ImmixWithBarrier)),
        "semispace" => Box::new(MarkRegionPlan::factory(StwVariant::SemiSpace)),
        other => panic!("unknown collector `{other}`"),
    }
}

/// The minimum heap (bytes) a collector requires, if it has one.
pub fn minimum_heap_for(name: &str) -> Option<usize> {
    match name {
        "zgc" => Some(ConcurrentCopyPlan::ZGC_MINIMUM_HEAP),
        _ => None,
    }
}
