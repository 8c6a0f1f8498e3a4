//! SATB trace lifecycle: triggers, start, and reclamation (§3.2.2, §3.3.2).
//!
//! LXR's backup trace uses Yuasa's snapshot-at-the-beginning algorithm,
//! seeded with the root set of an RC pause.  The trace is driven by the
//! concurrent GC *crew* (see [`crate::concurrent`]): every crew worker
//! marks through a local stack seeded from, and stealing through, the
//! shared gray queue, so the backup trace scales with the crew instead of
//! being bound to one collector thread.  Mid-epoch mutator barrier flushes
//! publish overwritten referents straight into the gray queue, so marking
//! of the snapshot edges starts before the next pause drains the barrier
//! buffers.
//!
//! # Lifecycle
//!
//! The trace runs concurrently with mutators, spans as many RC epochs as
//! it needs (each pause feeds it the remaining overwritten snapshot edges
//! and re-seeds the crew with whatever preemption left in the gray queue),
//! and when it completes, the next pause reclaims every mature object the
//! trace did not mark — dead cycles and objects with stuck counts — and
//! evacuates the fragmented blocks selected when the trace began.  Pauses
//! also retire a bounded catch-up slice of the gray set (1/8 of the heap's
//! granules; unbounded on exhaustion pauses, the degenerate-GC fallback),
//! which is what guarantees convergence even when a saturated host starves
//! the crew.
//!
//! # Why the snapshot stays sound
//!
//! Yuasa's invariant needs every reference live at trace start to be
//! marked-through before it can be overwritten.  Three mechanisms uphold
//! it here:
//!
//! * the deletion barrier captures overwritten referents into the
//!   decrement buffers, and both the mid-epoch barrier flush and the pause
//!   feed those referents into the gray queue *before* the decrements that
//!   could free them are applied;
//! * every gray entry is epoch-stamped at capture
//!   (`lxr_rc::Stamped`): a granule reclaimed and reused between capture
//!   and scan fails its one-load validation and is dropped as provably
//!   stale instead of being scanned as a phantom object;
//! * SATB-swept blocks take the same one-epoch deferred release as
//!   evacuated blocks, so a lazily-draining crew never resolves a
//!   reference into a block whose memory was already rehanded to the
//!   allocator.

use crate::state::LxrState;
use lxr_heap::{Address, Block, BlockState, GRANULE_WORDS};
use lxr_object::ObjectReference;
use lxr_runtime::{Collection, WorkCounter};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Trigger an SATB trace when predicted wastage (uncollected dead mature
/// objects plus fragmentation) exceeds this fraction of the heap.
const MATURE_WASTAGE_THRESHOLD: f64 = 0.05;

/// In sticky mode, force a full-heap trace after this many consecutive
/// sticky traces.
const STICKY_FULL_EVERY_N: u64 = 8;

/// In sticky mode, escalate to a full trace early when the observed sticky
/// trace yield (SATB deaths per object marked) decays below this fraction
/// while the mature-wastage trigger is firing — the sticky trace is no
/// longer finding the garbage that the heuristics say exists.
const STICKY_MIN_YIELD: f64 = 0.02;

/// Decides whether to start a new SATB trace at the end of an RC pause.
///
/// Two triggers (§3.2.2): the *clean block* trigger (the RC pause left too
/// few clean blocks) and the *predicted wastage* trigger (the gap between
/// the blocks in use and the predicted live blocks exceeds a threshold
/// fraction of the heap).
pub(crate) fn should_start(state: &Arc<LxrState>) -> bool {
    let total = state.blocks.total_blocks();
    let clean = state.blocks.free_block_count();
    if (clean as f64) < state.config.clean_block_trigger_fraction * total as f64 {
        return true;
    }
    wastage_exceeds(state)
}

/// The predicted-wastage trigger condition in isolation: the gap between
/// blocks in use and the predicted live blocks exceeds the threshold
/// fraction of the heap.  Shared by [`should_start`] and the sticky
/// escalation heuristic (wastage the sticky traces keep failing to find is
/// evidence the garbage is mature, so the next trace should run full-heap).
pub(crate) fn wastage_exceeds(state: &Arc<LxrState>) -> bool {
    let total = state.blocks.total_blocks();
    let used = state.blocks.used_block_count() + state.blocks.recycled_block_count();
    let predicted_live = state.predictors.lock().live_blocks.value();
    let wastage = used as f64 - predicted_live;
    wastage > MATURE_WASTAGE_THRESHOLD * total as f64
}

/// Decides whether the next trace must run full-heap (as opposed to
/// sticky).  Always `true` outside sticky mode; in sticky mode a trace runs
/// full when any of the escalation conditions hold:
///
/// * no full trace has completed yet (the mark bits do not cover the
///   mature heap, so a sticky trace would be unsound);
/// * a degenerate or exhaustion pause requested one (`force_full_trace`,
///   consumed here) — the degraded-mode fallback must reclaim everything
///   reclaimable;
/// * the [`STICKY_FULL_EVERY_N`] backstop: enough consecutive sticky traces
///   have run since the last full one;
/// * the yield heuristic: the predicted sticky yield has decayed below
///   [`STICKY_MIN_YIELD`] while the wastage trigger is still firing — the
///   allocation-rate proxy says garbage exists, and the sticky traces are
///   demonstrably not finding it in the nursery.
pub(crate) fn next_trace_full(state: &Arc<LxrState>) -> bool {
    if !state.config.sticky {
        return true;
    }
    if state.force_full_trace.swap(false, Ordering::AcqRel) {
        return true;
    }
    if !state.full_trace_completed.load(Ordering::Acquire) {
        return true;
    }
    if state.sticky_since_full.load(Ordering::Relaxed) + 1 >= STICKY_FULL_EVERY_N {
        return true;
    }
    let predicted_yield = state.predictors.lock().sticky_yield.value();
    predicted_yield < STICKY_MIN_YIELD && wastage_exceeds(state)
}

/// Starts an SATB trace and seeds the gray set with the current roots.
///
/// A *full* trace (`full == true`, the only kind outside sticky mode)
/// clears every mark, selects the evacuation set, and discards the sticky
/// remembered set (redundant: the trace will visit everything).  A *sticky*
/// trace keeps the marks from previous traces — every marked granule is
/// work skipped, counted in `TraceGranulesSkipped` — seeds additionally
/// from the sticky remembered set (modified slots, re-read now), and
/// selects **no** evacuation candidates: a sticky trace never re-scans
/// marked objects, so the remset bootstrap inside the trace would miss
/// inbound slots and evacuation would be unsound.
pub(crate) fn start(state: &Arc<LxrState>, c: &Collection<'_>, full: bool) {
    if full {
        state.clear_marks();
        state.discard_sticky_slots();
        state.sticky_since_full.store(0, Ordering::Relaxed);
        c.stats.add(WorkCounter::FullTraces, 1);
        crate::evac::select_candidates(state);
    } else {
        state.sticky_since_full.fetch_add(1, Ordering::Relaxed);
        c.stats.add(WorkCounter::StickyTraces, 1);
        let carried =
            state.marks.count_nonzero_range(Address::from_word_index(0), state.geometry.num_words());
        c.stats.add(WorkCounter::TraceGranulesSkipped, carried as u64);
        state.drain_sticky_slots(|slot| {
            let referent = state.om.read_slot(slot);
            if !referent.is_null() && state.in_heap(referent) {
                state.push_gray(referent);
            }
        });
    }
    state.current_trace_full.store(full, Ordering::Release);
    state.objects_marked_at_trace_start.store(c.stats.get(WorkCounter::ObjectsMarked), Ordering::Relaxed);
    state.satb_deaths_at_trace_start.store(c.stats.get(WorkCounter::SatbDeaths), Ordering::Relaxed);
    state.reset_remset();
    // Note: the reuse-epoch table is deliberately *not* reset here — epochs
    // are monotonic (wrapping) so stamps taken before this trace stay
    // comparable; resetting them would revalidate stale captures.  The
    // remset entries themselves were just dropped, so no per-line reset is
    // needed for them either.
    for root in c.roots.collect_roots() {
        if !root.is_null() {
            state.push_gray(root);
        }
    }
    state.satb_active.store(true, Ordering::Release);
}

/// Reclaims everything the completed trace proved dead: any mature granule
/// with a non-zero count but no mark has its count cleared, and unmarked
/// large objects are freed.  Returns the blocks whose counts changed so the
/// pause's sweep can free or recycle them.
pub(crate) fn reclaim(state: &Arc<LxrState>, c: &Collection<'_>) -> Vec<Block> {
    let geometry = state.geometry;
    let mut touched = Vec::new();
    for (block, block_state) in state.space.block_states().iter() {
        if !matches!(
            block_state,
            BlockState::Mature | BlockState::Reusable | BlockState::Recycled | BlockState::EvacCandidate
        ) {
            continue;
        }
        let start = geometry.block_start(block);
        let words = geometry.words_per_block();
        let mut block_touched = false;
        let mut w = 0;
        while w < words {
            let addr = start.plus(w);
            let obj = ObjectReference::from_address(addr);
            let count = state.rc.count(obj);
            if count > 0 {
                if count == state.rc.stuck_value() {
                    c.stats.add(WorkCounter::StuckObjects, 1);
                }
                if state.marks.load(addr) == 0 {
                    state.rc.clear(obj);
                    c.stats.add(WorkCounter::SatbDeaths, 1);
                    block_touched = true;
                }
            }
            w += GRANULE_WORDS;
        }
        if block_touched {
            touched.push(block);
        }
    }
    // Large objects: unmarked but counted means a dead cycle or stuck count.
    for (addr, _meta) in state.los.snapshot() {
        let obj = ObjectReference::from_address(addr);
        if state.rc.is_live(obj) && !state.is_marked(obj) {
            state.rc.clear(obj);
            state.free_los(addr);
            c.stats.add(WorkCounter::SatbDeaths, 1);
            c.stats.add(WorkCounter::LargeObjectsFreed, 1);
        }
    }
    // Record the live-block observation for the wastage predictor — but
    // only after a *full* trace.  A sticky reclamation leaves floating
    // garbage in place (marked by an earlier trace, dead since), so its
    // post-reclaim block count overstates liveness; folding it in would
    // teach the predictor that the floating garbage is live and silence
    // the wastage trigger exactly when escalation needs it to keep firing.
    if state.current_trace_full.load(Ordering::Acquire) {
        let live_blocks = state.blocks.used_block_count() + state.blocks.recycled_block_count();
        state.predictors.lock().live_blocks.observe(live_blocks as f64);
    }
    touched
}
