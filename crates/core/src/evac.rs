//! Mature evacuation with RC remembered sets (§3.3.2).
//!
//! Ahead of each SATB trace, the blocks with the lowest live occupancy
//! (estimated from the reference-count table) are selected as the
//! *evacuation set*.  The trace, which must traverse every pointer into the
//! set, bootstraps a remembered set of incoming slots; the write barrier
//! (via modified-field processing at each pause) keeps it up to date.  At
//! the pause after the trace completes, the set is evacuated: a bounded
//! trace from the current roots and the remembered set copies every live
//! object out of the candidate blocks, redirecting the incoming references
//! and leaving forwarding pointers.  Emptied blocks are released at the
//! following pause so forwarding pointers stay valid for that epoch's lazy
//! decrements.

use crate::state::{LxrState, RemsetEntry};
use lxr_heap::{Address, Block, BlockState, ImmixAllocator, LineOccupancy};
use lxr_object::{ClaimResult, ObjectReference};
use lxr_runtime::{Collection, WorkCounter};
use parking_lot::Mutex;
use std::sync::Arc;

/// Blocks whose live occupancy (estimated from the RC table) is below this
/// fraction are candidates for an evacuation set (§3.3.2 uses 50%).
const EVAC_OCCUPANCY_THRESHOLD: f64 = 0.5;

/// Maximum number of blocks placed in an evacuation set per SATB cycle.
const MAX_EVAC_BLOCKS: usize = 64;

/// Selects the evacuation set: the [`MAX_EVAC_BLOCKS`] mature blocks with
/// the lowest occupancy below [`EVAC_OCCUPANCY_THRESHOLD`] (§3.3.2).
///
/// Selection is bounded: a quickselect
/// (`select_nth_unstable_by`, expected O(n)) partitions the k least
/// occupied blocks instead of fully sorting every candidate, capping the
/// pause-time cost of this step on huge heaps.  Membership in the set is
/// what matters downstream — the set is unordered — so no sort is needed.
pub(crate) fn select_candidates(state: &Arc<LxrState>) {
    // `Mature` only: a `Reusable` block sits on the recycled list, where an
    // allocator may take it while the trace runs.
    let mut candidates: Vec<(Block, f64)> = state
        .space
        .block_states()
        .iter()
        .filter(|(_, s)| *s == BlockState::Mature)
        .map(|(block, _)| (block, state.block_occupancy(block)))
        .filter(|(_, occ)| *occ > 0.0 && *occ < EVAC_OCCUPANCY_THRESHOLD)
        .collect();
    if candidates.len() > MAX_EVAC_BLOCKS {
        candidates.select_nth_unstable_by(MAX_EVAC_BLOCKS, |a, b| {
            a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal)
        });
        candidates.truncate(MAX_EVAC_BLOCKS);
    }
    let mut set = state.evac_candidates.lock();
    set.clear();
    for (block, _) in candidates {
        state.space.block_states().set(block, BlockState::EvacCandidate);
        set.insert(block.index());
    }
}

/// Evacuates the current evacuation set.  Runs inside the pause that
/// performs SATB reclamation, before increment processing, so increments
/// naturally land on the relocated copies.
pub(crate) fn evacuate_mature(state: &Arc<LxrState>, c: &Collection<'_>) {
    if state.evac_candidates.lock().is_empty() {
        return;
    }

    let occupancy: Arc<dyn LineOccupancy> = state.rc.clone();
    let copy_allocators: Arc<Vec<Mutex<ImmixAllocator>>> = Arc::new(
        (0..c.workers.size() + 1)
            .map(|_| {
                Mutex::new(ImmixAllocator::new(state.space.clone(), state.blocks.clone(), occupancy.clone()))
            })
            .collect(),
    );

    // Roots are processed sequentially (they live on mutator shadow stacks,
    // not in the heap); the transitive slots they expose are processed in
    // parallel below.
    let mut seed_slots: Vec<Address> = Vec::new();
    {
        let copy_alloc = &copy_allocators[copy_allocators.len() - 1];
        c.roots.visit_roots(|r| {
            if state.in_evac_set(*r) {
                *r = evacuate_object(state, *r, copy_alloc, &mut |slot| seed_slots.push(slot));
            }
        });
    }
    // Remembered-set entries, validated against the per-line reuse epochs
    // so entries whose source line has been reclaimed and reused since they
    // were recorded are discarded (§3.3.2).
    while let Some(RemsetEntry { slot, epoch }) = state.remset.pop() {
        if state.space.reuse_epoch(slot) == epoch {
            state.stats.add(WorkCounter::EpochChecksPassed, 1);
            seed_slots.push(slot);
        } else {
            state.stats.add(WorkCounter::EpochStaleDrops, 1);
        }
    }
    c.stats.add(WorkCounter::SlotsTraced, seed_slots.len() as u64);

    {
        let state = state.clone();
        let copy_allocators = copy_allocators.clone();
        let mut graph = lxr_runtime::BucketGraph::new();
        let slots = graph.bucket("evac-slots", &[], seed_slots);
        c.workers.run_bucket_graph("pause: mature evacuation", graph, move |_bucket, slot, handle| {
            let obj = state.om.read_slot(slot);
            // A stale slot (its line reclaimed and reused since the entry
            // was recorded) can hold arbitrary bits; out-of-heap values are
            // dropped rather than dereferenced.
            if obj.is_null() || !state.in_heap(obj) {
                return;
            }
            if let Some(target) = state.om.forwarding_target(obj) {
                state.om.write_slot(slot, target);
                return;
            }
            if !state.in_evac_set(obj) {
                // The evacuation trace is bounded: pointers that lead out of
                // the evacuation set are ignored (§3.3.2).
                return;
            }
            let copy_alloc = &copy_allocators[handle.worker_id.min(copy_allocators.len() - 1)];
            let new = evacuate_object(&state, obj, copy_alloc, &mut |s| handle.push(slots, s));
            state.om.write_slot(slot, new);
        });
    }

    finish_evacuation(state, c);
}

/// Copies one object out of the evacuation set, transferring its reference
/// count, straddle markers and field-log state, and returns its new
/// location.  Callers that lose the forwarding race receive the winner's
/// copy.  `push_slot` receives the reference slots of the new copy so the
/// evacuation trace can continue through it.
pub(crate) fn evacuate_object(
    state: &Arc<LxrState>,
    obj: ObjectReference,
    copy_alloc: &Mutex<ImmixAllocator>,
    push_slot: &mut dyn FnMut(Address),
) -> ObjectReference {
    match state.om.try_claim_forwarding(obj) {
        // A stale reference (granule reclaimed and reused): leave it be.
        ClaimResult::Stale => obj,
        ClaimResult::AlreadyForwarded(new) => new,
        ClaimResult::Claimed(header) => {
            let shape = state.om.shape_of_header(header);
            let size = shape.size_words();
            let to = match copy_alloc.lock().alloc(size) {
                Ok(to) => to,
                Err(_) => {
                    // No space to copy into: leave the object in place; its
                    // block simply cannot be freed this cycle.
                    state.om.abandon_forwarding(obj, header);
                    return obj;
                }
            };
            let count = state.rc.count(obj);
            let new = state.om.install_forwarding(obj, to, header);
            state.rc.set_count(new, count);
            if size > state.geometry.words_per_line() {
                state.rc.clear_straddle_lines(obj, size);
                state.rc.mark_straddle_lines(new, size);
            }
            state.rc.clear(obj);
            // Sticky mode: marks persist after the trace, and the next
            // sticky trace treats an unmarked counted object as
            // reclaimable-if-unreached.  The original was marked (only
            // trace-reached objects are evacuated), so the copy must carry
            // the mark or the next sticky reclamation would kill it.
            if state.config.sticky {
                state.mark_object(new, size);
            }
            state.stats.add(WorkCounter::MatureObjectsCopied, 1);
            state.stats.add(WorkCounter::WordsCopied, size as u64);
            for i in 0..shape.nrefs as usize {
                let slot = new.to_address().plus(1 + i);
                state.log_table.mark_unlogged(slot);
                push_slot(slot);
            }
            new
        }
    }
}

/// Finishes the evacuation: fully evacuated blocks are deferred for release
/// at the next pause; blocks that could not be fully evacuated return to the
/// mature population.
fn finish_evacuation(state: &Arc<LxrState>, c: &Collection<'_>) {
    let candidates: Vec<usize> = state.evac_candidates.lock().drain().collect();
    let mut deferred = state.deferred_free_blocks.lock();
    for idx in candidates {
        let block = Block::from_index(idx);
        if state.rc.block_is_free(block) {
            c.stats.add(WorkCounter::MatureBlocksFreed, 1);
            deferred.push(block);
        } else {
            state.space.block_states().set(block, BlockState::Mature);
            state.mark_block_dirtied(block);
        }
    }
    state.reset_remset();
}
