//! LXR's half of the sanity verifier (see [`lxr_runtime::verify`]).
//!
//! The generic walk re-traces the heap from the roots using only the object
//! model; this module cross-checks what the walk finds against every piece
//! of collector metadata LXR maintains:
//!
//! * **RC vs reachability.**  Immediately after a pause every reachable
//!   object must carry a non-zero reference count — roots and modified
//!   fields were incremented this pause, and first retention recursed
//!   through surviving young objects.  A reachable zero-count object is
//!   heap corruption (its granules are one sweep away from reuse).  The
//!   converse is *documented laziness*, not an error: dead objects keep
//!   non-zero counts until their captured decrements drain (lazy
//!   decrements, §3.2.1) or a trace collects their cycle or stuck count
//!   (§3.2.2), so the report only notes the live-granule total.
//! * **Allocator free-line claims.**  The allocator recycles any line whose
//!   RC census shows no live granule.  A reachable multi-line object whose
//!   interior lines read as census-free would be bump-allocated over; the
//!   straddle markers ([`lxr_rc::RcTable::mark_straddle_lines`]) exist to
//!   prevent exactly that, and the verifier checks them line by line.
//! * **Free-block hygiene.**  A block on the free list must have no live
//!   counts and no stale side metadata — SATB marks, field-log states or
//!   remset dedup bits leaking into a block's next life were the corruption
//!   class PR 4's reuse epochs closed, and the verifier pins the clears.
//! * **Recycled-list membership.**  The number of `Reusable` blocks equals
//!   the allocator's recycled-list length: only the allocator moves a block
//!   into or out of that state, so a mismatch means a block left the list
//!   behind the allocator's back (or was queued twice).
//! * **Mark-bit lifecycle.**  Outside an active trace every SATB mark bit
//!   is clear ([`LxrState::clear_marks`] at reclamation); stray marks would
//!   exempt garbage from the next trace's sweep.  Under sticky tracing
//!   ([`crate::config::LxrConfig::sticky`]) marks persist between traces by
//!   design, so the check becomes a context note instead of an error —
//!   but free-list blocks must still be mark-free in every mode.
//! * **Remembered-set entries.**  Every entry whose reuse-epoch stamp is
//!   still current must name a slot in a live (non-free) block; a current
//!   stamp in a freed block means a release skipped the epoch bump.
//!
//! Failures print through [`describe_object`], which augments the generic
//! location line with LXR's per-object metadata (count, stuckness, mark,
//! per-field log states, block dirtiness) so a corruption report is
//! actionable without a debugger.

use crate::state::LxrState;
use lxr_barrier::FieldLogState;
use lxr_heap::BlockState;
use lxr_object::{HeaderState, ObjectReference};
use lxr_runtime::verify::{reachable_set, VerifyReport};
use lxr_runtime::RootSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Runs the full LXR heap audit while the world is stopped.  See the
/// [module docs](self) for the invariants checked.
pub fn verify(state: &Arc<LxrState>, roots: &RootSet) -> VerifyReport {
    let mut report = VerifyReport::new("lxr");
    let geometry = state.geometry;
    let satb_running =
        state.satb_active.load(Ordering::Acquire) && !state.satb_complete.load(Ordering::Acquire);

    // 1. The collector-independent walk: headers, extents, free-block
    //    membership.  Returns the reachable set for the RC cross-check.
    let reached = reachable_set(&state.om, roots, &mut report);

    // 2. RC vs reachability, and the allocator's free-line claims.
    for &obj in &reached {
        if !state.in_heap(obj) {
            continue; // already reported by the generic walk
        }
        if state.rc.count(obj) == 0 {
            report.error(format!(
                "reachable object has a zero reference count (one sweep from reuse)\n    {}",
                describe_object(state, obj)
            ));
            continue;
        }
        let HeaderState::Normal(shape) = state.om.header_state(obj) else {
            continue; // malformed headers are the generic walk's department
        };
        let size = shape.size_words();
        let block = geometry.block_of(obj.to_address());
        if state.space.block_states().get(block) == BlockState::Los {
            continue; // LOS runs are whole-block; line censuses do not apply
        }
        if size > geometry.words_per_line() {
            // Every line the object touches must read as live, or the
            // allocator will recycle the object's interior.  The *final*
            // line is exempt: `mark_straddle_lines` leaves it unmarked and
            // the allocator's conservative treatment skips it instead.
            let first = obj.to_address().word_index() / geometry.words_per_line();
            let last = (obj.to_address().word_index() + size - 1) / geometry.words_per_line();
            for line_index in first..last {
                let line = lxr_heap::Line::from_index(line_index);
                if state.rc.line_is_free_impl(line) {
                    report.error(format!(
                        "line {line_index} reads census-free but a reachable object spans it \
                         (missing straddle marker)\n    {}",
                        describe_object(state, obj)
                    ));
                }
            }
        }
    }

    // 3. Free-block hygiene: no live counts, no stale side metadata.
    //    Blocks in unmapped chunks are audited by the released-chunk check
    //    below (same invariants, chunk-granular reporting).
    let chunk_map = state.space.chunk_map();
    for (block, block_state) in state.space.block_states().iter() {
        if block_state != BlockState::Free || !chunk_map.block_is_mapped(block) {
            continue;
        }
        let start = geometry.block_start(block);
        let words = geometry.words_per_block();
        if !state.rc.block_is_free(block) {
            report.error(format!(
                "free-list block {} still has live reference counts ({} granules)",
                block.index(),
                state.rc.block_live_granules(block)
            ));
        }
        let mut stale_marks = 0usize;
        state.marks.for_each_nonzero(start, words, |_| stale_marks += 1);
        if stale_marks > 0 {
            report.error(format!(
                "free-list block {} carries {stale_marks} stale SATB mark bits",
                block.index()
            ));
        }
        let mut stale_remset_bits = 0usize;
        state.remset_logged.for_each_nonzero(start, words, |_| stale_remset_bits += 1);
        if stale_remset_bits > 0 {
            report.error(format!(
                "free-list block {} carries {stale_remset_bits} stale remset dedup bits",
                block.index()
            ));
        }
        let mut stale_sticky_bits = 0usize;
        state.sticky_logged.for_each_nonzero(start, words, |_| stale_sticky_bits += 1);
        if stale_sticky_bits > 0 {
            report.error(format!(
                "free-list block {} carries {stale_sticky_bits} stale sticky-remset dedup bits",
                block.index()
            ));
        }
        let mut armed_fields = 0usize;
        for w in 0..words {
            if state.log_table.state(start.plus(w)) != FieldLogState::Ignored {
                armed_fields += 1;
            }
        }
        if armed_fields > 0 {
            report.error(format!(
                "free-list block {} carries {armed_fields} armed field-log states \
                 (next occupant's writes would be bogusly captured)",
                block.index()
            ));
        }
    }

    // 3a. Recycled-list membership: the allocator marks exactly the blocks
    //     on its recycled list `Reusable`, so the two counts agree.
    let reusable = state.space.block_states().count(BlockState::Reusable);
    let queued = state.blocks.recycled_block_count();
    if reusable != queued {
        report.error(format!(
            "{reusable} blocks are Reusable but the recycled list holds {queued} \
             (a block left the list without the allocator, or was queued twice)"
        ));
    }

    // 3b. Released-chunk hygiene: a chunk notionally returned to the OS
    //     must leave *nothing* behind — no live counts, no SATB marks, no
    //     remset or sticky dedup bits, no armed field-log states.  Its
    //     memory was zeroed and its reuse epochs bumped at release; any
    //     surviving metadata bit would haunt the chunk's next mapping.
    for chunk in 0..geometry.num_chunks() {
        if chunk_map.is_mapped(chunk) {
            continue;
        }
        let start = geometry.chunk_start(chunk);
        let words = geometry.chunk_words(chunk);
        let mut stale_marks = 0usize;
        state.marks.for_each_nonzero(start, words, |_| stale_marks += 1);
        if stale_marks > 0 {
            report.error(format!("released chunk {chunk} carries {stale_marks} stale SATB mark bits"));
        }
        let mut stale_remset_bits = 0usize;
        state.remset_logged.for_each_nonzero(start, words, |_| stale_remset_bits += 1);
        if stale_remset_bits > 0 {
            report
                .error(format!("released chunk {chunk} carries {stale_remset_bits} stale remset dedup bits"));
        }
        let mut stale_sticky_bits = 0usize;
        state.sticky_logged.for_each_nonzero(start, words, |_| stale_sticky_bits += 1);
        if stale_sticky_bits > 0 {
            report.error(format!(
                "released chunk {chunk} carries {stale_sticky_bits} stale sticky-remset dedup bits"
            ));
        }
        let mut armed_fields = 0usize;
        for w in 0..words {
            if state.log_table.state(start.plus(w)) != FieldLogState::Ignored {
                armed_fields += 1;
            }
        }
        if armed_fields > 0 {
            report.error(format!("released chunk {chunk} carries {armed_fields} armed field-log states"));
        }
        for idx in geometry.chunk_blocks(chunk) {
            let block = lxr_heap::Block::from_index(idx);
            if !state.rc.block_is_free(block) {
                report.error(format!(
                    "released chunk {chunk} block {} still has live reference counts ({} granules)",
                    block.index(),
                    state.rc.block_live_granules(block)
                ));
            }
        }
    }

    // 4. Mark-bit lifecycle: outside sticky mode, no trace active means no
    //    marks anywhere.  In sticky mode marks deliberately persist between
    //    traces ("reached by some trace since the last full one"), and
    //    marked-but-dead granules are legal floating garbage awaiting the
    //    next full trace — so the check degrades to a context note.  The
    //    scan covers mapped chunks only; unmapped ranges were audited
    //    (strictly) above.
    if !state.satb_active.load(Ordering::Acquire) {
        let mut stray = 0usize;
        for chunk in 0..geometry.num_chunks() {
            if !chunk_map.is_mapped(chunk) {
                continue;
            }
            state
                .marks
                .for_each_nonzero(geometry.chunk_start(chunk), geometry.chunk_words(chunk), |_| stray += 1);
        }
        if state.config.sticky {
            report.note(format!(
                "{stray} sticky mark bits carried between traces ({} sticky traces since the last \
                 full trace)",
                state.sticky_since_full.load(Ordering::Relaxed)
            ));
        } else if stray > 0 {
            report.error(format!(
                "{stray} SATB mark bits are set with no trace active (reclamation must clear all marks)"
            ));
        }
    }

    // 5. Remembered-set entries with current stamps must name live blocks.
    //    The queue is drained and re-pushed; the world is stopped and the
    //    crew quiesced, so the verifier is the only actor.
    let mut entries = Vec::new();
    while let Some(e) = state.remset.pop() {
        entries.push(e);
    }
    for e in &entries {
        if e.slot.word_index() >= geometry.num_words() {
            report.error(format!("remset entry names out-of-heap slot {:#x}", e.slot.word_index()));
            continue;
        }
        if state.space.reuse_epoch(e.slot) == e.epoch
            && state.space.block_states().get(geometry.block_of(e.slot)) == BlockState::Free
        {
            report.error(format!(
                "remset entry for slot {:#x} has a current reuse-epoch stamp ({}) but its block {} \
                 is on the free list (release skipped the epoch bump)",
                e.slot.word_index(),
                e.epoch,
                geometry.block_of(e.slot).index()
            ));
        }
    }
    let remset_len = entries.len();
    for e in entries {
        state.remset.push(e);
    }

    // Documented-laziness context for the human reading the report.
    let mut live_granules = 0usize;
    for (block, block_state) in state.space.block_states().iter() {
        if !matches!(block_state, BlockState::Free | BlockState::Los) {
            live_granules += state.rc.block_live_granules(block);
        }
    }
    report.note(format!(
        "{} reachable objects; {live_granules} live granules (surplus is lazy: pending decrements, \
         stuck counts and dead cycles await the crew or the next trace)",
        reached.len()
    ));
    report.note(format!(
        "pending_dec_chunks={} gray={} remset={remset_len} lazy_pending={} satb_running={satb_running}",
        state.pending_decs.len(),
        state.gray.len(),
        state.lazy_pending.load(Ordering::Acquire),
    ));
    report
}

/// One multi-line description of `obj` through every piece of metadata LXR
/// keeps about it: the generic location line (header, block state, line,
/// reuse epoch), the reference count and stuckness, the SATB mark, the
/// block's decrement-dirtied bit, and each reference field's log state.
/// This is what an integrity-audit failure prints instead of a bare
/// assertion, so the failing object's full state survives into the report.
pub fn describe_object(state: &Arc<LxrState>, obj: ObjectReference) -> String {
    let mut out = lxr_runtime::verify::describe_location(&state.om, obj);
    if obj.is_null() || !state.in_heap(obj) {
        return out;
    }
    let block = state.geometry.block_of(obj.to_address());
    out.push_str(&format!(
        " rc={} stuck={} marked={} block-dirtied={}",
        state.rc.count(obj),
        state.rc.is_stuck(obj),
        state.is_marked(obj),
        state.block_is_dirtied(block),
    ));
    if let HeaderState::Normal(shape) = state.om.header_state(obj) {
        let logs: Vec<String> = (0..shape.nrefs as usize)
            .map(|i| format!("{:?}", state.log_table.state(obj.to_address().plus(1 + i))))
            .collect();
        if !logs.is_empty() {
            out.push_str(&format!(" field-log=[{}]", logs.join(",")));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LxrConfig;
    use lxr_heap::{Address, BlockAllocator, HeapConfig, HeapSpace, LargeObjectSpace};
    use lxr_object::ObjectShape;
    use lxr_runtime::{PlanContext, RuntimeOptions};
    use parking_lot::Mutex;

    fn state() -> Arc<LxrState> {
        let options = RuntimeOptions::default()
            .with_heap_config(HeapConfig::with_heap_size(4 << 20))
            .with_concurrent_thread(false);
        let space = Arc::new(HeapSpace::new(options.heap.clone()));
        let blocks = Arc::new(BlockAllocator::new(space.clone()));
        let los = Arc::new(LargeObjectSpace::new(space.clone(), blocks.clone()));
        let ctx = PlanContext { space, blocks, los, stats: Arc::new(lxr_runtime::GcStats::new()), options };
        Arc::new(LxrState::new(&ctx, LxrConfig::default()))
    }

    fn roots_of(roots: &[ObjectReference]) -> RootSet {
        RootSet { mutator_roots: vec![Arc::new(Mutex::new(roots.to_vec()))] }
    }

    fn obj_at(s: &Arc<LxrState>, word: usize, nrefs: u16, ndata: u16) -> ObjectReference {
        let obj = s.om.initialize(Address::from_word_index(word), ObjectShape::new(nrefs, ndata, 0));
        s.space.block_states().set(s.geometry.block_of(obj.to_address()), BlockState::Mature);
        obj
    }

    #[test]
    fn counted_graph_passes_the_audit() {
        let s = state();
        let parent = obj_at(&s, 2 * 4096, 1, 0);
        let child = obj_at(&s, 2 * 4096 + 16, 0, 0);
        s.om.write_ref_field(parent, 0, child);
        s.rc.increment(parent);
        s.rc.increment(child);
        let report = verify(&s, &roots_of(&[parent]));
        assert!(report.ok(), "unexpected errors: {report}");
        assert_eq!(report.objects_traced, 2);
    }

    #[test]
    fn reachable_zero_count_object_is_an_error() {
        let s = state();
        let parent = obj_at(&s, 2 * 4096, 1, 0);
        let child = obj_at(&s, 2 * 4096 + 16, 0, 0);
        s.om.write_ref_field(parent, 0, child);
        s.rc.increment(parent);
        // `child` is reachable but never incremented.
        let report = verify(&s, &roots_of(&[parent]));
        assert!(!report.ok());
        assert!(
            report.errors.iter().any(|e| e.contains("zero reference count") && e.contains("rc=0")),
            "missing actionable error: {report}"
        );
    }

    #[test]
    fn missing_straddle_marker_is_an_error() {
        let s = state();
        // An object spanning several lines, incremented only at its head:
        // interior lines read census-free.
        let big = obj_at(&s, 3 * 4096, 0, 200);
        s.rc.increment(big);
        let report = verify(&s, &roots_of(&[big]));
        assert!(report.errors.iter().any(|e| e.contains("census-free")), "{report}");
        // With the straddle markers in place the same object passes.
        s.rc.mark_straddle_lines(big, ObjectShape::new(0, 200, 0).size_words());
        let report = verify(&s, &roots_of(&[big]));
        assert!(report.ok(), "{report}");
    }

    #[test]
    fn reusable_blocks_must_match_the_recycled_list() {
        let s = state();
        let block = s.blocks.acquire_clean_block().unwrap();
        s.queue_for_reuse(block);
        assert!(verify(&s, &roots_of(&[])).ok());
        // A state write behind the allocator's back breaks the agreement.
        s.space.block_states().set(lxr_heap::Block::from_index(9), BlockState::Reusable);
        let report = verify(&s, &roots_of(&[]));
        assert!(
            format!("{report}").contains("2 blocks are Reusable but the recycled list holds 1"),
            "{report}"
        );
    }

    #[test]
    fn stale_metadata_in_a_free_block_is_an_error() {
        let s = state();
        let block = lxr_heap::Block::from_index(5);
        let start = s.geometry.block_start(block);
        s.marks.store(start.plus(4), 1);
        s.log_table.mark_unlogged(start.plus(8));
        s.rc.increment(ObjectReference::from_address(start.plus(16)));
        let report = verify(&s, &roots_of(&[]));
        let text = format!("{report}");
        assert!(text.contains("stale SATB mark"), "{report}");
        assert!(text.contains("armed field-log"), "{report}");
        assert!(text.contains("live reference counts"), "{report}");
    }

    #[test]
    fn stray_marks_without_a_trace_are_an_error() {
        let s = state();
        s.marks.store(Address::from_word_index(2 * 4096 + 32), 1);
        s.space.block_states().set(lxr_heap::Block::from_index(2), BlockState::Mature);
        let report = verify(&s, &roots_of(&[]));
        assert!(report.errors.iter().any(|e| e.contains("no trace active")), "{report}");
        // The same mark is legitimate while a trace runs.
        s.satb_active.store(true, Ordering::Release);
        let report = verify(&s, &roots_of(&[]));
        assert!(report.ok(), "{report}");
    }

    #[test]
    fn sticky_mode_tolerates_carried_marks_but_not_in_free_blocks() {
        let options = RuntimeOptions::default()
            .with_heap_config(HeapConfig::with_heap_size(4 << 20))
            .with_concurrent_thread(false);
        let space = Arc::new(HeapSpace::new(options.heap.clone()));
        let blocks = Arc::new(BlockAllocator::new(space.clone()));
        let los = Arc::new(LargeObjectSpace::new(space.clone(), blocks.clone()));
        let ctx = PlanContext { space, blocks, los, stats: Arc::new(lxr_runtime::GcStats::new()), options };
        let s = Arc::new(LxrState::new(&ctx, LxrConfig::default().sticky()));
        // A carried mark in a mature block with no trace active: legal in
        // sticky mode, reported as a note rather than an error.
        s.marks.store(Address::from_word_index(2 * 4096 + 32), 1);
        s.space.block_states().set(lxr_heap::Block::from_index(2), BlockState::Mature);
        let report = verify(&s, &roots_of(&[]));
        assert!(report.ok(), "{report}");
        assert!(report.notes.iter().any(|n| n.contains("sticky mark bits carried")), "{report}");
        // A mark (or a sticky dedup bit) in a *free* block is still an
        // error: releases must scrub metadata in every mode.
        let free_start = s.geometry.block_start(lxr_heap::Block::from_index(5));
        s.marks.store(free_start.plus(4), 1);
        s.sticky_logged.store(free_start.plus(8), 1);
        let report = verify(&s, &roots_of(&[]));
        let text = format!("{report}");
        assert!(text.contains("stale SATB mark"), "{report}");
        assert!(text.contains("sticky-remset dedup"), "{report}");
    }

    #[test]
    fn released_chunks_are_audited_for_leftover_metadata() {
        let options =
            RuntimeOptions::default().with_heap_range(1 << 20, 4 << 20).with_concurrent_thread(false);
        let space = Arc::new(HeapSpace::new(options.heap.clone()));
        let blocks = Arc::new(BlockAllocator::new(space.clone()));
        let los = Arc::new(LargeObjectSpace::new(space.clone(), blocks.clone()));
        let ctx = PlanContext { space, blocks, los, stats: Arc::new(lxr_runtime::GcStats::new()), options };
        let s = Arc::new(LxrState::new(&ctx, LxrConfig::default()));
        // Grow one chunk, then release it again: a clean unmap passes.
        let chunk = s.space.chunk_map().map_next_unmapped().unwrap();
        assert!(s.space.release_chunk(chunk));
        let report = verify(&s, &roots_of(&[]));
        assert!(report.ok(), "{report}");
        // Plant metadata in the released range: each table is flagged with
        // a chunk-granular error, and mapped-chunk checks stay quiet.
        let start = s.geometry.chunk_start(chunk);
        s.marks.store(start.plus(4), 1);
        s.remset_logged.store(start.plus(8), 1);
        s.sticky_logged.store(start.plus(12), 1);
        s.log_table.mark_unlogged(start.plus(16));
        s.rc.increment(ObjectReference::from_address(start.plus(32)));
        let report = verify(&s, &roots_of(&[]));
        let text = format!("{report}");
        assert!(text.contains(&format!("released chunk {chunk} carries 1 stale SATB mark")), "{report}");
        assert!(text.contains("stale remset dedup"), "{report}");
        assert!(text.contains("stale sticky-remset dedup"), "{report}");
        assert!(text.contains("armed field-log"), "{report}");
        assert!(text.contains("live reference counts"), "{report}");
        assert!(
            !text.contains("free-list block"),
            "unmapped blocks must not be double-reported by the free-block check: {report}"
        );
    }

    #[test]
    fn describe_object_reports_every_metadata_layer() {
        let s = state();
        let obj = obj_at(&s, 2 * 4096, 2, 1);
        s.rc.increment(obj);
        s.log_table.mark_unlogged(obj.to_address().plus(1));
        let text = describe_object(&s, obj);
        assert!(text.contains("rc=1"), "{text}");
        assert!(text.contains("block=2"), "{text}");
        assert!(text.contains("Unlogged"), "{text}");
        assert!(text.contains("reuse-epoch=0"), "{text}");
    }
}
