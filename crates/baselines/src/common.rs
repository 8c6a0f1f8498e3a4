//! Shared machinery for the tracing baselines: mark state, line marks, and
//! a parallel transitive closure with optional evacuation.

use lxr_heap::{
    Address, BlockAllocator, BlockState, HeapGeometry, HeapSpace, ImmixAllocator, LargeObjectSpace, Line,
    LineOccupancy, SideMetadata, GRANULE_WORDS,
};
use lxr_object::{ClaimResult, ObjectModel, ObjectReference};
use lxr_runtime::{Collection, PlanContext, WorkCounter, WorkerPool};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Line marks as an occupancy oracle for [`ImmixAllocator`].
///
/// Backed by a 1-bit-per-line [`SideMetadata`] table so that the sweep's
/// per-block summaries and the allocator's free-line hole search run
/// word-at-a-time (64 lines per loaded word) instead of probing a byte
/// atomic per line.
#[derive(Debug)]
pub struct LineMarks {
    /// One bit per line, keyed by the line's start address.
    table: SideMetadata,
    log_words_per_line: u32,
}

impl LineMarks {
    /// Creates a table with every line unmarked (free).
    pub fn new(geometry: &HeapGeometry) -> Self {
        LineMarks {
            table: SideMetadata::new(geometry.num_words(), geometry.words_per_line(), 1),
            log_words_per_line: geometry.words_per_line().trailing_zeros(),
        }
    }

    /// The start address of `line` (the table's key space).
    #[inline]
    fn addr(&self, line: Line) -> Address {
        Address::from_word_index(line.index() << self.log_words_per_line)
    }

    /// Marks `line` live.
    pub fn mark(&self, line: Line) {
        self.table.store(self.addr(line), 1);
    }

    /// Returns `true` if `line` is marked live.
    pub fn is_marked(&self, line: Line) -> bool {
        self.table.load(self.addr(line)) != 0
    }

    /// Number of marked lines among the `lines` starting at `first_line`,
    /// counted 64 lines per loaded word.
    pub fn count_marked(&self, first_line: Line, lines: usize) -> usize {
        self.table.count_nonzero_range(self.addr(first_line), lines << self.log_words_per_line)
    }

    /// Clears every line mark.
    pub fn clear(&self) {
        self.table.clear_all();
    }

    /// Clears the marks of `lines` consecutive lines starting at
    /// `first_line` (one wide store per 64 lines).  Called when a block is
    /// released so stale line marks cannot leak into its next life.
    pub fn clear_range(&self, first_line: Line, lines: usize) {
        self.table.clear_range(self.addr(first_line), lines << self.log_words_per_line);
    }
}

impl LineOccupancy for LineMarks {
    fn line_is_free(&self, line: Line) -> bool {
        !self.is_marked(line)
    }

    /// Free-line runs answered by a word-at-a-time zero-run scan of the mark
    /// bitmap (one bit per line, so entry runs are line runs).
    fn next_free_line_run(
        &self,
        first_line: Line,
        from: usize,
        lines_per_block: usize,
    ) -> Option<(usize, usize)> {
        let start = self.addr(Line::from_index(first_line.index() + from));
        let words = (lines_per_block - from) << self.log_words_per_line;
        let (run, len) = self.table.find_zero_run(start, words, 1)?;
        let offset = (run.word_index() >> self.log_words_per_line) - first_line.index();
        Some((offset, offset + len))
    }
}

/// Mark bits plus per-line marks, shared by every tracing baseline.
pub struct TraceState {
    /// The heap arena.
    pub space: Arc<HeapSpace>,
    /// Global block lists.
    pub blocks: Arc<BlockAllocator>,
    /// Large object space.
    pub los: Arc<LargeObjectSpace>,
    /// Object model.
    pub om: ObjectModel,
    /// Heap geometry.
    pub geometry: HeapGeometry,
    /// Per-granule mark bits.
    pub marks: SideMetadata,
    /// Per-line marks (line is live if non-zero); doubles as the allocator's
    /// occupancy oracle.
    pub line_marks: Arc<LineMarks>,
    /// Live words observed by the most recent trace.
    pub live_words: AtomicUsize,
}

impl std::fmt::Debug for TraceState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceState").finish_non_exhaustive()
    }
}

/// How a trace copies objects.
#[derive(Clone)]
pub struct CopyConfig {
    /// Copy every live object (semi-space) rather than only objects in
    /// evacuation-candidate blocks.
    pub copy_all: bool,
    /// Line occupancy used by the copy allocators (usually the line marks,
    /// so copies avoid lines already claimed by earlier copies).
    pub occupancy: Arc<dyn LineOccupancy>,
    /// When `true`, the trace is *bounded*: objects outside the
    /// evacuation-candidate blocks are not visited and their referents are
    /// not followed (used for generational young collections, whose
    /// non-young reachability is covered by the remembered set).
    pub bounded: bool,
}

impl std::fmt::Debug for CopyConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CopyConfig").field("copy_all", &self.copy_all).finish_non_exhaustive()
    }
}

impl TraceState {
    /// Builds trace state from a plan context.
    pub fn new(ctx: &PlanContext) -> Self {
        let space = ctx.space.clone();
        let geometry = space.geometry();
        TraceState {
            om: ObjectModel::new(space.clone()),
            blocks: ctx.blocks.clone(),
            los: ctx.los.clone(),
            geometry,
            marks: SideMetadata::new(geometry.num_words(), GRANULE_WORDS, 1),
            line_marks: Arc::new(LineMarks::new(&geometry)),
            live_words: AtomicUsize::new(0),
            space,
        }
    }

    /// Returns `true` if `obj` is marked.
    #[inline]
    pub fn is_marked(&self, obj: ObjectReference) -> bool {
        self.marks.load(obj.to_address()) != 0
    }

    /// Attempts to mark `obj`; returns `true` if this call won.
    #[inline]
    pub fn try_mark(&self, obj: ObjectReference) -> bool {
        self.marks.try_set_from_zero(obj.to_address(), 1)
    }

    /// Marks the lines covered by an object.
    pub fn mark_lines(&self, obj: ObjectReference, size_words: usize) {
        let start = obj.to_address();
        let end = start.plus(size_words);
        let mut line = self.geometry.line_of(start);
        loop {
            self.line_marks.mark(line);
            let next = Line::from_index(line.index() + 1);
            if self.geometry.line_start(next) >= end {
                break;
            }
            line = next;
        }
    }

    /// Clears all mark state ahead of a trace.
    pub fn clear_marks(&self) {
        self.marks.clear_all();
        self.line_marks.clear();
        self.live_words.store(0, Ordering::Relaxed);
    }

    /// Releases a completely free (or fully evacuated) block: clears its
    /// granule marks and line marks so stale mark state cannot leak into
    /// the block's next life, advances its lines' reuse epochs so captured
    /// references into it (stamped barrier entries) are provably stale, and
    /// returns it to the global free list.
    ///
    /// This was the seed's missing invalidation: blocks released by the
    /// baselines kept their mark bits and field-log states, so a block's
    /// next life inherited phantom marks and Unlogged fields — the source
    /// of the g1/shenandoah deep-list corruption (bogus captures on fresh
    /// objects feeding stale slots into later traces).  Field-log state is
    /// plan-owned, so plans clear it via the `on_release` hook of
    /// [`sweep_with`](Self::sweep_with) or at their own release sites.
    pub fn release_free_block(&self, block: lxr_heap::Block) {
        let start = self.geometry.block_start(block);
        self.marks.clear_range(start, self.geometry.words_per_block());
        self.line_marks.clear_range(self.geometry.first_line_of(block), self.geometry.lines_per_block());
        self.space.bump_block_reuse(block);
        self.blocks.release_free_block(block);
    }

    /// Runs a parallel transitive closure from the collection's roots,
    /// marking objects and lines and (optionally) copying live objects.
    /// Root slots are updated in place when their referents move.
    pub fn trace(
        self: &Arc<Self>,
        workers: &WorkerPool,
        collection: &Collection<'_>,
        copy: Option<CopyConfig>,
    ) {
        self.trace_with(workers, collection, copy, Vec::new(), None)
    }

    /// Like [`trace`](Self::trace), but additionally seeds the closure with
    /// `extra_slots` (e.g. remembered-set entries) and invokes `on_live` for
    /// every object found live (both marked in place and copied) — used by
    /// the generational plan to re-arm the fields of promoted objects.
    pub fn trace_with(
        self: &Arc<Self>,
        workers: &WorkerPool,
        collection: &Collection<'_>,
        copy: Option<CopyConfig>,
        extra_slots: Vec<Address>,
        on_live: Option<Arc<dyn Fn(ObjectReference, u16) + Send + Sync>>,
    ) {
        let shared = Arc::new(TraceShared {
            state: self.clone(),
            copy,
            on_live,
            copy_allocators: (0..workers.size() + 1).map(|_| Mutex::new(None)).collect(),
        });
        // Roots are visited sequentially (they are few); the transitive
        // closure over heap slots runs in parallel.
        let mut seeds: Vec<Address> = extra_slots;
        let root_worker = workers.size();
        collection.roots.visit_roots(|r| {
            let obj = *r;
            let new = shared.visit_object(obj, root_worker, &mut |slot| seeds.push(slot));
            if new != obj {
                *r = new;
            }
        });
        collection.stats.add(WorkCounter::RootsScanned, seeds.len() as u64);
        let shared2 = shared.clone();
        let stats = collection.stats;
        let slots_traced = Arc::new(AtomicUsize::new(0));
        let slots_traced2 = slots_traced.clone();
        let mut graph = lxr_runtime::BucketGraph::new();
        let slots = graph.bucket("trace-slots", &[], seeds);
        workers.run_bucket_graph("pause: trace", graph, move |_bucket, slot, handle| {
            slots_traced2.fetch_add(1, Ordering::Relaxed);
            let obj = shared2.state.om.read_slot(slot);
            if obj.is_null() {
                return;
            }
            let new = shared2.visit_object(obj, handle.worker_id, &mut |s| handle.push(slots, s));
            if new != obj {
                shared2.state.om.write_slot(slot, new);
            }
        });
        stats.add(WorkCounter::SlotsTraced, slots_traced.load(Ordering::Relaxed) as u64);
    }

    /// Sweeps every non-free block after a trace: blocks with no marked
    /// lines are released, partially marked blocks are queued for line
    /// reuse.  Unmarked large objects are freed.  Returns the number of
    /// blocks released.
    pub fn sweep(&self, stats: &lxr_runtime::GcStats) -> usize {
        self.sweep_with(stats, |_| {})
    }

    /// Like [`sweep`](Self::sweep), with `on_release` invoked for every
    /// block released to the free list — plans hang their own metadata
    /// invalidation (field-log clears) off it.
    pub fn sweep_with(
        &self,
        stats: &lxr_runtime::GcStats,
        mut on_release: impl FnMut(lxr_heap::Block),
    ) -> usize {
        let mut freed = 0;
        for (block, block_state) in self.space.block_states().iter() {
            // A `Reusable` block still sits in the recycled queue: leave it
            // there rather than also releasing it to the clean list.
            if block.index() == 0
                || matches!(block_state, BlockState::Free | BlockState::Los | BlockState::Reusable)
            {
                continue;
            }
            // One SWAR pass over the mark bitmap answers both "any line
            // marked" and "any line free" for the block.
            let marked = self
                .line_marks
                .count_marked(self.geometry.first_line_of(block), self.geometry.lines_per_block());
            if marked > 0 {
                if marked == self.geometry.lines_per_block() {
                    self.space.block_states().set(block, BlockState::Mature);
                } else if self.blocks.release_recycled_block(block) {
                    stats.add(WorkCounter::BlocksRecycled, 1);
                }
            } else {
                self.release_free_block(block);
                on_release(block);
                stats.add(WorkCounter::MatureBlocksFreed, 1);
                freed += 1;
            }
        }
        for (addr, meta) in self.los.snapshot() {
            if !self.is_marked(ObjectReference::from_address(addr)) {
                // Clear the run's mark and line-mark metadata and let the
                // plan clear its field-log state (`on_release`, once per
                // block of the run): a freed LOS run whose fields were
                // armed at allocation must not hand its next life
                // pre-Unlogged fields — those produce bogus captures whose
                // reuse-epoch stamps are *current* (the capture postdates
                // the reuse), the one leak the epoch check cannot catch.
                let start = self.geometry.block_start(meta.first_block);
                let words = meta.num_blocks * self.geometry.words_per_block();
                self.marks.clear_range(start, words);
                self.line_marks.clear_range(
                    self.geometry.first_line_of(meta.first_block),
                    meta.num_blocks * self.geometry.lines_per_block(),
                );
                for i in 0..meta.num_blocks {
                    on_release(lxr_heap::Block::from_index(meta.first_block.index() + i));
                }
                self.los.free(addr);
                stats.add(WorkCounter::LargeObjectsFreed, 1);
            }
        }
        freed
    }

    /// Number of blocks currently available for allocation, including
    /// blocks in still-unmapped chunks an elastic heap can grow into.
    pub fn available_blocks(&self) -> usize {
        self.blocks.free_block_count() + self.blocks.recycled_block_count() + self.blocks.growable_blocks()
    }
}

struct TraceShared {
    state: Arc<TraceState>,
    copy: Option<CopyConfig>,
    on_live: Option<Arc<dyn Fn(ObjectReference, u16) + Send + Sync>>,
    copy_allocators: Vec<Mutex<Option<ImmixAllocator>>>,
}

impl TraceShared {
    /// Marks (and possibly copies) one object, pushing its reference slots.
    fn visit_object(
        &self,
        obj: ObjectReference,
        worker: usize,
        push_slot: &mut dyn FnMut(Address),
    ) -> ObjectReference {
        let state = &self.state;
        if obj.is_null() {
            return obj;
        }
        if let Some(new) = state.om.forwarding_target(obj) {
            return new;
        }
        let block = state.geometry.block_of(obj.to_address());
        let block_state = state.space.block_states().get(block);
        let should_copy = match &self.copy {
            None => false,
            Some(cfg) => {
                if cfg.bounded && block_state != BlockState::EvacCandidate {
                    // Bounded (young) trace: do not follow pointers that lead
                    // outside the collection set.
                    return obj;
                }
                if block_state == BlockState::Los {
                    false
                } else {
                    cfg.copy_all || block_state == BlockState::EvacCandidate
                }
            }
        };
        if !should_copy {
            return self.mark_in_place(obj, push_slot);
        }
        match state.om.try_claim_forwarding(obj) {
            // A stale reference (granule reclaimed and reused): leave it be.
            ClaimResult::Stale => obj,
            ClaimResult::AlreadyForwarded(new) => new,
            ClaimResult::Claimed(header) => {
                let shape = state.om.shape_of_header(header);
                let size = shape.size_words();
                let cfg = self.copy.as_ref().unwrap();
                let idx = worker.min(self.copy_allocators.len() - 1);
                let mut guard = self.copy_allocators[idx].lock();
                let allocator = guard.get_or_insert_with(|| {
                    ImmixAllocator::new(state.space.clone(), state.blocks.clone(), cfg.occupancy.clone())
                });
                match allocator.alloc(size) {
                    Ok(to) => {
                        drop(guard);
                        let new = state.om.install_forwarding(obj, to, header);
                        state.marks.store(new.to_address(), 1);
                        state.mark_lines(new, size);
                        state.live_words.fetch_add(size, Ordering::Relaxed);
                        if let Some(on_live) = &self.on_live {
                            on_live(new, shape.nrefs);
                        }
                        for i in 0..shape.nrefs as usize {
                            push_slot(new.to_address().plus(1 + i));
                        }
                        new
                    }
                    Err(_) => {
                        drop(guard);
                        state.om.abandon_forwarding(obj, header);
                        self.mark_in_place(obj, push_slot)
                    }
                }
            }
        }
    }

    fn mark_in_place(&self, obj: ObjectReference, push_slot: &mut dyn FnMut(Address)) -> ObjectReference {
        let state = &self.state;
        if !state.try_mark(obj) {
            return obj;
        }
        let shape = state.om.shape(obj);
        let size = shape.size_words();
        state.mark_lines(obj, size);
        state.live_words.fetch_add(size, Ordering::Relaxed);
        if let Some(on_live) = &self.on_live {
            on_live(obj, shape.nrefs);
        }
        for i in 0..shape.nrefs as usize {
            push_slot(obj.to_address().plus(1 + i));
        }
        obj
    }
}
