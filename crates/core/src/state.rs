//! Shared mutable state of the LXR collector.
//!
//! Both halves of the collector — the stop-the-world RC pause and the
//! concurrent crew (lazy decrements, SATB tracing) — operate over one
//! [`LxrState`], as do the per-mutator allocators and barriers.

use crate::config::LxrConfig;
use crate::predictors::Predictors;
use crossbeam::queue::SegQueue;
use lxr_barrier::{BarrierSink, BarrierStats, FieldLogTable};
use lxr_heap::{
    Address, Block, BlockAllocator, BlockState, HeapGeometry, HeapSpace, LargeObjectSpace, SideMetadata,
    GRANULE_WORDS,
};
use lxr_object::{ObjectModel, ObjectReference};
use lxr_rc::{RcTable, Stamped};
use lxr_runtime::{GcStats, PlanContext, WorkCounter};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A remembered-set entry: the address of a slot holding a reference into an
/// evacuation set, stamped with the reuse epoch of the line containing the
/// slot so that stale entries (whose source line has since been reclaimed
/// and reused) can be discarded at evacuation time (§3.3.2; see
/// [`lxr_heap::epoch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemsetEntry {
    /// The address of the slot holding the incoming reference.
    pub slot: Address,
    /// The reuse epoch of the slot's line when the entry was created.
    pub epoch: u8,
}

/// All shared collector state.
pub struct LxrState {
    /// The heap arena.
    pub space: Arc<HeapSpace>,
    /// Global block lists.
    pub blocks: Arc<BlockAllocator>,
    /// Large object space.
    pub los: Arc<LargeObjectSpace>,
    /// Runtime statistics.
    pub stats: Arc<GcStats>,
    /// Collector configuration.
    pub config: LxrConfig,
    /// The object model.
    pub om: ObjectModel,
    /// The reference-count table.
    pub rc: Arc<RcTable>,
    /// Field-logging states for the write barrier.
    pub log_table: Arc<FieldLogTable>,
    /// Where mutator barriers publish decrements and modified fields.
    pub sink: Arc<BarrierSink>,
    /// Barrier activity counters.
    pub barrier_stats: Arc<BarrierStats>,
    /// SATB mark bits (one per 16-byte granule).
    pub marks: SideMetadata,
    /// Heap geometry (cached).
    pub geometry: HeapGeometry,

    // ---- epoch state ----
    /// Words allocated when the current mutator epoch began.
    pub words_at_epoch_start: AtomicUsize,
    /// Root referents incremented at the previous pause, to be decremented
    /// at the next pause (root deferral, §2.1).
    pub prev_root_decs: Mutex<Vec<Stamped<ObjectReference>>>,
    /// Large objects allocated since the last pause (checked for implicit
    /// death at the next pause).
    pub young_los: Mutex<Vec<Address>>,
    /// Completed RC epochs.
    pub epochs: AtomicU64,

    // ---- lazy decrement state ----
    /// Decrements awaiting (lazy) processing, in packets (the barrier's
    /// drained chunks, offloaded halves and yield remainders), each entry
    /// stamped with its target's reuse epoch at capture time.  No packet is
    /// ever empty, so an empty queue means no decrement is pending.
    pub pending_decs: SegQueue<Vec<Stamped<ObjectReference>>>,
    /// `true` while decrements from the last epoch remain unprocessed.
    pub lazy_pending: AtomicBool,
    /// Blocks that received decrements since the last pause (sweep
    /// candidates): one atomic bit per block, set on the decrement hot path
    /// without a lock and drained with a SWAR set-bit scan
    /// ([`SideMetadata::for_each_nonzero`]).
    pub dirtied: SideMetadata,
    /// Number of concurrent crew workers currently inside `concurrent_work`
    /// (the crew-wide generalisation of the old single `concurrent_busy`
    /// flag); the pause spins until the whole crew has quiesced.  `SeqCst`
    /// against the rendezvous' pending flag — see
    /// [`lxr_runtime::Rendezvous::gc_pending`].
    pub concurrent_active: AtomicUsize,
    /// Crew workers currently draining the pending-decrement queue (holding
    /// popped batches in local stacks).  The last worker to leave with the
    /// queue empty performs lazy reclamation and clears `lazy_pending`.
    pub dec_workers: AtomicUsize,

    // ---- SATB state ----
    /// A trace is underway (snapshot taken, not yet reclaimed).
    pub satb_active: AtomicBool,
    /// The trace has visited every snapshot-reachable object; reclamation
    /// happens at the next pause.
    pub satb_complete: AtomicBool,
    /// The shared gray set: the seed-and-steal half of the SATB mark stack.
    /// Crew workers pop seeds from here into per-worker local mark stacks
    /// and spill oversized or preempted local work back, so this queue is a
    /// spill/steal target rather than the per-object hot path.  Entries
    /// carry their capture-time reuse-epoch stamp; the trace validates the
    /// stamp before scanning, so an entry whose granule was reclaimed and
    /// reused mid-trace is an exact no-op.
    pub gray: SegQueue<Stamped<ObjectReference>>,
    /// Crew workers currently holding SATB trace work (a nonempty local
    /// mark stack or an object mid-scan).  "`gray` empty and no registered
    /// tracers" is the crew's trace-drained condition.
    pub satb_tracers: AtomicUsize,
    /// Degraded-mode request: the next pause must run its SATB catch-up
    /// unbounded (the degenerate stop-the-world fallback).  Set by the
    /// crew's trace watchdog when concurrent marking stops making progress
    /// and by the `pause.satb-feed=degenerate` failpoint; consumed (swapped
    /// to `false`) by the pause's step 4.
    pub force_degenerate: AtomicBool,

    // ---- mature evacuation state ----
    /// Blocks currently selected for evacuation (by index).
    pub evac_candidates: Mutex<HashSet<usize>>,
    /// Remembered-set entries for the evacuation set.
    pub remset: SegQueue<RemsetEntry>,
    /// One bit per heap word: set when `remset` already holds a live entry
    /// for the slot, so re-recording a hot slot (visited by many trace and
    /// increment paths per epoch) cannot grow the remembered set without
    /// bound.  Cleared wholesale when the remset is reset (trace start,
    /// evacuation) and per-block when a block is released mid-trace.
    pub remset_logged: SideMetadata,
    /// Blocks emptied by evacuation or SATB reclamation, released at the
    /// *next* pause so that forwarding pointers and headers stay valid while
    /// this epoch's lazy decrements drain.
    pub deferred_free_blocks: Mutex<Vec<Block>>,
    /// Blocks whose counts were cleared by SATB reclamation this pause,
    /// swept at the *next* pause for the same reason the free-block release
    /// above is deferred: this epoch's lazy decrement cascades may still
    /// resolve references to the reclaimed granules, so their headers must
    /// not be reused until the next pause's catch-up has drained them.
    pub satb_swept_deferred: Mutex<Vec<Block>>,

    // ---- sticky (generational) trace state ----
    /// The sticky remembered set: slots whose fields were modified (and so
    /// may now point at objects allocated after the last trace), stamped
    /// with their line's reuse epoch.  Recorded at increment time when
    /// [`LxrConfig::sticky`] is set; drained as extra gray seeds when a
    /// sticky trace starts, discarded when a full trace starts.
    pub sticky_slots: SegQueue<RemsetEntry>,
    /// One bit per heap word: the slot already has a live entry in
    /// `sticky_slots`, so hot fields rewritten every epoch cannot grow the
    /// remembered set without bound (the sticky twin of `remset_logged`).
    pub sticky_logged: SideMetadata,
    /// The trace currently underway (or the last one started) is a
    /// full-heap trace; sticky traces leave this `false` so reclamation and
    /// reporting can tell the two kinds apart.
    pub current_trace_full: AtomicBool,
    /// At least one full-heap trace has run to completion, so the mark bits
    /// cover the whole mature heap and a sticky trace is sound.  Until
    /// then every trace must run full.
    pub full_trace_completed: AtomicBool,
    /// The next trace must run full-heap: set by exhaustion/degenerate
    /// pauses (the degraded-mode story never depends on sticky marks) and
    /// consumed when the next trace starts.
    pub force_full_trace: AtomicBool,
    /// Consecutive sticky traces since the last full trace (drives the
    /// `satb::STICKY_FULL_EVERY_N` escalation backstop).
    pub sticky_since_full: AtomicU64,
    /// `ObjectsMarked` counter value snapshot at trace start, so trace
    /// yield can be computed per-cycle.
    pub objects_marked_at_trace_start: AtomicU64,
    /// `SatbDeaths` counter value snapshot at trace start (the other half
    /// of the per-cycle yield observation).
    pub satb_deaths_at_trace_start: AtomicU64,

    // ---- predictors ----
    /// Survival-rate and live-block predictors.
    pub predictors: Mutex<Predictors>,
}

impl std::fmt::Debug for LxrState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LxrState")
            .field("epochs", &self.epochs.load(Ordering::Relaxed))
            .field("satb_active", &self.satb_active.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl LxrState {
    /// Builds the collector state from a plan context and configuration.
    pub fn new(ctx: &PlanContext, config: LxrConfig) -> Self {
        let space = ctx.space.clone();
        let geometry = space.geometry();
        let rc = Arc::new(RcTable::new(&ctx.options.heap));
        let log_table = Arc::new(FieldLogTable::for_space(&space));
        let marks = SideMetadata::new(geometry.num_words(), GRANULE_WORDS, 1);
        LxrState {
            om: ObjectModel::new(space.clone()),
            blocks: ctx.blocks.clone(),
            los: ctx.los.clone(),
            stats: ctx.stats.clone(),
            config,
            rc,
            log_table,
            sink: Arc::new(BarrierSink::new()),
            barrier_stats: Arc::new(BarrierStats::new()),
            marks,
            geometry,
            space,
            words_at_epoch_start: AtomicUsize::new(0),
            prev_root_decs: Mutex::new(Vec::new()),
            young_los: Mutex::new(Vec::new()),
            epochs: AtomicU64::new(0),
            pending_decs: SegQueue::new(),
            lazy_pending: AtomicBool::new(false),
            dirtied: SideMetadata::new(geometry.num_words(), geometry.words_per_block(), 1),
            concurrent_active: AtomicUsize::new(0),
            dec_workers: AtomicUsize::new(0),
            satb_active: AtomicBool::new(false),
            satb_complete: AtomicBool::new(false),
            gray: SegQueue::new(),
            satb_tracers: AtomicUsize::new(0),
            force_degenerate: AtomicBool::new(false),
            evac_candidates: Mutex::new(HashSet::new()),
            remset: SegQueue::new(),
            remset_logged: SideMetadata::new(geometry.num_words(), 1, 1),
            deferred_free_blocks: Mutex::new(Vec::new()),
            satb_swept_deferred: Mutex::new(Vec::new()),
            sticky_slots: SegQueue::new(),
            sticky_logged: SideMetadata::new(geometry.num_words(), 1, 1),
            current_trace_full: AtomicBool::new(false),
            full_trace_completed: AtomicBool::new(false),
            force_full_trace: AtomicBool::new(false),
            sticky_since_full: AtomicU64::new(0),
            objects_marked_at_trace_start: AtomicU64::new(0),
            satb_deaths_at_trace_start: AtomicU64::new(0),
            predictors: Mutex::new(Predictors::new()),
        }
    }

    // ---- mark bits ---------------------------------------------------------

    /// Returns `true` if `obj` carries an SATB mark.
    #[inline]
    pub fn is_marked(&self, obj: ObjectReference) -> bool {
        self.marks.load(obj.to_address()) != 0
    }

    /// Attempts to mark `obj`; returns `true` if this call set the mark.
    /// For objects larger than a line, the straddle granules are marked too
    /// so that the SATB sweep does not clear their line-occupancy markers.
    pub fn mark_object(&self, obj: ObjectReference, size_words: usize) -> bool {
        let won = self.marks.try_set_from_zero(obj.to_address(), 1);
        if won && size_words > self.geometry.words_per_line() {
            let start = obj.to_address();
            let end = start.plus(size_words);
            let wpl = self.geometry.words_per_line();
            let mut line_start = start.align_up(wpl);
            while line_start.plus(wpl) < end {
                self.marks.store(line_start, 1);
                line_start = line_start.plus(wpl);
            }
        }
        won
    }

    /// Clears every SATB mark bit.
    pub fn clear_marks(&self) {
        self.marks.clear_all();
    }

    // ---- evacuation-set queries -------------------------------------------

    /// Returns `true` if `obj` lies in a block currently selected for
    /// evacuation.  Out-of-heap values (stale references re-read from
    /// reused memory) are never in the evacuation set.
    #[inline]
    pub fn in_evac_set(&self, obj: ObjectReference) -> bool {
        if obj.is_null() || !self.in_heap(obj) {
            return false;
        }
        let block = self.geometry.block_of(obj.to_address());
        self.space.block_states().get(block) == BlockState::EvacCandidate
    }

    /// Records a remembered-set entry for `slot`, which holds a reference
    /// into the evacuation set.
    ///
    /// Deduplicated through the per-slot logged bit (`remset_logged`): the
    /// trace and the increment phase re-visit hot slots many times per
    /// epoch, and before dedup every visit appended another entry.  Exactly
    /// one caller per slot wins the `try_set_from_zero` race and pushes;
    /// the bit is cleared when the remset itself is reset and when the
    /// slot's block is released (so a recycled slot can be re-recorded).
    pub fn record_remset(&self, slot: Address) {
        if !self.remset_logged.try_set_from_zero(slot, 1) {
            return;
        }
        self.remset.push(RemsetEntry { slot, epoch: self.space.reuse_epoch(slot) });
    }

    /// Drops every remembered-set entry and re-arms the per-slot dedup bits.
    /// Called when a trace begins and after an evacuation consumes the set.
    pub fn reset_remset(&self) {
        while self.remset.pop().is_some() {}
        self.remset_logged.clear_all();
    }

    // ---- sticky remembered set --------------------------------------------

    /// Records `slot` in the sticky remembered set: its field was modified
    /// this epoch, so it may now reference an object allocated after the
    /// last trace and must be re-scanned when the next sticky trace seeds.
    /// Deduplicated per slot through `sticky_logged` (same protocol as
    /// [`record_remset`](Self::record_remset)); the slot's *current*
    /// contents are re-read at drain time, so recording the slot rather
    /// than the referent is what makes dedup sound.
    pub fn record_sticky_slot(&self, slot: Address) {
        if !self.sticky_logged.try_set_from_zero(slot, 1) {
            return;
        }
        self.sticky_slots.push(RemsetEntry { slot, epoch: self.space.reuse_epoch(slot) });
    }

    /// Drains the sticky remembered set, invoking `f` with every slot whose
    /// reuse-epoch stamp is still current (a stale stamp proves the slot's
    /// line was reclaimed and reused since the entry was recorded — its new
    /// occupant is covered by its own retention, so the entry is dropped).
    /// Re-arms the dedup bits so the next epoch records afresh.
    pub fn drain_sticky_slots(&self, mut f: impl FnMut(Address)) {
        while let Some(entry) = self.sticky_slots.pop() {
            if self.space.reuse_epoch(entry.slot) == entry.epoch {
                self.stats.add(WorkCounter::EpochChecksPassed, 1);
                f(entry.slot);
            } else {
                self.stats.add(WorkCounter::EpochStaleDrops, 1);
            }
        }
        self.sticky_logged.clear_all();
    }

    /// Discards the sticky remembered set without visiting it (a full trace
    /// covers every object, so the accumulated seeds are redundant).
    pub fn discard_sticky_slots(&self) {
        while self.sticky_slots.pop().is_some() {}
        self.sticky_logged.clear_all();
    }

    // ---- dirtied-block tracking -------------------------------------------

    /// Marks `block` as having received a decrement since the last pause.
    ///
    /// Hot path (hit for every decrement that dirties a block): a byte
    /// load, and only on the first dirtying a store (CAS-merged into the
    /// shared byte by [`SideMetadata::store`]) — no lock, unlike the
    /// `Mutex<HashSet>` this replaces.  Racing markers are benign: both
    /// merge the same 1 bit, and clears happen only from the quiesced
    /// concurrent thread or inside a pause.
    #[inline]
    pub fn mark_block_dirtied(&self, block: Block) {
        let addr = self.geometry.block_start(block);
        if self.dirtied.load(addr) == 0 {
            self.dirtied.store(addr, 1);
        }
    }

    /// Returns `true` if `block` is marked decrement-dirtied.
    #[inline]
    pub fn block_is_dirtied(&self, block: Block) -> bool {
        self.dirtied.load(self.geometry.block_start(block)) != 0
    }

    /// Clears the dirtied bit of `block`.
    #[inline]
    pub fn clear_block_dirtied(&self, block: Block) {
        self.dirtied.store(self.geometry.block_start(block), 0);
    }

    /// Visits every dirtied block via a word-at-a-time set-bit scan (the
    /// whole map is `num_blocks` bits — a handful of words).
    pub fn for_each_dirtied_block(&self, mut f: impl FnMut(Block)) {
        self.dirtied.for_each_nonzero(Address::from_word_index(0), self.geometry.num_words(), |entry| {
            f(Block::from_index(entry))
        });
    }

    // ---- decrements --------------------------------------------------------

    /// Returns `true` if `obj` denotes an address inside the heap.  The
    /// concurrent crew runs decrement cascades and the trace alongside
    /// mutators; in the (bounded, documented) windows where a reclaimed
    /// granule is reused before a stale reference to it drains, a re-read
    /// field can yield an arbitrary bit pattern — such a value must degrade
    /// to a no-op, never an out-of-bounds metadata access.
    #[inline]
    pub fn in_heap(&self, obj: ObjectReference) -> bool {
        obj.to_address().word_index() < self.geometry.num_words()
    }

    /// Stamps `obj` with its line's current reuse epoch (the capture half
    /// of the stamp/validate protocol, [`lxr_heap::epoch`]).  Out-of-heap
    /// values get a zero stamp; every validation site drops them on its
    /// in-heap check before consulting the epoch.
    #[inline]
    pub fn stamp(&self, obj: ObjectReference) -> Stamped<ObjectReference> {
        let epoch =
            if !obj.is_null() && self.in_heap(obj) { self.space.reuse_epoch(obj.to_address()) } else { 0 };
        Stamped::new(obj, epoch)
    }

    /// Returns `true` if `dec`'s stamp still matches its target line's
    /// reuse epoch — i.e. the capture provably refers to the same life of
    /// the granule.  Counts the outcome in the epoch-validation statistics.
    #[inline]
    pub fn stamp_is_current(&self, dec: Stamped<ObjectReference>) -> bool {
        if self.space.reuse_epoch(dec.value.to_address()) == dec.epoch {
            self.stats.add(WorkCounter::EpochChecksPassed, 1);
            true
        } else {
            self.stats.add(WorkCounter::EpochStaleDrops, 1);
            false
        }
    }

    /// Stamps `obj` and pushes it onto the shared gray queue.
    #[inline]
    pub fn push_gray(&self, obj: ObjectReference) {
        self.gray.push(self.stamp(obj));
    }

    /// Applies one decrement to a stamped capture (resolving any forwarding
    /// first), honouring the SATB deletion invariant, and feeding recursive
    /// decrements and reclamation bookkeeping.
    ///
    /// The capture's reuse-epoch stamp is validated first: a mismatch
    /// proves the target granule was reclaimed and reused after the capture
    /// and the decrement is dropped — the exact stale test that replaces
    /// the old plausibility gates.  (The gates below survive as cheap
    /// defence in depth for values of unknown provenance.)
    ///
    /// `push_dec` receives the (freshly stamped) children of objects that
    /// die.
    pub fn apply_decrement<F: FnMut(Stamped<ObjectReference>)>(
        &self,
        dec: Stamped<ObjectReference>,
        push_dec: &mut F,
    ) {
        let obj = dec.value;
        if obj.is_null() || !self.in_heap(obj) {
            return;
        }
        if !self.stamp_is_current(dec) {
            return;
        }
        let obj = self.om.resolve(obj);
        if self.rc.count(obj) == 0 {
            // Already reclaimed (e.g. by an SATB sweep); nothing to do.
            return;
        }
        let change = self.rc.decrement(obj);
        self.stats.add(WorkCounter::DecrementsApplied, 1);
        if !change.is_death() {
            return;
        }
        // The object is now dead.  While an SATB trace is underway we must
        // not let the trace visit it after its space is reused: mark it (so
        // the trace skips it) and push its referents into the trace so the
        // snapshot stays complete (§3.2.2, "SATB with interruptions").
        let shape = self.om.shape(obj);
        let size = shape.size_words();
        // A granule whose count was corrupted by a stale reference can
        // carry an arbitrary "shape"; never let it drive reads past the
        // heap (real objects always fit inside their block).
        if obj.to_address().word_index().saturating_add(size) > self.geometry.num_words() {
            self.stats.add(WorkCounter::RcDeaths, 1);
            return;
        }
        if self.satb_active.load(Ordering::Acquire)
            && !self.satb_complete.load(Ordering::Acquire)
            && self.mark_object(obj, size)
        {
            self.om.scan_refs(obj, |_, child| {
                if !child.is_null() {
                    self.push_gray(child);
                }
            });
        }
        self.stats.add(WorkCounter::RcDeaths, 1);
        if size > self.geometry.words_per_line() {
            self.rc.clear_straddle_lines(obj, size);
        }
        self.om.scan_refs(obj, |_, child| {
            if !child.is_null() {
                push_dec(self.stamp(child));
            }
        });
        let block = self.geometry.block_of(obj.to_address());
        if self.space.block_states().get(block) == BlockState::Los {
            // A stale decrement can land inside a LOS run without being the
            // object's start (or the object may already be freed); only a
            // live large-object start is freed, and racing crew workers are
            // arbitrated inside `free_los`.
            if self.free_los(obj.to_address()) {
                self.stats.add(WorkCounter::LargeObjectsFreed, 1);
            }
        } else {
            self.mark_block_dirtied(block);
        }
    }

    // ---- block reclamation -------------------------------------------------

    /// Releases a completely free block back to the global free list,
    /// clearing its collector metadata and bumping its line reuse counters.
    pub fn release_free_block(&self, block: Block) {
        self.prepare_block_release(block);
        self.blocks.release_free_block(block);
    }

    /// The thread-safe half of a block release: clears the block's
    /// collector metadata and bumps its line reuse counters.  Blocks are
    /// disjoint, so sweep packets run this on the worker pool and hand the
    /// blocks to the allocator's batched
    /// [`release_free_blocks`](lxr_heap::BlockAllocator::release_free_blocks)
    /// afterwards.
    pub fn prepare_block_release(&self, block: Block) {
        debug_assert!(self.rc.block_is_free(block), "releasing a block with live counts");
        let start = self.geometry.block_start(block);
        let words = self.geometry.words_per_block();
        // Stale metadata must not leak into the block's next life.  All
        // four tables are cleared with word-wide stores (SWAR bulk ops),
        // not a byte atomic per granule.  Clearing the remset/sticky dedup
        // bits lets slots in the block's next life be recorded afresh.
        self.marks.clear_range(start, words);
        self.log_table.clear_range(start, words);
        self.remset_logged.clear_range(start, words);
        self.sticky_logged.clear_range(start, words);
        self.space.bump_block_reuse(block);
    }

    /// Frees the large object at `addr` if one is live there, clearing the
    /// collector metadata (mark bits, field-log states, remset dedup bits)
    /// of its whole block run first — the LOS analogue of
    /// [`prepare_block_release`](Self::prepare_block_release).  Without the
    /// clears, a freed LOS run (whose fields were armed at first retention)
    /// re-enters the free pool with `Unlogged` field states, and its next
    /// life's young objects produce bogus barrier captures whose stamps are
    /// *current* — the one stale-state leak the reuse epochs cannot catch,
    /// because the capture postdates the reuse.  Returns `true` if this
    /// call freed the object (racing callers are arbitrated by the LOS
    /// registry).
    pub fn free_los(&self, addr: Address) -> bool {
        let Some(meta) = self.los.object_at(addr) else { return false };
        let start = self.geometry.block_start(meta.first_block);
        let words = meta.num_blocks * self.geometry.words_per_block();
        self.marks.clear_range(start, words);
        self.log_table.clear_range(start, words);
        self.remset_logged.clear_range(start, words);
        self.sticky_logged.clear_range(start, words);
        self.los.try_free(addr).is_some()
    }

    /// Queues a partially free block for line reuse (its state becomes
    /// [`BlockState::Reusable`]), unless it is already queued.
    pub fn queue_for_reuse(&self, block: Block) {
        if self.blocks.release_recycled_block(block) {
            self.stats.add(WorkCounter::BlocksRecycled, 1);
        }
    }

    /// Occupancy of `block` as a fraction of its granules (an upper bound on
    /// live bytes derived from the RC table, §3.3.2).
    pub fn block_occupancy(&self, block: Block) -> f64 {
        let granules_per_block = self.geometry.words_per_block() / GRANULE_WORDS;
        self.rc.block_census(block).occupancy(granules_per_block)
    }

    /// Number of blocks in the heap available for allocation right now,
    /// including blocks in still-unmapped chunks an elastic heap can grow
    /// into — collection triggers should not fire while the heap can simply
    /// expand toward `--heap-max`.
    pub fn available_blocks(&self) -> usize {
        self.blocks.free_block_count() + self.blocks.recycled_block_count() + self.blocks.growable_blocks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lxr_heap::HeapConfig;
    use lxr_object::ObjectShape;
    use lxr_runtime::RuntimeOptions;

    fn state() -> LxrState {
        let options = RuntimeOptions::default()
            .with_heap_config(HeapConfig::with_heap_size(4 << 20))
            .with_concurrent_thread(false);
        let space = Arc::new(HeapSpace::new(options.heap.clone()));
        let blocks = Arc::new(BlockAllocator::new(space.clone()));
        let los = Arc::new(LargeObjectSpace::new(space.clone(), blocks.clone()));
        let ctx = PlanContext { space, blocks, los, stats: Arc::new(GcStats::new()), options };
        LxrState::new(&ctx, LxrConfig::default())
    }

    fn obj_at(state: &LxrState, word: usize, nrefs: u16, ndata: u16) -> ObjectReference {
        state.om.initialize(Address::from_word_index(word), ObjectShape::new(nrefs, ndata, 0))
    }

    #[test]
    fn marking_is_idempotent_and_covers_straddles() {
        let s = state();
        let big = obj_at(&s, 3 * 4096, 0, 100);
        assert!(!s.is_marked(big));
        assert!(s.mark_object(big, 102));
        assert!(!s.mark_object(big, 102), "second mark returns false");
        assert!(s.is_marked(big));
        // Straddle granules (starts of interior lines) are marked too.
        let second_line = Address::from_word_index(3 * 4096 + 32);
        assert_eq!(s.marks.load(second_line), 1);
        s.clear_marks();
        assert!(!s.is_marked(big));
    }

    #[test]
    fn decrement_death_cascades_to_children() {
        let s = state();
        let parent = obj_at(&s, 2 * 4096, 2, 0);
        let child_a = obj_at(&s, 2 * 4096 + 16, 0, 0);
        let child_b = obj_at(&s, 2 * 4096 + 32, 0, 0);
        s.om.write_ref_field(parent, 0, child_a);
        s.om.write_ref_field(parent, 1, child_b);
        s.rc.increment(parent);
        s.rc.increment(child_a);
        s.rc.increment(child_b);

        let mut queue = vec![s.stamp(parent)];
        while let Some(o) = queue.pop() {
            let mut push = |c: Stamped<ObjectReference>| queue.push(c);
            s.apply_decrement(o, &mut push);
        }
        assert_eq!(s.rc.count(parent), 0);
        assert_eq!(s.rc.count(child_a), 0);
        assert_eq!(s.rc.count(child_b), 0);
        assert_eq!(s.stats.get(WorkCounter::RcDeaths), 3);
        assert!(s.block_is_dirtied(Block::from_index(2)));
    }

    #[test]
    fn dirtied_bitmap_marks_and_drains() {
        let s = state();
        assert!(!s.block_is_dirtied(Block::from_index(3)));
        s.mark_block_dirtied(Block::from_index(3));
        s.mark_block_dirtied(Block::from_index(3));
        s.mark_block_dirtied(Block::from_index(7));
        assert!(s.block_is_dirtied(Block::from_index(3)));
        let mut seen = Vec::new();
        s.for_each_dirtied_block(|b| seen.push(b.index()));
        assert_eq!(seen, vec![3, 7]);
        s.clear_block_dirtied(Block::from_index(3));
        assert!(!s.block_is_dirtied(Block::from_index(3)));
        let mut seen = Vec::new();
        s.for_each_dirtied_block(|b| seen.push(b.index()));
        assert_eq!(seen, vec![7]);
    }

    #[test]
    fn decrement_honours_satb_invariant() {
        let s = state();
        let parent = obj_at(&s, 2 * 4096, 1, 0);
        let child = obj_at(&s, 2 * 4096 + 16, 0, 0);
        s.om.write_ref_field(parent, 0, child);
        s.rc.increment(parent);
        s.rc.increment(child);
        s.satb_active.store(true, Ordering::Release);

        let mut sink = Vec::new();
        let mut push = |c: Stamped<ObjectReference>| sink.push(c.value);
        s.apply_decrement(s.stamp(parent), &mut push);
        // The dying object was marked so the trace will skip it, and its
        // referent was pushed into the trace.
        assert!(s.is_marked(parent));
        let mut grays = Vec::new();
        while let Some(g) = s.gray.pop() {
            grays.push(g.value);
        }
        assert_eq!(grays, vec![child]);
        assert_eq!(sink, vec![child], "recursive decrement still happens");
    }

    #[test]
    fn decrement_of_reclaimed_object_is_a_no_op() {
        let s = state();
        let o = obj_at(&s, 2 * 4096, 0, 0);
        // Count is zero (already reclaimed).
        let mut push = |_c: Stamped<ObjectReference>| panic!("no recursive decrements expected");
        s.apply_decrement(s.stamp(o), &mut push);
        assert_eq!(s.stats.get(WorkCounter::DecrementsApplied), 0);
    }

    #[test]
    fn release_free_block_clears_metadata() {
        let s = state();
        let block = Block::from_index(5);
        let start = s.geometry.block_start(block);
        // Dirty some metadata, then pretend the block became free.
        s.marks.store(start, 1);
        s.log_table.mark_unlogged(start.plus(3));
        let before_free = s.blocks.free_block_count();
        s.release_free_block(block);
        assert_eq!(s.blocks.free_block_count(), before_free + 1);
        assert_eq!(s.marks.load(start), 0);
        assert_eq!(s.space.reuse_epoch(start), 1);
    }

    #[test]
    fn queue_for_reuse_never_queues_twice() {
        let s = state();
        let block = Block::from_index(7);
        let before = s.blocks.recycled_block_count();
        s.queue_for_reuse(block);
        s.queue_for_reuse(block);
        assert_eq!(s.blocks.recycled_block_count(), before + 1);
    }

    #[test]
    fn evac_set_membership_follows_block_state() {
        let s = state();
        let obj = obj_at(&s, 6 * 4096 + 8, 0, 0);
        assert!(!s.in_evac_set(obj));
        s.space.block_states().set(Block::from_index(6), BlockState::EvacCandidate);
        assert!(s.in_evac_set(obj));
        assert!(!s.in_evac_set(ObjectReference::NULL));
    }

    #[test]
    fn remset_entries_capture_reuse_epochs() {
        let s = state();
        let slot = Address::from_word_index(4 * 4096 + 10);
        s.record_remset(slot);
        let entry = s.remset.pop().unwrap();
        assert_eq!(entry.slot, slot);
        assert_eq!(entry.epoch, 0);
        // After the remset is reset and the line reclaimed (reuse epoch
        // advanced), a fresh entry carries the new stamp.
        s.reset_remset();
        s.space.bump_line_reuse(s.geometry.line_of(slot));
        s.record_remset(slot);
        assert_eq!(s.remset.pop().unwrap().epoch, 1);
    }

    #[test]
    fn re_recording_a_slot_does_not_grow_the_remset() {
        let s = state();
        let slot = Address::from_word_index(4 * 4096 + 10);
        let other = Address::from_word_index(4 * 4096 + 11);
        for _ in 0..100 {
            s.record_remset(slot);
        }
        s.record_remset(other);
        assert_eq!(s.remset.len(), 2, "one entry per distinct slot, however often it is re-recorded");
        // Releasing the slot's block re-arms its dedup bit: the slot's next
        // life can be recorded afresh.
        let block = s.geometry.block_of(slot);
        s.prepare_block_release(block);
        s.record_remset(slot);
        assert_eq!(s.remset.len(), 3);
        // A full reset also re-arms.
        s.reset_remset();
        assert!(s.remset.is_empty());
        s.record_remset(slot);
        assert_eq!(s.remset.len(), 1);
    }

    #[test]
    fn sticky_slots_dedup_validate_and_rearm() {
        let s = state();
        let hot = Address::from_word_index(4 * 4096 + 10);
        let stale = Address::from_word_index(4 * 4096 + 200);
        for _ in 0..100 {
            s.record_sticky_slot(hot);
        }
        s.record_sticky_slot(stale);
        assert_eq!(s.sticky_slots.len(), 2, "one entry per distinct slot");
        // The stale slot's line is reclaimed and reused after recording;
        // its entry must be dropped at drain time.
        s.space.bump_line_reuse(s.geometry.line_of(stale));
        let mut seen = Vec::new();
        s.drain_sticky_slots(|slot| seen.push(slot));
        assert_eq!(seen, vec![hot]);
        // The drain re-armed the dedup bits: both slots record afresh.
        s.record_sticky_slot(hot);
        s.record_sticky_slot(stale);
        assert_eq!(s.sticky_slots.len(), 2);
        // Discard (full-trace path) empties and re-arms too.
        s.discard_sticky_slots();
        assert!(s.sticky_slots.is_empty());
        s.record_sticky_slot(hot);
        assert_eq!(s.sticky_slots.len(), 1);
        // Releasing the block also re-arms its slots' dedup bits.
        s.discard_sticky_slots();
        s.record_sticky_slot(hot);
        s.prepare_block_release(s.geometry.block_of(hot));
        s.record_sticky_slot(hot);
        assert_eq!(s.sticky_slots.len(), 2);
    }
}
