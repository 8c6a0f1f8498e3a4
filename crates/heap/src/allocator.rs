//! The thread-local Immix bump-pointer allocator.
//!
//! # Allocation policy
//!
//! Follows §3.1 of the paper: allocation uses a fast bump pointer into the
//! current block; partially free (recycled) blocks are preferred over clean
//! blocks to maximise the availability of clean blocks for large
//! allocations; free lines are located by consulting the collector's
//! occupancy table (the RC table for LXR, a line mark table for tracing
//! collectors); the line following a used line is conservatively treated as
//! unavailable; medium objects that do not fit the current free-line run are
//! redirected to a dedicated *overflow* block; and memory is zeroed
//! immediately before it is allocated into.
//!
//! # Concurrency
//!
//! The allocator itself is thread-local (`&mut self` everywhere); the
//! shared state it touches is the global [`BlockAllocator`] free lists and
//! the collector's occupancy metadata.  The free-line search
//! ([`LineOccupancy::next_free_line_run`], backed by the side-metadata
//! zero-run kernels) may race concurrent *decrements* from the GC crew;
//! that race is benign by monotonicity: outside pauses counts only fall,
//! so a stale read can under-report a free line for one epoch (a missed
//! reuse opportunity) but can never hand out memory that is still live —
//! counts are only established *inside* pauses, which the allocator never
//! runs through.  This is the same argument the vector scan kernels cite
//! (see `side_metadata`'s module docs).
//!
//! Bump allocation writes nothing shared.  The heap-wide allocation volume
//! ([`HeapSpace::allocated_words`], which pacing triggers read) is *folded*:
//! an allocator adds `cursor − region_start` when it installs its next
//! region, is retired (every safepoint park) or is dropped; overflow-block
//! and large-object allocations add themselves as they happen.  The volume
//! is exact whenever the world is stopped and after an allocator is gone,
//! and otherwise trails each live allocator by less than its current region
//! (at most one block).
//!
//! # Reuse epochs
//!
//! Installing a recycled free-line run is one of the two ways line-grained
//! memory re-enters service, so [`install_region`](ImmixAllocator) bumps
//! the lines' reuse epochs (`HeapSpace::bump_line_reuse`) before handing
//! the run to the bump pointer — any reference captured into the lines'
//! previous life fails its stamp validation from that point on.

use crate::{Address, Block, BlockAllocator, HeapGeometry, HeapSpace, Line, MIN_OBJECT_WORDS};
use std::sync::Arc;

/// How a collector reports which lines are available for reuse.
///
/// LXR implements this on its reference-count table (a line is free when all
/// counts covering it are zero); tracing collectors implement it on their
/// line mark table.
pub trait LineOccupancy: Send + Sync {
    /// Returns `true` if every object slot on `line` is dead/free.
    fn line_is_free(&self, line: Line) -> bool;

    /// Finds the next run of free lines in a block: the first free line at
    /// offset `>= from` (0-based within the block, whose first line is
    /// `first_line`), extended right across free lines.  Returns the run as
    /// `(start_offset, end_offset)` offsets, exclusive of `end`.
    ///
    /// The default implementation probes [`line_is_free`](Self::line_is_free)
    /// line by line.  Metadata-backed collectors override it with a
    /// word-at-a-time zero-run scan (LXR answers from its packed RC table at
    /// 32 granules per load), which is what makes the allocator's hole
    /// search on recycled blocks cheap.
    fn next_free_line_run(
        &self,
        first_line: Line,
        from: usize,
        lines_per_block: usize,
    ) -> Option<(usize, usize)> {
        let base = first_line.index();
        let mut i = from;
        while i < lines_per_block {
            if self.line_is_free(Line::from_index(base + i)) {
                let mut end = i + 1;
                while end < lines_per_block && self.line_is_free(Line::from_index(base + end)) {
                    end += 1;
                }
                return Some((i, end));
            }
            i += 1;
        }
        None
    }
}

/// Errors returned by [`ImmixAllocator::alloc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// The request exceeds the large-object threshold and must be served by
    /// the [`crate::LargeObjectSpace`].
    TooLarge,
    /// No clean or recycled blocks are available; the caller should trigger
    /// a collection and retry.
    OutOfMemory,
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::TooLarge => write!(f, "allocation exceeds the large object threshold"),
            AllocError::OutOfMemory => write!(f, "no free or recycled blocks available"),
        }
    }
}

impl std::error::Error for AllocError {}

/// Statistics kept by each thread-local allocator.
#[derive(Debug, Default, Clone, Copy)]
pub struct AllocatorStats {
    /// Clean blocks acquired.
    pub clean_blocks_acquired: usize,
    /// Recycled blocks acquired.
    pub recycled_blocks_acquired: usize,
    /// Words allocated: the folded regions plus progress into the current one.
    pub words_allocated: usize,
    /// Number of allocations served from the overflow block.
    pub overflow_allocations: usize,
}

/// A thread-local Immix allocator: bump pointer, line recycling, dynamic
/// overflow.
///
/// # Example
///
/// ```
/// use lxr_heap::{HeapConfig, HeapSpace, BlockAllocator, ImmixAllocator, LineOccupancy, Line};
/// use std::sync::Arc;
/// struct AllFree;
/// impl LineOccupancy for AllFree {
///     fn line_is_free(&self, _line: Line) -> bool { true }
/// }
/// let space = Arc::new(HeapSpace::new(HeapConfig::with_heap_size(1 << 20)));
/// let blocks = Arc::new(BlockAllocator::new(space.clone()));
/// let mut alloc = ImmixAllocator::new(space, blocks, Arc::new(AllFree));
/// let a = alloc.alloc(4).unwrap();
/// let b = alloc.alloc(4).unwrap();
/// assert_eq!(b.word_index(), a.word_index() + 4); // contiguous bump allocation
/// ```
pub struct ImmixAllocator {
    space: Arc<HeapSpace>,
    blocks: Arc<BlockAllocator>,
    occupancy: Arc<dyn LineOccupancy>,
    geometry: HeapGeometry,
    large_object_words: usize,

    /// The bump region is `[region_start, limit)`; `cursor − region_start`
    /// words of it are allocated but not yet folded into the space's volume.
    region_start: Address,
    cursor: Address,
    limit: Address,

    /// Recycled block currently being scavenged for free-line runs.
    recycled_block: Option<Block>,
    /// Next line (offset within the recycled block) to consider.
    recycled_line_offset: usize,

    /// Overflow block for medium objects (dynamic overflow, §3.1).
    overflow_cursor: Address,
    overflow_limit: Address,

    /// When `true`, memory is zeroed immediately before allocation into it.
    zero_on_alloc: bool,
    /// When `false`, the allocator never draws from the recycled-block
    /// queue (generational plans restrict *mutator* allocation to fresh
    /// blocks so young objects never share a block with old ones, while
    /// their GC-side promotion allocators may reuse partial mature blocks).
    use_recycled: bool,

    stats: AllocatorStats,
}

impl std::fmt::Debug for ImmixAllocator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ImmixAllocator")
            .field("cursor", &self.cursor)
            .field("limit", &self.limit)
            .field("recycled_block", &self.recycled_block)
            .finish_non_exhaustive()
    }
}

impl ImmixAllocator {
    /// Creates an allocator bound to the given heap, global block lists and
    /// line-occupancy oracle.
    pub fn new(
        space: Arc<HeapSpace>,
        blocks: Arc<BlockAllocator>,
        occupancy: Arc<dyn LineOccupancy>,
    ) -> Self {
        let geometry = space.geometry();
        let large_object_words = space.config().large_object_words();
        ImmixAllocator {
            space,
            blocks,
            occupancy,
            geometry,
            large_object_words,
            region_start: Address::NULL,
            cursor: Address::NULL,
            limit: Address::NULL,
            recycled_block: None,
            recycled_line_offset: 0,
            overflow_cursor: Address::NULL,
            overflow_limit: Address::NULL,
            zero_on_alloc: true,
            use_recycled: true,
            stats: AllocatorStats::default(),
        }
    }

    /// Disables zeroing at allocation time (for runtimes that zero at object
    /// initialisation instead, §3.1).
    pub fn set_zero_on_alloc(&mut self, zero: bool) {
        self.zero_on_alloc = zero;
    }

    /// Enables or disables drawing from the recycled (partially free)
    /// block queue.
    pub fn set_use_recycled(&mut self, use_recycled: bool) {
        self.use_recycled = use_recycled;
    }

    /// The allocator's statistics since it was created.
    pub fn stats(&self) -> AllocatorStats {
        let unfolded = self.cursor.diff(self.region_start);
        AllocatorStats { words_allocated: self.stats.words_allocated + unfolded, ..self.stats }
    }

    /// Allocates `size_words` words (rounded up to the 16-byte object
    /// granule), returning the address of the first word.
    ///
    /// # Errors
    ///
    /// * [`AllocError::TooLarge`] if the request must go to the large object
    ///   space.
    /// * [`AllocError::OutOfMemory`] if no clean or recycled blocks are
    ///   available; the caller should trigger a collection and retry.
    pub fn alloc(&mut self, size_words: usize) -> Result<Address, AllocError> {
        if let Some(lxr_failpoints::Action::FailAlloc) = lxr_failpoints::failpoint_act!("heap.alloc") {
            return Err(AllocError::OutOfMemory);
        }
        let size = size_words.max(MIN_OBJECT_WORDS).next_multiple_of(MIN_OBJECT_WORDS);
        if size >= self.large_object_words {
            return Err(AllocError::TooLarge);
        }
        // Fast path: bump within the current region (a null region fits nothing).
        if self.cursor.plus(size) <= self.limit {
            return Ok(self.bump(size));
        }
        // Dynamic overflow: a medium object (> one line) that does not fit
        // the current free-line run goes to the overflow block so the
        // remaining free lines are not wasted.
        if size > self.geometry.words_per_line() && self.limit > self.cursor {
            return self.alloc_overflow(size);
        }
        self.alloc_slow(size)
    }

    #[inline]
    fn bump(&mut self, size: usize) -> Address {
        let result = self.cursor;
        self.cursor = self.cursor.plus(size);
        result
    }

    /// Adds `words` to the space's allocation volume and this allocator's
    /// own tally: the one shared write of allocation accounting.
    fn note_allocated(&mut self, words: usize) {
        self.space.note_allocation(words);
        self.stats.words_allocated += words;
    }

    /// Points the bump pointer at `[start, end)`, folding the words bumped
    /// out of the region it leaves.
    fn set_region(&mut self, start: Address, end: Address) {
        self.note_allocated(self.cursor.diff(self.region_start));
        (self.region_start, self.cursor, self.limit) = (start, start, end);
    }

    fn alloc_overflow(&mut self, size: usize) -> Result<Address, AllocError> {
        if self.overflow_cursor.is_null() || self.overflow_cursor.plus(size) > self.overflow_limit {
            let block = self.blocks.acquire_clean_block().ok_or(AllocError::OutOfMemory)?;
            self.stats.clean_blocks_acquired += 1;
            if self.zero_on_alloc {
                self.space.zero_block(block);
            }
            self.overflow_cursor = self.geometry.block_start(block);
            self.overflow_limit = self.geometry.block_end(block);
        }
        let result = self.overflow_cursor;
        self.overflow_cursor = self.overflow_cursor.plus(size);
        self.note_allocated(size);
        self.stats.overflow_allocations += 1;
        Ok(result)
    }

    fn alloc_slow(&mut self, size: usize) -> Result<Address, AllocError> {
        loop {
            // 1. Keep scavenging the current recycled block for free-line runs.
            if let Some(block) = self.recycled_block {
                if let Some((start, end)) = self.next_free_run(block) {
                    self.install_region(start, end);
                    if self.cursor.plus(size) <= self.limit {
                        return Ok(self.bump(size));
                    }
                    // Run too small for this object; try the next run (the
                    // object may still fit a later, larger run).
                    continue;
                }
                self.recycled_block = None;
            }
            // 2. Prefer another recycled block (partially free blocks first,
            //    §3.1) before taking a clean block.
            if self.use_recycled {
                if let Some(block) = self.blocks.acquire_recycled_block() {
                    self.stats.recycled_blocks_acquired += 1;
                    self.recycled_block = Some(block);
                    self.recycled_line_offset = 0;
                    continue;
                }
            }
            // 3. Fall back to a clean block.
            if let Some(block) = self.blocks.acquire_clean_block() {
                self.stats.clean_blocks_acquired += 1;
                if self.zero_on_alloc {
                    self.space.zero_block(block);
                }
                self.set_region(self.geometry.block_start(block), self.geometry.block_end(block));
                return Ok(self.bump(size));
            }
            return Err(AllocError::OutOfMemory);
        }
    }

    /// Finds the next run of available lines in `block`, starting from the
    /// allocator's per-block search offset.  A line is available when the
    /// occupancy oracle reports it free *and* the preceding line is also
    /// free (the conservative straddling rule of §3.1); the first line of a
    /// block has no predecessor and only needs to be free itself.
    ///
    /// The oracle hands back *maximal* free runs (found word-at-a-time for
    /// metadata-backed oracles), so the conservative rule reduces to
    /// trimming the first line of any run that does not start the block:
    /// that line's predecessor is the occupied line that terminated the
    /// previous run.  The search resumes one past each run's end, which
    /// keeps the predecessor invariant for subsequent calls.
    fn next_free_run(&mut self, block: Block) -> Option<(Address, Address)> {
        let lines_per_block = self.geometry.lines_per_block();
        let first_line = self.geometry.first_line_of(block);
        let mut from = self.recycled_line_offset;
        while from < lines_per_block {
            let Some((start, end)) = self.occupancy.next_free_line_run(first_line, from, lines_per_block)
            else {
                break;
            };
            self.recycled_line_offset = end + 1;
            let usable = if start == 0 { 0 } else { start + 1 };
            if usable < end {
                let s = self.geometry.line_start(Line::from_index(first_line.index() + usable));
                let e = self.geometry.line_end(Line::from_index(first_line.index() + end - 1));
                return Some((s, e));
            }
            from = end + 1;
        }
        self.recycled_line_offset = lines_per_block;
        None
    }

    fn install_region(&mut self, start: Address, end: Address) {
        // A recycled free-line run re-enters service here: advance the
        // lines' reuse epochs so captured references into their previous
        // lives (stale decrements, logged slots, gray entries) are provably
        // stale before new objects can appear at the same granules.
        self.space.bump_reuse_range(start, end.diff(start));
        if self.zero_on_alloc {
            self.space.zero_range(start, end.diff(start));
        }
        self.set_region(start, end);
    }

    /// Retires the allocator's current regions.  Called at each collection so
    /// the collector sees a consistent heap; the allocator will fetch fresh
    /// blocks on its next allocation.
    pub fn retire(&mut self) {
        self.set_region(Address::NULL, Address::NULL);
        self.recycled_block = None;
        self.recycled_line_offset = 0;
        self.overflow_cursor = Address::NULL;
        self.overflow_limit = Address::NULL;
    }
}

impl Drop for ImmixAllocator {
    /// A copy allocator dropped unretired still accounts for its last region.
    fn drop(&mut self) {
        self.set_region(Address::NULL, Address::NULL);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockState, HeapConfig};
    use std::collections::HashSet;
    use std::sync::Mutex;

    struct AllFree;
    impl LineOccupancy for AllFree {
        fn line_is_free(&self, _line: Line) -> bool {
            true
        }
    }

    /// Occupancy oracle backed by an explicit set of occupied line indices.
    struct SetOccupancy(Mutex<HashSet<usize>>);
    impl LineOccupancy for SetOccupancy {
        fn line_is_free(&self, line: Line) -> bool {
            !self.0.lock().unwrap().contains(&line.index())
        }
    }

    fn setup(heap_bytes: usize) -> (Arc<HeapSpace>, Arc<BlockAllocator>) {
        let space = Arc::new(HeapSpace::new(HeapConfig::with_heap_size(heap_bytes)));
        let blocks = Arc::new(BlockAllocator::new(space.clone()));
        (space, blocks)
    }

    #[test]
    fn bump_allocation_is_contiguous_and_aligned() {
        let (space, blocks) = setup(1 << 20);
        let mut a = ImmixAllocator::new(space, blocks, Arc::new(AllFree));
        let x = a.alloc(3).unwrap(); // rounds to 4
        let y = a.alloc(2).unwrap();
        let z = a.alloc(1).unwrap(); // rounds to 2
        assert_eq!(y.word_index(), x.word_index() + 4);
        assert_eq!(z.word_index(), y.word_index() + 2);
        assert!(x.is_aligned(MIN_OBJECT_WORDS));
    }

    #[test]
    fn large_requests_are_redirected() {
        let (space, blocks) = setup(1 << 20);
        let mut a = ImmixAllocator::new(space, blocks, Arc::new(AllFree));
        assert_eq!(a.alloc(2048), Err(AllocError::TooLarge));
    }

    #[test]
    fn exhaustion_reports_out_of_memory() {
        let (space, blocks) = setup(256 * 1024); // 8 usable blocks
        let mut a = ImmixAllocator::new(space, blocks, Arc::new(AllFree));
        let mut count = 0usize;
        loop {
            match a.alloc(512) {
                Ok(_) => count += 1,
                Err(AllocError::OutOfMemory) => break,
                Err(e) => panic!("unexpected error {e:?}"),
            }
        }
        // 8 blocks * 4096 words / 512 words per object = 64 objects.
        assert_eq!(count, 64);
    }

    #[test]
    fn allocation_stays_within_acquired_blocks() {
        let (space, blocks) = setup(1 << 20);
        let geometry = space.geometry();
        let mut a = ImmixAllocator::new(space.clone(), blocks, Arc::new(AllFree));
        let mut seen_blocks = HashSet::new();
        for _ in 0..2000 {
            let addr = a.alloc(8).unwrap();
            seen_blocks.insert(geometry.block_of(addr).index());
        }
        for b in &seen_blocks {
            assert_ne!(*b, 0, "never allocates into the reserved block");
            assert_eq!(space.block_states().get(Block::from_index(*b)), BlockState::Young);
        }
    }

    #[test]
    fn recycled_blocks_are_preferred_and_skip_occupied_lines() {
        let (space, blocks) = setup(1 << 20);
        let geometry = space.geometry();
        // Mark lines 0..4 and line 6 of the recycled block as occupied.
        let occ = Arc::new(SetOccupancy(Mutex::new(HashSet::new())));
        let recycled = blocks.acquire_clean_block().unwrap();
        let first_line = geometry.first_line_of(recycled).index();
        {
            let mut set = occ.0.lock().unwrap();
            for i in 0..4 {
                set.insert(first_line + i);
            }
            set.insert(first_line + 6);
        }
        blocks.release_recycled_block(recycled);

        let mut a = ImmixAllocator::new(space, blocks.clone(), occ);
        let addr = a.alloc(4).unwrap();
        assert_eq!(a.stats().recycled_blocks_acquired, 1, "recycled block preferred over clean");
        // Line 4 follows occupied line 3, so it is conservatively skipped;
        // the first available line is line 5.
        let expected = geometry.line_start(Line::from_index(first_line + 5));
        assert_eq!(addr, expected);
        // The next free run starts at line 8 (line 7 follows occupied line 6).
        let mut last = addr;
        loop {
            let next = a.alloc(4).unwrap();
            if next.word_index() != last.word_index() + 4 {
                assert_eq!(next, geometry.line_start(Line::from_index(first_line + 8)));
                break;
            }
            last = next;
        }
    }

    #[test]
    fn dynamic_overflow_keeps_filling_partial_lines() {
        let (space, blocks) = setup(1 << 20);
        let geometry = space.geometry();
        // A recycled block with only one free line available (line 1 free,
        // everything else occupied).
        let occ = Arc::new(SetOccupancy(Mutex::new(HashSet::new())));
        let recycled = blocks.acquire_clean_block().unwrap();
        let first_line = geometry.first_line_of(recycled).index();
        {
            let mut set = occ.0.lock().unwrap();
            // Occupy every line except 0 and 1 (line 0 free so line 1 usable).
            for i in 2..geometry.lines_per_block() {
                set.insert(first_line + i);
            }
        }
        blocks.release_recycled_block(recycled);
        let mut a = ImmixAllocator::new(space, blocks, occ);
        // First allocation lands in the free run (lines 0-1, 64 words).
        let small = a.alloc(8).unwrap();
        assert_eq!(geometry.block_of(small), recycled);
        // A medium object (> 1 line = 32 words) no longer fits the remaining
        // 56 words of the run, so it goes to the overflow block rather than
        // wasting the run.
        let medium = a.alloc(60).unwrap();
        assert_ne!(geometry.block_of(medium), recycled);
        assert_eq!(a.stats().overflow_allocations, 1);
        // Small allocations continue in the original run.
        let small2 = a.alloc(8).unwrap();
        assert_eq!(geometry.block_of(small2), recycled);
        assert_eq!(small2.word_index(), small.word_index() + 8);
    }

    #[test]
    fn recycled_line_installation_advances_reuse_epochs() {
        let (space, blocks) = setup(1 << 20);
        let geometry = space.geometry();
        // Lines 0..2 free, line 2 occupied, rest free: the first install
        // takes lines 0..2 only.
        let occ = Arc::new(SetOccupancy(Mutex::new(HashSet::new())));
        let recycled = blocks.acquire_clean_block().unwrap();
        let first_line = geometry.first_line_of(recycled).index();
        occ.0.lock().unwrap().insert(first_line + 2);
        blocks.release_recycled_block(recycled);

        let mut a = ImmixAllocator::new(space.clone(), blocks, occ);
        let addr = a.alloc(4).unwrap();
        assert_eq!(geometry.block_of(addr), recycled);
        let line0 = geometry.line_start(Line::from_index(first_line));
        assert_eq!(space.reuse_epoch(line0), 1, "installed line epoch advanced");
        assert_eq!(space.reuse_epoch(line0.plus(geometry.words_per_line())), 1);
        assert_eq!(
            space.reuse_epoch(line0.plus(2 * geometry.words_per_line())),
            0,
            "the occupied line's epoch is untouched — captures into it stay valid"
        );
    }

    #[test]
    fn zeroing_happens_before_allocation() {
        let (space, blocks) = setup(1 << 20);
        // Dirty a block, release it, then allocate from it again.
        let b = blocks.acquire_clean_block().unwrap();
        let start = space.geometry().block_start(b);
        for i in 0..128 {
            space.store(start.plus(i), 0xff);
        }
        blocks.release_free_block(b);
        let mut a = ImmixAllocator::new(space.clone(), blocks, Arc::new(AllFree));
        // Allocate until we land on that block.
        for _ in 0..space.usable_blocks() {
            let addr = a.alloc(16).unwrap();
            if space.geometry().block_of(addr) == b {
                assert_eq!(space.load(addr), 0, "memory is zeroed before reuse");
                return;
            }
            a.retire();
        }
        panic!("never re-allocated the dirtied block");
    }

    #[test]
    fn retire_forces_fresh_region() {
        let (space, blocks) = setup(1 << 20);
        let mut a = ImmixAllocator::new(space.clone(), blocks, Arc::new(AllFree));
        let x = a.alloc(4).unwrap();
        assert_eq!(space.allocated_words(), 0, "bumping writes nothing shared");
        a.retire();
        assert_eq!(space.allocated_words(), 4, "retiring folds the region");
        let y = a.alloc(4).unwrap();
        assert_ne!(y.word_index(), x.word_index() + 4, "retire abandons the current region");
        drop(a);
        assert_eq!(space.allocated_words(), 8, "so does dropping the allocator");
    }

    #[test]
    fn stats_accumulate_as_a_view_of_the_unfolded_region() {
        let (space, blocks) = setup(1 << 20);
        let mut a = ImmixAllocator::new(space.clone(), blocks, Arc::new(AllFree));
        a.alloc(4).unwrap();
        a.alloc(6).unwrap();
        let s = a.stats();
        assert_eq!(s.words_allocated, 4 + 6);
        assert_eq!(s.clean_blocks_acquired, 1);
        assert_eq!(space.allocated_words(), 0);
        a.retire();
        assert_eq!(a.stats().words_allocated, 4 + 6, "folding moves the words, it does not recount them");
    }
}
