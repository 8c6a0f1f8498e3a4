//! The managed heap arena.
//!
//! [`HeapSpace`] owns the memory every collector in the workspace manages: a
//! contiguous array of 8-byte cells accessed atomically, plus the shared
//! structural metadata ([`BlockStateTable`], the per-line
//! [`ReuseEpochTable`]) that the heap layer itself maintains.  All
//! higher-level metadata (reference counts, mark bits, unlogged bits) is
//! owned by the collectors.

use crate::{Address, Block, BlockStateTable, ChunkMap, HeapConfig, HeapGeometry, Line, ReuseEpochTable};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The shared, word-addressed heap arena.
///
/// Cells are [`AtomicU64`]s so that mutator threads, stop-the-world GC
/// workers and concurrent GC threads may access the heap without data races;
/// plain loads/stores use relaxed ordering (the algorithms impose ordering
/// through their own synchronisation), while reference-field updates and
/// forwarding-pointer installation use the atomic read-modify-write
/// operations.
///
/// # Example
///
/// ```
/// use lxr_heap::{HeapConfig, HeapSpace, Address};
/// let space = HeapSpace::new(HeapConfig::with_heap_size(1 << 20));
/// let a = Address::from_word_index(4096); // first word of block 1
/// space.store(a, 42);
/// assert_eq!(space.load(a), 42);
/// ```
#[derive(Debug)]
pub struct HeapSpace {
    words: Box<[AtomicU64]>,
    config: HeapConfig,
    geometry: HeapGeometry,
    block_states: BlockStateTable,
    /// Per-line reuse epochs, stamped into captured references and
    /// validated at their application sites (see [`crate::epoch`]).
    reuse_epochs: ReuseEpochTable,
    /// The chunked page resource: which chunks of the reservation are
    /// currently mapped (see [`crate::pageresource`]).
    chunk_map: ChunkMap,
    /// Words allocated since the space was created (monotonic).
    allocated_words: AllocatedWords,
}

/// The allocation-volume counter on cache lines of its own: allocators fold
/// into it (see [`HeapSpace::note_allocation`]), and a fold must not
/// invalidate the line holding `words`/`geometry` that every heap access
/// reads.
#[derive(Debug, Default)]
#[repr(align(128))]
struct AllocatedWords(AtomicUsize);

impl HeapSpace {
    /// Allocates a zeroed arena for `config`.
    pub fn new(config: HeapConfig) -> Self {
        let geometry = HeapGeometry::new(&config);
        let words = (0..geometry.num_words()).map(|_| AtomicU64::new(0)).collect();
        let block_states = BlockStateTable::new(geometry.num_blocks());
        let reuse_epochs = ReuseEpochTable::new(&geometry);
        let chunk_map = ChunkMap::new(&config, geometry);
        HeapSpace {
            words,
            config,
            geometry,
            block_states,
            reuse_epochs,
            chunk_map,
            allocated_words: AllocatedWords::default(),
        }
    }

    /// The configuration this space was created with.
    pub fn config(&self) -> &HeapConfig {
        &self.config
    }

    /// The geometry (block/line arithmetic) of this space.
    pub fn geometry(&self) -> HeapGeometry {
        self.geometry
    }

    /// The per-block state table.
    pub fn block_states(&self) -> &BlockStateTable {
        &self.block_states
    }

    /// The per-line reuse-epoch table (§3.3.2; see [`crate::epoch`] for the
    /// stamp/validate protocol).
    pub fn reuse_epochs(&self) -> &ReuseEpochTable {
        &self.reuse_epochs
    }

    /// The reuse epoch of the line containing `addr` — the value captured
    /// references are stamped with and validated against.
    #[inline]
    pub fn reuse_epoch(&self, addr: Address) -> u8 {
        self.reuse_epochs.get(addr)
    }

    /// The chunked page resource tracking which parts of the reservation
    /// are mapped (the whole heap for a fixed-extent configuration).
    pub fn chunk_map(&self) -> &ChunkMap {
        &self.chunk_map
    }

    /// Unmaps `chunk` with the simulated `madvise(DONTNEED)` side effects:
    /// the chunk's words are zeroed (so a later remap observes fresh
    /// faulted-in memory) and its lines' reuse epochs advanced (so every
    /// reference captured into the chunk's previous life is provably stale
    /// at its validation site — the epochs are deliberately *not* reset on
    /// remap, since zeroing them could resurrect stale stamps as current).
    /// Returns `true` if this call released the chunk.
    pub fn release_chunk(&self, chunk: usize) -> bool {
        if !self.chunk_map.release_chunk(chunk) {
            return false;
        }
        let start = self.geometry.chunk_start(chunk);
        let words = self.geometry.chunk_words(chunk);
        self.zero_range(start, words);
        self.reuse_epochs.bump_range(start, words);
        true
    }

    /// Number of usable blocks (excludes the reserved block 0).
    pub fn usable_blocks(&self) -> usize {
        self.geometry.num_blocks() - 1
    }

    /// Total usable heap capacity in words.
    pub fn capacity_words(&self) -> usize {
        self.usable_blocks() * self.geometry.words_per_block()
    }

    /// Cumulative words handed out by allocators (monotonic; used for
    /// allocation-volume statistics and triggers).  Bump allocators report
    /// a region at a time, so between safepoints the value trails each live
    /// [`ImmixAllocator`](crate::ImmixAllocator) by less than one region.
    pub fn allocated_words(&self) -> usize {
        self.allocated_words.0.load(Ordering::Relaxed)
    }

    /// Records that `words` words have been handed out.
    pub fn note_allocation(&self, words: usize) {
        self.allocated_words.0.fetch_add(words, Ordering::Relaxed);
    }

    /// Loads the cell at `addr`.
    #[inline]
    pub fn load(&self, addr: Address) -> u64 {
        self.words[addr.word_index()].load(Ordering::Relaxed)
    }

    /// Loads the cell at `addr` with acquire ordering.
    #[inline]
    pub fn load_acquire(&self, addr: Address) -> u64 {
        self.words[addr.word_index()].load(Ordering::Acquire)
    }

    /// Stores `value` into the cell at `addr`.
    #[inline]
    pub fn store(&self, addr: Address, value: u64) {
        self.words[addr.word_index()].store(value, Ordering::Relaxed);
    }

    /// Stores `value` into the cell at `addr` with release ordering.
    #[inline]
    pub fn store_release(&self, addr: Address, value: u64) {
        self.words[addr.word_index()].store(value, Ordering::Release);
    }

    /// Atomically compare-and-exchanges the cell at `addr`.
    #[inline]
    pub fn compare_exchange(&self, addr: Address, current: u64, new: u64) -> Result<u64, u64> {
        self.words[addr.word_index()].compare_exchange(current, new, Ordering::AcqRel, Ordering::Acquire)
    }

    /// Atomically swaps the cell at `addr`, returning the previous value.
    #[inline]
    pub fn swap(&self, addr: Address, value: u64) -> u64 {
        self.words[addr.word_index()].swap(value, Ordering::AcqRel)
    }

    /// Zeroes the word range `[start, start + words)`.
    ///
    /// LXR zeroes free blocks in bulk and free lines immediately before
    /// allocating into them (§3.1).
    pub fn zero_range(&self, start: Address, words: usize) {
        for i in 0..words {
            self.words[start.word_index() + i].store(0, Ordering::Relaxed);
        }
    }

    /// Zeroes an entire block.
    pub fn zero_block(&self, block: Block) {
        self.zero_range(self.geometry.block_start(block), self.geometry.words_per_block());
    }

    /// Returns `true` if `addr` lies within the usable heap.
    #[inline]
    pub fn contains(&self, addr: Address) -> bool {
        self.geometry.contains(addr)
    }

    /// Advances the reuse epoch of every line in `block` (called when the
    /// block is released, so captured references stamped with the old epoch
    /// — decrements, logged slots, gray entries, remembered-set slots — are
    /// provably stale and discarded at their application sites).
    pub fn bump_block_reuse(&self, block: Block) {
        self.reuse_epochs.bump_range(self.geometry.block_start(block), self.geometry.words_per_block());
    }

    /// Advances the reuse epoch of a single line.
    pub fn bump_line_reuse(&self, line: Line) {
        self.reuse_epochs.bump_range(self.geometry.line_start(line), self.geometry.words_per_line());
    }

    /// Advances the reuse epoch of every line covering
    /// `[start, start + words)` (used by allocators when a recycled
    /// free-line run re-enters service).
    pub fn bump_reuse_range(&self, start: Address, words: usize) {
        self.reuse_epochs.bump_range(start, words);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn space() -> HeapSpace {
        HeapSpace::new(HeapConfig::with_heap_size(1 << 20))
    }

    #[test]
    fn capacity_excludes_reserved_block() {
        let s = space();
        assert_eq!(s.usable_blocks(), 32);
        assert_eq!(s.capacity_words(), 32 * 4096);
    }

    #[test]
    fn load_store_round_trip() {
        let s = space();
        let a = Address::from_word_index(5000);
        s.store(a, 0xdead_beef);
        assert_eq!(s.load(a), 0xdead_beef);
        assert_eq!(s.load(a.plus(1)), 0);
    }

    #[test]
    fn compare_exchange_and_swap() {
        let s = space();
        let a = Address::from_word_index(4096);
        assert_eq!(s.compare_exchange(a, 0, 7), Ok(0));
        assert_eq!(s.compare_exchange(a, 0, 9), Err(7));
        assert_eq!(s.swap(a, 11), 7);
        assert_eq!(s.load(a), 11);
    }

    #[test]
    fn zeroing_ranges_and_blocks() {
        let s = space();
        let g = s.geometry();
        let b = Block::from_index(2);
        let start = g.block_start(b);
        for i in 0..g.words_per_block() {
            s.store(start.plus(i), 1);
        }
        s.zero_block(b);
        assert!((0..g.words_per_block()).all(|i| s.load(start.plus(i)) == 0));
    }

    #[test]
    fn allocation_accounting_is_cumulative() {
        let s = space();
        s.note_allocation(10);
        s.note_allocation(22);
        assert_eq!(s.allocated_words(), 32);
    }

    #[test]
    fn reuse_epochs_bump_per_line_and_per_block() {
        let s = space();
        let g = s.geometry();
        let b = Block::from_index(1);
        let first = g.first_line_of(b);
        s.bump_line_reuse(first);
        assert_eq!(s.reuse_epoch(g.line_start(first)), 1);
        s.bump_block_reuse(b);
        assert_eq!(s.reuse_epoch(g.line_start(first)), 2);
        for line in g.lines_of(b).skip(1) {
            assert_eq!(s.reuse_epoch(g.line_start(line)), 1);
        }
        // A range bump covers exactly the lines it names.
        let run = g.line_start(g.first_line_of(Block::from_index(2)));
        s.bump_reuse_range(run, 2 * g.words_per_line());
        assert_eq!(s.reuse_epoch(run), 1);
        assert_eq!(s.reuse_epoch(run.plus(g.words_per_line())), 1);
        assert_eq!(s.reuse_epoch(run.plus(2 * g.words_per_line())), 0);
    }

    #[test]
    fn release_chunk_zeroes_words_and_bumps_epochs() {
        let config = HeapConfig::default().with_heap_range(1 << 20, 4 << 20);
        let s = HeapSpace::new(config);
        let g = s.geometry();
        let chunk = s.chunk_map().map_next_unmapped().unwrap();
        let start = g.chunk_start(chunk);
        s.store(start.plus(7), 99);
        let epoch_before = s.reuse_epoch(start);
        assert!(s.release_chunk(chunk));
        assert_eq!(s.load(start.plus(7)), 0, "released memory reads as freshly faulted");
        assert_eq!(s.reuse_epoch(start), epoch_before.wrapping_add(1), "stale stamps are invalidated");
        assert!(!s.release_chunk(chunk), "second release is a no-op without side effects");
        // Fixed-extent heaps never release below the floor via the allocator
        // policy, but the space-level primitive still refuses chunk 0.
        assert!(!s.release_chunk(0));
    }

    #[test]
    fn stamps_captured_before_an_unmap_are_stale_after_the_remap() {
        // The reuse-epoch invariant across the chunk lifecycle: a reference
        // captured while a chunk is mapped must not validate against memory
        // the chunk holds in a *later* life.  Unmap bumps the epochs and
        // remap deliberately leaves them alone — resetting them to zero
        // would resurrect pre-release stamps as current.
        let config = HeapConfig::default().with_heap_range(1 << 20, 4 << 20);
        let s = HeapSpace::new(config);
        let g = s.geometry();
        let chunk = s.chunk_map().map_next_unmapped().unwrap();
        let line = g.chunk_start(chunk);

        // First life: capture a stamp, as a barrier buffering a decrement
        // or logged slot against this line would.
        let stamp = s.reuse_epoch(line);

        // The chunk goes cold and is released, then demand maps it back in.
        assert!(s.release_chunk(chunk));
        assert!(s.chunk_map().map_chunk(chunk));

        // Second life: the old stamp is provably stale at every validation
        // site (epoch_now != stamp), while a freshly captured one validates.
        assert_ne!(s.reuse_epoch(line), stamp, "remap must not resurrect pre-release stamps");
        let fresh = s.reuse_epoch(line);
        assert_eq!(s.reuse_epoch(line), fresh, "post-remap captures validate normally");

        // A full unmap/remap cycle per life keeps the stamps of successive
        // lives distinct too (wrapping after 256 lives is bounded by the
        // capture lifetime, as for any other epoch consumer).
        assert!(s.release_chunk(chunk));
        assert!(s.chunk_map().map_chunk(chunk));
        assert_ne!(s.reuse_epoch(line), fresh);
        assert_eq!(s.reuse_epoch(line), stamp.wrapping_add(2));
    }

    #[test]
    fn concurrent_stores_to_distinct_cells() {
        let s = Arc::new(space());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        let a = Address::from_word_index(4096 + t * 1000 + i);
                        s.store(a, (t * 1000 + i) as u64);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for t in 0..4usize {
            for i in 0..1000usize {
                assert_eq!(s.load(Address::from_word_index(4096 + t * 1000 + i)), (t * 1000 + i) as u64);
            }
        }
    }
}
