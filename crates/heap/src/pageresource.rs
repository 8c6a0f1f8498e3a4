//! The chunked page resource: lazy mapping and cold release of heap chunks.
//!
//! Production heaps breathe with their workload; a fixed-extent reservation
//! cannot.  This module models mmtk-core's chunk map / block page resource
//! on top of the simulated arena: the address space is carved into *chunks*
//! of [`crate::HeapGeometry::blocks_per_chunk`] blocks, and each chunk is
//! either **mapped** (its blocks may hold objects) or **unmapped** (its
//! blocks are invisible to the allocator and its memory notionally returned
//! to the OS).
//!
//! Under the shim constraint the arena's backing `Box<[AtomicU64]>` stays
//! allocated for the space's lifetime — a real `munmap` would turn the
//! benign stale reads the reuse-epoch protocol already tolerates into
//! undefined behaviour.  "Unmapping" is therefore simulated the way
//! `madvise(DONTNEED)` behaves: the chunk's words are zeroed at release
//! (the next mapping observes fresh zeroed memory, exactly like a faulted-in
//! page) and its lines' reuse epochs are advanced so every reference
//! captured into the chunk's previous life is provably stale.  The footprint
//! metric — what the harness plots over time — is the mapped-chunk count.
//!
//! The [`ChunkMap`] itself is only the state table plus instrumentation;
//! the policy (grow when the central free list runs dry, release chunks
//! that stay fully free across consecutive pauses) lives in
//! [`crate::BlockAllocator`], and the simulated unmap side effects live in
//! [`crate::HeapSpace::release_chunk`].

use crate::{Block, HeapConfig, HeapGeometry};
use std::sync::atomic::{AtomicU32, AtomicU8, AtomicUsize, Ordering};

/// A chunk is unmapped: its blocks are not available for allocation.
const UNMAPPED: u8 = 0;
/// A chunk is mapped: its blocks belong to the allocatable heap.
const MAPPED: u8 = 1;

/// Per-chunk mapped/unmapped states plus grow/shrink instrumentation.
///
/// # Example
///
/// ```
/// use lxr_heap::{ChunkMap, HeapConfig, HeapGeometry};
/// let config = HeapConfig::default().with_heap_range(1 << 20, 4 << 20);
/// let map = ChunkMap::new(&config, HeapGeometry::new(&config));
/// assert!(map.is_mapped(0)); // chunk 0 (reserved block 0) is always mapped
/// assert_eq!(map.mapped_chunks(), config.min_chunks());
/// assert!(map.map_next_unmapped().is_some());
/// assert_eq!(map.mapped_chunks(), config.min_chunks() + 1);
/// ```
#[derive(Debug)]
pub struct ChunkMap {
    geometry: HeapGeometry,
    /// One state byte per chunk ([`UNMAPPED`]/[`MAPPED`]).
    states: Box<[AtomicU8]>,
    /// Consecutive release-eligible observations per chunk (the shrink
    /// hysteresis counter; see [`note_idle`](Self::note_idle)).
    idle: Box<[AtomicU32]>,
    /// Floor on the mapped-chunk count (covers the configured minimum heap
    /// plus the reserved block 0).
    min_chunks: usize,
    /// Current number of mapped chunks.
    mapped: AtomicUsize,
    /// Monotonic count of chunk-map events (never decremented; the
    /// controller folds deltas into `WorkCounter::ChunksMapped`).
    mapped_events: AtomicUsize,
    /// Monotonic count of chunk-release events.
    released_events: AtomicUsize,
}

impl ChunkMap {
    /// Builds the map with the first [`HeapConfig::min_chunks`] chunks
    /// mapped and the rest (if the config is elastic) unmapped.
    pub fn new(config: &HeapConfig, geometry: HeapGeometry) -> Self {
        let num_chunks = geometry.num_chunks();
        let min_chunks = config.min_chunks();
        let states: Box<[AtomicU8]> =
            (0..num_chunks).map(|c| AtomicU8::new(if c < min_chunks { MAPPED } else { UNMAPPED })).collect();
        let idle = (0..num_chunks).map(|_| AtomicU32::new(0)).collect();
        ChunkMap {
            geometry,
            states,
            idle,
            min_chunks,
            mapped: AtomicUsize::new(min_chunks),
            mapped_events: AtomicUsize::new(0),
            released_events: AtomicUsize::new(0),
        }
    }

    /// Total number of chunks in the reservation.
    pub fn num_chunks(&self) -> usize {
        self.states.len()
    }

    /// The mapped-chunk floor (the configured minimum heap).
    pub fn min_chunks(&self) -> usize {
        self.min_chunks
    }

    /// Current number of mapped chunks — the heap's footprint metric.
    pub fn mapped_chunks(&self) -> usize {
        self.mapped.load(Ordering::Relaxed)
    }

    /// Returns `true` if `chunk` is currently mapped.
    #[inline]
    pub fn is_mapped(&self, chunk: usize) -> bool {
        self.states[chunk].load(Ordering::Acquire) == MAPPED
    }

    /// Returns `true` if the chunk owning `block` is mapped.
    #[inline]
    pub fn block_is_mapped(&self, block: Block) -> bool {
        self.is_mapped(self.geometry.chunk_of_block(block))
    }

    /// Monotonic count of chunk-map events since construction.
    pub fn mapped_events(&self) -> usize {
        self.mapped_events.load(Ordering::Relaxed)
    }

    /// Monotonic count of chunk-release events since construction.
    pub fn released_events(&self) -> usize {
        self.released_events.load(Ordering::Relaxed)
    }

    /// Number of usable blocks in unmapped chunks — capacity the heap can
    /// still grow into before hitting `--heap-max`.
    pub fn growable_blocks(&self) -> usize {
        (0..self.num_chunks())
            .filter(|&c| !self.is_mapped(c))
            .map(|c| self.geometry.chunk_blocks(c).len())
            .sum()
    }

    /// Maps `chunk` if it is unmapped; returns `true` if this call mapped
    /// it.  Exactly one of any set of racing callers wins the transition.
    pub fn map_chunk(&self, chunk: usize) -> bool {
        lxr_failpoints::failpoint!("heap.chunk-map");
        if self.states[chunk].compare_exchange(UNMAPPED, MAPPED, Ordering::AcqRel, Ordering::Acquire).is_err()
        {
            return false;
        }
        self.idle[chunk].store(0, Ordering::Relaxed);
        self.mapped.fetch_add(1, Ordering::Relaxed);
        self.mapped_events.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Maps the lowest-indexed unmapped chunk, returning its index.
    ///
    /// The scan covers the *whole* reservation, not just the chunks above
    /// the floor index: the shrink policy guards the floor by mapped
    /// *count*, so a release epilogue may unmap a low-indexed chunk while
    /// pinned high chunks keep the count at the minimum — capacity that
    /// must remain reachable to growth or the heap under-reports itself
    /// into a spurious out-of-memory.
    pub fn map_next_unmapped(&self) -> Option<usize> {
        (1..self.num_chunks()).find(|&chunk| !self.is_mapped(chunk) && self.map_chunk(chunk))
    }

    /// Unmaps `chunk`; returns `true` if this call released it.  Chunk 0
    /// (holding the reserved block 0) is never released; the mapped-count
    /// floor is the caller's responsibility because only the caller knows
    /// which chunks are fully free.
    pub fn release_chunk(&self, chunk: usize) -> bool {
        lxr_failpoints::failpoint!("heap.chunk-release");
        if chunk == 0 {
            return false;
        }
        if self.states[chunk].compare_exchange(MAPPED, UNMAPPED, Ordering::AcqRel, Ordering::Acquire).is_err()
        {
            return false;
        }
        self.idle[chunk].store(0, Ordering::Relaxed);
        self.mapped.fetch_sub(1, Ordering::Relaxed);
        self.released_events.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Advances `chunk`'s idle counter (one release-eligible observation —
    /// the chunk was fully free at a pause epilogue) and returns the new
    /// count.  The shrink policy releases only after several consecutive
    /// observations, so a chunk that momentarily drains between bursts is
    /// not bounced across the mapping boundary.
    pub fn note_idle(&self, chunk: usize) -> u32 {
        self.idle[chunk].fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Resets `chunk`'s idle counter (it held live or outstanding blocks at
    /// this observation).
    pub fn reset_idle(&self, chunk: usize) {
        self.idle[chunk].store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(min_mb: usize, max_mb: usize) -> ChunkMap {
        let config = HeapConfig::default().with_heap_range(min_mb << 20, max_mb << 20);
        ChunkMap::new(&config, HeapGeometry::new(&config))
    }

    #[test]
    fn fixed_extent_heaps_start_fully_mapped() {
        let config = HeapConfig::with_heap_size(4 << 20);
        let m = ChunkMap::new(&config, HeapGeometry::new(&config));
        assert_eq!(m.mapped_chunks(), m.num_chunks());
        assert_eq!(m.growable_blocks(), 0);
        assert!(m.map_next_unmapped().is_none());
    }

    #[test]
    fn elastic_heaps_grow_chunk_by_chunk() {
        let m = map(1, 4);
        let floor = m.min_chunks();
        assert_eq!(m.mapped_chunks(), floor);
        assert!(m.growable_blocks() > 0);
        let first = m.map_next_unmapped().unwrap();
        assert_eq!(first, floor, "growth proceeds from the lowest unmapped chunk");
        assert_eq!(m.mapped_chunks(), floor + 1);
        assert_eq!(m.mapped_events(), 1);
        // Exhaust the reservation.
        while m.map_next_unmapped().is_some() {}
        assert_eq!(m.mapped_chunks(), m.num_chunks());
        assert_eq!(m.growable_blocks(), 0);
    }

    #[test]
    fn release_is_exclusive_and_never_touches_chunk_zero() {
        let m = map(1, 4);
        let chunk = m.map_next_unmapped().unwrap();
        assert!(m.release_chunk(chunk));
        assert!(!m.release_chunk(chunk), "second release loses the race");
        assert!(!m.is_mapped(chunk));
        assert_eq!(m.released_events(), 1);
        assert!(!m.release_chunk(0), "chunk 0 holds the reserved block");
        assert!(m.is_mapped(0));
    }

    #[test]
    fn idle_counters_accumulate_and_reset() {
        let m = map(1, 4);
        let chunk = m.map_next_unmapped().unwrap();
        assert_eq!(m.note_idle(chunk), 1);
        assert_eq!(m.note_idle(chunk), 2);
        m.reset_idle(chunk);
        assert_eq!(m.note_idle(chunk), 1);
        // Remapping also resets the counter.
        m.release_chunk(chunk);
        m.map_chunk(chunk);
        assert_eq!(m.note_idle(chunk), 1);
    }

    #[test]
    fn growth_finds_unmapped_chunks_below_the_floor_index() {
        // The floor is a mapped *count*, not an index range: a shrink
        // epilogue may release a low-indexed chunk while pinned high chunks
        // hold the count at the minimum.  Growth must find it again.
        let m = map(1, 4);
        assert!(m.min_chunks() > 3, "the scenario needs a floor above chunk 2");
        assert!(m.release_chunk(2));
        assert_eq!(m.map_next_unmapped(), Some(2), "released floor-range chunks stay growable");
    }

    #[test]
    fn block_mapping_follows_the_owning_chunk() {
        let m = map(1, 4);
        let chunk = m.map_next_unmapped().unwrap();
        let block = Block::from_index(chunk * 8);
        assert!(m.block_is_mapped(block));
        m.release_chunk(chunk);
        assert!(!m.block_is_mapped(block));
        assert!(m.block_is_mapped(Block::from_index(1)));
    }
}
