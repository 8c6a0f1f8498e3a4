//! The global block allocator.
//!
//! Mutator scalability in LXR comes from lock-free issue of clean and
//! recycled blocks to thread-local allocators (§3.5).  The paper's design is
//! a small, bounded, lock-free buffer of clean blocks (32 entries by
//! default, explored up to 128 in the sensitivity analysis) refilled from a
//! central free-block manager, plus an unbounded lock-free queue of recycled
//! (partially free) blocks produced by sweeping.
//!
//! The allocator alone owns recycled-queue membership, and records it in
//! the block-state table: a block is on the queue exactly while its state
//! is [`BlockState::Reusable`].  [`BlockAllocator::release_recycled_block`]
//! moves a block into that state (and refuses one already in it), and
//! [`BlockAllocator::acquire_recycled_block`] moves it out, so collectors
//! ask the state table instead of keeping a membership set of their own.
//!
//! The central manager also serves contiguous multi-block requests for the
//! [`crate::LargeObjectSpace`].
//!
//! Under an elastic configuration ([`crate::HeapConfig::with_heap_range`])
//! the central manager holds only the blocks of *mapped* chunks.  When it
//! runs dry the allocator grows the heap one chunk at a time (under the
//! central lock, which is what makes a chunk release racing an allocation
//! degrade cleanly: the loser simply maps the next chunk), and the pause
//! epilogue calls [`BlockAllocator::release_cold_chunks`] to unmap chunks
//! whose blocks all sat free across consecutive pauses.

use crate::{Block, BlockState, HeapSpace};
use crossbeam::queue::{ArrayQueue, SegQueue};
use parking_lot::{Mutex, MutexGuard};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Global clean/recycled block lists shared by all thread-local allocators.
///
/// # Example
///
/// ```
/// use lxr_heap::{BlockAllocator, HeapConfig, HeapSpace};
/// use std::sync::Arc;
/// let space = Arc::new(HeapSpace::new(HeapConfig::with_heap_size(1 << 20)));
/// let blocks = BlockAllocator::new(space);
/// let b = blocks.acquire_clean_block().unwrap();
/// assert!(b.index() >= 1); // block 0 is reserved
/// blocks.release_free_block(b);
/// ```
#[derive(Debug)]
pub struct BlockAllocator {
    space: Arc<HeapSpace>,
    /// Bounded lock-free buffer of clean blocks (the paper's "lock-free
    /// global block allocation buffer").
    clean_buffer: ArrayQueue<Block>,
    /// Unbounded lock-free queue of recycled (partially free) blocks.
    recycled: SegQueue<Block>,
    /// Central manager of free blocks, used to refill the clean buffer and
    /// to serve contiguous requests.
    central: Mutex<BTreeSet<usize>>,
    /// Times the central lock has been taken (contention instrumentation:
    /// the batch APIs exist so sweeps take it once per batch, and the tests
    /// assert that through this counter).
    central_locks: AtomicUsize,
    /// Number of free (clean) blocks across the buffer and central manager.
    free_blocks: AtomicUsize,
    /// Number of blocks in the recycled queue.
    recycled_blocks: AtomicUsize,
    /// Monotonic count of *whole-block* release events (free or
    /// contiguous): the reclamation-progress signal the allocation retry
    /// loop watches — an advance between two failed attempts proves
    /// collection is still producing memory, a stall proves a genuine
    /// out-of-memory state.  Recycled-queue traffic deliberately does not
    /// count: failing allocators drain the queue and every pause re-queues
    /// the same partially free blocks, which would read as eternal
    /// "progress" on a heap whose live set simply does not fit.
    release_generation: AtomicUsize,
    total_usable: usize,
}

impl BlockAllocator {
    /// Creates the allocator with every usable block of every *mapped*
    /// chunk free (for a fixed-extent heap that is all blocks 1..num_blocks;
    /// an elastic heap starts at its configured minimum and grows on
    /// demand).
    pub fn new(space: Arc<HeapSpace>) -> Self {
        let geometry = space.geometry();
        let config = space.config().clone();
        let total_usable = geometry.num_blocks() - 1;
        let central: BTreeSet<usize> = (1..geometry.num_blocks())
            .filter(|&idx| space.chunk_map().block_is_mapped(Block::from_index(idx)))
            .collect();
        let initially_free = central.len();
        BlockAllocator {
            space,
            clean_buffer: ArrayQueue::new(config.block_buffer_entries),
            recycled: SegQueue::new(),
            central: Mutex::new(central),
            central_locks: AtomicUsize::new(0),
            free_blocks: AtomicUsize::new(initially_free),
            recycled_blocks: AtomicUsize::new(0),
            release_generation: AtomicUsize::new(0),
            total_usable,
        }
    }

    /// Takes the central lock, counting the acquisition.  Every central
    /// access goes through here so [`central_lock_count`] is exact.
    ///
    /// [`central_lock_count`]: Self::central_lock_count
    fn lock_central(&self) -> MutexGuard<'_, BTreeSet<usize>> {
        self.central_locks.fetch_add(1, Ordering::Relaxed);
        self.central.lock()
    }

    /// Number of times the central free-block lock has been acquired since
    /// construction (contention instrumentation for tests and profiling).
    pub fn central_lock_count(&self) -> usize {
        self.central_locks.load(Ordering::Relaxed)
    }

    /// Total number of usable blocks managed by this allocator.
    pub fn total_blocks(&self) -> usize {
        self.total_usable
    }

    /// Number of clean (fully free) blocks currently available.
    pub fn free_block_count(&self) -> usize {
        self.free_blocks.load(Ordering::Relaxed)
    }

    /// Number of recycled (partially free) blocks currently queued.
    pub fn recycled_block_count(&self) -> usize {
        self.recycled_blocks.load(Ordering::Relaxed)
    }

    /// Number of usable blocks sitting in unmapped chunks — capacity the
    /// allocator can still grow into before the reservation is exhausted.
    pub fn growable_blocks(&self) -> usize {
        self.space.chunk_map().growable_blocks()
    }

    /// Number of chunks currently mapped (the heap's footprint metric).
    pub fn mapped_chunks(&self) -> usize {
        self.space.chunk_map().mapped_chunks()
    }

    /// Number of blocks that are neither clean, queued for recycling, nor
    /// unmapped (i.e. fully owned by live data or by allocators).
    pub fn used_block_count(&self) -> usize {
        self.total_usable
            .saturating_sub(self.free_block_count())
            .saturating_sub(self.recycled_block_count())
            .saturating_sub(self.growable_blocks())
    }

    /// Monotonic count of block-release events.  An advance between two
    /// observations means reclamation handed memory back in the interval.
    pub fn release_generation(&self) -> usize {
        self.release_generation.load(Ordering::Acquire)
    }

    /// Acquires one clean block, refilling the lock-free buffer from the
    /// central manager when it runs dry.  Returns `None` when the heap has
    /// no clean blocks left.
    ///
    /// The returned block's state is set to [`BlockState::Young`]: a clean
    /// block handed to an allocator will contain only young objects until
    /// the next collection (§3.3.2, "all young evacuation").
    pub fn acquire_clean_block(&self) -> Option<Block> {
        let block = match self.clean_buffer.pop() {
            Some(b) => b,
            None => {
                let mut central = self.lock_central();
                loop {
                    // Refill a buffer's worth while holding the lock once,
                    // then take one block for ourselves.
                    let take = self.clean_buffer.capacity();
                    let mut filled = 0usize;
                    for _ in 0..take {
                        match central.pop_first() {
                            Some(idx) => {
                                filled += 1;
                                if self.clean_buffer.push(Block::from_index(idx)).is_err() {
                                    central.insert(idx);
                                    break;
                                }
                            }
                            None => break,
                        }
                    }
                    // Central dry: grow the heap by one chunk if the
                    // reservation allows.  Doing this under the central lock
                    // is the race arbiter with a concurrent chunk release —
                    // an allocator that finds the list drained by a release
                    // simply maps the next chunk back in.
                    if filled > 0 || !self.grow_one_chunk_locked(&mut central) {
                        break;
                    }
                }
                drop(central);
                self.clean_buffer.pop()?
            }
        };
        self.free_blocks.fetch_sub(1, Ordering::Relaxed);
        self.space.block_states().set(block, BlockState::Young);
        Some(block)
    }

    /// Maps the next unmapped chunk (if any) and hands its blocks to the
    /// central manager.  Must be called with the central lock held.
    fn grow_one_chunk_locked(&self, central: &mut BTreeSet<usize>) -> bool {
        let Some(chunk) = self.space.chunk_map().map_next_unmapped() else {
            return false;
        };
        let blocks = self.space.geometry().chunk_blocks(chunk);
        let added = blocks.len();
        for idx in blocks {
            central.insert(idx);
        }
        self.free_blocks.fetch_add(added, Ordering::Relaxed);
        true
    }

    /// Acquires one recycled (partially free) block, if any is queued.
    ///
    /// The returned block's state is set to [`BlockState::Recycled`], which
    /// ends its queue membership.
    pub fn acquire_recycled_block(&self) -> Option<Block> {
        let block = self.recycled.pop()?;
        self.recycled_blocks.fetch_sub(1, Ordering::Relaxed);
        self.space.block_states().set(block, BlockState::Recycled);
        Some(block)
    }

    /// Returns a completely free block to the allocator (from sweeping or
    /// evacuation).  Sets its state to [`BlockState::Free`].
    ///
    /// Releasing many blocks at once (a sweep's flush, lazy reclamation)
    /// should use [`release_free_blocks`](Self::release_free_blocks), which
    /// takes the central lock once per batch instead of once per block that
    /// overflows the clean buffer.
    pub fn release_free_block(&self, block: Block) {
        lxr_failpoints::failpoint!("heap.block-release");
        debug_assert!(block.index() != 0, "block 0 is reserved");
        self.space.block_states().set(block, BlockState::Free);
        self.free_blocks.fetch_add(1, Ordering::Relaxed);
        self.release_generation.fetch_add(1, Ordering::AcqRel);
        if self.clean_buffer.push(block).is_err() {
            self.lock_central().insert(block.index());
        }
    }

    /// Batched [`release_free_block`](Self::release_free_block): the
    /// lock-free clean buffer absorbs what it can, and the overflow is
    /// inserted into the central manager under a single lock acquisition.
    pub fn release_free_blocks(&self, blocks: &[Block]) {
        if blocks.is_empty() {
            return;
        }
        lxr_failpoints::failpoint!("heap.block-release");
        let mut overflow: Vec<usize> = Vec::new();
        for &block in blocks {
            debug_assert!(block.index() != 0, "block 0 is reserved");
            self.space.block_states().set(block, BlockState::Free);
            if self.clean_buffer.push(block).is_err() {
                overflow.push(block.index());
            }
        }
        self.free_blocks.fetch_add(blocks.len(), Ordering::Relaxed);
        self.release_generation.fetch_add(blocks.len(), Ordering::AcqRel);
        if !overflow.is_empty() {
            let mut central = self.lock_central();
            for idx in overflow {
                central.insert(idx);
            }
        }
    }

    /// Queues a partially free block for reuse by allocators and sets its
    /// state to [`BlockState::Reusable`].  Returns `false`, queueing
    /// nothing, if the block was already `Reusable` (already queued).
    pub fn release_recycled_block(&self, block: Block) -> bool {
        lxr_failpoints::failpoint!("heap.block-recycle");
        debug_assert!(block.index() != 0, "block 0 is reserved");
        if self.space.block_states().replace(block, BlockState::Reusable) == BlockState::Reusable {
            return false;
        }
        self.recycled_blocks.fetch_add(1, Ordering::Relaxed);
        self.recycled.push(block);
        true
    }

    /// Acquires `count` contiguous blocks (for a large object), returning
    /// the first block of the run.  Contiguous runs are only served from the
    /// central manager, so a heap whose free blocks are all sitting in the
    /// clean buffer may need to spill them back first; this is handled
    /// internally.
    pub fn acquire_contiguous(&self, count: usize) -> Option<Block> {
        assert!(count > 0);
        let mut central = self.lock_central();
        // Pull buffered blocks back into the central set so they are visible
        // to the contiguity search.
        while let Some(b) = self.clean_buffer.pop() {
            central.insert(b.index());
        }
        loop {
            if let Some(start) = Self::find_free_run(&central, count) {
                for i in start..start + count {
                    central.remove(&i);
                }
                drop(central);
                self.free_blocks.fetch_sub(count, Ordering::Relaxed);
                for i in start..start + count {
                    self.space.block_states().set(Block::from_index(i), BlockState::Los);
                }
                return Some(Block::from_index(start));
            }
            // No run yet: newly mapped chunks extend the top of the free
            // set, so growing can both lengthen an existing tail run and
            // eventually satisfy any request the reservation can hold.
            if !self.grow_one_chunk_locked(&mut central) {
                return None;
            }
        }
    }

    /// Finds the first run of `count` consecutive indices in `central`.
    fn find_free_run(central: &BTreeSet<usize>, count: usize) -> Option<usize> {
        let mut run_start = None;
        let mut run_len = 0usize;
        let mut prev: Option<usize> = None;
        for &idx in central.iter() {
            match prev {
                Some(p) if idx == p + 1 => run_len += 1,
                _ => {
                    run_start = Some(idx);
                    run_len = 1;
                }
            }
            prev = Some(idx);
            if run_len == count {
                return run_start;
            }
        }
        None
    }

    /// Releases a contiguous run previously obtained from
    /// [`acquire_contiguous`](Self::acquire_contiguous).
    pub fn release_contiguous(&self, start: Block, count: usize) {
        let mut central = self.lock_central();
        for i in start.index()..start.index() + count {
            self.space.block_states().set(Block::from_index(i), BlockState::Free);
            central.insert(i);
        }
        drop(central);
        // A released LOS run crosses the reuse frontier like any other
        // block: advance its lines' epochs so captured references into the
        // dead large object are provably stale.
        let geometry = self.space.geometry();
        self.space.bump_reuse_range(geometry.block_start(start), count * geometry.words_per_block());
        self.free_blocks.fetch_add(count, Ordering::Relaxed);
        self.release_generation.fetch_add(count, Ordering::AcqRel);
    }

    /// The shrink half of the elastic heap, run at pause epilogues: unmaps
    /// every chunk whose blocks have *all* sat on the central free list for
    /// at least `idle_pauses` consecutive calls (the hysteresis that keeps
    /// a chunk from bouncing across the mapping boundary between bursts).
    /// Returns the number of chunks released.
    ///
    /// Correctness leans on the central lock: a chunk is only released when
    /// every one of its blocks is in the central set at once — a block held
    /// by an allocator, sitting in the recycled queue, or carrying live
    /// data is absent from the set, so partially live chunks are never
    /// touched.  The clean buffer is spilled into the set first so buffered
    /// free blocks do not disqualify their chunk.  Chunks are examined from
    /// the top of the address space down, and never below the configured
    /// minimum (nor chunk 0, which holds the reserved block 0).
    pub fn release_cold_chunks(&self, idle_pauses: u32) -> usize {
        let chunk_map = self.space.chunk_map();
        if chunk_map.min_chunks() == chunk_map.num_chunks() {
            return 0; // fixed-extent heap: nothing to release
        }
        let geometry = self.space.geometry();
        let mut central = self.lock_central();
        while let Some(b) = self.clean_buffer.pop() {
            central.insert(b.index());
        }
        let mut released = 0usize;
        for chunk in (1..geometry.num_chunks()).rev() {
            if chunk_map.mapped_chunks() <= chunk_map.min_chunks() {
                break;
            }
            if !chunk_map.is_mapped(chunk) {
                continue;
            }
            let blocks = geometry.chunk_blocks(chunk);
            if !blocks.clone().all(|idx| central.contains(&idx)) {
                chunk_map.reset_idle(chunk);
                continue;
            }
            if chunk_map.note_idle(chunk) < idle_pauses.max(1) {
                continue;
            }
            let mut removed = 0usize;
            for idx in blocks {
                central.remove(&idx);
                removed += 1;
            }
            self.free_blocks.fetch_sub(removed, Ordering::Relaxed);
            let unmapped = self.space.release_chunk(chunk);
            debug_assert!(unmapped, "the central lock serialises releases");
            released += 1;
        }
        released
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HeapConfig;

    fn allocator(heap_bytes: usize) -> BlockAllocator {
        let space = Arc::new(HeapSpace::new(HeapConfig::with_heap_size(heap_bytes)));
        BlockAllocator::new(space)
    }

    #[test]
    fn all_usable_blocks_start_free() {
        let a = allocator(1 << 20);
        assert_eq!(a.total_blocks(), 32);
        assert_eq!(a.free_block_count(), 32);
        assert_eq!(a.recycled_block_count(), 0);
        assert_eq!(a.used_block_count(), 0);
    }

    #[test]
    fn acquire_release_round_trip() {
        let a = allocator(1 << 20);
        let b = a.acquire_clean_block().unwrap();
        assert_eq!(a.space.block_states().get(b), BlockState::Young);
        assert_eq!(a.free_block_count(), 31);
        a.release_free_block(b);
        assert_eq!(a.free_block_count(), 32);
        assert_eq!(a.space.block_states().get(b), BlockState::Free);
    }

    #[test]
    fn heap_exhaustion_returns_none() {
        let a = allocator(256 * 1024); // 8 usable blocks
        let mut got = Vec::new();
        while let Some(b) = a.acquire_clean_block() {
            got.push(b);
        }
        assert_eq!(got.len(), 8);
        assert_eq!(a.free_block_count(), 0);
        assert!(a.acquire_clean_block().is_none());
        // Blocks are all distinct and never block 0.
        let mut idx: Vec<_> = got.iter().map(|b| b.index()).collect();
        idx.sort_unstable();
        idx.dedup();
        assert_eq!(idx.len(), 8);
        assert!(!idx.contains(&0));
    }

    #[test]
    fn recycled_blocks_cycle_through_queue() {
        let a = allocator(1 << 20);
        let b = a.acquire_clean_block().unwrap();
        assert!(a.acquire_recycled_block().is_none());
        assert!(a.release_recycled_block(b));
        assert_eq!(a.space.block_states().get(b), BlockState::Reusable);
        // Queueing a queued block is refused: it is on the list once.
        assert!(!a.release_recycled_block(b));
        assert_eq!(a.recycled_block_count(), 1);
        let r = a.acquire_recycled_block().unwrap();
        assert_eq!(r, b);
        assert_eq!(a.space.block_states().get(r), BlockState::Recycled);
        assert!(a.acquire_recycled_block().is_none());
        // Once an allocator has taken it, the block can be queued again.
        assert!(a.release_recycled_block(b));
        assert_eq!(a.recycled_block_count(), 1);
        assert_eq!(a.acquire_recycled_block(), Some(b));
    }

    #[test]
    fn contiguous_acquisition_marks_los_blocks() {
        let a = allocator(1 << 20);
        let start = a.acquire_contiguous(4).unwrap();
        for i in 0..4 {
            assert_eq!(a.space.block_states().get(Block::from_index(start.index() + i)), BlockState::Los);
        }
        assert_eq!(a.free_block_count(), 28);
        a.release_contiguous(start, 4);
        assert_eq!(a.free_block_count(), 32);
    }

    #[test]
    fn contiguous_respects_fragmentation() {
        let a = allocator(256 * 1024); // 8 usable blocks
                                       // Take all blocks, then free every other one: no run of 2 exists.
        let blocks: Vec<Block> = std::iter::from_fn(|| a.acquire_clean_block()).collect();
        for (i, b) in blocks.iter().enumerate() {
            if i % 2 == 0 {
                a.release_free_block(*b);
            }
        }
        assert!(a.acquire_contiguous(2).is_none());
        assert!(a.acquire_contiguous(1).is_some());
    }

    #[test]
    fn concurrent_acquisition_yields_distinct_blocks() {
        let a = Arc::new(allocator(4 << 20)); // 128 usable blocks
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let a = Arc::clone(&a);
                std::thread::spawn(move || {
                    let mut mine = Vec::new();
                    for _ in 0..16 {
                        if let Some(b) = a.acquire_clean_block() {
                            mine.push(b.index());
                        }
                    }
                    mine
                })
            })
            .collect();
        let mut all: Vec<usize> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "no block was handed out twice");
        assert_eq!(n, 128);
    }

    #[test]
    fn batched_release_takes_the_central_lock_once() {
        // 128 usable blocks, 32-entry clean buffer: releasing them all back
        // overflows the buffer by 96 blocks.
        let a = allocator(4 << 20);
        let blocks: Vec<Block> = std::iter::from_fn(|| a.acquire_clean_block()).collect();
        assert_eq!(blocks.len(), 128);

        // Per-block release: every buffer-overflowing block takes the
        // central lock on its own.
        let before = a.central_lock_count();
        for &b in &blocks {
            a.release_free_block(b);
        }
        let per_block_locks = a.central_lock_count() - before;
        assert!(
            per_block_locks >= 128 - a.clean_buffer.capacity(),
            "per-block release contends once per overflowing block (got {per_block_locks})"
        );

        // Batched release of the same volume: one lock take for the whole
        // overflow.
        let blocks: Vec<Block> = std::iter::from_fn(|| a.acquire_clean_block()).collect();
        assert_eq!(blocks.len(), 128);
        let before = a.central_lock_count();
        a.release_free_blocks(&blocks);
        let batch_locks = a.central_lock_count() - before;
        assert_eq!(batch_locks, 1, "batched release takes the central lock exactly once");
        assert_eq!(a.free_block_count(), 128);

        // The released blocks are all reusable and distinct.
        let mut again: Vec<usize> =
            std::iter::from_fn(|| a.acquire_clean_block()).map(|b| b.index()).collect();
        let n = again.len();
        again.sort_unstable();
        again.dedup();
        assert_eq!(again.len(), n);
        assert_eq!(n, 128);
    }

    #[test]
    fn used_block_count_tracks_outstanding_blocks() {
        let a = allocator(1 << 20);
        let b1 = a.acquire_clean_block().unwrap();
        let _b2 = a.acquire_clean_block().unwrap();
        assert_eq!(a.used_block_count(), 2);
        a.release_recycled_block(b1);
        assert_eq!(a.used_block_count(), 1);
    }

    fn elastic(min_bytes: usize, max_bytes: usize) -> BlockAllocator {
        let config = HeapConfig::default().with_heap_range(min_bytes, max_bytes);
        BlockAllocator::new(Arc::new(HeapSpace::new(config)))
    }

    #[test]
    fn elastic_allocator_starts_at_the_minimum_and_grows_on_demand() {
        // 1 MB minimum (5 chunks: 39 usable blocks after the reserved one)
        // inside a 4 MB reservation (17 chunks, 128 usable blocks).
        let a = elastic(1 << 20, 4 << 20);
        assert_eq!(a.mapped_chunks(), 5);
        assert_eq!(a.free_block_count(), 39);
        assert_eq!(a.growable_blocks(), 128 - 39);
        assert_eq!(a.used_block_count(), 0);

        // Draining the mapped minimum maps further chunks instead of
        // failing; the whole reservation is eventually allocatable.
        let got: Vec<Block> = std::iter::from_fn(|| a.acquire_clean_block()).collect();
        assert_eq!(got.len(), 128, "the full reservation is reachable through growth");
        assert_eq!(a.mapped_chunks(), 17);
        assert_eq!(a.growable_blocks(), 0);
        assert_eq!(a.space.chunk_map().mapped_events(), 12);
        assert!(a.acquire_clean_block().is_none(), "heap-max is still a hard ceiling");
    }

    #[test]
    fn contiguous_requests_grow_the_heap_when_fragmented_short() {
        let a = elastic(1 << 20, 4 << 20);
        // 39 free blocks are mapped; a 64-block run must grow the heap.
        let start = a.acquire_contiguous(64).unwrap();
        assert!(a.mapped_chunks() > 5);
        for i in 0..64 {
            assert_eq!(a.space.block_states().get(Block::from_index(start.index() + i)), BlockState::Los);
        }
        // A run larger than the reservation still fails cleanly.
        assert!(a.acquire_contiguous(129).is_none());
    }

    #[test]
    fn cold_chunks_release_after_the_idle_hysteresis() {
        let a = elastic(1 << 20, 4 << 20);
        let got: Vec<Block> = std::iter::from_fn(|| a.acquire_clean_block()).collect();
        assert_eq!(a.mapped_chunks(), 17);
        a.release_free_blocks(&got);

        // First epilogue: everything is free but the hysteresis (2 idle
        // pauses) holds the chunks mapped.
        assert_eq!(a.release_cold_chunks(2), 0);
        assert_eq!(a.mapped_chunks(), 17);
        // Second epilogue: the idle counters reach the threshold and the
        // heap shrinks back to its floor.
        let released = a.release_cold_chunks(2);
        assert_eq!(released, 12);
        assert_eq!(a.mapped_chunks(), 5, "shrinks to the configured minimum, never below");
        assert_eq!(a.space.chunk_map().released_events(), 12);
        assert_eq!(a.free_block_count(), 39);

        // The released capacity is re-growable: the heap breathes.
        let again: Vec<Block> = std::iter::from_fn(|| a.acquire_clean_block()).collect();
        assert_eq!(again.len(), 128);
    }

    #[test]
    fn outstanding_blocks_pin_their_chunk() {
        let a = elastic(1 << 20, 4 << 20);
        let got: Vec<Block> = std::iter::from_fn(|| a.acquire_clean_block()).collect();
        // Hold one block of the topmost chunk (block 128 lives in chunk 16);
        // recycle one in a middle chunk (block 60 lives in chunk 7) so it
        // sits outside the central set too.
        let (held, rest): (Vec<Block>, Vec<Block>) = got.into_iter().partition(|b| b.index() == 128);
        assert_eq!(held.len(), 1);
        let recycled = *rest.iter().find(|b| b.index() == 60).unwrap();
        let free: Vec<Block> = rest.into_iter().filter(|b| b.index() != 60).collect();
        a.release_recycled_block(recycled);
        a.release_free_blocks(&free);
        let released = a.release_cold_chunks(1);
        assert!(released > 0);
        assert_eq!(a.mapped_chunks(), 5, "the floor counts pinned chunks too");
        assert!(a.space.chunk_map().is_mapped(16), "a chunk with an outstanding block stays mapped");
        assert!(a.space.chunk_map().is_mapped(7), "a chunk with a recycled block stays mapped");
    }

    #[test]
    fn growth_reaches_chunks_released_below_the_mapped_frontier() {
        // Long-lived data pinning the top of the address space must not
        // strand released low chunks: the shrink policy guards the floor by
        // mapped count, so with enough high chunks pinned it releases
        // *low-indexed* free chunks — which growth must still find, or the
        // heap reports growable capacity it can never map (a spurious OOM).
        let a = elastic(1 << 20, 4 << 20);
        let g = a.space.geometry();
        let got: Vec<Block> = std::iter::from_fn(|| a.acquire_clean_block()).collect();
        assert_eq!(a.mapped_chunks(), 17);
        // Pin one block in every chunk at or above the floor index; free
        // the rest, leaving chunks 1..5 fully free.
        let mut seen = std::collections::BTreeSet::new();
        let (pinned, free): (Vec<Block>, Vec<Block>) =
            got.into_iter().partition(|b| g.chunk_of_block(*b) >= 5 && seen.insert(g.chunk_of_block(*b)));
        assert_eq!(pinned.len(), 12);
        a.release_free_blocks(&free);
        assert!(a.release_cold_chunks(1) > 0);
        for chunk in 1..5 {
            assert!(!a.space.chunk_map().is_mapped(chunk), "low chunk {chunk} was released");
        }
        assert!(a.mapped_chunks() > a.space.chunk_map().min_chunks(), "pinned chunks hold the count up");
        // Every released block — including those below the floor index —
        // is reachable again through growth.
        let regrown = std::iter::from_fn(|| a.acquire_clean_block()).count();
        assert_eq!(regrown + pinned.len(), a.total_blocks());
        assert_eq!(a.growable_blocks(), 0);
    }

    #[test]
    fn fixed_extent_heaps_never_shrink() {
        let a = allocator(1 << 20);
        assert_eq!(a.release_cold_chunks(1), 0);
        assert_eq!(a.release_cold_chunks(1), 0);
        assert_eq!(a.mapped_chunks(), a.space.geometry().num_chunks());
        assert_eq!(a.free_block_count(), 32);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            /// Grow/shrink/re-map churn against a scalar occupancy model:
            /// the model tracks only *how many* blocks are outstanding and
            /// recycled, and the allocator's counters must agree after every
            /// operation while the mapped extent stays inside
            /// `[min_chunks, num_chunks]` and never unmaps under an
            /// outstanding block.
            #[test]
            fn churn_matches_the_scalar_occupancy_model(
                ops in proptest::collection::vec((0u8..5, 0usize..4096), 1..160),
            ) {
                let a = elastic(1 << 20, 4 << 20);
                let min_chunks = a.space.chunk_map().min_chunks();
                let num_chunks = a.space.chunk_map().num_chunks();
                let mut outstanding: Vec<Block> = Vec::new();
                let mut recycled = 0usize;
                for (op, pick) in ops {
                    match op {
                        0 => {
                            if let Some(b) = a.acquire_clean_block() {
                                outstanding.push(b);
                            }
                        }
                        1 => {
                            if let Some(b) = a.acquire_recycled_block() {
                                recycled -= 1;
                                outstanding.push(b);
                            }
                        }
                        2 => {
                            if !outstanding.is_empty() {
                                let b = outstanding.swap_remove(pick % outstanding.len());
                                a.release_free_block(b);
                            }
                        }
                        3 => {
                            if !outstanding.is_empty() {
                                let b = outstanding.swap_remove(pick % outstanding.len());
                                a.release_recycled_block(b);
                                recycled += 1;
                            }
                        }
                        _ => {
                            a.release_cold_chunks(1);
                        }
                    }
                    prop_assert_eq!(a.used_block_count(), outstanding.len());
                    prop_assert_eq!(a.recycled_block_count(), recycled);
                    let mapped = a.mapped_chunks();
                    prop_assert!(
                        (min_chunks..=num_chunks).contains(&mapped),
                        "mapped count {} escaped {}..={}", mapped, min_chunks, num_chunks
                    );
                    for b in &outstanding {
                        prop_assert!(
                            a.space.chunk_map().block_is_mapped(*b),
                            "outstanding block {} sits in an unmapped chunk", b.index()
                        );
                    }
                    prop_assert_eq!(
                        a.free_block_count() + a.recycled_block_count()
                            + a.used_block_count() + a.growable_blocks(),
                        a.total_blocks()
                    );
                }
                // Drain everything and run two idle epilogues: the heap must
                // shrink back to its floor no matter what the churn did.
                while let Some(b) = a.acquire_recycled_block() {
                    outstanding.push(b);
                }
                a.release_free_blocks(&outstanding);
                a.release_cold_chunks(1);
                a.release_cold_chunks(1);
                prop_assert_eq!(a.mapped_chunks(), min_chunks);
                prop_assert_eq!(a.used_block_count(), 0);
                // Re-map churn: the full reservation is reachable again.
                let regrown: Vec<Block> = std::iter::from_fn(|| a.acquire_clean_block()).collect();
                prop_assert_eq!(regrown.len(), a.total_blocks());
                prop_assert_eq!(a.mapped_chunks(), num_chunks);
            }
        }
    }

    #[test]
    fn release_racing_allocation_degrades_to_a_regrow() {
        // Allocators hammering an elastic heap while epilogues release cold
        // chunks: every acquired block must be distinct-at-a-time and the
        // mapped count must respect the floor and ceiling throughout.
        let a = Arc::new(elastic(1 << 20, 4 << 20));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let shrinker = {
            let a = Arc::clone(&a);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    a.release_cold_chunks(1);
                    std::thread::yield_now();
                }
            })
        };
        let allocs: Vec<_> = (0..4)
            .map(|_| {
                let a = Arc::clone(&a);
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        let mut held = Vec::new();
                        for _ in 0..8 {
                            if let Some(b) = a.acquire_clean_block() {
                                assert!(
                                    a.space.chunk_map().block_is_mapped(b),
                                    "an acquired block's chunk is mapped"
                                );
                                held.push(b);
                            }
                        }
                        a.release_free_blocks(&held);
                    }
                })
            })
            .collect();
        for h in allocs {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        shrinker.join().unwrap();
        let mapped = a.mapped_chunks();
        assert!((5..=17).contains(&mapped), "mapped count {mapped} within floor..=ceiling");
    }
}
