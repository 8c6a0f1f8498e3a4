//! Blocks: the coarse unit of the Immix heap hierarchy.
//!
//! A block (32 KB by default) is the unit of bulk allocation and of global
//! free-list management.  Every block carries a state in the
//! [`BlockStateTable`], which collectors use to drive sweeping, young-object
//! evacuation, and mature defragmentation.

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};

/// A block index within the heap.
///
/// Blocks are numbered from 0; block 0 is permanently reserved (it backs the
/// null address) and is never handed to an allocator.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Block(usize);

impl Block {
    /// Creates a block handle from its index.
    #[inline]
    pub const fn from_index(index: usize) -> Self {
        Block(index)
    }

    /// The index of this block.
    #[inline]
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Debug for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Block({})", self.0)
    }
}

/// The lifecycle state of a block, stored in the [`BlockStateTable`].
///
/// The states mirror the roles blocks play in the paper:
///
/// * `Free` — on the global clean-block list; all lines free.
/// * `Young` — handed out clean to a thread-local allocator since the last
///   RC epoch, so it contains *only* objects allocated this epoch.  These are
///   the targets of the "all young evacuation" heuristic (§3.3.2) and of the
///   young sweep (§3.3.1).
/// * `Reusable` — a mature block with free lines on the recycled-block
///   list, not yet taken by an allocator.  This state *is* the list
///   membership: only the [`BlockAllocator`](crate::BlockAllocator) moves
///   a block into it (when queueing) or out of it (when handing it out).
/// * `Recycled` — a partially-free block handed back to an allocator; it
///   contains a mix of mature survivors and fresh objects.
/// * `Mature` — contains survivors of at least one collection and is not
///   currently being allocated into.
/// * `EvacCandidate` — a mature block selected for an evacuation set ahead
///   of an SATB trace (§3.3.2).
/// * `Los` — part of a large-object allocation (possibly spanning several
///   blocks).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum BlockState {
    /// All lines free; block is available on the global free list.
    Free = 0,
    /// Clean block currently being (or recently) bump-allocated into;
    /// contains only young objects.
    Young = 1,
    /// Partially free block being reused for allocation into its free lines.
    Recycled = 2,
    /// Block holding mature survivors, not currently allocated into.
    Mature = 3,
    /// Mature block chosen for an evacuation set.
    EvacCandidate = 4,
    /// Block (or run of blocks) backing a large object.
    Los = 5,
    /// Mature block with free lines, queued on the recycled-block list.
    Reusable = 6,
}

impl BlockState {
    fn from_u8(v: u8) -> BlockState {
        match v {
            0 => BlockState::Free,
            1 => BlockState::Young,
            2 => BlockState::Recycled,
            3 => BlockState::Mature,
            4 => BlockState::EvacCandidate,
            5 => BlockState::Los,
            6 => BlockState::Reusable,
            _ => unreachable!("invalid block state {v}"),
        }
    }
}

/// A table holding one [`BlockState`] per block, with atomic access.
///
/// # Example
///
/// ```
/// use lxr_heap::{Block, BlockState, BlockStateTable};
/// let table = BlockStateTable::new(8);
/// let b = Block::from_index(3);
/// assert_eq!(table.get(b), BlockState::Free);
/// table.set(b, BlockState::Young);
/// assert_eq!(table.get(b), BlockState::Young);
/// ```
#[derive(Debug)]
pub struct BlockStateTable {
    states: Box<[AtomicU8]>,
}

impl BlockStateTable {
    /// Creates a table for `num_blocks` blocks, all initially [`BlockState::Free`].
    pub fn new(num_blocks: usize) -> Self {
        let states = (0..num_blocks).map(|_| AtomicU8::new(BlockState::Free as u8)).collect();
        BlockStateTable { states }
    }

    /// Number of blocks tracked by the table.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Returns `true` if the table tracks no blocks.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Reads the state of `block`.
    #[inline]
    pub fn get(&self, block: Block) -> BlockState {
        BlockState::from_u8(self.states[block.index()].load(Ordering::Acquire))
    }

    /// Sets the state of `block`.
    #[inline]
    pub fn set(&self, block: Block, state: BlockState) {
        self.states[block.index()].store(state as u8, Ordering::Release);
    }

    /// Sets the state of `block` and returns the state it replaced, in one
    /// atomic swap.
    #[inline]
    pub fn replace(&self, block: Block, state: BlockState) -> BlockState {
        BlockState::from_u8(self.states[block.index()].swap(state as u8, Ordering::AcqRel))
    }

    /// Atomically transitions `block` from `from` to `to`.  Returns `true`
    /// if the transition happened (i.e. the previous state was `from`).
    #[inline]
    pub fn transition(&self, block: Block, from: BlockState, to: BlockState) -> bool {
        self.states[block.index()]
            .compare_exchange(from as u8, to as u8, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Iterates over every block and its current state.
    pub fn iter(&self) -> impl Iterator<Item = (Block, BlockState)> + '_ {
        self.states
            .iter()
            .enumerate()
            .map(|(i, s)| (Block::from_index(i), BlockState::from_u8(s.load(Ordering::Acquire))))
    }

    /// Counts blocks currently in `state`.
    pub fn count(&self, state: BlockState) -> usize {
        self.iter().filter(|(_, s)| *s == state).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_table_is_all_free() {
        let t = BlockStateTable::new(16);
        assert_eq!(t.len(), 16);
        assert_eq!(t.count(BlockState::Free), 16);
    }

    #[test]
    fn set_and_get_round_trip_all_states() {
        let t = BlockStateTable::new(8);
        let states = [
            BlockState::Free,
            BlockState::Young,
            BlockState::Recycled,
            BlockState::Mature,
            BlockState::EvacCandidate,
            BlockState::Los,
            BlockState::Reusable,
        ];
        for (i, s) in states.iter().enumerate() {
            let b = Block::from_index(i);
            t.set(b, *s);
            assert_eq!(t.get(b), *s);
            assert_eq!(t.replace(b, BlockState::Free), *s);
            assert_eq!(t.get(b), BlockState::Free);
        }
    }

    #[test]
    fn transition_requires_expected_state() {
        let t = BlockStateTable::new(4);
        let b = Block::from_index(1);
        assert!(t.transition(b, BlockState::Free, BlockState::Young));
        assert!(!t.transition(b, BlockState::Free, BlockState::Mature));
        assert_eq!(t.get(b), BlockState::Young);
    }

    #[test]
    fn count_reflects_mutations() {
        let t = BlockStateTable::new(10);
        for i in 0..4 {
            t.set(Block::from_index(i), BlockState::Mature);
        }
        assert_eq!(t.count(BlockState::Mature), 4);
        assert_eq!(t.count(BlockState::Free), 6);
    }

    #[test]
    fn iter_visits_every_block_in_order() {
        let t = BlockStateTable::new(5);
        let indices: Vec<usize> = t.iter().map(|(b, _)| b.index()).collect();
        assert_eq!(indices, vec![0, 1, 2, 3, 4]);
    }
}
