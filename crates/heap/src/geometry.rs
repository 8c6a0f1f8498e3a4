//! Block/line arithmetic over word-indexed addresses.
//!
//! A [`HeapGeometry`] captures the structural parameters of a heap (block
//! and line sizes) in a small copyable value so that address arithmetic can
//! be performed anywhere without carrying the full [`crate::HeapConfig`].

use crate::config::BLOCKS_PER_CHUNK;
use crate::{Address, Block, HeapConfig, Line};

const LOG_BLOCKS_PER_CHUNK: u32 = BLOCKS_PER_CHUNK.trailing_zeros();

/// The structural geometry of a heap: how words map to lines and blocks.
///
/// All sizes are powers of two, so conversions are shifts and masks.
///
/// # Example
///
/// ```
/// use lxr_heap::{HeapConfig, HeapGeometry, Address};
/// let geom = HeapGeometry::new(&HeapConfig::default());
/// let addr = Address::from_word_index(4096 * 3 + 70);
/// assert_eq!(geom.block_of(addr).index(), 3);
/// assert_eq!(geom.line_of(addr).index(), 3 * 128 + 2);
/// assert_eq!(geom.block_start(geom.block_of(addr)).word_index(), 3 * 4096);
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct HeapGeometry {
    log_words_per_block: u32,
    log_words_per_line: u32,
    num_blocks: usize,
}

impl HeapGeometry {
    /// Derives the geometry from a heap configuration.
    pub fn new(config: &HeapConfig) -> Self {
        let words_per_block = config.words_per_block();
        let words_per_line = config.words_per_line();
        assert!(words_per_block.is_power_of_two());
        assert!(words_per_line.is_power_of_two());
        HeapGeometry {
            log_words_per_block: words_per_block.trailing_zeros(),
            log_words_per_line: words_per_line.trailing_zeros(),
            num_blocks: config.num_blocks(),
        }
    }

    /// Number of words per block.
    #[inline]
    pub fn words_per_block(&self) -> usize {
        1 << self.log_words_per_block
    }

    /// Number of words per line.
    #[inline]
    pub fn words_per_line(&self) -> usize {
        1 << self.log_words_per_line
    }

    /// Number of lines per block.
    #[inline]
    pub fn lines_per_block(&self) -> usize {
        1 << (self.log_words_per_block - self.log_words_per_line)
    }

    /// Total number of blocks in the heap (including the reserved block 0).
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// Total number of lines in the heap.
    #[inline]
    pub fn num_lines(&self) -> usize {
        self.num_blocks * self.lines_per_block()
    }

    /// Total number of words in the heap.
    #[inline]
    pub fn num_words(&self) -> usize {
        self.num_blocks * self.words_per_block()
    }

    /// The block containing `addr`.
    #[inline]
    pub fn block_of(&self, addr: Address) -> Block {
        Block::from_index(addr.word_index() >> self.log_words_per_block)
    }

    /// The line containing `addr`.
    #[inline]
    pub fn line_of(&self, addr: Address) -> Line {
        Line::from_index(addr.word_index() >> self.log_words_per_line)
    }

    /// The first word of `block`.
    #[inline]
    pub fn block_start(&self, block: Block) -> Address {
        Address::from_word_index(block.index() << self.log_words_per_block)
    }

    /// One past the last word of `block`.
    #[inline]
    pub fn block_end(&self, block: Block) -> Address {
        self.block_start(block).plus(self.words_per_block())
    }

    /// The first word of `line`.
    #[inline]
    pub fn line_start(&self, line: Line) -> Address {
        Address::from_word_index(line.index() << self.log_words_per_line)
    }

    /// One past the last word of `line`.
    #[inline]
    pub fn line_end(&self, line: Line) -> Address {
        self.line_start(line).plus(self.words_per_line())
    }

    /// The first line of `block`.
    #[inline]
    pub fn first_line_of(&self, block: Block) -> Line {
        self.line_of(self.block_start(block))
    }

    /// Iterates over the lines of `block`.
    pub fn lines_of(&self, block: Block) -> impl Iterator<Item = Line> {
        let first = self.first_line_of(block).index();
        (first..first + self.lines_per_block()).map(Line::from_index)
    }

    /// The block that owns `line`.
    #[inline]
    pub fn block_of_line(&self, line: Line) -> Block {
        self.block_of(self.line_start(line))
    }

    /// Returns `true` if `addr` lies inside the usable heap (excludes the
    /// reserved block 0 and anything past the end).
    #[inline]
    pub fn contains(&self, addr: Address) -> bool {
        let idx = addr.word_index();
        idx >= self.words_per_block() && idx < self.num_words()
    }

    // ---- chunk arithmetic (the mapping/release granule) --------------------

    /// Number of blocks per chunk.
    #[inline]
    pub fn blocks_per_chunk(&self) -> usize {
        BLOCKS_PER_CHUNK
    }

    /// Number of chunks covering the heap (the last one may be partial).
    #[inline]
    pub fn num_chunks(&self) -> usize {
        self.num_blocks.div_ceil(self.blocks_per_chunk())
    }

    /// The chunk that owns `block`.
    #[inline]
    pub fn chunk_of_block(&self, block: Block) -> usize {
        block.index() >> LOG_BLOCKS_PER_CHUNK
    }

    /// The chunk containing `addr`.
    #[inline]
    pub fn chunk_of(&self, addr: Address) -> usize {
        addr.word_index() >> (self.log_words_per_block + LOG_BLOCKS_PER_CHUNK)
    }

    /// The block indices of `chunk`, clamped to the heap extent for the
    /// (possibly partial) final chunk.
    #[inline]
    pub fn chunk_blocks(&self, chunk: usize) -> std::ops::Range<usize> {
        let first = chunk << LOG_BLOCKS_PER_CHUNK;
        first..(first + self.blocks_per_chunk()).min(self.num_blocks)
    }

    /// The first word of `chunk`.
    #[inline]
    pub fn chunk_start(&self, chunk: usize) -> Address {
        Address::from_word_index(chunk << (self.log_words_per_block + LOG_BLOCKS_PER_CHUNK))
    }

    /// Number of words in `chunk` (smaller for a partial final chunk).
    #[inline]
    pub fn chunk_words(&self, chunk: usize) -> usize {
        self.chunk_blocks(chunk).len() << self.log_words_per_block
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> HeapGeometry {
        HeapGeometry::new(&HeapConfig::with_heap_size(4 << 20))
    }

    #[test]
    fn default_geometry_sizes() {
        let g = geom();
        assert_eq!(g.words_per_block(), 4096);
        assert_eq!(g.words_per_line(), 32);
        assert_eq!(g.lines_per_block(), 128);
        assert_eq!(g.num_blocks(), 129); // 128 usable + reserved block 0
    }

    #[test]
    fn block_and_line_of_address() {
        let g = geom();
        let a = Address::from_word_index(2 * 4096 + 33);
        assert_eq!(g.block_of(a).index(), 2);
        assert_eq!(g.line_of(a).index(), 2 * 128 + 1);
        assert_eq!(g.block_of_line(g.line_of(a)).index(), 2);
    }

    #[test]
    fn block_bounds_are_inclusive_exclusive() {
        let g = geom();
        let b = Block::from_index(5);
        assert_eq!(g.block_start(b).word_index(), 5 * 4096);
        assert_eq!(g.block_end(b).word_index(), 6 * 4096);
        assert_eq!(g.block_of(g.block_start(b)), b);
        assert_eq!(g.block_of(g.block_end(b).minus(1)), b);
    }

    #[test]
    fn lines_of_block_cover_it_exactly() {
        let g = geom();
        let b = Block::from_index(3);
        let lines: Vec<Line> = g.lines_of(b).collect();
        assert_eq!(lines.len(), 128);
        assert_eq!(g.line_start(lines[0]), g.block_start(b));
        assert_eq!(g.line_end(*lines.last().unwrap()), g.block_end(b));
        for l in &lines {
            assert_eq!(g.block_of_line(*l), b);
        }
    }

    #[test]
    fn contains_excludes_reserved_block_and_out_of_range() {
        let g = geom();
        assert!(!g.contains(Address::NULL));
        assert!(!g.contains(Address::from_word_index(10))); // block 0 reserved
        assert!(g.contains(Address::from_word_index(4096)));
        assert!(!g.contains(Address::from_word_index(g.num_words())));
    }

    #[test]
    fn chunk_arithmetic_covers_the_heap_exactly() {
        let g = geom(); // 129 blocks, 8 blocks per chunk
        assert_eq!(g.blocks_per_chunk(), 8);
        assert_eq!(g.num_chunks(), 17);
        assert_eq!(g.chunk_blocks(0), 0..8);
        assert_eq!(g.chunk_blocks(16), 128..129, "final chunk is partial");
        assert_eq!(g.chunk_words(0), 8 * 4096);
        assert_eq!(g.chunk_words(16), 4096);
        let covered: usize = (0..g.num_chunks()).map(|c| g.chunk_blocks(c).len()).sum();
        assert_eq!(covered, g.num_blocks());
        assert_eq!(g.chunk_of_block(Block::from_index(7)), 0);
        assert_eq!(g.chunk_of_block(Block::from_index(8)), 1);
        assert_eq!(g.chunk_of(g.chunk_start(3)), 3);
        assert_eq!(g.chunk_of(g.chunk_start(3).minus(1)), 2);
    }

    #[test]
    fn non_default_block_size() {
        let g = HeapGeometry::new(&HeapConfig::with_heap_size(4 << 20).with_block_bytes(64 * 1024));
        assert_eq!(g.words_per_block(), 8192);
        assert_eq!(g.lines_per_block(), 256);
    }
}
