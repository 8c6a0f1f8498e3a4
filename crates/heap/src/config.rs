//! Heap configuration.
//!
//! The paper's sensitivity analysis (§5.4) varies the block size (16/32/64
//! KB), the number of reference-count bits (2/4/8) and the size of the
//! lock-free clean-block buffer (32/64/128 entries), so all of these are
//! runtime-configurable rather than compile-time constants.  The line size
//! and the chunk size are not varied and are constants.

use crate::{BYTES_IN_WORD, GRANULE_WORDS};

/// Line size in bytes (§2.6, §4).
const LINE_BYTES: usize = 256;

/// Number of blocks per chunk, the granule of mapping and release (a power
/// of two: 256 KB chunks at the default 32 KB blocks).
pub(crate) const BLOCKS_PER_CHUNK: usize = 8;

/// Configuration of the managed heap: total size and structural parameters.
///
/// The default configuration matches the paper's default LXR configuration
/// (§4): 32 KB blocks, a 2-bit reference count and a 32-entry lock-free
/// clean-block buffer.  Lines are 256 B and objects of at least half a
/// block go to the large object space.
///
/// # Example
///
/// ```
/// use lxr_heap::HeapConfig;
/// let config = HeapConfig::with_heap_size(64 << 20);
/// assert_eq!(config.block_bytes, 32 * 1024);
/// assert_eq!(config.words_per_block(), 4096);
/// assert_eq!(config.lines_per_block(), 128);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HeapConfig {
    /// Total heap size in bytes (rounded up to a whole number of blocks).
    pub heap_bytes: usize,
    /// Block size in bytes (default 32 KB).
    pub block_bytes: usize,
    /// Number of bits in each reference count (2, 4 or 8; default 2).
    pub rc_bits: u8,
    /// Capacity of the global lock-free clean-block buffer, in blocks
    /// (default 32 entries, roughly 1 MB of clean blocks; the paper's
    /// default "4 MB buffer" corresponds to 128 entries at 32 KB blocks and
    /// is explored in the sensitivity analysis).
    pub block_buffer_entries: usize,
    /// Minimum heap size in bytes for an *elastic* heap: when set, only
    /// enough chunks to cover this many bytes are mapped at construction
    /// and the rest of the reservation (up to `heap_bytes`) is mapped on
    /// demand and released back when cold.  `None` (the default) keeps the
    /// whole heap mapped for its lifetime — the historical fixed-extent
    /// behaviour.
    pub min_heap_bytes: Option<usize>,
}

impl HeapConfig {
    /// Default structural parameters with the given total heap size in bytes.
    pub fn with_heap_size(heap_bytes: usize) -> Self {
        HeapConfig { heap_bytes, ..Default::default() }
    }

    /// Sets the block size in bytes.
    pub fn with_block_bytes(mut self, block_bytes: usize) -> Self {
        assert!(block_bytes.is_power_of_two(), "block size must be a power of two");
        assert!(block_bytes >= 2 * LINE_BYTES, "blocks must hold at least two lines");
        self.block_bytes = block_bytes;
        self
    }

    /// Sets the number of reference-count bits (2, 4 or 8).
    pub fn with_rc_bits(mut self, rc_bits: u8) -> Self {
        assert!(matches!(rc_bits, 2 | 4 | 8), "rc bits must be 2, 4 or 8");
        self.rc_bits = rc_bits;
        self
    }

    /// Sets the capacity of the lock-free clean-block buffer.
    pub fn with_block_buffer_entries(mut self, entries: usize) -> Self {
        assert!(entries > 0, "block buffer must have at least one entry");
        self.block_buffer_entries = entries;
        self
    }

    /// Makes the heap elastic between `min_bytes` and `max_bytes`: chunks
    /// covering `min_bytes` are mapped up front, the remainder is mapped on
    /// demand and released again when cold.
    pub fn with_heap_range(mut self, min_bytes: usize, max_bytes: usize) -> Self {
        assert!(min_bytes <= max_bytes, "heap minimum must not exceed the maximum");
        self.heap_bytes = max_bytes;
        self.min_heap_bytes = Some(min_bytes);
        self
    }

    /// Heap size in words.
    pub fn heap_words(&self) -> usize {
        self.num_blocks() * self.words_per_block()
    }

    /// Number of words per block.
    pub fn words_per_block(&self) -> usize {
        self.block_bytes / BYTES_IN_WORD
    }

    /// Number of words per line.
    pub fn words_per_line(&self) -> usize {
        LINE_BYTES / BYTES_IN_WORD
    }

    /// Number of lines per block.
    pub fn lines_per_block(&self) -> usize {
        self.block_bytes / LINE_BYTES
    }

    /// Number of whole blocks in the heap (the heap size is rounded up).
    pub fn num_blocks(&self) -> usize {
        // Block 0 is reserved so that the null address never aliases an
        // object; add it on top of the requested size.
        self.heap_bytes.div_ceil(self.block_bytes) + 1
    }

    /// Number of chunks covering the heap (the last one may be partial).
    pub fn num_chunks(&self) -> usize {
        self.num_blocks().div_ceil(BLOCKS_PER_CHUNK)
    }

    /// Number of chunks mapped at construction: all of them for a
    /// fixed-extent heap, or just enough to cover `min_heap_bytes` (plus
    /// the reserved block 0) for an elastic one.
    pub fn min_chunks(&self) -> usize {
        match self.min_heap_bytes {
            None => self.num_chunks(),
            Some(min_bytes) => {
                let min_blocks = min_bytes.div_ceil(self.block_bytes) + 1;
                min_blocks.div_ceil(BLOCKS_PER_CHUNK).clamp(1, self.num_chunks())
            }
        }
    }

    /// Number of side-metadata granules in the heap (one per 16 bytes).
    pub fn num_granules(&self) -> usize {
        self.heap_words() / GRANULE_WORDS
    }

    /// The large-object threshold in words: objects of at least half a
    /// block are delegated to the large object space.
    pub fn large_object_words(&self) -> usize {
        self.words_per_block() / 2
    }
}

impl Default for HeapConfig {
    fn default() -> Self {
        HeapConfig {
            heap_bytes: 32 << 20,
            block_bytes: 32 * 1024,
            rc_bits: 2,
            block_buffer_entries: 32,
            min_heap_bytes: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_configuration() {
        let c = HeapConfig::default();
        assert_eq!(c.block_bytes, 32 * 1024);
        assert_eq!(c.rc_bits, 2);
        assert_eq!(c.block_buffer_entries, 32);
        assert_eq!(c.large_object_words(), 16 * 1024 / BYTES_IN_WORD);
        assert_eq!(c.words_per_block(), 4096);
        assert_eq!(c.words_per_line(), 32);
        assert_eq!(c.lines_per_block(), 128);
    }

    #[test]
    fn heap_rounds_up_to_blocks_and_reserves_block_zero() {
        let c = HeapConfig::with_heap_size(100 * 1024); // not a multiple of 32 KB
        assert_eq!(c.num_blocks(), 4 + 1);
        assert_eq!(c.heap_words(), 5 * 4096);
    }

    #[test]
    fn block_size_sensitivity_configurations() {
        for kb in [16usize, 32, 64] {
            let c = HeapConfig::default().with_block_bytes(kb * 1024);
            assert_eq!(c.block_bytes, kb * 1024);
            assert_eq!(c.large_object_words(), kb * 512 / BYTES_IN_WORD);
            assert_eq!(c.lines_per_block(), kb * 4);
        }
    }

    #[test]
    fn rc_bits_sensitivity_configurations() {
        for bits in [2u8, 4, 8] {
            assert_eq!(HeapConfig::default().with_rc_bits(bits).rc_bits, bits);
        }
    }

    #[test]
    #[should_panic]
    fn rejects_non_power_of_two_blocks() {
        let _ = HeapConfig::default().with_block_bytes(40 * 1024);
    }

    #[test]
    #[should_panic]
    fn rejects_invalid_rc_bits() {
        let _ = HeapConfig::default().with_rc_bits(3);
    }

    #[test]
    fn fixed_extent_heaps_map_every_chunk() {
        let c = HeapConfig::with_heap_size(4 << 20); // 129 blocks
        assert_eq!(c.num_chunks(), 17); // 16 full chunks + 1 holding the odd block
        assert_eq!(c.min_chunks(), c.num_chunks());
    }

    #[test]
    fn elastic_heaps_map_only_the_minimum() {
        let c = HeapConfig::default().with_heap_range(1 << 20, 4 << 20);
        assert_eq!(c.heap_bytes, 4 << 20);
        assert_eq!(c.min_heap_bytes, Some(1 << 20));
        // 1 MB = 32 blocks + reserved block 0 = 33 blocks → 5 chunks of 8.
        assert_eq!(c.min_chunks(), 5);
        assert!(c.min_chunks() < c.num_chunks());
        // Degenerate range: min == max still maps everything.
        let tight = HeapConfig::default().with_heap_range(4 << 20, 4 << 20);
        assert_eq!(tight.min_chunks(), tight.num_chunks());
    }

    #[test]
    #[should_panic]
    fn rejects_inverted_heap_range() {
        let _ = HeapConfig::default().with_heap_range(8 << 20, 4 << 20);
    }

    #[test]
    fn granule_count_covers_heap() {
        let c = HeapConfig::with_heap_size(1 << 20);
        assert_eq!(c.num_granules() * GRANULE_WORDS, c.heap_words());
    }
}
