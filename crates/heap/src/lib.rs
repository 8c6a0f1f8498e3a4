//! # lxr-heap
//!
//! The Immix heap substrate used by every collector in the `lxr-rs`
//! workspace.
//!
//! The heap is a contiguous, word-addressed arena of 8-byte cells
//! ([`HeapSpace`]), structured hierarchically into 32 KB *blocks* composed of
//! 256 B *lines*, exactly as described in §2.6 and §3.1 of
//! *Low-Latency, High-Throughput Garbage Collection* (PLDI 2022).
//!
//! The crate provides:
//!
//! * [`Address`] / [`HeapGeometry`] — word-indexed addresses and
//!   the block/line arithmetic over them,
//! * [`HeapSpace`] — the shared arena with atomic cell access,
//! * [`SideMetadata`] — densely packed per-granule metadata tables (used for
//!   reference counts, unlogged bits, mark bits, …) with word-at-a-time
//!   (SWAR) bulk scans: zero tests, censuses, sums, wide clears, and
//!   zero-run searches at 32 two-bit entries per loaded word,
//! * [`Block`] / [`Line`] / [`BlockStateTable`] — heap structure
//!   bookkeeping,
//! * [`BlockAllocator`] — the global lock-free clean/recycled block lists
//!   with the bounded clean-block buffer of §3.5,
//! * [`ChunkMap`] — the chunked page resource behind elastic heaps: chunks
//!   of blocks are mapped lazily as allocation demands and released
//!   (madvise-style, simulated) when they stay cold across pauses,
//! * [`ImmixAllocator`] — the thread-local bump-pointer allocator with line
//!   recycling, dynamic overflow for medium objects, and delegation of large
//!   objects to the [`LargeObjectSpace`].
//!
//! # Example
//!
//! ```
//! use lxr_heap::{HeapConfig, HeapSpace, BlockAllocator, ImmixAllocator, LineOccupancy, Line};
//! use std::sync::Arc;
//!
//! /// Treat every line as free (a collector would consult its RC/mark table).
//! struct AllFree;
//! impl LineOccupancy for AllFree {
//!     fn line_is_free(&self, _line: Line) -> bool { true }
//! }
//!
//! let config = HeapConfig::with_heap_size(4 << 20);
//! let space = Arc::new(HeapSpace::new(config.clone()));
//! let blocks = Arc::new(BlockAllocator::new(space.clone()));
//! let mut alloc = ImmixAllocator::new(space.clone(), blocks, Arc::new(AllFree));
//! let addr = alloc.alloc(4).expect("allocation succeeds");
//! assert!(!addr.is_null());
//! ```

// First enforcement beachhead for workspace-wide documentation coverage:
// every public item of the heap substrate must carry rustdoc (CI runs
// `cargo doc` with warnings denied).
#![warn(missing_docs)]

pub mod address;
pub mod allocator;
pub mod block;
pub mod block_alloc;
pub mod config;
pub mod epoch;
pub mod geometry;
pub mod line;
pub mod los;
pub mod pageresource;
pub mod side_metadata;
pub mod space;

pub use address::Address;
pub use allocator::{AllocError, ImmixAllocator, LineOccupancy};
pub use block::{Block, BlockState, BlockStateTable};
pub use block_alloc::BlockAllocator;
pub use config::HeapConfig;
pub use epoch::ReuseEpochTable;
pub use geometry::HeapGeometry;
pub use line::Line;
pub use los::LargeObjectSpace;
pub use pageresource::ChunkMap;
pub use side_metadata::{
    active_backend, available_simd_backends, detect_simd_backend, select_backend, RangeCensus, SideMetadata,
    SimdBackend,
};
pub use space::HeapSpace;

/// Number of bytes in a heap word (the cell size of the arena).
pub const BYTES_IN_WORD: usize = 8;
/// Minimum object size, in words (16 bytes, two words).
pub const MIN_OBJECT_WORDS: usize = 2;
/// The granule used for per-object side metadata (reference counts, mark
/// bits): one entry per [`MIN_OBJECT_WORDS`] words of heap.
pub const GRANULE_WORDS: usize = MIN_OBJECT_WORDS;
