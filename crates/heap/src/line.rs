//! Lines: the fine unit of the Immix heap hierarchy.
//!
//! Lines (256 B) are the granularity of reclamation within a block: an
//! allocator may skip over live lines and reuse free ones.  Per-line state
//! lives in side metadata keyed by address: the reuse epochs that guard
//! against stale remembered-set entries (§3.3.2) are a
//! [`crate::ReuseEpochTable`], and the tracing baselines keep their line
//! marks in a [`crate::SideMetadata`].

use std::fmt;

/// A line index within the heap (global, not per-block).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Line(usize);

impl Line {
    /// Creates a line handle from its global index.
    #[inline]
    pub const fn from_index(index: usize) -> Self {
        Line(index)
    }

    /// The global index of this line.
    #[inline]
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Debug for Line {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Line({})", self.0)
    }
}
