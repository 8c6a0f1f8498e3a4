//! The reference-count side table.

use lxr_heap::{Block, HeapGeometry, Line, LineOccupancy, RangeCensus, SideMetadata, GRANULE_WORDS};
use lxr_object::ObjectReference;

/// A one-pass summary of a block's reference counts (§3.3.2): the number of
/// live (non-zero-count) granules and a free-line bitmap, produced by a
/// single word-at-a-time scan of the RC table instead of per-line probing.
#[derive(Debug, Clone)]
pub struct BlockCensus {
    /// Granules in the block with a non-zero count: an upper bound on live
    /// objects and (×16 bytes) on live bytes.
    pub live_granules: usize,
    /// Lines in the block whose counts are all zero.
    pub free_lines: usize,
    /// Lines in the block.
    pub lines_per_block: usize,
    census: RangeCensus,
}

impl BlockCensus {
    /// `true` when every count in the block is zero (whole block reclaimable).
    #[inline]
    pub fn is_free(&self) -> bool {
        self.live_granules == 0
    }

    /// `true` when at least one line is wholly free (block recyclable).
    #[inline]
    pub fn has_free_line(&self) -> bool {
        self.free_lines > 0
    }

    /// `true` if the line at `offset` within the block is wholly free.
    #[inline]
    pub fn line_is_free(&self, offset: usize) -> bool {
        self.census.group_is_zero(offset)
    }

    /// Live granules as a fraction of the block's granules.
    #[inline]
    pub fn occupancy(&self, granules_per_block: usize) -> f64 {
        self.live_granules as f64 / granules_per_block as f64
    }
}

/// The outcome of applying an increment or decrement to an object's count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountChange {
    /// The count before the operation.
    pub old: u8,
    /// The count after the operation.
    pub new: u8,
}

impl CountChange {
    /// `true` when an increment observed a dead (zero-count) object: the
    /// object is young and is being retained for the first time.
    pub fn is_birth(&self) -> bool {
        self.old == 0 && self.new > 0
    }

    /// `true` when a decrement dropped the last reference: the object is now
    /// dead and its children must receive recursive decrements.
    pub fn is_death(&self) -> bool {
        self.old == 1 && self.new == 0
    }
}

/// The packed reference-count table: an *N*-bit saturating counter for every
/// 16-byte granule of heap (§3.2.1).
///
/// Counts saturate at the maximum representable value and become *stuck*;
/// stuck counts receive no further increments or decrements and the objects
/// they describe are reclaimed only by the backup SATB trace.
///
/// # Example
///
/// ```
/// use lxr_heap::{HeapConfig, HeapGeometry};
/// use lxr_rc::RcTable;
/// use lxr_object::ObjectReference;
/// use lxr_heap::Address;
///
/// let config = HeapConfig::with_heap_size(1 << 20);
/// let rc = RcTable::new(&config);
/// let obj = ObjectReference::from_address(Address::from_word_index(4096));
/// assert_eq!(rc.count(obj), 0);
/// let change = rc.increment(obj);
/// assert!(change.is_birth());
/// assert!(rc.is_live(obj));
/// assert!(rc.decrement(obj).is_death());
/// ```
#[derive(Debug)]
pub struct RcTable {
    counts: SideMetadata,
    geometry: HeapGeometry,
    max: u8,
}

impl RcTable {
    /// Creates a zeroed count table for the given heap configuration, using
    /// `config.rc_bits` bits per count.
    pub fn new(config: &lxr_heap::HeapConfig) -> Self {
        let geometry = HeapGeometry::new(config);
        let counts = SideMetadata::new(geometry.num_words(), GRANULE_WORDS, config.rc_bits);
        let max = counts.max_value();
        RcTable { counts, geometry, max }
    }

    /// The saturation ("stuck") value of this table.
    pub fn stuck_value(&self) -> u8 {
        self.max
    }

    /// The geometry used for line and block queries.
    pub fn geometry(&self) -> HeapGeometry {
        self.geometry
    }

    /// The total metadata footprint in bytes.
    pub fn metadata_bytes(&self) -> usize {
        self.counts.size_bytes()
    }

    /// The current count of `obj`.
    #[inline]
    pub fn count(&self, obj: ObjectReference) -> u8 {
        self.counts.load(obj.to_address())
    }

    /// Returns `true` if `obj` has a non-zero count.
    #[inline]
    pub fn is_live(&self, obj: ObjectReference) -> bool {
        self.count(obj) != 0
    }

    /// Returns `true` if the count of `obj` is stuck at the maximum.
    #[inline]
    pub fn is_stuck(&self, obj: ObjectReference) -> bool {
        self.count(obj) == self.max
    }

    /// Applies a saturating increment to `obj`'s count.
    ///
    /// Once a count reaches the maximum it is stuck and no further
    /// increments (or decrements) change it.
    pub fn increment(&self, obj: ObjectReference) -> CountChange {
        let max = self.max;
        match self.counts.fetch_update(obj.to_address(), |v| if v < max { Some(v + 1) } else { None }) {
            Ok(old) => CountChange { old, new: old + 1 },
            Err(old) => CountChange { old, new: old },
        }
    }

    /// Applies a decrement to `obj`'s count.
    ///
    /// Stuck counts and already-zero counts are left unchanged (a zero
    /// count can be observed when an SATB sweep already cleared the object).
    pub fn decrement(&self, obj: ObjectReference) -> CountChange {
        let max = self.max;
        match self
            .counts
            .fetch_update(obj.to_address(), |v| if v > 0 && v < max { Some(v - 1) } else { None })
        {
            Ok(old) => CountChange { old, new: old - 1 },
            Err(old) => CountChange { old, new: old },
        }
    }

    /// Forces the count of `obj` to zero (used when the SATB trace reclaims
    /// an unmarked object whose count is non-zero or stuck, §3.3.2).
    pub fn clear(&self, obj: ObjectReference) {
        self.counts.store(obj.to_address(), 0);
    }

    /// Forces the count of `obj` to `value` (used when an evacuation
    /// transfers an object's count to its new location).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `value` exceeds the stuck value.
    pub fn set_count(&self, obj: ObjectReference, value: u8) {
        debug_assert!(value <= self.max);
        self.counts.store(obj.to_address(), value);
    }

    /// Marks the trailing lines of a multi-line object as occupied by
    /// writing a non-zero value into the count-table entry at the start of
    /// each trailing line except the last (§3.1).  Call when the object
    /// receives its first increment.
    pub fn mark_straddle_lines(&self, obj: ObjectReference, size_words: usize) {
        let start = obj.to_address();
        let end = start.plus(size_words);
        let words_per_line = self.geometry.words_per_line();
        let mut line_start = start.align_up(words_per_line);
        // Trailing lines are those whose start falls inside the object; the
        // last one is covered by the allocator's conservative treatment.
        while line_start.plus(words_per_line) < end {
            self.counts.fetch_update(line_start, |v| if v == 0 { Some(1) } else { None }).ok();
            line_start = line_start.plus(words_per_line);
        }
    }

    /// Clears the straddle markers written by
    /// [`mark_straddle_lines`](Self::mark_straddle_lines); call when the
    /// object dies.
    pub fn clear_straddle_lines(&self, obj: ObjectReference, size_words: usize) {
        let start = obj.to_address();
        let end = start.plus(size_words);
        let words_per_line = self.geometry.words_per_line();
        let mut line_start = start.align_up(words_per_line);
        while line_start.plus(words_per_line) < end {
            self.counts.store(line_start, 0);
            line_start = line_start.plus(words_per_line);
        }
    }

    /// Number of granules in `block` with a non-zero count: an upper bound
    /// on the number of live objects, and (×16 bytes) on the live bytes, in
    /// the block.  Used to select evacuation candidates (§3.3.2).
    pub fn block_live_granules(&self, block: Block) -> usize {
        let start = self.geometry.block_start(block);
        self.counts.count_nonzero_range(start, self.geometry.words_per_block())
    }

    /// Takes a [`BlockCensus`] of `block`: live-granule count plus free-line
    /// bitmap from one word-at-a-time scan of the count table, instead of a
    /// byte atomic per granule (one 32 KB block is 2048 granules — the
    /// census reads 64 words).  Evacuation-candidate selection consumes the
    /// occupancy; the free-line bitmap is for consumers that need per-line
    /// placement (e.g. a future parallel sweep — see ROADMAP).  The pause's
    /// block sweep uses the allocation-free
    /// [`block_summary`](Self::block_summary) instead.
    pub fn block_census(&self, block: Block) -> BlockCensus {
        let start = self.geometry.block_start(block);
        let census =
            self.counts.group_census(start, self.geometry.words_per_block(), self.geometry.words_per_line());
        BlockCensus {
            live_granules: census.nonzero_entries,
            free_lines: census.zero_groups,
            lines_per_block: self.geometry.lines_per_block(),
            census,
        }
    }

    /// Allocation-free variant of [`block_census`](Self::block_census):
    /// returns just `(live_granules, free_lines)`.  The pause's block sweep
    /// uses this — it only needs "is the block free" and "does it have a
    /// free line" per block, so it should not pay a bitmap allocation for
    /// every block of every sweep.
    pub fn block_summary(&self, block: Block) -> (usize, usize) {
        let start = self.geometry.block_start(block);
        self.counts.group_counts(start, self.geometry.words_per_block(), self.geometry.words_per_line())
    }

    /// Returns `true` if every count in `block` is zero (the whole block is
    /// reclaimable).
    pub fn block_is_free(&self, block: Block) -> bool {
        let start = self.geometry.block_start(block);
        self.counts.range_is_zero(start, self.geometry.words_per_block())
    }

    /// Zeroes every count in `block` (used when a block is bulk-reclaimed).
    pub fn clear_block(&self, block: Block) {
        let start = self.geometry.block_start(block);
        self.counts.clear_range(start, self.geometry.words_per_block());
    }

    /// Returns `true` if every count covering `line` is zero.
    pub fn line_is_free_impl(&self, line: Line) -> bool {
        let start = self.geometry.line_start(line);
        self.counts.range_is_zero(start, self.geometry.words_per_line())
    }
}

impl LineOccupancy for RcTable {
    fn line_is_free(&self, line: Line) -> bool {
        self.line_is_free_impl(line)
    }

    /// Word-at-a-time free-line-run search: one `find_zero_run` over the
    /// packed count table replaces per-line probing (16 byte-atomic loads
    /// per line with the default geometry) in the allocator's hole search.
    fn next_free_line_run(
        &self,
        first_line: Line,
        from: usize,
        lines_per_block: usize,
    ) -> Option<(usize, usize)> {
        let words_per_line = self.geometry.words_per_line();
        let entries_per_line = words_per_line / GRANULE_WORDS;
        let base = self.geometry.line_start(first_line);
        let block_end = base.plus(lines_per_block * words_per_line);
        let mut cursor = base.plus(from * words_per_line);
        while cursor < block_end {
            // A maximal zero-granule run shorter than a line cannot contain
            // a wholly free line.
            let (run, len) = self.counts.find_zero_run(cursor, block_end.diff(cursor), entries_per_line)?;
            let g0 = run.diff(base) / GRANULE_WORDS;
            let g1 = g0 + len;
            // Wholly free lines are those fully inside the zero run.
            let start_line = g0.div_ceil(entries_per_line);
            let end_line = g1 / entries_per_line;
            if start_line < end_line {
                return Some((start_line, end_line));
            }
            cursor = run.plus(len * GRANULE_WORDS);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lxr_heap::{Address, HeapConfig};
    use proptest::prelude::*;

    fn table() -> RcTable {
        RcTable::new(&HeapConfig::with_heap_size(1 << 20))
    }

    fn obj(word: usize) -> ObjectReference {
        ObjectReference::from_address(Address::from_word_index(word))
    }

    #[test]
    fn counts_start_at_zero_and_saturate() {
        let rc = table();
        let o = obj(4096);
        assert_eq!(rc.count(o), 0);
        assert!(!rc.is_live(o));
        assert!(rc.increment(o).is_birth());
        assert_eq!(rc.increment(o), CountChange { old: 1, new: 2 });
        assert_eq!(rc.increment(o), CountChange { old: 2, new: 3 });
        assert!(rc.is_stuck(o));
        // Stuck: further increments and decrements are no-ops.
        assert_eq!(rc.increment(o), CountChange { old: 3, new: 3 });
        assert_eq!(rc.decrement(o), CountChange { old: 3, new: 3 });
        assert_eq!(rc.count(o), 3);
    }

    #[test]
    fn death_is_reported_when_last_reference_drops() {
        let rc = table();
        let o = obj(4100);
        rc.increment(o);
        rc.increment(o);
        assert!(!rc.decrement(o).is_death());
        assert!(rc.decrement(o).is_death());
        assert!(!rc.is_live(o));
        // A decrement of an already-dead object is a no-op.
        assert_eq!(rc.decrement(o), CountChange { old: 0, new: 0 });
    }

    #[test]
    fn clear_forces_zero_even_when_stuck() {
        let rc = table();
        let o = obj(4200);
        for _ in 0..5 {
            rc.increment(o);
        }
        assert!(rc.is_stuck(o));
        rc.clear(o);
        assert_eq!(rc.count(o), 0);
    }

    #[test]
    fn wider_counts_saturate_later() {
        let config = HeapConfig::with_heap_size(1 << 20).with_rc_bits(4);
        let rc = RcTable::new(&config);
        let o = obj(4096);
        for _ in 0..15 {
            rc.increment(o);
        }
        assert_eq!(rc.count(o), 15);
        assert!(rc.is_stuck(o));
        assert_eq!(rc.stuck_value(), 15);
    }

    #[test]
    fn metadata_density_matches_paper() {
        // With 2-bit counts each 256 B line consumes 4 bytes of metadata
        // (§3.2.1), i.e. the table is 1/64 of the heap.
        let config = HeapConfig::with_heap_size(1 << 20);
        let rc = RcTable::new(&config);
        assert_eq!(rc.metadata_bytes(), config.heap_words() * 8 / 64);
    }

    #[test]
    fn line_occupancy_follows_counts() {
        let rc = table();
        let g = rc.geometry();
        let line = Line::from_index(g.first_line_of(Block::from_index(2)).index());
        assert!(rc.line_is_free(line));
        let o = obj(g.line_start(line).word_index() + 4);
        rc.increment(o);
        assert!(!rc.line_is_free(line));
        rc.decrement(o);
        assert!(rc.line_is_free(line));
    }

    #[test]
    fn straddle_marks_make_trailing_lines_unavailable() {
        let rc = table();
        let g = rc.geometry();
        // An object of 100 words starting at a line boundary spans lines
        // L, L+1, L+2, L+3 (100 words = 3.125 lines).  Trailing lines L+1 and
        // L+2 must be marked; the final partial line L+3 is covered by the
        // allocator's conservative rule.
        let block = Block::from_index(3);
        let start = g.block_start(block);
        let o = ObjectReference::from_address(start);
        rc.increment(o);
        rc.mark_straddle_lines(o, 100);
        let first_line = g.first_line_of(block).index();
        assert!(!rc.line_is_free(Line::from_index(first_line)), "head line holds the object's count");
        assert!(!rc.line_is_free(Line::from_index(first_line + 1)));
        assert!(!rc.line_is_free(Line::from_index(first_line + 2)));
        assert!(
            rc.line_is_free(Line::from_index(first_line + 3)),
            "last straddled line is left to the conservative rule"
        );
        rc.clear_straddle_lines(o, 100);
        rc.decrement(o);
        assert!(rc.block_is_free(block));
    }

    #[test]
    fn block_occupancy_counts_live_granules() {
        let rc = table();
        let g = rc.geometry();
        let block = Block::from_index(4);
        let start = g.block_start(block);
        assert_eq!(rc.block_live_granules(block), 0);
        assert!(rc.block_is_free(block));
        for i in 0..10 {
            rc.increment(obj(start.word_index() + i * 4));
        }
        assert_eq!(rc.block_live_granules(block), 10);
        assert!(!rc.block_is_free(block));
        rc.clear_block(block);
        assert!(rc.block_is_free(block));
    }

    #[test]
    fn block_census_summarises_in_one_pass() {
        let rc = table();
        let g = rc.geometry();
        let block = Block::from_index(6);
        let census = rc.block_census(block);
        assert!(census.is_free());
        assert_eq!(census.free_lines, g.lines_per_block());
        assert_eq!(census.lines_per_block, g.lines_per_block());

        // Occupy granules on lines 0, 3 and 3 again (same line).
        let first_line = g.first_line_of(block);
        rc.increment(obj(g.line_start(first_line).word_index() + 2));
        rc.increment(obj(g.line_start(Line::from_index(first_line.index() + 3)).word_index()));
        rc.increment(obj(g.line_start(Line::from_index(first_line.index() + 3)).word_index() + 8));

        let census = rc.block_census(block);
        assert!(!census.is_free());
        assert!(census.has_free_line());
        assert_eq!(census.live_granules, 3);
        assert_eq!(census.live_granules, rc.block_live_granules(block));
        assert_eq!(census.free_lines, g.lines_per_block() - 2);
        assert!(!census.line_is_free(0));
        assert!(census.line_is_free(1));
        assert!(!census.line_is_free(3));
        // The bitmap agrees with per-line probing everywhere.
        for i in 0..g.lines_per_block() {
            assert_eq!(
                census.line_is_free(i),
                rc.line_is_free_impl(Line::from_index(first_line.index() + i)),
                "line {i}"
            );
        }
        assert!((census.occupancy(2048) - 3.0 / 2048.0).abs() < 1e-12);
        // The allocation-free summary agrees with the full census.
        assert_eq!(rc.block_summary(block), (census.live_granules, census.free_lines));
    }

    /// Replicates the `LineOccupancy` default (per-line probing) so the SWAR
    /// override can be checked against it.
    fn probe_free_line_run(
        rc: &RcTable,
        first_line: Line,
        from: usize,
        lines: usize,
    ) -> Option<(usize, usize)> {
        let mut i = from;
        while i < lines {
            if rc.line_is_free(Line::from_index(first_line.index() + i)) {
                let mut end = i + 1;
                while end < lines && rc.line_is_free(Line::from_index(first_line.index() + end)) {
                    end += 1;
                }
                return Some((i, end));
            }
            i += 1;
        }
        None
    }

    #[test]
    fn swar_free_line_runs_match_probing() {
        let rc = table();
        let g = rc.geometry();
        let block = Block::from_index(7);
        let first_line = g.first_line_of(block);
        let lines = g.lines_per_block();
        // Occupy a mix: a leading prefix, an isolated line, adjacent lines,
        // and a granule in the middle of a line (partial line occupancy).
        for l in [0usize, 1, 5, 40, 41, 42, 100] {
            rc.increment(obj(g.line_start(Line::from_index(first_line.index() + l)).word_index() + 6));
        }
        for from in 0..lines {
            assert_eq!(
                rc.next_free_line_run(first_line, from, lines),
                probe_free_line_run(&rc, first_line, from, lines),
                "from {from}"
            );
        }
    }

    proptest! {
        /// The SWAR free-line-run search agrees with per-line probing for
        /// arbitrary occupancy patterns and search offsets.
        #[test]
        fn free_line_runs_match_probing_on_random_patterns(
            occupied in proptest::collection::vec((0usize..128, 0usize..16), 0..48),
            from in 0usize..128,
        ) {
            let rc = table();
            let g = rc.geometry();
            let block = Block::from_index(3);
            let first_line = g.first_line_of(block);
            for (line, granule) in occupied {
                let base = g.line_start(Line::from_index(first_line.index() + line));
                rc.increment(obj(base.word_index() + granule * 2));
            }
            let lines = g.lines_per_block();
            prop_assert_eq!(
                rc.next_free_line_run(first_line, from, lines),
                probe_free_line_run(&rc, first_line, from, lines)
            );
        }

        /// The table agrees with a naive model under arbitrary sequences of
        /// increments and decrements on a handful of objects.
        #[test]
        fn matches_reference_model(ops in proptest::collection::vec((0usize..8, proptest::bool::ANY), 1..200)) {
            let rc = table();
            let mut model = [0u8; 8];
            let base = 4096usize;
            for (slot, is_inc) in ops {
                let o = obj(base + slot * 4);
                if is_inc {
                    rc.increment(o);
                    if model[slot] < 3 { model[slot] += 1; }
                } else {
                    rc.decrement(o);
                    if model[slot] > 0 && model[slot] < 3 { model[slot] -= 1; }
                }
                prop_assert_eq!(rc.count(o), model[slot]);
            }
        }

        /// Increments never disturb the counts of neighbouring granules.
        #[test]
        fn no_cross_talk(slots in proptest::collection::vec(0usize..64, 1..100)) {
            let rc = table();
            let base = 8192usize;
            let mut model = [0u8; 64];
            for s in slots {
                rc.increment(obj(base + s * 2));
                if model[s] < 3 { model[s] += 1; }
            }
            for (s, expected) in model.iter().enumerate() {
                prop_assert_eq!(rc.count(obj(base + s * 2)), *expected);
            }
        }
    }
}
