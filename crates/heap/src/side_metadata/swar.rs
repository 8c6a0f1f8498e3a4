//! The portable word-at-a-time (SWAR) bulk kernels.
//!
//! This is the universal fallback backend — the only one on targets without
//! AVX2, ARM included — and the **oracle** the vector backend is
//! property-tested against (`tests/backend_differential.rs`).  Every kernel processes one
//! full backing word per iteration using SWAR bit tricks: OR-accumulation
//! for zero tests, an OR-fold to each lane's low bit plus a popcount for
//! the census, and the classic masked lane-add / multiply reduction for
//! sums.  Ranges with unaligned edges are handled by masking the head and
//! tail words, so there is no scalar fixup loop — and the vector backends
//! delegate *their* edge words to these kernels, which keeps edge semantics
//! identical across backends by construction.
//!
//! The per-granule `scalar_*` reference implementations also live here:
//! one byte-atomic load per granule, exactly as the pre-SWAR engine worked.
//! They are the semantic model for the property tests and the baseline for
//! the `metadata_scan` benchmark; not for production use.

use super::{low_mask, SideMetadata, LSB16, LSB8, M2, M4, M8, MSB8, WORD_BITS};
use crate::Address;
use std::sync::atomic::Ordering;

impl SideMetadata {
    // ---- per-word SWAR primitives -----------------------------------------

    /// ORs every bit of each entry lane into the lane's low bit and masks to
    /// those low bits: the result has bit `k * bits` set iff entry `k` of
    /// the word is non-zero.
    #[inline]
    pub(super) fn nonzero_lane_lsbs(&self, w: usize) -> usize {
        let folded = match self.bits_per_entry {
            1 => w,
            2 => w | (w >> 1),
            4 => {
                let w = w | (w >> 2);
                w | (w >> 1)
            }
            _ => {
                let w = w | (w >> 4);
                let w = w | (w >> 2);
                w | (w >> 1)
            }
        };
        folded & self.lane_lsb
    }

    /// Number of non-zero entries in a (masked) word.
    #[inline]
    pub(super) fn count_nonzero_word(&self, w: usize) -> usize {
        self.nonzero_lane_lsbs(w).count_ones() as usize
    }

    /// Sum of all entry values in a (masked) word.
    #[inline]
    pub(super) fn sum_word(&self, w: usize) -> usize {
        match self.bits_per_entry {
            1 => w.count_ones() as usize,
            2 => {
                // 2-bit lanes -> 4-bit partials (max 6) -> byte partials
                // (max 12) -> byte-sum by multiply (max 12 * 8 = 96 < 256).
                let t = (w & M2) + ((w >> 2) & M2);
                let t = (t & M4) + ((t >> 4) & M4);
                t.wrapping_mul(LSB8) >> (WORD_BITS - 8)
            }
            4 => {
                // 4-bit lanes -> byte partials (max 30) -> byte-sum by
                // multiply (max 30 * 8 = 240 < 256).
                let t = (w & M4) + ((w >> 4) & M4);
                t.wrapping_mul(LSB8) >> (WORD_BITS - 8)
            }
            _ => {
                // Bytes -> 16-bit partials (max 510) -> 16-bit-sum by
                // multiply (max 510 * 4 = 2040 < 65536).
                let t = (w & M8) + ((w >> 8) & M8);
                t.wrapping_mul(LSB16) >> (WORD_BITS - 16)
            }
        }
    }

    /// Loads the backing word containing entry `e` and returns
    /// `(masked word, lanes consumed)` where the mask selects the entries
    /// `[e, min(e1, next word boundary))`.
    #[inline]
    pub(super) fn load_chunk(&self, e: usize, e1: usize) -> (usize, usize) {
        let epw_mask = (1usize << self.log_entries_per_word()) - 1;
        let lane0 = e & epw_mask;
        let lanes = ((epw_mask + 1) - lane0).min(e1 - e);
        let word = self.words[e >> self.log_entries_per_word()].load(Ordering::Acquire);
        let mask = low_mask(lanes << self.log_bits) << (lane0 << self.log_bits);
        (word & mask, lanes)
    }

    // ---- bulk kernels over entry ranges -----------------------------------

    /// SWAR kernel of [`range_is_zero`](Self::range_is_zero) over entries
    /// `[e0, e1)`.
    pub(super) fn swar_range_is_zero(&self, mut e0: usize, e1: usize) -> bool {
        while e0 < e1 {
            let (chunk, lanes) = self.load_chunk(e0, e1);
            if chunk != 0 {
                return false;
            }
            e0 += lanes;
        }
        true
    }

    /// SWAR kernel of [`count_nonzero_range`](Self::count_nonzero_range)
    /// over entries `[e0, e1)`.
    pub(super) fn swar_count_nonzero(&self, mut e0: usize, e1: usize) -> usize {
        let mut n = 0;
        while e0 < e1 {
            let (chunk, lanes) = self.load_chunk(e0, e1);
            n += self.count_nonzero_word(chunk);
            e0 += lanes;
        }
        n
    }

    /// SWAR kernel of [`sum_range`](Self::sum_range) over entries
    /// `[e0, e1)`.
    pub(super) fn swar_sum(&self, mut e0: usize, e1: usize) -> usize {
        let mut sum = 0;
        while e0 < e1 {
            let (chunk, lanes) = self.load_chunk(e0, e1);
            sum += self.sum_word(chunk);
            e0 += lanes;
        }
        sum
    }

    /// SWAR kernel of [`fill_range`](Self::fill_range) (and, with a zero
    /// pattern, [`clear_range`](Self::clear_range)) over entries
    /// `[e0, e1)`.  `pattern` is the entry value replicated across a word.
    ///
    /// Fully covered backing words take one plain store — the operation's
    /// contract is that no concurrent single-entry update targets entries
    /// *inside* the range; words shared with out-of-range entries are
    /// merged atomically so neighbours are never clobbered.
    pub(super) fn swar_fill(&self, mut e0: usize, e1: usize, pattern: usize) {
        let epw_mask = (1usize << self.log_entries_per_word()) - 1;
        while e0 < e1 {
            let lane0 = e0 & epw_mask;
            let lanes = ((epw_mask + 1) - lane0).min(e1 - e0);
            let word = &self.words[e0 >> self.log_entries_per_word()];
            if lanes == epw_mask + 1 {
                word.store(pattern, Ordering::Release);
            } else {
                let mask = low_mask(lanes << self.log_bits) << (lane0 << self.log_bits);
                if pattern == 0 {
                    word.fetch_and(!mask, Ordering::AcqRel);
                } else {
                    let mut current = word.load(Ordering::Relaxed);
                    loop {
                        let new = (current & !mask) | (pattern & mask);
                        match word.compare_exchange_weak(current, new, Ordering::AcqRel, Ordering::Relaxed) {
                            Ok(_) => break,
                            Err(actual) => current = actual,
                        }
                    }
                }
            }
            e0 += lanes;
        }
    }

    /// SWAR kernel of [`bump_range`](Self::bump_range) over entries
    /// `[e0, e1)` (8-bit entries only; asserted by the caller).
    pub(super) fn swar_bump(&self, mut e0: usize, e1: usize) {
        let epw_mask = (1usize << self.log_entries_per_word()) - 1;
        while e0 < e1 {
            let lane0 = e0 & epw_mask;
            let lanes = ((epw_mask + 1) - lane0).min(e1 - e0);
            let sel = low_mask(lanes << self.log_bits) << (lane0 << self.log_bits);
            self.swar_bump_word(e0 >> self.log_entries_per_word(), sel);
            e0 += lanes;
        }
    }

    /// Carry-fenced CAS bump of the byte lanes selected by `sel` within one
    /// backing word — the atomic unit both the SWAR and the vector bump
    /// kernels commit through.
    #[inline]
    pub(super) fn swar_bump_word(&self, word_index: usize, sel: usize) {
        let word = &self.words[word_index];
        let mut current = word.load(Ordering::Relaxed);
        loop {
            // Selected bytes: wrapping +1.  Unselected bytes: +0, so the
            // carry-fence round trip reproduces them exactly.
            let bumped = ((current & !MSB8).wrapping_add(LSB8 & sel)) ^ (current & MSB8);
            match word.compare_exchange_weak(current, bumped, Ordering::AcqRel, Ordering::Relaxed) {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
    }

    /// SWAR kernel of the ascending non-zero-entry walk behind
    /// [`for_each_nonzero`](Self::for_each_nonzero): visits entries in
    /// `[e0, e1)`, reporting indices relative to `base`.
    pub(super) fn swar_for_each_nonzero(
        &self,
        mut e0: usize,
        e1: usize,
        base: usize,
        f: &mut impl FnMut(usize),
    ) {
        let epw_mask = (1usize << self.log_entries_per_word()) - 1;
        while e0 < e1 {
            let (chunk, lanes) = self.load_chunk(e0, e1);
            let mut nz = self.nonzero_lane_lsbs(chunk);
            let word_base = e0 & !epw_mask;
            while nz != 0 {
                let lane = (nz.trailing_zeros() >> self.log_bits) as usize;
                f(word_base + lane - base);
                nz &= nz - 1;
            }
            e0 += lanes;
        }
    }

    /// [`swar_next_nonzero`](Self::swar_next_nonzero) with a word budget:
    /// `Ok(entry)` when found (or `Ok(e1)` when the range is exhausted),
    /// `Err(resume)` when the budget ran out at word-aligned entry
    /// `resume`.  The vector backends use this as their per-hop gallop —
    /// the budget decrement is two instructions per word, cheap enough for
    /// the one-word hops that dominate mixed-occupancy searches, while a
    /// budget overrun signals a stretch long enough to amortize the vector
    /// setup.
    #[inline]
    pub(super) fn swar_next_nonzero_bounded(
        &self,
        mut e: usize,
        e1: usize,
        mut budget: usize,
    ) -> Result<usize, usize> {
        while e < e1 {
            if budget == 0 {
                return Err(e);
            }
            budget -= 1;
            let (chunk, lanes) = self.load_chunk(e, e1);
            let nz = self.nonzero_lane_lsbs(chunk);
            if nz != 0 {
                let lane = (nz.trailing_zeros() >> self.log_bits) as usize;
                return Ok((e & !((1 << self.log_entries_per_word()) - 1)) + lane);
            }
            e += lanes;
        }
        Ok(e1)
    }

    /// [`swar_next_zero`](Self::swar_next_zero) with a word budget; see
    /// [`swar_next_nonzero_bounded`](Self::swar_next_nonzero_bounded).
    #[inline]
    pub(super) fn swar_next_zero_bounded(
        &self,
        mut e: usize,
        e1: usize,
        mut budget: usize,
    ) -> Result<usize, usize> {
        let epw_mask = (1usize << self.log_entries_per_word()) - 1;
        while e < e1 {
            if budget == 0 {
                return Err(e);
            }
            budget -= 1;
            let lane0 = e & epw_mask;
            let lanes = ((epw_mask + 1) - lane0).min(e1 - e);
            let word = self.words[e >> self.log_entries_per_word()].load(Ordering::Acquire);
            let in_range = low_mask(lanes << self.log_bits) << (lane0 << self.log_bits);
            let z = !self.nonzero_lane_lsbs(word) & self.lane_lsb & in_range;
            if z != 0 {
                let lane = (z.trailing_zeros() >> self.log_bits) as usize;
                return Ok((e & !epw_mask) + lane);
            }
            e += lanes;
        }
        Ok(e1)
    }

    /// First entry `>= e` (bounded by `e1`) whose value is non-zero.
    #[inline]
    pub(super) fn swar_next_nonzero(&self, mut e: usize, e1: usize) -> usize {
        while e < e1 {
            let (chunk, lanes) = self.load_chunk(e, e1);
            let nz = self.nonzero_lane_lsbs(chunk);
            if nz != 0 {
                // Bits sit at multiples of the entry width; the shift
                // converts the bit position back to a lane index.
                let lane = (nz.trailing_zeros() >> self.log_bits) as usize;
                return (e & !((1 << self.log_entries_per_word()) - 1)) + lane;
            }
            e += lanes;
        }
        e1
    }

    /// First entry `>= e` (bounded by `e1`) whose value is zero.
    #[inline]
    pub(super) fn swar_next_zero(&self, mut e: usize, e1: usize) -> usize {
        let epw_mask = (1usize << self.log_entries_per_word()) - 1;
        while e < e1 {
            let lane0 = e & epw_mask;
            let lanes = ((epw_mask + 1) - lane0).min(e1 - e);
            let word = self.words[e >> self.log_entries_per_word()].load(Ordering::Acquire);
            // Lanes that are zero, restricted to [lane0, lane0 + lanes).
            let in_range = low_mask(lanes << self.log_bits) << (lane0 << self.log_bits);
            let z = !self.nonzero_lane_lsbs(word) & self.lane_lsb & in_range;
            if z != 0 {
                let lane = (z.trailing_zeros() >> self.log_bits) as usize;
                return (e & !epw_mask) + lane;
            }
            e += lanes;
        }
        e1
    }

    /// SWAR kernel of [`find_zero_run`](Self::find_zero_run): the first
    /// maximal zero run of at least `min_entries` among entries
    /// `[e0, e1)`, as `(first entry, length)`.
    pub(super) fn swar_find_zero_run(
        &self,
        e0: usize,
        e1: usize,
        min_entries: usize,
    ) -> Option<(usize, usize)> {
        let mut e = e0;
        while e < e1 {
            let run_start = self.swar_next_zero(e, e1);
            if run_start >= e1 {
                return None;
            }
            let run_end = self.swar_next_nonzero(run_start, e1);
            if run_end - run_start >= min_entries {
                return Some((run_start, run_end - run_start));
            }
            e = run_end;
        }
        None
    }

    /// SWAR kernel of [`group_census`](Self::group_census) /
    /// [`group_counts`](Self::group_counts) over entries `[e0, e1)`:
    /// groups are `1 << log_epg` entries, the range is group-aligned
    /// (asserted by the dispatcher), and zero groups are reported to
    /// `on_zero_group` with their index offset by `group_base` (the vector
    /// backends use the offset to delegate a range's tail).
    pub(super) fn swar_group_scan(
        &self,
        e0: usize,
        e1: usize,
        log_epg: u32,
        group_base: usize,
        on_zero_group: &mut impl FnMut(usize),
    ) -> (usize, usize) {
        let mut nonzero_entries = 0;
        let mut zero_groups = 0;
        let epw = 1usize << self.log_entries_per_word();
        let mut group_acc: usize = 0;
        let mut e = e0;
        while e < e1 {
            let (chunk, lanes) = self.load_chunk(e, e1);
            nonzero_entries += self.count_nonzero_word(chunk);
            if (1 << log_epg) >= epw {
                // A group spans one or more whole words (the group-aligned
                // range start makes every chunk word-aligned here):
                // OR-accumulate and emit at group boundaries.
                group_acc |= chunk;
                let next = e + lanes;
                if next & ((1 << log_epg) - 1) == 0 {
                    if group_acc == 0 {
                        zero_groups += 1;
                        on_zero_group(group_base + ((e - e0) >> log_epg));
                    }
                    group_acc = 0;
                }
            } else {
                // Several groups per word: fold each group's lanes to its
                // low bit and walk only the groups the chunk covers (the
                // chunk is group-aligned and a whole number of groups, but
                // not necessarily a whole word).
                let group_bits = (1usize << log_epg) << self.log_bits;
                let first_group_in_word = (e & (epw - 1)) >> log_epg;
                let groups_in_chunk = lanes >> log_epg;
                let nz = self.nonzero_lane_lsbs(chunk);
                for k in 0..groups_in_chunk {
                    let group_mask = low_mask(group_bits) << ((first_group_in_word + k) * group_bits);
                    if nz & group_mask == 0 {
                        zero_groups += 1;
                        on_zero_group(group_base + ((e - e0) >> log_epg) + k);
                    }
                }
            }
            e += lanes;
        }
        (nonzero_entries, zero_groups)
    }

    // ---- scalar reference implementations ---------------------------------

    /// Scalar model of [`range_is_zero`](Self::range_is_zero).
    #[doc(hidden)]
    pub fn scalar_range_is_zero(&self, start: Address, words: usize) -> bool {
        let mut w = 0;
        while w < words {
            if self.load(start.plus(w)) != 0 {
                return false;
            }
            w += self.granule_words();
        }
        true
    }

    /// Scalar model of [`count_nonzero_range`](Self::count_nonzero_range).
    #[doc(hidden)]
    pub fn scalar_count_nonzero_range(&self, start: Address, words: usize) -> usize {
        let mut n = 0;
        let mut w = 0;
        while w < words {
            if self.load(start.plus(w)) != 0 {
                n += 1;
            }
            w += self.granule_words();
        }
        n
    }

    /// Scalar model of [`sum_range`](Self::sum_range).
    #[doc(hidden)]
    pub fn scalar_sum_range(&self, start: Address, words: usize) -> usize {
        let mut sum = 0;
        let mut w = 0;
        while w < words {
            sum += self.load(start.plus(w)) as usize;
            w += self.granule_words();
        }
        sum
    }

    /// Scalar model of [`clear_range`](Self::clear_range).
    #[doc(hidden)]
    pub fn scalar_clear_range(&self, start: Address, words: usize) {
        let mut w = 0;
        while w < words {
            self.store(start.plus(w), 0);
            w += self.granule_words();
        }
    }

    /// Scalar model of [`bump_range`](Self::bump_range).
    #[doc(hidden)]
    pub fn scalar_bump_range(&self, start: Address, words: usize) {
        let mut w = 0;
        while w < words {
            let _ = self.fetch_update(start.plus(w), |v| Some(v.wrapping_add(1) & self.mask));
            w += self.granule_words();
        }
    }

    /// Scalar model of [`for_each_nonzero`](Self::for_each_nonzero).
    #[doc(hidden)]
    pub fn scalar_for_each_nonzero(&self, start: Address, words: usize, mut f: impl FnMut(usize)) {
        let (e0, e1) = self.entry_range(start, words);
        for e in e0..e1 {
            if self.load(Address::from_word_index(e << self.log_granule_words)) != 0 {
                f(e - e0);
            }
        }
    }

    /// Scalar model of [`find_zero_run`](Self::find_zero_run).
    #[doc(hidden)]
    pub fn scalar_find_zero_run(
        &self,
        start: Address,
        words: usize,
        min_entries: usize,
    ) -> Option<(Address, usize)> {
        assert!(min_entries > 0);
        let (e0, e1) = self.entry_range(start, words);
        let load = |e: usize| self.load(Address::from_word_index(e << self.log_granule_words));
        let mut e = e0;
        while e < e1 {
            if load(e) != 0 {
                e += 1;
                continue;
            }
            let run_start = e;
            while e < e1 && load(e) == 0 {
                e += 1;
            }
            if e - run_start >= min_entries {
                return Some((Address::from_word_index(run_start << self.log_granule_words), e - run_start));
            }
        }
        None
    }
}
