//! Densely packed per-granule side metadata with runtime-dispatched bulk
//! kernels: portable word-at-a-time SWAR everywhere, AVX2 vector kernels
//! on x86-64 hardware that has them.
//!
//! OpenJDK lacks header bits for a reference count, so LXR stores reference
//! counts — and all of its other per-object metadata (unlogged bits, SATB
//! mark bits) — in side tables reachable from an object address by simple
//! address arithmetic (§3.2.1).  [`SideMetadata`] is the generic table those
//! collectors instantiate: `bits_per_entry` bits of metadata for every
//! `granule_words` words of heap.
//!
//! # Layout
//!
//! The table is backed by machine words (`AtomicUsize`), not bytes: with the
//! paper's default geometry (2-bit counts, 16-byte granules) one 64-bit word
//! holds the counts of **32 granules** — half a kilobyte of heap.  Both the
//! granule size and the entry width are powers of two, so locating an entry
//! is two shifts and a mask; there is no integer division anywhere on the
//! access path.
//!
//! # Access paths
//!
//! *Single-entry* operations (`load` / `store` / `fetch_update`) — the write
//! barrier's log-state check, RC increments and decrements — touch exactly
//! one byte of the table through a byte-atomic view, so contention between
//! neighbouring entries is no wider than it would be with byte-sized
//! backing, and an 8-bit entry (which owns its whole byte lane) is written
//! with a plain atomic store rather than a CAS loop.
//!
//! *Bulk* operations — the evacuation-candidate census
//! ([`count_nonzero_range`](SideMetadata::count_nonzero_range)), the block
//! sweep ([`range_is_zero`](SideMetadata::range_is_zero),
//! [`group_census`](SideMetadata::group_census)), the allocator's
//! free-line hole search ([`find_zero_run`](SideMetadata::find_zero_run)),
//! the dirty-map drain ([`for_each_nonzero`](SideMetadata::for_each_nonzero)),
//! the epoch resets ([`clear_range`](SideMetadata::clear_range),
//! [`fill_range`](SideMetadata::fill_range)) and the reuse-epoch advance
//! ([`bump_range`](SideMetadata::bump_range)) — are *kernels*, dispatched
//! once per process to the widest backend the hardware supports (see
//! [Backend dispatch](#backend-dispatch) below).
//!
//! # Backend dispatch
//!
//! Two backends implement the bulk-op surface:
//!
//! * `swar` — the portable word-at-a-time kernels: OR-accumulation for
//!   zero tests, an OR-fold to each lane's low bit plus a popcount for the
//!   census, the classic masked lane-add / multiply reduction for sums, and
//!   a carry-fenced byte add for the epoch bump.  This backend is the
//!   **universal fallback** (the only backend off x86-64) and the
//!   **oracle** the vector backend is property-tested against, bit for
//!   bit.
//! * `x86` — 256-bit AVX2 kernels (`vpcmpeqb`+`vpmovmskb` for zero scans,
//!   `vpshufb` nibble LUTs for lane censuses, `vpsadbw` for sums), compiled
//!   unconditionally on x86-64 but *selected* only when
//!   `is_x86_feature_detected!("avx2")` reports the feature at runtime.
//!
//! Selection happens **once per process**: the first bulk call consults a
//! `OnceLock`-cached [`SimdBackend`] chosen by [`select_backend`] from the
//! hardware probe and the `LXR_METADATA_SIMD` environment variable
//! (`swar`/`off` forces the fallback — CI uses this to keep the SWAR path
//! covered on SIMD hosts; `avx2` requests the vector backend and falls
//! back to SWAR if the hardware lacks it; `auto`/unset probes).  No
//! per-call feature detection ever runs: the dispatcher is one predictable
//! load-and-match on the hot path.
//!
//! Every vector kernel processes only the *interior* of a range — backing
//! words fully covered by it, in whole-vector steps; sub-word prefixes,
//! suffixes and short ranges fall through to the SWAR kernels, so edge
//! semantics are identical across backends by construction.
//!
//! # Concurrency and per-kernel safety contracts
//!
//! Every single-entry access, byte- or word-sized, is atomic, so there are
//! no data races with concurrent single-entry updates.  Bulk SWAR reads
//! load each word with acquire ordering but make no snapshot guarantee
//! across words — exactly the contract the collector needs, since censuses
//! and sweeps run either inside a pause or over blocks no mutator is
//! writing.  Mixing access sizes over the same memory is the standard
//! side-metadata technique (MMTk does the same); the words are the unit of
//! allocation, so the byte view is always in bounds and aligned.
//!
//! The vector kernels preserve those contracts as follows; each `unsafe`
//! block in the backend modules cites the relevant clause.
//!
//! * **Read-only scans** (`range_is_zero`, `count_nonzero_range`,
//!   `sum_range`, `group_census`/`group_counts`, `find_zero_run`,
//!   `for_each_nonzero`) issue plain (non-atomic) vector loads over the
//!   interior.  This is sound in this codebase because (a) the backing
//!   memory is *only ever written through atomics*, so there is no
//!   non-atomic write for the load to race with; (b) an entry is at most 8
//!   bits and never straddles a byte, and byte-granularity loads do not
//!   tear on any supported target, so a racing single-entry update is
//!   observed either entirely or not at all — the same per-entry staleness
//!   the word-at-a-time SWAR scan already exposes; and (c) every scan call
//!   site either runs under phase-level quiescence (pause-time censuses and
//!   sweeps, the dirty-block drain) or tolerates stale entries by design
//!   (the allocator's free-line search races only monotonically *falling*
//!   counts — a stale read can at worst under-report a free line for one
//!   epoch, never hand out a live one: counts rise only inside pauses).
//! * **Bulk writes** (`clear_range`, `fill_range`) store whole vectors over
//!   interior words.  The SWAR kernel already uses *plain* (non-CAS) word
//!   stores for fully covered words — the operation's contract is that no
//!   concurrent single-entry merge targets entries inside the written
//!   range; widening a plain word store to a plain vector store changes
//!   nothing.  Edge words shared with out-of-range entries keep their
//!   atomic merge in every backend.
//! * **The epoch bump** (`bump_range`) keeps its word-CAS structure in
//!   every backend: concurrent bumps of *other* entries in the same backing
//!   word must never be lost, and a word CAS is the widest atomic the
//!   hardware offers.  The vector fast path only hoists the *value
//!   computation*: one vector load (which may tear between words) and one
//!   `paddb` compute the bumped images of four words at once, and each word
//!   is then committed with an individual `compare_exchange` against the
//!   lane that was loaded.  A torn or stale lane can only make its CAS
//!   fail — never commit a wrong value — and the failing word falls back to
//!   the SWAR per-word CAS loop.
//!
//! # Oracles
//!
//! The per-granule scalar implementations are retained as `scalar_*`
//! methods (hidden from docs) as the semantic model for the property tests
//! and the `metadata_scan` benchmark; the SWAR kernels, in turn, are the
//! oracle for the vector backends (`tests/backend_differential.rs` proves
//! every backend bit-identical on randomized tables, granules and
//! misaligned ranges).

mod swar;
#[cfg(target_arch = "x86_64")]
mod x86;

#[cfg(test)]
mod tests;

use crate::Address;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Bits in one backing word.
const WORD_BITS: usize = usize::BITS as usize;
/// log2 of [`WORD_BITS`].
const LOG_WORD_BITS: u32 = usize::BITS.trailing_zeros();
/// Bytes in one backing word.
const WORD_BYTES: usize = WORD_BITS / 8;

/// Repeats `pattern` (of `block` bits) across a whole word.
const fn repeat(pattern: usize, block: u32) -> usize {
    let mut m = 0usize;
    let mut s = 0;
    while s < usize::BITS {
        m |= pattern << s;
        s += block;
    }
    m
}

/// `0b..0011_0011`: the low half of every 4-bit group.
const M2: usize = repeat(0x3, 4);
/// `0x0f0f..`: the low half of every byte.
const M4: usize = repeat(0xf, 8);
/// `0x00ff00ff..`: the low half of every 16-bit group.
const M8: usize = repeat(0xff, 16);
/// `0x0101..`: the low bit of every byte (byte-sum multiplier).
const LSB8: usize = repeat(0x01, 8);
/// `0x8080..`: the high bit of every byte (carry fence for byte adds).
const MSB8: usize = repeat(0x80, 8);
/// `0x00010001..`: the low bit of every 16-bit group.
const LSB16: usize = repeat(0x0001, 16);

/// A mask of the low `n` bits (`n <= WORD_BITS`).
#[inline]
const fn low_mask(n: usize) -> usize {
    if n >= WORD_BITS {
        !0
    } else {
        (1usize << n) - 1
    }
}

/// Nibble lookup tables for the vector kernels: what the nibble values of
/// an entry word mean, independent of the instruction set.
#[cfg(target_arch = "x86_64")]
mod luts {
    /// Nibble → population count (1-bit lanes).
    pub(super) const POPCNT4: [u8; 16] = [0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4];
    /// Nibble → number of non-zero 2-bit lanes.
    pub(super) const NZ2: [u8; 16] = [0, 1, 1, 1, 1, 2, 2, 2, 1, 2, 2, 2, 1, 2, 2, 2];
    /// Nibble → non-zero flag (4-bit lanes; also the byte-occupancy OR table).
    pub(super) const NZ4: [u8; 16] = [0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1];
    /// Nibble → sum of its 2-bit lanes.
    pub(super) const SUM2: [u8; 16] = [0, 1, 2, 3, 1, 2, 3, 4, 2, 3, 4, 5, 3, 4, 5, 6];
    /// Nibble → its own value (4-bit lane sum via LUT identity).
    pub(super) const IDENT4: [u8; 16] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15];
    /// Nibble → "has a zero 2-bit lane" flag.
    pub(super) const HZ2: [u8; 16] = [1, 1, 1, 1, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0];
    /// Nibble → "is zero" flag (4-bit lanes).
    pub(super) const HZ4: [u8; 16] = [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
}

/// A bulk-kernel backend.  See the [module docs](self) for the dispatch
/// design and the per-kernel safety contracts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdBackend {
    /// Portable word-at-a-time SWAR kernels: the universal fallback and the
    /// differential-test oracle for the vector backends.
    Swar,
    /// 256-bit AVX2 kernels; selected when the CPU reports AVX2 at runtime.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

/// The process-wide backend choice, made once on first use.
static BACKEND: OnceLock<SimdBackend> = OnceLock::new();

/// Probes the hardware for the widest available vector backend.
///
/// Returns `None` when only SWAR is available (non-x86-64 targets, or an
/// x86-64 CPU without AVX2).
pub fn detect_simd_backend() -> Option<SimdBackend> {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return Some(SimdBackend::Avx2);
        }
        None
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        None
    }
}

/// Pure backend-selection policy: combines the `LXR_METADATA_SIMD`
/// environment override with the hardware probe.
///
/// * `Some("swar")` / `Some("off")` / `Some("scalar")` force the SWAR
///   fallback regardless of hardware — CI uses this to keep the portable
///   path covered on SIMD hosts.
/// * `Some("avx2")` requests the vector backend and quietly falls back to
///   SWAR when the hardware (or the compilation target) lacks it — a
///   request must never turn into an illegal instruction.
/// * `None` / `Some("auto")` / anything unrecognised take the probe result,
///   or SWAR when there is none.
///
/// Split out as a pure function (probe and environment are parameters) so
/// the policy is unit-testable without forking processes.
pub fn select_backend(env_override: Option<&str>, detected: Option<SimdBackend>) -> SimdBackend {
    match env_override.map(str::trim).map(str::to_ascii_lowercase).as_deref() {
        Some("swar") | Some("off") | Some("scalar") => SimdBackend::Swar,
        #[cfg(target_arch = "x86_64")]
        Some("avx2") if detected == Some(SimdBackend::Avx2) => SimdBackend::Avx2,
        Some("avx2") => SimdBackend::Swar,
        _ => detected.unwrap_or(SimdBackend::Swar),
    }
}

/// The backend every bulk operation dispatches to, resolved once per
/// process from the hardware probe and the `LXR_METADATA_SIMD` override.
#[inline]
pub fn active_backend() -> SimdBackend {
    *BACKEND.get_or_init(|| {
        select_backend(std::env::var("LXR_METADATA_SIMD").ok().as_deref(), detect_simd_backend())
    })
}

/// The vector backends usable on this host (ignores the environment
/// override).  Drives the cross-backend differential tests.
pub fn available_simd_backends() -> Vec<SimdBackend> {
    detect_simd_backend().into_iter().collect()
}

/// The result of a [`SideMetadata::group_census`]: one pass over a range
/// yielding both the per-entry occupancy count and per-group (e.g. per-line)
/// emptiness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeCensus {
    /// Number of non-zero entries in the range.
    pub nonzero_entries: usize,
    /// Number of groups whose entries are all zero.
    pub zero_groups: usize,
    /// Bitmap of all-zero groups, LSB-first: bit `g` of word `g / 64` is
    /// set iff group `g` (in range order) is entirely zero.
    pub zero_group_bits: Vec<u64>,
}

impl RangeCensus {
    /// Returns `true` if group `g` was observed entirely zero.
    #[inline]
    pub fn group_is_zero(&self, g: usize) -> bool {
        (self.zero_group_bits[g / 64] >> (g % 64)) & 1 != 0
    }
}

/// A packed side-metadata table: `bits_per_entry` bits per `granule_words`
/// heap words, stored in machine words and scanned by the widest bulk
/// kernel the host supports (SWAR / AVX2 — see the [module docs](self)).
///
/// Entries of 1, 2, 4 and 8 bits are supported (they must divide 8 so that
/// an entry never straddles a byte); the granule must be a power of two so
/// entry location is shift-based.  Single-entry accesses are atomic at byte
/// granularity, so concurrent updates to neighbouring entries are safe.
///
/// # Example
///
/// A 2-bit reference count per 16 bytes of heap (the paper's default):
///
/// ```
/// use lxr_heap::{Address, SideMetadata};
/// // 1024 heap words, granule = 2 words, 2 bits per granule.
/// let rc = SideMetadata::new(1024, 2, 2);
/// let obj = Address::from_word_index(64);
/// assert_eq!(rc.load(obj), 0);
/// assert_eq!(rc.fetch_update(obj, |v| Some(v + 1)), Ok(0));
/// assert_eq!(rc.load(obj), 1);
/// // Word-at-a-time bulk scans:
/// assert_eq!(rc.count_nonzero_range(Address::from_word_index(0), 1024), 1);
/// let (run, len) = rc.find_zero_run(Address::from_word_index(0), 1024, 8).unwrap();
/// assert_eq!(run.word_index(), 0);
/// assert_eq!(len, 32); // entries 0..32 are zero; entry 32 holds the count
/// ```
#[derive(Debug)]
pub struct SideMetadata {
    words: Box<[AtomicUsize]>,
    /// log2 of the granule size in heap words.
    log_granule_words: u32,
    /// log2 of the entry width in bits (0..=3).
    log_bits: u32,
    bits_per_entry: u8,
    /// Value mask for one entry.
    mask: u8,
    /// The low bit of every entry lane, for SWAR occupancy folds.
    lane_lsb: usize,
    /// Number of entries the table tracks.
    num_entries: usize,
    /// Metadata footprint in (logical) bytes: `ceil(entries / per byte)`.
    logical_bytes: usize,
}

impl SideMetadata {
    /// Creates a zeroed table covering `heap_words` words of heap with
    /// `bits_per_entry` bits for every `granule_words` words.
    ///
    /// # Panics
    ///
    /// Panics if `bits_per_entry` is not 1, 2, 4 or 8, or if
    /// `granule_words` is not a power of two.
    pub fn new(heap_words: usize, granule_words: usize, bits_per_entry: u8) -> Self {
        assert!(matches!(bits_per_entry, 1 | 2 | 4 | 8), "entries must be 1, 2, 4 or 8 bits");
        assert!(
            granule_words.is_power_of_two(),
            "granule must be a power of two for shift-based entry location"
        );
        let log_bits = bits_per_entry.trailing_zeros();
        let num_entries = heap_words.div_ceil(granule_words);
        let entries_per_byte = 8 >> log_bits;
        let logical_bytes = num_entries.div_ceil(entries_per_byte);
        let num_words = logical_bytes.div_ceil(WORD_BYTES);
        let words = (0..num_words).map(|_| AtomicUsize::new(0)).collect();
        SideMetadata {
            words,
            log_granule_words: granule_words.trailing_zeros(),
            log_bits,
            bits_per_entry,
            mask: if bits_per_entry == 8 { 0xff } else { (1u8 << bits_per_entry) - 1 },
            lane_lsb: repeat(1, bits_per_entry as u32),
            num_entries,
            logical_bytes,
        }
    }

    /// The number of bits per entry.
    pub fn bits_per_entry(&self) -> u8 {
        self.bits_per_entry
    }

    /// The number of heap words covered by one entry.
    pub fn granule_words(&self) -> usize {
        1 << self.log_granule_words
    }

    /// The maximum representable entry value.
    pub fn max_value(&self) -> u8 {
        self.mask
    }

    /// Total metadata size in bytes (used to report metadata overhead).
    pub fn size_bytes(&self) -> usize {
        self.logical_bytes
    }

    // ---- entry location (shifts only — no division on the access path) ----

    /// log2 of the number of entries per backing word.
    #[inline]
    fn log_entries_per_word(&self) -> u32 {
        LOG_WORD_BITS - self.log_bits
    }

    /// The entry index covering `addr`.
    #[inline]
    fn entry_of(&self, addr: Address) -> usize {
        addr.word_index() >> self.log_granule_words
    }

    /// Locates the entry covering `addr` as (byte index, shift within byte).
    #[inline]
    fn locate(&self, addr: Address) -> (usize, u32) {
        let entry = self.entry_of(addr);
        let byte = entry >> (3 - self.log_bits);
        let shift = ((entry as u32) & ((8 >> self.log_bits) - 1)) << self.log_bits;
        (byte, shift)
    }

    /// Byte-atomic view of the backing words.
    ///
    /// The flip on big-endian targets keeps the byte view consistent with
    /// the word view, where entry `k` of a word occupies bits
    /// `[k * bits, (k + 1) * bits)`.  (The vector backends rely on the byte
    /// and word views coinciding; they are only compiled on little-endian
    /// targets, where the flip is a no-op.)
    ///
    /// The bounds check is unconditional: callers hand this method indexes
    /// derived from arbitrary heap words, including *stale references*
    /// (reclaimed-and-reused granules re-read as pointers) whose bit
    /// patterns can index far outside the table.  An out-of-range index
    /// must be a clean panic, never a wild read — or worse, a wild store
    /// through [`store`](Self::store) into unrelated process memory.  The
    /// check is one perfectly-predicted compare on a load that already
    /// costs an atomic access.
    #[inline]
    fn byte(&self, index: usize) -> &AtomicU8 {
        assert!(index < self.words.len() * WORD_BYTES, "side-metadata index out of range");
        #[cfg(target_endian = "big")]
        let index = (index & !(WORD_BYTES - 1)) | (WORD_BYTES - 1 - (index & (WORD_BYTES - 1)));
        // SAFETY: `index` is within the words allocation (checked above);
        // `AtomicU8` is byte-aligned; the memory is only ever accessed
        // atomically.
        unsafe { AtomicU8::from_ptr((self.words.as_ptr() as *mut u8).add(index)) }
    }

    // ---- single-entry operations (byte-atomic) ----------------------------

    /// Loads the entry covering `addr`.
    #[inline]
    pub fn load(&self, addr: Address) -> u8 {
        let (byte, shift) = self.locate(addr);
        (self.byte(byte).load(Ordering::Acquire) >> shift) & self.mask
    }

    /// Stores `value` into the entry covering `addr`.
    ///
    /// An 8-bit entry owns its whole byte lane, so it is written with a
    /// plain atomic store; narrower entries merge via CAS.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `value` does not fit in the entry.
    #[inline]
    pub fn store(&self, addr: Address, value: u8) {
        debug_assert!(value <= self.mask, "value {value} does not fit in {} bits", self.bits_per_entry);
        let (byte, shift) = self.locate(addr);
        if self.bits_per_entry == 8 {
            self.byte(byte).store(value, Ordering::Release);
            return;
        }
        let cell = self.byte(byte);
        let mut current = cell.load(Ordering::Relaxed);
        loop {
            let new = (current & !(self.mask << shift)) | (value << shift);
            match cell.compare_exchange_weak(current, new, Ordering::AcqRel, Ordering::Relaxed) {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
    }

    /// Atomically updates the entry covering `addr` with `f`.
    ///
    /// `f` receives the current entry value and returns the new value, or
    /// `None` to abort.  Returns `Ok(previous)` if the update was applied and
    /// `Err(current)` if `f` aborted.
    #[inline]
    pub fn fetch_update<F>(&self, addr: Address, mut f: F) -> Result<u8, u8>
    where
        F: FnMut(u8) -> Option<u8>,
    {
        let (byte, shift) = self.locate(addr);
        let cell = self.byte(byte);
        let mut current = cell.load(Ordering::Acquire);
        loop {
            let old = (current >> shift) & self.mask;
            let new = match f(old) {
                Some(v) => {
                    debug_assert!(v <= self.mask);
                    v
                }
                None => return Err(old),
            };
            let new_byte = (current & !(self.mask << shift)) | (new << shift);
            match cell.compare_exchange_weak(current, new_byte, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return Ok(old),
                Err(actual) => current = actual,
            }
        }
    }

    /// Atomically sets the entry covering `addr` from 0 to `value`.
    /// Returns `true` if this call performed the transition.
    #[inline]
    pub fn try_set_from_zero(&self, addr: Address, value: u8) -> bool {
        self.fetch_update(addr, |v| if v == 0 { Some(value) } else { None }).is_ok()
    }

    // ---- shared range arithmetic ------------------------------------------

    /// The entry range `[first, first + count)` covering the word range
    /// `[start, start + words)` — the same entries a per-granule scalar walk
    /// stepping by one granule would visit.
    #[inline]
    fn entry_range(&self, start: Address, words: usize) -> (usize, usize) {
        let first = self.entry_of(start);
        let granule = 1usize << self.log_granule_words;
        let count = (words + granule - 1) >> self.log_granule_words;
        // Unconditional: the vector kernels access the backing words
        // through unchecked pointer arithmetic bounded by this range, so —
        // exactly as with `byte()` — an out-of-range request must be a
        // clean panic, never a wild read or (for the fill kernels) a wild
        // vector store.  One predictable compare per bulk call.
        assert!(first + count <= self.num_entries, "side-metadata range beyond table");
        (first, first + count)
    }

    /// `true` when an entry range is long enough for a vector kernel to
    /// have an interior at all.  Shorter ranges are demoted to SWAR *at the
    /// dispatch site*: the vector kernels are `#[target_feature]` functions
    /// that cannot inline, so letting a one-line occupancy check (a hot
    /// allocator path) enter one just burns an opaque call before falling
    /// back to SWAR anyway.
    #[inline]
    fn simd_span(&self, e0: usize, e1: usize) -> bool {
        e1 - e0 >= 6 << self.log_entries_per_word()
    }

    /// Replicates an entry value across a whole backing word.
    #[inline]
    fn splat(&self, value: u8) -> usize {
        let mut pattern = value as usize;
        let mut width = self.bits_per_entry as u32;
        while width < usize::BITS {
            pattern |= pattern << width;
            width *= 2;
        }
        pattern
    }

    // ---- bulk operations (backend-dispatched) -----------------------------

    /// Returns `true` if every entry covering the word range
    /// `[start, start + words)` is zero.
    pub fn range_is_zero(&self, start: Address, words: usize) -> bool {
        self.range_is_zero_with(active_backend(), start, words)
    }

    /// [`range_is_zero`](Self::range_is_zero) on an explicit backend
    /// (differential tests and benches only).
    #[doc(hidden)]
    pub fn range_is_zero_with(&self, backend: SimdBackend, start: Address, words: usize) -> bool {
        let (e0, e1) = self.entry_range(start, words);
        let backend = if self.simd_span(e0, e1) { backend } else { SimdBackend::Swar };
        match backend {
            SimdBackend::Swar => self.swar_range_is_zero(e0, e1),
            // SAFETY: the Avx2 backend is only ever selected when the CPU
            // reports AVX2 (see `select_backend`).
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Avx2 => unsafe { self.avx2_range_is_zero(e0, e1) },
        }
    }

    /// Counts the non-zero entries covering the word range.
    pub fn count_nonzero_range(&self, start: Address, words: usize) -> usize {
        self.count_nonzero_range_with(active_backend(), start, words)
    }

    /// [`count_nonzero_range`](Self::count_nonzero_range) on an explicit
    /// backend (differential tests and benches only).
    #[doc(hidden)]
    pub fn count_nonzero_range_with(&self, backend: SimdBackend, start: Address, words: usize) -> usize {
        let (e0, e1) = self.entry_range(start, words);
        let backend = if self.simd_span(e0, e1) { backend } else { SimdBackend::Swar };
        match backend {
            SimdBackend::Swar => self.swar_count_nonzero(e0, e1),
            // SAFETY: Avx2 is only selected on CPUs that report AVX2.
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Avx2 => unsafe { self.avx2_count_nonzero(e0, e1) },
        }
    }

    /// Sums all entries covering the word range (used to estimate live bytes
    /// per block from the RC table, §3.3.2).
    pub fn sum_range(&self, start: Address, words: usize) -> usize {
        self.sum_range_with(active_backend(), start, words)
    }

    /// [`sum_range`](Self::sum_range) on an explicit backend (differential
    /// tests and benches only).
    #[doc(hidden)]
    pub fn sum_range_with(&self, backend: SimdBackend, start: Address, words: usize) -> usize {
        let (e0, e1) = self.entry_range(start, words);
        let backend = if self.simd_span(e0, e1) { backend } else { SimdBackend::Swar };
        match backend {
            SimdBackend::Swar => self.swar_sum(e0, e1),
            // SAFETY: Avx2 is only selected on CPUs that report AVX2.
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Avx2 => unsafe { self.avx2_sum(e0, e1) },
        }
    }

    /// Zeroes every entry covering the word range `[start, start + words)`.
    ///
    /// Fully covered backing words take one plain (or vector) store; words
    /// shared with out-of-range entries are merged atomically.
    pub fn clear_range(&self, start: Address, words: usize) {
        self.fill_range_with(active_backend(), start, words, 0);
    }

    /// [`clear_range`](Self::clear_range) on an explicit backend
    /// (differential tests and benches only).
    #[doc(hidden)]
    pub fn clear_range_with(&self, backend: SimdBackend, start: Address, words: usize) {
        self.fill_range_with(backend, start, words, 0);
    }

    /// Sets every entry covering the word range `[start, start + words)` to
    /// `value` — the filling counterpart of
    /// [`clear_range`](Self::clear_range).  Fully covered backing words
    /// take one plain (or vector) store (32 two-bit entries per word
    /// store); words shared with out-of-range entries are merged
    /// atomically.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `value` does not fit in an entry.
    pub fn fill_range(&self, start: Address, words: usize, value: u8) {
        self.fill_range_with(active_backend(), start, words, value);
    }

    /// [`fill_range`](Self::fill_range) on an explicit backend
    /// (differential tests and benches only).
    #[doc(hidden)]
    pub fn fill_range_with(&self, backend: SimdBackend, start: Address, words: usize, value: u8) {
        debug_assert!(value <= self.mask);
        let (e0, e1) = self.entry_range(start, words);
        let backend = if self.simd_span(e0, e1) { backend } else { SimdBackend::Swar };
        let pattern = self.splat(value);
        match backend {
            SimdBackend::Swar => self.swar_fill(e0, e1, pattern),
            // SAFETY: Avx2 is only selected on CPUs that report AVX2.
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Avx2 => unsafe { self.avx2_fill(e0, e1, pattern) },
        }
    }

    /// Wrapping-increments every entry covering the word range
    /// `[start, start + words)`.  Eight entries are bumped per backing word
    /// with a carry-fenced SWAR byte add (clear every byte's top bit, add 1
    /// to each selected lane — no carry can cross a byte once its top bit is
    /// zero — then XOR the top bits back in), merged atomically so
    /// concurrent bumps of *other* entries in the same word are never lost.
    /// The AVX2 backend hoists the value computation (`paddb` over four
    /// words at once) but commits through the same per-word CAS.
    ///
    /// This is the reuse-epoch bump: releasing a block advances the epoch of
    /// all of its lines in `words_per_block / words_per_line / 8` CAS
    /// rounds instead of one byte RMW per line.
    ///
    /// # Panics
    ///
    /// Panics unless the table has 8-bit entries (the only width the epoch
    /// tables use; narrower widths would need masked carry fences).
    pub fn bump_range(&self, start: Address, words: usize) {
        self.bump_range_with(active_backend(), start, words);
    }

    /// [`bump_range`](Self::bump_range) on an explicit backend
    /// (differential tests and benches only).
    #[doc(hidden)]
    pub fn bump_range_with(&self, backend: SimdBackend, start: Address, words: usize) {
        assert_eq!(self.bits_per_entry, 8, "bump_range is defined for 8-bit entries only");
        let (e0, e1) = self.entry_range(start, words);
        let backend = if self.simd_span(e0, e1) { backend } else { SimdBackend::Swar };
        match backend {
            SimdBackend::Swar => self.swar_bump(e0, e1),
            // SAFETY: Avx2 is only selected on CPUs that report AVX2.
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Avx2 => unsafe { self.avx2_bump(e0, e1) },
        }
    }

    /// Zeroes the whole table.
    pub fn clear_all(&self) {
        for word in self.words.iter() {
            word.store(0, Ordering::Relaxed);
        }
    }

    /// Sets every entry in the table to `value`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `value` does not fit in an entry.
    pub fn fill_all(&self, value: u8) {
        debug_assert!(value <= self.mask);
        let pattern = self.splat(value);
        for word in self.words.iter() {
            word.store(pattern, Ordering::Relaxed);
        }
    }

    /// Finds the first maximal run of consecutive zero entries, at least
    /// `min_entries` long, among the entries covering
    /// `[start, start + words)`.
    ///
    /// Returns the address of the run's first granule and the run length in
    /// entries (the run is extended greedily to the first non-zero entry or
    /// the end of the range).  Zero words are skipped 32-to-64 entries at a
    /// time (whole vectors at a time on the SIMD backends), which is what
    /// makes the allocator's recyclable-line hole search and the pause-time
    /// free-line scan cheap.
    ///
    /// ```
    /// use lxr_heap::{Address, SideMetadata};
    /// let m = SideMetadata::new(1024, 2, 2);
    /// m.store(Address::from_word_index(8), 1);
    /// let (run, len) = m.find_zero_run(Address::from_word_index(0), 1024, 4).unwrap();
    /// assert_eq!((run.word_index(), len), (0, 4)); // entries 0..4 precede the live granule
    /// ```
    pub fn find_zero_run(
        &self,
        start: Address,
        words: usize,
        min_entries: usize,
    ) -> Option<(Address, usize)> {
        self.find_zero_run_with(active_backend(), start, words, min_entries)
    }

    /// [`find_zero_run`](Self::find_zero_run) on an explicit backend
    /// (differential tests and benches only).
    ///
    /// The whole zero-run/non-zero-run alternation loop is a single kernel
    /// per backend rather than dispatched per hop: a `#[target_feature]`
    /// function cannot inline into its caller, and on mixed-occupancy
    /// tables (the allocator's recycled-block scan) the per-hop cost of
    /// even a few extra instructions — let alone an opaque call — dominates
    /// the whole search.  Inside the vector kernels each hop starts with an
    /// inlined SWAR gallop probe and escalates to whole-vector skipping
    /// only on stretches long enough to amortize it.
    #[doc(hidden)]
    pub fn find_zero_run_with(
        &self,
        backend: SimdBackend,
        start: Address,
        words: usize,
        min_entries: usize,
    ) -> Option<(Address, usize)> {
        assert!(min_entries > 0, "a zero-length run is meaningless");
        let (e0, e1) = self.entry_range(start, words);
        let backend = if self.simd_span(e0, e1) { backend } else { SimdBackend::Swar };
        let run = match backend {
            SimdBackend::Swar => self.swar_find_zero_run(e0, e1, min_entries),
            // SAFETY: Avx2 is only selected on CPUs that report AVX2.
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Avx2 => unsafe { self.avx2_find_zero_run(e0, e1, min_entries) },
        };
        run.map(|(entry, len)| (Address::from_word_index(entry << self.log_granule_words), len))
    }

    /// Calls `f` with the range-relative index of every non-zero entry
    /// covering `[start, start + words)`, in ascending order.
    ///
    /// This is the set-bit scan behind draining sparse dirty maps (e.g. the
    /// decrement-dirtied block bitmap): zero regions are skipped a word (or
    /// a whole vector) per load, and set lanes are walked with
    /// `trailing_zeros` on the folded occupancy mask — no per-entry byte
    /// atomics.
    ///
    /// ```
    /// use lxr_heap::{Address, SideMetadata};
    /// let m = SideMetadata::new(1024, 2, 1);
    /// m.store(Address::from_word_index(10), 1);
    /// m.store(Address::from_word_index(400), 1);
    /// let mut hits = Vec::new();
    /// m.for_each_nonzero(Address::from_word_index(0), 1024, |e| hits.push(e));
    /// assert_eq!(hits, vec![5, 200]);
    /// ```
    pub fn for_each_nonzero(&self, start: Address, words: usize, f: impl FnMut(usize)) {
        self.for_each_nonzero_with(active_backend(), start, words, f);
    }

    /// [`for_each_nonzero`](Self::for_each_nonzero) on an explicit backend
    /// (differential tests and benches only).
    #[doc(hidden)]
    pub fn for_each_nonzero_with(
        &self,
        backend: SimdBackend,
        start: Address,
        words: usize,
        mut f: impl FnMut(usize),
    ) {
        let (e0, e1) = self.entry_range(start, words);
        let backend = if self.simd_span(e0, e1) { backend } else { SimdBackend::Swar };
        match backend {
            SimdBackend::Swar => self.swar_for_each_nonzero(e0, e1, e0, &mut f),
            // SAFETY: Avx2 is only selected on CPUs that report AVX2.
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Avx2 => unsafe { self.avx2_for_each_nonzero(e0, e1, &mut f) },
        }
    }

    /// One-pass census of the entries covering `[start, start + words)`,
    /// partitioned into groups of `group_words` heap words (e.g. lines):
    /// counts the non-zero entries and identifies the all-zero groups.
    ///
    /// This is how [`RcTable::block_census`](../../lxr_rc/struct.RcTable.html)
    /// derives a block's live-granule count *and* free-line bitmap from a
    /// single scan instead of one `range_is_zero` per line.
    ///
    /// # Panics
    ///
    /// Panics if `group_words` is not a power-of-two multiple of the granule
    /// covering at least one entry, or if the range is not group-aligned.
    pub fn group_census(&self, start: Address, words: usize, group_words: usize) -> RangeCensus {
        self.group_census_with(active_backend(), start, words, group_words)
    }

    /// [`group_census`](Self::group_census) on an explicit backend
    /// (differential tests and benches only).
    #[doc(hidden)]
    pub fn group_census_with(
        &self,
        backend: SimdBackend,
        start: Address,
        words: usize,
        group_words: usize,
    ) -> RangeCensus {
        let granule = 1usize << self.log_granule_words;
        let groups = words.div_ceil(granule) >> (group_words.trailing_zeros() - self.log_granule_words);
        let mut zero_group_bits = vec![0u64; groups.div_ceil(64)];
        let (nonzero_entries, zero_groups) =
            self.group_scan(backend, start, words, group_words, |g| zero_group_bits[g / 64] |= 1 << (g % 64));
        RangeCensus { nonzero_entries, zero_groups, zero_group_bits }
    }

    /// Like [`group_census`](Self::group_census) but returns only
    /// `(nonzero_entries, zero_groups)`, with no bitmap allocation — the
    /// form the pause-time block sweep uses, where only "is the block free"
    /// and "does it have a free line" are needed per block.
    pub fn group_counts(&self, start: Address, words: usize, group_words: usize) -> (usize, usize) {
        self.group_scan(active_backend(), start, words, group_words, |_| {})
    }

    /// [`group_counts`](Self::group_counts) on an explicit backend
    /// (differential tests and benches only).
    #[doc(hidden)]
    pub fn group_counts_with(
        &self,
        backend: SimdBackend,
        start: Address,
        words: usize,
        group_words: usize,
    ) -> (usize, usize) {
        self.group_scan(backend, start, words, group_words, |_| {})
    }

    /// Splits the entry range `[e0, e1)` for a vector kernel of
    /// `vec_bytes`-wide registers: returns
    /// `(byte0, byte_len, m0, m1)` where the *interior* — whole backing
    /// words fully covered by the range, in whole-vector steps — occupies
    /// table bytes `[byte0, byte0 + byte_len)` and covers entries
    /// `[m0, m1)`; the caller delegates the prefix `[e0, m0)` and suffix
    /// `[m1, e1)` to the SWAR kernels.  Returns `None` when the interior is
    /// too small to be worth a vector setup (the whole range then goes to
    /// SWAR).
    #[cfg(target_arch = "x86_64")]
    #[inline]
    fn vec_interior(&self, e0: usize, e1: usize, vec_bytes: usize) -> Option<(usize, usize, usize, usize)> {
        let lepw = self.log_entries_per_word();
        let epw = 1usize << lepw;
        let w0 = (e0 + epw - 1) >> lepw;
        let w1 = e1 >> lepw;
        let words_per_vec = vec_bytes / WORD_BYTES;
        let vw = w1.saturating_sub(w0) & !(words_per_vec - 1);
        if vw < words_per_vec {
            return None;
        }
        Some((w0 * WORD_BYTES, vw * WORD_BYTES, w0 << lepw, (w0 + vw) << lepw))
    }

    /// Interior split for the group-scan kernels (the group-aware analogue
    /// of [`vec_interior`](Self::vec_interior)): for groups of
    /// `1 << log_epg` entries over `[e0, e1)` and a backend register width,
    /// returns
    /// `(byte0, vec_byte_len, group_bytes, m1, interior_groups)` — the
    /// interior occupies table bytes `[byte0, byte0 + vec_byte_len)` and
    /// covers entries `[e0, m1)` as `interior_groups` whole groups, with
    /// the tail `[m1, e1)` delegated to SWAR.  `None` when groups are
    /// sub-byte or the interior is smaller than one vector (whole range to
    /// SWAR).
    ///
    /// The range is group-aligned (asserted by the dispatcher) and groups
    /// here are ≥ 1 byte, so the range starts on a byte boundary and every
    /// group boundary falls at a fixed byte phase within each vector step
    /// (group sizes are powers of two).
    #[cfg(target_arch = "x86_64")]
    #[inline]
    fn group_interior(
        &self,
        e0: usize,
        e1: usize,
        log_epg: u32,
        vec_bytes: usize,
    ) -> Option<(usize, usize, usize, usize, usize)> {
        let group_bits = (1usize << log_epg) << self.log_bits;
        if group_bits < 8 {
            return None;
        }
        let group_bytes = group_bits / 8;
        let total_bytes = ((e1 - e0) << self.log_bits) >> 3;
        let step = group_bytes.max(vec_bytes);
        let vec_byte_len = total_bytes - total_bytes % step;
        if vec_byte_len < vec_bytes {
            return None;
        }
        let b0 = (e0 << self.log_bits) >> 3;
        let m1 = e0 + ((vec_byte_len << 3) >> self.log_bits);
        Some((b0, vec_byte_len, group_bytes, m1, (m1 - e0) >> log_epg))
    }

    /// Raw pointer to the backing storage, for the vector kernels.
    ///
    /// The memory is only ever *written* through atomics (or through plain
    /// vector stores under the bulk-write exclusivity contract — see the
    /// [module docs](self)), and the pointer is derived from the whole
    /// slice, so offsets within `words.len() * WORD_BYTES` stay in
    /// provenance.  Writing through it is permitted despite `&self` because
    /// every byte of an `AtomicUsize` is inside an `UnsafeCell`.
    #[cfg(target_arch = "x86_64")]
    #[inline]
    fn data_ptr(&self) -> *mut u8 {
        self.words.as_ptr() as *mut u8
    }

    /// The single-pass kernel behind [`group_census`](Self::group_census) /
    /// [`group_counts`](Self::group_counts): calls `on_zero_group` with the
    /// (range-relative) index of every all-zero group.
    fn group_scan(
        &self,
        backend: SimdBackend,
        start: Address,
        words: usize,
        group_words: usize,
        mut on_zero_group: impl FnMut(usize),
    ) -> (usize, usize) {
        assert!(group_words.is_power_of_two(), "group must be a power of two");
        assert!(group_words >= self.granule_words(), "group smaller than a granule");
        let log_epg = group_words.trailing_zeros() - self.log_granule_words;
        let (e0, e1) = self.entry_range(start, words);
        assert!(e0 & ((1 << log_epg) - 1) == 0, "range start not group-aligned");
        assert!((e1 - e0) & ((1 << log_epg) - 1) == 0, "range not a whole number of groups");
        match backend {
            SimdBackend::Swar => self.swar_group_scan(e0, e1, log_epg, 0, &mut on_zero_group),
            // SAFETY: Avx2 is only selected on CPUs that report AVX2.
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Avx2 => unsafe { self.avx2_group_scan(e0, e1, log_epg, &mut on_zero_group) },
        }
    }
}
