//! Cross-backend differential tests: every bulk side-metadata operation,
//! on every vector backend this host supports, against the SWAR oracle.
//!
//! The SWAR kernels are themselves property-tested against a naive
//! per-entry model inside the crate (`side_metadata/tests.rs`); this suite
//! closes the loop by proving the vector kernels **bit-identical to SWAR**
//! on randomized tables, entry widths, granules, and — crucially — ranges
//! with misaligned prefixes and suffixes, where the vector backends hand
//! the edges back to SWAR and any split-arithmetic bug would surface as a
//! double-counted or skipped entry.
//!
//! On a host with no vector backend (e.g. an x86-64 machine without AVX2)
//! the suite is a **visible no-op**: [`skip_or_backends`] prints the skip
//! to stderr and the tests return without comparing SWAR to itself, while
//! `dispatcher_selects_swar_without_simd_hardware` (in the crate's unit
//! tests) asserts — rather than assumes — that such hosts dispatch to SWAR.

use lxr_heap::{Address, SideMetadata, SimdBackend};
use proptest::prelude::*;

/// Entries per table in this suite: large enough that every range the
/// generators produce can have a multi-vector interior.
const ENTRIES: usize = 4096;

/// The vector backends to test, or a *printed* skip when there are none.
fn skip_or_backends() -> Vec<SimdBackend> {
    let backends = lxr_heap::available_simd_backends();
    if backends.is_empty() {
        eprintln!(
            "backend_differential: no SIMD backend on this host — skipping \
             (SWAR-only dispatch is asserted by the crate's unit tests)"
        );
    }
    backends
}

/// A table plus a twin with identical contents (for mutation differentials)
/// and the granule used to address entries.
struct Tables {
    a: SideMetadata,
    b: SideMetadata,
    granule: usize,
}

impl Tables {
    fn addr(&self, e: usize) -> Address {
        Address::from_word_index(e * self.granule)
    }
}

/// Builds twin tables.  An odd `seed` lays down a ~70 %-dense pseudo-random
/// base population first (the shape of a hot RC table, where neighbouring
/// lanes pack whole nibbles and bytes with non-zero values — sparse point
/// fills alone would almost never exercise the dense rows of the vector
/// kernels' nibble LUTs); `fills` are point stores applied on top either
/// way.
fn build(bits_sel: u8, granule_sel: u8, seed: u64, fills: &[(usize, u8)]) -> Tables {
    let bits = [1u8, 2, 4, 8][(bits_sel % 4) as usize];
    let granule = [1usize, 2, 4][(granule_sel % 3) as usize];
    let a = SideMetadata::new(ENTRIES * granule, granule, bits);
    let b = SideMetadata::new(ENTRIES * granule, granule, bits);
    match seed & 3 {
        1 => {
            // ~70 % dense, leaving zero gaps for the run and group scans.
            let mut x = seed;
            for e in 0..ENTRIES {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                if (x >> 56) % 10 < 7 {
                    let v = ((x >> 33) as u8) & a.max_value();
                    if v != 0 {
                        a.store(Address::from_word_index(e * granule), v);
                        b.store(Address::from_word_index(e * granule), v);
                    }
                }
            }
        }
        3 => {
            // Every entry non-zero, with the `fills` positions punched back
            // to zero: the shape of a nearly-full block, where the
            // first-zero-lane search crosses long all-occupied stretches —
            // the one access pattern the other modes almost never produce.
            let mut x = seed;
            for e in 0..ENTRIES {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let v = (((x >> 33) as u8) & a.max_value()).max(1);
                a.store(Address::from_word_index(e * granule), v);
                b.store(Address::from_word_index(e * granule), v);
            }
            for &(e, _) in fills {
                let e = e % ENTRIES;
                a.store(Address::from_word_index(e * granule), 0);
                b.store(Address::from_word_index(e * granule), 0);
            }
            return Tables { a, b, granule };
        }
        _ => {}
    }
    for &(e, v) in fills {
        let e = e % ENTRIES;
        let v = v & a.max_value();
        a.store(Address::from_word_index(e * granule), v);
        b.store(Address::from_word_index(e * granule), v);
    }
    Tables { a, b, granule }
}

/// Asserts two tables agree on every entry.
fn assert_tables_equal(t: &Tables, what: &str) {
    for e in 0..ENTRIES {
        assert_eq!(t.a.load(t.addr(e)), t.b.load(t.addr(e)), "{what}: entry {e} diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Read-only bulk queries agree with SWAR bit for bit on every backend,
    /// including ranges whose edges straddle words and vectors.
    #[test]
    fn queries_match_swar(
        bits_sel in 0u8..4,
        granule_sel in 0u8..3,
        seed in 0u64..u64::MAX,
        fills in proptest::collection::vec((0usize..ENTRIES, 1u8..=255), 0..300),
        start_e in 0usize..ENTRIES - 1,
        len_e in 1usize..ENTRIES,
    ) {
        let t = build(bits_sel, granule_sel, seed, &fills);
        let len_e = len_e.min(ENTRIES - start_e);
        let start = t.addr(start_e);
        let words = len_e * t.granule;
        for &backend in &skip_or_backends() {
            prop_assert_eq!(
                t.a.range_is_zero_with(backend, start, words),
                t.a.range_is_zero_with(SimdBackend::Swar, start, words),
                "range_is_zero on {:?}", backend
            );
            prop_assert_eq!(
                t.a.count_nonzero_range_with(backend, start, words),
                t.a.count_nonzero_range_with(SimdBackend::Swar, start, words),
                "count_nonzero_range on {:?}", backend
            );
            prop_assert_eq!(
                t.a.sum_range_with(backend, start, words),
                t.a.sum_range_with(SimdBackend::Swar, start, words),
                "sum_range on {:?}", backend
            );
        }
    }

    /// `find_zero_run` returns the same run (address *and* greedy length)
    /// on every backend.
    #[test]
    fn find_zero_run_matches_swar(
        bits_sel in 0u8..4,
        granule_sel in 0u8..3,
        seed in 0u64..u64::MAX,
        fills in proptest::collection::vec((0usize..ENTRIES, 1u8..=255), 0..120),
        start_e in 0usize..ENTRIES - 1,
        len_e in 1usize..ENTRIES,
        min_run in 1usize..96,
    ) {
        let t = build(bits_sel, granule_sel, seed, &fills);
        let len_e = len_e.min(ENTRIES - start_e);
        let start = t.addr(start_e);
        let words = len_e * t.granule;
        for &backend in &skip_or_backends() {
            prop_assert_eq!(
                t.a.find_zero_run_with(backend, start, words, min_run),
                t.a.find_zero_run_with(SimdBackend::Swar, start, words, min_run),
                "find_zero_run on {:?}", backend
            );
        }
    }

    /// `for_each_nonzero` visits the same entries in the same order on
    /// every backend.
    #[test]
    fn for_each_nonzero_matches_swar(
        bits_sel in 0u8..4,
        granule_sel in 0u8..3,
        seed in 0u64..u64::MAX,
        fills in proptest::collection::vec((0usize..ENTRIES, 1u8..=255), 0..300),
        start_e in 0usize..ENTRIES - 1,
        len_e in 1usize..ENTRIES,
    ) {
        let t = build(bits_sel, granule_sel, seed, &fills);
        let len_e = len_e.min(ENTRIES - start_e);
        let start = t.addr(start_e);
        let words = len_e * t.granule;
        let mut swar = Vec::new();
        t.a.for_each_nonzero_with(SimdBackend::Swar, start, words, |e| swar.push(e));
        for &backend in &skip_or_backends() {
            let mut simd = Vec::new();
            t.a.for_each_nonzero_with(backend, start, words, |e| simd.push(e));
            prop_assert_eq!(&simd, &swar, "for_each_nonzero on {:?}", backend);
        }
    }

    /// `group_census` / `group_counts` agree with SWAR on counts, zero
    /// groups, and the zero-group bitmap — over group sizes from one entry
    /// (sub-byte groups fall back to SWAR internally) up to multi-vector
    /// groups.
    #[test]
    fn group_census_matches_swar(
        bits_sel in 0u8..4,
        granule_sel in 0u8..3,
        seed in 0u64..u64::MAX,
        fills in proptest::collection::vec((0usize..ENTRIES, 1u8..=255), 0..300),
        log_epg in 0u32..10,
        start_sel in 0usize..ENTRIES,
        len_sel in 1usize..ENTRIES,
    ) {
        let t = build(bits_sel, granule_sel, seed, &fills);
        let epg = 1usize << log_epg;
        let group_words = epg * t.granule;
        let start_g = (start_sel / epg).min(ENTRIES / epg - 1);
        let len_g = (len_sel / epg).clamp(1, ENTRIES / epg - start_g);
        let start = t.addr(start_g * epg);
        let words = len_g * epg * t.granule;
        let swar = t.a.group_census_with(SimdBackend::Swar, start, words, group_words);
        let swar_counts = t.a.group_counts_with(SimdBackend::Swar, start, words, group_words);
        for &backend in &skip_or_backends() {
            let simd = t.a.group_census_with(backend, start, words, group_words);
            prop_assert_eq!(&simd, &swar, "group_census on {:?}", backend);
            prop_assert_eq!(
                t.a.group_counts_with(backend, start, words, group_words),
                swar_counts,
                "group_counts on {:?}", backend
            );
        }
    }

    /// `fill_range` / `clear_range` applied by a vector backend leave the
    /// table bit-identical to SWAR applying the same operation — edge words
    /// merged, interior overwritten, neighbours untouched.
    #[test]
    fn fill_and_clear_match_swar(
        bits_sel in 0u8..4,
        granule_sel in 0u8..3,
        seed in 0u64..u64::MAX,
        fills in proptest::collection::vec((0usize..ENTRIES, 1u8..=255), 0..300),
        start_e in 0usize..ENTRIES - 1,
        len_e in 1usize..ENTRIES,
        value in 0u8..=255,
    ) {
        for &backend in &skip_or_backends() {
            let t = build(bits_sel, granule_sel, seed, &fills);
            let len_e = len_e.min(ENTRIES - start_e);
            let start = t.addr(start_e);
            let words = len_e * t.granule;
            let value = value & t.a.max_value();
            t.a.fill_range_with(SimdBackend::Swar, start, words, value);
            t.b.fill_range_with(backend, start, words, value);
            assert_tables_equal(&t, "fill_range");
            t.a.clear_range_with(SimdBackend::Swar, start, words);
            t.b.clear_range_with(backend, start, words);
            assert_tables_equal(&t, "clear_range");
        }
    }

    /// The vector `bump_range` — `paddb` compute, per-word CAS commit —
    /// matches the SWAR carry-fenced bump over random fills (which include
    /// 0xff and 0x7f bytes, so lane wraps and the carry fence are both
    /// exercised) and misaligned ranges.
    #[test]
    fn bump_matches_swar(
        granule_sel in 0u8..3,
        seed in 0u64..u64::MAX,
        fills in proptest::collection::vec((0usize..ENTRIES, 1u8..=255), 0..300),
        start_e in 0usize..ENTRIES - 1,
        len_e in 1usize..ENTRIES,
        rounds in 1usize..4,
    ) {
        for &backend in &skip_or_backends() {
            // bits_sel 3 forces the 8-bit entries bump_range requires.
            let t = build(3, granule_sel, seed, &fills);
            let len_e = len_e.min(ENTRIES - start_e);
            let start = t.addr(start_e);
            let words = len_e * t.granule;
            for _ in 0..rounds {
                t.a.bump_range_with(SimdBackend::Swar, start, words);
                t.b.bump_range_with(backend, start, words);
            }
            assert_tables_equal(&t, "bump_range");
        }
    }
}

/// Deterministic hole sweep: in an otherwise-full table, a single zero
/// entry must be found by `find_zero_run` at *every* alignment — every
/// lane of a byte, every byte of a word, every word of a vector — for
/// every entry width and every neighbour value.  This pins down the
/// first-zero-lane search (`next_zero`), whose trigger shapes (e.g. a zero
/// 2-bit lane whose nibble-mate is 3) are too rare in random tables to be
/// reliably generated.
#[test]
fn single_hole_is_found_at_every_alignment() {
    let mut backends = skip_or_backends();
    backends.push(SimdBackend::Swar);
    for backend in backends {
        for bits in [1u8, 2, 4, 8] {
            let m = SideMetadata::new(2048, 1, bits);
            for neighbour in 1..=m.max_value() {
                m.fill_all(neighbour);
                // Positions covering all vector/word/byte phases at the
                // front, plus deep interior and tail positions.
                for hole in (0..130).chain(1000..1070).chain(1990..2048) {
                    m.store(Address::from_word_index(hole), 0);
                    let got = m.find_zero_run_with(backend, Address::from_word_index(0), 2048, 1);
                    assert_eq!(
                        got.map(|(a, len)| (a.word_index(), len)),
                        Some((hole, 1)),
                        "{backend:?}, {bits}-bit entries, neighbour {neighbour}, hole {hole}"
                    );
                    m.store(Address::from_word_index(hole), neighbour);
                }
            }
        }
    }
}

/// Deterministic carry-fence sweep: every byte value appears in the table,
/// the bumped range is misaligned at both ends, and the expectation is the
/// per-entry wrapping add — so a backend whose carry fence leaks into a
/// neighbouring lane (0xff + 1 carrying into the next byte) or whose edge
/// split double-bumps a boundary word fails on a specific, printable entry.
#[test]
fn bump_carry_fence_exact_on_every_backend() {
    let mut backends = skip_or_backends();
    backends.push(SimdBackend::Swar);
    for backend in backends {
        let m = SideMetadata::new(1024, 1, 8);
        for e in 0..1024 {
            m.store(Address::from_word_index(e), (e % 256) as u8);
        }
        // Entries [3, 997): misaligned against both word (8) and vector
        // (32/16) boundaries.
        m.bump_range_with(backend, Address::from_word_index(3), 997 - 3);
        for e in 0..1024 {
            let before = (e % 256) as u8;
            let expect = if (3..997).contains(&e) { before.wrapping_add(1) } else { before };
            assert_eq!(
                m.load(Address::from_word_index(e)),
                expect,
                "{backend:?}: entry {e} (value {before:#04x})"
            );
        }
    }
}

/// Concurrent bumps of distinct ranges sharing backing words must not lose
/// updates on any backend (the per-word CAS commit is the atomic unit).
#[test]
fn concurrent_vector_bumps_are_not_lost() {
    use std::sync::Arc;
    let mut backends = skip_or_backends();
    backends.push(SimdBackend::Swar);
    for backend in backends {
        let m = Arc::new(SideMetadata::new(4096, 1, 8));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    // Interleaved 64-entry stripes: stripe edges share
                    // backing words and vectors with the neighbouring
                    // threads' stripes.
                    for round in 0..200 {
                        for stripe in (0..4096 / 64).filter(|s| s % 4 == t) {
                            let start = stripe * 64 + (round % 3);
                            let len = 64 - (round % 3);
                            m.bump_range_with(backend, Address::from_word_index(start), len);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // Every entry of stripe s was bumped by its owner thread: 200
        // rounds, with the first `round % 3` entries skipped when the
        // stripe start was offset and the tail shortened accordingly.
        for e in 0..4096usize {
            let within = e % 64;
            // Rounds are offset 0,1,2,0,1,...: offsets 1 and 2 skip the
            // first 1/2 entries and the last 0 entries of the stripe window
            // [offset, 64).  Count the rounds that covered `within`.
            let mut expect = 0u32;
            for round in 0..200 {
                let off = round % 3;
                if within >= off {
                    expect += 1;
                }
            }
            assert_eq!(m.load(Address::from_word_index(e)) as u32, expect % 256, "{backend:?}: entry {e}");
        }
    }
}

/// The runtime probe and the compile-time architecture agree: an x86-64
/// host that reports AVX2 must offer the Avx2 backend, and every other
/// target offers none.
#[test]
fn probe_is_consistent_with_architecture() {
    let backends = lxr_heap::available_simd_backends();
    #[cfg(target_arch = "x86_64")]
    {
        assert_eq!(backends.contains(&SimdBackend::Avx2), std::arch::is_x86_feature_detected!("avx2"));
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        assert!(backends.is_empty());
    }
}
