//! Collector and mutator statistics.
//!
//! Every experiment in the paper's evaluation is a statistic over one of
//! three things: wall-clock/pause time, collector work, or barrier activity.
//! [`GcStats`] gathers the first two (barrier activity lives in
//! `lxr_barrier::BarrierStats`): a log of every pause with its duration
//! and attributes (Table 7's pause statistics), cumulative busy time of the
//! stop-the-world and concurrent collector threads (the "cycles" proxy of
//! the LBO analysis, Figure 7b), and a set of work counters (increments,
//! decrements, objects copied, blocks freed, …) used for the reclamation
//! breakdowns.
//!
//! # Accounting without contention
//!
//! The collector's parallel loops count one item at a time
//! (`add(IncrementsApplied, 1)` per increment, and likewise per decrement,
//! death and mark), so a single array of counters would have every GC
//! worker and the concurrent crew bouncing the same few cache lines.  The
//! work counters are therefore *striped*: [`GcStats`] holds a fixed number
//! of cache-line-aligned shards, each a full set of counters, and every
//! thread sticks to one shard for its lifetime.  [`GcStats::add`] is still
//! one relaxed `fetch_add`, but on a line no other running thread writes;
//! the readers ([`GcStats::get`], [`GcStats::snapshot`],
//! [`GcStats::work_summary`]) sum the shards.  A sum is exact for every
//! `add` that happened-before the read — in particular for all collector
//! work once a pause has ended — and, like any relaxed counter, may miss
//! additions racing with it.
//!
//! The two per-object mutator counters (`ObjectsAllocated`,
//! `WordsAllocated`) are not added per object at all: each
//! [`Mutator`](crate::Mutator) keeps them in plain fields and folds them in
//! at its allocation poll, at every safepoint park, on entering a blocked
//! region and on drop.  They are exact whenever the world is stopped and
//! after a mutator is dropped; in between they lag a live mutator by fewer
//! than `poll_interval_allocs` objects.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// Why a collection was triggered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GcReason {
    /// An allocator could not obtain memory.
    Exhausted,
    /// A plan-specific pacing trigger fired (survival threshold, increment
    /// threshold, heap-full margin, …).
    Threshold,
    /// The application (or harness) requested a collection explicitly.
    Requested,
    /// The predictive trigger fired: the allocation-rate predictor forecast
    /// exhaustion within the configured lead, so the collection started
    /// before any allocator actually failed.
    Predictive,
}

impl std::fmt::Display for GcReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GcReason::Exhausted => write!(f, "exhausted"),
            GcReason::Threshold => write!(f, "threshold"),
            GcReason::Requested => write!(f, "requested"),
            GcReason::Predictive => write!(f, "predictive"),
        }
    }
}

/// One stop-the-world pause.
#[derive(Debug, Clone)]
pub struct PauseRecord {
    /// Milliseconds from the start of the run to the start of the pause.
    pub start_ms: f64,
    /// Time taken to bring all mutators to the safepoint.
    pub time_to_stop: Duration,
    /// Stop-the-world duration (all mutators parked).
    pub duration: Duration,
    /// Why the collection was triggered.
    pub reason: GcReason,
    /// A short plan-specific label (e.g. "rc", "rc+satb-start", "full").
    pub kind: &'static str,
    /// Whether this pause initiated a concurrent (SATB) trace.
    pub started_satb: bool,
    /// Whether lazy concurrent work from the previous epoch was still
    /// unfinished when this pause began (Table 7's "!Lazy%").
    pub lazy_incomplete: bool,
    /// Mapped-chunk count at the end of the pause (after any shrink
    /// epilogue) — the footprint-over-time series for elastic heaps.
    pub mapped_chunks: usize,
}

/// Work counters, one per [`WorkCounter`] variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum WorkCounter {
    /// Objects allocated by mutators.
    ObjectsAllocated,
    /// Words allocated by mutators.
    WordsAllocated,
    /// Root slots scanned at pauses.
    RootsScanned,
    /// Reference-count increments applied.
    IncrementsApplied,
    /// Reference-count decrements applied.
    DecrementsApplied,
    /// Objects that received their first increment this epoch (young
    /// survivors / "births").
    YoungSurvivors,
    /// Objects whose count dropped to zero during decrement processing
    /// (mature RC reclamation).
    RcDeaths,
    /// Objects reclaimed by the backup SATB trace (granules cleared in the
    /// mature sweep).
    SatbDeaths,
    /// Objects whose reference count was stuck when the SATB sweep examined
    /// them.
    StuckObjects,
    /// Objects marked by the SATB trace.
    ObjectsMarked,
    /// Reference slots traced (by any tracing activity).
    SlotsTraced,
    /// Young objects copied during pauses.
    YoungObjectsCopied,
    /// Mature objects copied during pauses (evacuation sets).
    MatureObjectsCopied,
    /// Words copied by any evacuation.
    WordsCopied,
    /// Completely free blocks reclaimed from young sweeping.
    YoungBlocksFreed,
    /// Completely free blocks reclaimed from mature sweeping.
    MatureBlocksFreed,
    /// Blocks returned to the recycled (partially free) list.
    BlocksRecycled,
    /// Large objects reclaimed.
    LargeObjectsFreed,
    /// Collections that ran a full-heap (degenerate) stop-the-world cycle —
    /// used by the concurrent-copying baselines when allocation outruns
    /// collection.
    DegeneratedCollections,
    /// Captured references whose reuse-epoch stamp matched at application
    /// time (the common case: the capture was applied).
    EpochChecksPassed,
    /// Captured references dropped because their reuse-epoch stamp no
    /// longer matched — the target line was reclaimed and reused after the
    /// capture, so applying the entry would have corrupted its new
    /// occupant.
    EpochStaleDrops,
    /// Follow-on work items pushed by GC scheduler participants (worker
    /// pool phases plus the concurrent crew's spills and offloads).
    SchedPushes,
    /// Items popped by a scheduler participant from its own local deque.
    SchedPops,
    /// Items a scheduler participant obtained by stealing (a sibling's
    /// deque, a shared injector, or a crew grab from the shared mark
    /// stack).
    SchedSteals,
    /// Times a worker parked waiting for a bucket to open or work to
    /// appear.
    SchedParks,
    /// Concurrent traces that ran in sticky (generational) mode: marks
    /// carried over from the previous trace, gray seeded from roots plus
    /// the field-logged remembered set.
    StickyTraces,
    /// Concurrent traces that ran in full-heap mode (every non-sticky
    /// trace, plus sticky-mode escalations).
    FullTraces,
    /// Granules whose mark bit was carried over into a sticky trace —
    /// heap the trace did not have to re-scan. Zero for full traces.
    TraceGranulesSkipped,
    /// Chunks mapped into the heap (elastic growth events).
    ChunksMapped,
    /// Chunks released back to the OS (elastic shrink events).
    ChunksReleased,
    /// Collections triggered by the predictive (allocation-rate) policy
    /// before exhaustion.
    TriggerPredictive,
    /// Collections triggered only when an allocator actually ran out of
    /// memory (the trigger the predictive policy exists to pre-empt).
    TriggerExhaustion,
    /// Deferrable pacing triggers (threshold/predictive) parked by the
    /// request-aware pause gate to wait for a request boundary.
    GateDeferredTriggers,
    /// Deferred collections released by the gate at a request boundary or
    /// an open-loop idle point (rather than mid-request).
    GateBoundaryPauses,
    /// Concurrent-work kicks issued through the gate by mutators entering
    /// an idle wait (Monk-style opportunism: spend mutator idle CPU on the
    /// concurrent crew).
    GateKicks,
}

const NUM_COUNTERS: usize = WorkCounter::GateKicks as usize + 1;

/// A point-in-time copy of all statistics.
#[derive(Debug, Clone)]
pub struct StatsSnapshot {
    /// Every pause recorded so far.
    pub pauses: Vec<PauseRecord>,
    /// Total stop-the-world collector busy time.
    pub stw_gc_time: Duration,
    /// Total concurrent collector busy time.
    pub concurrent_gc_time: Duration,
    /// Total mutator time lost to GC stalls: every safepoint park (pause
    /// waits, boundary pauses, exhaustion retries) summed across mutators.
    /// The serving harness reports this as allocation-stall time.
    pub alloc_stall_time: Duration,
    /// The work counters.
    pub counters: Vec<(WorkCounter, u64)>,
}

impl StatsSnapshot {
    /// The value of one counter.
    pub fn counter(&self, which: WorkCounter) -> u64 {
        self.counters.iter().find(|(c, _)| *c == which).map(|(_, v)| *v).unwrap_or(0)
    }

    /// Total number of pauses.
    pub fn pause_count(&self) -> usize {
        self.pauses.len()
    }

    /// The given percentile (0.0–100.0) of pause durations, or zero if no
    /// pause was recorded.
    pub fn pause_percentile(&self, pct: f64) -> Duration {
        if self.pauses.is_empty() {
            return Duration::ZERO;
        }
        let mut durations: Vec<Duration> = self.pauses.iter().map(|p| p.duration).collect();
        durations.sort_unstable();
        let rank = ((pct / 100.0) * (durations.len() as f64 - 1.0)).round() as usize;
        durations[rank.min(durations.len() - 1)]
    }

    /// Fraction of pauses that started an SATB trace (Table 7 "SATB%").
    pub fn satb_pause_fraction(&self) -> f64 {
        if self.pauses.is_empty() {
            return 0.0;
        }
        self.pauses.iter().filter(|p| p.started_satb).count() as f64 / self.pauses.len() as f64
    }

    /// Fraction of pauses that began before lazy concurrent work finished
    /// (Table 7 "!Lazy%").
    pub fn lazy_incomplete_fraction(&self) -> f64 {
        if self.pauses.is_empty() {
            return 0.0;
        }
        self.pauses.iter().filter(|p| p.lazy_incomplete).count() as f64 / self.pauses.len() as f64
    }
}

/// Number of counter shards.  More than the collector threads of any
/// configuration in the repository (GC workers + controller + crew) plus a
/// few mutators; threads beyond it share shards, which costs contention,
/// never correctness.
const SHARDS: usize = 16;

/// One full set of work counters on cache lines of its own (128 bytes: the
/// adjacent-line prefetcher pairs 64-byte lines).
#[derive(Debug)]
#[repr(align(128))]
struct CounterShard([AtomicU64; NUM_COUNTERS]);

/// Hands each thread its shard index, round-robin in first-use order.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
}

/// Shared, thread-safe statistics store.
#[derive(Debug)]
pub struct GcStats {
    pauses: Mutex<Vec<PauseRecord>>,
    shards: [CounterShard; SHARDS],
    stw_gc_nanos: AtomicU64,
    concurrent_gc_nanos: AtomicU64,
    alloc_stall_nanos: AtomicU64,
}

impl Default for GcStats {
    fn default() -> Self {
        Self::new()
    }
}

impl GcStats {
    /// Creates an empty statistics store.
    pub fn new() -> Self {
        GcStats {
            pauses: Mutex::new(Vec::new()),
            shards: std::array::from_fn(|_| CounterShard(std::array::from_fn(|_| AtomicU64::new(0)))),
            stw_gc_nanos: AtomicU64::new(0),
            concurrent_gc_nanos: AtomicU64::new(0),
            alloc_stall_nanos: AtomicU64::new(0),
        }
    }

    /// Appends a pause record.
    pub fn record_pause(&self, record: PauseRecord) {
        self.pauses.lock().push(record);
    }

    /// Adds `n` to a work counter (in the calling thread's shard).
    #[inline]
    pub fn add(&self, which: WorkCounter, n: u64) {
        let shard = SHARD.with(|s| *s);
        self.shards[shard].0[which as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Reads a work counter (the sum over the shards).
    pub fn get(&self, which: WorkCounter) -> u64 {
        self.shards.iter().map(|shard| shard.0[which as usize].load(Ordering::Relaxed)).sum()
    }

    /// Accumulates stop-the-world collector busy time.
    pub fn add_stw_time(&self, d: Duration) {
        self.stw_gc_nanos.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Accumulates concurrent collector busy time.
    pub fn add_concurrent_time(&self, d: Duration) {
        self.concurrent_gc_nanos.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Accumulates mutator GC-stall time (one safepoint park).
    pub fn add_alloc_stall(&self, d: Duration) {
        self.alloc_stall_nanos.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Number of pauses recorded so far.
    pub fn pause_count(&self) -> usize {
        self.pauses.lock().len()
    }

    /// One-line dump of every non-zero work counter plus the pause count,
    /// for clean-OOM reports and watchdog state snapshots.
    pub fn work_summary(&self) -> String {
        let mut parts = vec![format!("pauses={}", self.pause_count())];
        for &c in ALL_COUNTERS {
            let v = self.get(c);
            if v != 0 {
                parts.push(format!("{c:?}={v}"));
            }
        }
        parts.join(" ")
    }

    /// Takes a snapshot of everything recorded so far.
    pub fn snapshot(&self) -> StatsSnapshot {
        let counters = ALL_COUNTERS.iter().map(|c| (*c, self.get(*c))).collect();
        StatsSnapshot {
            pauses: self.pauses.lock().clone(),
            stw_gc_time: Duration::from_nanos(self.stw_gc_nanos.load(Ordering::Relaxed)),
            concurrent_gc_time: Duration::from_nanos(self.concurrent_gc_nanos.load(Ordering::Relaxed)),
            alloc_stall_time: Duration::from_nanos(self.alloc_stall_nanos.load(Ordering::Relaxed)),
            counters,
        }
    }
}

/// Every counter, in declaration order (used by snapshots and reports).
pub const ALL_COUNTERS: &[WorkCounter] = &[
    WorkCounter::ObjectsAllocated,
    WorkCounter::WordsAllocated,
    WorkCounter::RootsScanned,
    WorkCounter::IncrementsApplied,
    WorkCounter::DecrementsApplied,
    WorkCounter::YoungSurvivors,
    WorkCounter::RcDeaths,
    WorkCounter::SatbDeaths,
    WorkCounter::StuckObjects,
    WorkCounter::ObjectsMarked,
    WorkCounter::SlotsTraced,
    WorkCounter::YoungObjectsCopied,
    WorkCounter::MatureObjectsCopied,
    WorkCounter::WordsCopied,
    WorkCounter::YoungBlocksFreed,
    WorkCounter::MatureBlocksFreed,
    WorkCounter::BlocksRecycled,
    WorkCounter::LargeObjectsFreed,
    WorkCounter::DegeneratedCollections,
    WorkCounter::EpochChecksPassed,
    WorkCounter::EpochStaleDrops,
    WorkCounter::SchedPushes,
    WorkCounter::SchedPops,
    WorkCounter::SchedSteals,
    WorkCounter::SchedParks,
    WorkCounter::StickyTraces,
    WorkCounter::FullTraces,
    WorkCounter::TraceGranulesSkipped,
    WorkCounter::ChunksMapped,
    WorkCounter::ChunksReleased,
    WorkCounter::TriggerPredictive,
    WorkCounter::TriggerExhaustion,
    WorkCounter::GateDeferredTriggers,
    WorkCounter::GateBoundaryPauses,
    WorkCounter::GateKicks,
];

#[cfg(test)]
mod tests {
    use super::*;

    fn pause(ms: u64, satb: bool, lazy: bool) -> PauseRecord {
        PauseRecord {
            start_ms: 0.0,
            time_to_stop: Duration::from_micros(50),
            duration: Duration::from_millis(ms),
            reason: GcReason::Threshold,
            kind: "rc",
            started_satb: satb,
            lazy_incomplete: lazy,
            mapped_chunks: 0,
        }
    }

    #[test]
    fn counters_accumulate_independently() {
        let s = GcStats::new();
        s.add(WorkCounter::IncrementsApplied, 10);
        s.add(WorkCounter::IncrementsApplied, 5);
        s.add(WorkCounter::DecrementsApplied, 3);
        assert_eq!(s.get(WorkCounter::IncrementsApplied), 15);
        assert_eq!(s.get(WorkCounter::DecrementsApplied), 3);
        assert_eq!(s.get(WorkCounter::ObjectsMarked), 0);
        let snap = s.snapshot();
        assert_eq!(snap.counter(WorkCounter::IncrementsApplied), 15);
    }

    #[test]
    fn striped_counters_sum_exactly_under_contention() {
        // More threads than shards, so some shards are shared; a barrier
        // starts every thread's adds together.  Each thread adds to three
        // distinct counters: one common to all, two picked by its index.
        const THREADS: usize = SHARDS * 2 + 3;
        const ADDS: u64 = 10_000;
        let s = GcStats::new();
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (s, start) = (&s, &start);
                scope.spawn(move || {
                    start.wait();
                    for _ in 0..ADDS {
                        s.add(WorkCounter::IncrementsApplied, 1);
                        s.add(ALL_COUNTERS[4 + t % 3], 2);
                        s.add(ALL_COUNTERS[8 + t % 2], t as u64);
                    }
                });
            }
        });
        let mut expected = [0u64; NUM_COUNTERS];
        for t in 0..THREADS {
            expected[WorkCounter::IncrementsApplied as usize] += ADDS;
            expected[4 + t % 3] += 2 * ADDS;
            expected[8 + t % 2] += t as u64 * ADDS;
        }
        let snap = s.snapshot();
        let mut summary = vec!["pauses=0".to_string()];
        for &c in ALL_COUNTERS {
            assert_eq!(s.get(c), expected[c as usize], "{c:?}");
            assert_eq!(snap.counter(c), expected[c as usize], "{c:?}");
            if expected[c as usize] != 0 {
                summary.push(format!("{c:?}={}", expected[c as usize]));
            }
        }
        assert_eq!(s.work_summary(), summary.join(" "));
    }

    #[test]
    fn pause_percentiles() {
        let s = GcStats::new();
        for ms in [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 100] {
            s.record_pause(pause(ms, false, false));
        }
        let snap = s.snapshot();
        assert_eq!(snap.pause_count(), 10);
        assert_eq!(snap.pause_percentile(50.0), Duration::from_millis(6));
        assert_eq!(snap.pause_percentile(100.0), Duration::from_millis(100));
        assert_eq!(snap.pause_percentile(0.0), Duration::from_millis(1));
    }

    #[test]
    fn pause_fraction_statistics() {
        let s = GcStats::new();
        s.record_pause(pause(1, true, false));
        s.record_pause(pause(1, false, true));
        s.record_pause(pause(1, false, false));
        s.record_pause(pause(1, false, false));
        let snap = s.snapshot();
        assert!((snap.satb_pause_fraction() - 0.25).abs() < 1e-9);
        assert!((snap.lazy_incomplete_fraction() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn empty_snapshot_is_well_behaved() {
        let snap = GcStats::new().snapshot();
        assert_eq!(snap.pause_percentile(99.0), Duration::ZERO);
        assert_eq!(snap.satb_pause_fraction(), 0.0);
        assert_eq!(snap.pause_count(), 0);
    }

    #[test]
    fn alloc_stall_accumulates_and_counter_list_is_complete() {
        let s = GcStats::new();
        s.add_alloc_stall(Duration::from_millis(2));
        s.add_alloc_stall(Duration::from_millis(3));
        assert_eq!(s.snapshot().alloc_stall_time, Duration::from_millis(5));
        assert_eq!(ALL_COUNTERS.len(), NUM_COUNTERS);
        assert_eq!(*ALL_COUNTERS.last().unwrap(), WorkCounter::GateKicks);
    }

    #[test]
    fn gc_time_accumulates() {
        let s = GcStats::new();
        s.add_stw_time(Duration::from_millis(3));
        s.add_stw_time(Duration::from_millis(4));
        s.add_concurrent_time(Duration::from_millis(10));
        let snap = s.snapshot();
        assert_eq!(snap.stw_gc_time, Duration::from_millis(7));
        assert_eq!(snap.concurrent_gc_time, Duration::from_millis(10));
    }
}
