//! Machine-readable scheduler benchmark snapshots (`bench-snapshot`) and
//! regression diffing (`bench-diff`).
//!
//! This is the one definition of the repository's microbenchmarks: it runs
//! each workload in-process and emits a small, hand-rolled JSON document
//! (`BENCH_sched.json` by default) that can be committed next to the code
//! and diffed across PRs:
//!
//! * `pause_phases/sweep_blocks_*` — the block sweep's one routine on one
//!   thread vs the same routine run per packet at 1/2/4/8 workers;
//! * `pause_phases/increment_tree_*` — the scheduler's per-item cost: a
//!   transitive tree of single-item pushes through a one-bucket graph at
//!   1/2/4/8 workers (the pause's own phases move their work in packets,
//!   so this is the cost a packet amortises, not a phase's shape);
//! * `concurrent_mark/trace_*` — the SATB trace, sequential oracle vs the
//!   crew at 1/2/4/8 threads;
//! * `metadata_scan/<kernel>/<tier>` — every side-metadata bulk kernel
//!   (the zero test, the census and sum scans, the hole search on a sparse
//!   and on a nearly-full table, the set-entry walk, fill+clear and the
//!   epoch bump) on the scalar reference walk (where one exists), SWAR,
//!   and whatever backend the host dispatches to;
//! * `sticky_trace/*` — a full-heap trace vs a sticky (generational) cycle
//!   over the same mature graph plus a nursery epoch; these records also
//!   carry `granules_traced`/`objects_marked` (and, for the sticky cycle,
//!   `granules_skipped`) extras, the acceptance evidence for sticky mode
//!   (target: ≥ 3× fewer granules traced per sticky cycle).
//!
//! Whole-workload measurements are not repeated here: the `serve`, `heap`
//! and `barrier-overhead` harness experiments are their only copy.
//!
//! Each record carries the bench id, collector, scheduler variant, worker
//! count, wall-time stats over the measured iterations, and the scheduler
//! work counters (pushes/pops/steals/parks) accumulated while measuring,
//! plus a host fingerprint so numbers from different machines are never
//! compared silently.  `diff` flags any wall-time regression above
//! [`REGRESSION_THRESHOLD`] between two snapshots.
//!
//! The JSON is deliberately line-oriented — one bench record per line — so
//! the diff side needs only a few string scans, not a JSON parser.

use lxr_core::pause::{sweep_blocks, sweep_blocks_sequential};
use lxr_core::{trace_satb_crew, trace_satb_sequential, LxrConfig, LxrState};
use lxr_heap::{
    Address, Block, BlockAllocator, BlockState, HeapConfig, HeapSpace, LargeObjectSpace, SideMetadata,
    SimdBackend,
};
use lxr_object::{ObjectReference, ObjectShape};
use lxr_runtime::{BucketGraph, GcStats, PlanContext, RuntimeOptions, SchedTotals, WorkCounter, WorkerPool};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Wall-time regressions above this fraction (new > old × (1 + threshold))
/// are flagged by [`diff`].
pub const REGRESSION_THRESHOLD: f64 = 0.05;

/// Workload sizes and repetition counts for one snapshot run.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotConfig {
    /// Blocks in the sweep set; also the heap size, in blocks, of the
    /// metadata-scan tables.
    pub sweep_blocks: usize,
    /// Blocks in the frozen mark graph.
    pub mark_blocks: usize,
    /// Tree limit for the increment workload (2 × limit − 1 items).
    pub tree_limit: usize,
    /// Discarded warm-up iterations per bench.
    pub warmup: usize,
    /// Measured iterations per bench (median/min/mean are over these).
    pub iters: usize,
    /// Measured iterations for the (slower) concurrent-mark benches.
    pub mark_iters: usize,
}

impl SnapshotConfig {
    /// Full-size run; this is what the committed `BENCH_sched.json` should
    /// contain.
    pub fn full() -> Self {
        Self { sweep_blocks: 512, mark_blocks: 192, tree_limit: 4096, warmup: 2, iters: 9, mark_iters: 5 }
    }

    /// Reduced sizes for `--quick` smoke runs.
    pub fn quick() -> Self {
        Self { sweep_blocks: 128, mark_blocks: 48, tree_limit: 1024, warmup: 1, iters: 5, mark_iters: 3 }
    }

    /// Tiny sizes for unit tests.
    pub fn tiny() -> Self {
        Self { sweep_blocks: 8, mark_blocks: 2, tree_limit: 32, warmup: 0, iters: 2, mark_iters: 1 }
    }
}

/// One measured bench configuration.
struct BenchRecord {
    id: String,
    scheduler: &'static str,
    /// 0 means "no worker pool" (a sequential oracle on the caller thread).
    workers: usize,
    /// Per-iteration wall times, nanoseconds.
    wall_ns: Vec<u64>,
    /// Scheduler work counters accumulated across the measured iterations.
    counters: SchedTotals,
    /// Group-specific extra fields appended to the JSON record verbatim
    /// (e.g. `granules_traced` for the sticky-trace group).
    extras: Vec<(&'static str, u64)>,
}

impl BenchRecord {
    fn median_ns(&self) -> u64 {
        let mut sorted = self.wall_ns.clone();
        sorted.sort_unstable();
        sorted[sorted.len() / 2]
    }

    fn min_ns(&self) -> u64 {
        *self.wall_ns.iter().min().expect("at least one iteration")
    }

    fn mean_ns(&self) -> u64 {
        self.wall_ns.iter().sum::<u64>() / self.wall_ns.len() as u64
    }

    fn to_json_line(&self) -> String {
        let extras: String =
            self.extras.iter().map(|(k, v)| format!(", \"{k}\": {v}")).collect::<Vec<_>>().join("");
        format!(
            "    {{ \"id\": \"{}\", \"collector\": \"lxr\", \"scheduler\": \"{}\", \"workers\": {}, \
             \"iters\": {}, \"wall_ns\": {{ \"median\": {}, \"min\": {}, \"mean\": {} }}, \
             \"counters\": {{ \"pushes\": {}, \"pops\": {}, \"steals\": {}, \"parks\": {} }}{} }}",
            json_escape(&self.id),
            self.scheduler,
            self.workers,
            self.wall_ns.len(),
            self.median_ns(),
            self.min_ns(),
            self.mean_ns(),
            self.counters.pushes,
            self.counters.pops,
            self.counters.steals,
            self.counters.parks,
            extras,
        )
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .map(|c| match c {
            '"' => "\\\"".to_string(),
            '\\' => "\\\\".to_string(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32),
            c => c.to_string(),
        })
        .collect()
}

/// Times `body` over `warmup` discarded plus `iters` measured iterations.
fn time_iters<F: FnMut()>(warmup: usize, iters: usize, mut body: F) -> Vec<u64> {
    for _ in 0..warmup {
        body();
    }
    let mut wall = Vec::with_capacity(iters);
    for _ in 0..iters {
        let start = Instant::now();
        body();
        wall.push(start.elapsed().as_nanos() as u64);
    }
    wall
}

fn sched_delta(after: SchedTotals, before: SchedTotals) -> SchedTotals {
    SchedTotals {
        pushes: after.pushes - before.pushes,
        pops: after.pops - before.pops,
        steals: after.steals - before.steals,
        parks: after.parks - before.parks,
    }
}

fn make_state_with(heap_bytes: usize, config: LxrConfig) -> Arc<LxrState> {
    let options = RuntimeOptions::default()
        .with_heap_config(HeapConfig::with_heap_size(heap_bytes))
        .with_concurrent_thread(false);
    let space = Arc::new(HeapSpace::new(options.heap.clone()));
    let blocks = Arc::new(BlockAllocator::new(space.clone()));
    let los = Arc::new(LargeObjectSpace::new(space.clone(), blocks.clone()));
    let ctx = PlanContext { space, blocks, los, stats: Arc::new(GcStats::new()), options };
    Arc::new(LxrState::new(&ctx, config))
}

fn make_state(heap_bytes: usize) -> Arc<LxrState> {
    make_state_with(heap_bytes, LxrConfig::default())
}

/// Half dense blocks (re-marked Mature by the sweep), half sparse
/// (re-queued, a no-op once queued), so sweeping the set is repeatable
/// across iterations.
fn build_sweep_set(state: &Arc<LxrState>, blocks: usize) -> Vec<(Block, BlockState)> {
    let g = state.geometry;
    let mut sweep = Vec::with_capacity(blocks);
    for bi in 2..2 + blocks {
        let block = Block::from_index(bi);
        let start = g.block_start(block);
        if bi % 2 == 0 {
            for line in 0..g.lines_per_block() {
                state.rc.increment(ObjectReference::from_address(start.plus(line * g.words_per_line())));
            }
        } else {
            for line in (0..g.lines_per_block()).step_by(4) {
                state.rc.increment(ObjectReference::from_address(start.plus(line * g.words_per_line())));
            }
        }
        state.space.block_states().set(block, BlockState::Mature);
        sweep.push((block, BlockState::Mature));
    }
    sweep
}

/// A frozen mature graph: 8-word objects with four reference fields wired
/// to pseudo-random targets, laid out in `blocks` blocks starting at block
/// `first_block`; returns every object (roots are a `step_by(64)` sample of
/// these).
fn build_mark_graph(state: &Arc<LxrState>, first_block: usize, blocks: usize) -> Vec<ObjectReference> {
    let g = state.geometry;
    let shape = ObjectShape::new(4, 3, 1);
    let per_block = g.words_per_block() / 8;
    let mut objects = Vec::with_capacity(blocks * per_block);
    for bi in first_block..first_block + blocks {
        let block = Block::from_index(bi);
        state.space.block_states().set(block, BlockState::Mature);
        for k in 0..per_block {
            let addr = g.block_start(block).plus(k * 8);
            let obj = state.om.initialize(addr, shape);
            state.rc.increment(obj);
            objects.push(obj);
        }
    }
    let mut x = 0x243f6a8885a308d3u64;
    let mut step = move || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (x >> 33) as usize
    };
    for (i, &obj) in objects.iter().enumerate() {
        for f in 0..4 {
            let target = if f == 0 { (i + 1) % objects.len() } else { step() % objects.len() };
            state.om.write_ref_field(obj, f, objects[target]);
        }
    }
    objects
}

fn bench_sweep(cfg: &SnapshotConfig, out: &mut Vec<BenchRecord>) {
    let state = make_state(32 << 20);
    let sweep_set = build_sweep_set(&state, cfg.sweep_blocks);
    let group = format!("pause_phases/sweep_blocks_{}", cfg.sweep_blocks);

    let wall = time_iters(cfg.warmup, cfg.iters, || {
        sweep_blocks_sequential(&state, black_box(sweep_set.clone()));
    });
    out.push(BenchRecord {
        id: format!("{group}/sequential"),
        scheduler: "sequential",
        workers: 0,
        wall_ns: wall,
        counters: SchedTotals::default(),
        extras: Vec::new(),
    });

    for workers in [1usize, 2, 4, 8] {
        let pool = WorkerPool::new(workers);
        for _ in 0..cfg.warmup {
            sweep_blocks(&state, &pool, black_box(sweep_set.clone()));
        }
        // Counter baseline taken after warm-up so the totals cover exactly
        // the measured iterations.
        let before = pool.sched_totals();
        let wall = time_iters(0, cfg.iters, || {
            sweep_blocks(&state, &pool, black_box(sweep_set.clone()));
        });
        let counters = sched_delta(pool.sched_totals(), before);
        out.push(BenchRecord {
            id: format!("{group}/buckets/{workers}w"),
            scheduler: "buckets",
            workers,
            wall_ns: wall,
            counters,
            extras: Vec::new(),
        });
    }
}

fn bench_increment_tree(cfg: &SnapshotConfig, out: &mut Vec<BenchRecord>) {
    let limit = cfg.tree_limit;
    let items = 2 * limit - 1;
    let group = format!("pause_phases/increment_tree_{items}");

    for workers in [1usize, 2, 4, 8] {
        let pool = WorkerPool::new(workers);
        let one_iter = || {
            let count = Arc::new(AtomicUsize::new(0));
            let count2 = count.clone();
            let mut graph = BucketGraph::new();
            let bucket = graph.bucket("increments", &[], vec![1usize]);
            pool.run_bucket_graph("bench: increment tree", graph, move |_b, item, handle| {
                black_box((item..item + 16).sum::<usize>());
                count2.fetch_add(1, Ordering::Relaxed);
                if item < limit {
                    handle.push(bucket, 2 * item);
                    handle.push(bucket, 2 * item + 1);
                }
            });
            assert_eq!(count.load(Ordering::Relaxed), items);
        };
        for _ in 0..cfg.warmup {
            one_iter();
        }
        let before = pool.sched_totals();
        let wall = time_iters(0, cfg.iters, one_iter);
        let counters = sched_delta(pool.sched_totals(), before);
        out.push(BenchRecord {
            id: format!("{group}/buckets/{workers}w"),
            scheduler: "buckets",
            workers,
            wall_ns: wall,
            counters,
            extras: Vec::new(),
        });
    }
}

fn bench_concurrent_mark(cfg: &SnapshotConfig, out: &mut Vec<BenchRecord>) {
    let state = make_state(32 << 20);
    let roots: Vec<ObjectReference> =
        build_mark_graph(&state, 2, cfg.mark_blocks).iter().step_by(64).copied().collect();
    let g = state.geometry;
    let objects = cfg.mark_blocks * (g.words_per_block() / 8);
    let group = format!("concurrent_mark/trace_{}k", objects / 1000);

    let reseed = |state: &Arc<LxrState>| {
        state.clear_marks();
        for &r in &roots {
            state.push_gray(r);
        }
    };

    let wall = time_iters(cfg.warmup, cfg.mark_iters, || {
        reseed(&state);
        assert!(trace_satb_sequential(black_box(&state), || false));
    });
    out.push(BenchRecord {
        id: format!("{group}/sequential"),
        scheduler: "sequential",
        workers: 0,
        wall_ns: wall,
        counters: SchedTotals::default(),
        extras: Vec::new(),
    });

    for crew in [1usize, 2, 4, 8] {
        // The crew reports its grab/spill traffic through the shared
        // GcStats scheduler counters rather than a worker pool.
        let stats_before = [
            state.stats.get(WorkCounter::SchedPushes),
            state.stats.get(WorkCounter::SchedPops),
            state.stats.get(WorkCounter::SchedSteals),
            state.stats.get(WorkCounter::SchedParks),
        ];
        let wall = time_iters(cfg.warmup, cfg.mark_iters, || {
            reseed(&state);
            if crew == 1 {
                assert!(trace_satb_crew(black_box(&state), || false));
            } else {
                std::thread::scope(|scope| {
                    for _ in 0..crew {
                        let state = state.clone();
                        scope.spawn(move || trace_satb_crew(&state, || false));
                    }
                });
            }
        });
        let counters = SchedTotals {
            pushes: state.stats.get(WorkCounter::SchedPushes) - stats_before[0],
            pops: state.stats.get(WorkCounter::SchedPops) - stats_before[1],
            steals: state.stats.get(WorkCounter::SchedSteals) - stats_before[2],
            parks: state.stats.get(WorkCounter::SchedParks) - stats_before[3],
        };
        out.push(BenchRecord {
            id: format!("{group}/crew/{crew}w"),
            scheduler: "crew",
            workers: crew,
            wall_ns: wall,
            counters,
            extras: Vec::new(),
        });
    }
}

fn bench_metadata_scan(cfg: &SnapshotConfig, out: &mut Vec<BenchRecord>) {
    const BLOCK_WORDS: usize = 4096;
    /// Words per line: the group size of the census and the granule of the
    /// epoch table.
    const LINE_WORDS: usize = 32;
    let heap_words = cfg.sweep_blocks * BLOCK_WORDS;
    // A realistic sparse RC population: roughly 1 in 8 granules live, as
    // after a nursery sweep.
    let m = SideMetadata::new(heap_words, 2, 2);
    let mut x = 0x9e3779b97f4a7c15u64;
    for g in 0..(heap_words / 2) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if x.is_multiple_of(8) {
            m.store(Address::from_word_index(g * 2), 1 + (x % 3) as u8);
        }
    }
    let zeroed = SideMetadata::new(heap_words, 2, 2);
    // A nearly-full table with one 16-entry hole per block: the
    // recycled-line search shape where `find_zero_run` crosses long
    // occupied stretches (the vector skip's best case).
    let full = SideMetadata::new(heap_words, 2, 2);
    full.fill_all(1);
    for b in 0..heap_words / BLOCK_WORDS {
        full.clear_range(Address::from_word_index(b * BLOCK_WORDS + (b % 97) * 32 + 600), 16 * 2);
    }
    let epochs = SideMetadata::new(heap_words, LINE_WORDS, 8);
    let blocks: Vec<Address> =
        (0..heap_words / BLOCK_WORDS).map(|b| Address::from_word_index(b * BLOCK_WORDS)).collect();

    // Every kernel on three tiers: the historical per-granule scalar walk
    // (where a scalar model exists), the portable SWAR kernels, and
    // whatever backend the host actually dispatches to (equal to SWAR on
    // hosts without a vector unit) — a fixed record count, so snapshots
    // from different hosts stay diffable.  Each kernel maps one block to a
    // number so the loop below can sum and `black_box` it.
    type Scalar<'t> = Option<Box<dyn Fn(Address) -> usize + 't>>;
    type Kernel<'t> = Box<dyn Fn(SimdBackend, Address) -> usize + 't>;
    let ops: Vec<(&str, Scalar, Kernel)> = vec![
        (
            "count_nonzero",
            Some(Box::new(|s: Address| m.scalar_count_nonzero_range(s, BLOCK_WORDS))),
            Box::new(|b, s| m.count_nonzero_range_with(b, s, BLOCK_WORDS)),
        ),
        (
            "range_is_zero",
            Some(Box::new(|s: Address| zeroed.scalar_range_is_zero(s, BLOCK_WORDS) as usize)),
            Box::new(|b, s| zeroed.range_is_zero_with(b, s, BLOCK_WORDS) as usize),
        ),
        (
            "sum_range",
            Some(Box::new(|s: Address| m.scalar_sum_range(s, BLOCK_WORDS))),
            Box::new(|b, s| m.sum_range_with(b, s, BLOCK_WORDS)),
        ),
        (
            "find_zero_run",
            Some(Box::new(|s: Address| m.scalar_find_zero_run(s, BLOCK_WORDS, 16).is_some() as usize)),
            Box::new(|b, s| m.find_zero_run_with(b, s, BLOCK_WORDS, 16).is_some() as usize),
        ),
        (
            "find_hole_full",
            Some(Box::new(|s: Address| full.scalar_find_zero_run(s, BLOCK_WORDS, 16).is_some() as usize)),
            Box::new(|b, s| full.find_zero_run_with(b, s, BLOCK_WORDS, 16).is_some() as usize),
        ),
        ("group_counts", None, Box::new(|b, s| m.group_counts_with(b, s, BLOCK_WORDS, LINE_WORDS).0)),
        (
            "for_each_nonzero",
            Some(Box::new(|s: Address| {
                let mut n = 0;
                m.scalar_for_each_nonzero(s, BLOCK_WORDS, |_| n += 1);
                n
            })),
            Box::new(|b, s| {
                let mut n = 0;
                m.for_each_nonzero_with(b, s, BLOCK_WORDS, |_| n += 1);
                n
            }),
        ),
        (
            "fill_clear",
            None,
            Box::new(|b, s| {
                zeroed.fill_range_with(b, s, BLOCK_WORDS, 1);
                zeroed.clear_range_with(b, s, BLOCK_WORDS);
                0
            }),
        ),
        (
            "bump_range",
            Some(Box::new(|s: Address| {
                epochs.scalar_bump_range(s, BLOCK_WORDS);
                0
            })),
            Box::new(|b, s| {
                epochs.bump_range_with(b, s, BLOCK_WORDS);
                0
            }),
        ),
    ];
    let tiers = [("swar", SimdBackend::Swar), ("dispatched", lxr_heap::active_backend())];
    for (op, scalar, kernel) in &ops {
        let mut record = |tier: &'static str, wall_ns| {
            out.push(BenchRecord {
                id: format!("metadata_scan/{op}/{tier}"),
                scheduler: tier,
                workers: 0,
                wall_ns,
                counters: SchedTotals::default(),
                extras: Vec::new(),
            })
        };
        if let Some(scalar) = scalar {
            record(
                "scalar",
                time_iters(cfg.warmup, cfg.iters, || {
                    black_box(blocks.iter().map(|&s| scalar(s)).sum::<usize>());
                }),
            );
        }
        for (tier, backend) in tiers {
            record(
                tier,
                time_iters(cfg.warmup, cfg.iters, || {
                    black_box(blocks.iter().map(|&s| kernel(backend, s)).sum::<usize>());
                }),
            );
        }
    }
}

/// A full-heap trace vs a sticky cycle over the same heap: a mature graph
/// (as in `concurrent_mark`) plus a nursery epoch one eighth its size,
/// wired in from mature slots exactly the way the field-logging barrier
/// records them.  Each sticky iteration re-creates the steady state — young
/// granules unmarked, mature marks carried, the sticky remembered set
/// re-armed — so the measured work is one generational cycle.
fn bench_sticky_trace(cfg: &SnapshotConfig, out: &mut Vec<BenchRecord>) {
    let state = make_state_with(32 << 20, LxrConfig::default().sticky());
    let g = state.geometry;
    let mature = build_mark_graph(&state, 2, cfg.mark_blocks);
    let roots: Vec<ObjectReference> = mature.iter().step_by(64).copied().collect();

    // The nursery epoch: young objects in fresh blocks, chained together,
    // each wired in from a mature slot that the barrier would have
    // field-logged into the sticky remembered set.
    let nursery_blocks = (cfg.mark_blocks / 8).max(1);
    let young = build_mark_graph(&state, 2 + cfg.mark_blocks, nursery_blocks);
    let mut young_slots = Vec::with_capacity(young.len());
    for (j, &y) in young.iter().enumerate() {
        let parent = mature[(j * 17) % mature.len()];
        state.om.write_ref_field(parent, 3, y);
        young_slots.push(parent.to_address().plus(1 + 3));
    }
    let young_start = g.block_start(Block::from_index(2 + cfg.mark_blocks));
    let young_words = nursery_blocks * g.words_per_block();
    let heap_words = g.num_words();
    let marked_granules =
        |state: &Arc<LxrState>| state.marks.count_nonzero_range(Address::from_word_index(0), heap_words);

    // Full-heap trace: clear every mark, seed from roots, trace mature and
    // nursery alike.
    let mut full_granules = 0u64;
    let mut full_marked = 0u64;
    let run_full = |state: &Arc<LxrState>| {
        state.clear_marks();
        for &r in &roots {
            state.push_gray(r);
        }
        let before = state.stats.get(WorkCounter::ObjectsMarked);
        let start = Instant::now();
        assert!(trace_satb_sequential(state, || false));
        let ns = start.elapsed().as_nanos() as u64;
        (ns, state.stats.get(WorkCounter::ObjectsMarked) - before)
    };
    let mut wall = Vec::with_capacity(cfg.mark_iters);
    for i in 0..cfg.warmup + cfg.mark_iters {
        let (ns, marked) = run_full(&state);
        if i >= cfg.warmup {
            wall.push(ns);
            full_granules = marked_granules(&state) as u64;
            full_marked = marked;
        }
    }
    out.push(BenchRecord {
        id: "sticky_trace/full".to_string(),
        scheduler: "sequential",
        workers: 0,
        wall_ns: wall,
        counters: SchedTotals::default(),
        extras: vec![("granules_traced", full_granules), ("objects_marked", full_marked)],
    });

    // Sticky cycle: mature marks carried from the full trace above; only
    // the nursery is unmarked, and the remembered set re-seeds it.
    let mut sticky_granules = 0u64;
    let mut sticky_marked = 0u64;
    let mut sticky_skipped = 0u64;
    let mut wall = Vec::with_capacity(cfg.mark_iters);
    for i in 0..cfg.warmup + cfg.mark_iters {
        state.marks.clear_range(young_start, young_words);
        for &slot in &young_slots {
            state.record_sticky_slot(slot);
        }
        let carried = marked_granules(&state) as u64;
        let before = state.stats.get(WorkCounter::ObjectsMarked);
        let start = Instant::now();
        state.drain_sticky_slots(|slot| {
            let referent = state.om.read_slot(slot);
            if !referent.is_null() && state.in_heap(referent) {
                state.push_gray(referent);
            }
        });
        for &r in &roots {
            state.push_gray(r);
        }
        assert!(trace_satb_sequential(&state, || false));
        let ns = start.elapsed().as_nanos() as u64;
        if i >= cfg.warmup {
            wall.push(ns);
            sticky_granules = marked_granules(&state) as u64 - carried;
            sticky_marked = state.stats.get(WorkCounter::ObjectsMarked) - before;
            sticky_skipped = carried;
        }
    }
    out.push(BenchRecord {
        id: "sticky_trace/sticky_nursery".to_string(),
        scheduler: "sequential",
        workers: 0,
        wall_ns: wall,
        counters: SchedTotals::default(),
        extras: vec![
            ("granules_traced", sticky_granules),
            ("objects_marked", sticky_marked),
            ("granules_skipped", sticky_skipped),
        ],
    });
}

fn host_fingerprint() -> String {
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0);
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{ \"os\": \"{}\", \"arch\": \"{}\", \"cpus\": {}, \"cpu_model\": \"{}\" }}",
        json_escape(std::env::consts::OS),
        json_escape(std::env::consts::ARCH),
        cpus,
        json_escape(&cpu_model)
    )
}

/// Runs every bench configuration; returns the snapshot document
/// (committed as `BENCH_sched.json`).
pub fn snapshot(cfg: &SnapshotConfig) -> String {
    let mut records = Vec::new();
    bench_sweep(cfg, &mut records);
    bench_increment_tree(cfg, &mut records);
    bench_concurrent_mark(cfg, &mut records);
    bench_metadata_scan(cfg, &mut records);
    bench_sticky_trace(cfg, &mut records);

    let unix_time =
        std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0);

    let mut doc = String::new();
    doc.push_str("{\n");
    doc.push_str("  \"schema\": \"lxr-bench-snapshot-v1\",\n");
    doc.push_str(&format!("  \"created_by\": \"lxr-harness {}\",\n", env!("CARGO_PKG_VERSION")));
    doc.push_str(&format!("  \"unix_time\": {unix_time},\n"));
    doc.push_str(&format!("  \"host\": {},\n", host_fingerprint()));
    doc.push_str("  \"benches\": [\n");
    for (i, r) in records.iter().enumerate() {
        doc.push_str(&r.to_json_line());
        doc.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    doc.push_str("  ]\n}\n");
    doc
}

/// Extracts `"key": "value"` from a record line.
fn extract_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\": \"");
    let start = line.find(&tag)? + tag.len();
    let end = line[start..].find('"')? + start;
    Some(&line[start..end])
}

/// Extracts `"key": <number>` from a record line.
fn extract_u64(line: &str, key: &str) -> Option<u64> {
    let tag = format!("\"{key}\": ");
    let start = line.find(&tag)? + tag.len();
    let digits: String = line[start..].chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

/// Parses a snapshot document into `(bench id, median wall ns)` pairs.
/// Only lines carrying an `"id"` field are considered, so the host header
/// and array punctuation are skipped without a JSON parser.
pub fn parse_snapshot(text: &str) -> Vec<(String, u64)> {
    text.lines()
        .filter_map(|line| {
            let id = extract_str(line, "id")?;
            let median = extract_u64(line, "median")?;
            Some((id.to_string(), median))
        })
        .collect()
}

/// The host fingerprint object of a snapshot document, as written.
fn host_of(text: &str) -> Option<&str> {
    text.lines().find_map(|line| line.trim().strip_prefix("\"host\": ")).map(|h| h.trim_end_matches(','))
}

/// Compares two snapshot documents; returns the human-readable report and
/// the number of benches whose median wall time regressed by more than
/// [`REGRESSION_THRESHOLD`].  The report opens with a `host differs` line
/// when the two documents' host fingerprints disagree.
pub fn diff(old_text: &str, new_text: &str) -> (String, usize) {
    let old = parse_snapshot(old_text);
    let new = parse_snapshot(new_text);
    let mut report = String::new();
    let mut regressions = 0usize;

    let (old_host, new_host) = (host_of(old_text), host_of(new_text));
    if old_host != new_host {
        report.push_str(&format!(
            "host differs: {} vs {}\n",
            old_host.unwrap_or("unknown"),
            new_host.unwrap_or("unknown")
        ));
    }
    report.push_str(&format!("{:<56} {:>12} {:>12} {:>8}\n", "bench", "old med ns", "new med ns", "delta"));
    for (id, new_median) in &new {
        match old.iter().find(|(oid, _)| oid == id) {
            Some((_, old_median)) if *old_median > 0 => {
                let ratio = *new_median as f64 / *old_median as f64 - 1.0;
                let flag = if ratio > REGRESSION_THRESHOLD {
                    regressions += 1;
                    "  REGRESSION"
                } else {
                    ""
                };
                report.push_str(&format!(
                    "{:<56} {:>12} {:>12} {:>+7.1}%{}\n",
                    id,
                    old_median,
                    new_median,
                    ratio * 100.0,
                    flag
                ));
            }
            Some(_) => {
                report.push_str(&format!("{:<56} {:>12} {:>12}   (old=0)\n", id, 0, new_median));
            }
            None => {
                report.push_str(&format!("{:<56} {:>12} {:>12}   (new bench)\n", id, "-", new_median));
            }
        }
    }
    for (id, _) in &old {
        if !new.iter().any(|(nid, _)| nid == id) {
            report.push_str(&format!("{id:<56} (removed)\n"));
        }
    }
    report.push_str(&format!(
        "\n{} bench(es) regressed beyond {:.0}%\n",
        regressions,
        REGRESSION_THRESHOLD * 100.0
    ));
    (report, regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_parseable_and_covers_every_group() {
        let doc = snapshot(&SnapshotConfig::tiny());
        let parsed = parse_snapshot(&doc);
        // 5 sweep + 4 tree + 5 mark + 25 metadata (9 kernels × swar and
        // dispatched, plus scalar for the 7 with a scalar model) + 2 sticky
        // configurations.
        assert_eq!(parsed.len(), 41, "unexpected bench count in:\n{doc}");
        assert!(parsed.iter().any(|(id, _)| id.contains("sweep_blocks") && id.ends_with("sequential")));
        assert!(parsed.iter().any(|(id, _)| id.contains("buckets/4w")));
        assert!(parsed.iter().any(|(id, _)| id.contains("crew/8w")));
        for id in [
            "count_nonzero/dispatched",
            "range_is_zero/scalar",
            "sum_range/scalar",
            "find_zero_run/swar",
            "find_hole_full/swar",
            "group_counts/dispatched",
            "for_each_nonzero/scalar",
            "fill_clear/swar",
            "bump_range/dispatched",
        ] {
            assert!(parsed.iter().any(|(p, _)| *p == format!("metadata_scan/{id}")), "no metadata_scan/{id}");
        }
        assert!(!parsed.iter().any(|(id, _)| id.starts_with("barrier_overhead/")));
        assert!(parsed.iter().any(|(id, _)| id == "sticky_trace/full"));
        assert!(parsed.iter().any(|(id, _)| id == "sticky_trace/sticky_nursery"));
        assert!(doc.contains("\"schema\": \"lxr-bench-snapshot-v1\""));
        assert!(doc.contains("\"host\": {"));
        assert!(doc.contains("\"granules_traced\": "));
    }

    #[test]
    fn sticky_cycle_traces_a_fraction_of_the_full_heap() {
        // The acceptance shape of the sticky-trace group at unit scale: the
        // nursery is one eighth of the mature graph (tiny rounds it up to
        // half), so a sticky cycle must trace at most a third of the
        // granules a full-heap trace does.  The committed full-scale
        // numbers are the `sticky_trace/*` records of BENCH_sched.json.
        let mut records = Vec::new();
        bench_sticky_trace(&SnapshotConfig::tiny(), &mut records);
        assert_eq!(records.len(), 2);
        let extra = |r: &BenchRecord, key: &str| {
            r.extras.iter().find(|(k, _)| *k == key).unwrap_or_else(|| panic!("{} has no {key}", r.id)).1
        };
        let (full, sticky) = (&records[0], &records[1]);
        assert_eq!(
            (full.id.as_str(), sticky.id.as_str()),
            ("sticky_trace/full", "sticky_trace/sticky_nursery")
        );
        let full_granules = extra(full, "granules_traced");
        let sticky_granules = extra(sticky, "granules_traced");
        assert!(full_granules > 0);
        assert!(sticky_granules > 0);
        assert!(extra(sticky, "granules_skipped") > 0, "mature marks must carry into the sticky cycle");
        let reduction = full_granules as f64 / sticky_granules as f64;
        assert!(
            reduction >= 2.9,
            "sticky cycle traced {sticky_granules} of {full_granules} granules (reduction {reduction:.2}x)"
        );
        assert!(extra(sticky, "objects_marked") < extra(full, "objects_marked"));
    }

    #[test]
    fn diff_flags_only_regressions_beyond_threshold() {
        let old = "{ \"benches\": [\n\
            { \"id\": \"a\", \"wall_ns\": { \"median\": 1000, \"min\": 1, \"mean\": 1 } },\n\
            { \"id\": \"b\", \"wall_ns\": { \"median\": 1000, \"min\": 1, \"mean\": 1 } },\n\
            { \"id\": \"gone\", \"wall_ns\": { \"median\": 5, \"min\": 1, \"mean\": 1 } }\n] }";
        let new = "{ \"benches\": [\n\
            { \"id\": \"a\", \"wall_ns\": { \"median\": 1049, \"min\": 1, \"mean\": 1 } },\n\
            { \"id\": \"b\", \"wall_ns\": { \"median\": 1100, \"min\": 1, \"mean\": 1 } },\n\
            { \"id\": \"fresh\", \"wall_ns\": { \"median\": 7, \"min\": 1, \"mean\": 1 } }\n] }";
        let (report, regressions) = diff(old, new);
        assert_eq!(regressions, 1, "{report}");
        assert!(report.contains("REGRESSION"));
        assert!(report.contains("(new bench)"));
        assert!(report.contains("gone"));
    }

    #[test]
    fn diff_reports_a_host_change_without_counting_it() {
        let doc = |cpus: u32| {
            format!(
                "{{\n  \"host\": {{ \"os\": \"linux\", \"cpus\": {cpus} }},\n  \"benches\": [\n\
                 {{ \"id\": \"a\", \"wall_ns\": {{ \"median\": 1000, \"min\": 1, \"mean\": 1 }} }}\n] }}"
            )
        };
        let (report, regressions) = diff(&doc(1), &doc(2));
        assert_eq!(regressions, 0, "{report}");
        assert!(
            report.starts_with(
                "host differs: { \"os\": \"linux\", \"cpus\": 1 } vs { \"os\": \"linux\", \"cpus\": 2 }\n"
            ),
            "{report}"
        );
        let (report, _) = diff(&doc(2), &doc(2));
        assert!(!report.contains("host differs"), "{report}");
    }

    #[test]
    fn json_escape_handles_quotes_and_control_chars() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\u000ad");
    }
}
