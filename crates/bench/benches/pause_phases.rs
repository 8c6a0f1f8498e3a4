//! Pause-phase parallelism benchmarks: the block sweep, an
//! increment-shaped transitive workload on the bucket scheduler across
//! worker counts, and the concurrent SATB mark across crew sizes (the crew
//! vs the single-threaded trace oracle).
//!
//! Acceptance targets: parallel `sweep_blocks` ≥ 2× over the sequential
//! baseline at 4 workers (ISSUE 2); single-worker crew overhead vs the
//! sequential trace ≤ 15 % in `concurrent_mark` (ISSUE 3).  Note that
//! scaling numbers are only meaningful on a multi-core host: on a single
//! hardware thread every "parallel" configuration measures scheduling
//! overhead, not speedup.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lxr_core::pause::{sweep_blocks, sweep_blocks_sequential};
use lxr_core::{trace_satb_crew, trace_satb_sequential, LxrConfig, LxrState};
use lxr_heap::{Block, BlockAllocator, BlockState, HeapConfig, HeapSpace, LargeObjectSpace};
use lxr_object::{ObjectReference, ObjectShape};
use lxr_runtime::{GcStats, PlanContext, RuntimeOptions, WorkerPool};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn make_state(heap_bytes: usize) -> Arc<LxrState> {
    let options = RuntimeOptions::default()
        .with_heap_config(HeapConfig::with_heap_size(heap_bytes))
        .with_concurrent_thread(false);
    let space = Arc::new(HeapSpace::new(options.heap.clone()));
    let blocks = Arc::new(BlockAllocator::new(space.clone()));
    let los = Arc::new(LargeObjectSpace::new(space.clone(), blocks.clone()));
    let ctx = PlanContext { space, blocks, los, stats: Arc::new(GcStats::new()), options };
    Arc::new(LxrState::new(&ctx, LxrConfig::default()))
}

/// Populates `blocks` blocks with a stable occupancy mix — half dense (a
/// live granule on every line: the sweep re-marks them Mature), half sparse
/// (free lines: the sweep re-queues them, a no-op once queued) — so
/// sweeping is repeatable without releasing anything between iterations.
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

fn bench_sweep(c: &mut Criterion) {
    let state = make_state(32 << 20);
    let sweep_set = build_sweep_set(&state, 512);
    let mut group = c.benchmark_group("pause_phases/sweep_blocks_512");
    group.sample_size(20);
    group.measurement_time(Duration::from_millis(800));
    group.warm_up_time(Duration::from_millis(150));

    {
        let state = state.clone();
        let sweep_set = sweep_set.clone();
        group.bench_function("sequential", move |b| {
            b.iter(|| sweep_blocks_sequential(&state, &state.stats, black_box(sweep_set.clone())));
        });
    }
    for workers in [1usize, 2, 4, 8] {
        let pool = WorkerPool::new(workers);
        let state = state.clone();
        let sweep_set = sweep_set.clone();
        group.bench_function(&format!("parallel/{workers}w"), move |b| {
            b.iter(|| sweep_blocks(&state, &pool, &state.stats, black_box(sweep_set.clone())));
        });
    }
    group.finish();
}

/// An increment-phase-shaped workload: a transitive binary tree of work
/// items, each doing a small amount of "RC work", scheduled as a one-bucket
/// graph (the flat degenerate case of the bucket DAG, the shape of the
/// pause's increment phase).
fn bench_scheduler(c: &mut Criterion) {
    const TREE_LIMIT: usize = 4096; // 8191 items per phase
    let mut group = c.benchmark_group("pause_phases/increment_tree_8k");
    group.sample_size(20);
    group.measurement_time(Duration::from_millis(800));
    group.warm_up_time(Duration::from_millis(150));

    for workers in [1usize, 2, 4, 8] {
        let pool = WorkerPool::new(workers);
        group.bench_function(&format!("buckets/{workers}w"), move |b| {
            b.iter(|| {
                let count = Arc::new(AtomicUsize::new(0));
                let count2 = count.clone();
                let mut graph = lxr_runtime::BucketGraph::new();
                let bucket = graph.bucket("increments", &[], vec![1usize]);
                pool.run_bucket_graph("bench: increment tree", graph, move |_b, item, handle| {
                    // A granule's worth of "work" per item.
                    black_box((item..item + 16).sum::<usize>());
                    count2.fetch_add(1, Ordering::Relaxed);
                    if item < TREE_LIMIT {
                        handle.push(bucket, 2 * item);
                        handle.push(bucket, 2 * item + 1);
                    }
                });
                assert_eq!(count.load(Ordering::Relaxed), 2 * TREE_LIMIT - 1);
            });
        });
    }
    group.finish();
}

/// Builds a frozen mature object graph for the concurrent-mark benchmark:
/// `blocks` blocks of 8-word objects (4 reference fields each), every
/// object live (RC 1), wired to pseudo-random targets across the whole
/// graph.  Returns the root seeds.
fn build_mark_graph(state: &Arc<LxrState>, blocks: usize) -> Vec<ObjectReference> {
    let g = state.geometry;
    let shape = ObjectShape::new(4, 3, 1); // 1 header + 4 refs + 3 data = 8 words
    let per_block = g.words_per_block() / 8;
    let mut objects = Vec::with_capacity(blocks * per_block);
    for bi in 2..2 + blocks {
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
            // A mix of forward locality and cross-graph fanout.
            let target = if f == 0 { (i + 1) % objects.len() } else { step() % objects.len() };
            state.om.write_ref_field(obj, f, objects[target]);
        }
    }
    objects.iter().step_by(64).copied().collect()
}

/// Concurrent SATB mark: the crew at 1/2/4/8 workers vs the
/// single-threaded trace oracle on the same frozen graph.  Each iteration
/// re-seeds the gray queue and clears the mark bitmap (identical cost for
/// every variant).
fn bench_concurrent_mark(c: &mut Criterion) {
    let state = make_state(32 << 20);
    let roots = build_mark_graph(&state, 192); // ~98k objects
    let mut group = c.benchmark_group("concurrent_mark/trace_98k");
    group.sample_size(10);
    group.measurement_time(Duration::from_millis(1200));
    group.warm_up_time(Duration::from_millis(200));

    let reseed = |state: &Arc<LxrState>| {
        state.clear_marks();
        for &r in &roots {
            state.push_gray(r);
        }
    };

    {
        let state = state.clone();
        group.bench_function("sequential", |b| {
            b.iter(|| {
                reseed(&state);
                assert!(trace_satb_sequential(black_box(&state), || false));
            });
        });
    }
    for crew in [1usize, 2, 4, 8] {
        let state = state.clone();
        let reseed = &reseed;
        group.bench_function(&format!("crew/{crew}w"), move |b| {
            b.iter(|| {
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
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sweep, bench_scheduler, bench_concurrent_mark);
criterion_main!(benches);
