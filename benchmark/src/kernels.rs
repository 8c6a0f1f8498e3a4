//! Layer rows timed by calling a layer's public function directly, with no
//! runtime around it: the scheduler, the side-metadata kernels, and the
//! request mix under the collector that never collects.

use crate::metrics::median;
use crate::spec::{self, Mix};
use crate::trace::Untraced;
use lxr::heap::{Address, SideMetadata};
use lxr::runtime::{BucketGraph, NoGcPlan, Runtime, RuntimeOptions, WorkerPool};
use lxr::workloads::serve::SessionTable;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The rows timed here, each with the number of samples behind it.
pub struct KernelRows {
    pub bucket_items_per_s: (f64, u64),
    pub census_gib_s: f64,
    pub find_zero_run_ns: f64,
    pub metadata_samples: u64,
    pub nogc_request_us: (f64, u64),
}

pub fn run(mix: &Mix, seed: u64) -> KernelRows {
    let (census_gib_s, find_zero_run_ns, metadata_samples) = side_metadata();
    KernelRows {
        bucket_items_per_s: bucket_items_per_s(),
        census_gib_s,
        find_zero_run_ns,
        metadata_samples,
        nogc_request_us: nogc_request_us(mix, seed),
    }
}

/// `WorkerPool::run_bucket_graph` over an 8 191-item increment tree on two
/// workers: items per second, median of 40 graphs.
fn bucket_items_per_s() -> (f64, u64) {
    const LIMIT: usize = 4_096;
    const ITEMS: usize = 2 * LIMIT - 1;
    const RUNS: usize = 40;
    let pool = WorkerPool::new(2);
    let run = || {
        let count = Arc::new(AtomicUsize::new(0));
        let seen = count.clone();
        let mut graph = BucketGraph::new();
        let bucket = graph.bucket("increments", &[], vec![1usize]);
        let start = Instant::now();
        pool.run_bucket_graph("ledger: increment tree", graph, move |_bucket, item, handle| {
            black_box((item..item + 16).sum::<usize>());
            seen.fetch_add(1, Ordering::Relaxed);
            if item < LIMIT {
                handle.push(bucket, 2 * item);
                handle.push(bucket, 2 * item + 1);
            }
        });
        let elapsed = start.elapsed().as_secs_f64();
        assert_eq!(count.load(Ordering::Relaxed), ITEMS);
        ITEMS as f64 / elapsed
    };
    for _ in 0..5 {
        run();
    }
    (median((0..RUNS).map(|_| run()).collect()), RUNS as u64)
}

/// `count_nonzero_range` and `find_zero_run` on a 1 MiB reference-count table
/// (2-bit entries, 2-word granules: a 64 MiB heap) with one granule in eight
/// live, as after a nursery sweep.  Returns `(census GiB/s, find_zero_run ns
/// per block, samples)`.
fn side_metadata() -> (f64, f64, u64) {
    const TABLE_BYTES: usize = 1 << 20;
    const HEAP_WORDS: usize = TABLE_BYTES * 8;
    const BLOCK_WORDS: usize = 4_096;
    const RUNS: usize = 40;
    let table = SideMetadata::new(HEAP_WORDS, 2, 2);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for g in 0..HEAP_WORDS / 2 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if x.is_multiple_of(8) {
            table.store(Address::from_word_index(g * 2), 1 + (x % 3) as u8);
        }
    }
    let start = Address::from_word_index(0);
    let census = || {
        let t = Instant::now();
        black_box(table.count_nonzero_range(black_box(start), HEAP_WORDS));
        TABLE_BYTES as f64 / (1u64 << 30) as f64 / t.elapsed().as_secs_f64()
    };
    let blocks = HEAP_WORDS / BLOCK_WORDS;
    let holes = || {
        let t = Instant::now();
        for b in 0..blocks {
            black_box(table.find_zero_run(Address::from_word_index(b * BLOCK_WORDS), BLOCK_WORDS, 8));
        }
        t.elapsed().as_nanos() as f64 / blocks as f64
    };
    for _ in 0..5 {
        census();
        holes();
    }
    let census_gib_s = median((0..RUNS).map(|_| census()).collect());
    let find_zero_run_ns = median((0..RUNS).map(|_| holes()).collect());
    (census_gib_s, find_zero_run_ns, RUNS as u64)
}

/// The cost of one request of `mix` when nothing is ever collected: 8 000
/// requests on one thread under `NoGcPlan` in a 192 MiB heap, after the same
/// prefill and 2 000 requests that warm the caches (the alloc mix fills the
/// heap in 11 000).  Microseconds per request.
fn nogc_request_us(mix: &Mix, seed: u64) -> (f64, u64) {
    const WARMUP: u64 = 2_000;
    const REQUESTS: u64 = 8_000;
    let options = RuntimeOptions::default().with_heap_size(192 << 20).with_concurrent_thread(false);
    let runtime = Runtime::new::<NoGcPlan>(options);
    let mut m = runtime.bind_mutator();
    let mut table = SessionTable::with_session_slots(&mut m, spec::SESSIONS, spec::SESSION_SLOTS);
    spec::prefill(&mut m, &mut table);
    let mut start = Instant::now();
    for id in 0..WARMUP + REQUESTS {
        if id == WARMUP {
            start = Instant::now();
        }
        m.begin_request();
        spec::service(&mut m, &mut table, mix, seed, id, &mut Untraced);
        m.end_request();
    }
    let us = start.elapsed().as_secs_f64() * 1e6 / REQUESTS as f64;
    drop(m);
    runtime.shutdown();
    (us, REQUESTS)
}
