//! The workload engine: drives mutator threads against a collector
//! according to a [`BenchmarkSpec`], measuring throughput and (for the
//! latency-critical workloads) metered request latency.

use crate::spec::BenchmarkSpec;
use lxr_baselines::{minimum_heap_for, plan_registry};
use lxr_object::ObjectShape;
use lxr_runtime::{Runtime, RuntimeOptions, StatsSnapshot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The outcome of one workload execution.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// Collector name.
    pub collector: String,
    /// Heap factor relative to the benchmark's minimum heap.
    pub heap_factor: f64,
    /// Wall-clock execution time.
    pub wall_time: Duration,
    /// Total bytes allocated by the mutators.
    pub allocated_bytes: usize,
    /// Requests per second (latency-critical workloads only).
    pub qps: Option<f64>,
    /// Sorted metered request latencies (latency-critical workloads only).
    pub latencies: Vec<Duration>,
    /// Collector statistics captured at the end of the run.
    pub gc: StatsSnapshot,
    /// Whether the run failed because the collector could not operate in
    /// the requested heap (e.g. ZGC below its minimum heap).
    pub skipped: bool,
    /// An integrity failure detected by the workload (e.g. a truncated
    /// live list), with the verifier's diagnosis.  The engine reports it
    /// here instead of panicking so the harness can print the report and
    /// exit non-zero.
    pub failure: Option<String>,
}

impl WorkloadResult {
    /// The latency at `pct` percent (0–100), if latencies were measured.
    pub fn latency_percentile(&self, pct: f64) -> Option<Duration> {
        if self.latencies.is_empty() {
            return None;
        }
        let rank = ((pct / 100.0) * (self.latencies.len() as f64 - 1.0)).round() as usize;
        Some(self.latencies[rank.min(self.latencies.len() - 1)])
    }

    /// A cycles-like cost: mutator wall time across threads plus collector
    /// busy time (stop-the-world and concurrent), used by the LBO analysis
    /// of Figure 7(b).
    pub fn cycles_proxy(&self, mutator_threads: usize) -> Duration {
        self.wall_time * mutator_threads as u32 + self.gc.stw_gc_time + self.gc.concurrent_gc_time
    }
}

/// Options controlling a workload execution.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Heap size as a multiple of the benchmark's minimum heap.
    pub heap_factor: f64,
    /// Scale applied to the benchmark's allocation volume and request count
    /// (use < 1.0 for quick runs, e.g. in benches and tests).
    pub scale: f64,
    /// Random seed.
    pub seed: u64,
    /// Forced collections after the workload finishes (and after the wall
    /// time is captured, so timing results are unaffected).  Lets tests
    /// deterministically complete an in-flight concurrent trace; 0 (the
    /// default) preserves the pure workload-driven behaviour.
    pub final_gcs: usize,
    /// Makes the heap elastic: the minimum heap as a multiple of the
    /// benchmark's minimum heap (the maximum stays at
    /// [`heap_factor`](Self::heap_factor)).  `None` (the default) keeps
    /// the classic fixed-extent heap.
    pub min_heap_factor: Option<f64>,
    /// The runtime the workload runs on.  The engine replaces
    /// [`heap`](RuntimeOptions::heap) with the benchmark's heap at
    /// [`heap_factor`](Self::heap_factor) (elastic down to
    /// [`min_heap_factor`](Self::min_heap_factor) when set); every other
    /// field is used as given.  Defaults to 4 GC workers and a crew of 2.
    pub runtime: RuntimeOptions,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            heap_factor: 2.0,
            scale: 1.0,
            seed: 12345,
            final_gcs: 0,
            min_heap_factor: None,
            runtime: RuntimeOptions::default().with_gc_workers(4).with_concurrent_workers(2),
        }
    }
}

impl RunOptions {
    /// Sets the heap factor.
    pub fn with_heap_factor(mut self, f: f64) -> Self {
        self.heap_factor = f;
        self
    }

    /// Sets the workload scale.
    pub fn with_scale(mut self, s: f64) -> Self {
        self.scale = s;
        self
    }

    /// Sets the number of forced end-of-run collections.
    pub fn with_final_gcs(mut self, n: usize) -> Self {
        self.final_gcs = n;
        self
    }

    /// Makes the heap elastic, with the minimum at `f` times the
    /// benchmark's minimum heap (must not exceed the heap factor).
    pub fn with_min_heap_factor(mut self, f: f64) -> Self {
        self.min_heap_factor = Some(f);
        self
    }

    /// Maps the runtime options (GC threads, verifier, watchdog, ...).
    pub fn with_runtime(mut self, f: impl FnOnce(RuntimeOptions) -> RuntimeOptions) -> Self {
        self.runtime = f(self.runtime);
        self
    }
}

/// Runs `spec` against the collector named `collector`.
///
/// Returns a skipped result (rather than panicking) when the collector
/// cannot run in the requested heap, mirroring the paper's "ZGC cannot run
/// some workloads" annotations.
pub fn run_workload(spec: &BenchmarkSpec, collector: &str, options: &RunOptions) -> WorkloadResult {
    let heap_bytes = spec.heap_bytes(options.heap_factor);
    if let Some(min) = minimum_heap_for(collector) {
        if heap_bytes < min {
            return WorkloadResult {
                benchmark: spec.name,
                collector: collector.to_string(),
                heap_factor: options.heap_factor,
                wall_time: Duration::ZERO,
                allocated_bytes: 0,
                qps: None,
                latencies: Vec::new(),
                gc: lxr_runtime::GcStats::new().snapshot(),
                skipped: true,
                failure: None,
            };
        }
    }
    let mut runtime_options =
        RuntimeOptions { heap: Default::default(), ..options.runtime.clone() }.with_heap_size(heap_bytes);
    if let Some(min_factor) = options.min_heap_factor {
        runtime_options = runtime_options.with_heap_range(spec.heap_bytes(min_factor), heap_bytes);
    }
    let runtime = Runtime::with_factory(runtime_options, plan_registry(collector));

    let start = Instant::now();
    let (allocated_bytes, latencies, failure) = if spec.is_latency_critical() {
        run_latency(&runtime, spec, options)
    } else {
        run_throughput(&runtime, spec, options)
    };
    let wall_time = start.elapsed();
    for _ in 0..options.final_gcs {
        runtime.request_gc_and_wait();
    }
    let gc = runtime.stats().snapshot();
    runtime.shutdown();

    let qps = spec.latency.map(|l| {
        let requests = (l.num_requests as f64 * options.scale).max(1.0);
        requests / wall_time.as_secs_f64()
    });
    WorkloadResult {
        benchmark: spec.name,
        collector: collector.to_string(),
        heap_factor: options.heap_factor,
        wall_time,
        allocated_bytes,
        qps,
        latencies,
        gc,
        skipped: false,
        failure,
    }
}

/// One mutator thread's slice of a throughput workload.
fn throughput_thread(
    runtime: Runtime,
    spec: BenchmarkSpec,
    options: RunOptions,
    thread_index: usize,
    target_bytes: usize,
) -> Result<usize, String> {
    let mut mutator = runtime.bind_mutator();
    let mut rng = StdRng::seed_from_u64(options.seed ^ (thread_index as u64) << 32);
    let mut allocated = 0usize;

    // The survivor store: a root-held table whose entries hold the objects
    // that "survive the nursery".  Its capacity is sized so the live heap
    // stays near the benchmark's minimum-heap share for this thread.
    let live_budget_words = (spec.min_heap_mb << 20) / 8 / 2 / spec.mutator_threads;
    let store_slots = (live_budget_words / spec.mean_object_words.max(2)).clamp(64, 60_000) as u16;
    let store_root = {
        let store = mutator.alloc(store_slots, 0, 0);
        mutator.push_root(store)
    };

    // avrora's tracing-hostile structure: a long singly-linked list that
    // stays live for the whole run.
    let list_root = if spec.linked_list_stress {
        let head = mutator.alloc(1, 1, 99);
        let head_root = mutator.push_root(head);
        let cursor_root = mutator.push_root(head);
        for i in 0..30_000u64 {
            let node = mutator.alloc(1, 1, 99);
            mutator.write_data(node, 0, i);
            let cursor = mutator.root(cursor_root);
            mutator.write_ref(cursor, 0, node);
            mutator.set_root(cursor_root, node);
        }
        mutator.pop_root();
        Some(head_root)
    } else {
        None
    };

    let large_object_words = 3 * 1024; // 24 KB > the 16 KB threshold
    while allocated < target_bytes {
        // Choose the object shape.
        let is_large = rng.gen_bool(spec.large_fraction / 8.0);
        let (nrefs, ndata): (u16, u16) = if is_large {
            (1, large_object_words as u16)
        } else {
            let size = spec.mean_object_words.max(3);
            let data = rng.gen_range(1..=(2 * size - 2).max(2)) as u16;
            (2, data)
        };
        let obj = mutator.alloc(nrefs, ndata, 1);
        mutator.write_data(obj, 0, allocated as u64);
        allocated += ObjectShape::new(nrefs, ndata, 1).size_words() * 8;

        // Nursery survival: a fraction of objects are installed in the
        // survivor store (evicting, and thereby killing, a mature object).
        if rng.gen_bool(spec.survival_rate.clamp(0.0, 1.0)) {
            let slot = rng.gen_range(0..store_slots as usize);
            let store = mutator.root(store_root);
            // Pointer churn: wire the new survivor to an existing one,
            // creating mature-to-mature references and occasional cycles.
            if rng.gen_bool(spec.pointer_churn) {
                let other = mutator.read_ref(store, rng.gen_range(0..store_slots as usize));
                mutator.write_ref(obj, 0, other);
            }
            mutator.write_ref(store, slot, obj);
        }

        // Periodically traverse the live list (avrora) to keep its payload
        // hot and verify integrity.
        if let Some(list_root) = list_root {
            if allocated % (1 << 20) < 64 {
                let mut cursor = mutator.root(list_root);
                let mut prev = cursor;
                let mut hops = 0u64;
                while !cursor.is_null() && hops < 30_000 {
                    prev = cursor;
                    cursor = mutator.read_ref(cursor, 0);
                    hops += 1;
                }
                if hops < 30_000 {
                    return Err(integrity_failure(&runtime, thread_index, hops, prev));
                }
            }
        }
    }
    Ok(allocated)
}

/// Builds the diagnosis for a truncated live list: the last node reached
/// (every metadata layer the plan can describe) plus a full verifier
/// report.  The other mutator threads are still running, so the audit is
/// best-effort — but a genuine corruption has already been observed, and
/// its block/line state is exactly what the report is for.
fn integrity_failure(
    runtime: &Runtime,
    thread_index: usize,
    hops: u64,
    last: lxr_object::ObjectReference,
) -> String {
    let mut msg =
        format!("integrity: thread {thread_index} found the live linked list truncated after {hops} hops\n");
    if let Some(desc) = runtime.plan().describe_object(last) {
        msg.push_str(&format!("  last node reached: {desc}\n"));
    }
    msg.push_str("  verifier (best-effort; mutators still running):\n");
    for line in runtime.verify_now().to_string().lines() {
        msg.push_str(&format!("    {line}\n"));
    }
    msg
}

/// Out-edges per social-graph hub: the wide fanout that defeats a shallow
/// trace.
const SG_FANOUT: usize = 32;
/// Hubs per cluster (a "community"): edges stay inside the cluster, so a
/// retired cluster is a self-contained, mutually cyclic neighbourhood.
const SG_CLUSTER: usize = 16;

/// One mutator thread's slice of the social-graph-churn workload: a table
/// of wide-fanout *hub* objects grouped into clusters, densely wired
/// within each cluster (back-edges and cycles are the norm), continuously
/// rewired, with young churn attaching survivors into the graph.
/// Periodically a whole cluster is retired — its table slots are
/// overwritten with a fresh generation — dropping a mutually cyclic
/// neighbourhood at once.  Retired neighbourhoods keep each other's counts
/// up, so they are exactly the garbage RC cannot touch: reclaiming them is
/// the backup trace's job, and on this workload time-to-reclaim tracks
/// concurrent-mark throughput.
fn social_graph_thread(
    runtime: Runtime,
    spec: BenchmarkSpec,
    options: RunOptions,
    thread_index: usize,
    target_bytes: usize,
) -> usize {
    let mut mutator = runtime.bind_mutator();
    let mut rng = StdRng::seed_from_u64(options.seed ^ (thread_index as u64) << 32 ^ 0x50C1A1);
    let mut allocated = 0usize;

    // Size the cluster population so the live graph fills about half this
    // thread's share of the minimum heap.
    let live_budget_words = (spec.min_heap_mb << 20) / 8 / 2 / spec.mutator_threads;
    let hub_words = 1 + SG_FANOUT + 4;
    let num_clusters = (live_budget_words / (SG_CLUSTER * hub_words)).clamp(4, 256);
    let num_hubs = num_clusters * SG_CLUSTER;
    let table_root = {
        let table = mutator.alloc(num_hubs as u16, 0, 0);
        mutator.push_root(table)
    };

    // (Re)builds one cluster: a fresh generation of hubs, each wired to a
    // random half-fanout of its siblings.  Overwriting the table slots
    // drops the previous generation — a cyclic neighbourhood dies whole.
    let build_cluster =
        |mutator: &mut lxr_runtime::Mutator, rng: &mut StdRng, cluster: usize, allocated: &mut usize| {
            for j in 0..SG_CLUSTER {
                let hub = mutator.alloc(SG_FANOUT as u16, 4, 1);
                mutator.write_data(hub, 0, (cluster * SG_CLUSTER + j) as u64);
                *allocated += ObjectShape::new(SG_FANOUT as u16, 4, 1).size_words() * 8;
                let table = mutator.root(table_root);
                mutator.write_ref(table, cluster * SG_CLUSTER + j, hub);
            }
            for j in 0..SG_CLUSTER {
                let table = mutator.root(table_root);
                let hub = mutator.read_ref(table, cluster * SG_CLUSTER + j);
                for k in 0..SG_FANOUT / 2 {
                    let sibling = cluster * SG_CLUSTER + rng.gen_range(0..SG_CLUSTER);
                    let other = mutator.read_ref(table, sibling);
                    mutator.write_ref(hub, k, other);
                }
            }
        };
    for c in 0..num_clusters {
        build_cluster(&mut mutator, &mut rng, c, &mut allocated);
    }

    while allocated < target_bytes {
        // Young churn: a post/message node.
        let data = (spec.mean_object_words.max(4) - 3) as u16;
        let node = mutator.alloc(2, data, 2);
        mutator.write_data(node, 0, allocated as u64);
        allocated += ObjectShape::new(2, data, 2).size_words() * 8;

        let table = mutator.root(table_root);
        if rng.gen_bool(spec.survival_rate.clamp(0.0, 1.0)) {
            // The node survives: attach it under a random hub (evicting,
            // and thereby killing, the previous occupant) and link it back
            // to its hub — a young-to-mature cycle once it is retained.
            let hub = mutator.read_ref(table, rng.gen_range(0..num_hubs));
            mutator.write_ref(node, 0, hub);
            mutator.write_ref(hub, SG_FANOUT / 2 + rng.gen_range(0..SG_FANOUT / 2), node);
        }
        if rng.gen_bool(spec.pointer_churn) {
            // Rewire a mature hub-to-hub edge within a cluster (follower
            // churn).
            let c = rng.gen_range(0..num_clusters);
            let a = mutator.read_ref(table, c * SG_CLUSTER + rng.gen_range(0..SG_CLUSTER));
            let b = mutator.read_ref(table, c * SG_CLUSTER + rng.gen_range(0..SG_CLUSTER));
            mutator.write_ref(a, rng.gen_range(0..SG_FANOUT / 2), b);
        }
        // Roughly every 128 KB of churn, retire one whole cluster: its
        // hubs (plus their attached survivors) become unreachable but keep
        // each other's reference counts up — cyclic mature garbage only
        // the trace reclaims.  The cadence keeps the equilibrium volume of
        // floating cyclic garbage around a quarter of the churn rate:
        // enough to make the backup trace the reclamation bottleneck,
        // without demanding more than a trace per handful of epochs.
        if allocated % (128 << 10) < 64 {
            let c = rng.gen_range(0..num_clusters);
            build_cluster(&mut mutator, &mut rng, c, &mut allocated);
        }
    }
    allocated
}

/// Allocation bursts per traffic-spike run.
const TS_BURSTS: usize = 4;
/// Idle-phase allocation as a fraction of the burst volume.
const TS_IDLE_TRICKLE: f64 = 1.0 / 64.0;
/// Housekeeping collections per idle phase (the periodic idle GCs
/// production VMs schedule): these give the shrink policy the consecutive
/// cold observations it needs to release the burst's chunks.
const TS_IDLE_GCS: usize = 3;

/// One mutator thread's slice of the traffic-spike workload: `TS_BURSTS`
/// cycles of *burst* (rapid allocation with half the volume retained in a
/// survivor store — the live set surges with the traffic) followed by
/// *idle* (the store is dropped, a trickle of housekeeping allocation
/// remains, and a few idle-time collections run).  Under a fixed-extent
/// heap the footprint never recovers from the first burst; under an
/// elastic heap the mapped-chunk count should saw-tooth with the phases.
fn traffic_spike_thread(
    runtime: Runtime,
    spec: BenchmarkSpec,
    options: RunOptions,
    thread_index: usize,
    target_bytes: usize,
) -> usize {
    let mut mutator = runtime.bind_mutator();
    let mut rng = StdRng::seed_from_u64(options.seed ^ (thread_index as u64) << 32 ^ 0x5B1CE);
    let mut allocated = 0usize;

    // The burst's retained state: sized to this thread's share of the
    // *minimum* heap's live budget (the same convention as the other
    // workloads).  The store must stay evacuable by a half-reserve copying
    // collector even near the elastic floor — the footprint spike comes
    // from the burst's allocation volume, not from the retained live set.
    let live_budget_words = (spec.min_heap_mb << 20) / 8 / 2 / spec.mutator_threads;
    let store_slots = (live_budget_words / spec.mean_object_words.max(2)).clamp(64, 60_000) as u16;
    let store_root = {
        let store = mutator.alloc(store_slots, 0, 0);
        mutator.push_root(store)
    };

    // A traffic spike that fits inside the baseline heap is no spike at
    // all, so however small the run's scale, each burst allocates at least
    // 1.5× this thread's share of the minimum heap (pushing an elastic
    // heap past its floor before the idle phase lets it shrink back) and
    // 0.75× its share of the *maximum* heap (pressuring the provisioned
    // ceiling, which is what lets the allocation-rate predictor fire
    // collections ahead of outright exhaustion).
    let min_share = (spec.min_heap_mb << 20) * 3 / 2 / spec.mutator_threads;
    let max_share = spec.heap_bytes(options.heap_factor) * 3 / 4 / spec.mutator_threads;
    let burst_floor = min_share.max(max_share);
    let per_burst = (target_bytes / TS_BURSTS).max(burst_floor);
    let burst_bytes = (per_burst as f64 * (1.0 - TS_IDLE_TRICKLE)) as usize;
    let trickle_bytes = per_burst - burst_bytes;
    for _ in 0..TS_BURSTS {
        // Burst: the spike hits.  High survival fills the store.
        let burst_end = allocated + burst_bytes;
        while allocated < burst_end {
            let size = spec.mean_object_words.max(3);
            let data = rng.gen_range(1..=(2 * size - 2).max(2)) as u16;
            let obj = mutator.alloc(1, data, 1);
            mutator.write_data(obj, 0, allocated as u64);
            allocated += ObjectShape::new(1, data, 1).size_words() * 8;
            if rng.gen_bool(spec.survival_rate.clamp(0.0, 1.0)) {
                let store = mutator.root(store_root);
                let slot = rng.gen_range(0..store_slots as usize);
                if rng.gen_bool(spec.pointer_churn) {
                    let other = mutator.read_ref(store, rng.gen_range(0..store_slots as usize));
                    mutator.write_ref(obj, 0, other);
                }
                mutator.write_ref(store, slot, obj);
            }
        }
        // The spike passes: drop the retained state.
        let store = mutator.root(store_root);
        for slot in 0..store_slots as usize {
            mutator.write_ref(store, slot, lxr_object::ObjectReference::NULL);
        }
        // Idle: a trickle of housekeeping allocation and a few idle-time
        // collections, during which a well-behaved elastic heap releases
        // the burst's chunks.
        let idle_end = allocated + trickle_bytes;
        let gc_stride = trickle_bytes / TS_IDLE_GCS.max(1) + 1;
        let mut next_gc = allocated + gc_stride;
        while allocated < idle_end {
            let obj = mutator.alloc(1, 6, 1);
            mutator.write_data(obj, 0, allocated as u64);
            allocated += ObjectShape::new(1, 6, 1).size_words() * 8;
            if allocated >= next_gc {
                next_gc += gc_stride;
                if thread_index == 0 {
                    mutator.request_gc();
                } else {
                    mutator.blocked(|| std::thread::sleep(Duration::from_micros(200)));
                }
            }
        }
    }
    allocated
}

fn run_throughput(
    runtime: &Runtime,
    spec: &BenchmarkSpec,
    options: &RunOptions,
) -> (usize, Vec<Duration>, Option<String>) {
    let total_bytes = ((spec.total_alloc_mb as f64) * options.scale * 1024.0 * 1024.0) as usize;
    let per_thread = total_bytes / spec.mutator_threads;
    let social = spec.social_graph;
    let spike = spec.traffic_spike;
    let threads: Vec<_> = (0..spec.mutator_threads)
        .map(|t| {
            let runtime = runtime.clone();
            let spec = spec.clone();
            let options = options.clone();
            std::thread::spawn(move || {
                if social {
                    Ok(social_graph_thread(runtime, spec, options, t, per_thread))
                } else if spike {
                    Ok(traffic_spike_thread(runtime, spec, options, t, per_thread))
                } else {
                    throughput_thread(runtime, spec, options, t, per_thread)
                }
            })
        })
        .collect();
    let mut allocated = 0usize;
    let mut failure: Option<String> = None;
    for t in threads {
        match t.join().expect("mutator thread panicked") {
            Ok(bytes) => allocated += bytes,
            Err(report) => {
                failure.get_or_insert(report);
            }
        }
    }
    (allocated, Vec::new(), failure)
}

fn run_latency(
    runtime: &Runtime,
    spec: &BenchmarkSpec,
    options: &RunOptions,
) -> (usize, Vec<Duration>, Option<String>) {
    let latency = spec.latency.expect("latency workload without a latency spec");
    let num_requests = ((latency.num_requests as f64) * options.scale).max(1.0) as usize;
    let next_request = Arc::new(AtomicUsize::new(0));
    let start = Instant::now();
    let interval = Duration::from_secs_f64(1.0 / latency.requests_per_second);

    let threads: Vec<_> = (0..spec.mutator_threads)
        .map(|t| {
            let runtime = runtime.clone();
            let spec = spec.clone();
            let next_request = next_request.clone();
            let seed = options.seed ^ (t as u64) << 32;
            std::thread::spawn(move || {
                let mut mutator = runtime.bind_mutator();
                let mut rng = StdRng::seed_from_u64(seed);
                let mut latencies = Vec::new();
                let mut allocated = 0usize;
                // Per-worker survivor store standing in for caches/indices.
                let store_slots: u16 = 2048;
                let store_root = {
                    let store = mutator.alloc(store_slots, 0, 0);
                    mutator.push_root(store)
                };
                loop {
                    let index = next_request.fetch_add(1, Ordering::Relaxed);
                    if index >= num_requests {
                        break;
                    }
                    // Metered arrival: request `index` arrives at a fixed
                    // offset from the start of the run; if the system is
                    // behind (e.g. a GC pause), queuing delay accrues.
                    let arrival = start + interval.mul_f64(index as f64);
                    let now = Instant::now();
                    if now < arrival {
                        let wait = arrival - now;
                        mutator.blocked(|| std::thread::sleep(wait));
                    }
                    // Service the request: allocate a response graph, touch
                    // the survivor store, and burn some compute.
                    let mut acc = index as u64;
                    for a in 0..latency.allocations_per_request {
                        let data = (spec.mean_object_words.max(3) - 1) as u16;
                        let obj = mutator.alloc(1, data, 2);
                        mutator.write_data(obj, 0, acc);
                        allocated += ObjectShape::new(1, data, 2).size_words() * 8;
                        if a == 0 && rng.gen_bool(spec.survival_rate.clamp(0.0, 1.0)) {
                            let store = mutator.root(store_root);
                            let slot = rng.gen_range(0..store_slots as usize);
                            mutator.write_ref(store, slot, obj);
                        }
                    }
                    for _ in 0..latency.compute_per_request {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    }
                    std::hint::black_box(acc);
                    latencies.push(Instant::now() - arrival);
                }
                (allocated, latencies)
            })
        })
        .collect();

    let mut all_latencies = Vec::new();
    let mut allocated = 0usize;
    for t in threads {
        let (bytes, lat) = t.join().expect("request worker panicked");
        allocated += bytes;
        all_latencies.extend(lat);
    }
    all_latencies.sort_unstable();
    (allocated, all_latencies, None)
}
