//! The open-loop serving benchmark.
//!
//! The paper's headline claim is *tail latency under sustained traffic*
//! (Table 1's request percentiles), and measuring that honestly requires an
//! **open-loop** load generator: requests arrive on a precomputed virtual
//! clock ([`ArrivalSchedule`] — Poisson or bursty), and a request's latency
//! is measured from its *intended arrival*, not from when a worker finally
//! dispatched it.  A closed-loop driver (like the classic
//! [`run_workload`](crate::run_workload) stress loops) stalls its load
//! source whenever the collector stalls the mutators, so queuing delay —
//! the very thing a GC pause inflicts on a production service — never
//! appears in the numbers.  That failure mode is *coordinated omission*,
//! and this engine exists to correct it (a deliberately closed-loop control
//! mode, [`ServeOptions::closed_loop`], keeps the wrong accounting around
//! so tests can demonstrate the difference).
//!
//! The workload itself models a session-oriented frontend: a two-level
//! [`SessionTable`] holds up to millions of per-user sessions (lazily
//! created, randomly touched, probabilistically expired), and every request
//! allocates a burst of short-lived request/response objects, caches one
//! response in its session, and burns a little compute.  Latencies are
//! recorded per worker into an HDR-style
//! [`LatencyHistogram`] and merged at the end.
//!
//! Workers bracket each request with
//! [`Mutator::begin_request`]/[`Mutator::end_request`] and spend arrival
//! gaps in [`Mutator::idle_until`].  With the runtime's
//! [`pause_gate`](lxr_runtime::RuntimeOptions::pause_gate) set (the
//! [`ServeOptions`] default), that lets the
//! [`PauseGate`](lxr_runtime::PauseGate) move deferrable collections onto
//! request boundaries and kick concurrent work into mutator idle time.
//!
//! [`Mutator::begin_request`]: lxr_runtime::Mutator::begin_request
//! [`Mutator::end_request`]: lxr_runtime::Mutator::end_request
//! [`Mutator::idle_until`]: lxr_runtime::Mutator::idle_until

use crate::histogram::LatencyHistogram;
use lxr_baselines::{minimum_heap_for, plan_registry};
use lxr_object::{ObjectReference, ObjectShape};
use lxr_runtime::{Mutator, Runtime, RuntimeOptions, StatsSnapshot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sessions per second-level table object (bounded by the `u16` reference
/// count of the object model; 512-wide leaves under a 65 535-wide root
/// table give a ceiling of ~33 million sessions).
const LEAF_SLOTS: usize = 512;
/// Data words per request/response churn object.
const RESPONSE_DATA_WORDS: u16 = 12;

/// When requests arrive, as offsets on a virtual clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalSchedule {
    /// Poisson arrivals: exponentially distributed inter-arrival times at
    /// `rps` requests per second — the classic open-system model.
    Poisson {
        /// Mean arrival rate, requests per second.
        rps: f64,
    },
    /// Bursty arrivals: each cycle of `cycle` requests opens with
    /// `burst_len` requests arriving at `burst_rps` and relaxes to
    /// `base_rps` for the rest — a flash-crowd pattern that stresses the
    /// predictive trigger.  Inter-arrival times stay exponential at the
    /// phase rate.
    Bursts {
        /// Steady-state arrival rate, requests per second.
        base_rps: f64,
        /// Arrival rate inside a burst.
        burst_rps: f64,
        /// Requests per burst/steady cycle.
        cycle: usize,
        /// Requests of each cycle arriving at the burst rate.
        burst_len: usize,
    },
}

impl ArrivalSchedule {
    /// Precomputes the virtual clock: `n` arrival offsets from the start of
    /// the run.  Deterministic in `seed` — the same seed replays the same
    /// schedule bit-for-bit, which is what makes serve runs comparable
    /// across collectors.
    pub fn offsets(&self, n: usize, seed: u64) -> Vec<Duration> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA881_0931_5EED_0001);
        let mut t = 0.0f64;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let rps = match *self {
                ArrivalSchedule::Poisson { rps } => rps,
                ArrivalSchedule::Bursts { base_rps, burst_rps, cycle, burst_len } => {
                    if i % cycle.max(1) < burst_len {
                        burst_rps
                    } else {
                        base_rps
                    }
                }
            };
            // Exponential inter-arrival: -ln(U)/rate with U uniform on
            // (0, 1] (the shim's integer ranges derive the uniform).
            let u = (rng.gen_range(0u64..(1 << 53)) + 1) as f64 * (1.0 / (1u64 << 53) as f64);
            t += -u.ln() / rps.max(1.0);
            out.push(Duration::from_secs_f64(t));
        }
        out
    }
}

/// FNV-1a over the schedule's nanosecond offsets: a replay fingerprint.
/// Two runs drive the *same* offered load if and only if their digests
/// match.
pub fn schedule_digest(offsets: &[Duration]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for d in offsets {
        let mut v = d.as_nanos() as u64;
        for _ in 0..8 {
            h ^= v & 0xff;
            h = h.wrapping_mul(0x100_0000_01b3);
            v >>= 8;
        }
    }
    h
}

/// A serving-benchmark specification.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// Benchmark name.
    pub name: &'static str,
    /// Simulated user-session population (scaled by [`ServeOptions::scale`]).
    pub sessions: usize,
    /// Cached-response slots per session object.
    pub session_slots: u16,
    /// Total requests (scaled by [`ServeOptions::scale`]).
    pub num_requests: usize,
    /// The arrival schedule.
    pub schedule: ArrivalSchedule,
    /// Request/response churn objects allocated per request.
    pub allocations_per_request: usize,
    /// Hash-mix iterations per request (CPU service time).
    pub compute_per_request: usize,
    /// Probability a request expires its session after servicing.
    pub session_expiry: f64,
    /// Serving worker threads.
    pub workers: usize,
    /// Minimum heap, in megabytes.
    pub min_heap_mb: usize,
}

impl ServeSpec {
    /// The heap size at a given factor of the spec's minimum heap.
    pub fn heap_bytes(&self, factor: f64) -> usize {
        ((self.min_heap_mb << 20) as f64 * factor) as usize
    }
}

/// The default serving benchmark: a session frontend at 20 krps Poisson.
pub fn serve_spec() -> ServeSpec {
    ServeSpec {
        name: "frontend",
        sessions: 40_000,
        session_slots: 4,
        num_requests: 30_000,
        schedule: ArrivalSchedule::Poisson { rps: 20_000.0 },
        allocations_per_request: 24,
        compute_per_request: 200,
        session_expiry: 0.02,
        workers: 2,
        min_heap_mb: 24,
    }
}

/// Options controlling a serve run.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Heap size as a multiple of the spec's minimum heap.
    pub heap_factor: f64,
    /// Scale applied to the request count and session population.
    pub scale: f64,
    /// Random seed (drives the arrival schedule and the session churn).
    pub seed: u64,
    /// **Control mode**: account each request's latency from its dispatch
    /// time instead of its intended arrival — the coordinated-omission
    /// mistake, kept deliberately so tests can prove the open-loop
    /// accounting corrects it.  The offered schedule is identical in both
    /// modes.
    pub closed_loop: bool,
    /// Injects a deterministic service stall: every `stall_every`-th
    /// request sleeps for [`stall`](Self::stall) mid-service.  A pinned
    /// "pause" for coordinated-omission tests that works without the
    /// `failpoints` feature.
    pub stall_every: Option<usize>,
    /// Duration of the injected service stall.
    pub stall: Duration,
    /// The runtime the service runs on.  The engine replaces
    /// [`heap`](RuntimeOptions::heap) with the spec's heap at
    /// [`heap_factor`](Self::heap_factor); every other field is used as
    /// given.  Defaults to 4 GC workers, a crew of 2 and the pause gate on.
    pub runtime: RuntimeOptions,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            heap_factor: 2.0,
            scale: 1.0,
            seed: 12345,
            closed_loop: false,
            stall_every: None,
            stall: Duration::ZERO,
            runtime: RuntimeOptions::default()
                .with_gc_workers(4)
                .with_concurrent_workers(2)
                .with_pause_gate(true),
        }
    }
}

impl ServeOptions {
    /// Sets the heap factor.
    pub fn with_heap_factor(mut self, f: f64) -> Self {
        self.heap_factor = f;
        self
    }

    /// Sets the request/session scale.
    pub fn with_scale(mut self, s: f64) -> Self {
        self.scale = s;
        self
    }

    /// Sets the random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Switches to closed-loop (dispatch-anchored) latency accounting.
    pub fn with_closed_loop(mut self, closed: bool) -> Self {
        self.closed_loop = closed;
        self
    }

    /// Injects a deterministic `stall` into every `every`-th request.
    pub fn with_stall(mut self, every: usize, stall: Duration) -> Self {
        self.stall_every = Some(every.max(1));
        self.stall = stall;
        self
    }

    /// Maps the runtime options (GC threads, pause gate, verifier, ...).
    pub fn with_runtime(mut self, f: impl FnOnce(RuntimeOptions) -> RuntimeOptions) -> Self {
        self.runtime = f(self.runtime);
        self
    }
}

/// The outcome of one serve run.
#[derive(Debug, Clone)]
pub struct ServeResult {
    /// Collector name.
    pub collector: String,
    /// Requests served.
    pub requests: usize,
    /// Wall-clock time of the serving phase.
    pub wall_time: Duration,
    /// Total bytes allocated by the serving workers.
    pub allocated_bytes: usize,
    /// Achieved requests per second.
    pub qps: f64,
    /// The merged request-latency histogram.
    pub histogram: LatencyHistogram,
    /// Mutator time lost to GC stalls (safepoint parks) across the run.
    pub alloc_stall_time: Duration,
    /// Live sessions at the end of the run (summed over workers; each
    /// worker's table walk is cross-checked against its scalar model).
    pub live_sessions: usize,
    /// Fingerprint of the arrival schedule actually offered.
    pub schedule_digest: u64,
    /// Collector statistics captured at the end of the run.
    pub gc: StatsSnapshot,
    /// Whether the run was skipped (collector cannot run in this heap).
    pub skipped: bool,
    /// A session-table integrity failure (model/heap divergence), with the
    /// verifier's diagnosis.
    pub failure: Option<String>,
}

impl ServeResult {
    /// Shorthand for the histogram's percentile.
    pub fn percentile(&self, pct: f64) -> Duration {
        self.histogram.percentile(pct)
    }
}

/// A two-level table of session objects rooted in one mutator's shadow
/// stack: a root object whose reference fields point at 512-slot *leaf*
/// tables, whose slots hold the session objects.  Two levels exist because
/// an object's reference count is a `u16`: one flat table would cap the
/// population at 65 535 sessions, while 65 535 leaves of 512 slots put the
/// ceiling at ~33 million.
///
/// The table also maintains a scalar model of its own state — the live
/// count that create/expire imply — which [`live_count`](Self::live_count)
/// cross-checks against a walk of the real heap: if the collector ever
/// reclaims a live session (or resurrects an expired one), the walk and
/// the model diverge.
#[derive(Debug)]
pub struct SessionTable {
    root: lxr_runtime::RootSlot,
    capacity: usize,
    session_slots: u16,
    live: usize,
}

impl SessionTable {
    /// Builds the table for `capacity` sessions, rooted in `mutator`'s
    /// shadow stack.  Leaves are allocated eagerly (they are the permanent
    /// skeleton); sessions are created lazily by the churn.
    pub fn new(mutator: &mut Mutator, capacity: usize) -> Self {
        Self::with_session_slots(mutator, capacity, 4)
    }

    /// [`new`](Self::new) with an explicit per-session cache width.
    pub fn with_session_slots(mutator: &mut Mutator, capacity: usize, session_slots: u16) -> Self {
        let capacity = capacity.max(1);
        let leaves = capacity.div_ceil(LEAF_SLOTS);
        assert!(leaves <= u16::MAX as usize, "session population exceeds the two-level ceiling");
        let root_obj = mutator.alloc(leaves as u16, 0, 7);
        let root = mutator.push_root(root_obj);
        for l in 0..leaves {
            let leaf = mutator.alloc(LEAF_SLOTS as u16, 0, 8);
            let root_obj = mutator.root(root);
            mutator.write_ref(root_obj, l, leaf);
        }
        SessionTable { root, capacity, session_slots, live: 0 }
    }

    /// The session population this table can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Live sessions according to the scalar model (creates minus expiries).
    pub fn live_sessions(&self) -> usize {
        self.live
    }

    fn leaf(&self, mutator: &mut Mutator, index: usize) -> (ObjectReference, usize) {
        debug_assert!(index < self.capacity);
        let root_obj = mutator.root(self.root);
        let leaf = mutator.read_ref(root_obj, index / LEAF_SLOTS);
        (leaf, index % LEAF_SLOTS)
    }

    /// The session at `index`, or null if it has never been created (or
    /// has expired).
    pub fn lookup(&self, mutator: &mut Mutator, index: usize) -> ObjectReference {
        let (leaf, slot) = self.leaf(mutator, index);
        mutator.read_ref(leaf, slot)
    }

    /// Creates (or replaces) the session at `index`, stamping it with
    /// `stamp`.  Replacement kills the previous session object; the live
    /// count only grows when the slot was empty.
    pub fn create(&mut self, mutator: &mut Mutator, index: usize, stamp: u64) -> ObjectReference {
        let session = mutator.alloc(self.session_slots, 2, 9);
        mutator.write_data(session, 0, stamp);
        let (leaf, slot) = self.leaf(mutator, index);
        if mutator.read_ref(leaf, slot).is_null() {
            self.live += 1;
        }
        mutator.write_ref(leaf, slot, session);
        session
    }

    /// Caches `value` in slot `cache_slot` of session `index` (which must
    /// be live) and bumps its touch counter.
    pub fn touch(&mut self, mutator: &mut Mutator, index: usize, cache_slot: usize, value: ObjectReference) {
        let (leaf, slot) = self.leaf(mutator, index);
        let session = mutator.read_ref(leaf, slot);
        debug_assert!(!session.is_null(), "touch of an expired session");
        mutator.write_ref(session, cache_slot % self.session_slots as usize, value);
        let touches = mutator.read_data(session, 1);
        mutator.write_data(session, 1, touches + 1);
    }

    /// Expires the session at `index` (the session and its cached
    /// responses die).  Returns whether a session was actually live there.
    pub fn expire(&mut self, mutator: &mut Mutator, index: usize) -> bool {
        let (leaf, slot) = self.leaf(mutator, index);
        if mutator.read_ref(leaf, slot).is_null() {
            return false;
        }
        mutator.write_ref(leaf, slot, ObjectReference::NULL);
        self.live -= 1;
        true
    }

    /// Walks the real heap table and counts non-null session slots — the
    /// ground truth the scalar model must match.
    pub fn live_count(&self, mutator: &mut Mutator) -> usize {
        let mut count = 0;
        for index in 0..self.capacity {
            if !self.lookup(mutator, index).is_null() {
                count += 1;
            }
        }
        count
    }
}

/// Runs the serving benchmark against the collector named `collector`.
///
/// Returns a skipped result when the collector cannot run in the requested
/// heap (mirroring [`run_workload`](crate::run_workload)).
pub fn run_serve(spec: &ServeSpec, collector: &str, options: &ServeOptions) -> ServeResult {
    let num_requests = ((spec.num_requests as f64) * options.scale).max(1.0) as usize;
    let sessions = (((spec.sessions as f64) * options.scale) as usize).max(spec.workers.max(1));
    let offsets = Arc::new(spec.schedule.offsets(num_requests, options.seed));
    let digest = schedule_digest(&offsets);

    let heap_bytes = spec.heap_bytes(options.heap_factor);
    if let Some(min) = minimum_heap_for(collector) {
        if heap_bytes < min {
            return ServeResult {
                collector: collector.to_string(),
                requests: 0,
                wall_time: Duration::ZERO,
                allocated_bytes: 0,
                qps: 0.0,
                histogram: LatencyHistogram::new(),
                alloc_stall_time: Duration::ZERO,
                live_sessions: 0,
                schedule_digest: digest,
                gc: lxr_runtime::GcStats::new().snapshot(),
                skipped: true,
                failure: None,
            };
        }
    }

    let runtime_options =
        RuntimeOptions { heap: Default::default(), ..options.runtime.clone() }.with_heap_size(heap_bytes);
    let runtime = Runtime::with_factory(runtime_options, plan_registry(collector));

    let workers = spec.workers.max(1);
    let shard = (sessions / workers).max(1);
    let next_request = Arc::new(AtomicUsize::new(0));
    let start = Instant::now();
    let threads: Vec<_> = (0..workers)
        .map(|w| {
            let runtime = runtime.clone();
            let spec = *spec;
            let options = options.clone();
            let offsets = offsets.clone();
            let next_request = next_request.clone();
            std::thread::spawn(move || {
                serve_worker(runtime, spec, options, offsets, next_request, start, w, shard, num_requests)
            })
        })
        .collect();

    let mut histogram = LatencyHistogram::new();
    let mut allocated_bytes = 0usize;
    let mut live_sessions = 0usize;
    let mut failure: Option<String> = None;
    for t in threads {
        let worker = t.join().expect("serve worker panicked");
        histogram.merge(&worker.histogram);
        allocated_bytes += worker.allocated_bytes;
        live_sessions += worker.live_sessions;
        if let Some(report) = worker.failure {
            failure.get_or_insert(report);
        }
    }
    let wall_time = start.elapsed();
    let gc = runtime.stats().snapshot();
    runtime.shutdown();

    ServeResult {
        collector: collector.to_string(),
        requests: num_requests,
        wall_time,
        allocated_bytes,
        qps: num_requests as f64 / wall_time.as_secs_f64(),
        histogram,
        alloc_stall_time: gc.alloc_stall_time,
        live_sessions,
        schedule_digest: digest,
        gc,
        skipped: false,
        failure,
    }
}

struct WorkerOutcome {
    histogram: LatencyHistogram,
    allocated_bytes: usize,
    live_sessions: usize,
    failure: Option<String>,
}

#[allow(clippy::too_many_arguments)]
fn serve_worker(
    runtime: Runtime,
    spec: ServeSpec,
    options: ServeOptions,
    offsets: Arc<Vec<Duration>>,
    next_request: Arc<AtomicUsize>,
    start: Instant,
    worker_index: usize,
    shard: usize,
    num_requests: usize,
) -> WorkerOutcome {
    let mut mutator = runtime.bind_mutator();
    let mut rng = StdRng::seed_from_u64(options.seed ^ ((worker_index as u64) << 32) ^ 0x5E55);
    let mut table = SessionTable::with_session_slots(&mut mutator, shard, spec.session_slots);
    let mut histogram = LatencyHistogram::new();
    let mut allocated = 0usize;
    let churn_shape = ObjectShape::new(1, RESPONSE_DATA_WORDS, 3);

    loop {
        let index = next_request.fetch_add(1, Ordering::Relaxed);
        if index >= num_requests {
            break;
        }
        // The virtual clock: request `index` is *intended* to arrive at a
        // fixed offset from the start of the run.  If the worker is early
        // it idles (giving the pause gate its boundary); if it is behind —
        // say, a GC pause stalled the fleet — queuing delay accrues, and
        // open-loop accounting charges it to every queued request.
        let arrival = start + offsets[index];
        if Instant::now() < arrival {
            mutator.idle_until(arrival);
        }
        let dispatch = Instant::now();
        mutator.begin_request();

        if let Some(every) = options.stall_every {
            if (index + 1).is_multiple_of(every) {
                // The pinned stall for coordinated-omission tests.
                mutator.blocked(|| std::thread::sleep(options.stall));
            }
        }

        // Session churn: find-or-create this request's session.
        let session_index = rng.gen_range(0..shard);
        if table.lookup(&mut mutator, session_index).is_null() {
            table.create(&mut mutator, session_index, index as u64);
            allocated += ObjectShape::new(spec.session_slots, 2, 9).size_words() * 8;
        }
        // Request/response churn: a burst of short-lived objects, one of
        // which is cached in the session (surviving until eviction or
        // expiry).
        let mut acc = index as u64;
        for a in 0..spec.allocations_per_request {
            let obj = mutator.alloc(1, RESPONSE_DATA_WORDS, 3);
            mutator.write_data(obj, 0, acc);
            allocated += churn_shape.size_words() * 8;
            if a == 0 {
                table.touch(&mut mutator, session_index, rng.gen_range(0..16), obj);
            }
        }
        for _ in 0..spec.compute_per_request {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        }
        std::hint::black_box(acc);
        // Session expiry: the session (and its cached responses) dies.
        if spec.session_expiry > 0.0 && rng.gen_bool(spec.session_expiry.clamp(0.0, 1.0)) {
            table.expire(&mut mutator, session_index);
        }

        mutator.end_request();
        let end = Instant::now();
        let latency = if options.closed_loop {
            // Coordinated omission, preserved as a control: the clock
            // starts when the worker got around to the request, so queuing
            // delay vanishes from the books.
            end.saturating_duration_since(dispatch)
        } else {
            end.saturating_duration_since(arrival)
        };
        histogram.record(latency);
    }

    // End-of-run integrity: the heap table must agree with the scalar
    // model the churn maintained.
    let walked = table.live_count(&mut mutator);
    let failure = if walked == table.live_sessions() {
        None
    } else {
        let mut msg = format!(
            "integrity: worker {worker_index} session table walk found {walked} live sessions, \
             model says {}\n  verifier (best-effort; other workers may still run):\n",
            table.live_sessions()
        );
        for line in runtime.verify_now().to_string().lines() {
            msg.push_str(&format!("    {line}\n"));
        }
        Some(msg)
    };
    WorkerOutcome { histogram, allocated_bytes: allocated, live_sessions: table.live_sessions(), failure }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lxr_runtime::WorkCounter;

    fn quick_spec() -> ServeSpec {
        ServeSpec {
            name: "quick",
            sessions: 3_000,
            session_slots: 4,
            num_requests: 2_500,
            schedule: ArrivalSchedule::Poisson { rps: 25_000.0 },
            allocations_per_request: 12,
            compute_per_request: 60,
            session_expiry: 0.02,
            workers: 2,
            min_heap_mb: 16,
        }
    }

    #[test]
    fn fixed_seed_schedules_replay_identically() {
        let schedule = ArrivalSchedule::Poisson { rps: 10_000.0 };
        let a = schedule.offsets(5_000, 42);
        let b = schedule.offsets(5_000, 42);
        assert_eq!(a, b, "same seed must replay the same virtual clock");
        assert_eq!(schedule_digest(&a), schedule_digest(&b));
        let c = schedule.offsets(5_000, 43);
        assert_ne!(schedule_digest(&a), schedule_digest(&c), "a different seed is a different load");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals are monotone");
    }

    #[test]
    fn burst_schedules_alternate_rates_deterministically() {
        let schedule =
            ArrivalSchedule::Bursts { base_rps: 1_000.0, burst_rps: 50_000.0, cycle: 200, burst_len: 50 };
        let a = schedule.offsets(2_000, 7);
        assert_eq!(schedule_digest(&a), schedule_digest(&schedule.offsets(2_000, 7)));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // The burst phase packs its arrivals much tighter than steady state.
        let burst_span = a[49] - a[0];
        let steady_span = a[199] - a[50];
        assert!(
            burst_span < steady_span,
            "burst arrivals ({burst_span:?}) should pack tighter than steady ones ({steady_span:?})"
        );
    }

    #[test]
    fn serve_runs_replay_the_same_offered_schedule() {
        let spec = quick_spec();
        let options = ServeOptions::default().with_scale(0.4).with_seed(99);
        let a = run_serve(&spec, "lxr", &options);
        let b = run_serve(&spec, "lxr", &options);
        assert!(!a.skipped && !b.skipped);
        assert_eq!(a.schedule_digest, b.schedule_digest, "same seed, same offered load");
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.histogram.count(), a.requests as u64, "every request records one sample");
        assert!(a.failure.is_none(), "{}", a.failure.unwrap());
    }

    #[test]
    fn injected_stall_inflates_p999_open_loop_but_not_closed_loop() {
        // One worker, one pinned 40 ms stall late in the run: under
        // open-loop accounting every request scheduled during the stall is
        // charged its queuing delay (hundreds of samples at 25 krps), so
        // p99.9 shows the stall; the closed-loop control anchors each
        // latency at dispatch, so only the single stalled request ever sees
        // it — below the p99.9 rank.  This is coordinated omission made
        // visible.
        let mut spec = quick_spec();
        spec.workers = 1;
        spec.num_requests = 4_000;
        let base =
            ServeOptions::default().with_scale(1.0).with_seed(7).with_stall(3_000, Duration::from_millis(40));
        let open = run_serve(&spec, "lxr", &base);
        let closed = run_serve(&spec, "lxr", &base.clone().with_closed_loop(true));
        assert!(!open.skipped && !closed.skipped);
        let open_p999 = open.percentile(99.9);
        let closed_p999 = closed.percentile(99.9);
        assert!(
            open_p999 >= Duration::from_millis(15),
            "open-loop p99.9 must surface the 40 ms stall, got {open_p999:?}"
        );
        assert!(
            closed_p999 < Duration::from_millis(15),
            "closed-loop accounting should hide the stall below p99.9, got {closed_p999:?}"
        );
        assert!(open_p999 > closed_p999 * 2, "the accounting gap is the whole point");
    }

    #[test]
    fn pause_gate_defers_and_releases_at_boundaries() {
        let spec = quick_spec();
        let result = run_serve(&spec, "lxr", &ServeOptions::default().with_scale(1.0).with_seed(5));
        assert!(!result.skipped);
        assert!(result.failure.is_none(), "{}", result.failure.unwrap());
        let deferred = result.gc.counter(WorkCounter::GateDeferredTriggers);
        let released = result.gc.counter(WorkCounter::GateBoundaryPauses);
        assert!(
            released <= deferred,
            "every boundary pause stems from a parked trigger ({released} releases, {deferred} parks)"
        );
        // Allocation-stall time is accounted whenever any pause happened.
        if result.gc.pause_count() > 0 {
            assert!(result.alloc_stall_time > Duration::ZERO);
        }
    }

    #[test]
    fn disabled_gate_reports_no_gate_activity() {
        let spec = quick_spec();
        let result = run_serve(
            &spec,
            "lxr",
            &ServeOptions::default().with_scale(0.3).with_runtime(|r| r.with_pause_gate(false)),
        );
        assert!(!result.skipped);
        assert_eq!(result.gc.counter(WorkCounter::GateDeferredTriggers), 0);
        assert_eq!(result.gc.counter(WorkCounter::GateBoundaryPauses), 0);
        assert_eq!(result.gc.counter(WorkCounter::GateKicks), 0);
    }

    #[test]
    fn session_table_model_matches_heap_walk_after_churn() {
        let result = run_serve(&quick_spec(), "lxr-sticky", &ServeOptions::default().with_scale(0.5));
        assert!(!result.skipped);
        assert!(result.failure.is_none(), "{}", result.failure.unwrap());
        assert!(result.live_sessions > 0, "churn should leave live sessions behind");
    }
}
