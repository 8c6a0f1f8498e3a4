//! Runtime configuration.

use lxr_heap::HeapConfig;

/// Options controlling the runtime: heap size/geometry, the number of
/// parallel GC workers, and the concurrent collector crew.
///
/// # Example
///
/// ```
/// use lxr_runtime::RuntimeOptions;
/// let opts = RuntimeOptions::default()
///     .with_heap_size(64 << 20)
///     .with_gc_workers(4)
///     .with_concurrent_workers(2);
/// assert_eq!(opts.heap.heap_bytes, 64 << 20);
/// assert_eq!(opts.gc_workers, 4);
/// assert_eq!(opts.concurrent_workers, 2);
/// ```
#[derive(Debug, Clone)]
pub struct RuntimeOptions {
    /// Heap size and structural parameters.
    pub heap: HeapConfig,
    /// Number of parallel stop-the-world GC worker threads.
    pub gc_workers: usize,
    /// Whether the runtime starts concurrent collector threads (lazy
    /// decrements, SATB tracing, concurrent marking for the baselines).
    pub concurrent_thread: bool,
    /// Size of the concurrent GC crew: how many `gc-concurrent-*` threads
    /// drive the plan's concurrent work (SATB marking and lazy decrements
    /// for LXR) while mutators run.  Only takes effect when
    /// [`concurrent_thread`](Self::concurrent_thread) is set, and is capped
    /// by the plan's [`max_concurrent_workers`] — plans whose concurrent
    /// work is single-threaded (the concurrent-copying baselines) always
    /// run a crew of one.
    ///
    /// [`max_concurrent_workers`]: crate::plan::Plan::max_concurrent_workers
    pub concurrent_workers: usize,
    /// How many allocations between trigger polls on each mutator.
    pub poll_interval_allocs: usize,
    /// How long a failing allocation keeps retrying once reclamation stops
    /// making progress.  The retry loop watches the block allocator's
    /// release generation: as long as collections keep freeing blocks it
    /// retries indefinitely (memory is coming back, however slowly), and
    /// only after this long with *zero* blocks released does it report a
    /// clean out-of-memory panic.  Replaces the old fixed 8-attempt cap,
    /// which declared OOM spuriously whenever heavy cyclic churn needed
    /// more than eight pauses to finish a backup trace.  The same deadline
    /// bounds each post-pause wait on concurrent reclamation.
    pub oom_retry_stall_ms: u64,
    /// Failpoint schedule spec (see `lxr_failpoints`), installed at runtime
    /// construction unless a schedule is already active.  The
    /// `LXR_FAILPOINTS` environment variable is the fallback when `None`.
    /// Ignored (with a warning) unless the `failpoints` feature is on.
    pub failpoints: Option<String>,
    /// Run the sanity verifier (an independent re-trace cross-checking RC
    /// counts, marks and free-line claims) inside every n-th pause.  The
    /// `LXR_VERIFY_EVERY_N_GCS` environment variable is the fallback when
    /// `None`.
    pub verify_every_n_gcs: Option<u64>,
    /// Deadline in milliseconds for every pause phase and crew quiescence
    /// wait.  `None` (the default, for release benches) disables the
    /// watchdogs; tests and CI set it so a wedged protocol becomes a
    /// structured state dump instead of a suite timeout.
    pub watchdog_ms: Option<u64>,
    /// Enables the request-aware [`PauseGate`](crate::PauseGate): deferrable
    /// pacing triggers (threshold/predictive) raised while a request is in
    /// flight are parked and released at the next request boundary or idle
    /// wait.  Off by default — trigger behaviour is unchanged unless a
    /// serving engine opts in.
    pub pause_gate: bool,
    /// Wall-clock bound on how long the gate may park a trigger while
    /// waiting for a request boundary; past the deadline the trigger fires
    /// at the next poll regardless.
    pub pause_gate_defer_ms: u64,
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        RuntimeOptions {
            heap: HeapConfig::default(),
            gc_workers: default_gc_workers(),
            concurrent_thread: true,
            concurrent_workers: default_concurrent_workers(),
            poll_interval_allocs: 64,
            oom_retry_stall_ms: 1000,
            failpoints: None,
            verify_every_n_gcs: None,
            watchdog_ms: None,
            pause_gate: false,
            pause_gate_defer_ms: 5,
        }
    }
}

fn default_gc_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get().min(8)).unwrap_or(4)
}

/// Half the hardware threads, clamped to 1..=4: the crew shares the machine
/// with the mutators, and the paper's measurements use a small number of
/// concurrent collector threads.
fn default_concurrent_workers() -> usize {
    std::thread::available_parallelism().map(|n| (n.get() / 2).clamp(1, 4)).unwrap_or(2)
}

impl RuntimeOptions {
    /// Sets the total heap size in bytes.
    pub fn with_heap_size(mut self, bytes: usize) -> Self {
        self.heap.heap_bytes = bytes;
        self
    }

    /// Replaces the whole heap configuration.
    pub fn with_heap_config(mut self, heap: HeapConfig) -> Self {
        self.heap = heap;
        self
    }

    /// Makes the heap elastic: it starts at `min` bytes mapped and grows on
    /// demand up to `max` bytes, releasing cold chunks back down toward
    /// `min` between allocation bursts (the `--heap-min`/`--heap-max` pair).
    pub fn with_heap_range(mut self, min: usize, max: usize) -> Self {
        self.heap = self.heap.with_heap_range(min, max);
        self
    }

    /// Sets the number of parallel GC workers.
    pub fn with_gc_workers(mut self, workers: usize) -> Self {
        self.gc_workers = workers.max(1);
        self
    }

    /// Enables or disables the concurrent collector crew.
    pub fn with_concurrent_thread(mut self, enabled: bool) -> Self {
        self.concurrent_thread = enabled;
        self
    }

    /// Sets the size of the concurrent GC crew (at least one).
    pub fn with_concurrent_workers(mut self, workers: usize) -> Self {
        self.concurrent_workers = workers.max(1);
        self
    }

    /// Sets the mutator poll interval (allocations between trigger checks).
    pub fn with_poll_interval(mut self, allocs: usize) -> Self {
        self.poll_interval_allocs = allocs.max(1);
        self
    }

    /// Sets how long a failing allocation tolerates zero reclamation
    /// progress before reporting out of memory.
    pub fn with_oom_retry_stall_ms(mut self, ms: u64) -> Self {
        self.oom_retry_stall_ms = ms;
        self
    }

    /// Sets the failpoint schedule spec (requires the `failpoints` feature
    /// for the sites to exist).
    pub fn with_failpoints(mut self, spec: impl Into<String>) -> Self {
        self.failpoints = Some(spec.into());
        self
    }

    /// Runs the sanity verifier inside every n-th pause (0 disables).
    pub fn with_verify_every_n_gcs(mut self, n: u64) -> Self {
        self.verify_every_n_gcs = Some(n);
        self
    }

    /// Arms the phase watchdogs with the given deadline.
    pub fn with_watchdog_ms(mut self, ms: u64) -> Self {
        self.watchdog_ms = Some(ms);
        self
    }

    /// Enables or disables the request-aware pause gate.
    pub fn with_pause_gate(mut self, enabled: bool) -> Self {
        self.pause_gate = enabled;
        self
    }

    /// Sets the gate's deferral window (milliseconds a pacing trigger may
    /// wait for a request boundary before firing anyway).
    pub fn with_pause_gate_defer_ms(mut self, ms: u64) -> Self {
        self.pause_gate_defer_ms = ms;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let o = RuntimeOptions::default();
        assert!(o.gc_workers >= 1);
        assert!(o.concurrent_thread);
        assert!((1..=4).contains(&o.concurrent_workers));
        assert_eq!(o.heap.block_bytes, 32 * 1024);
        assert!(o.poll_interval_allocs >= 1);
        assert!(!o.pause_gate, "the gate must be opt-in");
        assert!(o.pause_gate_defer_ms > 0);
    }

    #[test]
    fn builders_clamp_to_valid_values() {
        let o = RuntimeOptions::default().with_gc_workers(0).with_concurrent_workers(0).with_poll_interval(0);
        assert_eq!(o.gc_workers, 1);
        assert_eq!(o.concurrent_workers, 1);
        assert_eq!(o.poll_interval_allocs, 1);
    }

    #[test]
    fn heap_range_builder_makes_the_heap_elastic() {
        let o = RuntimeOptions::default().with_heap_range(1 << 20, 4 << 20);
        assert_eq!(o.heap.heap_bytes, 4 << 20);
        assert_eq!(o.heap.min_heap_bytes, Some(1 << 20));
        assert!(o.heap.min_chunks() < o.heap.num_chunks());
    }
}
