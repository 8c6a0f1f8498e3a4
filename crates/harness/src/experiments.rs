//! The experiments: one function per table/figure of the paper.

use crate::report::{ms, ratio, us, Table};
use lxr_heap::HeapConfig;
use lxr_runtime::RuntimeOptions;
use lxr_workloads::{
    benchmark, latency_suite, run_serve, run_workload, serve_spec, social_graph_churn, suite, traffic_spike,
    BenchmarkSpec, RunOptions, ServeOptions, ServeResult, ServeSpec, WorkloadResult,
};

/// Options shared by every experiment.
#[derive(Debug, Clone)]
pub struct ExperimentOptions {
    /// Workload scale (1.0 = the full scaled-down suite; tests and benches
    /// use smaller values).
    pub scale: f64,
    /// Random seed.
    pub seed: u64,
    /// The runtime every run uses (`--gc-workers`, `--concurrent-workers`,
    /// `--failpoints`, `--verify-every-n-gcs`, `--watchdog-ms`,
    /// `--oom-stall-ms`).  The engines replace [`heap`](RuntimeOptions::heap)
    /// with each benchmark's heap at the experiment's heap factor.
    /// Defaults to 4 GC workers and a crew of 2, with the watchdogs
    /// disarmed so benchmark timing is undisturbed.
    pub runtime: RuntimeOptions,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        ExperimentOptions {
            scale: 1.0,
            seed: 42,
            runtime: RuntimeOptions::default().with_gc_workers(4).with_concurrent_workers(2),
        }
    }
}

impl ExperimentOptions {
    /// A quick configuration for tests and benches.
    pub fn quick() -> Self {
        let options = ExperimentOptions::default();
        ExperimentOptions { scale: 0.1, runtime: options.runtime.with_gc_workers(2), ..options }
    }

    /// Parses the harness command line.  Option flags (with their values)
    /// land in the returned options; every other argument is returned, in
    /// order, as a requested experiment or subcommand argument.  The flag
    /// reports whether `--quick` was given, which resets every option given
    /// before it.
    ///
    /// # Panics
    ///
    /// On a flag without its value, or with a value that does not parse.
    pub fn from_args(args: impl IntoIterator<Item = String>) -> (Self, bool, Vec<String>) {
        fn value<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
            let raw = args.next().unwrap_or_else(|| panic!("{flag} requires a value"));
            raw.parse().unwrap_or_else(|_| panic!("invalid {flag} value `{raw}`"))
        }
        let mut options = ExperimentOptions::default();
        let mut quick = false;
        let mut requested = Vec::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => {
                    options = ExperimentOptions::quick();
                    quick = true;
                }
                "--scale" => options.scale = value(&mut args, &arg),
                "--gc-workers" => options.runtime = options.runtime.with_gc_workers(value(&mut args, &arg)),
                "--concurrent-workers" => {
                    options.runtime = options.runtime.with_concurrent_workers(value(&mut args, &arg))
                }
                "--failpoints" => {
                    options.runtime = options.runtime.with_failpoints(value::<String>(&mut args, &arg))
                }
                "--verify-every-n-gcs" => {
                    options.runtime = options.runtime.with_verify_every_n_gcs(value(&mut args, &arg))
                }
                "--watchdog-ms" => options.runtime = options.runtime.with_watchdog_ms(value(&mut args, &arg)),
                "--oom-stall-ms" => {
                    options.runtime = options.runtime.with_oom_retry_stall_ms(value(&mut args, &arg))
                }
                other => requested.push(other.to_string()),
            }
        }
        (options, quick, requested)
    }

    /// The workload-engine options for a run at `heap_factor`.
    fn run_options(&self, heap_factor: f64) -> RunOptions {
        let runtime = self.runtime.clone();
        RunOptions { heap_factor, scale: self.scale, seed: self.seed, runtime, ..RunOptions::default() }
    }

    /// The serving-engine options: the harness runtime with the pause gate
    /// on, since the serving table measures the gate.
    fn serve_options(&self) -> ServeOptions {
        let runtime = self.runtime.clone().with_pause_gate(true);
        ServeOptions { scale: self.scale, seed: self.seed, runtime, ..ServeOptions::default() }
    }
}

/// One experiment the CLI runs by name.
#[derive(Debug)]
pub struct Experiment {
    /// The name given on the command line.
    pub name: &'static str,
    /// Whether `all` runs it.
    pub in_all: bool,
    /// Runs the experiment and returns its table.
    pub run: fn(&ExperimentOptions) -> Table,
}

/// Every experiment the CLI knows, in the order `all` runs them.  The one
/// list both dispatch and argument validation read.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment { name: "table3", in_all: true, run: |_| table3_characteristics() },
    Experiment { name: "table1", in_all: true, run: |o| table1_lusearch(o).0 },
    Experiment { name: "table4", in_all: true, run: |o| table4_latency(o).0 },
    Experiment { name: "table5", in_all: true, run: table5_heap_sensitivity },
    Experiment { name: "table6", in_all: true, run: |o| table6_throughput(o).0 },
    Experiment { name: "table7", in_all: true, run: table7_breakdown },
    Experiment { name: "fig7", in_all: true, run: fig7_lbo },
    Experiment { name: "barrier-overhead", in_all: true, run: barrier_overhead },
    Experiment { name: "sensitivity", in_all: true, run: sensitivity },
    Experiment { name: "socialgraph", in_all: true, run: social_graph },
    Experiment { name: "heap", in_all: true, run: heap_elasticity },
    Experiment { name: "serve", in_all: true, run: |o| serve(o).0 },
    // `chaos` is opt-in: it is not part of `all` because its fault schedules
    // are inert (and its table all-`survived`) without `--features failpoints`.
    Experiment { name: "chaos", in_all: false, run: chaos },
];

/// The experiments `requested` names, in [`EXPERIMENTS`] order; `all`
/// selects every experiment with [`Experiment::in_all`] set.
///
/// # Errors
///
/// The first requested name that is neither `all` nor an experiment.
pub fn select_experiments(requested: &[String]) -> Result<Vec<&'static Experiment>, String> {
    if let Some(unknown) = requested.iter().find(|r| *r != "all" && !EXPERIMENTS.iter().any(|e| e.name == *r))
    {
        return Err(unknown.clone());
    }
    let all = requested.iter().any(|r| r == "all");
    Ok(EXPERIMENTS.iter().filter(|e| (all && e.in_all) || requested.iter().any(|r| r == e.name)).collect())
}

/// Number of workload runs that reported an integrity failure; the CLI
/// exits non-zero when this is non-zero, instead of panicking mid-table.
static INTEGRITY_FAILURES: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Integrity failures recorded by the checked workload runner so far.
pub fn integrity_failures() -> usize {
    INTEGRITY_FAILURES.load(std::sync::atomic::Ordering::Relaxed)
}

/// [`run_workload`], plus reporting: an integrity failure (e.g. a truncated
/// live list) prints the engine's verifier diagnosis to stderr and bumps
/// [`integrity_failures`], leaving the experiment free to finish its table.
fn run_checked(spec: &BenchmarkSpec, collector: &str, options: &RunOptions) -> WorkloadResult {
    let r = run_workload(spec, collector, options);
    if let Some(report) = &r.failure {
        eprintln!("INTEGRITY FAILURE: {} on {}\n{report}", collector, spec.name);
        INTEGRITY_FAILURES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
    r
}

fn fmt_latency(r: &WorkloadResult, pct: f64) -> String {
    match r.latency_percentile(pct) {
        Some(d) => ms(d),
        None => "-".to_string(),
    }
}

/// Collector set for comparison tables; quick runs compare only G1 and LXR.
fn comparison_collectors(options: &ExperimentOptions) -> &'static [&'static str] {
    if options.scale < 0.05 {
        &["g1", "lxr"]
    } else {
        &["g1", "lxr", "shenandoah", "zgc"]
    }
}

/// Heap factors for sweeps; quick runs use a single factor.
fn sweep_factors(options: &ExperimentOptions) -> &'static [f64] {
    if options.scale < 0.05 {
        &[2.0]
    } else {
        &[1.3, 2.0, 6.0]
    }
}

/// **Table 1**: lusearch at a 1.3× heap — throughput (QPS, time), query
/// latency percentiles and GC pause percentiles for G1, Shenandoah, LXR and
/// Shenandoah at a 10× heap.
pub fn table1_lusearch(options: &ExperimentOptions) -> (Table, Vec<WorkloadResult>) {
    let spec = benchmark("lusearch").expect("lusearch spec");
    let mut table = Table::new(
        "Table 1: lusearch, 1.3x heap (QPS, time, query latency ms, GC pauses ms)",
        &["collector", "QPS", "time(s)", "q50%", "q99%", "q99.9%", "q99.99%", "p50", "p99", "p99.9"],
    );
    let mut results = Vec::new();
    for (collector, factor) in [("g1", 1.3), ("shenandoah", 1.3), ("lxr", 1.3), ("shenandoah", 10.0)] {
        let r = run_checked(&spec, collector, &options.run_options(factor));
        let label = if factor > 2.0 { format!("{collector}-{factor:.0}x") } else { collector.to_string() };
        if r.skipped {
            table.row(vec![
                label,
                "skipped".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
        } else {
            table.row(vec![
                label,
                format!("{:.0}", r.qps.unwrap_or(0.0)),
                format!("{:.2}", r.wall_time.as_secs_f64()),
                fmt_latency(&r, 50.0),
                fmt_latency(&r, 99.0),
                fmt_latency(&r, 99.9),
                fmt_latency(&r, 99.99),
                ms(r.gc.pause_percentile(50.0)),
                ms(r.gc.pause_percentile(99.0)),
                ms(r.gc.pause_percentile(99.9)),
            ]);
        }
        results.push(r);
    }
    (table, results)
}

/// **Table 3**: benchmark characteristics of the synthetic suite.
pub fn table3_characteristics() -> Table {
    let mut table = Table::new(
        "Table 3: benchmark characteristics (scaled)",
        &["benchmark", "min heap MB", "alloc MB", "alloc/heap", "obj words", "%large", "%survival"],
    );
    for spec in suite() {
        table.row(vec![
            spec.name.to_string(),
            spec.min_heap_mb.to_string(),
            spec.total_alloc_mb.to_string(),
            format!("{:.0}", spec.total_alloc_mb as f64 / spec.min_heap_mb as f64),
            spec.mean_object_words.to_string(),
            format!("{:.0}", spec.large_fraction * 100.0),
            format!("{:.0}", spec.survival_rate * 100.0),
        ]);
    }
    table
}

/// **Table 4 / Figure 5**: request latency percentiles for the four
/// latency-critical workloads at a 1.3× heap under G1, LXR, Shenandoah, ZGC.
pub fn table4_latency(options: &ExperimentOptions) -> (Table, Vec<WorkloadResult>) {
    let mut table = Table::new(
        "Table 4 / Figure 5: request latency (ms) at 1.3x heap",
        &["benchmark", "collector", "50%", "90%", "99%", "99.9%", "99.99%"],
    );
    let mut results = Vec::new();
    for spec in latency_suite() {
        for collector in comparison_collectors(options) {
            let r = run_checked(&spec, collector, &options.run_options(1.3));
            if r.skipped {
                table.row(vec![
                    spec.name.into(),
                    (*collector).into(),
                    "skipped".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]);
            } else {
                table.row(vec![
                    spec.name.into(),
                    (*collector).into(),
                    fmt_latency(&r, 50.0),
                    fmt_latency(&r, 90.0),
                    fmt_latency(&r, 99.0),
                    fmt_latency(&r, 99.9),
                    fmt_latency(&r, 99.99),
                ]);
            }
            results.push(r);
        }
    }
    (table, results)
}

/// **Table 5**: geometric-mean 99.99% latency (latency suite) and execution
/// time (full suite) relative to G1 at 1.3×, 2× and 6× heaps.
pub fn table5_heap_sensitivity(options: &ExperimentOptions) -> Table {
    let mut table = Table::new(
        "Table 5: heap sensitivity (relative to G1)",
        &["heap", "collector", "99.99% latency / G1", "time / G1"],
    );
    for &factor in sweep_factors(options) {
        // Measure G1 first as the denominator.
        let g1_latency = geomean_latency("g1", factor, options);
        let g1_time = geomean_time("g1", factor, options);
        for collector in comparison_collectors(options) {
            let lat = geomean_latency(collector, factor, options);
            let time = geomean_time(collector, factor, options);
            table.row(vec![
                format!("{factor}x"),
                collector.to_string(),
                match (lat, g1_latency) {
                    (Some(l), Some(g)) if g > 0.0 => ratio(l / g),
                    _ => "-".to_string(),
                },
                match (time, g1_time) {
                    (Some(t), Some(g)) if g > 0.0 => ratio(t / g),
                    _ => "-".to_string(),
                },
            ]);
        }
    }
    table
}

fn geomean_latency(collector: &str, factor: f64, options: &ExperimentOptions) -> Option<f64> {
    let mut product = 1.0f64;
    let mut n = 0usize;
    for spec in latency_suite() {
        let r = run_checked(&spec, collector, &options.run_options(factor));
        if r.skipped {
            continue;
        }
        if let Some(d) = r.latency_percentile(99.99) {
            product *= d.as_secs_f64().max(1e-6);
            n += 1;
        }
    }
    if n == 0 {
        None
    } else {
        Some(product.powf(1.0 / n as f64))
    }
}

fn geomean_time(collector: &str, factor: f64, options: &ExperimentOptions) -> Option<f64> {
    let mut product = 1.0f64;
    let mut n = 0usize;
    for spec in throughput_subset(options) {
        let r = run_checked(&spec, collector, &options.run_options(factor));
        if r.skipped {
            continue;
        }
        product *= r.wall_time.as_secs_f64().max(1e-6);
        n += 1;
    }
    if n == 0 {
        None
    } else {
        Some(product.powf(1.0 / n as f64))
    }
}

/// The throughput benchmarks used for aggregate numbers.  Quick runs use a
/// representative subset so experiments stay fast.
fn throughput_subset(options: &ExperimentOptions) -> Vec<BenchmarkSpec> {
    let all = suite();
    if options.scale >= 0.75 {
        all
    } else {
        let names: &[&str] = if options.scale < 0.05 {
            &["lusearch", "avrora", "fop"]
        } else {
            &["lusearch", "h2", "avrora", "xalan", "fop", "batik"]
        };
        names.iter().filter_map(|n| benchmark(n)).collect()
    }
}

/// **Table 6**: execution time for every benchmark at a 2× heap, with LXR,
/// Shenandoah and ZGC normalised to G1.
pub fn table6_throughput(options: &ExperimentOptions) -> (Table, Vec<WorkloadResult>) {
    let mut table = Table::new(
        "Table 6: throughput at 2x heap (time, normalised to G1)",
        &["benchmark", "G1 (ms)", "LXR", "Shenandoah", "ZGC"],
    );
    let mut results = Vec::new();
    for spec in throughput_subset(options) {
        let g1 = run_checked(&spec, "g1", &options.run_options(2.0));
        let g1_time = g1.wall_time;
        let mut cells = vec![spec.name.to_string(), format!("{:.0}", g1_time.as_secs_f64() * 1e3)];
        results.push(g1);
        for collector in ["lxr", "shenandoah", "zgc"] {
            let r = run_checked(&spec, collector, &options.run_options(2.0));
            cells.push(if r.skipped || g1_time.is_zero() {
                "-".to_string()
            } else {
                ratio(r.wall_time.as_secs_f64() / g1_time.as_secs_f64())
            });
            results.push(r);
        }
        table.row(cells);
    }
    (table, results)
}

/// **Table 7**: LXR breakdown — concurrency ablations, pause statistics,
/// barrier take rates and reclamation breakdown.
pub fn table7_breakdown(options: &ExperimentOptions) -> Table {
    use lxr_runtime::WorkCounter;
    let mut table = Table::new(
        "Table 7: LXR breakdown (2x heap)",
        &[
            "benchmark",
            "time ms",
            "-SATB",
            "-LD",
            "STW",
            "pauses/s",
            "p50 ms",
            "p95 ms",
            "SATB%",
            "!lazy%",
            "young%",
            "old%",
            "satb%",
            "copied/freed%",
        ],
    );
    for spec in throughput_subset(options) {
        let lxr = run_checked(&spec, "lxr", &options.run_options(2.0));
        let no_satb = run_checked(&spec, "lxr-nosatb", &options.run_options(2.0));
        let no_ld = run_checked(&spec, "lxr-nold", &options.run_options(2.0));
        let stw = run_checked(&spec, "lxr-stw", &options.run_options(2.0));
        let base = lxr.wall_time.as_secs_f64().max(1e-9);
        let reclaimed_young = lxr
            .gc
            .counter(WorkCounter::ObjectsAllocated)
            .saturating_sub(lxr.gc.counter(WorkCounter::YoungSurvivors));
        let old = lxr.gc.counter(WorkCounter::RcDeaths);
        let satb = lxr.gc.counter(WorkCounter::SatbDeaths);
        let total_reclaimed = (reclaimed_young + old + satb).max(1);
        let copied = lxr.gc.counter(WorkCounter::YoungObjectsCopied);
        let freed_blocks = lxr.gc.counter(WorkCounter::YoungBlocksFreed).max(1);
        table.row(vec![
            spec.name.to_string(),
            format!("{:.0}", lxr.wall_time.as_secs_f64() * 1e3),
            ratio(no_satb.wall_time.as_secs_f64() / base),
            ratio(no_ld.wall_time.as_secs_f64() / base),
            ratio(stw.wall_time.as_secs_f64() / base),
            format!("{:.1}", lxr.gc.pause_count() as f64 / lxr.wall_time.as_secs_f64()),
            ms(lxr.gc.pause_percentile(50.0)),
            ms(lxr.gc.pause_percentile(95.0)),
            format!("{:.0}", lxr.gc.satb_pause_fraction() * 100.0),
            format!("{:.0}", lxr.gc.lazy_incomplete_fraction() * 100.0),
            format!("{:.1}", reclaimed_young as f64 / total_reclaimed as f64 * 100.0),
            format!("{:.1}", old as f64 / total_reclaimed as f64 * 100.0),
            format!("{:.1}", satb as f64 / total_reclaimed as f64 * 100.0),
            format!("{:.1}", copied as f64 / freed_blocks as f64),
        ]);
    }
    table
}

/// **Figure 7**: lower-bound overhead (LBO) of each collector at a range of
/// heap sizes, for wall-clock time (a) and a total-cycles proxy (b).
///
/// Following Cai et al., the baseline for each benchmark/metric is the
/// cheapest observed execution with its stop-the-world cost subtracted; a
/// collector's LBO is its cost divided by that baseline.
pub fn fig7_lbo(options: &ExperimentOptions) -> Table {
    let collectors = ["serial", "parallel", "semispace", "g1", "shenandoah", "zgc", "lxr"];
    let factors: &[f64] = if options.scale < 0.05 { &[2.0, 4.0] } else { &[2.0, 3.0, 4.0, 6.0] };
    let specs = throughput_subset(options);
    let mut table = Table::new(
        "Figure 7: lower-bound overhead vs heap size (geomean over benchmarks)",
        &["heap", "collector", "LBO time", "LBO cycles"],
    );
    for &factor in factors {
        // Gather per-benchmark results for every collector at this heap.
        let mut per_bench: Vec<Vec<(usize, WorkloadResult)>> = vec![Vec::new(); specs.len()];
        for (ci, collector) in collectors.iter().enumerate() {
            for (bi, spec) in specs.iter().enumerate() {
                let r = run_checked(spec, collector, &options.run_options(factor));
                per_bench[bi].push((ci, r));
            }
        }
        // Baseline per benchmark: minimum (time - stw time) over collectors.
        for (ci, collector) in collectors.iter().enumerate() {
            let mut time_product = 1.0f64;
            let mut cycles_product = 1.0f64;
            let mut n = 0usize;
            for (bi, spec) in specs.iter().enumerate() {
                let baseline_time = per_bench[bi]
                    .iter()
                    .filter(|(_, r)| !r.skipped)
                    .map(|(_, r)| (r.wall_time.saturating_sub(r.gc.stw_gc_time)).as_secs_f64())
                    .fold(f64::INFINITY, f64::min);
                let baseline_cycles = per_bench[bi]
                    .iter()
                    .filter(|(_, r)| !r.skipped)
                    .map(|(_, r)| {
                        (r.cycles_proxy(spec.mutator_threads)
                            .saturating_sub(r.gc.stw_gc_time)
                            .saturating_sub(r.gc.concurrent_gc_time))
                        .as_secs_f64()
                    })
                    .fold(f64::INFINITY, f64::min);
                let Some((_, r)) = per_bench[bi].iter().find(|(c, _)| *c == ci) else { continue };
                if r.skipped || baseline_time <= 0.0 || !baseline_time.is_finite() {
                    continue;
                }
                time_product *= r.wall_time.as_secs_f64() / baseline_time;
                cycles_product *= r.cycles_proxy(spec.mutator_threads).as_secs_f64() / baseline_cycles;
                n += 1;
            }
            if n > 0 {
                table.row(vec![
                    format!("{factor}x"),
                    collector.to_string(),
                    ratio(time_product.powf(1.0 / n as f64)),
                    ratio(cycles_product.powf(1.0 / n as f64)),
                ]);
            } else {
                table.row(vec![format!("{factor}x"), collector.to_string(), "-".into(), "-".into()]);
            }
        }
    }
    table
}

/// **§5.3**: mutator overhead of the field-logging write barrier, measured
/// as the slowdown of full-heap Immix with the barrier installed relative to
/// Immix without it.
pub fn barrier_overhead(options: &ExperimentOptions) -> Table {
    let mut table = Table::new(
        "Field barrier mutator overhead (Immix +/- barrier, 2x heap)",
        &["benchmark", "immix ms", "immix+barrier ms", "overhead"],
    );
    for spec in throughput_subset(options) {
        let plain = run_checked(&spec, "immix", &options.run_options(2.0));
        let barrier = run_checked(&spec, "immix+barrier", &options.run_options(2.0));
        table.row(vec![
            spec.name.to_string(),
            format!("{:.0}", plain.wall_time.as_secs_f64() * 1e3),
            format!("{:.0}", barrier.wall_time.as_secs_f64() * 1e3),
            ratio(barrier.wall_time.as_secs_f64() / plain.wall_time.as_secs_f64().max(1e-9)),
        ]);
    }
    table
}

/// **§5.4**: sensitivity of LXR to block size, reference-count width and
/// clean-block buffer size.
pub fn sensitivity(options: &ExperimentOptions) -> Table {
    use lxr_baselines::plan_registry;
    use lxr_runtime::Runtime;

    let spec = benchmark("lusearch").expect("lusearch spec");
    let mut table = Table::new(
        "Sensitivity: LXR configuration sweeps (lusearch, 2x heap)",
        &["parameter", "value", "time ms"],
    );
    let mut run_with = |label: &str, value: String, configure: &dyn Fn(HeapConfig) -> HeapConfig| {
        let heap_bytes = spec.heap_bytes(2.0);
        let heap = configure(HeapConfig::with_heap_size(heap_bytes));
        let runtime =
            Runtime::with_factory(options.runtime.clone().with_heap_config(heap), plan_registry("lxr"));
        let start = std::time::Instant::now();
        // Reuse the throughput engine via a short, single-threaded burst.
        let mut mutator = runtime.bind_mutator();
        let keeper_root = {
            let keeper = mutator.alloc(64, 0, 0);
            mutator.push_root(keeper)
        };
        let target = ((spec.total_alloc_mb as f64 * options.scale) * 1024.0 * 1024.0) as usize / 8;
        let mut allocated = 0usize;
        let mut i = 0u64;
        while allocated < target {
            let obj = mutator.alloc(1, 10, 0);
            mutator.write_data(obj, 0, i);
            allocated += 12;
            if i.is_multiple_of(100) {
                let keeper = mutator.root(keeper_root);
                mutator.write_ref(keeper, (i / 100) as usize % 64, obj);
            }
            i += 1;
        }
        let elapsed = start.elapsed();
        drop(mutator);
        runtime.shutdown();
        table.row(vec![label.to_string(), value, format!("{:.0}", elapsed.as_secs_f64() * 1e3)]);
    };

    for block_kb in [16usize, 32, 64] {
        run_with("block size", format!("{block_kb} KB"), &|h: HeapConfig| {
            h.with_block_bytes(block_kb * 1024)
        });
    }
    for rc_bits in [2u8, 4, 8] {
        run_with("rc bits", format!("{rc_bits}"), &|h: HeapConfig| h.with_rc_bits(rc_bits));
    }
    for entries in [32usize, 64, 128] {
        run_with("block buffer", format!("{entries}"), &|h: HeapConfig| h.with_block_buffer_entries(entries));
    }
    table
}

/// **Scenario diversity**: the social-graph-churn workload, where dense
/// mature connectivity and cyclic garbage make the concurrent backup trace
/// the reclamation bottleneck.  Compares collectors at a 2× heap and LXR's
/// crew at 1 vs several concurrent workers (time-to-reclaim for cyclic
/// garbage tracks concurrent-mark throughput).
pub fn social_graph(options: &ExperimentOptions) -> Table {
    let spec = social_graph_churn();
    let mut table = Table::new(
        "Social graph churn (wide fanout, cyclic mature garbage, 2x heap)",
        &[
            "configuration",
            "time ms",
            "pauses",
            "p95 ms",
            "SATB deaths",
            "epoch ok",
            "epoch stale",
            "GC busy ms",
        ],
    );
    let mut run = |label: String, collector: &str, concurrent_workers: usize| {
        let mut run_options = options.run_options(2.0);
        run_options.runtime.concurrent_workers = concurrent_workers;
        let r = run_checked(&spec, collector, &run_options);
        let busy = r.gc.stw_gc_time + r.gc.concurrent_gc_time;
        table.row(vec![
            label,
            format!("{:.0}", r.wall_time.as_secs_f64() * 1e3),
            format!("{}", r.gc.pause_count()),
            ms(r.gc.pause_percentile(95.0)),
            format!("{}", r.gc.counter(lxr_runtime::WorkCounter::SatbDeaths)),
            format!("{}", r.gc.counter(lxr_runtime::WorkCounter::EpochChecksPassed)),
            format!("{}", r.gc.counter(lxr_runtime::WorkCounter::EpochStaleDrops)),
            format!("{:.1}", busy.as_secs_f64() * 1e3),
        ]);
    };
    for collector in ["g1", "shenandoah"] {
        run(collector.to_string(), collector, 1);
    }
    for crew in [1usize, 2, 4] {
        run(format!("lxr crew={crew}"), "lxr", crew);
    }
    // The generational variant on the same cyclic-garbage workload: sticky
    // cycles skip the mature graph, and the escalation policy decides when
    // a full trace reclaims the retired hub neighbourhoods.
    run("lxr-sticky crew=2".to_string(), "lxr-sticky", 2);
    table
}

/// Renders a mapped-chunks-per-pause series as a compact sparkline so one
/// table cell shows the footprint rising into each burst and falling back
/// through the idle phases (the "footprint over time" view).
fn chunk_sparkline(series: &[usize]) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if series.is_empty() {
        return "-".to_string();
    }
    let lo = *series.iter().min().expect("non-empty");
    let hi = *series.iter().max().expect("non-empty");
    let span = (hi - lo).max(1);
    let width = series.len().min(32);
    (0..width).map(|i| LEVELS[(series[i * series.len() / width] - lo) * (LEVELS.len() - 1) / span]).collect()
}

/// **Elastic heap**: the traffic-spike workload on an elastic heap ranging
/// from 1× (minimum) to 3× (maximum) of the benchmark's minimum heap, for
/// every collector.  Each burst should map chunks on demand and each idle
/// phase should release them again, so the footprint column oscillates; the
/// trigger columns show predictive GCs outnumbering exhaustion GCs once the
/// allocation-rate predictor has warmed up.  A fixed-extent control run at
/// the same maximum heap — with the full-heap sanity verifier inside every
/// pause — pins down that chunk bookkeeping stays clean when elasticity is
/// off.
pub fn heap_elasticity(options: &ExperimentOptions) -> Table {
    use lxr_runtime::WorkCounter;
    let spec = traffic_spike();
    let mut table = Table::new(
        "Elastic heap: traffic spike, heap 1x..3x min (mapped chunks over the run)",
        &[
            "configuration",
            "time ms",
            "chunks lo/hi/end",
            "mapped",
            "released",
            "predictive",
            "exhausted",
            "footprint over time",
        ],
    );
    let mut run = |label: String, collector: &str, elastic: bool, verify_every_gc: bool| {
        let mut run_options = options.run_options(3.0);
        if elastic {
            run_options.min_heap_factor = Some(1.0);
        }
        if verify_every_gc {
            run_options.runtime.verify_every_n_gcs = Some(1);
        }
        let r = run_checked(&spec, collector, &run_options);
        if r.skipped {
            table.row(vec![
                label,
                "skipped".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
            return;
        }
        let series: Vec<usize> = r.gc.pauses.iter().map(|p| p.mapped_chunks).collect();
        let lo = series.iter().copied().min().unwrap_or(0);
        let hi = series.iter().copied().max().unwrap_or(0);
        let end = series.last().copied().unwrap_or(0);
        table.row(vec![
            label,
            format!("{:.0}", r.wall_time.as_secs_f64() * 1e3),
            format!("{lo}/{hi}/{end}"),
            format!("{}", r.gc.counter(WorkCounter::ChunksMapped)),
            format!("{}", r.gc.counter(WorkCounter::ChunksReleased)),
            format!("{}", r.gc.counter(WorkCounter::TriggerPredictive)),
            format!("{}", r.gc.counter(WorkCounter::TriggerExhaustion)),
            chunk_sparkline(&series),
        ]);
    };
    for collector in ["lxr", "lxr-sticky", "g1", "shenandoah"] {
        run(format!("{collector} elastic"), collector, true, false);
    }
    run("lxr fixed+verify".to_string(), "lxr", false, true);
    table
}

/// The collectors the serving benchmark compares: the paper's collector
/// against its stickied variant and the two baselines whose pause profiles
/// bracket it (generational stop-the-world and concurrent copying).
const SERVE_COLLECTORS: &[&str] = &["lxr", "lxr-sticky", "g1", "shenandoah"];

/// [`run_serve`] with the same integrity reporting as [`run_checked`].
fn run_serve_checked(spec: &ServeSpec, collector: &str, options: &ServeOptions) -> ServeResult {
    let r = run_serve(spec, collector, options);
    if let Some(report) = &r.failure {
        eprintln!("INTEGRITY FAILURE: {} on {}\n{report}", collector, spec.name);
        INTEGRITY_FAILURES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
    r
}

/// **Serving**: the open-loop session-frontend benchmark — a seeded
/// arrival schedule (so every collector serves the *same* offered load),
/// coordinated-omission-correct latency percentiles, allocation-stall time,
/// and the request-aware pause gate's counters (triggers parked at request
/// boundaries, collections released there, concurrent kicks from idle
/// mutators).
pub fn serve(options: &ExperimentOptions) -> (Table, Vec<ServeResult>) {
    let spec = serve_spec();
    let mut table = Table::new(
        "Serving: open-loop session frontend (latency µs; 2x heap, gate on)",
        &["collector", "QPS", "p50", "p90", "p99", "p99.9", "max", "stall ms", "parked", "boundary", "kicks"],
    );
    let serve_opts = options.serve_options();
    let mut results = Vec::new();
    for collector in SERVE_COLLECTORS {
        let r = run_serve_checked(&spec, collector, &serve_opts);
        if r.skipped {
            table.row(vec![(*collector).into(), "skipped".into()]);
        } else {
            table.row(vec![
                (*collector).into(),
                format!("{:.0}", r.qps),
                us(r.percentile(50.0)),
                us(r.percentile(90.0)),
                us(r.percentile(99.0)),
                us(r.percentile(99.9)),
                us(r.histogram.max()),
                ms(r.alloc_stall_time),
                format!("{}", r.gc.counter(lxr_runtime::WorkCounter::GateDeferredTriggers)),
                format!("{}", r.gc.counter(lxr_runtime::WorkCounter::GateBoundaryPauses)),
                format!("{}", r.gc.counter(lxr_runtime::WorkCounter::GateKicks)),
            ]);
        }
        results.push(r);
    }
    (table, results)
}

/// The pinned fault schedules the chaos experiment sweeps.  Each is a
/// deterministic [`lxr_failpoints`] schedule exercising a different failure
/// class; the seeds are fixed so a failing cell reproduces exactly.
pub const CHAOS_SCHEDULES: &[(&str, &str)] = &[
    // Preemption storm: crews and mutators yield constantly, stressing the
    // publish-then-recheck handshakes and pause quiescence.
    ("yield-storm", "seed=7;crew.*=yield@p=0.2;mutator.safepoint=yield@every=64"),
    // Slow phases: every third hit of each pause-phase boundary stalls,
    // stretching pauses without changing their order.
    ("slow-pause", "seed=7;pause.*=delay:200us@every=3"),
    // Allocation failure: every 401st allocation reports a (simulated)
    // out-of-memory, driving the retry/stall/clean-OOM machinery.
    ("alloc-fail", "seed=7;runtime.alloc=oom@every=401"),
    // Forced degradation: every other pause runs its SATB catch-up as the
    // unbounded stop-the-world fallback (LXR only; inert elsewhere).
    ("degenerate", "seed=7;pause.satb-feed=degenerate@every=2"),
    // Chunk churn: chunk mapping stalls, chunk release yields mid-release
    // and the predictive trigger yields before requesting its GC, racing
    // the elastic heap's grow/shrink path against allocation.  Only fires
    // on the traffic-spike cells — fixed-extent heaps never reach these
    // sites.
    (
        "chunk-churn",
        "seed=7;heap.chunk-map=delay:50us@every=2;heap.chunk-release=yield@p=0.5;\
         trigger.predictive=yield@p=0.25",
    ),
];

/// **Chaos**: runs the deep-list, traffic-spike (on an elastic heap, so the
/// chunk-map/release and predictive-trigger sites are reachable) and
/// social-graph workloads under each pinned fault schedule for LXR (plain
/// and sticky), G1 and Shenandoah, classifying every cell
/// as `survived` (completed, no degradation), `degraded` (completed via the
/// degenerated-collection fallback), or `failed` (panic or integrity
/// failure).  A no-op sweep unless built with `--features failpoints`.
pub fn chaos(options: &ExperimentOptions) -> Table {
    use lxr_runtime::WorkCounter;
    let mut table = Table::new(
        if lxr_failpoints::ENABLED {
            "Chaos: pinned fault schedules (2x heap)"
        } else {
            "Chaos: pinned fault schedules (2x heap) — `failpoints` feature OFF, schedules are inert"
        },
        &["schedule", "benchmark", "collector", "outcome", "detail"],
    );
    let specs: Vec<BenchmarkSpec> = if options.scale < 0.05 {
        vec![benchmark("avrora").expect("avrora spec"), traffic_spike()]
    } else {
        vec![benchmark("avrora").expect("avrora spec"), social_graph_churn(), traffic_spike()]
    };
    for (schedule_name, schedule) in CHAOS_SCHEDULES {
        for spec in &specs {
            for collector in ["lxr", "lxr-sticky", "g1", "shenandoah"] {
                let mut run_options = options.run_options(2.0);
                // The chunk-map/release and predictive-trigger failpoint
                // sites only exist on an elastic heap; give the spike
                // workload one so every schedule races growth and release.
                if spec.traffic_spike {
                    run_options.min_heap_factor = Some(1.0);
                }
                run_options.runtime.watchdog_ms.get_or_insert(60_000);
                // Install through a guard rather than the runtime options:
                // schedules are process-global, and the guard guarantees the
                // next cell starts clean even if this one panics.
                let _guard = lxr_failpoints::ScheduleGuard::install(schedule)
                    .unwrap_or_else(|e| panic!("invalid chaos schedule `{schedule}`: {e}"));
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_checked(spec, collector, &run_options)
                }));
                let (outcome, detail) = match outcome {
                    Err(payload) => {
                        let msg = payload
                            .downcast_ref::<String>()
                            .map(String::as_str)
                            .or_else(|| payload.downcast_ref::<&str>().copied())
                            .unwrap_or("non-string panic payload");
                        ("failed".to_string(), msg.lines().next().unwrap_or("").to_string())
                    }
                    Ok(r) if r.failure.is_some() => {
                        ("failed".to_string(), "integrity failure (see stderr)".to_string())
                    }
                    Ok(r) if r.skipped => ("skipped".to_string(), String::new()),
                    Ok(r) => {
                        let degenerated = r.gc.counter(WorkCounter::DegeneratedCollections);
                        if degenerated > 0 {
                            ("degraded".to_string(), format!("{degenerated} degenerated collections"))
                        } else {
                            ("survived".to_string(), format!("{} pauses", r.gc.pause_count()))
                        }
                    }
                };
                table.row(vec![
                    schedule_name.to_string(),
                    spec.name.to_string(),
                    collector.to_string(),
                    outcome,
                    detail,
                ]);
            }
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_options(scale: f64) -> ExperimentOptions {
        ExperimentOptions { scale, seed: 1, ..ExperimentOptions::quick() }
    }

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    /// Every runtime flag the harness accepts, each set off its default.
    const RUNTIME_FLAGS: &str = "--gc-workers 3 --concurrent-workers 5 --failpoints seed=7;crew.*=yield \
                                 --verify-every-n-gcs 2 --watchdog-ms 900 --oom-stall-ms 1234";

    /// The runtime options with the heap, which the engines replace, reset.
    fn without_heap(runtime: &RuntimeOptions) -> String {
        format!("{:?}", runtime.clone().with_heap_config(HeapConfig::default()))
    }

    #[test]
    fn each_runtime_flag_lands_in_its_runtime_field() {
        let (options, quick, requested) =
            ExperimentOptions::from_args(args(&format!("{RUNTIME_FLAGS} --scale 0.5 table1 serve")));
        assert!(!quick);
        assert_eq!(requested, ["table1", "serve"]);
        assert_eq!(options.scale, 0.5);
        let runtime = &options.runtime;
        assert_eq!(runtime.gc_workers, 3);
        assert_eq!(runtime.concurrent_workers, 5);
        assert_eq!(runtime.failpoints.as_deref(), Some("seed=7;crew.*=yield"));
        assert_eq!(runtime.verify_every_n_gcs, Some(2));
        assert_eq!(runtime.watchdog_ms, Some(900));
        assert_eq!(runtime.oom_retry_stall_ms, 1234);
    }

    #[test]
    fn quick_keeps_its_scale_and_gc_workers() {
        let (options, quick, requested) =
            ExperimentOptions::from_args(args("--quick bench-snapshot out.json"));
        assert!(quick);
        assert_eq!(requested, ["bench-snapshot", "out.json"]);
        assert_eq!(options.scale, 0.1);
        assert_eq!(options.runtime.gc_workers, 2);
        assert_eq!(options.runtime.concurrent_workers, 2);
        let (options, ..) = ExperimentOptions::from_args(args("--quick --gc-workers 8"));
        assert_eq!((options.scale, options.runtime.gc_workers), (0.1, 8), "flags after --quick still apply");
    }

    #[test]
    fn engine_options_carry_the_harness_runtime() {
        let (options, ..) = ExperimentOptions::from_args(args(&format!("--scale 0.3 {RUNTIME_FLAGS}")));
        let expected = without_heap(&options.runtime);
        let run = options.run_options(1.3);
        assert_eq!((run.heap_factor, run.scale, run.seed), (1.3, 0.3, options.seed));
        assert_eq!(without_heap(&run.runtime), expected);
        let serve = options.serve_options();
        assert_eq!((serve.scale, serve.seed), (0.3, options.seed));
        assert!(serve.runtime.pause_gate, "the serving table measures the gate");
        assert_eq!(without_heap(&serve.runtime.with_pause_gate(false)), expected);
    }

    #[test]
    fn experiment_selection_rejects_unknown_names() {
        assert_eq!(select_experiments(&args("table7 tabel7")).unwrap_err(), "tabel7");
        let names = |line: &str| -> Vec<&str> {
            select_experiments(&args(line)).unwrap().iter().map(|e| e.name).collect()
        };
        assert_eq!(names("serve table7"), ["table7", "serve"], "run in list order");
        assert!(!names("all").contains(&"chaos"), "chaos is opt-in");
        assert_eq!(names("all chaos").len(), EXPERIMENTS.len());
    }

    #[test]
    fn table3_lists_all_benchmarks() {
        assert_eq!(table3_characteristics().len(), 17);
    }

    #[test]
    fn table1_runs_quickly_at_small_scale() {
        let (table, results) = table1_lusearch(&quick_options(0.02));
        assert_eq!(table.len(), 4);
        assert!(results.iter().filter(|r| !r.skipped).count() >= 3);
    }

    #[test]
    fn barrier_overhead_produces_a_ratio_per_benchmark() {
        let table = barrier_overhead(&quick_options(0.05));
        assert!(table.len() >= 5);
    }

    #[test]
    fn social_graph_compares_collectors_and_crew_sizes() {
        let table = social_graph(&quick_options(0.05));
        assert_eq!(table.len(), 6, "g1, shenandoah, three LXR crew sizes, and sticky LXR");
    }

    #[test]
    fn heap_elasticity_covers_every_collector_plus_a_fixed_control() {
        let table = heap_elasticity(&quick_options(0.05));
        assert_eq!(table.len(), 5, "four elastic collectors plus the fixed+verify control");
    }

    #[test]
    fn serve_compares_the_four_collectors() {
        let (table, results) = serve(&quick_options(0.05));
        assert_eq!(table.len(), SERVE_COLLECTORS.len());
        for r in results.iter().filter(|r| !r.skipped) {
            assert!(r.failure.is_none(), "{}: {:?}", r.collector, r.failure);
            assert_eq!(r.histogram.count(), r.requests as u64);
        }
        // Every collector served the identical offered schedule.
        let digests: Vec<u64> = results.iter().map(|r| r.schedule_digest).collect();
        assert!(digests.windows(2).all(|w| w[0] == w[1]), "schedules diverged: {digests:?}");
    }

    #[test]
    fn chunk_sparkline_scales_and_downsamples() {
        assert_eq!(chunk_sparkline(&[]), "-");
        assert_eq!(chunk_sparkline(&[5]), "▁");
        assert_eq!(chunk_sparkline(&[1, 8]), "▁█");
        let long: Vec<usize> = (0..64).collect();
        assert_eq!(chunk_sparkline(&long).chars().count(), 32);
    }
}
