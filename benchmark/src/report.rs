//! Turns measured windows into the named metrics, checks the invariants the
//! design rests on, and writes the trace file.

use crate::driver::Measured;
use crate::kernels::KernelRows;
use crate::metrics::{
    highest_resolved_percentile, median, percentile, MetricDef, Value, END_TO_END, PER_LAYER,
};
use crate::spec::Workload;
use crate::spec::SLO_NS;
use crate::trace::{self, Layer, LayerStats, LAYERS, SAMPLE_EVERY};
use lxr::runtime::WorkCounter;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Duration;

pub type Metrics = BTreeMap<String, Value>;

struct Rows<'a> {
    defs: &'a [MetricDef],
    out: Metrics,
}

impl Rows<'_> {
    fn put(&mut self, name: &str, value: f64, samples: u64) {
        let def =
            self.defs.iter().find(|d| d.name == name).unwrap_or_else(|| panic!("`{name}` is not a metric"));
        let value = Value { value, unit: def.unit.to_string(), samples };
        assert!(self.out.insert(name.to_string(), value).is_none(), "`{name}` reported twice");
    }

    fn finish(self) -> Metrics {
        for def in self.defs {
            assert!(self.out.contains_key(def.name), "`{}` was not reported", def.name);
        }
        self.out
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn latency_us(sorted_ns: &[u32], pct: f64) -> f64 {
    us(percentile(sorted_ns, pct).expect("a window has requests") as u64)
}

/// The six end-to-end metrics of one run.  Each timing is computed over
/// the whole of a window, nothing inside it set aside, and the run reports
/// the median of its windows' values: a disturbance of the host confined to
/// a minority of the windows moves nothing, what the collector does in most
/// of them counts.
pub fn end_to_end(windows: &[Measured], setups: &[Duration]) -> Metrics {
    let over_windows = |f: &dyn Fn(&Measured) -> f64| median(windows.iter().map(f).collect());
    let n = windows.len() as u64;
    let mut rows = Rows { defs: &END_TO_END, out: Metrics::new() };
    rows.put("throughput_rps", over_windows(&Measured::throughput_rps), n);
    rows.put("latency_p50_us", over_windows(&|m| latency_us(&m.latencies, 50.0)), n);
    rows.put("latency_p99_us", over_windows(&|m| latency_us(&m.latencies, 99.0)), n);
    rows.put("gc_cpu_us_per_request", over_windows(&|m| us(m.cpu.gc_ns()) / m.requests as f64), n);
    let rss_peak_mib = windows.iter().map(|m| m.rss_peak_mib).fold(0.0, f64::max);
    rows.put("rss_peak_mb", rss_peak_mib, 1);
    rows.put("setup_s", median(setups.iter().map(Duration::as_secs_f64).collect()), setups.len() as u64);
    rows.finish()
}

/// The 56 per-layer rows: counters, pauses, CPU and latencies from the
/// untraced window `u`, spans from the traced window `t`, kernels from `k`.
pub fn per_layer(u: &Measured, t: &Measured, k: &KernelRows) -> Metrics {
    let latencies = &u.latencies;
    let n = u.requests as u64;
    let per_request = |count: u64| count as f64 / n as f64;
    let wall = u.wall_s();
    let pauses = u.pauses.len() as u64;
    let mut rows = Rows { defs: &PER_LAYER, out: Metrics::new() };

    let stats = |l: Layer| &t.layers[l as usize];
    let mean_ns = |l: Layer| stats(l).mean_ns();
    let calls = |l: Layer| stats(l).calls();
    rows.put("runtime.mutator.alloc_ns_mean", mean_ns(Layer::Alloc), calls(Layer::Alloc));
    let alloc_p99 = stats(Layer::Alloc).durations.percentile(99.0).as_nanos() as f64;
    rows.put("runtime.mutator.alloc_ns_p99", alloc_p99, calls(Layer::Alloc));
    rows.put("runtime.mutator.alloc_slow_share", stats(Layer::Alloc).slow_share(), calls(Layer::Alloc));

    let mib = u.counter(WorkCounter::WordsAllocated) as f64 * 8.0 / (1u64 << 20) as f64;
    rows.put(
        "heap.block_alloc.central_locks_per_mib",
        ratio(u.central_locks as f64, mib),
        u.central_locks as u64,
    );
    let young_freed = u.counter(WorkCounter::YoungBlocksFreed);
    rows.put("heap.block_alloc.young_blocks_freed_per_s", young_freed as f64 / wall, young_freed);
    let recycled = u.counter(WorkCounter::BlocksRecycled);
    rows.put("heap.block_alloc.blocks_recycled_per_s", recycled as f64 / wall, recycled);

    rows.put("barrier.write_ref_ns_mean", mean_ns(Layer::WriteRef), calls(Layer::WriteRef));
    let write_p99 = stats(Layer::WriteRef).durations.percentile(99.0).as_nanos() as f64;
    rows.put("barrier.write_ref_ns_p99", write_p99, calls(Layer::WriteRef));
    rows.put("barrier.write_ref_slow_share", stats(Layer::WriteRef).slow_share(), calls(Layer::WriteRef));
    rows.put("barrier.read_ref_ns_mean", mean_ns(Layer::ReadRef), calls(Layer::ReadRef));

    for (name, counter) in [
        ("rc.increments_per_request", WorkCounter::IncrementsApplied),
        ("rc.decrements_per_request", WorkCounter::DecrementsApplied),
        ("rc.deaths_per_request", WorkCounter::RcDeaths),
        ("rc.young_survivors_per_request", WorkCounter::YoungSurvivors),
    ] {
        rows.put(name, per_request(u.counter(counter)), u.counter(counter));
    }

    let mut durations: Vec<u64> = u.pauses.iter().map(|p| p.duration.as_nanos() as u64).collect();
    durations.sort_unstable();
    let mut stops: Vec<u64> = u.pauses.iter().map(|p| p.time_to_stop.as_nanos() as u64).collect();
    stops.sort_unstable();
    let pct_us = |sorted: &[u64], pct: f64| us(percentile(sorted, pct).unwrap_or(0));
    let pause_share = |f: &dyn Fn(&lxr::runtime::PauseRecord) -> bool| {
        ratio(u.pauses.iter().filter(|p| f(p)).count() as f64, pauses as f64)
    };
    rows.put("core.pause.count_per_s", pauses as f64 / wall, pauses);
    rows.put("core.pause.duration_us_p50", pct_us(&durations, 50.0), pauses);
    rows.put("core.pause.duration_us_p95", pct_us(&durations, 95.0), pauses);
    rows.put("core.pause.duration_us_max", pct_us(&durations, 100.0), pauses);
    rows.put("core.pause.stw_share", u.stw_time().as_secs_f64() / wall, pauses);
    rows.put("core.pause.satb_start_share", pause_share(&|p| p.started_satb), pauses);
    rows.put("core.pause.lazy_incomplete_share", pause_share(&|p| p.lazy_incomplete), pauses);
    rows.put("runtime.rendezvous.time_to_stop_us_p50", pct_us(&stops, 50.0), pauses);
    rows.put("runtime.rendezvous.time_to_stop_us_p95", pct_us(&stops, 95.0), pauses);

    rows.put("runtime.workers.cpu_us_per_request", us(u.cpu.workers_ns) / n as f64, n);
    let steals = u.counter(WorkCounter::SchedSteals);
    rows.put("runtime.workers.steals_per_pause", ratio(steals as f64, pauses as f64), steals);
    let parks = u.counter(WorkCounter::SchedParks);
    rows.put("runtime.workers.parks_per_pause", ratio(parks as f64, pauses as f64), parks);
    rows.put("runtime.workers.bucket_items_per_s", k.bucket_items_per_s.0, k.bucket_items_per_s.1);

    rows.put("core.concurrent.cpu_us_per_request", us(u.cpu.concurrent_ns) / n as f64, n);
    rows.put("core.concurrent.busy_share", u.concurrent_time().as_secs_f64() / wall, 1);

    rows.put("core.satb.traces_per_min", u.traces_started() as f64 * 60.0 / wall, u.traces_started());
    for (name, counter) in [
        ("core.satb.objects_marked_per_request", WorkCounter::ObjectsMarked),
        ("core.satb.slots_traced_per_request", WorkCounter::SlotsTraced),
        ("core.satb.deaths_per_request", WorkCounter::SatbDeaths),
        ("core.evac.words_copied_per_request", WorkCounter::WordsCopied),
        ("core.evac.mature_objects_copied_per_request", WorkCounter::MatureObjectsCopied),
    ] {
        rows.put(name, per_request(u.counter(counter)), u.counter(counter));
    }

    let predictive = u.counter(WorkCounter::TriggerPredictive);
    rows.put("core.predictors.trigger_predictive_share", ratio(predictive as f64, pauses as f64), pauses);
    rows.put(
        "core.predictors.trigger_exhaustion_count",
        u.counter(WorkCounter::TriggerExhaustion) as f64,
        pauses,
    );
    let degenerated = u.counter(WorkCounter::DegeneratedCollections);
    rows.put("runtime.stats.degenerated_collections", degenerated as f64, pauses);

    let deferred = u.counter(WorkCounter::GateDeferredTriggers);
    rows.put("runtime.pausegate.deferred_share", ratio(deferred as f64, pauses as f64), pauses);
    let boundary = u.counter(WorkCounter::GateBoundaryPauses);
    rows.put("runtime.pausegate.boundary_pause_share", ratio(boundary as f64, pauses as f64), pauses);
    let kicks = u.counter(WorkCounter::GateKicks);
    rows.put("runtime.pausegate.kicks_per_s", kicks as f64 / wall, kicks);
    let stall = u.alloc_stall_time().as_secs_f64() / (wall * u.threads as f64);
    rows.put("runtime.stats.alloc_stall_share", stall, pauses);

    rows.put("heap.side_metadata.census_gib_s", k.census_gib_s, k.metadata_samples);
    rows.put("heap.side_metadata.find_zero_run_ns", k.find_zero_run_ns, k.metadata_samples);
    let stale = u.counter(WorkCounter::EpochStaleDrops);
    let checked = stale + u.counter(WorkCounter::EpochChecksPassed);
    rows.put("heap.epoch.stale_drop_share", ratio(stale as f64, checked as f64), checked);
    let chunks = u.pauses.iter().map(|p| p.mapped_chunks).max().unwrap_or(0);
    rows.put("heap.pageresource.mapped_chunks_peak", chunks as f64, pauses);

    rows.put("workloads.serve.latency_p999_us", latency_us(latencies, 99.9), n);
    rows.put("workloads.serve.latency_max_us", latency_us(latencies, 100.0), n);
    let slo_misses = latencies.len() - latencies.partition_point(|&ns| ns as u64 <= SLO_NS);
    rows.put("workloads.serve.slo_miss_share", slo_misses as f64 / n as f64, n);
    let tail_share = trace::tail_overlapping_pause_share(&t.request_spans, &t.pause_intervals_ns());
    let tail = (t.request_spans.len() / 100).max(1) as u64;
    rows.put("workloads.serve.tail_overlapping_pause_share", tail_share, tail);
    rows.put("workloads.serve.mutator_cpu_us_per_request", us(u.cpu.mutator_ns) / n as f64, n);
    rows.put("workloads.serve.loadgen_late_us_p99", u.late_p99_us(), u.late.count());
    rows.put("workloads.serve.backlog_end_us", u.backlog_end_us, (n / 100).max(1));

    rows.put("runtime.nogc.request_us", k.nogc_request_us.0, k.nogc_request_us.1);
    let request_us = us(u.service_ns) / n as f64;
    rows.put("workloads.serve.lbo_time_overhead", request_us / k.nogc_request_us.0, n);
    rows.put("benchmark.trace_overhead_ratio", t.throughput_rps() / u.throughput_rps(), t.requests as u64);
    rows.finish()
}

/// The invariants the design rests on, as the issue sizes them for a 30 s
/// window.  A run that breaks one measured something else than the workload
/// says, so it does not count.  This host measures 27 and 77 pauses/s on the
/// alloc workloads and 1.8 and 12 on the mutate ones; a stop-the-world share
/// of 0.04, 0.04, 0.09 and 0.22 to 0.24 against 0.57 to 0.69 past the heap
/// cliff.
pub fn sizing_guard(workload: &Workload, m: &Measured, seconds: u64) -> Result<(), String> {
    let alloc_mix = workload.mix.stores == 0;
    let mut broken = Vec::new();
    let min_pauses = if alloc_mix { 500 } else { 30 } * seconds as usize / 30;
    if m.pauses.len() < min_pauses {
        broken.push(format!("{} pauses, fewer than {min_pauses}", m.pauses.len()));
    }
    // The open-loop mutate workload fills the heap's slack with retired
    // sessions about once in 1.25 M requests, more than it serves in a run,
    // so only the closed-loop one can promise traces (see the README).
    if !alloc_mix && !workload.open_loop() {
        let traces = m.traces_started();
        if traces < 2 {
            broken
                .push(format!("{traces} SATB traces started; a second start shows that the first completed"));
        }
        if m.counter(WorkCounter::SatbDeaths) == 0 {
            broken.push(
                "the SATB trace reclaimed nothing: the cyclic garbage is not being collected".to_string(),
            );
        }
    }
    let stw_share = m.stw_time().as_secs_f64() / m.wall_s();
    if stw_share >= 0.25 {
        broken.push(format!("stop-the-world share {stw_share:.2} is at least 0.25: the heap is thrashing"));
    }
    let exhausted = m.counter(WorkCounter::TriggerExhaustion);
    if exhausted > 0 {
        broken.push(format!("{exhausted} collections were triggered by exhaustion"));
    }
    if broken.is_empty() {
        Ok(())
    } else {
        Err(format!("sizing guard: {}", broken.join("; ")))
    }
}

/// A run that measured the timer or a growing queue must not be committed.
/// A wait that ended in the timer's slack is ~60 us late; this host's spin
/// is 0.1 us late at the median and 6 to 8 us at p99 (a timer tick).
pub fn loadgen_guard(workload: &Workload, m: &Measured) -> Result<(), String> {
    if !workload.open_loop() {
        return Ok(());
    }
    let late_p99_us = m.late_p99_us();
    if late_p99_us > 20.0 {
        return Err(format!("load generator: idle-dispatch lateness p99 is {late_p99_us:.1} us, over 20 us"));
    }
    if m.backlog_end_us > 20_000.0 {
        return Err(format!(
            "load generator: the last 1% of a window's requests ran {:.0} us late: the queue grows",
            m.backlog_end_us
        ));
    }
    Ok(())
}

/// Human-readable rows, one per metric, with unit and sample count.
pub fn print_rows(defs: &[MetricDef], metrics: &Metrics) {
    for def in defs {
        let v = &metrics[def.name];
        println!("  {:<48} {:>16.4} {:<6} n={}", def.name, v.value, v.unit, v.samples);
    }
}

/// Lines that explain the traced pass: where the sampled requests' time went
/// and whether the trace accounts for itself.  Recording a child span costs
/// about as much as the cheapest calls it wraps, so a layer's share is of the
/// span of the requests that recorded none.
pub fn print_trace_summary(latencies: &[u32], t: &Measured) {
    // (span ns, requests) of the sampled requests and of the others.
    let mut spans = [(0u64, 0u64); 2];
    for r in &t.request_spans {
        let of = &mut spans[r.id.is_multiple_of(SAMPLE_EVERY) as usize];
        *of = (of.0 + r.end_ns - r.dispatch_ns, of.1 + 1);
    }
    let [plain_ns, sampled_ns] = spans.map(|(ns, n)| ns as f64 / n.max(1) as f64);
    let sampled = spans[1].1;
    let acc = &t.accounting;
    let per_request = 1.0 / sampled.max(1) as f64;
    let child_spans = t.layers.iter().map(LayerStats::calls).sum::<u64>() as f64 * per_request;
    println!(
        "  traced pass: {} requests, {sampled} sampled with {child_spans:.0} child spans each; request span \
         {sampled_ns:.0} ns sampled, {plain_ns:.0} ns not: a span costs {:.0} ns to record",
        t.requests,
        (sampled_ns - plain_ns) / child_spans.max(1.0),
    );
    for layer in LAYERS {
        let s = &t.layers[layer as usize];
        let ns = s.total_ns as f64 * per_request;
        let share = match layer {
            Layer::IdleUntil | Layer::Safepoint => "waiting for the arrival, before the span".to_string(),
            _ => format!("{:>5.1} % of the unsampled request span", 100.0 * ns / plain_ns),
        };
        println!(
            "    {:<36} {:>6.1} calls {ns:>9.1} ns  {share}",
            layer.name(),
            s.calls() as f64 * per_request
        );
    }
    println!(
        "    request span accounting over {} requests: children {:.1} % + self {:.1} % = {:.2} % of the span",
        acc.requests,
        100.0 * ratio(acc.children_ns as f64, acc.span_ns as f64),
        100.0 * ratio(acc.self_ns as f64, acc.span_ns as f64),
        100.0 * acc.ratio(),
    );
    if let Some(pct) = highest_resolved_percentile(latencies.len()) {
        println!(
            "    highest latency percentile with ten samples beyond it: p{pct} = {:.1} us (n={})",
            latency_us(latencies, pct),
            latencies.len()
        );
    }
}

/// Writes the traced window as JSON: every sampled request and the slowest
/// 1 %, the buffered child spans, and the window's pauses.
pub fn write_trace(
    path: &std::path::Path,
    workload: &Workload,
    seed: u64,
    t: &Measured,
) -> std::io::Result<()> {
    let mut requests = t.request_spans.clone();
    requests.sort_unstable_by_key(|r| std::cmp::Reverse(r.latency_ns()));
    let tail = (requests.len() / 100).max(1);
    let mut text = String::new();
    let w = &mut text;
    writeln!(
        w,
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"clock\": \"ns since the window started\",",
        workload.name
    )
    .expect("writing to a String");
    let names: Vec<String> = LAYERS.iter().map(|l| format!("\"{}\"", l.name())).collect();
    writeln!(w, "\"layers\": [{}],", names.join(", ")).expect("writing to a String");
    writeln!(
        w,
        "\"requests_are\": [\"id\", \"thread\", \"arrival\", \"dispatch\", \"end\"], \"requests\": ["
    )
    .expect("writing to a String");
    let kept: Vec<String> = requests
        .iter()
        .enumerate()
        .filter(|(rank, r)| *rank < tail || r.id.is_multiple_of(SAMPLE_EVERY))
        .map(|(_, r)| format!("[{}, {}, {}, {}, {}]", r.id, r.thread, r.arrival_ns, r.dispatch_ns, r.end_ns))
        .collect();
    writeln!(w, "{}],", kept.join(",\n")).expect("writing to a String");
    writeln!(w, "\"spans_are\": [\"request\", \"layer\", \"start\", \"end\"], \"spans\": [")
        .expect("writing to a String");
    let spans: Vec<String> = t
        .child_spans
        .iter()
        .map(|s| format!("[{}, {}, {}, {}]", s.request, s.layer as u8, s.start_ns, s.end_ns))
        .collect();
    writeln!(w, "{}],", spans.join(",\n")).expect("writing to a String");
    writeln!(w, "\"pauses_are\": [\"stop_requested\", \"resumed\", \"kind\"], \"pauses\": [")
        .expect("writing to a String");
    let pauses: Vec<String> = t
        .pause_intervals_ns()
        .iter()
        .zip(&t.pauses)
        .map(|((from, to), p)| format!("[{from}, {to}, \"{}\"]", p.kind))
        .collect();
    writeln!(w, "{}]}}", pauses.join(",\n")).expect("writing to a String");

    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = std::fs::File::create(path)?;
    file.write_all(text.as_bytes())?;
    file.flush()
}
