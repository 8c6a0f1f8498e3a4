//! The metric names, units and bounds the benchmark reports, and the JSON
//! it reports them in.  `BENCHMARK.json` repeats this table; a test keeps
//! the two in step.

use std::collections::BTreeMap;
use std::fmt::Write;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    #[cfg(test)]
    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may get worse before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: None }
}

use Better::{Higher, Lower};

pub const END_TO_END: [MetricDef; 6] = [
    e2e("throughput_rps", "1/s", Higher, 0.2),
    e2e("latency_p50_us", "us", Lower, 0.25),
    e2e("latency_p99_us", "us", Lower, 0.25),
    e2e("gc_cpu_us_per_request", "us", Lower, 0.2),
    e2e("rss_peak_mb", "MiB", Lower, 0.1),
    e2e("setup_s", "s", Lower, 0.25),
];

pub const PER_LAYER: [MetricDef; 56] = [
    layer("runtime.mutator.alloc_ns_mean", "ns", Lower),
    layer("runtime.mutator.alloc_ns_p99", "ns", Lower),
    layer("runtime.mutator.alloc_slow_share", "ratio", Lower),
    layer("heap.block_alloc.central_locks_per_mib", "1/MiB", Lower),
    layer("heap.block_alloc.young_blocks_freed_per_s", "1/s", Higher),
    layer("heap.block_alloc.blocks_recycled_per_s", "1/s", Lower),
    layer("barrier.write_ref_ns_mean", "ns", Lower),
    layer("barrier.write_ref_ns_p99", "ns", Lower),
    layer("barrier.write_ref_slow_share", "ratio", Lower),
    layer("barrier.read_ref_ns_mean", "ns", Lower),
    layer("rc.increments_per_request", "count", Lower),
    layer("rc.decrements_per_request", "count", Lower),
    layer("rc.deaths_per_request", "count", Higher),
    layer("rc.young_survivors_per_request", "count", Lower),
    layer("core.pause.count_per_s", "1/s", Lower),
    layer("core.pause.duration_us_p50", "us", Lower),
    layer("core.pause.duration_us_p95", "us", Lower),
    layer("core.pause.duration_us_max", "us", Lower),
    layer("core.pause.stw_share", "ratio", Lower),
    layer("core.pause.satb_start_share", "ratio", Lower),
    layer("core.pause.lazy_incomplete_share", "ratio", Lower),
    layer("runtime.rendezvous.time_to_stop_us_p50", "us", Lower),
    layer("runtime.rendezvous.time_to_stop_us_p95", "us", Lower),
    layer("runtime.workers.cpu_us_per_request", "us", Lower),
    layer("runtime.workers.steals_per_pause", "count", Lower),
    layer("runtime.workers.parks_per_pause", "count", Lower),
    layer("runtime.workers.bucket_items_per_s", "1/s", Higher),
    layer("core.concurrent.cpu_us_per_request", "us", Lower),
    layer("core.concurrent.busy_share", "ratio", Lower),
    layer("core.satb.traces_per_min", "1/min", Lower),
    layer("core.satb.objects_marked_per_request", "count", Lower),
    layer("core.satb.slots_traced_per_request", "count", Lower),
    layer("core.satb.deaths_per_request", "count", Higher),
    layer("core.evac.words_copied_per_request", "count", Lower),
    layer("core.evac.mature_objects_copied_per_request", "count", Lower),
    layer("core.predictors.trigger_predictive_share", "ratio", Higher),
    layer("core.predictors.trigger_exhaustion_count", "count", Lower),
    layer("runtime.stats.degenerated_collections", "count", Lower),
    layer("runtime.pausegate.deferred_share", "ratio", Higher),
    layer("runtime.pausegate.boundary_pause_share", "ratio", Higher),
    layer("runtime.pausegate.kicks_per_s", "1/s", Higher),
    layer("runtime.stats.alloc_stall_share", "ratio", Lower),
    layer("heap.side_metadata.census_gib_s", "GiB/s", Higher),
    layer("heap.side_metadata.find_zero_run_ns", "ns", Lower),
    layer("heap.epoch.stale_drop_share", "ratio", Lower),
    layer("heap.pageresource.mapped_chunks_peak", "count", Lower),
    layer("workloads.serve.latency_p999_us", "us", Lower),
    layer("workloads.serve.latency_max_us", "us", Lower),
    layer("workloads.serve.slo_miss_share", "ratio", Lower),
    layer("workloads.serve.tail_overlapping_pause_share", "ratio", Higher),
    layer("workloads.serve.mutator_cpu_us_per_request", "us", Lower),
    layer("workloads.serve.loadgen_late_us_p99", "us", Lower),
    layer("workloads.serve.backlog_end_us", "us", Lower),
    layer("runtime.nogc.request_us", "us", Lower),
    layer("workloads.serve.lbo_time_overhead", "ratio", Lower),
    layer("benchmark.trace_overhead_ratio", "ratio", Higher),
];

/// The highest of the usual percentiles that still has at least ten samples
/// beyond it, or `None` when not even the median has.
pub fn highest_resolved_percentile(samples: usize) -> Option<f64> {
    [99.99, 99.9, 99.0, 95.0, 90.0, 50.0]
        .into_iter()
        .find(|p| samples as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_unstable_by(f64::total_cmp);
    values[values.len() / 2]
}

/// The value at percentile `pct` of `sorted` (nearest rank).
pub fn percentile<T: Copy>(sorted: &[T], pct: f64) -> Option<T> {
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.clamp(1, sorted.len().max(1)) - 1).copied()
}

/// One reported value with the number of samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub value: f64,
    pub unit: String,
    pub samples: u64,
}

/// The contract's result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric of `defs` a `value` with all its digits and a
/// `unit`.  A failed run reports no metrics.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    metrics: &BTreeMap<String, Value>,
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, def) in defs.iter().enumerate() {
        let v = &metrics[def.name];
        assert!(v.value.is_finite(), "{} is {}", def.name, v.value);
        let sep = if i == 0 { "" } else { ", " };
        write!(out, "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", def.name, v.value, v.unit)
            .expect("writing to a String");
    }
    out.push_str("}}");
    out
}

/// The value of metric `name` in a result line this program wrote (the
/// parent process reads its children's).
pub fn value_in_line(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_choice_needs_ten_samples_beyond() {
        assert_eq!(highest_resolved_percentile(19), None);
        assert_eq!(highest_resolved_percentile(20), Some(50.0));
        assert_eq!(highest_resolved_percentile(99), Some(50.0));
        assert_eq!(highest_resolved_percentile(100), Some(90.0));
        assert_eq!(highest_resolved_percentile(200), Some(95.0));
        assert_eq!(highest_resolved_percentile(999), Some(95.0));
        assert_eq!(highest_resolved_percentile(1_000), Some(99.0));
        assert_eq!(highest_resolved_percentile(10_000), Some(99.9));
        assert_eq!(highest_resolved_percentile(600_000), Some(99.99));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), Some(50));
        assert_eq!(percentile(&v, 99.0), Some(99));
        assert_eq!(percentile(&v, 99.9), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile::<u32>(&[], 50.0), None);
    }

    fn name_is_legal(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
            && name.as_bytes()[0].is_ascii_alphanumeric()
    }

    #[test]
    fn result_line_round_trips_with_legal_names() {
        for defs in [&END_TO_END[..], &PER_LAYER[..]] {
            let metrics: BTreeMap<String, Value> = defs
                .iter()
                .enumerate()
                .map(|(i, d)| {
                    let value =
                        Value { value: 1.0 / 3.0 + i as f64 * 1e5, unit: d.unit.to_string(), samples: 0 };
                    (d.name.to_string(), value)
                })
                .collect();
            let line = result_line(true, 600_000, 0, defs, &metrics);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": 600000, \"failed\": 0, \"metrics\": {")
            );
            assert!(!line.contains('\n') && line.ends_with("}}"));
            for d in defs {
                assert!(name_is_legal(d.name));
                assert_eq!(value_in_line(&line, d.name), Some(metrics[d.name].value), "every digit survives");
            }
            assert_eq!(line.matches("\"value\"").count(), defs.len());
        }
        assert_eq!(
            result_line(false, 7, 7, &[], &BTreeMap::new()),
            "{\"correct\": false, \"attempted\": 7, \"failed\": 7, \"metrics\": {}}"
        );
        assert_eq!(value_in_line("{\"correct\": true}", "setup_s"), None);
    }

    #[test]
    fn names_are_unique_and_units_are_legal() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(d.name), "{} is used twice", d.name);
            assert!(name_is_legal(d.name), "{}", d.name);
            assert!(d.unit.len() <= 16 && !d.unit.is_empty());
            assert!(d
                .unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-')));
        }
        assert!(END_TO_END.iter().all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    }

    /// `BENCHMARK.json` is these tables, the workload list and the window
    /// length written out; when it is not, the test prints what it should be.
    #[test]
    fn benchmark_json_repeats_the_tables() {
        let mut want = String::from(
            "{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", ",
        );
        want.push_str(
            "\"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n",
        );
        writeln!(want, "  \"run_seconds\": {},\n  \"workloads\": [", crate::DEFAULT_SECONDS).unwrap();
        let workloads: Vec<String> = crate::spec::WORKLOADS
            .iter()
            .filter(|w| w.gated)
            .map(|w| {
                assert!(w.why.len() <= 200 && !w.why.contains(['\n', '"', '\\']));
                format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why)
            })
            .collect();
        writeln!(want, "{}\n  ],", workloads.join(",\n")).unwrap();
        for (key, defs, last) in [("end_to_end", &END_TO_END[..], false), ("per_layer", &PER_LAYER[..], true)]
        {
            let rows: Vec<String> = defs
                .iter()
                .map(|d| {
                    let bound = d.bound.map_or(String::new(), |b| format!(", \"bound\": {b}"));
                    format!(
                        "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
                        d.name,
                        d.unit,
                        d.better.as_str()
                    )
                })
                .collect();
            writeln!(want, "  \"{key}\": [\n{}\n  ]{}", rows.join(",\n"), if last { "" } else { "," })
                .unwrap();
        }
        want.push_str("}\n");
        let have = include_str!("../../BENCHMARK.json");
        assert!(have == want, "BENCHMARK.json should read:\n{want}");
    }
}
