//! Command-line entry point for the experiment harness.
//!
//! ```text
//! lxr-harness [--quick] [--scale S] [--gc-workers N] [--concurrent-workers N]
//!             [--failpoints SPEC] [--verify-every-n-gcs N] [--watchdog-ms MS]
//!             [--oom-stall-ms MS] <experiment>...
//!
//! experiments: table1 table3 table4 table5 table6 table7 fig7
//!              barrier-overhead sensitivity socialgraph heap serve chaos all
//!
//! lxr-harness bench-snapshot [--quick] [OUT.json] [TRACE_OUT.json] [HEAP_OUT.json] [SERVE_OUT.json]
//!        (defaults BENCH_sched.json BENCH_trace.json BENCH_heap.json BENCH_serve.json)
//! lxr-harness bench-diff OLD.json NEW.json
//! ```
//!
//! `serve` runs the open-loop serving benchmark: a seeded arrival schedule
//! drives session churn against each collector, and the report shows
//! coordinated-omission-correct latency percentiles, allocation-stall time
//! and the request-aware pause gate's counters.
//!
//! `chaos` sweeps pinned fault-injection schedules across collectors (build
//! with `--features failpoints` for the schedules to fire).  The harness
//! exits non-zero if any workload reports an integrity failure.
//!
//! `bench-snapshot` re-runs the microbenchmarks in-process and writes
//! a machine-readable JSON snapshot (wall times, work counters, host
//! fingerprint); `bench-diff` compares two snapshots and exits non-zero if
//! any bench's median wall time regressed by more than 5%.

use lxr_harness::experiments::{self, ExperimentOptions};

fn main() {
    let (options, quick, mut requested) = ExperimentOptions::from_args(std::env::args().skip(1));
    if requested.is_empty() {
        requested.push("all".to_string());
    }

    // The bench subcommands are terminal: they never run experiments.
    match requested.first().map(String::as_str) {
        Some("bench-snapshot") => {
            let out = requested.get(1).cloned().unwrap_or_else(|| "BENCH_sched.json".to_string());
            let trace_out = requested.get(2).cloned().unwrap_or_else(|| "BENCH_trace.json".to_string());
            let heap_out = requested.get(3).cloned().unwrap_or_else(|| "BENCH_heap.json".to_string());
            let serve_out = requested.get(4).cloned().unwrap_or_else(|| "BENCH_serve.json".to_string());
            let cfg = if quick {
                lxr_harness::benchsnap::SnapshotConfig::quick()
            } else {
                lxr_harness::benchsnap::SnapshotConfig::full()
            };
            eprintln!("running scheduler bench snapshot ({cfg:?})...");
            let (doc, trace_doc, heap_doc) = lxr_harness::benchsnap::snapshot(&cfg);
            eprintln!("running serving bench snapshot...");
            let serve_doc = lxr_harness::benchsnap::serve_snapshot(&cfg);
            std::fs::write(&out, &doc).unwrap_or_else(|e| panic!("writing {out}: {e}"));
            std::fs::write(&trace_out, &trace_doc).unwrap_or_else(|e| panic!("writing {trace_out}: {e}"));
            std::fs::write(&heap_out, &heap_doc).unwrap_or_else(|e| panic!("writing {heap_out}: {e}"));
            std::fs::write(&serve_out, &serve_doc).unwrap_or_else(|e| panic!("writing {serve_out}: {e}"));
            println!("{doc}");
            println!("{trace_doc}");
            println!("{heap_doc}");
            println!("{serve_doc}");
            eprintln!("wrote {out}, {trace_out}, {heap_out} and {serve_out}");
            return;
        }
        Some("bench-diff") => {
            let old_path = requested.get(1).expect("bench-diff requires OLD.json NEW.json");
            let new_path = requested.get(2).expect("bench-diff requires OLD.json NEW.json");
            let old_text =
                std::fs::read_to_string(old_path).unwrap_or_else(|e| panic!("reading {old_path}: {e}"));
            let new_text =
                std::fs::read_to_string(new_path).unwrap_or_else(|e| panic!("reading {new_path}: {e}"));
            let (report, regressions) = lxr_harness::benchsnap::diff(&old_text, &new_text);
            println!("{report}");
            if regressions > 0 {
                std::process::exit(1);
            }
            return;
        }
        _ => {}
    }

    let all = requested.iter().any(|r| r == "all");

    println!(
        "lxr-rs experiment harness (scale {:.2}, {} GC workers)",
        options.scale, options.runtime.gc_workers
    );
    println!("substrate: simulated word-addressed Immix heap, {} mutator threads per workload\n", 4);

    let want = |name: &str| all || requested.iter().any(|r| r == name);

    if want("table3") {
        println!("{}", experiments::table3_characteristics());
    }
    if want("table1") {
        let (table, _) = experiments::table1_lusearch(&options);
        println!("{table}");
    }
    if want("table4") {
        let (table, _) = experiments::table4_latency(&options);
        println!("{table}");
    }
    if want("table5") {
        println!("{}", experiments::table5_heap_sensitivity(&options));
    }
    if want("table6") {
        let (table, _) = experiments::table6_throughput(&options);
        println!("{table}");
    }
    if want("table7") {
        println!("{}", experiments::table7_breakdown(&options));
    }
    if want("fig7") {
        println!("{}", experiments::fig7_lbo(&options));
    }
    if want("barrier-overhead") {
        println!("{}", experiments::barrier_overhead(&options));
    }
    if want("sensitivity") {
        println!("{}", experiments::sensitivity(&options));
    }
    if want("socialgraph") {
        println!("{}", experiments::social_graph(&options));
    }
    if want("heap") {
        println!("{}", experiments::heap_elasticity(&options));
    }
    if want("serve") {
        let (table, _) = experiments::serve(&options);
        println!("{table}");
    }
    // `chaos` is opt-in: it is not part of `all` because its fault schedules
    // are inert (and its table all-`survived`) without `--features failpoints`.
    if requested.iter().any(|r| r == "chaos") {
        println!("{}", experiments::chaos(&options));
    }

    let failures = experiments::integrity_failures();
    if failures > 0 {
        eprintln!("{failures} workload run(s) reported integrity failures");
        std::process::exit(1);
    }
}
