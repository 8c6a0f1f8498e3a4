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
//! lxr-harness bench-snapshot [--quick] [OUT.json]     (default BENCH_sched.json)
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
//! `bench-snapshot` re-runs the microbenchmarks in-process and writes one
//! machine-readable JSON snapshot (wall times, work counters, host
//! fingerprint) to one path; `bench-diff` compares two snapshots, notes a
//! host change, and exits non-zero if any bench's median wall time
//! regressed by more than 5%.

use lxr_harness::experiments::{self, ExperimentOptions};

fn main() {
    let (options, quick, mut requested) = ExperimentOptions::from_args(std::env::args().skip(1));
    if requested.is_empty() {
        requested.push("all".to_string());
    }

    // The bench subcommands are terminal: they never run experiments.
    match requested.first().map(String::as_str) {
        Some("bench-snapshot") => {
            if requested.len() > 2 {
                eprintln!("bench-snapshot takes at most one output path, got {:?}", &requested[1..]);
                std::process::exit(2);
            }
            let out = requested.get(1).cloned().unwrap_or_else(|| "BENCH_sched.json".to_string());
            let cfg = if quick {
                lxr_harness::benchsnap::SnapshotConfig::quick()
            } else {
                lxr_harness::benchsnap::SnapshotConfig::full()
            };
            eprintln!("running bench snapshot ({cfg:?})...");
            let doc = lxr_harness::benchsnap::snapshot(&cfg);
            std::fs::write(&out, &doc).unwrap_or_else(|e| panic!("writing {out}: {e}"));
            println!("{doc}");
            eprintln!("wrote {out}");
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

    let selected = experiments::select_experiments(&requested).unwrap_or_else(|unknown| {
        let known: Vec<&str> = experiments::EXPERIMENTS.iter().map(|e| e.name).collect();
        eprintln!("unknown experiment `{unknown}`; known: {} all", known.join(" "));
        std::process::exit(2);
    });

    println!(
        "lxr-rs experiment harness (scale {:.2}, {} GC workers)",
        options.scale, options.runtime.gc_workers
    );
    println!("substrate: simulated word-addressed Immix heap\n");

    for experiment in selected {
        println!("{}", (experiment.run)(&options));
    }

    let failures = experiments::integrity_failures();
    if failures > 0 {
        eprintln!("{failures} workload run(s) reported integrity failures");
        std::process::exit(1);
    }
}
