//! The LXR ledger: the repository's one benchmark.
//!
//! ```text
//! lxr-ledger                      all four workloads, untraced then traced
//! lxr-ledger --workload W --seed N --seconds S --trace 0|1
//!                                 one run; its result is the last line
//! lxr-ledger --check-noise        the untraced set twice; the gated workloads
//!                                 are held to the bounds
//! ```
//!
//! See `README.md` beside `Cargo.toml` for the design and every metric.

mod driver;
mod kernels;
mod metrics;
mod proc;
mod report;
mod spec;
mod trace;

use driver::World;
use metrics::{Better, END_TO_END, PER_LAYER};
use spec::{Workload, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 20;
const DEFAULT_SEED: u64 = 42;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Windows per run, measured back to back on the same heap.  Each is a
/// measurement of its own, and a run reports the median of their timings.
const WINDOWS: usize = 5;
/// A run that has not finished its windows after this long has failed; the
/// benchmark's contract allows a run 180 s.
const RUN_LIMIT: Duration = Duration::from_secs(150);

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    check_noise: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        check_noise: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(spec::workload(&name).ok_or_else(|| format!("no workload `{name}`"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be between 1 and 60".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--check-noise" => args.check_noise = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| match args.workload {
        Some(workload) => run_one(workload, &args),
        None if args.check_noise => check_noise(&args),
        None => run_all(&args),
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("lxr-ledger: FAILED: {why}");
            ExitCode::FAILURE
        }
    }
}

/// Why a run of one workload does not count.
enum Failure {
    /// A serving thread died (out of memory), the run overran its time limit,
    /// a table walk differed from its model, or the verifier found the heap
    /// dirty: every request failed.
    Integrity(String),
    /// The requests were served, but a guard says the window measured
    /// something else than the workload describes.
    Guard(String),
}

/// One run of one workload in this process.  Prints every metric by name,
/// then the result line; a run that does not count prints a result line
/// that says so, and fails.
fn run_one(workload: &'static Workload, args: &Args) -> Result<(), String> {
    let requests = workload.requests(args.seconds as f64) / WINDOWS * WINDOWS;
    println!(
        "{} ({} mix, {:?}, {} serving threads): {}",
        workload.name, workload.mix.name, workload.load, workload.threads, workload.why
    );
    let outcome = measure_one(workload, args, requests);
    let failed = match &outcome {
        Err(Failure::Integrity(_)) => requests,
        Ok(_) | Err(Failure::Guard(_)) => 0,
    };
    println!("  requests_sent={requests} requests_ok={} requests_failed={failed}", requests - failed);
    match outcome {
        Ok(line) => {
            println!("{line}");
            Ok(())
        }
        Err(Failure::Integrity(why) | Failure::Guard(why)) => {
            println!(
                "{}",
                metrics::result_line(false, requests as u64, failed as u64, &[], &Default::default())
            );
            Err(why)
        }
    }
}

/// Sets up, measures and checks one workload; returns its result line.
fn measure_one(workload: &'static Workload, args: &Args, requests: usize) -> Result<String, Failure> {
    let deadline = Instant::now() + RUN_LIMIT;
    let timed_setup = |setups: &mut Vec<Duration>| {
        let start = Instant::now();
        let world = World::setup(workload, args.seed, deadline).map_err(Failure::Integrity);
        setups.push(start.elapsed());
        world
    };
    let mut setups = Vec::new();
    let mut world = timed_setup(&mut setups)?;
    let windows = (0..WINDOWS)
        .map(|_| driver::measure(&mut world, requests / WINDOWS, args.seed, false))
        .collect::<Result<Vec<_>, _>>()
        .map_err(Failure::Integrity)?;
    let traced = match args.trace {
        true => Some(driver::measure(&mut world, requests / 4, args.seed, true).map_err(Failure::Integrity)?),
        false => None,
    };
    world.check().map_err(Failure::Integrity)?;
    world.teardown();
    // `setup_s` is a median: the other set-ups run after the window, whose
    // `rss_peak_mb` was read when it ended.
    while !args.trace && setups.len() < SETUPS {
        timed_setup(&mut setups)?.teardown();
    }

    let timings = report::end_to_end(&windows, &setups);
    let untraced = driver::Measured::merged(windows);
    if let Some(digest) = untraced.schedule_digest {
        println!("  schedule_digest={digest:016x}");
    }
    report::sizing_guard(workload, &untraced, args.seconds).map_err(Failure::Guard)?;
    report::loadgen_guard(workload, &untraced).map_err(Failure::Guard)?;

    let (defs, metrics) = match &traced {
        None => (&END_TO_END[..], timings),
        Some(traced) => {
            let kernel_rows = kernels::run(workload.mix, args.seed);
            let metrics = report::per_layer(&untraced, traced, &kernel_rows);
            report::print_trace_summary(&untraced.latencies, traced);
            let path = out_dir().join(format!("trace-{}.json", workload.name));
            report::write_trace(&path, workload, args.seed, traced)
                .map_err(|e| Failure::Integrity(format!("writing {}: {e}", path.display())))?;
            println!("  trace written to {}", path.display());
            (&PER_LAYER[..], metrics)
        }
    };
    report::print_rows(defs, &metrics);
    Ok(metrics::result_line(true, requests as u64, 0, defs, &metrics))
}

/// `out/` beside this package's manifest, inside the checkout.
fn out_dir() -> PathBuf {
    let manifest =
        std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    PathBuf::from(manifest).join("out")
}

/// Runs one workload in a fresh child process, so that `rss_peak_mb` and
/// `setup_s` are that workload's own, and hands its result line back.
fn run_child(workload: &Workload, args: &Args, trace: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("finding this executable: {e}"))?;
    let child = Command::new(exe)
        .args(["--workload", workload.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("starting the {} run: {e}", workload.name))?;
    let output =
        child.wait_with_output().map_err(|e| format!("waiting for the {} run: {e}", workload.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, line) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", stdout.trim_end()));
    if !output.status.success() {
        print!("{stdout}");
        return Err(format!("the {} run exited with {}", workload.name, output.status));
    }
    println!("{report}");
    Ok(line.to_string())
}

/// Metric `name` of a child's result line.
fn value(line: &str, name: &str) -> Result<f64, String> {
    metrics::value_in_line(line, name).ok_or_else(|| format!("a result line lacks `{name}`"))
}

fn run_all(args: &Args) -> Result<(), String> {
    let started = Instant::now();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    for trace in [false, true] {
        for workload in &WORKLOADS {
            let result = run_child(workload, args, trace)?;
            if trace { &mut traced } else { &mut untraced }.push(result);
        }
    }
    println!("\nend to end (seed {}, {} s windows):", args.seed, args.seconds);
    print!("  {:<24}", "");
    for w in &WORKLOADS {
        print!(" {:>14}", w.name);
    }
    println!();
    for def in &END_TO_END {
        print!("  {:<24}", format!("{} [{}]", def.name, def.unit));
        for line in &untraced {
            print!(" {:>14.3}", value(line, def.name)?);
        }
        println!();
    }
    println!("the mixes separate the layers:");
    let metric = "rc.increments_per_request";
    for (alloc, mutate) in [(0, 1), (2, 3)] {
        let (a, m) = (value(&traced[alloc], metric)?, value(&traced[mutate], metric)?);
        println!(
            "  {metric}: {} {m:.3} vs {} {a:.3} ({:.1}x)",
            WORKLOADS[mutate].name,
            WORKLOADS[alloc].name,
            m / a
        );
    }
    println!("ran in {:.0} s", started.elapsed().as_secs_f64());
    Ok(())
}

/// Runs the untraced set twice on the same seed and holds the difference of
/// every gated workload × end-to-end metric against that metric's bound; the
/// ungated workload's differences are printed beside them.
fn check_noise(args: &Args) -> Result<(), String> {
    let mut sets = Vec::new();
    for _ in 0..2 {
        let set: Result<Vec<String>, String> = WORKLOADS.iter().map(|w| run_child(w, args, false)).collect();
        sets.push(set?);
    }
    println!("\nnoise check (seed {}, {} s windows): second set against the first", args.seed, args.seconds);
    println!(
        "  {:<14} {:<24} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    let mut breaches = 0;
    for (i, workload) in WORKLOADS.iter().enumerate() {
        for def in &END_TO_END {
            let (a, b) = (value(&sets[0][i], def.name)?, value(&sets[1][i], def.name)?);
            let worse_by = match def.better {
                Better::Higher => (a - b) / a,
                Better::Lower => (b - a) / a,
            };
            let bound = def.bound.expect("end-to-end metrics have bounds");
            let over = worse_by.abs() > bound;
            breaches += (over && workload.gated) as usize;
            println!(
                "  {:<14} {:<24} {a:>14.3} {b:>14.3} {:>8.2}% {:>6.0}%{}",
                workload.name,
                def.name,
                100.0 * worse_by,
                100.0 * bound,
                match (over, workload.gated) {
                    (true, true) => "  BREACH",
                    (true, false) => "  over (not gated)",
                    (false, _) => "",
                }
            );
        }
    }
    if breaches > 0 {
        return Err(format!(
            "{breaches} gated workload x metric pairs moved by more than their bound on identical code"
        ));
    }
    Ok(())
}
