//! The benchmark's own driver loop: set-up, warm-up and the measured window
//! are separate steps, and a traced window can follow the untraced one on
//! the same warmed-up heap.
//!
//! Serving threads live from set-up to the end of the run.  Between windows
//! they wait for the next command with their mutator marked blocked, so
//! collections never wait for a thread that is not serving.

use crate::proc::{self, CpuByLayer};
use crate::spec::{self, Workload, HEAP_BYTES, SESSIONS, SESSION_SLOTS};
use crate::trace::{self, Accounting, Layer, LayerStats, Probe, RequestSpan, Span, Tracer, Untraced};
use lxr::baselines::plan_registry;
use lxr::runtime::{PauseRecord, Runtime, RuntimeOptions, StatsSnapshot, WorkCounter};
use lxr::workloads::serve::{schedule_digest, SessionTable};
use lxr::workloads::{ArrivalSchedule, LatencyHistogram};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// An open-loop worker sleeps only when the next arrival is further away
/// than this, and then only to `IDLE_MARGIN` before it: `idle_until` is a
/// bare `thread::sleep` whose ~60 µs timer slack would otherwise become the
/// measured median.  The rest of the wait spins on the safepoint poll.
const IDLE_THRESHOLD: Duration = Duration::from_micros(300);
const IDLE_MARGIN: Duration = Duration::from_micros(150);

/// One window's offered load, shared by the serving threads.
pub struct Window {
    pub start: Instant,
    pub requests: usize,
    pub seed: u64,
    /// Intended arrival offsets; `None` in a closed loop.
    pub arrivals: Option<Vec<Duration>>,
    pub traced: bool,
    /// Request ids continue across windows so no window replays another.
    pub first_id: u64,
    next: AtomicUsize,
}

impl Window {
    /// A closed-loop, untraced window.
    fn new(requests: usize, seed: u64, first_id: u64, start: Instant) -> Window {
        Window { start, requests, seed, arrivals: None, traced: false, first_id, next: AtomicUsize::new(0) }
    }
}

/// What one serving thread measured in one window.
pub struct ThreadWindow {
    /// Nanoseconds per request, in the workload's own latency definition.
    pub latency_ns: Vec<u32>,
    /// Dispatch to reply, summed: the per-thread request time.
    pub service_ns: u64,
    /// How late requests were dispatched that the thread was waiting for,
    /// when no collection intervened: the load generator's own error.
    pub late: LatencyHistogram,
    /// Dispatch lateness summed over the last 1 % of the schedule.
    pub backlog_ns: u64,
    pub backlog_requests: u64,
    pub finished: Instant,
    pub tracer: Option<Tracer>,
}

enum Command {
    Run(Arc<Window>),
    /// Walk the session table against its model and report the mismatch.
    Check,
}

enum Reply {
    Ready,
    Window(Box<ThreadWindow>),
    Checked(Result<(), String>),
}

struct ServeThread {
    commands: Sender<Command>,
    replies: Receiver<Reply>,
    handle: JoinHandle<()>,
}

/// A runtime with its serving threads, prefilled and warmed up.
pub struct World {
    pub runtime: Runtime,
    workload: &'static Workload,
    threads: Vec<ServeThread>,
    next_id: u64,
    /// When the run gives up waiting for a window: a heap that thrashes
    /// serves a fixed request count many times slower.
    deadline: Instant,
}

impl World {
    /// Builds the runtime, prefills every session and runs the closed-loop
    /// warm-up.  Everything here is `setup_s`.
    pub fn setup(workload: &'static Workload, seed: u64, deadline: Instant) -> Result<World, String> {
        let options = RuntimeOptions::default()
            .with_heap_size(HEAP_BYTES)
            .with_gc_workers(2)
            .with_concurrent_workers(1)
            .with_poll_interval(64)
            .with_pause_gate(true)
            .with_pause_gate_defer_ms(5);
        let runtime = Runtime::with_factory(options, plan_registry("lxr"));
        let shard = SESSIONS / workload.threads;
        let threads = (0..workload.threads)
            .map(|index| {
                let (commands, inbox) = channel();
                let (outbox, replies) = channel();
                let runtime = runtime.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("serve-{index}"))
                    .spawn(move || serve_thread(runtime, workload, index, shard, inbox, outbox))
                    .expect("spawning a serving thread");
                ServeThread { commands, replies, handle }
            })
            .collect();
        let mut world = World { runtime, workload, threads, next_id: 0, deadline };
        for t in &world.threads {
            match t.replies.recv() {
                Ok(Reply::Ready) => {}
                _ => return Err("a serving thread died during prefill".to_string()),
            }
        }
        // A serving thread that spins for its next arrival never sleeps, and
        // the kernel queues the collector's waking threads behind it.  In a
        // closed loop every CPU is as busy as the other and the kernel's own
        // placement repeats better (gc CPU within 1 %, against 10 % pinned).
        if workload.open_loop() {
            let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
            proc::place_threads(|name| cpu_for(name, cpus))
                .map_err(|e| format!("placing the threads: {e}"))?;
        }
        let warmup = Window::new(workload.mix.warmup_requests, seed, 0, Instant::now());
        world.run(warmup)?;
        Ok(world)
    }

    /// A window of `requests` starting now.  Open-loop arrivals come from
    /// `seed` and the window's first request id, so no window of a run
    /// repeats another's schedule.
    pub fn window(&self, requests: usize, seed: u64, traced: bool) -> Window {
        let arrivals = match self.workload.load {
            spec::Load::Open { rps } => {
                Some(ArrivalSchedule::Poisson { rps }.offsets(requests, seed.wrapping_add(self.next_id)))
            }
            spec::Load::Closed { .. } => None,
        };
        let start = Instant::now() + Duration::from_millis(2);
        Window { arrivals, traced, ..Window::new(requests, seed, self.next_id, start) }
    }

    /// Runs `window` on every serving thread and waits for all of them.
    pub fn run(&mut self, window: Window) -> Result<(Arc<Window>, Vec<ThreadWindow>), String> {
        self.next_id = window.first_id + window.requests as u64;
        let window = Arc::new(window);
        for t in &self.threads {
            t.commands.send(Command::Run(window.clone())).map_err(|_| "a serving thread is gone")?;
        }
        let mut out = Vec::new();
        for t in &self.threads {
            match t.replies.recv_timeout(self.deadline.saturating_duration_since(Instant::now())) {
                Ok(Reply::Window(w)) => out.push(*w),
                Err(RecvTimeoutError::Timeout) => return Err("the run overran its time limit".to_string()),
                _ => return Err("a serving thread died inside the window (out of memory?)".to_string()),
            }
        }
        Ok((window, out))
    }

    /// The end-of-run integrity checks, off the clock: every shard's table
    /// walk must equal its model, and the plan's verifier must find the heap
    /// clean right after a collection.
    pub fn check(&self) -> Result<(), String> {
        for t in &self.threads {
            t.commands.send(Command::Check).map_err(|_| "a serving thread is gone")?;
        }
        for t in &self.threads {
            match t.replies.recv() {
                Ok(Reply::Checked(result)) => result?,
                _ => return Err("a serving thread died during the integrity check".to_string()),
            }
        }
        // Every serving thread is blocked on its inbox again: the heap is
        // quiescent once the requested collection has finished.
        self.runtime.request_gc_and_wait();
        let report = self.runtime.verify_now();
        if report.ok() {
            Ok(())
        } else {
            Err(format!("verifier found the heap dirty:\n{report}"))
        }
    }

    /// Stops the serving threads and the runtime's own, and waits for them.
    pub fn teardown(self) {
        let World { runtime, threads, .. } = self;
        for t in threads {
            drop(t.commands);
            // A thread that panicked has already been reported as a failed run.
            let _ = t.handle.join();
        }
        runtime.shutdown();
    }
}

/// Where a thread of an open-loop run is pinned, by its name, on a host of
/// `cpus`.  Serving thread and collector worker `i` share CPU `i`: a worker runs only
/// while the serving threads are stopped.  The controller and the concurrent
/// crew stay where the kernel puts them: pinned beside a worker they held up
/// the start of a pause by tens of milliseconds.
fn cpu_for(name: &str, cpus: usize) -> Option<usize> {
    let index = |prefix: &str| name.strip_prefix(prefix)?.parse::<usize>().ok();
    index("serve-").or_else(|| index("gc-worker-")).map(|i| i % cpus)
}

fn serve_thread(
    runtime: Runtime,
    workload: &'static Workload,
    index: usize,
    shard: usize,
    inbox: Receiver<Command>,
    outbox: Sender<Reply>,
) {
    let mut m = runtime.bind_mutator();
    let mut table = SessionTable::with_session_slots(&mut m, shard, SESSION_SLOTS);
    spec::prefill(&mut m, &mut table);
    if outbox.send(Reply::Ready).is_err() {
        return;
    }
    while let Ok(command) = m.blocked(|| inbox.recv()) {
        let reply = match command {
            Command::Run(window) => {
                let collections = || runtime.shared().rendezvous.completed_collections();
                let mut out = ThreadWindow {
                    // Room for the whole window: no thread's vector grows inside it.
                    latency_ns: Vec::with_capacity(window.requests),
                    service_ns: 0,
                    late: LatencyHistogram::new(),
                    backlog_ns: 0,
                    backlog_requests: 0,
                    finished: window.start,
                    tracer: None,
                };
                if window.traced {
                    let mut tracer = Tracer::new(window.start, index, window.requests);
                    serve_window(&mut m, &mut table, workload, &window, &collections, &mut tracer, &mut out);
                    out.tracer = Some(tracer);
                } else {
                    serve_window(
                        &mut m,
                        &mut table,
                        workload,
                        &window,
                        &collections,
                        &mut Untraced,
                        &mut out,
                    );
                }
                Reply::Window(Box::new(out))
            }
            Command::Check => {
                let walked = table.live_count(&mut m);
                let model = table.live_sessions();
                Reply::Checked(if walked == model {
                    Ok(())
                } else {
                    Err(format!(
                        "serve-{index}: table walk found {walked} live sessions, the model says {model}"
                    ))
                })
            }
        };
        if outbox.send(reply).is_err() {
            return;
        }
    }
}

fn serve_window<P: Probe>(
    m: &mut lxr::runtime::Mutator,
    table: &mut SessionTable,
    workload: &Workload,
    window: &Window,
    collections: &dyn Fn() -> u64,
    probe: &mut P,
    out: &mut ThreadWindow,
) {
    let backlog_from = window.requests - (window.requests / 100).max(1);
    m.blocked(|| std::thread::sleep(window.start.saturating_duration_since(Instant::now())));
    loop {
        let i = window.next.fetch_add(1, Ordering::Relaxed);
        if i >= window.requests {
            break;
        }
        let id = window.first_id + i as u64;
        probe.begin(id);

        let mut waited_through = None;
        let arrival = window.arrivals.as_ref().map(|offsets| window.start + offsets[i]);
        if let Some(arrival) = arrival {
            let now = Instant::now();
            if now < arrival {
                waited_through = Some(collections());
                if arrival - now > IDLE_THRESHOLD {
                    probe.call(Layer::IdleUntil, || m.idle_until(arrival - IDLE_MARGIN));
                }
                probe.call(Layer::Safepoint, || {
                    while Instant::now() < arrival {
                        m.safepoint();
                        std::hint::spin_loop();
                    }
                });
            }
        }
        let dispatch = Instant::now();
        let arrival = arrival.unwrap_or(dispatch);
        let late_ns = dispatch.saturating_duration_since(arrival).as_nanos() as u64;
        if waited_through.is_some_and(|before| before == collections()) {
            out.late.record_ns(late_ns);
        }
        if i >= backlog_from {
            out.backlog_ns += late_ns;
            out.backlog_requests += 1;
        }

        probe.call(Layer::BeginRequest, || m.begin_request());
        spec::service(m, table, workload.mix, window.seed, id, probe);
        probe.call(Layer::EndRequest, || m.end_request());
        let end = Instant::now();

        probe.end(arrival, dispatch, end);
        out.service_ns += end.duration_since(dispatch).as_nanos() as u64;
        let latency_ns = end.duration_since(arrival).as_nanos().min(u32::MAX as u128) as u32;
        out.latency_ns.push(latency_ns);
    }
    out.finished = Instant::now();
}

/// Everything read off the runtime and the kernel at one instant.
pub struct Snapshot {
    pub stats: StatsSnapshot,
    pub cpu: CpuByLayer,
    pub central_locks: usize,
}

impl Snapshot {
    pub fn take(runtime: &Runtime) -> Result<Snapshot, String> {
        Ok(Snapshot {
            stats: runtime.stats().snapshot(),
            cpu: proc::self_cpu().map_err(|e| format!("reading per-thread CPU time: {e}"))?,
            central_locks: runtime.blocks().central_lock_count(),
        })
    }
}

/// One measured window: the threads' records merged, with the collector's
/// counters, pauses and CPU over exactly that window.
pub struct Measured {
    pub requests: usize,
    pub threads: usize,
    pub wall: Duration,
    /// Every request's latency in nanoseconds, sorted.
    pub latencies: Vec<u32>,
    /// `VmHWM` when the window ended, in MiB.
    pub rss_peak_mib: f64,
    pub service_ns: u64,
    pub late: LatencyHistogram,
    pub backlog_end_us: f64,
    /// Fingerprint of the offered arrival schedules; `None` in a closed loop.
    pub schedule_digest: Option<u64>,
    pub pauses: Vec<PauseRecord>,
    /// The window's start on the runtime's clock (`PauseRecord::start_ms`).
    pub start_runtime_ms: f64,
    pub cpu: CpuByLayer,
    pub central_locks: usize,
    before: StatsSnapshot,
    after: StatsSnapshot,
    /// The traced window's spans, merged over the serving threads; empty
    /// for an untraced one.
    pub request_spans: Vec<RequestSpan>,
    pub child_spans: Vec<Span>,
    pub layers: Vec<LayerStats>,
    pub accounting: Accounting,
}

impl Measured {
    /// The windows of one run, measured back to back, as one record: what
    /// the guards and the per-layer rows read.  Counters and CPU cover the
    /// few milliseconds between windows too.
    pub fn merged(windows: Vec<Measured>) -> Measured {
        let mut windows = windows.into_iter();
        let mut all = windows.next().expect("a run has at least one window");
        for w in windows {
            all.requests += w.requests;
            all.wall += w.wall;
            all.latencies.extend_from_slice(&w.latencies);
            all.rss_peak_mib = all.rss_peak_mib.max(w.rss_peak_mib);
            all.service_ns += w.service_ns;
            all.late.merge(&w.late);
            all.backlog_end_us = all.backlog_end_us.max(w.backlog_end_us);
            all.schedule_digest =
                all.schedule_digest.zip(w.schedule_digest).map(|(a, b)| a.rotate_left(1) ^ b);
            all.pauses.extend(w.pauses);
            all.cpu = all.cpu.plus(&w.cpu);
            all.central_locks += w.central_locks;
            all.after = w.after;
        }
        all.latencies.sort_unstable();
        all
    }

    pub fn counter(&self, which: WorkCounter) -> u64 {
        self.after.counter(which) - self.before.counter(which)
    }

    pub fn wall_s(&self) -> f64 {
        self.wall.as_secs_f64()
    }

    pub fn throughput_rps(&self) -> f64 {
        self.requests as f64 / self.wall_s()
    }

    pub fn stw_time(&self) -> Duration {
        self.after.stw_gc_time - self.before.stw_gc_time
    }

    pub fn concurrent_time(&self) -> Duration {
        self.after.concurrent_gc_time - self.before.concurrent_gc_time
    }

    pub fn alloc_stall_time(&self) -> Duration {
        self.after.alloc_stall_time - self.before.alloc_stall_time
    }

    pub fn traces_started(&self) -> u64 {
        self.counter(WorkCounter::FullTraces) + self.counter(WorkCounter::StickyTraces)
    }

    pub fn late_p99_us(&self) -> f64 {
        self.late.percentile(99.0).as_nanos() as f64 / 1e3
    }

    /// `(stop requested, world resumed)` of every pause, in nanoseconds on
    /// the window's own clock.
    pub fn pause_intervals_ns(&self) -> Vec<(u64, u64)> {
        self.pauses
            .iter()
            .map(|p| {
                let stopped = (p.start_ms - self.start_runtime_ms) * 1e6;
                let from = stopped - p.time_to_stop.as_nanos() as f64;
                let to = stopped + p.duration.as_nanos() as f64;
                (from.max(0.0) as u64, to.max(0.0) as u64)
            })
            .collect()
    }
}

/// Runs one window of `requests` on a warmed-up world and measures it.
pub fn measure(world: &mut World, requests: usize, seed: u64, traced: bool) -> Result<Measured, String> {
    let before = Snapshot::take(&world.runtime)?;
    let window = world.window(requests, seed, traced);
    // Both clocks are read back to back: pause records carry the runtime's.
    let start_runtime_ms = world.runtime.elapsed_ms()
        + window.start.saturating_duration_since(Instant::now()).as_secs_f64() * 1e3;

    let (window, threads) = world.run(window)?;
    let after = Snapshot::take(&world.runtime)?;
    // Read before the threads' records are merged: the peak is the window's.
    let rss_peak_mib = proc::self_rss_peak_mib().map_err(|e| format!("reading VmHWM: {e}"))?;

    let finished = threads.iter().map(|t| t.finished).max().expect("at least one serving thread");
    let mut latencies = Vec::with_capacity(requests);
    let mut late = LatencyHistogram::new();
    let (mut service_ns, mut backlog_ns, mut backlog_requests) = (0, 0, 0);
    let (mut request_spans, mut child_spans) = (Vec::new(), Vec::new());
    let mut layers: Vec<LayerStats> = Vec::new();
    let mut accounting = Accounting::default();
    for mut t in threads {
        latencies.append(&mut t.latency_ns);
        late.merge(&t.late);
        service_ns += t.service_ns;
        backlog_ns += t.backlog_ns;
        backlog_requests += t.backlog_requests;
        if let Some(tracer) = t.tracer {
            trace::account(&tracer, &mut accounting);
            match layers.is_empty() {
                true => layers = tracer.layers,
                false => layers.iter_mut().zip(&tracer.layers).for_each(|(all, one)| all.merge(one)),
            }
            request_spans.extend(tracer.requests);
            child_spans.extend(tracer.spans);
        }
    }
    latencies.sort_unstable();
    let pauses = after.stats.pauses[before.stats.pauses.len()..].to_vec();
    Ok(Measured {
        requests,
        threads: world.workload.threads,
        wall: finished.duration_since(window.start),
        latencies,
        rss_peak_mib,
        service_ns,
        late,
        backlog_end_us: backlog_ns as f64 / 1e3 / (backlog_requests as f64).max(1.0),
        schedule_digest: window.arrivals.as_deref().map(schedule_digest),
        pauses,
        start_runtime_ms,
        cpu: after.cpu.since(&before.cpu),
        central_locks: after.central_locks - before.central_locks,
        before: before.stats,
        after: after.stats,
        request_spans,
        child_spans,
        layers,
        accounting,
    })
}

#[cfg(test)]
mod tests {
    use super::cpu_for;

    #[test]
    fn threads_are_placed_by_name() {
        assert_eq!(cpu_for("serve-0", 2), Some(0));
        assert_eq!(cpu_for("serve-1", 2), Some(1));
        assert_eq!(cpu_for("gc-worker-1", 2), Some(1));
        assert_eq!(cpu_for("gc-worker-3", 2), Some(1));
        assert_eq!(cpu_for("gc-worker-1", 1), Some(0));
        for floating in ["gc-controller", "gc-concurrent-0", "lxr-ledger", "serve-x"] {
            assert_eq!(cpu_for(floating, 2), None, "{floating}");
        }
    }
}
