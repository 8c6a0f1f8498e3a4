//! Spans recorded from the benchmark's own files, around the calls into each
//! layer.  Nothing is recorded inside the crates.
//!
//! Every request of a traced window gets a [`RequestSpan`]; every
//! [`SAMPLE_EVERY`]-th request also gets a child [`Span`] around each call
//! it makes.  Per-layer duration histograms cover every sampled call; the
//! raw child spans are kept for the trace file until a fixed buffer fills.

use lxr::workloads::LatencyHistogram;
use std::time::Instant;

/// Every n-th request records child spans.
pub const SAMPLE_EVERY: u64 = 64;
/// Raw child spans kept per thread for the trace file.
const SPAN_BUFFER: usize = 1 << 16;
/// A call slower than this took a slow path.
const SLOW_NS: u64 = 1_000;

/// The layer a call enters, named after the crate and module that serves it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    Alloc,
    WriteRef,
    ReadRef,
    BeginRequest,
    EndRequest,
    IdleUntil,
    Safepoint,
    SessionTable,
}

pub const LAYERS: [Layer; 8] = [
    Layer::Alloc,
    Layer::WriteRef,
    Layer::ReadRef,
    Layer::BeginRequest,
    Layer::EndRequest,
    Layer::IdleUntil,
    Layer::Safepoint,
    Layer::SessionTable,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Alloc => "runtime.mutator.alloc",
            Layer::WriteRef => "barrier.write_ref",
            Layer::ReadRef => "barrier.read_ref",
            Layer::BeginRequest => "runtime.pausegate.begin_request",
            Layer::EndRequest => "runtime.pausegate.end_request",
            Layer::IdleUntil => "runtime.mutator.idle_until",
            Layer::Safepoint => "runtime.rendezvous.safepoint",
            Layer::SessionTable => "workloads.serve.session_table",
        }
    }
}

/// One call into a layer, in nanoseconds since the window's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub request: u64,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One request: its intended arrival (equal to dispatch in a closed loop),
/// when a serving thread picked it up, and when its reply was ready.
#[derive(Debug, Clone, Copy)]
pub struct RequestSpan {
    pub id: u64,
    pub thread: usize,
    pub arrival_ns: u64,
    pub dispatch_ns: u64,
    pub end_ns: u64,
}

impl RequestSpan {
    /// Latency as the workload defines it: from the intended arrival.
    pub fn latency_ns(&self) -> u64 {
        self.end_ns - self.arrival_ns
    }
}

/// Durations of every sampled call into one layer.
#[derive(Clone)]
pub struct LayerStats {
    pub durations: LatencyHistogram,
    pub total_ns: u64,
    pub slow: u64,
}

impl LayerStats {
    fn new() -> Self {
        LayerStats { durations: LatencyHistogram::new(), total_ns: 0, slow: 0 }
    }

    pub fn merge(&mut self, other: &LayerStats) {
        self.durations.merge(&other.durations);
        self.total_ns += other.total_ns;
        self.slow += other.slow;
    }

    pub fn calls(&self) -> u64 {
        self.durations.count()
    }

    pub fn mean_ns(&self) -> f64 {
        self.total_ns as f64 / (self.calls() as f64).max(1.0)
    }

    pub fn slow_share(&self) -> f64 {
        self.slow as f64 / (self.calls() as f64).max(1.0)
    }
}

/// What the serving loop calls around each layer entry.  The untraced
/// windows use [`Untraced`], which compiles to the bare call.
pub trait Probe {
    /// Starts request `id`.
    fn begin(&mut self, id: u64);
    /// Runs `f`, recording a span when the current request is sampled.
    fn call<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R;
    /// Ends the current request.
    fn end(&mut self, arrival: Instant, dispatch: Instant, end: Instant);
}

pub struct Untraced;

impl Probe for Untraced {
    #[inline(always)]
    fn begin(&mut self, _id: u64) {}

    #[inline(always)]
    fn call<R>(&mut self, _layer: Layer, f: impl FnOnce() -> R) -> R {
        f()
    }

    #[inline(always)]
    fn end(&mut self, _arrival: Instant, _dispatch: Instant, _end: Instant) {}
}

/// One serving thread's trace of one window.
pub struct Tracer {
    origin: Instant,
    thread: usize,
    current: u64,
    sampling: bool,
    /// The cost of a span's own two clock reads, taken off every duration.
    clock_ns: u64,
    /// The request during which the span buffer filled, if it did.
    overflow_at: Option<u64>,
    pub spans: Vec<Span>,
    pub requests: Vec<RequestSpan>,
    pub layers: Vec<LayerStats>,
}

impl Tracer {
    /// Buffers are allocated and touched here, before the window starts.
    pub fn new(origin: Instant, thread: usize, requests: usize) -> Self {
        Tracer {
            origin,
            thread,
            current: 0,
            sampling: false,
            clock_ns: clock_cost_ns(),
            overflow_at: None,
            spans: Vec::with_capacity(SPAN_BUFFER),
            requests: Vec::with_capacity(requests),
            layers: LAYERS.iter().map(|_| LayerStats::new()).collect(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }
}

impl Probe for Tracer {
    fn begin(&mut self, id: u64) {
        self.current = id;
        self.sampling = id.is_multiple_of(SAMPLE_EVERY);
    }

    #[inline]
    fn call<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        if !self.sampling {
            return f();
        }
        let start = Instant::now();
        let result = f();
        let end = Instant::now();
        let stats = &mut self.layers[layer as usize];
        let ns = (end.duration_since(start).as_nanos() as u64).saturating_sub(self.clock_ns);
        stats.durations.record_ns(ns);
        stats.total_ns += ns;
        stats.slow += (ns > SLOW_NS) as u64;
        if self.spans.len() < SPAN_BUFFER {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.spans.push(Span { request: self.current, layer, start_ns, end_ns });
        } else {
            self.overflow_at.get_or_insert(self.current);
        }
        result
    }

    fn end(&mut self, arrival: Instant, dispatch: Instant, end: Instant) {
        let span = RequestSpan {
            id: self.current,
            thread: self.thread,
            arrival_ns: self.ns(arrival),
            dispatch_ns: self.ns(dispatch),
            end_ns: self.ns(end),
        };
        self.requests.push(span);
    }
}

/// The smallest interval two back-to-back clock reads report.
fn clock_cost_ns() -> u64 {
    (0..1_000)
        .map(|_| {
            let a = Instant::now();
            Instant::now().duration_since(a).as_nanos() as u64
        })
        .min()
        .unwrap_or(0)
}

/// A span's self time: its duration minus the part of it that its children
/// cover.  Children are clipped to the parent and may overlap each other.
pub fn self_time(parent: (u64, u64), children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut cursor = parent.0;
    for &(start, end) in children.iter() {
        let start = start.max(cursor);
        let end = end.min(parent.1);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    (parent.1 - parent.0) - covered
}

/// How the sampled requests' time divides: every sampled request whose child
/// spans are all in the buffer.
#[derive(Debug, Default, Clone, Copy)]
pub struct Accounting {
    pub requests: u64,
    pub span_ns: u64,
    pub children_ns: u64,
    pub self_ns: u64,
}

impl Accounting {
    /// Children plus self time over the request spans: 1.0 when the trace
    /// accounts for itself.
    pub fn ratio(&self) -> f64 {
        (self.children_ns + self.self_ns) as f64 / (self.span_ns as f64).max(1.0)
    }
}

/// Adds one serving thread's sampled requests to `acc`.
pub fn account(tracer: &Tracer, acc: &mut Accounting) {
    let complete_below = tracer.overflow_at.unwrap_or(u64::MAX);
    let mut spans = tracer.spans.iter().peekable();
    for r in tracer.requests.iter().filter(|r| r.id.is_multiple_of(SAMPLE_EVERY) && r.id < complete_below) {
        let mut children = Vec::new();
        while let Some(s) = spans.next_if(|s| s.request == r.id) {
            // Waiting for the arrival instant happens before dispatch: it
            // is the request's, but not part of its service span.
            if s.start_ns >= r.dispatch_ns {
                children.push((s.start_ns, s.end_ns));
            }
        }
        acc.requests += 1;
        acc.span_ns += r.end_ns - r.dispatch_ns;
        acc.children_ns += children.iter().map(|c| c.1 - c.0).sum::<u64>();
        acc.self_ns += self_time((r.dispatch_ns, r.end_ns), &mut children);
    }
}

/// The share of the slowest 1 % of requests that a pause explains: the
/// request overlapped one, or waited in an unbroken queue that did (a thread
/// that finds its next request already due has not been idle since the
/// queue formed).  `pauses` are `(stop requested, world resumed)` on the
/// requests' clock, sorted.
pub fn tail_overlapping_pause_share(requests: &[RequestSpan], pauses: &[(u64, u64)]) -> f64 {
    let mut in_dispatch_order: Vec<&RequestSpan> = requests.iter().collect();
    in_dispatch_order.sort_unstable_by_key(|r| (r.thread, r.dispatch_ns));
    // (latency, when the queue the request waited in formed, reply)
    let mut waits: Vec<(u64, u64, u64)> = Vec::with_capacity(requests.len());
    let (mut thread, mut queue_from, mut previous_end) = (usize::MAX, 0, 0);
    for r in in_dispatch_order {
        if r.thread != thread || r.arrival_ns > previous_end {
            (thread, queue_from) = (r.thread, r.arrival_ns);
        }
        previous_end = r.end_ns;
        waits.push((r.latency_ns(), queue_from, r.end_ns));
    }
    waits.sort_unstable_by_key(|w| std::cmp::Reverse(w.0));
    let tail = &waits[..(waits.len() / 100).max(1).min(waits.len())];
    let explained = tail
        .iter()
        .filter(|&&(_, from, end)| {
            // The first pause that ends after the queue formed.
            let i = pauses.partition_point(|p| p.1 < from);
            pauses.get(i).is_some_and(|p| p.0 <= end)
        })
        .count();
    explained as f64 / tail.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_what_children_cover() {
        // Two disjoint children.
        assert_eq!(self_time((100, 200), &mut [(110, 120), (150, 180)]), 60);
        // Overlapping children count once; order does not matter.
        assert_eq!(self_time((100, 200), &mut [(150, 180), (110, 160)]), 30);
        // Children are clipped to the parent.
        assert_eq!(self_time((100, 200), &mut [(50, 110), (190, 400)]), 80);
        // A child outside the parent covers nothing; no children, all self.
        assert_eq!(self_time((100, 200), &mut [(10, 20), (300, 400)]), 100);
        assert_eq!(self_time((100, 200), &mut []), 100);
        // A nested grandchild-like span adds nothing.
        assert_eq!(self_time((0, 100), &mut [(10, 90), (20, 30)]), 20);
    }

    fn request(id: u64, arrival_ns: u64, end_ns: u64) -> RequestSpan {
        RequestSpan { id, thread: 0, arrival_ns, dispatch_ns: arrival_ns, end_ns }
    }

    #[test]
    fn tail_join_counts_only_requests_that_met_a_pause() {
        // 200 requests of 10 ns; two slow ones, one inside a pause.
        let mut requests: Vec<_> = (0..200).map(|i| request(i, i * 100, i * 100 + 10)).collect();
        requests[50] = request(50, 5_000, 5_900); // overlaps the pause
        requests[150] = request(150, 15_000, 15_800); // slow on its own
        let pauses = [(5_100, 5_800)];
        assert_eq!(tail_overlapping_pause_share(&requests, &pauses), 0.5);
        assert_eq!(tail_overlapping_pause_share(&requests, &[]), 0.0);
        assert_eq!(tail_overlapping_pause_share(&requests, &[(5_100, 5_800), (15_790, 15_900)]), 1.0);

        // A request that arrived after the pause, but while the thread was
        // still working off the queue the pause left, is the pause's too.
        let mut queued: Vec<_> = (0..200).map(|i| request(i, 100_000 + i * 100, 100_010 + i * 100)).collect();
        queued[0] = request(0, 5_000, 5_900);
        queued[1] = RequestSpan { dispatch_ns: 5_900, ..request(1, 5_850, 6_700) };
        assert_eq!(tail_overlapping_pause_share(&queued, &pauses), 1.0);
        queued[1] = RequestSpan { dispatch_ns: 5_950, ..request(1, 5_950, 6_800) };
        assert_eq!(tail_overlapping_pause_share(&queued, &pauses), 0.5);
    }

    #[test]
    fn tracer_samples_every_nth_request_and_accounts_for_it() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin, 0, 256);
        for id in 0..256 {
            t.begin(id);
            let dispatch = Instant::now();
            let v = t.call(Layer::Alloc, || std::hint::black_box(id + 1));
            assert_eq!(v, id + 1);
            t.call(Layer::WriteRef, || ());
            t.end(dispatch, dispatch, Instant::now());
        }
        assert_eq!(t.requests.len(), 256);
        assert_eq!(t.spans.len(), 2 * 256 / SAMPLE_EVERY as usize);
        assert_eq!(t.layers[Layer::Alloc as usize].durations.count(), 4);
        let mut acc = Accounting::default();
        account(&t, &mut acc);
        assert_eq!(acc.requests, 4);
        assert_eq!(acc.children_ns + acc.self_ns, acc.span_ns);
    }
}
