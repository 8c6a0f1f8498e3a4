//! The fixed design: two request mixes, two load shapes, four workloads.
//!
//! Everything a later change might be tempted to tune lives here as a
//! constant, so that two commits always run the same offered load.

use crate::trace::{Layer, Probe};
use lxr::runtime::Mutator;
use lxr::workloads::serve::SessionTable;

/// Fixed heap: 48 MiB.  A 10 k-session table falls off a cliff between
/// 32 MiB (147 k rps) and 28 MiB (58 k rps, an SATB trace started in 92 % of
/// pauses); 48 MiB keeps every workload well clear of it (see the README).
pub const HEAP_BYTES: usize = 48 << 20;
/// Simulated sessions, summed over the serving threads' shards.
pub const SESSIONS: usize = 10_000;
/// Cached-response slots per session.
pub const SESSION_SLOTS: u16 = 4;
/// Sessions that reference each other in the mutate mix.
pub const NEIGHBOURHOOD: usize = 16;
/// Data words of a request/response churn object.
const RESPONSE_DATA_WORDS: u16 = 12;
/// A request slower than this misses the SLO (`workloads.serve.slo_miss_share`).
pub const SLO_NS: u64 = 2_000_000;

/// What one request does.
#[derive(Debug)]
pub struct Mix {
    pub name: &'static str,
    /// Short-lived `alloc(1, 12, 3)` objects; the first is cached in the session.
    pub allocs: usize,
    /// Stores into the neighbourhood's mature sessions: two table lookups,
    /// a `read_ref` of the slot and a `write_ref` of another session into it.
    pub stores: usize,
    /// Hash-mix iterations (CPU service time).
    pub compute: usize,
    /// Probability that the request expires its own session.
    pub session_expiry: f64,
    /// Probability that the request retires its whole neighbourhood: the
    /// sessions reference each other, so only the SATB trace reclaims them.
    pub neighbourhood_retire: f64,
    /// Closed-loop warm-up requests, part of set-up.
    pub warmup_requests: usize,
}

/// Young allocation and the young sweep do almost all the work.
pub const ALLOC_MIX: Mix = Mix {
    name: "alloc",
    allocs: 128,
    stores: 0,
    compute: 2_000,
    session_expiry: 0.02,
    neighbourhood_retire: 0.0,
    warmup_requests: 200_000,
};

/// The barrier, RC buffers, increment/decrement application and the crew do
/// the work; allocation does little.
pub const MUTATE_MIX: Mix = Mix {
    name: "mutate",
    allocs: 8,
    stores: 96,
    compute: 2_000,
    session_expiry: 0.0,
    neighbourhood_retire: 0.03,
    warmup_requests: 300_000,
};

/// How requests are offered.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Poisson arrivals at `rps`; latency runs from the intended arrival.
    Open { rps: f64 },
    /// Every serving thread issues its next request when the previous one
    /// completes; latency runs from dispatch.  The run is a fixed request
    /// count, `nominal_rps × seconds`, identical on every commit.
    Closed { nominal_rps: f64 },
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub mix: &'static Mix,
    pub load: Load,
    pub threads: usize,
    /// Whether `BENCHMARK.json` lists the workload, so that its end-to-end
    /// metrics are held to their bounds.  `serve-alloc` is not: on a shared
    /// host its timings spread by up to the widest bound there may be (see
    /// the README); it runs, and prints every row, with the others.
    pub gated: bool,
}

impl Workload {
    /// Requests in a window of `seconds`.
    pub fn requests(&self, seconds: f64) -> usize {
        let rps = match self.load {
            Load::Open { rps } => rps,
            Load::Closed { nominal_rps } => nominal_rps,
        };
        ((rps * seconds) as usize).max(1)
    }

    pub fn open_loop(&self) -> bool {
        matches!(self.load, Load::Open { .. })
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "serve-alloc",
        why: "open loop at 30% of one thread: p50 is the allocation fast path, p99 is pure pause exposure",
        mix: &ALLOC_MIX,
        load: Load::Open { rps: 30_000.0 },
        threads: 1,
        gated: false,
    },
    Workload {
        name: "serve-mutate",
        why:
            "open loop at 29% of one thread, other half of the collector: few long pauses of field increments",
        mix: &MUTATE_MIX,
        load: Load::Open { rps: 40_000.0 },
        threads: 1,
        gated: true,
    },
    Workload {
        name: "peak-alloc",
        why: "closed loop on every core: saturated throughput and two mutators contending in the allocator",
        mix: &ALLOC_MIX,
        load: Load::Closed { nominal_rps: 80_000.0 },
        threads: 2,
        gated: true,
    },
    Workload {
        name: "peak-mutate",
        why: "closed loop on every core: barrier, RC and crew throughput; allocation gains must not move it",
        mix: &MUTATE_MIX,
        load: Load::Closed { nominal_rps: 240_000.0 },
        threads: 2,
        gated: true,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: the request stream is a pure function of `(seed, request id)`,
/// so it does not depend on which serving thread picks a request up.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn for_request(seed: u64, id: u64) -> Self {
        SplitMix(seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn coin(&mut self, p: f64) -> bool {
        p > 0.0 && ((self.next() >> 11) as f64) < p * (1u64 << 53) as f64
    }
}

/// Creates every session of `table` and fills every cache slot with a
/// response, so a window starts at steady state.
pub fn prefill(m: &mut Mutator, table: &mut SessionTable) {
    for index in 0..table.capacity() {
        table.create(m, index, index as u64);
        for slot in 0..SESSION_SLOTS as usize {
            let response = m.alloc(1, RESPONSE_DATA_WORDS, 3);
            table.touch(m, index, slot, response);
        }
    }
}

/// Services request `id` of `mix` against this thread's shard.
///
/// No collection can start between a store's lookups and the store: a pause
/// needs this thread at a safepoint, and those are only in `alloc`,
/// `begin_request` and `end_request`.
pub fn service<P: Probe>(
    m: &mut Mutator,
    table: &mut SessionTable,
    mix: &Mix,
    seed: u64,
    id: u64,
    probe: &mut P,
) {
    let shard = table.capacity();
    let mut rng = SplitMix::for_request(seed, id);
    let session = (rng.next() % shard as u64) as usize;
    let base = session - session % NEIGHBOURHOOD;
    let members = NEIGHBOURHOOD.min(shard - base);

    // Find-or-create.  The mutate mix retires neighbourhoods whole, so its
    // first member stands for all of them.
    if mix.stores == 0 {
        if probe.call(Layer::SessionTable, || table.lookup(m, session)).is_null() {
            probe.call(Layer::SessionTable, || table.create(m, session, id));
        }
    } else if probe.call(Layer::SessionTable, || table.lookup(m, base)).is_null() {
        for index in base..base + members {
            probe.call(Layer::SessionTable, || table.create(m, index, id));
        }
    }

    let mut acc = id;
    for a in 0..mix.allocs {
        let obj = probe.call(Layer::Alloc, || m.alloc(1, RESPONSE_DATA_WORDS, 3));
        m.write_data(obj, 0, acc);
        if a == 0 {
            let slot = (rng.next() % SESSION_SLOTS as u64) as usize;
            probe.call(Layer::SessionTable, || table.touch(m, session, slot, obj));
        }
    }

    for _ in 0..mix.stores {
        let x = rng.next();
        let from = probe.call(Layer::SessionTable, || table.lookup(m, base + (x % members as u64) as usize));
        let slot = ((x >> 8) % SESSION_SLOTS as u64) as usize;
        let to =
            probe.call(Layer::SessionTable, || table.lookup(m, base + ((x >> 16) % members as u64) as usize));
        let old = probe.call(Layer::ReadRef, || m.read_ref(from, slot));
        acc ^= old.is_null() as u64;
        probe.call(Layer::WriteRef, || m.write_ref(from, slot, to));
    }

    for _ in 0..mix.compute {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    }
    std::hint::black_box(acc);

    if rng.coin(mix.session_expiry) {
        probe.call(Layer::SessionTable, || table.expire(m, session));
    }
    if rng.coin(mix.neighbourhood_retire) {
        for index in base..base + members {
            probe.call(Layer::SessionTable, || table.expire(m, index));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_stream_is_a_function_of_seed_and_id() {
        let a: Vec<u64> = (0..8).map(|i| SplitMix::for_request(42, i).next()).collect();
        let b: Vec<u64> = (0..8).map(|i| SplitMix::for_request(42, i).next()).collect();
        let c: Vec<u64> = (0..8).map(|i| SplitMix::for_request(43, i).next()).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn coin_matches_its_probability() {
        let mut rng = SplitMix::for_request(7, 0);
        let hits = (0..100_000).filter(|_| rng.coin(0.02)).count();
        assert!((1_700..2_300).contains(&hits), "{hits}");
        assert!(!rng.coin(0.0));
    }

    #[test]
    fn workload_names_are_the_contract() {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, ["serve-alloc", "serve-mutate", "peak-alloc", "peak-mutate"]);
        assert_eq!(workload("peak-alloc").unwrap().requests(20.0), 1_600_000);
        assert!(workload("serve-burst").is_none());
    }
}
