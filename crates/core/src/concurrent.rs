//! Work performed by the concurrent GC **crew** (§3.2.1, §3.2.2 and
//! Figure 2): lazy decrements first (including lazy reclamation of mature
//! blocks), then SATB tracing — "parallelism in every collection phase"
//! (§1), applied to the phases that run *outside* pauses.
//!
//! # The crew
//!
//! The runtime invokes `concurrent_work` concurrently from every member
//! of its concurrent crew (`gc-concurrent-*` threads, sized by the
//! `concurrent_workers` runtime option).  The crew shares work through the
//! collector's queues in seed-and-steal form:
//!
//! * **Lazy decrements.**  The shared `pending_decs` queue holds
//!   *packets* — the write barrier's decrement chunks as a pause drained
//!   them, never single decrements.  Each worker pops one packet at a time
//!   and drains it as its local stack, following recursive decrements on
//!   it; a skewed death subtree (one root heading millions of objects) is
//!   split by publishing half of the oversized local stack back to the
//!   shared queue as one packet, where idle crew members pop it.  The last
//!   worker to leave the drain with the queue empty performs lazy block
//!   reclamation and clears `lazy_pending`.
//! * **SATB marking.**  The shared `gray` queue holds *seeds*; each worker
//!   drains a local mark stack (LIFO, cache-friendly) refilled from the
//!   shared queue in small grabs, spilling half of an oversized local stack
//!   back so siblings can steal it.  Termination is detected with a
//!   registered-tracer counter: a worker deregisters only when both its
//!   local stack and the shared queue are empty, and the trace is drained
//!   when the shared queue is empty with no tracer registered.
//!
//! # Preemption
//!
//! Every worker checks the runtime's pause flag each
//! [`YIELD_CHECK_QUANTUM`] objects.  On a pending pause it *flushes* its
//! local buffers — remaining decrements back to `pending_decs` as one
//! packet, remaining gray objects back to `gray` — deregisters, and
//! returns, so no work is ever stranded in a preempted worker.  The pause
//! waits for the whole crew to quiesce (the `concurrent_active` counter, a
//! crew-wide generalisation of the old single-thread `concurrent_busy`
//! flag) before touching collector state, and whatever the crew left in the
//! shared queues is either finished by the pause (decrements) or re-seeds
//! the crew after it (SATB tracing).
//!
//! # Quiescence handshake
//!
//! Crew-wide quiescence is a publish-then-recheck (Dekker) pattern, and
//! both sides are `SeqCst` deliberately: a worker increments
//! `concurrent_active` and *then* re-checks the pause flag, while the
//! pause controller raises the lock-free `Rendezvous::gc_pending` and
//! *then* spins on the counter.  Either the worker sees the pending pause
//! and backs out, or the controller's read of the counter sees the worker
//! and waits — weaker orderings on either side reopen the
//! check-then-act window that once let a worker run mid-pause.
//!
//! # Why the crew is not on the bucket scheduler
//!
//! Every pause phase runs on [`WorkerPool::run_bucket_graph`] (the pool's
//! only phase entry point; a flat fan-out is a one-bucket graph), but the
//! crew deliberately keeps its own seed-and-steal loops: a bucket-graph
//! participant runs its graph to completion, while a crew worker must
//! flush and yield within one [`YIELD_CHECK_QUANTUM`] of a pause request —
//! wrapping the crew's work in buckets would put the preemption check at
//! the mercy of the graph's termination protocol.  The crew *is* wired
//! into the scheduler's observability instead: its shared-queue grabs,
//! spills and offloads are counted into the same `Sched*` work counters
//! the pool's phases feed (batched — one counter add per grab/spill, not
//! per object).
//!
//! # The sequential trace
//!
//! The single-threaded trace, [`trace_satb_sequential`], is both an oracle
//! and a production path.  It is the determinism/mark-set oracle for the
//! crew (the tests assert the crew's mark set is bit-identical at every
//! crew size).  It also runs inside every pause that finds a trace active:
//! the early graph's `satb-catchup` bucket retires a bounded slice of the
//! gray set with it, and `satb-finalize` finishes the whole trace with it
//! on an exhaustion or degenerate pause.  The `-SATB` ablation runs its
//! in-pause trace through it too.

use crate::state::LxrState;
use lxr_heap::{Block, BlockState};
use lxr_object::ObjectReference;
use lxr_rc::Stamped;
use lxr_runtime::{ConcurrentWork, Watchdog, WorkCounter, WorkerPool, YieldCheck};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Objects processed between yield checks: the preemption quantum.  After a
/// pause is requested, every crew worker processes at most this many more
/// objects before flushing its local buffers and yielding.
pub const YIELD_CHECK_QUANTUM: usize = 64;

/// Entry point, called concurrently on every runtime concurrent-crew
/// worker.
pub(crate) fn concurrent_work(state: &Arc<LxrState>, work: &ConcurrentWork<'_>) {
    state.concurrent_active.fetch_add(1, Ordering::SeqCst);
    // Close the check-then-act race with the pause's quiescence spin: the
    // controller samples `concurrent_active` once the pause begins, so it
    // may have read zero an instant before the increment above.
    // Re-checking for a pending pause *after* publishing ourselves active
    // makes the handshake airtight: the yield check and the pause's flag
    // are both `SeqCst`, so either we see the pending pause and back out,
    // or the pause's later read of the counter sees us and waits.
    lxr_failpoints::failpoint!("crew.yield-ack");
    if (work.yield_requested)() {
        state.concurrent_active.fetch_sub(1, Ordering::SeqCst);
        return;
    }
    // Division of labour: lazy decrements keep mature reclamation prompt
    // (§3.2.1), but they are refilled at *every* pause, so a crew that
    // strictly prioritised them would starve the trace whenever the
    // inter-pause window is shorter than one epoch's decrement drain (the
    // single-thread design had exactly that inversion).  Instead the even
    // half of the crew (always including worker 0, so a crew of one keeps
    // the historical decrements-first order) retires decrements before
    // tracing, while the odd half traces immediately — the two phases are
    // safe to interleave because `apply_decrement` maintains the SATB
    // deletion invariant itself.
    let tracing = state.satb_active.load(Ordering::Acquire) && !state.satb_complete.load(Ordering::Acquire);
    let decrements_first = !tracing || work.worker_id.is_multiple_of(2);
    if decrements_first && state.lazy_pending.load(Ordering::Acquire) {
        crew_drain_decrements(state, &work.yield_requested);
    }
    // Decrement-first workers join the trace once the backlog is fully
    // retired (a sibling may still be finishing its last batch, in which
    // case `lazy_pending` is still set and we come back around via the
    // runtime's crew loop).
    if tracing && (!decrements_first || !state.lazy_pending.load(Ordering::Acquire)) {
        trace_satb_crew_watched(state, || (work.yield_requested)(), &work.watchdog);
    }
    state.concurrent_active.fetch_sub(1, Ordering::SeqCst);
}

/// Returns `true` if the plan has concurrent work outstanding.
pub(crate) fn has_concurrent_work(state: &Arc<LxrState>) -> bool {
    if state.lazy_pending.load(Ordering::Acquire) {
        return true;
    }
    state.satb_active.load(Ordering::Acquire)
        && !state.satb_complete.load(Ordering::Acquire)
        && !state.gray.is_empty()
}

/// Below this many decrements a pause applies a batch on its own thread:
/// the fan-out overhead is not worth it.
const DEC_MIN_PARALLEL: usize = 128;

/// One crew worker's share of the lazy decrement drain, wrapped in the
/// last-worker-out protocol: the worker that leaves the drain last, with
/// the shared queue empty, performs lazy reclamation and clears
/// `lazy_pending`.
///
/// The ordering that makes the protocol sound: a yielding worker re-queues
/// its local remainder *before* decrementing `dec_workers`, so any sibling
/// that observes the counter at zero afterwards also observes the re-queued
/// work in its final emptiness check and declines to reclaim.
fn crew_drain_decrements(state: &Arc<LxrState>, should_yield: &YieldCheck) {
    state.dec_workers.fetch_add(1, Ordering::SeqCst);
    let mut finished = true;
    loop {
        if should_yield() {
            finished = false;
            break;
        }
        lxr_failpoints::failpoint!("crew.steal");
        let Some(packet) = state.pending_decs.pop() else {
            break;
        };
        state.stats.add(WorkCounter::SchedSteals, packet.len() as u64);
        if !crew_process_decrement_chunk(state, packet, should_yield) {
            finished = false;
            break;
        }
    }
    let remaining = state.dec_workers.fetch_sub(1, Ordering::SeqCst) - 1;
    if finished && remaining == 0 && state.pending_decs.is_empty() {
        // Claim reclamation exclusively: a sibling re-entering through the
        // runtime's crew loop can reach this point concurrently (it sees
        // an empty queue and also leaves with `remaining == 0`), and two
        // reclaimers would double-release the same fully-free blocks.  The
        // compare-exchange both claims and clears `lazy_pending`.
        //
        // The emptiness check above can race a preempted sibling's
        // re-queue, so a cleared flag does not guarantee an empty queue;
        // that is why the pause's step-1 catch-up drains unconditionally.
        // A premature clear here only costs promptness (the remainder
        // waits for the pause), never correctness.
        if state.lazy_pending.compare_exchange(true, false, Ordering::SeqCst, Ordering::SeqCst).is_ok() {
            lazy_reclaim(state);
        }
    }
}

/// Local-stack length at which a packet's processor splits half of the
/// stack off as a new packet for its siblings, so a skewed packet (one root
/// heading a huge death subtree, one survivor heading a huge young
/// structure) does not serialize a phase while the other workers idle.
/// Shared by every RC packet: the crew's and the pause's decrements and the
/// pause's increments.
pub(crate) const DEC_OFFLOAD_AT: usize = 512;

/// Splits an oversized local decrement stack off to wherever the caller's
/// siblings can pick it up (the shared pending queue for the crew, the
/// bucket handle for the pause's work-stealing fan-outs).
type DecOffload<'a> = &'a dyn Fn(&mut Vec<Stamped<ObjectReference>>);

/// Applies one packet of decrements on a crew worker: recursive decrements
/// accumulate on a local stack, an oversized backlog is split off and
/// published to the shared pending queue as one packet where sibling crew
/// workers pop it, and on a yield request the unprocessed remainder is
/// re-queued.  Returns `false` if the worker yielded.
fn crew_process_decrement_chunk(
    state: &Arc<LxrState>,
    chunk: Vec<Stamped<ObjectReference>>,
    should_yield: &YieldCheck,
) -> bool {
    let offload = |local: &mut Vec<Stamped<ObjectReference>>| {
        let half = local.split_off(local.len() / 2);
        state.stats.add(WorkCounter::SchedPushes, half.len() as u64);
        state.pending_decs.push(half);
    };
    process_decrement_chunk(state, chunk, Some(&**should_yield), Some(&offload))
}

/// Cuts `items` into packets for a pause phase: about four per participant
/// (so a slow packet leaves its siblings something to steal), and at least
/// 32 items each (so a packet amortises its scheduling).
pub(crate) fn packets<T: Clone>(items: &[T], participants: usize) -> Vec<Vec<T>> {
    let len = items.len().div_ceil(participants * 4).max(32);
    items.chunks(len).map(<[_]>::to_vec).collect()
}

/// Processes every decrement still queued in `pending_decs` (and the
/// recursive decrements they generate) on the stop-the-world pool: the
/// *in-pause* catch-up path (§3.2.1: "If the next RC epoch starts and LXR
/// still has decrements to process, it finishes them first").  Outside
/// pauses, decrements are drained by the concurrent crew instead
/// ([`crew_drain_decrements`]).
pub(crate) fn drain_pending_decrements(state: &Arc<LxrState>, pool: &WorkerPool) {
    let queued: Vec<_> = std::iter::from_fn(|| state.pending_decs.pop()).collect();
    apply_decrement_packets(state, pool, queued);
}

/// Applies decrement packets (and their recursive cascades) inside a pause:
/// each packet is one item of a one-bucket graph, whose processor follows
/// recursive decrements on its local stack and pushes an oversized half
/// back into the bucket, where idle pool workers steal it.  A batch under
/// [`DEC_MIN_PARALLEL`] decrements runs on this thread instead.
pub(crate) fn apply_decrement_packets(
    state: &Arc<LxrState>,
    pool: &WorkerPool,
    packets: Vec<Vec<Stamped<ObjectReference>>>,
) {
    if packets.iter().map(Vec::len).sum::<usize>() < DEC_MIN_PARALLEL {
        for packet in packets {
            process_decrement_chunk(state, packet, None, None);
        }
        return;
    }
    let state = state.clone();
    let mut graph = lxr_runtime::BucketGraph::new();
    let decs = graph.bucket("decrements", &[], packets);
    pool.run_bucket_graph("pause: decrements", graph, move |_bucket, packet, handle| {
        let offload = |local: &mut Vec<Stamped<ObjectReference>>| {
            handle.push(decs, local.split_off(local.len() / 2));
        };
        process_decrement_chunk(&state, packet, None, Some(&offload));
    });
}

/// The one decrement-packet engine behind the crew drain and the pause's
/// fan-outs: pops from a local stack, follows recursive decrements on it,
/// and hands an oversized backlog (≥ [`DEC_OFFLOAD_AT`]) to `offload`,
/// which splits half of the stack off to wherever the caller's siblings can
/// pick it up.  Checks `should_yield` up front (a packet picked up after a
/// pause request goes straight back) and every [`YIELD_CHECK_QUANTUM`]
/// applications; on yield the unprocessed remainder returns to the shared
/// pending queue as one packet and `false` is returned.
pub(crate) fn process_decrement_chunk(
    state: &Arc<LxrState>,
    chunk: Vec<Stamped<ObjectReference>>,
    should_yield: Option<&(dyn Fn() -> bool + Send + Sync)>,
    offload: Option<DecOffload<'_>>,
) -> bool {
    let mut local = chunk;
    let requeue = |local: Vec<Stamped<ObjectReference>>| {
        if !local.is_empty() {
            state.pending_decs.push(local);
        }
        false
    };
    if should_yield.is_some_and(|f| f()) {
        return requeue(local);
    }
    let mut processed_since_check = 0usize;
    while let Some(obj) = local.pop() {
        {
            let mut push = |child: Stamped<ObjectReference>| local.push(child);
            state.apply_decrement(obj, &mut push);
        }
        if local.len() >= DEC_OFFLOAD_AT {
            if let Some(offload) = offload {
                offload(&mut local);
            }
        }
        processed_since_check += 1;
        if processed_since_check >= YIELD_CHECK_QUANTUM {
            processed_since_check = 0;
            if should_yield.is_some_and(|f| f()) {
                return requeue(local);
            }
        }
    }
    true
}

/// Lazy reclamation (§3.3.1): once the decrements are processed, sweep the
/// blocks that received them, immediately releasing the completely free
/// ones.  Partially free blocks are left for the next pause, which queues
/// them for line reuse.  The dirtied set is a per-block atomic bitmap, so
/// finding the candidates is one SWAR set-bit scan; releases are batched
/// so the allocator's central lock is taken at most once.
///
/// Only `Mature` blocks are released: a `Reusable` block still sits on the
/// recycled list, an allocator may be filling a `Recycled` one, and an
/// `EvacCandidate` is released by its evacuation.  The pause sweeps every
/// dirtied block this leaves behind.
///
/// Runs on exactly one crew worker: the last to leave a fully drained
/// decrement phase.
fn lazy_reclaim(state: &Arc<LxrState>) {
    let mut fully_free: Vec<Block> = Vec::new();
    state.for_each_dirtied_block(|block| {
        if state.space.block_states().get(block) == BlockState::Mature && state.rc.block_is_free(block) {
            fully_free.push(block);
        }
    });
    for &block in &fully_free {
        state.clear_block_dirtied(block);
        state.stats.add(WorkCounter::MatureBlocksFreed, 1);
        state.prepare_block_release(block);
    }
    state.blocks.release_free_blocks(&fully_free);
}

/// Visits one gray object: skip if dead or already marked, otherwise mark
/// it, account it, and feed its referents to `push` (recording remembered
/// set entries for references into the evacuation set).  Shared by the
/// sequential oracle and the crew trace, so the two cannot diverge on
/// per-object semantics.
#[inline]
fn process_gray_object(
    state: &Arc<LxrState>,
    gray: Stamped<ObjectReference>,
    push: &mut impl FnMut(Stamped<ObjectReference>),
) {
    let obj = gray.value;
    if obj.is_null() || !state.in_heap(obj) {
        return;
    }
    // The exact stale test: an entry whose line was reclaimed and reused
    // since capture must not be scanned (its granule may now hold an
    // unrelated object, or no object at all).
    if !state.stamp_is_current(gray) {
        return;
    }
    // Mature-only SATB: ignore objects with a zero reference count.
    if !state.rc.is_live(obj) {
        return;
    }
    let shape = state.om.shape(obj);
    let size = shape.size_words();
    // A granule whose count was seeded by a stale reference carries an
    // arbitrary "shape"; never let it drive the scan past the heap (real
    // objects always fit inside their block).
    if obj.to_address().word_index().saturating_add(size) > state.geometry.num_words() {
        return;
    }
    if !state.mark_object(obj, size) {
        return; // already marked
    }
    state.stats.add(WorkCounter::ObjectsMarked, 1);
    state.om.scan_refs(obj, |slot, child| {
        state.stats.add(WorkCounter::SlotsTraced, 1);
        // Out-of-heap children can appear when a scan races with granule
        // reuse (the trace runs alongside mutators and the lazy-decrement
        // reclaimer); they are dropped, not traced.
        if child.is_null() || !state.in_heap(child) {
            return;
        }
        push(state.stamp(child));
        // Bootstrap the remembered set: the trace visits every pointer
        // into the evacuation set (§3.3.2).
        if state.in_evac_set(child) {
            state.record_remset(slot);
        }
    });
}

/// Runs the SATB transitive closure single-threaded over the shared gray
/// queue: pops gray objects, marks them, and pushes their referents.  The
/// mature-only optimisation (§3.2.2) skips objects whose reference count is
/// zero — young objects are handled by RC and are conservatively marked at
/// their first retention instead.  Returns `true` if the gray set was fully
/// drained.
///
/// This is the determinism oracle for [`trace_satb_crew`] (same mark set,
/// bit for bit, on a frozen heap), every pause's bounded `satb-catchup`
/// slice (and the degenerate pause's unbounded finish), and the `-SATB`
/// ablation's in-pause trace.  Public for the oracle tests and the
/// `concurrent_mark` benchmark.
pub fn trace_satb_sequential(state: &Arc<LxrState>, should_yield: impl Fn() -> bool) -> bool {
    let mut processed_since_check = 0usize;
    while let Some(obj) = state.gray.pop() {
        processed_since_check += 1;
        process_gray_object(state, obj, &mut |child| state.gray.push(child));

        if processed_since_check >= YIELD_CHECK_QUANTUM {
            processed_since_check = 0;
            if should_yield() {
                return false;
            }
        }
    }
    true
}

/// Local mark-stack length beyond which a crew worker spills half back to
/// the shared gray queue, bounding per-worker memory and publishing work
/// where idle siblings steal it.
const TRACE_SPILL_AT: usize = 2048;
/// Gray seeds grabbed from the shared queue per refill: large enough to
/// amortise the shared-queue pops, small enough to keep work spread across
/// the crew.
const TRACE_GRAB: usize = 64;

/// One crew worker's share of the SATB transitive closure.
///
/// The worker drains a local mark stack (LIFO — depth-first-ish, good
/// locality) refilled from the shared gray queue in `TRACE_GRAB`-sized
/// grabs; children go on the local stack, and an oversized stack spills
/// half to the shared queue.  Termination: the worker registers itself in
/// `satb_tracers` while it holds work; when both its stack and the shared
/// queue are empty it deregisters and waits for either new shared work
/// (re-register and continue) or `satb_tracers == 0` with the shared queue
/// empty (the trace is drained — return `true`).
///
/// On a yield request the worker flushes its local stack to the shared
/// queue, deregisters and returns `false` within one [`YIELD_CHECK_QUANTUM`]:
/// nothing is stranded, so the pause's completion check (`gray` empty) and
/// the post-pause re-seed both see the full leftover trace.
///
/// Public for the oracle tests and the `concurrent_mark` benchmark.
pub fn trace_satb_crew(state: &Arc<LxrState>, should_yield: impl Fn() -> bool) -> bool {
    trace_satb_crew_watched(state, should_yield, &Watchdog::disarmed())
}

/// [`trace_satb_crew`] under a termination deadline: if the worker's idle
/// wait for trace termination (shared queue empty, but siblings still
/// registered as tracers) outlives the watchdog, concurrent marking is
/// *degraded* rather than aborted — the worker dumps the runtime state,
/// requests the degenerate stop-the-world catch-up via
/// [`LxrState::force_degenerate`], and returns, so the next pause finishes
/// the trace unbounded.  This is the graceful half of the watchdog design:
/// a wedged concurrent trace costs one long pause, not the process.
pub fn trace_satb_crew_watched(
    state: &Arc<LxrState>,
    should_yield: impl Fn() -> bool,
    watchdog: &Watchdog,
) -> bool {
    let mut local: Vec<Stamped<ObjectReference>> = Vec::with_capacity(TRACE_GRAB);
    let mut processed_since_check = 0usize;
    let mut idle_spins = 0u32;
    state.satb_tracers.fetch_add(1, Ordering::SeqCst);
    loop {
        // Drain the local mark stack.
        while let Some(obj) = local.pop() {
            {
                let mut push = |child: Stamped<ObjectReference>| local.push(child);
                process_gray_object(state, obj, &mut push);
            }
            if local.len() >= TRACE_SPILL_AT {
                lxr_failpoints::failpoint!("crew.spill");
                state.stats.add(WorkCounter::SchedPushes, (local.len() - local.len() / 2) as u64);
                for o in local.drain(local.len() / 2..) {
                    state.gray.push(o);
                }
            }
            processed_since_check += 1;
            if processed_since_check >= YIELD_CHECK_QUANTUM {
                processed_since_check = 0;
                if should_yield() {
                    // Flush, then deregister: a sibling that sees the
                    // tracer count drop must also see our leftover work.
                    for o in local.drain(..) {
                        state.gray.push(o);
                    }
                    state.satb_tracers.fetch_sub(1, Ordering::SeqCst);
                    return false;
                }
            }
        }
        // Local stack empty: refill from the shared gray queue.
        if let Some(obj) = state.gray.pop() {
            lxr_failpoints::failpoint!("crew.seed");
            local.push(obj);
            while local.len() < TRACE_GRAB {
                match state.gray.pop() {
                    Some(o) => local.push(o),
                    None => break,
                }
            }
            state.stats.add(WorkCounter::SchedSteals, local.len() as u64);
            continue;
        }
        // Nothing local, nothing shared: deregister and watch for either
        // termination or a sibling's spill.
        state.satb_tracers.fetch_sub(1, Ordering::SeqCst);
        let idle_started = std::time::Instant::now();
        loop {
            if should_yield() {
                return false;
            }
            if !state.gray.is_empty() {
                // A sibling spilled (or flushed on yield): help out.
                state.satb_tracers.fetch_add(1, Ordering::SeqCst);
                break;
            }
            if state.satb_tracers.load(Ordering::SeqCst) == 0 {
                // No shared work and nobody holds local work: drained.
                // (Mutator barrier flushes may still feed the gray queue
                // afterwards; the runtime's crew loop re-checks
                // `has_concurrent_work` and comes back for them.)
                return true;
            }
            if watchdog.expired(idle_started) {
                // Termination is wedged (a sibling registered as a tracer
                // is not making progress).  Degrade: dump the evidence,
                // hand the trace to the next pause's unbounded catch-up,
                // and get out of the way.
                eprintln!(
                    "==== WATCHDOG: concurrent SATB trace termination exceeded its deadline; \
                     degrading to stop-the-world catch-up ===="
                );
                eprint!("{}", lxr_runtime::watchdog::dump_all());
                state.force_degenerate.store(true, Ordering::SeqCst);
                return false;
            }
            idle_spins += 1;
            if idle_spins > 64 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        idle_spins = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LxrConfig;
    use lxr_heap::{BlockAllocator, HeapConfig, HeapSpace, LargeObjectSpace};
    use lxr_object::ObjectShape;
    use lxr_runtime::{PlanContext, RuntimeOptions};
    use std::sync::atomic::AtomicUsize;

    fn state() -> Arc<LxrState> {
        let options = RuntimeOptions::default()
            .with_heap_config(HeapConfig::with_heap_size(4 << 20))
            .with_concurrent_thread(false);
        let space = Arc::new(HeapSpace::new(options.heap.clone()));
        let blocks = Arc::new(BlockAllocator::new(space.clone()));
        let los = Arc::new(LargeObjectSpace::new(space.clone(), blocks.clone()));
        let ctx = PlanContext { space, blocks, los, stats: Arc::new(lxr_runtime::GcStats::new()), options };
        Arc::new(LxrState::new(&ctx, LxrConfig::default()))
    }

    #[test]
    fn a_yield_requeues_the_unprocessed_remainder_as_one_packet() {
        let s = state();
        let block = Block::from_index(2);
        s.space.block_states().set(block, BlockState::Mature);
        // 200 mature leaves with a count of two: each decrement survives,
        // so the packet's stack only shrinks.
        let packet: Vec<Stamped<ObjectReference>> = (0..200)
            .map(|k| {
                let obj =
                    s.om.initialize(s.geometry.block_start(block).plus(k * 2), ObjectShape::new(0, 1, 1));
                s.rc.increment(obj);
                s.rc.increment(obj);
                s.stamp(obj)
            })
            .collect();
        // Passes the up-front check, fires at the first quantum check.
        let checks = AtomicUsize::new(0);
        let should_yield = || checks.fetch_add(1, Ordering::Relaxed) >= 1;
        assert!(!process_decrement_chunk(&s, packet.clone(), Some(&should_yield), None));
        assert_eq!(checks.load(Ordering::Relaxed), 2);
        assert_eq!(s.pending_decs.len(), 1, "the remainder travels as one packet");
        let remainder = s.pending_decs.pop().unwrap();
        // The stack pops from its end: the first YIELD_CHECK_QUANTUM entries
        // processed are the last ones of the packet.
        assert_eq!(remainder, packet[..packet.len() - YIELD_CHECK_QUANTUM]);
        for (k, dec) in packet.iter().enumerate() {
            let expected = if k < remainder.len() { 2 } else { 1 };
            assert_eq!(s.rc.count(dec.value), expected, "entry {k}");
        }
    }

    #[test]
    fn lazy_reclaim_leaves_evacuation_candidates_to_their_evacuation() {
        let s = state();
        let block = s.blocks.acquire_clean_block().unwrap();
        s.space.block_states().set(block, BlockState::EvacCandidate);
        s.mark_block_dirtied(block);
        let free_before = s.blocks.free_block_count();
        lazy_reclaim(&s);
        assert_eq!(s.space.block_states().get(block), BlockState::EvacCandidate);
        assert_eq!(s.blocks.free_block_count(), free_before, "the candidate was not released");
    }

    #[test]
    fn lazy_reclaim_leaves_a_recycled_block_to_its_allocator() {
        let s = state();
        let block = s.blocks.acquire_clean_block().unwrap();
        s.queue_for_reuse(block);
        assert_eq!(s.blocks.acquire_recycled_block(), Some(block));
        s.mark_block_dirtied(block);
        let free_before = s.blocks.free_block_count();
        lazy_reclaim(&s);
        assert_eq!(s.space.block_states().get(block), BlockState::Recycled);
        assert_eq!(s.blocks.free_block_count(), free_before);
    }
}
