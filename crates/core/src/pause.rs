//! The stop-the-world RC pause (§3.2.1, §3.3.1).
//!
//! Every LXR collection is a brief pause that:
//!
//! 1. finishes any lazy decrements left over from the previous epoch,
//! 2. releases blocks whose reclamation was deferred one epoch (so that
//!    forwarding pointers stayed valid for the previous epoch's lazy work),
//! 3. drains the write-barrier buffers,
//! 4. feeds the overwritten referents into the SATB snapshot (if a trace is
//!    underway), retires a bounded catch-up slice of the gray set, and
//!    detects trace completion (whatever the slice leaves re-seeds the
//!    concurrent crew after the pause),
//! 5. performs SATB reclamation and mature evacuation when a trace has
//!    completed,
//! 6. applies reference-count increments (roots, then modified fields),
//!    opportunistically evacuating surviving young objects,
//! 7. schedules decrements (lazily by default),
//! 8. sweeps blocks containing young objects and blocks dirtied by
//!    decrements, reclaiming free blocks and recycling free lines,
//! 9. decides whether to start a new SATB trace, and
//! 10. updates the survival-rate predictor and epoch bookkeeping.
//!
//! # Parallelism
//!
//! Every substantive phase of the pause runs on the work-stealing worker
//! pool ("parallelism in every collection phase", §1), and the phases with
//! real dependency structure run as **bucket DAGs**
//! ([`WorkerPool::run_bucket_graph`]) so independent phases overlap instead
//! of running back-to-back:
//!
//! * **The early graph** (steps 1–4): `lazy-decs` (the leftover decrement
//!   drain, chunked and stealable) and `barrier-drain` (the exclusive sink
//!   drain plus the SATB snapshot feed) are independent roots;
//!   `release-deferred` opens once `lazy-decs` drains (nothing may still
//!   resolve into the deferred blocks); `satb-catchup` opens after the feed
//!   and runs the bounded trace slice *concurrently with* the decrement
//!   drain; `satb-finalize` opens only after **both** `lazy-decs` and
//!   `satb-catchup` — completion must not be declared while decrements can
//!   still push dying objects' children to the gray set (the deletion
//!   invariant lives in `apply_decrement`).  The overlaps mirror the
//!   concurrent crew's steady state (decrements ∥ tracing ∥ lazy block
//!   release): gray entries are re-validated at every pop, and released
//!   lines get bumped reuse epochs.
//! * **The sweep graph** (step 8): read-only block `census` chunks feed
//!   per-chunk `release` items (free-list and reuse-queue mutations),
//!   which the pool applies as they arrive instead of in one
//!   single-threaded flush; chunks hold disjoint blocks, so release items
//!   commute.  The young-LOS sweep chunks its candidate list across the
//!   pool as a one-bucket graph.
//!
//! The increment phase and the in-pause decrement phase are one-bucket
//! graphs too (a flat fan-out is the degenerate graph): they push recursive
//! work back into their own bucket through
//! [`BucketHandle::push`](lxr_runtime::BucketHandle::push).
//!
//! # Phase-order invariants
//!
//! The step numbering above is load-bearing; reordering any of these pairs
//! reintroduces a corruption class that was found and fixed by differential
//! stress (see ROADMAP, PR 3/PR 4):
//!
//! * **Step 1 is unconditional.**  The crew's last-worker-out emptiness
//!   check can race a preempted sibling's re-queue, so a cleared
//!   `lazy_pending` flag must not gate the decrement drain — step 2
//!   releases the previous pause's deferred blocks, which is only sound
//!   once *everything* that could still resolve a reference into them has
//!   drained.
//! * **Increments run before SATB reclamation and mature evacuation**
//!   (step 6 work embedded ahead of step 5's consumers): evacuating first
//!   left relocated objects holding stale pointers to young objects that
//!   moved in the same pause, and the final epoch's modified slots must
//!   reach the remembered set before the evacuation consumes it.
//! * **Deferred root decrements apply inside the pause, strictly after
//!   that pause's root increments** (step 7 after step 6): applying them
//!   lazily let a root-held object's count transiently reach zero
//!   mid-epoch and cascade a bogus death.
//!
//! # Concurrency
//!
//! The pause begins by waiting the concurrent crew out (`concurrent_active`
//! paired with the lock-free `Rendezvous::gc_pending` Dekker handshake) and
//! runs with every mutator parked at the rendezvous.  That phase-level
//! quiescence is what lets the controller drain the barrier sinks through
//! the unpinned `drain_exclusive` fast path (it is provably the only
//! consumer), and every epoch-stamp validation performed inside the pause
//! is atomic with its apply because nothing concurrently releases or
//! installs lines (see `lxr_heap::epoch`).

use crate::state::LxrState;
use lxr_heap::{Address, Block, BlockState, ImmixAllocator, LineOccupancy, GRANULE_WORDS};
use lxr_object::{ClaimResult, ObjectReference};
use lxr_rc::Stamped;
use lxr_runtime::{Collection, GcReason, GcStats, WorkCounter, WorkerPool};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Below this many in-pause decrements the fan-out overhead is not worth it.
const DEC_MIN_PARALLEL_PAUSE: usize = 128;

/// Minimum gray objects the pause retires as its bounded SATB catch-up
/// slice.  The actual slice is the larger of this and an eighth of the
/// heap's granules, so a trace is guaranteed to converge within a handful
/// of pauses even when the concurrent crew gets no CPU at all (a saturated
/// single-core host).  On a host with spare cores the crew drains the gray
/// set between pauses and the slice retires little or nothing.
const SATB_PAUSE_CATCHUP_MIN: usize = 8192;

/// A unit of increment work for the parallel increment phase.
#[derive(Debug, Clone, Copy)]
struct IncItem {
    /// When set, the referent is (re)read from this slot and the slot is
    /// updated if the referent moves.
    slot: Option<Address>,
    /// The referent, used only when `slot` is `None` (root increments).
    target: ObjectReference,
    /// Whether to re-arm the field's log state (modified-field entries).
    reset_log: bool,
    /// The slot's reuse epoch at capture time; validated (for
    /// modified-field entries) before the slot is read or re-armed, so a
    /// slot whose line was reclaimed and reused mid-epoch is skipped
    /// outright.  Unused for root items and recursive child items, whose
    /// slots are produced inside this very pause.
    epoch: u8,
}

/// One increment-phase participant's private state, on cache lines of its
/// own: its copy allocator, and the volume of the young objects it retained,
/// which the pause sums once when the phase ends (the survival predictor's
/// numerator).  The pool numbers a phase's participants `0..=size()`, one
/// thread each, so a slot has a single writer; `births_words` is an atomic
/// only because the phase closure is a shared `Fn`.
#[repr(align(128))]
pub(crate) struct IncWorker {
    copy_alloc: Mutex<ImmixAllocator>,
    births_words: AtomicUsize,
}

/// Barrier-sink drains stashed by the early graph's `barrier-drain` bucket
/// for the sequential remainder of the pause (increments, step 8's
/// decrement scheduling).
type ModChunks = Vec<Vec<Stamped<Address>>>;
type DecChunks = Vec<Vec<Stamped<ObjectReference>>>;

/// One work item of the pause's early bucket graph (steps 1–4).
enum EarlyItem {
    /// A chunk of the leftover lazy-decrement drain (`lazy-decs`).
    DecChunk(Vec<Stamped<ObjectReference>>),
    /// Release the blocks deferred one epoch (`release-deferred`).
    ReleaseDeferred,
    /// Drain the write-barrier sinks and feed the SATB snapshot
    /// (`barrier-drain`).
    BarrierDrain,
    /// The bounded in-pause SATB catch-up slice (`satb-catchup`).
    SatbCatchup,
    /// Trace-completion detection, plus the unbounded degenerate mop-up
    /// (`satb-finalize`).
    SatbFinalize,
}

/// Processes one item of the early bucket graph.  See the step 1–4 comment
/// in [`rc_pause`] for the dependency edges and the overlap-safety
/// argument.
#[allow(clippy::too_many_arguments)]
fn process_early_item(
    state: &Arc<LxrState>,
    item: EarlyItem,
    handle: &lxr_runtime::BucketHandle<EarlyItem>,
    stash: &Arc<Mutex<Option<(ModChunks, DecChunks)>>>,
    satb_running: bool,
    unbounded_finish: bool,
    catchup: usize,
    decs_bucket: usize,
) {
    match item {
        EarlyItem::DecChunk(chunk) => {
            // Recursive decrements stay on the processing worker's local
            // stack; an oversized backlog splits off through the bucket
            // handle (back into `lazy-decs`, which cannot have drained
            // while this item is in flight) where idle siblings steal it.
            let offload = |local: &mut Vec<Stamped<ObjectReference>>| {
                handle.push(decs_bucket, EarlyItem::DecChunk(local.split_off(local.len() / 2)));
            };
            crate::concurrent::process_decrement_chunk(state, chunk, None, Some(&offload));
        }
        EarlyItem::ReleaseDeferred => {
            // Batched: one central-lock take for the whole set.  The
            // `lazy-decs` dependency guarantees every decrement the
            // previous epoch left behind has drained, so nothing can still
            // resolve a reference into these blocks.
            let deferred: Vec<Block> = state.deferred_free_blocks.lock().drain(..).collect();
            for &block in &deferred {
                state.prepare_block_release(block);
            }
            state.finish_block_releases(&deferred);
        }
        EarlyItem::BarrierDrain => {
            // Exclusive-consumer drains: mutators are stopped at the
            // rendezvous and the pause waited the concurrent crew out, so
            // the worker running this item — the graph schedules it exactly
            // once — is the only thread that can pop the barrier sinks.
            // Skipping the queue pin/unpin removes two `SeqCst` RMWs per
            // chunk from the pause's critical path.
            //
            // SAFETY: this item is the sole consumer of the modified-field
            // sink for the pause (see above).
            let mod_chunks = unsafe { state.sink.modified_fields.drain_exclusive() };
            // SAFETY: likewise the sole consumer of the decrement sink.
            let dec_chunks = unsafe { state.sink.decrements.drain_exclusive() };
            if satb_running {
                for chunk in &dec_chunks {
                    for &dec in chunk {
                        let obj = dec.value;
                        // The epoch stamp is compared raw here (not through
                        // the counting helper): step 8 hands the same
                        // entries to the decrement machinery, which
                        // performs the counted validation — feeding and
                        // applying are one capture, not two.
                        if !obj.is_null()
                            && state.in_heap(obj)
                            && state.space.reuse_epoch(obj.to_address()) == dec.epoch
                            && state.rc.is_live(obj)
                            && !state.is_marked(obj)
                        {
                            state.gray.push(dec);
                        }
                    }
                }
            }
            *stash.lock() = Some((mod_chunks, dec_chunks));
        }
        EarlyItem::SatbCatchup => {
            // Retire a bounded slice of the gray set; whatever the budget
            // leaves re-seeds the crew when the world resumes.  Completion
            // is *not* declared here — `satb-finalize` owns that, after
            // the decrement drain too has finished.
            let budget = std::cell::Cell::new(catchup / crate::concurrent::YIELD_CHECK_QUANTUM);
            crate::concurrent::trace_satb_sequential(state, || {
                if budget.get() == 0 {
                    return true;
                }
                budget.set(budget.get() - 1);
                false
            });
        }
        EarlyItem::SatbFinalize => {
            // Both `lazy-decs` and `satb-catchup` have drained: no
            // decrement can push another dying object's children onto the
            // gray set, so an empty gray set now means every
            // snapshot-reachable object has been visited.
            if unbounded_finish && !state.gray.is_empty() {
                // Degenerate/exhaustion pause: reclamation cannot wait —
                // finish the whole trace here, unbounded.
                crate::concurrent::trace_satb_sequential(state, || false);
            }
            if state.gray.is_empty() {
                state.satb_complete.store(true, Ordering::Release);
            }
        }
    }
}

/// Runs one RC pause.
pub(crate) fn rc_pause(state: &Arc<LxrState>, c: &Collection<'_>) {
    c.attrs.set_kind("rc");

    // 0. Wait for the whole concurrent crew to go quiescent (each worker
    //    flushes its local buffers and yields within one yield-check
    //    quantum of observing the pending pause).  `SeqCst` pairs with the
    //    crew's publish-then-recheck handshake in `concurrent_work`.  The
    //    workers we wait for need CPU to reach their next yield check, so
    //    on an oversubscribed host the spin must hand the core over rather
    //    than burn its whole scheduling quantum.  A crew worker wedged by a
    //    chaos schedule (or a lost yield-ack) would stall this spin forever;
    //    the pause watchdog turns that hang into a state dump and abort.
    let quiesce_started = std::time::Instant::now();
    let mut spins = 0u32;
    while state.concurrent_active.load(Ordering::SeqCst) > 0 {
        spins += 1;
        if spins > 64 {
            if spins.is_multiple_of(1024) {
                c.watchdog.check("pause: concurrent crew quiescence", quiesce_started);
            }
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }

    // 1–4. The early bucket graph.  Steps 1 (lazy decrement drain),
    //    2 (deferred block release), 3 (barrier-sink drain) and 4 (SATB
    //    feed, bounded catch-up and completion detection) have real
    //    dependency structure, so they run as a work-bucket DAG instead of
    //    back-to-back phases:
    //
    //        lazy-decs ──────────┬────────────► release-deferred
    //            │               │
    //            └───────────────┴──► satb-finalize
    //                                      ▲
    //        barrier-drain ──► satb-catchup┘
    //
    //    * `lazy-decs` is unconditional, not gated on `lazy_pending`: the
    //      crew's last-worker-out claim can race a preempted sibling's
    //      re-queue, and releasing the deferred blocks is only sound if
    //      *everything* pending has drained (§3.2.1: "If the next RC epoch
    //      starts and LXR still has decrements to process, it finishes
    //      them first").  On an empty queue the bucket is empty and
    //      cascades immediately.
    //    * `release-deferred` waits for `lazy-decs` — nothing may still
    //      resolve a reference into the deferred blocks.
    //    * `satb-catchup` waits for `barrier-drain`'s snapshot feed, then
    //      retires a bounded slice of the gray set *concurrently with* the
    //      decrement drain — the same interleaving the concurrent crew
    //      runs between pauses (`apply_decrement` maintains the deletion
    //      invariant itself, and gray pops re-validate stamps).
    //    * `satb-finalize` waits for **both**: completion (`gray` observed
    //      empty) must not be declared while decrements can still push a
    //      dying object's children onto the gray set.  An exhaustion pause
    //      (the degenerate-GC fallback — the mutator failed an allocation,
    //      so reclamation cannot wait) finishes the whole trace here,
    //      unbounded; the crew's trace watchdog (and the
    //      `pause.satb-feed=degenerate` failpoint) request the same
    //      escalation through `force_degenerate`.
    lxr_failpoints::failpoint!("pause.lazy-drain");
    lxr_failpoints::failpoint!("pause.release-deferred");
    lxr_failpoints::failpoint!("pause.barrier-drain");
    if state.lazy_pending.load(Ordering::Acquire) {
        c.attrs.set_lazy_incomplete();
    }
    let satb_running =
        state.satb_active.load(Ordering::Acquire) && !state.satb_complete.load(Ordering::Acquire);
    let degenerate = satb_running
        && (matches!(
            lxr_failpoints::failpoint_act!("pause.satb-feed"),
            Some(lxr_failpoints::Action::Degenerate)
        ) || state.force_degenerate.swap(false, Ordering::SeqCst));
    if degenerate {
        c.stats.add(WorkCounter::DegeneratedCollections, 1);
    }
    let unbounded_finish = c.reason == GcReason::Exhausted || degenerate;
    // Exhaustion/degenerate pauses are the degraded-mode fallback: whatever
    // trace runs next must be able to reclaim *everything* reclaimable, so
    // sticky mode escalates it to a full-heap trace.
    if unbounded_finish && state.config.sticky {
        state.force_full_trace.store(true, Ordering::Release);
    }
    // Bounded in-pause catch-up slice: large enough that the trace
    // converges within a handful of pauses even when the crew gets no CPU
    // (without this, a trace can float forever — completion requires the
    // gray set observed empty at a pause).
    let catchup = (state.geometry.num_words() / GRANULE_WORDS / 8).max(SATB_PAUSE_CATCHUP_MIN);
    let barrier_chunks: Arc<Mutex<Option<(ModChunks, DecChunks)>>> = Arc::new(Mutex::new(None));
    {
        let mut pending: Vec<Stamped<ObjectReference>> = Vec::new();
        while let Some(d) = state.pending_decs.pop() {
            pending.push(d);
        }
        let participants = c.workers.size() + 1;
        let chunk_len = pending.len().div_ceil(participants * 4).max(32);
        let dec_seeds: Vec<EarlyItem> =
            pending.chunks(chunk_len).map(|ch| EarlyItem::DecChunk(ch.to_vec())).collect();
        let mut graph = lxr_runtime::BucketGraph::new();
        let b_decs = graph.bucket("lazy-decs", &[], dec_seeds);
        let _b_release = graph.bucket("release-deferred", &[b_decs], vec![EarlyItem::ReleaseDeferred]);
        let b_barrier = graph.bucket("barrier-drain", &[], vec![EarlyItem::BarrierDrain]);
        if satb_running {
            let b_catchup = graph.bucket("satb-catchup", &[b_barrier], vec![EarlyItem::SatbCatchup]);
            graph.bucket("satb-finalize", &[b_decs, b_catchup], vec![EarlyItem::SatbFinalize]);
        }
        let state = state.clone();
        let stash = Arc::clone(&barrier_chunks);
        c.workers.run_bucket_graph("pause: early graph", graph, move |_bucket, item, handle| {
            process_early_item(&state, item, handle, &stash, satb_running, unbounded_finish, catchup, b_decs);
        });
    }
    // Preserve the unconditional-drain invariant verbatim: the graph's
    // offloads all flow through the bucket handle, so this is a single
    // failed pop unless a future change re-routes a remainder through the
    // shared queue — in which case it is caught here, not by corruption.
    crate::concurrent::drain_pending_decrements(state, Some(c.workers), None);
    state.lazy_pending.store(false, Ordering::Release);
    let (mod_chunks, dec_chunks) =
        barrier_chunks.lock().take().expect("barrier-drain bucket ran exactly once");

    // 5. Collect roots.
    lxr_failpoints::failpoint!("pause.roots");
    let roots = c.roots.collect_roots();
    c.stats.add(WorkCounter::RootsScanned, roots.len() as u64);

    // 6. If a trace completed, reclaim what it found dead and defragment the
    //    evacuation set (§3.3.2).
    let mut satb_swept_blocks: Vec<Block> = Vec::new();

    // 6. Increment phase: roots first, then modified fields, with young
    //    evacuation (§3.3.2) and recursive increments for surviving young
    //    objects.  The phase runs in parallel with work stealing.
    //
    //    Increments run *before* SATB reclamation and mature evacuation:
    //    the modified-slot items heal each logged slot in place (following
    //    young-evacuation forwarding) and record remembered-set entries for
    //    new references into the evacuation set, so the evacuation that
    //    follows sees fully healed slots and a remset that includes this
    //    final epoch's writes.  (Evacuating first would copy objects whose
    //    bodies still hold pre-heal pointers: the mod-slot heal would then
    //    land in the abandoned old copy while the relocated copy keeps a
    //    stale pointer to a young object that moves this very pause.)
    lxr_failpoints::failpoint!("pause.increments");
    let inc_workers = make_inc_workers(state, c.workers.size() + 1);
    let mut items: Vec<IncItem> = Vec::with_capacity(roots.len() + 1024);
    for &root in &roots {
        items.push(IncItem { slot: None, target: root, reset_log: false, epoch: 0 });
    }
    for chunk in &mod_chunks {
        for &slot in chunk {
            items.push(IncItem {
                slot: Some(slot.value),
                target: ObjectReference::NULL,
                reset_log: true,
                epoch: slot.epoch,
            });
        }
    }
    {
        let state = state.clone();
        let inc_workers = inc_workers.clone();
        let mut graph = lxr_runtime::BucketGraph::new();
        let incs = graph.bucket("increments", &[], items);
        c.workers.run_bucket_graph("pause: increments", graph, move |_bucket, item, handle| {
            let worker = &inc_workers[handle.worker_id];
            process_increment_item(&state, item, worker, &|slot, child| {
                handle.push(incs, IncItem { slot: Some(slot), target: child, reset_log: false, epoch: 0 });
            });
        });
    }
    // Retiring the copy allocators folds what they copied into the space's
    // allocation volume before step 10 reads it.
    let mut births = 0;
    for worker in inc_workers.iter() {
        worker.copy_alloc.lock().retire();
        births += worker.births_words.load(Ordering::Relaxed);
    }
    // Redirect roots that point at evacuated young objects.
    c.roots.visit_roots(|r| *r = state.om.resolve(*r));

    // 7. If a trace completed, reclaim what it found dead and defragment
    //    the evacuation set (§3.3.2).  Survivors retained above were
    //    conservatively marked (the trace is still active), so reclamation
    //    never touches them.
    lxr_failpoints::failpoint!("pause.satb-reclaim");
    if state.satb_complete.load(Ordering::Acquire) {
        satb_swept_blocks = crate::satb::reclaim(state, c);
        crate::evac::evacuate_mature(state, c);
        if state.config.sticky {
            // Sticky mode: marks persist between traces — they record what
            // previous traces already covered, and the next sticky trace
            // skips every marked granule.  Only a full-trace start clears
            // them.  A completed full trace certifies the mark bits cover
            // the whole mature heap (sticky traces are sound from here on);
            // a completed sticky trace feeds the yield predictor that
            // drives escalation.
            if state.current_trace_full.load(Ordering::Acquire) {
                state.full_trace_completed.store(true, Ordering::Release);
            } else {
                let marked = c
                    .stats
                    .get(WorkCounter::ObjectsMarked)
                    .saturating_sub(state.objects_marked_at_trace_start.load(Ordering::Relaxed));
                let deaths = c
                    .stats
                    .get(WorkCounter::SatbDeaths)
                    .saturating_sub(state.satb_deaths_at_trace_start.load(Ordering::Relaxed));
                let observed_yield = deaths as f64 / marked.max(1) as f64;
                state.predictors.lock().sticky_yield.observe(observed_yield);
            }
        } else {
            state.clear_marks();
        }
        state.satb_complete.store(false, Ordering::Release);
        state.satb_active.store(false, Ordering::Release);
    }

    // 8. Decrements.  The *deferred root decrements* (roots retained at the
    //    previous pause, §2.1) are applied inside the pause, strictly after
    //    this pause's root increments: an object held live only by a root
    //    has a count of exactly one between pauses, and handing its
    //    deferred decrement to the lazy queue would drop that count to zero
    //    mid-epoch — before the next pause's increment restores it —
    //    cascading a transient "death" through everything the root keeps
    //    alive (and letting concurrent reclamation free it for real).  The
    //    inc-then-dec pause ordering is what makes root deferral sound.
    //    Barrier-captured overwritten referents carry no such invariant and
    //    are processed lazily by the concurrent crew (the paper's lazy
    //    decrements), or in-pause under the -LD ablation.
    lxr_failpoints::failpoint!("pause.decrements");
    let root_decs: Vec<Stamped<ObjectReference>> = state.prev_root_decs.lock().drain(..).collect();
    apply_decrements_in_pause(state, c.workers, root_decs);
    let mut decrements: Vec<Stamped<ObjectReference>> = Vec::new();
    for chunk in dec_chunks {
        decrements.extend(chunk);
    }
    if state.config.concurrent_decrements {
        for d in decrements {
            state.pending_decs.push(d);
        }
        state.lazy_pending.store(true, Ordering::Release);
    } else {
        // The -LD ablation applies the captured decrements inside the
        // pause as well.  Blocks dirtied here are swept below.
        apply_decrements_in_pause(state, c.workers, decrements);
    }

    // 9. Sweep: blocks containing young objects (state Young/Recycled),
    //    blocks dirtied by decrements, and blocks the *previous* pause's
    //    SATB reclamation touched.  This pause's SATB-swept blocks are
    //    deferred one epoch — like the evacuation's free-block release —
    //    so the reclaimed granules' headers stay intact while this epoch's
    //    lazy decrement cascades (which may still hold references to them)
    //    drain; the next pause finishes those decrements (step 1) before
    //    this set is swept.  The deferral is an *exclusion* too: a
    //    freshly-reclaimed block may independently qualify for this
    //    pause's sweep (decrement-dirtied, or Recycled state), and sweeping
    //    it now would release or recycle it this epoch anyway.
    lxr_failpoints::failpoint!("pause.sweep");
    let prior_satb_swept: Vec<Block> = state.satb_swept_deferred.lock().drain(..).collect();
    let defer: HashSet<usize> = satb_swept_blocks.iter().map(|b| b.index()).collect();
    let sweep_set: Vec<(Block, BlockState)> = collect_sweep_set(state, &prior_satb_swept)
        .into_iter()
        .filter(|(b, _)| !defer.contains(&b.index()))
        .collect();
    sweep_blocks(state, c.workers, c.stats, sweep_set);
    sweep_young_los(state, c.workers);
    *state.satb_swept_deferred.lock() = satb_swept_blocks;

    // 10. Record the survival observation and update the predictors.  The
    //     allocation-rate predictor is fed unconditionally: zero-allocation
    //     epochs (idle phases, requested GCs) decay the prediction so the
    //     predictive trigger — and through it the heap footprint — relaxes
    //     when a burst ends.
    let allocated =
        state.space.allocated_words().saturating_sub(state.words_at_epoch_start.load(Ordering::Relaxed));
    if allocated > 0 {
        let rate = (births as f64 / allocated as f64).min(1.0);
        state.predictors.lock().survival_rate.observe(rate);
    }
    state.predictors.lock().alloc_words_per_epoch.observe(allocated as f64);

    // 11. Decide whether to start a new SATB trace.
    lxr_failpoints::failpoint!("pause.trigger");
    if !state.satb_active.load(Ordering::Acquire) && crate::satb::should_start(state) {
        c.attrs.set_started_satb();
        let full = crate::satb::next_trace_full(state);
        crate::satb::start(state, c, full);
        if !state.config.concurrent_satb {
            // The -SATB ablation: run the whole trace inside the pause.
            crate::concurrent::trace_satb_sequential(state, || false);
            state.satb_complete.store(true, Ordering::Release);
        }
    }

    // 12. Epoch bookkeeping.  The deferred root decrements are stamped
    //     like every other capture: a root-held object stays live (count
    //     >= 1 from this pause's root increment) until the stamp is
    //     validated at the next pause, so its line cannot be reclaimed in
    //     between and the stamp always matches — but stamping keeps the
    //     protocol uniform and catches any future invariant break exactly.
    *state.prev_root_decs.lock() = c.roots.collect_roots().into_iter().map(|r| state.stamp(r)).collect();
    state.words_at_epoch_start.store(state.space.allocated_words(), Ordering::Relaxed);
    state.epochs.fetch_add(1, Ordering::Relaxed);
}

/// Applies a batch of decrements (and their recursive cascades) inside the
/// pause: a work-stealing phase for large batches, the one decrement-chunk
/// loop on this thread for tiny ones (not worth a phase's scheduling setup).
fn apply_decrements_in_pause(
    state: &Arc<LxrState>,
    workers: &WorkerPool,
    decrements: Vec<Stamped<ObjectReference>>,
) {
    if decrements.is_empty() {
        return;
    }
    if decrements.len() < DEC_MIN_PARALLEL_PAUSE {
        crate::concurrent::process_decrement_chunk(state, decrements, None, None);
    } else {
        let state = state.clone();
        let mut graph = lxr_runtime::BucketGraph::new();
        let decs = graph.bucket("decrements", &[], decrements);
        workers.run_bucket_graph("pause: decrements", graph, move |_bucket, obj, handle| {
            state.apply_decrement(obj, &mut |child| handle.push(decs, child));
        });
    }
}

/// Creates the increment-phase state of each GC worker (plus the controller
/// thread).
fn make_inc_workers(state: &Arc<LxrState>, n: usize) -> Arc<Vec<IncWorker>> {
    let occupancy: Arc<dyn LineOccupancy> = state.rc.clone();
    Arc::new(
        (0..n)
            .map(|_| IncWorker {
                copy_alloc: Mutex::new(ImmixAllocator::new(
                    state.space.clone(),
                    state.blocks.clone(),
                    occupancy.clone(),
                )),
                births_words: AtomicUsize::new(0),
            })
            .collect(),
    )
}

/// Processes one increment work item.
fn process_increment_item(
    state: &Arc<LxrState>,
    item: IncItem,
    worker: &IncWorker,
    push_child: &dyn Fn(Address, ObjectReference),
) {
    let (slot, obj) = match item.slot {
        Some(s) => {
            if item.reset_log {
                // Modified-field entry: validate the capture's reuse epoch
                // before touching the slot.  A mismatch proves the slot's
                // line was reclaimed and reused since the barrier logged it
                // — re-reading it would increment whatever now lives there,
                // and re-arming its log state would poison the new
                // occupant's field (fields of fresh objects must stay
                // Ignored).
                if state.space.reuse_epoch(s) != item.epoch {
                    state.stats.add(WorkCounter::EpochStaleDrops, 1);
                    return;
                }
                state.stats.add(WorkCounter::EpochChecksPassed, 1);
                // Re-arm the field so the next epoch's first write is
                // logged ("resets its unlogged bit", §3.4).
                state.log_table.mark_unlogged(s);
                // Sticky mode: a modified mature field may now reference an
                // object allocated after the last trace, so it joins the
                // remembered set the next sticky trace seeds from.
                if state.config.sticky {
                    state.record_sticky_slot(s);
                }
            }
            (Some(s), state.om.read_slot(s))
        }
        None => (None, item.target),
    };
    // A slot produced inside this pause can still re-read as arbitrary
    // data if a racing worker rewrites it; an out-of-heap value must
    // degrade to "stale entry", not an out-of-bounds access.
    if obj.is_null() || !state.in_heap(obj) {
        return;
    }
    let new = increment_object(state, obj, worker, push_child);
    if let Some(s) = slot {
        if new != obj {
            state.om.write_slot(s, new);
        }
        // Remembered-set maintenance: a new reference into the evacuation
        // set created since the SATB began (§3.3.2).
        if state.satb_active.load(Ordering::Relaxed) && state.in_evac_set(new) {
            state.record_remset(s);
        }
    }
}

/// Applies one increment to `obj`, performing first-retention processing
/// (recursive increments, young evacuation, field re-arming) exactly once
/// per young object.  Returns the object's current location.
pub(crate) fn increment_object(
    state: &Arc<LxrState>,
    obj: ObjectReference,
    worker: &IncWorker,
    push_child: &dyn Fn(Address, ObjectReference),
) -> ObjectReference {
    state.stats.add(WorkCounter::IncrementsApplied, 1);
    // Objects already evacuated this pause: increment the new copy.
    if let Some(new) = state.om.forwarding_target(obj) {
        state.rc.increment(new);
        return new;
    }
    // Mature (or already-retained young) objects: a plain increment.
    if state.rc.count(obj) > 0 {
        state.rc.increment(obj);
        return obj;
    }
    // Possible first retention of a young object.  The forwarding claim
    // arbitrates: exactly one thread wins and performs first-retention
    // processing.
    match state.om.try_claim_forwarding(obj) {
        // A stale reference (granule reclaimed and reused): treat as dead,
        // no count to establish.
        ClaimResult::Stale => obj,
        ClaimResult::AlreadyForwarded(new) => {
            state.rc.increment(new);
            new
        }
        ClaimResult::Claimed(header) => {
            if state.rc.count(obj) > 0 {
                // Someone completed first retention (without copying)
                // between our check and our claim.
                state.om.abandon_forwarding(obj, header);
                state.rc.increment(obj);
                return obj;
            }
            first_retention(state, obj, header, worker, push_child)
        }
    }
}

/// First retention of a young object: optionally evacuate it out of an
/// all-young block, establish its count, re-arm its fields for logging, and
/// generate increments for its referents.
fn first_retention(
    state: &Arc<LxrState>,
    obj: ObjectReference,
    header: u64,
    worker: &IncWorker,
    push_child: &dyn Fn(Address, ObjectReference),
) -> ObjectReference {
    let shape = state.om.shape_of_header(header);
    let size = shape.size_words();
    let block = state.geometry.block_of(obj.to_address());
    let block_state = state.space.block_states().get(block);
    // A stale reference (its granule reclaimed and reused mid-epoch) can
    // win the claim with a data word masquerading as a header.  Its bogus
    // shape must not drive reads past the heap (real objects always fit
    // inside their block), and a "first retention" in a Free block is
    // always stale — establishing a count there would poison the block's
    // next occupant.
    let plausible = obj.to_address().word_index().saturating_add(size) <= state.geometry.num_words()
        && block_state != BlockState::Free;
    if !plausible {
        state.om.abandon_forwarding(obj, header);
        return obj;
    }

    // Young evacuation (§3.3.2): objects in blocks that contain only young
    // objects are copied, compacting survivors and freeing whole blocks.
    let mut target = obj;
    if block_state == BlockState::Young {
        match worker.copy_alloc.lock().alloc(size) {
            Ok(to) => {
                target = state.om.install_forwarding(obj, to, header);
                state.stats.add(WorkCounter::YoungObjectsCopied, 1);
                state.stats.add(WorkCounter::WordsCopied, size as u64);
            }
            Err(_) => {
                // No space to copy into: retain in place (§3.3.2: "If there
                // are no free or partially free blocks, it can stop copying
                // young objects and increment their reference counts in
                // place").
                state.om.abandon_forwarding(obj, header);
            }
        }
    } else {
        state.om.abandon_forwarding(obj, header);
    }

    state.rc.increment(target);
    state.stats.add(WorkCounter::YoungSurvivors, 1);
    worker.births_words.fetch_add(size, Ordering::Relaxed);
    if size > state.geometry.words_per_line() {
        state.rc.mark_straddle_lines(target, size);
    }
    // Survivors allocated during an SATB trace are conservatively retained
    // by that trace (Yuasa's treatment of new objects): mark them so the
    // reclamation sweep does not clear them.
    if state.satb_active.load(Ordering::Relaxed) {
        state.mark_object(target, size);
    } else if state.config.sticky && state.marks.load(target.to_address()) != 0 {
        // Sticky mode keeps marks across traces, so a granule's previous
        // occupant may have left a stale mark behind.  First retention is
        // the 0→1 transition every counted object passes exactly once:
        // clearing here re-establishes the invariant that a counted
        // object's head mark bit reflects *its own* trace history ("young
        // since the last trace"), so the next sticky trace scans it.
        // (Stale marks on *uncounted* granules are harmless — every mark
        // consultation is count-guarded.)
        state.marks.store(target.to_address(), 0);
    }
    // The survivor's fields become "mature": future writes must be logged.
    for i in 0..shape.nrefs as usize {
        let slot = target.to_address().plus(1 + i);
        state.log_table.mark_unlogged(slot);
        let child = state.om.read_slot(slot);
        if !child.is_null() {
            push_child(slot, child);
        }
    }
    target
}

/// Collects the set of blocks to sweep this pause.
fn collect_sweep_set(state: &Arc<LxrState>, satb_swept: &[Block]) -> Vec<(Block, BlockState)> {
    let mut set: HashSet<usize> = HashSet::new();
    for (block, block_state) in state.space.block_states().iter() {
        if matches!(block_state, BlockState::Young | BlockState::Recycled) {
            set.insert(block.index());
        }
    }
    // Drain the decrement-dirtied bitmap (a SWAR set-bit scan; the world is
    // stopped, so clearing it wholesale races with nothing).
    state.for_each_dirtied_block(|block| {
        set.insert(block.index());
    });
    state.dirtied.clear_all();
    for block in satb_swept {
        set.insert(block.index());
    }
    set.into_iter()
        .map(Block::from_index)
        .map(|b| (b, state.space.block_states().get(b)))
        // Evacuation candidates awaiting deferred release are skipped: their
        // forwarding pointers must survive until the next pause.
        .filter(|(_, s)| !matches!(s, BlockState::Free | BlockState::Los | BlockState::EvacCandidate))
        .collect()
}

/// One census chunk's buffered sweep outcomes.  Block censuses are
/// read-only, so the scan itself needs no synchronisation; the mutations
/// that touch global locks (free list, reuse queue) are batched here and
/// applied by a `sweep: release` bucket item, avoiding lock ping-pong
/// block-by-block.  Chunks hold disjoint blocks, so outcome items commute
/// and can be applied by any worker in any order.
#[derive(Default)]
struct SweepOutcome {
    /// Fully free blocks with their pre-sweep state (for the stats split).
    /// Their metadata was already cleared by the census step.
    release: Vec<(Block, BlockState)>,
    /// Blocks with free lines, to queue for line reuse.
    recycle: Vec<Block>,
    /// Previously `Recycled` blocks whose reuse-queue membership lapsed.
    unqueue: Vec<usize>,
}

/// One work item of the sweep bucket graph.
enum SweepItem {
    /// A chunk of blocks to census (`sweep: census`).
    Census(Vec<(Block, BlockState)>),
    /// One census chunk's buffered mutations (`sweep: release`).
    Flush(Box<SweepOutcome>),
}

/// Blocks per parallel sweep work item.
const SWEEP_CHUNK_MIN: usize = 8;

/// Sweeps the given blocks in parallel over the worker pool: completely
/// free blocks are released, blocks with free lines are queued for reuse,
/// and everything else becomes mature.
///
/// Each block is summarised by one `RcTable::block_summary` — a single
/// allocation-free, word-at-a-time pass over the packed count table.  The
/// sweep runs as a two-bucket graph: `sweep: census` chunks the set across
/// the workers ([`RcTable::summarize_blocks`](lxr_rc::RcTable::summarize_blocks)),
/// clearing per-block metadata inside the phase (blocks are disjoint) and
/// pushing each chunk's buffered free-list and reuse-queue mutations as a
/// `SweepItem::Flush` item into `sweep: release`, which the pool applies
/// batched (one lock take per chunk) once the census drains — the old
/// single-threaded flush loop, parallelised.
///
/// Public (with [`sweep_blocks_sequential`]) for the determinism tests and
/// the `pause_phases` benchmark.
pub fn sweep_blocks(
    state: &Arc<LxrState>,
    workers: &WorkerPool,
    stats: &GcStats,
    sweep_set: Vec<(Block, BlockState)>,
) {
    if sweep_set.len() < 2 * SWEEP_CHUNK_MIN {
        // A sweep set this small fits in a couple of work items; skip the
        // phase setup and run the (outcome-identical) sequential reference.
        return sweep_blocks_sequential(state, stats, sweep_set);
    }
    let participants = workers.size() + 1;
    // Reuse-queue membership is only read during the census; mutations are
    // buffered, so one snapshot up front replaces a lock per block.
    let queued_snapshot: Arc<HashSet<usize>> = Arc::new(state.queued_for_reuse.lock().clone());
    let chunk_len = sweep_set.len().div_ceil(participants * 4).max(SWEEP_CHUNK_MIN);
    let chunks: Vec<SweepItem> =
        sweep_set.chunks(chunk_len).map(|ch| SweepItem::Census(ch.to_vec())).collect();
    let mut graph = lxr_runtime::BucketGraph::new();
    let census = graph.bucket("sweep: census", &[], chunks);
    let release_bucket = graph.bucket("sweep: release", &[census], Vec::new());
    let state = state.clone();
    // Counter updates go through the state's stats handle (the same store
    // `stats` points at); the borrow itself cannot cross into the phase.
    debug_assert!(std::ptr::eq(stats, &*state.stats));
    workers.run_bucket_graph("pause: block sweep", graph, move |_bucket, item, handle| match item {
        SweepItem::Census(chunk) => {
            let mut out = SweepOutcome::default();
            state.rc.summarize_blocks(chunk, |block, prior, live, free_lines| {
                if prior == BlockState::Recycled {
                    // The block was taken off the recycled queue by an
                    // allocator since the last pause; it is eligible to be
                    // queued again.
                    out.unqueue.push(block.index());
                }
                let still_queued = prior != BlockState::Recycled && queued_snapshot.contains(&block.index());
                if live == 0 {
                    if still_queued {
                        // The block still sits in the recycled queue;
                        // releasing it to the clean list as well would hand
                        // it out twice.  Leave it queued — all of its lines
                        // are free, so reuse is fine.
                        return;
                    }
                    state.prepare_block_release(block);
                    out.release.push((block, prior));
                    return;
                }
                if matches!(prior, BlockState::EvacCandidate) {
                    return;
                }
                if free_lines > 0 {
                    out.recycle.push(block);
                } else {
                    state.space.block_states().set(block, BlockState::Mature);
                }
            });
            handle.push(release_bucket, SweepItem::Flush(Box::new(out)));
        }
        SweepItem::Flush(out) => {
            // Apply one chunk's buffered mutations, batched: each global
            // lock is taken once per chunk, not once per block.  A block's
            // unqueue precedes its own release/requeue (same chunk, same
            // item); across items the block sets are disjoint, so the
            // release-queue and reuse-queue updates commute.
            {
                let mut queued = state.queued_for_reuse.lock();
                for idx in &out.unqueue {
                    queued.remove(idx);
                }
            }
            for &(_, prior) in &out.release {
                match prior {
                    BlockState::Young => state.stats.add(WorkCounter::YoungBlocksFreed, 1),
                    _ => state.stats.add(WorkCounter::MatureBlocksFreed, 1),
                }
            }
            let release: Vec<Block> = out.release.iter().map(|&(b, _)| b).collect();
            state.finish_block_releases(&release);
            for block in out.recycle {
                state.queue_for_reuse(block);
            }
        }
    });
}

/// The sequential block sweep: the production path for sweep sets under
/// 16 blocks (`2 * SWEEP_CHUNK_MIN`, see [`sweep_blocks`]), the determinism
/// oracle for the parallel sweep, and the baseline in the `pause_phases`
/// benchmark.  Must produce the same block-state, free-list and
/// reuse-queue outcome as the parallel sweep.
pub fn sweep_blocks_sequential(state: &Arc<LxrState>, stats: &GcStats, sweep_set: Vec<(Block, BlockState)>) {
    for (block, prior_state) in sweep_set {
        if prior_state == BlockState::Recycled {
            // The block was taken off the recycled queue by an allocator
            // since the last pause; it is eligible to be queued again.
            state.queued_for_reuse.lock().remove(&block.index());
        }
        let (live_granules, free_lines) = state.rc.block_summary(block);
        if live_granules == 0 {
            if state.queued_for_reuse.lock().contains(&block.index()) {
                // The block still sits in the recycled queue; releasing it to
                // the clean list as well would hand it out twice.  Leave it
                // queued — all of its lines are free, so reuse is fine.
                continue;
            }
            match prior_state {
                BlockState::Young => stats.add(WorkCounter::YoungBlocksFreed, 1),
                _ => stats.add(WorkCounter::MatureBlocksFreed, 1),
            }
            state.release_free_block(block);
            continue;
        }
        if matches!(prior_state, BlockState::EvacCandidate) {
            continue;
        }
        if free_lines > 0 {
            state.queue_for_reuse(block);
        } else {
            state.space.block_states().set(block, BlockState::Mature);
        }
    }
}

/// Young-LOS candidates per parallel work item.
const LOS_CHUNK_MIN: usize = 16;
/// Below this many candidates the fan-out overhead is not worth it.
const LOS_MIN_PARALLEL: usize = 64;

/// Reclaims large objects allocated since the last pause that never received
/// an increment (implicit death for the large object space).  Large lists
/// are chunked across the worker pool: the liveness checks are atomic reads
/// and only actual frees take the LOS lock.
fn sweep_young_los(state: &Arc<LxrState>, workers: &WorkerPool) {
    let young: Vec<Address> = state.young_los.lock().drain(..).collect();
    if young.is_empty() {
        return;
    }
    if young.len() < LOS_MIN_PARALLEL {
        for addr in young {
            free_young_los_if_dead(state, addr);
        }
        return;
    }
    let participants = workers.size() + 1;
    let chunk_len = young.len().div_ceil(participants * 2).max(LOS_CHUNK_MIN);
    let chunks: Vec<Vec<Address>> = young.chunks(chunk_len).map(<[_]>::to_vec).collect();
    let state = state.clone();
    let mut graph = lxr_runtime::BucketGraph::new();
    graph.bucket("young-los", &[], chunks);
    workers.run_bucket_graph("pause: young-los sweep", graph, move |_bucket, chunk, _handle| {
        for addr in chunk {
            free_young_los_if_dead(&state, addr);
        }
    });
}

fn free_young_los_if_dead(state: &Arc<LxrState>, addr: Address) {
    let obj = ObjectReference::from_address(addr);
    if state.los.contains(addr) && !state.rc.is_live(obj) && state.free_los(addr) {
        state.stats.add(WorkCounter::LargeObjectsFreed, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LxrConfig;
    use lxr_heap::{BlockAllocator, HeapConfig, HeapSpace, LargeObjectSpace};
    use lxr_runtime::{PlanContext, RuntimeOptions};

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

    /// Deterministically populates `state` with a mix of sweep scenarios and
    /// returns the sweep set: fully free Young blocks, fully free Recycled
    /// blocks (queued and unqueued), live blocks with and without free
    /// lines, and a fully dense block.
    fn populate(state: &Arc<LxrState>) -> Vec<(Block, BlockState)> {
        let g = state.geometry;
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut step = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            x >> 33
        };
        let mut sweep = Vec::new();
        for bi in 2..60usize {
            let block = Block::from_index(bi);
            let start = g.block_start(block);
            let kind = step() % 5;
            match kind {
                0 => {
                    // Fully free young block.
                    state.space.block_states().set(block, BlockState::Young);
                }
                1 => {
                    // Fully free block still (or no longer) in the reuse
                    // queue.
                    state.space.block_states().set(block, BlockState::Recycled);
                    if step() % 2 == 0 {
                        state.queue_for_reuse(block);
                        // queue_for_reuse sets the state to Mature; restore
                        // the "allocator took it" look for half of them.
                        state.space.block_states().set(block, BlockState::Recycled);
                    }
                }
                2 => {
                    // Live young block with free lines.  The offset is
                    // clamped so every granule (up to k * 2 + 2 words past
                    // it) stays inside this block and cannot perturb a
                    // neighbour's scenario.
                    state.space.block_states().set(block, BlockState::Young);
                    for k in 0..(1 + step() % 6) {
                        let off = (step() as usize) % (g.words_per_block() - 16);
                        state.rc.increment(ObjectReference::from_address(
                            start.plus(off & !1).plus(k as usize * 2),
                        ));
                    }
                }
                3 => {
                    // Dense block: one live granule on every line.
                    state.space.block_states().set(block, BlockState::Young);
                    for line in 0..g.lines_per_block() {
                        state
                            .rc
                            .increment(ObjectReference::from_address(start.plus(line * g.words_per_line())));
                    }
                }
                _ => {
                    // Dirtied mature block (partially live).
                    state.space.block_states().set(block, BlockState::Mature);
                    let off = (step() as usize) % g.words_per_block();
                    state.rc.increment(ObjectReference::from_address(start.plus(off & !1)));
                    state.mark_block_dirtied(block);
                }
            }
            let s = state.space.block_states().get(block);
            sweep.push((block, s));
        }
        sweep
    }

    fn snapshot(state: &Arc<LxrState>) -> (Vec<u8>, usize, usize, Vec<usize>) {
        let states: Vec<u8> = state.space.block_states().iter().map(|(_, s)| s as u8).collect();
        let mut queued: Vec<usize> = state.queued_for_reuse.lock().iter().copied().collect();
        queued.sort_unstable();
        (states, state.blocks.free_block_count(), state.blocks.recycled_block_count(), queued)
    }

    #[test]
    fn parallel_sweep_matches_sequential_reference() {
        let pool = WorkerPool::new(4);
        let seq = state();
        let par = state();
        let sweep_seq = populate(&seq);
        let sweep_par = populate(&par);
        assert_eq!(
            sweep_seq.iter().map(|&(b, s)| (b.index(), s as u8)).collect::<Vec<_>>(),
            sweep_par.iter().map(|&(b, s)| (b.index(), s as u8)).collect::<Vec<_>>(),
            "identical deterministic setup"
        );

        sweep_blocks_sequential(&seq, &seq.stats, sweep_seq);
        sweep_blocks(&par, &pool, &par.stats, sweep_par);

        assert_eq!(snapshot(&seq), snapshot(&par), "block states, free lists and reuse queues agree");
        for counter in
            [WorkCounter::YoungBlocksFreed, WorkCounter::MatureBlocksFreed, WorkCounter::BlocksRecycled]
        {
            assert_eq!(seq.stats.get(counter), par.stats.get(counter), "{counter:?}");
        }
    }

    #[test]
    fn parallel_sweep_is_idempotent_for_live_blocks() {
        // Sweeping a set of live, no-free-line blocks twice leaves the same
        // mature states (exercises the set-Mature path under parallelism).
        let pool = WorkerPool::new(2);
        let s = state();
        let g = s.geometry;
        let mut sweep = Vec::new();
        // Enough blocks to stay above the parallel sweep's sequential
        // fallback threshold.
        for bi in 2..26usize {
            let block = Block::from_index(bi);
            for line in 0..g.lines_per_block() {
                s.rc.increment(ObjectReference::from_address(
                    g.block_start(block).plus(line * g.words_per_line()),
                ));
            }
            s.space.block_states().set(block, BlockState::Young);
            sweep.push((block, BlockState::Young));
        }
        sweep_blocks(&s, &pool, &s.stats, sweep.clone());
        for &(block, _) in &sweep {
            assert_eq!(s.space.block_states().get(block), BlockState::Mature);
        }
        let before = snapshot(&s);
        sweep_blocks(&s, &pool, &s.stats, sweep.into_iter().map(|(b, _)| (b, BlockState::Mature)).collect());
        assert_eq!(snapshot(&s), before);
    }
}
