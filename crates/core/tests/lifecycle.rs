//! End-to-end lifecycle tests for the LXR collector: allocation, mutation,
//! reclamation of acyclic and cyclic garbage, young evacuation, concurrency
//! ablations, and multi-threaded mutators.

use lxr_core::{LxrConfig, LxrPlan, LxrState};
use lxr_object::ObjectReference;
use lxr_runtime::{Plan, PlanContext, Runtime, RuntimeOptions, WorkCounter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, OnceLock};

fn runtime_with(heap_mb: usize, config: LxrConfig) -> Runtime {
    let options =
        RuntimeOptions::default().with_heap_size(heap_mb << 20).with_gc_workers(2).with_poll_interval(32);
    Runtime::with_factory(options, move |ctx: PlanContext| {
        Arc::new(LxrPlan::with_config(ctx, config)) as Arc<dyn Plan>
    })
}

/// A runtime with 2 GC workers and no concurrent crew (so only the pool
/// feeds the scheduler counters, and nothing runs between pauses), plus
/// the LXR state behind it.
fn crewless_runtime(heap_mb: usize) -> (Runtime, Arc<LxrState>) {
    let options = RuntimeOptions::default()
        .with_heap_size(heap_mb << 20)
        .with_gc_workers(2)
        .with_concurrent_thread(false)
        .with_poll_interval(32);
    let state = Arc::new(OnceLock::new());
    let slot = Arc::clone(&state);
    let rt = Runtime::with_factory(options, move |ctx: PlanContext| {
        let plan = Arc::new(LxrPlan::with_config(ctx, LxrConfig::for_heap(heap_mb << 20)));
        let _ = slot.set(Arc::clone(plan.state()));
        plan as Arc<dyn Plan>
    });
    let state = Arc::clone(state.get().expect("the factory ran"));
    (rt, state)
}

fn runtime(heap_mb: usize) -> Runtime {
    runtime_with(heap_mb, LxrConfig::for_heap(heap_mb << 20))
}

/// Builds a linked list of `n` nodes, each carrying its index, rooted at the
/// returned head.
fn build_list(mutator: &mut lxr_runtime::Mutator, n: u64) -> ObjectReference {
    let head = mutator.alloc(1, 1, 1);
    mutator.write_data(head, 0, 0);
    let mut tail = head;
    for i in 1..n {
        let node = mutator.alloc(1, 1, 1);
        mutator.write_data(node, 0, i);
        mutator.write_ref(tail, 0, node);
        tail = node;
    }
    head
}

/// Sums the payloads of a list built by [`build_list`].
fn sum_list(mutator: &mut lxr_runtime::Mutator, head: ObjectReference) -> (u64, u64) {
    let mut sum = 0;
    let mut count = 0;
    let mut cursor = head;
    while !cursor.is_null() {
        sum += mutator.read_data(cursor, 0);
        count += 1;
        cursor = mutator.read_ref(cursor, 0);
    }
    (sum, count)
}

#[test]
fn linked_list_survives_collections() {
    let rt = runtime(16);
    let mut m = rt.bind_mutator();
    let head = build_list(&mut m, 1000);
    let root = m.push_root(head);
    for _ in 0..5 {
        m.request_gc();
    }
    let head = m.root(root);
    let (sum, count) = sum_list(&mut m, head);
    assert_eq!(count, 1000);
    assert_eq!(sum, (0..1000).sum::<u64>());
    drop(m);
    rt.shutdown();
}

#[test]
fn dead_objects_are_reclaimed() {
    let rt = runtime(16);
    let mut m = rt.bind_mutator();
    // Burn through several heaps' worth of garbage: 16 MB heap, allocate
    // ~64 MB of short-lived objects.  Without reclamation this would abort
    // with an out-of-memory panic.
    let keeper_root = {
        let keeper = m.alloc(8, 0, 0);
        m.push_root(keeper)
    };
    for i in 0..200_000u64 {
        let obj = m.alloc(2, 4, 0);
        m.write_data(obj, 0, i);
        if i % 25_000 == 0 {
            // An occasional survivor.  `keeper` may have been evacuated by a
            // collection since the last iteration, so re-read it from its
            // root slot — exactly as a compiled mutator's stack map would.
            let keeper = m.root(keeper_root);
            m.write_ref(keeper, (i / 25_000) as usize % 8, obj);
        }
    }
    let stats = rt.stats().snapshot();
    assert!(stats.pause_count() > 0, "collections were triggered");
    assert!(stats.counter(WorkCounter::YoungBlocksFreed) > 0, "implicitly dead young blocks were reclaimed");
    // Survivors are intact.
    let keeper = m.root(keeper_root);
    for slot in 0..8usize {
        let survivor = m.read_ref(keeper, slot);
        if !survivor.is_null() {
            assert_eq!(m.read_data(survivor, 0) % 25_000, 0);
        }
    }
    drop(m);
    rt.shutdown();
}

#[test]
fn young_evacuation_copies_survivors() {
    let rt = runtime(16);
    let mut m = rt.bind_mutator();
    let head = build_list(&mut m, 2000);
    let root = m.push_root(head);
    m.request_gc();
    let stats = rt.stats().snapshot();
    assert!(
        stats.counter(WorkCounter::YoungObjectsCopied) > 0,
        "young survivors were evacuated out of all-young blocks"
    );
    // The root was redirected to the surviving copy and the list is intact.
    let head = m.root(root);
    let (_, count) = sum_list(&mut m, head);
    assert_eq!(count, 2000);
    drop(m);
    rt.shutdown();
}

#[test]
fn acyclic_garbage_dies_through_decrements() {
    let rt = runtime(16);
    let mut m = rt.bind_mutator();
    // A tree that survives one collection (becoming mature), then is
    // dropped; reference counting alone must reclaim it.
    let head = build_list(&mut m, 5_000);
    let root = m.push_root(head);
    m.request_gc();
    m.request_gc();
    // Drop the only reference.
    m.set_root(root, ObjectReference::NULL);
    m.request_gc(); // captures the root decrement
    m.request_gc(); // processes it (and its recursive decrements)
    m.request_gc(); // allow lazy decrements to finish and sweep
    std::thread::sleep(std::time::Duration::from_millis(50));
    m.request_gc();
    let stats = rt.stats().snapshot();
    assert!(
        stats.counter(WorkCounter::RcDeaths) > 1_000,
        "mature list nodes were reclaimed by reference counting (got {})",
        stats.counter(WorkCounter::RcDeaths)
    );
    drop(m);
    rt.shutdown();
}

#[test]
fn cyclic_garbage_requires_and_gets_the_satb_trace() {
    // Force the clean-block SATB trigger to fire at every opportunity so the
    // test exercises the trace deterministically (the trigger heuristics
    // themselves are exercised by the workload-level tests).
    let config = LxrConfig { clean_block_trigger_fraction: 1.0, ..LxrConfig::for_heap(12 << 20) };
    let rt = runtime_with(12, config);
    let mut m = rt.bind_mutator();
    // Build rings of objects (cycles) that survive a collection, then drop
    // them.  Pure RC cannot reclaim them; the SATB backup trace must.
    // Each ring is built through root slots so that a collection in the
    // middle of construction cannot invalidate the in-progress references.
    let mut rings = Vec::new();
    for _ in 0..100 {
        let first_root = {
            let first = m.alloc(1, 62, 7);
            m.push_root(first)
        };
        let first = m.root(first_root);
        let prev_root = m.push_root(first);
        for _ in 0..20 {
            let node = m.alloc(1, 62, 7);
            let prev = m.root(prev_root);
            m.write_ref(prev, 0, node);
            m.set_root(prev_root, node);
        }
        let prev = m.root(prev_root);
        let first = m.root(first_root);
        m.write_ref(prev, 0, first); // close the cycle
        m.pop_root(); // prev_root
        rings.push(first_root);
    }
    m.request_gc();
    m.request_gc();
    // Drop all the rings: roughly 2 MB of unreachable cyclic garbage that
    // reference counting alone cannot recover.
    for slot in rings {
        m.set_root(slot, ObjectReference::NULL);
    }
    // Keep allocating so collections (and eventually an SATB cycle) happen.
    for i in 0..400_000u64 {
        let o = m.alloc(1, 6, 0);
        m.write_data(o, 0, i);
    }
    // Force a few more epochs so a started trace can finish and reclaim.
    for _ in 0..6 {
        m.request_gc();
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let stats = rt.stats().snapshot();
    assert!(stats.satb_pause_fraction() > 0.0, "at least one pause started an SATB trace");
    assert!(stats.counter(WorkCounter::SatbDeaths) > 0, "cyclic garbage was reclaimed by the backup trace");
    drop(m);
    rt.shutdown();
}

#[test]
fn stop_the_world_ablation_still_collects() {
    let config = LxrConfig::for_heap(12 << 20).stop_the_world();
    let rt = runtime_with(12, config);
    let mut m = rt.bind_mutator();
    let head = build_list(&mut m, 500);
    let root = m.push_root(head);
    for i in 0..150_000u64 {
        let o = m.alloc(1, 6, 0);
        m.write_data(o, 0, i);
    }
    let head = m.root(root);
    let (_, count) = sum_list(&mut m, head);
    assert_eq!(count, 500);
    assert!(rt.stats().snapshot().pause_count() > 0);
    drop(m);
    rt.shutdown();
}

#[test]
fn random_graph_mutation_preserves_reachable_data() {
    // A random object graph with continuous mutation: every reachable
    // object's payload must always equal the value recorded in a Rust-side
    // mirror.
    let rt = runtime(12);
    let mut m = rt.bind_mutator();
    let mut rng = StdRng::seed_from_u64(42);
    const NODES: usize = 400;
    let table_root = {
        let table = m.alloc(NODES as u16, 0, 9);
        m.push_root(table)
    };
    let mut mirror: Vec<Option<u64>> = vec![None; NODES];
    for step in 0..120_000u64 {
        let slot = rng.gen_range(0..NODES);
        if rng.gen_bool(0.3) {
            // Drop the entry.
            let table = m.root(table_root);
            m.write_ref(table, slot, ObjectReference::NULL);
            mirror[slot] = None;
        } else {
            let value = step;
            let node = m.alloc(2, 2, 3);
            let table = m.root(table_root);
            m.write_data(node, 0, value);
            // Link to a random other entry to create sharing and cycles.
            let other = rng.gen_range(0..NODES);
            let other_ref = m.read_ref(table, other);
            m.write_ref(node, 0, other_ref);
            m.write_ref(table, slot, node);
            mirror[slot] = Some(value);
        }
        // Some transient garbage to force regular collections.
        let junk = m.alloc(1, 14, 0);
        m.write_data(junk, 0, step);
        if step % 10_000 == 0 {
            let table = m.root(table_root);
            for (i, expect) in mirror.iter().enumerate() {
                let node = m.read_ref(table, i);
                match expect {
                    None => assert!(node.is_null(), "slot {i} should be empty at step {step}"),
                    Some(v) => {
                        assert!(!node.is_null(), "slot {i} should be live at step {step}");
                        assert_eq!(m.read_data(node, 0), *v, "slot {i} corrupted at step {step}");
                    }
                }
            }
        }
    }
    assert!(rt.stats().snapshot().pause_count() > 0);
    drop(m);
    rt.shutdown();
}

#[test]
fn multiple_mutator_threads_collect_concurrently() {
    let rt = runtime(32);
    let threads: Vec<_> = (0..4)
        .map(|t| {
            let rt = rt.clone();
            std::thread::spawn(move || {
                let mut m = rt.bind_mutator();
                let keeper = m.alloc(4, 0, t);
                let root = m.push_root(keeper);
                let mut expected = [0u64; 4];
                let mut rng = StdRng::seed_from_u64(t as u64);
                for i in 0..80_000u64 {
                    let o = m.alloc(1, 3, 0);
                    m.write_data(o, 0, i);
                    if i % 1000 == 0 {
                        let slot = rng.gen_range(0..4);
                        let keeper = m.root(root);
                        let survivor = m.alloc(0, 1, 1);
                        m.write_data(survivor, 0, i);
                        m.write_ref(keeper, slot, survivor);
                        expected[slot] = i;
                    }
                }
                let keeper = m.root(root);
                for (slot, value) in expected.iter().enumerate() {
                    if *value != 0 {
                        let survivor = m.read_ref(keeper, slot);
                        assert!(!survivor.is_null());
                        assert_eq!(m.read_data(survivor, 0), *value);
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert!(rt.stats().snapshot().pause_count() > 0);
    rt.shutdown();
}

#[test]
fn large_objects_are_allocated_and_reclaimed() {
    let rt = runtime(24);
    let mut m = rt.bind_mutator();
    // 3000-word payloads exceed the 16 KB large-object threshold.
    let keeper_root = {
        let keeper = m.alloc(1, 0, 0);
        m.push_root(keeper)
    };
    for i in 0..200u64 {
        let big = m.alloc(0, 3000, 5);
        m.write_data(big, 0, i);
        if i == 100 {
            let keeper = m.root(keeper_root);
            m.write_ref(keeper, 0, big);
        }
    }
    m.request_gc();
    m.request_gc();
    let stats = rt.stats().snapshot();
    assert!(
        stats.counter(WorkCounter::LargeObjectsFreed) > 100,
        "dead large objects were reclaimed (got {})",
        stats.counter(WorkCounter::LargeObjectsFreed)
    );
    let keeper = m.root(keeper_root);
    let survivor = m.read_ref(keeper, 0);
    assert_eq!(m.read_data(survivor, 0), 100);
    drop(m);
    rt.shutdown();
}

#[test]
fn allocation_accounting_is_exact_at_fold_points() {
    // Allocation counts live in the mutator and the bump region and are
    // folded into the shared counters at safepoints and on drop.  Two
    // threads allocate a known mix that takes every accounting path: five
    // 1000-word objects in a row (four fill a fresh 4096-word block, the
    // fifth finds 96 words left and overflows), a 3000-word object for the
    // large object space, then small objects on the bump pointer.  Nothing
    // is rooted, so no collection copies anything and the heap's volume is
    // the mutators' alone.
    const ROUNDS: u64 = 5;
    const SMALL_PER_ROUND: u64 = 1_000;
    let rt = runtime(64);
    let threads: Vec<_> = (0..2)
        .map(|_| {
            let rt = rt.clone();
            std::thread::spawn(move || {
                let mut m = rt.bind_mutator();
                for _ in 0..ROUNDS {
                    for _ in 0..5 {
                        m.alloc(0, 999, 2);
                    }
                    m.alloc(0, 2999, 3);
                    for _ in 0..SMALL_PER_ROUND {
                        m.alloc(1, 2, 1);
                    }
                }
                m.total_allocations()
            })
        })
        .collect();
    let objects = 2 * ROUNDS * (5 + 1 + SMALL_PER_ROUND);
    let words = 2 * ROUNDS * (5 * 1000 + 3000 + SMALL_PER_ROUND * 4);
    let counted_by_handles: u64 = threads.into_iter().map(|t| t.join().unwrap()).sum();
    assert_eq!(counted_by_handles, objects);
    let check = |when: &str| {
        assert_eq!(rt.stats().get(WorkCounter::ObjectsAllocated), objects, "{when}");
        assert_eq!(rt.stats().get(WorkCounter::WordsAllocated), words, "{when}");
        assert_eq!(rt.space().allocated_words() as u64, words, "{when}");
    };
    check("after the mutators dropped");
    rt.request_gc_and_wait();
    check("after a collection");
    rt.shutdown();
}

#[test]
fn allocation_counts_stay_private_until_a_fold() {
    // The design pin: between fold points allocation writes nothing shared.
    // Fewer objects than the poll interval (32 here), all inside the first
    // block, leave both shared counters where they were.
    let rt = runtime(16);
    let mut m = rt.bind_mutator();
    for _ in 0..20 {
        m.alloc(1, 2, 1);
    }
    assert_eq!(m.total_allocations(), 20);
    assert_eq!(rt.stats().get(WorkCounter::ObjectsAllocated), 0);
    assert_eq!(rt.stats().get(WorkCounter::WordsAllocated), 0);
    assert_eq!(rt.space().allocated_words(), 0);
    m.request_gc();
    assert_eq!(rt.stats().get(WorkCounter::ObjectsAllocated), 20);
    assert_eq!(rt.stats().get(WorkCounter::WordsAllocated), 80);
    assert_eq!(rt.space().allocated_words(), 80);
    drop(m);
    rt.shutdown();
}

#[test]
fn two_allocating_mutators_are_collected_ahead_of_exhaustion() {
    // The pacing poll reads an allocation volume that trails each live
    // allocator by up to one region.  With two threads churning garbage
    // through a heap six times over, the predictor must still start every
    // collection before either allocator runs dry.
    let rt = runtime(16);
    let threads: Vec<_> = (0..2)
        .map(|_| {
            let rt = rt.clone();
            std::thread::spawn(move || {
                let mut m = rt.bind_mutator();
                for i in 0..500_000u64 {
                    let o = m.alloc(1, 10, 1);
                    m.write_data(o, 0, i);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert!(rt.stats().get(WorkCounter::TriggerPredictive) > 0, "{}", rt.stats().work_summary());
    assert_eq!(rt.stats().get(WorkCounter::TriggerExhaustion), 0, "{}", rt.stats().work_summary());
    rt.shutdown();
}

#[test]
fn pause_hands_rc_work_between_workers_in_packets() {
    // 10 000 mature objects each get one reference field overwritten with
    // a fresh young leaf.  The pause's increment phase must move that work
    // between its workers in packets: scheduling each logged slot and each
    // recursive increment as its own bucket item would cost at least one
    // pop or steal per slot.
    const N: usize = 10_000;
    let (rt, state) = crewless_runtime(64);
    let mut m = rt.bind_mutator();
    let head = m.alloc(2, 0, 1);
    let root = m.push_root(head);
    let mut tail = head;
    for _ in 1..N {
        let node = m.alloc(2, 0, 1);
        m.write_ref(tail, 0, node);
        tail = node;
    }
    m.request_gc();
    m.request_gc();
    assert_eq!(rt.stats().snapshot().pause_count(), 2, "only the requested pauses ran");
    let mut node = m.root(root);
    for i in 0..N as u64 {
        let leaf = m.alloc(0, 1, 2);
        m.write_data(leaf, 0, i);
        m.write_ref(node, 1, leaf);
        node = m.read_ref(node, 0);
    }
    let items =
        |rt: &Runtime| rt.stats().get(WorkCounter::SchedPops) + rt.stats().get(WorkCounter::SchedSteals);
    let before = items(&rt);
    m.request_gc();
    let scheduled = items(&rt) - before;
    assert_eq!(rt.stats().snapshot().pause_count(), 3, "only the requested pauses ran");
    assert!(scheduled <= (N / 16) as u64, "{scheduled} bucket items for {N} logged slots");
    let report = rt.verify_now();
    assert!(report.ok(), "{report}");
    let mut node = m.root(root);
    for i in 0..N as u64 {
        let leaf = m.read_ref(node, 1);
        assert_eq!(m.read_data(leaf, 0), i);
        assert_eq!(state.rc.count(leaf), 1, "leaf {i} is held by exactly one field");
        node = m.read_ref(node, 0);
    }
    drop(m);
    rt.shutdown();
}

#[test]
fn a_wide_young_survivor_splits_its_increments_across_workers() {
    // One young object with 1 024 reference fields, each to a young leaf,
    // stored into a logged mature field: its first retention pushes 1 024
    // recursive increments onto one worker's local stack, which must split
    // half off (at 512) to its siblings without losing or doubling any.
    const FIELDS: u16 = 1024;
    let (rt, state) = crewless_runtime(16);
    let mut m = rt.bind_mutator();
    let holder = m.alloc(1, 0, 1);
    let root = m.push_root(holder);
    m.request_gc();
    m.request_gc();
    // Garbage that fills the lines the pauses left free, so the structure
    // below lands in fresh (all-young, hence evacuated) blocks.
    for _ in 0..4096 {
        m.alloc(0, 15, 0);
    }
    let wide = m.alloc(FIELDS, 0, 3);
    for i in 0..FIELDS as usize {
        let leaf = m.alloc(0, 1, 4);
        m.write_data(leaf, 0, i as u64);
        m.write_ref(wide, i, leaf);
    }
    let holder = m.root(root);
    m.write_ref(holder, 0, wide);
    let survivors = rt.stats().get(WorkCounter::YoungSurvivors);
    let copied = rt.stats().get(WorkCounter::YoungObjectsCopied);
    m.request_gc();
    assert_eq!(rt.stats().snapshot().pause_count(), 3, "only the requested pauses ran");
    assert_eq!(rt.stats().get(WorkCounter::YoungSurvivors) - survivors, FIELDS as u64 + 1);
    assert_eq!(
        rt.stats().get(WorkCounter::YoungObjectsCopied) - copied,
        FIELDS as u64 + 1,
        "the wide object and every leaf were evacuated"
    );
    let report = rt.verify_now();
    assert!(report.ok(), "{report}");
    let holder = m.root(root);
    let wide = m.read_ref(holder, 0);
    assert_eq!(state.rc.count(wide), 1);
    for i in 0..FIELDS as usize {
        let leaf = m.read_ref(wide, i);
        assert_eq!(m.read_data(leaf, 0), i as u64);
        assert_eq!(state.rc.count(leaf), 1, "leaf {i} is held by exactly one field");
    }
    drop(m);
    rt.shutdown();
}
