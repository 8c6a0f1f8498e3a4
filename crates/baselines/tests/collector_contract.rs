//! A behavioural contract every collector in the workspace must satisfy:
//! reachable data survives collections unchanged, unreachable data is
//! reclaimed (the heap does not run out under churn), and multi-threaded
//! mutation is safe.  The same scenarios run against LXR and every baseline.

use lxr_baselines::{minimum_heap_for, plan_registry, ALL_COLLECTORS};
use lxr_object::ObjectReference;
use lxr_runtime::{Runtime, RuntimeOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn runtime_for(name: &str, heap_mb: usize) -> Runtime {
    let heap_bytes = (heap_mb << 20).max(minimum_heap_for(name).unwrap_or(0));
    let options =
        RuntimeOptions::default().with_heap_size(heap_bytes).with_gc_workers(2).with_poll_interval(32);
    Runtime::with_factory(options, plan_registry(name))
}

fn churn_with_survivors(name: &str) {
    let rt = runtime_for(name, 16);
    let mut m = rt.bind_mutator();
    let keeper_root = {
        let keeper = m.alloc(16, 0, 0);
        m.push_root(keeper)
    };
    let mut expected = [None::<u64>; 16];
    // ~25 MB of transient allocation: more than the 16 MB heap, so a
    // collector that reclaims nothing would abort with out-of-memory.
    for i in 0..300_000u64 {
        let o = m.alloc(1, 6, 0);
        m.write_data(o, 0, i);
        if i % 5_000 == 0 {
            let slot = (i / 5_000) as usize % 16;
            let keeper = m.root(keeper_root);
            let survivor = m.alloc(0, 2, 1);
            m.write_data(survivor, 0, i);
            m.write_ref(keeper, slot, survivor);
            expected[slot] = Some(i);
        }
    }
    let keeper = m.root(keeper_root);
    for (slot, want) in expected.iter().enumerate() {
        if let Some(v) = want {
            let survivor = m.read_ref(keeper, slot);
            assert!(!survivor.is_null(), "{name}: survivor {slot} lost");
            assert_eq!(m.read_data(survivor, 0), *v, "{name}: survivor {slot} corrupted");
        }
    }
    // Collectors whose heap is larger than the allocation volume (e.g. the
    // ZGC variant's enforced minimum heap) may legitimately never collect.
    if rt.space().config().heap_bytes < 24 << 20 {
        assert!(rt.stats().snapshot().pause_count() > 0, "{name}: no collections ran");
    }
    drop(m);
    rt.shutdown();
}

fn linked_list_integrity(name: &str) {
    let rt = runtime_for(name, 16);
    let mut m = rt.bind_mutator();
    const N: u64 = 2_000;
    let head_root = {
        let head = m.alloc(1, 1, 1);
        m.write_data(head, 0, 0);
        m.push_root(head)
    };
    let tail_root = {
        let head = m.root(head_root);
        m.push_root(head)
    };
    for i in 1..N {
        let node = m.alloc(1, 1, 1);
        m.write_data(node, 0, i);
        let tail = m.root(tail_root);
        m.write_ref(tail, 0, node);
        m.set_root(tail_root, node);
    }
    for _ in 0..3 {
        m.request_gc();
    }
    // Walk the list: every payload and the total count must be intact.
    let mut cursor = m.root(head_root);
    let mut count = 0u64;
    let mut sum = 0u64;
    while !cursor.is_null() {
        sum += m.read_data(cursor, 0);
        count += 1;
        cursor = m.read_ref(cursor, 0);
    }
    assert_eq!(count, N, "{name}: list length changed");
    assert_eq!(sum, (0..N).sum::<u64>(), "{name}: list payloads corrupted");
    drop(m);
    rt.shutdown();
}

fn random_graph_integrity(name: &str) {
    let rt = runtime_for(name, 16);
    let mut m = rt.bind_mutator();
    let mut rng = StdRng::seed_from_u64(7);
    const NODES: usize = 200;
    let table_root = {
        let table = m.alloc(NODES as u16, 0, 9);
        m.push_root(table)
    };
    let mut mirror: Vec<Option<u64>> = vec![None; NODES];
    for step in 0..40_000u64 {
        let slot = rng.gen_range(0..NODES);
        let table = m.root(table_root);
        if rng.gen_bool(0.25) {
            m.write_ref(table, slot, ObjectReference::NULL);
            mirror[slot] = None;
        } else {
            let node = m.alloc(2, 2, 3);
            let table = m.root(table_root);
            m.write_data(node, 0, step);
            let other = rng.gen_range(0..NODES);
            let other_ref = m.read_ref(table, other);
            m.write_ref(node, 0, other_ref);
            m.write_ref(table, slot, node);
            mirror[slot] = Some(step);
        }
        let junk = m.alloc(1, 10, 0);
        m.write_data(junk, 0, step);
        if step % 8_000 == 0 {
            let table = m.root(table_root);
            for (i, expect) in mirror.iter().enumerate() {
                let node = m.read_ref(table, i);
                match expect {
                    None => assert!(node.is_null(), "{name}: slot {i} should be null at {step}"),
                    Some(v) => {
                        assert!(!node.is_null(), "{name}: slot {i} lost at {step}");
                        assert_eq!(m.read_data(node, 0), *v, "{name}: slot {i} corrupted at {step}");
                    }
                }
            }
        }
    }
    drop(m);
    rt.shutdown();
}

macro_rules! contract_tests {
    ($($name:ident => $collector:expr),* $(,)?) => {
        $(
            mod $name {
                #[test]
                fn churn_with_survivors() {
                    super::churn_with_survivors($collector);
                }
                #[test]
                fn linked_list_integrity() {
                    super::linked_list_integrity($collector);
                }
                #[test]
                fn random_graph_integrity() {
                    super::random_graph_integrity($collector);
                }
            }
        )*
    };
}

contract_tests! {
    lxr => "lxr",
    lxr_nosatb => "lxr-nosatb",
    lxr_nold => "lxr-nold",
    lxr_stw => "lxr-stw",
    lxr_sticky => "lxr-sticky",
    g1 => "g1",
    shenandoah => "shenandoah",
    zgc => "zgc",
    serial => "serial",
    parallel => "parallel",
    immix => "immix",
    immix_with_barrier => "immix+barrier",
    semispace => "semispace",
}

#[test]
fn registry_knows_every_collector() {
    assert_eq!(ALL_COLLECTORS.len(), 10);
    for name in ALL_COLLECTORS {
        // Constructing the factory must not panic.
        let _ = plan_registry(name);
    }
}
