//! Quickstart: create an LXR-managed heap, allocate an object graph, watch
//! collections happen, and read the collector's statistics.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use lxr::core::LxrPlan;
use lxr::runtime::{Runtime, RuntimeOptions, WorkCounter};

fn main() {
    // A 32 MB heap managed by LXR with 4 parallel GC workers.
    let runtime =
        Runtime::new::<LxrPlan>(RuntimeOptions::default().with_heap_size(32 << 20).with_gc_workers(4));
    let mut mutator = runtime.bind_mutator();

    // Build a binary tree that survives collections.  Long-lived references
    // are held in root slots (the shadow stack), exactly like stack
    // variables in a managed runtime.
    let root = {
        let tree = mutator.alloc(2, 1, 0);
        mutator.write_data(tree, 0, 1);
        mutator.push_root(tree)
    };
    for level in 0..12u64 {
        // Rebuild the left spine each round, creating garbage as we go.
        let parent = mutator.root(root);
        let child = mutator.alloc(2, 1, 0);
        mutator.write_data(child, 0, level);
        mutator.write_ref(parent, 0, child);
    }

    // Churn: allocate ~100 MB of short-lived objects in a 32 MB heap.  The
    // implicitly dead optimisation reclaims almost all of it without any
    // tracing or copying.
    for i in 0..1_000_000u64 {
        let temp = mutator.alloc(1, 10, 1);
        mutator.write_data(temp, 0, i);
    }

    // The tree is still intact.
    let tree = mutator.root(root);
    assert_eq!(mutator.read_data(tree, 0), 1);
    // Allocation counts are kept in the mutator and folded into the shared
    // statistics at safepoints and on drop, so read them after the drop.
    drop(mutator);

    let stats = runtime.stats().snapshot();
    println!("LXR quickstart");
    println!("  RC pauses:              {}", stats.pause_count());
    println!("  median pause:           {:?}", stats.pause_percentile(50.0));
    println!("  95th percentile pause:  {:?}", stats.pause_percentile(95.0));
    println!("  objects allocated:      {}", stats.counter(WorkCounter::ObjectsAllocated));
    println!("  young survivors:        {}", stats.counter(WorkCounter::YoungSurvivors));
    println!("  young blocks freed:     {}", stats.counter(WorkCounter::YoungBlocksFreed));
    println!("  young objects copied:   {}", stats.counter(WorkCounter::YoungObjectsCopied));
    println!("  pauses starting SATB:   {:.0}%", stats.satb_pause_fraction() * 100.0);
    runtime.shutdown();
}
