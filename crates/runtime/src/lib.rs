//! # lxr-runtime
//!
//! MMTk-like runtime scaffolding for the `lxr-rs` workspace: the glue
//! between application (mutator) threads, a collector *plan*, and the heap
//! substrate of [`lxr_heap`].
//!
//! The runtime provides exactly the services the paper's implementation gets
//! from MMTk and OpenJDK:
//!
//! * a [`Plan`] interface that a collector implements
//!   (allocation policy, barriers, stop-the-world collection, concurrent
//!   work, pacing triggers),
//! * [`Mutator`] handles through which application threads
//!   allocate, access fields through the plan's barriers, and maintain the
//!   shadow-stack roots the collector scans at pauses,
//! * a stop-the-world [`Rendezvous`] (safepoints,
//!   parking, resuming),
//! * a persistent parallel [`WorkerPool`] used by every
//!   collection phase, plus one concurrent collector thread,
//! * [`GcStats`]: pause records, collector busy time (the
//!   "cycles" proxy of the LBO analysis) and work counters.
//!
//! The simplest complete example uses the built-in no-collection plan:
//!
//! ```
//! use lxr_runtime::{Runtime, RuntimeOptions, NoGcPlan};
//!
//! let rt = Runtime::new::<NoGcPlan>(RuntimeOptions::default().with_heap_size(8 << 20));
//! let mut mutator = rt.bind_mutator();
//! let node = mutator.alloc(1, 1, 0);       // 1 reference field, 1 data field
//! let leaf = mutator.alloc(0, 1, 0);
//! mutator.write_ref(node, 0, leaf);         // barriered reference store
//! mutator.push_root(node);                  // make it reachable from a root
//! assert_eq!(mutator.read_ref(node, 0), leaf);
//! rt.shutdown();
//! ```

pub mod mutator;
pub mod nogc;
pub mod options;
pub mod pausegate;
pub mod plan;
pub mod rendezvous;
pub mod runtime;
pub mod stats;
pub mod verify;
pub mod watchdog;
pub mod workers;

pub use mutator::{Mutator, MutatorShared, RootSlot};
pub use nogc::NoGcPlan;
pub use options::RuntimeOptions;
pub use pausegate::{Deferral, PauseGate};
pub use plan::{
    AllocFailure, Collection, ConcurrentWork, Plan, PlanContext, PlanFactory, PlanMutator, RootSet,
    YieldCheck,
};
pub use rendezvous::Rendezvous;
pub use runtime::{PauseAttrs, Runtime, RuntimeShared};
pub use stats::{GcReason, GcStats, PauseRecord, StatsSnapshot, WorkCounter};
pub use verify::VerifyReport;
pub use watchdog::{run_guarded, Watchdog};
pub use workers::{BucketGraph, BucketHandle, SchedTotals, WorkerPool};
