//! # lxr-barrier
//!
//! Read and write barriers (§2.2, §3.4 of the LXR paper).
//!
//! LXR relies on a single, low-overhead **field-logging write barrier** that
//! simultaneously serves three purposes:
//!
//! 1. coalescing reference counting — the overwritten referent of the first
//!    write to a field in an epoch is enqueued for a decrement, and the
//!    field's address is enqueued so its final referent can receive an
//!    increment at the next pause;
//! 2. SATB concurrent tracing — the same overwritten referents form the
//!    snapshot-at-the-beginning gray set;
//! 3. remembered-set maintenance — new references into an evacuation set are
//!    discovered when the modified-field buffer is processed.
//!
//! The crate provides that barrier ([`FieldLoggingBarrier`]) and the
//! [`BarrierStats`] counters every barrier records its activity in, which
//! the harness uses to report barrier take-rates (Table 7) and barrier
//! overheads (§5.3).  The concurrent-copying baselines' load value barrier
//! is inline in their mutator's `read_ref` (`lxr-baselines`).

pub mod field_log;
pub mod sink;
pub mod stats;

pub use field_log::{DecChunkHook, FieldLogState, FieldLogTable, FieldLoggingBarrier};
pub use sink::BarrierSink;
pub use stats::BarrierStats;
