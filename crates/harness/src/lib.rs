//! # lxr-harness
//!
//! The experiment harness: regenerates every table and figure of the LXR
//! paper's evaluation (§5) over the simulated substrate.  Each experiment
//! runs the relevant workloads against the relevant collectors and prints a
//! table with the same rows/series the paper reports; `EXPERIMENTS.md` at
//! the repository root records the paper-reported values next to measured
//! ones.
//!
//! | Function | Paper artefact |
//! |---|---|
//! | [`experiments::table1_lusearch`] | Table 1 (lusearch at 1.3×) |
//! | [`experiments::table3_characteristics`] | Table 3 (benchmark characteristics) |
//! | [`experiments::table4_latency`] | Table 4 + Figure 5 (request latency) |
//! | [`experiments::table5_heap_sensitivity`] | Table 5 (heap-size sensitivity) |
//! | [`experiments::table6_throughput`] | Table 6 (throughput at 2×) |
//! | [`experiments::table7_breakdown`] | Table 7 (LXR breakdown & ablations) |
//! | [`experiments::fig7_lbo`] | Figure 7 (lower-bound overhead) |
//! | [`experiments::barrier_overhead`] | §5.3 (field-barrier mutator overhead) |
//! | [`experiments::sensitivity`] | §5.4 (block size, RC bits, buffer entries) |
//!
//! Every experiment takes an [`ExperimentOptions`] whose `scale` shrinks the
//! workloads for quick runs (tests use small scales; the CLI defaults to a
//! fuller run).

pub mod benchsnap;
pub mod experiments;
pub mod report;

pub use experiments::ExperimentOptions;
pub use report::Table;
