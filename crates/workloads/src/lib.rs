//! # lxr-workloads
//!
//! Synthetic workloads reproducing the *characteristics* of the paper's
//! 17 DaCapo Chopin benchmarks (Table 3) — allocation volume and rate, mean
//! object size, large-object fraction, nursery survival rate, pointer churn
//! and structural stress (avrora's long live list) — plus the four
//! latency-critical, request-driven workloads (cassandra, h2, lusearch,
//! tomcat) evaluated with DaCapo's metered-latency methodology (§4): each
//! request has a scheduled arrival time, and its reported latency includes
//! any queuing delay caused by collector interruptions.
//!
//! ```no_run
//! use lxr_workloads::{benchmark, run_workload, RunOptions};
//! let spec = benchmark("lusearch").unwrap();
//! let result = run_workload(&spec, "lxr", &RunOptions::default().with_heap_factor(1.3));
//! println!("99.9% latency: {:?}", result.latency_percentile(99.9));
//! ```

pub mod engine;
pub mod histogram;
pub mod serve;
pub mod spec;

pub use engine::{run_workload, RunOptions, WorkloadResult};
pub use histogram::LatencyHistogram;
pub use serve::{run_serve, serve_spec, ArrivalSchedule, ServeOptions, ServeResult, ServeSpec, SessionTable};
pub use spec::{
    benchmark, extended_suite, latency_suite, social_graph_churn, suite, traffic_spike, BenchmarkSpec,
    LatencySpec,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_throughput_run_completes_and_collects() {
        let spec = benchmark("fop").unwrap();
        let result = run_workload(&spec, "lxr", &RunOptions::default().with_scale(0.25));
        assert!(!result.skipped);
        assert!(result.allocated_bytes > 1 << 20);
        assert!(result.gc.pause_count() > 0, "a 6 MB-alloc run in a 10 MB heap must collect");
    }

    #[test]
    fn quick_latency_run_reports_percentiles() {
        let spec = benchmark("lusearch").unwrap();
        let result =
            run_workload(&spec, "lxr", &RunOptions::default().with_heap_factor(1.3).with_scale(0.05));
        assert!(!result.skipped);
        assert!(result.qps.unwrap() > 0.0);
        assert!(!result.latencies.is_empty());
        assert!(result.latency_percentile(50.0).unwrap() <= result.latency_percentile(99.9).unwrap());
    }

    #[test]
    fn zgc_is_skipped_below_its_minimum_heap() {
        let spec = benchmark("lusearch").unwrap();
        let result =
            run_workload(&spec, "zgc", &RunOptions::default().with_heap_factor(1.3).with_scale(0.05));
        assert!(result.skipped, "ZGC cannot run lusearch in a 1.3x heap");
    }

    #[test]
    fn social_graph_churn_is_reclaimed_by_the_backup_trace() {
        // Mostly-cyclic mature garbage: without the trace reclaiming
        // retired hub neighbourhoods, the run would exhaust the heap.  The
        // eager-trigger LXR variant makes the trace lifecycle deterministic
        // (a single-core CI host gives the crew little concurrent CPU; the
        // pause catch-up slice guarantees convergence regardless).
        let spec = benchmark("socialgraph").unwrap();
        let result = run_workload(
            &spec,
            "lxr-eager",
            &RunOptions::default()
                .with_heap_factor(2.5)
                .with_scale(0.5)
                .with_final_gcs(4)
                .with_runtime(|r| r.with_concurrent_workers(2)),
        );
        assert!(!result.skipped);
        assert!(result.allocated_bytes > 24 << 20, "the workload churned through its allocation budget");
        assert!(result.gc.pause_count() > 0);
        assert!(
            result.gc.counter(lxr_runtime::WorkCounter::SatbDeaths) > 1000,
            "cyclic hub neighbourhoods were reclaimed by the backup trace (got {})",
            result.gc.counter(lxr_runtime::WorkCounter::SatbDeaths)
        );
    }

    #[test]
    fn avrora_linked_list_survives_under_every_collector_family() {
        let spec = benchmark("avrora").unwrap();
        // The variant list is registry-exported, so a collector added to
        // the registry cannot silently miss this suite.
        for collector in lxr_baselines::VARIANTS {
            let result = run_workload(&spec, collector, &RunOptions::default().with_scale(0.2));
            assert!(!result.skipped, "{collector} should run avrora");
            assert!(result.allocated_bytes > 0);
        }
    }

    #[test]
    fn sticky_lxr_survives_deep_lists_under_the_full_heap_verifier() {
        // avrora's long live list is the deep-structure stress; running it
        // under `lxr-sticky` with the sanity verifier after every GC pins
        // that carried marks never confuse the heap audit.
        let spec = benchmark("avrora").unwrap();
        let result = run_workload(
            &spec,
            "lxr-sticky",
            &RunOptions::default().with_scale(0.2).with_runtime(|r| r.with_verify_every_n_gcs(1)),
        );
        assert!(!result.skipped);
        assert!(result.allocated_bytes > 0);
    }

    #[test]
    fn elastic_heap_shrinks_under_load_for_every_baseline_family() {
        // Shrink-under-load regression for the non-LXR collectors: the
        // elastic grow/shrink policy lives in the pause epilogue shared by
        // every plan, so each baseline family — stop-the-world mark-region
        // (parallel), generational (g1), concurrent copying (shenandoah) —
        // must breathe on the traffic spike, under the every-GC verifier.
        let spec = traffic_spike();
        for collector in ["parallel", "g1", "shenandoah"] {
            let result = run_workload(
                &spec,
                collector,
                &RunOptions::default()
                    .with_heap_factor(3.0)
                    .with_scale(0.2)
                    .with_min_heap_factor(1.0)
                    .with_runtime(|r| r.with_verify_every_n_gcs(1)),
            );
            assert!(!result.skipped, "{collector} should run the traffic spike");
            assert!(result.failure.is_none(), "{collector}: {:?}", result.failure);
            assert!(result.gc.pause_count() > 0, "{collector} must collect during the bursts");
            let released = result.gc.counter(lxr_runtime::WorkCounter::ChunksReleased);
            assert!(released > 0, "{collector} never released a chunk after the bursts");
        }
    }

    #[test]
    fn chunk_release_racing_allocation_degrades_cleanly_under_failpoints() {
        // The pinned chunk-churn schedule from the harness chaos suite:
        // delays inside the chunk-map transition and yields inside chunk
        // release and the predictive trigger widen the window in which a
        // pause-epilogue release races a growing allocation.  The loser of
        // that race must degrade to a regrow — never an integrity failure —
        // and the every-GC verifier audits each heap along the way.  The
        // schedule is inert without `--features failpoints`; the test then
        // still pins the guard plumbing and the clean elastic run.
        let _guard = lxr_failpoints::ScheduleGuard::install(
            "seed=7;heap.chunk-map=delay:50us@every=2;heap.chunk-release=yield@p=0.5;\
             trigger.predictive=yield@p=0.25",
        )
        .expect("the pinned chunk-churn schedule parses");
        let spec = traffic_spike();
        let result = run_workload(
            &spec,
            "lxr",
            &RunOptions::default()
                .with_heap_factor(3.0)
                .with_scale(0.2)
                .with_min_heap_factor(1.0)
                .with_runtime(|r| r.with_verify_every_n_gcs(1)),
        );
        assert!(!result.skipped);
        assert!(result.failure.is_none(), "chunk churn must degrade cleanly: {:?}", result.failure);
        assert!(result.gc.counter(lxr_runtime::WorkCounter::ChunksMapped) > 0, "the heap grew");
        assert!(result.gc.counter(lxr_runtime::WorkCounter::ChunksReleased) > 0, "the heap shrank");
    }

    #[test]
    fn sticky_lxr_reclaims_social_graph_churn() {
        // The sticky analogue of the backup-trace test above: cyclic hub
        // neighbourhoods retire into mature space, and the escalation
        // policy (every-N backstop plus the yield heuristic) must keep
        // scheduling the full traces that reclaim them — all under the
        // full-heap verifier.  The default (non-eager) triggers start few
        // traces mid-run, so the forced end-of-run collections are what
        // deterministically drive whole trace cycles — start, converge via
        // the pause catch-up slice, reclaim — over the accumulated garbage.
        // Cyclic garbage marked by the first full trace floats through the
        // sticky cycles by design, so enough cycles must run to cross the
        // every-N backstop into the *second* full trace, which reclaims it.
        let spec = benchmark("socialgraph").unwrap();
        let result = run_workload(
            &spec,
            "lxr-sticky",
            &RunOptions::default()
                .with_heap_factor(2.5)
                .with_scale(0.5)
                .with_final_gcs(48)
                .with_runtime(|r| r.with_concurrent_workers(2).with_verify_every_n_gcs(1)),
        );
        assert!(!result.skipped);
        assert!(result.allocated_bytes > 24 << 20, "the workload churned through its allocation budget");
        assert!(result.gc.pause_count() > 0);
        let sticky = result.gc.counter(lxr_runtime::WorkCounter::StickyTraces);
        let full = result.gc.counter(lxr_runtime::WorkCounter::FullTraces);
        assert!(full >= 2, "the every-N backstop must escalate (sticky={sticky} full={full})");
        assert!(sticky > full, "most traces should run sticky (sticky={sticky} full={full})");
        assert!(
            result.gc.counter(lxr_runtime::WorkCounter::SatbDeaths) > 1000,
            "cyclic hub neighbourhoods were reclaimed (sticky={sticky} full={full}, got {})",
            result.gc.counter(lxr_runtime::WorkCounter::SatbDeaths)
        );
    }
}
