//! LXR configuration and ablation knobs.

/// Configuration of the LXR collector.
///
/// The defaults correspond to the paper's default configuration (§4): a
/// 2-bit reference count (configured on the heap), a survival threshold, no
/// increment threshold, a 5% mature wastage threshold, and a single
/// evacuation set.  The concurrency switches implement the ablations of
/// Table 7: `-SATB` (trace inside the pause), `-LD` (decrements inside the
/// pause) and `STW` (both).
#[derive(Debug, Clone)]
pub struct LxrConfig {
    /// Trigger an RC pause once the *predicted* volume of surviving young
    /// allocation since the last epoch exceeds this many bytes.
    pub survival_threshold_bytes: usize,
    /// Trigger an RC pause once this many modified-field (increment) entries
    /// are pending, if set (the paper's default leaves this off).
    pub increment_threshold: Option<usize>,
    /// Trigger an SATB trace when predicted wastage (uncollected dead mature
    /// objects plus fragmentation) exceeds this fraction of the heap.
    pub mature_wastage_threshold: f64,
    /// Trigger an SATB trace when an RC pause leaves fewer than this
    /// fraction of the heap's blocks clean.
    pub clean_block_trigger_fraction: f64,
    /// Blocks whose live occupancy (estimated from the RC table) is below
    /// this fraction are candidates for an evacuation set (§3.3.2 uses 50%).
    pub evac_occupancy_threshold: f64,
    /// Maximum number of blocks placed in an evacuation set per SATB cycle.
    pub max_evac_blocks: usize,
    /// Copy young survivors out of all-young blocks during RC pauses
    /// (§3.3.2 "young evacuation").
    pub young_evacuation: bool,
    /// Build remembered sets during SATB and evacuate fragmented mature
    /// blocks at the pause after the trace completes (§3.3.2 "mature
    /// evacuation").
    pub mature_evacuation: bool,
    /// Run the SATB trace concurrently with mutators.  When `false` the
    /// trace runs entirely inside the pause that triggers it (the `-SATB`
    /// ablation).
    pub concurrent_satb: bool,
    /// Process decrements lazily on the concurrent thread.  When `false`
    /// decrements are processed inside the pause (the `-LD` ablation).
    pub concurrent_decrements: bool,
    /// Trigger an RC pause when fewer than this fraction of blocks are
    /// available (clean + recycled); a backstop against running the heap
    /// completely dry between pauses.
    pub heap_full_fraction: f64,
    /// Run concurrent traces in *sticky* (generational) mode: mark bits are
    /// carried over between traces, and a sticky trace seeds its gray set
    /// from the roots plus the field-logged remembered set instead of
    /// re-walking the whole heap.  Periodically escalated to a full trace
    /// (see `sticky_full_every_n` / `sticky_min_yield`).
    pub sticky: bool,
    /// Force a full-heap trace after this many consecutive sticky traces.
    pub sticky_full_every_n: u64,
    /// Escalate to a full trace early when the observed sticky trace yield
    /// (SATB deaths per object marked) decays below this fraction while the
    /// mature-wastage trigger is firing — the sticky trace is no longer
    /// finding the garbage that the heuristics say exists.
    pub sticky_min_yield: f64,
}

impl Default for LxrConfig {
    fn default() -> Self {
        LxrConfig {
            survival_threshold_bytes: 8 << 20,
            increment_threshold: None,
            mature_wastage_threshold: 0.05,
            clean_block_trigger_fraction: 0.15,
            evac_occupancy_threshold: 0.5,
            max_evac_blocks: 64,
            young_evacuation: true,
            mature_evacuation: true,
            concurrent_satb: true,
            concurrent_decrements: true,
            heap_full_fraction: 0.08,
            sticky: false,
            sticky_full_every_n: 8,
            sticky_min_yield: 0.02,
        }
    }
}

impl LxrConfig {
    /// The paper's default configuration scaled to a given heap size: the
    /// survival threshold is capped at a quarter of the heap so that small
    /// experimental heaps still pause regularly (the paper's 128 MB default
    /// assumes multi-gigabyte heaps).
    pub fn for_heap(heap_bytes: usize) -> Self {
        LxrConfig {
            survival_threshold_bytes: (heap_bytes / 4).clamp(1 << 20, 128 << 20),
            ..Default::default()
        }
    }

    /// The `-SATB` ablation of Table 7: SATB tracing inside the pause.
    pub fn without_concurrent_satb(mut self) -> Self {
        self.concurrent_satb = false;
        self
    }

    /// The `-LD` ablation of Table 7: decrements inside the pause.
    pub fn without_lazy_decrements(mut self) -> Self {
        self.concurrent_decrements = false;
        self
    }

    /// The `STW` ablation of Table 7: a fully stop-the-world LXR.
    pub fn stop_the_world(self) -> Self {
        self.without_concurrent_satb().without_lazy_decrements()
    }

    /// The sticky (generational) tracing variant: mark bits persist across
    /// traces and most traces scan only objects allocated or mutated since
    /// the last one.
    pub fn sticky(mut self) -> Self {
        self.sticky = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_settings() {
        let c = LxrConfig::default();
        assert!(c.increment_threshold.is_none());
        assert!((c.mature_wastage_threshold - 0.05).abs() < 1e-12);
        assert!(c.young_evacuation && c.mature_evacuation);
        assert!(c.concurrent_satb && c.concurrent_decrements);
        assert!(!c.sticky, "sticky tracing is an opt-in variant, not the paper default");
        assert_eq!(c.sticky_full_every_n, 8);
    }

    #[test]
    fn ablations_flip_only_their_switch() {
        let c = LxrConfig::default().without_concurrent_satb();
        assert!(!c.concurrent_satb);
        assert!(c.concurrent_decrements);
        let c = LxrConfig::default().without_lazy_decrements();
        assert!(c.concurrent_satb);
        assert!(!c.concurrent_decrements);
        let c = LxrConfig::default().stop_the_world();
        assert!(!c.concurrent_satb && !c.concurrent_decrements);
        let c = LxrConfig::default().sticky();
        assert!(c.sticky && c.concurrent_satb && c.concurrent_decrements);
    }

    #[test]
    fn for_heap_scales_survival_threshold() {
        assert_eq!(LxrConfig::for_heap(16 << 20).survival_threshold_bytes, 4 << 20);
        assert_eq!(LxrConfig::for_heap(1 << 30).survival_threshold_bytes, 128 << 20);
        assert_eq!(LxrConfig::for_heap(1 << 20).survival_threshold_bytes, 1 << 20);
    }
}
