//! LXR configuration and ablation knobs.

/// Configuration of the LXR collector.
///
/// Holds only the values some caller varies: the survival threshold
/// (scaled by [`LxrConfig::for_heap`]), the clean-block trigger (raised by
/// `lxr-eager`), the concurrency switches of the Table 7 ablations — `-SATB`
/// (trace inside the pause), `-LD` (decrements inside the pause) and `STW`
/// (both) — and the sticky tracing variant.  The paper's other fixed
/// defaults (§3.3.2, §4) are constants next to their readers: the 5% mature
/// wastage trigger, the 50% evacuation occupancy threshold, a single
/// evacuation set, young and mature evacuation always on, and no increment
/// threshold.
#[derive(Debug, Clone)]
pub struct LxrConfig {
    /// Trigger an RC pause once the *predicted* volume of surviving young
    /// allocation since the last epoch exceeds this many bytes.
    pub survival_threshold_bytes: usize,
    /// Trigger an SATB trace when an RC pause leaves fewer than this
    /// fraction of the heap's blocks clean.
    pub clean_block_trigger_fraction: f64,
    /// Run the SATB trace concurrently with mutators.  When `false` the
    /// trace runs entirely inside the pause that triggers it (the `-SATB`
    /// ablation).
    pub concurrent_satb: bool,
    /// Process decrements lazily on the concurrent thread.  When `false`
    /// decrements are processed inside the pause (the `-LD` ablation).
    pub concurrent_decrements: bool,
    /// Run concurrent traces in *sticky* (generational) mode: mark bits are
    /// carried over between traces, and a sticky trace seeds its gray set
    /// from the roots plus the field-logged remembered set instead of
    /// re-walking the whole heap.  Periodically escalated to a full trace
    /// (see `satb::next_trace_full`).
    pub sticky: bool,
}

impl Default for LxrConfig {
    fn default() -> Self {
        LxrConfig {
            survival_threshold_bytes: 8 << 20,
            clean_block_trigger_fraction: 0.15,
            concurrent_satb: true,
            concurrent_decrements: true,
            sticky: false,
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
        assert!(c.concurrent_satb && c.concurrent_decrements);
        assert!(!c.sticky, "sticky tracing is an opt-in variant, not the paper default");
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
