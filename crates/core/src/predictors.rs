//! Conservatively biased exponential-decay predictors.
//!
//! LXR modulates pause times with predictions rather than hard limits
//! (§3.2.1, §3.2.2): a *survival-rate* predictor drives the RC pause
//! trigger, and a *live-block* predictor drives the SATB wastage trigger.
//! Both use the same asymmetric exponential decay: when the new observation
//! is worse (higher survival, more live blocks) the predictor moves 3/4 of
//! the way toward it; when it is better, only 1/4 — a conservative bias
//! toward pessimism.

/// An asymmetric exponential-decay predictor.
///
/// # Example
///
/// ```
/// use lxr_core::predictors::DecayPredictor;
/// let mut p = DecayPredictor::new(0.5);
/// p.observe(1.0);                 // worse than predicted: move 3/4 of the way
/// assert!((p.value() - 0.875).abs() < 1e-12);
/// p.observe(0.0);                 // better than predicted: move only 1/4
/// assert!((p.value() - 0.65625).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecayPredictor {
    value: f64,
}

impl DecayPredictor {
    /// Creates a predictor with an initial estimate.
    pub fn new(initial: f64) -> Self {
        DecayPredictor { value: initial }
    }

    /// The current prediction.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Folds in a new observation with the 3:1 / 1:3 asymmetric weighting.
    pub fn observe(&mut self, observation: f64) {
        if observation > self.value {
            self.value = 0.75 * observation + 0.25 * self.value;
        } else {
            self.value = 0.25 * observation + 0.75 * self.value;
        }
    }
}

/// The two predictors LXR maintains, protected together because they are
/// only updated during pauses.
#[derive(Debug, Clone, Copy)]
pub struct Predictors {
    /// Predicted fraction of young allocation that survives its first RC
    /// epoch (drives the RC pause trigger).
    pub survival_rate: DecayPredictor,
    /// Predicted number of live blocks after an SATB cycle (drives the
    /// wastage trigger).
    pub live_blocks: DecayPredictor,
    /// Predicted yield of a *sticky* trace: SATB deaths per object marked.
    /// Drives the sticky→full escalation heuristic — when the prediction
    /// decays below `satb::STICKY_MIN_YIELD` (2%) while the wastage trigger
    /// is firing, the garbage the heuristics expect is evidently not in the
    /// nursery, so the next trace runs full-heap.  The rises-fast /
    /// falls-slow asymmetry means one lucky sticky trace restores
    /// confidence quickly, while escalation needs sustained low yield.
    pub sticky_yield: DecayPredictor,
    /// Predicted words allocated per RC epoch (drives the predictive GC
    /// trigger for elastic heaps): rises fast when an allocation burst
    /// begins, so the trigger leads exhaustion almost immediately, and
    /// decays slowly through idle phases, so the heap is not re-grown for
    /// a burst that never comes.
    pub alloc_words_per_epoch: DecayPredictor,
}

impl Predictors {
    /// Initial state: conservatively assume everything survives, that the
    /// heap currently holds no reclaimable wastage, and that sticky traces
    /// are productive (escalation to full traces needs observed evidence).
    pub fn new() -> Self {
        Predictors {
            survival_rate: DecayPredictor::new(1.0),
            live_blocks: DecayPredictor::new(0.0),
            sticky_yield: DecayPredictor::new(1.0),
            alloc_words_per_epoch: DecayPredictor::new(0.0),
        }
    }
}

impl Default for Predictors {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rises_fast_falls_slow() {
        let mut p = DecayPredictor::new(0.0);
        p.observe(1.0);
        let after_rise = p.value();
        assert!((after_rise - 0.75).abs() < 1e-12);
        p.observe(0.0);
        assert!((p.value() - 0.5625).abs() < 1e-12, "falls by only a quarter of the gap");
    }

    #[test]
    fn converges_to_a_steady_observation() {
        let mut p = DecayPredictor::new(1.0);
        for _ in 0..50 {
            p.observe(0.3);
        }
        assert!((p.value() - 0.3).abs() < 1e-6);
    }

    #[test]
    fn initial_predictors_are_conservative() {
        let p = Predictors::new();
        assert_eq!(p.survival_rate.value(), 1.0);
        assert_eq!(p.live_blocks.value(), 0.0);
        assert_eq!(p.sticky_yield.value(), 1.0, "sticky traces assumed productive until observed");
        assert_eq!(p.alloc_words_per_epoch.value(), 0.0, "no allocation predicted before any epoch");
    }
}
