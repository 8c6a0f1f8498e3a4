//! Request-aware pause scheduling.
//!
//! A serving workload has natural points where a stop-the-world pause is
//! nearly free: the instants *between* requests, when no request's latency
//! clock is running.  The [`PauseGate`] exploits them, in the spirit of
//! Blade's GC-aware request staggering (arXiv:1504.02578) and Monk's
//! opportunistic scheduling under load (arXiv:2502.20522): when a mutator's
//! pacing poll raises a *deferrable* trigger (threshold or predictive —
//! never exhaustion, never an explicit request), the gate parks the trigger
//! instead of starting the collection mid-request.  The serving engine then
//! releases it from [`Mutator::end_request`](crate::Mutator::end_request)
//! (the request boundary) or [`Mutator::idle_until`](crate::Mutator::idle_until)
//! (an open-loop arrival gap), so the pause overlaps think-time instead of
//! service time.
//!
//! Two safety valves bound the deferral:
//!
//! * a **wall-clock window** ([`RuntimeOptions::pause_gate_defer_ms`]): a
//!   trigger deferred longer than this fires at the next poll regardless —
//!   a stalled request stream must not turn a pacing trigger into an
//!   exhaustion trigger;
//! * a **plan veto** ([`Plan::defer_poll_trigger`]): the plan refuses
//!   deferral when the heap is too close to its backstop to wait (LXR
//!   requires twice the heap-full backstop in headroom).
//!
//! The gate is always constructed but disabled by default
//! ([`RuntimeOptions::with_pause_gate`](crate::RuntimeOptions::with_pause_gate));
//! when disabled every method is a cheap no-op and trigger behaviour is
//! byte-for-byte the historical one.
//!
//! [`RuntimeOptions::pause_gate_defer_ms`]: crate::RuntimeOptions::pause_gate_defer_ms
//! [`Plan::defer_poll_trigger`]: crate::plan::Plan::defer_poll_trigger

use crate::stats::GcReason;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Outcome of asking the gate to defer a freshly raised pacing trigger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deferral {
    /// The trigger was parked just now (count it as a deferred trigger).
    Parked,
    /// A trigger was already parked and still within its window; keep
    /// waiting for the boundary.
    Pending,
    /// The gate declines (disabled, no request in flight, or the deferral
    /// window expired): trigger the collection immediately.
    Fire,
}

/// Coordination point between serving mutators and the collector's pacing
/// triggers.  One per runtime, shared by all mutators; see the module docs
/// for the protocol.
#[derive(Debug)]
pub struct PauseGate {
    enabled: bool,
    defer_window: Duration,
    /// Requests currently being serviced across all mutators.
    in_flight: AtomicUsize,
    /// The parked trigger, if any, with its release deadline.
    deferred: Mutex<Option<(GcReason, Instant)>>,
}

impl PauseGate {
    /// Creates a gate.  A disabled gate never defers anything.
    pub fn new(enabled: bool, defer_window: Duration) -> Self {
        PauseGate { enabled, defer_window, in_flight: AtomicUsize::new(0), deferred: Mutex::new(None) }
    }

    /// Whether request-aware scheduling is on.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Marks the start of a request on the calling mutator.
    pub fn begin_request(&self) {
        self.in_flight.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks the end of a request; returns a parked trigger that should be
    /// fired now, at the boundary.
    pub fn end_request(&self) -> Option<GcReason> {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
        self.take_deferred()
    }

    /// Removes and returns the parked trigger, if any (boundary and idle
    /// paths release through this).
    pub fn take_deferred(&self) -> Option<GcReason> {
        if !self.enabled {
            return None;
        }
        self.deferred.lock().take().map(|(reason, _)| reason)
    }

    /// Whether a trigger is currently parked.
    pub fn deferred_pending(&self) -> bool {
        self.enabled && self.deferred.lock().is_some()
    }

    /// Asks the gate to defer a deferrable pacing trigger raised by a poll.
    pub fn try_defer(&self, reason: GcReason) -> Deferral {
        if !self.enabled {
            return Deferral::Fire;
        }
        if self.in_flight.load(Ordering::Relaxed) == 0 {
            // Nobody is mid-request: this *is* a boundary, pause now.
            return Deferral::Fire;
        }
        let now = Instant::now();
        let mut slot = self.deferred.lock();
        match *slot {
            None => {
                *slot = Some((reason, now + self.defer_window));
                Deferral::Parked
            }
            Some((_, deadline)) if now >= deadline => {
                // Window expired: stop waiting for a boundary that is not
                // coming and fire on the spot.
                *slot = None;
                Deferral::Fire
            }
            Some(_) => Deferral::Pending,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_gate_never_defers() {
        let gate = PauseGate::new(false, Duration::from_millis(5));
        gate.begin_request();
        assert_eq!(gate.try_defer(GcReason::Threshold), Deferral::Fire);
        assert_eq!(gate.end_request(), None);
        assert!(!gate.deferred_pending());
    }

    #[test]
    fn defers_only_while_a_request_is_in_flight() {
        let gate = PauseGate::new(true, Duration::from_secs(10));
        // Between requests the gate declines: the pause is already at a
        // boundary.
        assert_eq!(gate.try_defer(GcReason::Predictive), Deferral::Fire);
        gate.begin_request();
        assert_eq!(gate.try_defer(GcReason::Predictive), Deferral::Parked);
        assert_eq!(gate.try_defer(GcReason::Threshold), Deferral::Pending);
        assert!(gate.deferred_pending());
        // The boundary releases the originally parked reason.
        assert_eq!(gate.end_request(), Some(GcReason::Predictive));
        assert!(!gate.deferred_pending());
    }

    #[test]
    fn expired_window_fires_at_the_next_poll() {
        let gate = PauseGate::new(true, Duration::ZERO);
        gate.begin_request();
        assert_eq!(gate.try_defer(GcReason::Threshold), Deferral::Parked);
        // The zero-length window has already expired by the next poll.
        assert_eq!(gate.try_defer(GcReason::Threshold), Deferral::Fire);
        assert_eq!(gate.end_request(), None);
    }

    #[test]
    fn idle_path_takes_the_parked_trigger() {
        let gate = PauseGate::new(true, Duration::from_secs(10));
        gate.begin_request();
        assert_eq!(gate.try_defer(GcReason::Threshold), Deferral::Parked);
        assert_eq!(gate.take_deferred(), Some(GcReason::Threshold));
        assert_eq!(gate.take_deferred(), None);
        assert_eq!(gate.end_request(), None);
    }
}
