//! Phase watchdogs and structured state dumps.
//!
//! A wedged collector protocol — a pause phase that never drains, a crew
//! quiescence handshake that never completes — used to surface as a CI
//! timeout with no evidence.  This module turns every controlled wait into
//! a *deadline*: on expiry it prints a structured snapshot of every live
//! runtime (per-worker phase, queue depths, rendezvous state, plan gauges,
//! the last failpoint hit) and aborts, so the hang becomes a one-screen
//! diagnostic.
//!
//! # Arming
//!
//! Watchdogs are armed by [`RuntimeOptions::watchdog_ms`]; the default is
//! `None` (disarmed), so release benchmarks pay nothing, and the workload
//! engines keep whatever their `runtime` options carry.  Tests and CI arm
//! them explicitly (the chaos suite, the harness's `--watchdog-ms`).
//! The deadline applies independently to each wait: stopping the world,
//! every parallel pause phase, crew quiescence, and the external
//! `request_gc_and_wait` loop.
//!
//! Not every expiry aborts: the concurrent SATB trace treats its deadline as
//! an *escalation* trigger instead, falling back to the stop-the-world
//! degenerate catch-up (see `lxr_core`), which is the graceful-degradation
//! half of the design.
//!
//! [`RuntimeOptions::watchdog_ms`]: crate::RuntimeOptions::watchdog_ms

use crate::runtime::RuntimeShared;
use std::sync::{Mutex, OnceLock, Weak};
use std::time::{Duration, Instant};

/// A deadline for one controlled wait.  Cheap to clone and to check
/// (disarmed watchdogs never read the clock).
#[derive(Debug, Clone, Default)]
pub struct Watchdog {
    deadline: Option<Duration>,
}

impl Watchdog {
    /// A watchdog with the given deadline in milliseconds (`None` disarms).
    pub fn new(ms: Option<u64>) -> Watchdog {
        Watchdog { deadline: ms.map(Duration::from_millis) }
    }

    /// A watchdog that never fires.
    pub fn disarmed() -> Watchdog {
        Watchdog { deadline: None }
    }

    /// Whether this watchdog has a deadline at all.
    pub fn armed(&self) -> bool {
        self.deadline.is_some()
    }

    /// The deadline, if armed.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// Whether a wait that started at `started` has exceeded the deadline.
    /// Always `false` when disarmed.
    pub fn expired(&self, started: Instant) -> bool {
        match self.deadline {
            Some(d) => started.elapsed() > d,
            None => false,
        }
    }

    /// Aborts with a state dump if the wait that started at `started` has
    /// exceeded the deadline.  Call this from inside wait loops.
    pub fn check(&self, what: &str, started: Instant) {
        if self.expired(started) {
            expire(what);
        }
    }
}

/// Every live runtime, registered at construction so a watchdog firing
/// anywhere can dump the state of the whole process.
fn registry() -> &'static Mutex<Vec<Weak<RuntimeShared>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Weak<RuntimeShared>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Registers a runtime for inclusion in watchdog state dumps (called by the
/// runtime constructor; dead entries are pruned on each registration).
pub fn register_runtime(rt: Weak<RuntimeShared>) {
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    reg.retain(|w| w.strong_count() > 0);
    reg.push(rt);
}

/// A structured snapshot of every live runtime: rendezvous state, worker
/// phase and queue depth, work counters, plan gauges, last failpoint hit.
pub fn dump_all() -> String {
    let reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    let mut out = String::new();
    let mut any = false;
    for weak in reg.iter() {
        if let Some(rt) = weak.upgrade() {
            any = true;
            out.push_str(&rt.state_snapshot());
        }
    }
    if !any {
        out.push_str("(no live runtimes registered)\n");
    }
    if let Some(hit) = lxr_failpoints::last_hit() {
        out.push_str(&format!("last failpoint: {} hit #{} -> {}\n", hit.site, hit.hit, hit.action));
    }
    out
}

/// Dumps the state of every live runtime and aborts the process.  Used when
/// a wedged wait cannot be recovered by degradation — an abort with a
/// diagnosis beats a hang.
pub fn expire(what: &str) -> ! {
    eprintln!("==== WATCHDOG: {what} exceeded its deadline ====");
    eprint!("{}", dump_all());
    eprintln!("==== aborting ====");
    std::process::abort()
}

/// Runs `f` on a fresh thread under a wall-clock deadline, returning its
/// result.  On timeout, prints the structured state dump and panics; a
/// panic inside `f` is propagated unchanged.  This replaces the ad-hoc
/// mpsc/`recv_timeout` watchdog threads the stress tests used to hand-roll,
/// so a hang anywhere produces the same snapshot.
pub fn run_guarded<T, F>(name: &str, timeout: Duration, f: F) -> T
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::Builder::new()
        .name(format!("guarded-{name}"))
        .spawn(move || {
            let _ = tx.send(f());
        })
        .expect("failed to spawn guarded thread");
    match rx.recv_timeout(timeout) {
        Ok(value) => {
            let _ = handle.join();
            value
        }
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            // `f` panicked before sending: re-raise its payload so the
            // original assertion message survives.
            match handle.join() {
                Err(payload) => std::panic::resume_unwind(payload),
                Ok(()) => unreachable!("sender dropped without a panic"),
            }
        }
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            eprintln!("==== WATCHDOG: {name} exceeded {timeout:?} ====");
            eprint!("{}", dump_all());
            panic!("{name} hung: exceeded its {timeout:?} watchdog (state dumped above)");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_watchdog_never_expires() {
        let w = Watchdog::disarmed();
        assert!(!w.armed());
        assert!(!w.expired(Instant::now() - Duration::from_secs(3600)));
        w.check("anything", Instant::now() - Duration::from_secs(3600)); // must not abort
    }

    #[test]
    fn armed_watchdog_expires_after_deadline() {
        let w = Watchdog::new(Some(10));
        assert!(w.armed());
        assert!(!w.expired(Instant::now()));
        assert!(w.expired(Instant::now() - Duration::from_millis(50)));
    }

    #[test]
    fn run_guarded_returns_the_result() {
        assert_eq!(run_guarded("forty-two", Duration::from_secs(10), || 42), 42);
    }

    #[test]
    fn run_guarded_propagates_panics() {
        let result = std::panic::catch_unwind(|| {
            run_guarded("boom", Duration::from_secs(10), || panic!("original message"))
        });
        let payload = result.unwrap_err();
        let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(message, "original message");
    }

    #[test]
    fn dump_without_runtimes_is_well_formed() {
        let dump = dump_all();
        assert!(!dump.is_empty());
    }
}
