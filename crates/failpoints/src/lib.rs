//! Failpoints: deterministic fault injection for chaos testing.
//!
//! The collector's soundness rests on a lattice of concurrency protocols
//! (SATB snapshots, deferred decrements, reuse epochs, crew quiescence)
//! whose rare interleavings ordinary workloads may never produce.  A
//! **failpoint** is a named site threaded through a hot control path —
//! safepoint polls, pause phase boundaries, crew seed/steal/spill, barrier
//! chunk flushes, block release and the allocation retry loop — at which a
//! *schedule* can inject a fault: a forced yield, an artificial delay, a
//! simulated allocation failure, or a forced degenerate-GC escalation.
//!
//! # Determinism
//!
//! A [`Schedule`] carries a seed, and its [`decide`](Schedule::decide)
//! function is **pure** in `(site, hit_index)`: the n-th arrival at a given
//! site always receives the same verdict, regardless of how threads
//! interleave *across* sites.  Replaying a chaos run therefore replays each
//! site's exact injection sequence — the property the engine's property
//! tests pin down — so a schedule string in a bug report reproduces the
//! same fault pattern on every machine.
//!
//! # The schedule grammar
//!
//! A schedule is parsed from a `;`-separated spec (the `LXR_FAILPOINTS`
//! environment variable, `RuntimeOptions::failpoints`, or the harness's
//! `--failpoints` flag):
//!
//! ```text
//! seed=42;crew.yield-ack=yield@p=0.1;pause.roots=delay:500us@every=3;heap.alloc=oom@from=100,times=2
//! ```
//!
//! Each rule is `SITE=ACTION[:ARG][@MOD,MOD...]`.  A site pattern ending in
//! `*` prefix-matches (`crew.*` hits every crew site).  Actions are
//! `yield`, `delay:<N>us` (or `<N>ms`), `oom`, and `degenerate`.  Modifiers
//! restrict which hit indices fire: `from=N` skips the first N hits,
//! `every=N` fires every N-th eligible hit, `times=N` caps the number of
//! firings, and `p=F` fires with pseudo-random probability `F` (seeded, so
//! still deterministic per `(site, hit)`).
//!
//! # Zero cost when disabled
//!
//! Sites are compiled in only under the `enabled` cargo feature (exposed as
//! `failpoints` on the umbrella crate and the harness).  With the feature
//! off, [`ENABLED`] is `const false` and both macros fold to nothing — the
//! hot paths are byte-identical to a build that never heard of failpoints.
//! The gate is a constant *in this crate* rather than a `cfg!` inside the
//! macro body, so the consumer crate's own feature set cannot change the
//! verdict.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, RwLock};

/// `true` when the `enabled` cargo feature is on.  The macros branch on
/// this constant, so with the feature off every site folds to nothing.
pub const ENABLED: bool = cfg!(feature = "enabled");

/// A fault a schedule can inject at a site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Action {
    /// Force a thread yield (`std::thread::yield_now`), perturbing the
    /// interleaving at the site.
    Yield,
    /// Sleep for the given number of microseconds.
    Delay(u64),
    /// Simulate an allocation failure.  Only allocation sites honour it
    /// (they return their out-of-memory error); other sites ignore it.
    FailAlloc,
    /// Force a degenerate-GC escalation.  Only the pause's SATB catch-up
    /// decision honours it (it switches to the unbounded stop-the-world
    /// catch-up); other sites ignore it.
    Degenerate,
}

impl std::fmt::Display for Action {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Action::Yield => write!(f, "yield"),
            Action::Delay(us) => write!(f, "delay:{us}us"),
            Action::FailAlloc => write!(f, "oom"),
            Action::Degenerate => write!(f, "degenerate"),
        }
    }
}

/// One parsed schedule rule: a site pattern, an action, and the modifiers
/// restricting which hit indices fire.
#[derive(Debug, Clone, PartialEq)]
struct Rule {
    /// Exact site name, or a prefix when `prefix` is set (written `foo.*`).
    pattern: String,
    prefix: bool,
    action: Action,
    /// Hit indices below this never fire.
    from: u64,
    /// Of the eligible hits, fire every n-th (1 = every eligible hit).
    every: u64,
    /// Cap on the number of firings, if any.
    times: Option<u64>,
    /// Fire with this probability instead of deterministically by index.
    prob: Option<f64>,
}

impl Rule {
    fn matches(&self, site: &str) -> bool {
        if self.prefix {
            site.starts_with(&self.pattern)
        } else {
            site == self.pattern
        }
    }

    /// Pure verdict for hit number `hit` (0-based) at a matching site.
    fn decide(&self, seed: u64, site: &str, hit: u64) -> Option<Action> {
        if hit < self.from {
            return None;
        }
        let k = hit - self.from;
        if let Some(p) = self.prob {
            // Seeded per-(site, hit) coin flip: deterministic on replay.
            let x = splitmix64(seed ^ fnv1a(site) ^ hit.wrapping_mul(0x9e3779b97f4a7c15));
            if (x >> 11) as f64 / (1u64 << 53) as f64 >= p {
                return None;
            }
            return Some(self.action);
        }
        if !k.is_multiple_of(self.every) {
            return None;
        }
        if let Some(times) = self.times {
            if k / self.every >= times {
                return None;
            }
        }
        Some(self.action)
    }
}

/// A seeded, deterministic fault schedule.  See the [module docs](self) for
/// the grammar and the determinism contract.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Schedule {
    seed: u64,
    rules: Vec<Rule>,
}

impl Schedule {
    /// Parses a schedule from its spec string.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed clause.
    pub fn parse(spec: &str) -> Result<Schedule, String> {
        let mut schedule = Schedule { seed: 0, rules: Vec::new() };
        for clause in spec.split(';').map(str::trim).filter(|c| !c.is_empty()) {
            let (lhs, rhs) =
                clause.split_once('=').ok_or_else(|| format!("`{clause}`: expected SITE=ACTION"))?;
            if lhs == "seed" {
                schedule.seed = rhs.parse().map_err(|_| format!("`{clause}`: bad seed"))?;
                continue;
            }
            let (action_spec, mods) = match rhs.split_once('@') {
                Some((a, m)) => (a, Some(m)),
                None => (rhs, None),
            };
            let action = parse_action(action_spec).ok_or_else(|| format!("`{clause}`: unknown action"))?;
            let (pattern, prefix) = match lhs.strip_suffix('*') {
                Some(p) => (p.to_string(), true),
                None => (lhs.to_string(), false),
            };
            let mut rule = Rule { pattern, prefix, action, from: 0, every: 1, times: None, prob: None };
            for m in mods.iter().flat_map(|m| m.split(',')) {
                let (key, value) =
                    m.split_once('=').ok_or_else(|| format!("`{clause}`: expected MOD=VALUE"))?;
                match key {
                    "from" => rule.from = value.parse().map_err(|_| format!("`{clause}`: bad from"))?,
                    "every" => {
                        rule.every = value.parse().map_err(|_| format!("`{clause}`: bad every"))?;
                        if rule.every == 0 {
                            return Err(format!("`{clause}`: every must be >= 1"));
                        }
                    }
                    "times" => {
                        rule.times = Some(value.parse().map_err(|_| format!("`{clause}`: bad times"))?)
                    }
                    "p" => {
                        let p: f64 = value.parse().map_err(|_| format!("`{clause}`: bad probability"))?;
                        if !(0.0..=1.0).contains(&p) {
                            return Err(format!("`{clause}`: probability outside [0, 1]"));
                        }
                        rule.prob = Some(p);
                    }
                    other => return Err(format!("`{clause}`: unknown modifier `{other}`")),
                }
            }
            schedule.rules.push(rule);
        }
        Ok(schedule)
    }

    /// The verdict for hit number `hit` (0-based) at `site`: the first
    /// matching rule's decision.  Pure in `(site, hit)` — this is the
    /// determinism contract the replay tests pin down.
    pub fn decide(&self, site: &str, hit: u64) -> Option<Action> {
        self.rules.iter().find(|r| r.matches(site)).and_then(|r| r.decide(self.seed, site, hit))
    }
}

fn parse_action(spec: &str) -> Option<Action> {
    match spec {
        "yield" => Some(Action::Yield),
        "oom" => Some(Action::FailAlloc),
        "degenerate" => Some(Action::Degenerate),
        _ => {
            let arg = spec.strip_prefix("delay:")?;
            if let Some(us) = arg.strip_suffix("us") {
                Some(Action::Delay(us.parse().ok()?))
            } else if let Some(ms) = arg.strip_suffix("ms") {
                Some(Action::Delay(ms.parse::<u64>().ok()?.checked_mul(1000)?))
            } else {
                None
            }
        }
    }
}

fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in s.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    h
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// The most recent injection, for watchdog state dumps.
#[derive(Debug, Clone, PartialEq)]
pub struct LastHit {
    /// Site name.
    pub site: &'static str,
    /// 0-based hit index at that site.
    pub hit: u64,
    /// The action that fired.
    pub action: Action,
}

struct Engine {
    schedule: RwLock<Option<Schedule>>,
    /// Per-site arrival counters.  Sites self-register on first arrival.
    counters: RwLock<HashMap<&'static str, &'static AtomicU64>>,
    last_hit: Mutex<Option<LastHit>>,
    active: AtomicBool,
}

fn engine() -> &'static Engine {
    static ENGINE: OnceLock<Engine> = OnceLock::new();
    ENGINE.get_or_init(|| Engine {
        schedule: RwLock::new(None),
        counters: RwLock::new(HashMap::new()),
        last_hit: Mutex::new(None),
        active: AtomicBool::new(false),
    })
}

/// Installs `schedule` globally, resetting every site's hit counter.  The
/// engine is process-global: chaos runs install one schedule per run (see
/// [`ScheduleGuard`] for scoped installation).
pub fn install(schedule: Schedule) {
    let e = engine();
    for counter in e.counters.read().unwrap().values() {
        counter.store(0, Ordering::Relaxed);
    }
    *e.last_hit.lock().unwrap() = None;
    *e.schedule.write().unwrap() = Some(schedule);
    e.active.store(true, Ordering::Release);
}

/// Parses `spec` and installs the schedule.
///
/// # Errors
///
/// Returns the parse error without touching the installed schedule.
pub fn install_spec(spec: &str) -> Result<(), String> {
    install(Schedule::parse(spec)?);
    Ok(())
}

/// Removes the installed schedule; every site reverts to a no-op.
pub fn clear() {
    let e = engine();
    e.active.store(false, Ordering::Release);
    *e.schedule.write().unwrap() = None;
}

/// Returns `true` if a schedule is installed (always `false` with the
/// feature off).
pub fn active() -> bool {
    ENABLED && engine().active.load(Ordering::Acquire)
}

/// The most recent injection, if any (for watchdog state dumps).
pub fn last_hit() -> Option<LastHit> {
    if !ENABLED {
        return None;
    }
    engine().last_hit.lock().unwrap().clone()
}

/// Installs a schedule for a scope: [`clear`]s on drop.  Used by the
/// workload engine so a chaos run's schedule cannot leak into the next run
/// in the same process.
#[derive(Debug)]
pub struct ScheduleGuard(());

impl ScheduleGuard {
    /// Parses and installs `spec`, returning the guard.
    ///
    /// # Errors
    ///
    /// Returns the parse error without installing anything.
    pub fn install(spec: &str) -> Result<ScheduleGuard, String> {
        install_spec(spec)?;
        Ok(ScheduleGuard(()))
    }
}

impl Drop for ScheduleGuard {
    fn drop(&mut self) {
        clear();
    }
}

/// Records an arrival at `site` and returns the schedule's verdict, having
/// already *performed* `Yield` and `Delay` actions (callers only need the
/// return value to honour `FailAlloc` and `Degenerate`).  Called through
/// the [`failpoint!`]/[`failpoint_act!`] macros, never directly.
#[doc(hidden)]
pub fn hit(site: &'static str) -> Option<Action> {
    let e = engine();
    if !e.active.load(Ordering::Acquire) {
        return None;
    }
    let counter: &'static AtomicU64 = {
        let counters = e.counters.read().unwrap();
        match counters.get(site) {
            Some(c) => c,
            None => {
                drop(counters);
                let mut counters = e.counters.write().unwrap();
                counters.entry(site).or_insert_with(|| &*Box::leak(Box::new(AtomicU64::new(0))))
            }
        }
    };
    let n = counter.fetch_add(1, Ordering::Relaxed);
    let action = e.schedule.read().unwrap().as_ref()?.decide(site, n)?;
    *e.last_hit.lock().unwrap() = Some(LastHit { site, hit: n, action });
    match action {
        Action::Yield => std::thread::yield_now(),
        Action::Delay(us) => std::thread::sleep(std::time::Duration::from_micros(us)),
        Action::FailAlloc | Action::Degenerate => {}
    }
    Some(action)
}

/// Hit counters per site, for tests and reports (feature on only).
pub fn hit_counts() -> Vec<(&'static str, u64)> {
    if !ENABLED {
        return Vec::new();
    }
    let mut counts: Vec<(&'static str, u64)> =
        engine().counters.read().unwrap().iter().map(|(s, c)| (*s, c.load(Ordering::Relaxed))).collect();
    counts.sort_unstable();
    counts
}

/// A plain injection site: performs a scheduled yield or delay, ignores
/// `FailAlloc`/`Degenerate`.  Compiles to nothing without the `enabled`
/// feature.
#[macro_export]
macro_rules! failpoint {
    ($site:expr) => {
        if $crate::ENABLED {
            let _ = $crate::hit($site);
        }
    };
}

/// An injection site whose caller interprets the verdict (allocation sites
/// honour [`Action::FailAlloc`], the SATB catch-up decision honours
/// [`Action::Degenerate`]).  Evaluates to `Option<Action>`; always `None`
/// without the `enabled` feature.
#[macro_export]
macro_rules! failpoint_act {
    ($site:expr) => {
        if $crate::ENABLED {
            $crate::hit($site)
        } else {
            None
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_the_readme_example() {
        let s = Schedule::parse(
            "seed=42;crew.yield-ack=yield@p=0.1;pause.roots=delay:500us@every=3;heap.alloc=oom@from=100,times=2",
        )
        .unwrap();
        assert_eq!(s.seed, 42);
        assert_eq!(s.rules.len(), 3);
        assert_eq!(s.rules[1].action, Action::Delay(500));
        assert_eq!(s.rules[2].from, 100);
        assert_eq!(s.rules[2].times, Some(2));
    }

    #[test]
    fn parse_rejects_malformed_clauses() {
        assert!(Schedule::parse("nonsense").is_err());
        assert!(Schedule::parse("a.b=explode").is_err());
        assert!(Schedule::parse("a.b=yield@p=1.5").is_err());
        assert!(Schedule::parse("a.b=yield@every=0").is_err());
        assert!(Schedule::parse("a.b=delay:10").is_err(), "delay needs a unit");
        assert!(Schedule::parse("seed=x").is_err());
    }

    #[test]
    fn empty_and_whitespace_specs_are_empty_schedules() {
        assert_eq!(Schedule::parse("").unwrap().rules.len(), 0);
        assert_eq!(Schedule::parse(" ; ; ").unwrap().rules.len(), 0);
    }

    #[test]
    fn every_from_times_select_the_expected_hits() {
        let s = Schedule::parse("seed=1;a=yield@from=2,every=3,times=2").unwrap();
        let fired: Vec<u64> = (0..20).filter(|&n| s.decide("a", n).is_some()).collect();
        assert_eq!(fired, vec![2, 5], "from=2 shifts, every=3 strides, times=2 caps");
    }

    #[test]
    fn prefix_patterns_match_and_first_rule_wins() {
        let s = Schedule::parse("seed=1;crew.seed=oom;crew.*=yield").unwrap();
        assert_eq!(s.decide("crew.seed", 0), Some(Action::FailAlloc), "exact rule listed first wins");
        assert_eq!(s.decide("crew.steal", 0), Some(Action::Yield));
        assert_eq!(s.decide("pause.roots", 0), None);
    }

    #[test]
    fn probability_is_deterministic_and_roughly_calibrated() {
        let s = Schedule::parse("seed=7;a=yield@p=0.25").unwrap();
        let fired: Vec<bool> = (0..4000).map(|n| s.decide("a", n).is_some()).collect();
        let again: Vec<bool> = (0..4000).map(|n| s.decide("a", n).is_some()).collect();
        assert_eq!(fired, again, "decide is pure");
        let count = fired.iter().filter(|&&f| f).count();
        assert!((700..1300).contains(&count), "p=0.25 of 4000 fired {count} times");
        // A different seed fires on a different subset.
        let other = Schedule::parse("seed=8;a=yield@p=0.25").unwrap();
        let other_fired: Vec<bool> = (0..4000).map(|n| other.decide("a", n).is_some()).collect();
        assert_ne!(fired, other_fired);
    }

    #[cfg(feature = "enabled")]
    mod engine {
        use super::super::*;
        use proptest::prelude::*;

        /// Engine tests share the process-global schedule; serialise them.
        static LOCK: Mutex<()> = Mutex::new(());

        #[test]
        fn install_hit_clear_lifecycle() {
            let _guard = LOCK.lock().unwrap();
            install(Schedule::parse("seed=1;site.a=oom@every=2").unwrap());
            assert!(active());
            assert_eq!(hit("site.a"), Some(Action::FailAlloc));
            assert_eq!(hit("site.a"), None);
            assert_eq!(hit("site.a"), Some(Action::FailAlloc));
            let last = last_hit().unwrap();
            assert_eq!((last.site, last.hit), ("site.a", 2));
            clear();
            assert!(!active());
            assert_eq!(hit("site.a"), None);
        }

        #[test]
        fn reinstall_resets_counters() {
            let _guard = LOCK.lock().unwrap();
            install(Schedule::parse("seed=1;site.b=yield@times=1").unwrap());
            assert_eq!(hit("site.b"), Some(Action::Yield));
            assert_eq!(hit("site.b"), None);
            install(Schedule::parse("seed=1;site.b=yield@times=1").unwrap());
            assert_eq!(hit("site.b"), Some(Action::Yield), "counters restart at zero");
            clear();
        }

        /// Builds a schedule spec from primitive draws (the shimmed
        /// proptest has no `prop_map`): each rule is a (site, action,
        /// modifier) triple of indices.
        fn build_spec(seed: u64, rules: &[(usize, usize, u64, u64)]) -> String {
            let sites = ["pause.roots", "crew.seed", "crew.*", "heap.alloc"];
            let actions = ["yield", "oom", "degenerate", "delay:1us"];
            let mut spec = format!("seed={seed}");
            for &(site, action, modifier, n) in rules {
                let modifier = match modifier {
                    0 => String::new(),
                    1 => format!("@every={}", n + 1),
                    2 => format!("@from={n}"),
                    3 => format!("@times={}", n + 1),
                    _ => format!("@p=0.{}5", n % 10),
                };
                spec.push_str(&format!(";{}={}{}", sites[site % 4], actions[action % 4], modifier));
            }
            spec
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The replay contract: installing the same seeded schedule
            /// twice and arriving at the same sites in the same per-site
            /// order yields the identical injection sequence.
            #[test]
            fn any_seeded_schedule_replays_identically(
                seed in 0u64..1_000_000,
                rules in proptest::collection::vec((0usize..4, 0usize..4, 0u64..5, 0u64..8), 1..4),
                arrivals in proptest::collection::vec(0usize..3, 1..200),
            ) {
                let _guard = LOCK.lock().unwrap();
                let spec = build_spec(seed, &rules);
                let sites = ["pause.roots", "crew.seed", "heap.alloc"];
                let mut runs = Vec::new();
                for _ in 0..2 {
                    install(Schedule::parse(&spec).unwrap());
                    let sequence: Vec<Option<Action>> =
                        arrivals.iter().map(|&i| hit(sites[i])).collect();
                    runs.push(sequence);
                }
                clear();
                prop_assert_eq!(&runs[0], &runs[1], "schedule `{}` did not replay", spec);
            }

            /// Purity of `decide`: the verdict for (site, hit) never
            /// depends on evaluation order or other queries.
            #[test]
            fn decide_is_pure(
                seed in 0u64..1_000_000,
                rules in proptest::collection::vec((0usize..4, 0usize..4, 0u64..5, 0u64..8), 1..4),
                queries in proptest::collection::vec((0usize..3, 0u64..64), 1..64),
            ) {
                let schedule = Schedule::parse(&build_spec(seed, &rules)).unwrap();
                let sites = ["pause.roots", "crew.seed", "heap.alloc"];
                let forward: Vec<_> = queries.iter().map(|&(s, n)| schedule.decide(sites[s], n)).collect();
                let backward: Vec<_> =
                    queries.iter().rev().map(|&(s, n)| schedule.decide(sites[s], n)).collect();
                let backward: Vec<_> = backward.into_iter().rev().collect();
                prop_assert_eq!(forward, backward);
            }
        }
    }
}
