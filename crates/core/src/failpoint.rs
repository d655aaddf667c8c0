//! Deterministic fault injection for chaos and failure-mode testing.
//!
//! A *failpoint* is a named site in production code where a test (or an
//! operator, via the `NEUROSYM_FAILPOINTS` environment variable) can
//! inject a fault: a panic, an error return, a delay, or a scheduler
//! yield. Sites are compiled in permanently but cost **one relaxed
//! atomic load** when nothing is armed — the same discipline as the
//! `NEUROSYM_SANITIZE` runtime sanitizers — so they can sit on serving
//! and kernel hot paths without perturbing measured characterization
//! runs.
//!
//! # Site naming
//!
//! Sites are named `<crate>::<module>::<site>` (e.g.
//! `serve::server::replica_run`). The workspace linter (`nsai-analyze`,
//! rule `failpoint-hygiene`) checks that every site referenced on the
//! serving hot path is registered in `lint.toml`, so the catalog cannot
//! silently rot.
//!
//! # Arming
//!
//! Programmatically, with an RAII guard (the site disarms when the
//! guard drops, even on panic):
//!
//! ```
//! use nsai_core::failpoint::{self, FailpointGuard};
//!
//! let guard = FailpointGuard::arm("demo::module::site", "return_err@1in2");
//! assert!(!failpoint::fire("demo::module::site")); // hit 1: skipped
//! assert!(failpoint::fire("demo::module::site")); // hit 2: fires
//! drop(guard);
//! assert!(!failpoint::fire("demo::module::site"));
//! ```
//!
//! From the environment, with the same spec grammar, `;`-separated:
//!
//! ```text
//! NEUROSYM_FAILPOINTS='serve::server::replica_run=panic@1in7;serve::queue::enqueue=return_err@p0.05s42'
//! ```
//!
//! # Spec grammar
//!
//! `action[@trigger]` where
//!
//! - action: `panic` | `return_err` | `delay(<us>)` | `yield`
//! - trigger: `1in<N>` (every Nth hit) | `after<N>` (every hit past the
//!   first N) | `p<FLOAT>` with optional `s<SEED>` (per-hit Bernoulli
//!   draw from a dedicated seeded RNG) | omitted (every hit)
//!
//! # Determinism
//!
//! Trigger state is tracked **per site**: counting triggers depend only
//! on the site's own hit sequence, and probabilistic triggers draw from
//! a private RNG seeded by `seed ⊕ fnv(site)` (the vendored
//! deterministic `StdRng`). A given seed therefore reproduces the exact
//! same fault schedule *per site hit index*, independent of how threads
//! interleave across sites.

use parking_lot::Mutex;
use rand::{Rng, SeedableRng, StdRng};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;

/// What an armed failpoint does when its trigger fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FailAction {
    /// Panic with a message naming the site. Exercises panic
    /// containment (serve replica rebuild, pool panic propagation).
    Panic,
    /// Ask the call site to return its error path. Sites that have no
    /// error path document that they ignore this action.
    ReturnErr,
    /// Sleep for the given number of microseconds (clamped to
    /// [`MAX_DELAY_US`]) — widens race windows deterministically
    /// enough to shake out ordering bugs.
    DelayUs(u64),
    /// `std::thread::yield_now()` — a minimal scheduler perturbation.
    Yield,
}

/// Upper bound on [`FailAction::DelayUs`], so a typo in a spec cannot
/// freeze a chaos run past its watchdog.
pub const MAX_DELAY_US: u64 = 250_000;

/// When an armed failpoint's action applies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FailTrigger {
    /// Every hit.
    Always,
    /// Every `n`th hit (hits 1-indexed: fires on hit `n`, `2n`, …).
    OneIn(u64),
    /// Every hit after the first `n` (fires on hit `n+1`, `n+2`, …).
    After(u64),
    /// Independently per hit with probability `p`, drawn from a
    /// site-private RNG seeded by `seed ⊕ fnv(site)`.
    Probability {
        /// Per-hit firing probability in `[0, 1]`.
        p: f64,
        /// Base seed for the site-private RNG.
        seed: u64,
    },
}

/// A parsed `action[@trigger]` arming spec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailSpec {
    /// What happens when the trigger fires.
    pub action: FailAction,
    /// When the action applies.
    pub trigger: FailTrigger,
}

impl FailSpec {
    /// Parse one `action[@trigger]` spec.
    ///
    /// # Errors
    ///
    /// Returns a description of the first grammar violation.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (action_str, trigger_str) = match spec.split_once('@') {
            Some((a, t)) => (a.trim(), Some(t.trim())),
            None => (spec.trim(), None),
        };
        let action = match action_str {
            "panic" => FailAction::Panic,
            "return_err" => FailAction::ReturnErr,
            "yield" => FailAction::Yield,
            other => {
                let us = other
                    .strip_prefix("delay(")
                    .and_then(|r| r.strip_suffix(')'))
                    .and_then(|n| n.trim().parse::<u64>().ok())
                    .ok_or_else(|| {
                        format!(
                            "unknown failpoint action {other:?} \
                             (expected panic|return_err|delay(us)|yield)"
                        )
                    })?;
                FailAction::DelayUs(us.min(MAX_DELAY_US))
            }
        };
        let trigger = match trigger_str {
            None => FailTrigger::Always,
            Some("") => return Err(format!("empty trigger in spec {spec:?}")),
            Some(t) => {
                if let Some(n) = t.strip_prefix("1in") {
                    let n = n
                        .parse::<u64>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| format!("bad 1in<N> trigger {t:?}"))?;
                    FailTrigger::OneIn(n)
                } else if let Some(n) = t.strip_prefix("after") {
                    let n = n
                        .parse::<u64>()
                        .map_err(|_| format!("bad after<N> trigger {t:?}"))?;
                    FailTrigger::After(n)
                } else if let Some(rest) = t.strip_prefix('p') {
                    let (p_str, seed) = match rest.split_once('s') {
                        Some((p, s)) => (
                            p,
                            s.parse::<u64>()
                                .map_err(|_| format!("bad seed in trigger {t:?}"))?,
                        ),
                        None => (rest, 0u64),
                    };
                    let p = p_str
                        .parse::<f64>()
                        .ok()
                        .filter(|p| (0.0..=1.0).contains(p))
                        .ok_or_else(|| format!("bad probability in trigger {t:?}"))?;
                    FailTrigger::Probability { p, seed }
                } else {
                    return Err(format!(
                        "unknown failpoint trigger {t:?} \
                         (expected 1in<N>|after<N>|p<FLOAT>[s<SEED>])"
                    ));
                }
            }
        };
        Ok(FailSpec { action, trigger })
    }
}

/// Parse a full `site=spec;site=spec` arming string (the
/// `NEUROSYM_FAILPOINTS` grammar). Empty segments are ignored.
///
/// # Errors
///
/// Returns a description of the first malformed entry.
pub fn parse_spec(spec: &str) -> Result<Vec<(String, FailSpec)>, String> {
    let mut entries = Vec::new();
    for entry in spec.split(';') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (site, rest) = entry
            .split_once('=')
            .ok_or_else(|| format!("failpoint entry {entry:?} is missing `=`"))?;
        let site = site.trim();
        if site.is_empty() {
            return Err(format!("failpoint entry {entry:?} has an empty site name"));
        }
        entries.push((site.to_string(), FailSpec::parse(rest)?));
    }
    Ok(entries)
}

// ------------------------------------------------------------- registry

const UNSET: u8 = 0;
const OFF: u8 = 1;
const ON: u8 = 2;

/// The fast-path switch: `OFF` after initialization means [`fire`] is a
/// single relaxed load (plus the match), exactly like
/// `nsai_tensor::par::sanitize`.
static MODE: AtomicU8 = AtomicU8::new(UNSET);

/// Entries into the armed slow path. Lets tests *prove* the disabled
/// check never reaches the registry: call [`fire`] with nothing armed
/// and assert this counter is unchanged.
static SLOW_ENTRIES: AtomicU64 = AtomicU64::new(0);

struct SiteState {
    spec: FailSpec,
    hits: u64,
    fired: u64,
    rng: Option<StdRng>,
}

impl SiteState {
    fn new(site: &str, spec: FailSpec) -> Self {
        let rng = match spec.trigger {
            FailTrigger::Probability { seed, .. } => {
                Some(StdRng::seed_from_u64(seed ^ fnv1a(site)))
            }
            _ => None,
        };
        SiteState {
            spec,
            hits: 0,
            fired: 0,
            rng,
        }
    }

    /// Record one hit and decide whether the action fires.
    fn hit(&mut self) -> Option<FailAction> {
        self.hits += 1;
        let fires = match self.spec.trigger {
            FailTrigger::Always => true,
            FailTrigger::OneIn(n) => self.hits.is_multiple_of(n),
            FailTrigger::After(n) => self.hits > n,
            FailTrigger::Probability { p, .. } => {
                let rng = self.rng.as_mut()?;
                rng.gen::<f64>() < p
            }
        };
        if fires {
            self.fired += 1;
            Some(self.spec.action)
        } else {
            None
        }
    }
}

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn registry() -> &'static Mutex<BTreeMap<String, SiteState>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, SiteState>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()).with_label("core::failpoint::registry"))
}

/// Cold path: resolve `NEUROSYM_FAILPOINTS` exactly once. A malformed
/// spec panics — a chaos run that silently arms nothing is worse than a
/// loud failure.
#[cold]
fn init_from_env() -> bool {
    let entries = match std::env::var("NEUROSYM_FAILPOINTS") {
        Ok(spec) => parse_spec(&spec).unwrap_or_else(|e| panic!("NEUROSYM_FAILPOINTS: {e}")),
        Err(_) => Vec::new(),
    };
    let mut sites = registry().lock();
    for (site, spec) in entries {
        let state = SiteState::new(&site, spec);
        sites.insert(site, state);
    }
    let armed = !sites.is_empty();
    MODE.store(if armed { ON } else { OFF }, Ordering::Relaxed);
    armed
}

/// Whether any failpoint is currently armed. In the disabled steady
/// state this is a single relaxed atomic load.
#[inline]
pub fn armed() -> bool {
    match MODE.load(Ordering::Relaxed) {
        ON => true,
        OFF => false,
        _ => init_from_env(),
    }
}

/// Evaluate the failpoint `site` and return the action to apply, if any.
/// Use [`fire`] unless the call site needs to interpret
/// [`FailAction::DelayUs`]/[`FailAction::Yield`] itself.
#[inline]
pub fn eval(site: &str) -> Option<FailAction> {
    if !armed() {
        return None;
    }
    eval_slow(site)
}

#[cold]
fn eval_slow(site: &str) -> Option<FailAction> {
    SLOW_ENTRIES.fetch_add(1, Ordering::Relaxed);
    registry().lock().get_mut(site).and_then(SiteState::hit)
}

/// Evaluate the failpoint `site`, executing panic/delay/yield actions in
/// place. Returns `true` iff the site should take its error return path
/// ([`FailAction::ReturnErr`]); sites with no error path may ignore the
/// return value (and document that they do).
///
/// Disabled cost: one relaxed atomic load.
///
/// # Panics
///
/// When the site is armed with [`FailAction::Panic`] and its trigger
/// fires — that is the injected fault.
#[inline]
pub fn fire(site: &str) -> bool {
    match eval(site) {
        None => false,
        Some(FailAction::ReturnErr) => true,
        Some(FailAction::Panic) => {
            panic!("failpoint {site}: injected panic")
        }
        Some(FailAction::DelayUs(us)) => {
            std::thread::sleep(std::time::Duration::from_micros(us.min(MAX_DELAY_US)));
            false
        }
        Some(FailAction::Yield) => {
            std::thread::yield_now();
            false
        }
    }
}

/// Hit/fire counts for one site (`None` when the site is not armed).
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SiteStats {
    /// Times the site was evaluated while armed.
    hits: u64,
    /// Times the action actually applied.
    fired: u64,
}

/// Counters for an armed site.
#[cfg(test)]
fn site_stats(site: &str) -> Option<SiteStats> {
    registry().lock().get(site).map(|s| SiteStats {
        hits: s.hits,
        fired: s.fired,
    })
}

/// How many times any [`fire`]/[`eval`] call reached the armed slow
/// path (registry lock). With nothing armed this never advances — the
/// proof that disabled sites stay on the fast path.
#[cfg(test)]
fn slow_path_entries() -> u64 {
    SLOW_ENTRIES.load(Ordering::Relaxed)
}

/// RAII arming of one or more failpoints; every site armed through the
/// guard is disarmed (and its counters discarded) when the guard drops,
/// panics included.
#[derive(Debug)]
pub struct FailpointGuard {
    sites: Vec<String>,
}

impl FailpointGuard {
    /// Arm `site` with a spec string (`"panic@1in3"`, `"delay(500)"`, …).
    ///
    /// # Panics
    ///
    /// On a malformed spec — arming typos must fail the test arming
    /// them, not silently inject nothing.
    pub fn arm(site: &str, spec: &str) -> FailpointGuard {
        let spec = FailSpec::parse(spec).unwrap_or_else(|e| panic!("failpoint {site}: {e}"));
        Self::arm_spec(site, spec)
    }

    /// Arm `site` with an already-built [`FailSpec`].
    pub fn arm_spec(site: &str, spec: FailSpec) -> FailpointGuard {
        Self::arm_entries(vec![(site.to_string(), spec)])
    }

    /// Arm every `site=spec` entry of a `;`-separated string — the same
    /// grammar as `NEUROSYM_FAILPOINTS`.
    ///
    /// # Panics
    ///
    /// On a malformed spec.
    pub fn arm_many(spec: &str) -> FailpointGuard {
        let entries = parse_spec(spec).unwrap_or_else(|e| panic!("failpoint spec: {e}"));
        Self::arm_entries(entries)
    }

    fn arm_entries(entries: Vec<(String, FailSpec)>) -> FailpointGuard {
        // Resolve the env exactly once before guard arming so a later
        // lazy init cannot clobber MODE back to OFF.
        let _ = armed();
        let mut sites = registry().lock();
        let mut names = Vec::with_capacity(entries.len());
        for (site, spec) in entries {
            let state = SiteState::new(&site, spec);
            sites.insert(site.clone(), state);
            names.push(site);
        }
        if !sites.is_empty() {
            MODE.store(ON, Ordering::Relaxed);
        }
        FailpointGuard { sites: names }
    }
}

impl Drop for FailpointGuard {
    fn drop(&mut self) {
        let mut sites = registry().lock();
        for site in &self.sites {
            sites.remove(site);
        }
        if sites.is_empty() {
            MODE.store(OFF, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global, so tests touching shared state use
    // disjoint site names; the fast-path proof additionally serializes
    // against arming through a lock.
    static QUIESCE: Mutex<()> = Mutex::new(());

    #[test]
    fn parse_grammar_round_trips() {
        assert_eq!(
            FailSpec::parse("panic").unwrap(),
            FailSpec {
                action: FailAction::Panic,
                trigger: FailTrigger::Always
            }
        );
        assert_eq!(
            FailSpec::parse("return_err@1in3").unwrap(),
            FailSpec {
                action: FailAction::ReturnErr,
                trigger: FailTrigger::OneIn(3)
            }
        );
        assert_eq!(
            FailSpec::parse("delay(100)@after2").unwrap(),
            FailSpec {
                action: FailAction::DelayUs(100),
                trigger: FailTrigger::After(2)
            }
        );
        assert_eq!(
            FailSpec::parse("yield@p0.5s42").unwrap(),
            FailSpec {
                action: FailAction::Yield,
                trigger: FailTrigger::Probability { p: 0.5, seed: 42 }
            }
        );
        // Delay clamps.
        assert_eq!(
            FailSpec::parse("delay(9999999999)").unwrap().action,
            FailAction::DelayUs(MAX_DELAY_US)
        );
        for bad in [
            "boom",
            "panic@",
            "panic@1in0",
            "panic@afterx",
            "panic@p1.5",
            "panic@p0.5sx",
            "delay()",
        ] {
            assert!(FailSpec::parse(bad).is_err(), "{bad:?} should not parse");
        }
        assert!(parse_spec("a=panic; b=yield@1in2 ;;").is_ok());
        assert!(parse_spec("nosite").is_err());
        assert!(parse_spec("=panic").is_err());
    }

    #[test]
    fn counting_triggers_are_exact() {
        let _q = QUIESCE.lock();
        let site = "core::failpoint::test_one_in";
        let _g = FailpointGuard::arm(site, "return_err@1in3");
        let fires: Vec<bool> = (0..9).map(|_| fire(site)).collect();
        assert_eq!(
            fires,
            vec![false, false, true, false, false, true, false, false, true]
        );
        let stats = site_stats(site).unwrap();
        assert_eq!((stats.hits, stats.fired), (9, 3));

        let site = "core::failpoint::test_after";
        let _g = FailpointGuard::arm(site, "return_err@after2");
        let fires: Vec<bool> = (0..5).map(|_| fire(site)).collect();
        assert_eq!(fires, vec![false, false, true, true, true]);
    }

    #[test]
    fn probability_trigger_is_seed_deterministic() {
        let _q = QUIESCE.lock();
        let site = "core::failpoint::test_prob";
        let run = |seed: u64| -> Vec<bool> {
            let _g = FailpointGuard::arm(site, &format!("return_err@p0.5s{seed}"));
            (0..64).map(|_| fire(site)).collect()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
        // p=0 never fires, p=1 always fires.
        let _g = FailpointGuard::arm(site, "return_err@p0");
        assert!((0..32).all(|_| !fire(site)));
        let _g = FailpointGuard::arm(site, "return_err@p1");
        assert!((0..32).all(|_| fire(site)));
    }

    #[test]
    fn panic_action_names_the_site() {
        let _q = QUIESCE.lock();
        let site = "core::failpoint::test_panic";
        let _g = FailpointGuard::arm(site, "panic");
        let err = std::panic::catch_unwind(|| fire(site)).expect_err("must panic");
        let msg = err.downcast::<String>().expect("string payload");
        assert!(msg.contains(site), "{msg}");
    }

    #[test]
    fn guard_disarms_on_drop_and_nested_guards_compose() {
        let _q = QUIESCE.lock();
        let a = "core::failpoint::test_drop_a";
        let b = "core::failpoint::test_drop_b";
        {
            let _ga = FailpointGuard::arm(a, "return_err");
            {
                let _gb = FailpointGuard::arm(b, "return_err");
                assert!(fire(a) && fire(b));
            }
            assert!(fire(a));
            assert!(!fire(b), "b disarmed when its guard dropped");
        }
        assert!(!fire(a));
        assert!(site_stats(a).is_none());
    }

    #[test]
    fn disabled_check_never_reaches_the_slow_path() {
        // The acceptance-criteria proof: with nothing armed, `fire` is
        // the MODE load only — it must not touch the registry, so the
        // slow-path entry counter cannot advance.
        let _q = QUIESCE.lock();
        assert!(!armed(), "test requires a disarmed registry");
        let before = slow_path_entries();
        for _ in 0..100_000 {
            assert!(!fire("core::failpoint::test_cold_site"));
        }
        assert_eq!(
            slow_path_entries(),
            before,
            "disabled fire() took the slow path"
        );
    }
}
