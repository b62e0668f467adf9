//! Database-side fault injection: a seeded, deterministic plan of
//! connection refusals, mid-COPY crashes, crash-after-commit acks, and
//! *latency* faults (slow nodes and one-shot stalls), threaded through
//! the session/COPY/commit/scan paths.
//!
//! The compute engine already has a scripted [`sparklet`
//! `FailureInjector`]; this is the database-side analog. Three layers:
//!
//! * **Scripted one-shots** ([`FaultInjector::inject_once`],
//!   [`FaultInjector::stall_once`]) — "refuse the next connect", "drop
//!   the next COPY mid-stream", "stall the next scan on node 2". Fully
//!   deterministic; the unit-test surface.
//! * **A seeded plan** ([`FaultPlan`], armed via
//!   [`FaultInjector::arm`]) — per-touchpoint firing probabilities
//!   drawn from one seeded PRNG, with a total *budget* of faults the
//!   plan may fire before going quiet. The budget is what makes chaos
//!   schedules survivable: a retry policy with more attempts than the
//!   plan has budget always wins eventually. Stall probabilities share
//!   the same RNG and budget as the fail-stop probabilities.
//! * **Grey failures** ([`FaultInjector::set_latency_profile`],
//!   [`FaultInjector::slow_node`]) — a per-site nominal service time
//!   multiplied by a per-node slowdown factor. A factor of 1.0 models
//!   the site's clean-run cost; a factor of 50.0 makes the node alive
//!   but 50× slower, the grey failure the connector's health tracker
//!   and hedged reads must route around.
//!
//! Every fired fault is recorded as a [`obs::EventKind::FaultInject`]
//! event and a `fault.*` counter, so `dc_events` / `dc_counters` show
//! exactly what the chaos layer did to a run. Base-profile delays with
//! factor 1.0 are *not* counted as faults: they are the simulated
//! clean-run service time, not an injected anomaly.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use common::clock::Clock;
use common::locks;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::error::DbResult;
use crate::session::Cancel;

/// A database touchpoint where a fault can fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// `Cluster::connect` fails with `DbError::ConnectionRefused`.
    Connect,
    /// COPY dies after shipping/parsing the data but before it is
    /// applied (`DbError::ConnectionLost`); the transaction aborts.
    MidCopy,
    /// The commit lands in the database but the acknowledgement is lost
    /// (`DbError::ConnectionLost`) — the Sec. 2.2.2 hazard: the client
    /// cannot tell a successful commit from a failed one.
    PostCommit,
    /// The tuple mover dies at the start of a moveout/mergeout pass over
    /// one store. Mover passes mutate a store atomically under its write
    /// lock, so a crash here means the pass simply never ran — visible
    /// data must be byte-identical with or without the crash.
    Moveout,
    /// A rebalance migration dies after copying a range to its target
    /// but before the plan records the copy as durable
    /// (`DbError::RebalanceInterrupted`). The plan stays pending;
    /// `run_rebalance` resumes idempotently, re-copying any range whose
    /// target restarted since the copy.
    Rebalance,
}

impl FaultSite {
    fn label(self) -> &'static str {
        match self {
            FaultSite::Connect => "connect_refused",
            FaultSite::MidCopy => "mid_copy_crash",
            FaultSite::PostCommit => "post_commit_crash",
            FaultSite::Moveout => "moveout_crash",
            FaultSite::Rebalance => "rebalance_crash",
        }
    }

    fn counter(self) -> obs::names::Counter {
        match self {
            FaultSite::Connect => obs::names::FAULT_CONNECT_REFUSED,
            FaultSite::MidCopy => obs::names::FAULT_MID_COPY,
            FaultSite::PostCommit => obs::names::FAULT_POST_COMMIT,
            FaultSite::Moveout => obs::names::FAULT_MOVEOUT,
            FaultSite::Rebalance => obs::names::FAULT_REBALANCE,
        }
    }
}

/// A path where injected latency (a slowdown factor or a stall)
/// applies. Distinct from [`FaultSite`]: these operations *succeed*,
/// just slowly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LatencySite {
    /// `Cluster::connect`.
    Connect,
    /// COPY statement execution (per COPY, before rows are applied).
    Copy,
    /// Table scans issued through `Session::query`.
    Scan,
}

impl LatencySite {
    fn label(self) -> &'static str {
        match self {
            LatencySite::Connect => "connect",
            LatencySite::Copy => "copy",
            LatencySite::Scan => "scan",
        }
    }

    fn counter(self) -> obs::names::Counter {
        match self {
            LatencySite::Connect => obs::names::FAULT_SLOW_CONNECT,
            LatencySite::Copy => obs::names::FAULT_SLOW_COPY,
            LatencySite::Scan => obs::names::FAULT_SLOW_SCAN,
        }
    }
}

/// Per-site nominal service times. Each node's effective latency at a
/// site is `base × slowdown_factor(node)`; the default profile is all
/// zeros, so slowdown factors alone do nothing until a profile is set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyProfile {
    pub connect: Duration,
    pub copy: Duration,
    pub scan: Duration,
}

impl LatencyProfile {
    /// The same nominal service time at every site.
    pub fn uniform(d: Duration) -> LatencyProfile {
        LatencyProfile {
            connect: d,
            copy: d,
            scan: d,
        }
    }

    fn base(&self, site: LatencySite) -> Duration {
        match site {
            LatencySite::Connect => self.connect,
            LatencySite::Copy => self.copy,
            LatencySite::Scan => self.scan,
        }
    }
}

/// A seeded, deterministic schedule of injectable faults.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the plan's PRNG; the same seed over the same operation
    /// sequence fires the same faults.
    pub seed: u64,
    /// Probability that a `connect` is refused.
    pub refuse_connect: f64,
    /// Probability that a COPY crashes mid-stream.
    pub mid_copy_crash: f64,
    /// Probability that a commit's acknowledgement is lost.
    pub post_commit_crash: f64,
    /// Probability that a tuple-mover pass over one store crashes
    /// before doing any work.
    pub moveout_crash: f64,
    /// Probability that a rebalance migration crashes after copying its
    /// range, leaving the plan pending.
    pub rebalance_crash: f64,
    /// Probability that a connect stalls for [`FaultPlan::stall`].
    pub stall_connect: f64,
    /// Probability that a COPY stalls for [`FaultPlan::stall`].
    pub stall_copy: f64,
    /// Probability that a scan stalls for [`FaultPlan::stall`].
    pub stall_scan: f64,
    /// How long a seeded stall lasts when it fires.
    pub stall: Duration,
    /// Total faults the plan may fire before going quiet. Bounds the
    /// chaos so retries can always make progress. Stalls draw from the
    /// same budget as fail-stop faults.
    pub budget: u64,
}

impl FaultPlan {
    /// A quiet plan (all probabilities zero) with the given seed;
    /// combine with the `with_*` builders.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            refuse_connect: 0.0,
            mid_copy_crash: 0.0,
            post_commit_crash: 0.0,
            moveout_crash: 0.0,
            rebalance_crash: 0.0,
            stall_connect: 0.0,
            stall_copy: 0.0,
            stall_scan: 0.0,
            stall: Duration::from_millis(2),
            budget: u64::MAX,
        }
    }

    pub fn with_refuse_connect(mut self, p: f64) -> FaultPlan {
        self.refuse_connect = p;
        self
    }

    pub fn with_mid_copy_crash(mut self, p: f64) -> FaultPlan {
        self.mid_copy_crash = p;
        self
    }

    pub fn with_post_commit_crash(mut self, p: f64) -> FaultPlan {
        self.post_commit_crash = p;
        self
    }

    pub fn with_moveout_crash(mut self, p: f64) -> FaultPlan {
        self.moveout_crash = p;
        self
    }

    pub fn with_rebalance_crash(mut self, p: f64) -> FaultPlan {
        self.rebalance_crash = p;
        self
    }

    pub fn with_stall_connect(mut self, p: f64) -> FaultPlan {
        self.stall_connect = p;
        self
    }

    pub fn with_stall_copy(mut self, p: f64) -> FaultPlan {
        self.stall_copy = p;
        self
    }

    pub fn with_stall_scan(mut self, p: f64) -> FaultPlan {
        self.stall_scan = p;
        self
    }

    /// Duration of each seeded stall (default 2ms).
    pub fn with_stall(mut self, stall: Duration) -> FaultPlan {
        self.stall = stall;
        self
    }

    pub fn with_budget(mut self, budget: u64) -> FaultPlan {
        self.budget = budget;
        self
    }

    fn probability(&self, site: FaultSite) -> f64 {
        match site {
            FaultSite::Connect => self.refuse_connect,
            FaultSite::MidCopy => self.mid_copy_crash,
            FaultSite::PostCommit => self.post_commit_crash,
            FaultSite::Moveout => self.moveout_crash,
            FaultSite::Rebalance => self.rebalance_crash,
        }
    }

    fn stall_probability(&self, site: LatencySite) -> f64 {
        match site {
            LatencySite::Connect => self.stall_connect,
            LatencySite::Copy => self.stall_copy,
            LatencySite::Scan => self.stall_scan,
        }
    }

    fn has_stalls(&self) -> bool {
        self.stall_connect > 0.0 || self.stall_copy > 0.0 || self.stall_scan > 0.0
    }
}

struct ActivePlan {
    plan: FaultPlan,
    rng: StdRng,
    fired: u64,
}

#[derive(Default)]
struct LatencyState {
    profile: LatencyProfile,
    factors: HashMap<usize, f64>,
    stalls: Vec<(LatencySite, usize, Duration)>,
}

impl LatencyState {
    fn is_quiet(&self) -> bool {
        self.profile == LatencyProfile::default() && self.stalls.is_empty()
    }
}

/// The cluster's fault-injection switchboard. Disarmed and empty by
/// default, so production paths pay one relaxed lock per touchpoint
/// only when something is armed (a single `Mutex<Option<..>>` check;
/// the latency path short-circuits on a relaxed atomic flag).
pub struct FaultInjector {
    plan: Mutex<Option<ActivePlan>>,
    scripted: Mutex<Vec<FaultSite>>,
    latency: Mutex<LatencyState>,
    /// Fast path: true iff `apply_latency` could possibly delay, i.e.
    /// a latency profile/stall is set or the armed plan has nonzero
    /// stall probabilities.
    may_delay: AtomicBool,
    total_fired: std::sync::atomic::AtomicU64,
}

impl Default for FaultInjector {
    fn default() -> FaultInjector {
        FaultInjector {
            plan: Mutex::new(&locks::FAULT_PLAN, None),
            scripted: Mutex::new(&locks::FAULT_SCRIPTED, Vec::new()),
            latency: Mutex::new(&locks::FAULT_LATENCY, LatencyState::default()),
            may_delay: AtomicBool::new(false),
            total_fired: std::sync::atomic::AtomicU64::new(0),
        }
    }
}

impl FaultInjector {
    /// Arm a seeded plan (replacing any previous one).
    pub fn arm(&self, plan: FaultPlan) {
        let rng = StdRng::seed_from_u64(plan.seed);
        let has_stalls = plan.has_stalls();
        *self.plan.lock() = Some(ActivePlan {
            plan,
            rng,
            fired: 0,
        });
        if has_stalls {
            self.may_delay.store(true, Ordering::Relaxed);
        }
    }

    /// Disarm the plan, drop pending scripted faults, and clear all
    /// latency state (profile, slowdown factors, pending stalls).
    /// Returns how many faults the armed plan fired.
    pub fn disarm(&self) -> u64 {
        self.scripted.lock().clear();
        *self.latency.lock() = LatencyState::default();
        self.may_delay.store(false, Ordering::Relaxed);
        self.plan.lock().take().map(|a| a.fired).unwrap_or(0)
    }

    /// Script a one-shot fault: the next operation hitting `site` fails.
    pub fn inject_once(&self, site: FaultSite) {
        self.scripted.lock().push(site);
    }

    /// Set the nominal per-site service times simulated at every node.
    /// Factor-1.0 delays from the profile model the clean-run cost and
    /// are not counted as injected faults.
    pub fn set_latency_profile(&self, profile: LatencyProfile) {
        let mut st = self.latency.lock();
        st.profile = profile;
        let quiet = st.is_quiet();
        drop(st);
        if !quiet {
            self.may_delay.store(true, Ordering::Relaxed);
        }
    }

    /// Make `node` grey: every latency site there takes `factor ×` the
    /// profile's nominal time. Requires a profile to have any effect.
    pub fn slow_node(&self, node: usize, factor: f64) {
        self.latency.lock().factors.insert(node, factor.max(0.0));
    }

    /// Restore `node` to the nominal (factor 1.0) service time.
    pub fn clear_slow_node(&self, node: usize) {
        self.latency.lock().factors.remove(&node);
    }

    /// Script a one-shot stall: the next operation hitting `site` on
    /// `node` sleeps an extra `delay` (on top of any profile latency).
    pub fn stall_once(&self, site: LatencySite, node: usize, delay: Duration) {
        let mut st = self.latency.lock();
        st.stalls.push((site, node, delay));
        drop(st);
        self.may_delay.store(true, Ordering::Relaxed);
    }

    /// Total faults fired since the injector was created.
    pub fn fired(&self) -> u64 {
        self.total_fired.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Consulted by the engine at each touchpoint.
    pub(crate) fn should_fire(&self, site: FaultSite, node: usize) -> bool {
        let scripted = {
            let mut scripted = self.scripted.lock();
            match scripted.iter().position(|&s| s == site) {
                Some(i) => {
                    scripted.remove(i);
                    true
                }
                None => false,
            }
        };
        let fire = scripted || {
            let mut guard = self.plan.lock();
            match guard.as_mut() {
                Some(active) if active.fired < active.plan.budget => {
                    let p = active.plan.probability(site);
                    let fire = p > 0.0 && active.rng.random_bool(p);
                    if fire {
                        active.fired += 1;
                    }
                    fire
                }
                _ => false,
            }
        };
        if fire {
            self.total_fired
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            obs::global().emit(obs::EventKind::FaultInject, |e| {
                e.node = Some(node as u64);
                e.detail = format!("{} at node {node}", site.label());
            });
            obs::global().incr(site.counter());
            obs::global().incr(obs::names::FAULT_INJECTED);
        }
        fire
    }

    /// Compute (without sleeping) the delay an operation at `site` on
    /// `node` should experience right now. Consumes one-shot stalls and
    /// seeded stall-plan budget. The second component of the return is
    /// true when the delay is an injected *fault* (slowdown factor > 1
    /// or a stall) rather than just the nominal profile time.
    fn delay_for(&self, site: LatencySite, node: usize) -> (Duration, bool) {
        let (mut delay, mut faulted) = {
            let mut st = self.latency.lock();
            let base = st.profile.base(site);
            let factor = st.factors.get(&node).copied().unwrap_or(1.0);
            let scaled = base.mul_f64(factor);
            let mut faulted = factor > 1.0 && scaled > base;
            let mut delay = scaled;
            if let Some(i) = st
                .stalls
                .iter()
                .position(|&(s, n, _)| s == site && n == node)
            {
                delay += st.stalls.remove(i).2;
                faulted = true;
            }
            (delay, faulted)
        };
        {
            let mut guard = self.plan.lock();
            if let Some(active) = guard.as_mut() {
                if active.fired < active.plan.budget {
                    let p = active.plan.stall_probability(site);
                    if p > 0.0 && active.rng.random_bool(p) {
                        active.fired += 1;
                        delay += active.plan.stall;
                        faulted = true;
                    }
                }
            }
        }
        (delay, faulted)
    }

    /// Consulted by the engine at each latency touchpoint: waits out
    /// whatever grey-failure delay is due at `site` on `node`, or less
    /// when `cancel` fires first, which ends the wait with
    /// [`DbError::Cancelled`]. Injected slowdowns and stalls are
    /// recorded as faults; nominal profile time is not.
    pub(crate) fn apply_latency(
        &self,
        site: LatencySite,
        node: usize,
        cancel: &Cancel,
        clock: Clock,
    ) -> DbResult<()> {
        if !self.may_delay.load(Ordering::Relaxed) {
            return Ok(());
        }
        let (delay, faulted) = self.delay_for(site, node);
        if faulted {
            self.total_fired
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            obs::global().emit(obs::EventKind::FaultInject, |e| {
                e.node = Some(node as u64);
                e.detail = format!(
                    "slow {} at node {node} ({} us)",
                    site.label(),
                    delay.as_micros()
                );
            });
            obs::global().incr(site.counter());
            obs::global().incr(obs::names::FAULT_INJECTED);
        }
        if delay.is_zero() {
            return Ok(());
        }
        // Tell the lock-order witness a deliberate stall is about to
        // happen: waiting while holding an instrumented lock turns an
        // injected grey failure into a real convoy, which the witness
        // reports as a `lockwitness.hazards` count.
        parking_lot::witness::note_sleep(obs::names::FAULT_DELAY);
        cancel.sleep(clock, delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_faults_fire_once_in_order() {
        let inj = FaultInjector::default();
        inj.inject_once(FaultSite::Connect);
        inj.inject_once(FaultSite::MidCopy);
        assert!(inj.should_fire(FaultSite::Connect, 0));
        assert!(!inj.should_fire(FaultSite::Connect, 0));
        assert!(inj.should_fire(FaultSite::MidCopy, 1));
        assert!(!inj.should_fire(FaultSite::MidCopy, 1));
        assert_eq!(inj.fired(), 2);
    }

    #[test]
    fn plan_respects_budget_and_seed() {
        let inj = FaultInjector::default();
        inj.arm(FaultPlan::seeded(7).with_refuse_connect(1.0).with_budget(3));
        let fired = (0..100)
            .filter(|_| inj.should_fire(FaultSite::Connect, 0))
            .count();
        assert_eq!(fired, 3, "budget caps the plan");
        assert_eq!(inj.disarm(), 3);
        // Same seed, same outcomes.
        let a = FaultInjector::default();
        let b = FaultInjector::default();
        for i in [&a, &b] {
            i.arm(FaultPlan::seeded(42).with_mid_copy_crash(0.5));
        }
        let fa: Vec<bool> = (0..50)
            .map(|_| a.should_fire(FaultSite::MidCopy, 0))
            .collect();
        let fb: Vec<bool> = (0..50)
            .map(|_| b.should_fire(FaultSite::MidCopy, 0))
            .collect();
        assert_eq!(fa, fb);
    }

    #[test]
    fn disarmed_injector_never_fires() {
        let inj = FaultInjector::default();
        assert!(!inj.should_fire(FaultSite::Connect, 0));
        assert!(!inj.should_fire(FaultSite::PostCommit, 0));
        inj.arm(FaultPlan::seeded(1).with_post_commit_crash(1.0));
        assert!(inj.should_fire(FaultSite::PostCommit, 0));
        inj.disarm();
        assert!(!inj.should_fire(FaultSite::PostCommit, 0));
    }

    #[test]
    fn slow_node_scales_profile_and_counts_as_fault() {
        let inj = FaultInjector::default();
        // No profile, no delay — even with a factor set.
        inj.slow_node(2, 50.0);
        let (d, f) = inj.delay_for(LatencySite::Scan, 2);
        assert_eq!(d, Duration::ZERO);
        assert!(!f);
        inj.set_latency_profile(LatencyProfile::uniform(Duration::from_micros(100)));
        let (d, f) = inj.delay_for(LatencySite::Scan, 2);
        assert_eq!(d, Duration::from_millis(5));
        assert!(f, "slowdown factor > 1 is an injected fault");
        // Other nodes run at the nominal time, not counted as faults.
        let (d, f) = inj.delay_for(LatencySite::Connect, 0);
        assert_eq!(d, Duration::from_micros(100));
        assert!(!f);
        inj.clear_slow_node(2);
        let (d, f) = inj.delay_for(LatencySite::Scan, 2);
        assert_eq!(d, Duration::from_micros(100));
        assert!(!f);
    }

    #[test]
    fn stall_once_fires_once_on_matching_site_and_node() {
        let inj = FaultInjector::default();
        inj.stall_once(LatencySite::Copy, 1, Duration::from_millis(3));
        // Wrong node / site: untouched.
        assert_eq!(inj.delay_for(LatencySite::Copy, 0).0, Duration::ZERO);
        assert_eq!(inj.delay_for(LatencySite::Scan, 1).0, Duration::ZERO);
        let (d, f) = inj.delay_for(LatencySite::Copy, 1);
        assert_eq!(d, Duration::from_millis(3));
        assert!(f);
        // Consumed.
        assert_eq!(inj.delay_for(LatencySite::Copy, 1).0, Duration::ZERO);
    }

    #[test]
    fn seeded_stalls_share_the_plan_budget() {
        let inj = FaultInjector::default();
        inj.arm(
            FaultPlan::seeded(9)
                .with_stall_scan(1.0)
                .with_stall(Duration::from_millis(1))
                .with_budget(2),
        );
        let stalled = (0..50)
            .filter(|_| inj.delay_for(LatencySite::Scan, 0).1)
            .count();
        assert_eq!(stalled, 2, "stalls draw from the shared budget");
        assert_eq!(inj.disarm(), 2);
    }

    #[test]
    fn disarm_clears_latency_state() {
        let inj = FaultInjector::default();
        inj.set_latency_profile(LatencyProfile::uniform(Duration::from_millis(1)));
        inj.slow_node(0, 10.0);
        inj.stall_once(LatencySite::Connect, 0, Duration::from_millis(1));
        inj.disarm();
        assert!(!inj.may_delay.load(Ordering::Relaxed));
        assert_eq!(inj.delay_for(LatencySite::Connect, 0).0, Duration::ZERO);
    }
}
