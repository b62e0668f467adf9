//! Grey-failure defenses: per-node circuit breakers, the latency
//! histogram behind the hedge delay, and deadlines.
//!
//! PR 3's retry/failover layer handles *fail-stop* faults — a node that
//! is down errors fast and the next candidate is tried. Grey failures
//! are worse: a node that is alive but 10–100× slower never errors, so
//! every piece routed through it stalls for its full service time. This
//! module holds the state the one call policy ([`crate::retry`])
//! consults to defend against them:
//!
//! * **[`HealthTracker`]** — a three-state circuit breaker per node,
//!   fed by every call the policy places:
//!
//!   ```text
//!   Closed ──(N consecutive failures)──▶ Open
//!   Open ──(cooldown elapsed, next acquire)──▶ HalfOpen
//!   HalfOpen ──(success)──▶ Closed
//!   HalfOpen ──(failure)──▶ Open          (cooldown restarts)
//!   ```
//!
//!   HalfOpen grants a bounded *probe budget*: only a few trial
//!   operations may test a recovering node, so a still-sick node cannot
//!   absorb a thundering herd the moment its cooldown lapses. Any
//!   success fully closes the breaker. The tracker also keeps one
//!   histogram of successful-op latencies, whose P99 sets the delay
//!   after which an idempotent read hedges onto a buddy node.
//!
//! * **[`Deadline`]** — an overall time budget set once at
//!   `save()`/`load()` and carried inside the job's
//!   [`crate::retry::CallPolicy`] through every retry loop, hedge, and
//!   COPY phase, so a job fails crisply at its budget instead of each
//!   layer timing out independently.
//!
//! Everything reports through the obs layer as `health.*` and
//! `breaker.*` counters, visible in the `dc_counters` system table.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use common::clock::Clock;
use common::locks;
use mppdb::Cluster;
use parking_lot::Mutex;

// ---------------------------------------------------------------------
// Deadline
// ---------------------------------------------------------------------

/// An overall time budget on one clock, propagated by value (it is
/// `Copy`) from the driver entry point down through retries, hedges,
/// and COPY phases.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    clock: Clock,
    started: Instant,
    budget: Duration,
}

impl Deadline {
    /// A deadline expiring `budget` from now on `clock`.
    pub fn within(clock: Clock, budget: Duration) -> Deadline {
        Deadline {
            clock,
            started: clock.now(),
            budget,
        }
    }

    pub fn remaining(&self) -> Duration {
        self.budget.saturating_sub(self.clock.since(self.started))
    }

    pub fn expired(&self) -> bool {
        self.remaining().is_zero()
    }

    pub fn elapsed_ms(&self) -> u64 {
        self.clock.since(self.started).as_millis() as u64
    }
}

// ---------------------------------------------------------------------
// Circuit breakers
// ---------------------------------------------------------------------

/// Breaker states for one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreakerState {
    /// Healthy: all traffic admitted.
    #[default]
    Closed,
    /// Sick: traffic steered away until the cooldown lapses.
    Open,
    /// Recovering: a bounded probe budget may test the node.
    HalfOpen,
}

/// Tuning knobs for [`HealthTracker`].
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// Consecutive failures that open a closed breaker.
    pub failure_threshold: u32,
    /// How long an open breaker rejects traffic before allowing probes.
    pub open_cooldown: Duration,
    /// Trial operations admitted while half-open.
    pub half_open_probes: u32,
}

impl Default for HealthConfig {
    fn default() -> HealthConfig {
        HealthConfig {
            failure_threshold: 3,
            open_cooldown: Duration::from_millis(50),
            half_open_probes: 2,
        }
    }
}

#[derive(Debug, Default)]
struct NodeHealth {
    consecutive_failures: u32,
    state: BreakerState,
    opened_at: Option<Instant>,
    probes_left: u32,
}

impl NodeHealth {
    /// Sort key for steering: closed, half-open, open-past-cooldown,
    /// open.
    fn rank(&self, clock: Clock, cooldown: Duration) -> u8 {
        match self.state {
            BreakerState::Closed => 0,
            BreakerState::HalfOpen => 1,
            BreakerState::Open if self.cooled(clock, cooldown) => 2,
            BreakerState::Open => 3,
        }
    }

    fn cooled(&self, clock: Clock, cooldown: Duration) -> bool {
        self.opened_at
            .map(|t| clock.since(t) >= cooldown)
            .unwrap_or(true)
    }
}

/// Minimum samples before a P99 (and thus an auto hedge delay) exists.
const MIN_P99_SAMPLES: u64 = 20;
/// The derived hedge delay never drops below this: clean runs with
/// µs-scale operations must not hedge.
const MIN_HEDGE_DELAY: Duration = Duration::from_millis(10);
/// Hedge after this multiple of the observed P99.
const HEDGE_P99_MULTIPLIER: u32 = 3;

/// Per-node circuit breakers for one cluster, plus the latency
/// histogram the hedge delay derives from.
///
/// Slots are keyed by node id and grow with the ids the tracker is
/// shown: an elastic cluster hands out ids past its original size, and
/// each needs a breaker of its own.
///
/// Successful-op latencies land in a log-scale [`obs::Histo`], so the
/// hedge delay derives from a *true* P99 quantile (exact to one bucket,
/// never forgetting the tail) instead of the old 512-sample ring whose
/// P99 shifted as old samples were overwritten.
pub struct HealthTracker {
    cfg: HealthConfig,
    /// What cooldowns and call latencies are measured on.
    pub(crate) clock: Clock,
    nodes: Mutex<Vec<NodeHealth>>,
    recent: Mutex<obs::Histo>,
}

impl HealthTracker {
    /// A tracker pre-sized for `node_count` nodes.
    pub fn with_config(node_count: usize, cfg: HealthConfig, clock: Clock) -> HealthTracker {
        HealthTracker {
            cfg,
            clock,
            nodes: Mutex::new(
                &locks::HEALTH_NODES,
                (0..node_count).map(|_| NodeHealth::default()).collect(),
            ),
            recent: Mutex::new(&locks::HEALTH_RECENT, obs::Histo::new()),
        }
    }

    /// Apply `f` to `node`'s slot, creating it (closed) on first sight.
    fn with_node<R>(&self, node: usize, f: impl FnOnce(&mut NodeHealth) -> R) -> R {
        let mut nodes = self.nodes.lock();
        if node >= nodes.len() {
            nodes.resize_with(node + 1, NodeHealth::default);
        }
        f(&mut nodes[node])
    }

    /// Record a successful operation against `node`. Any success fully
    /// closes the node's breaker.
    pub fn record_success(&self, node: usize, latency: Duration) {
        let closed = self.with_node(node, |nh| {
            nh.consecutive_failures = 0;
            let was_tripped = nh.state != BreakerState::Closed;
            nh.state = BreakerState::Closed;
            nh.opened_at = None;
            nh.probes_left = 0;
            was_tripped
        });
        if closed {
            self.breaker_event(node, "closed");
            obs::global().incr(obs::names::BREAKER_CLOSE);
        }
        self.recent.lock().record(latency.as_micros() as u64);
        obs::global().incr(obs::names::HEALTH_SUCCESSES);
    }

    /// Record a failed (transient-errored) operation against `node`.
    pub fn record_failure(&self, node: usize) {
        let opened = self.with_node(node, |nh| {
            nh.consecutive_failures = nh.consecutive_failures.saturating_add(1);
            let open = match nh.state {
                BreakerState::Closed => nh.consecutive_failures >= self.cfg.failure_threshold,
                BreakerState::HalfOpen => true,
                // Already open: leave the cooldown clock running.
                BreakerState::Open => false,
            };
            if open {
                nh.state = BreakerState::Open;
                nh.opened_at = Some(self.clock.now());
                nh.probes_left = 0;
            }
            open
        });
        if opened {
            self.breaker_event(node, "opened");
            obs::global().incr(obs::names::BREAKER_OPEN);
        }
        obs::global().incr(obs::names::HEALTH_FAILURES);
    }

    fn breaker_event(&self, node: usize, what: &str) {
        obs::global().emit(obs::EventKind::BreakerTrip, |e| {
            e.node = Some(node as u64);
            e.detail = format!("breaker {what} for node {node}");
        });
    }

    /// Current breaker state (read-only; does not consume probes or
    /// promote an open breaker).
    pub fn state(&self, node: usize) -> BreakerState {
        self.nodes
            .lock()
            .get(node)
            .map_or(BreakerState::Closed, |nh| nh.state)
    }

    /// Ask the breaker to admit one operation against `node`. While
    /// half-open, this consumes one probe; an open breaker past its
    /// cooldown transitions to half-open (and consumes the first
    /// probe). Returns false when the node should not be tried.
    pub fn acquire(&self, node: usize) -> bool {
        let (admitted, promoted) = self.with_node(node, |nh| match nh.state {
            BreakerState::Closed => (true, false),
            BreakerState::Open if nh.cooled(self.clock, self.cfg.open_cooldown) => {
                nh.state = BreakerState::HalfOpen;
                nh.probes_left = self.cfg.half_open_probes.saturating_sub(1);
                (true, true)
            }
            BreakerState::HalfOpen if nh.probes_left > 0 => {
                nh.probes_left -= 1;
                (true, false)
            }
            BreakerState::Open | BreakerState::HalfOpen => (false, false),
        });
        if promoted {
            self.breaker_event(node, "half-open");
            obs::global().incr(obs::names::BREAKER_HALF_OPEN);
        }
        if !admitted {
            obs::global().incr(obs::names::BREAKER_REJECTED);
        }
        admitted
    }

    /// Stable-sort a candidate list so healthy nodes come first:
    /// closed breakers, then half-open, then open-past-cooldown, then
    /// open. Ties keep the caller's (locality-aware) order.
    pub fn reorder(&self, order: &mut [usize]) {
        let nodes = self.nodes.lock();
        order.sort_by_key(|&n| {
            nodes
                .get(n)
                .map_or(0, |nh| nh.rank(self.clock, self.cfg.open_cooldown))
        });
    }

    /// P99 of successful-op latencies across all nodes — the histogram
    /// quantile (upper bucket bound clamped to the observed min/max) —
    /// once enough samples exist.
    pub fn observed_p99(&self) -> Option<Duration> {
        let h = self.recent.lock();
        (h.count() >= MIN_P99_SAMPLES).then(|| Duration::from_micros(h.quantile(0.99)))
    }

    /// The delay after which a hedge launches when none is fixed:
    /// `max(3 × P99, 10ms)` once enough samples exist, else `None` (no
    /// hedging until the tracker has seen real latencies).
    pub fn hedge_delay(&self) -> Option<Duration> {
        self.observed_p99()
            .map(|p99| (p99 * HEDGE_P99_MULTIPLIER).max(MIN_HEDGE_DELAY))
    }
}

/// Process-wide registry of health trackers, one per cluster, keyed by
/// [`Cluster::id`] so independent test clusters never share scores.
/// Every job's `CallPolicy` against the same cluster feeds the same
/// tracker — that sharing is what lets the S2V driver's failures steer
/// V2S piece placement and vice versa.
pub fn tracker_for(cluster: &Cluster) -> Arc<HealthTracker> {
    static REGISTRY: OnceLock<Mutex<HashMap<u64, Arc<HealthTracker>>>> = OnceLock::new();
    let registry = REGISTRY.get_or_init(|| Mutex::new(&locks::HEALTH_REGISTRY, HashMap::new()));
    let mut map = registry.lock();
    // Old clusters (lower ids) are dead test fixtures; keep the map
    // bounded across a long-lived test process.
    if map.len() > 256 {
        if let Some(&oldest) = map.keys().min() {
            map.remove(&oldest);
        }
    }
    Arc::clone(map.entry(cluster.id()).or_insert_with(|| {
        Arc::new(HealthTracker::with_config(
            cluster.node_count(),
            HealthConfig::default(),
            cluster.clock(),
        ))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    const COOLDOWN: Duration = Duration::from_millis(5);
    const NS: Duration = Duration::from_nanos(1);

    /// A tracker with a 5ms cooldown on a clock only the test moves.
    fn tracker(node_count: usize) -> (HealthTracker, Clock) {
        let clock = Clock::manual();
        let cfg = HealthConfig {
            open_cooldown: COOLDOWN,
            ..HealthConfig::default()
        };
        (HealthTracker::with_config(node_count, cfg, clock), clock)
    }

    #[test]
    fn deadline_counts_down_and_expires() {
        let clock = Clock::manual();
        let d = Deadline::within(clock, Duration::from_millis(20));
        assert_eq!(d.remaining(), Duration::from_millis(20));
        clock.advance(Duration::from_millis(20) - NS);
        assert!(!d.expired());
        assert_eq!(d.remaining(), NS);
        assert_eq!(d.elapsed_ms(), 19);
        clock.advance(NS);
        assert!(d.expired());
        assert_eq!(d.remaining(), Duration::ZERO);
        assert_eq!(d.elapsed_ms(), 20);
    }

    #[test]
    fn consecutive_failures_open_the_breaker() {
        let (t, clock) = tracker(2);
        t.record_failure(1);
        t.record_failure(1);
        assert_eq!(t.state(1), BreakerState::Closed, "below threshold");
        t.record_failure(1);
        assert_eq!(t.state(1), BreakerState::Open);
        // The other node is untouched.
        assert_eq!(t.state(0), BreakerState::Closed);
        clock.advance(COOLDOWN - NS);
        assert!(!t.acquire(1), "open breaker rejects before cooldown");
        clock.advance(NS);
        assert!(t.acquire(1), "cooldown lapsed: probe admitted");
        assert_eq!(t.state(1), BreakerState::HalfOpen);
    }

    #[test]
    fn half_open_probe_budget_is_bounded_and_success_closes() {
        let (t, clock) = tracker(1);
        for _ in 0..3 {
            t.record_failure(0);
        }
        clock.advance(COOLDOWN);
        assert!(t.acquire(0), "first probe");
        assert!(t.acquire(0), "second probe (budget 2)");
        assert!(!t.acquire(0), "probe budget exhausted");
        t.record_success(0, Duration::from_micros(100));
        assert_eq!(t.state(0), BreakerState::Closed, "success fully closes");
        assert!(t.acquire(0));
    }

    #[test]
    fn half_open_failure_reopens() {
        let (t, clock) = tracker(1);
        for _ in 0..3 {
            t.record_failure(0);
        }
        clock.advance(COOLDOWN);
        assert!(t.acquire(0));
        t.record_failure(0);
        assert_eq!(t.state(0), BreakerState::Open);
        clock.advance(COOLDOWN - NS);
        assert!(!t.acquire(0), "cooldown restarted");
        clock.advance(NS);
        assert!(t.acquire(0), "and lapses a full cooldown after the reopen");
    }

    #[test]
    fn reorder_puts_sick_nodes_last_and_is_stable() {
        let (t, _) = tracker(4);
        for _ in 0..3 {
            t.record_failure(2);
        }
        let mut order = vec![2, 0, 1, 3];
        t.reorder(&mut order);
        assert_eq!(order, vec![0, 1, 3, 2], "sick node demoted, rest stable");
    }

    #[test]
    fn hedge_delay_requires_samples_and_floors() {
        let (t, _) = tracker(2);
        assert_eq!(t.hedge_delay(), None, "no samples, no hedging");
        for _ in 0..MIN_P99_SAMPLES {
            t.record_success(0, Duration::from_micros(200));
        }
        let d = t.hedge_delay().unwrap();
        assert_eq!(d, MIN_HEDGE_DELAY, "µs-scale ops floor at the minimum");
        for _ in 0..40 {
            t.record_success(1, Duration::from_millis(8));
        }
        let d = t.hedge_delay().unwrap();
        assert!(d >= Duration::from_millis(24), "3 × P99 above the floor");
    }

    #[test]
    fn hedge_delay_is_a_true_histogram_quantile() {
        // 600 fast ops then 40 slow ones: more samples than the old
        // 512-slot ring could hold. The histogram keeps them all, so
        // rank ceil(0.99 × 640) = 634 lands in the slow group and the
        // quantile clamps to the observed max — exactly 8ms, no decay
        // or overwrite drift.
        let (t, _) = tracker(2);
        for _ in 0..600 {
            t.record_success(0, Duration::from_millis(1));
        }
        for _ in 0..40 {
            t.record_success(1, Duration::from_millis(8));
        }
        assert_eq!(t.observed_p99(), Some(Duration::from_millis(8)));
        assert_eq!(
            t.hedge_delay(),
            Some(Duration::from_millis(24)),
            "hedge delay is 3 × the histogram P99"
        );
        // A reference obs::Histo fed the same samples agrees.
        let mut reference = obs::Histo::new();
        for _ in 0..600 {
            reference.record(1_000);
        }
        for _ in 0..40 {
            reference.record(8_000);
        }
        assert_eq!(reference.quantile(0.99), 8_000);
    }
}
