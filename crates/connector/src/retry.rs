//! The one call policy: how every connector→database call is placed,
//! bounded, retried, observed and (reads only) hedged.
//!
//! The paper's connector rides on JDBC, where this layer is the
//! driver's reconnect loop; the Sec. 3.2 protocol tables make every
//! call safe to re-place and re-run. Here the loop is explicit and
//! observable (`retry.*`, `deadline.*`, `hedge.*` in `dc_counters`): a
//! [`CallPolicy`] is built once per job and carried whole to every call
//! site. Behind it there is one definition each of the candidate order
//! ([`CallPolicy::candidates`]), the steering step (`steer`), the
//! tracker feed (`observe`), the retry/backoff/deadline loop
//! ([`CallPolicy::run`]) and the hedge (`hedged_read`).
//!
//! Reads go through [`CallPolicy::read`]. Writes go through
//! [`RetryConn::run`], which holds one session across attempts so a
//! dropped session aborts its transaction; hedging needs `'static`
//! closures that may outlive the call, which is why the two signatures
//! stay distinct and why writes never hedge — a second in-flight writer
//! would break the exactly-once commit protocol.

use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use mppdb::segmentation::SegmentMap;
use mppdb::{Cluster, Session};

use crate::error::{ConnectorError, ConnectorResult};
use crate::health::{tracker_for, BreakerState, Deadline, HealthTracker};
use crate::options::ConnectorOptions;

/// Budget for any single attempt; an attempt that burned longer than
/// this is not retried even if attempts remain.
const ATTEMPT_TIMEOUT: Duration = Duration::from_secs(10);
/// Seed for the deterministic backoff jitter.
const JITTER_SEED: u64 = 0x5eed;

/// How a connector operation deals with transient failure.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Attempts before giving up (>= 1; 1 means "no retries").
    pub max_attempts: u32,
    /// Backoff before attempt 2; doubles per attempt up to `max_backoff`.
    pub base_backoff: Duration,
    pub max_backoff: Duration,
    /// Overall wall-clock budget across all attempts of one operation.
    pub deadline: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(20),
            deadline: Duration::from_secs(30),
        }
    }
}

impl RetryPolicy {
    /// Backoff before the given (1-based) attempt: exponential from
    /// `base_backoff`, capped at `max_backoff`, jittered into
    /// [50%, 100%] by a hash of (seed, op, attempt) so concurrent tasks
    /// retrying the same failure do not stampede in lockstep, yet every
    /// run backs off identically.
    pub fn backoff_for(&self, op: &str, attempt: u32) -> Duration {
        let exp = attempt.saturating_sub(1).min(16);
        let full = self
            .base_backoff
            .saturating_mul(1u32 << exp)
            .min(self.max_backoff);
        let mut h = JITTER_SEED ^ 0x9e37_79b9_7f4a_7c15;
        for b in op.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        h = (h ^ attempt as u64).wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        // Scale into [1/2, 1] of the full backoff.
        let frac = 0.5 + (h % 1000) as f64 / 2000.0;
        full.mul_f64(frac)
    }
}

/// When an idempotent read launches its buddy attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Hedge {
    Off,
    /// After `max(3 × observed P99, 10ms)`, once the tracker has samples.
    FromP99,
    After(Duration),
}

/// One execution of a call against the node it is handed. Owned and
/// `'static` so a hedge attempt can run it on a detached thread.
pub type NodeCall<T> = Arc<dyn Fn(usize) -> ConnectorResult<T> + Send + Sync>;

/// Everything that decides how one job's database calls behave. Built
/// once by [`CallPolicy::for_job`], then cloned and re-parented
/// ([`CallPolicy::under`]) — never re-assembled field by field.
#[derive(Clone)]
pub struct CallPolicy {
    pub(crate) retry: RetryPolicy,
    /// Job-wide budget every call shares; `None` means unbounded.
    pub(crate) deadline: Option<Deadline>,
    /// Per-node breakers, fed by every call and consulted to steer.
    pub(crate) health: Arc<HealthTracker>,
    /// Whether calls may leave their preferred node.
    pub(crate) failover: bool,
    pub(crate) hedge: Hedge,
    /// Parent of the per-attempt `retry.attempt` / `hedge.attempt`
    /// spans; NONE keeps the calls untraced.
    pub(crate) trace: obs::TraceCtx,
}

impl CallPolicy {
    /// The policy for one `save()`/`load()`: the job's deadline starts
    /// counting here, and the cluster's shared tracker is attached.
    pub fn for_job(cluster: &Cluster, opts: &ConnectorOptions) -> CallPolicy {
        CallPolicy {
            retry: opts.retry.clone(),
            deadline: opts.deadline.map(Deadline::within),
            health: tracker_for(cluster),
            failover: opts.failover,
            hedge: match (opts.hedge, opts.hedge_delay) {
                (false, _) => Hedge::Off,
                (true, None) => Hedge::FromP99,
                (true, Some(delay)) => Hedge::After(delay),
            },
            trace: obs::TraceCtx::NONE,
        }
    }

    /// The same policy with attempt spans parented under `trace`.
    pub fn under(&self, trace: obs::TraceCtx) -> CallPolicy {
        CallPolicy {
            trace,
            ..self.clone()
        }
    }

    /// Failover preference order for a call that belongs on
    /// `preferred`: that node (locality), then its k-safety buddies
    /// under `map` (they hold replicas of exactly its ranges), then
    /// everyone else. Just `preferred` when failover is off.
    pub(crate) fn candidates(
        &self,
        cluster: &Cluster,
        map: &SegmentMap,
        preferred: usize,
    ) -> Vec<usize> {
        let mut order = vec![preferred];
        if self.failover {
            let buddies = map.buddies(preferred, cluster.config().k_safety);
            for n in buddies.into_iter().chain(0..cluster.node_count()) {
                if !order.contains(&n) {
                    order.push(n);
                }
            }
        }
        order
    }

    /// The steering step for one attempt: drop nodes the cluster reports
    /// down or retired, stably re-rank the rest by breaker state (so
    /// healthy nodes keep their locality order), and rotate the lead
    /// with the attempt number so a sick node cannot monopolize retries.
    fn steer(
        &self,
        cluster: &Cluster,
        candidates: &[usize],
        attempt: u32,
    ) -> ConnectorResult<Steered<'_>> {
        let mut order: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&n| cluster.is_node_up(n))
            .collect();
        if order.is_empty() {
            return Err(ConnectorError::NoLiveNodes);
        }
        self.health.reorder(&mut order);
        let lead = (attempt as usize - 1) % order.len();
        order.rotate_left(lead);
        Ok(Steered {
            health: &self.health,
            order,
            next: 0,
            stranded: true,
            rejected: 0,
        })
    }

    fn hedge_delay(&self) -> Option<Duration> {
        match self.hedge {
            Hedge::Off => None,
            Hedge::FromP99 => self.health.hedge_delay(),
            Hedge::After(delay) => Some(delay),
        }
    }

    /// Run `attempt_fn` under the retry budget and the job deadline,
    /// retrying transient errors. The closure receives the 1-based
    /// attempt number. Backoff sleeps are capped at the tighter of the
    /// per-op and the job-wide deadline: when the next backoff would
    /// not fit in the remaining budget the loop gives up immediately
    /// instead of sleeping past the budget it is about to fail.
    pub fn run<T>(
        &self,
        op: &'static str,
        mut attempt_fn: impl FnMut(u32) -> ConnectorResult<T>,
    ) -> ConnectorResult<T> {
        let policy = &self.retry;
        let overall = self.deadline;
        let started = Instant::now();
        let mut attempt = 1u32;
        loop {
            if let Some(d) = overall.filter(Deadline::expired) {
                obs::global().incr(obs::names::RETRY_GAVE_UP);
                obs::global().incr(obs::names::DEADLINE_EXPIRED);
                return Err(ConnectorError::DeadlineExceeded {
                    op,
                    attempts: attempt - 1,
                    elapsed_ms: d.elapsed_ms(),
                });
            }
            let attempt_started = Instant::now();
            match attempt_fn(attempt) {
                Ok(v) => {
                    if attempt > 1 {
                        obs::global().incr("retry.recovered");
                    }
                    return Ok(v);
                }
                Err(e) if !e.is_transient() => return Err(e),
                Err(e) => {
                    if attempt >= policy.max_attempts {
                        obs::global().incr(obs::names::RETRY_GAVE_UP);
                        return Err(ConnectorError::RetriesExhausted {
                            op,
                            attempts: attempt,
                            last: Box::new(e),
                        });
                    }
                    let backoff = policy.backoff_for(op, attempt + 1);
                    // Remaining budget: the tighter of the per-op policy
                    // deadline and the job-wide deadline.
                    let policy_remaining = policy.deadline.saturating_sub(started.elapsed());
                    let remaining = match overall {
                        Some(d) => policy_remaining.min(d.remaining()),
                        None => policy_remaining,
                    };
                    let attempt_overran = attempt_started.elapsed() > ATTEMPT_TIMEOUT;
                    if backoff >= remaining || attempt_overran {
                        obs::global().incr(obs::names::RETRY_GAVE_UP);
                        if overall.map(|d| backoff >= d.remaining()).unwrap_or(false) {
                            obs::global().incr(obs::names::DEADLINE_EXPIRED);
                        }
                        return Err(ConnectorError::DeadlineExceeded {
                            op,
                            attempts: attempt,
                            elapsed_ms: started.elapsed().as_millis() as u64,
                        });
                    }
                    obs::global().incr("retry.attempts");
                    obs::global().record_time("retry.backoff_us", backoff);
                    std::thread::sleep(backoff);
                    attempt += 1;
                }
            }
        }
    }

    /// Run an idempotent call under the whole policy: every attempt of
    /// the retry loop is steered over `candidates` (the caller's
    /// locality order), observed, and hedged onto a buddy when the
    /// primary overruns the hedge delay.
    pub fn read<T: Send + 'static>(
        &self,
        cluster: &Cluster,
        op: &'static str,
        candidates: &[usize],
        exec: NodeCall<T>,
    ) -> ConnectorResult<T> {
        self.run(op, |attempt| {
            self.read_attempt(
                cluster,
                op,
                candidates,
                attempt,
                self.trace,
                Arc::clone(&exec),
            )
        })
    }

    /// One attempt of [`CallPolicy::read`], for callers that wrap each
    /// attempt in a span of their own (`trace` parents the hedge spans).
    pub(crate) fn read_attempt<T: Send + 'static>(
        &self,
        cluster: &Cluster,
        op: &'static str,
        candidates: &[usize],
        attempt: u32,
        trace: obs::TraceCtx,
        exec: NodeCall<T>,
    ) -> ConnectorResult<T> {
        let mut steered = self.steer(cluster, candidates, attempt)?;
        let primary = steered.next().ok_or(ConnectorError::NoLiveNodes)?;
        let hedge = self
            .hedge_delay()
            .and_then(|delay| Some((delay, steered.buddy(primary)?)));
        match hedge {
            Some((delay, buddy)) => {
                let health = Arc::clone(&self.health);
                let run: NodeCall<T> = Arc::new(move |n| observe(&health, n, || exec(n)));
                hedged_read(op, delay, primary, buddy, trace, run)
            }
            None => observe(&self.health, primary, || exec(primary)),
        }
    }
}

/// One attempt's walk over the steered order: yields each node whose
/// breaker admits the call, and — only if every breaker rejected — the
/// head of the order, so a breaker can never strand a retry with zero
/// targets. Reads take the first node; writes keep walking until one
/// answers.
struct Steered<'a> {
    health: &'a HealthTracker,
    order: Vec<usize>,
    next: usize,
    /// No node has been yielded yet.
    stranded: bool,
    /// Nodes skipped because their breaker rejected.
    rejected: usize,
}

impl Iterator for Steered<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while let Some(&node) = self.order.get(self.next) {
            self.next += 1;
            if self.health.acquire(node) {
                self.stranded = false;
                return Some(node);
            }
            self.rejected += 1;
        }
        std::mem::take(&mut self.stranded).then(|| self.order[0])
    }
}

impl Steered<'_> {
    /// The hedge target for `primary`: the next node in the steered
    /// order whose breaker is not open.
    fn buddy(&self, primary: usize) -> Option<usize> {
        self.order
            .iter()
            .copied()
            .find(|&n| n != primary && self.health.state(n) != BreakerState::Open)
    }
}

/// Run `call` against `node` and feed the outcome to the tracker:
/// success is a latency sample, a transient error a failure, and a
/// fatal error nothing — a syntax error says nothing about node health.
fn observe<T>(
    health: &HealthTracker,
    node: usize,
    call: impl FnOnce() -> ConnectorResult<T>,
) -> ConnectorResult<T> {
    let started = Instant::now();
    let result = call();
    match &result {
        Ok(_) => health.record_success(node, started.elapsed()),
        Err(e) if e.is_transient() => health.record_failure(node),
        Err(_) => {}
    }
    result
}

/// Run an idempotent read with a tail-latency hedge: start `run` on
/// `primary`; if no answer within `delay`, start it on `buddy` too and
/// take whichever finishes first. The loser cannot be interrupted
/// mid-call — it is abandoned on its detached pooled thread, which it
/// keeps until it returns, and its eventual result discarded (counted
/// under `hedge.cancelled`).
///
/// Each attempt runs under a `hedge.attempt` span parented at `trace`
/// (attempt 1 = primary, attempt 2 = buddy); the span is finished by
/// the worker thread when its attempt returns, so an abandoned loser
/// closes its span late rather than never.
fn hedged_read<T: Send + 'static>(
    op: &'static str,
    delay: Duration,
    primary: usize,
    buddy: usize,
    trace: obs::TraceCtx,
    run: NodeCall<T>,
) -> ConnectorResult<T> {
    let (tx, rx) = mpsc::channel();
    let launch = |node: usize, attempt: u32, role: &'static str| {
        let tx = tx.clone();
        let run = Arc::clone(&run);
        let span = obs::global().span_start(obs::names::HEDGE_ATTEMPT, trace);
        common::pool::spawn(move || {
            let result = run(node);
            obs::global().span_finish(span, |s| {
                s.attempt = attempt;
                s.node = Some(node as u64);
                s.failed = result.is_err();
                s.detail = format!("{op} {role}");
            });
            // The receiver may be gone (winner already returned).
            let _ = tx.send((node, result));
        });
    };
    launch(primary, 1, "primary");
    match rx.recv_timeout(delay) {
        Ok((_, result)) => return result,
        Err(mpsc::RecvTimeoutError::Timeout) => {}
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            return Err(ConnectorError::Engine(format!(
                "{op}: hedged read worker died"
            )))
        }
    }
    // Primary is past the hedge delay: launch the buddy attempt.
    obs::global().emit(obs::EventKind::Hedge, |e| {
        e.node = Some(buddy as u64);
        e.dur_us = delay.as_micros() as u64;
        e.detail = format!("{op}: hedging node {primary} with buddy {buddy}");
    });
    obs::global().incr("hedge.launched");
    launch(buddy, 2, "hedge");
    // Only the workers hold senders now: if both die without
    // answering, `recv` disconnects instead of blocking forever.
    drop(tx);
    let mut first_err: Option<ConnectorError> = None;
    for loser_in_flight in [true, false] {
        match rx.recv() {
            Ok((node, Ok(value))) => {
                obs::global().incr(if node == buddy {
                    "hedge.wins"
                } else {
                    "hedge.primary_wins"
                });
                if loser_in_flight {
                    // It cannot be interrupted; abandon it.
                    obs::global().incr("hedge.cancelled");
                }
                return Ok(value);
            }
            Ok((_, Err(e))) => {
                first_err.get_or_insert(e);
            }
            Err(_) => break,
        }
    }
    Err(first_err
        .unwrap_or_else(|| ConnectorError::Engine(format!("{op}: hedged read lost both attempts"))))
}

/// A retrying, failing-over database connection for the write side:
/// one [`Session`] is held across the attempts of every `run`, dropped
/// on a transient error (aborting its open transaction, exactly as a
/// dead JDBC connection's would) and re-placed by the policy's steering
/// step. The JDBC analog is a driver-level connection pool with
/// multi-host failover.
pub struct RetryConn {
    cluster: Arc<Cluster>,
    preferred: usize,
    policy: CallPolicy,
    pool: Option<String>,
    task_tag: Option<u64>,
    session: Option<Session>,
}

impl RetryConn {
    pub fn new(cluster: Arc<Cluster>, preferred: usize, policy: CallPolicy) -> RetryConn {
        RetryConn {
            cluster,
            preferred,
            policy,
            pool: None,
            task_tag: None,
            session: None,
        }
    }

    pub fn with_pool(mut self, pool: Option<String>) -> RetryConn {
        self.pool = pool;
        self
    }

    pub fn with_task_tag(mut self, tag: Option<u64>) -> RetryConn {
        self.task_tag = tag;
        self
    }

    /// Re-point the attempt spans mid-life (e.g. one pooled connection
    /// serving several phases of a job).
    pub fn set_trace(&mut self, trace: obs::TraceCtx) {
        self.policy.trace = trace;
    }

    /// Walk the steered order until a node answers. Buddies come from
    /// the *current* map: a new session may land anywhere live.
    fn connect(&mut self, attempt: u32) -> ConnectorResult<&mut Session> {
        let mut last: Option<ConnectorError> = None;
        if self.session.is_none() {
            let map = self.cluster.segment_map();
            let candidates = self.policy.candidates(&self.cluster, &map, self.preferred);
            let mut steered = self.policy.steer(&self.cluster, &candidates, attempt)?;
            for node in &mut steered {
                match self.cluster.connect(node) {
                    Ok(mut session) => {
                        if node != self.preferred {
                            obs::global().incr("failover.connects");
                        }
                        if let Some(pool) = &self.pool {
                            session
                                .set_resource_pool(pool)
                                .map_err(|e| ConnectorError::db("set_resource_pool", e))?;
                        }
                        session.set_task_tag(self.task_tag);
                        self.session = Some(session);
                        break;
                    }
                    Err(e) => {
                        let e = ConnectorError::db("connect", e);
                        if !e.is_transient() {
                            return Err(e);
                        }
                        self.policy.health.record_failure(node);
                        last = Some(e);
                    }
                }
            }
            if steered.rejected > 0 {
                obs::global().add("health.steered_connects", steered.rejected as u64);
            }
        }
        self.session
            .as_mut()
            .ok_or_else(|| last.unwrap_or(ConnectorError::NoLiveNodes))
    }

    /// Run `f` against a live session under the policy. On a transient
    /// error the session is dropped and the next attempt reconnects —
    /// possibly to a different node.
    pub fn run<T>(
        &mut self,
        op: &'static str,
        mut f: impl FnMut(&mut Session) -> ConnectorResult<T>,
    ) -> ConnectorResult<T> {
        let policy = self.policy.clone();
        policy.run(op, |attempt| {
            let span = obs::global().span_start(obs::names::RETRY_ATTEMPT, policy.trace);
            let mut node_used: Option<usize> = None;
            let result = self.connect(attempt).and_then(|session| {
                let node = session.node();
                node_used = Some(node);
                observe(&policy.health, node, || f(session))
            });
            if let Err(e) = &result {
                if e.is_transient() {
                    // Connection is suspect; drop it (aborting any open
                    // transaction) and reconnect next attempt.
                    self.session = None;
                } else if let Some(s) = self.session.as_mut() {
                    if s.in_txn() {
                        let _ = s.rollback();
                    }
                }
            }
            obs::global().span_finish(span, |s| {
                s.attempt = attempt;
                s.node = node_used.map(|n| n as u64);
                s.failed = result.is_err();
                s.detail = op.to_string();
            });
            result
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::HealthConfig;
    use mppdb::ClusterConfig;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// A policy outside any job: its own tracker, no job deadline.
    fn policy(retry: RetryPolicy) -> CallPolicy {
        CallPolicy {
            retry,
            deadline: None,
            health: Arc::new(HealthTracker::new(1)),
            failover: true,
            hedge: Hedge::Off,
            trace: obs::TraceCtx::NONE,
        }
    }

    #[test]
    fn fatal_errors_fail_fast() {
        let calls = AtomicU32::new(0);
        let r: ConnectorResult<()> = policy(RetryPolicy::default()).run("t", |_| {
            calls.fetch_add(1, Ordering::Relaxed);
            Err(ConnectorError::Usage("bad".into()))
        });
        assert!(matches!(r, Err(ConnectorError::Usage(_))));
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn transient_errors_retry_until_budget() {
        let p = policy(RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_micros(10),
            max_backoff: Duration::from_micros(50),
            ..RetryPolicy::default()
        });
        let calls = AtomicU32::new(0);
        let r: ConnectorResult<()> = p.run("t", |_| {
            calls.fetch_add(1, Ordering::Relaxed);
            Err(ConnectorError::NoLiveNodes)
        });
        assert!(matches!(
            r,
            Err(ConnectorError::RetriesExhausted { attempts: 3, .. })
        ));
        assert_eq!(calls.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn recovers_when_a_later_attempt_succeeds() {
        let p = policy(RetryPolicy {
            base_backoff: Duration::from_micros(10),
            ..RetryPolicy::default()
        });
        let r = p.run("t", |attempt| {
            if attempt < 3 {
                Err(ConnectorError::NoLiveNodes)
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(r.unwrap(), 3);
    }

    #[test]
    fn deadline_bounds_total_time() {
        let p = policy(RetryPolicy {
            max_attempts: 1000,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(5),
            deadline: Duration::from_millis(12),
        });
        let started = Instant::now();
        let r: ConnectorResult<()> = p.run("t", |_| Err(ConnectorError::NoLiveNodes));
        assert!(matches!(r, Err(ConnectorError::DeadlineExceeded { .. })));
        assert!(started.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn overall_deadline_caps_backoff_sleeps() {
        // Generous per-op policy, tight overall budget: the loop must
        // never sleep past the overall deadline. Worst case is one
        // attempt plus the backoffs that fit inside the budget, so the
        // total wall time is pinned well under the policy's own 30s
        // deadline.
        let mut p = policy(RetryPolicy {
            max_attempts: 1000,
            base_backoff: Duration::from_millis(8),
            max_backoff: Duration::from_millis(8),
            deadline: Duration::from_secs(30),
        });
        p.deadline = Some(Deadline::within(Duration::from_millis(20)));
        let started = Instant::now();
        let r: ConnectorResult<()> = p.run("t", |_| Err(ConnectorError::NoLiveNodes));
        let elapsed = started.elapsed();
        assert!(matches!(r, Err(ConnectorError::DeadlineExceeded { .. })));
        // Budget 20ms, backoff 8ms, instant attempts: at most two full
        // backoffs fit, and the final would-be sleep is skipped rather
        // than slept. 100ms of slack absorbs scheduler noise.
        assert!(
            elapsed < Duration::from_millis(120),
            "worst-case wall time {elapsed:?} must stay near the 20ms budget"
        );
    }

    #[test]
    fn expired_deadline_fails_before_the_first_attempt() {
        let mut p = policy(RetryPolicy::default());
        p.deadline = Some(Deadline::within(Duration::ZERO));
        let calls = AtomicU32::new(0);
        let r: ConnectorResult<()> = p.run("t", |_| {
            calls.fetch_add(1, Ordering::Relaxed);
            Ok(())
        });
        assert!(matches!(
            r,
            Err(ConnectorError::DeadlineExceeded { attempts: 0, .. })
        ));
        assert_eq!(calls.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn backoff_grows_is_capped_and_deterministic() {
        let p = RetryPolicy {
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(8),
            ..RetryPolicy::default()
        };
        let b2 = p.backoff_for("op", 2);
        let b5 = p.backoff_for("op", 5);
        assert!(b2 >= Duration::from_micros(500) && b2 <= Duration::from_millis(2));
        assert!(b5 <= Duration::from_millis(8));
        assert!(b5 >= b2);
        assert_eq!(p.backoff_for("op", 3), p.backoff_for("op", 3));
        // Different ops jitter differently (with overwhelming likelihood).
        assert_ne!(p.backoff_for("alpha", 4), p.backoff_for("beta", 4));
    }

    /// The one steering step, as a table: (preferred, failover, open
    /// breakers, attempt) → (nodes a write walks in order — a read runs
    /// the first — and the read's hedge buddy).
    #[test]
    fn steering_walks_live_admitted_nodes_and_never_strands() {
        // Six nodes, k = 1: node 4 is down, node 5 is retired.
        let cluster = Cluster::new(ClusterConfig {
            k_safety: 1,
            ..ClusterConfig::with_nodes(6)
        });
        cluster.remove_node(5).unwrap();
        cluster.kill_node(4);
        type Case = (
            usize,
            bool,
            &'static [usize],
            u32,
            &'static [usize],
            Option<usize>,
        );
        let cases: &[Case] = &[
            // Clean: locality order, down and retired nodes never tried.
            (0, true, &[], 1, &[0, 1, 2, 3], Some(1)),
            (2, true, &[], 1, &[2, 3, 0, 1], Some(3)),
            // A retry leads with a failover target.
            (0, true, &[], 2, &[1, 2, 3, 0], Some(2)),
            // An open breaker is ranked last and rejected.
            (0, true, &[0], 1, &[1, 2, 3], Some(2)),
            (2, true, &[3], 1, &[2, 0, 1], Some(0)),
            // Every breaker rejects: the ranked head runs anyway, and
            // there is nowhere healthy to hedge to.
            (0, true, &[0, 1, 2, 3], 1, &[0], None),
            (0, true, &[0, 1, 2, 3], 2, &[1], None),
            // Failover off: only the preferred node, sick or not.
            (0, false, &[], 3, &[0], None),
            (0, false, &[0], 1, &[0], None),
            (4, false, &[], 1, &[], None),
        ];
        for &(preferred, failover, open, attempt, walked, buddy) in cases {
            let health = HealthTracker::with_config(
                6,
                HealthConfig {
                    open_cooldown: Duration::from_secs(3600),
                    ..HealthConfig::default()
                },
            );
            for &n in open {
                (0..3).for_each(|_| health.record_failure(n));
            }
            let p = CallPolicy {
                health: Arc::new(health),
                failover,
                ..policy(RetryPolicy::default())
            };
            let candidates = p.candidates(&cluster, &cluster.segment_map(), preferred);
            let got = match p.steer(&cluster, &candidates, attempt) {
                Ok(mut steered) => {
                    let primary = steered.next().unwrap();
                    let hedge = steered.buddy(primary);
                    (std::iter::once(primary).chain(steered).collect(), hedge)
                }
                Err(e) => {
                    assert_eq!(e, ConnectorError::NoLiveNodes);
                    (Vec::new(), None)
                }
            };
            assert_eq!(
                got,
                (walked.to_vec(), buddy),
                "preferred {preferred} failover {failover} open {open:?} attempt {attempt}"
            );
        }
    }

    /// A read over nodes 0 and 1 of a clean cluster that hedges after
    /// `delay_ms`.
    fn hedged(delay_ms: u64, op: &'static str, run: NodeCall<usize>) -> ConnectorResult<usize> {
        let p = CallPolicy {
            hedge: Hedge::After(Duration::from_millis(delay_ms)),
            ..policy(RetryPolicy::default())
        };
        p.read(&Cluster::new(ClusterConfig::default()), op, &[0, 1], run)
    }

    #[test]
    fn hedged_read_prefers_fast_primary() {
        let run = Arc::new(|node: usize| -> ConnectorResult<usize> { Ok(node) });
        let got = hedged(50, "t.fast", run).unwrap();
        assert_eq!(got, 0, "primary answered before the hedge delay");
        // By this read's own event, not the process-wide `hedge.launched`
        // counter, which the sibling tests' hedges move concurrently.
        let snap = obs::global().snapshot();
        let mut hedges = snap.events_of(obs::EventKind::Hedge);
        assert!(!hedges.any(|e| e.detail.starts_with("t.fast:")));
    }

    #[test]
    fn hedged_read_buddy_wins_when_primary_stalls() {
        let run = Arc::new(|node: usize| -> ConnectorResult<usize> {
            if node == 0 {
                std::thread::sleep(Duration::from_millis(120));
            }
            Ok(node)
        });
        let started = Instant::now();
        let got = hedged(10, "t.stall", run).unwrap();
        assert_eq!(got, 1, "buddy wins");
        assert!(
            started.elapsed() < Duration::from_millis(100),
            "did not wait for the stalled primary"
        );
        let snap = obs::global().snapshot();
        let mut hedges = snap.events_of(obs::EventKind::Hedge);
        assert!(hedges.any(|e| e.detail.starts_with("t.stall:")));
        // Let the abandoned primary drain so its send outlives no one.
        std::thread::sleep(Duration::from_millis(130));
    }

    #[test]
    fn hedged_read_surfaces_error_when_both_fail() {
        let run = Arc::new(|node: usize| -> ConnectorResult<usize> {
            Err(ConnectorError::Engine(format!("node {node} boom")))
        });
        let err = hedged(5, "t.both", run).unwrap_err();
        assert!(matches!(err, ConnectorError::Engine(_)));
    }

    #[test]
    fn hedged_read_falls_through_to_buddy_after_primary_error() {
        // Primary errors *slowly* (after the hedge delay), buddy is good.
        let run = Arc::new(|node: usize| -> ConnectorResult<usize> {
            if node == 0 {
                std::thread::sleep(Duration::from_millis(15));
                Err(ConnectorError::Engine("slow failure".into()))
            } else {
                Ok(node)
            }
        });
        let got = hedged(5, "t.slow_err", run).unwrap();
        assert_eq!(got, 1);
    }
}
