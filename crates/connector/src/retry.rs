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
//!
//! A hedged read's primary runs on the calling thread — in a V2S load,
//! the task's own — and its buddy is armed on the cluster clock's timer
//! ([`Clock::after`]), which asks the worker pool for a thread only when
//! the hedge delay passes. The first success wins and cancels the other
//! arm through its [`Cancel`] token.

use std::sync::{mpsc, Arc};
use std::time::Duration;

use common::clock::Clock;
use mppdb::segmentation::SegmentMap;
use mppdb::{Cancel, Cluster, Session};

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

/// One execution of a call against the node it is handed, under the
/// cancel token it is handed: the call opens its session with that token
/// ([`Cluster::connect_cancellable`]), so a hedged read's losing arm
/// stops at the engine's next check. Owned and `'static` so the buddy
/// arm can run it on a pooled thread.
///
/// The primary arm runs on the caller's thread, so a call that ignores
/// its token delays its caller until it returns, even when the buddy has
/// already won. No call in the connector ignores it.
pub type NodeCall<T> = Arc<dyn Fn(usize, &Cancel) -> ConnectorResult<T> + Send + Sync>;

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
            deadline: opts.deadline.map(|b| Deadline::within(cluster.clock(), b)),
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
        // Backoffs sleep on the cluster's clock, which its tracker keeps.
        let (policy, overall, clock) = (&self.retry, self.deadline, self.health.clock);
        let started = clock.now();
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
            let attempt_started = clock.now();
            match attempt_fn(attempt) {
                Ok(v) => {
                    if attempt > 1 {
                        obs::global().incr(obs::names::RETRY_RECOVERED);
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
                    let policy_remaining = policy.deadline.saturating_sub(clock.since(started));
                    let remaining = match overall {
                        Some(d) => policy_remaining.min(d.remaining()),
                        None => policy_remaining,
                    };
                    let attempt_overran = clock.since(attempt_started) > ATTEMPT_TIMEOUT;
                    if backoff >= remaining || attempt_overran {
                        obs::global().incr(obs::names::RETRY_GAVE_UP);
                        if overall.map(|d| backoff >= d.remaining()).unwrap_or(false) {
                            obs::global().incr(obs::names::DEADLINE_EXPIRED);
                        }
                        return Err(ConnectorError::DeadlineExceeded {
                            op,
                            attempts: attempt,
                            elapsed_ms: clock.since(started).as_millis() as u64,
                        });
                    }
                    obs::global().incr(obs::names::RETRY_ATTEMPTS);
                    clock.sleep(backoff);
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
                let run: NodeCall<T> =
                    Arc::new(move |n, cancel| observe(&health, n, || exec(n, cancel)));
                hedged_read(self.health.clock, op, delay, primary, buddy, trace, run)
            }
            None => observe(&self.health, primary, || exec(primary, &Cancel::default())),
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
/// fatal error nothing — a syntax error says nothing about node health,
/// and a cancelled hedge loser (`DbError::Cancelled` is fatal) neither
/// trips a breaker nor adds a sample to the P99.
fn observe<T>(
    health: &HealthTracker,
    node: usize,
    call: impl FnOnce() -> ConnectorResult<T>,
) -> ConnectorResult<T> {
    let started = health.clock.now();
    let result = call();
    match &result {
        Ok(_) => health.record_success(node, health.clock.since(started)),
        Err(e) if e.is_transient() => health.record_failure(node),
        Err(_) => {}
    }
    result
}

/// Run an idempotent read with a tail-latency hedge: run `run` on
/// `primary` on this thread, with a launch of the same call on `buddy`
/// armed on `clock`'s timer for `delay`. A primary that answers within
/// the delay disarms it, and no other thread is involved. Otherwise the
/// buddy runs on a pooled thread, and the first success wins: a buddy
/// that succeeds cancels the primary, whose session stops at its next
/// check, and this returns the buddy's answer once the primary has
/// returned; a primary that succeeds cancels the buddy. A loser that
/// ends on its cancel counts under `hedge.cancelled`.
///
/// Each arm runs under a `hedge.attempt` span parented at `trace`
/// (attempt 1 = primary, attempt 2 = buddy), finished when its arm
/// returns.
fn hedged_read<T: Send + 'static>(
    clock: Clock,
    op: &'static str,
    delay: Duration,
    primary: usize,
    buddy: usize,
    trace: obs::TraceCtx,
    run: NodeCall<T>,
) -> ConnectorResult<T> {
    let (primary_cancel, buddy_cancel) = (Cancel::default(), Cancel::default());
    // The buddy's only way back: if its launch is dropped unrun, the
    // sender goes with it and `recv` below disconnects.
    let (tx, rx) = mpsc::sync_channel(1);
    let launch = {
        let (run, primary_cancel, buddy_cancel) = (
            Arc::clone(&run),
            primary_cancel.clone(),
            buddy_cancel.clone(),
        );
        move || {
            if buddy_cancel.is_cancelled() {
                // The primary won while this launch was on its way.
                return;
            }
            obs::global().emit(obs::EventKind::Hedge, |e| {
                e.node = Some(buddy as u64);
                e.dur_us = delay.as_micros() as u64;
                e.detail = format!("{op}: hedging node {primary} with buddy {buddy}");
            });
            obs::global().incr(obs::names::HEDGE_LAUNCHED);
            let result = run_arm(&run, op, buddy, &buddy_cancel, trace, 2, "hedge");
            if result.is_ok() {
                primary_cancel.cancel();
            }
            // The caller may be gone (its primary won).
            let _ = tx.send(result);
        }
    };
    let armed = clock.after(delay, Box::new(launch));
    let result = run_arm(&run, op, primary, &primary_cancel, trace, 1, "primary");
    if clock.disarm(armed) {
        return result;
    }
    // The buddy launched, or its launch is on its way. A primary that
    // succeeded before the buddy cancelled it wins.
    if result.is_ok() && !primary_cancel.is_cancelled() {
        buddy_cancel.cancel();
        return result;
    }
    match rx.recv() {
        Ok(Ok(value)) => {
            obs::global().incr(obs::names::HEDGE_WINS);
            Ok(value)
        }
        // Both arms failed; the primary was not cancelled, as only a
        // buddy's success cancels it.
        Ok(Err(_)) | Err(_) => result,
    }
}

/// One arm of a hedged read: `run` on `node` under a `hedge.attempt`
/// span, counting an arm that ends on its cancel under `hedge.cancelled`.
fn run_arm<T>(
    run: &NodeCall<T>,
    op: &'static str,
    node: usize,
    cancel: &Cancel,
    trace: obs::TraceCtx,
    attempt: u32,
    role: &'static str,
) -> ConnectorResult<T> {
    let span = obs::global().span_start(obs::names::HEDGE_ATTEMPT, trace);
    let result = run(node, cancel);
    obs::global().span_finish(span, |s| {
        s.attempt = attempt;
        s.node = Some(node as u64);
        s.failed = result.is_err();
        s.detail = format!("{op} {role}");
    });
    if result.as_ref().is_err_and(ConnectorError::is_cancelled) {
        obs::global().incr(obs::names::HEDGE_CANCELLED);
    }
    result
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
                            obs::global().incr(obs::names::FAILOVER_CONNECTS);
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
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

    /// A policy outside any job, on a clock only the test moves: its
    /// own tracker, no job deadline.
    fn policy(retry: RetryPolicy) -> CallPolicy {
        policy_on(Clock::manual(), retry)
    }

    fn policy_on(clock: Clock, retry: RetryPolicy) -> CallPolicy {
        CallPolicy {
            retry,
            deadline: None,
            health: Arc::new(HealthTracker::with_config(
                1,
                HealthConfig::default(),
                clock,
            )),
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

    /// The backoffs `run` sleeps before attempts 2.. of op "t", until
    /// the next one would not fit in `budget`.
    fn backoffs_within(p: &RetryPolicy, budget: Duration) -> Vec<Duration> {
        let mut slept = Vec::new();
        for attempt in 2.. {
            let backoff = p.backoff_for("t", attempt);
            if backoff >= budget - slept.iter().sum::<Duration>() {
                return slept;
            }
            slept.push(backoff);
        }
        unreachable!()
    }

    #[test]
    fn deadline_bounds_total_time() {
        let retry = RetryPolicy {
            max_attempts: 1000,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(5),
            deadline: Duration::from_millis(12),
        };
        let slept = backoffs_within(&retry, retry.deadline);
        let p = policy(retry);
        let started = p.health.clock.now();
        let r: ConnectorResult<()> = p.run("t", |_| Err(ConnectorError::NoLiveNodes));
        // Instant attempts: every backoff that fits is slept, and the
        // attempt after the last gives up instead of sleeping past 12ms.
        let elapsed: Duration = slept.iter().sum();
        assert_eq!(slept.len(), 3, "{slept:?}");
        assert_eq!(p.health.clock.since(started), elapsed);
        assert_eq!(
            r,
            Err(ConnectorError::DeadlineExceeded {
                op: "t",
                attempts: slept.len() as u32 + 1,
                elapsed_ms: elapsed.as_millis() as u64,
            })
        );
    }

    #[test]
    fn overall_deadline_caps_backoff_sleeps() {
        // Generous per-op policy, tight overall budget: the loop never
        // sleeps past the overall deadline. It sleeps the backoffs that
        // fit inside the 20ms budget and skips the final would-be sleep.
        let retry = RetryPolicy {
            max_attempts: 1000,
            base_backoff: Duration::from_millis(8),
            max_backoff: Duration::from_millis(8),
            deadline: Duration::from_secs(30),
        };
        let slept = backoffs_within(&retry, Duration::from_millis(20));
        let mut p = policy(retry);
        p.deadline = Some(Deadline::within(p.health.clock, Duration::from_millis(20)));
        let r: ConnectorResult<()> = p.run("t", |_| Err(ConnectorError::NoLiveNodes));
        let elapsed: Duration = slept.iter().sum();
        assert_eq!(slept.len(), 3, "{slept:?}");
        assert_eq!(
            r,
            Err(ConnectorError::DeadlineExceeded {
                op: "t",
                attempts: slept.len() as u32 + 1,
                elapsed_ms: elapsed.as_millis() as u64,
            })
        );
    }

    #[test]
    fn expired_deadline_fails_before_the_first_attempt() {
        let mut p = policy(RetryPolicy::default());
        p.deadline = Some(Deadline::within(p.health.clock, Duration::ZERO));
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
                Clock::manual(),
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

    const HEDGE_DELAY: Duration = Duration::from_millis(10);

    /// A read over nodes 0 and 1 of a clean cluster on `clock` that
    /// hedges after `HEDGE_DELAY`.
    fn hedged(clock: Clock, op: &'static str, run: NodeCall<usize>) -> ConnectorResult<usize> {
        let p = CallPolicy {
            hedge: Hedge::After(HEDGE_DELAY),
            ..policy_on(clock, RetryPolicy::default())
        };
        let cluster = Cluster::new(ClusterConfig {
            clock,
            ..ClusterConfig::default()
        });
        p.read(&cluster, op, &[0, 1], run)
    }

    /// Wait until the read on another thread has armed its buddy.
    fn until_armed(clock: Clock) {
        while clock.armed() == 0 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn hedged_read_prefers_fast_primary() {
        let clock = Clock::manual();
        let run = Arc::new(|node: usize, _: &Cancel| -> ConnectorResult<usize> { Ok(node) });
        let got = hedged(clock, "t.fast", run).unwrap();
        assert_eq!(got, 0, "primary answered before the hedge delay");
        // By this read's own event, not the process-wide `hedge.launched`
        // counter, which the sibling tests' hedges move concurrently.
        let snap = obs::global().snapshot();
        let mut hedges = snap.events_of(obs::EventKind::Hedge);
        assert!(!hedges.any(|e| e.detail.starts_with("t.fast:")));
    }

    #[test]
    fn a_fast_primary_runs_on_the_callers_thread_and_launches_no_buddy() {
        let clock = Clock::manual();
        let caller = std::thread::current().id();
        let ran_on = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let run = Arc::new({
            let ran_on = Arc::clone(&ran_on);
            move |node: usize, _: &Cancel| -> ConnectorResult<usize> {
                ran_on.lock().push((node, std::thread::current().id()));
                Ok(node)
            }
        });
        assert_eq!(hedged(clock, "t.caller", run).unwrap(), 0);
        assert_eq!(clock.armed(), 0, "the primary's answer disarmed the buddy");
        // Past the hedge delay: a buddy still armed would launch now.
        clock.advance(HEDGE_DELAY);
        assert_eq!(*ran_on.lock(), vec![(0, caller)]);
        let snap = obs::global().snapshot();
        let mut hedges = snap.events_of(obs::EventKind::Hedge);
        assert!(!hedges.any(|e| e.detail.starts_with("t.caller:")));
    }

    #[test]
    fn hedged_read_buddy_wins_when_primary_stalls() {
        let clock = Clock::manual();
        let primary_cancelled = Arc::new(AtomicBool::new(false));
        let run = Arc::new({
            let primary_cancelled = Arc::clone(&primary_cancelled);
            move |node: usize, cancel: &Cancel| -> ConnectorResult<usize> {
                if node == 0 {
                    let waited = cancel.sleep(clock, Duration::from_secs(3600));
                    primary_cancelled.store(waited.is_err(), Ordering::Release);
                    waited.map_err(|e| ConnectorError::db("t.stall", e))?;
                }
                Ok(node)
            }
        });
        let started = clock.now();
        let got = std::thread::scope(|s| {
            let read = s.spawn(|| hedged(clock, "t.stall", run));
            until_armed(clock);
            clock.advance(HEDGE_DELAY);
            read.join().unwrap()
        });
        assert_eq!(got, Ok(1), "buddy wins");
        assert_eq!(
            clock.since(started),
            HEDGE_DELAY,
            "without the stalled primary's hour"
        );
        assert!(
            primary_cancelled.load(Ordering::Acquire),
            "the buddy cancelled it"
        );
        let snap = obs::global().snapshot();
        let mut hedges = snap.events_of(obs::EventKind::Hedge);
        assert!(hedges.any(|e| e.detail.starts_with("t.stall:")));
    }

    #[test]
    fn a_primary_that_ignores_its_token_delays_the_buddys_answer_until_it_returns() {
        let clock = Clock::manual();
        // The primary's token, which it keeps for the test and ignores.
        let token = Arc::new(std::sync::OnceLock::<Cancel>::new());
        let released = Arc::new(AtomicBool::new(false));
        let run = Arc::new({
            let (token, released) = (Arc::clone(&token), Arc::clone(&released));
            move |node: usize, cancel: &Cancel| -> ConnectorResult<usize> {
                if node == 0 {
                    token.get_or_init(|| cancel.clone());
                    while !released.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                }
                Ok(node)
            }
        });
        std::thread::scope(|s| {
            let read = s.spawn(|| hedged(clock, "t.deaf", run));
            until_armed(clock);
            clock.advance(HEDGE_DELAY);
            // The buddy's success cancels the primary's token.
            while !token.get().is_some_and(Cancel::is_cancelled) {
                std::thread::yield_now();
            }
            assert!(!read.is_finished(), "the read waits for its primary");
            released.store(true, Ordering::Release);
            assert_eq!(read.join().unwrap(), Ok(1), "the buddy succeeded first");
        });
    }

    #[test]
    fn hedged_read_surfaces_error_when_both_fail() {
        let run = Arc::new(|node: usize, _: &Cancel| -> ConnectorResult<usize> {
            Err(ConnectorError::Engine(format!("node {node} boom")))
        });
        let err = hedged(Clock::manual(), "t.both", run).unwrap_err();
        assert!(matches!(err, ConnectorError::Engine(_)));
    }

    #[test]
    fn hedged_read_falls_through_to_buddy_after_primary_error() {
        // Primary errors *slowly* (after the hedge delay), buddy is good.
        let clock = Clock::manual();
        let run = Arc::new(move |node: usize, _: &Cancel| -> ConnectorResult<usize> {
            if node == 0 {
                clock.sleep(HEDGE_DELAY * 3);
                Err(ConnectorError::Engine("slow failure".into()))
            } else {
                Ok(node)
            }
        });
        assert_eq!(hedged(clock, "t.slow_err", run), Ok(1));
    }

    /// xorshift64*: the stress test's seeded choices.
    fn next(state: &mut u64) -> u64 {
        *state ^= *state >> 12;
        *state ^= *state << 25;
        *state ^= *state >> 27;
        state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// One arm of a stress read: how long it runs, whether it waits on
    /// its token or ignores it, and whether it fails.
    #[derive(Clone, Copy)]
    struct StressArm {
        latency: Duration,
        cooperative: bool,
        fails: bool,
    }

    impl StressArm {
        fn draw(seed: &mut u64) -> StressArm {
            StressArm {
                latency: Duration::from_micros(next(seed) % 4_000),
                cooperative: !next(seed).is_multiple_of(4),
                fails: next(seed).is_multiple_of(5),
            }
        }

        fn run(&self, clock: Clock, node: usize, cancel: &Cancel) -> ConnectorResult<usize> {
            if self.cooperative {
                cancel
                    .sleep(clock, self.latency)
                    .map_err(|e| ConnectorError::db("t.stress", e))?;
            } else {
                clock.sleep(self.latency);
            }
            if self.fails {
                return Err(ConnectorError::Engine(format!("node {node} failed")));
            }
            Ok(node)
        }
    }

    /// 10,000 hedged reads from eight threads, with random hedge delays,
    /// arm latencies, cooperative and uncooperative arms, and failures:
    /// every read returns once, succeeds whenever an arm succeeded
    /// before it returned, answers with a successful arm's value, never
    /// surfaces a cancelled arm's error, and leaves nothing armed.
    #[test]
    #[ignore]
    fn stress_hedged_reads_random_delays_latencies_and_failures() {
        const THREADS: u64 = 8;
        const READS: u64 = 10_000;
        let clock = ClusterConfig::default().clock;
        let returned = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let returned = &returned;
                scope.spawn(move || {
                    let mut seed = 0x9e37_79b9_7f4a_7c15u64 ^ (t + 1).wrapping_mul(0xff51);
                    for _ in 0..READS / THREADS {
                        let delay = Duration::from_micros(next(&mut seed) % 3_000);
                        let arms = [StressArm::draw(&mut seed), StressArm::draw(&mut seed)];
                        // Per node: whether its arm has returned a success.
                        let succeeded: Arc<[AtomicBool; 2]> = Arc::new(Default::default());
                        let run: NodeCall<usize> = Arc::new({
                            let succeeded = Arc::clone(&succeeded);
                            move |node: usize, cancel: &Cancel| {
                                let result = arms[node].run(clock, node, cancel);
                                if result.is_ok() {
                                    succeeded[node].store(true, Ordering::Release);
                                }
                                result
                            }
                        });
                        let result =
                            hedged_read(clock, "t.stress", delay, 0, 1, obs::TraceCtx::NONE, run);
                        returned.fetch_add(1, Ordering::AcqRel);
                        let any = succeeded.iter().any(|s| s.load(Ordering::Acquire));
                        match result {
                            Ok(node) => assert!(succeeded[node].load(Ordering::Acquire)),
                            Err(e) => {
                                assert!(!any, "an arm succeeded, yet the read failed: {e}");
                                assert!(!e.is_cancelled(), "a cancelled arm's error surfaced");
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(returned.load(Ordering::Acquire), READS);
        assert_eq!(clock.armed(), 0, "a launch is still armed");
    }
}
