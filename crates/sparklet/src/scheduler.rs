//! The batch task scheduler.
//!
//! An action becomes a *job*; a job launches one independent, stateless
//! task per partition. Tasks run on a bounded pool of executor slots
//! (threads of [`common::pool`] here, reused from job to job, the way
//! Spark's long-lived executors are), retry on failure up to a budget, may be
//! speculatively duplicated, and the whole job can be killed mid-run.
//! Tasks do not communicate — everything the paper's Sec. 2.2 says
//! about MapReduce-class schedulers holds by construction.

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::error::{SparkError, SparkResult};
use crate::failure::{FailureInjector, FailureMode};

/// Per-attempt context handed to task closures.
#[derive(Debug, Clone, Copy)]
pub struct TaskContext {
    /// Partition index this task computes.
    pub partition: usize,
    /// 1-based attempt number (speculative copies get their own).
    pub attempt: u32,
    /// Whether this attempt is a speculative duplicate.
    pub speculative: bool,
    /// Compute-cluster node this attempt runs on.
    pub executor_node: usize,
    /// Job id (unique within the context).
    pub job_id: u64,
    /// This attempt's `sched.task` span, for parenting any spans the
    /// task body opens. [`obs::TraceCtx::NONE`] in untraced jobs.
    pub trace: obs::TraceCtx,
}

/// Scheduler configuration derived from the engine conf.
#[derive(Debug, Clone)]
pub(crate) struct SchedulerConf {
    pub nodes: usize,
    pub total_slots: usize,
    pub max_task_attempts: u32,
    /// Upper bound on real worker threads per job.
    pub thread_cap: usize,
    pub speculation: bool,
    pub speculation_multiplier: f64,
    pub speculation_quantile: f64,
    pub speculation_min_ms: u64,
}

/// How often an idle worker re-checks running tasks for stragglers.
const SPECULATION_POLL: Duration = Duration::from_millis(2);

struct JobState<R> {
    queue: VecDeque<(usize, u32, bool, Instant)>, // (partition, attempt, speculative, enqueued)
    results: Vec<Option<R>>,
    succeeded: usize,
    completions: u64,
    attempts_launched: Vec<u32>,
    live: Vec<u32>,
    /// Successful attempt runtimes (µs) — the straggler baseline.
    durations_us: Vec<u64>,
    /// Launch times of in-flight attempts, keyed by (partition, attempt).
    running: HashMap<(usize, u32), Instant>,
    /// Partitions already given a straggler copy (one per partition).
    speculated: Vec<bool>,
    fatal: Option<SparkError>,
    killed: bool,
    kill_after: Option<u64>,
    outstanding: usize,
    // Observability tallies for the finished job's `JobStats`.
    launches: u64,
    retries: u64,
    speculative: u64,
}

/// What the scheduler observed while running one job — the engine-side
/// ground truth the connector's exactly-once tests compare the event
/// log against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobStats {
    pub job_id: u64,
    pub partitions: usize,
    /// Attempts handed to executor slots (primaries + retries +
    /// speculative copies).
    pub tasks_launched: u64,
    /// Attempts that ran to completion (successfully or not).
    pub tasks_completed: u64,
    /// Retry attempts scheduled after failures.
    pub retries: u64,
    /// Speculative duplicate attempts enqueued.
    pub speculative: u64,
    pub killed: bool,
}

pub(crate) struct Scheduler {
    conf: SchedulerConf,
    /// Stats of finished jobs, by job id (bounded; oldest pruned).
    stats: Mutex<HashMap<u64, JobStats>>,
}

/// Job ids are process-global (not per-context) so the data collector's
/// `job-<id>` event labels never collide between contexts sharing the
/// process-wide collector.
static NEXT_JOB: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

/// Finished-job stats retained before pruning the oldest half.
const STATS_CAP: usize = 1024;

impl Scheduler {
    pub fn new(conf: SchedulerConf) -> Scheduler {
        Scheduler {
            conf,
            stats: Mutex::new(HashMap::new()),
        }
    }

    /// Stats for a finished job, if still retained.
    pub fn job_stats(&self, job_id: u64) -> Option<JobStats> {
        self.stats.lock().get(&job_id).copied()
    }

    fn retain_stats(&self, stats: JobStats) {
        let mut map = self.stats.lock();
        if map.len() >= STATS_CAP {
            let mut ids: Vec<u64> = map.keys().copied().collect();
            ids.sort_unstable();
            for id in &ids[..ids.len() / 2] {
                map.remove(id);
            }
        }
        map.insert(stats.job_id, stats);
    }

    /// Run one job: `task_fn` once per partition (plus retries and
    /// speculative copies), gathering one result per partition.
    pub fn run_job<R: Send>(
        &self,
        partitions: usize,
        failures: &FailureInjector,
        task_fn: &(dyn Fn(&TaskContext) -> SparkResult<R> + Sync),
    ) -> SparkResult<Vec<R>> {
        self.run_job_traced(partitions, failures, obs::TraceCtx::NONE, task_fn)
    }

    /// [`Scheduler::run_job`] with every attempt wrapped in a
    /// `sched.task` span parented at `trace`, so the caller's trace
    /// shows each launch/retry/speculative copy with its own timing.
    pub fn run_job_traced<R: Send>(
        &self,
        partitions: usize,
        failures: &FailureInjector,
        trace: obs::TraceCtx,
        task_fn: &(dyn Fn(&TaskContext) -> SparkResult<R> + Sync),
    ) -> SparkResult<Vec<R>> {
        if partitions == 0 {
            return Ok(Vec::new());
        }
        let job_id = NEXT_JOB.fetch_add(1, std::sync::atomic::Ordering::AcqRel);

        let mut queue = VecDeque::new();
        let mut attempts_launched = vec![0u32; partitions];
        let mut live = vec![0u32; partitions];
        let mut speculative = 0u64;
        let now = Instant::now();
        for p in 0..partitions {
            queue.push_back((p, 1, false, now));
            attempts_launched[p] = 1;
            live[p] += 1;
            let copies = failures.speculative_copies(p);
            for c in 0..copies {
                queue.push_back((p, 2 + c, true, now));
                attempts_launched[p] += 1;
                live[p] += 1;
                speculative += 1;
                obs::global().emit(obs::EventKind::TaskSpeculative, |e| {
                    e.job = Some(job_label(job_id));
                    e.task = Some(p as u64);
                    e.detail = format!("attempt {}", 2 + c);
                });
                obs::global().incr(obs::names::SCHED_SPECULATIVE_TASKS);
            }
        }

        let state = Mutex::new(JobState::<R> {
            queue,
            results: (0..partitions).map(|_| None).collect(),
            succeeded: 0,
            completions: 0,
            attempts_launched,
            live,
            durations_us: Vec::new(),
            running: HashMap::new(),
            speculated: vec![false; partitions],
            fatal: None,
            killed: false,
            kill_after: failures.take_kill_after(),
            outstanding: 0,
            launches: 0,
            retries: 0,
            speculative,
        });
        let wakeup = Condvar::new();

        let workers = self
            .conf
            .total_slots
            .min(partitions * 2)
            .min(self.conf.thread_cap)
            .max(1);

        common::pool::run_all(workers, &|_| {
            self.worker_loop(
                partitions, job_id, trace, &state, &wakeup, failures, task_fn,
            )
        });

        let mut final_state = state.into_inner();
        self.retain_stats(JobStats {
            job_id,
            partitions,
            tasks_launched: final_state.launches,
            tasks_completed: final_state.completions,
            retries: final_state.retries,
            speculative: final_state.speculative,
            killed: final_state.killed,
        });
        obs::global().incr("sched.jobs");
        obs::global().emit(obs::EventKind::JobFinish, |e| {
            e.job = Some(job_label(job_id));
            e.task = Some(partitions as u64);
            e.detail = match (&final_state.fatal, final_state.killed) {
                (_, true) => "killed".to_string(),
                (Some(err), _) => format!("failed: {err}"),
                (None, _) => "ok".to_string(),
            };
        });
        if let Some(e) = final_state.fatal.take() {
            return Err(e);
        }
        let results: Option<Vec<R>> = final_state.results.into_iter().collect();
        results.ok_or_else(|| SparkError::Usage("job ended with missing partitions".into()))
    }

    /// Straggler detection from observed latencies: once the quantile
    /// of partitions has succeeded, any in-flight attempt running past
    /// `multiplier` × the median completed runtime (floored at
    /// `speculation_min_ms`) gets one speculative duplicate. The copy
    /// races the original; the first finisher wins, exactly like a
    /// scripted speculative task.
    fn maybe_speculate<R>(&self, job_id: u64, partitions: usize, st: &mut JobState<R>) {
        if !self.conf.speculation || st.killed || st.durations_us.is_empty() {
            return;
        }
        if (st.succeeded as f64) < self.conf.speculation_quantile * partitions as f64 {
            return;
        }
        let mut sorted = st.durations_us.clone();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2];
        let threshold_us = (median as f64 * self.conf.speculation_multiplier)
            .max(self.conf.speculation_min_ms as f64 * 1000.0) as u64;
        let stragglers: Vec<usize> = st
            .running
            .iter()
            .filter(|((p, _), started)| {
                !st.speculated[*p]
                    && st.results[*p].is_none()
                    && started.elapsed().as_micros() as u64 > threshold_us
            })
            .map(|((p, _), _)| *p)
            .collect();
        for p in stragglers {
            if st.attempts_launched[p] >= self.conf.max_task_attempts || st.speculated[p] {
                continue;
            }
            let next = st.attempts_launched[p] + 1;
            st.attempts_launched[p] = next;
            st.live[p] += 1;
            st.speculated[p] = true;
            st.speculative += 1;
            st.queue.push_back((p, next, true, Instant::now()));
            obs::global().emit(obs::EventKind::TaskSpeculative, |e| {
                e.job = Some(job_label(job_id));
                e.task = Some(p as u64);
                e.detail = format!("straggler past {threshold_us}us, attempt {next}");
            });
            obs::global().incr(obs::names::SCHED_SPECULATIVE_TASKS);
            obs::global().incr("sched.stragglers_detected");
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn worker_loop<R: Send>(
        &self,
        partitions: usize,
        job_id: u64,
        trace: obs::TraceCtx,
        state: &Mutex<JobState<R>>,
        wakeup: &Condvar,
        failures: &FailureInjector,
        task_fn: &(dyn Fn(&TaskContext) -> SparkResult<R> + Sync),
    ) {
        loop {
            let attempt = {
                let mut st = state.lock();
                loop {
                    if st.fatal.is_some() || st.killed || st.succeeded == partitions {
                        wakeup.notify_all();
                        return;
                    }
                    if let Some(a) = st.queue.pop_front() {
                        st.outstanding += 1;
                        st.launches += 1;
                        st.running.insert((a.0, a.1), Instant::now());
                        break a;
                    }
                    if st.outstanding == 0 {
                        // Nothing queued, nothing running, job not done:
                        // every remaining partition exhausted retries.
                        if st.fatal.is_none() {
                            st.fatal = Some(SparkError::Usage(
                                "scheduler stalled with incomplete partitions".into(),
                            ));
                        }
                        wakeup.notify_all();
                        return;
                    }
                    // An idle worker doubles as the straggler watchdog:
                    // wake periodically and compare in-flight runtimes
                    // against the completed-task median.
                    if wakeup
                        .wait_until(&mut st, Instant::now() + SPECULATION_POLL)
                        .timed_out()
                    {
                        self.maybe_speculate(job_id, partitions, &mut st);
                    }
                }
            };

            let (partition, attempt_no, speculative, enqueued) = attempt;
            let task_span = obs::global().span_start("sched.task", trace);
            let ctx = TaskContext {
                partition,
                attempt: attempt_no,
                speculative,
                executor_node: (partition + (attempt_no as usize - 1)) % self.conf.nodes,
                job_id,
                trace: task_span,
            };
            let slot_wait = enqueued.elapsed();
            obs::global().record_time("sched.slot_wait_us", slot_wait);
            obs::global().emit(obs::EventKind::TaskLaunch, |e| {
                e.job = Some(job_label(job_id));
                e.task = Some(partition as u64);
                e.node = Some(ctx.executor_node as u64);
                e.dur_us = slot_wait.as_micros() as u64;
                e.detail = format!(
                    "attempt {attempt_no}{}",
                    if speculative { " speculative" } else { "" }
                );
            });
            obs::global().incr("sched.tasks_launched");
            let run_started = Instant::now();

            // Failure injection wraps the user function. Panics in
            // task code are caught and treated as task failures so the
            // scheduler's bookkeeping (and retries) stay sound.
            let run_guarded = || -> SparkResult<R> {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task_fn(&ctx)))
                    .unwrap_or_else(|panic| {
                        let msg = panic
                            .downcast_ref::<&str>()
                            .map(|s| s.to_string())
                            .or_else(|| panic.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "task panicked".to_string());
                        Err(SparkError::Usage(format!("task panic: {msg}")))
                    })
            };
            let outcome: SparkResult<R> = match failures.failure_for(partition, attempt_no) {
                Some(FailureMode::BeforeWork) => Err(SparkError::InjectedFault {
                    partition,
                    attempt: attempt_no,
                }),
                Some(FailureMode::AfterWork) => {
                    // The work happens — side effects included — and
                    // then the attempt is reported dead.
                    let _ = run_guarded();
                    Err(SparkError::InjectedFault {
                        partition,
                        attempt: attempt_no,
                    })
                }
                None => run_guarded(),
            };

            let run_time = run_started.elapsed();
            obs::global().span_finish(task_span, |s| {
                s.task = Some(partition as u64);
                s.attempt = attempt_no;
                s.node = Some(ctx.executor_node as u64);
                s.failed = outcome.is_err();
                s.detail = if speculative {
                    "speculative".to_string()
                } else {
                    String::new()
                };
            });
            obs::global().record_time("sched.task_run_us", run_time);
            obs::global().emit(obs::EventKind::TaskFinish, |e| {
                e.job = Some(job_label(job_id));
                e.task = Some(partition as u64);
                e.node = Some(ctx.executor_node as u64);
                e.dur_us = run_time.as_micros() as u64;
                e.detail = format!(
                    "attempt {attempt_no} {}",
                    if outcome.is_ok() { "ok" } else { "failed" }
                );
            });
            obs::global().incr("sched.tasks_finished");

            let mut st = state.lock();
            st.outstanding -= 1;
            st.live[partition] -= 1;
            st.completions += 1;
            st.running.remove(&(partition, attempt_no));
            if let Some(kill_at) = st.kill_after {
                if st.completions >= kill_at && !st.killed {
                    st.killed = true;
                    st.fatal = Some(SparkError::JobKilled {
                        completed_tasks: st.completions,
                    });
                    obs::global().emit(obs::EventKind::JobKill, |e| {
                        e.job = Some(job_label(job_id));
                        e.detail = format!("after {} completed tasks", st.completions);
                    });
                    obs::global().incr("sched.jobs_killed");
                }
            }
            match outcome {
                Ok(r) => {
                    st.durations_us.push(run_time.as_micros() as u64);
                    if st.results[partition].is_none() {
                        st.results[partition] = Some(r);
                        st.succeeded += 1;
                    }
                }
                Err(e) => {
                    if st.results[partition].is_none() && !st.killed {
                        if st.attempts_launched[partition] < self.conf.max_task_attempts {
                            let next = st.attempts_launched[partition] + 1;
                            st.attempts_launched[partition] = next;
                            st.live[partition] += 1;
                            st.retries += 1;
                            st.queue.push_back((partition, next, false, Instant::now()));
                            obs::global().emit(obs::EventKind::TaskRetry, |ev| {
                                ev.job = Some(job_label(job_id));
                                ev.task = Some(partition as u64);
                                ev.detail = format!("attempt {next} after: {e}");
                            });
                            obs::global().incr("sched.task_retries");
                        } else if st.live[partition] == 0 {
                            st.fatal = Some(SparkError::TaskFailed {
                                partition,
                                attempts: st.attempts_launched[partition],
                                last_error: e.to_string(),
                            });
                        }
                    }
                }
            }
            wakeup.notify_all();
        }
    }
}

/// The `job` field scheduler events carry — `job-<id>`, correlatable
/// with [`TaskContext::job_id`].
pub fn job_label(job_id: u64) -> String {
    format!("job-{job_id}")
}

// Give the failure injector a crate-visible consume-on-read for the
// job-kill trigger (scripted per job).
impl FailureInjector {
    pub(crate) fn take_kill_after(&self) -> Option<u64> {
        let v = self.kill_after();
        if v.is_some() {
            // Clear so only one job dies.
            self.clear_kill();
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn sched(slots: usize) -> Scheduler {
        Scheduler::new(SchedulerConf {
            nodes: 4,
            total_slots: slots,
            max_task_attempts: 4,
            thread_cap: 16,
            speculation: true,
            speculation_multiplier: 3.0,
            speculation_quantile: 0.5,
            speculation_min_ms: 25,
        })
    }

    #[test]
    fn runs_every_partition_once() {
        let s = sched(8);
        let failures = FailureInjector::new();
        let calls = AtomicU64::new(0);
        let results = s
            .run_job(10, &failures, &|ctx: &TaskContext| {
                calls.fetch_add(1, Ordering::AcqRel);
                Ok(ctx.partition * 2)
            })
            .unwrap();
        assert_eq!(results, (0..10).map(|p| p * 2).collect::<Vec<_>>());
        assert_eq!(calls.load(Ordering::Acquire), 10);
    }

    #[test]
    fn retries_failed_tasks() {
        let s = sched(4);
        let failures = FailureInjector::new();
        failures.fail_task(3, 1, FailureMode::BeforeWork);
        failures.fail_task(3, 2, FailureMode::BeforeWork);
        let results = s
            .run_job(5, &failures, &|ctx: &TaskContext| Ok(ctx.attempt))
            .unwrap();
        assert_eq!(results[3], 3, "partition 3 succeeded on attempt 3");
        assert_eq!(results[0], 1);
    }

    #[test]
    fn after_work_failures_rerun_side_effects() {
        let s = sched(4);
        let failures = FailureInjector::new();
        failures.fail_task(0, 1, FailureMode::AfterWork);
        let side_effects = AtomicU64::new(0);
        let results = s
            .run_job(1, &failures, &|_ctx: &TaskContext| {
                side_effects.fetch_add(1, Ordering::AcqRel);
                Ok(())
            })
            .unwrap();
        assert_eq!(results.len(), 1);
        // The work ran twice: once in the doomed attempt, once in the
        // retry — the duplication hazard of Sec. 2.2.2.
        assert_eq!(side_effects.load(Ordering::Acquire), 2);
    }

    #[test]
    fn exhausted_retries_fail_the_job() {
        let s = sched(4);
        let failures = FailureInjector::new();
        for attempt in 1..=4 {
            failures.fail_task(1, attempt, FailureMode::BeforeWork);
        }
        let err = s
            .run_job(3, &failures, &|_ctx: &TaskContext| Ok(()))
            .unwrap_err();
        assert!(matches!(err, SparkError::TaskFailed { partition: 1, .. }));
    }

    #[test]
    fn speculative_copies_run_concurrently_and_first_wins() {
        let s = sched(8);
        let failures = FailureInjector::new();
        failures.speculate(0, 2);
        let executions = AtomicU64::new(0);
        let results = s
            .run_job(2, &failures, &|ctx: &TaskContext| {
                executions.fetch_add(1, Ordering::AcqRel);
                Ok(ctx.partition)
            })
            .unwrap();
        assert_eq!(results, vec![0, 1]);
        // Partition 0 executed 3 times (primary + 2 copies), partition
        // 1 once.
        assert_eq!(executions.load(Ordering::Acquire), 4);
    }

    #[test]
    fn job_kill_aborts() {
        let s = sched(2);
        let failures = FailureInjector::new();
        failures.kill_job_after(3);
        let err = s
            .run_job(10, &failures, &|_ctx: &TaskContext| Ok(()))
            .unwrap_err();
        assert!(matches!(err, SparkError::JobKilled { .. }));
        // The next job is unaffected.
        assert!(s
            .run_job(4, &failures, &|_ctx: &TaskContext| Ok(()))
            .is_ok());
    }

    #[test]
    fn executor_nodes_round_robin() {
        let s = sched(8);
        let failures = FailureInjector::new();
        let results = s
            .run_job(8, &failures, &|ctx: &TaskContext| Ok(ctx.executor_node))
            .unwrap();
        assert_eq!(results, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn zero_partitions_is_trivially_done() {
        let s = sched(4);
        let failures = FailureInjector::new();
        let results: Vec<()> = s
            .run_job(0, &failures, &|_ctx: &TaskContext| Ok(()))
            .unwrap();
        assert!(results.is_empty());
    }

    #[test]
    fn straggler_speculation_launches_duplicate() {
        let s = Scheduler::new(SchedulerConf {
            nodes: 4,
            total_slots: 8,
            max_task_attempts: 4,
            thread_cap: 16,
            speculation: true,
            speculation_multiplier: 3.0,
            speculation_quantile: 0.5,
            speculation_min_ms: 10,
        });
        let failures = FailureInjector::new();
        // Partition 3's first attempt is a grey straggler: alive but
        // ~80ms slow while everyone else is instant. The watchdog
        // should launch a duplicate, and the duplicate (attempt 2,
        // fast) wins.
        let results = s
            .run_job(4, &failures, &|ctx: &TaskContext| {
                if ctx.partition == 3 && ctx.attempt == 1 {
                    std::thread::sleep(std::time::Duration::from_millis(80));
                }
                Ok(ctx.partition)
            })
            .unwrap();
        assert_eq!(results, vec![0, 1, 2, 3]);
        let stats = s.stats.lock().values().copied().next().unwrap();
        assert!(
            stats.speculative >= 1,
            "straggler should trigger speculation, stats: {stats:?}"
        );
    }

    #[test]
    fn speculative_failure_does_not_kill_job() {
        let s = sched(8);
        let failures = FailureInjector::new();
        failures.speculate(0, 1);
        // The speculative copy (attempt 2) dies; the primary succeeds.
        failures.fail_task(0, 2, FailureMode::BeforeWork);
        let results = s
            .run_job(1, &failures, &|ctx: &TaskContext| Ok(ctx.partition))
            .unwrap();
        assert_eq!(results, vec![0]);
    }
}
