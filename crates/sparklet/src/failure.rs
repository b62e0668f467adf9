//! Failure injection: the scheduler hazards the paper's protocol is
//! built to survive.
//!
//! The paper (Sec. 2.2.2, 3.2) enumerates the failure modes a reliable
//! save must tolerate: task failure before doing work, task failure
//! *after* doing its work ("even if a task only commits after it is
//! completely done, it could still fail immediately after the commit
//! and be restarted"), speculative duplicate execution, and total
//! engine failure. This module lets tests and benchmarks inject all of
//! them deterministically or randomly (seeded).

use std::collections::HashMap;

use common::locks;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// When within an attempt the injected failure strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureMode {
    /// The attempt dies before running any user code.
    BeforeWork,
    /// The attempt runs the user code to completion — side effects and
    /// all — and *then* reports failure, so the scheduler retries work
    /// that already happened.
    AfterWork,
}

#[derive(Default)]
struct Plan {
    /// Scripted failures per `(partition, attempt)` (attempts are
    /// 1-based).
    scripted: HashMap<(usize, u32), FailureMode>,
    /// Extra speculative copies launched alongside attempt 1 of a
    /// partition.
    speculative: HashMap<usize, u32>,
    /// Kill the job after this many task completions.
    kill_after: Option<u64>,
    /// Random failures: probability per attempt, with an RNG.
    random: Option<(f64, StdRng, FailureMode)>,
}

/// Shared failure-injection state, consulted by the scheduler.
pub struct FailureInjector {
    plan: Mutex<Plan>,
}

impl Default for FailureInjector {
    fn default() -> FailureInjector {
        FailureInjector {
            plan: Mutex::new(&locks::SPARK_FAILURES, Plan::default()),
        }
    }
}

impl FailureInjector {
    pub fn new() -> FailureInjector {
        FailureInjector::default()
    }

    /// Script a failure for a specific attempt of a partition's task.
    pub fn fail_task(&self, partition: usize, attempt: u32, mode: FailureMode) {
        self.plan.lock().scripted.insert((partition, attempt), mode);
    }

    /// Launch `copies` speculative duplicates of the partition's task.
    pub fn speculate(&self, partition: usize, copies: u32) {
        self.plan.lock().speculative.insert(partition, copies);
    }

    /// Kill the next job after `completions` task completions.
    pub fn kill_job_after(&self, completions: u64) {
        self.plan.lock().kill_after = Some(completions);
    }

    /// Fail each attempt independently with probability `p` (seeded).
    pub fn random_failures(&self, p: f64, seed: u64, mode: FailureMode) {
        assert!((0.0..1.0).contains(&p), "probability must be in [0, 1)");
        self.plan.lock().random = Some((p, StdRng::seed_from_u64(seed), mode));
    }

    /// Remove all injection state.
    pub fn clear(&self) {
        *self.plan.lock() = Plan::default();
    }

    // --- scheduler-facing queries ---

    pub(crate) fn failure_for(&self, partition: usize, attempt: u32) -> Option<FailureMode> {
        let mut plan = self.plan.lock();
        if let Some(mode) = plan.scripted.remove(&(partition, attempt)) {
            return Some(mode);
        }
        if let Some((p, rng, mode)) = plan.random.as_mut() {
            if rng.random_bool(*p) {
                return Some(*mode);
            }
        }
        None
    }

    pub(crate) fn speculative_copies(&self, partition: usize) -> u32 {
        self.plan
            .lock()
            .speculative
            .get(&partition)
            .copied()
            .unwrap_or(0)
    }

    pub(crate) fn kill_after(&self) -> Option<u64> {
        self.plan.lock().kill_after
    }

    pub(crate) fn clear_kill(&self) {
        self.plan.lock().kill_after = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_failures_fire_once() {
        let inj = FailureInjector::new();
        inj.fail_task(3, 1, FailureMode::BeforeWork);
        assert_eq!(inj.failure_for(3, 1), Some(FailureMode::BeforeWork));
        assert_eq!(inj.failure_for(3, 1), None, "consumed");
        assert_eq!(inj.failure_for(3, 2), None);
    }

    #[test]
    fn random_failures_seeded_and_bounded() {
        let inj = FailureInjector::new();
        inj.random_failures(0.5, 42, FailureMode::AfterWork);
        let hits: usize = (0..1000)
            .filter(|&i| inj.failure_for(i, 1).is_some())
            .count();
        assert!(hits > 300 && hits < 700, "≈50% expected, got {hits}");
    }

    #[test]
    fn clear_resets_everything() {
        let inj = FailureInjector::new();
        inj.fail_task(0, 1, FailureMode::BeforeWork);
        inj.speculate(1, 2);
        inj.kill_job_after(5);
        inj.clear();
        assert_eq!(inj.failure_for(0, 1), None);
        assert_eq!(inj.speculative_copies(1), 0);
        assert_eq!(inj.kill_after(), None);
    }
}
