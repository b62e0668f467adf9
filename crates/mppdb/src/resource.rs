//! Resource pools: named admission-control buckets for query workloads.
//!
//! The paper isolates the connector's data-movement traffic in a
//! dedicated pool sized at half the machine RAM (Sec. 4.1). Our pools
//! bound concurrent statement admissions only (no memory budget); the
//! benchmark harness reads the high-water marks when reporting resource
//! usage.
//!
//! Pools built with [`ResourcePool::new`] queue without bound, the
//! legacy Vertica-queues-rather-than-rejects behavior. Pools configured
//! via [`ResourcePool::with_admission`] add *load shedding*: a bounded
//! wait queue and a queue-time deadline. A statement that would overflow
//! the queue, or that waits past the deadline, is shed with
//! [`DbError::Overloaded`] — a typed, transient error the connector
//! retries with backoff instead of piling more work onto a saturated
//! node. Sheds are counted under `shed.*`.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use common::clock::Clock;
use common::locks;
use parking_lot::{Condvar, Mutex};

use crate::error::{DbError, DbResult};

#[derive(Debug, Default)]
struct PoolState {
    active: usize,
    waiting: usize,
}

/// A named resource pool.
#[derive(Debug)]
pub struct ResourcePool {
    name: String,
    max_concurrency: usize,
    /// Statements allowed to wait for a slot; beyond this, shed.
    max_queue: usize,
    /// How long a queued statement may wait before it is shed.
    queue_timeout: Option<Duration>,
    state: Mutex<PoolState>,
    released: Condvar,
    high_water: AtomicUsize,
    shed_total: AtomicU64,
}

impl ResourcePool {
    pub fn new(name: impl Into<String>, max_concurrency: usize) -> ResourcePool {
        ResourcePool {
            name: name.into(),
            max_concurrency: max_concurrency.max(1),
            max_queue: usize::MAX,
            queue_timeout: None,
            state: Mutex::new(&locks::RESOURCE_POOL_STATE, PoolState::default()),
            released: Condvar::new(),
            high_water: AtomicUsize::new(0),
            shed_total: AtomicU64::new(0),
        }
    }

    /// Bound the admission queue: at most `max_queue` statements may
    /// wait for a slot, and none may wait longer than `queue_timeout`.
    pub fn with_admission(mut self, max_queue: usize, queue_timeout: Duration) -> ResourcePool {
        self.max_queue = max_queue;
        self.queue_timeout = Some(queue_timeout);
        self
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn max_concurrency(&self) -> usize {
        self.max_concurrency
    }

    pub fn max_queue(&self) -> usize {
        self.max_queue
    }

    pub fn queue_timeout(&self) -> Option<Duration> {
        self.queue_timeout
    }

    /// Admit one statement, queueing while the pool is full (Vertica
    /// queues rather than rejects — up to this pool's admission
    /// bounds), with the queue timeout measured on `clock`. Returns a
    /// guard releasing the slot, or [`DbError::Overloaded`] if the
    /// statement was shed.
    pub fn try_admit(self: &Arc<Self>, clock: Clock) -> DbResult<PoolGuard> {
        let started = clock.now();
        let mut st = self.state.lock();
        let queued = st.active >= self.max_concurrency;
        if queued {
            if st.waiting >= self.max_queue {
                drop(st);
                return Err(self.shed(
                    "queue full",
                    obs::names::SHED_QUEUE_FULL,
                    clock.since(started),
                ));
            }
            st.waiting += 1;
            let deadline = self.queue_timeout.map(|t| started + t);
            while st.active >= self.max_concurrency {
                match deadline {
                    Some(d) => {
                        if clock.wait(&self.released, &mut st, d)
                            && st.active >= self.max_concurrency
                        {
                            st.waiting -= 1;
                            drop(st);
                            return Err(self.shed(
                                "queue timeout",
                                obs::names::SHED_TIMEOUT,
                                clock.since(started),
                            ));
                        }
                    }
                    None => self.released.wait(&mut st),
                }
            }
            st.waiting -= 1;
        }
        st.active += 1;
        self.high_water.fetch_max(st.active, Ordering::AcqRel);
        let now_active = st.active;
        drop(st);
        let waited = clock.since(started);
        obs::global().emit(obs::EventKind::PoolAdmit, |e| {
            e.dur_us = waited.as_micros() as u64;
            e.detail = format!(
                "pool {}, {now_active} active{}",
                self.name,
                if queued { ", queued" } else { "" }
            );
        });
        obs::global().add(obs::names::DB_POOL_ADMISSIONS, 1);
        if queued {
            obs::global().add(obs::names::DB_POOL_QUEUED, 1);
        }
        obs::global().record_time(obs::names::DB_POOL_ADMIT_WAIT_US, waited);
        Ok(PoolGuard {
            pool: Arc::clone(self),
        })
    }

    fn shed(&self, why: &str, counter: obs::names::Counter, waited: Duration) -> DbError {
        self.shed_total.fetch_add(1, Ordering::Relaxed);
        obs::global().emit(obs::EventKind::PoolAdmit, |e| {
            e.dur_us = waited.as_micros() as u64;
            e.detail = format!("pool {} shed ({why})", self.name);
        });
        obs::global().incr(counter);
        obs::global().incr(obs::names::SHED_TOTAL);
        DbError::Overloaded {
            pool: self.name.clone(),
        }
    }

    pub fn active(&self) -> usize {
        self.state.lock().active
    }

    /// Statements currently waiting in the admission queue.
    pub fn waiting(&self) -> usize {
        self.state.lock().waiting
    }

    /// Highest concurrent admission count observed.
    pub fn high_water_mark(&self) -> usize {
        self.high_water.load(Ordering::Acquire)
    }

    /// Statements shed by this pool since creation.
    pub fn shed_count(&self) -> u64 {
        self.shed_total.load(Ordering::Relaxed)
    }
}

/// RAII admission guard.
#[derive(Debug)]
pub struct PoolGuard {
    pool: Arc<ResourcePool>,
}

impl Drop for PoolGuard {
    fn drop(&mut self) {
        let mut st = self.pool.state.lock();
        st.active -= 1;
        self.pool.released.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_tracks_active_and_high_water() {
        let clock = Clock::manual();
        let pool = Arc::new(ResourcePool::new("p", 8));
        let g1 = pool.try_admit(clock).unwrap();
        let g2 = pool.try_admit(clock).unwrap();
        assert_eq!(pool.active(), 2);
        drop(g1);
        assert_eq!(pool.active(), 1);
        drop(g2);
        assert_eq!(pool.active(), 0);
        assert_eq!(pool.high_water_mark(), 2);
    }

    #[test]
    fn concurrency_bound_enforced() {
        // Each admitted statement holds its slot until all eight are
        // admitted or queued, so the pool is full while the last six
        // arrive: a bound that lets a third in shows up as 3.
        let clock = Clock::manual();
        let pool = Arc::new(ResourcePool::new("p", 2));
        let observed_max = AtomicUsize::new(0);
        let admitted = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let _g = pool.try_admit(clock).unwrap();
                    observed_max.fetch_max(pool.active(), Ordering::AcqRel);
                    admitted.fetch_add(1, Ordering::AcqRel);
                    // `admitted` first: a statement leaves `waiting`
                    // before it counts as admitted, so the sum never
                    // reads high.
                    while admitted.load(Ordering::Acquire) + pool.waiting() < 8 {
                        std::thread::yield_now();
                    }
                });
            }
        });
        assert_eq!(observed_max.load(Ordering::Acquire), 2);
        assert_eq!(pool.high_water_mark(), 2);
        assert_eq!(pool.active(), 0);
    }

    #[test]
    fn full_queue_sheds_immediately() {
        let clock = Clock::manual();
        let pool = Arc::new(ResourcePool::new("tiny", 1).with_admission(0, Duration::from_secs(1)));
        let g = pool.try_admit(clock).expect("first admission fits");
        let err = pool.try_admit(clock).expect_err("queue of 0 sheds at once");
        assert_eq!(
            err,
            DbError::Overloaded {
                pool: "tiny".into()
            }
        );
        assert_eq!(pool.shed_count(), 1);
        drop(g);
        // Slot free again: admission succeeds.
        assert!(pool.try_admit(clock).is_ok());
    }

    #[test]
    fn queue_timeout_sheds_after_deadline() {
        let clock = Clock::manual();
        let pool =
            Arc::new(ResourcePool::new("slowq", 1).with_admission(4, Duration::from_millis(10)));
        let _g = pool.try_admit(clock).expect("first admission fits");
        let err = std::thread::scope(|s| {
            let waiter = s.spawn(|| pool.try_admit(clock).map(drop));
            while clock.waiters() == 0 {
                std::thread::yield_now();
            }
            clock.advance(Duration::from_millis(10) - Duration::from_nanos(1));
            assert_eq!(pool.waiting(), 1, "still queued a nanosecond short");
            clock.advance(Duration::from_nanos(1));
            waiter.join().unwrap().expect_err("waiter times out")
        });
        assert!(matches!(err, DbError::Overloaded { .. }));
        assert_eq!(pool.shed_count(), 1);
        assert_eq!(pool.waiting(), 0, "shed waiter leaves the queue");
    }

    #[test]
    fn queued_waiter_admitted_when_slot_frees() {
        let clock = Clock::manual();
        let pool = Arc::new(ResourcePool::new("q", 1).with_admission(4, Duration::from_secs(5)));
        let g = pool.try_admit(clock).expect("first admission fits");
        std::thread::scope(|s| {
            let h = s.spawn(|| pool.try_admit(clock).map(drop).is_ok());
            while clock.waiters() == 0 {
                std::thread::yield_now();
            }
            drop(g);
            assert!(h.join().unwrap(), "waiter admitted once the slot frees");
        });
        assert_eq!(pool.shed_count(), 0);
    }
}
