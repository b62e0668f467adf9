//! The one clock: every clock read, sleep, timed wait and timer of the
//! fabric goes through a [`Clock`].
//!
//! A `Clock` is a `Copy` handle on one of two time sources:
//!
//! * the **real** clock ([`Clock::real`]): `Instant::now`, thread
//!   sleeps, condvar deadlines, and one process-wide timer thread;
//! * a **manual** clock ([`Clock::manual`], for tests), which stands
//!   still until [`Clock::advance`] moves it. Under it a
//!   [`sleep`](Clock::sleep) advances the clock and returns at once, a
//!   [`wait`](Clock::wait) times out only once an advance has carried
//!   the clock to its deadline, and a launch armed with
//!   [`after`](Clock::after) is handed to the worker pool by the
//!   advance that makes it due.
//!
//! `mppdb::Cluster` and `sparklet::SparkContext` each own one (the
//! `clock` field of their configs, real by default) and hand it to
//! everything that reads time for them, so a test that builds them on a
//! manual clock decides every deadline, cooldown, backoff, hedge and
//! straggler verdict by its own advances.

use std::collections::BTreeMap;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::LazyLock;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};

/// Work armed on a clock's timer.
pub type Launch = Box<dyn FnOnce() + Send>;

/// An armed launch: its deadline, then its arming order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Armed(Instant, u64);

/// A time source handle; see the module docs.
#[derive(Clone, Copy)]
pub struct Clock(Option<&'static Manual>);

/// How often a wait on a manual clock looks at the clock again. An
/// advance cannot signal the waiter's own condvar without racing the
/// waiter's check, so the waiter looks again after this much real time.
const MANUAL_RECHECK: Duration = Duration::from_millis(1);

struct Manual {
    base: Instant,
    /// Virtual time since `base`, in nanoseconds.
    offset_ns: AtomicU64,
    timer: Timer,
    /// Threads inside [`Clock::wait`].
    waiters: AtomicUsize,
}

impl Clock {
    /// The machine's clock.
    pub fn real() -> Clock {
        Clock(None)
    }

    /// A clock of its own that moves only by [`Clock::advance`] (and by
    /// sleeps on it). Each call leaks its small state; it is meant for
    /// tests.
    pub fn manual() -> Clock {
        Clock(Some(Box::leak(Box::new(Manual {
            base: Instant::now(),
            offset_ns: AtomicU64::new(0),
            timer: Timer::new(),
            waiters: AtomicUsize::new(0),
        }))))
    }

    pub fn now(&self) -> Instant {
        match self.0 {
            None => Instant::now(),
            Some(m) => m.base + Duration::from_nanos(m.offset_ns.load(Ordering::Acquire)),
        }
    }

    /// Time since `earlier` (zero if `earlier` is later than now).
    pub fn since(&self, earlier: Instant) -> Duration {
        self.now().saturating_duration_since(earlier)
    }

    /// Block for `d`; on a manual clock, advance it by `d` instead.
    pub fn sleep(&self, d: Duration) {
        match self.0 {
            None => std::thread::sleep(d),
            Some(_) => self.advance(d),
        }
    }

    /// Wait on `cv` with `guard` until notified or until `deadline`;
    /// true when it timed out. Like any condvar wait it may also return
    /// early, so callers re-check their condition in a loop.
    pub fn wait<T>(&self, cv: &Condvar, guard: &mut MutexGuard<'_, T>, deadline: Instant) -> bool {
        let Some(m) = self.0 else {
            return cv.wait_until(guard, deadline).timed_out();
        };
        m.waiters.fetch_add(1, Ordering::AcqRel);
        let timed_out = loop {
            if self.now() >= deadline {
                break true;
            }
            if !cv
                .wait_until(guard, Instant::now() + MANUAL_RECHECK)
                .timed_out()
            {
                break false;
            }
        };
        m.waiters.fetch_sub(1, Ordering::AcqRel);
        timed_out
    }

    /// Hand `launch` to the worker pool once `delay` has passed, unless
    /// it is [`disarm`](Clock::disarm)ed first.
    pub fn after(&self, delay: Duration, launch: Launch) -> Armed {
        let timer = self.timer();
        let mut armed = timer.armed.lock();
        // Read under the lock, so an advance cannot slip between the
        // read and the arming and leave a launch due but unfired.
        let key = Armed(self.now() + delay, armed.next_id);
        armed.next_id += 1;
        armed.launches.insert(key, launch);
        if armed.launches.first_key_value().map(|(k, _)| k) == Some(&key) {
            timer.earlier.notify_one();
        }
        key
    }

    /// Take an armed launch back: true if it had not fired yet, so it
    /// never will; false if it has been handed to the pool.
    pub fn disarm(&self, key: Armed) -> bool {
        self.timer().armed.lock().launches.remove(&key).is_some()
    }

    /// Launches armed and neither fired nor disarmed.
    pub fn armed(&self) -> usize {
        self.timer().armed.lock().launches.len()
    }

    /// Move a manual clock forward by `d` and fire the launches that
    /// become due. Panics on the real clock, which nothing moves.
    pub fn advance(&self, d: Duration) {
        let m = self.0.expect("only a manual clock can be advanced");
        let due = {
            let mut armed = m.timer.armed.lock();
            m.offset_ns.fetch_add(d.as_nanos() as u64, Ordering::AcqRel);
            let now = self.now();
            let mut due = Vec::new();
            while let Some(entry) = armed.launches.first_entry() {
                if entry.key().0 > now {
                    break;
                }
                due.push(entry.remove());
            }
            due
        };
        due.into_iter().for_each(fire);
    }

    /// Threads blocked in [`Clock::wait`] on this manual clock (0 on the
    /// real clock, which does not count them).
    pub fn waiters(&self) -> usize {
        self.0.map_or(0, |m| m.waiters.load(Ordering::Acquire))
    }

    fn timer(&self) -> &'static Timer {
        match self.0 {
            None => &REAL_TIMER,
            Some(m) => &m.timer,
        }
    }
}

impl fmt::Debug for Clock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            None => f.write_str("Clock::real()"),
            Some(m) => write!(
                f,
                "Clock::manual(+{:?})",
                Duration::from_nanos(m.offset_ns.load(Ordering::Acquire))
            ),
        }
    }
}

/// Armed launches ordered by deadline. Arming and disarming take the
/// timer's lock and nothing else; a due launch is taken out under the
/// lock and handed to the pool after it is released, so the pool is
/// asked for a thread only when a launch fires, and never under the lock.
struct Timer {
    armed: Mutex<Launches>,
    /// Signalled when an arming moves the earliest deadline forward.
    earlier: Condvar,
}

struct Launches {
    launches: BTreeMap<Armed, Launch>,
    next_id: u64,
}

impl Timer {
    fn new() -> Timer {
        Timer {
            armed: Mutex::new(Launches {
                launches: BTreeMap::new(),
                next_id: 0,
            }),
            earlier: Condvar::new(),
        }
    }

    /// The real timer's thread: wait for the earliest deadline to pass
    /// and take its launch.
    fn next_due(&self) -> Launch {
        let mut armed = self.armed.lock();
        loop {
            let earliest = armed.launches.first_key_value().map(|(k, _)| *k);
            match earliest {
                Some(key) if key.0 <= Instant::now() => {
                    if let Some(launch) = armed.launches.remove(&key) {
                        return launch;
                    }
                }
                Some(Armed(deadline, _)) => {
                    self.earlier.wait_until(&mut armed, deadline);
                }
                None => self.earlier.wait(&mut armed),
            }
        }
    }
}

/// The real clock's timer and its one thread, started on first use.
static REAL_TIMER: LazyLock<Timer> = LazyLock::new(|| {
    // Without its thread no launch fires: every hedged read then waits
    // for its primary, as with hedging off.
    let _ = std::thread::Builder::new()
        .name("fabric-timer".to_string())
        .spawn(|| loop {
            fire(REAL_TIMER.next_due());
        });
    Timer::new()
});

/// A launch the pool cannot take is dropped unrun, which its owner sees
/// as work that never answered.
fn fire(launch: Launch) {
    let _ = panic::catch_unwind(AssertUnwindSafe(|| crate::pool::spawn(launch)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn a_manual_clock_moves_only_when_advanced() {
        let clock = Clock::manual();
        let t0 = clock.now();
        assert_eq!(clock.now(), t0);
        clock.advance(Duration::from_millis(7));
        assert_eq!(clock.since(t0), Duration::from_millis(7));
        clock.sleep(Duration::from_millis(3));
        assert_eq!(clock.since(t0), Duration::from_millis(10));
        assert_eq!(
            clock.since(clock.now() + Duration::from_secs(1)),
            Duration::ZERO
        );
    }

    #[test]
    fn a_manual_wait_times_out_only_at_its_deadline() {
        let clock = Clock::manual();
        let lock = Mutex::new(());
        let cv = Condvar::new();
        let deadline = clock.now() + Duration::from_secs(60);
        let timed_out = std::thread::scope(|s| {
            let waiter = s.spawn(|| clock.wait(&cv, &mut lock.lock(), deadline));
            while clock.waiters() == 0 {
                std::thread::yield_now();
            }
            clock.advance(Duration::from_secs(60) - Duration::from_nanos(1));
            assert_eq!(clock.waiters(), 1, "a nanosecond short of the deadline");
            clock.advance(Duration::from_nanos(1));
            waiter.join().unwrap()
        });
        assert!(timed_out, "timed out once the clock reached the deadline");
        assert_eq!(clock.waiters(), 0);
    }

    #[test]
    fn a_notified_manual_wait_returns_without_an_advance() {
        let clock = Clock::manual();
        let lock = Mutex::new(false);
        let cv = Condvar::new();
        let deadline = clock.now() + Duration::from_secs(3600);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let mut done = lock.lock();
                while !*done {
                    assert!(
                        !clock.wait(&cv, &mut done, deadline),
                        "no advance, no timeout"
                    );
                }
            });
            *lock.lock() = true;
            cv.notify_all();
            waiter.join().unwrap();
        });
    }

    #[test]
    fn manual_launches_fire_inside_the_advance_that_makes_them_due() {
        let clock = Clock::manual();
        let (tx, rx) = mpsc::channel();
        let launch = |n: u32| -> Launch {
            let tx = tx.clone();
            Box::new(move || tx.send(n).unwrap())
        };
        clock.after(Duration::from_millis(10), launch(1));
        let second = clock.after(Duration::from_millis(20), launch(2));
        clock.after(Duration::from_millis(30), launch(3));
        assert_eq!(clock.armed(), 3);
        clock.advance(Duration::from_millis(10) - Duration::from_nanos(1));
        assert_eq!(clock.armed(), 3, "nothing is due yet");
        clock.advance(Duration::from_nanos(1));
        assert_eq!(rx.recv().unwrap(), 1);
        assert!(clock.disarm(second), "an unfired launch comes back");
        assert!(!clock.disarm(second), "once");
        clock.sleep(Duration::from_millis(20));
        assert_eq!(rx.recv().unwrap(), 3);
        assert_eq!(clock.armed(), 0);
        assert!(rx.try_recv().is_err(), "the disarmed launch never ran");
    }

    #[test]
    fn the_real_timer_fires_and_disarms() {
        let clock = Clock::real();
        let (tx, rx) = mpsc::channel();
        let kept = clock.after(Duration::from_secs(3600), Box::new(|| {}));
        clock.after(Duration::ZERO, Box::new(move || tx.send(()).unwrap()));
        rx.recv().unwrap();
        assert!(clock.disarm(kept));
    }
}
