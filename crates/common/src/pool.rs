//! The worker threads every fan-out in the fabric runs on: scheduler
//! tasks, per-segment scans and hedged reads.
//!
//! A call takes a parked thread, or starts a new one when none is
//! parked, so every call has a thread of its own at once — what spawning
//! one per call gives, and why nested calls cannot deadlock on the pool.
//! When the call returns, its thread parks for the next one; a thread
//! that finds [`MAX_PARKED`] threads parked already exits instead. There
//! is no idle timer and no option: a small job stops paying for a fresh
//! OS thread, and that is all the pool changes.
//!
//! [`run_all`] is the scoped form and [`spawn`] the detached one. A
//! scoped fan-out's caller does a share of the work: it runs call 0
//! itself while pooled threads run the rest, so a fan-out of one hands
//! nothing to another thread. Call 0 thus runs under whatever the caller
//! holds, and a caller must hold no lock guard across [`run_all`].

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, LazyLock};

use crate::locks;
use parking_lot::{Condvar, Mutex};

/// Threads kept parked between calls; a thread that returns from its
/// call while this many are parked exits.
pub const MAX_PARKED: usize = 64;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A parked thread's mailbox: the call handed to it.
struct Slot {
    handoff: Mutex<Option<Job>>,
    ready: Condvar,
}

/// Threads waiting for a call, most recently parked last.
static PARKED: LazyLock<Mutex<Vec<Arc<Slot>>>> =
    LazyLock::new(|| Mutex::new(&locks::POOL_PARKED, Vec::new()));

/// Run `job` on a parked thread, or on a new one if none is parked.
fn dispatch(job: Job) -> std::io::Result<()> {
    let parked = PARKED.lock().pop();
    if let Some(slot) = parked {
        *slot.handoff.lock() = Some(job);
        slot.ready.notify_one();
        return Ok(());
    }
    let slot = Arc::new(Slot {
        handoff: Mutex::new(&locks::POOL_HANDOFF, None),
        ready: Condvar::new(),
    });
    #[cfg(test)]
    tally::SPAWNED.fetch_add(1, std::sync::atomic::Ordering::AcqRel);
    std::thread::Builder::new()
        .name("fabric-pool".to_string())
        .spawn(move || worker(slot, job))?;
    Ok(())
}

/// A pooled thread: run the call it was started for, then park and run
/// whatever it is handed, until it finds the parked list full.
fn worker(slot: Arc<Slot>, mut job: Job) {
    loop {
        job();
        {
            let mut parked = PARKED.lock();
            if parked.len() >= MAX_PARKED {
                #[cfg(test)]
                tally::EXITED.fetch_add(1, std::sync::atomic::Ordering::AcqRel);
                return;
            }
            parked.push(Arc::clone(&slot));
        }
        let mut handoff = slot.handoff.lock();
        job = loop {
            if let Some(next) = handoff.take() {
                break next;
            }
            slot.ready.wait(&mut handoff);
        };
    }
}

/// Run `f` on a pooled thread and return at once; nothing waits for it
/// (an abandoned call keeps its thread until it returns). Panics when no
/// thread can be started, as `std::thread::spawn` does.
pub fn spawn(f: impl FnOnce() + Send + 'static) {
    if let Err(e) = dispatch(Box::new(f)) {
        panic!("pool: cannot start a thread: {e}");
    }
}

/// What a [`run_all`] waits on.
struct Latch {
    pending_calls: Mutex<Pending>,
    all_returned: Condvar,
}

struct Pending {
    /// Calls that have not returned.
    calls: usize,
    /// The first panic among those that have.
    panic: Option<Box<dyn Any + Send>>,
}

impl Latch {
    fn count_down(&self, calls: usize, panic: Option<Box<dyn Any + Send>>) {
        let mut pending = self.pending_calls.lock();
        pending.calls -= calls;
        if pending.panic.is_none() {
            pending.panic = panic;
        }
        if pending.calls == 0 {
            self.all_returned.notify_one();
        }
    }
}

/// Run `f(0)`, …, `f(n - 1)` and return once every call has returned:
/// `f(0)` on the calling thread, each other call on a pooled thread of
/// its own. A panic in a call is re-raised here with its payload — the
/// first one, if several calls panicked — after all of them have
/// returned, as `std::thread::scope` waits for every thread before it
/// panics. The caller must hold no lock guard across the call.
pub fn run_all<F: Fn(usize) + Sync>(n: usize, f: &F) {
    if n == 0 {
        return;
    }
    let latch = Arc::new(Latch {
        pending_calls: Mutex::new(
            &locks::POOL_LATCH,
            Pending {
                calls: n,
                panic: None,
            },
        ),
        all_returned: Condvar::new(),
    });
    for i in 1..n {
        let call_latch = Arc::clone(&latch);
        let call: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| f(i)));
            call_latch.count_down(1, outcome.err());
        });
        // The call borrows `f`, and through it the caller's stack. This
        // function does not return before the latch counts every call
        // down, each call after its last use of `f`; a call that never
        // started was dropped in `dispatch` and is counted down below.
        // SAFETY: so `f` outlives every use the erased call makes of it.
        let call = unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(call) };
        if let Err(e) = dispatch(call) {
            let failure = format!("pool: cannot start a thread: {e}");
            latch.count_down(n - i, Some(Box::new(failure)));
            break;
        }
    }
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| f(0)));
    latch.count_down(1, outcome.err());
    let mut pending = latch.pending_calls.lock();
    while pending.calls > 0 {
        latch.all_returned.wait(&mut pending);
    }
    let panic = pending.panic.take();
    drop(pending);
    if let Some(payload) = panic {
        panic::resume_unwind(payload);
    }
}

/// Thread starts and exits, for the tests of reuse and of the bound.
#[cfg(test)]
mod tally {
    use std::sync::atomic::AtomicUsize;

    pub(super) static SPAWNED: AtomicUsize = AtomicUsize::new(0);
    pub(super) static EXITED: AtomicUsize = AtomicUsize::new(0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::time::{Duration, Instant};

    /// The class of the locks these tests make for themselves.
    static TEST: parking_lot::LockClass = parking_lot::LockClass {
        name: "TEST",
        rank: 0,
    };

    /// The tests count the pool's threads, so they take turns.
    fn serial() -> parking_lot::MutexGuard<'static, ()> {
        static SERIAL: LazyLock<Mutex<()>> = LazyLock::new(|| Mutex::new(&TEST, ()));
        SERIAL.lock()
    }

    fn spawned() -> usize {
        tally::SPAWNED.load(Ordering::Acquire)
    }

    fn exited() -> usize {
        tally::EXITED.load(Ordering::Acquire)
    }

    fn parked() -> usize {
        PARKED.lock().len()
    }

    /// Wait until every thread of the pool is parked: the calls are over
    /// and their threads have parked or exited.
    fn settle() {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let parked = parked();
            assert!(parked <= MAX_PARKED);
            if parked == spawned() - exited() {
                return;
            }
            assert!(Instant::now() < deadline, "pool threads never parked");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn calls_that_meet_at_a_barrier_all_finish() {
        let _serial = serial();
        for n in [1, 2, 16, 40] {
            let barrier = Barrier::new(n);
            let finished = AtomicUsize::new(0);
            run_all(n, &|_| {
                barrier.wait();
                finished.fetch_add(1, Ordering::AcqRel);
            });
            assert_eq!(finished.load(Ordering::Acquire), n);
        }
    }

    #[test]
    fn a_panic_surfaces_with_its_payload_after_every_other_call_returned() {
        let _serial = serial();
        let finished = AtomicUsize::new(0);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            run_all(4, &|i| {
                if i == 0 {
                    panic!("call 0 failed");
                }
                std::thread::sleep(Duration::from_millis(20));
                finished.fetch_add(1, Ordering::AcqRel);
            })
        }));
        let payload = caught.expect_err("the panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"call 0 failed"));
        assert_eq!(finished.load(Ordering::Acquire), 3);
        // The pool survives it.
        let after = AtomicUsize::new(0);
        run_all(4, &|_| {
            after.fetch_add(1, Ordering::AcqRel);
        });
        assert_eq!(after.load(Ordering::Acquire), 4);
    }

    #[test]
    fn call_0_runs_on_the_callers_thread_and_its_panic_waits_for_the_rest() {
        let _serial = serial();
        let caller = std::thread::current().id();
        let ran_on = Mutex::new(&TEST, Vec::new());
        run_all(3, &|i| ran_on.lock().push((i, std::thread::current().id())));
        let mut ran_on = ran_on.into_inner();
        ran_on.sort_by_key(|&(i, _)| i);
        assert_eq!(ran_on[0], (0, caller));
        assert!(ran_on[1..].iter().all(|&(_, id)| id != caller));

        let finished = AtomicUsize::new(0);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            run_all(3, &|i| {
                assert_eq!(i == 0, std::thread::current().id() == caller);
                if i == 0 {
                    panic!("call 0 on the caller");
                }
                std::thread::sleep(Duration::from_millis(30));
                finished.fetch_add(1, Ordering::AcqRel);
            })
        }));
        let payload = caught.expect_err("call 0's panic reaches the caller");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"call 0 on the caller")
        );
        assert_eq!(
            finished.load(Ordering::Acquire),
            2,
            "raised before the rest returned"
        );
    }

    #[test]
    fn a_nested_run_all_completes() {
        let _serial = serial();
        let leaves = AtomicUsize::new(0);
        run_all(4, &|_| {
            run_all(4, &|_| {
                leaves.fetch_add(1, Ordering::AcqRel);
            })
        });
        assert_eq!(leaves.load(Ordering::Acquire), 16);
    }

    #[test]
    fn run_all_of_nothing_returns_at_once() {
        let _serial = serial();
        let before = spawned();
        run_all(0, &|_| panic!("no call runs"));
        assert_eq!(spawned(), before);
    }

    #[test]
    fn threads_are_reused_and_the_parked_list_stays_bounded() {
        let _serial = serial();
        // Warm: at least four threads, all parked afterwards.
        let warm = Barrier::new(4);
        run_all(4, &|_| {
            warm.wait();
        });
        settle();
        let before = spawned();
        for _ in 0..50 {
            let barrier = Barrier::new(4);
            run_all(4, &|_| {
                barrier.wait();
            });
            settle();
        }
        assert_eq!(spawned(), before, "50 jobs of four calls started no thread");

        // More calls at once than the list holds: the surplus exits.
        let n = MAX_PARKED + 8;
        let barrier = Barrier::new(n);
        let exited_before = exited();
        run_all(n, &|_| {
            barrier.wait();
        });
        settle();
        assert_eq!(parked(), MAX_PARKED);
        // The caller runs call 0: `n - 1` calls took pooled threads.
        assert!(exited() - exited_before >= 7);
    }

    #[test]
    fn spawn_runs_detached_on_a_pooled_thread() {
        let _serial = serial();
        let (tx, rx) = std::sync::mpsc::channel();
        spawn(move || tx.send(7).unwrap());
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(7));
    }

    /// xorshift64*: the stress test's seeded choices.
    fn next(state: &mut u64) -> u64 {
        *state ^= *state >> 12;
        *state ^= *state << 25;
        *state ^= *state >> 27;
        state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// 10,000 jobs of random width, some with nested jobs, some with a
    /// panicking call: every call runs exactly once, and a job's panic
    /// comes back to its caller.
    #[test]
    #[ignore]
    fn stress_random_widths_nesting_and_panics() {
        let _serial = serial();
        // Keep the planned panics out of the log; report any other.
        let report = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<&str>() != Some(&"planned") {
                report(info);
            }
        }));
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..10_000 {
            let n = (next(&mut seed) % 12) as usize;
            let nested = (next(&mut seed) % 4) as usize;
            let panicking =
                (next(&mut seed).is_multiple_of(8) && n > 0).then(|| next(&mut seed) as usize % n);
            let calls = AtomicUsize::new(0);
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                run_all(n, &|i| {
                    calls.fetch_add(1, Ordering::AcqRel);
                    if i.is_multiple_of(3) {
                        run_all(nested, &|_| {
                            calls.fetch_add(1, Ordering::AcqRel);
                        });
                    }
                    if panicking == Some(i) {
                        panic!("planned");
                    }
                })
            }));
            let nesting = (0..n).filter(|i| i.is_multiple_of(3)).count() * nested;
            assert_eq!(calls.load(Ordering::Acquire), n + nesting);
            match (caught, panicking) {
                (Ok(()), None) => {}
                (Err(payload), Some(_)) => {
                    assert_eq!(payload.downcast_ref::<&str>(), Some(&"planned"))
                }
                (outcome, planned) => {
                    panic!("panicked: {}, planned: {planned:?}", outcome.is_err())
                }
            }
            assert!(parked() <= MAX_PARKED);
        }
    }
}
