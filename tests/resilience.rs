//! Resilience suite: the grey-failure defenses in isolation.
//!
//! * a seeded property sweep over the circuit-breaker state machine —
//!   every observed transition must be one the design allows, caused by
//!   the operation that is allowed to cause it;
//! * admission control: a bounded resource pool sheds excess statements
//!   with the typed [`mppdb::DbError::Overloaded`] error instead of
//!   queueing without bound, and recovers as soon as a slot frees;
//! * deadline fast-fail: a save against a dead cluster with a tight
//!   job deadline fails with `DeadlineExceeded` near the budget instead
//!   of grinding through its full retry schedule;
//! * every new counter family (`health.*`, `breaker.*`, `hedge.*`,
//!   `shed.*`, `deadline.*`) is visible through the `dc_counters`
//!   system table, same as Vertica's data collector.
//!
//! Tests sharing the process-global `obs` collector are serialized
//! behind one mutex so counter deltas are attributable.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use vertica_spark_fabric::common::clock::Clock;
use vertica_spark_fabric::prelude::*;
use vertica_spark_fabric::{connector, mppdb, obs};

use connector::{
    BreakerState, ConnectorError, ConnectorOptions, ConnectorResult, HealthConfig, HealthTracker,
};
use mppdb::resource::ResourcePool;
use mppdb::DbError;

static RESILIENCE_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    RESILIENCE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// An engine and a database on one clock that only the test moves.
fn setup(clock: Clock) -> (SparkContext, std::sync::Arc<mppdb::Cluster>) {
    let db = Cluster::new(ClusterConfig {
        clock,
        ..ClusterConfig::default()
    });
    let ctx = SparkContext::new(SparkConf {
        nodes: 4,
        cores_per_node: 4,
        thread_cap: 8,
        clock,
        ..SparkConf::default()
    });
    DefaultSource::register(&ctx, db.clone());
    (ctx, db)
}

// ---------------------------------------------------------------------
// Circuit breaker: seeded property sweep
// ---------------------------------------------------------------------

/// Drive one breaker through a random operation schedule and check that
/// every state transition is legal *and attributable*: the breaker may
/// only move along the design's edges, and only the operation that owns
/// an edge may traverse it.
///
/// ```text
/// Closed ──(failure, threshold reached)──▶ Open
/// Open ──(acquire past cooldown)──▶ HalfOpen
/// HalfOpen ──(failure)──▶ Open
/// HalfOpen | Open ──(success)──▶ Closed   (any success fully closes)
/// ```
#[test]
fn breaker_state_machine_property_sweep() {
    const OP_SUCCESS: u8 = 0;
    const OP_FAILURE: u8 = 1;
    const OP_ACQUIRE: u8 = 2;
    const OP_SLEEP: u8 = 3;

    for seed in 0..50u64 {
        let mut rng = StdRng::seed_from_u64(0xb4ea_0000 + seed);
        let cfg = HealthConfig {
            failure_threshold: 3,
            open_cooldown: Duration::from_millis(3),
            half_open_probes: 2,
        };
        let cooldown = cfg.open_cooldown;
        let clock = Clock::manual();
        let tracker = HealthTracker::with_config(1, cfg, clock);
        let mut prev = tracker.state(0);
        assert_eq!(prev, BreakerState::Closed, "breakers start closed");

        let steps = rng.random_range(30usize..80);
        for step in 0..steps {
            let op = rng.random_range(0u8..4);
            match op {
                OP_SUCCESS => {
                    tracker.record_success(0, Duration::from_micros(rng.random_range(50u64..500)))
                }
                OP_FAILURE => tracker.record_failure(0),
                OP_ACQUIRE => {
                    tracker.acquire(0);
                }
                OP_SLEEP => clock.advance(cooldown + Duration::from_millis(1)),
                _ => unreachable!(),
            }
            let next = tracker.state(0);
            let legal = match (prev, next) {
                // Staying put is always legal.
                (a, b) if a == b => true,
                // Each edge belongs to exactly one operation.
                (BreakerState::Closed, BreakerState::Open) => op == OP_FAILURE,
                (BreakerState::Open, BreakerState::HalfOpen) => op == OP_ACQUIRE,
                (BreakerState::HalfOpen, BreakerState::Open) => op == OP_FAILURE,
                (BreakerState::HalfOpen, BreakerState::Closed) => op == OP_SUCCESS,
                (BreakerState::Open, BreakerState::Closed) => op == OP_SUCCESS,
                // Closed -> HalfOpen has no edge at all.
                _ => false,
            };
            assert!(
                legal,
                "seed {seed} step {step}: illegal transition {prev:?} -> {next:?} on op {op}"
            );
            prev = next;
        }
    }
}

/// While open and inside the cooldown, the breaker must reject every
/// acquire — checked at every 100µs of it, up to its last nanosecond.
#[test]
fn open_breaker_rejects_throughout_cooldown() {
    let cooldown = Duration::from_millis(20);
    let cfg = HealthConfig {
        failure_threshold: 2,
        open_cooldown: cooldown,
        half_open_probes: 1,
    };
    let clock = Clock::manual();
    let tracker = HealthTracker::with_config(1, cfg, clock);
    tracker.record_failure(0);
    tracker.record_failure(0);
    assert_eq!(tracker.state(0), BreakerState::Open);
    let (opened, step) = (clock.now(), Duration::from_micros(100));
    while clock.since(opened) + step < cooldown {
        assert!(
            !tracker.acquire(0),
            "acquire admitted {:?} into a 20ms cooldown",
            clock.since(opened)
        );
        clock.advance(step);
    }
    clock.advance(cooldown - clock.since(opened) - Duration::from_nanos(1));
    assert!(!tracker.acquire(0), "a nanosecond short of the cooldown");
    clock.advance(Duration::from_nanos(1));
    assert!(tracker.acquire(0), "probe admitted at the cooldown");
    assert_eq!(tracker.state(0), BreakerState::HalfOpen);
}

/// Health slots follow elastic membership: a node added after the
/// cluster's tracker was created gets a breaker of its own instead of
/// sharing (and tripping) the last original node's.
#[test]
fn tracker_grows_with_added_nodes() {
    let db = Cluster::new(ClusterConfig::default());
    let tracker = connector::health::tracker_for(&db);
    let added = db.add_node().unwrap();
    assert_eq!(added, 4);
    for _ in 0..3 {
        tracker.record_failure(added);
    }
    assert_eq!(tracker.state(3), BreakerState::Closed);
    assert_eq!(tracker.state(added), BreakerState::Open);
}

// ---------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------

/// A bounded pool with its only slot held sheds the next statement with
/// the typed `Overloaded` error — and admits it again once the slot
/// frees. The shed is visible under `shed.*`.
#[test]
fn bounded_pool_sheds_statements_with_typed_error() {
    let _g = lock();
    let db = Cluster::new(ClusterConfig::default());
    db.create_resource_pool(
        ResourcePool::new("tiny", 1 << 20, 1).with_admission(0, Duration::from_millis(10)),
    );
    {
        let mut s = db.connect(0).unwrap();
        s.execute("CREATE TABLE shed_t (id INT)").unwrap();
        s.insert("shed_t", (0..8).map(|i| row![i as i64]).collect())
            .unwrap();
    }

    let pool = db.resource_pool("tiny").unwrap();
    let held = pool.try_admit(db.clock()).unwrap();

    let before = obs::global().snapshot();
    let mut s = db.connect(1).unwrap();
    s.set_resource_pool("tiny").unwrap();
    let err = s.query(&QuerySpec::scan("shed_t")).unwrap_err();
    assert!(
        matches!(err, DbError::Overloaded { ref pool } if pool == "tiny"),
        "expected Overloaded from the tiny pool, got {err:?}"
    );
    let delta = obs::global().snapshot().counters_since(&before);
    assert!(
        delta.get("shed.queue_full").copied().unwrap_or(0) >= 1,
        "shed.queue_full counted"
    );
    assert!(
        delta.get("shed.total").copied().unwrap_or(0) >= 1,
        "shed.total counted"
    );

    // Slot freed: the very same session's next statement is admitted.
    drop(held);
    let n = s.query(&QuerySpec::scan("shed_t")).unwrap().rows.len();
    assert_eq!(n, 8, "query admitted once the pool has room");
}

// ---------------------------------------------------------------------
// Deadline fast-fail
// ---------------------------------------------------------------------

/// With every node dead and a generous retry schedule, a tight job-wide
/// deadline must win: the save fails with `DeadlineExceeded` close to
/// its budget instead of sleeping through the retry policy's 30s, and
/// the give-up is counted under `deadline.expired`.
#[test]
fn save_with_tight_deadline_fails_fast() {
    let _g = lock();
    let clock = Clock::manual();
    let (ctx, db) = setup(clock);
    let schema = Schema::from_pairs(&[("id", DataType::Int64)]);
    let data: Vec<Row> = (0..40).map(|i| row![i as i64]).collect();
    let df = ctx.create_dataframe(data, schema, 2).unwrap();

    for n in 0..db.node_count() {
        db.kill_node(n);
    }
    let before = obs::global().snapshot();
    let opts = ConnectorOptions::builder("dl_tgt")
        .num_partitions(2)
        .retry_max_attempts(50)
        .retry_deadline_ms(30_000)
        .deadline_ms(60)
        .build()
        .unwrap();
    let started = clock.now();
    let err = connector::SaveRequest::new(&ctx, &db, &df, &opts)
        .mode(SaveMode::Overwrite)
        .submit()
        .unwrap_err();
    let elapsed = clock.since(started);
    assert!(
        matches!(err, ConnectorError::DeadlineExceeded { .. }),
        "expected DeadlineExceeded, got {err:?}"
    );
    // Each backoff fits in what was left of the budget when it began;
    // the two tasks' backoffs may overlap it by one backoff at most.
    let max_backoff = connector::RetryPolicy::default().max_backoff;
    assert!(
        elapsed < Duration::from_millis(60) + max_backoff,
        "60ms budget, {elapsed:?} elapsed: backoffs must be capped at the deadline"
    );
    let delta = obs::global().snapshot().counters_since(&before);
    assert!(
        delta.get("deadline.expired").copied().unwrap_or(0) >= 1,
        "deadline.expired counted"
    );
    for n in 0..db.node_count() {
        db.restore_node(n);
    }
}

// ---------------------------------------------------------------------
// Counter surfacing
// ---------------------------------------------------------------------

/// Every grey-failure counter family lands in the `dc_counters` system
/// table: drive each defense once, then read the names back over SQL.
#[test]
fn resilience_counters_surface_in_dc_counters() {
    let _g = lock();
    let clock = Clock::manual();
    let db = Cluster::new(ClusterConfig {
        clock,
        ..ClusterConfig::default()
    });

    // health.* and breaker.*: one full breaker cycle.
    let cfg = HealthConfig {
        open_cooldown: Duration::from_millis(2),
        ..HealthConfig::default()
    };
    let tracker = HealthTracker::with_config(2, cfg, clock);
    tracker.record_success(0, Duration::from_micros(120));
    for _ in 0..3 {
        tracker.record_failure(1); // third failure -> breaker.open
    }
    assert!(!tracker.acquire(1), "inside cooldown"); // breaker.rejected
    clock.advance(Duration::from_millis(2));
    assert!(tracker.acquire(1), "probe"); // breaker.half_open
    tracker.record_success(1, Duration::from_micros(90)); // breaker.close

    // hedge.*: a stalled primary forces a buddy launch that wins (the
    // fixed 5ms delay applies although the tracker has no P99 yet). The
    // primary's stall moves the clock past the delay, then waits on its
    // token until the buddy's answer cancels it.
    let opts = ConnectorOptions::builder("t")
        .hedge_delay_ms(5)
        .build()
        .unwrap();
    let policy = connector::CallPolicy::for_job(&db, &opts);
    let run = Arc::new(
        move |node: usize, cancel: &mppdb::Cancel| -> ConnectorResult<usize> {
            if node == 0 {
                clock.sleep(Duration::from_millis(5));
                cancel
                    .sleep(clock, Duration::from_secs(3600))
                    .map_err(|e| ConnectorError::db("resilience.probe", e))?;
            }
            Ok(node)
        },
    );
    let got = policy.read(&db, "resilience.probe", &[0, 1], run).unwrap();
    assert_eq!(got, 1, "buddy won the hedge");

    // shed.*: a zero-queue pool with its slot held sheds the next admit.
    let pool = Arc::new(ResourcePool::new("dc_tiny", 1 << 20, 1).with_admission(0, Duration::ZERO));
    let held = pool.try_admit(clock).unwrap();
    assert!(pool.try_admit(clock).is_err());
    drop(held);

    // deadline.*: an expired budget fails before attempt one.
    let opts = ConnectorOptions::builder("t")
        .deadline_ms(1)
        .build()
        .unwrap();
    let policy = connector::CallPolicy::for_job(&db, &opts);
    clock.advance(Duration::from_millis(1));
    let r: ConnectorResult<()> = policy.run("resilience.deadline", |_| Ok(()));
    assert!(matches!(
        r,
        Err(ConnectorError::DeadlineExceeded { attempts: 0, .. })
    ));

    let mut s = db.connect(0).unwrap();
    let counters = s
        .execute("SELECT * FROM dc_counters")
        .unwrap()
        .rows()
        .unwrap();
    let value = |name: &str| {
        counters.rows.iter().find_map(|r| {
            (r.get(0) == &Value::Varchar(name.into())).then(|| r.get(1).as_i64().unwrap())
        })
    };
    for name in [
        "health.successes",
        "health.failures",
        "breaker.open",
        "breaker.half_open",
        "breaker.close",
        "breaker.rejected",
        "hedge.launched",
        "hedge.wins",
        "shed.queue_full",
        "shed.total",
        "deadline.expired",
    ] {
        assert!(
            value(name).unwrap_or(0) >= 1,
            "counter {name} missing from dc_counters"
        );
    }
}

// ---------------------------------------------------------------------
// Lock-order witness: the chaos gate for deadlocks
// ---------------------------------------------------------------------

/// A clean run must report **zero** lock-order cycles: the witness
/// watches every vendored `parking_lot` Mutex/RwLock acquisition in
/// debug/test builds, and any cycle in the acquisition-order graph is a
/// potential deadlock someone will eventually hit under chaos. The
/// graph itself is queryable as the `dc_lock_edges` system table, and
/// the `lockwitness.*` counters surface through `dc_counters` like
/// every other defense.
#[test]
fn lock_witness_reports_zero_cycles_on_clean_runs() {
    let _g = lock();
    let db = Cluster::new(ClusterConfig::default());
    let mut s = db.connect(0).unwrap();

    if !vertica_spark_fabric::parking_lot::witness::active() {
        // Release builds compile the witness out entirely.
        let edges = s
            .execute("SELECT * FROM dc_lock_edges")
            .unwrap()
            .rows()
            .unwrap();
        assert!(
            edges.rows.is_empty(),
            "witness must be inert in release builds"
        );
        return;
    }

    use vertica_spark_fabric::parking_lot::witness;

    // Manufacture one edge at a creation site unique to this test: its
    // classes are new, so the edge is new and must show up in both the
    // accessor counts and the pulled `lockwitness.edges` row.
    let outer = vertica_spark_fabric::parking_lot::Mutex::new(());
    let inner = vertica_spark_fabric::parking_lot::Mutex::new(());
    {
        let _o = outer.lock();
        let _i = inner.lock();
    }
    // And some real fabric work for good measure, including an online
    // node add: it holds the rebalance plan's lock across the commit
    // lock and logs under the latter.
    s.execute("SELECT * FROM v_nodes").unwrap();
    db.add_node().unwrap();

    assert!(
        witness::edge_count() > 0,
        "instrumented locks recorded no edges"
    );
    assert_eq!(
        witness::cycle_count(),
        0,
        "clean run found lock-order cycles: {:?}",
        witness::snapshot().cycles
    );

    let counters = s
        .execute("SELECT * FROM dc_counters")
        .unwrap()
        .rows()
        .unwrap();
    let counter = |name: &str| {
        counters.rows.iter().find_map(|r| {
            (r.get(0) == &Value::Varchar(name.into())).then(|| r.get(1).as_i64().unwrap())
        })
    };
    assert!(
        counter(obs::names::LOCKWITNESS_EDGES).unwrap_or(0) >= 1,
        "lockwitness.edges missing from dc_counters"
    );
    assert_eq!(
        counter(obs::names::LOCKWITNESS_CYCLES).unwrap_or(0),
        0,
        "lockwitness.cycles must stay zero on a clean run"
    );

    // The acquisition graph is queryable over SQL, and the edge this
    // test manufactured resolves to this file's creation sites.
    let edges = s
        .execute("SELECT * FROM dc_lock_edges")
        .unwrap()
        .rows()
        .unwrap();
    assert!(!edges.rows.is_empty());
    assert!(
        edges.rows.iter().any(|r| {
            matches!(
                (r.get(0), r.get(1)),
                (Value::Varchar(from), Value::Varchar(to))
                    if from.contains("resilience.rs") && to.contains("resilience.rs")
            )
        }),
        "manufactured outer->inner edge not visible in dc_lock_edges"
    );
}

/// Holding an instrumented lock across an injected-latency sleep is a
/// convoy hazard: every other thread needing that lock stalls for the
/// full injected delay. The fault injector tells the witness before it
/// sleeps, and the witness attributes the hazard to the held lock's
/// creation site under `lockwitness.hazards`.
#[test]
fn fault_injector_sleep_under_lock_is_a_hazard() {
    let _g = lock();
    if !vertica_spark_fabric::parking_lot::witness::active() {
        return;
    }
    use vertica_spark_fabric::parking_lot::witness;

    let db = Cluster::new(ClusterConfig::default());
    db.faults()
        .set_latency_profile(mppdb::fault::LatencyProfile::uniform(
            Duration::from_micros(200),
        ));
    db.faults().slow_node(0, 30.0);

    let before = witness::hazard_count();
    let guard = vertica_spark_fabric::parking_lot::Mutex::new(());
    {
        // Deliberately hold a lock across a connect that the latency
        // profile stalls: the injector's sleep must be attributed.
        let _held = guard.lock();
        let _s = db.connect(0).unwrap();
    }
    db.faults()
        .set_latency_profile(mppdb::fault::LatencyProfile::default());
    assert!(
        witness::hazard_count() > before,
        "sleep under a held lock was not recorded as a hazard"
    );
}
