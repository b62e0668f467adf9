//! Single-source registry of every data-collector counter, timer,
//! span, histogram and event-tag name in the workspace.
//!
//! Emit sites across the fabric record into the process-wide collector
//! by string name. Before this module those names were free-floating
//! literals, so a typo at one site ("hedge.winz") silently created a
//! phantom counter that no `dc_counters` consumer would ever find. Now
//! every name lives in [`DEFS`], and the `fabriclint` workspace linter
//! cross-checks both directions:
//!
//! * a name recorded via `obs::global()` that is not in [`DEFS`] is an
//!   *unregistered* counter — a lint error at the emit site;
//! * a [`DEFS`] row whose name appears nowhere else in the workspace is
//!   a *dead* row — a lint error here.
//!
//! Names that are emitted from more than one call site are additionally
//! hoisted into `pub const`s so the duplication is a compile-time
//! symbol, not a copy-pasted string.
//!
//! Timer names (kind [`NameKind::Timer`]) are recorded via
//! `record_time` into the same log-linear histogram a span or a
//! `record_histo` name gets, and surface in `dc_counters` as six
//! derived rows (`<name>.count`, `.sum_us`, `.min_us`, `.max_us`,
//! `.p50_us`, `.p99_us`); [`is_registered`] accepts those derived
//! spellings too. A duration a span already covers gets no timer of
//! its own: the span's histogram carries it.
//!
//! Span names (kind [`NameKind::Span`]) are recorded via
//! `trace_start`/`span_start` and surface twice: as `dc_spans` rows and
//! — because every finished span feeds a histogram named after it — as
//! `dc_histograms` rows. Standalone histograms (kind
//! [`NameKind::Histo`], via `record_histo`) surface only in
//! `dc_histograms`.

/// Breaker half-open probe was rejected (no probe budget left).
pub const BREAKER_REJECTED: &str = "breaker.rejected";
/// COPY rows rejected by parse/coercion errors (within tolerance).
pub const DB_COPY_REJECTS: &str = "db.copy_rejects";
/// A retry loop abandoned its operation because the job deadline passed.
pub const DEADLINE_EXPIRED: &str = "deadline.expired";
/// Op tag for injected-latency sleeps (also the lock-witness hazard tag).
pub const FAULT_DELAY: &str = "fault.delay";
/// Any injected fault fired (site-specific counters break this down).
pub const FAULT_INJECTED: &str = "fault.injected";
/// Span for one arm (primary or buddy) of a hedged read.
pub const HEDGE_ATTEMPT: &str = "hedge.attempt";
/// Distinct lock classes (creation sites) the witness has registered.
pub const LOCKWITNESS_CLASSES: &str = "lockwitness.classes";
/// The lock-order witness recorded a new acquisition-order edge.
pub const LOCKWITNESS_EDGES: &str = "lockwitness.edges";
/// The lock-order witness found a cycle: a potential deadlock.
pub const LOCKWITNESS_CYCLES: &str = "lockwitness.cycles";
/// A thread slept in the fault injector while holding a lock.
pub const LOCKWITNESS_HAZARDS: &str = "lockwitness.hazards";
/// Span for one attempt inside a retry/failover loop.
pub const RETRY_ATTEMPT: &str = "retry.attempt";
/// A retry loop gave up (attempts or deadline exhausted).
pub const RETRY_GAVE_UP: &str = "retry.gave_up";
/// Op tag for the save-to-Vertica finalize step (global commit fan-in).
pub const S2V_FINALIZE: &str = "s2v.finalize";
/// Op tag for save-to-Vertica setup (target/staging table DDL).
pub const S2V_SETUP: &str = "s2v.setup";
/// A speculative duplicate of a straggler task was launched.
pub const SCHED_SPECULATIVE_TASKS: &str = "sched.speculative_tasks";
/// Op tag for Vertica-to-Spark connect attempts.
pub const V2S_CONNECT: &str = "v2s.connect";
/// Op tag for the Vertica-to-Spark schema/open probe.
pub const V2S_OPEN: &str = "v2s.open";
/// Op tag for per-piece Vertica-to-Spark reads.
pub const V2S_PIECE: &str = "v2s.piece";
/// Op tag for Vertica-to-Spark partition planning (count probe).
pub const V2S_PLAN: &str = "v2s.plan";

/// How a registered name is recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NameKind {
    /// Monotonic counter via `incr`/`add`.
    Counter,
    /// Duration histogram in microseconds via `record_time`.
    Timer,
    /// Synthesized by a snapshot consumer, not recorded at an emit site.
    Builtin,
    /// An operation/event tag: flows into `dc_events` rows and error
    /// contexts rather than `dc_counters`.
    Event,
    /// A trace span via `trace_start`/`span_start`: flows into
    /// `dc_spans`, and (since every finished span records its duration
    /// into a same-named histogram) into `dc_histograms`. Span names
    /// double as operation tags in retry contexts and events.
    Span,
    /// A value histogram via `record_histo`: flows into
    /// `dc_histograms`.
    Histo,
}

/// One registered name.
#[derive(Debug, Clone, Copy)]
pub struct NameDef {
    pub name: &'static str,
    pub kind: NameKind,
    pub help: &'static str,
}

/// The registry. Sorted by name; `fabriclint` parses this table
/// textually, so keep entries in the literal `NameDef { .. }` form.
pub static DEFS: &[NameDef] = &[
    NameDef {
        name: "agg.pushdown.partials_merged",
        kind: NameKind::Counter,
        help: "per-piece partial aggregates merged exactly once at the driver",
    },
    NameDef {
        name: "agg.pushdown.queries",
        kind: NameKind::Counter,
        help: "table scans executed as partial-aggregate pushdowns",
    },
    NameDef {
        name: "agg.pushdown.stats_answered",
        kind: NameKind::Counter,
        help: "ROS containers whose aggregate was answered from zone maps alone",
    },
    NameDef {
        name: "breaker.close",
        kind: NameKind::Counter,
        help: "circuit breaker closed after a successful probe",
    },
    NameDef {
        name: "breaker.half_open",
        kind: NameKind::Counter,
        help: "circuit breaker moved to half-open after cooldown",
    },
    NameDef {
        name: "breaker.open",
        kind: NameKind::Counter,
        help: "circuit breaker opened on error-score breach",
    },
    NameDef {
        name: BREAKER_REJECTED,
        kind: NameKind::Counter,
        help: "operation rejected by an open breaker",
    },
    NameDef {
        name: "db.commit_us",
        kind: NameKind::Timer,
        help: "commit critical-section wall time",
    },
    NameDef {
        name: "db.copy",
        kind: NameKind::Span,
        help: "span for one COPY statement on a session",
    },
    NameDef {
        name: "db.copy_bytes",
        kind: NameKind::Counter,
        help: "bytes ingested by COPY",
    },
    NameDef {
        name: DB_COPY_REJECTS,
        kind: NameKind::Counter,
        help: "COPY rows rejected by parse/coercion errors",
    },
    NameDef {
        name: "db.copy_rows",
        kind: NameKind::Counter,
        help: "rows loaded by COPY",
    },
    NameDef {
        name: "db.copy_us",
        kind: NameKind::Timer,
        help: "COPY statement wall time",
    },
    NameDef {
        name: "db.epoch_advance",
        kind: NameKind::Counter,
        help: "cluster epoch advanced at commit",
    },
    NameDef {
        name: "db.node_kills",
        kind: NameKind::Counter,
        help: "nodes taken down (chaos or operator)",
    },
    NameDef {
        name: "db.node_restores",
        kind: NameKind::Counter,
        help: "nodes brought back up",
    },
    NameDef {
        name: "db.pool_admissions",
        kind: NameKind::Counter,
        help: "statements admitted by a resource pool",
    },
    NameDef {
        name: "db.pool_admit_wait_us",
        kind: NameKind::Timer,
        help: "time a statement waited for pool admission",
    },
    NameDef {
        name: "db.pool_queued",
        kind: NameKind::Counter,
        help: "statements that had to queue for a pool slot",
    },
    NameDef {
        name: "db.query",
        kind: NameKind::Span,
        help: "span for one query (table or system scan) on a session",
    },
    NameDef {
        name: "db.sessions_closed",
        kind: NameKind::Counter,
        help: "client sessions closed",
    },
    NameDef {
        name: "db.sessions_opened",
        kind: NameKind::Counter,
        help: "client sessions opened",
    },
    NameDef {
        name: "db.txn_abort",
        kind: NameKind::Counter,
        help: "transactions aborted",
    },
    NameDef {
        name: "db.txn_begin",
        kind: NameKind::Counter,
        help: "transactions begun",
    },
    NameDef {
        name: "db.txn_commit",
        kind: NameKind::Counter,
        help: "transactions committed",
    },
    NameDef {
        name: "dc.dropped_events",
        kind: NameKind::Builtin,
        help: "events discarded because a collector shard ring filled",
    },
    NameDef {
        name: "dc.dropped_spans",
        kind: NameKind::Builtin,
        help: "spans discarded because a trace hit its span cap",
    },
    NameDef {
        name: DEADLINE_EXPIRED,
        kind: NameKind::Counter,
        help: "operations abandoned because the job deadline passed",
    },
    NameDef {
        name: "failover.connects",
        kind: NameKind::Counter,
        help: "connections re-established on a different node",
    },
    NameDef {
        name: "failover.reads",
        kind: NameKind::Counter,
        help: "V2S pieces served by a buddy after primary failure",
    },
    NameDef {
        name: "fault.connect_refused",
        kind: NameKind::Counter,
        help: "injected connect refusals fired",
    },
    NameDef {
        name: FAULT_DELAY,
        kind: NameKind::Event,
        help: "operation tag for injected-latency sleeps (lock witness hazard tag)",
    },
    NameDef {
        name: "fault.delay_us",
        kind: NameKind::Timer,
        help: "injected grey-failure delay per firing",
    },
    NameDef {
        name: FAULT_INJECTED,
        kind: NameKind::Counter,
        help: "any injected fault fired",
    },
    NameDef {
        name: "fault.mid_copy",
        kind: NameKind::Counter,
        help: "injected mid-COPY crashes fired",
    },
    NameDef {
        name: "fault.moveout",
        kind: NameKind::Counter,
        help: "injected tuple-mover pass crashes fired",
    },
    NameDef {
        name: "fault.post_commit",
        kind: NameKind::Counter,
        help: "injected lost-commit-acks fired",
    },
    NameDef {
        name: "fault.rebalance",
        kind: NameKind::Counter,
        help: "injected mid-migration rebalance crashes fired",
    },
    NameDef {
        name: "fault.slow_connect",
        kind: NameKind::Counter,
        help: "injected connect slowdowns fired",
    },
    NameDef {
        name: "fault.slow_copy",
        kind: NameKind::Counter,
        help: "injected COPY slowdowns fired",
    },
    NameDef {
        name: "fault.slow_scan",
        kind: NameKind::Counter,
        help: "injected scan slowdowns fired",
    },
    NameDef {
        name: "health.failures",
        kind: NameKind::Counter,
        help: "operations recorded as failures by a health tracker",
    },
    NameDef {
        name: "health.steered_connects",
        kind: NameKind::Counter,
        help: "connect attempts steered away from open breakers",
    },
    NameDef {
        name: "health.successes",
        kind: NameKind::Counter,
        help: "operations recorded as successes by a health tracker",
    },
    NameDef {
        name: HEDGE_ATTEMPT,
        kind: NameKind::Span,
        help: "span for one arm (primary or buddy) of a hedged read",
    },
    NameDef {
        name: "hedge.cancelled",
        kind: NameKind::Counter,
        help: "hedged-read losers abandoned in flight",
    },
    NameDef {
        name: "hedge.launched",
        kind: NameKind::Counter,
        help: "hedged buddy attempts launched",
    },
    NameDef {
        name: "hedge.primary_wins",
        kind: NameKind::Counter,
        help: "hedged reads won by the primary attempt",
    },
    NameDef {
        name: "hedge.wins",
        kind: NameKind::Counter,
        help: "hedged reads won by the buddy attempt",
    },
    NameDef {
        name: LOCKWITNESS_CLASSES,
        kind: NameKind::Builtin,
        help: "distinct lock classes (creation sites) registered",
    },
    NameDef {
        name: LOCKWITNESS_CYCLES,
        kind: NameKind::Builtin,
        help: "lock-order cycles (potential deadlocks) detected",
    },
    NameDef {
        name: LOCKWITNESS_EDGES,
        kind: NameKind::Builtin,
        help: "distinct lock acquisition-order edges recorded",
    },
    NameDef {
        name: LOCKWITNESS_HAZARDS,
        kind: NameKind::Builtin,
        help: "injected sleeps taken while holding a lock",
    },
    NameDef {
        name: "md.models_deployed",
        kind: NameKind::Counter,
        help: "PMML models deployed for in-database scoring",
    },
    NameDef {
        name: "md.predictions",
        kind: NameKind::Counter,
        help: "in-database model scoring calls",
    },
    NameDef {
        name: "planner.conjuncts_reordered",
        kind: NameKind::Counter,
        help: "containers whose predicate conjuncts ran in a stats-chosen order",
    },
    NameDef {
        name: "planner.estimated_rows",
        kind: NameKind::Counter,
        help: "rows the stats-driven planner estimated a scan would leave",
    },
    NameDef {
        name: "rebalance.flips",
        kind: NameKind::Counter,
        help: "segment-map versions made authoritative at an epoch boundary",
    },
    NameDef {
        name: "rebalance.migration_us",
        kind: NameKind::Timer,
        help: "wall time to copy one migrating range to its target node",
    },
    NameDef {
        name: "rebalance.migrations",
        kind: NameKind::Counter,
        help: "rebalance range copies landed durably",
    },
    NameDef {
        name: "rebalance.migrations_skipped",
        kind: NameKind::Counter,
        help: "migrations skipped on resume because an earlier run landed them",
    },
    NameDef {
        name: "rebalance.node_adds",
        kind: NameKind::Counter,
        help: "nodes added to the cluster online",
    },
    NameDef {
        name: "rebalance.node_removes",
        kind: NameKind::Counter,
        help: "member nodes drained and retired online",
    },
    NameDef {
        name: "rebalance.resumes",
        kind: NameKind::Counter,
        help: "interrupted rebalance plans resumed",
    },
    NameDef {
        name: "rebalance.rows_copied",
        kind: NameKind::Counter,
        help: "rows copied by rebalance migrations",
    },
    NameDef {
        name: RETRY_ATTEMPT,
        kind: NameKind::Span,
        help: "span for one attempt inside a retry/failover loop",
    },
    NameDef {
        name: "retry.attempts",
        kind: NameKind::Counter,
        help: "retry attempts after a transient failure",
    },
    NameDef {
        name: "retry.backoff_us",
        kind: NameKind::Timer,
        help: "backoff sleeps between retry attempts",
    },
    NameDef {
        name: RETRY_GAVE_UP,
        kind: NameKind::Counter,
        help: "retry loops that gave up",
    },
    NameDef {
        name: "retry.recovered",
        kind: NameKind::Counter,
        help: "operations that succeeded after at least one retry",
    },
    NameDef {
        name: "s2v.final_commits",
        kind: NameKind::Counter,
        help: "S2V final commit transactions",
    },
    NameDef {
        name: S2V_FINALIZE,
        kind: NameKind::Span,
        help: "span and op tag for the S2V finalize step",
    },
    NameDef {
        name: "s2v.job",
        kind: NameKind::Span,
        help: "root span of one S2V save job",
    },
    NameDef {
        name: "s2v.jobs",
        kind: NameKind::Counter,
        help: "S2V save jobs run",
    },
    NameDef {
        name: "s2v.phase1",
        kind: NameKind::Span,
        help: "span and op tag for S2V phase 1 (save into staging)",
    },
    NameDef {
        name: "s2v.phase2",
        kind: NameKind::Span,
        help: "span and op tag for S2V phase 2 (staging validation)",
    },
    NameDef {
        name: "s2v.phase3",
        kind: NameKind::Span,
        help: "span and op tag for S2V phase 3 (swap into target)",
    },
    NameDef {
        name: "s2v.phase4",
        kind: NameKind::Span,
        help: "span and op tag for S2V phase 4 (commit fan-in)",
    },
    NameDef {
        name: "s2v.phase5",
        kind: NameKind::Span,
        help: "span and op tag for S2V phase 5 (cleanup)",
    },
    NameDef {
        name: "s2v.rows_loaded",
        kind: NameKind::Counter,
        help: "rows loaded by S2V saves",
    },
    NameDef {
        name: "s2v.rows_rejected",
        kind: NameKind::Counter,
        help: "rows rejected by S2V saves",
    },
    NameDef {
        name: S2V_SETUP,
        kind: NameKind::Span,
        help: "span and op tag for S2V setup (target/staging table DDL)",
    },
    NameDef {
        name: "s2v.teardown",
        kind: NameKind::Span,
        help: "span and op tag for S2V staging teardown",
    },
    NameDef {
        name: "scan.containers_skipped",
        kind: NameKind::Counter,
        help: "whole ROS containers skipped by zone-map pruning",
    },
    NameDef {
        name: "scan.rows_examined",
        kind: NameKind::Counter,
        help: "rows visibility-checked by columnar scans",
    },
    NameDef {
        name: "scan.rows_skipped",
        kind: NameKind::Counter,
        help: "rows eliminated by zone maps and RLE-run pruning without evaluation",
    },
    NameDef {
        name: "scan.values_decoded",
        kind: NameKind::Counter,
        help: "column values decoded by columnar scans",
    },
    NameDef {
        name: "sched.jobs",
        kind: NameKind::Counter,
        help: "jobs submitted to the scheduler",
    },
    NameDef {
        name: "sched.jobs_killed",
        kind: NameKind::Counter,
        help: "jobs killed before completion",
    },
    NameDef {
        name: "sched.slot_wait_us",
        kind: NameKind::Timer,
        help: "time a task waited for a worker slot",
    },
    NameDef {
        name: SCHED_SPECULATIVE_TASKS,
        kind: NameKind::Counter,
        help: "speculative straggler duplicates launched",
    },
    NameDef {
        name: "sched.stragglers_detected",
        kind: NameKind::Counter,
        help: "tasks flagged as stragglers by the watchdog",
    },
    NameDef {
        name: "sched.task",
        kind: NameKind::Span,
        help: "span for one scheduler task attempt",
    },
    NameDef {
        name: "sched.task_retries",
        kind: NameKind::Counter,
        help: "task attempts retried after failure",
    },
    NameDef {
        name: "sched.task_run_us",
        kind: NameKind::Timer,
        help: "task execution wall time",
    },
    NameDef {
        name: "sched.tasks_finished",
        kind: NameKind::Counter,
        help: "task attempts finished successfully",
    },
    NameDef {
        name: "sched.tasks_launched",
        kind: NameKind::Counter,
        help: "task attempts launched",
    },
    NameDef {
        name: "shed.queue_full",
        kind: NameKind::Counter,
        help: "statements shed because the pool queue was full",
    },
    NameDef {
        name: "shed.timeout",
        kind: NameKind::Counter,
        help: "statements shed after waiting past the queue timeout",
    },
    NameDef {
        name: "shed.total",
        kind: NameKind::Counter,
        help: "all statements shed by admission control",
    },
    NameDef {
        name: "stats.build_us",
        kind: NameKind::Timer,
        help: "time to compute per-container column statistics at ROS creation",
    },
    NameDef {
        name: "stream.age_flushes",
        kind: NameKind::Counter,
        help: "streaming micro-batches flushed by the flush_ms age limit rather than batch_rows",
    },
    NameDef {
        name: "stream.batch_us",
        kind: NameKind::Timer,
        help: "wall time to flush one streaming micro-batch through the COPY protocol",
    },
    NameDef {
        name: "stream.batches",
        kind: NameKind::Counter,
        help: "streaming micro-batches committed",
    },
    NameDef {
        name: "stream.rows",
        kind: NameKind::Counter,
        help: "rows loaded via streaming micro-batches",
    },
    NameDef {
        name: "tm.containers_merged",
        kind: NameKind::Counter,
        help: "ROS containers consumed by tuple-mover mergeout",
    },
    NameDef {
        name: "tm.mergeout_runs",
        kind: NameKind::Counter,
        help: "tuple-mover mergeout operations performed",
    },
    NameDef {
        name: "tm.mergeout_us",
        kind: NameKind::Timer,
        help: "time spent compacting ROS containers in one mergeout",
    },
    NameDef {
        name: "tm.moveout_runs",
        kind: NameKind::Counter,
        help: "tuple-mover moveout operations performed",
    },
    NameDef {
        name: "tm.moveout_us",
        kind: NameKind::Timer,
        help: "time spent draining committed WOS rows in one moveout",
    },
    NameDef {
        name: "tm.rows_merged",
        kind: NameKind::Counter,
        help: "rows rewritten by tuple-mover mergeout",
    },
    NameDef {
        name: "tm.rows_moved",
        kind: NameKind::Counter,
        help: "rows drained WOS to ROS by tuple-mover moveout",
    },
    NameDef {
        name: "tm.sheds",
        kind: NameKind::Counter,
        help: "tuple-mover passes shed on pool-full or busy table lock",
    },
    NameDef {
        name: "v2s.bytes",
        kind: NameKind::Counter,
        help: "bytes transferred by V2S pieces",
    },
    NameDef {
        name: V2S_CONNECT,
        kind: NameKind::Event,
        help: "op tag for V2S connect attempts",
    },
    NameDef {
        name: "v2s.load",
        kind: NameKind::Span,
        help: "root span of one V2S load (relation open through scan)",
    },
    NameDef {
        name: "v2s.map_refresh",
        kind: NameKind::Counter,
        help: "V2S segment-map refreshes after a StaleSegmentMap rejection",
    },
    NameDef {
        name: V2S_OPEN,
        kind: NameKind::Span,
        help: "span and op tag for the V2S schema/open probe",
    },
    NameDef {
        name: V2S_PIECE,
        kind: NameKind::Span,
        help: "span and op tag for per-piece V2S reads",
    },
    NameDef {
        name: "v2s.piece_bytes",
        kind: NameKind::Histo,
        help: "bytes per fetched V2S piece",
    },
    NameDef {
        name: "v2s.piece_us",
        kind: NameKind::Timer,
        help: "V2S piece fetch wall time",
    },
    NameDef {
        name: "v2s.pieces",
        kind: NameKind::Counter,
        help: "V2S pieces fetched",
    },
    NameDef {
        name: V2S_PLAN,
        kind: NameKind::Span,
        help: "span and op tag for V2S partition planning",
    },
    NameDef {
        name: "v2s.query",
        kind: NameKind::Event,
        help: "op tag for one-shot V2S queries",
    },
    NameDef {
        name: "v2s.rows",
        kind: NameKind::Counter,
        help: "rows transferred by V2S pieces",
    },
];

/// Look up a registered name exactly.
pub fn lookup(name: &str) -> Option<&'static NameDef> {
    DEFS.iter().find(|d| d.name == name)
}

/// Whether `name` is registered, accepting the six derived spellings a
/// timer contributes to `dc_counters` (`<timer>.p99_us`, ...).
pub fn is_registered(name: &str) -> bool {
    if lookup(name).is_some() {
        return true;
    }
    for suffix in [
        ".count", ".sum_us", ".min_us", ".max_us", ".p50_us", ".p99_us",
    ] {
        if let Some(base) = name.strip_suffix(suffix) {
            return matches!(lookup(base), Some(d) if d.kind == NameKind::Timer);
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sorted order keeps diffs reviewable and makes duplicates obvious;
    /// uniqueness is what the dedupe guarantee rests on.
    #[test]
    fn defs_are_sorted_and_unique() {
        for pair in DEFS.windows(2) {
            assert!(
                pair[0].name < pair[1].name,
                "DEFS out of order or duplicated: {:?} then {:?}",
                pair[0].name,
                pair[1].name
            );
        }
    }

    #[test]
    fn lookup_and_derived_timer_names_resolve() {
        assert_eq!(
            lookup(RETRY_GAVE_UP).map(|d| d.kind),
            Some(NameKind::Counter)
        );
        assert!(is_registered("v2s.piece_us"));
        assert!(is_registered("v2s.piece_us.p99_us"));
        assert!(!is_registered("v2s.piece_us.p98_us"));
        assert!(!is_registered("hedge.winz"));
        // Derived suffixes only apply to timers, not counters.
        assert!(!is_registered("hedge.wins.count"));
    }

    #[test]
    fn every_def_has_help_text() {
        for d in DEFS {
            assert!(!d.help.is_empty(), "{} has no help text", d.name);
        }
    }
}
