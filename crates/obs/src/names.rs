//! Single-source registry of every data-collector counter, timer,
//! span, histogram and event-tag name in the workspace.
//!
//! Each name is declared once, as one row of the `names!` table
//! below, and becomes a typed handle: a [`Counter`], [`Timer`],
//! [`Histogram`] or [`Span`] const that the collector's recording
//! methods take instead of a string. A typo or an unregistered name
//! does not compile, and neither does a name of the wrong kind (a span
//! passed to `incr`, a counter to `span_start`): the handle's type is
//! its kind. A handle is the index of its row in [`DEFS`], so recording
//! into it is an array access, not a lookup.
//!
//! What the compiler cannot see is left to the `fabriclint` workspace
//! linter, which reads the table's rows textually:
//!
//! * a row whose name or handle appears nowhere else in the workspace
//!   is a *dead* row — a lint error here;
//! * a string literal elsewhere that shares a registered family
//!   (`hedge.`, `tm.`, …) but is not registered is a likely typo in a
//!   *read* (`delta.get("tm.rows_moved")`), which would silently read 0.
//!
//! Timer names (kind [`NameKind::Timer`]) are recorded via
//! `record_time` into the same log-linear histogram a span or a
//! `record_histo` name gets, and surface in `dc_counters` as six
//! derived rows (`<name>.count`, `.sum_us`, `.min_us`, `.max_us`,
//! `.p50_us`, `.p99_us`). A duration a span already covers gets no
//! timer of its own: the span's histogram carries it.
//!
//! Span names (kind [`NameKind::Span`]) are recorded via
//! `trace_start`/`span_start` and surface twice: as `dc_spans` rows and
//! — because every finished span feeds a histogram named after it — as
//! `dc_histograms` rows. Standalone histograms (kind
//! [`NameKind::Histogram`], via `record_histo`) surface only in
//! `dc_histograms`.
//!
//! Builtin and event rows are never recorded through the collector, so
//! they stay plain `&'static str` consts.

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
    Histogram,
}

/// One registered name.
#[derive(Debug, Clone, Copy)]
pub struct NameDef {
    pub name: &'static str,
    pub kind: NameKind,
    pub help: &'static str,
}

macro_rules! handles {
    ($($(#[$doc:meta])* $ty:ident;)*) => {$(
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub struct $ty(u16);

        impl $ty {
            /// The registered name, as the `dc_*` tables print it.
            pub fn name(self) -> &'static str {
                DEFS[self.index()].name
            }

            /// The handle's row in [`DEFS`]: the collector's slot.
            pub(crate) fn index(self) -> usize {
                usize::from(self.0)
            }
        }
    )*};
}

handles! {
    /// A monotonic counter: `Collector::add`/`incr`.
    Counter;
    /// A duration histogram in microseconds: `Collector::record_time`.
    Timer;
    /// A value histogram: `Collector::record_histo`.
    Histogram;
    /// A trace span: `Collector::trace_start`/`span_start`.
    Span;
}

/// The const a row declares: a handle of its kind, or the bare name
/// for rows the collector never records.
macro_rules! handle {
    (type Builtin) => { &'static str };
    (type Event) => { &'static str };
    (type $kind:ident) => { $kind };
    (Builtin, $row:expr, $name:literal) => { $name };
    (Event, $row:expr, $name:literal) => { $name };
    ($kind:ident, $row:expr, $name:literal) => { $kind($row) };
}

/// The table: `Kind IDENT = "name", "help";`, one row per name, sorted
/// by name. Each row expands to `pub const IDENT` and to `DEFS[i]`, and
/// a handle's index is its row's position in the one `Row` enum, so the
/// two cannot disagree.
macro_rules! names {
    ($($kind:ident $ident:ident = $name:literal, $help:literal;)*) => {
        #[allow(non_camel_case_types, clippy::upper_case_acronyms, dead_code)]
        enum Row {
            $($ident,)*
        }

        $(
            #[doc = $help]
            pub const $ident: handle!(type $kind) = handle!($kind, Row::$ident as u16, $name);
        )*

        /// The registry, in the table's order: row `i` is the handle of
        /// index `i`.
        pub static DEFS: &[NameDef] = &[
            $(NameDef { name: $name, kind: NameKind::$kind, help: $help },)*
        ];
    };
}

names! {
    Counter AGG_PUSHDOWN_PARTIALS_MERGED = "agg.pushdown.partials_merged",
        "per-piece partial aggregates merged exactly once at the driver";
    Counter AGG_PUSHDOWN_QUERIES = "agg.pushdown.queries",
        "table scans executed as partial-aggregate pushdowns";
    Counter AGG_PUSHDOWN_STATS_ANSWERED = "agg.pushdown.stats_answered",
        "ROS containers whose aggregate was answered from zone maps alone";
    Counter BREAKER_CLOSE = "breaker.close",
        "circuit breaker closed after a successful probe";
    Counter BREAKER_HALF_OPEN = "breaker.half_open",
        "circuit breaker moved to half-open after cooldown";
    Counter BREAKER_OPEN = "breaker.open",
        "circuit breaker opened on error-score breach";
    Counter BREAKER_REJECTED = "breaker.rejected",
        "operation rejected by an open breaker";
    Timer DB_COMMIT_US = "db.commit_us",
        "commit critical-section wall time";
    Span DB_COPY = "db.copy",
        "span for one COPY statement on a session";
    Counter DB_COPY_BYTES = "db.copy_bytes",
        "bytes ingested by COPY";
    Counter DB_COPY_ROWS = "db.copy_rows",
        "rows loaded by COPY";
    Timer DB_COPY_US = "db.copy_us",
        "COPY statement wall time";
    Counter DB_EPOCH_ADVANCE = "db.epoch_advance",
        "cluster epoch advanced at commit";
    Counter DB_POOL_ADMISSIONS = "db.pool_admissions",
        "statements admitted by a resource pool";
    Timer DB_POOL_ADMIT_WAIT_US = "db.pool_admit_wait_us",
        "time a statement waited for pool admission";
    Counter DB_POOL_QUEUED = "db.pool_queued",
        "statements that had to queue for a pool slot";
    Span DB_QUERY = "db.query",
        "span for one query (table or system scan) on a session";
    Counter DB_SESSIONS_CLOSED = "db.sessions_closed",
        "client sessions closed";
    Counter DB_SESSIONS_OPENED = "db.sessions_opened",
        "client sessions opened";
    Counter DB_TXN_ABORT = "db.txn_abort",
        "transactions aborted";
    Counter DB_TXN_BEGIN = "db.txn_begin",
        "transactions begun";
    Counter DB_TXN_COMMIT = "db.txn_commit",
        "transactions committed";
    Builtin DC_DROPPED_EVENTS = "dc.dropped_events",
        "events discarded because a collector shard ring filled";
    Builtin DC_DROPPED_SPANS = "dc.dropped_spans",
        "spans discarded because a trace hit its span cap";
    Counter DEADLINE_EXPIRED = "deadline.expired",
        "operations abandoned because the job deadline passed";
    Counter FAILOVER_CONNECTS = "failover.connects",
        "connections re-established on a different node";
    Counter FAILOVER_READS = "failover.reads",
        "V2S pieces served by a buddy after primary failure";
    Counter FAULT_CONNECT_REFUSED = "fault.connect_refused",
        "injected connect refusals fired";
    Event FAULT_DELAY = "fault.delay",
        "operation tag for injected-latency waits (lock witness hazard tag)";
    Counter FAULT_INJECTED = "fault.injected",
        "any injected fault fired";
    Counter FAULT_MID_COPY = "fault.mid_copy",
        "injected mid-COPY crashes fired";
    Counter FAULT_MOVEOUT = "fault.moveout",
        "injected tuple-mover pass crashes fired";
    Counter FAULT_POST_COMMIT = "fault.post_commit",
        "injected lost-commit-acks fired";
    Counter FAULT_REBALANCE = "fault.rebalance",
        "injected mid-migration rebalance crashes fired";
    Counter FAULT_SLOW_CONNECT = "fault.slow_connect",
        "injected connect slowdowns fired";
    Counter FAULT_SLOW_COPY = "fault.slow_copy",
        "injected COPY slowdowns fired";
    Counter FAULT_SLOW_SCAN = "fault.slow_scan",
        "injected scan slowdowns fired";
    Counter HEALTH_FAILURES = "health.failures",
        "operations recorded as failures by a health tracker";
    Counter HEALTH_SUCCESSES = "health.successes",
        "operations recorded as successes by a health tracker";
    Span HEDGE_ATTEMPT = "hedge.attempt",
        "span for one arm of a hedged read: the primary on the caller's thread, the buddy on a pooled one";
    Counter HEDGE_CANCELLED = "hedge.cancelled",
        "hedged-read losers cancelled";
    Counter HEDGE_LAUNCHED = "hedge.launched",
        "hedged buddy attempts launched";
    Counter HEDGE_WINS = "hedge.wins",
        "hedged reads won by the buddy attempt";
    Builtin LOCKWITNESS_CLASSES = "lockwitness.classes",
        "distinct lock classes (creation sites) registered";
    Builtin LOCKWITNESS_CYCLES = "lockwitness.cycles",
        "lock-order cycles (potential deadlocks) detected";
    Builtin LOCKWITNESS_EDGES = "lockwitness.edges",
        "distinct lock acquisition-order edges recorded";
    Builtin LOCKWITNESS_HAZARDS = "lockwitness.hazards",
        "injected sleeps taken while holding a lock";
    Event MD_CATALOG = "md.catalog",
        "op tag for the model catalog statements of deploy, drop and list";
    Counter MD_PREDICTIONS = "md.predictions",
        "in-database model scoring calls";
    Counter PLANNER_CONJUNCTS_REORDERED = "planner.conjuncts_reordered",
        "containers whose predicate conjuncts ran in a stats-chosen order";
    Counter PLANNER_ESTIMATED_ROWS = "planner.estimated_rows",
        "rows the stats-driven planner estimated a scan would leave";
    Counter REBALANCE_FLIPS = "rebalance.flips",
        "segment-map versions made authoritative at an epoch boundary";
    Counter REBALANCE_MIGRATIONS = "rebalance.migrations",
        "rebalance range copies landed durably";
    Counter REBALANCE_MIGRATIONS_SKIPPED = "rebalance.migrations_skipped",
        "migrations skipped on resume because an earlier run landed them";
    Counter REBALANCE_NODE_ADDS = "rebalance.node_adds",
        "nodes added to the cluster online";
    Counter REBALANCE_RESUMES = "rebalance.resumes",
        "interrupted rebalance plans resumed";
    Counter REBALANCE_ROWS_COPIED = "rebalance.rows_copied",
        "rows copied by rebalance migrations";
    Span RETRY_ATTEMPT = "retry.attempt",
        "span for one attempt inside a retry/failover loop";
    Counter RETRY_ATTEMPTS = "retry.attempts",
        "retry attempts after a transient failure";
    Counter RETRY_GAVE_UP = "retry.gave_up",
        "retry loops that gave up";
    Counter RETRY_RECOVERED = "retry.recovered",
        "operations that succeeded after at least one retry";
    Counter S2V_FINAL_COMMITS = "s2v.final_commits",
        "S2V final commit transactions";
    Span S2V_FINALIZE = "s2v.finalize",
        "span and op tag for the S2V finalize step";
    Span S2V_JOB = "s2v.job",
        "root span of one S2V save job";
    Counter S2V_JOBS = "s2v.jobs",
        "S2V save jobs run";
    Span S2V_PHASE1 = "s2v.phase1",
        "span and op tag for S2V phase 1 (save into staging)";
    Span S2V_PHASE2 = "s2v.phase2",
        "span and op tag for S2V phase 2 (staging validation)";
    Span S2V_PHASE3 = "s2v.phase3",
        "span and op tag for S2V phase 3 (swap into target)";
    Span S2V_PHASE4 = "s2v.phase4",
        "span and op tag for S2V phase 4 (commit fan-in)";
    Span S2V_PHASE5 = "s2v.phase5",
        "span and op tag for S2V phase 5 (cleanup)";
    Counter S2V_ROWS_LOADED = "s2v.rows_loaded",
        "rows loaded by S2V saves";
    Span S2V_SETUP = "s2v.setup",
        "span and op tag for S2V setup (target/staging table DDL)";
    Span S2V_TEARDOWN = "s2v.teardown",
        "span and op tag for S2V staging teardown";
    Counter SCAN_CONTAINERS_SKIPPED = "scan.containers_skipped",
        "whole ROS containers skipped by zone-map pruning";
    Counter SCAN_ROWS_EXAMINED = "scan.rows_examined",
        "rows visibility-checked by columnar scans";
    Counter SCAN_ROWS_SKIPPED = "scan.rows_skipped",
        "rows eliminated by zone maps and RLE-run pruning without evaluation";
    Counter SCAN_VALUES_DECODED = "scan.values_decoded",
        "column values decoded by columnar scans";
    Counter SCHED_JOBS = "sched.jobs",
        "jobs submitted to the scheduler";
    Timer SCHED_SLOT_WAIT_US = "sched.slot_wait_us",
        "time a task waited for a worker slot";
    Counter SCHED_SPECULATIVE_TASKS = "sched.speculative_tasks",
        "speculative straggler duplicates launched";
    Counter SCHED_STRAGGLERS_DETECTED = "sched.stragglers_detected",
        "tasks flagged as stragglers by the watchdog";
    Span SCHED_TASK = "sched.task",
        "span for one scheduler task attempt";
    Counter SCHED_TASK_RETRIES = "sched.task_retries",
        "task attempts retried after failure";
    Timer SCHED_TASK_RUN_US = "sched.task_run_us",
        "task execution wall time";
    Counter SCHED_TASKS_FINISHED = "sched.tasks_finished",
        "task attempts finished successfully";
    Counter SCHED_TASKS_LAUNCHED = "sched.tasks_launched",
        "task attempts launched";
    Counter SHED_QUEUE_FULL = "shed.queue_full",
        "statements shed because the pool queue was full";
    Counter SHED_TIMEOUT = "shed.timeout",
        "statements shed after waiting past the queue timeout";
    Counter SHED_TOTAL = "shed.total",
        "all statements shed by admission control";
    Timer STATS_BUILD_US = "stats.build_us",
        "time to compute per-container column statistics at ROS creation";
    Counter STREAM_BATCHES = "stream.batches",
        "streaming micro-batches committed";
    Counter STREAM_ROWS = "stream.rows",
        "rows loaded via streaming micro-batches";
    Counter TM_CONTAINERS_MERGED = "tm.containers_merged",
        "ROS containers consumed by tuple-mover mergeout";
    Counter TM_MERGEOUT_RUNS = "tm.mergeout_runs",
        "tuple-mover mergeout operations performed";
    Timer TM_MERGEOUT_US = "tm.mergeout_us",
        "time spent compacting ROS containers in one mergeout";
    Counter TM_MOVEOUT_RUNS = "tm.moveout_runs",
        "tuple-mover moveout operations performed";
    Timer TM_MOVEOUT_US = "tm.moveout_us",
        "time spent draining committed WOS rows in one moveout";
    Counter TM_ROWS_MERGED = "tm.rows_merged",
        "rows rewritten by tuple-mover mergeout";
    Counter TM_ROWS_MOVED = "tm.rows_moved",
        "rows drained WOS to ROS by tuple-mover moveout";
    Counter TM_SHEDS = "tm.sheds",
        "tuple-mover passes shed on pool-full or busy table lock";
    Counter V2S_BYTES = "v2s.bytes",
        "bytes transferred by V2S pieces";
    Event V2S_CONNECT = "v2s.connect",
        "op tag for V2S connect attempts";
    Span V2S_LOAD = "v2s.load",
        "root span of one V2S load (relation open through scan)";
    Counter V2S_MAP_REFRESH = "v2s.map_refresh",
        "V2S segment-map refreshes after a StaleSegmentMap rejection";
    Span V2S_OPEN = "v2s.open",
        "span and op tag for the V2S schema/open probe";
    Span V2S_PIECE = "v2s.piece",
        "span and op tag for per-piece V2S reads";
    Histogram V2S_PIECE_BYTES = "v2s.piece_bytes",
        "bytes per fetched V2S piece";
    Timer V2S_PIECE_US = "v2s.piece_us",
        "V2S piece fetch wall time";
    Counter V2S_PIECES = "v2s.pieces",
        "V2S pieces fetched";
    Span V2S_PLAN = "v2s.plan",
        "span and op tag for V2S partition planning";
    Event V2S_QUERY = "v2s.query",
        "op tag for one-shot V2S queries";
    Counter V2S_ROWS = "v2s.rows",
        "rows transferred by V2S pieces";
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
    fn every_def_has_help_text() {
        for d in DEFS {
            assert!(!d.help.is_empty(), "{} has no help text", d.name);
        }
    }
}
