//! The lock classes of the workspace, declared once.
//!
//! Every `parking_lot` `Mutex`/`RwLock` a crate creates names one row
//! of the `locks!` table below: `Mutex::new(&locks::CATALOG, ..)`. A
//! class is the unit the lock-order witness (`parking_lot::witness`)
//! and fabriclint's static lock-order pass reason about, after Linux
//! lockdep's lock classes: every lock of a class is interchangeable to
//! them, and the class's name is what `dc_lock_edges` prints.
//!
//! A row's position is its rank. A thread takes classes in ascending
//! rank: while it holds a lock of some class it may take only a class
//! further down the table (or the same one). Every deadlock cycle
//! between classes contains a step against that order, so the witness
//! reports the first such step it sees, in one run, and fabriclint
//! flags any statically derived edge that goes up the table.
//!
//! fabriclint reads the table textually: a creation outside test code
//! whose class is not a row of it is a lint error.

use parking_lot::LockClass;

/// The table: `IDENT: "what it guards";`, one row per class, outermost
/// first. Each row expands to a `pub static IDENT: LockClass` named
/// after the identifier, whose rank is the row's position.
macro_rules! locks {
    ($($ident:ident: $guards:literal;)*) => {
        #[allow(non_camel_case_types, clippy::upper_case_acronyms, dead_code)]
        enum Row {
            $($ident,)*
        }

        $(
            #[doc = $guards]
            pub static $ident: LockClass = LockClass {
                name: stringify!($ident),
                rank: Row::$ident as u32,
            };
        )*

        /// Every class, in rank order.
        pub static ALL: &[&LockClass] = &[$(&$ident,)*];
    };
}

locks! {
    HEALTH_REGISTRY: "the process-wide health trackers, one per cluster";
    REBALANCE_PENDING: "the online rebalance in flight: its plan and moved-row state";
    COMMIT: "the commit critical section: epoch advance and visibility flips";
    CATALOG: "table definitions, projections and views";
    NODE_STORES: "one node's table stores: WOS and ROS containers";
    TABLE_LOCKS: "per-table transaction locks and their holders";
    CLUSTER_MAPS: "the segment-map history";
    CLUSTER_NODES: "the registered node slots";
    UDFS: "registered scalar UDFs";
    RESOURCE_POOLS: "the resource pools by name";
    RESOURCE_POOL_STATE: "one resource pool's running and queued statements";
    DFS_FILES: "the database's staging file system";
    QUERY_PIECE_SLOTS: "the per-piece results of one fanned-out query";
    REBALANCE_OPS: "the rebalance operation log";
    MOVER_THREAD: "the tuple mover's background thread handle";
    MOVER_STOP: "a running tuple mover's stop flag";
    MOVER_OPS: "the tuple mover's operation log";
    CANCEL_WAIT: "a cancel token's wait for a cancel signal";
    FAULT_PLAN: "the armed random fault plan";
    FAULT_SCRIPTED: "scripted one-shot faults";
    FAULT_LATENCY: "the injected latency profile, node factors and stalls";
    HEALTH_NODES: "per-node health scores and breaker states";
    HEALTH_RECENT: "the successful-call latency histogram hedging reads";
    MD_CACHE: "the deployed-model evaluator cache";
    SPARK_FORMATS: "registered data-source formats";
    SCHED_STATS: "finished jobs' statistics";
    SCHED_JOB: "one running job: its task queue and results";
    SPARK_FAILURES: "the scheduler's scripted task failures";
    DFSLITE_NAMENODE: "the simulated HDFS namenode's file table";
    DFSLITE_DATANODE: "one simulated HDFS datanode's blocks";
    DFSLITE_PLACEMENT: "the simulated HDFS block-placement cursor";
    RECORDER_EVENTS: "a netsim recorder's event log";
    OBS_TRACES: "the collector's trace store";
    OBS_EVENTS: "one shard of the collector's event ring";
    OBS_HISTO: "one collector histogram";
    CLOCK_TIMER: "the clock's armed timer launches";
    POOL_PARKED: "the worker pool's parked threads";
    POOL_HANDOFF: "a parked worker's mailbox";
    POOL_LATCH: "a run_all call's outstanding calls";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_class_is_named_after_its_row_and_ranked_by_its_position() {
        for (i, class) in ALL.iter().enumerate() {
            assert_eq!(class.rank as usize, i, "{}", class.name);
        }
        assert_eq!(COMMIT.name, "COMMIT");
        assert!(REBALANCE_PENDING.rank < COMMIT.rank);
    }
}
