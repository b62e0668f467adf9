//! An MPP column-store database in the mold of the paper's enterprise
//! analytic engine (Sec. 2.1.1).
//!
//! The database is a multi-node cluster running in one process. It
//! provides every feature the connector's correctness and performance
//! story depends on:
//!
//! * **Segmentation** — tables are hash-segmented across nodes on a
//!   64-bit hash ring; the segment boundaries and node placement are
//!   queryable from the system catalog, which is what lets the connector
//!   formulate node-local range queries (Sec. 3.1.2). Unsegmented tables
//!   are replicated on every node.
//! * **Epochs** — every commit advances a global epoch; any query can
//!   read *as of* an epoch, giving the connector its consistent
//!   cross-task snapshot (Sec. 3.1.2).
//! * **ACID transactions** — strict table-level two-phase locking for
//!   writers with pending-until-commit visibility, so snapshot readers
//!   never block and the S2V protocol's conditional updates are
//!   serializable (Sec. 3.2.1).
//! * **ROS/WOS storage** — rows land in a write buffer (WOS) of open,
//!   unencoded column containers, which a tuple mover seals into
//!   read-optimized encoded containers (ROS) with RLE/dictionary/plain
//!   encodings.
//! * **k-safety** — segments are replicated to `k` buddy nodes and scans
//!   fail over when a node is down.
//! * **COPY** — a bulk-load utility accepting CSV and Avro sources with
//!   a rejected-rows tolerance, the substrate for both S2V and the
//!   native-COPY baseline (Table 4).
//! * **SQL** — a lexer/parser/executor for the DDL and DML the paper's
//!   examples use, including scalar UDx invocation with
//!   `USING PARAMETERS`, joins, and grouped aggregates (so that views
//!   can push joins/aggregations below the connector, Sec. 3.1.1).
//! * **An internal DFS** — blob storage for deployed PMML models with a
//!   metadata table, used by the MD component (Sec. 3.3).

pub mod catalog;
pub mod cluster;
pub mod copy;
pub mod dfs;
pub mod error;
pub mod fault;
pub mod query;
pub mod rebalance;
pub mod resource;
pub mod segmentation;
pub mod session;
pub mod sql;
pub mod storage;
pub mod system;
pub mod txn;
pub mod udf;

pub use catalog::{Catalog, Segmentation, TableDef};
pub use cluster::{Cluster, ClusterConfig};
pub use copy::{CopyOptions, CopyResult, CopySource};
pub use error::{DbError, DbResult};
pub use fault::{FaultInjector, FaultPlan, FaultSite, LatencyProfile, LatencySite};
pub use query::{estimate_scan_rows, QueryResult, QuerySpec};
pub use rebalance::{RebalanceOp, RebalanceReport};
pub use segmentation::{HashRange, Segment, SegmentMap, SegmentMove};
pub use session::Session;
pub use storage::{ColumnBatch, ColumnVec, MergeOutcome, MoverOp, MoverPassReport};
pub use udf::ScalarUdf;
