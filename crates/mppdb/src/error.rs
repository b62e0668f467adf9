//! Database error type.

use std::fmt;

use common::error::Error as CommonError;

pub type DbResult<T> = std::result::Result<T, DbError>;

/// Errors surfaced by the database engine.
#[derive(Debug, Clone, PartialEq)]
pub enum DbError {
    /// Catalog: object not found.
    UnknownTable(String),
    /// Catalog: object already exists.
    TableExists(String),
    /// Node index out of range or node is down.
    NodeUnavailable(usize),
    /// A new connection attempt was refused at the TCP level (injected
    /// fault; the node itself may be healthy).
    ConnectionRefused { node: usize },
    /// An established session's connection dropped: the node was killed
    /// under the session, or the link died mid-operation. Distinct from
    /// [`DbError::NodeUnavailable`] so callers can tell "this node is
    /// down" from "my connection to it is gone".
    ConnectionLost { node: usize },
    /// Per-node session limit (MAX_CLIENT_SESSIONS) reached.
    TooManySessions { node: usize, limit: usize },
    /// Lock wait timed out (possible deadlock); transaction aborted.
    LockTimeout { table: String },
    /// Statement requires an active transaction or is invalid in one.
    TxnState(String),
    /// Data/type problems from the shared layer.
    Data(CommonError),
    /// SQL syntax error.
    Syntax(String),
    /// Semantic errors during planning/execution.
    Execution(String),
    /// COPY exceeded the rejected-rows tolerance.
    CopyRejected { rejected: u64, tolerance: u64 },
    /// UDF not found or misused.
    Udf(String),
    /// DFS path errors.
    Dfs(String),
    /// Query referenced an epoch that does not exist yet.
    BadEpoch { requested: u64, current: u64 },
    /// Not enough live nodes to serve a segment (exceeded k-safety).
    DataUnavailable { segment: usize },
    /// Admission control shed the statement: the resource pool's queue
    /// was full or the statement waited past the pool's queue timeout.
    /// Transient by design — back off and retry.
    Overloaded { pool: String },
    /// The query was planned against a segment-map version that is not
    /// the one authoritative at its snapshot epoch — the cluster
    /// rebalanced under the client. Transient: refresh the map and
    /// re-plan.
    StaleSegmentMap { requested: u64, current: u64 },
    /// A rebalance migration was interrupted (injected crash or node
    /// loss) and left pending. Transient: `run_rebalance` resumes the
    /// plan idempotently.
    RebalanceInterrupted { node: usize },
    /// The statement was cancelled through its session's
    /// [`Cancel`](crate::session::Cancel) token (the JDBC
    /// `Statement.cancel()` analog): a hedged read's loser. Not transient
    /// — the caller asked for the stop, and nothing about the node is
    /// learned from it.
    Cancelled,
}

impl DbError {
    /// Whether retrying the same statement can plausibly succeed.
    ///
    /// The match is exhaustive on purpose — `fabriclint` checks that
    /// every variant is classified here, so adding a variant without
    /// deciding its retry semantics fails both the build and the lint.
    pub fn is_transient(&self) -> bool {
        match self {
            // Connectivity and capacity: the cluster can heal or drain.
            DbError::NodeUnavailable(_)
            | DbError::ConnectionRefused { .. }
            | DbError::ConnectionLost { .. }
            | DbError::TooManySessions { .. }
            | DbError::LockTimeout { .. }
            | DbError::DataUnavailable { .. }
            | DbError::Overloaded { .. }
            | DbError::StaleSegmentMap { .. }
            | DbError::RebalanceInterrupted { .. } => true,
            // Semantic/schema/data errors: retrying replays the failure.
            DbError::UnknownTable(_)
            | DbError::TableExists(_)
            | DbError::TxnState(_)
            | DbError::Data(_)
            | DbError::Syntax(_)
            | DbError::Execution(_)
            | DbError::CopyRejected { .. }
            | DbError::Udf(_)
            | DbError::Dfs(_)
            | DbError::BadEpoch { .. }
            | DbError::Cancelled => false,
        }
    }
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::UnknownTable(t) => write!(f, "unknown table or view: {t}"),
            DbError::TableExists(t) => write!(f, "table already exists: {t}"),
            DbError::NodeUnavailable(n) => write!(f, "node {n} unavailable"),
            DbError::ConnectionRefused { node } => {
                write!(f, "connection refused by node {node}")
            }
            DbError::ConnectionLost { node } => {
                write!(f, "connection to node {node} lost")
            }
            DbError::TooManySessions { node, limit } => {
                write!(
                    f,
                    "node {node} refused session: MAX_CLIENT_SESSIONS={limit}"
                )
            }
            DbError::LockTimeout { table } => {
                write!(f, "lock wait timeout on table {table}; transaction aborted")
            }
            DbError::TxnState(msg) => write!(f, "transaction state error: {msg}"),
            DbError::Data(e) => write!(f, "data error: {e}"),
            DbError::Syntax(msg) => write!(f, "syntax error: {msg}"),
            DbError::Execution(msg) => write!(f, "execution error: {msg}"),
            DbError::CopyRejected {
                rejected,
                tolerance,
            } => write!(
                f,
                "COPY aborted: {rejected} rows rejected exceeds tolerance {tolerance}"
            ),
            DbError::Udf(msg) => write!(f, "UDF error: {msg}"),
            DbError::Dfs(msg) => write!(f, "DFS error: {msg}"),
            DbError::BadEpoch { requested, current } => {
                write!(
                    f,
                    "epoch {requested} not available (current epoch {current})"
                )
            }
            DbError::DataUnavailable { segment } => {
                write!(
                    f,
                    "segment {segment} unavailable: too many nodes down for k-safety"
                )
            }
            DbError::Overloaded { pool } => {
                write!(f, "statement shed by overloaded resource pool {pool}")
            }
            DbError::StaleSegmentMap { requested, current } => {
                write!(
                    f,
                    "segment map version {requested} is stale (current {current}); refresh and re-plan"
                )
            }
            DbError::RebalanceInterrupted { node } => {
                write!(
                    f,
                    "rebalance migration to node {node} interrupted; plan left pending"
                )
            }
            DbError::Cancelled => write!(f, "statement cancelled"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<CommonError> for DbError {
    fn from(e: CommonError) -> DbError {
        DbError::Data(e)
    }
}
