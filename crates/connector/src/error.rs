//! The connector's typed error surface.
//!
//! Before this module the connector surfaced every failure as a
//! stringly `SparkError::DataSource(String)`, which made "should I
//! retry?" a substring match. [`ConnectorError`] keeps the database
//! error (`DbError`) structured and classifies every variant as
//! transient or fatal via [`ConnectorError::is_transient`] — the single
//! predicate the retry layer consults.

use mppdb::DbError;
use sparklet::SparkError;

pub type ConnectorResult<T> = Result<T, ConnectorError>;

/// Everything that can go wrong between Spark and the database.
#[derive(Debug, Clone, PartialEq)]
pub enum ConnectorError {
    /// The caller misused the API (bad option, bad mode, bad argument).
    Usage(String),
    /// A database error, tagged with the connector operation that hit it.
    Db { op: &'static str, source: DbError },
    /// The compute engine failed the job (task kill, scheduler error).
    Engine(String),
    /// No cluster node is accepting connections.
    NoLiveNodes,
    /// The load exceeded the configured rejected-rows tolerance.
    Tolerance {
        job: String,
        loaded: u64,
        rejected: u64,
        tolerance: f64,
    },
    /// The S2V protocol reached a state it never should (e.g. no task
    /// committed and no final status recorded).
    Protocol(String),
    /// The retry policy ran out of attempts.
    RetriesExhausted {
        op: &'static str,
        attempts: u32,
        last: Box<ConnectorError>,
    },
    /// The retry policy ran out of wall-clock budget.
    DeadlineExceeded {
        op: &'static str,
        attempts: u32,
        elapsed_ms: u64,
    },
}

impl ConnectorError {
    pub fn db(op: &'static str, source: DbError) -> ConnectorError {
        ConnectorError::Db { op, source }
    }

    /// Whether the statement ended on its cancel token: a hedged read's
    /// loser.
    pub fn is_cancelled(&self) -> bool {
        matches!(
            self,
            ConnectorError::Db {
                source: DbError::Cancelled,
                ..
            }
        )
    }

    /// Whether retrying the same operation can plausibly succeed.
    ///
    /// Transient: connectivity loss, refused/overloaded nodes, lock
    /// timeouts, and segments that are momentarily unreadable (their
    /// node may be restored or a buddy may come up). Everything else —
    /// schema errors, rejected data, usage mistakes, protocol
    /// violations, exhausted budgets — is fatal: retrying replays the
    /// same failure.
    /// The match is exhaustive on purpose (no `_` arm): `fabriclint`
    /// checks that every variant is classified here, and the compiler
    /// forces a decision when a variant is added. Database errors
    /// delegate to [`DbError::is_transient`] so the two layers cannot
    /// drift apart.
    pub fn is_transient(&self) -> bool {
        match self {
            ConnectorError::Db { source, .. } => source.is_transient(),
            ConnectorError::NoLiveNodes => true,
            ConnectorError::Usage(_)
            | ConnectorError::Engine(_)
            | ConnectorError::Tolerance { .. }
            | ConnectorError::Protocol(_)
            | ConnectorError::RetriesExhausted { .. }
            | ConnectorError::DeadlineExceeded { .. } => false,
        }
    }
}

impl std::fmt::Display for ConnectorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConnectorError::Usage(msg) => write!(f, "usage: {msg}"),
            ConnectorError::Db { op, source } => write!(f, "db error during {op}: {source}"),
            ConnectorError::Engine(msg) => write!(f, "engine error: {msg}"),
            ConnectorError::NoLiveNodes => write!(f, "no live database nodes"),
            ConnectorError::Tolerance {
                job,
                loaded,
                rejected,
                tolerance,
            } => write!(
                f,
                "job {job}: {rejected} rejected rows against {loaded} loaded \
                 exceeds tolerance {tolerance}"
            ),
            ConnectorError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            ConnectorError::RetriesExhausted { op, attempts, last } => {
                write!(
                    f,
                    "{op}: gave up after {attempts} attempts, last error: {last}"
                )
            }
            ConnectorError::DeadlineExceeded {
                op,
                attempts,
                elapsed_ms,
            } => write!(
                f,
                "{op}: deadline exceeded after {attempts} attempts ({elapsed_ms} ms)"
            ),
        }
    }
}

impl std::error::Error for ConnectorError {}

impl From<DbError> for ConnectorError {
    fn from(e: DbError) -> ConnectorError {
        ConnectorError::Db {
            op: "db",
            source: e,
        }
    }
}

impl From<common::Error> for ConnectorError {
    fn from(e: common::Error) -> ConnectorError {
        ConnectorError::Db {
            op: "data",
            source: DbError::Data(e),
        }
    }
}

impl From<SparkError> for ConnectorError {
    fn from(e: SparkError) -> ConnectorError {
        match e {
            SparkError::Usage(msg) => ConnectorError::Usage(msg),
            other => ConnectorError::Engine(other.to_string()),
        }
    }
}

/// The bridge back into the engine's error type: Spark-facing entry
/// points (`DataSourceProvider`, `ScanRelation`) return `SparkError`.
impl From<ConnectorError> for SparkError {
    fn from(e: ConnectorError) -> SparkError {
        match e {
            ConnectorError::Usage(msg) => SparkError::Usage(msg),
            other => SparkError::DataSource(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_classification_covers_connectivity_errors() {
        for e in [
            DbError::NodeUnavailable(2),
            DbError::ConnectionRefused { node: 0 },
            DbError::ConnectionLost { node: 1 },
            DbError::TooManySessions { node: 0, limit: 8 },
            DbError::LockTimeout { table: "t".into() },
            DbError::DataUnavailable { segment: 3 },
            DbError::Overloaded {
                pool: "general".into(),
            },
        ] {
            assert!(
                ConnectorError::db("op", e.clone()).is_transient(),
                "{e} should be transient"
            );
        }
        assert!(ConnectorError::NoLiveNodes.is_transient());
    }

    #[test]
    fn fatal_classification_covers_semantic_errors() {
        for e in [
            DbError::UnknownTable("t".into()),
            DbError::TableExists("t".into()),
            DbError::Syntax("bad".into()),
            DbError::TxnState("no txn".into()),
            DbError::CopyRejected {
                rejected: 5,
                tolerance: 1,
            },
            DbError::BadEpoch {
                requested: 9,
                current: 3,
            },
        ] {
            assert!(
                !ConnectorError::db("op", e.clone()).is_transient(),
                "{e} should be fatal"
            );
        }
        assert!(!ConnectorError::Usage("bad".into()).is_transient());
        assert!(!ConnectorError::Protocol("weird".into()).is_transient());
        assert!(!ConnectorError::RetriesExhausted {
            op: "x",
            attempts: 3,
            last: Box::new(ConnectorError::NoLiveNodes),
        }
        .is_transient());
    }

    #[test]
    fn spark_usage_errors_round_trip() {
        let c: ConnectorError = SparkError::Usage("bad arg".into()).into();
        assert_eq!(c, ConnectorError::Usage("bad arg".into()));
        let s: SparkError = c.into();
        assert!(matches!(s, SparkError::Usage(_)));
        let s2: SparkError = ConnectorError::NoLiveNodes.into();
        assert!(matches!(s2, SparkError::DataSource(_)));
    }
}
