//! Shared data model for the Vertica/Spark fabric reproduction.
//!
//! Both engines in this workspace — the MPP column store (`mppdb`) and the
//! batch compute engine (`sparklet`) — exchange relational data. This crate
//! holds the vocabulary they share:
//!
//! * [`Value`] / [`DataType`] — the dynamically typed cell model,
//! * [`Schema`] / [`Field`] — column metadata,
//! * [`Row`] — a materialized tuple,
//! * [`expr::Expr`] — scalar expressions and predicates, used both by the
//!   SQL layer of `mppdb` and by the data-source pushdown API of `sparklet`,
//! * [`hash::segmentation_hash`] — the 64-bit hash that drives table
//!   segmentation (the "hash ring" of the paper, Sec. 3.1.2),
//! * [`csv`] — a small CSV codec used by bulk load and the HDFS baseline,
//! * [`pool`] — the reused worker threads scheduler tasks, scan fan-out
//!   and hedged reads run on.

pub mod agg;
pub mod csv;
pub mod error;
pub mod expr;
pub mod hash;
pub mod pool;
pub mod row;
pub mod schema;
pub mod value;

pub use error::{Error, Result};
pub use expr::Expr;
pub use row::Row;
pub use schema::{Field, Schema};
pub use value::{DataType, Value};
