//! The bed every workload runs on: the paper's 4:8 cluster (Sec. 4.1),
//! built here so that no file outside the benchmark decides its shape.

use std::sync::Arc;

use common::{Row, Schema};
use connector::DefaultSource;
use mppdb::{Cluster, ClusterConfig, CopyOptions, CopySource, QuerySpec};
use sparklet::{SparkConf, SparkContext};

pub const DB_NODES: usize = 4;
pub const COMPUTE_NODES: usize = 8;

/// Errors carry the failing call's own message; the benchmark only
/// counts and prints them.
pub type Res<T> = Result<T, String>;

pub fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

pub struct Bed {
    pub db: Arc<Cluster>,
    pub ctx: SparkContext,
}

impl Bed {
    /// 4 database nodes, 8 compute nodes, at most 8 OS threads per job,
    /// default cluster configuration, and the obs collector as users
    /// get it (enabled).
    pub fn new() -> Bed {
        let db = Cluster::new(ClusterConfig {
            node_count: DB_NODES,
            ..ClusterConfig::default()
        });
        let ctx = SparkContext::new(SparkConf {
            nodes: COMPUTE_NODES,
            cores_per_node: 24,
            max_task_attempts: 4,
            thread_cap: 8,
            ..SparkConf::default()
        });
        DefaultSource::register(&ctx, Arc::clone(&db));
        Bed { db, ctx }
    }

    /// Events the netsim recorders hold. They are unbounded `Vec`s, so
    /// the drivers count and clear them after every op.
    pub fn take_recorder_events(&self) -> u64 {
        let n = self.db.recorder().len() + self.ctx.recorder().len();
        self.db.recorder().clear();
        self.ctx.recorder().clear();
        n as u64
    }

    /// `CREATE TABLE` with the default segmentation (hash of all
    /// columns, what an S2V save creates too) unless `segmented_by`
    /// names a column.
    pub fn create_table(&self, name: &str, schema: &Schema, segmented_by: Option<&str>) -> Res<()> {
        let cols: Vec<String> = schema
            .fields()
            .iter()
            .map(|f| format!("{} {}", f.name, f.dtype.sql_name()))
            .collect();
        let tail = match segmented_by {
            Some(col) => format!(" SEGMENTED BY HASH({col}) ALL NODES"),
            None => String::new(),
        };
        let mut s = self.db.connect(0).map_err(err("connect"))?;
        s.execute(&format!("CREATE TABLE {name} ({}){tail}", cols.join(", ")))
            .map_err(err("create table"))?;
        Ok(())
    }

    /// One COPY of pre-parsed rows; `direct` writes ROS containers,
    /// otherwise the rows land in the WOS.
    pub fn copy_rows(&self, table: &str, rows: Vec<Row>, direct: bool) -> Res<u64> {
        let mut s = self.db.connect(0).map_err(err("connect"))?;
        let options = CopyOptions {
            direct,
            ..CopyOptions::default()
        };
        let result = s
            .copy(table, CopySource::Rows(rows), options)
            .map_err(err("copy"))?;
        Ok(result.loaded)
    }

    /// `COUNT(*)` of a table through a plain session: one failed check
    /// (printed) unless it is `expect`. Returns `(attempted, failed)`.
    pub fn check_count(&self, table: &str, expect: u64) -> (u64, u64) {
        let count = self
            .db
            .connect(0)
            .and_then(|mut s| s.query(&QuerySpec::scan(table).count()))
            .map(|r| r.count);
        if count.as_ref().ok() == Some(&expect) {
            (1, 0)
        } else {
            eprintln!("perf: {table} holds {count:?} rows, expected {expect}");
            (1, 1)
        }
    }
}
