//! A fully wired test bed: database cluster + compute engine (+ DFS),
//! with the connector and baselines registered.

use std::sync::Arc;

use common::{Row, Schema};
use connector::DefaultSource;
use dfslite::{DfsClusterSim, DfsConfig};
use mppdb::{Cluster, ClusterConfig};
use sparklet::{DataFrame, SparkConf, SparkContext};

/// One experiment's worth of infrastructure. The paper's primary
/// configuration is the "4:8 cluster": 4 database nodes, 8 engine nodes
/// (Sec. 4.1).
pub struct TestBed {
    pub db: Arc<Cluster>,
    pub ctx: SparkContext,
    pub dfs: Option<Arc<DfsClusterSim>>,
    pub db_nodes: usize,
    pub compute_nodes: usize,
    /// A bed moves the process-wide obs counters for as long as it
    /// lives; see [`obs_counters`].
    #[cfg(test)]
    _counters: obs_counters::Hold,
}

/// The obs counters are one per process and the crate's tests run on
/// parallel threads of one, so a test that asserts on counter *deltas*
/// must be the only one driving a fabric while it runs. It holds the
/// lock here exclusively; every other test that drives one holds it
/// shared (a [`TestBed`] takes it by itself).
#[cfg(test)]
pub(crate) mod obs_counters {
    use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

    static LOCK: RwLock<()> = RwLock::new(());

    pub enum Hold {
        Shared(#[allow(dead_code)] RwLockReadGuard<'static, ()>),
        Exclusive(#[allow(dead_code)] RwLockWriteGuard<'static, ()>),
    }

    // A test that failed while holding the lock left nothing behind
    // that the next one reads.
    pub fn shared() -> Hold {
        Hold::Shared(LOCK.read().unwrap_or_else(PoisonError::into_inner))
    }

    pub fn exclusive() -> Hold {
        Hold::Exclusive(LOCK.write().unwrap_or_else(PoisonError::into_inner))
    }
}

impl TestBed {
    /// Build a `db_nodes:compute_nodes` bed with the connector and the
    /// JDBC baseline registered.
    pub fn new(db_nodes: usize, compute_nodes: usize) -> TestBed {
        TestBed::build(
            db_nodes,
            compute_nodes,
            #[cfg(test)]
            obs_counters::shared(),
        )
    }

    /// A bed for a test that asserts on obs counter deltas: no other
    /// test drives a fabric while it lives.
    #[cfg(test)]
    pub(crate) fn alone(db_nodes: usize, compute_nodes: usize) -> TestBed {
        TestBed::build(db_nodes, compute_nodes, obs_counters::exclusive())
    }

    fn build(
        db_nodes: usize,
        compute_nodes: usize,
        #[cfg(test)] counters: obs_counters::Hold,
    ) -> TestBed {
        let db = Cluster::new(ClusterConfig {
            node_count: db_nodes,
            ..ClusterConfig::default()
        });
        let ctx = SparkContext::new(SparkConf {
            nodes: compute_nodes,
            cores_per_node: 24,
            max_task_attempts: 4,
            thread_cap: 8,
            // Speculation launches duplicates off a wall-clock floor,
            // and their recorded work inflates *simulated* seconds on a
            // loaded host; simulated rows must be a function of the
            // inputs alone.
            speculation: false,
            ..SparkConf::default()
        });
        DefaultSource::register(&ctx, Arc::clone(&db));
        baselines::JdbcDefaultSource::register(&ctx, Arc::clone(&db));
        TestBed {
            db,
            ctx,
            dfs: None,
            db_nodes,
            compute_nodes,
            #[cfg(test)]
            _counters: counters,
        }
    }

    /// Add the separate `dfs_nodes`-node DFS cluster of Fig. 12 (block
    /// size is shrunk in proportion to lab-scale data so multi-block
    /// files still occur).
    pub fn with_dfs(mut self, dfs_nodes: usize, block_size: usize) -> TestBed {
        let dfs = DfsClusterSim::new(DfsConfig {
            nodes: dfs_nodes,
            block_size,
            replication: 3,
        });
        baselines::DfsSource::register(&self.ctx, Arc::clone(&dfs));
        self.dfs = Some(dfs);
        self
    }

    /// DataFrame from generated rows.
    pub fn dataframe(&self, schema: Schema, rows: Vec<Row>, partitions: usize) -> DataFrame {
        self.ctx
            .create_dataframe(rows, schema, partitions)
            .expect("generated rows always match their schema")
    }

    /// Drop recorded events from both recorders (the db recorder carries
    /// the connector's log; the DFS has its own).
    pub fn clear_recorders(&self) {
        self.db.recorder().clear();
        self.ctx.recorder().clear();
        if let Some(dfs) = &self.dfs {
            dfs.recorder().clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;

    #[test]
    fn bed_wires_connector_and_baselines() {
        let bed = TestBed::new(4, 8).with_dfs(4, 1 << 20);
        assert!(bed.ctx.format_provider(connector::DEFAULT_SOURCE).is_ok());
        assert!(bed.ctx.format_provider(baselines::JDBC_FORMAT).is_ok());
        assert!(bed.ctx.format_provider(baselines::DFS_FORMAT).is_ok());
        let (schema, rows) = datasets::d1(100, 10, 1);
        let df = bed.dataframe(schema, rows, 4);
        assert_eq!(df.count().unwrap(), 100);
    }
}
