//! The engine context (the `SparkContext` analog).

use std::collections::HashMap;
use std::sync::Arc;

use common::clock::Clock;
use common::locks;
use common::{Row, Schema};
use netsim::record::Recorder;
use parking_lot::RwLock;

use crate::dataframe::{DataFrame, DataFrameReader};
use crate::datasource::DataSourceProvider;
use crate::error::{SparkError, SparkResult};
use crate::failure::FailureInjector;
use crate::rdd::{Partition, Rdd};
use crate::scheduler::{Scheduler, TaskContext};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct SparkConf {
    /// Worker nodes in the compute cluster.
    pub nodes: usize,
    /// Task slots per node (the paper assigns ~75% of 32 logical cores).
    pub cores_per_node: usize,
    /// Retry budget per task (Spark's default is 4 total attempts).
    pub max_task_attempts: u32,
    /// Cap on real OS threads per job (logical slots can exceed this;
    /// the timing simulator uses the logical number).
    pub thread_cap: usize,
    /// Launch speculative duplicates of straggler tasks (Spark's
    /// `spark.speculation`): a grey-slow attempt gets a second copy and
    /// the first finisher wins.
    pub speculation: bool,
    /// A running task is a straggler once its runtime exceeds
    /// `multiplier` × the median runtime of completed attempts.
    pub speculation_multiplier: f64,
    /// Fraction of a job's partitions that must succeed before
    /// stragglers are considered (Spark's `spark.speculation.quantile`).
    pub speculation_quantile: f64,
    /// Runtime floor (ms) below which nothing is speculated — keeps
    /// µs-scale clean runs free of spurious duplicates.
    pub speculation_min_ms: u64,
    /// What the scheduler reads time on: slot waits, task runtimes and
    /// the straggler watchdog's cadence and verdicts.
    pub clock: Clock,
}

impl Default for SparkConf {
    fn default() -> SparkConf {
        SparkConf {
            nodes: 8,
            cores_per_node: 24,
            max_task_attempts: 4,
            thread_cap: 16,
            speculation: true,
            speculation_multiplier: 3.0,
            speculation_quantile: 0.5,
            speculation_min_ms: 25,
            clock: Clock::real(),
        }
    }
}

impl SparkConf {
    pub fn with_nodes(nodes: usize) -> SparkConf {
        SparkConf {
            nodes,
            ..SparkConf::default()
        }
    }

    pub fn total_slots(&self) -> usize {
        self.nodes * self.cores_per_node
    }
}

struct Inner {
    conf: SparkConf,
    scheduler: Scheduler,
    recorder: Arc<Recorder>,
    failures: FailureInjector,
    formats: RwLock<HashMap<String, Arc<dyn DataSourceProvider>>>,
}

/// A handle to the engine; cheap to clone.
#[derive(Clone)]
pub struct SparkContext {
    inner: Arc<Inner>,
}

impl SparkContext {
    pub fn new(conf: SparkConf) -> SparkContext {
        SparkContext {
            inner: Arc::new(Inner {
                scheduler: Scheduler::new(conf.clone()),
                conf,
                recorder: Recorder::new(),
                failures: FailureInjector::new(),
                formats: RwLock::new(&locks::SPARK_FORMATS, HashMap::new()),
            }),
        }
    }

    pub fn conf(&self) -> &SparkConf {
        &self.inner.conf
    }

    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.inner.recorder
    }

    /// The failure-injection control surface.
    pub fn failures(&self) -> &FailureInjector {
        &self.inner.failures
    }

    /// Observed stats for a finished job (see
    /// [`crate::scheduler::JobStats`]); `None` once pruned.
    pub fn job_stats(&self, job_id: u64) -> Option<crate::scheduler::JobStats> {
        self.inner.scheduler.job_stats(job_id)
    }

    /// Distribute a local collection into an RDD with `partitions`
    /// near-equal slices.
    pub fn parallelize<T: Clone + Send + Sync + 'static>(
        &self,
        data: Vec<T>,
        partitions: usize,
    ) -> Rdd<T> {
        Rdd::parallelize(self.clone(), data, partitions)
    }

    /// Build a DataFrame from local rows.
    pub fn create_dataframe(
        &self,
        rows: Vec<Row>,
        schema: Schema,
        partitions: usize,
    ) -> SparkResult<DataFrame> {
        for r in &rows {
            schema.validate_row(r)?;
        }
        let rdd = self.parallelize(rows, partitions);
        Ok(DataFrame::from_rdd(rdd, schema))
    }

    /// Register an External Data Source implementation under a format
    /// name (e.g. `"com.vertica.spark.datasource.DefaultSource"`).
    pub fn register_format(&self, name: &str, provider: Arc<dyn DataSourceProvider>) {
        self.inner
            .formats
            .write()
            .insert(name.to_string(), provider);
    }

    pub fn format_provider(&self, name: &str) -> SparkResult<Arc<dyn DataSourceProvider>> {
        self.inner
            .formats
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| SparkError::Usage(format!("unknown data source format: {name}")))
    }

    /// Begin a load (paper Table 1's `df.read`).
    pub fn read(&self) -> DataFrameReader {
        DataFrameReader::new(self.clone())
    }

    /// The fundamental scheduler entry point: run `f` over every
    /// partition of `rdd` as one job.
    pub fn run_job<T, R>(
        &self,
        rdd: &Rdd<T>,
        f: impl Fn(&TaskContext, Vec<T>) -> SparkResult<R> + Sync,
    ) -> SparkResult<Vec<R>>
    where
        T: Send + Sync + 'static,
        R: Send,
    {
        self.run_job_traced(rdd, obs::TraceCtx::NONE, |tc, items| {
            f(tc, items.into_vec())
        })
    }

    /// [`SparkContext::run_job`] under a trace: every task attempt gets
    /// a `sched.task` span parented at `trace`, and the task closure
    /// sees its span as [`TaskContext::trace`] for further parenting. The
    /// task gets its partition as the source computed it: one that only
    /// reads it borrows a shared partition instead of copying it.
    pub fn run_job_traced<T, R>(
        &self,
        rdd: &Rdd<T>,
        trace: obs::TraceCtx,
        f: impl Fn(&TaskContext, Partition<T>) -> SparkResult<R> + Sync,
    ) -> SparkResult<Vec<R>>
    where
        T: Send + Sync + 'static,
        R: Send,
    {
        let source = rdd.source();
        self.inner.scheduler.run_job_traced(
            source.num_partitions(),
            &self.inner.failures,
            trace,
            &|ctx: &TaskContext| {
                let items = source.compute(ctx.partition)?;
                f(ctx, items)
            },
        )
    }

    /// Run a job over an explicit partition count without an RDD (used
    /// by data sources that generate their own partition work).
    pub fn run_partitions<R: Send>(
        &self,
        partitions: usize,
        f: impl Fn(&TaskContext) -> SparkResult<R> + Sync,
    ) -> SparkResult<Vec<R>> {
        self.inner
            .scheduler
            .run_job(partitions, &self.inner.failures, &f)
    }

    /// [`SparkContext::run_partitions`] with `sched.task` attempt spans
    /// parented at `trace`.
    pub fn run_partitions_traced<R: Send>(
        &self,
        partitions: usize,
        trace: obs::TraceCtx,
        f: impl Fn(&TaskContext) -> SparkResult<R> + Sync,
    ) -> SparkResult<Vec<R>> {
        self.inner
            .scheduler
            .run_job_traced(partitions, &self.inner.failures, trace, &f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelize_and_run_job() {
        let ctx = SparkContext::new(SparkConf::default());
        let rdd = ctx.parallelize((0..100).collect::<Vec<i64>>(), 7);
        let sums = ctx
            .run_job(&rdd, |_tc, items| Ok(items.iter().sum::<i64>()))
            .unwrap();
        assert_eq!(sums.len(), 7);
        assert_eq!(sums.iter().sum::<i64>(), 4950);
    }

    #[test]
    fn unknown_format_errors() {
        let ctx = SparkContext::new(SparkConf::default());
        assert!(ctx.format_provider("nope").is_err());
    }

    #[test]
    fn create_dataframe_validates_rows() {
        let ctx = SparkContext::new(SparkConf::default());
        let schema = Schema::from_pairs(&[("a", common::DataType::Int64)]);
        assert!(ctx
            .create_dataframe(vec![common::row![1i64]], schema.clone(), 2)
            .is_ok());
        assert!(ctx
            .create_dataframe(vec![common::row!["x"]], schema, 2)
            .is_err());
    }
}
