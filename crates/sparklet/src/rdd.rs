//! Resilient distributed datasets: immutable, partitioned, lazy, with
//! lineage-based recomputation.
//!
//! An RDD is a partition *source* plus the context. Transformations
//! wrap the parent source — computing partition `i` re-runs the whole
//! lineage chain for `i`, which is exactly Spark's provenance-based
//! fault-tolerance story (Sec. 2.1.2 of the paper): any partition can
//! be recomputed at any time, and a restarted task simply recomputes.

use std::sync::{Arc, OnceLock};

use crate::context::SparkContext;
use crate::error::SparkResult;
use crate::scheduler::TaskContext;

/// One computed partition. A source that keeps its partitions (a
/// parallelized collection, a shuffle's buckets) hands them out shared
/// and a task that only reads — an S2V save encodes its rows — copies
/// nothing; a source that computes them (map, filter, a scan) hands them
/// out owned. Either way it reads as a slice, and [`Partition::into_vec`]
/// gives the items by value, cloning only a shared one.
pub struct Partition<T>(Repr<T>);

enum Repr<T> {
    Owned(Vec<T>),
    /// With the way to copy the items, so that consuming a partition
    /// asks no `Clone` of the item types that are never shared.
    Shared(Arc<Vec<T>>, fn(&[T]) -> Vec<T>),
}

impl<T> Partition<T> {
    pub fn shared(items: Arc<Vec<T>>) -> Partition<T>
    where
        T: Clone,
    {
        Partition(Repr::Shared(items, <[T]>::to_vec))
    }

    pub fn into_vec(self) -> Vec<T> {
        match self.0 {
            Repr::Owned(items) => items,
            Repr::Shared(items, copy) => Arc::try_unwrap(items).unwrap_or_else(|kept| copy(&kept)),
        }
    }
}

impl<T> From<Vec<T>> for Partition<T> {
    fn from(items: Vec<T>) -> Partition<T> {
        Partition(Repr::Owned(items))
    }
}

impl<T> std::ops::Deref for Partition<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match &self.0 {
            Repr::Owned(items) => items,
            Repr::Shared(items, _) => items,
        }
    }
}

/// A source of partitioned data. Implementations must be deterministic:
/// `compute(i)` returns the same rows every time (lineage recompute).
pub trait PartitionSource<T>: Send + Sync {
    fn num_partitions(&self) -> usize;
    fn compute(&self, partition: usize) -> SparkResult<Partition<T>>;
}

/// An immutable distributed dataset.
pub struct Rdd<T> {
    ctx: SparkContext,
    source: Arc<dyn PartitionSource<T>>,
}

impl<T> Clone for Rdd<T> {
    fn clone(&self) -> Rdd<T> {
        Rdd {
            ctx: self.ctx.clone(),
            source: Arc::clone(&self.source),
        }
    }
}

struct Parallelized<T> {
    partitions: Vec<Arc<Vec<T>>>,
}

impl<T: Clone + Send + Sync> PartitionSource<T> for Parallelized<T> {
    fn num_partitions(&self) -> usize {
        self.partitions.len()
    }
    fn compute(&self, partition: usize) -> SparkResult<Partition<T>> {
        Ok(Partition::shared(Arc::clone(&self.partitions[partition])))
    }
}

struct MapSource<U, T> {
    parent: Arc<dyn PartitionSource<U>>,
    f: Arc<dyn Fn(U) -> T + Send + Sync>,
}

impl<U: Send + Sync, T: Send + Sync> PartitionSource<T> for MapSource<U, T> {
    fn num_partitions(&self) -> usize {
        self.parent.num_partitions()
    }
    fn compute(&self, partition: usize) -> SparkResult<Partition<T>> {
        let items = self.parent.compute(partition)?.into_vec();
        Ok(items
            .into_iter()
            .map(|u| (self.f)(u))
            .collect::<Vec<T>>()
            .into())
    }
}

struct FilterSource<T> {
    parent: Arc<dyn PartitionSource<T>>,
    f: Arc<dyn Fn(&T) -> bool + Send + Sync>,
}

impl<T: Send + Sync> PartitionSource<T> for FilterSource<T> {
    fn num_partitions(&self) -> usize {
        self.parent.num_partitions()
    }
    fn compute(&self, partition: usize) -> SparkResult<Partition<T>> {
        let items = self.parent.compute(partition)?.into_vec();
        Ok(items
            .into_iter()
            .filter(|t| (self.f)(t))
            .collect::<Vec<T>>()
            .into())
    }
}

/// Closure type of a per-partition transformation.
type PartitionFn<U, T> = dyn Fn(usize, Vec<U>) -> SparkResult<Vec<T>> + Send + Sync;

struct MapPartitionsSource<U, T> {
    parent: Arc<dyn PartitionSource<U>>,
    f: Arc<PartitionFn<U, T>>,
}

impl<U: Send + Sync, T: Send + Sync> PartitionSource<T> for MapPartitionsSource<U, T> {
    fn num_partitions(&self) -> usize {
        self.parent.num_partitions()
    }
    fn compute(&self, partition: usize) -> SparkResult<Partition<T>> {
        Ok((self.f)(partition, self.parent.compute(partition)?.into_vec())?.into())
    }
}

struct UnionSource<T> {
    left: Arc<dyn PartitionSource<T>>,
    right: Arc<dyn PartitionSource<T>>,
}

impl<T: Send + Sync> PartitionSource<T> for UnionSource<T> {
    fn num_partitions(&self) -> usize {
        self.left.num_partitions() + self.right.num_partitions()
    }
    fn compute(&self, partition: usize) -> SparkResult<Partition<T>> {
        let n = self.left.num_partitions();
        if partition < n {
            self.left.compute(partition)
        } else {
            self.right.compute(partition - n)
        }
    }
}

/// Coalesce: partition `i` of `n` concatenates an adjacent range of
/// parent partitions. No data movement between rows of a partition —
/// the paper's "simply a coalesce of many partitions into fewer
/// without any data shuffling".
struct CoalesceSource<T> {
    parent: Arc<dyn PartitionSource<T>>,
    n: usize,
}

impl<T: Send + Sync> PartitionSource<T> for CoalesceSource<T> {
    fn num_partitions(&self) -> usize {
        self.n
    }
    fn compute(&self, partition: usize) -> SparkResult<Partition<T>> {
        let parents = self.parent.num_partitions();
        let lo = parents * partition / self.n;
        let hi = parents * (partition + 1) / self.n;
        let mut out = Vec::new();
        for p in lo..hi {
            out.extend(self.parent.compute(p)?.into_vec());
        }
        Ok(out.into())
    }
}

/// Repartition: a shuffle. All parent partitions are materialized once
/// (cached) and dealt round-robin into `n` buckets.
struct RepartitionSource<T> {
    parent: Arc<dyn PartitionSource<T>>,
    n: usize,
    cache: OnceLock<SparkResult<Vec<Arc<Vec<T>>>>>,
}

impl<T: Clone + Send + Sync> RepartitionSource<T> {
    fn buckets(&self) -> SparkResult<&[Arc<Vec<T>>]> {
        let res = self.cache.get_or_init(|| {
            let mut buckets: Vec<Vec<T>> = (0..self.n).map(|_| Vec::new()).collect();
            let mut idx = 0usize;
            for p in 0..self.parent.num_partitions() {
                for item in self.parent.compute(p)?.into_vec() {
                    buckets[idx % self.n].push(item);
                    idx += 1;
                }
            }
            Ok(buckets.into_iter().map(Arc::new).collect())
        });
        match res {
            Ok(b) => Ok(b),
            Err(e) => Err(e.clone()),
        }
    }
}

impl<T: Clone + Send + Sync> PartitionSource<T> for RepartitionSource<T> {
    fn num_partitions(&self) -> usize {
        self.n
    }
    fn compute(&self, partition: usize) -> SparkResult<Partition<T>> {
        Ok(Partition::shared(Arc::clone(&self.buckets()?[partition])))
    }
}

impl<T: Send + Sync + 'static> Rdd<T> {
    /// Build an RDD from a custom partition source (used by data
    /// sources whose partitions pull their own data, like the
    /// connector's per-task range queries).
    pub fn from_source(ctx: SparkContext, source: Arc<dyn PartitionSource<T>>) -> Rdd<T> {
        Rdd { ctx, source }
    }

    /// The underlying partition source.
    pub fn source(&self) -> Arc<dyn PartitionSource<T>> {
        Arc::clone(&self.source)
    }

    pub fn context(&self) -> &SparkContext {
        &self.ctx
    }

    pub fn num_partitions(&self) -> usize {
        self.source.num_partitions()
    }

    pub fn map<U: Send + Sync + 'static>(
        &self,
        f: impl Fn(T) -> U + Send + Sync + 'static,
    ) -> Rdd<U> {
        Rdd {
            ctx: self.ctx.clone(),
            source: Arc::new(MapSource {
                parent: self.source(),
                f: Arc::new(f),
            }),
        }
    }

    pub fn flat_map<U: Send + Sync + 'static, I>(
        &self,
        f: impl Fn(T) -> I + Send + Sync + 'static,
    ) -> Rdd<U>
    where
        I: IntoIterator<Item = U>,
    {
        Rdd {
            ctx: self.ctx.clone(),
            source: Arc::new(MapPartitionsSource {
                parent: self.source(),
                f: Arc::new(move |_idx, items: Vec<T>| {
                    Ok(items.into_iter().flat_map(&f).collect())
                }),
            }),
        }
    }

    pub fn filter(&self, f: impl Fn(&T) -> bool + Send + Sync + 'static) -> Rdd<T> {
        Rdd {
            ctx: self.ctx.clone(),
            source: Arc::new(FilterSource {
                parent: self.source(),
                f: Arc::new(f),
            }),
        }
    }

    pub fn map_partitions<U: Send + Sync + 'static>(
        &self,
        f: impl Fn(usize, Vec<T>) -> SparkResult<Vec<U>> + Send + Sync + 'static,
    ) -> Rdd<U> {
        Rdd {
            ctx: self.ctx.clone(),
            source: Arc::new(MapPartitionsSource {
                parent: self.source(),
                f: Arc::new(f),
            }),
        }
    }

    pub fn union(&self, other: &Rdd<T>) -> Rdd<T> {
        Rdd {
            ctx: self.ctx.clone(),
            source: Arc::new(UnionSource {
                left: self.source(),
                right: other.source(),
            }),
        }
    }

    /// Reduce to `n` partitions without shuffling (adjacent merge).
    pub fn coalesce(&self, n: usize) -> Rdd<T> {
        assert!(n > 0, "coalesce requires at least one partition");
        Rdd {
            ctx: self.ctx.clone(),
            source: Arc::new(CoalesceSource {
                parent: self.source(),
                n,
            }),
        }
    }

    /// Count rows (an action: runs a job).
    pub fn count(&self) -> SparkResult<u64> {
        let counts = self.ctx.run_job(self, |_tc: &TaskContext, items: Vec<T>| {
            Ok(items.len() as u64)
        })?;
        Ok(counts.into_iter().sum())
    }
}

impl<T: Clone + Send + Sync + 'static> Rdd<T> {
    pub(crate) fn parallelize(ctx: SparkContext, data: Vec<T>, partitions: usize) -> Rdd<T> {
        let partitions = partitions.max(1);
        let n = data.len();
        let mut parts: Vec<Arc<Vec<T>>> = Vec::with_capacity(partitions);
        let mut iter = data.into_iter();
        for i in 0..partitions {
            let lo = n * i / partitions;
            let hi = n * (i + 1) / partitions;
            parts.push(Arc::new(iter.by_ref().take(hi - lo).collect()));
        }
        Rdd {
            ctx,
            source: Arc::new(Parallelized { partitions: parts }),
        }
    }

    /// Build an RDD with an explicit partition layout (used by
    /// partitioner-aware shuffles such as the connector's pre-hashed
    /// save, paper Sec. 5).
    pub fn from_partitions(ctx: SparkContext, partitions: Vec<Vec<T>>) -> Rdd<T> {
        assert!(!partitions.is_empty(), "need at least one partition");
        Rdd {
            ctx,
            source: Arc::new(Parallelized {
                partitions: partitions.into_iter().map(Arc::new).collect(),
            }),
        }
    }

    /// Redistribute into `n` partitions (a shuffle).
    pub fn repartition(&self, n: usize) -> Rdd<T> {
        assert!(n > 0, "repartition requires at least one partition");
        Rdd {
            ctx: self.ctx.clone(),
            source: Arc::new(RepartitionSource {
                parent: self.source(),
                n,
                cache: OnceLock::new(),
            }),
        }
    }

    /// First `n` items in partition order (an action).
    pub fn take(&self, n: usize) -> SparkResult<Vec<T>> {
        // Simple strategy: collect and truncate (our partitions are in
        // memory anyway).
        let mut all = self.collect()?;
        all.truncate(n);
        Ok(all)
    }

    /// The first item, if any (an action).
    pub fn first(&self) -> SparkResult<Option<T>> {
        Ok(self.take(1)?.into_iter().next())
    }

    /// Materialize all rows on the driver (an action: runs a job).
    pub fn collect(&self) -> SparkResult<Vec<T>> {
        let parts = self
            .ctx
            .run_job(self, |_tc: &TaskContext, items: Vec<T>| Ok(items))?;
        Ok(parts.into_iter().flatten().collect())
    }
}

#[cfg(test)]
mod tests {
    use crate::context::{SparkConf, SparkContext};

    fn ctx() -> SparkContext {
        SparkContext::new(SparkConf::default())
    }

    #[test]
    fn parallelize_splits_evenly() {
        let rdd = ctx().parallelize((0..10).collect::<Vec<i32>>(), 3);
        assert_eq!(rdd.num_partitions(), 3);
        assert_eq!(rdd.collect().unwrap(), (0..10).collect::<Vec<i32>>());
        let sizes: Vec<usize> = (0..3)
            .map(|p| rdd.source().compute(p).unwrap().len())
            .collect();
        assert_eq!(sizes, vec![3, 3, 4]);
    }

    #[test]
    fn map_filter_chain_lazy_and_correct() {
        let rdd = ctx()
            .parallelize((0..100).collect::<Vec<i64>>(), 8)
            .map(|x| x * 2)
            .filter(|x| x % 3 == 0);
        let out = rdd.collect().unwrap();
        assert!(out.iter().all(|x| x % 6 == 0));
        assert_eq!(out.len(), 34);
        assert_eq!(rdd.count().unwrap(), 34);
    }

    #[test]
    fn lineage_recompute_is_deterministic() {
        let rdd = ctx()
            .parallelize((0..50).collect::<Vec<i64>>(), 5)
            .map(|x| x + 1);
        let a = rdd.source().compute(2).unwrap();
        let b = rdd.source().compute(2).unwrap();
        assert_eq!(*a, *b);
    }

    #[test]
    fn flat_map_take_first() {
        let c = ctx();
        let rdd = c
            .parallelize(vec![1i64, 2, 3], 2)
            .flat_map(|x| vec![x, x * 10]);
        assert_eq!(rdd.collect().unwrap(), vec![1, 10, 2, 20, 3, 30]);
        assert_eq!(rdd.take(3).unwrap(), vec![1, 10, 2]);
        assert_eq!(rdd.first().unwrap(), Some(1));
        let empty = c.parallelize(Vec::<i64>::new(), 1);
        assert_eq!(empty.first().unwrap(), None);
    }

    #[test]
    fn union_concatenates() {
        let c = ctx();
        let a = c.parallelize(vec![1, 2], 2);
        let b = c.parallelize(vec![3, 4, 5], 2);
        let u = a.union(&b);
        assert_eq!(u.num_partitions(), 4);
        assert_eq!(u.collect().unwrap(), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn coalesce_preserves_order_without_shuffle() {
        let rdd = ctx()
            .parallelize((0..100).collect::<Vec<i64>>(), 10)
            .coalesce(3);
        assert_eq!(rdd.num_partitions(), 3);
        assert_eq!(rdd.collect().unwrap(), (0..100).collect::<Vec<i64>>());
    }

    #[test]
    fn repartition_balances() {
        let rdd = ctx()
            .parallelize((0..97).collect::<Vec<i64>>(), 2)
            .repartition(8);
        assert_eq!(rdd.num_partitions(), 8);
        let mut all = rdd.collect().unwrap();
        all.sort();
        assert_eq!(all, (0..97).collect::<Vec<i64>>());
        for p in 0..8 {
            let size = rdd.source().compute(p).unwrap().len();
            assert!((12..=13).contains(&size), "partition {p}: {size}");
        }
    }

    #[test]
    fn map_partitions_sees_partition_index() {
        let rdd = ctx()
            .parallelize((0..20).collect::<Vec<i64>>(), 4)
            .map_partitions(|idx, items| Ok(vec![(idx, items.len())]));
        let out = rdd.collect().unwrap();
        assert_eq!(out, vec![(0, 5), (1, 5), (2, 5), (3, 5)]);
    }
}
