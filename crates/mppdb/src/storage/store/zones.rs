//! The store's flat zone index: what a scan reads to decide whether a
//! sealed container can be skipped, kept apart from the containers so
//! that deciding touches nothing else.

use crate::storage::stats::{ColumnStats, ContainerStats, ZoneMap};

/// Every ROS container's row count and column statistics, in `ros`
/// order, `column_count` statistics per container, in two flat vectors.
/// Reading a container's own [`ContainerStats`] follows a pointer to its
/// columns, and its length sits behind another, in its visibility: a
/// scan that skips most containers would pay two cache misses for each.
///
/// Kept in step with `ros` by every site that changes that list: a push
/// appends an entry, mergeout and abort move entries as they move
/// containers, and only `remove_hash_range` rebuilds the index.
#[derive(Debug, Default)]
pub(super) struct ZoneIndex {
    column_count: usize,
    row_counts: Vec<u64>,
    columns: Vec<ColumnStats>,
}

/// One container's entry of a [`ZoneIndex`].
#[derive(Debug, Clone, Copy)]
pub(super) struct Zone<'a> {
    row_count: u64,
    columns: &'a [ColumnStats],
}

impl ZoneMap for Zone<'_> {
    fn row_count(&self) -> u64 {
        self.row_count
    }

    fn column(&self, idx: usize) -> Option<&ColumnStats> {
        self.columns.get(idx)
    }
}

impl ZoneIndex {
    pub(super) fn new(column_count: usize) -> ZoneIndex {
        ZoneIndex {
            column_count,
            ..ZoneIndex::default()
        }
    }

    /// The entry of ROS container `at`.
    pub(super) fn get(&self, at: usize) -> Zone<'_> {
        let n = self.column_count;
        Zone {
            row_count: self.row_counts[at],
            columns: &self.columns[at * n..(at + 1) * n],
        }
    }

    /// Every entry, in `ros` order.
    pub(super) fn iter(&self) -> impl Iterator<Item = Zone<'_>> {
        (0..self.row_counts.len()).map(|at| self.get(at))
    }

    pub(super) fn push(&mut self, stats: &ContainerStats) {
        debug_assert_eq!(stats.columns.len(), self.column_count);
        self.row_counts.push(stats.row_count);
        self.columns.extend_from_slice(&stats.columns);
    }

    /// Overwrite entry `at` with a new container's statistics.
    pub(super) fn set(&mut self, at: usize, stats: &ContainerStats) {
        let n = self.column_count;
        self.row_counts[at] = stats.row_count;
        self.columns[at * n..(at + 1) * n].clone_from_slice(&stats.columns);
    }

    pub(super) fn swap(&mut self, a: usize, b: usize) {
        let n = self.column_count;
        self.row_counts.swap(a, b);
        for k in 0..n {
            self.columns.swap(a * n + k, b * n + k);
        }
    }

    pub(super) fn truncate(&mut self, len: usize) {
        self.row_counts.truncate(len);
        self.columns.truncate(len * self.column_count);
    }

    /// An index of `stats`, in order.
    pub(super) fn of<'a>(
        column_count: usize,
        stats: impl IntoIterator<Item = &'a ContainerStats>,
    ) -> ZoneIndex {
        let mut index = ZoneIndex::new(column_count);
        stats.into_iter().for_each(|s| index.push(s));
        index
    }
}
