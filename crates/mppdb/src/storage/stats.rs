//! Per-container column statistics: zone maps, null counts, and a
//! deterministic NDV sketch.
//!
//! Statistics are computed once, at ROS container creation (COPY
//! DIRECT and moveout), from the raw column values before encoding.
//! Containers are immutable after creation except for delete marks and
//! commit stamps, so the stats are a *superset* description of every
//! row any snapshot can see in the container — which is exactly the
//! conservative direction data skipping needs: a container whose zone
//! maps prove "no row can match" can be skipped for every snapshot.
//!
//! The NDV estimate is a KMV (k-minimum-values) sketch over the
//! deterministic FNV-1a segmentation hash: no ambient entropy, same
//! answer on every run (fabriclint's determinism rule applies to
//! storage metadata as much as to the engines).

use common::expr::BinaryOp;
use common::hash::HASH_SEED;
use common::{Expr, Value};

use crate::storage::batch::{each_column_type, Native, TypedVec, LANES};
use crate::storage::encoding::ColumnData;

/// Sketch size: the k smallest distinct value hashes kept per column.
pub(crate) const KMV_K: usize = 64;

/// Statistics for one column of one ROS container.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Smallest / largest non-null value, when every non-null value in
    /// the column is mutually comparable. `None` for an all-null column
    /// or one holding a NaN — such columns carry no usable zone map.
    pub min: Option<Value>,
    pub max: Option<Value>,
    pub null_count: u64,
    /// Estimated number of distinct non-null values.
    pub ndv: u64,
}

impl ColumnStats {
    /// Statistics of one unencoded column, straight from its typed
    /// vector: the order and the hash are the native type's, which are
    /// `Value::sql_cmp` and the segmentation hash of the same values.
    fn compute(column: &ColumnData) -> ColumnStats {
        each_column_type!(&column.0, v => ColumnStats::over(v))
    }

    /// Two passes over the native values: the zone map, and the sketch's
    /// hashes through the lane kernel. The bounds are borrowed (made into
    /// `Value`s once, at the end).
    fn over<T: Native>(column: &TypedVec<T>) -> ColumnStats {
        let bounds = match column.parts() {
            (values, None) => bounds(values.iter()),
            (values, Some(validity)) => bounds(
                values
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| validity.get(i))
                    .map(|(_, v)| v),
            ),
        };
        let mut sketch = KmvCollector::new();
        let mut observe = |values: &[T; LANES], valid: u8| {
            let mut hashes = [HASH_SEED; LANES];
            T::fold_lanes(values, valid, &mut hashes);
            for (l, &h) in hashes.iter().enumerate() {
                if valid >> l & 1 == 1 {
                    sketch.observe(h);
                }
            }
        };
        let (groups, tail) = column.lane_groups();
        for (values, valid) in groups {
            observe(values, valid);
        }
        if let Some((values, valid)) = tail {
            observe(&values, valid);
        }
        ColumnStats {
            min: bounds.map(|(lo, _)| lo.to_value()),
            max: bounds.map(|(_, hi)| hi.to_value()),
            null_count: column.null_count() as u64,
            ndv: sketch.finish().estimate(),
        }
    }
}

/// The smallest and largest of `values` under strict `<` and `>` (of
/// equal values, `-0.0` and `0.0`, the first stays). `None` when there
/// are none, and when a NaN sits among other values: it orders with
/// nothing, so the column has no usable zone map. A lone NaN is its own
/// bounds.
fn bounds<'a, T: Native + 'a>(mut values: impl Iterator<Item = &'a T>) -> Option<(&'a T, &'a T)> {
    let first = values.next()?;
    let (mut lo, mut hi) = (first, first);
    let (mut nan, mut more) = (first.is_nan(), false);
    for v in values {
        more = true;
        nan |= v.is_nan();
        if v < lo {
            lo = v;
        }
        if v > hi {
            hi = v;
        }
    }
    (!(nan && more)).then_some((lo, hi))
}

/// Statistics for one ROS container: per-column stats plus the span of
/// segmentation hashes, which lets a scan prove a container lies fully
/// inside (or outside) a pushed-down hash range.
#[derive(Debug, Clone, PartialEq)]
pub struct ContainerStats {
    pub row_count: u64,
    pub hash_min: u64,
    pub hash_max: u64,
    pub columns: Vec<ColumnStats>,
}

impl ContainerStats {
    /// Compute stats from the unencoded columns and the per-row
    /// segmentation hashes. Timed under `stats.build_us`.
    pub fn compute(columns: &[ColumnData], hashes: &[u64]) -> ContainerStats {
        let started = std::time::Instant::now();
        let (hash_min, hash_max) = hashes
            .iter()
            .fold((u64::MAX, 0), |(lo, hi), &h| (lo.min(h), hi.max(h)));
        let stats = ContainerStats {
            row_count: hashes.len() as u64,
            hash_min,
            hash_max,
            columns: columns.iter().map(ColumnStats::compute).collect(),
        };
        obs::global().record_time("stats.build_us", started.elapsed());
        stats
    }

    fn column(&self, idx: usize) -> Option<&ColumnStats> {
        self.columns.get(idx)
    }
}

/// A deterministic KMV distinct-count sketch: keep the `KMV_K` smallest
/// distinct hashes; if fewer were seen the count is exact, otherwise
/// estimate `(k-1) / (kth_min / 2^64)`.
struct KmvSketch {
    /// Sorted ascending, deduplicated, at most `KMV_K` entries.
    mins: Vec<u64>,
}

/// Collects a [`KmvSketch`] without keeping it sorted: hashes that may
/// be among the `KMV_K` smallest pile up unordered, and when the pile is
/// full one selection settles which stay — an append per candidate,
/// where a sorted insert paid a search and a shift.
struct KmvCollector {
    /// Holds every one of the `KMV_K` smallest distinct hashes seen so
    /// far; up to `KMV_PILE` entries, possibly repeated.
    candidates: Vec<u64>,
    /// The `KMV_K`-th smallest distinct hash as of the last settling,
    /// once that many were seen: nothing at or above it can be wanted.
    limit: Option<u64>,
}

/// Candidates between two settlings: the column of a load's container,
/// some hundred values, settles once, when it ends.
const KMV_PILE: usize = 16 * KMV_K;

impl KmvCollector {
    fn new() -> KmvCollector {
        KmvCollector {
            candidates: Vec::with_capacity(KMV_PILE),
            limit: None,
        }
    }

    fn observe(&mut self, h: u64) {
        if self.limit.is_some_and(|limit| h >= limit) {
            return;
        }
        self.candidates.push(h);
        if self.candidates.len() == KMV_PILE {
            self.settle();
        }
    }

    /// Keep the `KMV_K` smallest distinct candidates, sorted.
    fn settle(&mut self) {
        let pile = &mut self.candidates;
        // The `KMV_K` smallest, repeats counted, come to the front in
        // linear time; when no two of them are equal they are the
        // `KMV_K` smallest distinct ones, and the rest never needs
        // sorting.
        let front_settles = pile.len() > KMV_K && {
            pile.select_nth_unstable(KMV_K - 1);
            let front = &mut pile[..KMV_K];
            front.sort_unstable();
            front.windows(2).all(|w| w[0] != w[1])
        };
        if !front_settles {
            pile.sort_unstable();
            pile.dedup();
        }
        pile.truncate(KMV_K);
        if pile.len() == KMV_K {
            self.limit = pile.last().copied();
        }
    }

    fn finish(mut self) -> KmvSketch {
        self.settle();
        KmvSketch {
            mins: self.candidates,
        }
    }
}

impl KmvSketch {
    fn estimate(&self) -> u64 {
        if self.mins.len() < KMV_K {
            return self.mins.len() as u64;
        }
        // fabriclint: allow(panic-hygiene): len == KMV_K > 0 here
        let kth = *self.mins.last().expect("sketch is full") as f64;
        if kth <= 0.0 {
            return self.mins.len() as u64;
        }
        (((KMV_K - 1) as f64) / (kth / (u64::MAX as f64 + 1.0))).round() as u64
    }
}

// ---------------------------------------------------------------------
// Zone-map analysis
// ---------------------------------------------------------------------
//
// `analyze` decides, from container stats alone, whether a bound
// predicate can possibly match any row of the container:
//
//   Some(true)   provably matches no row, AND evaluation is provably
//                error-free for every possible row — safe to skip;
//   Some(false)  provably error-free, may match;
//   None         unsupported shape or possibly-erroring subtree.
//
// Error-freeness is the load-bearing half: `AND`/`OR` evaluate both
// sides and propagate errors, so skipping a container on one side's
// zone map is only sound when the *whole* tree is proven unable to
// error. Only boolean-or-NULL-valued, error-free shapes are analyzed:
// column/literal comparisons (never error), IS [NOT] NULL over columns
// and literals, boolean/NULL literals, and AND/OR/NOT over those.

/// Shape-only check: does `analyze` support this expression (i.e. is
/// it provably error-free for every input row)? Independent of any
/// container's stats, so the scan planner can decide conjunct
/// reordering once per scan.
pub fn analyzable(expr: &Expr) -> bool {
    match expr {
        Expr::Literal(Value::Boolean(_)) | Expr::Literal(Value::Null) => true,
        Expr::IsNull(inner) | Expr::IsNotNull(inner) => {
            matches!(**inner, Expr::ColumnIdx(_) | Expr::Literal(_))
        }
        Expr::Not(inner) => analyzable(inner),
        Expr::Binary { left, op, right } => match op {
            BinaryOp::And | BinaryOp::Or => analyzable(left) && analyzable(right),
            BinaryOp::Eq
            | BinaryOp::NotEq
            | BinaryOp::Lt
            | BinaryOp::LtEq
            | BinaryOp::Gt
            | BinaryOp::GtEq => {
                matches!(**left, Expr::ColumnIdx(_) | Expr::Literal(_))
                    && matches!(**right, Expr::ColumnIdx(_) | Expr::Literal(_))
            }
            _ => false,
        },
        _ => false,
    }
}

/// Can the container be skipped for this (bound) predicate? True only
/// when the analysis proves both "cannot match" and "cannot error".
pub fn container_cannot_match(expr: &Expr, stats: &ContainerStats) -> bool {
    analyze(expr, stats) == Some(true)
}

fn analyze(expr: &Expr, stats: &ContainerStats) -> Option<bool> {
    match expr {
        Expr::Literal(Value::Boolean(b)) => Some(!*b),
        Expr::Literal(Value::Null) => Some(true),
        Expr::IsNull(inner) => match &**inner {
            Expr::ColumnIdx(i) => {
                let cs = stats.column(*i)?;
                Some(cs.null_count == 0)
            }
            Expr::Literal(v) => Some(!v.is_null()),
            _ => None,
        },
        Expr::IsNotNull(inner) => match &**inner {
            Expr::ColumnIdx(i) => {
                let cs = stats.column(*i)?;
                Some(cs.null_count == stats.row_count)
            }
            Expr::Literal(v) => Some(v.is_null()),
            _ => None,
        },
        Expr::Not(inner) => {
            // NOT flips true/false but maps NULL to NULL; "inner never
            // matches" says nothing about NOT(inner), so the only claim
            // that survives is error-freeness.
            analyze(inner, stats)?;
            Some(false)
        }
        Expr::Binary { left, op, right } => match op {
            BinaryOp::And => {
                let a = analyze(left, stats)?;
                let b = analyze(right, stats)?;
                Some(a || b)
            }
            BinaryOp::Or => {
                let a = analyze(left, stats)?;
                let b = analyze(right, stats)?;
                Some(a && b)
            }
            BinaryOp::Eq
            | BinaryOp::NotEq
            | BinaryOp::Lt
            | BinaryOp::LtEq
            | BinaryOp::Gt
            | BinaryOp::GtEq => match (&**left, &**right) {
                (Expr::ColumnIdx(i), Expr::Literal(v)) => Some(range_cannot_match(
                    *op,
                    stats.column(*i)?,
                    stats.row_count,
                    v,
                )),
                (Expr::Literal(v), Expr::ColumnIdx(i)) => Some(range_cannot_match(
                    flip(*op),
                    stats.column(*i)?,
                    stats.row_count,
                    v,
                )),
                // Literal-vs-literal and column-vs-column comparisons
                // never error; no skip claim from zone maps alone.
                (Expr::ColumnIdx(_) | Expr::Literal(_), Expr::ColumnIdx(_) | Expr::Literal(_)) => {
                    Some(false)
                }
                _ => None,
            },
            _ => None,
        },
        _ => None,
    }
}

/// Mirror a comparison so the column lands on the left: `5 < c` is
/// `c > 5`.
pub(crate) fn flip(op: BinaryOp) -> BinaryOp {
    match op {
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::LtEq => BinaryOp::GtEq,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::GtEq => BinaryOp::LtEq,
        other => other,
    }
}

/// Decide `column <op> literal` against one column's zone map: true
/// when no row of the container can satisfy it.
fn range_cannot_match(op: BinaryOp, cs: &ColumnStats, row_count: u64, lit: &Value) -> bool {
    use std::cmp::Ordering::{Equal, Greater, Less};
    // Comparisons against NULL are NULL: no row matches.
    if lit.is_null() {
        return true;
    }
    // An all-null column compares to NULL everywhere.
    if cs.null_count == row_count {
        return true;
    }
    let (Some(min), Some(max)) = (&cs.min, &cs.max) else {
        // A NaN among the values: no zone map, no claim.
        return false;
    };
    let (Some(lo), Some(hi)) = (lit.sql_cmp(min), lit.sql_cmp(max)) else {
        // The literal is incomparable with the column's type class
        // (or is NaN): every comparison evaluates to NULL.
        return true;
    };
    match op {
        BinaryOp::Eq => lo == Less || hi == Greater,
        BinaryOp::NotEq => lo == Equal && hi == Equal,
        // col < lit needs min < lit.
        BinaryOp::Lt => lo != Greater,
        BinaryOp::LtEq => lo == Less,
        // col > lit needs max > lit.
        BinaryOp::Gt => hi != Less,
        BinaryOp::GtEq => hi == Greater,
        _ => false,
    }
}

// ---------------------------------------------------------------------
// Selectivity estimation
// ---------------------------------------------------------------------

/// Default selectivity for shapes the zone maps say nothing about.
pub const DEFAULT_SELECTIVITY: f64 = 0.5;

/// Estimate the fraction of the container's rows a (bound) predicate
/// keeps, from zone maps and the NDV sketch. Pure planning input:
/// wrong estimates cost performance, never correctness.
pub fn estimate_selectivity(expr: &Expr, stats: &ContainerStats) -> f64 {
    match expr {
        Expr::Literal(Value::Boolean(b)) => {
            if *b {
                1.0
            } else {
                0.0
            }
        }
        Expr::Literal(Value::Null) => 0.0,
        Expr::IsNull(inner) => match &**inner {
            Expr::ColumnIdx(i) => stats
                .column(*i)
                .map(|cs| ratio(cs.null_count, stats.row_count))
                .unwrap_or(DEFAULT_SELECTIVITY),
            _ => DEFAULT_SELECTIVITY,
        },
        Expr::IsNotNull(inner) => match &**inner {
            Expr::ColumnIdx(i) => stats
                .column(*i)
                .map(|cs| 1.0 - ratio(cs.null_count, stats.row_count))
                .unwrap_or(DEFAULT_SELECTIVITY),
            _ => DEFAULT_SELECTIVITY,
        },
        Expr::Not(inner) => 1.0 - estimate_selectivity(inner, stats),
        Expr::Binary { left, op, right } => match op {
            BinaryOp::And => estimate_selectivity(left, stats) * estimate_selectivity(right, stats),
            BinaryOp::Or => {
                let a = estimate_selectivity(left, stats);
                let b = estimate_selectivity(right, stats);
                (a + b - a * b).clamp(0.0, 1.0)
            }
            BinaryOp::Eq
            | BinaryOp::NotEq
            | BinaryOp::Lt
            | BinaryOp::LtEq
            | BinaryOp::Gt
            | BinaryOp::GtEq => match (&**left, &**right) {
                (Expr::ColumnIdx(i), Expr::Literal(v)) => {
                    comparison_selectivity(*op, stats.column(*i), stats.row_count, v)
                }
                (Expr::Literal(v), Expr::ColumnIdx(i)) => {
                    comparison_selectivity(flip(*op), stats.column(*i), stats.row_count, v)
                }
                _ => DEFAULT_SELECTIVITY,
            },
            _ => DEFAULT_SELECTIVITY,
        },
        _ => DEFAULT_SELECTIVITY,
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn comparison_selectivity(
    op: BinaryOp,
    cs: Option<&ColumnStats>,
    row_count: u64,
    lit: &Value,
) -> f64 {
    let Some(cs) = cs else {
        return DEFAULT_SELECTIVITY;
    };
    if range_cannot_match(op, cs, row_count, lit) {
        return 0.0;
    }
    let non_null = 1.0 - ratio(cs.null_count, row_count);
    match op {
        BinaryOp::Eq => (1.0 / cs.ndv.max(1) as f64).min(non_null),
        BinaryOp::NotEq => non_null * (1.0 - 1.0 / cs.ndv.max(1) as f64),
        BinaryOp::Lt | BinaryOp::LtEq | BinaryOp::Gt | BinaryOp::GtEq => {
            // Numeric zone maps give a range-overlap fraction; other
            // type classes fall back to a third.
            let frac = match (&cs.min, &cs.max) {
                (Some(min), Some(max)) => match (min.as_f64(), max.as_f64(), lit.as_f64()) {
                    (Ok(lo), Ok(hi), Ok(v)) if hi > lo => {
                        let below = ((v - lo) / (hi - lo)).clamp(0.0, 1.0);
                        if matches!(op, BinaryOp::Lt | BinaryOp::LtEq) {
                            below
                        } else {
                            1.0 - below
                        }
                    }
                    _ => 1.0 / 3.0,
                },
                _ => 1.0 / 3.0,
            };
            non_null * frac
        }
        _ => DEFAULT_SELECTIVITY,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::cmp::Ordering;

    use super::*;
    use crate::storage::encoding::tests::for_each_generated_column;
    use common::Expr as E;

    fn col_vals(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|&v| Value::Int64(v)).collect()
    }

    fn stats_for(vals: Vec<Vec<Value>>, hashes: &[u64]) -> ContainerStats {
        let columns: Vec<ColumnData> = vals.iter().map(|v| ColumnData::from_values(v)).collect();
        ContainerStats::compute(&columns, hashes)
    }

    fn idx(i: usize) -> E {
        E::ColumnIdx(i)
    }

    fn lit(v: impl Into<Value>) -> E {
        E::Literal(v.into())
    }

    #[test]
    fn zone_map_min_max_nulls() {
        let s = stats_for(
            vec![vec![
                Value::Int64(5),
                Value::Null,
                Value::Int64(2),
                Value::Int64(9),
            ]],
            &[10, 20, 30, 40],
        );
        let cs = &s.columns[0];
        assert_eq!(cs.min, Some(Value::Int64(2)));
        assert_eq!(cs.max, Some(Value::Int64(9)));
        assert_eq!(cs.null_count, 1);
        assert_eq!(cs.ndv, 3);
        assert_eq!((s.hash_min, s.hash_max), (10, 40));
    }

    #[test]
    fn nan_bearing_column_has_no_zone_map() {
        let s = stats_for(
            vec![vec![Value::Float64(1.0), Value::Float64(f64::NAN)]],
            &[1, 2],
        );
        assert_eq!(s.columns[0].min, None);
        assert_eq!(s.columns[0].max, None);
        // And no skip claim is made from it.
        let e = idx(0).eq(lit(99i64));
        assert!(!container_cannot_match(&e, &s));
    }

    #[test]
    fn range_pruning_rules() {
        let s = stats_for(vec![col_vals(&[10, 20, 30])], &[1, 2, 3]);
        // Out of range on both sides.
        assert!(container_cannot_match(&idx(0).eq(lit(5i64)), &s));
        assert!(container_cannot_match(&idx(0).eq(lit(35i64)), &s));
        assert!(!container_cannot_match(&idx(0).eq(lit(20i64)), &s));
        // Inequalities.
        assert!(container_cannot_match(&idx(0).lt(lit(10i64)), &s));
        assert!(!container_cannot_match(&idx(0).lt(lit(11i64)), &s));
        assert!(container_cannot_match(&idx(0).gt(lit(30i64)), &s));
        assert!(!container_cannot_match(&idx(0).gt(lit(29i64)), &s));
        assert!(container_cannot_match(&idx(0).lt_eq(lit(9i64)), &s));
        assert!(container_cannot_match(&idx(0).gt_eq(lit(31i64)), &s));
        // Literal on the left mirrors.
        assert!(container_cannot_match(&lit(5i64).gt(idx(0)), &s));
        // Incomparable literal class: always NULL, skip.
        assert!(container_cannot_match(&idx(0).eq(lit("abc")), &s));
        // NULL literal: always NULL, skip.
        assert!(container_cannot_match(&idx(0).eq(lit(Value::Null)), &s));
    }

    #[test]
    fn null_rules() {
        let no_nulls = stats_for(vec![col_vals(&[1, 2])], &[1, 2]);
        assert!(container_cannot_match(
            &E::IsNull(Box::new(idx(0))),
            &no_nulls
        ));
        assert!(!container_cannot_match(
            &E::IsNotNull(Box::new(idx(0))),
            &no_nulls
        ));
        let all_nulls = stats_for(vec![vec![Value::Null, Value::Null]], &[1, 2]);
        assert!(container_cannot_match(
            &E::IsNotNull(Box::new(idx(0))),
            &all_nulls
        ));
        assert!(container_cannot_match(&idx(0).lt(lit(5i64)), &all_nulls));
    }

    #[test]
    fn conjunction_needs_both_sides_error_free() {
        let s = stats_for(vec![col_vals(&[10, 20])], &[1, 2]);
        // One prunable side, other side analyzable: skip.
        let and_ok = idx(0).eq(lit(5i64)).and(idx(0).gt(lit(0i64)));
        assert!(container_cannot_match(&and_ok, &s));
        // One prunable side, other side may error (arithmetic): no
        // skip, because AND evaluates both sides and errors propagate.
        let may_err = E::Binary {
            left: Box::new(idx(0)),
            op: BinaryOp::Add,
            right: Box::new(lit(1i64)),
        }
        .gt(lit(0i64));
        let and_bad = idx(0).eq(lit(5i64)).and(may_err.clone());
        assert!(!analyzable(&and_bad));
        assert!(!container_cannot_match(&and_bad, &s));
        // OR skips only when both sides are prunable.
        let or_half = idx(0).eq(lit(5i64)).or(idx(0).eq(lit(10i64)));
        assert!(!container_cannot_match(&or_half, &s));
        let or_both = idx(0).eq(lit(5i64)).or(idx(0).eq(lit(99i64)));
        assert!(container_cannot_match(&or_both, &s));
        // NOT of a prunable inner is NOT skippable (NULL stays NULL).
        let not_e = E::Not(Box::new(idx(0).eq(lit(5i64))));
        assert!(!container_cannot_match(&not_e, &s));
        assert!(analyzable(&not_e));
    }

    #[test]
    fn ndv_sketch_is_deterministic_and_plausible() {
        let many: Vec<Value> = (0..10_000).map(Value::Int64).collect();
        let many = ColumnData::from_values(&many);
        let a = ColumnStats::compute(&many);
        let b = ColumnStats::compute(&many);
        assert_eq!(a.ndv, b.ndv, "no ambient entropy");
        assert!(
            a.ndv > 5_000 && a.ndv < 20_000,
            "KMV estimate off: {}",
            a.ndv
        );
        let few: Vec<Value> = (0..10_000).map(|i| Value::Int64(i % 7)).collect();
        let few = ColumnData::from_values(&few);
        assert_eq!(ColumnStats::compute(&few).ndv, 7, "small NDV is exact");
    }

    /// The `Vec<Value>` routine `ColumnStats::compute` replaced, kept
    /// verbatim as the reference: an owned min/max cloned on every
    /// improvement, two `sql_cmp`s per value, and a sketch that
    /// binary-searches every hash.
    fn reference_stats(values: &[Value]) -> ColumnStats {
        let mut min: Option<Value> = None;
        let mut max: Option<Value> = None;
        let mut usable = true;
        let mut null_count = 0u64;
        let mut mins: Vec<u64> = Vec::new();
        for v in values {
            if v.is_null() {
                null_count += 1;
                continue;
            }
            let h = common::hash::segmentation_hash(std::slice::from_ref(v));
            if let Err(pos) = mins.binary_search(&h) {
                if pos < KMV_K {
                    mins.insert(pos, h);
                    mins.truncate(KMV_K);
                }
            }
            if !usable {
                continue;
            }
            match (&min, &max) {
                (None, _) => {
                    min = Some(v.clone());
                    max = Some(v.clone());
                }
                (Some(lo), Some(hi)) => match (v.sql_cmp(lo), v.sql_cmp(hi)) {
                    (Some(a), Some(b)) => {
                        if a == Ordering::Less {
                            min = Some(v.clone());
                        }
                        if b == Ordering::Greater {
                            max = Some(v.clone());
                        }
                    }
                    _ => {
                        usable = false;
                        min = None;
                        max = None;
                    }
                },
                _ => unreachable!("min and max are set together"),
            }
        }
        ColumnStats {
            min,
            max,
            null_count,
            ndv: KmvSketch { mins }.estimate(),
        }
    }

    /// The statistics against the reference routine on the generated
    /// columns of `base`.
    pub(crate) fn stats_match_the_reference(base: u64) {
        for_each_generated_column(base, |what, values, _| {
            let got = ColumnStats::compute(&ColumnData::from_values(&values));
            let want = reference_stats(&values);
            // Through `Debug`, so that a NaN bound equals itself and
            // `-0.0` does not equal `0.0`.
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{what}");
        });
    }

    #[test]
    fn stats_match_the_reference_routine() {
        stats_match_the_reference(0);
    }

    /// A lone NaN is its own zone map, as the reference keeps it; beside
    /// any other value it leaves none.
    #[test]
    fn a_lone_nan_keeps_its_bounds() {
        for values in [
            vec![Value::Float64(f64::NAN)],
            vec![Value::Null, Value::Float64(-f64::NAN), Value::Null],
        ] {
            let got = ColumnStats::compute(&ColumnData::from_values(&values));
            assert!(
                matches!(got.min, Some(Value::Float64(f)) if f.is_nan()),
                "{got:?}"
            );
            assert!(
                matches!(got.max, Some(Value::Float64(f)) if f.is_nan()),
                "{got:?}"
            );
            assert_eq!(
                format!("{got:?}"),
                format!("{:?}", reference_stats(&values))
            );
        }
    }

    /// Columns longer than the collector's pile: it settles mid-column,
    /// turns hashes away by the limit, and meets repeats among the
    /// smallest. (The property test's columns end before the first
    /// settling.)
    #[test]
    fn long_columns_settle_like_the_reference() {
        for (n, distinct) in [
            (KMV_PILE - 1, i64::MAX),
            (KMV_PILE, i64::MAX),
            (KMV_PILE + 1, 100),
            (3 * KMV_PILE + 7, 1_000),
            (5_000, i64::MAX),
            (5_000, 700),
            (5_000, KMV_K as i64 + 1),
            (5_000, KMV_K as i64),
            (5_000, 3),
        ] {
            let values: Vec<Value> = (0..n as i64)
                .map(|i| Value::Int64(i.wrapping_mul(0x9E37_79B9_7F4A_7C15_u64 as i64) % distinct))
                .collect();
            let got = ColumnStats::compute(&ColumnData::from_values(&values));
            assert_eq!(got, reference_stats(&values), "{n} values of {distinct}");
        }
    }

    #[test]
    fn selectivity_orders_conjuncts_sensibly() {
        let vals: Vec<Value> = (0..1000).map(Value::Int64).collect();
        let s = stats_for(vec![vals.clone(), vals], &[1, 2, 3]);
        let eq = estimate_selectivity(&idx(0).eq(lit(5i64)), &s);
        let half = estimate_selectivity(&idx(1).lt(lit(500i64)), &s);
        assert!(eq < 0.01, "point lookup on ~1000 NDV: {eq}");
        assert!((half - 0.5).abs() < 0.1, "mid-range scan: {half}");
        assert!(
            estimate_selectivity(&idx(0).gt(lit(2000i64)), &s) == 0.0,
            "prunable conjunct estimates zero"
        );
    }
}
