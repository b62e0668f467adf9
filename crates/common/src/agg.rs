//! Shared aggregate vocabulary and semantics.
//!
//! Both engines evaluate the same five SQL aggregates — COUNT, SUM,
//! MIN, MAX, AVG — in two places: node-side in `mppdb` (partial
//! aggregates pushed below the connector wire) and driver-side in
//! `sparklet` (the materialize-then-aggregate fallback, and the merge
//! of per-piece partials). Keeping the accumulator here guarantees the
//! pushed-down and the materialized plans compute byte-identical
//! answers, which the differential tests pin.
//!
//! Semantics follow the SQL layer's `compute_aggregate`: aggregates
//! ignore NULL inputs (except `COUNT(*)`), `SUM` stays `Int64` while
//! every input is an integer and widens to `Float64` otherwise, `AVG`
//! is always `Float64`, `MIN`/`MAX` pass over NaN unless no other value
//! comes, and any aggregate over zero non-null inputs is NULL (`COUNT`
//! is 0).

use std::cmp::Ordering;
use std::collections::HashMap;

use crate::error::{Error, Result};
use crate::hash::{fold_value, HASH_SEED};
use crate::row::Row;
use crate::schema::{Field, Schema};
use crate::value::{DataType, Value};

/// The aggregate functions the engines can push down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

impl AggFunc {
    pub fn sql_name(&self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
        }
    }

    /// How many values this aggregate's partial state occupies on the
    /// wire. AVG ships as (sum, count) so partials merge exactly.
    pub fn partial_width(&self) -> usize {
        match self {
            AggFunc::Avg => 2,
            _ => 1,
        }
    }
}

/// One aggregate call: a function plus its input column. `column` is
/// `None` only for `COUNT(*)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggCall {
    pub func: AggFunc,
    pub column: Option<String>,
}

impl AggCall {
    pub fn count_star() -> AggCall {
        AggCall {
            func: AggFunc::Count,
            column: None,
        }
    }

    pub fn new(func: AggFunc, column: impl Into<String>) -> AggCall {
        AggCall {
            func,
            column: Some(column.into()),
        }
    }

    /// The output column name, e.g. `sum(price)` or `count(*)`.
    pub fn output_name(&self) -> String {
        format!(
            "{}({})",
            self.func.sql_name(),
            self.column.as_deref().unwrap_or("*")
        )
    }

    pub fn validate(&self) -> Result<()> {
        if self.column.is_none() && self.func != AggFunc::Count {
            return Err(Error::Eval(format!(
                "{}(*) is not a valid aggregate",
                self.func.sql_name()
            )));
        }
        Ok(())
    }
}

/// An aggregation request: grouping columns plus aggregate calls.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AggRequest {
    pub group_by: Vec<String>,
    pub calls: Vec<AggCall>,
}

impl AggRequest {
    pub fn new(group_by: &[&str], calls: Vec<AggCall>) -> AggRequest {
        AggRequest {
            group_by: group_by.iter().map(|s| s.to_string()).collect(),
            calls,
        }
    }

    pub fn validate(&self) -> Result<()> {
        if self.calls.is_empty() {
            return Err(Error::Eval("aggregation needs at least one call".into()));
        }
        for c in &self.calls {
            c.validate()?;
        }
        Ok(())
    }

    /// Schema of the finalized output: group columns, then one column
    /// per call.
    pub fn output_schema(&self, input: &Schema) -> Result<Schema> {
        let mut fields = Vec::new();
        for g in &self.group_by {
            fields.push(input.field(input.index_of(g)?).clone());
        }
        for c in &self.calls {
            let dtype = match c.func {
                AggFunc::Count => DataType::Int64,
                AggFunc::Avg => DataType::Float64,
                AggFunc::Sum | AggFunc::Min | AggFunc::Max => {
                    input
                        .field(input.index_of(c.column.as_deref().unwrap_or(""))?)
                        .dtype
                }
            };
            fields.push(Field::new(c.output_name(), dtype));
        }
        Ok(Schema::new(fields))
    }

    /// Schema of the partial-state rows shipped between engine layers:
    /// group columns, then `partial_width` values per call (AVG ships
    /// its running sum and count separately).
    pub fn partial_schema(&self, input: &Schema) -> Result<Schema> {
        let mut fields = Vec::new();
        for g in &self.group_by {
            fields.push(input.field(input.index_of(g)?).clone());
        }
        for c in &self.calls {
            match c.func {
                AggFunc::Avg => {
                    fields.push(Field::new(
                        format!("{}.sum", c.output_name()),
                        DataType::Float64,
                    ));
                    fields.push(Field::new(
                        format!("{}.count", c.output_name()),
                        DataType::Int64,
                    ));
                }
                AggFunc::Count => fields.push(Field::new(c.output_name(), DataType::Int64)),
                AggFunc::Sum | AggFunc::Min | AggFunc::Max => {
                    let dtype = input
                        .field(input.index_of(c.column.as_deref().unwrap_or(""))?)
                        .dtype;
                    fields.push(Field::new(c.output_name(), dtype));
                }
            }
        }
        Ok(Schema::new(fields))
    }
}

/// Running state for one aggregate call within one group.
#[derive(Debug, Clone, PartialEq)]
pub enum Acc {
    Count(i64),
    /// `Int64` while every input was an integer, `Float64` after the
    /// first float; `None` until the first non-null input.
    Sum(Option<Value>),
    Min(Option<Value>),
    Max(Option<Value>),
    Avg {
        sum: f64,
        count: i64,
    },
}

impl Acc {
    pub fn new(func: AggFunc) -> Acc {
        match func {
            AggFunc::Count => Acc::Count(0),
            AggFunc::Sum => Acc::Sum(None),
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
            AggFunc::Avg => Acc::Avg { sum: 0.0, count: 0 },
        }
    }

    /// Fold one input value in. `COUNT(*)` passes a non-null dummy;
    /// callers handle the star case by never passing NULL for it.
    pub fn update(&mut self, v: &Value) -> Result<()> {
        if v.is_null() {
            return Ok(());
        }
        match self {
            Acc::Count(n) => *n += 1,
            Acc::Sum(state) => {
                let next = match (state.take(), v) {
                    (None, Value::Int64(i)) => Value::Int64(*i),
                    (None, _) => Value::Float64(v.as_f64()?),
                    (Some(Value::Int64(a)), Value::Int64(b)) => Value::Int64(a.wrapping_add(*b)),
                    (Some(acc), _) => Value::Float64(acc.as_f64()? + v.as_f64()?),
                };
                *state = Some(next);
            }
            Acc::Min(best) => take_if_beyond(best, v, Ordering::Less),
            Acc::Max(best) => take_if_beyond(best, v, Ordering::Greater),
            Acc::Avg { sum, count } => {
                *sum += v.as_f64()?;
                *count += 1;
            }
        }
        Ok(())
    }

    /// Fold `n` identical non-null inputs in at once (RLE runs,
    /// zone-map answers). Equivalent to `n` calls to [`Acc::update`].
    pub fn update_repeated(&mut self, v: &Value, n: u64) -> Result<()> {
        if v.is_null() || n == 0 {
            return Ok(());
        }
        match self {
            Acc::Count(c) => *c += n as i64,
            // A float sum of `n` copies is not `v * n`: each addition
            // rounds on its own.
            Acc::Sum(_) | Acc::Avg { .. } => {
                for _ in 0..n {
                    self.update(v)?;
                }
            }
            Acc::Min(_) | Acc::Max(_) => self.update(v)?,
        }
        Ok(())
    }

    /// Merge another partial state for the same call into this one.
    pub fn merge(&mut self, other: &Acc) -> Result<()> {
        match (self, other) {
            (Acc::Count(a), Acc::Count(b)) => *a += b,
            (Acc::Sum(a), Acc::Sum(b)) => {
                if let Some(v) = b {
                    let next = match a.take() {
                        None => v.clone(),
                        Some(Value::Int64(x)) => match v {
                            Value::Int64(y) => Value::Int64(x.wrapping_add(*y)),
                            _ => Value::Float64(x as f64 + v.as_f64()?),
                        },
                        Some(acc) => Value::Float64(acc.as_f64()? + v.as_f64()?),
                    };
                    *a = Some(next);
                }
            }
            (Acc::Min(a), Acc::Min(Some(v))) => take_if_beyond(a, v, Ordering::Less),
            (Acc::Max(a), Acc::Max(Some(v))) => take_if_beyond(a, v, Ordering::Greater),
            (Acc::Min(_), Acc::Min(None)) | (Acc::Max(_), Acc::Max(None)) => {}
            (Acc::Avg { sum: a, count: ac }, Acc::Avg { sum: b, count: bc }) => {
                *a += b;
                *ac += bc;
            }
            _ => return Err(Error::Eval("mismatched aggregate partials".into())),
        }
        Ok(())
    }

    /// Serialize the partial state ([`AggFunc::partial_width`] values).
    pub fn to_partial(&self, out: &mut Vec<Value>) {
        match self {
            Acc::Count(n) => out.push(Value::Int64(*n)),
            Acc::Sum(v) | Acc::Min(v) | Acc::Max(v) => out.push(v.clone().unwrap_or(Value::Null)),
            Acc::Avg { sum, count } => {
                if *count == 0 {
                    out.push(Value::Null);
                } else {
                    out.push(Value::Float64(*sum));
                }
                out.push(Value::Int64(*count));
            }
        }
    }

    /// Rebuild a partial state from its wire values.
    pub fn from_partial(func: AggFunc, values: &[Value]) -> Result<Acc> {
        let arity_err = || Error::Eval("truncated aggregate partial".into());
        match func {
            AggFunc::Count => Ok(Acc::Count(values.first().ok_or_else(arity_err)?.as_i64()?)),
            AggFunc::Sum => Ok(Acc::Sum(non_null(values.first().ok_or_else(arity_err)?))),
            AggFunc::Min => Ok(Acc::Min(non_null(values.first().ok_or_else(arity_err)?))),
            AggFunc::Max => Ok(Acc::Max(non_null(values.first().ok_or_else(arity_err)?))),
            AggFunc::Avg => {
                let sum = values.first().ok_or_else(arity_err)?;
                let count = values.get(1).ok_or_else(arity_err)?.as_i64()?;
                Ok(Acc::Avg {
                    sum: if sum.is_null() { 0.0 } else { sum.as_f64()? },
                    count,
                })
            }
        }
    }

    /// Finalize into the output value.
    pub fn finalize(&self) -> Value {
        match self {
            Acc::Count(n) => Value::Int64(*n),
            Acc::Sum(v) | Acc::Min(v) | Acc::Max(v) => v.clone().unwrap_or(Value::Null),
            Acc::Avg { sum, count } => {
                if *count == 0 {
                    Value::Null
                } else {
                    Value::Float64(sum / *count as f64)
                }
            }
        }
    }
}

/// MIN's (`beyond` = `Less`) or MAX's (`Greater`) step: `v` replaces
/// `best` when it orders strictly beyond it, so of equal values (`-0.0`
/// and `0.0`) the first stays. A NaN orders with nothing, so it is the
/// answer only while no other value has come, and yields to the first
/// that does: the answer is the extreme of the non-NaN inputs in any
/// input order, which is what lets per-piece partials merge to the same
/// answer as one fold over all the rows.
fn take_if_beyond(best: &mut Option<Value>, v: &Value, beyond: Ordering) {
    let is_nan = |v: &Value| matches!(v, Value::Float64(f) if f.is_nan());
    let take = match best.as_ref() {
        None => true,
        Some(b) if is_nan(b) => !is_nan(v),
        Some(b) => v.sql_cmp(b) == Some(beyond),
    };
    if take {
        *best = Some(v.clone());
    }
}

fn non_null(v: &Value) -> Option<Value> {
    if v.is_null() {
        None
    } else {
        Some(v.clone())
    }
}

/// Grouped accumulator table. Groups appear in first-seen order, which
/// is deterministic for a deterministic input order. Two rows share a
/// group when their keys are equal under `==`: NULL with NULL, `-0.0`
/// with `0.0`, a NaN with nothing (every NaN row is a group of its own),
/// and values of two types never, as SQL `=` compares them apart from
/// NULL. A key finds its group through a hash index, so a fold costs one
/// probe per row whatever the number of groups.
#[derive(Debug, Clone, Default)]
pub struct GroupedAccs {
    funcs: Vec<AggFunc>,
    groups: Vec<(Vec<Value>, Vec<Acc>)>,
    /// The latest group of each key hash ([`key_hash`]).
    heads: HashMap<u64, usize>,
    /// Per group, the group before it with the same key hash.
    chain: Vec<Option<usize>>,
}

impl GroupedAccs {
    pub fn new(funcs: Vec<AggFunc>) -> GroupedAccs {
        GroupedAccs {
            funcs,
            ..GroupedAccs::default()
        }
    }

    pub fn funcs(&self) -> &[AggFunc] {
        &self.funcs
    }

    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// The index of `key`'s group, created on first sight (the key is
    /// cloned only then).
    pub fn group_index(&mut self, key: &[Value]) -> usize {
        self.find_or_insert(key_hash(key), |k| k == key, || key.to_vec())
    }

    /// The accumulators of the group at `index` (from
    /// [`GroupedAccs::group_index`]), one per call.
    pub fn group_accs(&mut self, index: usize) -> &mut [Acc] {
        &mut self.groups[index].1
    }

    /// The accumulator row for `key`, created on first sight.
    pub fn entry(&mut self, key: &[Value]) -> &mut [Acc] {
        let index = self.group_index(key);
        self.group_accs(index)
    }

    /// The index of the group whose key `is_key` accepts among those
    /// hashed `hash`, or of a new group keyed `make_key()`. A key hashed
    /// `None` (it holds a NaN) equals no key: it is neither looked up
    /// nor indexed.
    fn find_or_insert(
        &mut self,
        hash: Option<u64>,
        is_key: impl Fn(&[Value]) -> bool,
        make_key: impl FnOnce() -> Vec<Value>,
    ) -> usize {
        let index = self.groups.len();
        let before = match hash {
            None => None,
            Some(hash) => {
                let head = self.heads.get(&hash).copied();
                let mut at = head;
                while let Some(g) = at {
                    if is_key(&self.groups[g].0) {
                        return g;
                    }
                    at = self.chain[g];
                }
                self.heads.insert(hash, index);
                head
            }
        };
        let accs = self.funcs.iter().map(|f| Acc::new(*f)).collect();
        self.groups.push((make_key(), accs));
        self.chain.push(before);
        index
    }

    /// Fold rows in, one at a time in order: row `r`'s group is keyed by
    /// its values at `key_idx`, and call `c` reads its value at
    /// `col_idx[c]` (`None` for `COUNT(*)`). The row-at-a-time reference
    /// of every fold.
    pub fn fold_rows(
        &mut self,
        rows: &[Row],
        key_idx: &[usize],
        col_idx: &[Option<usize>],
    ) -> Result<()> {
        for row in rows {
            let hash = key_hash(key_idx.iter().map(|&i| row.get(i)));
            let is_key = |k: &[Value]| k.iter().zip(key_idx).all(|(v, &i)| v == row.get(i));
            let make_key = || key_idx.iter().map(|&i| row.get(i).clone()).collect();
            let group = self.find_or_insert(hash, is_key, make_key);
            for (acc, idx) in self.groups[group].1.iter_mut().zip(col_idx) {
                match idx {
                    Some(i) => acc.update(row.get(*i))?,
                    // COUNT(*) is the only input-less aggregate.
                    None => acc.update(&Value::Int64(1))?,
                }
            }
        }
        Ok(())
    }

    /// Merge another table (same funcs, same group-key arity) in.
    pub fn merge(&mut self, other: &GroupedAccs) -> Result<()> {
        for (key, accs) in &other.groups {
            let mine = self.entry(key);
            for (a, b) in mine.iter_mut().zip(accs) {
                a.merge(b)?;
            }
        }
        Ok(())
    }

    /// A global (no GROUP BY) aggregate over zero rows still yields one
    /// output row; call this before finalizing/serializing when the
    /// request has no grouping columns.
    pub fn ensure_global_group(&mut self) {
        if self.groups.is_empty() {
            self.entry(&[]);
        }
    }

    /// Serialize every group to partial-state rows.
    pub fn to_partial_rows(&self) -> Vec<Row> {
        self.groups
            .iter()
            .map(|(key, accs)| {
                let mut values = key.clone();
                for a in accs {
                    a.to_partial(&mut values);
                }
                Row::new(values)
            })
            .collect()
    }

    /// Absorb one partial-state row produced by [`Self::to_partial_rows`]
    /// with `key_width` leading group columns.
    pub fn absorb_partial_row(&mut self, row: &Row, key_width: usize) -> Result<()> {
        let values = row.values();
        if values.len() < key_width {
            return Err(Error::Eval("truncated aggregate partial row".into()));
        }
        let mut at = key_width;
        let mut incoming = Vec::with_capacity(self.funcs.len());
        for f in &self.funcs {
            let w = f.partial_width();
            if values.len() < at + w {
                return Err(Error::Eval("truncated aggregate partial row".into()));
            }
            incoming.push(Acc::from_partial(*f, &values[at..at + w])?);
            at += w;
        }
        let mine = self.entry(&values[..key_width]);
        for (a, b) in mine.iter_mut().zip(&incoming) {
            a.merge(b)?;
        }
        Ok(())
    }

    /// Finalize every group to output rows.
    pub fn finalize_rows(&self) -> Vec<Row> {
        self.groups
            .iter()
            .map(|(key, accs)| {
                let mut values = key.clone();
                values.extend(accs.iter().map(|a| a.finalize()));
                Row::new(values)
            })
            .collect()
    }
}

/// The hash [`GroupedAccs`] indexes a group key by: equal keys hash
/// alike, since the segmentation hash's folds spell `-0.0` as `0.0` and
/// tag each type. `None` for a key holding a NaN, which equals no key.
fn key_hash<'a>(key: impl IntoIterator<Item = &'a Value>) -> Option<u64> {
    key.into_iter().try_fold(HASH_SEED, |state, v| match v {
        Value::Float64(f) if f.is_nan() => None,
        v => Some(fold_value(state, v)),
    })
}

/// Materialized (row-at-a-time) aggregation: the reference plan the
/// pushdown differentials compare against, and the fallback for data
/// sources without aggregate pushdown.
pub fn aggregate_rows(
    schema: &Schema,
    rows: &[Row],
    request: &AggRequest,
) -> Result<(Schema, Vec<Row>)> {
    let mut table = fold_request(schema, rows, request)?;
    if request.group_by.is_empty() {
        table.ensure_global_group();
    }
    Ok((request.output_schema(schema)?, table.finalize_rows()))
}

/// [`aggregate_rows`]' fold, before finalizing: `rows` folded, in order,
/// into `request`'s groups.
pub fn fold_request(schema: &Schema, rows: &[Row], request: &AggRequest) -> Result<GroupedAccs> {
    request.validate()?;
    let key_idx: Vec<usize> = request
        .group_by
        .iter()
        .map(|g| schema.index_of(g))
        .collect::<Result<_>>()?;
    let col_idx: Vec<Option<usize>> = request
        .calls
        .iter()
        .map(|c| c.column.as_deref().map(|n| schema.index_of(n)).transpose())
        .collect::<Result<_>>()?;
    let mut table = GroupedAccs::new(request.calls.iter().map(|c| c.func).collect());
    table.fold_rows(rows, &key_idx, &col_idx)?;
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("grp", DataType::Varchar),
            ("n", DataType::Int64),
            ("x", DataType::Float64),
        ])
    }

    fn rows() -> Vec<Row> {
        vec![
            row!["a", 1i64, 2.0],
            row!["b", 2i64, Value::Null],
            row!["a", Value::Null, 4.0],
            row!["b", 4i64, 0.5],
        ]
    }

    #[test]
    fn global_aggregates_match_sql_semantics() {
        let req = AggRequest::new(
            &[],
            vec![
                AggCall::count_star(),
                AggCall::new(AggFunc::Count, "n"),
                AggCall::new(AggFunc::Sum, "n"),
                AggCall::new(AggFunc::Min, "x"),
                AggCall::new(AggFunc::Max, "n"),
                AggCall::new(AggFunc::Avg, "x"),
            ],
        );
        let (out_schema, out) = aggregate_rows(&schema(), &rows(), &req).unwrap();
        assert_eq!(
            out_schema.column_names(),
            vec!["count(*)", "count(n)", "sum(n)", "min(x)", "max(n)", "avg(x)"]
        );
        assert_eq!(out.len(), 1);
        let r = &out[0];
        assert_eq!(r.get(0), &Value::Int64(4));
        assert_eq!(r.get(1), &Value::Int64(3));
        assert_eq!(r.get(2), &Value::Int64(7), "all-int SUM stays Int64");
        assert_eq!(r.get(3), &Value::Float64(0.5));
        assert_eq!(r.get(4), &Value::Int64(4));
        assert_eq!(r.get(5), &Value::Float64(6.5 / 3.0));
    }

    #[test]
    fn zero_rows_yield_one_null_group() {
        let req = AggRequest::new(
            &[],
            vec![AggCall::count_star(), AggCall::new(AggFunc::Sum, "n")],
        );
        let (_, out) = aggregate_rows(&schema(), &[], &req).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get(0), &Value::Int64(0));
        assert_eq!(out[0].get(1), &Value::Null);
    }

    #[test]
    fn grouped_aggregation_first_seen_order() {
        let req = AggRequest::new(&["grp"], vec![AggCall::new(AggFunc::Sum, "n")]);
        let (_, out) = aggregate_rows(&schema(), &rows(), &req).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].get(0), &Value::Varchar("a".into()));
        assert_eq!(out[0].get(1), &Value::Int64(1));
        assert_eq!(out[1].get(0), &Value::Varchar("b".into()));
        assert_eq!(out[1].get(1), &Value::Int64(6));
    }

    #[test]
    fn partial_roundtrip_merges_exactly() {
        let req = AggRequest::new(
            &["grp"],
            vec![
                AggCall::count_star(),
                AggCall::new(AggFunc::Avg, "x"),
                AggCall::new(AggFunc::Sum, "n"),
            ],
        );
        let funcs: Vec<AggFunc> = req.calls.iter().map(|c| c.func).collect();
        let all = rows();
        // Split the input into two "pieces", aggregate each, ship
        // partial rows, merge, finalize.
        let mut merged = GroupedAccs::new(funcs.clone());
        for piece in all.chunks(2) {
            let mut t = GroupedAccs::new(funcs.clone());
            for row in piece {
                let accs = t.entry(std::slice::from_ref(row.get(0)));
                accs[0].update(&Value::Int64(1)).unwrap();
                accs[1].update(row.get(2)).unwrap();
                accs[2].update(row.get(1)).unwrap();
            }
            for prow in t.to_partial_rows() {
                merged.absorb_partial_row(&prow, 1).unwrap();
            }
        }
        let direct = aggregate_rows(&schema(), &all, &req).unwrap().1;
        assert_eq!(merged.finalize_rows(), direct);
    }

    #[test]
    fn sum_widens_on_mixed_inputs_and_repeats_match_updates() {
        let mut a = Acc::new(AggFunc::Sum);
        a.update(&Value::Int64(3)).unwrap();
        a.update(&Value::Float64(1.5)).unwrap();
        assert_eq!(a.finalize(), Value::Float64(4.5));

        let mut one_by_one = Acc::new(AggFunc::Avg);
        let mut repeated = Acc::new(AggFunc::Avg);
        for _ in 0..5 {
            one_by_one.update(&Value::Float64(2.0)).unwrap();
        }
        repeated.update_repeated(&Value::Float64(2.0), 5).unwrap();
        assert_eq!(one_by_one.finalize(), repeated.finalize());
    }

    fn fold(func: AggFunc, inputs: &[Value]) -> Acc {
        let mut acc = Acc::new(func);
        for v in inputs {
            acc.update(v).unwrap();
        }
        acc
    }

    fn float_bits(v: &Value) -> u64 {
        match v {
            Value::Float64(f) => f.to_bits(),
            other => panic!("not a FLOAT: {other:?}"),
        }
    }

    #[test]
    fn sum_keeps_the_sign_of_a_first_negative_zero() {
        let first = fold(AggFunc::Sum, &[Value::Float64(-0.0)]);
        assert_eq!(float_bits(&first.finalize()), (-0.0f64).to_bits());
        // Taken as-is, not added to a zero: 0.0 + -0.0 is 0.0.
        let later = fold(AggFunc::Sum, &[Value::Float64(0.0), Value::Float64(-0.0)]);
        assert_eq!(float_bits(&later.finalize()), 0.0f64.to_bits());
        // AVG starts from a zero sum, so its sign is lost.
        let avg = fold(AggFunc::Avg, &[Value::Float64(-0.0)]);
        assert_eq!(float_bits(&avg.finalize()), 0.0f64.to_bits());
    }

    #[test]
    fn a_nan_yields_to_any_value_under_min_and_max() {
        let nan = Value::Float64(f64::NAN);
        let inputs = [
            nan.clone(),
            Value::Float64(-1.0),
            Value::Float64(f64::INFINITY),
            nan.clone(),
            Value::Null,
        ];
        let is_nan = |v: &Value| matches!(v, Value::Float64(f) if f.is_nan());
        // The same answer in every input order, and from partials merged
        // in any split: the extreme of the non-NaN values.
        for (func, want) in [(AggFunc::Min, -1.0), (AggFunc::Max, f64::INFINITY)] {
            let reversed: Vec<Value> = inputs.iter().rev().cloned().collect();
            for order in [&inputs[..], &reversed] {
                assert_eq!(fold(func, order).finalize(), Value::Float64(want));
                for at in 0..=order.len() {
                    let mut merged = fold(func, &order[..at]);
                    merged.merge(&fold(func, &order[at..])).unwrap();
                    assert_eq!(merged.finalize(), Value::Float64(want), "{func:?} at {at}");
                }
            }
            // NaN only when nothing else came.
            assert!(is_nan(
                &fold(func, &[nan.clone(), Value::Null, nan.clone()]).finalize()
            ));
        }
        // Equal values keep the first: -0.0 stays the minimum over 0.0.
        let zeros = [Value::Float64(-0.0), Value::Float64(0.0)];
        let min = fold(AggFunc::Min, &zeros).finalize();
        assert_eq!(float_bits(&min), (-0.0f64).to_bits());
    }

    #[test]
    fn integer_sum_wraps() {
        let acc = fold(AggFunc::Sum, &[Value::Int64(i64::MAX), Value::Int64(1)]);
        assert_eq!(acc.finalize(), Value::Int64(i64::MIN));
        let acc = fold(AggFunc::Sum, &[Value::Int64(i64::MIN), Value::Int64(-1)]);
        assert_eq!(acc.finalize(), Value::Int64(i64::MAX));
    }

    #[test]
    fn integer_avg_widens_each_row() {
        // 2^53 + 1 + 1 is exact in i64, but widened row by row each +1
        // rounds away.
        let big = 1i64 << 53;
        let inputs = [Value::Int64(big), Value::Int64(1), Value::Int64(1)];
        let Acc::Avg { sum, count } = fold(AggFunc::Avg, &inputs) else {
            panic!("AVG state");
        };
        assert_eq!((sum.to_bits(), count), ((big as f64).to_bits(), 3));
        assert_ne!(sum, (big + 2) as f64);
        // And nothing wraps: two i64::MAX average to i64::MAX as f64.
        let max = [Value::Int64(i64::MAX), Value::Int64(i64::MAX)];
        let avg = fold(AggFunc::Avg, &max).finalize();
        assert_eq!(avg, Value::Float64(i64::MAX as f64));
    }

    #[test]
    fn update_repeated_equals_n_updates() {
        let values = [
            Value::Null,
            Value::Int64(i64::MAX),
            Value::Int64(-3),
            Value::Float64(0.1),
            Value::Float64(1.0),
            Value::Float64(-0.0),
            Value::Float64(f64::NAN),
            Value::Varchar("v".into()),
        ];
        // Prior states that make rounding order show: a big sum takes a
        // small addend once but not twice.
        let priors = [None, Some(Value::Int64(5)), Some(Value::Float64(1e16))];
        let funcs = [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Avg,
        ];
        for func in funcs {
            for prior in &priors {
                for v in &values {
                    for n in 0..4u64 {
                        let mut one_by_one = fold(func, prior.as_slice());
                        let mut repeated = one_by_one.clone();
                        let expect = (0..n).try_for_each(|_| one_by_one.update(v));
                        let got = repeated.update_repeated(v, n);
                        let tag = format!("{func:?} prior={prior:?} v={v:?} n={n}");
                        assert_eq!(format!("{got:?}"), format!("{expect:?}"), "result: {tag}");
                        if expect.is_ok() {
                            // Debug output tells -0.0 from 0.0 and
                            // spells NaN.
                            assert_eq!(format!("{repeated:?}"), format!("{one_by_one:?}"), "{tag}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fold_rows_groups_keys_by_value_equality() {
        let mut t = GroupedAccs::new(vec![AggFunc::Count]);
        t.fold_rows(&rows(), &[0], &[None]).unwrap();
        t.fold_rows(&rows(), &[0], &[None]).unwrap();
        assert_eq!(t.to_partial_rows(), vec![row!["a", 4i64], row!["b", 4i64]]);
        // NaN keys are never equal: every NaN row is a group of its own.
        let nan = vec![row![f64::NAN], row![f64::NAN]];
        let mut t = GroupedAccs::new(vec![AggFunc::Count]);
        t.fold_rows(&nan, &[0], &[None]).unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn the_hash_index_groups_as_a_linear_scan_does() {
        let domain = [
            Value::Null,
            Value::Int64(0),
            Value::Int64(1),
            Value::Float64(0.0),
            Value::Float64(-0.0),
            Value::Float64(1.0),
            Value::Float64(f64::NAN),
            Value::Boolean(false),
            Value::Varchar("0".into()),
            Value::Varchar(String::new()),
        ];
        let mut keys: Vec<Vec<Value>> = Vec::new();
        for a in &domain {
            for b in domain.iter().rev() {
                keys.push(vec![a.clone(), b.clone()]);
            }
        }
        let twice: Vec<&Vec<Value>> = keys.iter().chain(keys.iter().rev()).collect();
        // The reference: the first earlier group whose key is `==`.
        let mut seen: Vec<&Vec<Value>> = Vec::new();
        let want: Vec<usize> = twice
            .iter()
            .map(|&key| match seen.iter().position(|k| *k == key) {
                Some(g) => g,
                None => {
                    seen.push(key);
                    seen.len() - 1
                }
            })
            .collect();
        let mut hashed = GroupedAccs::new(vec![AggFunc::Count]);
        let got: Vec<usize> = twice.iter().map(|key| hashed.group_index(key)).collect();
        assert_eq!(got, want);
        // One hash for every key: the chain alone tells them apart.
        let mut collided = GroupedAccs::new(vec![AggFunc::Count]);
        let got: Vec<usize> = twice
            .iter()
            .map(|key| collided.find_or_insert(Some(0), |k| k == &key[..], || key.to_vec()))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn invalid_calls_are_rejected() {
        assert!(AggCall {
            func: AggFunc::Sum,
            column: None
        }
        .validate()
        .is_err());
        assert!(AggRequest::new(&[], vec![]).validate().is_err());
        let mut c = Acc::new(AggFunc::Count);
        let s = Acc::new(AggFunc::Sum);
        assert!(c.merge(&s).is_err(), "mismatched partials must not merge");
    }
}
