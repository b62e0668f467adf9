//! Column encodings for ROS containers.
//!
//! The engine's read-optimized storage keeps each column typed and
//! encoded: the values are a [`ColumnVec`] (one native `Vec` plus a
//! validity bitmap — 8 bytes per FLOAT, not a 24-byte tagged [`Value`]),
//! wrapped in one of three encodings that cover the usual analytic
//! cases:
//!
//! * **Plain** — values as-is; the fallback for high-entropy data
//!   (dataset D1's random floats).
//! * **Rle** — typed run values plus run lengths; wins for sorted or
//!   low-variation columns.
//! * **Dictionary** — typed distinct values plus per-row codes; wins
//!   for low-cardinality strings.
//!
//! `encode_auto` samples cardinality and run structure to choose.
//!
//! The store is handed rows, not a schema: a column's type is that of
//! its first non-null value, and every row reaches storage coerced to
//! its table's types (`Cluster::coerce_row`, COPY's `validate_row`), so
//! a second type in one column is a bug in the caller, not data.

use std::borrow::Cow;
use std::cmp::Ordering;

use common::{Result, Value};

use crate::storage::batch::{each_column_type, ColumnVec, Native};
use crate::storage::stats::{ColumnStats, KMV_K};

/// The values of one column, unencoded: what a load hands to
/// [`encode_auto`], what the run values and dictionary entries of an
/// encoded column are kept in, and what a gather returns.
///
/// Every non-null value has the vector's type. A column with no
/// non-null value at all has no type of its own and is stored as an
/// all-NULL vector of whichever type it was created with.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnData(pub(crate) ColumnVec);

impl ColumnData {
    /// An empty column with room for `n` values.
    pub fn with_capacity(n: usize) -> ColumnData {
        let mut col = ColumnVec::new(common::DataType::Boolean);
        col.reserve(n);
        ColumnData(col)
    }

    /// Rows with their segmentation hashes as `column_count` columns
    /// (each filled through [`ColumnData::push`]) beside the hashes.
    pub fn transpose(
        column_count: usize,
        rows: impl ExactSizeIterator<Item = (impl IntoIterator<Item = Value>, u64)>,
    ) -> (Vec<ColumnData>, Vec<u64>) {
        let n = rows.len();
        let mut hashes = Vec::with_capacity(n);
        let mut columns: Vec<ColumnData> = (0..column_count)
            .map(|_| ColumnData::with_capacity(n))
            .collect();
        for (row, hash) in rows {
            hashes.push(hash);
            for (column, v) in columns.iter_mut().zip(row) {
                column.push(v);
            }
        }
        (columns, hashes)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append one value, as it is (no widening). The first non-null
    /// value decides the vector's type; one of another type after it
    /// panics.
    pub fn push(&mut self, value: Value) {
        let col = &mut self.0;
        let Some(value) = col.push_exact(value) else {
            return;
        };
        let (n, Some(dtype)) = (col.len(), value.data_type()) else {
            return;
        };
        if col.null_count() < n {
            panic!("{dtype:?} value in a {:?} column", col.dtype());
        }
        let mut typed = ColumnVec::new(dtype);
        typed.reserve(col.capacity().max(n + 1));
        typed.push_nulls(n);
        typed.push_exact(value);
        *col = typed;
    }

    /// Append every value of `other`: one slice copy when the types
    /// agree (an empty column takes `other`'s type), value by value when
    /// they do not (one side all NULL).
    pub fn extend(&mut self, other: &ColumnData) {
        if self.is_empty() && self.0.dtype() != other.0.dtype() {
            let mut typed = ColumnVec::new(other.0.dtype());
            typed.reserve(self.0.capacity());
            self.0 = typed;
        }
        if self.0.extend_from_range(&other.0, 0, other.len()) {
            return;
        }
        for i in 0..other.len() {
            self.push(other.value(i));
        }
    }

    /// Decode position `idx` into a [`Value`] (clones strings).
    pub fn value(&self, idx: usize) -> Value {
        self.0.value(idx)
    }

    /// The values at `idx` (any order, repeats allowed) as a column of
    /// their own.
    pub fn gather(&self, idx: &[u32]) -> ColumnData {
        let mut out = ColumnVec::new(self.0.dtype());
        out.gather_from(&self.0, idx);
        ColumnData(out)
    }

    /// Append the values at `idx` to `dest`: typed vector to typed
    /// vector when the types agree, otherwise value by value under
    /// [`ColumnVec::push`]'s rules (NULLs fit, `Int64` widens to
    /// `Float64`, anything else is a type mismatch at its position).
    pub fn gather_into(&self, idx: &[u32], dest: &mut ColumnVec) -> Result<()> {
        if dest.gather_from(&self.0, idx) {
            return Ok(());
        }
        for &i in idx {
            dest.push(self.value(i as usize))?;
        }
        Ok(())
    }

    /// Sum of `Value::wire_size` over the column.
    pub fn wire_size(&self) -> usize {
        self.0.wire_size()
    }
}

/// An encoded column of values.
#[derive(Debug, Clone, PartialEq)]
pub enum EncodedColumn {
    Plain(ColumnData),
    /// Run `r` is `lengths[r]` copies of `values[r]`.
    Rle {
        values: ColumnData,
        lengths: Vec<u32>,
    },
    /// Row `i` is `dict[codes[i]]`.
    Dictionary {
        dict: ColumnData,
        codes: Vec<u32>,
    },
}

impl EncodedColumn {
    /// Number of rows in the column.
    pub fn len(&self) -> usize {
        match self {
            EncodedColumn::Plain(v) => v.len(),
            EncodedColumn::Rle { lengths, .. } => lengths.iter().map(|&c| c as usize).sum(),
            EncodedColumn::Dictionary { codes, .. } => codes.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decode the full column; a plain column is borrowed as it is.
    pub fn decode(&self) -> Cow<'_, ColumnData> {
        match self {
            EncodedColumn::Plain(v) => Cow::Borrowed(v),
            _ => {
                let all: Vec<u32> = (0..self.len() as u32).collect();
                Cow::Owned(self.gather_sorted(&all))
            }
        }
    }

    /// Random access to row `idx` (used by point visibility checks).
    pub fn get(&self, idx: usize) -> Value {
        match self {
            EncodedColumn::Plain(v) => v.value(idx),
            EncodedColumn::Rle { values, lengths } => {
                let mut remaining = idx;
                for (run, &count) in lengths.iter().enumerate() {
                    if remaining < count as usize {
                        return values.value(run);
                    }
                    remaining -= count as usize;
                }
                panic!("row index {idx} out of range");
            }
            EncodedColumn::Dictionary { dict, codes } => dict.value(codes[idx] as usize),
        }
    }

    /// The unencoded values behind the encoding: one per row, per run,
    /// or per dictionary entry.
    pub(crate) fn values(&self) -> &ColumnData {
        match self {
            EncodedColumn::Plain(values)
            | EncodedColumn::Rle { values, .. }
            | EncodedColumn::Dictionary { dict: values, .. } => values,
        }
    }

    /// Where the rows at `positions` (sorted ascending) live: the
    /// unencoded values behind the encoding and an index into them per
    /// position, for readers that decode in place instead of copying.
    /// For RLE the run cursor advances monotonically, so each run is
    /// located once no matter how many surviving positions it covers —
    /// `O(positions + runs)`, not `O(positions * runs)` as repeated
    /// [`EncodedColumn::get`] calls would be.
    pub(crate) fn locate<'a>(&'a self, positions: &'a [u32]) -> (&'a ColumnData, Cow<'a, [u32]>) {
        match self {
            EncodedColumn::Plain(v) => (v, Cow::Borrowed(positions)),
            EncodedColumn::Rle { values, lengths } => {
                let mut idx = Vec::with_capacity(positions.len());
                let mut run = 0usize;
                // First row index of run `run`.
                let mut run_start = 0usize;
                for &p in positions {
                    let p = p as usize;
                    debug_assert!(p >= run_start, "positions must be sorted");
                    while run < lengths.len() && p >= run_start + lengths[run] as usize {
                        run_start += lengths[run] as usize;
                        run += 1;
                    }
                    assert!(run < lengths.len(), "row index {p} out of range");
                    idx.push(run as u32);
                }
                (values, Cow::Owned(idx))
            }
            EncodedColumn::Dictionary { dict, codes } => {
                let idx = positions.iter().map(|&p| codes[p as usize]).collect();
                (dict, Cow::Owned(idx))
            }
        }
    }

    /// Gather the values at `positions` (which must be sorted
    /// ascending) in one forward pass over the encoding. This is the
    /// late-materialization decode: only the selected runs and codes are
    /// looked up, and the result stays typed.
    pub fn gather_sorted(&self, positions: &[u32]) -> ColumnData {
        let (values, idx) = self.locate(positions);
        values.gather(&idx)
    }

    /// [`EncodedColumn::gather_sorted`] onto the end of a batch column,
    /// with no intermediate vector: a plain column whose selection is
    /// one contiguous run of rows is a slice copy, anything else an
    /// indexed copy. Fails as [`ColumnData::gather_into`] does.
    pub fn gather_into(&self, positions: &[u32], dest: &mut ColumnVec) -> Result<()> {
        if let (EncodedColumn::Plain(ColumnData(src)), [first, .., last]) = (self, positions) {
            // Sorted and distinct, so spanning `len` rows means no gaps.
            if (last - first) as usize == positions.len() - 1
                && dest.extend_from_range(src, *first as usize, positions.len())
            {
                return Ok(());
            }
        }
        let (values, idx) = self.locate(positions);
        values.gather_into(&idx, dest)
    }

    /// Add `Value::wire_size` of the row at `positions[k]` (sorted
    /// ascending) to `out[k]`, for every `k`, copying no value.
    pub(crate) fn add_wire_sizes(&self, positions: &[u32], out: &mut [u64]) {
        let (values, idx) = self.locate(positions);
        values.0.add_wire_sizes(&idx, out);
    }

    /// A readable name of the encoding, surfaced in storage stats.
    pub fn encoding_name(&self) -> &'static str {
        match self {
            EncodedColumn::Plain(_) => "plain",
            EncodedColumn::Rle { .. } => "rle",
            EncodedColumn::Dictionary { .. } => "dictionary",
        }
    }

    /// Approximate encoded size in bytes (for storage stats and
    /// compression-ratio reporting).
    pub fn encoded_size(&self) -> usize {
        match self {
            EncodedColumn::Plain(v) => v.wire_size(),
            EncodedColumn::Rle { values, lengths } => values.wire_size() + 4 * lengths.len(),
            EncodedColumn::Dictionary { dict, codes } => {
                // Codes are bit-packed on disk: ceil(log2(|dict|)) bits each.
                let bits = usize::BITS - (dict.len().max(2) - 1).leading_zeros();
                dict.wire_size() + (codes.len() * bits as usize).div_ceil(8)
            }
        }
    }
}

/// An encoding of `n` rows, as row indices into the unencoded values.
/// It follows from which rows hold equal values and nothing else, so
/// the routines that work it out take one key per row, keys `==` where
/// the values are, and compile once per key type.
enum Shape {
    Plain,
    /// First row and length of each run; a run's value is its first
    /// row's.
    Rle {
        starts: Vec<u32>,
        lengths: Vec<u32>,
    },
    /// Row of each dictionary entry's first occurrence, and every row's
    /// entry.
    Dictionary {
        firsts: Vec<u32>,
        codes: Vec<u32>,
    },
}

/// Which [`Shape`] to work out.
#[derive(Clone, Copy)]
enum Plan {
    /// RLE when runs dominate, dictionary for low cardinality, plain
    /// otherwise.
    Auto,
    Rle,
    Dictionary,
}

/// Most distinct values a dictionary is chosen for.
const DICTIONARY_MAX: usize = 64;

/// Fewest rows a dictionary is chosen for.
const DICTIONARY_MIN_ROWS: usize = 16;

impl Plan {
    /// `keys[i]` is row `i`'s key; `order` is a total order of the keys
    /// in which equal ones compare equal.
    fn shape<K: PartialEq>(self, keys: &[K], order: impl Fn(&K, &K) -> Ordering) -> Shape {
        match self {
            Plan::Rle => rle_shape(keys),
            Plan::Dictionary => dictionary_shape(keys, order),
            Plan::Auto => {
                // Count runs, then (capped) distinct values, over a sample.
                let sample = &keys[..keys.len().min(1024)];
                if sample.is_empty() {
                    return Shape::Plain;
                }
                let runs = 1 + sample.windows(2).filter(|w| w[0] != w[1]).count();
                if runs * 4 <= sample.len() {
                    rle_shape(keys)
                } else if sample.len() >= DICTIONARY_MIN_ROWS && few_distinct(sample, &order) {
                    dictionary_shape(keys, order)
                } else {
                    Shape::Plain
                }
            }
        }
    }
}

/// Whether `sample` holds at most [`DICTIONARY_MAX`] distinct keys.
fn few_distinct<K: PartialEq>(sample: &[K], order: impl Fn(&K, &K) -> Ordering) -> bool {
    // A high-cardinality column shows in its first values: when they are
    // pairwise distinct — no two neighbours equal once ordered — the
    // answer takes one sort, not a probe of each against all before it.
    if sample.len() > DICTIONARY_MAX {
        let mut head: [&K; DICTIONARY_MAX + 1] = std::array::from_fn(|i| &sample[i]);
        head.sort_unstable_by(|a, b| order(a, b));
        if head.windows(2).all(|w| w[0] != w[1]) {
            return false;
        }
    }
    let mut distinct: Vec<&K> = Vec::new();
    for key in sample {
        if !distinct.contains(&key) {
            if distinct.len() == DICTIONARY_MAX {
                return false;
            }
            distinct.push(key);
        }
    }
    true
}

fn rle_shape<K: PartialEq>(keys: &[K]) -> Shape {
    let mut starts: Vec<u32> = Vec::new();
    let mut lengths: Vec<u32> = Vec::new();
    for (i, key) in keys.iter().enumerate() {
        match (starts.last(), lengths.last_mut()) {
            (Some(&start), Some(count)) if keys[start as usize] == *key && *count < u32::MAX => {
                *count += 1
            }
            _ => {
                starts.push(i as u32);
                lengths.push(1);
            }
        }
    }
    Shape::Rle { starts, lengths }
}

fn dictionary_shape<K: PartialEq>(keys: &[K], order: impl Fn(&K, &K) -> Ordering) -> Shape {
    let mut firsts: Vec<u32> = Vec::new();
    let mut codes = Vec::with_capacity(keys.len());
    for (i, key) in keys.iter().enumerate() {
        // Linear probe while the dictionary is tiny, as `Plan::Auto`'s
        // sample promised; a column whose tail outgrows it is grouped by
        // a sort instead, or the probe would cost O(n²).
        let code = match firsts.iter().position(|&d| keys[d as usize] == *key) {
            Some(code) => code,
            None if firsts.len() == DICTIONARY_MAX => return sorted_dictionary_shape(keys, order),
            None => {
                firsts.push(i as u32);
                firsts.len() - 1
            }
        };
        codes.push(code as u32);
    }
    Shape::Dictionary { firsts, codes }
}

/// [`dictionary_shape`] in O(n log n): the same entries in the same
/// first-seen order, and the same codes.
fn sorted_dictionary_shape<K: PartialEq>(keys: &[K], order: impl Fn(&K, &K) -> Ordering) -> Shape {
    // Stable, so each run of keys equal under `order` starts at its
    // first row. Such a run is `==` throughout, except a NaN's, which
    // equals nothing and stays an entry per row.
    let mut sorted: Vec<u32> = (0..keys.len() as u32).collect();
    sorted.sort_by(|&a, &b| order(&keys[a as usize], &keys[b as usize]));
    // Each row's first `==` row, no later than itself.
    let mut first: Vec<u32> = (0..keys.len() as u32).collect();
    for run in sorted.chunk_by(|&a, &b| order(&keys[a as usize], &keys[b as usize]).is_eq()) {
        let head = &keys[run[0] as usize];
        for &row in run.iter().filter(|&&row| keys[row as usize] == *head) {
            first[row as usize] = run[0];
        }
    }
    let mut firsts: Vec<u32> = Vec::new();
    let mut codes: Vec<u32> = Vec::with_capacity(keys.len());
    for (i, &f) in first.iter().enumerate() {
        let code = if f as usize == i {
            firsts.push(f);
            firsts.len() as u32 - 1
        } else {
            codes[f as usize]
        };
        codes.push(code);
    }
    Shape::Dictionary { firsts, codes }
}

/// Encode `values` as `plan` says; `None` when that is plain.
fn encode(values: &ColumnData, plan: Plan) -> Option<EncodedColumn> {
    // Equality as `Value`'s `==` has it: NULL equals NULL, `-0.0`
    // equals `0.0`, NaN equals nothing. A column without NULLs is its
    // own keys; one with NULLs is keyed by `Option`, NULLs first.
    let shape = each_column_type!(&values.0, v => match v.parts() {
        (data, None) => plan.shape(data, |a, b| a.total_order(b)),
        (_, Some(_)) => {
            let keys: Vec<_> = (0..v.len()).map(|i| v.get(i)).collect();
            plan.shape(&keys, |a, b| match (a, b) {
                (Some(a), Some(b)) => a.total_order(b),
                (a, b) => a.is_some().cmp(&b.is_some()),
            })
        }
    });
    match shape {
        Shape::Plain => None,
        Shape::Rle { starts, lengths } => Some(EncodedColumn::Rle {
            values: values.gather(&starts),
            lengths,
        }),
        Shape::Dictionary { firsts, codes } => Some(EncodedColumn::Dictionary {
            dict: values.gather(&firsts),
            codes,
        }),
    }
}

/// Encode with run-length encoding.
pub fn encode_rle(values: &ColumnData) -> EncodedColumn {
    encode(values, Plan::Rle).unwrap_or_else(|| EncodedColumn::Plain(values.clone()))
}

/// Encode with dictionary encoding.
pub fn encode_dictionary(values: &ColumnData) -> EncodedColumn {
    encode(values, Plan::Dictionary).unwrap_or_else(|| EncodedColumn::Plain(values.clone()))
}

/// Pick an encoding by inspecting the data: RLE when runs dominate,
/// dictionary for low-cardinality columns, plain (the values moved in,
/// not copied) otherwise.
pub fn encode_auto(values: ColumnData) -> EncodedColumn {
    encode(&values, Plan::Auto).unwrap_or(EncodedColumn::Plain(values))
}

/// [`encode_auto`], told the column's statistics. A column of
/// [`DICTIONARY_MIN_ROWS`] to `KMV_K - 1` rows whose `ndv` equals its
/// length is its own dictionary, which is what `Plan::Auto` finds after
/// probing it: below `KMV_K` hashes the sketch's count of distinct
/// non-NULL values is exact, and `==` values hash alike, so the column
/// holds no NULL and no two `==` values. Every other column is
/// [`encode_auto`]'s.
pub(crate) fn encode_with_stats(values: ColumnData, stats: &ColumnStats) -> EncodedColumn {
    let n = values.len();
    let sizes = DICTIONARY_MIN_ROWS..KMV_K.min(DICTIONARY_MAX + 1);
    if sizes.contains(&n) && stats.ndv == n as u64 {
        let codes = (0..n as u32).collect();
        EncodedColumn::Dictionary {
            dict: values,
            codes,
        }
    } else {
        encode_auto(values)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::storage::batch::LANES;
    use common::DataType;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    impl ColumnData {
        pub(crate) fn from_values(values: &[Value]) -> ColumnData {
            let mut out = ColumnData::with_capacity(values.len());
            for v in values {
                out.push(v.clone());
            }
            out
        }

        pub(crate) fn to_values(&self) -> Vec<Value> {
            (0..self.len()).map(|i| self.value(i)).collect()
        }
    }

    /// The `Vec<Value>` encodings the typed ones replaced, kept verbatim
    /// as the reference: same encoding choice, same decoded values, same
    /// sizes.
    pub(crate) mod reference {
        use common::Value;

        /// An encoded column of values.
        #[derive(Debug, Clone, PartialEq)]
        pub enum RefColumn {
            Plain(Vec<Value>),
            Rle(Vec<(Value, u32)>),
            Dictionary { dict: Vec<Value>, codes: Vec<u32> },
        }

        impl RefColumn {
            /// Number of rows in the column.
            pub fn len(&self) -> usize {
                match self {
                    RefColumn::Plain(v) => v.len(),
                    RefColumn::Rle(runs) => runs.iter().map(|(_, c)| *c as usize).sum(),
                    RefColumn::Dictionary { codes, .. } => codes.len(),
                }
            }

            /// Decode the full column.
            pub fn decode(&self) -> Vec<Value> {
                match self {
                    RefColumn::Plain(v) => v.clone(),
                    RefColumn::Rle(runs) => {
                        let mut out = Vec::with_capacity(self.len());
                        for (v, count) in runs {
                            for _ in 0..*count {
                                out.push(v.clone());
                            }
                        }
                        out
                    }
                    RefColumn::Dictionary { dict, codes } => {
                        codes.iter().map(|&c| dict[c as usize].clone()).collect()
                    }
                }
            }

            /// Random access to row `idx` (used by point visibility checks).
            pub fn get(&self, idx: usize) -> Value {
                match self {
                    RefColumn::Plain(v) => v[idx].clone(),
                    RefColumn::Rle(runs) => {
                        let mut remaining = idx;
                        for (v, count) in runs {
                            if remaining < *count as usize {
                                return v.clone();
                            }
                            remaining -= *count as usize;
                        }
                        panic!("row index {idx} out of range");
                    }
                    RefColumn::Dictionary { dict, codes } => dict[codes[idx] as usize].clone(),
                }
            }

            /// Gather the values at `positions` (which must be sorted
            /// ascending) in one forward pass over the encoding.
            ///
            /// This is the late-materialization decode: for RLE the run cursor
            /// advances monotonically so each run is located once no matter how
            /// many surviving positions it covers, and for dictionary columns
            /// only the selected codes are looked up. Cost is
            /// `O(positions + runs)` instead of `O(positions * runs)` for
            /// repeated `get` calls.
            pub fn gather_sorted(&self, positions: &[u32]) -> Vec<Value> {
                let mut out = Vec::with_capacity(positions.len());
                match self {
                    RefColumn::Plain(v) => {
                        for &p in positions {
                            out.push(v[p as usize].clone());
                        }
                    }
                    RefColumn::Rle(runs) => {
                        let mut run = 0usize;
                        // First row index of `runs[run]`.
                        let mut run_start = 0usize;
                        for &p in positions {
                            let p = p as usize;
                            debug_assert!(p >= run_start, "positions must be sorted");
                            while run < runs.len() && p >= run_start + runs[run].1 as usize {
                                run_start += runs[run].1 as usize;
                                run += 1;
                            }
                            assert!(run < runs.len(), "row index {p} out of range");
                            out.push(runs[run].0.clone());
                        }
                    }
                    RefColumn::Dictionary { dict, codes } => {
                        for &p in positions {
                            out.push(dict[codes[p as usize] as usize].clone());
                        }
                    }
                }
                out
            }

            /// A readable name of the encoding, surfaced in storage stats.
            pub fn encoding_name(&self) -> &'static str {
                match self {
                    RefColumn::Plain(_) => "plain",
                    RefColumn::Rle(_) => "rle",
                    RefColumn::Dictionary { .. } => "dictionary",
                }
            }

            /// Approximate encoded size in bytes (for storage stats and
            /// compression-ratio reporting).
            pub fn encoded_size(&self) -> usize {
                match self {
                    RefColumn::Plain(v) => v.iter().map(Value::wire_size).sum(),
                    RefColumn::Rle(runs) => runs.iter().map(|(v, _)| v.wire_size() + 4).sum(),
                    RefColumn::Dictionary { dict, codes } => {
                        // Codes are bit-packed on disk: ceil(log2(|dict|)) bits each.
                        let bits = usize::BITS - (dict.len().max(2) - 1).leading_zeros();
                        dict.iter().map(Value::wire_size).sum::<usize>()
                            + (codes.len() * bits as usize).div_ceil(8)
                    }
                }
            }
        }

        /// Encode with run-length encoding.
        pub fn encode_rle(values: &[Value]) -> RefColumn {
            let mut runs: Vec<(Value, u32)> = Vec::new();
            for v in values {
                match runs.last_mut() {
                    Some((last, count)) if last == v && *count < u32::MAX => *count += 1,
                    _ => runs.push((v.clone(), 1)),
                }
            }
            RefColumn::Rle(runs)
        }

        /// Encode with dictionary encoding. Returns `None` when the dictionary
        /// would exceed `u32` codes (never in practice here).
        pub fn encode_dictionary(values: &[Value]) -> RefColumn {
            let mut dict: Vec<Value> = Vec::new();
            let mut codes = Vec::with_capacity(values.len());
            for v in values {
                // Linear probe: dictionaries only pay off when tiny, and
                // `encode_auto` only picks this path for low cardinality.
                let code = match dict.iter().position(|d| d == v) {
                    Some(i) => i as u32,
                    None => {
                        dict.push(v.clone());
                        (dict.len() - 1) as u32
                    }
                };
                codes.push(code);
            }
            RefColumn::Dictionary { dict, codes }
        }

        /// Pick an encoding by inspecting the data: RLE when runs dominate,
        /// dictionary for low-cardinality columns, plain otherwise.
        pub fn encode_auto(values: &[Value]) -> RefColumn {
            if values.is_empty() {
                return RefColumn::Plain(Vec::new());
            }
            // Count runs and (capped) distinct values in one pass over a sample.
            let sample = &values[..values.len().min(1024)];
            let mut runs = 1usize;
            for w in sample.windows(2) {
                if w[0] != w[1] {
                    runs += 1;
                }
            }
            let mut distinct: Vec<&Value> = Vec::new();
            for v in sample {
                if distinct.len() > 64 {
                    break;
                }
                if !distinct.contains(&v) {
                    distinct.push(v);
                }
            }
            if runs * 4 <= sample.len() {
                encode_rle(values)
            } else if distinct.len() <= 64 && sample.len() >= 16 {
                encode_dictionary(values)
            } else {
                RefColumn::Plain(values.to_vec())
            }
        }
    }

    fn ints(vals: &[i64]) -> ColumnData {
        let vals: Vec<Value> = vals.iter().map(|&i| Value::Int64(i)).collect();
        ColumnData::from_values(&vals)
    }

    #[test]
    fn rle_round_trip() {
        let vals = ints(&[1, 1, 1, 2, 2, 3, 3, 3, 3]);
        let enc = encode_rle(&vals);
        assert_eq!(enc.len(), 9);
        assert_eq!(*enc.decode(), vals);
        assert_eq!(enc.get(2), Value::Int64(1));
        assert_eq!(enc.get(3), Value::Int64(2));
        assert_eq!(enc.get(8), Value::Int64(3));
        if let EncodedColumn::Rle { values, lengths } = &enc {
            assert_eq!(*values, ints(&[1, 2, 3]));
            assert_eq!(lengths, &[3, 2, 4]);
        } else {
            panic!("expected RLE");
        }
    }

    #[test]
    fn dictionary_round_trip() {
        let vals: Vec<Value> = ["a", "b", "a", "c", "b", "a"]
            .iter()
            .map(|s| Value::Varchar(s.to_string()))
            .collect();
        let enc = encode_dictionary(&ColumnData::from_values(&vals));
        assert_eq!(enc.decode().to_values(), vals);
        assert_eq!(enc.get(3), Value::Varchar("c".into()));
        if let EncodedColumn::Dictionary { dict, .. } = &enc {
            assert_eq!(dict.len(), 3);
        } else {
            panic!("expected dictionary");
        }
    }

    #[test]
    fn auto_picks_rle_for_sorted_runs() {
        let vals = ints(&[7; 1000]);
        let enc = encode_auto(vals.clone());
        assert_eq!(enc.encoding_name(), "rle");
        assert!(enc.encoded_size() < 100);
        assert_eq!(*enc.decode(), vals);
    }

    #[test]
    fn auto_picks_dictionary_for_low_cardinality() {
        let vals: Vec<Value> = (0..500)
            .map(|i| Value::Varchar(format!("cat{}", i % 5)))
            .collect();
        let enc = encode_auto(ColumnData::from_values(&vals));
        assert_eq!(enc.encoding_name(), "dictionary");
        assert_eq!(enc.decode().to_values(), vals);
    }

    #[test]
    fn auto_picks_plain_for_high_entropy() {
        let vals = ints(&(0..500).collect::<Vec<i64>>());
        let enc = encode_auto(vals.clone());
        assert_eq!(enc.encoding_name(), "plain");
        assert_eq!(*enc.decode(), vals);
    }

    #[test]
    fn nulls_supported_in_all_encodings() {
        let vals = vec![Value::Null, Value::Null, Value::Int64(1), Value::Null];
        let col = ColumnData::from_values(&vals);
        for enc in [
            encode_rle(&col),
            encode_dictionary(&col),
            EncodedColumn::Plain(col.clone()),
        ] {
            assert_eq!(enc.decode().to_values(), vals);
        }
    }

    #[test]
    fn gather_sorted_matches_get() {
        let vals = ints(&[1, 1, 1, 2, 2, 3, 3, 3, 3, 5]);
        let positions = [0u32, 2, 3, 6, 8, 9];
        for enc in [
            encode_rle(&vals),
            encode_dictionary(&vals),
            EncodedColumn::Plain(vals.clone()),
        ] {
            let gathered = enc.gather_sorted(&positions).to_values();
            let expected: Vec<Value> = positions.iter().map(|&p| enc.get(p as usize)).collect();
            assert_eq!(gathered, expected, "encoding {}", enc.encoding_name());
        }
    }

    #[test]
    fn empty_column() {
        let enc = encode_auto(ColumnData::with_capacity(0));
        assert!(enc.is_empty());
        assert_eq!(enc.decode().to_values(), Vec::<Value>::new());
    }

    #[test]
    fn the_first_value_decides_the_type() {
        // NULLs first: the first value still decides the type.
        let late = [Value::Null, Value::Null, Value::Float64(1.5)];
        assert!(matches!(
            ColumnData::from_values(&late),
            ColumnData(ColumnVec::Float64(_))
        ));
        // Concatenation: all-NULL pieces take the other side's type.
        let mut merged = ColumnData::from_values(&[Value::Null]);
        merged.extend(&ColumnData::from_values(&late));
        merged.extend(&ColumnData::from_values(&[Value::Null]));
        assert!(matches!(merged, ColumnData(ColumnVec::Float64(_))));
        assert_eq!(merged.len(), 5);
    }

    #[test]
    #[should_panic(expected = "Int64 value in a Float64 column")]
    fn a_second_type_is_a_broken_invariant() {
        // No widening inside the store: rows arrive coerced.
        ColumnData::from_values(&[Value::Float64(2.0), Value::Null, Value::Int64(1)]);
    }

    /// Columns of the shapes that stress the encodings, the bounds and
    /// the sketch: `kind` picks homogeneous floats / ints / strings /
    /// booleans, low-cardinality values (dictionary; the sketch never
    /// fills), long runs, NULL-heavy, all-NULL, NaN-bearing floats,
    /// signed zeros tying for the smallest or the largest value, NaNs of
    /// every payload among ±∞, `BIGINT` extremes with a NULL at every
    /// lane position, a lone NaN among NULLs, signed zeros among small
    /// floats, or four values over the encoding sample and a mostly
    /// distinct tail (with NaNs, NULLs and both zeros) after it; `picks`
    /// supplies the entropy.
    pub(crate) const COLUMN_KINDS: u8 = 16;

    pub(crate) fn column(kind: u8, picks: &[(u8, i64)]) -> Vec<Value> {
        let mut run_value = 0i64;
        // A NaN with a payload and a sign from the picks.
        let nan = |p: u8, x: i64| {
            let sign = (p as u64 & 1) << 63;
            f64::from_bits(sign | 0x7FF0_0000_0000_0000 | (x as u64 & 0xF_FFFF_FFFF_FFFF) | 1)
        };
        let magnitude = |x: i64| (x.abs() + 1) as f64 / 8.0;
        picks
            .iter()
            .enumerate()
            .map(|(i, &(p, x))| match (kind, p) {
                (0, _) => Value::Float64(x as f64 / 8.0),
                (1, _) => Value::Int64(x),
                (2, _) => Value::Varchar(format!("s{}", x % 97)),
                (3, _) => Value::Int64(x % 5),
                (4, 0..=5) => Value::Null,
                (4, _) => Value::Float64(x as f64),
                (5, 0) => Value::Float64(f64::NAN),
                (5, _) => Value::Float64(x as f64),
                (6, _) => Value::Boolean(x % 2 == 0),
                (7, _) => {
                    // A new run value on one pick in eight.
                    if p == 0 {
                        run_value = x;
                    }
                    Value::Varchar(format!("r{run_value}"))
                }
                (8, _) => Value::Null,
                (9 | 10, 1..=2) => Value::Float64(-0.0),
                (9 | 10, 3..=5) => Value::Float64(0.0),
                (9, 0) => Value::Float64(f64::INFINITY),
                (9, _) => Value::Float64(magnitude(x)),
                (10, 0) => Value::Float64(f64::NEG_INFINITY),
                (10, _) => Value::Float64(-magnitude(x)),
                (11, 0 | 1) => Value::Float64(nan(p, x)),
                (11, 2) => Value::Float64(f64::INFINITY),
                (11, 3) => Value::Float64(f64::NEG_INFINITY),
                (11, 4) => Value::Float64(-0.0),
                (11, 5) => Value::Null,
                (11, _) => Value::Float64(x as f64 / 8.0),
                // One NULL per group of eight, a lane further each group.
                (12, _) if i / LANES % LANES == i % LANES => Value::Null,
                (12, 0 | 1) => Value::Int64(i64::MIN),
                (12, 2 | 3) => Value::Int64(i64::MAX),
                (12, _) => Value::Int64(x),
                (13, _) if i == 0 => Value::Float64(nan(p, x)),
                (13, _) => Value::Null,
                (15, _) if i < 1024 => Value::Float64(x.rem_euclid(4) as f64),
                (15, 0) => Value::Float64(nan(p, x)),
                (15, 1) => Value::Null,
                (15, 2) => Value::Float64(-0.0),
                (15, 3) => Value::Float64(0.0),
                (15, _) => Value::Float64(i as f64 + 0.5),
                (_, 0..=2) => Value::Float64(-0.0),
                (_, 3..=5) => Value::Float64(0.0),
                (_, _) => Value::Float64((x % 3) as f64),
            })
            .collect()
    }

    /// Lengths at the lane kernels' edges: a partial last group of every
    /// size (0–17), the dictionary head (63–66), the encoding sample
    /// (1,023–1,025), and a column past the sketch's pile (5,000).
    const EDGE_LENGTHS: [(usize, usize); 4] = [(0, 17), (63, 66), (1023, 1025), (5000, 5000)];

    /// `check(what, values, rng)` on generated columns, seeded from
    /// `base`: one of every kind at every edge length, then 256 of a
    /// random kind, half of them at an edge length and the rest shorter
    /// than 400. `rng` is the column's, for whatever else the check draws.
    pub(crate) fn for_each_generated_column(
        base: u64,
        mut check: impl FnMut(&str, Vec<Value>, &mut StdRng),
    ) {
        let picks = |rng: &mut StdRng, n: usize| -> Vec<(u8, i64)> {
            (0..n)
                .map(|_| (rng.random_range(0..8), rng.random_range(-1000..1000)))
                .collect()
        };
        let mut rng = StdRng::seed_from_u64(base);
        for kind in 0..COLUMN_KINDS {
            for n in EDGE_LENGTHS.iter().flat_map(|&(lo, hi)| lo..=hi) {
                let values = column(kind, &picks(&mut rng, n));
                check(
                    &format!("seed set {base}: kind {kind}, {n} values"),
                    values,
                    &mut rng,
                );
            }
        }
        for case in 0..256 {
            let mut rng = StdRng::seed_from_u64(base * 1_000 + case);
            let n = if rng.random_bool(0.5) {
                let (lo, hi) = EDGE_LENGTHS[rng.random_range(0..EDGE_LENGTHS.len())];
                rng.random_range(lo..hi + 1)
            } else {
                rng.random_range(0..400)
            };
            let kind = rng.random_range(0..COLUMN_KINDS);
            let values = column(kind, &picks(&mut rng, n));
            check(
                &format!("seed set {base}, case {case}: kind {kind}, {n} values"),
                values,
                &mut rng,
            );
        }
    }

    /// The typed encodings against the reference on the generated
    /// columns of `base`.
    pub(crate) fn encodings_match_the_reference(base: u64) {
        for_each_generated_column(base, |what, values, rng| {
            let keep: Vec<bool> = values.iter().map(|_| rng.random_bool(0.5)).collect();
            let dest = rng.random_range(0..4);
            let want = reference::encode_auto(&values);
            let got = encode_auto(ColumnData::from_values(&values));
            // Everything through `Debug`, so that NaN equals itself and
            // `-0.0` does not equal `0.0`.
            let same = |a: &[Value], b: &[Value]| format!("{a:?}") == format!("{b:?}");
            assert_eq!(got.encoding_name(), want.encoding_name(), "{what}");
            assert_eq!(got.len(), want.len(), "{what}");
            assert_eq!(got.encoded_size(), want.encoded_size(), "{what}");
            assert!(same(&got.decode().to_values(), &want.decode()), "{what}");
            let by_get =
                |get: &dyn Fn(usize) -> Value| (0..values.len()).map(get).collect::<Vec<_>>();
            assert!(
                same(&by_get(&|i| got.get(i)), &by_get(&|i| want.get(i))),
                "{what}"
            );

            // A sorted selection, a contiguous one, and everything.
            let some: Vec<u32> = (0..values.len() as u32)
                .filter(|&i| keep[i as usize])
                .collect();
            let middle: Vec<u32> = (values.len() as u32 / 4..values.len() as u32 * 3 / 4).collect();
            let all: Vec<u32> = (0..values.len() as u32).collect();
            for sel in [&some, &middle, &all] {
                let picked = want.gather_sorted(sel);
                assert!(same(&got.gather_sorted(sel).to_values(), &picked), "{what}");
                // Onto a batch column that already holds a value: the
                // outcome of pushing the reference's values one by one.
                let dtype = [
                    DataType::Boolean,
                    DataType::Int64,
                    DataType::Float64,
                    DataType::Varchar,
                ][dest];
                let (mut typed, mut pushed) = (ColumnVec::new(dtype), ColumnVec::new(dtype));
                typed.push_nulls(1);
                pushed.push_nulls(1);
                let outcome = got.gather_into(sel, &mut typed);
                let expected = picked.into_iter().try_for_each(|v| pushed.push(v));
                assert_eq!(format!("{outcome:?}"), format!("{expected:?}"), "{what}");
                if outcome.is_ok() {
                    assert_eq!(format!("{typed:?}"), format!("{pushed:?}"), "{what}");
                }
            }
        });
    }

    #[test]
    fn typed_encodings_match_the_reference() {
        encodings_match_the_reference(0);
    }
}
