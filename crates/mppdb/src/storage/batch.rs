//! Columnar batches: the unit of data flowing through the vectorized
//! scan pipeline.
//!
//! A [`ColumnBatch`] holds typed column vectors (one Rust `Vec` per
//! column, not a `Vec` of `Value` enums), a validity bitmap per column
//! for SQL NULLs, and the per-row segmentation hashes. Scans build
//! batches with *late materialization*: visibility and hash-range
//! filtering run over selection vectors of row positions, the pushed
//! down predicate decodes only its referenced columns, and only the
//! surviving positions of the projected columns are ever copied — typed
//! vector to typed vector, no `Value` in between — into the output
//! batch. The same [`ColumnVec`] is what a ROS container stores
//! (`storage::encoding`).
//!
//! The batch keeps the engine's row-oriented cost accounting exact:
//! [`ColumnBatch::wire_size`] and [`ColumnBatch::text_wire_size`] are
//! byte-identical to summing [`common::Row::wire_size`] /
//! [`common::Row::text_wire_size`] over the materialized rows, so the
//! netsim `Recorder` volumes do not shift when a path switches from
//! rows to batches.

use std::cmp::Ordering;

use common::{hash, DataType, Error, Result, Row, Value};

/// A growable bitmap; bit `i` set means position `i` is valid (non-NULL).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Bitmap {
    /// Bits at and above `len` in the last word are zero.
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    pub fn new() -> Bitmap {
        Bitmap::default()
    }

    pub fn with_capacity(bits: usize) -> Bitmap {
        Bitmap {
            words: Vec::with_capacity(bits.div_ceil(64)),
            len: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn reserve(&mut self, bits: usize) {
        let words = (self.len + bits).div_ceil(64);
        self.words.reserve(words.saturating_sub(self.words.len()));
    }

    pub fn push(&mut self, valid: bool) {
        let word = self.len / 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if valid {
            self.words[word] |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    pub fn get(&self, idx: usize) -> bool {
        debug_assert!(idx < self.len);
        self.words[idx / 64] & (1u64 << (idx % 64)) != 0
    }

    /// Number of set (valid) bits.
    pub fn count_valid(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of set bits at positions `start..`.
    fn count_valid_from(&self, start: usize) -> usize {
        let Some((first, rest)) = self.words.get(start / 64..).and_then(<[u64]>::split_first)
        else {
            return 0;
        };
        (first >> (start % 64)).count_ones() as usize
            + rest.iter().map(|w| w.count_ones() as usize).sum::<usize>()
    }

    pub fn truncate(&mut self, len: usize) {
        if len >= self.len {
            return;
        }
        self.words.truncate(len.div_ceil(64));
        // Clear the tail bits of the last word so count_valid stays right.
        if !len.is_multiple_of(64) {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << (len % 64)) - 1;
            }
        }
        self.len = len;
    }

    /// Up to 64 bits starting at `start`, in the low bits of the result;
    /// positions at or past `len` read as zero.
    fn bits_at(&self, start: usize) -> u64 {
        let (word, shift) = (start / 64, start % 64);
        let lo = self.words.get(word).copied().unwrap_or(0) >> shift;
        if shift == 0 {
            lo
        } else {
            lo | self.words.get(word + 1).copied().unwrap_or(0) << (64 - shift)
        }
    }

    /// Append the low `n` (≤ 64) bits of `bits`; returns how many of
    /// them are set.
    fn push_bits(&mut self, bits: u64, n: usize) -> usize {
        debug_assert!(n <= 64);
        if n == 0 {
            return 0;
        }
        let bits = if n == 64 {
            bits
        } else {
            bits & ((1u64 << n) - 1)
        };
        let shift = self.len % 64;
        if shift == 0 {
            self.words.push(bits);
        } else {
            // fabriclint: allow(panic-hygiene): len % 64 != 0 means a partly filled last word exists
            *self.words.last_mut().expect("partial last word") |= bits << shift;
            if shift + n > 64 {
                self.words.push(bits >> (64 - shift));
            }
        }
        self.len += n;
        bits.count_ones() as usize
    }

    /// Append `n` copies of `valid`, a word at a time.
    pub fn extend_constant(&mut self, valid: bool, n: usize) {
        let fill = if valid { u64::MAX } else { 0 };
        let mut left = n;
        while left > 0 {
            let take = left.min(64);
            self.push_bits(fill, take);
            left -= take;
        }
    }

    /// Append `other[start..start + n]`, a word at a time; returns how
    /// many of the appended bits are set.
    pub fn extend_from_range(&mut self, other: &Bitmap, start: usize, n: usize) -> usize {
        debug_assert!(start + n <= other.len);
        let (mut done, mut valid) = (0, 0);
        while done < n {
            let take = (n - done).min(64);
            valid += self.push_bits(other.bits_at(start + done), take);
            done += take;
        }
        valid
    }

    /// Append `other[i]` for every `i` in `idx`; returns how many of the
    /// appended bits are set.
    pub fn extend_gather(&mut self, other: &Bitmap, idx: &[u32]) -> usize {
        let mut valid = 0;
        for chunk in idx.chunks(64) {
            let mut bits = 0u64;
            for (k, &i) in chunk.iter().enumerate() {
                bits |= (other.get(i as usize) as u64) << k;
            }
            valid += self.push_bits(bits, chunk.len());
        }
        valid
    }
}

/// A Rust type that stores one SQL type's values natively.
pub trait Native: Clone + Default + PartialEq + PartialOrd {
    /// Whether every value has the same binary / textual wire size, so
    /// that a column's size is arithmetic on its NULL count.
    const FIXED_WIRE: bool;
    const FIXED_TEXT: bool;

    fn into_value(self) -> Value;

    fn to_value(&self) -> Value {
        self.clone().into_value()
    }

    /// `Value::wire_size` of this value.
    fn wire_size(&self) -> usize;

    /// `Value::text_wire_size` of this value, less the framing.
    fn text_size(&self) -> usize;

    /// Fold this value into a running segmentation hash: the
    /// [`common::hash`] fold of its type.
    fn fold(&self, state: u64) -> u64;

    /// [`Native::fold`] on [`LANES`] states at once, `values[l]` into
    /// `states[l]`; a lane whose bit of `valid` is clear folds a NULL
    /// instead. One value's fold is a chain of dependent multiplications;
    /// the fixed-width types feed their bytes to all eight chains in
    /// lockstep, so that the chains run side by side. Bit for bit the
    /// scalar folds.
    fn fold_lanes(values: &[Self; LANES], valid: u8, states: &mut [u64; LANES]) {
        for (l, (v, s)) in values.iter().zip(states).enumerate() {
            *s = if valid >> l & 1 == 1 {
                v.fold(*s)
            } else {
                hash::fold_null(*s)
            };
        }
    }

    /// A total order in which values that are `==` compare equal
    /// (`-0.0` with `0.0`; a NaN equals nothing, so it may sit anywhere).
    fn total_order(&self, other: &Self) -> Ordering;

    /// Whether this is a NaN: the one value that orders with nothing.
    fn is_nan(&self) -> bool {
        false
    }
}

/// Values a lane kernel ([`Native::fold_lanes`]) takes at once.
pub const LANES: usize = 8;

/// The lane form of the fixed-width folds: `bytes[l]` (what the
/// [`common::hash`] fold of lane `l`'s value feeds) into `states[l]`, one
/// byte of every lane per step.
#[inline(always)]
fn fold_bytes_lanes<const N: usize>(bytes: [[u8; N]; LANES], valid: u8, states: &mut [u64; LANES]) {
    let mut folded = *states;
    for k in 0..N {
        for (s, b) in folded.iter_mut().zip(&bytes) {
            *s = hash::fnv1a_step(*s, b[k]);
        }
    }
    for (l, (s, f)) in states.iter_mut().zip(folded).enumerate() {
        *s = if valid >> l & 1 == 1 {
            f
        } else {
            hash::fold_null(*s)
        };
    }
}

/// `Value::text_wire_size`'s per-value protocol framing.
const TEXT_FRAMING: usize = 6;

impl Native for bool {
    const FIXED_WIRE: bool = true;
    const FIXED_TEXT: bool = true;
    fn into_value(self) -> Value {
        Value::Boolean(self)
    }
    fn wire_size(&self) -> usize {
        1
    }
    fn text_size(&self) -> usize {
        5
    }
    fn fold(&self, state: u64) -> u64 {
        hash::fold_bool(state, *self)
    }
    fn fold_lanes(values: &[bool; LANES], valid: u8, states: &mut [u64; LANES]) {
        fold_bytes_lanes(values.map(hash::bool_bytes), valid, states)
    }
    fn total_order(&self, other: &bool) -> Ordering {
        self.cmp(other)
    }
}

impl Native for i64 {
    const FIXED_WIRE: bool = true;
    const FIXED_TEXT: bool = false;
    fn into_value(self) -> Value {
        Value::Int64(self)
    }
    fn wire_size(&self) -> usize {
        8
    }
    fn text_size(&self) -> usize {
        Value::Int64(*self).text_wire_size() - TEXT_FRAMING
    }
    fn fold(&self, state: u64) -> u64 {
        hash::fold_i64(state, *self)
    }
    fn fold_lanes(values: &[i64; LANES], valid: u8, states: &mut [u64; LANES]) {
        fold_bytes_lanes(values.map(hash::i64_bytes), valid, states)
    }
    fn total_order(&self, other: &i64) -> Ordering {
        self.cmp(other)
    }
}

impl Native for f64 {
    const FIXED_WIRE: bool = true;
    const FIXED_TEXT: bool = true;
    fn into_value(self) -> Value {
        Value::Float64(self)
    }
    fn wire_size(&self) -> usize {
        8
    }
    fn text_size(&self) -> usize {
        17
    }
    fn fold(&self, state: u64) -> u64 {
        hash::fold_f64(state, *self)
    }
    fn fold_lanes(values: &[f64; LANES], valid: u8, states: &mut [u64; LANES]) {
        fold_bytes_lanes(values.map(hash::f64_bytes), valid, states)
    }
    fn total_order(&self, other: &f64) -> Ordering {
        // Adding zero turns `-0.0` into `0.0` and changes nothing else.
        f64::total_cmp(&(self + 0.0), &(other + 0.0))
    }
    fn is_nan(&self) -> bool {
        f64::is_nan(*self)
    }
}

impl Native for String {
    const FIXED_WIRE: bool = false;
    const FIXED_TEXT: bool = false;
    fn into_value(self) -> Value {
        Value::Varchar(self)
    }
    fn wire_size(&self) -> usize {
        4 + self.len()
    }
    fn text_size(&self) -> usize {
        self.len()
    }
    fn fold(&self, state: u64) -> u64 {
        hash::fold_str(state, self)
    }
    fn total_order(&self, other: &String) -> Ordering {
        self.cmp(other)
    }
}

/// Values of one native type with a validity bitmap. Invalid positions
/// hold `T::default()` in `data` and decode as [`Value::Null`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TypedVec<T> {
    data: Vec<T>,
    validity: Bitmap,
    /// Number of invalid positions, kept beside the bitmap so that a
    /// column without NULLs is known as such without counting bits.
    nulls: usize,
}

impl<T: Native> TypedVec<T> {
    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn null_count(&self) -> usize {
        self.nulls
    }

    /// Position `idx`'s value, `None` for NULL.
    pub fn get(&self, idx: usize) -> Option<&T> {
        self.validity.get(idx).then(|| &self.data[idx])
    }

    /// Every position's stored value (a NULL's is `T::default()`) and,
    /// when the column holds a NULL, the bitmap that tells which are.
    pub(crate) fn parts(&self) -> (&[T], Option<&Bitmap>) {
        (&self.data, (self.nulls > 0).then_some(&self.validity))
    }

    /// The non-null values, in position order.
    pub fn iter_valid(&self) -> impl Iterator<Item = &T> {
        let (validity, all_valid) = (&self.validity, self.nulls == 0);
        self.data
            .iter()
            .enumerate()
            .filter(move |(i, _)| all_valid || validity.get(*i))
            .map(|(_, v)| v)
    }

    fn reserve(&mut self, n: usize) {
        self.data.reserve(n);
        self.validity.reserve(n);
    }

    pub fn push(&mut self, value: T) {
        self.data.push(value);
        self.validity.push(true);
    }

    pub fn push_nulls(&mut self, n: usize) {
        self.data.resize(self.data.len() + n, T::default());
        self.validity.extend_constant(false, n);
        self.nulls += n;
    }

    fn value(&self, idx: usize) -> Value {
        self.get(idx).map_or(Value::Null, T::to_value)
    }

    /// Move positions `start..` out into every `width`-th slot of
    /// `slots`, one per row of a row-major tile (at most 64 rows); a
    /// NULL position leaves its slot as it is.
    fn take_tile(&mut self, start: usize, slots: &mut [Value], width: usize) {
        let valid = self.validity.bits_at(start);
        let rows = slots.iter_mut().step_by(width);
        for (k, (value, slot)) in self.data[start..].iter_mut().zip(rows).enumerate() {
            if valid >> k & 1 == 1 {
                *slot = std::mem::take(value).into_value();
            }
        }
    }

    /// [`TypedVec::take_tile`] as it was before rows shared a block:
    /// positions `start..start + tile.len()` pushed onto the end of each
    /// row of `tile`. The reference of the window property.
    #[cfg(test)]
    fn take_tile_rows(&mut self, start: usize, tile: &mut [Vec<Value>]) {
        let valid = self.validity.bits_at(start);
        let slots = &mut self.data[start..start + tile.len()];
        for (k, (slot, row)) in slots.iter_mut().zip(tile).enumerate() {
            row.push(if valid >> k & 1 == 1 {
                std::mem::take(slot).into_value()
            } else {
                Value::Null
            });
        }
    }

    /// The positions in groups of [`LANES`], as the lane kernel takes
    /// them: each whole group's values with a bit per lane, set when the
    /// lane's value is not NULL; then the positions left over, if any,
    /// as one group padded with NULL lanes.
    #[allow(clippy::type_complexity)]
    pub(crate) fn lane_groups(
        &self,
    ) -> (
        impl Iterator<Item = (&[T; LANES], u8)>,
        Option<([T; LANES], u8)>,
    ) {
        let valid = |start: usize| {
            if self.nulls == 0 {
                u8::MAX
            } else {
                self.validity.bits_at(start) as u8
            }
        };
        let (groups, rest) = self.data.as_chunks::<LANES>();
        let tail = (!rest.is_empty()).then(|| {
            let padded = std::array::from_fn(|l| rest.get(l).cloned().unwrap_or_default());
            let start = self.len() - rest.len();
            (padded, valid(start) & (u8::MAX >> (LANES - rest.len())))
        });
        let whole = groups
            .iter()
            .enumerate()
            .map(move |(g, values)| (values, valid(g * LANES)));
        (whole, tail)
    }

    /// Fold position `i` into `hashes[i]`, for every position: one
    /// column's step of the row-wise segmentation hash, through the lane
    /// kernel.
    pub fn fold_hash(&self, hashes: &mut [u64]) {
        debug_assert_eq!(hashes.len(), self.len());
        let (groups, tail) = self.lane_groups();
        let (hash_groups, hash_tail) = hashes.as_chunks_mut::<LANES>();
        for ((values, valid), states) in groups.zip(hash_groups) {
            T::fold_lanes(values, valid, states);
        }
        if let Some((values, valid)) = tail {
            let mut states = [0; LANES];
            states[..hash_tail.len()].copy_from_slice(hash_tail);
            T::fold_lanes(&values, valid, &mut states);
            hash_tail.copy_from_slice(&states[..hash_tail.len()]);
        }
    }

    /// Costs the length of the tail dropped, not of the vector: a load
    /// takes back one rejected row at a time.
    fn truncate(&mut self, len: usize) {
        if len >= self.len() {
            return;
        }
        self.nulls -= (self.len() - len) - self.validity.count_valid_from(len);
        self.data.truncate(len);
        self.validity.truncate(len);
    }

    fn append(&mut self, other: TypedVec<T>) {
        if self.data.is_empty() {
            *self = other;
        } else {
            self.nulls += other.nulls;
            self.validity
                .extend_from_range(&other.validity, 0, other.len());
            self.data.extend(other.data);
        }
    }

    /// Append `src[start..start + n]`: one slice copy and a word-wise
    /// bitmap append.
    fn extend_from_range(&mut self, src: &TypedVec<T>, start: usize, n: usize) {
        self.data.extend_from_slice(&src.data[start..start + n]);
        self.nulls += n - self.validity.extend_from_range(&src.validity, start, n);
    }

    /// Append `src[i]` for every `i` in `idx`, with one reservation.
    fn gather_from(&mut self, src: &TypedVec<T>, idx: &[u32]) {
        self.data.reserve(idx.len());
        self.data
            .extend(idx.iter().map(|&i| src.data[i as usize].clone()));
        if src.nulls == 0 {
            self.validity.extend_constant(true, idx.len());
        } else {
            self.nulls += idx.len() - self.validity.extend_gather(&src.validity, idx);
        }
    }

    fn wire_size(&self) -> usize {
        // A NULL takes one byte on the wire.
        self.nulls + self.sum_valid(T::FIXED_WIRE, T::wire_size)
    }

    fn text_wire_size(&self) -> usize {
        self.len() * TEXT_FRAMING + self.sum_valid(T::FIXED_TEXT, T::text_size)
    }

    /// Add the wire size of position `idx[k]` to `out[k]`, for every `k`.
    fn add_wire_sizes(&self, idx: &[u32], out: &mut [u64]) {
        if T::FIXED_WIRE && self.nulls == 0 {
            let width = T::default().wire_size() as u64;
            out.iter_mut().for_each(|o| *o += width);
            return;
        }
        for (o, &i) in out.iter_mut().zip(idx) {
            *o += self.get(i as usize).map_or(1, T::wire_size) as u64;
        }
    }

    /// Sum of `size` over the non-null values; a multiplication when
    /// every value has the same size.
    fn sum_valid(&self, fixed: bool, size: impl Fn(&T) -> usize) -> usize {
        if fixed {
            (self.len() - self.nulls) * size(&T::default())
        } else {
            self.iter_valid().map(size).sum()
        }
    }
}

/// One typed column vector with a validity bitmap.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnVec {
    Boolean(TypedVec<bool>),
    Int64(TypedVec<i64>),
    Float64(TypedVec<f64>),
    Varchar(TypedVec<String>),
}

/// Run `$body` with `$v` bound to the [`TypedVec`] inside `$col`,
/// whichever type it holds.
macro_rules! each_column_type {
    ($col:expr, $v:ident => $body:expr) => {
        match $col {
            $crate::storage::batch::ColumnVec::Boolean($v) => $body,
            $crate::storage::batch::ColumnVec::Int64($v) => $body,
            $crate::storage::batch::ColumnVec::Float64($v) => $body,
            $crate::storage::batch::ColumnVec::Varchar($v) => $body,
        }
    };
}
pub(crate) use each_column_type;

/// Run `$body` with `$x`/`$y` bound to the [`TypedVec`]s inside `$a` and
/// `$b` when both hold the same type, `$other` otherwise.
macro_rules! same_column_type {
    ($a:expr, $b:expr, ($x:ident, $y:ident) => $body:expr, _ => $other:expr) => {
        match ($a, $b) {
            (ColumnVec::Boolean($x), ColumnVec::Boolean($y)) => $body,
            (ColumnVec::Int64($x), ColumnVec::Int64($y)) => $body,
            (ColumnVec::Float64($x), ColumnVec::Float64($y)) => $body,
            (ColumnVec::Varchar($x), ColumnVec::Varchar($y)) => $body,
            _ => $other,
        }
    };
}

impl ColumnVec {
    pub fn new(dtype: DataType) -> ColumnVec {
        match dtype {
            DataType::Boolean => ColumnVec::Boolean(TypedVec::default()),
            DataType::Int64 => ColumnVec::Int64(TypedVec::default()),
            DataType::Float64 => ColumnVec::Float64(TypedVec::default()),
            DataType::Varchar => ColumnVec::Varchar(TypedVec::default()),
        }
    }

    pub fn dtype(&self) -> DataType {
        match self {
            ColumnVec::Boolean(_) => DataType::Boolean,
            ColumnVec::Int64(_) => DataType::Int64,
            ColumnVec::Float64(_) => DataType::Float64,
            ColumnVec::Varchar(_) => DataType::Varchar,
        }
    }

    pub fn len(&self) -> usize {
        each_column_type!(self, v => v.len())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn null_count(&self) -> usize {
        each_column_type!(self, v => v.null_count())
    }

    pub fn reserve(&mut self, n: usize) {
        each_column_type!(self, v => v.reserve(n))
    }

    pub fn capacity(&self) -> usize {
        each_column_type!(self, v => v.data.capacity())
    }

    /// Append a NULL or a value of exactly this vector's type; any other
    /// value is handed back.
    pub fn push_exact(&mut self, value: Value) -> Option<Value> {
        match (self, value) {
            (ColumnVec::Boolean(v), Value::Boolean(b)) => v.push(b),
            (ColumnVec::Int64(v), Value::Int64(i)) => v.push(i),
            (ColumnVec::Float64(v), Value::Float64(f)) => v.push(f),
            (ColumnVec::Varchar(v), Value::Varchar(s)) => v.push(s),
            (col, Value::Null) => col.push_nulls(1),
            (_, other) => return Some(other),
        }
        None
    }

    /// Append one value. NULL is storable in any column; `Int64` widens
    /// to `Float64` exactly as the row insert path coerces.
    pub fn push(&mut self, value: Value) -> Result<()> {
        match (self.push_exact(value), self) {
            (None, _) => {}
            (Some(Value::Int64(i)), ColumnVec::Float64(v)) => v.push(i as f64),
            (Some(v), col) => {
                return Err(Error::TypeMismatch {
                    expected: col.dtype().sql_name().to_string(),
                    found: v.type_name().to_string(),
                })
            }
        }
        Ok(())
    }

    pub fn push_nulls(&mut self, n: usize) {
        each_column_type!(self, v => v.push_nulls(n))
    }

    /// Decode position `idx` into a [`Value`] (clones strings).
    pub fn value(&self, idx: usize) -> Value {
        each_column_type!(self, v => v.value(idx))
    }

    /// Append `src[start..start + n]` as one slice copy. `false` (and
    /// nothing appended) when `src` holds another type.
    pub fn extend_from_range(&mut self, src: &ColumnVec, start: usize, n: usize) -> bool {
        same_column_type!(self, src, (a, b) => a.extend_from_range(b, start, n), _ => return false);
        true
    }

    /// Append `src[i]` for every `i` in `idx`, typed vector to typed
    /// vector. `false` (and nothing appended) when `src` holds another
    /// type.
    pub fn gather_from(&mut self, src: &ColumnVec, idx: &[u32]) -> bool {
        same_column_type!(self, src, (a, b) => a.gather_from(b, idx), _ => return false);
        true
    }

    /// [`TypedVec::fold_hash`] of whichever type this holds.
    pub fn fold_hash(&self, hashes: &mut [u64]) {
        each_column_type!(self, v => v.fold_hash(hashes))
    }

    /// Binary wire size: byte-identical to summing `Value::wire_size`.
    pub fn wire_size(&self) -> usize {
        each_column_type!(self, v => v.wire_size())
    }

    /// Textual (JDBC result set) wire size: byte-identical to summing
    /// `Value::text_wire_size`.
    pub fn text_wire_size(&self) -> usize {
        each_column_type!(self, v => v.text_wire_size())
    }

    /// Add `Value::wire_size` of position `idx[k]` to `out[k]`, for
    /// every `k`: validity bits and string lengths are read, no value is.
    pub(crate) fn add_wire_sizes(&self, idx: &[u32], out: &mut [u64]) {
        each_column_type!(self, v => v.add_wire_sizes(idx, out))
    }

    pub fn truncate(&mut self, len: usize) {
        each_column_type!(self, v => v.truncate(len))
    }

    pub fn append(&mut self, other: ColumnVec) -> Result<()> {
        let (expected, found) = (self.dtype(), other.dtype());
        same_column_type!(self, other, (a, b) => a.append(b), _ => {
            return Err(Error::TypeMismatch {
                expected: expected.sql_name().to_string(),
                found: found.sql_name().to_string(),
            })
        });
        Ok(())
    }
}

/// Rows per tile of [`ColumnBatch::into_rows`]. A tile of 100-column
/// rows is 38 KB of `Value`s; at most 64, one validity word.
const ROW_TILE: usize = 16;

/// A batch of rows in columnar form, plus the per-row segmentation
/// hashes (kept so hash-range filtering and re-routing never decode a
/// data column).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColumnBatch {
    columns: Vec<ColumnVec>,
    hashes: Vec<u64>,
}

impl ColumnBatch {
    pub fn new(dtypes: &[DataType]) -> ColumnBatch {
        ColumnBatch {
            columns: dtypes.iter().map(|&t| ColumnVec::new(t)).collect(),
            hashes: Vec::new(),
        }
    }

    pub fn num_rows(&self) -> usize {
        self.hashes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.num_rows() == 0
    }

    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    pub fn column(&self, idx: usize) -> &ColumnVec {
        &self.columns[idx]
    }

    pub(crate) fn column_mut(&mut self, idx: usize) -> &mut ColumnVec {
        &mut self.columns[idx]
    }

    pub fn hashes(&self) -> &[u64] {
        &self.hashes
    }

    pub(crate) fn extend_hashes(&mut self, hashes: impl IntoIterator<Item = u64>) {
        self.hashes.extend(hashes);
    }

    /// Append one value to column `col`. Callers fill whole columns for
    /// a run of rows and then push the hashes; [`ColumnBatch::push_hash`]
    /// closes each row group.
    pub fn push(&mut self, col: usize, value: Value) -> Result<()> {
        self.columns[col].push(value)
    }

    pub fn push_hash(&mut self, hash: u64) {
        self.hashes.push(hash);
    }

    /// Decode row `idx` into an owned [`Row`].
    pub fn row(&self, idx: usize) -> Row {
        Row::new(self.columns.iter().map(|c| c.value(idx)).collect())
    }

    /// Materialize all rows, moving values out of the batch (strings
    /// are not cloned). This is the batch → row boundary. The rows are
    /// windows onto one row-major block ([`common::row::split_block`]):
    /// a batch makes one allocation for its values, not one per row.
    /// The transpose runs in tiles of `ROW_TILE` rows: every column
    /// visits the tile before the next tile starts, so each row is
    /// written once while it is still in cache.
    pub fn into_rows(self) -> Vec<Row> {
        let n = self.num_rows();
        let width = self.columns.len();
        let mut columns = self.columns;
        let mut block: Vec<Value> = Vec::with_capacity(n * width);
        for start in (0..n).step_by(ROW_TILE) {
            let tile_start = block.len();
            let rows = (start + ROW_TILE).min(n) - start;
            block.resize_with(tile_start + rows * width, || Value::Null);
            let tile = &mut block[tile_start..];
            for (c, col) in columns.iter_mut().enumerate() {
                debug_assert_eq!(col.len(), n);
                each_column_type!(col, v => v.take_tile(start, &mut tile[c..], width));
            }
        }
        common::row::split_block(block, n)
    }

    /// [`ColumnBatch::into_rows`] as it was before rows shared a block:
    /// one owned row per row, filled tile by tile.
    #[cfg(test)]
    fn into_owned_rows(self) -> Vec<Row> {
        let n = self.num_rows();
        let ncols = self.columns.len();
        let mut columns = self.columns;
        let mut rows = Vec::with_capacity(n);
        let mut tile: Vec<Vec<Value>> = Vec::with_capacity(ROW_TILE);
        for start in (0..n).step_by(ROW_TILE) {
            let end = (start + ROW_TILE).min(n);
            tile.extend((start..end).map(|_| Vec::with_capacity(ncols)));
            for col in &mut columns {
                each_column_type!(col, v => v.take_tile_rows(start, &mut tile));
            }
            rows.extend(tile.drain(..).map(Row::new));
        }
        rows
    }

    /// Binary wire size of the batch; equals the sum of
    /// `Row::wire_size` over [`ColumnBatch::into_rows`].
    pub fn wire_size(&self) -> usize {
        self.columns.iter().map(ColumnVec::wire_size).sum()
    }

    /// Textual wire size of the batch; equals the sum of
    /// `Row::text_wire_size` over [`ColumnBatch::into_rows`].
    pub fn text_wire_size(&self) -> usize {
        let per_row_overhead = self.columns.len() + 10;
        self.columns
            .iter()
            .map(ColumnVec::text_wire_size)
            .sum::<usize>()
            + self.num_rows() * per_row_overhead
    }

    pub fn truncate(&mut self, len: usize) {
        for col in &mut self.columns {
            col.truncate(len);
        }
        self.hashes.truncate(len);
    }

    /// Append another batch of the same layout (deterministic segment
    /// merge: pieces are appended in segment order).
    pub fn append(&mut self, other: ColumnBatch) -> Result<()> {
        debug_assert_eq!(self.columns.len(), other.columns.len());
        for (col, ocol) in self.columns.iter_mut().zip(other.columns) {
            col.append(ocol)?;
        }
        self.hashes.extend(other.hashes);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::row;

    /// The four properties of the lane kernel and its callers — the
    /// column-wise hash, the statistics, the encoding choice and the
    /// container build against their row references — over eight more
    /// seed sets each.
    /// `scripts/check.sh` runs this once with `--ignored`.
    #[test]
    #[ignore = "eight more seed sets of the kernel properties; check.sh runs them"]
    fn lane_kernels_match_the_references_eight_more_seed_sets() {
        for base in 1..=8 {
            crate::copy::differential::column_wise_hash_matches(base);
            crate::storage::stats::tests::stats_match_the_reference(base);
            crate::storage::encoding::tests::encodings_match_the_reference(base);
            crate::storage::store::tests::built_containers_match_the_reference(base);
        }
    }

    #[test]
    fn bitmap_push_get_truncate() {
        let mut b = Bitmap::new();
        for i in 0..130 {
            b.push(i % 3 == 0);
        }
        assert_eq!(b.len(), 130);
        for i in 0..130 {
            assert_eq!(b.get(i), i % 3 == 0, "bit {i}");
        }
        assert_eq!(b.count_valid(), (0..130).filter(|i| i % 3 == 0).count());
        b.truncate(65);
        assert_eq!(b.len(), 65);
        assert_eq!(b.count_valid(), (0..65).filter(|i| i % 3 == 0).count());
    }

    #[test]
    fn bitmap_word_wise_appends_match_pushes() {
        let src: Vec<bool> = (0..300).map(|i| i % 3 == 0 || i % 7 == 2).collect();
        let mut bits = Bitmap::new();
        src.iter().for_each(|&b| bits.push(b));
        // Every alignment of destination length, source start and count
        // against the 64-bit word.
        for prefix in [0usize, 1, 63, 64, 65] {
            for (start, n) in [
                (0usize, 0usize),
                (0, 300),
                (5, 64),
                (63, 130),
                (64, 64),
                (130, 1),
            ] {
                let idx: Vec<u32> = (start..start + n).rev().map(|i| i as u32).collect();
                let (mut ranged, mut gathered, mut constant, mut pushed) =
                    (Bitmap::new(), Bitmap::new(), Bitmap::new(), Bitmap::new());
                for b in [&mut ranged, &mut gathered, &mut constant, &mut pushed] {
                    b.extend_constant(true, prefix);
                }
                ranged.extend_from_range(&bits, start, n);
                src[start..start + n].iter().for_each(|&b| pushed.push(b));
                assert_eq!(ranged, pushed, "range {prefix}+[{start}; {n}]");
                gathered.extend_gather(&bits, &idx);
                constant.extend_constant(false, n);
                let mut expect = (Bitmap::new(), Bitmap::new());
                (0..prefix).for_each(|_| {
                    expect.0.push(true);
                    expect.1.push(true)
                });
                idx.iter().for_each(|&i| expect.0.push(src[i as usize]));
                (0..n).for_each(|_| expect.1.push(false));
                assert_eq!(gathered, expect.0, "gather {prefix}+[{start}; {n}]");
                assert_eq!(constant, expect.1, "constant {prefix}+{n}");
                assert_eq!(
                    ranged.count_valid(),
                    (0..ranged.len()).filter(|&i| ranged.get(i)).count()
                );
            }
        }
    }

    #[test]
    fn column_vec_round_trip_with_nulls() {
        let mut c = ColumnVec::new(DataType::Varchar);
        c.push(Value::Varchar("a".into())).unwrap();
        c.push(Value::Null).unwrap();
        c.push(Value::Varchar("bc".into())).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.value(0), Value::Varchar("a".into()));
        assert_eq!(c.value(1), Value::Null);
        assert_eq!(c.value(2), Value::Varchar("bc".into()));
        // wire sizes equal the row-at-a-time sums.
        assert_eq!(
            c.wire_size(),
            Value::Varchar("a".into()).wire_size()
                + Value::Null.wire_size()
                + Value::Varchar("bc".into()).wire_size()
        );
        assert_eq!(
            c.text_wire_size(),
            Value::Varchar("a".into()).text_wire_size()
                + Value::Null.text_wire_size()
                + Value::Varchar("bc".into()).text_wire_size()
        );
    }

    #[test]
    fn column_vec_type_checked_with_widening() {
        let mut c = ColumnVec::new(DataType::Float64);
        c.push(Value::Int64(3)).unwrap();
        assert_eq!(c.value(0), Value::Float64(3.0));
        assert!(c.push(Value::Varchar("x".into())).is_err());
    }

    #[test]
    fn batch_into_rows_matches_layout() {
        let mut b = ColumnBatch::new(&[DataType::Int64, DataType::Varchar]);
        for i in [1i64, 2] {
            b.push(0, Value::Int64(i)).unwrap();
        }
        for s in ["a", "b"] {
            b.push(1, Value::Varchar(s.to_string())).unwrap();
        }
        b.push_hash(10);
        b.push_hash(20);
        assert_eq!(b.num_rows(), 2);
        assert_eq!(b.row(1), row![2i64, "b"]);
        let rows = b.into_rows();
        assert_eq!(rows, vec![row![1i64, "a"], row![2i64, "b"]]);
    }

    #[test]
    fn batch_wire_sizes_match_rows() {
        let mut b = ColumnBatch::new(&[DataType::Int64, DataType::Varchar, DataType::Float64]);
        let rows = vec![
            row![1i64, "alpha", 1.5f64],
            Row::new(vec![Value::Null, Value::Null, Value::Null]),
            row![-42i64, "", 0.0f64],
        ];
        for r in &rows {
            for (c, v) in r.values().iter().enumerate() {
                b.push(c, v.clone()).unwrap();
            }
            b.push_hash(0);
        }
        assert_eq!(
            b.wire_size(),
            rows.iter().map(Row::wire_size).sum::<usize>()
        );
        assert_eq!(
            b.text_wire_size(),
            rows.iter().map(Row::text_wire_size).sum::<usize>()
        );
    }

    /// `n` rows of (BIGINT, VARCHAR, FLOAT, BOOLEAN) with NULLs sprinkled
    /// through every column.
    fn wide_batch(n: usize) -> ColumnBatch {
        let mut b = ColumnBatch::new(&[
            DataType::Int64,
            DataType::Varchar,
            DataType::Float64,
            DataType::Boolean,
        ]);
        for i in 0..n {
            let null = |every: usize, v: Value| if i % every == 1 { Value::Null } else { v };
            b.push(0, null(5, Value::Int64(i as i64 * 37 - 1000)))
                .unwrap();
            b.push(1, null(3, Value::Varchar(format!("row-{i}"))))
                .unwrap();
            b.push(2, null(7, Value::Float64(i as f64 / 4.0))).unwrap();
            b.push(3, null(2, Value::Boolean(i % 3 == 0))).unwrap();
            b.push_hash(i as u64);
        }
        b
    }

    #[test]
    fn tiled_into_rows_matches_row_at_a_time_and_moves_strings() {
        for n in [0, 1, ROW_TILE - 1, ROW_TILE, ROW_TILE + 1, 5_000] {
            let b = wide_batch(n);
            let expected: Vec<Row> = (0..n).map(|i| b.row(i)).collect();
            assert_eq!(
                b.wire_size(),
                expected.iter().map(Row::wire_size).sum::<usize>(),
                "wire size of {n} rows"
            );
            assert_eq!(
                b.text_wire_size(),
                expected.iter().map(Row::text_wire_size).sum::<usize>(),
                "text wire size of {n} rows"
            );
            let ColumnVec::Varchar(strings) = b.column(1) else {
                panic!("column 1 is VARCHAR");
            };
            let buffers: Vec<*const u8> = strings.data.iter().map(|s| s.as_ptr()).collect();
            let rows = b.into_rows();
            assert_eq!(rows, expected, "{n} rows");
            for (row, buffer) in rows.iter().zip(buffers) {
                if let Value::Varchar(s) = row.get(1) {
                    assert_eq!(s.as_ptr(), buffer, "moved, not cloned");
                }
            }
        }
    }

    #[test]
    fn typed_gather_and_range_copy_match_pushes() {
        let src = wide_batch(200);
        let idx: Vec<u32> = (0..200).filter(|i| i % 3 != 0).collect();
        for c in 0..src.num_columns() {
            let col = src.column(c);
            let mut gathered = ColumnVec::new(col.dtype());
            let mut ranged = ColumnVec::new(col.dtype());
            let (mut by_idx, mut by_range) = (gathered.clone(), gathered.clone());
            // Onto a non-empty destination, so the bitmaps are unaligned.
            for v in [&mut gathered, &mut ranged, &mut by_idx, &mut by_range] {
                v.push(Value::Null).unwrap();
            }
            assert!(gathered.gather_from(col, &idx));
            assert!(ranged.extend_from_range(col, 70, 100));
            idx.iter()
                .for_each(|&i| by_idx.push(col.value(i as usize)).unwrap());
            (70..170).for_each(|i| by_range.push(col.value(i)).unwrap());
            assert_eq!(gathered, by_idx);
            assert_eq!(ranged, by_range);
            // Another type is refused untouched.
            let mut other = ColumnVec::new(src.column((c + 1) % 4).dtype());
            assert!(!other.gather_from(col, &idx) && !other.extend_from_range(col, 0, 1));
            assert!(other.is_empty());
        }
    }

    #[test]
    fn batch_append_and_truncate() {
        let mut a = ColumnBatch::new(&[DataType::Int64]);
        a.push(0, Value::Int64(1)).unwrap();
        a.push_hash(1);
        let mut b = ColumnBatch::new(&[DataType::Int64]);
        b.push(0, Value::Int64(2)).unwrap();
        b.push_hash(2);
        b.push(0, Value::Int64(3)).unwrap();
        b.push_hash(3);
        a.append(b).unwrap();
        assert_eq!(a.num_rows(), 3);
        assert_eq!(a.hashes(), &[1, 2, 3]);
        a.truncate(2);
        assert_eq!(a.num_rows(), 2);
        assert_eq!(a.row(1), row![2i64]);
    }
}

/// Rows that are windows onto a shared block against the owned rows of
/// the per-row transposition they replaced
/// ([`ColumnBatch::into_owned_rows`]).
#[cfg(test)]
mod windows {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    const TYPES: [DataType; 4] = [
        DataType::Boolean,
        DataType::Int64,
        DataType::Float64,
        DataType::Varchar,
    ];

    fn random_value(rng: &mut StdRng, dtype: DataType, null_pct: u32) -> Value {
        if rng.random_range(0..100) < null_pct {
            return Value::Null;
        }
        match dtype {
            DataType::Boolean => Value::Boolean(rng.random_bool(0.5)),
            DataType::Int64 => Value::Int64(rng.random_range(-1_000..1_000)),
            DataType::Float64 => Value::Float64(match rng.random_range(0..20) {
                0 => f64::NAN,
                1 => -0.0,
                _ => rng.random_range(-4_000..4_000) as f64 / 8.0,
            }),
            DataType::Varchar => {
                let len = rng.random_range(0..6);
                Value::Varchar(
                    (0..len)
                        .map(|_| rng.random_range(0..10).to_string())
                        .collect(),
                )
            }
        }
    }

    /// A batch of zero to five columns, each a projection of a generated
    /// column (a column may appear twice), of zero to three tiles of rows.
    fn random_batch(rng: &mut StdRng) -> ColumnBatch {
        let rows = match rng.random_range(0..4) {
            0 => 0,
            1 => rng.random_range(1..ROW_TILE + 2),
            _ => rng.random_range(0..3 * ROW_TILE + 5),
        };
        let sources: Vec<(DataType, Vec<Value>)> = (0..rng.random_range(1..4))
            .map(|_| {
                let dtype = TYPES[rng.random_range(0..TYPES.len())];
                let null_pct = [0, 10, 50, 100][rng.random_range(0..4)];
                let values = (0..rows)
                    .map(|_| random_value(rng, dtype, null_pct))
                    .collect();
                (dtype, values)
            })
            .collect();
        let projection: Vec<usize> = (0..rng.random_range(0..6))
            .map(|_| rng.random_range(0..sources.len()))
            .collect();
        let dtypes: Vec<DataType> = projection.iter().map(|&s| sources[s].0).collect();
        let mut batch = ColumnBatch::new(&dtypes);
        for (c, &s) in projection.iter().enumerate() {
            for v in &sources[s].1 {
                batch.push(c, v.clone()).unwrap();
            }
        }
        (0..rows).for_each(|r| batch.push_hash(r as u64));
        batch
    }

    /// Ordinals of `width` columns, one repeated when there are any.
    fn random_projection(rng: &mut StdRng, width: usize) -> Vec<usize> {
        if width == 0 {
            return Vec::new();
        }
        let mut indices: Vec<usize> = (0..rng.random_range(1..width + 2))
            .map(|_| rng.random_range(0..width))
            .collect();
        if rng.random_bool(0.5) {
            indices.push(indices[0]);
        }
        indices
    }

    /// `got` and `want` read alike: `==` (equal unless a NaN makes
    /// `want` unequal even to itself), `Debug`, length and both wire
    /// sizes.
    fn assert_alike(got: &Row, want: &Row, what: &str) {
        let nan = |v: &Value| matches!(v, Value::Float64(f) if f.is_nan());
        let equal = !want.values().iter().any(nan);
        assert_eq!(got == want, equal, "{what}: ==");
        assert_eq!(want == got, equal, "{what}: == reversed");
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "{what}: Debug");
        assert_eq!(format!("{got:#?}"), format!("{want:#?}"), "{what}: {{:#?}}");
        assert_eq!(
            (got.len(), got.is_empty()),
            (want.len(), want.is_empty()),
            "{what}"
        );
        assert_eq!(got.wire_size(), want.wire_size(), "{what}: wire size");
        assert_eq!(
            got.text_wire_size(),
            want.text_wire_size(),
            "{what}: text wire size"
        );
    }

    /// 256 random batches of seed set `base`: every row of `into_rows`
    /// against the reference row, under every `Row` operation.
    fn windows_match_owned_rows(base: u64) {
        for case in 0..256 {
            let mut rng = StdRng::seed_from_u64(base * 1_000 + case);
            let batch = random_batch(&mut rng);
            let what = format!(
                "seed set {base}, case {case}: {} x {}",
                batch.num_rows(),
                batch.num_columns()
            );
            let want = batch.clone().into_owned_rows();
            let mut got = batch.into_rows();
            assert_eq!(got.len(), want.len(), "{what}");
            for (r, (g, w)) in got.iter().zip(&want).enumerate() {
                let what = format!("{what}, row {r}");
                assert_alike(g, w, &what);
                assert_alike(&g.clone(), w, &format!("{what}, clone"));
                let indices = random_projection(&mut rng, w.len());
                assert_alike(&g.project(&indices), &w.project(&indices), &what);
                assert_alike(
                    &g.clone().into_projected(&indices),
                    &w.clone().into_projected(&indices),
                    &format!("{what}, into_projected {indices:?}"),
                );
                assert_eq!(
                    format!("{:?}", g.clone().into_values()),
                    format!("{:?}", w.clone().into_values()),
                    "{what}: into_values"
                );
            }
            // `set` changes its own row only: every other row of the
            // block, and the clone it was taken from, read as before.
            if let Some(r) = (!want.is_empty()).then(|| rng.random_range(0..want.len())) {
                let width = want[r].len();
                if width > 0 {
                    let c = rng.random_range(0..width);
                    let value = Value::Varchar("set".into());
                    let before = got[r].clone();
                    let mut expect = want[r].clone();
                    got[r].set(c, value.clone());
                    expect.set(c, value);
                    assert_alike(&got[r], &expect, &format!("{what}, row {r} after set"));
                    assert_alike(&before, &want[r], &format!("{what}, row {r}'s clone"));
                    got[r] = before;
                }
                for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_alike(g, w, &format!("{what}, row {k} after row {r}'s set"));
                }
            }
        }
    }

    #[test]
    fn windows_behave_like_owned_rows() {
        windows_match_owned_rows(0);
    }

    /// `scripts/check.sh` runs this once with `--ignored`.
    #[test]
    #[ignore = "eight more seed sets of the window property; check.sh runs them"]
    fn windows_behave_like_owned_rows_eight_more_seed_sets() {
        for base in 1..=8 {
            windows_match_owned_rows(base);
        }
    }
}
