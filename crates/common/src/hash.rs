//! The 64-bit segmentation hash.
//!
//! The database distributes table data by hashing the segmentation
//! columns of each row onto a 64-bit ring; contiguous hash ranges
//! ("segments") are assigned to nodes (paper Sec. 2.1.1 and 3.1.2).
//! The connector computes the *same* hash client-side when formulating
//! locality-aware range queries, so the function lives in the shared
//! crate and must be stable.
//!
//! The implementation is FNV-1a over a canonical byte encoding of each
//! value, which is cheap, deterministic, and spreads typical key
//! distributions well enough for segmentation purposes.

use crate::row::Row;
use crate::value::Value;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One FNV-1a step: feed one byte into the state.
#[inline(always)]
pub fn fnv1a_step(state: u64, byte: u8) -> u64 {
    (state ^ byte as u64).wrapping_mul(FNV_PRIME)
}

/// Feed bytes into the running FNV-1a state.
#[inline]
fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |s, &b| fnv1a_step(s, b))
}

/// The state a segmentation hash starts from. A row's hash is this
/// state folded over its segmentation columns' values in order, with the
/// `fold_*` function of each value's type; the row routines
/// ([`segmentation_hash`], [`hash_row_columns`]) and every column-wise
/// routine go through the same folds, so they cannot drift apart.
pub const HASH_SEED: u64 = FNV_OFFSET;

/// Fold a SQL NULL into the state.
#[inline]
pub fn fold_null(state: u64) -> u64 {
    fnv1a(state, &[0x00])
}

/// The bytes [`fold_bool`] feeds: the type tag, then the value.
#[inline(always)]
pub fn bool_bytes(b: bool) -> [u8; 2] {
    [0x01, b as u8]
}

/// The bytes [`fold_i64`] feeds: the type tag, then the value
/// little-endian.
#[inline(always)]
pub fn i64_bytes(i: i64) -> [u8; 9] {
    tagged_word(0x02, i as u64)
}

/// The bytes [`fold_f64`] feeds: the type tag, then the bits
/// little-endian. NaNs collapse to one bit pattern, so that every NaN
/// hashes alike, and `-0.0` to `0.0`, which it equals: a column encoding
/// keeps one of two equal values for both, and a row must hash the same
/// before and after. Every other value hashes by its bits.
#[inline(always)]
pub fn f64_bytes(f: f64) -> [u8; 9] {
    let bits = if f.is_nan() {
        f64::NAN.to_bits()
    } else {
        // Adding zero turns `-0.0` into `0.0` and changes nothing else.
        (f + 0.0).to_bits()
    };
    tagged_word(0x03, bits)
}

#[inline(always)]
fn tagged_word(tag: u8, word: u64) -> [u8; 9] {
    let mut out = [tag; 9];
    out[1..].copy_from_slice(&word.to_le_bytes());
    out
}

/// Fold a `BOOLEAN` into the state.
#[inline]
pub fn fold_bool(state: u64, b: bool) -> u64 {
    fnv1a(state, &bool_bytes(b))
}

/// Fold a `BIGINT` into the state.
#[inline]
pub fn fold_i64(state: u64, i: i64) -> u64 {
    fnv1a(state, &i64_bytes(i))
}

/// Fold a `FLOAT` into the state (see [`f64_bytes`]).
#[inline]
pub fn fold_f64(state: u64, f: f64) -> u64 {
    fnv1a(state, &f64_bytes(f))
}

/// Fold a `VARCHAR` (type tag, then its bytes) into the state.
#[inline]
pub fn fold_str(state: u64, s: &str) -> u64 {
    fnv1a(fnv1a(state, &[0x04]), s.as_bytes())
}

/// Fold a single value into the state.
#[inline]
pub fn fold_value(state: u64, value: &Value) -> u64 {
    match value {
        Value::Null => fold_null(state),
        Value::Boolean(b) => fold_bool(state, *b),
        Value::Int64(i) => fold_i64(state, *i),
        Value::Float64(f) => fold_f64(state, *f),
        Value::Varchar(s) => fold_str(state, s),
    }
}

/// Hash the given values (the segmentation expression's column values)
/// onto the 64-bit ring.
pub fn segmentation_hash(values: &[Value]) -> u64 {
    values.iter().fold(HASH_SEED, fold_value)
}

/// Hash a row's segmentation columns (by ordinal).
pub fn hash_row_columns(row: &Row, columns: &[usize]) -> u64 {
    columns
        .iter()
        .fold(HASH_SEED, |state, &c| fold_value(state, row.get(c)))
}

/// Hash an arbitrary byte string onto the ring (used for synthetic
/// hash ranges over views and unsegmented tables, paper Sec. 3.1.1).
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    #[test]
    fn deterministic_across_calls() {
        let v = vec![Value::Int64(42), Value::Varchar("abc".into())];
        assert_eq!(segmentation_hash(&v), segmentation_hash(&v));
    }

    #[test]
    fn distinguishes_types_and_values() {
        assert_ne!(
            segmentation_hash(&[Value::Int64(1)]),
            segmentation_hash(&[Value::Int64(2)])
        );
        assert_ne!(
            segmentation_hash(&[Value::Int64(1)]),
            segmentation_hash(&[Value::Varchar("1".into())])
        );
        assert_ne!(
            segmentation_hash(&[Value::Null]),
            segmentation_hash(&[Value::Varchar(String::new())])
        );
    }

    #[test]
    fn typed_folds_hash_like_the_values() {
        let seed = segmentation_hash(&[Value::Int64(7)]);
        for s in ["", "a", "héllo wörld"] {
            assert_eq!(
                fold_str(seed, s),
                segmentation_hash(&[Value::Int64(7), Value::Varchar(s.to_string())])
            );
        }
        assert_eq!(fold_null(HASH_SEED), segmentation_hash(&[Value::Null]));
        assert_eq!(
            fold_bool(HASH_SEED, true),
            segmentation_hash(&[Value::Boolean(true)])
        );
        assert_eq!(
            fold_i64(seed, -3),
            hash_row_columns(&row![7i64, -3i64], &[0, 1])
        );
        for f in [0.0, -0.0, 1.5, f64::NAN, -f64::NAN, f64::INFINITY] {
            assert_eq!(
                fold_f64(HASH_SEED, f),
                segmentation_hash(&[Value::Float64(f)])
            );
        }
    }

    #[test]
    fn row_column_subset_hashing() {
        let r = row![1i64, 2i64, 3i64];
        assert_eq!(
            hash_row_columns(&r, &[0, 2]),
            segmentation_hash(&[Value::Int64(1), Value::Int64(3)])
        );
    }

    #[test]
    fn nan_canonicalization() {
        let a = segmentation_hash(&[Value::Float64(f64::NAN)]);
        let b = segmentation_hash(&[Value::Float64(-f64::NAN)]);
        assert_eq!(a, b);
    }

    #[test]
    fn signed_zero_canonicalization() {
        let a = segmentation_hash(&[Value::Float64(0.0)]);
        let b = segmentation_hash(&[Value::Float64(-0.0)]);
        assert_eq!(a, b);
        assert_ne!(a, segmentation_hash(&[Value::Float64(f64::MIN_POSITIVE)]));
    }

    #[test]
    fn spreads_sequential_keys() {
        // Sequential integer keys should land in all 4 quarters of the
        // ring — a sanity check that segmentation gets balanced data.
        let mut buckets = [0usize; 4];
        for i in 0..1000i64 {
            let h = segmentation_hash(&[Value::Int64(i)]);
            buckets[(h >> 62) as usize] += 1;
        }
        for (q, &count) in buckets.iter().enumerate() {
            assert!(count > 100, "quarter {q} underfilled: {count}");
        }
    }
}
