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

/// Feed bytes into the running FNV-1a state.
fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= b as u64;
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// Hash a string value (type tag, then its bytes) into the state.
fn fnv1a_str(state: u64, s: &str) -> u64 {
    fnv1a(fnv1a(state, &[0x04]), s.as_bytes())
}

/// Hash a single value into the running FNV-1a state.
fn fnv1a_value(state: u64, value: &Value) -> u64 {
    match value {
        Value::Null => fnv1a(state, &[0x00]),
        Value::Boolean(b) => fnv1a(state, &[0x01, *b as u8]),
        Value::Int64(i) => fnv1a(fnv1a(state, &[0x02]), &i.to_le_bytes()),
        Value::Float64(f) => {
            // Canonicalize so that integral floats hash like themselves
            // across runs; NaNs collapse to one bit pattern.
            let bits = if f.is_nan() {
                f64::NAN.to_bits()
            } else {
                f.to_bits()
            };
            fnv1a(fnv1a(state, &[0x03]), &bits.to_le_bytes())
        }
        Value::Varchar(s) => fnv1a_str(state, s),
    }
}

/// Hash the given values (the segmentation expression's column values)
/// onto the 64-bit ring.
pub fn segmentation_hash(values: &[Value]) -> u64 {
    let mut state = FNV_OFFSET;
    for v in values {
        state = fnv1a_value(state, v);
    }
    state
}

/// [`segmentation_hash`] of the one value `Value::Varchar(s)`, for
/// callers that hold the string borrowed.
pub fn segmentation_hash_str(s: &str) -> u64 {
    fnv1a_str(FNV_OFFSET, s)
}

/// Hash a row's segmentation columns (by ordinal).
pub fn hash_row_columns(row: &Row, columns: &[usize]) -> u64 {
    let mut state = FNV_OFFSET;
    for &c in columns {
        state = fnv1a_value(state, row.get(c));
    }
    state
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
    fn borrowed_string_hashes_like_the_owned_value() {
        for s in ["", "a", "héllo wörld"] {
            assert_eq!(
                segmentation_hash_str(s),
                segmentation_hash(&[Value::Varchar(s.to_string())])
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
