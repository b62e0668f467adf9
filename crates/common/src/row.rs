//! Materialized tuples.

use std::fmt;
use std::sync::Arc;

use crate::value::Value;

/// A materialized tuple: one value per schema column.
///
/// Rows are the unit of transfer between the engines; the connectors
/// account for their [`wire_size`](Row::wire_size) when charging the
/// network cost model.
///
/// A row owns its values ([`Row::new`]) or is a window onto a row-major
/// block that every row cut from it by [`split_block`] shares, so a
/// scanned batch becomes rows with one allocation rather than one per
/// row. The two forms read alike: cloning a window bumps the block's
/// reference count, and [`set`](Row::set), [`into_values`](Row::into_values)
/// and [`into_projected`](Row::into_projected) copy the window's own
/// values out first. The cost is retention: a window keeps its whole
/// block alive, so the few rows that survive a filter hold the memory
/// of every row of their batch until they are dropped.
#[derive(Clone, Default)]
pub struct Row {
    repr: Repr,
}

#[derive(Clone)]
enum Repr {
    Owned(Vec<Value>),
    /// `block[start..start + len]`; [`split_block`] keeps every block's
    /// length within `u32`.
    Window {
        block: Arc<Vec<Value>>,
        start: u32,
        len: u32,
    },
}

impl Default for Repr {
    fn default() -> Repr {
        Repr::Owned(Vec::new())
    }
}

// A window fits beside the vector's capacity niche: a row stays as
// small as the `Vec<Value>` it used to be.
const _: () = assert!(std::mem::size_of::<Row>() == std::mem::size_of::<Vec<Value>>());

/// Cut `block`, `rows` rows of equal width laid out row-major, into rows
/// that share it (see [`Row`]). A block too long for a window's offsets,
/// or of zero-width rows, is cut into owned rows instead.
pub fn split_block(block: Vec<Value>, rows: usize) -> Vec<Row> {
    if rows == 0 {
        return Vec::new();
    }
    let width = block.len() / rows;
    debug_assert_eq!(block.len(), rows * width, "a block holds whole rows");
    if width == 0 || u32::try_from(block.len()).is_err() {
        let mut values = block.into_iter();
        return (0..rows)
            .map(|_| Row::new(values.by_ref().take(width).collect()))
            .collect();
    }
    let block = Arc::new(block);
    (0..rows)
        .map(|r| Row {
            repr: Repr::Window {
                block: Arc::clone(&block),
                // Both fit: the block's length does.
                start: (r * width) as u32,
                len: width as u32,
            },
        })
        .collect()
}

impl Row {
    pub fn new(values: Vec<Value>) -> Row {
        Row {
            repr: Repr::Owned(values),
        }
    }

    pub fn values(&self) -> &[Value] {
        match &self.repr {
            Repr::Owned(values) => values,
            Repr::Window { block, start, len } => {
                &block[*start as usize..*start as usize + *len as usize]
            }
        }
    }

    pub fn into_values(self) -> Vec<Value> {
        match self.repr {
            Repr::Owned(values) => values,
            Repr::Window { .. } => self.values().to_vec(),
        }
    }

    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Owned(values) => values.len(),
            Repr::Window { len, .. } => *len as usize,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn get(&self, idx: usize) -> &Value {
        &self.values()[idx]
    }

    /// Replace the value at `idx` in place (vectorized scans reuse one
    /// scratch row across a batch instead of allocating per row). A
    /// window becomes an owned row first; its block is left as it was.
    pub fn set(&mut self, idx: usize, value: Value) {
        if let Repr::Owned(values) = &mut self.repr {
            values[idx] = value;
            return;
        }
        let mut values = self.values().to_vec();
        values[idx] = value;
        self.repr = Repr::Owned(values);
    }

    /// Project the row onto the given column ordinals.
    pub fn project(&self, indices: &[usize]) -> Row {
        let values = self.values();
        Row::new(indices.iter().map(|&i| values[i].clone()).collect())
    }

    /// Project an owned row by moving the selected values out instead of
    /// cloning them. Falls back to cloning when an ordinal repeats
    /// (`SELECT a, a` style projections) or the row is a window.
    pub fn into_projected(self, indices: &[usize]) -> Row {
        let has_dup = indices
            .iter()
            .enumerate()
            .any(|(k, i)| indices[..k].contains(i));
        let values = match self.repr {
            Repr::Owned(values) if !has_dup => values,
            _ => return self.project(indices),
        };
        let mut values: Vec<Option<Value>> = values.into_iter().map(Some).collect();
        Row::new(
            indices
                .iter()
                .map(|&i| values[i].take().expect("unique projection ordinal"))
                .collect(),
        )
    }

    /// Total approximate wire size of the row in bytes.
    pub fn wire_size(&self) -> usize {
        self.values().iter().map(Value::wire_size).sum()
    }

    /// Approximate textual (delimited) wire size: value texts plus one
    /// delimiter per column and a ~10-byte per-row message header (the
    /// fixed per-row overhead behind the paper's Fig. 9).
    pub fn text_wire_size(&self) -> usize {
        self.values()
            .iter()
            .map(Value::text_wire_size)
            .sum::<usize>()
            + self.len()
            + 10
    }
}

impl PartialEq for Row {
    fn eq(&self, other: &Row) -> bool {
        self.values() == other.values()
    }
}

/// Prints `Row { values: [..] }`, whichever form the row takes.
impl fmt::Debug for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Row")
            .field("values", &self.values())
            .finish()
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Row {
        Row::new(values)
    }
}

impl FromIterator<Value> for Row {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Row {
        Row::new(iter.into_iter().collect())
    }
}

/// Build a [`Row`] from a list of expressions convertible to [`Value`].
///
/// ```
/// use common::{row, Value};
/// let r = row![1i64, 2.5f64, "abc"];
/// assert_eq!(r.get(0), &Value::Int64(1));
/// ```
#[macro_export]
macro_rules! row {
    ($($v:expr),* $(,)?) => {
        $crate::Row::new(vec![$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn project_reorders_and_duplicates() {
        let r = row![1i64, 2i64, 3i64];
        let p = r.project(&[2, 0, 0]);
        assert_eq!(
            p.values(),
            &[Value::Int64(3), Value::Int64(1), Value::Int64(1)]
        );
    }

    #[test]
    fn wire_size_sums_values() {
        let r = row![1i64, "abcd"];
        assert_eq!(r.wire_size(), 8 + 8);
    }

    #[test]
    fn windows_print_and_compare_like_owned_rows() {
        let block = vec![
            Value::Int64(1),
            Value::Varchar("a".into()),
            Value::Null,
            Value::Boolean(true),
        ];
        let rows = split_block(block, 2);
        assert_eq!(rows, vec![row![1i64, "a"], row![Value::Null, true]]);
        assert_eq!(
            format!("{:?}", rows[0]),
            r#"Row { values: [Int64(1), Varchar("a")] }"#
        );
        assert_eq!(format!("{:?}", rows[0]), format!("{:?}", row![1i64, "a"]));
        // Zero-width rows are owned, and as many as asked for.
        assert_eq!(split_block(Vec::new(), 3), vec![Row::default(); 3]);
    }

    #[test]
    fn row_macro_builds_expected_types() {
        let r = row![true, 7i64, 1.5f64, "s"];
        assert_eq!(r.get(0), &Value::Boolean(true));
        assert_eq!(r.get(1), &Value::Int64(7));
        assert_eq!(r.get(2), &Value::Float64(1.5));
        assert_eq!(r.get(3), &Value::Varchar("s".into()));
    }
}
