//! `ColumnBatch::into_rows` allocates a constant number of times,
//! whatever the batch's row count: its rows share one block of values
//! instead of owning a vector each. A count-only scan allocates per
//! container, whatever the row count: it prices its survivors and
//! copies none. A counting global allocator tallies the allocations the
//! calling thread makes inside the call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use common::{DataType, Expr, Value};
use mppdb::storage::{BatchScan, ColumnData, NodeTableStore};
use mppdb::ColumnBatch;

/// The system allocator, counting the allocations of the thread that
/// makes them.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: an allocation during the thread's teardown goes uncounted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`; counting
// touches only a const-initialised thread-local `Cell`, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: called under `GlobalAlloc::alloc`'s contract, passed on.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's layout, as `GlobalAlloc::alloc` received it.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: called under `GlobalAlloc::realloc`'s contract, passed on.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // upholds `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: called under `GlobalAlloc::dealloc`'s contract, passed on.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations `into_rows` may make, whatever the row count: the block,
/// its shared handle and the vector of rows.
const CONSTANT: usize = 4;

/// What `f` returns and the allocations this thread made inside it.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Run `into_rows` on `batch`; the rows and the allocations it made.
fn counted_into_rows(batch: ColumnBatch) -> (Vec<common::Row>, usize) {
    counted(|| batch.into_rows())
}

#[test]
fn a_wide_float_batch_becomes_rows_in_constant_allocations() {
    const ROWS: usize = 5_000;
    const COLS: usize = 100;
    let mut batch = ColumnBatch::new(&[DataType::Float64; COLS]);
    for c in 0..COLS {
        for r in 0..ROWS {
            batch
                .push(c, Value::Float64((r * COLS + c) as f64))
                .unwrap();
        }
    }
    (0..ROWS).for_each(|r| batch.push_hash(r as u64));
    let (rows, allocations) = counted_into_rows(batch);
    assert!(
        allocations <= CONSTANT,
        "{allocations} allocations for {ROWS} rows"
    );
    assert_eq!(rows.len(), ROWS);
    assert_eq!(rows[4_321].get(57), &Value::Float64(432_157.0));
}

#[test]
fn strings_and_nulls_move_into_rows_in_constant_allocations() {
    const ROWS: usize = 3_000;
    let mut batch = ColumnBatch::new(&[
        DataType::Int64,
        DataType::Varchar,
        DataType::Boolean,
        DataType::Float64,
    ]);
    for r in 0..ROWS {
        let null = |every: usize, v: Value| if r % every == 1 { Value::Null } else { v };
        batch.push(0, null(5, Value::Int64(r as i64))).unwrap();
        batch
            .push(1, null(3, Value::Varchar(format!("row-{r}"))))
            .unwrap();
        batch.push(2, null(2, Value::Boolean(r % 7 == 0))).unwrap();
        batch
            .push(3, null(4, Value::Float64(r as f64 / 8.0)))
            .unwrap();
        batch.push_hash(r as u64);
    }
    let (rows, allocations) = counted_into_rows(batch);
    // The strings are moved, not cloned: they add nothing.
    assert!(
        allocations <= CONSTANT,
        "{allocations} allocations for {ROWS} rows"
    );
    assert_eq!(rows.len(), ROWS);
    assert_eq!(rows[11].get(1), &Value::Varchar("row-11".into()));
    assert_eq!(rows[13].get(1), &Value::Null);
    assert_eq!(rows[13].get(2), &Value::Null);
}

/// A count-only scan of 10,000 rows in 20 containers, VARCHAR among its
/// columns, filtered and not: the allocations stay a few per container,
/// where gathering the same survivors makes one per string.
#[test]
fn a_count_allocates_per_container_not_per_row() {
    const CONTAINERS: usize = 20;
    const ROWS: usize = 500;
    let dtypes = [DataType::Int64, DataType::Varchar, DataType::Float64];
    let mut store = NodeTableStore::new(dtypes.len());
    for c in 0..CONTAINERS {
        let rows = (0..ROWS).map(|r| {
            let i = (c * ROWS + r) as i64;
            let values = vec![
                Value::Int64(i),
                Value::Varchar(format!("tweet text number {i}")),
                if r % 7 == 0 {
                    Value::Null
                } else {
                    Value::Float64(i as f64)
                },
            ];
            (values, i as u64)
        });
        let (columns, hashes) = ColumnData::transpose(dtypes.len(), rows);
        store.insert_pending_direct(columns, hashes, 1);
    }
    store.commit(1, 1);
    let keep_most = Expr::ColumnIdx(0).gt_eq(Expr::lit(100i64));
    for predicate in [None, Some(&keep_most)] {
        let scan = BatchScan {
            as_of: 1,
            predicate,
            dtypes: &dtypes,
            ..BatchScan::default()
        };
        let (count, allocations) = counted(|| store.scan_count(&scan).unwrap());
        let (batch, gathered) = counted(|| store.scan_batch(&scan).unwrap());
        assert_eq!(count.count, batch.batch.num_rows() as u64);
        assert!(count.count >= 9_900);
        assert!(
            allocations <= 4 * CONTAINERS + 8,
            "{allocations} allocations to count {} rows in {CONTAINERS} containers",
            count.count
        );
        assert!(
            gathered >= count.count as usize,
            "{gathered}: the gather copies strings"
        );
    }
}
