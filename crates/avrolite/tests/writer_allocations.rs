//! `Writer` allocates a payload-sized buffer once, at its final size,
//! and copies no payload whole: writing N rows into one block with a
//! rows hint makes the same number of allocations whatever N is, and
//! only the raw block and the file it is compressed into are ever as
//! large as the payload. A counting global allocator tallies the
//! allocations the calling thread makes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use avrolite::{AvroSchema, AvroType, Codec, Writer};
use common::{Row, Value};

/// The system allocator, counting the allocations of the thread that
/// makes them, and those of at least [`LARGE`] bytes apart.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static LARGE_ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    /// The size from which a request counts as payload-sized.
    static LARGE: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn count_one(size: usize) {
    // `try_with`: an allocation during the thread's teardown goes uncounted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    if LARGE.try_with(Cell::get).is_ok_and(|large| size >= large) {
        let _ = LARGE_ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call is forwarded unchanged to `System`; counting
// touches only const-initialised thread-local `Cell`s, which never
// allocate.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: called under `GlobalAlloc::alloc`'s contract, passed on.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: the caller's layout, as `GlobalAlloc::alloc` received it.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: called under `GlobalAlloc::realloc`'s contract, passed on.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
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

const COLUMNS: usize = 50;

fn schema() -> AvroSchema {
    AvroSchema::new(
        "t",
        (0..COLUMNS)
            .map(|c| (format!("c{c}"), AvroType::Double))
            .collect(),
    )
}

/// Rows of doubles that do not compress, like the S2V benchmark's.
fn rows(n: usize) -> Vec<Row> {
    (0..n)
        .map(|r| {
            Row::new(
                (0..COLUMNS)
                    .map(|c| Value::Float64(((r * COLUMNS + c) as f64 * 0.618_034).sin()))
                    .collect(),
            )
        })
        .collect()
}

/// Write `rows` as one block with a rows hint: the file's length, the
/// allocations made from `Writer::new` to `finish`, and how many of them
/// were at least half the raw payload.
fn counted_write(codec: Codec, rows: &[Row]) -> (usize, usize, usize) {
    let mut raw = Vec::new();
    avrolite::encode_row(&schema(), &rows[0], &mut raw).unwrap();
    let schema = schema();
    LARGE.with(|large| large.set(raw.len() * rows.len() / 2));
    let (before, large_before) = (
        ALLOCATIONS.with(Cell::get),
        LARGE_ALLOCATIONS.with(Cell::get),
    );
    let mut w = Writer::new(schema, codec).with_rows_hint(rows.len());
    for row in rows {
        w.write_row(row).unwrap();
    }
    let file = w.finish();
    let counts = (
        ALLOCATIONS.with(Cell::get) - before,
        LARGE_ALLOCATIONS.with(Cell::get) - large_before,
    );
    LARGE.with(|large| large.set(usize::MAX));
    (file.len(), counts.0, counts.1)
}

#[test]
fn one_block_allocates_the_same_whatever_its_row_count() {
    for codec in [Codec::Null, Codec::Rle] {
        let mut seen = Vec::new();
        for n in [100, 1_000, 4_000] {
            let rows = rows(n);
            let (len, allocations, large) = counted_write(codec, &rows);
            assert!(len > n * COLUMNS * 9, "{codec:?}, {n} rows: {len} bytes");
            // The raw block, and the file it is compressed into.
            assert_eq!(large, 2, "{codec:?}, {n} rows: payload-sized allocations");
            seen.push(allocations);
        }
        assert!(
            seen.iter().all(|&a| a == seen[0]),
            "{codec:?}: allocations for 100, 1,000 and 4,000 rows: {seen:?}"
        );
    }
}
