//! Hostile input for COPY: a seeded CSV document and a seeded Avro
//! container, cut at every byte and with one bit flipped at every byte,
//! loaded through `Session::copy` both DIRECT and into the WOS. Every
//! load must end in `Ok` or in the typed error of bad data — never in a
//! panic — and a block header that lies about its row count must not
//! make the loader allocate for the lie.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use common::{DataType, Field, Row, Schema, Value};
use mppdb::{Cluster, ClusterConfig, CopyOptions, CopySource, DbError, Segmentation, TableDef};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The system allocator, remembering the largest single request and
/// refusing any above [`REFUSED`]: a loader that believed a block header
/// claiming 2⁴⁰ rows aborts the test instead of the machine's memory.
struct Largest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);
const REFUSED: usize = 1 << 30;

// `realloc` keeps its default (`alloc`, copy, `dealloc`), so every size
// passes through `alloc`.
// SAFETY: both calls are forwarded unchanged to `System`; a refused
// request returns null, which the `GlobalAlloc` contract allows.
unsafe impl GlobalAlloc for Largest {
    // SAFETY: called under `GlobalAlloc::alloc`'s contract, passed on.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        if layout.size() > REFUSED {
            return std::ptr::null_mut();
        }
        // SAFETY: the caller's layout, as `GlobalAlloc::alloc` received it.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: called under `GlobalAlloc::dealloc`'s contract, passed on.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Largest = Largest;

const TABLE: &str = "t";

fn schema() -> Schema {
    Schema::new(vec![
        Field::not_null("id", DataType::Int64),
        Field::new("x", DataType::Float64),
        Field::new("s", DataType::Varchar),
        Field::new("b", DataType::Boolean),
    ])
}

fn cluster() -> Arc<Cluster> {
    let c = Cluster::new(ClusterConfig::default());
    c.create_table(
        TableDef::new(TABLE, schema(), Segmentation::ByHash(vec!["id".into()])).unwrap(),
    )
    .unwrap();
    c
}

fn rows(rng: &mut StdRng) -> Vec<Row> {
    (0..12)
        .map(|i| {
            Row::new(vec![
                Value::Int64(rng.random_range(-1_000..1_000) * i),
                match rng.random_range(0..4) {
                    0 => Value::Null,
                    1 => Value::Float64(-0.0),
                    _ => Value::Float64(rng.random_range(-400..400) as f64 / 8.0),
                },
                match rng.random_range(0..3) {
                    0 => Value::Null,
                    k => Value::Varchar(format!("s{}", "é".repeat(k))),
                },
                Value::Boolean(rng.random_bool(0.5)),
            ])
        })
        .collect()
}

/// Load `source` DIRECT and into the WOS; both must end in `Ok` or in
/// the error of bad data. Counts the loads that ended `Ok`.
fn load(c: &Arc<Cluster>, source: &CopySource, what: &str, loaded: &mut usize) {
    for direct in [true, false] {
        let options = CopyOptions {
            direct,
            rejected_max: 0,
        };
        let outcome = c.connect(0).unwrap().copy(TABLE, source.clone(), options);
        assert!(
            matches!(
                outcome,
                Ok(_) | Err(DbError::Data(_) | DbError::CopyRejected { .. })
            ),
            "{what}, direct={direct}: {outcome:?}"
        );
        *loaded += outcome.is_ok() as usize;
    }
}

/// Every cut, and one bit flipped at every byte: `2 * bytes.len()`
/// inputs.
fn damage(bytes: &[u8], rng: &mut StdRng, mut each: impl FnMut(Vec<u8>, String)) {
    for cut in 0..bytes.len() {
        each(bytes[..cut].to_vec(), format!("cut at {cut}"));
    }
    for at in 0..bytes.len() {
        let bit = 1u8 << rng.random_range(0..8);
        let mut flipped = bytes.to_vec();
        flipped[at] ^= bit;
        each(flipped, format!("byte {at} ^ {bit:#x}"));
    }
}

#[test]
fn damaged_csv_loads_or_fails_typed() {
    let mut rng = StdRng::seed_from_u64(0xC5F);
    let c = cluster();
    let text = common::csv::encode_rows(&rows(&mut rng), ',');
    let mut loaded = 0;
    damage(text.as_bytes(), &mut rng, |bytes, what| {
        let text = String::from_utf8_lossy(&bytes).into_owned();
        load(
            &c,
            &CopySource::Csv {
                text,
                delimiter: ',',
            },
            &what,
            &mut loaded,
        );
    });
    // Both ends are reached: a flipped digit still parses, most other
    // damage turns a line away.
    let loads = 2 * 2 * text.len();
    assert!(loaded > 0 && loaded < loads, "{loaded} of {loads} loaded");
}

#[test]
fn damaged_avro_loads_or_fails_typed() {
    let mut rng = StdRng::seed_from_u64(0xA7);
    let c = cluster();
    for codec in [avrolite::Codec::Null, avrolite::Codec::Rle] {
        let avro_schema = avrolite::AvroSchema::from_schema(TABLE, &schema());
        let mut w = avrolite::Writer::new(avro_schema, codec).with_block_rows(5);
        for r in rows(&mut rng) {
            w.write_row(&r).unwrap();
        }
        let bytes = w.finish();
        let mut loaded = 0;
        damage(&bytes, &mut rng, |bytes, what| {
            let what = format!("{codec:?} {what}");
            load(&c, &CopySource::Avro(bytes), &what, &mut loaded);
        });
        // Both ends are reached: the cuts at block boundaries and most
        // flips inside a value load, the rest of the damage does not.
        let loads = 2 * 2 * bytes.len();
        assert!(
            loaded > 0 && loaded < loads,
            "{codec:?}: {loaded} of {loads} loaded"
        );
    }
}

/// A container whose one block claims 2⁴⁰ rows in 10 bytes, under the
/// schema of `fields`.
fn lying_block(fields: &Schema) -> Vec<u8> {
    let avro_schema = avrolite::AvroSchema::from_schema(TABLE, fields);
    let mut bytes = avrolite::Writer::new(avro_schema, avrolite::Codec::Null).finish();
    let sync = bytes[bytes.len() - 16..].to_vec();
    avrolite::varint::write_long(1 << 40, &mut bytes);
    avrolite::varint::write_long(10, &mut bytes);
    bytes.extend([2; 10]);
    bytes.extend(sync);
    bytes
}

#[test]
fn a_block_claiming_2_to_the_40_rows_is_a_typed_error() {
    let c = cluster();
    // The table's own schema, and a record of no fields, whose rows take
    // no bytes at all.
    for fields in [schema(), Schema::new(Vec::new())] {
        for direct in [true, false] {
            let options = CopyOptions {
                direct,
                rejected_max: u64::MAX,
            };
            let source = CopySource::Avro(lying_block(&fields));
            let outcome = c.connect(0).unwrap().copy(TABLE, source, options);
            assert!(
                matches!(outcome, Err(DbError::Data(_))),
                "{} fields, direct={direct}: {outcome:?}",
                fields.len()
            );
        }
    }
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(largest < 64 << 20, "an allocation of {largest} bytes");
}
