//! A compressed block whose header claims 2²⁰ rows: a few hundred
//! bytes that decompress to 64 KB of one-byte NULL branches. COPY sizes
//! its column builders from the block, and the block's bytes, not its
//! header, bound that reservation: the load ends in the typed error of
//! bad data and allocates nothing near what the header claims.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use common::{DataType, Field, Schema};
use mppdb::{Cluster, ClusterConfig, CopyOptions, CopySource, DbError, Segmentation, TableDef};

/// The system allocator, remembering the largest single request and
/// refusing any above [`REFUSED`], as `hostile_copy.rs`'s does.
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
/// The bytes the lying block decompresses to.
const BLOCK_BYTES: usize = 1 << 16;

fn schema() -> Schema {
    Schema::new(vec![
        Field::not_null("id", DataType::Int64),
        Field::new("x", DataType::Float64),
        Field::new("s", DataType::Varchar),
        Field::new("b", DataType::Boolean),
    ])
}

/// A container of `schema()` whose one run-length block claims 2²⁰ rows
/// and decompresses to [`BLOCK_BYTES`] zero bytes, each a NULL branch.
fn lying_rle_block() -> Vec<u8> {
    let avro_schema = avrolite::AvroSchema::from_schema(TABLE, &schema());
    let mut bytes = avrolite::Writer::new(avro_schema, avrolite::Codec::Rle).finish();
    let sync = bytes[bytes.len() - 16..].to_vec();
    let payload = avrolite::Codec::Rle.compress(&[0; BLOCK_BYTES]);
    assert!(payload.len() < 1_024, "{} compressed bytes", payload.len());
    avrolite::varint::write_long(1 << 20, &mut bytes);
    avrolite::varint::write_long(payload.len() as i64, &mut bytes);
    bytes.extend(payload);
    bytes.extend(sync);
    bytes
}

#[test]
fn an_rle_block_claiming_2_to_the_20_rows_reserves_for_its_bytes() {
    let c = Cluster::new(ClusterConfig::default());
    c.create_table(
        TableDef::new(TABLE, schema(), Segmentation::ByHash(vec!["id".into()])).unwrap(),
    )
    .unwrap();
    let source = CopySource::Avro(lying_rle_block());
    for direct in [true, false] {
        let options = CopyOptions {
            direct,
            rejected_max: u64::MAX,
        };
        LARGEST.store(0, Ordering::Relaxed);
        let outcome = c.connect(0).unwrap().copy(TABLE, source.clone(), options);
        // The 16,384 rows of NULLs the block holds run out long before
        // the 2²⁰ it claims.
        assert!(
            matches!(outcome, Err(DbError::Data(_))),
            "direct={direct}: {outcome:?}"
        );
        let largest = LARGEST.load(Ordering::Relaxed);
        assert!(largest < 64 << 20, "an allocation of {largest} bytes");
        // At a byte a field the block holds 16,384 rows, and a VARCHAR
        // column reserved for them is the largest allocation; reserved
        // for the header's 2²⁰ rows it would be 24 MB.
        let reserved_for_the_bytes = BLOCK_BYTES / schema().len() * size_of::<String>();
        assert!(
            largest <= reserved_for_the_bytes,
            "an allocation of {largest} bytes"
        );
    }
}
