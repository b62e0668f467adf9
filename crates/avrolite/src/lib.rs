//! Avro-style binary row serialization.
//!
//! The paper's S2V path encodes each task's partition into the Avro
//! binary format before streaming it into the database's bulk-load COPY
//! utility (Sec. 3.2.2): a binary format needs no delimiter choice for
//! arbitrary text data and its blocks can be compressed. This crate
//! implements the relevant subset from scratch:
//!
//! * record schemas over the fabric's four primitive types, with every
//!   field nullable via the Avro `["null", T]` union convention,
//! * the binary encoding — zigzag varint longs, little-endian doubles,
//!   length-prefixed UTF-8 strings,
//! * an object-container-style file: header with schema JSON and codec,
//!   data blocks of `(row count, byte length, payload)` followed by a
//!   sync marker, with an optional run-length ("packbits") block codec.
//!
//! The encoding is parsed in one place, [`decode_block`], which hands
//! each field to a [`FieldSink`]: a columnar loader appends fields to
//! typed vectors and never builds a row; [`Reader`] is the sink that
//! does.

pub mod codec;
pub mod container;
pub mod schema;
pub mod varint;

pub use codec::Codec;
pub use container::{decode_block, Container, FieldSink, Reader, Writer};
pub use schema::{AvroSchema, AvroType};

use common::{Result, Row};

/// Encode a single row (without container framing) into `out`.
pub fn encode_row(schema: &AvroSchema, row: &Row, out: &mut Vec<u8>) -> Result<()> {
    container::encode_row_raw(schema, row, out)
}

/// Decode a single row from `input`, returning the row and the number of
/// bytes consumed.
pub fn decode_row(schema: &AvroSchema, input: &[u8]) -> Result<(Row, usize)> {
    container::decode_row_raw(schema, input)
}
