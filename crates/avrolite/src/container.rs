//! Object-container-style files: header, data blocks, sync markers.

use common::error::{Error, Result};
use common::{Row, Value};

use crate::codec::Codec;
use crate::schema::{AvroSchema, AvroType};
use crate::varint::{read_long, unzigzag, write_long};

const MAGIC: &[u8; 4] = b"Avr\x01";
const SYNC: &[u8; 16] = b"fabric-sync-mark";
/// Rows per data block; small enough to bound decode memory, large
/// enough to amortize block framing.
const DEFAULT_BLOCK_ROWS: usize = 4096;

/// Encode one row into `out` using the Avro binary encoding: each field
/// is a `["null", T]` union — a zigzag branch index (0 = null) followed
/// by the branch value.
pub(crate) fn encode_row_raw(schema: &AvroSchema, row: &Row, out: &mut Vec<u8>) -> Result<()> {
    if row.len() != schema.fields.len() {
        return Err(Error::SchemaMismatch(format!(
            "row has {} values, avro schema has {} fields",
            row.len(),
            schema.fields.len()
        )));
    }
    for (value, (_, ty)) in row.values().iter().zip(schema.fields.iter()) {
        match value {
            Value::Null => write_long(0, out),
            _ => {
                write_long(1, out);
                match (ty, value) {
                    (AvroType::Boolean, Value::Boolean(b)) => out.push(*b as u8),
                    (AvroType::Long, Value::Int64(i)) => write_long(*i, out),
                    (AvroType::Double, Value::Float64(f)) => {
                        out.extend_from_slice(&f.to_le_bytes())
                    }
                    // Int widens to double on the wire, matching column
                    // affinity in the engines.
                    (AvroType::Double, Value::Int64(i)) => {
                        out.extend_from_slice(&(*i as f64).to_le_bytes())
                    }
                    (AvroType::String, Value::Varchar(s)) => {
                        write_long(s.len() as i64, out);
                        out.extend_from_slice(s.as_bytes());
                    }
                    (ty, v) => {
                        return Err(Error::TypeMismatch {
                            expected: ty.avro_name().to_string(),
                            found: v.type_name().to_string(),
                        });
                    }
                }
            }
        }
    }
    Ok(())
}

/// Receiver of decoded fields. The one traversal of the binary encoding
/// ([`decode_block`]) hands every field of every row, in wire order, to
/// a sink: a loader appends them to typed column vectors, the row
/// [`Reader`] collects them into [`Row`]s. `field` is the ordinal in
/// the schema; [`FieldSink::end_row`] follows a row's last field.
pub trait FieldSink {
    fn null(&mut self, field: usize);
    fn boolean(&mut self, field: usize, v: bool);
    fn long(&mut self, field: usize, v: i64);
    fn double(&mut self, field: usize, v: f64);
    fn string(&mut self, field: usize, v: &str);
    fn end_row(&mut self);
}

/// The `len` bytes at `*pos`, which it advances; `None` when the length
/// (read from the input) is negative or runs past the end.
fn take<'a>(input: &'a [u8], pos: &mut usize, len: i64) -> Option<&'a [u8]> {
    let end = pos.checked_add(usize::try_from(len).ok()?)?;
    let bytes = input.get(*pos..end)?;
    *pos = end;
    Some(bytes)
}

/// A zigzag varint at `*pos`, which it advances. One-byte values (every
/// union branch, most lengths) skip the general loop.
#[inline]
fn read_long_at(input: &[u8], pos: &mut usize) -> Result<i64> {
    if let Some(&byte) = input.get(*pos) {
        if byte < 0x80 {
            *pos += 1;
            return Ok(unzigzag(byte as u64));
        }
    }
    let (v, n) = read_long(&input[*pos..])?;
    *pos += n;
    Ok(v)
}

/// Decode `rows` rows from the front of `input` into `sink`; returns the
/// bytes consumed. Every reader of the binary encoding goes through
/// this one traversal.
fn decode_rows<S: FieldSink>(
    schema: &AvroSchema,
    input: &[u8],
    rows: i64,
    sink: &mut S,
) -> Result<usize> {
    let mut pos = 0usize;
    for _ in 0..rows {
        for (field, (name, ty)) in schema.fields.iter().enumerate() {
            match read_long_at(input, &mut pos)? {
                0 => sink.null(field),
                1 => match ty {
                    AvroType::Boolean => {
                        let Some(&b) = input.get(pos) else {
                            return Err(Error::Parse(format!("truncated boolean field {name}")));
                        };
                        pos += 1;
                        sink.boolean(field, b != 0);
                    }
                    AvroType::Long => sink.long(field, read_long_at(input, &mut pos)?),
                    AvroType::Double => {
                        let Some(bytes) = input.get(pos..).and_then(<[u8]>::first_chunk::<8>)
                        else {
                            return Err(Error::Parse(format!("truncated double field {name}")));
                        };
                        pos += 8;
                        sink.double(field, f64::from_le_bytes(*bytes));
                    }
                    AvroType::String => {
                        let len = read_long_at(input, &mut pos)?;
                        if len < 0 {
                            return Err(Error::Parse(format!("negative string length in {name}")));
                        }
                        let Some(bytes) = take(input, &mut pos, len) else {
                            return Err(Error::Parse(format!("truncated string field {name}")));
                        };
                        let s = std::str::from_utf8(bytes)
                            .map_err(|e| Error::Parse(format!("bad utf8 in {name}: {e}")))?;
                        sink.string(field, s);
                    }
                },
                other => {
                    return Err(Error::Parse(format!(
                        "bad union branch {other} for field {name}"
                    )))
                }
            }
        }
        sink.end_row();
    }
    Ok(pos)
}

/// Decode one (decompressed) data block into `sink`. `rows` is the row
/// count of the block's header (a negative one holds no rows); the block
/// must hold exactly those rows.
pub fn decode_block<S: FieldSink>(
    schema: &AvroSchema,
    block: &[u8],
    rows: i64,
    sink: &mut S,
) -> Result<()> {
    let used = decode_rows(schema, block, rows, sink)?;
    if used != block.len() {
        return Err(Error::Parse(format!(
            "block has {} trailing bytes after {rows} rows",
            block.len() - used
        )));
    }
    Ok(())
}

/// The sink behind the row interfaces: fields become [`Value`]s, rows
/// become [`Row`]s.
struct RowSink {
    width: usize,
    values: Vec<Value>,
    rows: Vec<Row>,
}

impl RowSink {
    fn new(schema: &AvroSchema) -> RowSink {
        let width = schema.fields.len();
        RowSink {
            width,
            values: Vec::with_capacity(width),
            rows: Vec::new(),
        }
    }
}

impl FieldSink for RowSink {
    fn null(&mut self, _field: usize) {
        self.values.push(Value::Null);
    }
    fn boolean(&mut self, _field: usize, v: bool) {
        self.values.push(Value::Boolean(v));
    }
    fn long(&mut self, _field: usize, v: i64) {
        self.values.push(Value::Int64(v));
    }
    fn double(&mut self, _field: usize, v: f64) {
        self.values.push(Value::Float64(v));
    }
    fn string(&mut self, _field: usize, v: &str) {
        self.values.push(Value::Varchar(v.to_string()));
    }
    fn end_row(&mut self) {
        let values = std::mem::replace(&mut self.values, Vec::with_capacity(self.width));
        self.rows.push(Row::new(values));
    }
}

/// Decode one row from `input`; returns the row and bytes consumed.
pub(crate) fn decode_row_raw(schema: &AvroSchema, input: &[u8]) -> Result<(Row, usize)> {
    let mut sink = RowSink::new(schema);
    let used = decode_rows(schema, input, 1, &mut sink)?;
    // fabriclint: allow(panic-hygiene): one decoded row ends in exactly one end_row
    Ok((sink.rows.pop().expect("one row decoded"), used))
}

/// Streaming writer producing a container file in memory.
pub struct Writer {
    schema: AvroSchema,
    codec: Codec,
    block_rows: usize,
    /// Rows the caller expects to write, if it said.
    rows_hint: Option<usize>,
    out: Vec<u8>,
    pending: Vec<u8>,
    pending_rows: usize,
    /// The compressed form of the block being flushed; kept between
    /// blocks for its allocation.
    compressed: Vec<u8>,
    rows_written: u64,
}

impl Writer {
    pub fn new(schema: AvroSchema, codec: Codec) -> Writer {
        let mut out = Vec::with_capacity(1024);
        out.extend_from_slice(MAGIC);
        let schema_json = schema.to_json();
        write_long(schema_json.len() as i64, &mut out);
        out.extend_from_slice(schema_json.as_bytes());
        let codec_name = codec.name();
        write_long(codec_name.len() as i64, &mut out);
        out.extend_from_slice(codec_name.as_bytes());
        out.extend_from_slice(SYNC);
        Writer {
            schema,
            codec,
            block_rows: DEFAULT_BLOCK_ROWS,
            rows_hint: None,
            out,
            pending: Vec::new(),
            pending_rows: 0,
            compressed: Vec::new(),
            rows_written: 0,
        }
    }

    /// Override the rows-per-block threshold (mostly for tests).
    pub fn with_block_rows(mut self, rows: usize) -> Writer {
        assert!(rows > 0);
        self.block_rows = rows;
        self
    }

    /// Say how many rows will be written, so that the block buffer is
    /// sized once from the first row instead of grown by doubling. The
    /// bytes written do not depend on it.
    pub fn with_rows_hint(mut self, rows: usize) -> Writer {
        self.rows_hint = Some(rows);
        self
    }

    pub fn schema(&self) -> &AvroSchema {
        &self.schema
    }

    pub fn write_row(&mut self, row: &Row) -> Result<()> {
        let before = self.pending.len();
        if let Err(e) = encode_row_raw(&self.schema, row, &mut self.pending) {
            // A row that cannot be encoded leaves nothing behind.
            self.pending.truncate(before);
            return Err(e);
        }
        if self.pending_rows == 0 {
            // Rows of one schema are about one size: room for a block
            // (or for everything the caller will write, if less) of rows
            // like the first, and an eighth.
            let rows = self
                .block_rows
                .min(self.rows_hint.unwrap_or(self.block_rows));
            let row_bytes = self.pending.len() - before;
            self.pending
                .reserve((row_bytes + row_bytes / 8).saturating_mul(rows.saturating_sub(1)));
        }
        self.pending_rows += 1;
        self.rows_written += 1;
        if self.pending_rows >= self.block_rows {
            self.flush_block();
        }
        Ok(())
    }

    fn flush_block(&mut self) {
        if self.pending_rows == 0 {
            return;
        }
        let payload = match self.codec {
            Codec::Null => &self.pending,
            codec => {
                self.compressed.clear();
                codec.compress_into(&self.pending, &mut self.compressed);
                &self.compressed
            }
        };
        // Two varints of at most ten bytes, the payload, the marker.
        self.out.reserve(20 + payload.len() + SYNC.len());
        write_long(self.pending_rows as i64, &mut self.out);
        write_long(payload.len() as i64, &mut self.out);
        self.out.extend_from_slice(payload);
        self.out.extend_from_slice(SYNC);
        self.pending.clear();
        self.pending_rows = 0;
    }

    pub fn rows_written(&self) -> u64 {
        self.rows_written
    }

    /// Finish the file and return its bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.flush_block();
        self.out
    }
}

/// A container file with its header parsed: the schema is known, the
/// data blocks are not yet decoded.
pub struct Container<'a> {
    schema: AvroSchema,
    codec: Codec,
    /// Everything after the header's sync marker.
    blocks: &'a [u8],
}

impl<'a> Container<'a> {
    pub fn open(data: &'a [u8]) -> Result<Container<'a>> {
        if data.len() < 4 || &data[..4] != MAGIC {
            return Err(Error::Parse("bad avro container magic".into()));
        }
        let mut pos = 4usize;
        let schema_len = read_long_at(data, &mut pos)?;
        let schema_json = std::str::from_utf8(
            take(data, &mut pos, schema_len)
                .ok_or_else(|| Error::Parse("truncated schema json".into()))?,
        )
        .map_err(|e| Error::Parse(format!("schema json not utf8: {e}")))?;
        let schema = AvroSchema::from_json(schema_json)?;
        if schema.fields.is_empty() {
            // Rows of no fields take no bytes: a block could claim any
            // number of them.
            return Err(Error::Parse("avro schema has no fields".into()));
        }

        let codec_len = read_long_at(data, &mut pos)?;
        let codec_name = std::str::from_utf8(
            take(data, &mut pos, codec_len)
                .ok_or_else(|| Error::Parse("truncated codec name".into()))?,
        )
        .map_err(|e| Error::Parse(format!("codec name not utf8: {e}")))?;
        let codec = Codec::from_name(codec_name)?;

        expect_sync(data, &mut pos)?;
        Ok(Container {
            schema,
            codec,
            blocks: &data[pos..],
        })
    }

    pub fn schema(&self) -> &AvroSchema {
        &self.schema
    }

    /// Decode every data block, in file order, into `sink`. On an error
    /// the sink has received the fields before the damage.
    pub fn decode_into<S: FieldSink>(&self, sink: &mut S) -> Result<()> {
        let data = self.blocks;
        let mut pos = 0usize;
        // A null-codec block is decoded where it lies.
        let mut decompressed = Vec::new();
        while pos < data.len() {
            let count = read_long_at(data, &mut pos)?;
            let payload_len = read_long_at(data, &mut pos)?;
            let payload = take(data, &mut pos, payload_len)
                .ok_or_else(|| Error::Parse("truncated block payload".into()))?;
            let block = match self.codec {
                Codec::Null => payload,
                codec => {
                    decompressed.clear();
                    codec.decompress_into(payload, &mut decompressed)?;
                    &decompressed
                }
            };
            decode_block(&self.schema, block, count, sink)?;
            expect_sync(data, &mut pos)?;
        }
        Ok(())
    }
}

/// Reader over a container file.
pub struct Reader {
    schema: AvroSchema,
    rows: std::vec::IntoIter<Row>,
}

impl Reader {
    pub fn new(data: &[u8]) -> Result<Reader> {
        let container = Container::open(data)?;
        let mut sink = RowSink::new(container.schema());
        container.decode_into(&mut sink)?;
        Ok(Reader {
            schema: container.schema,
            rows: sink.rows.into_iter(),
        })
    }

    pub fn schema(&self) -> &AvroSchema {
        &self.schema
    }

    /// Read all remaining rows.
    pub fn read_all(self) -> Vec<Row> {
        self.rows.collect()
    }
}

impl Iterator for Reader {
    type Item = Row;

    fn next(&mut self) -> Option<Row> {
        self.rows.next()
    }
}

fn expect_sync(data: &[u8], pos: &mut usize) -> Result<()> {
    let Some(marker) = data.get(*pos..*pos + 16) else {
        return Err(Error::Parse("missing sync marker".into()));
    };
    if marker != SYNC {
        return Err(Error::Parse("corrupt sync marker".into()));
    }
    *pos += 16;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::row;
    use common::{DataType, Schema};

    fn schema() -> AvroSchema {
        AvroSchema::from_schema(
            "t",
            &Schema::from_pairs(&[
                ("id", DataType::Int64),
                ("x", DataType::Float64),
                ("ok", DataType::Boolean),
                ("s", DataType::Varchar),
            ]),
        )
    }

    fn sample_rows() -> Vec<Row> {
        vec![
            row![1i64, 1.5f64, true, "hello"],
            Row::new(vec![Value::Null, Value::Null, Value::Null, Value::Null]),
            row![-42i64, -0.25f64, false, "κόσμος"],
        ]
    }

    #[test]
    fn container_round_trip_null_codec() {
        let mut w = Writer::new(schema(), Codec::Null);
        for r in sample_rows() {
            w.write_row(&r).unwrap();
        }
        assert_eq!(w.rows_written(), 3);
        let bytes = w.finish();
        let reader = Reader::new(&bytes).unwrap();
        assert_eq!(reader.schema(), &schema());
        assert_eq!(reader.read_all(), sample_rows());
    }

    #[test]
    fn container_round_trip_rle_codec_many_blocks() {
        let mut w = Writer::new(schema(), Codec::Rle).with_block_rows(2);
        let rows: Vec<Row> = (0..7)
            .map(|i| row![i as i64, 0.0f64, i % 2 == 0, "xxxxxxxxxxxxxxxx"])
            .collect();
        for r in &rows {
            w.write_row(r).unwrap();
        }
        let bytes = w.finish();
        assert_eq!(Reader::new(&bytes).unwrap().read_all(), rows);
    }

    #[test]
    fn int_widens_to_double_column() {
        let s = AvroSchema::new("t", vec![("x".into(), AvroType::Double)]);
        let mut w = Writer::new(s.clone(), Codec::Null);
        w.write_row(&row![5i64]).unwrap();
        let rows = Reader::new(&w.finish()).unwrap().read_all();
        assert_eq!(rows[0], row![5.0f64]);
    }

    #[test]
    fn empty_file_round_trip() {
        let w = Writer::new(schema(), Codec::Rle);
        let bytes = w.finish();
        assert!(Reader::new(&bytes).unwrap().read_all().is_empty());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut w = Writer::new(schema(), Codec::Null);
        assert!(w.write_row(&row![1i64]).is_err());
    }

    #[test]
    fn type_mismatch_rejected() {
        let s = AvroSchema::new("t", vec![("b".into(), AvroType::Boolean)]);
        let mut w = Writer::new(s, Codec::Null);
        assert!(w.write_row(&row!["not a bool"]).is_err());
    }

    #[test]
    fn corrupt_magic_rejected() {
        let mut w = Writer::new(schema(), Codec::Null);
        w.write_row(&sample_rows()[0]).unwrap();
        let mut bytes = w.finish();
        bytes[0] = b'X';
        assert!(Reader::new(&bytes).is_err());
    }

    #[test]
    fn corrupt_sync_marker_rejected() {
        let mut w = Writer::new(schema(), Codec::Null);
        w.write_row(&sample_rows()[0]).unwrap();
        let mut bytes = w.finish();
        let n = bytes.len();
        bytes[n - 1] ^= 0xff;
        assert!(Reader::new(&bytes).is_err());
    }

    #[test]
    fn truncated_file_rejected() {
        let mut w = Writer::new(schema(), Codec::Null);
        for r in sample_rows() {
            w.write_row(&r).unwrap();
        }
        let bytes = w.finish();
        assert!(Reader::new(&bytes[..bytes.len() - 20]).is_err());
    }

    #[test]
    fn a_row_that_fails_to_encode_leaves_nothing_behind() {
        let mut w = Writer::new(schema(), Codec::Rle);
        w.write_row(&sample_rows()[0]).unwrap();
        // The mismatch is in the third field, after two were written.
        assert!(w.write_row(&row![1i64, 1.5f64, "not a bool", "x"]).is_err());
        w.write_row(&sample_rows()[2]).unwrap();
        assert_eq!(w.rows_written(), 2);
        let rows = Reader::new(&w.finish()).unwrap().read_all();
        assert_eq!(
            rows,
            vec![sample_rows()[0].clone(), sample_rows()[2].clone()]
        );
    }

    /// The writer and the row-at-a-time reader as they were before the
    /// field-sink traversal and the buffer reuse, kept verbatim as the
    /// reference: same container bytes, same rows, same error text.
    mod reference {
        use super::super::{encode_row_raw, expect_sync, MAGIC, SYNC};
        use crate::codec::Codec;
        use crate::schema::{AvroSchema, AvroType};
        use crate::varint::{read_long, write_long};
        use common::error::{Error, Result};
        use common::{Row, Value};

        pub fn write(
            schema: &AvroSchema,
            codec: Codec,
            block_rows: usize,
            rows: &[Row],
        ) -> Vec<u8> {
            let mut out = Vec::with_capacity(1024);
            out.extend_from_slice(MAGIC);
            let schema_json = schema.to_json();
            write_long(schema_json.len() as i64, &mut out);
            out.extend_from_slice(schema_json.as_bytes());
            let codec_name = codec.name();
            write_long(codec_name.len() as i64, &mut out);
            out.extend_from_slice(codec_name.as_bytes());
            out.extend_from_slice(SYNC);
            for block in rows.chunks(block_rows) {
                let mut pending = Vec::new();
                for row in block {
                    encode_row_raw(schema, row, &mut pending).unwrap();
                }
                let payload = codec.compress(&pending);
                write_long(block.len() as i64, &mut out);
                write_long(payload.len() as i64, &mut out);
                out.extend_from_slice(&payload);
                out.extend_from_slice(SYNC);
            }
            out
        }

        fn decode_row_raw(schema: &AvroSchema, input: &[u8]) -> Result<(Row, usize)> {
            let mut pos = 0usize;
            let mut values = Vec::with_capacity(schema.fields.len());
            for (name, ty) in &schema.fields {
                let (branch, n) = read_long(&input[pos..])?;
                pos += n;
                match branch {
                    0 => values.push(Value::Null),
                    1 => match ty {
                        AvroType::Boolean => {
                            let Some(&b) = input.get(pos) else {
                                return Err(Error::Parse(format!(
                                    "truncated boolean field {name}"
                                )));
                            };
                            pos += 1;
                            values.push(Value::Boolean(b != 0));
                        }
                        AvroType::Long => {
                            let (v, n) = read_long(&input[pos..])?;
                            pos += n;
                            values.push(Value::Int64(v));
                        }
                        AvroType::Double => {
                            let Some(bytes) = input.get(pos..pos + 8) else {
                                return Err(Error::Parse(format!("truncated double field {name}")));
                            };
                            pos += 8;
                            values.push(Value::Float64(f64::from_le_bytes(
                                bytes.try_into().expect("slice is 8 bytes"),
                            )));
                        }
                        AvroType::String => {
                            let (len, n) = read_long(&input[pos..])?;
                            pos += n;
                            if len < 0 {
                                return Err(Error::Parse(format!(
                                    "negative string length in {name}"
                                )));
                            }
                            let len = len as usize;
                            let Some(bytes) = input.get(pos..pos + len) else {
                                return Err(Error::Parse(format!("truncated string field {name}")));
                            };
                            pos += len;
                            let s = std::str::from_utf8(bytes)
                                .map_err(|e| Error::Parse(format!("bad utf8 in {name}: {e}")))?;
                            values.push(Value::Varchar(s.to_string()));
                        }
                    },
                    other => {
                        return Err(Error::Parse(format!(
                            "bad union branch {other} for field {name}"
                        )))
                    }
                }
            }
            Ok((Row::new(values), pos))
        }

        pub fn read_all(data: &[u8]) -> Result<Vec<Row>> {
            if data.len() < 4 || &data[..4] != MAGIC {
                return Err(Error::Parse("bad avro container magic".into()));
            }
            let mut pos = 4usize;
            let (schema_len, n) = read_long(&data[pos..])?;
            pos += n;
            let schema_json = std::str::from_utf8(
                data.get(pos..pos + schema_len as usize)
                    .ok_or_else(|| Error::Parse("truncated schema json".into()))?,
            )
            .map_err(|e| Error::Parse(format!("schema json not utf8: {e}")))?;
            pos += schema_len as usize;
            let schema = AvroSchema::from_json(schema_json)?;

            let (codec_len, n) = read_long(&data[pos..])?;
            pos += n;
            let codec_name = std::str::from_utf8(
                data.get(pos..pos + codec_len as usize)
                    .ok_or_else(|| Error::Parse("truncated codec name".into()))?,
            )
            .map_err(|e| Error::Parse(format!("codec name not utf8: {e}")))?;
            pos += codec_len as usize;
            let codec = Codec::from_name(codec_name)?;

            expect_sync(data, &mut pos)?;

            let mut rows = Vec::new();
            while pos < data.len() {
                let (count, n) = read_long(&data[pos..])?;
                pos += n;
                let (payload_len, n) = read_long(&data[pos..])?;
                pos += n;
                let payload = data
                    .get(pos..pos + payload_len as usize)
                    .ok_or_else(|| Error::Parse("truncated block payload".into()))?;
                pos += payload_len as usize;
                let decoded = codec.decompress(payload)?;
                let mut off = 0usize;
                for _ in 0..count {
                    let (row, n) = decode_row_raw(&schema, &decoded[off..])?;
                    off += n;
                    rows.push(row);
                }
                if off != decoded.len() {
                    return Err(Error::Parse(format!(
                        "block has {} trailing bytes after {count} rows",
                        decoded.len() - off
                    )));
                }
                expect_sync(data, &mut pos)?;
            }
            Ok(rows)
        }
    }

    fn numbered_rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| match i % 7 {
                0 => Row::new(vec![Value::Null; 4]),
                _ => row![
                    i as i64 * 1_000_003 - 500,
                    (i as f64).sin(),
                    i % 3 == 0,
                    "x".repeat(i % 40)
                ],
            })
            .collect()
    }

    #[test]
    fn writer_bytes_match_the_reference_writer() {
        for n in [0usize, 1, 4095, 4096, 4097, 10_000] {
            let rows = numbered_rows(n);
            for codec in [Codec::Null, Codec::Rle] {
                let want = reference::write(&schema(), codec, DEFAULT_BLOCK_ROWS, &rows);
                for hint in [None, Some(n), Some(3), Some(1 << 40)] {
                    let mut w = Writer::new(schema(), codec);
                    if let Some(hint) = hint {
                        w = w.with_rows_hint(hint.min(1 << 20));
                    }
                    for r in &rows {
                        w.write_row(r).unwrap();
                    }
                    assert!(w.finish() == want, "{n} rows, {codec:?}, hint {hint:?}");
                }
            }
        }
    }

    /// `Reader` over the field-sink traversal against the reference
    /// reader, as rows or as error text. Where the reference panics (a
    /// negative length in the input overflows its offset arithmetic) the
    /// reader must answer with an error.
    fn assert_reads_like_the_reference(data: &[u8], what: &str) {
        let got = Reader::new(data).map(Reader::read_all);
        let Ok(want) = std::panic::catch_unwind(|| reference::read_all(data)) else {
            assert!(got.is_err(), "{what}: {got:?}");
            return;
        };
        match (got, want) {
            (Ok(got), Ok(want)) => assert_eq!(got, want, "{what}"),
            (Err(got), Err(want)) => assert_eq!(got.to_string(), want.to_string(), "{what}"),
            (got, want) => panic!("{what}: {got:?} against the reference's {want:?}"),
        }
    }

    #[test]
    fn damaged_files_read_like_the_reference() {
        for codec in [Codec::Null, Codec::Rle] {
            let mut w = Writer::new(schema(), codec).with_block_rows(3);
            for r in numbered_rows(8) {
                w.write_row(&r).unwrap();
            }
            let bytes = w.finish();
            assert_reads_like_the_reference(&bytes, "intact");
            for cut in 0..bytes.len() {
                assert_reads_like_the_reference(&bytes[..cut], &format!("{codec:?} cut at {cut}"));
            }
            for at in 0..bytes.len() {
                for flip in [0x01u8, 0x80, 0xff] {
                    let mut damaged = bytes.clone();
                    damaged[at] ^= flip;
                    assert_reads_like_the_reference(
                        &damaged,
                        &format!("{codec:?} byte {at} ^ {flip:#x}"),
                    );
                }
            }
        }
    }
}
