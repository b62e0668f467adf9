//! Block compression codecs.
//!
//! Avro container files may compress each data block. We implement a
//! run-length codec in the PackBits style: long runs of a repeated byte
//! (common in sparse/NULL-heavy or low-cardinality data) collapse to a
//! few bytes; incompressible data costs at most one marker byte per 127
//! literals.

use common::error::{Error, Result};

/// Available block codecs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Codec {
    /// No compression (Avro's "null" codec).
    #[default]
    Null,
    /// Run-length PackBits-style compression.
    Rle,
}

impl Codec {
    pub fn name(&self) -> &'static str {
        match self {
            Codec::Null => "null",
            Codec::Rle => "rle",
        }
    }

    pub fn from_name(name: &str) -> Result<Codec> {
        match name {
            "null" => Ok(Codec::Null),
            "rle" => Ok(Codec::Rle),
            other => Err(Error::Parse(format!("unknown codec {other:?}"))),
        }
    }

    pub fn compress(&self, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.compress_into(data, &mut out);
        out
    }

    /// Append the compressed form of `data` to `out`.
    pub fn compress_into(&self, data: &[u8], out: &mut Vec<u8>) {
        match self {
            Codec::Null => out.extend_from_slice(data),
            Codec::Rle => rle_compress(data, out),
        }
    }

    pub fn decompress(&self, data: &[u8]) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        self.decompress_into(data, &mut out)?;
        Ok(out)
    }

    /// Append the decompressed form of `data` to `out`.
    pub fn decompress_into(&self, data: &[u8], out: &mut Vec<u8>) -> Result<()> {
        match self {
            Codec::Null => out.extend_from_slice(data),
            Codec::Rle => rle_decompress(data, out)?,
        }
        Ok(())
    }
}

/// PackBits-style run-length encoding:
/// * control byte `0x00..=0x7f` (n): copy the next `n+1` literal bytes,
/// * control byte `0x80..=0xff` (n): repeat the next byte `n - 0x7d`
///   times (runs of 3..=130).
///
/// Everything between two runs of three or more is literal, so the
/// encoder only ever needs the next place such a run starts; on
/// incompressible blocks (random floats) [`next_run_start`] finds there
/// is none seven bytes at a time.
fn rle_compress(data: &[u8], out: &mut Vec<u8>) {
    // Incompressible input grows by one control byte per 128 literals.
    out.reserve(data.len() + data.len() / 128 + 1);
    let mut literal_start = 0;

    let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize, data: &[u8]| {
        let mut start = from;
        while start < to {
            let len = (to - start).min(128);
            out.push((len - 1) as u8);
            out.extend_from_slice(&data[start..start + len]);
            start += len;
        }
    };

    while let Some(i) = next_run_start(data, literal_start) {
        let byte = data[i];
        let mut run = 3;
        while i + run < data.len() && data[i + run] == byte && run < 130 {
            run += 1;
        }
        flush_literals(out, literal_start, i, data);
        out.push((run - 3 + 0x80) as u8);
        out.push(byte);
        literal_start = i + run;
    }
    flush_literals(out, literal_start, data.len(), data);
}

/// The first `i >= from` where three equal bytes start, if any.
fn next_run_start(data: &[u8], from: usize) -> Option<usize> {
    const LOW: u64 = 0x0101_0101_0101_0101;
    let mut i = from;
    // Byte `b` of `x ^ y` is zero where `data[i + b] == data[i + b + 1]`;
    // a run of three starts where two neighbouring bytes of it are zero.
    // The window's last byte has no neighbour and is never a candidate,
    // so each step rules out seven starts.
    while let (Some(x), Some(y)) = (
        data.get(i..).and_then(<[u8]>::first_chunk::<8>),
        data.get(i + 1..).and_then(<[u8]>::first_chunk::<8>),
    ) {
        let pairs = u64::from_le_bytes(*x) ^ u64::from_le_bytes(*y);
        let triples = pairs | pairs >> 8 | 0xff << 56;
        // Non-zero iff some byte of `triples` is zero.
        if triples.wrapping_sub(LOW) & !triples & (LOW << 7) != 0 {
            break;
        }
        i += 7;
    }
    (i..data.len().saturating_sub(2)).find(|&k| data[k] == data[k + 1] && data[k] == data[k + 2])
}

fn rle_decompress(data: &[u8], out: &mut Vec<u8>) -> Result<()> {
    out.reserve(data.len());
    let mut i = 0;
    while i < data.len() {
        let ctrl = data[i];
        i += 1;
        if ctrl < 0x80 {
            let len = ctrl as usize + 1;
            if i + len > data.len() {
                return Err(Error::Parse("rle literal overruns input".into()));
            }
            out.extend_from_slice(&data[i..i + len]);
            i += len;
        } else {
            let count = (ctrl - 0x80) as usize + 3;
            let Some(&byte) = data.get(i) else {
                return Err(Error::Parse("rle run missing byte".into()));
            };
            i += 1;
            out.resize(out.len() + count, byte);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) {
        let compressed = Codec::Rle.compress(data);
        let back = Codec::Rle.decompress(&compressed).unwrap();
        assert_eq!(back, data);
    }

    /// The byte-at-a-time encoder `rle_compress` replaced, kept verbatim
    /// as the reference its output must equal byte for byte.
    ///
    /// PackBits-style run-length encoding:
    /// * control byte `0x00..=0x7f` (n): copy the next `n+1` literal bytes,
    /// * control byte `0x80..=0xff` (n): repeat the next byte `n - 0x7d`
    ///   times (runs of 3..=130).
    fn reference_rle_compress(data: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len() / 2 + 16);
        let mut i = 0;
        let mut literal_start = 0;

        let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize, data: &[u8]| {
            let mut start = from;
            while start < to {
                let len = (to - start).min(128);
                out.push((len - 1) as u8);
                out.extend_from_slice(&data[start..start + len]);
                start += len;
            }
        };

        while i < data.len() {
            // Measure the run starting at i.
            let byte = data[i];
            let mut run = 1;
            while i + run < data.len() && data[i + run] == byte && run < 130 {
                run += 1;
            }
            if run >= 3 {
                flush_literals(&mut out, literal_start, i, data);
                out.push((run - 3 + 0x80) as u8);
                out.push(byte);
                i += run;
                literal_start = i;
            } else {
                i += run;
            }
        }
        flush_literals(&mut out, literal_start, data.len(), data);
        out
    }

    /// Blocks of the shapes that matter to the run search: random bytes
    /// (no run anywhere), runs of every length around the 3-byte minimum
    /// and the 130-byte cap between short literals, long literals
    /// around the 128-byte chunk size, and tiny alphabets.
    fn block(kind: u8, picks: &[(u8, u8)]) -> Vec<u8> {
        let mut out = Vec::new();
        for &(byte, len) in picks {
            match kind {
                0 => out.push(byte),
                1 => out.extend(std::iter::repeat_n(byte, len as usize % 6)),
                2 => out.extend(std::iter::repeat_n(byte, 126 + len as usize % 8)),
                3 => out.extend((0..120 + len as usize % 16).map(|k| byte.wrapping_add(k as u8))),
                4 => out.push(byte % 2),
                _ => out.extend(std::iter::repeat_n(byte % 3, 1 + len as usize % 300)),
            }
        }
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 256,
            ..proptest::prelude::ProptestConfig::default()
        })]

        #[test]
        fn word_wise_encoder_matches_the_reference(
            kind in 0u8..6,
            picks in proptest::collection::vec(
                (proptest::arbitrary::any::<u8>(), proptest::arbitrary::any::<u8>()),
                0..300,
            ),
            shift in 0usize..9,
        ) {
            // Every alignment of the same block against the 8-byte window.
            let data = block(kind, &picks);
            let data = &data[shift.min(data.len())..];
            let compressed = Codec::Rle.compress(data);
            proptest::prop_assert_eq!(&compressed, &reference_rle_compress(data));
            proptest::prop_assert_eq!(Codec::Rle.decompress(&compressed).unwrap(), data);
        }
    }

    #[test]
    fn runs_at_the_length_cap_and_the_block_edges() {
        for n in [0usize, 1, 2, 3, 4, 129, 130, 131, 132, 133, 260, 261] {
            for prefix in 0..10usize {
                let mut data: Vec<u8> = (0..prefix as u8).collect();
                data.extend(std::iter::repeat_n(0xAB, n));
                assert_eq!(
                    Codec::Rle.compress(&data),
                    reference_rle_compress(&data),
                    "{prefix}+{n}"
                );
                data.extend([1, 2]);
                assert_eq!(
                    Codec::Rle.compress(&data),
                    reference_rle_compress(&data),
                    "{prefix}+{n}+2"
                );
                round_trip(&data);
            }
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        round_trip(&[]);
        round_trip(&[1]);
        round_trip(&[1, 2]);
        round_trip(&[1, 1]);
    }

    #[test]
    fn long_runs_compress() {
        let data = vec![0u8; 10_000];
        let compressed = Codec::Rle.compress(&data);
        assert!(compressed.len() < 200, "compressed to {}", compressed.len());
        round_trip(&data);
    }

    #[test]
    fn mixed_runs_and_literals() {
        let mut data = Vec::new();
        for i in 0..50u8 {
            data.push(i);
            data.extend(std::iter::repeat_n(i, (i as usize) % 7));
        }
        round_trip(&data);
    }

    #[test]
    fn incompressible_overhead_bounded() {
        let data: Vec<u8> = (0..100_000u32)
            .map(|i| i.wrapping_mul(2_654_435_761) as u8)
            .collect();
        let compressed = Codec::Rle.compress(&data);
        // At most ~1% expansion on pathological input.
        assert!(compressed.len() <= data.len() + data.len() / 64 + 16);
        round_trip(&data);
    }

    #[test]
    fn run_of_exactly_130_and_131() {
        round_trip(&[7u8; 130]);
        round_trip(&[7u8; 131]);
    }

    #[test]
    fn truncated_stream_is_error() {
        let compressed = Codec::Rle.compress(&[1, 2, 3, 4, 5]);
        assert!(Codec::Rle
            .decompress(&compressed[..compressed.len() - 1])
            .is_err());
        assert!(Codec::Rle.decompress(&[0x85]).is_err());
    }

    #[test]
    fn null_codec_is_identity() {
        let data = vec![1, 2, 3];
        assert_eq!(Codec::Null.compress(&data), data);
        assert_eq!(Codec::Null.decompress(&data).unwrap(), data);
    }

    #[test]
    fn codec_names_round_trip() {
        for c in [Codec::Null, Codec::Rle] {
            assert_eq!(Codec::from_name(c.name()).unwrap(), c);
        }
        assert!(Codec::from_name("snappy").is_err());
    }
}
