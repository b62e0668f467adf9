//! Seeded input generators and the digests the oracles compare against.
//!
//! Everything the program under test receives is made here from
//! `--seed`, with this file's own generator: no product crate, vendored
//! stand-in or `bench::datasets` edit can move the benchmark's inputs.
//! Each table is generated row by row from one stream, so the first
//! `n` rows of a larger table are the table of `n` rows — the layer
//! micro-calls run on a prefix of the workload's own rows.

use common::{DataType, Field, Row, Schema, Value};

/// xoshiro256** seeded through splitmix64.
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// A generator for one named stream of one seed; distinct `stream`
    /// values give unrelated sequences.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut next = || {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        };
        Rng {
            s: [next(), next(), next(), next()],
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` is far below 2^32 everywhere it is used,
    /// so the modulo bias is below 2^-32.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// `0..n` in a seeded order (Fisher–Yates). Op parameters whose
    /// value decides an op's cost are drawn this way: every seed gets
    /// the same set of selectivities, only their order differs, so the
    /// cost of a whole cycle does not depend on the seed.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i as u64 + 1) as usize);
        }
        order
    }
}

const STREAM_D1: u64 = 1;
const STREAM_FACT: u64 = 2;
const STREAM_TWEETS: u64 = 3;
/// Stream for per-op parameters (windows, thresholds).
pub const STREAM_OPS: u64 = 4;

/// D1 (paper Sec. 4.1): `cols` uniform `FLOAT` columns `c0..`.
pub fn d1_schema(cols: usize) -> Schema {
    Schema::new(
        (0..cols)
            .map(|i| Field::new(format!("c{i}"), DataType::Float64))
            .collect(),
    )
}

pub fn d1_rows(seed: u64, rows: usize, cols: usize) -> Vec<Row> {
    let mut rng = Rng::new(seed, STREAM_D1);
    (0..rows)
        .map(|_| Row::new((0..cols).map(|_| Value::Float64(rng.unit())).collect()))
        .collect()
}

/// Groups in the fact table.
pub const FACT_GROUPS: u64 = 8;
/// `val` is an integer in `[0, FACT_VAL_MAX)` stored as `DOUBLE`, so
/// partial sums merge exactly in any order.
pub const FACT_VAL_MAX: u64 = 1000;

pub fn fact_schema() -> Schema {
    Schema::from_pairs(&[
        ("id", DataType::Int64),
        ("ts", DataType::Int64),
        ("grp", DataType::Varchar),
        ("val", DataType::Float64),
    ])
}

/// The clustered fact table in compact form: row `i` has `id = ts = i`
/// (append order is time order), `grp[i]` and `val[i]`. The oracle
/// keeps this form; [`Fact::rows`] expands a slice for loading.
pub struct Fact {
    pub grp: Vec<u8>,
    pub val: Vec<u16>,
}

impl Fact {
    pub fn new(seed: u64, rows: usize) -> Fact {
        let mut rng = Rng::new(seed, STREAM_FACT);
        let mut grp = Vec::with_capacity(rows);
        let mut val = Vec::with_capacity(rows);
        for _ in 0..rows {
            grp.push(rng.below(FACT_GROUPS) as u8);
            val.push(rng.below(FACT_VAL_MAX) as u16);
        }
        Fact { grp, val }
    }

    pub fn len(&self) -> usize {
        self.grp.len()
    }

    pub fn rows(&self, range: std::ops::Range<usize>) -> Vec<Row> {
        range
            .map(|i| {
                Row::new(vec![
                    Value::Int64(i as i64),
                    Value::Int64(i as i64),
                    Value::Varchar(format!("g{}", self.grp[i])),
                    Value::Float64(self.val[i] as f64),
                ])
            })
            .collect()
    }

    /// Reference `(count, sum(val))` per group over rows `i` in `range`
    /// that pass `keep(val)`; index = group number.
    pub fn reference(
        &self,
        range: std::ops::Range<usize>,
        keep: impl Fn(u16) -> bool,
    ) -> [(u64, u64); FACT_GROUPS as usize] {
        let mut out = [(0u64, 0u64); FACT_GROUPS as usize];
        for i in range {
            if keep(self.val[i]) {
                let slot = &mut out[self.grp[i] as usize];
                slot.0 += 1;
                slot.1 += self.val[i] as u64;
            }
        }
        out
    }
}

/// D2 (paper Sec. 4.1): tweets, with sequential ids so a narrow id
/// predicate has a known answer at every moment of a growing stream.
pub fn tweet_schema() -> Schema {
    Schema::from_pairs(&[
        ("tweet_id", DataType::Int64),
        ("tweet_text", DataType::Varchar),
    ])
}

/// A source of consecutive tweet batches (text averages ≈96 bytes).
pub struct Tweets {
    rng: Rng,
    next_id: i64,
}

impl Tweets {
    pub fn new(seed: u64) -> Tweets {
        Tweets {
            rng: Rng::new(seed, STREAM_TWEETS),
            next_id: 0,
        }
    }

    pub fn batch(&mut self, rows: usize) -> Vec<Row> {
        const WORDS: &[&str] = &[
            "the",
            "quick",
            "analytics",
            "fabric",
            "spark",
            "vertica",
            "data",
            "cluster",
            "stream",
            "model",
            "epoch",
            "segment",
            "hash",
            "load",
            "save",
            "query",
            "big",
            "enterprise",
            "pipeline",
            "parallel",
        ];
        (0..rows)
            .map(|_| {
                let id = self.next_id;
                self.next_id += 1;
                let words = 11 + self.rng.below(8);
                let mut text = String::with_capacity(128);
                for w in 0..words {
                    if w > 0 {
                        text.push(' ');
                    }
                    text.push_str(WORDS[self.rng.below(WORDS.len() as u64) as usize]);
                }
                Row::new(vec![Value::Int64(id), Value::Varchar(text)])
            })
            .collect()
    }
}

/// Bit pattern of a row's first column when it is a `FLOAT`.
pub fn c0_bits(row: &Row) -> Option<u64> {
    match row.get(0) {
        Value::Float64(f) => Some(f.to_bits()),
        _ => None,
    }
}

/// Order-independent digest of a set of D1 rows: row count, XOR and
/// wrapping sum of the `c0` bit patterns. D1's `c0` values are distinct
/// with overwhelming probability, so they serve as row ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SetDigest {
    pub rows: u64,
    pub xor: u64,
    pub sum: u64,
}

impl SetDigest {
    pub fn add(&mut self, bits: u64) {
        self.rows += 1;
        self.xor ^= bits;
        self.sum = self.sum.wrapping_add(bits);
    }

    /// `None` when a row's first column is not a `FLOAT`.
    pub fn of<'a>(rows: impl IntoIterator<Item = &'a Row>) -> Option<SetDigest> {
        let mut d = SetDigest::default();
        for r in rows {
            d.add(c0_bits(r)?);
        }
        Some(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over every value's bytes, in row order: pins generator
    /// determinism.
    fn digest_rows(rows: &[Row]) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for row in rows {
            for v in row.values() {
                match v {
                    Value::Int64(i) => eat(&i.to_le_bytes()),
                    Value::Float64(f) => eat(&f.to_bits().to_le_bytes()),
                    Value::Varchar(s) => eat(s.as_bytes()),
                    other => eat(format!("{other:?}").as_bytes()),
                }
            }
        }
        h
    }

    fn digests(seed: u64) -> [u64; 3] {
        [
            digest_rows(&d1_rows(seed, 50, 100)),
            digest_rows(&Fact::new(seed, 500).rows(0..500)),
            digest_rows(&Tweets::new(seed).batch(50)),
        ]
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(digests(42), digests(42));
        let (a, b) = (digests(42), digests(7));
        for i in 0..3 {
            assert_ne!(a[i], b[i], "generator {i} ignores the seed");
        }
        // Pinned: an edit to a generator is an edit to the benchmark.
        assert_eq!(digests(42), PINNED_42);
    }

    const PINNED_42: [u64; 3] = [
        6989335645797617242,
        11329429374829755805,
        7810755506235806206,
    ];

    #[test]
    fn tables_are_prefix_stable() {
        let small = d1_rows(9, 10, 100);
        let large = d1_rows(9, 30, 100);
        assert_eq!(small[..], large[..10]);
        let mut t = Tweets::new(9);
        let (a, b) = (t.batch(5), t.batch(5));
        assert_eq!(a.last().unwrap().get(0), &Value::Int64(4));
        assert_eq!(b[0].get(0), &Value::Int64(5));
    }

    #[test]
    fn tweet_text_averages_about_96_bytes() {
        let rows = Tweets::new(1).batch(2000);
        let total: usize = rows.iter().map(|r| r.get(1).as_str().unwrap().len()).sum();
        let mean = total as f64 / 2000.0;
        assert!((86.0..106.0).contains(&mean), "mean text length {mean}");
    }

    #[test]
    fn fact_reference_matches_a_direct_count() {
        let f = Fact::new(3, 1000);
        let r = f.reference(100..300, |v| v < 500);
        let rows: u64 = r.iter().map(|g| g.0).sum();
        let direct = (100..300).filter(|&i| f.val[i] < 500).count() as u64;
        assert_eq!(rows, direct);
    }
}
