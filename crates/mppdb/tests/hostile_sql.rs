//! Hostile input for the SQL front end: a seeded corpus of statements,
//! every one cut at every byte and with one bit flipped at every byte,
//! through `sql::parse_statement`. Every input must parse or give the
//! typed error of bad text — never a panic. Dependency-free: the
//! literals and the damage are drawn from a seeded SplitMix64.

use mppdb::sql::parse_statement;
use mppdb::DbError;

/// SplitMix64: a seeded stream of draws with no dependency.
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One statement of every shape the parser knows, with seeded literals.
fn corpus(rng: &mut Draws) -> Vec<String> {
    let int = |rng: &mut Draws| rng.below(2_000) as i64 - 1_000;
    let float = |rng: &mut Draws| (rng.below(8_000) as f64 - 4_000.0) / 8.0;
    vec![
        "CREATE TABLE t (id BIGINT NOT NULL, x DOUBLE, name VARCHAR, ok BOOLEAN) \
         SEGMENTED BY HASH(id) ALL NODES"
            .to_string(),
        "CREATE TABLE u (id INT, tag VARCHAR) UNSEGMENTED ALL NODES".to_string(),
        format!(
            "INSERT INTO t VALUES ({}, {}, 'a''b', TRUE), ({}, NULL, 'é', FALSE);",
            int(rng),
            float(rng),
            int(rng)
        ),
        format!(
            "SELECT a.id, x * {} AS y, name FROM t AS a JOIN u ON a.id = u.id \
             WHERE x > {} AND name LIKE 'ab%' ORDER BY y DESC, 1 LIMIT {}",
            float(rng),
            float(rng),
            1 + rng.below(99)
        ),
        format!(
            "SELECT name, COUNT(*), SUM(x), AVG(x), MIN(id), MAX(id) FROM t \
             WHERE NOT (id IS NULL) OR x <= {} GROUP BY name",
            float(rng)
        ),
        format!(
            "AT EPOCH {} SELECT COUNT(*) FROM t WHERE id % 3 = 1",
            rng.below(50)
        ),
        "EXPLAIN SELECT id FROM t WHERE x IS NOT NULL AND id <> -4".to_string(),
        format!(
            "SELECT PMMLPredict(x, id USING PARAMETERS model_name='m', version={}) FROM t",
            1 + rng.below(8)
        ),
        format!(
            "UPDATE t SET x = x + {}, name = 'z' WHERE id >= {}",
            float(rng),
            int(rng)
        ),
        format!("DELETE FROM t WHERE id < {}", int(rng)),
        "CREATE VIEW v AS SELECT name, AVG(x) FROM t GROUP BY name".to_string(),
        "DROP VIEW v".to_string(),
        "DROP TABLE t".to_string(),
        "BEGIN".to_string(),
        "COMMIT WORK".to_string(),
        "ROLLBACK".to_string(),
    ]
}

/// Every cut of `text`, and one bit flipped at every byte of it.
fn damage(text: &str, rng: &mut Draws, mut each: impl FnMut(String, String)) {
    let bytes = text.as_bytes();
    for cut in 0..bytes.len() {
        let cut_text = String::from_utf8_lossy(&bytes[..cut]).into_owned();
        each(cut_text, format!("cut at {cut}"));
    }
    for at in 0..bytes.len() {
        let bit = 1u8 << rng.below(8);
        let mut flipped = bytes.to_vec();
        flipped[at] ^= bit;
        let flipped = String::from_utf8_lossy(&flipped).into_owned();
        each(flipped, format!("byte {at} ^ {bit:#x}"));
    }
}

#[test]
fn damaged_statements_parse_or_fail_typed() {
    let mut rng = Draws(0x5E1);
    let statements = corpus(&mut rng);
    let (mut inputs, mut parsed) = (0, 0);
    for sql in &statements {
        parse_statement(sql).unwrap_or_else(|e| panic!("corpus {sql:?}: {e}"));
        damage(sql, &mut rng, |text, what| {
            let outcome = parse_statement(&text);
            assert!(
                matches!(outcome, Ok(_) | Err(DbError::Syntax(_))),
                "{sql:?}, {what}: {outcome:?}"
            );
            inputs += 1;
            parsed += outcome.is_ok() as usize;
        });
    }
    // Both ends are reached: a cut after a whole clause or a flipped
    // letter of a literal still parses, most damage does not.
    assert!(parsed > 0 && parsed < inputs, "{parsed} of {inputs} parsed");
}
