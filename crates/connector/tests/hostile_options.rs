//! Hostile input for the connector's option map (the paper's Table 1):
//! seeded `key=value` maps, every key and every value cut at every byte
//! and with one bit flipped at every byte, through
//! `ConnectorOptions::parse`. Every map must parse or give
//! `ConnectorError::Usage` — never a panic, never another error.
//! Dependency-free: the values and the damage are drawn from a seeded
//! SplitMix64.

use connector::{ConnectorError, ConnectorOptions};
use sparklet::Options;

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

    fn flag(&mut self) -> bool {
        self.below(2) == 1
    }
}

type Map = Vec<(String, String)>;

/// One valid option map: `table` and a seeded draw of every other key,
/// each present about two times in three.
fn valid_map(rng: &mut Draws) -> Map {
    let host = match rng.below(2) {
        0 => rng.below(8).to_string(),
        _ => format!("db{}", rng.below(8)),
    };
    let stream = rng.flag();
    let candidates: Vec<(&str, String)> = vec![
        ("host", host),
        ("user", "dbadmin".into()),
        ("password", format!("s{}", rng.below(1_000))),
        ("db", "vmart".into()),
        ("dbschema", "public".into()),
        ("numPartitions", (1 + rng.below(64)).to_string()),
        (
            "failed_rows_percent_tolerance",
            format!("{}", rng.below(100) as f64 / 100.0),
        ),
        ("copy_direct", rng.flag().to_string()),
        ("job_name", format!("job_{}", rng.below(100))),
        ("resource_pool", "general".into()),
        ("prehash", rng.flag().to_string()),
        (
            "method",
            if rng.flag() { "copy" } else { "dfs" }.to_string(),
        ),
        ("staging_path", format!("/staging/{}", rng.below(10))),
        ("retry_max_attempts", (1 + rng.below(100)).to_string()),
        ("retry_deadline_ms", (1 + rng.below(60_000)).to_string()),
        ("failover", rng.flag().to_string()),
        ("deadline_ms", (1 + rng.below(600_000)).to_string()),
        ("hedge", rng.flag().to_string()),
        ("hedge_delay_ms", (1 + rng.below(1_000)).to_string()),
        ("stats_skipping", rng.flag().to_string()),
        ("agg_pushdown", rng.flag().to_string()),
        ("mover.enabled", rng.flag().to_string()),
    ];
    let mut map: Map = vec![("table".into(), format!("t{}", rng.below(100)))];
    for (key, value) in candidates {
        if rng.below(3) > 0 {
            map.push((key.into(), value));
        }
    }
    if stream {
        let batch_rows = "stream.batch_rows"; // fabriclint: allow(obs-registry): option key, not a counter
        let flush_ms = "stream.flush_ms"; // fabriclint: allow(obs-registry): option key, not a counter
        map.push((batch_rows.into(), (1 + rng.below(1_000_000)).to_string()));
        map.push((flush_ms.into(), (1 + rng.below(600_000)).to_string()));
    }
    map
}

fn parse(map: &Map) -> Result<ConnectorOptions, ConnectorError> {
    let mut options = Options::new();
    for (key, value) in map {
        options.set(key, value);
    }
    ConnectorOptions::parse(&options)
}

/// Every cut of `text`, and every one-bit flip of one of its bytes that
/// leaves valid UTF-8 (a flip per byte, its bit drawn from `rng`).
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
        if let Ok(flipped) = String::from_utf8(flipped) {
            each(flipped, format!("byte {at} ^ {bit:#x}"));
        }
    }
}

#[test]
fn damaged_option_maps_parse_or_fail_as_usage() {
    let mut rng = Draws(0x0E7);
    let (mut inputs, mut parsed) = (0usize, 0usize);
    for case in 0..24 {
        let map = valid_map(&mut rng);
        parse(&map).unwrap_or_else(|e| panic!("map {case} {map:?}: {e}"));
        for at in 0..map.len() {
            for value_side in [false, true] {
                let (key, value) = &map[at];
                let target = if value_side { value } else { key };
                damage(target, &mut rng, |text, what| {
                    let mut damaged = map.clone();
                    if value_side {
                        damaged[at].1 = text;
                    } else {
                        damaged[at].0 = text;
                    }
                    let outcome = parse(&damaged);
                    assert!(
                        matches!(outcome, Ok(_) | Err(ConnectorError::Usage(_))),
                        "map {case}, {key}={value:?}, {what}: {outcome:?}"
                    );
                    inputs += 1;
                    parsed += outcome.is_ok() as usize;
                });
            }
        }
    }
    // Both ends are reached: a shorter name or number still parses,
    // a misspelt key never does.
    assert!(parsed > 0 && parsed < inputs, "{parsed} of {inputs} parsed");
}

#[test]
fn a_host_is_one_db_prefix_and_ascii_digits() {
    let host = |raw: &str| {
        parse(&vec![
            ("table".into(), "t".into()),
            ("host".into(), raw.into()),
        ])
    };
    for (raw, want) in [("2", 2), ("db2", 2), ("db0", 0), ("007", 7)] {
        assert_eq!(host(raw).unwrap().host, want, "host={raw}");
    }
    for raw in [
        "dbdb2",
        "db+2",
        "+2",
        "db",
        "",
        "db-1",
        "2 ",
        "db２",
        "99999999999999999999999",
    ] {
        assert!(
            matches!(host(raw), Err(ConnectorError::Usage(_))),
            "host={raw:?}: {:?}",
            host(raw)
        );
    }
}
