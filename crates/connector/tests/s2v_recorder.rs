//! Golden recorder log of an S2V save.
//!
//! The netsim recorder's events are what the simulated S2V figures are
//! derived from, and nothing else pins them for the write direction:
//! this test saves one 8-partition DataFrame in Overwrite and in Append
//! mode (into an existing table, so both final commits replace or extend
//! real rows) and compares the sorted multiset of `(kind, label, rows,
//! bytes)` against literals. Task ids and node names are normalised out
//! — which task commits is a real-time race — and the job runs on one
//! worker thread with speculation off, so how many tasks reach phases
//! 3-5 is not.
//!
//! The contract phase 5 must keep: Overwrite shows exactly one
//! `s2v_atomic_rename` and nothing the swap does physically; Append
//! shows `s2v_append_copy`, its `route_hash` and its transfers.

use std::collections::BTreeMap;
use std::sync::Arc;

use common::{row, DataType, Row, Schema};
use connector::{DefaultSource, DEFAULT_SOURCE};
use mppdb::{Cluster, ClusterConfig};
use netsim::record::{Event, EventKind};
use sparklet::{Options, SaveMode, SparkConf, SparkContext};

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("id", DataType::Int64),
        ("a", DataType::Float64),
        ("b", DataType::Float64),
    ])
}

fn rows(range: std::ops::Range<i64>) -> Vec<Row> {
    range
        .map(|i| row![i, i as f64 / 7.0, (i * i) as f64 / 13.0])
        .collect()
}

/// Save 400 rows into `t`, then save rows 1000..1400 over / after them
/// in `mode` and return the second save's normalised log as a sorted
/// multiset, one `<count> x <event>` line per distinct event.
fn second_save_log(mode: SaveMode) -> Vec<String> {
    let cluster = Cluster::new(ClusterConfig::default());
    let ctx = SparkContext::new(SparkConf {
        nodes: 8,
        cores_per_node: 4,
        thread_cap: 1,
        speculation: false,
        ..SparkConf::default()
    });
    DefaultSource::register(&ctx, Arc::clone(&cluster));
    let save = |range, mode| {
        ctx.create_dataframe(rows(range), schema(), 8)
            .unwrap()
            .write()
            .format(DEFAULT_SOURCE)
            .options(
                Options::new()
                    .with("host", 0)
                    .with("table", "t")
                    .with("numPartitions", 8),
            )
            .mode(mode)
            .save()
            .unwrap();
    };
    save(0..400, SaveMode::Overwrite);
    cluster.recorder().clear();
    save(1000..1400, mode);
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for event in cluster.recorder().drain() {
        *counts.entry(render(event)).or_default() += 1;
    }
    counts
        .into_iter()
        .map(|(line, n)| format!("{n} x {line}"))
        .collect()
}

fn render(e: Event) -> String {
    match e.kind {
        EventKind::Work {
            label, rows, bytes, ..
        } => format!("work {label} {rows} {bytes}"),
        EventKind::Transfer {
            class, bytes, rows, ..
        } => format!("xfer {class:?} {rows} {bytes}"),
        EventKind::Setup { label, .. } => format!("setup {label} 0 0"),
    }
}

fn assert_golden(mode: SaveMode, golden: &[&str]) {
    let log = second_save_log(mode);
    if log != golden {
        // Print the log in literal form, so an intended change is a paste.
        for line in &log {
            println!("    {line:?},");
        }
        panic!("{mode:?} recorder log diverged from its golden (actual log printed above)");
    }
}

#[test]
fn overwrite_log_is_pinned() {
    assert_golden(SaveMode::Overwrite, OVERWRITE);
    assert!(
        OVERWRITE.contains(&"1 x setup s2v_atomic_rename 0 0"),
        "one constant-time rename per overwrite"
    );
}

#[test]
fn append_log_is_pinned() {
    assert_golden(SaveMode::Append, APPEND);
    assert!(APPEND
        .iter()
        .any(|l| l.starts_with("1 x work s2v_append_copy")));
}

/// Captured at the commit before phase 5's Overwrite arm stopped copying
/// rows.
const OVERWRITE: &[&str] = &[
    "1 x setup s2v_atomic_rename 0 0",
    "8 x setup s2v_connect 0 0",
    "1 x setup s2v_setup_tables 0 0",
    "1 x setup s2v_teardown_tables 0 0",
    "1 x work avro_encode 50 1230",
    "3 x work avro_encode 50 1231",
    "1 x work avro_encode 50 1232",
    "1 x work avro_encode 50 1233",
    "1 x work avro_encode 50 1234",
    "1 x work avro_encode 50 1235",
    "1 x work copy_parse_avro 50 1230",
    "3 x work copy_parse_avro 50 1231",
    "1 x work copy_parse_avro 50 1232",
    "1 x work copy_parse_avro 50 1233",
    "1 x work copy_parse_avro 50 1234",
    "1 x work copy_parse_avro 50 1235",
    "11 x work db_commit 1 0",
    "36 x work delete_mark 1 0",
    "1 x work filter_eval 2 0",
    "8 x work filter_eval 8 0",
    "11 x work route_hash 1 0",
    "8 x work route_hash 50 0",
    "1 x work route_hash 8 0",
    "2 x work scan_local 0 0",
    "1 x work scan_local 1 31",
    "1 x work scan_local 1 8",
    "1 x work scan_local 2 79",
    "10 x work scan_local 8 232",
    "8 x work scan_local 8 65",
    "24 x xfer DbInternal 1 29",
    "3 x xfer DbInternal 1 31",
    "3 x xfer DbInternal 1 34",
    "3 x xfer DbInternal 1 8",
    "5 x xfer DbInternal 10 240",
    "5 x xfer DbInternal 11 264",
    "3 x xfer DbInternal 12 288",
    "4 x xfer DbInternal 14 336",
    "2 x xfer DbInternal 15 360",
    "2 x xfer DbInternal 17 408",
    "2 x xfer DbInternal 8 192",
    "3 x xfer DbInternal 8 232",
    "1 x xfer DbInternal 9 216",
    "1 x xfer External 50 1230",
    "3 x xfer External 50 1231",
    "1 x xfer External 50 1232",
    "1 x xfer External 50 1233",
    "1 x xfer External 50 1234",
    "1 x xfer External 50 1235",
];

const APPEND: &[&str] = &[
    "8 x setup s2v_connect 0 0",
    "1 x setup s2v_setup_tables 0 0",
    "1 x setup s2v_teardown_tables 0 0",
    "1 x work avro_encode 50 1230",
    "3 x work avro_encode 50 1231",
    "1 x work avro_encode 50 1232",
    "1 x work avro_encode 50 1233",
    "1 x work avro_encode 50 1234",
    "1 x work avro_encode 50 1235",
    "1 x work copy_parse_avro 50 1230",
    "3 x work copy_parse_avro 50 1231",
    "1 x work copy_parse_avro 50 1232",
    "1 x work copy_parse_avro 50 1233",
    "1 x work copy_parse_avro 50 1234",
    "1 x work copy_parse_avro 50 1235",
    "11 x work db_commit 1 0",
    "36 x work delete_mark 1 0",
    "1 x work filter_eval 2 0",
    "8 x work filter_eval 8 0",
    "11 x work route_hash 1 0",
    "1 x work route_hash 400 0",
    "8 x work route_hash 50 0",
    "1 x work route_hash 8 0",
    "1 x work s2v_append_copy 400 9600",
    "1 x work scan_hash 102 2448",
    "1 x work scan_hash 109 2616",
    "1 x work scan_hash 94 2256",
    "1 x work scan_hash 95 2280",
    "2 x work scan_local 0 0",
    "1 x work scan_local 1 31",
    "1 x work scan_local 1 8",
    "1 x work scan_local 2 79",
    "10 x work scan_local 8 232",
    "8 x work scan_local 8 65",
    "24 x xfer DbInternal 1 29",
    "3 x xfer DbInternal 1 31",
    "3 x xfer DbInternal 1 34",
    "3 x xfer DbInternal 1 8",
    "5 x xfer DbInternal 10 240",
    "2 x xfer DbInternal 109 2616",
    "5 x xfer DbInternal 11 264",
    "3 x xfer DbInternal 12 288",
    "4 x xfer DbInternal 14 336",
    "2 x xfer DbInternal 15 360",
    "2 x xfer DbInternal 17 408",
    "2 x xfer DbInternal 8 192",
    "3 x xfer DbInternal 8 232",
    "1 x xfer DbInternal 9 216",
    "2 x xfer DbInternal 94 2256",
    "2 x xfer DbInternal 95 2280",
    "1 x xfer External 50 1230",
    "3 x xfer External 50 1231",
    "1 x xfer External 50 1232",
    "1 x xfer External 50 1233",
    "1 x xfer External 50 1234",
    "1 x xfer External 50 1235",
];
