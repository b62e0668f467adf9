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
//!
//! Append is pinned on four more beds — `k_safety` 1, an `UNSEGMENTED`
//! target, WOS staging, `k_safety` 1 with a dead node — and there each
//! task's events are compared in the order the task recorded them.

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

/// A bed beyond the default one for the Append golden: replication, an
/// unsegmented target, WOS staging, a dead node.
#[derive(Clone, Copy)]
struct Bed {
    k_safety: usize,
    unsegmented: bool,
    copy_direct: bool,
    /// Node killed between the two saves.
    kill: Option<usize>,
}

const DEFAULT_BED: Bed = Bed {
    k_safety: 0,
    unsegmented: false,
    copy_direct: true,
    kill: None,
};

/// [`second_save_log`] in Append mode on `bed`, keeping each task's
/// events in the order it recorded them: one sequence per task (the
/// driver's is one of them), sorted so that task ids drop out.
fn append_log_per_task(bed: Bed) -> Vec<Vec<String>> {
    let cluster = Cluster::new(ClusterConfig {
        k_safety: bed.k_safety,
        ..ClusterConfig::default()
    });
    if bed.unsegmented {
        cluster
            .connect(0)
            .unwrap()
            .execute("CREATE TABLE t (id INT, a FLOAT, b FLOAT) UNSEGMENTED ALL NODES")
            .unwrap();
    }
    let ctx = SparkContext::new(SparkConf {
        nodes: 8,
        cores_per_node: 4,
        thread_cap: 1,
        speculation: false,
        ..SparkConf::default()
    });
    DefaultSource::register(&ctx, Arc::clone(&cluster));
    // Named jobs: a derived name numbers the process's saves, and its
    // length would move with how many ran before this one.
    let save = |range, mode, job: &str| {
        ctx.create_dataframe(rows(range), schema(), 8)
            .unwrap()
            .write()
            .format(DEFAULT_SOURCE)
            .options(
                Options::new()
                    .with("host", 0)
                    .with("table", "t")
                    .with("numPartitions", 8)
                    .with("copy_direct", bed.copy_direct)
                    .with("job_name", job),
            )
            .mode(mode)
            .save()
            .unwrap();
    };
    save(0..400, SaveMode::Overwrite, "s2v_t_1");
    if let Some(node) = bed.kill {
        cluster.kill_node(node);
    }
    cluster.recorder().clear();
    save(1000..1400, SaveMode::Append, "s2v_t_2");
    let mut tasks: BTreeMap<Option<u64>, Vec<String>> = BTreeMap::new();
    for event in cluster.recorder().drain() {
        tasks.entry(event.task).or_default().push(render(event));
    }
    let mut sequences: Vec<Vec<String>> = tasks.into_values().collect();
    sequences.sort();
    sequences
}

fn assert_per_task_golden(name: &str, bed: Bed, golden: &[&[&str]]) {
    let log = append_log_per_task(bed);
    if log != golden {
        // Print the log in literal form, so an intended change is a paste.
        for task in &log {
            println!("    &[");
            for line in task {
                println!("        {line:?},");
            }
            println!("    ],");
        }
        panic!("{name} recorder log diverged from its golden (actual log printed above)");
    }
}

#[test]
fn append_log_with_k_safety_1_is_pinned() {
    assert_per_task_golden(
        "k_safety 1",
        Bed {
            k_safety: 1,
            ..DEFAULT_BED
        },
        APPEND_K1,
    );
}

#[test]
fn append_log_into_an_unsegmented_target_is_pinned() {
    assert_per_task_golden(
        "unsegmented",
        Bed {
            unsegmented: true,
            ..DEFAULT_BED
        },
        APPEND_UNSEGMENTED,
    );
}

#[test]
fn append_log_from_wos_staging_is_pinned() {
    assert_per_task_golden(
        "WOS staging",
        Bed {
            copy_direct: false,
            ..DEFAULT_BED
        },
        APPEND_WOS,
    );
}

#[test]
fn append_log_with_k_safety_1_and_a_dead_node_is_pinned() {
    assert_per_task_golden(
        "k_safety 1, node 3 dead",
        Bed {
            k_safety: 1,
            kill: Some(3),
            ..DEFAULT_BED
        },
        APPEND_K1_DEAD,
    );
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
    "1 x work filter_eval 1 0",
    "1 x work filter_eval 2 0",
    "16 x work filter_eval 8 0",
    "11 x work route_hash 1 0",
    "8 x work route_hash 50 0",
    "1 x work route_hash 8 0",
    "2 x work scan_local 0 0",
    "1 x work scan_local 1 32",
    "1 x work scan_local 1 8",
    "1 x work scan_local 2 79",
    "8 x work scan_local 8 16",
    "1 x work scan_local 8 232",
    "8 x work scan_local 8 65",
    "1 x work scan_local 8 8",
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
    "1 x work filter_eval 1 0",
    "1 x work filter_eval 2 0",
    "16 x work filter_eval 8 0",
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
    "1 x work scan_local 1 32",
    "1 x work scan_local 1 8",
    "1 x work scan_local 2 79",
    "8 x work scan_local 8 16",
    "1 x work scan_local 8 232",
    "8 x work scan_local 8 65",
    "1 x work scan_local 8 8",
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

const APPEND_K1: &[&[&str]] = &[
    &[
        "setup s2v_connect 0 0",
        "work avro_encode 50 1230",
        "xfer External 50 1230",
        "work copy_parse_avro 50 1230",
        "work route_hash 50 0",
        "xfer DbInternal 27 648",
        "xfer DbInternal 23 552",
        "xfer DbInternal 22 528",
        "work scan_local 8 65",
        "work filter_eval 8 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work route_hash 1 0",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "work db_commit 1 0",
        "work scan_local 8 16",
        "work filter_eval 8 0",
    ],
    &[
        "setup s2v_connect 0 0",
        "work avro_encode 50 1231",
        "xfer External 50 1231",
        "work copy_parse_avro 50 1231",
        "work route_hash 50 0",
        "xfer DbInternal 19 456",
        "xfer DbInternal 22 528",
        "xfer DbInternal 31 744",
        "work scan_local 8 65",
        "work filter_eval 8 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work route_hash 1 0",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "work db_commit 1 0",
        "work scan_local 8 16",
        "work filter_eval 8 0",
    ],
    &[
        "setup s2v_connect 0 0",
        "work avro_encode 50 1231",
        "xfer External 50 1231",
        "work copy_parse_avro 50 1231",
        "work route_hash 50 0",
        "xfer DbInternal 24 576",
        "xfer DbInternal 20 480",
        "xfer DbInternal 30 720",
        "work scan_local 8 65",
        "work filter_eval 8 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work route_hash 1 0",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "work db_commit 1 0",
        "work scan_local 8 16",
        "work filter_eval 8 0",
    ],
    &[
        "setup s2v_connect 0 0",
        "work avro_encode 50 1231",
        "xfer External 50 1231",
        "work copy_parse_avro 50 1231",
        "work route_hash 50 0",
        "xfer DbInternal 24 576",
        "xfer DbInternal 24 576",
        "xfer DbInternal 26 624",
        "work scan_local 8 65",
        "work filter_eval 8 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work route_hash 1 0",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "work db_commit 1 0",
        "work scan_local 8 16",
        "work filter_eval 8 0",
    ],
    &[
        "setup s2v_connect 0 0",
        "work avro_encode 50 1232",
        "xfer External 50 1232",
        "work copy_parse_avro 50 1232",
        "work route_hash 50 0",
        "xfer DbInternal 26 624",
        "xfer DbInternal 23 552",
        "xfer DbInternal 24 576",
        "work scan_local 8 65",
        "work filter_eval 8 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work route_hash 1 0",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "work db_commit 1 0",
        "work scan_local 8 16",
        "work filter_eval 8 0",
    ],
    &[
        "setup s2v_connect 0 0",
        "work avro_encode 50 1233",
        "xfer External 50 1233",
        "work copy_parse_avro 50 1233",
        "work route_hash 50 0",
        "xfer DbInternal 25 600",
        "xfer DbInternal 29 696",
        "xfer DbInternal 25 600",
        "work scan_local 8 65",
        "work filter_eval 8 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work route_hash 1 0",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "work db_commit 1 0",
        "work scan_local 8 16",
        "work filter_eval 8 0",
    ],
    &[
        "setup s2v_connect 0 0",
        "work avro_encode 50 1234",
        "xfer External 50 1234",
        "work copy_parse_avro 50 1234",
        "work route_hash 50 0",
        "xfer DbInternal 28 672",
        "xfer DbInternal 22 528",
        "xfer DbInternal 22 528",
        "work scan_local 8 65",
        "work filter_eval 8 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work route_hash 1 0",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "work db_commit 1 0",
        "work scan_local 8 8",
        "work filter_eval 8 0",
        "work scan_local 0 0",
        "work route_hash 1 0",
        "xfer DbInternal 1 8",
        "xfer DbInternal 1 8",
        "xfer DbInternal 1 8",
        "work db_commit 1 0",
        "work scan_local 1 8",
        "work scan_local 8 16",
        "work scan_local 2 79",
        "work filter_eval 2 0",
        "work scan_hash 196 2256",
        "xfer DbInternal 94 2256",
        "work scan_hash 189 2280",
        "xfer DbInternal 95 2280",
        "work scan_hash 204 2616",
        "xfer DbInternal 109 2616",
        "work scan_hash 211 2448",
        "work s2v_append_copy 400 9600",
        "work route_hash 400 0",
        "xfer DbInternal 196 4704",
        "xfer DbInternal 189 4536",
        "xfer DbInternal 204 4896",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work route_hash 1 0",
        "xfer DbInternal 1 31",
        "xfer DbInternal 1 31",
        "xfer DbInternal 1 31",
        "work db_commit 1 0",
    ],
    &[
        "setup s2v_connect 0 0",
        "work avro_encode 50 1235",
        "xfer External 50 1235",
        "work copy_parse_avro 50 1235",
        "work route_hash 50 0",
        "xfer DbInternal 18 432",
        "xfer DbInternal 32 768",
        "xfer DbInternal 22 528",
        "work scan_local 8 65",
        "work filter_eval 8 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work route_hash 1 0",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "work db_commit 1 0",
        "work scan_local 8 16",
        "work filter_eval 8 0",
    ],
    &[
        "work scan_local 0 0",
        "work route_hash 8 0",
        "xfer DbInternal 8 232",
        "xfer DbInternal 8 232",
        "xfer DbInternal 8 232",
        "work scan_local 1 32",
        "work filter_eval 1 0",
        "work route_hash 1 0",
        "xfer DbInternal 1 34",
        "xfer DbInternal 1 34",
        "xfer DbInternal 1 34",
        "work db_commit 1 0",
        "setup s2v_setup_tables 0 0",
        "work scan_local 8 232",
        "setup s2v_teardown_tables 0 0",
    ],
];

const APPEND_UNSEGMENTED: &[&[&str]] = &[
    &[
        "setup s2v_connect 0 0",
        "work avro_encode 50 1230",
        "xfer External 50 1230",
        "work copy_parse_avro 50 1230",
        "work route_hash 50 0",
        "xfer DbInternal 50 1200",
        "xfer DbInternal 50 1200",
        "xfer DbInternal 50 1200",
        "work scan_local 8 65",
        "work filter_eval 8 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work route_hash 1 0",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "work db_commit 1 0",
        "work scan_local 8 16",
        "work filter_eval 8 0",
    ],
    &[
        "setup s2v_connect 0 0",
        "work avro_encode 50 1231",
        "xfer External 50 1231",
        "work copy_parse_avro 50 1231",
        "work route_hash 50 0",
        "xfer DbInternal 50 1200",
        "xfer DbInternal 50 1200",
        "xfer DbInternal 50 1200",
        "work scan_local 8 65",
        "work filter_eval 8 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work route_hash 1 0",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "work db_commit 1 0",
        "work scan_local 8 16",
        "work filter_eval 8 0",
    ],
    &[
        "setup s2v_connect 0 0",
        "work avro_encode 50 1231",
        "xfer External 50 1231",
        "work copy_parse_avro 50 1231",
        "work route_hash 50 0",
        "xfer DbInternal 50 1200",
        "xfer DbInternal 50 1200",
        "xfer DbInternal 50 1200",
        "work scan_local 8 65",
        "work filter_eval 8 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work route_hash 1 0",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "work db_commit 1 0",
        "work scan_local 8 16",
        "work filter_eval 8 0",
    ],
    &[
        "setup s2v_connect 0 0",
        "work avro_encode 50 1231",
        "xfer External 50 1231",
        "work copy_parse_avro 50 1231",
        "work route_hash 50 0",
        "xfer DbInternal 50 1200",
        "xfer DbInternal 50 1200",
        "xfer DbInternal 50 1200",
        "work scan_local 8 65",
        "work filter_eval 8 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work route_hash 1 0",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "work db_commit 1 0",
        "work scan_local 8 16",
        "work filter_eval 8 0",
    ],
    &[
        "setup s2v_connect 0 0",
        "work avro_encode 50 1232",
        "xfer External 50 1232",
        "work copy_parse_avro 50 1232",
        "work route_hash 50 0",
        "xfer DbInternal 50 1200",
        "xfer DbInternal 50 1200",
        "xfer DbInternal 50 1200",
        "work scan_local 8 65",
        "work filter_eval 8 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work route_hash 1 0",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "work db_commit 1 0",
        "work scan_local 8 16",
        "work filter_eval 8 0",
    ],
    &[
        "setup s2v_connect 0 0",
        "work avro_encode 50 1233",
        "xfer External 50 1233",
        "work copy_parse_avro 50 1233",
        "work route_hash 50 0",
        "xfer DbInternal 50 1200",
        "xfer DbInternal 50 1200",
        "xfer DbInternal 50 1200",
        "work scan_local 8 65",
        "work filter_eval 8 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work route_hash 1 0",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "work db_commit 1 0",
        "work scan_local 8 16",
        "work filter_eval 8 0",
    ],
    &[
        "setup s2v_connect 0 0",
        "work avro_encode 50 1234",
        "xfer External 50 1234",
        "work copy_parse_avro 50 1234",
        "work route_hash 50 0",
        "xfer DbInternal 50 1200",
        "xfer DbInternal 50 1200",
        "xfer DbInternal 50 1200",
        "work scan_local 8 65",
        "work filter_eval 8 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work route_hash 1 0",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "work db_commit 1 0",
        "work scan_local 8 8",
        "work filter_eval 8 0",
        "work scan_local 0 0",
        "work route_hash 1 0",
        "xfer DbInternal 1 8",
        "xfer DbInternal 1 8",
        "xfer DbInternal 1 8",
        "work db_commit 1 0",
        "work scan_local 1 8",
        "work scan_local 8 16",
        "work scan_local 2 79",
        "work filter_eval 2 0",
        "work scan_local 400 9600",
        "work s2v_append_copy 400 9600",
        "work route_hash 400 0",
        "xfer DbInternal 400 9600",
        "xfer DbInternal 400 9600",
        "xfer DbInternal 400 9600",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work route_hash 1 0",
        "xfer DbInternal 1 31",
        "xfer DbInternal 1 31",
        "xfer DbInternal 1 31",
        "work db_commit 1 0",
    ],
    &[
        "setup s2v_connect 0 0",
        "work avro_encode 50 1235",
        "xfer External 50 1235",
        "work copy_parse_avro 50 1235",
        "work route_hash 50 0",
        "xfer DbInternal 50 1200",
        "xfer DbInternal 50 1200",
        "xfer DbInternal 50 1200",
        "work scan_local 8 65",
        "work filter_eval 8 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work route_hash 1 0",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "work db_commit 1 0",
        "work scan_local 8 16",
        "work filter_eval 8 0",
    ],
    &[
        "work scan_local 0 0",
        "work route_hash 8 0",
        "xfer DbInternal 8 232",
        "xfer DbInternal 8 232",
        "xfer DbInternal 8 232",
        "work scan_local 1 32",
        "work filter_eval 1 0",
        "work route_hash 1 0",
        "xfer DbInternal 1 34",
        "xfer DbInternal 1 34",
        "xfer DbInternal 1 34",
        "work db_commit 1 0",
        "setup s2v_setup_tables 0 0",
        "work scan_local 8 232",
        "setup s2v_teardown_tables 0 0",
    ],
];

const APPEND_WOS: &[&[&str]] = &[
    &[
        "setup s2v_connect 0 0",
        "work avro_encode 50 1230",
        "xfer External 50 1230",
        "work copy_parse_avro 50 1230",
        "work route_hash 50 0",
        "xfer DbInternal 17 408",
        "xfer DbInternal 12 288",
        "xfer DbInternal 10 240",
        "work scan_local 8 65",
        "work filter_eval 8 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work route_hash 1 0",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "work db_commit 1 0",
        "work scan_local 8 16",
        "work filter_eval 8 0",
    ],
    &[
        "setup s2v_connect 0 0",
        "work avro_encode 50 1231",
        "xfer External 50 1231",
        "work copy_parse_avro 50 1231",
        "work route_hash 50 0",
        "xfer DbInternal 14 336",
        "xfer DbInternal 10 240",
        "xfer DbInternal 10 240",
        "work scan_local 8 65",
        "work filter_eval 8 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work route_hash 1 0",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "work db_commit 1 0",
        "work scan_local 8 16",
        "work filter_eval 8 0",
    ],
    &[
        "setup s2v_connect 0 0",
        "work avro_encode 50 1231",
        "xfer External 50 1231",
        "work copy_parse_avro 50 1231",
        "work route_hash 50 0",
        "xfer DbInternal 8 192",
        "xfer DbInternal 14 336",
        "xfer DbInternal 17 408",
        "work scan_local 8 65",
        "work filter_eval 8 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work route_hash 1 0",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "work db_commit 1 0",
        "work scan_local 8 16",
        "work filter_eval 8 0",
    ],
    &[
        "setup s2v_connect 0 0",
        "work avro_encode 50 1231",
        "xfer External 50 1231",
        "work copy_parse_avro 50 1231",
        "work route_hash 50 0",
        "xfer DbInternal 9 216",
        "xfer DbInternal 11 264",
        "xfer DbInternal 15 360",
        "work scan_local 8 65",
        "work filter_eval 8 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work route_hash 1 0",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "work db_commit 1 0",
        "work scan_local 8 16",
        "work filter_eval 8 0",
    ],
    &[
        "setup s2v_connect 0 0",
        "work avro_encode 50 1232",
        "xfer External 50 1232",
        "work copy_parse_avro 50 1232",
        "work route_hash 50 0",
        "xfer DbInternal 11 264",
        "xfer DbInternal 12 288",
        "xfer DbInternal 12 288",
        "work scan_local 8 65",
        "work filter_eval 8 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work route_hash 1 0",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "work db_commit 1 0",
        "work scan_local 8 16",
        "work filter_eval 8 0",
    ],
    &[
        "setup s2v_connect 0 0",
        "work avro_encode 50 1233",
        "xfer External 50 1233",
        "work copy_parse_avro 50 1233",
        "work route_hash 50 0",
        "xfer DbInternal 14 336",
        "xfer DbInternal 15 360",
        "xfer DbInternal 10 240",
        "work scan_local 8 65",
        "work filter_eval 8 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work route_hash 1 0",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "work db_commit 1 0",
        "work scan_local 8 16",
        "work filter_eval 8 0",
    ],
    &[
        "setup s2v_connect 0 0",
        "work avro_encode 50 1234",
        "xfer External 50 1234",
        "work copy_parse_avro 50 1234",
        "work route_hash 50 0",
        "xfer DbInternal 11 264",
        "xfer DbInternal 11 264",
        "xfer DbInternal 11 264",
        "work scan_local 8 65",
        "work filter_eval 8 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work route_hash 1 0",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "work db_commit 1 0",
        "work scan_local 8 8",
        "work filter_eval 8 0",
        "work scan_local 0 0",
        "work route_hash 1 0",
        "xfer DbInternal 1 8",
        "xfer DbInternal 1 8",
        "xfer DbInternal 1 8",
        "work db_commit 1 0",
        "work scan_local 1 8",
        "work scan_local 8 16",
        "work scan_local 2 79",
        "work filter_eval 2 0",
        "work scan_hash 94 2256",
        "xfer DbInternal 94 2256",
        "work scan_hash 95 2280",
        "xfer DbInternal 95 2280",
        "work scan_hash 109 2616",
        "xfer DbInternal 109 2616",
        "work scan_hash 102 2448",
        "work s2v_append_copy 400 9600",
        "work route_hash 400 0",
        "xfer DbInternal 94 2256",
        "xfer DbInternal 95 2280",
        "xfer DbInternal 109 2616",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work route_hash 1 0",
        "xfer DbInternal 1 31",
        "xfer DbInternal 1 31",
        "xfer DbInternal 1 31",
        "work db_commit 1 0",
    ],
    &[
        "setup s2v_connect 0 0",
        "work avro_encode 50 1235",
        "xfer External 50 1235",
        "work copy_parse_avro 50 1235",
        "work route_hash 50 0",
        "xfer DbInternal 10 240",
        "xfer DbInternal 14 336",
        "xfer DbInternal 8 192",
        "work scan_local 8 65",
        "work filter_eval 8 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work route_hash 1 0",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "work db_commit 1 0",
        "work scan_local 8 16",
        "work filter_eval 8 0",
    ],
    &[
        "work scan_local 0 0",
        "work route_hash 8 0",
        "xfer DbInternal 8 232",
        "xfer DbInternal 8 232",
        "xfer DbInternal 8 232",
        "work scan_local 1 32",
        "work filter_eval 1 0",
        "work route_hash 1 0",
        "xfer DbInternal 1 34",
        "xfer DbInternal 1 34",
        "xfer DbInternal 1 34",
        "work db_commit 1 0",
        "setup s2v_setup_tables 0 0",
        "work scan_local 8 232",
        "setup s2v_teardown_tables 0 0",
    ],
];

const APPEND_K1_DEAD: &[&[&str]] = &[
    &[
        "setup s2v_connect 0 0",
        "work avro_encode 50 1230",
        "xfer External 50 1230",
        "work copy_parse_avro 50 1230",
        "work route_hash 50 0",
        "xfer DbInternal 27 648",
        "xfer DbInternal 23 552",
        "work scan_local 8 65",
        "work filter_eval 8 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work route_hash 1 0",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "work db_commit 1 0",
        "work scan_local 8 16",
        "work filter_eval 8 0",
    ],
    &[
        "setup s2v_connect 0 0",
        "work avro_encode 50 1231",
        "xfer External 50 1231",
        "work copy_parse_avro 50 1231",
        "work route_hash 50 0",
        "xfer DbInternal 24 576",
        "xfer DbInternal 20 480",
        "work scan_local 8 65",
        "work filter_eval 8 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work route_hash 1 0",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "work db_commit 1 0",
        "work scan_local 8 16",
        "work filter_eval 8 0",
    ],
    &[
        "setup s2v_connect 0 0",
        "work avro_encode 50 1231",
        "xfer External 50 1231",
        "work copy_parse_avro 50 1231",
        "work route_hash 50 0",
        "xfer DbInternal 24 576",
        "xfer DbInternal 26 624",
        "work scan_local 8 65",
        "work filter_eval 8 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work route_hash 1 0",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "work db_commit 1 0",
        "work scan_local 8 16",
        "work filter_eval 8 0",
    ],
    &[
        "setup s2v_connect 0 0",
        "work avro_encode 50 1231",
        "xfer External 50 1231",
        "work copy_parse_avro 50 1231",
        "work route_hash 50 0",
        "xfer DbInternal 28 672",
        "xfer DbInternal 22 528",
        "work scan_local 8 65",
        "work filter_eval 8 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work route_hash 1 0",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "work db_commit 1 0",
        "work scan_local 8 16",
        "work filter_eval 8 0",
    ],
    &[
        "setup s2v_connect 0 0",
        "work avro_encode 50 1232",
        "xfer External 50 1232",
        "work copy_parse_avro 50 1232",
        "work route_hash 50 0",
        "xfer DbInternal 23 552",
        "xfer DbInternal 24 576",
        "work scan_local 8 65",
        "work filter_eval 8 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work route_hash 1 0",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "work db_commit 1 0",
        "work scan_local 8 16",
        "work filter_eval 8 0",
    ],
    &[
        "setup s2v_connect 0 0",
        "work avro_encode 50 1233",
        "xfer External 50 1233",
        "work copy_parse_avro 50 1233",
        "work route_hash 50 0",
        "xfer DbInternal 25 600",
        "xfer DbInternal 29 696",
        "work scan_local 8 65",
        "work filter_eval 8 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work route_hash 1 0",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "work db_commit 1 0",
        "work scan_local 8 16",
        "work filter_eval 8 0",
    ],
    &[
        "setup s2v_connect 0 0",
        "work avro_encode 50 1234",
        "xfer External 50 1234",
        "work copy_parse_avro 50 1234",
        "work route_hash 50 0",
        "xfer DbInternal 28 672",
        "xfer DbInternal 22 528",
        "work scan_local 8 65",
        "work filter_eval 8 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work route_hash 1 0",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "work db_commit 1 0",
        "work scan_local 8 8",
        "work filter_eval 8 0",
        "work scan_local 0 0",
        "work route_hash 1 0",
        "xfer DbInternal 1 8",
        "xfer DbInternal 1 8",
        "work db_commit 1 0",
        "work scan_local 1 8",
        "work scan_local 8 16",
        "work scan_local 2 79",
        "work filter_eval 2 0",
        "work scan_hash 196 2256",
        "xfer DbInternal 94 2256",
        "work scan_hash 189 2280",
        "work scan_hash 204 2616",
        "xfer DbInternal 109 2616",
        "work scan_hash 196 2448",
        "xfer DbInternal 102 2448",
        "work s2v_append_copy 400 9600",
        "work route_hash 400 0",
        "xfer DbInternal 196 4704",
        "xfer DbInternal 204 4896",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work route_hash 1 0",
        "xfer DbInternal 1 31",
        "xfer DbInternal 1 31",
        "work db_commit 1 0",
    ],
    &[
        "setup s2v_connect 0 0",
        "work avro_encode 50 1235",
        "xfer External 50 1235",
        "work copy_parse_avro 50 1235",
        "work route_hash 50 0",
        "xfer DbInternal 18 432",
        "xfer DbInternal 28 672",
        "work scan_local 8 65",
        "work filter_eval 8 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work delete_mark 1 0",
        "work route_hash 1 0",
        "xfer DbInternal 1 29",
        "xfer DbInternal 1 29",
        "work db_commit 1 0",
        "work scan_local 8 16",
        "work filter_eval 8 0",
    ],
    &[
        "work scan_local 0 0",
        "work route_hash 8 0",
        "xfer DbInternal 8 232",
        "xfer DbInternal 8 232",
        "work scan_local 1 32",
        "work filter_eval 1 0",
        "work route_hash 1 0",
        "xfer DbInternal 1 34",
        "xfer DbInternal 1 34",
        "work db_commit 1 0",
        "setup s2v_setup_tables 0 0",
        "work scan_local 8 232",
        "setup s2v_teardown_tables 0 0",
    ],
];
