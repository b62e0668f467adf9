//! Golden recorder log of the scan paths.
//!
//! The netsim recorder's event sequence is the behavioural contract the
//! simulated figures are derived from, and nothing else pins it: this
//! test runs every scan shape the engine serves — batch, count-only,
//! aggregate, partial aggregate, hash-range and row-window pieces,
//! buddy failover, a failing predicate — over a segmented and an
//! unsegmented table holding mixed ROS/WOS rows, and compares the
//! drained `(kind, node, label, rows, bytes)` sequence against literals.
//! The log must not depend on the scan fan-out, so every scenario runs
//! under pool concurrency 1 and 4.

use common::agg::{AggCall, AggFunc, AggRequest};
use common::expr::BinaryOp;
use common::{row, Expr, Row};
use mppdb::resource::ResourcePool;
use mppdb::{Cluster, ClusterConfig, HashRange, QuerySpec, Session};
use netsim::record::{Event, EventKind};

/// Two ROS containers (ids 0..80 and 80..160) plus a WOS tail (160..200)
/// on every node that holds a replica.
fn load(session: &mut Session, cluster: &Cluster, table: &str) {
    for (chunk, to_ros) in [(0..80, true), (80..160, true), (160..200, false)] {
        let rows: Vec<Row> = chunk
            .map(|i: i64| row![i, format!("g{}", i % 5), (i % 37) as f64])
            .collect();
        session.insert(table, rows).unwrap();
        if to_ros {
            cluster.moveout_all();
        }
    }
}

fn fixture() -> std::sync::Arc<Cluster> {
    let cluster = Cluster::new(ClusterConfig {
        node_count: 4,
        k_safety: 1,
        ..ClusterConfig::default()
    });
    for n in [1, 4] {
        cluster.create_resource_pool(ResourcePool::new(format!("scan{n}"), 1 << 30, n));
    }
    let mut s = cluster.connect(0).unwrap();
    s.execute(
        "CREATE TABLE seg (id BIGINT, grp VARCHAR, val DOUBLE) SEGMENTED BY HASH(id) ALL NODES",
    )
    .unwrap();
    s.execute("CREATE TABLE dim (id BIGINT, grp VARCHAR, val DOUBLE) UNSEGMENTED ALL NODES")
        .unwrap();
    load(&mut s, &cluster, "seg");
    load(&mut s, &cluster, "dim");
    cluster
}

fn render(events: Vec<Event>) -> Vec<String> {
    events
        .into_iter()
        .map(|e| match e.kind {
            EventKind::Work {
                node,
                label,
                rows,
                bytes,
            } => format!("work {node} {label} {rows} {bytes}"),
            EventKind::Transfer {
                src,
                dst,
                class,
                bytes,
                rows,
            } => format!("xfer {src}>{dst} {class:?} {rows} {bytes}"),
            EventKind::Setup { node, label } => format!("setup {node} {label} 0 0"),
        })
        .collect()
}

/// Selective on both columns: zone maps skip the first container, and
/// the two error-free conjuncts are eligible for reordering.
fn filter() -> Expr {
    Expr::col("id")
        .gt_eq(Expr::lit(100i64))
        .and(Expr::col("val").lt(Expr::lit(20.0f64)))
}

/// Binds, then fails with a division by zero at the first evaluated row.
fn failing_filter() -> Expr {
    Expr::binary(Expr::col("id"), BinaryOp::Mod, Expr::lit(0i64)).eq(Expr::lit(1i64))
}

fn grouped() -> AggRequest {
    AggRequest::new(
        &["grp"],
        vec![AggCall::count_star(), AggCall::new(AggFunc::Sum, "val")],
    )
}

fn global() -> AggRequest {
    AggRequest::new(
        &[],
        vec![AggCall::count_star(), AggCall::new(AggFunc::Max, "val")],
    )
}

/// The scenarios, in the order their logs are concatenated. Each entry
/// is `(name, spec, expect_ok)`.
fn scenarios(cluster: &Cluster) -> Vec<(&'static str, QuerySpec, bool)> {
    let seg1 = cluster.segment_map().segments()[1].range;
    let piece = seg1.split(2)[1];
    // A single hash point no loaded row lands on: a piece that scans
    // zero rows while carrying a predicate.
    let empty_piece = HashRange::new(seg1.start, Some(seg1.start + 1));
    let mut out = Vec::new();
    for table in ["seg", "dim"] {
        out.push(("full", QuerySpec::scan(table), true));
        out.push((
            "filtered+projected",
            QuerySpec::scan(table)
                .filter(filter())
                .project(&["val", "id"]),
            true,
        ));
        out.push((
            "count",
            QuerySpec::scan(table).filter(filter()).count(),
            true,
        ));
        out.push((
            "grouped aggregate",
            QuerySpec::scan(table).filter(filter()).aggregate(grouped()),
            true,
        ));
        out.push((
            "global aggregate",
            QuerySpec::scan(table).aggregate(global()),
            true,
        ));
        out.push((
            "partial aggregate",
            QuerySpec::scan(table)
                .aggregate(grouped())
                .partial_aggregates(),
            true,
        ));
        out.push((
            "failing predicate",
            QuerySpec::scan(table).filter(failing_filter()),
            false,
        ));
        out.push((
            "failing predicate aggregate",
            QuerySpec::scan(table)
                .filter(failing_filter())
                .aggregate(global()),
            false,
        ));
    }
    out.push((
        "hash-range piece",
        QuerySpec::scan("seg").with_hash_range(piece),
        true,
    ));
    out.push((
        "hash-range aggregate piece",
        QuerySpec::scan("seg")
            .with_hash_range(piece)
            .aggregate(grouped())
            .partial_aggregates(),
        true,
    ));
    out.push((
        "filtered empty piece",
        QuerySpec::scan("seg")
            .with_hash_range(empty_piece)
            .filter(filter()),
        true,
    ));
    out.push((
        "row-window piece",
        QuerySpec::scan("dim")
            .with_row_range(50, 130)
            .filter(filter()),
        true,
    ));
    out
}

/// On a fresh fixture (killing a node rebuilds its stores on restore,
/// so clusters are not reused), run every scenario from node 0 under
/// `pool`, then the failover pair with node 2 down. Returns the
/// concatenated log with one `# <table> <scenario>` header per statement.
fn run_all(pool: &str) -> Vec<String> {
    let cluster = &fixture();
    let mut log = Vec::new();
    let mut session = cluster.connect(0).unwrap();
    session.set_resource_pool(pool).unwrap();
    let run = |session: &mut Session, log: &mut Vec<String>, name: &str, spec: &QuerySpec, ok| {
        cluster.recorder().clear();
        let result = session.query(spec);
        assert_eq!(result.is_ok(), ok, "{name} on {}: {result:?}", spec.table);
        log.push(format!("# {} {name}", spec.table));
        log.extend(render(cluster.recorder().drain()));
    };
    for (name, spec, ok) in scenarios(cluster) {
        run(&mut session, &mut log, name, &spec, ok);
    }
    cluster.kill_node(2);
    run(
        &mut session,
        &mut log,
        "failover full",
        &QuerySpec::scan("seg"),
        true,
    );
    run(
        &mut session,
        &mut log,
        "failover aggregate",
        &QuerySpec::scan("seg").filter(filter()).aggregate(grouped()),
        true,
    );
    log
}

#[test]
fn recorder_log_is_pinned_and_independent_of_fan_out() {
    let serial = run_all("scan1");
    let fanned = run_all("scan4");
    assert_eq!(serial, fanned, "log depends on scan concurrency");
    if serial != GOLDEN {
        // Print the log in literal form, so an intended change is a paste.
        for line in &serial {
            println!("    {line:?},");
        }
        panic!("recorder log diverged from GOLDEN (actual log printed above)");
    }
}

/// Captured at the commit before the scan paths were unified; the two
/// commented edits are the accounting rules that unification made uniform.
const GOLDEN: &[&str] = &[
    "# seg full",
    "work db0 scan_hash 101 1078",
    "work db1 scan_hash 98 1078",
    "xfer db1>db0 DbInternal 49 1078",
    "work db2 scan_hash 99 1100",
    "xfer db2>db0 DbInternal 50 1100",
    "work db3 scan_hash 102 1144",
    "xfer db3>db0 DbInternal 52 1144",
    "# seg filtered+projected",
    "work db0 scan_hash 62 1216",
    "work db0 filter_eval 30 0",
    "work db1 scan_hash 59 1120",
    "work db1 filter_eval 29 0",
    "xfer db1>db0 DbInternal 11 176",
    "work db2 scan_hash 58 1136",
    "work db2 filter_eval 29 0",
    "xfer db2>db0 DbInternal 13 208",
    "work db3 scan_hash 61 1248",
    "work db3 filter_eval 32 0",
    "xfer db3>db0 DbInternal 17 272",
    "# seg count",
    "work db0 scan_hash 62 1300",
    "work db0 filter_eval 30 0",
    "work db1 scan_hash 59 1186",
    "work db1 filter_eval 29 0",
    "xfer db1>db0 DbInternal 1 8",
    "work db2 scan_hash 58 1214",
    "work db2 filter_eval 29 0",
    "xfer db2>db0 DbInternal 1 8",
    "work db3 scan_hash 61 1350",
    "work db3 filter_eval 32 0",
    "xfer db3>db0 DbInternal 1 8",
    "# seg grouped aggregate",
    "work db0 scan_hash 62 1102",
    "work db0 filter_eval 30 0",
    "work db1 scan_hash 59 1054",
    "work db1 filter_eval 29 0",
    "xfer db1>db0 DbInternal 5 110",
    "work db2 scan_hash 58 1038",
    "work db2 filter_eval 29 0",
    "xfer db2>db0 DbInternal 5 110",
    "work db3 scan_hash 61 1086",
    "work db3 filter_eval 32 0",
    "xfer db3>db0 DbInternal 5 110",
    "# seg global aggregate",
    "work db0 scan_hash 101 16",
    "work db1 scan_hash 98 16",
    "xfer db1>db0 DbInternal 1 16",
    "work db2 scan_hash 99 16",
    "xfer db2>db0 DbInternal 1 16",
    "work db3 scan_hash 102 16",
    "xfer db3>db0 DbInternal 1 16",
    "# seg partial aggregate",
    "work db0 scan_hash 101 110",
    "work db1 scan_hash 98 110",
    "xfer db1>db0 DbInternal 5 110",
    "work db2 scan_hash 99 110",
    "xfer db2>db0 DbInternal 5 110",
    "work db3 scan_hash 102 110",
    "xfer db3>db0 DbInternal 5 110",
    "# seg failing predicate",
    "# seg failing predicate aggregate",
    "# dim full",
    "work db0 scan_local 200 4400",
    "# dim filtered+projected",
    "work db0 scan_local 120 2800",
    "work db0 filter_eval 120 0",
    "# dim count",
    "work db0 scan_local 120 3130",
    "work db0 filter_eval 120 0",
    "# dim grouped aggregate",
    "work db0 scan_local 120 2030",
    "work db0 filter_eval 120 0",
    "# dim global aggregate",
    "work db0 scan_local 200 16",
    "# dim partial aggregate",
    "work db0 scan_local 200 110",
    "# dim failing predicate",
    // Rule unification 2 (a piece whose scan fails records nothing, on
    // every path): the unsegmented path alone used to charge the walk,
    // `work db0 scan_local 200 1600`.
    "# dim failing predicate aggregate",
    "# seg hash-range piece",
    "work db1 scan_hash 98 1312",
    "xfer db1>db0 DbInternal 24 528",
    "# seg hash-range aggregate piece",
    "work db1 scan_hash 98 894",
    "xfer db1>db0 DbInternal 5 110",
    "# seg filtered empty piece",
    "work db1 scan_hash 59 1416",
    // Rule unification 1 (`filter_eval` iff a predicate exists and the
    // piece scanned a row, on every path): the segmented batch path
    // alone used to emit the zero-row event `work db1 filter_eval 0 0`.
    "xfer db1>db0 DbInternal 0 0",
    "# dim row-window piece",
    "work db0 scan_local 200 3618",
    "work db0 filter_eval 80 0",
    "# seg failover full",
    "work db0 scan_hash 101 1078",
    "work db1 scan_hash 98 1078",
    "xfer db1>db0 DbInternal 49 1078",
    "work db3 scan_hash 102 1100",
    "xfer db3>db0 DbInternal 50 1100",
    "work db3 scan_hash 102 1144",
    "xfer db3>db0 DbInternal 52 1144",
    "# seg failover aggregate",
    "work db0 scan_hash 62 1102",
    "work db0 filter_eval 30 0",
    "work db1 scan_hash 59 1054",
    "work db1 filter_eval 29 0",
    "xfer db1>db0 DbInternal 5 110",
    "work db3 scan_hash 61 1086",
    "work db3 filter_eval 29 0",
    "xfer db3>db0 DbInternal 5 110",
    "work db3 scan_hash 61 1086",
    "work db3 filter_eval 32 0",
    "xfer db3>db0 DbInternal 5 110",
];
