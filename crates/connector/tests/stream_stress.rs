//! A stream under load: 300 micro-batches through a `StreamWriter`
//! whose mover passes run beside a probe and a thread that creates and
//! drops tables. The probe counts the first batch's ids, which every
//! committed batch, moveout and mergeout must leave exactly as they
//! are; the table ends with every id once. Ignored by default: the
//! CI gate (`scripts/check.sh`) runs it with `--ignored`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use common::{row, DataType, Expr, Row, Schema};
use connector::{ConnectorOptions, DefaultSource, StreamWriter};
use mppdb::{Cluster, ClusterConfig, QuerySpec};
use sparklet::{SaveMode, SparkConf, SparkContext};

const BATCHES: i64 = 300;
const BATCH_ROWS: i64 = 100;

fn batch(seq: i64) -> Vec<Row> {
    (seq * BATCH_ROWS..(seq + 1) * BATCH_ROWS)
        .map(|id| row![id, id as f64 * 0.5])
        .collect()
}

#[test]
#[ignore]
fn stress_probes_and_table_churn_beside_the_mover_passes() {
    let db = Cluster::new(ClusterConfig::default());
    let ctx = SparkContext::new(SparkConf::default());
    DefaultSource::register(&ctx, Arc::clone(&db));
    let schema = Schema::from_pairs(&[("tweet_id", DataType::Int64), ("x", DataType::Float64)]);
    let opts = ConnectorOptions::builder("tweets")
        .num_partitions(4)
        .copy_direct(false)
        .stream(BATCH_ROWS as usize, 600_000)
        .mover_enabled(true)
        .build()
        .unwrap();
    let mut writer = StreamWriter::open(&ctx, &db, schema, &opts, SaveMode::Overwrite).unwrap();
    assert_eq!(writer.append_rows(batch(0)).unwrap(), 1);

    let probe = QuerySpec::scan("tweets")
        .filter(Expr::col("tweet_id").lt(Expr::lit(BATCH_ROWS)))
        .count();
    let done = AtomicBool::new(false);
    let (probes, churned) = (AtomicU64::new(0), AtomicU64::new(0));
    std::thread::scope(|scope| {
        let prober = scope.spawn(|| {
            let mut k = 0;
            while !done.load(Ordering::Acquire) {
                let mut session = db.connect(k % db.node_count()).unwrap();
                let count = session.query(&probe).unwrap().count;
                assert_eq!(count, BATCH_ROWS as u64, "probe {k}");
                probes.fetch_add(1, Ordering::AcqRel);
                k += 1;
            }
        });
        let churner = scope.spawn(|| {
            let mut session = db.connect(0).unwrap();
            let mut k = 0;
            while !done.load(Ordering::Acquire) {
                let table = format!("churn_{k}");
                session
                    .execute(&format!(
                        "CREATE TABLE {table} (id INT) SEGMENTED BY HASH(id) ALL NODES"
                    ))
                    .unwrap();
                session.insert(&table, vec![row![k as i64]]).unwrap();
                session.execute(&format!("DROP TABLE {table}")).unwrap();
                churned.fetch_add(1, Ordering::AcqRel);
                k += 1;
            }
        });
        for seq in 1..BATCHES {
            assert_eq!(writer.append_rows(batch(seq)).unwrap(), 1, "batch {seq}");
        }
        done.store(true, Ordering::Release);
        prober.join().unwrap();
        churner.join().unwrap();
    });
    let report = writer.finish().unwrap();
    assert_eq!(report.batches, BATCHES as u64);
    assert_eq!(report.rows_loaded, (BATCHES * BATCH_ROWS) as u64);
    assert!(probes.load(Ordering::Acquire) > 0);
    assert!(churned.load(Ordering::Acquire) > 0);

    let mut ids: Vec<i64> = db
        .connect(0)
        .unwrap()
        .query(&QuerySpec::scan("tweets"))
        .unwrap()
        .rows
        .iter()
        .map(|r| r.get(0).as_i64().unwrap())
        .collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..BATCHES * BATCH_ROWS).collect::<Vec<_>>());
    let stats = db.table_stats("tweets").unwrap();
    assert!(stats.iter().all(|s| s.wos_rows == 0), "{stats:?}");
}
