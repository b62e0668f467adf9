//! A micro-batch pays for the batch, not for the table.
//!
//! Sixty 200-row micro-batches go through a `StreamWriter` with the
//! mover on, as the streaming benchmark drives it, and the scan work
//! each causes — rows examined and values decoded, read from the
//! process-wide counters, so this file holds one test — is compared
//! between batch 15 and batch 55. Before UPDATE and DELETE handed their
//! predicate to the store scan every batch examined 9 rows and decoded
//! 27 values more than the one before it: the protocol's `UPDATE
//! s2v_job_final_status … WHERE job_name = …` decoded every row of a
//! table that gains one row per batch, twice on every node. Then, until
//! SQL aggregates lowered onto the pushed-down aggregate scan, the job's
//! `SELECT COUNT(*) FROM s2v_job_final_status WHERE job_name = …` loaded
//! that table as rows: one row and its three values more per batch.
//! Now the count is a pushed-down aggregate scan whose predicate, like
//! the UPDATE's, skips an earlier job's rows by their containers' zone
//! maps instead of examining them, so the two batches cost the same and
//! `PER_BATCH` below is `(0, 0)`. The engine runs one worker
//! thread with speculation off, so the number of tasks reaching each
//! phase is fixed.

use std::sync::Arc;

use common::{row, DataType, Row, Schema};
use connector::{ConnectorOptions, DefaultSource, StreamWriter};
use mppdb::{Cluster, ClusterConfig};
use sparklet::{SaveMode, SparkConf, SparkContext};

const BATCH_ROWS: usize = 200;

/// (rows examined, values decoded) a batch adds to every later batch.
const PER_BATCH: (u64, u64) = (0, 0);

#[test]
fn scan_work_per_batch_grows_only_by_the_final_status_count() {
    let cluster = Cluster::new(ClusterConfig::default());
    let ctx = SparkContext::new(SparkConf {
        nodes: 8,
        cores_per_node: 4,
        thread_cap: 1,
        speculation: false,
        ..SparkConf::default()
    });
    DefaultSource::register(&ctx, Arc::clone(&cluster));
    let schema = Schema::from_pairs(&[("id", DataType::Int64), ("x", DataType::Float64)]);
    let opts = ConnectorOptions::builder("stream_tgt")
        .num_partitions(4)
        .copy_direct(false)
        .stream(BATCH_ROWS, 600_000)
        .mover_enabled(true)
        .build()
        .unwrap();
    let mut writer = StreamWriter::open(&ctx, &cluster, schema, &opts, SaveMode::Append).unwrap();

    let mut work: Vec<(u64, u64)> = Vec::new();
    for batch in 0..60i64 {
        let base = batch * BATCH_ROWS as i64;
        let rows: Vec<Row> = (base..base + BATCH_ROWS as i64)
            .map(|i| row![i, i as f64])
            .collect();
        let before = obs::global().snapshot();
        assert_eq!(writer.append_rows(rows).unwrap(), 1);
        let delta = obs::global().snapshot().counters_since(&before);
        let of = |name: &str| delta.get(name).copied().unwrap_or(0);
        work.push((of("scan.rows_examined"), of("scan.values_decoded")));
    }
    assert_eq!(writer.finish().unwrap().rows_loaded, 60 * BATCH_ROWS as u64);
    let (examined, decoded) = work[15];
    assert_eq!(
        work[55],
        (examined + 40 * PER_BATCH.0, decoded + 40 * PER_BATCH.1),
        "(rows examined, values decoded) of batch 55 against batch 15's {:?}",
        work[15]
    );
}
