//! Ablation (DESIGN.md §5): S2V's Avro-encoded COPY stream vs a CSV
//! COPY stream vs JDBC INSERT batches, for the same save.

use crate::datasets::{self, specs};
use crate::experiments::{run_s2v_save, LAB_D1_ROWS};
use crate::report::ReportRow;
use crate::{simulate, SimParams, TestBed};
use mppdb::{CopyOptions, CopySource};
use netsim::record::{NetClass, NodeRef};
use sparklet::{Options, SaveMode};

pub fn run() -> Vec<ReportRow> {
    let bed = TestBed::new(4, 8);
    let (schema, rows) = datasets::d1(LAB_D1_ROWS, 100, 42);
    let spec = specs::d1_100m(LAB_D1_ROWS as u64);
    let params = SimParams::new(4, 8, spec.scale());

    // Arm A: the connector (Avro + COPY).
    let events = run_s2v_save(&bed, schema.clone(), rows.clone(), "enc_avro", 128);
    let avro = simulate(&events, &params).seconds;

    // Arm B: CSV + COPY, same partition layout, hand-rolled tasks.
    {
        let mut s = bed.db.connect(0).unwrap();
        let cols: Vec<String> = (0..100).map(|i| format!("c{i} FLOAT")).collect();
        s.execute(&format!("CREATE TABLE enc_csv ({})", cols.join(", ")))
            .unwrap();
    }
    bed.clear_recorders();
    let per_task = rows.len().div_ceil(128);
    for (task, chunk) in rows.chunks(per_task).enumerate() {
        let node = task % bed.db_nodes;
        let text = common::csv::encode_rows(chunk, ',');
        let mut session = bed.db.connect(node).unwrap();
        session.set_task_tag(Some(task as u64));
        bed.db.recorder().transfer(
            Some(task as u64),
            NodeRef::Compute(task % bed.compute_nodes),
            NodeRef::Db(node),
            NetClass::External,
            text.len() as u64,
            chunk.len() as u64,
        );
        session
            .copy(
                "enc_csv",
                CopySource::Csv {
                    text,
                    delimiter: ',',
                },
                CopyOptions::default(),
            )
            .unwrap();
    }
    let csv = simulate(&bed.db.recorder().drain(), &params).seconds;

    // Arm C: JDBC INSERT batches.
    let df = bed.dataframe(schema, rows, 128);
    bed.clear_recorders();
    df.write()
        .format(baselines::JDBC_FORMAT)
        .options(Options::new().with("dbtable", "enc_insert"))
        .mode(SaveMode::Overwrite)
        .save()
        .unwrap();
    let insert = simulate(&bed.db.recorder().drain(), &params).seconds;

    vec![
        ReportRow::new("Avro + COPY (the connector)", None, avro),
        ReportRow::new("CSV + COPY", None, csv),
        ReportRow::new("INSERT batches (JDBC-style)", None, insert),
    ]
}
