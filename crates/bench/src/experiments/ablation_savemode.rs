//! Ablation (DESIGN.md §5): overwrite's atomic staging-table rename vs
//! append's staging→target copy (the drawback Sec. 5 discusses).

use crate::datasets::{self, specs};
use crate::experiments::LAB_D1_ROWS;
use crate::report::ReportRow;
use crate::{simulate, SimParams, TestBed};
use sparklet::{Options, SaveMode};

pub fn run() -> Vec<ReportRow> {
    let bed = TestBed::new(4, 8);
    let (schema, rows) = datasets::d1(LAB_D1_ROWS, 100, 42);
    let spec = specs::d1_100m(LAB_D1_ROWS as u64);
    let params = SimParams::new(4, 8, spec.scale());

    let mut out = Vec::new();
    for (label, mode) in [
        ("overwrite (atomic rename)", SaveMode::Overwrite),
        ("append (staging copy)", SaveMode::Append),
    ] {
        let df = bed.dataframe(schema.clone(), rows.clone(), 128);
        bed.clear_recorders();
        df.write()
            .format(connector::DEFAULT_SOURCE)
            .options(
                Options::new()
                    .with("host", 0)
                    .with("table", "modal_target")
                    .with("numPartitions", 128),
            )
            .mode(mode)
            .save()
            .unwrap();
        let secs = simulate(&bed.db.recorder().drain(), &params).seconds;
        out.push(ReportRow::new(label, None, secs));
    }
    println!("(the paper's Sec. 5 notes append's final copy is the drawback)");
    out
}
