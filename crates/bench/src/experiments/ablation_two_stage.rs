//! Ablation (paper Sec. 5): the direct single-stage connector vs the
//! two-stage DFS landing-zone approach (the Spark-Redshift design),
//! both directions. The paper predicts the two-stage path "may be
//! slower than our single-stage approach because it requires an
//! intermediate write of a full copy of the data".

use crate::datasets::{self, specs};
use crate::experiments::{run_s2v_save, run_v2s_load, LAB_D1_ROWS};
use crate::report::ReportRow;
use crate::{simulate, SimParams, TestBed};
use connector::{load_via_dfs, ConnectorOptions, SaveRequest, TwoStageConfig, WriteMethod};
use netsim::record::Event;

fn merged_events(bed: &TestBed) -> Vec<Event> {
    // The two-stage path touches both the database and the DFS; merge
    // the two logs (driver-stage ordering is preserved within each).
    let mut events = bed.dfs.as_ref().unwrap().recorder().drain();
    events.extend(bed.db.recorder().drain());
    events
}

pub fn run() -> Vec<ReportRow> {
    let bed = TestBed::new(4, 8).with_dfs(4, 256 << 10);
    let (schema, rows) = datasets::d1(LAB_D1_ROWS, 100, 42);
    let spec = specs::d1_100m(LAB_D1_ROWS as u64);
    let params = SimParams::new(4, 8, spec.scale()).with_dfs(4);

    // Direct connector, both directions.
    let events = run_s2v_save(&bed, schema.clone(), rows.clone(), "direct", 128);
    let direct_save = simulate(&events, &params).seconds;
    let events = run_v2s_load(&bed, "direct", 32);
    let direct_load = simulate(&events, &params).seconds;

    // Two-stage save.
    let df = bed.dataframe(schema.clone(), rows.clone(), 128);
    bed.clear_recorders();
    let two_stage_opts = ConnectorOptions::builder("two_stage_target")
        .method(WriteMethod::Dfs)
        .staging_path("/staging/save")
        .build()
        .unwrap();
    SaveRequest::new(&bed.ctx, &bed.db, &df, &two_stage_opts)
        .with_dfs(bed.dfs.as_ref().unwrap())
        .submit()
        .unwrap();
    let staged_save = simulate(&merged_events(&bed), &params).seconds;

    // Two-stage load.
    bed.clear_recorders();
    let loaded = load_via_dfs(
        &bed.ctx,
        &bed.db,
        bed.dfs.as_ref().unwrap(),
        "direct",
        &TwoStageConfig::new("/staging/load"),
    )
    .unwrap();
    assert_eq!(loaded.count().unwrap() as usize, LAB_D1_ROWS);
    let staged_load = simulate(&merged_events(&bed), &params).seconds;

    println!(
        "two-stage penalty: save {:.2}x, load {:.2}x — the paper's predicted \
         intermediate-copy cost",
        staged_save / direct_save,
        staged_load / direct_load
    );
    vec![
        ReportRow::new("save: direct (S2V @128)", None, direct_save),
        ReportRow::new("save: two-stage via DFS", None, staged_save),
        ReportRow::new("load: direct (V2S @32)", None, direct_load),
        ReportRow::new("load: two-stage via DFS", None, staged_load),
    ]
}
