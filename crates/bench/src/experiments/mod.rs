//! One experiment module per table/figure of the paper's Sec. 4, and
//! the one table ([`EXPERIMENTS`]) the `bench` binary runs them from.

pub mod ablation_encoding;
pub mod ablation_locality;
pub mod ablation_prehash;
pub mod ablation_savemode;
pub mod ablation_two_stage;
pub mod fig10_v2s_vs_jdbc;
pub mod fig11_s2v_vs_jdbc;
pub mod fig12_vs_hdfs;
pub mod fig6_parallelism;
pub mod fig7_data_scaling;
pub mod fig8_cluster_scaling;
pub mod fig9_dimensionality;
pub mod pushdown;
pub mod rebalance;
pub mod stream;
pub mod table2_resources;
pub mod table3_dataset_d2;
pub mod table4_vs_copy;

use common::{Row, Schema};
use netsim::record::Event;
use sparklet::{Options, SaveMode};

use crate::fabric::TestBed;
use crate::report::ReportRow;

/// One experiment: `name` is the module's, what `bench <name>` selects
/// and what `BENCH_<name>.json` is called after.
pub struct Experiment {
    pub name: &'static str,
    pub title: &'static str,
    pub run: fn() -> Vec<ReportRow>,
}

/// Every experiment, in the order `bench all` runs them: the paper's
/// evaluation section, then the ablations.
pub static EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "fig6_parallelism",
        title: "Fig. 6 — varying the number of partitions (D1, 4:8 cluster)",
        run: || fig6_parallelism::run(fig6_parallelism::PARTITION_SWEEP).0,
    },
    Experiment {
        name: "table2_resources",
        title: "Table 2 — node resource usage during V2S (steady state)",
        run: || table2_resources::run().0,
    },
    Experiment {
        name: "fig7_data_scaling",
        title: "Fig. 7 — varying the data size (D1, V2S@32 / S2V@128)",
        run: || fig7_data_scaling::run(fig7_data_scaling::ROW_SWEEP).0,
    },
    Experiment {
        name: "fig8_cluster_scaling",
        title: "Fig. 8 — varying the cluster sizes (2:4 / 4:8 / 8:16)",
        run: || fig8_cluster_scaling::run(fig8_cluster_scaling::CLUSTER_SWEEP).0,
    },
    Experiment {
        name: "fig9_dimensionality",
        title: "Fig. 9 — varying the data dimensionality (10,000M cells)",
        run: || fig9_dimensionality::run().0,
    },
    Experiment {
        name: "table3_dataset_d2",
        title: "Table 3 — dataset D2 (1.46B tweet rows)",
        run: || table3_dataset_d2::run().0,
    },
    Experiment {
        name: "fig10_v2s_vs_jdbc",
        title: "Fig. 10 — V2S vs JDBC DefaultSource load (5% selectivity)",
        run: || fig10_v2s_vs_jdbc::run().0,
    },
    Experiment {
        name: "fig11_s2v_vs_jdbc",
        title: "Fig. 11 — S2V vs JDBC DefaultSource save",
        run: || fig11_s2v_vs_jdbc::run().0,
    },
    Experiment {
        name: "fig12_vs_hdfs",
        title: "Fig. 12 — V2S/S2V vs DFS read/write (separate 4:8 clusters)",
        run: || fig12_vs_hdfs::run().0,
    },
    Experiment {
        name: "table4_vs_copy",
        title: "Table 4 — S2V vs native bulk-load COPY",
        run: || table4_vs_copy::run(table4_vs_copy::PART_SWEEP).0,
    },
    Experiment {
        name: "ablation_encoding",
        title: "Ablation — S2V transport encoding",
        run: ablation_encoding::run,
    },
    Experiment {
        name: "ablation_locality",
        title: "Ablation — locality-aware range queries",
        run: ablation_locality::run,
    },
    Experiment {
        name: "ablation_prehash",
        title: "Ablation — pre-hashed S2V (Sec. 5)",
        run: ablation_prehash::run,
    },
    Experiment {
        name: "ablation_savemode",
        title: "Ablation — S2V final-commit mode",
        run: ablation_savemode::run,
    },
    Experiment {
        name: "ablation_two_stage",
        title: "Ablation — direct connector vs two-stage DFS landing zone",
        run: ablation_two_stage::run,
    },
    Experiment {
        name: "pushdown",
        title: "Ablation — zone-map skipping × aggregate pushdown",
        run: pushdown::report,
    },
    Experiment {
        name: "stream",
        title: "Ablation — streaming ingest steady-state scans, tuple mover on vs off",
        run: stream::report,
    },
    Experiment {
        name: "rebalance",
        title: "Ablation — node-add under load: availability and P99 through an online rebalance",
        run: rebalance::report,
    },
];

/// The experiment `bench <name>` runs.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// Default lab-scale D1 row count (volumes scale linearly, so only the
/// per-partition structure needs to be realistic).
pub const LAB_D1_ROWS: usize = 8_000;

/// Save rows into `table` through S2V (overwrite) and return the
/// recorded events of the save alone.
pub fn run_s2v_save(
    bed: &TestBed,
    schema: Schema,
    rows: Vec<Row>,
    table: &str,
    partitions: usize,
) -> Vec<Event> {
    let df = bed.dataframe(schema, rows, partitions);
    bed.clear_recorders();
    df.write()
        .format(connector::DEFAULT_SOURCE)
        .options(
            Options::new()
                .with("host", 0)
                .with("table", table)
                .with("numPartitions", partitions),
        )
        .mode(SaveMode::Overwrite)
        .save()
        .expect("S2V save");
    bed.db.recorder().drain()
}

/// Populate `table` (quietly) so a read experiment has a source.
pub fn seed_table(bed: &TestBed, schema: Schema, rows: Vec<Row>, table: &str) {
    let df = bed.dataframe(schema, rows, bed.compute_nodes);
    df.write()
        .format(connector::DEFAULT_SOURCE)
        .options(
            Options::new()
                .with("host", 0)
                .with("table", table)
                .with("numPartitions", bed.db_nodes * 4),
        )
        .mode(SaveMode::Overwrite)
        .save()
        .expect("seeding save");
    bed.clear_recorders();
}

/// Load `table` through V2S with `partitions` and return the events.
pub fn run_v2s_load(bed: &TestBed, table: &str, partitions: usize) -> Vec<Event> {
    bed.clear_recorders();
    let df = bed
        .ctx
        .read()
        .format(connector::DEFAULT_SOURCE)
        .option("host", 0)
        .option("table", table)
        .option("numPartitions", partitions)
        .load()
        .expect("V2S relation");
    let rows = df.collect().expect("V2S load");
    assert!(!rows.is_empty(), "load produced no rows");
    bed.db.recorder().drain()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `bench all` runs the table, so the table must hold every module
    /// of this directory, each under a name `bench <name>` resolves.
    #[test]
    fn the_table_names_every_experiment_module_once() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src/experiments");
        let mut modules: Vec<String> = std::fs::read_dir(dir)
            .expect("the experiments directory")
            .map(|entry| entry.expect("a directory entry").path())
            .filter_map(|path| Some(path.file_stem()?.to_str()?.to_string()))
            .filter(|stem| stem != "mod")
            .collect();
        modules.sort();
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        names.sort();
        assert_eq!(names, modules);
        assert_eq!(names.len(), 18);
        for e in EXPERIMENTS {
            let found = find(e.name).expect("every name resolves");
            assert!(std::ptr::eq(found, e), "{} is in the table twice", e.name);
        }
    }
}
