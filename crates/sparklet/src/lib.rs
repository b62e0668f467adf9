//! A batch compute engine in the MapReduce/Spark mold (paper Sec.
//! 2.1.2).
//!
//! Everything the connector's design reacts to is reproduced here:
//!
//! * **RDDs** — immutable, partitioned, lazily evaluated datasets whose
//!   lineage lets any partition be recomputed at any time.
//! * **A batch task scheduler** — actions become jobs; a job launches
//!   one independent, stateless task per partition onto bounded executor
//!   slots. Tasks can fail and be retried, can fail *after* their side
//!   effects ran, and can be speculatively duplicated — the exact
//!   hazards the S2V protocol (Sec. 3.2.1) must survive. A whole job can
//!   be killed mid-flight to model total engine failure.
//! * **DataFrames** — schema-carrying row datasets with select/filter/
//!   count and a reader/writer API matching the paper's Table 1
//!   (`format(...).options(...).mode(...).save()` / `.load()`).
//! * **The External Data Source API** — the provider/relation traits a
//!   connector implements, with filter and projection pushdown plus a
//!   count pushdown.
//! * **MLlib-lite** — linear regression, logistic regression, and
//!   k-means, trained through the scheduler over RDD partitions, plus
//!   PMML export (the MD component's input, Sec. 3.3).

pub mod context;
pub mod dataframe;
pub mod datasource;
pub mod error;
pub mod failure;
pub mod mllib;
pub mod pmml_export;
pub mod rdd;
pub mod scheduler;

pub use context::{SparkConf, SparkContext};
pub use dataframe::{DataFrame, DataFrameReader, DataFrameWriter};
pub use datasource::{DataSourceProvider, Options, SaveMode, ScanRelation};
pub use error::{SparkError, SparkResult};
pub use failure::{FailureInjector, FailureMode};
pub use rdd::{Partition, Rdd};
pub use scheduler::{job_label, JobStats, TaskContext};
