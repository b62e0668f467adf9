//! MD: model deployment from the compute engine into the database
//! (paper Sec. 3.3).
//!
//! PMML documents are stored in the database's internal DFS (a generic
//! table schema cannot fit every model family), with their metadata —
//! name, type, size, feature count — in a catalog table. The
//! [`PmmlPredictUdf`] is the paper's generic evaluator: input a numeric
//! vector, output a number, selected by `USING PARAMETERS
//! model_name='...'`, so scoring runs inside the database:
//!
//! ```sql
//! SELECT PMMLPredict(sepal_length, sepal_width, petal_length,
//!                    petal_width USING PARAMETERS model_name='regression')
//! FROM IrisTable
//! ```

use std::collections::HashMap;
use std::sync::{Arc, Weak};

use common::{Row, Value};
use mppdb::catalog::{Segmentation, TableDef};
use mppdb::udf::{ScalarUdf, UdfParams};
use mppdb::{Cluster, DbError, DbResult, QuerySpec, Session};
use parking_lot::Mutex;
use pmml::{Evaluator, PmmlDocument};

use crate::error::{ConnectorError, ConnectorResult};
use crate::options::ConnectorOptions;
use crate::retry::{CallPolicy, RetryConn};

/// Catalog table holding model metadata.
pub const MODEL_TABLE: &str = "pmml_models";
/// DFS directory holding model documents.
pub const MODEL_DFS_PREFIX: &str = "/pmml/";
/// The scoring UDx's SQL name.
const PMML_PREDICT: &str = "PMMLPredict";
/// Op tag of the catalog statements deploy, drop and list run.
const MD_CATALOG: &str = "md.catalog";

/// Metadata of a deployed model.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelInfo {
    pub name: String,
    pub model_type: String,
    pub size_bytes: u64,
    pub num_features: u64,
}

/// Handle for deploying and reading models on a cluster.
pub struct ModelDeployment {
    cluster: Arc<Cluster>,
}

impl ModelDeployment {
    /// Attach to a cluster: ensures the metadata table exists and the
    /// `PMMLPredict` UDx is registered.
    pub fn new(cluster: Arc<Cluster>) -> DbResult<ModelDeployment> {
        if !cluster.has_table(MODEL_TABLE) {
            let schema = common::Schema::new(vec![
                common::Field::not_null("name", common::DataType::Varchar),
                common::Field::new("model_type", common::DataType::Varchar),
                common::Field::new("size_bytes", common::DataType::Int64),
                common::Field::new("num_features", common::DataType::Int64),
            ]);
            cluster.create_table(TableDef::new(
                MODEL_TABLE,
                schema,
                Segmentation::Unsegmented,
            )?)?;
        }
        cluster.register_udf(Arc::new(PmmlPredictUdf::new(&cluster)));
        Ok(ModelDeployment { cluster })
    }

    fn dfs_path(name: &str) -> String {
        format!("{MODEL_DFS_PREFIX}{name}.xml")
    }

    /// Run `f` against the catalog through the connector's retrying,
    /// failing-over connection: node 0 preferred, any live node taken.
    /// `f` may run again on another session after a transient failure,
    /// so it must be idempotent.
    fn on_catalog<T>(&self, f: impl FnMut(&mut Session) -> ConnectorResult<T>) -> DbResult<T> {
        let policy = CallPolicy::for_job(&self.cluster, &ConnectorOptions::for_table(MODEL_TABLE));
        RetryConn::new(Arc::clone(&self.cluster), 0, policy)
            .run(MD_CATALOG, f)
            .map_err(into_db_error)
    }

    /// Delete `name`'s catalog row, and only its row: the name goes into
    /// the statement as a literal with each quote doubled.
    fn delete_catalog_row(session: &mut Session, name: &str) -> DbResult<()> {
        let literal = name.replace('\'', "''");
        session.execute(&format!(
            "DELETE FROM {MODEL_TABLE} WHERE name = '{literal}'"
        ))?;
        Ok(())
    }

    /// Make `PMMLPredict` parse `name` afresh on its next call.
    fn forget_evaluator(&self, name: &str) {
        if let Some(udf) = self.cluster.udf(PMML_PREDICT) {
            udf.forget(name);
        }
    }

    /// `DeployPMMLModel()`: store the document in the DFS and its
    /// metadata in the catalog table.
    pub fn deploy_pmml_model(&self, doc: &PmmlDocument, overwrite: bool) -> DbResult<()> {
        let name = doc.model_name.clone();
        let xml = doc.to_xml();
        let path = Self::dfs_path(&name);
        if self.cluster.dfs().exists(&path) && !overwrite {
            return Err(DbError::Dfs(format!("model {name} already deployed")));
        }
        // Validate before publishing: an undeployable document must not
        // land in the DFS.
        Evaluator::from_document(doc).map_err(DbError::Data)?;
        let num_features = doc.model.input_fields().len() as i64;
        self.cluster
            .dfs()
            .store(&path, xml.clone().into_bytes(), overwrite)?;
        self.forget_evaluator(&name);
        let row = Row::new(vec![
            Value::Varchar(name.clone()),
            Value::Varchar(doc.model.model_type().to_string()),
            Value::Int64(xml.len() as i64),
            Value::Int64(num_features),
        ]);
        self.on_catalog(|session| {
            Self::delete_catalog_row(session, &name)?;
            session.insert(MODEL_TABLE, vec![row.clone()])?;
            Ok(())
        })?;
        obs::global().emit(obs::EventKind::MdScore, |e| {
            e.bytes = xml.len() as u64;
            e.detail = format!(
                "deployed model {name} ({}, {num_features} features)",
                doc.model.model_type()
            );
        });
        Ok(())
    }

    /// `GetPMML()`: read a deployed document back from the DFS.
    pub fn get_pmml(&self, name: &str) -> DbResult<PmmlDocument> {
        let bytes = self.cluster.dfs().read(&Self::dfs_path(name))?;
        let xml = std::str::from_utf8(&bytes)
            .map_err(|e| DbError::Dfs(format!("model {name} is not utf8: {e}")))?;
        PmmlDocument::from_xml(xml).map_err(DbError::Data)
    }

    /// Remove a model and its metadata.
    pub fn drop_model(&self, name: &str) -> DbResult<()> {
        self.cluster.dfs().delete(&Self::dfs_path(name))?;
        self.forget_evaluator(name);
        self.on_catalog(|session| Ok(Self::delete_catalog_row(session, name)?))
    }

    /// List deployed models from the metadata table.
    pub fn list_models(&self) -> DbResult<Vec<ModelInfo>> {
        let result =
            self.on_catalog(|session| Ok(session.query(&QuerySpec::scan(MODEL_TABLE))?))?;
        let mut models: Vec<ModelInfo> = result
            .rows
            .iter()
            .map(|r| {
                Ok(ModelInfo {
                    name: r.get(0).as_str().map_err(DbError::Data)?.to_string(),
                    model_type: r.get(1).as_str().map_err(DbError::Data)?.to_string(),
                    size_bytes: r.get(2).as_i64().map_err(DbError::Data)? as u64,
                    num_features: r.get(3).as_i64().map_err(DbError::Data)? as u64,
                })
            })
            .collect::<DbResult<_>>()?;
        models.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(models)
    }
}

/// The database error behind a failed catalog call: the last attempt's,
/// when the retries ran out.
fn into_db_error(e: ConnectorError) -> DbError {
    match e {
        ConnectorError::Db { source, .. } => source,
        ConnectorError::RetriesExhausted { last, .. } => into_db_error(*last),
        other => DbError::Execution(other.to_string()),
    }
}

/// The generic scoring UDx.
///
/// Holds a weak cluster reference (it lives *in* the cluster's UDF
/// registry) and a per-model evaluator cache so the PMML document is
/// parsed once, not per row. Deploying or dropping a model evicts its
/// entry ([`ScalarUdf::forget`]).
pub struct PmmlPredictUdf {
    cluster: Weak<Cluster>,
    cache: Mutex<HashMap<String, Arc<Evaluator>>>,
}

impl PmmlPredictUdf {
    pub fn new(cluster: &Arc<Cluster>) -> PmmlPredictUdf {
        PmmlPredictUdf {
            cluster: Arc::downgrade(cluster),
            cache: Mutex::new(HashMap::new()),
        }
    }

    fn evaluator(&self, name: &str) -> DbResult<Arc<Evaluator>> {
        if let Some(e) = self.cache.lock().get(name) {
            return Ok(Arc::clone(e));
        }
        let cluster = self
            .cluster
            .upgrade()
            .ok_or_else(|| DbError::Udf("database cluster is gone".into()))?;
        let bytes = cluster
            .dfs()
            .read(&format!("{MODEL_DFS_PREFIX}{name}.xml"))
            .map_err(|_| DbError::Udf(format!("no deployed model named {name:?}")))?;
        let xml = std::str::from_utf8(&bytes)
            .map_err(|e| DbError::Udf(format!("model {name} is not utf8: {e}")))?;
        let evaluator = Arc::new(
            Evaluator::from_xml(xml)
                .map_err(|e| DbError::Udf(format!("model {name} failed to parse: {e}")))?,
        );
        // One event per cache fill, not per row — the per-row scoring
        // throughput lives in the md.predictions counter.
        obs::global().emit(obs::EventKind::MdScore, |e| {
            e.bytes = bytes.len() as u64;
            e.detail = format!("model {name} parsed into the scoring cache");
        });
        self.cache
            .lock()
            .insert(name.to_string(), Arc::clone(&evaluator));
        Ok(evaluator)
    }
}

impl ScalarUdf for PmmlPredictUdf {
    fn name(&self) -> &str {
        PMML_PREDICT
    }

    fn forget(&self, model_name: &str) {
        self.cache.lock().remove(model_name);
    }

    fn eval(&self, args: &[Value], params: &UdfParams) -> DbResult<Value> {
        let model_name = params.require_str("model_name")?;
        let evaluator = self.evaluator(model_name)?;
        if args.iter().any(Value::is_null) {
            return Ok(Value::Null);
        }
        let features: Vec<f64> = args
            .iter()
            .map(|v| v.as_f64().map_err(|e| DbError::Udf(e.to_string())))
            .collect::<DbResult<_>>()?;
        let score = evaluator
            .predict(&features)
            .map_err(|e| DbError::Udf(e.to_string()))?;
        obs::global().add(obs::names::MD_PREDICTIONS, 1);
        Ok(Value::Float64(score))
    }
}
