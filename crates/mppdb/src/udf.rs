//! User-Defined Extensions (UDx): scalar functions callable from SQL.
//!
//! The paper extends the database's analytics by deploying models and
//! scoring them through a UDF (`PMMLPredict(... USING PARAMETERS
//! model_name='...')`, Sec. 3.3). The registry lives on the cluster;
//! the SQL executor resolves any non-aggregate function call here.

use std::collections::HashMap;

use common::Value;

use crate::error::{DbError, DbResult};

/// Named parameters passed via `USING PARAMETERS`.
#[derive(Debug, Clone, Default)]
pub struct UdfParams {
    params: HashMap<String, Value>,
}

impl UdfParams {
    pub fn new(pairs: &[(String, Value)]) -> UdfParams {
        UdfParams {
            params: pairs
                .iter()
                .map(|(k, v)| (k.to_ascii_lowercase(), v.clone()))
                .collect(),
        }
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        self.params.get(&key.to_ascii_lowercase())
    }

    pub fn require_str(&self, key: &str) -> DbResult<&str> {
        match self.get(key) {
            Some(Value::Varchar(s)) => Ok(s),
            Some(other) => Err(DbError::Udf(format!(
                "parameter {key} must be a string, got {}",
                other.type_name()
            ))),
            None => Err(DbError::Udf(format!("missing required parameter {key}"))),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }
}

/// A scalar user-defined function.
pub trait ScalarUdf: Send + Sync {
    /// Function name as invoked from SQL (case-insensitive).
    fn name(&self) -> &str;

    /// Evaluate one invocation.
    fn eval(&self, args: &[Value], params: &UdfParams) -> DbResult<Value>;

    /// Drop whatever the function caches under `key` — a deployed
    /// model's name, say — because what it was built from changed. The
    /// default caches nothing.
    fn forget(&self, _key: &str) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    struct PlusOne;
    impl ScalarUdf for PlusOne {
        fn name(&self) -> &str {
            "plus_one"
        }
        fn eval(&self, args: &[Value], _params: &UdfParams) -> DbResult<Value> {
            let x = args[0].as_f64().map_err(|e| DbError::Udf(e.to_string()))?;
            Ok(Value::Float64(x + 1.0))
        }
    }

    #[test]
    fn params_lookup_case_insensitive() {
        let p = UdfParams::new(&[("Model_Name".into(), Value::Varchar("m".into()))]);
        assert_eq!(p.require_str("model_name").unwrap(), "m");
        assert!(p.require_str("missing").is_err());
    }

    #[test]
    fn params_type_checked() {
        let p = UdfParams::new(&[("k".into(), Value::Int64(3))]);
        assert!(p.require_str("k").is_err());
        assert_eq!(p.get("k"), Some(&Value::Int64(3)));
    }

    #[test]
    fn scalar_udf_trait_object() {
        let udf: Box<dyn ScalarUdf> = Box::new(PlusOne);
        let out = udf.eval(&[Value::Int64(4)], &UdfParams::default()).unwrap();
        assert_eq!(out, Value::Float64(5.0));
    }
}
