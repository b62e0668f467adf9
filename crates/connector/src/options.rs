//! Connector options: the `key=value` pairs of the paper's Table 1,
//! parsed into a typed struct — plus a typed [`builder`] for
//! programmatic callers, so Rust code never round-trips through the
//! stringly map.
//!
//! [`builder`]: ConnectorOptions::builder

use std::time::Duration;

use sparklet::Options;

use crate::error::{ConnectorError, ConnectorResult};
use crate::retry::RetryPolicy;

/// Which physical path a save takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WriteMethod {
    /// Direct parallel COPY under the S2V exactly-once protocol
    /// (Sec. 3.2) — the default.
    #[default]
    Copy,
    /// Two-stage load through the shared DFS (Sec. 2.2.1's pre-connector
    /// architecture): stage part-files, then one transactional COPY.
    Dfs,
}

/// How rows reach the database: one bulk COPY, or a sequence of
/// micro-batches that each reuse the full exactly-once COPY protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IngestMode {
    /// The whole DataFrame in one exactly-once save — the default.
    #[default]
    Bulk,
    /// Continuous ingest: rows accumulate in a [`StreamWriter`] and
    /// flush as micro-batches, each a complete 5-phase COPY job, when
    /// either bound is hit.
    ///
    /// [`StreamWriter`]: crate::stream::StreamWriter
    Stream {
        /// Flush when this many rows are buffered (`stream.batch_rows`).
        batch_rows: usize,
        /// Flush a non-empty buffer older than this (`stream.flush_ms`).
        flush_ms: u64,
    },
}

/// Default `stream.batch_rows` when stream mode is selected.
pub const STREAM_BATCH_ROWS_DEFAULT: usize = 1024;
/// Default `stream.flush_ms` when stream mode is selected.
pub const STREAM_FLUSH_MS_DEFAULT: u64 = 100;

/// Parsed connector options.
///
/// The real connector takes `host`, `user`, `password`, `db`, `table`,
/// `numPartitions`, and a rejected-rows tolerance. Ours accepts the
/// same keys; credentials are accepted but unused (there is no auth
/// surface in the in-process database).
#[derive(Debug, Clone)]
pub struct ConnectorOptions {
    /// The single database node the API is pointed at (all node
    /// addresses are looked up from it during setup, Sec. 3.2).
    pub host: usize,
    /// Target or source table (or view, for V2S).
    pub table: String,
    /// Desired parallelism; defaults per direction (Sec. 4.2 found 32
    /// best-practice for V2S, 128 for S2V on the 4:8 cluster).
    pub num_partitions: Option<usize>,
    /// S2V: tolerated fraction of rejected rows (0.0 = none), the
    /// paper's "failed rows percentage" tolerance.
    pub failed_rows_percent_tolerance: f64,
    /// S2V: bulk-load directly into read-optimized storage.
    pub copy_direct: bool,
    /// S2V: unique job name; auto-derived from the table when absent.
    pub job_name: Option<String>,
    /// Resource pool every connector session joins (the paper isolates
    /// data movement in a dedicated pool, Sec. 4.1). Must exist.
    pub resource_pool: Option<String>,
    /// S2V: pre-hash the DataFrame to the target table's segmentation
    /// so every task loads only node-local data (paper Sec. 5's first
    /// future-work optimization; eliminates database-internal shuffle
    /// at the cost of an engine-side shuffle).
    pub prehash: bool,
    /// Save path: direct COPY (S2V) or the two-stage DFS load.
    pub method: WriteMethod,
    /// DFS directory for `method=dfs` staging; defaults to
    /// `/staging/{table}`.
    pub staging_path: Option<String>,
    /// How each database touchpoint retries transient failures.
    pub retry: RetryPolicy,
    /// Whether reads/sessions may fail over to other nodes when the
    /// preferred node is down.
    pub failover: bool,
    /// Overall wall-clock budget for the whole `save()`/`load()`,
    /// propagated through every retry, hedge, and COPY phase. `None`
    /// leaves only the per-operation retry deadline.
    pub deadline: Option<Duration>,
    /// Hedge idempotent reads (V2S pieces, catalog probes) onto a buddy
    /// node when the primary runs past the observed P99. Never applies
    /// to S2V writes.
    pub hedge: bool,
    /// Explicit hedge delay; `None` derives it from observed latencies
    /// (`max(3 × P99, 10ms)`).
    pub hedge_delay: Option<Duration>,
    /// V2S: let piece scans use zone-map skipping and stats-driven
    /// conjunct ordering (ablation hook; results are identical).
    pub stats_skipping: bool,
    /// V2S: push `df.agg(..)` into the database as per-piece partial
    /// aggregates instead of pulling rows and aggregating engine-side.
    pub agg_pushdown: bool,
    /// Bulk (one COPY) or streaming micro-batch ingest.
    pub ingest: IngestMode,
    /// Streaming: run a tuple-mover pass after each micro-batch commit,
    /// keeping the WOS drained and small ROS containers compacted so
    /// steady-state scans stay fast under continuous ingest.
    pub mover_enabled: bool,
}

/// Every key `parse` understands; anything else is a usage error
/// (silently dropping a misspelled `numpartitions` cost real users real
/// debugging time).
const KNOWN_KEYS: &[&str] = &[
    "host",
    "user",
    "password",
    "db",
    "dbschema",
    "table",
    "numpartitions",
    "failed_rows_percent_tolerance",
    "copy_direct",
    "job_name",
    "resource_pool",
    "prehash",
    "method",
    "staging_path",
    "retry_max_attempts",
    "retry_deadline_ms",
    "failover",
    "deadline_ms",
    "hedge",
    "hedge_delay_ms",
    "stats_skipping",
    "agg_pushdown",
    "stream.batch_rows", // fabriclint: allow(obs-registry): option key, not a counter
    "stream.flush_ms",   // fabriclint: allow(obs-registry): option key, not a counter
    "mover.enabled",
];

impl ConnectorOptions {
    /// A typed builder — the programmatic mirror of the Table-1 string
    /// options.
    pub fn builder(table: &str) -> ConnectorOptionsBuilder {
        ConnectorOptionsBuilder {
            opts: ConnectorOptions::for_table(table),
        }
    }

    /// Parse the stringly Table-1 option map. Unknown keys are rejected.
    pub fn parse(options: &Options) -> ConnectorResult<ConnectorOptions> {
        for key in options.keys() {
            if !KNOWN_KEYS.contains(&key) {
                return Err(ConnectorError::Usage(format!(
                    "unknown option '{key}' (known: {})",
                    KNOWN_KEYS.join(", ")
                )));
            }
        }
        let host_raw = options.get("host").unwrap_or("0");
        // Accept both bare indices ("2") and db-style names ("db2"): one
        // prefix, then ASCII digits only (`usize::from_str` takes a `+`).
        let digits = host_raw.strip_prefix("db").unwrap_or(host_raw);
        let host = Some(digits)
            .filter(|d| !d.is_empty() && d.bytes().all(|b| b.is_ascii_digit()))
            .and_then(|d| d.parse::<usize>().ok())
            .ok_or_else(|| {
                ConnectorError::Usage(format!("option host={host_raw} is not a node address"))
            })?;
        let mut b = ConnectorOptions::builder(options.require("table")?).host(host);
        if let Some(n) = options.get_parsed::<usize>("numpartitions")? {
            b = b.num_partitions(n);
        }
        if let Some(t) = options.get_parsed::<f64>("failed_rows_percent_tolerance")? {
            b = b.failed_rows_percent_tolerance(t);
        }
        if let Some(direct) = options.get_parsed::<bool>("copy_direct")? {
            b = b.copy_direct(direct);
        }
        if let Some(name) = options.get("job_name") {
            b = b.job_name(name);
        }
        if let Some(pool) = options.get("resource_pool") {
            b = b.resource_pool(pool);
        }
        if options.get_parsed::<bool>("prehash")?.unwrap_or(false) {
            b = b.prehash();
        }
        match options.get("method") {
            None | Some("copy") => {}
            Some("dfs") => b = b.method(WriteMethod::Dfs),
            Some(other) => {
                return Err(ConnectorError::Usage(format!(
                    "option method={other} is not one of copy, dfs"
                )));
            }
        }
        if let Some(path) = options.get("staging_path") {
            b = b.staging_path(path);
        }
        if let Some(n) = options.get_parsed::<u32>("retry_max_attempts")? {
            b = b.retry_max_attempts(n);
        }
        if let Some(ms) = options.get_parsed::<u64>("retry_deadline_ms")? {
            b = b.retry_deadline_ms(ms);
        }
        if let Some(fo) = options.get_parsed::<bool>("failover")? {
            b = b.failover(fo);
        }
        if let Some(ms) = options.get_parsed::<u64>("deadline_ms")? {
            b = b.deadline_ms(ms);
        }
        if let Some(h) = options.get_parsed::<bool>("hedge")? {
            b = b.hedge(h);
        }
        if let Some(ms) = options.get_parsed::<u64>("hedge_delay_ms")? {
            b = b.hedge_delay_ms(ms);
        }
        if let Some(s) = options.get_parsed::<bool>("stats_skipping")? {
            b = b.stats_skipping(s);
        }
        if let Some(a) = options.get_parsed::<bool>("agg_pushdown")? {
            b = b.agg_pushdown(a);
        }
        // Either stream.* key opts the save into micro-batch streaming;
        // the other takes its default.
        let batch_rows = options.get_parsed::<usize>("stream.batch_rows")?; // fabriclint: allow(obs-registry): option key, not a counter
        let flush_ms = options.get_parsed::<u64>("stream.flush_ms")?; // fabriclint: allow(obs-registry): option key, not a counter
        if batch_rows.is_some() || flush_ms.is_some() {
            b = b.stream(
                batch_rows.unwrap_or(STREAM_BATCH_ROWS_DEFAULT),
                flush_ms.unwrap_or(STREAM_FLUSH_MS_DEFAULT),
            );
        }
        if let Some(m) = options.get_parsed::<bool>("mover.enabled")? {
            b = b.mover_enabled(m);
        }
        b.build()
    }

    /// The defaults for a table.
    fn for_table(table: &str) -> ConnectorOptions {
        ConnectorOptions {
            host: 0,
            table: table.to_string(),
            num_partitions: None,
            failed_rows_percent_tolerance: 0.0,
            copy_direct: true,
            job_name: None,
            resource_pool: None,
            prehash: false,
            method: WriteMethod::Copy,
            staging_path: None,
            retry: RetryPolicy::default(),
            failover: true,
            deadline: None,
            hedge: true,
            hedge_delay: None,
            stats_skipping: true,
            agg_pushdown: true,
            ingest: IngestMode::Bulk,
            mover_enabled: true,
        }
    }

    /// Validate `host` against the actual cluster, returning the node
    /// index. A `host` pointing past the last node is a usage error
    /// naming the valid range, not an opaque index panic downstream.
    pub fn host_on(&self, cluster: &mppdb::Cluster) -> ConnectorResult<usize> {
        let n = cluster.node_count();
        if self.host >= n {
            return Err(ConnectorError::Usage(format!(
                "host db{} does not exist; this cluster has nodes db0..db{}",
                self.host,
                n - 1
            )));
        }
        Ok(self.host)
    }
}

/// Builder for [`ConnectorOptions`]; [`build`] validates everything the
/// string parser validates, so both entry points reject the same bad
/// configurations.
///
/// [`build`]: ConnectorOptionsBuilder::build
#[derive(Debug, Clone)]
pub struct ConnectorOptionsBuilder {
    opts: ConnectorOptions,
}

impl ConnectorOptionsBuilder {
    pub fn host(mut self, host: usize) -> Self {
        self.opts.host = host;
        self
    }

    pub fn num_partitions(mut self, n: usize) -> Self {
        self.opts.num_partitions = Some(n);
        self
    }

    pub fn failed_rows_percent_tolerance(mut self, fraction: f64) -> Self {
        self.opts.failed_rows_percent_tolerance = fraction;
        self
    }

    pub fn copy_direct(mut self, direct: bool) -> Self {
        self.opts.copy_direct = direct;
        self
    }

    pub fn job_name(mut self, name: &str) -> Self {
        self.opts.job_name = Some(name.to_string());
        self
    }

    pub fn resource_pool(mut self, pool: &str) -> Self {
        self.opts.resource_pool = Some(pool.to_string());
        self
    }

    pub fn prehash(mut self) -> Self {
        self.opts.prehash = true;
        self
    }

    pub fn method(mut self, method: WriteMethod) -> Self {
        self.opts.method = method;
        self
    }

    pub fn staging_path(mut self, path: &str) -> Self {
        self.opts.staging_path = Some(path.to_string());
        self
    }

    pub fn retry_max_attempts(mut self, attempts: u32) -> Self {
        self.opts.retry.max_attempts = attempts;
        self
    }

    pub fn retry_deadline_ms(mut self, ms: u64) -> Self {
        self.opts.retry.deadline = Duration::from_millis(ms);
        self
    }

    pub fn failover(mut self, failover: bool) -> Self {
        self.opts.failover = failover;
        self
    }

    /// Overall wall-clock budget for the whole save/load.
    pub fn deadline_ms(mut self, ms: u64) -> Self {
        self.opts.deadline = Some(Duration::from_millis(ms));
        self
    }

    /// Enable/disable buddy-node hedging of idempotent reads.
    pub fn hedge(mut self, hedge: bool) -> Self {
        self.opts.hedge = hedge;
        self
    }

    /// Fix the hedge delay instead of deriving it from the observed P99.
    pub fn hedge_delay_ms(mut self, ms: u64) -> Self {
        self.opts.hedge_delay = Some(Duration::from_millis(ms));
        self
    }

    /// Enable/disable zone-map skipping in pushed-down piece scans.
    pub fn stats_skipping(mut self, on: bool) -> Self {
        self.opts.stats_skipping = on;
        self
    }

    /// Enable/disable partial-aggregate pushdown for `df.agg(..)`.
    pub fn agg_pushdown(mut self, on: bool) -> Self {
        self.opts.agg_pushdown = on;
        self
    }

    /// Switch to streaming micro-batch ingest with explicit bounds.
    pub fn stream(mut self, batch_rows: usize, flush_ms: u64) -> Self {
        self.opts.ingest = IngestMode::Stream {
            batch_rows,
            flush_ms,
        };
        self
    }

    /// Streaming micro-batch ingest with the default bounds.
    pub fn stream_defaults(self) -> Self {
        self.stream(STREAM_BATCH_ROWS_DEFAULT, STREAM_FLUSH_MS_DEFAULT)
    }

    /// Override just `stream.batch_rows` (switches to stream mode).
    pub fn stream_batch_rows(mut self, rows: usize) -> Self {
        let flush_ms = match self.opts.ingest {
            IngestMode::Stream { flush_ms, .. } => flush_ms,
            IngestMode::Bulk => STREAM_FLUSH_MS_DEFAULT,
        };
        self.opts.ingest = IngestMode::Stream {
            batch_rows: rows,
            flush_ms,
        };
        self
    }

    /// Override just `stream.flush_ms` (switches to stream mode).
    pub fn stream_flush_ms(mut self, ms: u64) -> Self {
        let batch_rows = match self.opts.ingest {
            IngestMode::Stream { batch_rows, .. } => batch_rows,
            IngestMode::Bulk => STREAM_BATCH_ROWS_DEFAULT,
        };
        self.opts.ingest = IngestMode::Stream {
            batch_rows,
            flush_ms: ms,
        };
        self
    }

    /// Enable/disable the per-flush tuple-mover pass in stream mode.
    pub fn mover_enabled(mut self, on: bool) -> Self {
        self.opts.mover_enabled = on;
        self
    }

    pub fn build(self) -> ConnectorResult<ConnectorOptions> {
        let o = self.opts;
        if o.table.is_empty() {
            return Err(ConnectorError::Usage("table must not be empty".into()));
        }
        if o.num_partitions == Some(0) {
            return Err(ConnectorError::Usage(
                "numPartitions must be positive".into(),
            ));
        }
        if !(0.0..=1.0).contains(&o.failed_rows_percent_tolerance) {
            return Err(ConnectorError::Usage(
                "failed_rows_percent_tolerance must be in [0, 1]".into(),
            ));
        }
        if !(1..=100).contains(&o.retry.max_attempts) {
            return Err(ConnectorError::Usage(
                "retry_max_attempts must be in 1..=100".into(),
            ));
        }
        if o.retry.deadline < Duration::from_millis(1) {
            return Err(ConnectorError::Usage(
                "retry_deadline_ms must be at least 1".into(),
            ));
        }
        if o.deadline.is_some_and(|d| d < Duration::from_millis(1)) {
            return Err(ConnectorError::Usage(
                "deadline_ms must be at least 1".into(),
            ));
        }
        if o.hedge_delay.is_some_and(|d| d < Duration::from_millis(1)) {
            return Err(ConnectorError::Usage(
                "hedge_delay_ms must be at least 1".into(),
            ));
        }
        if let IngestMode::Stream {
            batch_rows,
            flush_ms,
        } = o.ingest
        {
            if !(1..=1_000_000).contains(&batch_rows) {
                return Err(ConnectorError::Usage(
                    "stream.batch_rows must be in 1..=1000000".into(),
                ));
            }
            if !(1..=600_000).contains(&flush_ms) {
                return Err(ConnectorError::Usage(
                    "stream.flush_ms must be in 1..=600000 (10 minutes)".into(),
                ));
            }
        }
        Ok(o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_table_1_style_options() {
        let o = Options::new()
            .with("host", "db2")
            .with("user", "dbadmin")
            .with("password", "secret")
            .with("table", "lineitem")
            .with("numPartitions", 32)
            .with("failed_rows_percent_tolerance", 0.02);
        let parsed = ConnectorOptions::parse(&o).unwrap();
        assert_eq!(parsed.host, 2);
        assert_eq!(parsed.table, "lineitem");
        assert_eq!(parsed.num_partitions, Some(32));
        assert!((parsed.failed_rows_percent_tolerance - 0.02).abs() < 1e-12);
        assert!(parsed.copy_direct);
        assert_eq!(parsed.method, WriteMethod::Copy);
        assert!(parsed.failover);
    }

    #[test]
    fn table_is_required() {
        assert!(ConnectorOptions::parse(&Options::new()).is_err());
    }

    #[test]
    fn rejects_bad_values() {
        let o = Options::new().with("table", "t").with("numPartitions", 0);
        assert!(ConnectorOptions::parse(&o).is_err());
        let o = Options::new()
            .with("table", "t")
            .with("failed_rows_percent_tolerance", 1.5);
        assert!(ConnectorOptions::parse(&o).is_err());
        let o = Options::new().with("table", "t").with("host", "not-a-host");
        assert!(ConnectorOptions::parse(&o).is_err());
    }

    #[test]
    fn accepts_bare_and_db_prefixed_hosts() {
        for (raw, want) in [("0", 0usize), ("3", 3), ("db0", 0), ("db7", 7)] {
            let o = Options::new().with("table", "t").with("host", raw);
            assert_eq!(
                ConnectorOptions::parse(&o).unwrap().host,
                want,
                "host={raw}"
            );
        }
    }

    #[test]
    fn rejects_unknown_keys_but_accepts_credentials() {
        let o = Options::new().with("table", "t").with("numPartitons", 8); // typo
        let err = ConnectorOptions::parse(&o).unwrap_err();
        assert!(err.to_string().contains("numpartitons"), "{err}");
        // The unused-but-real Table 1 keys still pass.
        let o = Options::new()
            .with("table", "t")
            .with("user", "dbadmin")
            .with("password", "s")
            .with("db", "warehouse")
            .with("dbschema", "public");
        assert!(ConnectorOptions::parse(&o).is_ok());
    }

    #[test]
    fn parses_retry_and_method_keys() {
        let o = Options::new()
            .with("table", "t")
            .with("method", "dfs")
            .with("staging_path", "/tmp/stage")
            .with("retry_max_attempts", 7)
            .with("retry_deadline_ms", 1500)
            .with("failover", false);
        let parsed = ConnectorOptions::parse(&o).unwrap();
        assert_eq!(parsed.method, WriteMethod::Dfs);
        assert_eq!(parsed.staging_path.as_deref(), Some("/tmp/stage"));
        assert_eq!(parsed.retry.max_attempts, 7);
        assert_eq!(parsed.retry.deadline, Duration::from_millis(1500));
        assert!(!parsed.failover);
        let o = Options::new()
            .with("table", "t")
            .with("method", "carrier-pigeon");
        assert!(ConnectorOptions::parse(&o).is_err());
    }

    #[test]
    fn retry_key_bounds_are_enforced() {
        let o = Options::new()
            .with("table", "t")
            .with("retry_max_attempts", 0);
        assert!(ConnectorOptions::parse(&o).is_err());
        let o = Options::new()
            .with("table", "t")
            .with("retry_max_attempts", 101);
        assert!(ConnectorOptions::parse(&o).is_err());
        let o = Options::new()
            .with("table", "t")
            .with("retry_deadline_ms", 0);
        assert!(ConnectorOptions::parse(&o).is_err());
    }

    #[test]
    fn parses_deadline_and_hedge_keys() {
        let o = Options::new()
            .with("table", "t")
            .with("deadline_ms", 2500)
            .with("hedge", false)
            .with("hedge_delay_ms", 15);
        let parsed = ConnectorOptions::parse(&o).unwrap();
        assert_eq!(parsed.deadline, Some(Duration::from_millis(2500)));
        assert!(!parsed.hedge);
        assert_eq!(parsed.hedge_delay, Some(Duration::from_millis(15)));
        // Defaults: no deadline, hedging on with a derived delay.
        let parsed = ConnectorOptions::parse(&Options::new().with("table", "t")).unwrap();
        assert_eq!(parsed.deadline, None);
        assert!(parsed.hedge);
        assert_eq!(parsed.hedge_delay, None);
        // Bounds.
        let o = Options::new().with("table", "t").with("deadline_ms", 0);
        assert!(ConnectorOptions::parse(&o).is_err());
        let o = Options::new().with("table", "t").with("hedge_delay_ms", 0);
        assert!(ConnectorOptions::parse(&o).is_err());
    }

    #[test]
    fn parses_pushdown_keys_with_on_defaults() {
        let parsed = ConnectorOptions::parse(&Options::new().with("table", "t")).unwrap();
        assert!(parsed.stats_skipping);
        assert!(parsed.agg_pushdown);
        let o = Options::new()
            .with("table", "t")
            .with("stats_skipping", false)
            .with("agg_pushdown", false);
        let parsed = ConnectorOptions::parse(&o).unwrap();
        assert!(!parsed.stats_skipping);
        assert!(!parsed.agg_pushdown);
    }

    #[test]
    fn parses_stream_and_mover_keys() {
        // Bulk by default, mover on.
        let parsed = ConnectorOptions::parse(&Options::new().with("table", "t")).unwrap();
        assert_eq!(parsed.ingest, IngestMode::Bulk);
        assert!(parsed.mover_enabled);
        // Either stream key flips the mode; the other takes its default.
        let o = Options::new()
            .with("table", "t")
            .with("stream.batch_rows", 256); // fabriclint: allow(obs-registry): option key, not a counter
        let parsed = ConnectorOptions::parse(&o).unwrap();
        assert_eq!(
            parsed.ingest,
            IngestMode::Stream {
                batch_rows: 256,
                flush_ms: STREAM_FLUSH_MS_DEFAULT
            }
        );
        let o = Options::new()
            .with("table", "t")
            .with("stream.flush_ms", 50); // fabriclint: allow(obs-registry): option key, not a counter
        let parsed = ConnectorOptions::parse(&o).unwrap();
        assert_eq!(
            parsed.ingest,
            IngestMode::Stream {
                batch_rows: STREAM_BATCH_ROWS_DEFAULT,
                flush_ms: 50
            }
        );
        let o = Options::new()
            .with("table", "t")
            .with("stream.batch_rows", 2000) // fabriclint: allow(obs-registry): option key, not a counter
            .with("stream.flush_ms", 250) // fabriclint: allow(obs-registry): option key, not a counter
            .with("mover.enabled", false);
        let parsed = ConnectorOptions::parse(&o).unwrap();
        assert_eq!(
            parsed.ingest,
            IngestMode::Stream {
                batch_rows: 2000,
                flush_ms: 250
            }
        );
        assert!(!parsed.mover_enabled);
    }

    #[test]
    fn stream_key_bounds_are_enforced() {
        for (key, bad) in [
            ("stream.batch_rows", "0"), // fabriclint: allow(obs-registry): option key, not a counter
            ("stream.batch_rows", "1000001"), // fabriclint: allow(obs-registry): option key, not a counter
            ("stream.flush_ms", "0"), // fabriclint: allow(obs-registry): option key, not a counter
            ("stream.flush_ms", "600001"), // fabriclint: allow(obs-registry): option key, not a counter
        ] {
            let o = Options::new().with("table", "t").with(key, bad);
            let err = ConnectorOptions::parse(&o).unwrap_err();
            assert!(err.to_string().contains(key), "{key}={bad}: {err}");
        }
        // The same bounds hold through the typed builder.
        assert!(ConnectorOptions::builder("t")
            .stream(0, 100)
            .build()
            .is_err());
        assert!(ConnectorOptions::builder("t")
            .stream(100, 0)
            .build()
            .is_err());
        assert!(ConnectorOptions::builder("t")
            .stream(100, 100)
            .build()
            .is_ok());
    }

    #[test]
    fn rejects_misspelled_stream_keys() {
        // fabriclint: allow(obs-registry): deliberate typo fixtures
        for typo in ["stream.batchrows", "stream.flushms", "mover.enable"] {
            let o = Options::new().with("table", "t").with(typo, "1");
            let err = ConnectorOptions::parse(&o).unwrap_err();
            assert!(err.to_string().contains(typo), "{typo}: {err}");
        }
    }

    #[test]
    fn stream_builder_methods_preserve_the_other_bound() {
        let o = ConnectorOptions::builder("t")
            .stream_batch_rows(512)
            .stream_flush_ms(75)
            .build()
            .unwrap();
        assert_eq!(
            o.ingest,
            IngestMode::Stream {
                batch_rows: 512,
                flush_ms: 75
            }
        );
        let o = ConnectorOptions::builder("t")
            .stream_defaults()
            .build()
            .unwrap();
        assert_eq!(
            o.ingest,
            IngestMode::Stream {
                batch_rows: STREAM_BATCH_ROWS_DEFAULT,
                flush_ms: STREAM_FLUSH_MS_DEFAULT
            }
        );
    }

    #[test]
    fn builder_round_trips_and_validates() {
        let o = ConnectorOptions::builder("sales")
            .host(1)
            .num_partitions(16)
            .failed_rows_percent_tolerance(0.05)
            .job_name("nightly")
            .method(WriteMethod::Dfs)
            .retry_max_attempts(9)
            .retry_deadline_ms(2000)
            .failover(false)
            .build()
            .unwrap();
        assert_eq!(o.table, "sales");
        assert_eq!(o.host, 1);
        assert_eq!(o.num_partitions, Some(16));
        assert_eq!(o.job_name.as_deref(), Some("nightly"));
        assert_eq!(o.method, WriteMethod::Dfs);
        assert_eq!(o.retry.max_attempts, 9);
        assert!(!o.failover);
        assert!(ConnectorOptions::builder("").build().is_err());
        assert!(ConnectorOptions::builder("t")
            .num_partitions(0)
            .build()
            .is_err());
        assert!(ConnectorOptions::builder("t")
            .retry_max_attempts(0)
            .build()
            .is_err());
    }

    #[test]
    fn host_on_names_the_valid_range() {
        let cluster = mppdb::Cluster::new(mppdb::ClusterConfig::with_nodes(3));
        let on = |host| ConnectorOptions::builder("t").host(host).build().unwrap();
        let err = on(5).host_on(&cluster).unwrap_err();
        assert!(err.to_string().contains("db0..db2"), "{err}");
        assert_eq!(on(2).host_on(&cluster).unwrap(), 2);
    }
}
