//! The portal front page (Fig. 3): metadata filters plus up to three
//! threshold search fields, producing the job list, the flagged
//! sublist, and the automatic Fig. 4 histograms.

use crate::cache::Fnv;
use crate::fused;
use crate::hist::Fig4Panels;
use crate::render;
use std::sync::Arc;
use tacc_jobdb::table::{Row, Table, TableError};
use tacc_jobdb::{Filter, Value};
use tacc_metrics::Flag;

/// Maximum number of metric search fields, matching the portal ("up to
/// three Search fields").
const MAX_SEARCH_FIELDS: usize = 3;

/// A portal search: metadata filters plus metric threshold fields.
#[derive(Clone, Debug, Default)]
pub struct SearchSpec {
    /// Executable name filter.
    pub exec: Option<String>,
    /// Username filter.
    pub user: Option<String>,
    /// Queue filter.
    pub queue: Option<String>,
    /// Completion-status filter.
    pub status: Option<String>,
    /// Only jobs starting at/after this Unix time.
    pub start_after: Option<i64>,
    /// Only jobs starting before this Unix time.
    pub start_before: Option<i64>,
    /// Only jobs with at least this runtime (seconds) — the WRF query
    /// of §V-A filters "over 10 minutes in runtime".
    pub min_runtime_secs: Option<i64>,
    /// Metric search fields: Django-style keyword (e.g.
    /// `MetaDataRate__gte`) plus threshold.
    pub fields: Vec<(String, f64)>,
}

impl SearchSpec {
    /// Add a metric search field. Panics beyond [`MAX_SEARCH_FIELDS`]
    /// (the portal form physically has three).
    pub fn field(mut self, keyword: &str, value: f64) -> Self {
        assert!(
            self.fields.len() < MAX_SEARCH_FIELDS,
            "the portal offers at most {MAX_SEARCH_FIELDS} search fields"
        );
        self.fields.push((keyword.to_string(), value));
        self
    }

    /// The conjunction of predicates this spec describes — the single
    /// source of truth of [`SearchSpec::matched_indices`].
    fn filter(&self) -> Filter {
        let mut f = Filter::new();
        if let Some(e) = &self.exec {
            f = f.kw("exec", e.as_str());
        }
        if let Some(u) = &self.user {
            f = f.kw("user", u.as_str());
        }
        if let Some(qu) = &self.queue {
            f = f.kw("queue", qu.as_str());
        }
        if let Some(s) = &self.status {
            f = f.kw("status", s.as_str());
        }
        if let Some(t) = self.start_after {
            f = f.kw("start__gte", t);
        }
        if let Some(t) = self.start_before {
            f = f.kw("start__lt", t);
        }
        if let Some(r) = self.min_runtime_secs {
            f = f.kw("run_time__gte", r);
        }
        for (kw, v) in &self.fields {
            f = f.kw(kw, *v);
        }
        f
    }

    /// A stable 64-bit fingerprint of this spec — the query-cache key
    /// ([`crate::cache::QueryCache`]). Covers every field (tagged and
    /// terminated so adjacent strings cannot collide by concatenation).
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        for (tag, s) in [
            (1u8, &self.exec),
            (2, &self.user),
            (3, &self.queue),
            (4, &self.status),
        ] {
            h.write_u8(tag);
            h.write_u8(s.is_some() as u8);
            if let Some(s) = s {
                h.write(s.as_bytes());
            }
            h.write_u8(0xff);
        }
        for (tag, v) in [
            (5u8, self.start_after),
            (6, self.start_before),
            (7, self.min_runtime_secs),
        ] {
            h.write_u8(tag);
            h.write_u8(v.is_some() as u8);
            if let Some(v) = v {
                h.write_u64(v as u64);
            }
        }
        for (kw, v) in &self.fields {
            h.write_u8(8);
            h.write(kw.as_bytes());
            h.write_u8(0xff);
            h.write_u64(v.to_bits());
        }
        h.finish()
    }

    /// Row indices (into `table.rows()`) this spec matches, in the
    /// jobid order [`SearchSpec::run`] returns. The filter is compiled
    /// against the table's scan index and its columns scanned; for a
    /// jobid-ordered table (the ingest order) that is already the
    /// answer, and otherwise one stable sort on the jobid column orders
    /// them.
    pub fn matched_indices(&self, table: &Table) -> Result<Vec<u32>, TableError> {
        let compiled = self.filter().compile(table)?;
        let jobid = table
            .schema()
            .index_of("jobid")
            .ok_or_else(|| TableError::NoSuchColumn("jobid".to_string()))?;
        let mut idxs = compiled.scan();
        table.sort_by_column(jobid, false, &mut idxs);
        Ok(idxs)
    }

    /// Run the search against a jobs table.
    pub fn run<'t>(&self, table: &'t Table) -> Result<JobList<'t>, TableError> {
        let idxs = self.matched_indices(table)?;
        Ok(JobList::from_indices(table, Arc::new(idxs)))
    }
}

/// A search result: references into the jobs table, and the row
/// indices they were taken from.
pub struct JobList<'t> {
    table: &'t Table,
    idxs: Arc<Vec<u32>>,
    rows: Vec<&'t Row>,
}

impl<'t> JobList<'t> {
    /// Reconstruct a result from matched row indices — the form the
    /// query cache stores — without rescanning or re-filtering the
    /// table. Out-of-range indices (impossible for indices produced
    /// against the same table snapshot) are skipped.
    pub(crate) fn from_indices(table: &'t Table, idxs: Arc<Vec<u32>>) -> JobList<'t> {
        let all = table.rows();
        let mut rows = Vec::with_capacity(idxs.len());
        rows.extend(idxs.iter().filter_map(|i| all.get(*i as usize)));
        JobList { table, idxs, rows }
    }

    /// Number of jobs found.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no jobs matched.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The matched rows.
    pub fn rows(&self) -> &[&'t Row] {
        &self.rows
    }

    /// One numeric column over the result (nulls skipped).
    pub fn column(&self, name: &str) -> Vec<f64> {
        let mut out = Vec::new();
        self.column_into(name, &mut out);
        out
    }

    /// [`JobList::column`] into a caller-owned buffer: `out` is
    /// cleared and refilled, so repeat callers reuse its allocation.
    fn column_into(&self, name: &str, out: &mut Vec<f64>) {
        out.clear();
        let Some(idx) = self.table.schema().index_of(name) else {
            return;
        };
        out.extend(self.rows.iter().filter_map(|r| r.get(idx).as_f64()));
    }

    /// One string column over the result.
    pub fn column_str(&self, name: &str) -> Vec<String> {
        let Some(idx) = self.table.schema().index_of(name) else {
            return Vec::new();
        };
        self.rows
            .iter()
            .filter_map(|r| r.get(idx).as_str().map(str::to_string))
            .collect()
    }

    /// Mean of a numeric column (the §V-B ORM aggregation).
    pub fn avg(&self, name: &str) -> Option<f64> {
        let v = self.column(name);
        if v.is_empty() {
            None
        } else {
            Some(v.iter().sum::<f64>() / v.len() as f64)
        }
    }

    /// Rows whose `"flags"` column passes `pred` — the shared core of
    /// [`JobList::flagged`] and [`JobList::flagged_with`]: the column
    /// index is resolved once per call, here and nowhere else.
    fn rows_where_flags(&self, pred: impl Fn(&str) -> bool) -> Vec<&'t Row> {
        let Some(idx) = self.table.schema().index_of("flags") else {
            return Vec::new();
        };
        self.rows
            .iter()
            .copied()
            .filter(|r| r.get(idx).as_str().map(&pred).unwrap_or(false))
            .collect()
    }

    /// Jobs carrying a specific flag. Typed: a nonexistent flag name
    /// can no longer silently match nothing.
    pub fn flagged_with(&self, flag: Flag) -> Vec<&'t Row> {
        self.rows_where_flags(|s| s.split(',').any(|f| f == flag.name()))
    }

    /// The automatic Fig. 4 histogram set for this result, computed by
    /// the fused scan ([`crate::fused::scan`]) over the result's row
    /// indices: two walks over the four panel columns fill every panel's
    /// extents and dense bucket counts, replacing four column
    /// materializations and four three-pass histogram builds.
    /// Bit-identical to [`Fig4Panels::new`] over [`JobList::column`]s
    /// (proptested in `tests/fused_props.rs`).
    pub fn fig4(&self) -> Fig4Panels {
        let cfgs = fused::panel_cfgs(self.table);
        Fig4Panels::from_fused(&fused::scan(self.table, &self.idxs, &cfgs))
    }

    /// Render the job list with the portal's metadata columns.
    pub fn render(&self, limit: usize) -> String {
        let header = [
            "JobID", "User", "Exec", "Start", "End", "Run(h)", "Queue", "Status", "Way", "Nodes",
            "NodeHrs", "Flags",
        ];
        let idx = |n: &str| self.table.schema().index_of(n);
        let cols: Vec<Option<usize>> = [
            "jobid",
            "user",
            "exec",
            "start",
            "end",
            "run_time",
            "queue",
            "status",
            "wayness",
            "nodes",
            "node_hours",
            "flags",
        ]
        .iter()
        .map(|n| idx(n))
        .collect();
        let mut rows = Vec::new();
        for r in self.rows.iter().take(limit) {
            let cell = |i: usize| -> String {
                match cols[i] {
                    Some(c) => match r.get(c) {
                        Value::Float(f) => render::num(*f),
                        v if i == 5 => {
                            // run_time in hours
                            v.as_f64()
                                .map(|s| format!("{:.2}", s / 3600.0))
                                .unwrap_or_default()
                        }
                        v => v.to_string(),
                    },
                    None => String::new(),
                }
            };
            rows.push((0..header.len()).map(cell).collect::<Vec<String>>());
        }
        let mut out = format!("{} jobs matched\n", self.rows.len());
        out.push_str(&render::table(&header, &rows));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tacc_jobdb::Database;
    use tacc_metrics::flags::FlagRules;
    use tacc_metrics::ingest::{ingest_job, JOBS_TABLE};
    use tacc_metrics::table1::{JobMetrics, MetricId};
    use tacc_scheduler::job::{Job, JobStatus, QueueName};
    use tacc_simnode::apps::AppModel;
    use tacc_simnode::topology::NodeTopology;
    use tacc_simnode::{SimDuration, SimTime};

    fn mk_job(id: u64, user: &str, exec: &str, start: u64, runtime: u64) -> Job {
        let mut rng = StdRng::seed_from_u64(id);
        let app = AppModel::wrf().instantiate(&mut rng, 2, 16, &NodeTopology::stampede());
        Job {
            id,
            user: user.into(),
            uid: 5000,
            account: "TG".into(),
            job_name: "j".into(),
            exec: exec.into(),
            queue: QueueName::Normal,
            n_nodes: 2,
            wayness: 16,
            submit: SimTime::from_secs(start.saturating_sub(300)),
            start: SimTime::from_secs(start),
            end: SimTime::from_secs(start) + SimDuration::from_secs(runtime),
            status: JobStatus::Completed,
            nodes: vec![0, 1],
            idle_nodes: 0,
            app,
        }
    }

    fn db_with_jobs() -> Database {
        let mut db = Database::new();
        let rules = FlagRules::default();
        let mut m1 = JobMetrics::new();
        m1.set(MetricId::MetaDataRate, 3900.0);
        m1.set(MetricId::CpuUsage, 0.80);
        ingest_job(
            &mut db,
            &mk_job(1, "alice", "wrf.exe", 1000, 7200),
            &m1,
            &rules,
            34.0,
        );
        let mut m2 = JobMetrics::new();
        m2.set(MetricId::MetaDataRate, 563_905.0);
        m2.set(MetricId::CpuUsage, 0.67);
        ingest_job(
            &mut db,
            &mk_job(2, "bob", "wrf.exe", 2000, 3600),
            &m2,
            &rules,
            34.0,
        );
        let mut m3 = JobMetrics::new();
        m3.set(MetricId::CpuUsage, 0.95);
        ingest_job(
            &mut db,
            &mk_job(3, "carol", "namd2", 3000, 300),
            &m3,
            &rules,
            34.0,
        );
        db
    }

    #[test]
    fn metadata_and_field_search() {
        let db = db_with_jobs();
        let t = db.table(JOBS_TABLE).unwrap();
        let list = SearchSpec {
            exec: Some("wrf.exe".into()),
            min_runtime_secs: Some(600),
            ..SearchSpec::default()
        }
        .field("MetaDataRate__gte", 10_000.0)
        .run(t)
        .unwrap();
        assert_eq!(list.len(), 1);
        assert_eq!(list.column_str("user"), vec!["bob"]);
        let bad = SearchSpec::default().field("NoSuchMetric__gte", 1.0);
        assert!(bad.run(t).is_err());
    }

    #[test]
    fn flagged_sublist() {
        let db = db_with_jobs();
        let t = db.table(JOBS_TABLE).unwrap();
        let all = SearchSpec::default().run(t).unwrap();
        assert_eq!(all.len(), 3);
        assert_eq!(all.flagged_with(Flag::HighMetadataRate).len(), 1);
        assert_eq!(all.flagged_with(Flag::HighGigE).len(), 0);
    }

    #[test]
    fn aggregation_and_histograms() {
        let db = db_with_jobs();
        let t = db.table(JOBS_TABLE).unwrap();
        let wrf = SearchSpec {
            exec: Some("wrf.exe".into()),
            ..SearchSpec::default()
        }
        .run(t)
        .unwrap();
        let avg = wrf.avg("CPU_Usage").unwrap();
        assert!((avg - 0.735).abs() < 1e-9);
        let fig4 = wrf.fig4();
        assert_eq!(fig4.runtime.total(), 2);
        assert_eq!(fig4.metadata_reqs.total(), 2);
    }

    #[test]
    fn render_shows_metadata_columns() {
        let db = db_with_jobs();
        let t = db.table(JOBS_TABLE).unwrap();
        let out = SearchSpec::default().run(t).unwrap().render(10);
        assert!(out.contains("3 jobs matched"));
        assert!(out.contains("alice"));
        assert!(out.contains("wrf.exe"));
        assert!(out.contains("HighMetadataRate"));
    }

    #[test]
    #[should_panic(expected = "at most 3")]
    fn more_than_three_fields_panics() {
        let _ = SearchSpec::default()
            .field("a__gte", 1.0)
            .field("b__gte", 1.0)
            .field("c__gte", 1.0)
            .field("d__gte", 1.0);
    }

    #[test]
    fn date_range_filters() {
        let db = db_with_jobs();
        let t = db.table(JOBS_TABLE).unwrap();
        let list = SearchSpec {
            start_after: Some(1500),
            start_before: Some(2500),
            ..SearchSpec::default()
        }
        .run(t)
        .unwrap();
        assert_eq!(list.len(), 1);
        assert_eq!(list.column_str("user"), vec!["bob"]);
    }
}
