//! The harness's own job-search semantics: a brute-force filter over
//! plain per-job facts, sharing no code with `jobdb::Filter`, the fused
//! Fig. 4 scan, or the query cache. `portal_read` feeds it the jobs it
//! generated; `system_live` feeds it facts read column by column from
//! the live jobs table.

use crate::common::Fnv;
use tacc_jobdb::table::{Row, Table};
use tacc_portal::search::SearchSpec;

/// Exactly the columns the reference filter and the Fig. 4 totals need.
#[derive(Clone, Debug, PartialEq)]
pub struct JobFacts {
    /// Job id.
    pub id: u64,
    /// Executable name.
    pub exec: String,
    /// User name.
    pub user: String,
    /// Queue name.
    pub queue: String,
    /// Completion status.
    pub status: String,
    /// Start time (Unix seconds).
    pub start: i64,
    /// Runtime in seconds.
    pub run_time: i64,
    /// `MetaDataRate`, when the job has one.
    pub metadata_rate: Option<f64>,
    /// `CPU_Usage`, when the job has one.
    pub cpu_usage: Option<f64>,
}

impl JobFacts {
    /// Read every row's facts straight out of a jobs table, in job id
    /// order (the order the portal answers in; a live table is in finish
    /// order). `None` when a column is missing (the schema changed under
    /// the benchmark).
    pub fn from_table(table: &Table) -> Option<Vec<JobFacts>> {
        let col = |name: &str| table.schema().index_of(name);
        let (id, exec, user, queue, status, start, run_time, md, cpu) = (
            col("jobid")?,
            col("exec")?,
            col("user")?,
            col("queue")?,
            col("status")?,
            col("start")?,
            col("run_time")?,
            col("MetaDataRate")?,
            col("CPU_Usage")?,
        );
        let text = |r: &Row, i: usize| r.get(i).as_str().unwrap_or("").to_string();
        let mut facts: Vec<JobFacts> = table
            .rows()
            .iter()
            .map(|r| JobFacts {
                id: r.get(id).as_i64().unwrap_or(-1) as u64,
                exec: text(r, exec),
                user: text(r, user),
                queue: text(r, queue),
                status: text(r, status),
                start: r.get(start).as_i64().unwrap_or(0),
                run_time: r.get(run_time).as_i64().unwrap_or(0),
                metadata_rate: r.get(md).as_f64(),
                cpu_usage: r.get(cpu).as_f64(),
            })
            .collect();
        facts.sort_by_key(|j| j.id);
        Some(facts)
    }
}

/// The expected answer to one spec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Expected {
    /// Matching jobs.
    pub len: usize,
    /// FNV-1a over the matching job ids, in table (job id) order.
    pub id_checksum: u64,
    /// Non-null values per Fig. 4 panel among the matching jobs
    /// (runtime, nodes, queue wait, metadata rate).
    pub panel_totals: [usize; 4],
}

/// A search as the harness understands it.
#[derive(Clone, Debug, Default)]
pub struct Spec {
    /// Executable equals.
    pub exec: Option<String>,
    /// User equals.
    pub user: Option<String>,
    /// Queue equals.
    pub queue: Option<String>,
    /// Status equals.
    pub status: Option<String>,
    /// Start at or after.
    pub start_after: Option<i64>,
    /// Runtime at least.
    pub min_runtime: Option<i64>,
    /// `MetaDataRate >=`.
    pub metadata_gte: Option<f64>,
    /// `CPU_Usage <`.
    pub cpu_lt: Option<f64>,
}

impl Spec {
    /// Does the job satisfy every predicate? A null metric satisfies no
    /// threshold.
    pub fn matches(&self, j: &JobFacts) -> bool {
        let eq = |want: &Option<String>, have: &str| want.as_deref().is_none_or(|w| w == have);
        eq(&self.exec, &j.exec)
            && eq(&self.user, &j.user)
            && eq(&self.queue, &j.queue)
            && eq(&self.status, &j.status)
            && self.start_after.is_none_or(|t| j.start >= t)
            && self.min_runtime.is_none_or(|r| j.run_time >= r)
            && self
                .metadata_gte
                .is_none_or(|thr| j.metadata_rate.is_some_and(|v| v >= thr))
            && self
                .cpu_lt
                .is_none_or(|thr| j.cpu_usage.is_some_and(|v| v < thr))
    }

    /// The same search, phrased for the portal.
    pub fn to_search_spec(&self) -> SearchSpec {
        let mut s = SearchSpec {
            exec: self.exec.clone(),
            user: self.user.clone(),
            queue: self.queue.clone(),
            status: self.status.clone(),
            start_after: self.start_after,
            min_runtime_secs: self.min_runtime,
            ..SearchSpec::default()
        };
        if let Some(thr) = self.metadata_gte {
            s = s.field("MetaDataRate__gte", thr);
        }
        if let Some(thr) = self.cpu_lt {
            s = s.field("CPU_Usage__lt", thr);
        }
        s
    }

    /// Brute-force answer over `jobs` (which must be in job id order,
    /// the order the portal returns).
    pub fn expected(&self, jobs: &[JobFacts]) -> Expected {
        let mut ck = Fnv::default();
        let mut len = 0;
        let mut with_md = 0;
        for j in jobs.iter().filter(|j| self.matches(j)) {
            ck.push(j.id);
            len += 1;
            with_md += usize::from(j.metadata_rate.is_some());
        }
        Expected {
            len,
            id_checksum: ck.0,
            // run_time, nodes and queue_wait are never null.
            panel_totals: [len, len, len, with_md],
        }
    }
}

/// Job-id checksum of a portal answer, comparable with
/// [`Expected::id_checksum`].
pub fn id_checksum(table: &Table, rows: &[&Row]) -> u64 {
    let jobid = table.schema().index_of("jobid").unwrap_or(0);
    let mut ck = Fnv::default();
    for row in rows {
        ck.push(row.get(jobid).as_i64().unwrap_or(-1) as u64);
    }
    ck.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u64, exec: &str, run_time: i64, md: Option<f64>) -> JobFacts {
        JobFacts {
            id,
            exec: exec.into(),
            user: "u".into(),
            queue: "normal".into(),
            status: "completed".into(),
            start: 100,
            run_time,
            metadata_rate: md,
            cpu_usage: Some(0.5),
        }
    }

    #[test]
    fn null_metric_matches_no_threshold_and_totals_skip_it() {
        let jobs = [
            job(1, "wrf.exe", 900, Some(50.0)),
            job(2, "wrf.exe", 900, None),
            job(3, "namd2", 100, Some(5.0)),
        ];
        let all = Spec::default().expected(&jobs);
        assert_eq!((all.len, all.panel_totals), (3, [3, 3, 3, 2]));
        let hot = Spec {
            metadata_gte: Some(10.0),
            ..Spec::default()
        };
        assert_eq!(hot.expected(&jobs).len, 1);
        let wrf = Spec {
            exec: Some("wrf.exe".into()),
            min_runtime: Some(600),
            ..Spec::default()
        };
        let e = wrf.expected(&jobs);
        assert_eq!((e.len, e.panel_totals), (2, [2, 2, 2, 1]));
        assert_ne!(e.id_checksum, all.id_checksum);
    }
}
