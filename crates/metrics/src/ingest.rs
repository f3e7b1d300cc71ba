//! Ingestion: job metadata + computed metrics → database rows.
//!
//! §IV-A: "All of the metrics are stored in the database in the same
//! record as the job metadata. The database can be searched across the
//! computed metrics returning, for example, jobs with metric values that
//! exceed thresholds."

use crate::flags::{Flag, FlagContext, FlagRules};
use crate::table1::{JobMetrics, MetricId};
use tacc_jobdb::{Database, TableSchema, Value, ValueType};
use tacc_scheduler::job::Job;

/// The canonical jobs-table name.
pub const JOBS_TABLE: &str = "jobs";

/// Metadata columns preceding the metric columns (portal job-list
/// fields, §IV-B).
const META_COLUMNS: [(&str, ValueType); 16] = [
    ("jobid", ValueType::Int),
    ("user", ValueType::Str),
    ("uid", ValueType::Int),
    ("account", ValueType::Str),
    ("exec", ValueType::Str),
    ("job_name", ValueType::Str),
    ("queue", ValueType::Str),
    ("status", ValueType::Str),
    ("submit", ValueType::Int),
    ("start", ValueType::Int),
    ("end", ValueType::Int),
    ("run_time", ValueType::Int),
    ("queue_wait", ValueType::Int),
    ("nodes", ValueType::Int),
    ("wayness", ValueType::Int),
    ("node_hours", ValueType::Float),
];

/// Build the jobs-table schema: metadata columns, one float column per
/// Table I metric (named by its Table I label), and a `flags` string
/// column.
pub fn jobs_schema() -> TableSchema {
    let mut cols: Vec<(String, ValueType)> = META_COLUMNS
        .iter()
        .map(|(n, t)| (n.to_string(), *t))
        .collect();
    for m in MetricId::ALL {
        cols.push((m.label().to_string(), ValueType::Float));
    }
    cols.push(("flags".to_string(), ValueType::Str));
    let refs: Vec<(&str, ValueType)> = cols.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    TableSchema::new(&refs)
}

/// Create the jobs table in a database.
fn create_jobs_table(db: &mut Database) {
    db.create_table(JOBS_TABLE, jobs_schema());
}

/// Build the row for one job. `node_memory_gb` parameterizes the
/// largemem-waste flag rule.
fn job_row(job: &Job, metrics: &JobMetrics, rules: &FlagRules, node_memory_gb: f64) -> Vec<Value> {
    let ctx = FlagContext {
        queue_name: job.queue.name().to_string(),
        node_memory_gb,
    };
    let flags: Vec<Flag> = rules.evaluate(&ctx, metrics);
    let flags_str = flags
        .iter()
        .map(|f| f.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let mut row: Vec<Value> = vec![
        Value::Int(job.id as i64),
        job.user.as_str().into(),
        Value::Int(job.uid as i64),
        job.account.as_str().into(),
        job.exec.as_str().into(),
        job.job_name.as_str().into(),
        job.queue.name().into(),
        job.status.name().into(),
        Value::Int(job.submit.as_secs() as i64),
        Value::Int(job.start.as_secs() as i64),
        Value::Int(job.end.as_secs() as i64),
        Value::Int(job.run_time().as_secs() as i64),
        Value::Int(job.queue_wait().as_secs() as i64),
        Value::Int(job.n_nodes as i64),
        Value::Int(job.wayness as i64),
        Value::Float(job.node_hours()),
    ];
    for m in MetricId::ALL {
        row.push(match metrics.get(m) {
            Some(v) => Value::Float(v),
            None => Value::Null,
        });
    }
    row.push(flags_str.into());
    row
}

/// Ingest one job into the database (creating the table if needed).
pub fn ingest_job(
    db: &mut Database,
    job: &Job,
    metrics: &JobMetrics,
    rules: &FlagRules,
    node_memory_gb: f64,
) {
    if db.table(JOBS_TABLE).is_none() {
        create_jobs_table(db);
    }
    let row = job_row(job, metrics, rules, node_memory_gb);
    db.insert(JOBS_TABLE, row).expect("jobs schema matches row");
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tacc_jobdb::Query;
    use tacc_scheduler::job::{JobStatus, QueueName};
    use tacc_simnode::apps::AppModel;
    use tacc_simnode::topology::NodeTopology;
    use tacc_simnode::SimTime;

    fn job(id: u64, exec: &str) -> Job {
        let mut rng = StdRng::seed_from_u64(id);
        let app = AppModel::wrf().instantiate(&mut rng, 4, 16, &NodeTopology::stampede());
        Job {
            id,
            user: "alice".into(),
            uid: 5001,
            account: "TG-1".into(),
            job_name: "run".into(),
            exec: exec.into(),
            queue: QueueName::Normal,
            n_nodes: 4,
            wayness: 16,
            submit: SimTime::from_secs(0),
            start: SimTime::from_secs(100),
            end: SimTime::from_secs(100 + 7200),
            status: JobStatus::Completed,
            nodes: vec![0, 1, 2, 3],
            idle_nodes: 0,
            app,
        }
    }

    fn metrics(md_rate: f64, cpu: f64) -> JobMetrics {
        let mut m = JobMetrics::new();
        m.set(MetricId::MetaDataRate, md_rate);
        m.set(MetricId::CpuUsage, cpu);
        m
    }

    #[test]
    fn schema_has_all_columns() {
        let s = jobs_schema();
        assert_eq!(s.len(), 16 + 27 + 1);
        assert!(s.index_of("MetaDataRate").is_some());
        assert!(s.index_of("CPU_Usage").is_some());
        assert!(s.index_of("flags").is_some());
        assert!(s.index_of("run_time").is_some());
    }

    #[test]
    fn ingest_and_query_portal_style() {
        let mut db = Database::new();
        ingest_job(
            &mut db,
            &job(1, "wrf.exe"),
            &metrics(3900.0, 0.8),
            &FlagRules::default(),
            34.0,
        );
        ingest_job(
            &mut db,
            &job(2, "wrf.exe"),
            &metrics(563_905.0, 0.67),
            &FlagRules::default(),
            34.0,
        );
        ingest_job(
            &mut db,
            &job(3, "namd2"),
            &metrics(5.0, 0.95),
            &FlagRules::default(),
            34.0,
        );
        let t = db.table(JOBS_TABLE).unwrap();
        assert_eq!(t.len(), 3);
        // Portal search: wrf jobs above a metadata threshold.
        let hot = Query::new(t)
            .filter_kw("exec", "wrf.exe")
            .filter_kw("MetaDataRate__gte", 10_000.0)
            .rows()
            .unwrap();
        assert_eq!(hot.len(), 1);
        // The storm job carries the flag string.
        let idx = t.schema().index_of("flags").unwrap();
        assert!(hot[0]
            .get(idx)
            .as_str()
            .unwrap()
            .contains("HighMetadataRate"));
        // ORM-style aggregation (§V-B): average CPU of wrf population.
        let avg = Query::new(t)
            .filter_kw("exec", "wrf.exe")
            .avg("CPU_Usage")
            .unwrap()
            .unwrap();
        assert!((avg - 0.735).abs() < 1e-9);
    }

    #[test]
    fn missing_metrics_become_nulls() {
        let mut db = Database::new();
        ingest_job(
            &mut db,
            &job(1, "bare.x"),
            &JobMetrics::new(),
            &FlagRules::default(),
            34.0,
        );
        let t = db.table(JOBS_TABLE).unwrap();
        let idx = t.schema().index_of("MIC_Usage").unwrap();
        assert!(t.rows()[0].get(idx).is_null());
        // Null metrics don't match threshold searches.
        assert_eq!(
            Query::new(t)
                .filter_kw("MIC_Usage__gte", 0.0)
                .count()
                .unwrap(),
            0
        );
    }
}
