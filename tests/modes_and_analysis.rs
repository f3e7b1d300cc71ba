//! Integration tests for the daemon-mode real-time path, the §VI-A
//! time-series analysis, and population-scale invariants.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tacc_stats::core::config::{Mode, SystemConfig};
use tacc_stats::core::online::{AlertKind, OnlineConfig};
use tacc_stats::core::population::PopulationRunner;
use tacc_stats::core::MonitoringSystem;
use tacc_stats::jobdb::Query;
use tacc_stats::metrics::ingest::JOBS_TABLE;
use tacc_stats::scheduler::job::{JobRequest, QueueName};
use tacc_stats::simnode::apps::AppModel;
use tacc_stats::simnode::topology::NodeTopology;
use tacc_stats::simnode::{SimDuration, SimTime};
use tacc_stats::tsdb::stats::pearson;
use tacc_stats::tsdb::{Aggregation, TagFilter};

fn t0() -> SimTime {
    SimTime::from_secs(tacc_stats::simnode::clock::Q4_2015_START_SECS)
}

fn storm_request(n_nodes: usize, runtime_mins: u64) -> JobRequest {
    let mut rng = StdRng::seed_from_u64(99);
    let topo = NodeTopology::stampede();
    let app = AppModel::wrf_metadata_storm().instantiate(&mut rng, n_nodes, topo.n_cores(), &topo);
    JobRequest {
        user: "user9999".to_string(),
        uid: 9999,
        account: "TG-99".to_string(),
        job_name: "storm".to_string(),
        queue: QueueName::Normal,
        n_nodes,
        wayness: topo.n_cores(),
        runtime: SimDuration::from_mins(runtime_mins),
        will_fail: false,
        idle_nodes: 0,
        app,
    }
}

/// §VI-B: online detection happens within ~one sampling interval and
/// automated suspension frees the nodes for waiting work.
#[test]
fn online_detection_latency_and_node_reclamation() {
    let mut sys = MonitoringSystem::new(SystemConfig::small(2, Mode::daemon()));
    sys.enable_online(OnlineConfig, true);
    sys.enqueue_jobs(vec![
        (t0(), storm_request(2, 8 * 60)),
        // A healthy job queued behind the storm.
        (t0() + SimDuration::from_mins(5), {
            let mut rng = StdRng::seed_from_u64(3);
            let topo = NodeTopology::stampede();
            JobRequest {
                user: "user0001".to_string(),
                uid: 5001,
                account: "TG-1".to_string(),
                job_name: "honest".to_string(),
                queue: QueueName::Normal,
                n_nodes: 2,
                wayness: topo.n_cores(),
                runtime: SimDuration::from_mins(30),
                will_fail: false,
                idle_nodes: 0,
                app: AppModel::namd().instantiate(&mut rng, 2, topo.n_cores(), &topo),
            }
        }),
    ]);
    sys.run_until(t0() + SimDuration::from_hours(2));
    // Storm detected and suspended.
    let storm_alerts = sys
        .alerts()
        .iter()
        .filter(|a| a.kind == AlertKind::MetadataStorm)
        .count();
    assert!(storm_alerts >= 1);
    assert_eq!(sys.suspended().len(), 1);
    let detect_secs = sys.alerts()[0].time.duration_since(t0()).as_secs();
    assert!(detect_secs <= 1300, "detection took {detect_secs}s");
    // The healthy job ran after the suspension freed the nodes.
    let table = sys.db().table(JOBS_TABLE).unwrap();
    let honest = Query::new(table)
        .filter_kw("user", "user0001")
        .filter_kw("status", "completed")
        .count()
        .unwrap();
    assert_eq!(honest, 1, "suspension must reclaim nodes for honest work");
}

/// §VI-A: the time-series database links one user's metadata storms to
/// elevated cluster-wide MDC wait rates in the same windows.
#[test]
fn tsdb_interference_correlation() {
    let mut cfg = SystemConfig::small(4, Mode::daemon());
    cfg.enable_tsdb = true;
    let mut sys = MonitoringSystem::new(cfg);
    // Storm runs for the middle hour of a three-hour window.
    let mut storm = storm_request(2, 60);
    storm.job_name = "interferer".to_string();
    sys.enqueue_jobs(vec![(t0() + SimDuration::from_hours(1), storm)]);
    sys.run_until(t0() + SimDuration::from_hours(3));
    let tsdb = sys.tsdb().unwrap();
    // Aggregate metadata request rate and wait-time rate cluster-wide
    // (host tag left unspecified = aggregated along it, §VI-A).
    let reqs = TagFilter::any().dev_type("mdc").event("reqs");
    let wait = TagFilter::any().dev_type("mdc").event("wait");
    let t_start = t0().as_secs();
    let t_end = t_start + 3 * 3600;
    let pairs = tsdb.aligned(
        (&reqs, Aggregation::Sum),
        (&wait, Aggregation::Sum),
        t_start,
        t_end,
        600,
    );
    assert!(pairs.len() >= 10, "buckets {}", pairs.len());
    let r = pearson(&pairs).expect("correlation defined");
    assert!(
        r > 0.9,
        "metadata requests and wait time must move together, r = {r}"
    );
    // The storm hour's request rate dwarfs the quiet hours.
    let series = tsdb.aggregate(&reqs, Aggregation::Sum, t_start, t_end, 600);
    let peak = series.iter().map(|p| p.v).fold(0.0, f64::max);
    let quiet = series
        .iter()
        .filter(|p| p.t < t_start + 3000)
        .map(|p| p.v)
        .fold(0.0, f64::max);
    assert!(peak > 100.0 * quiet.max(1.0), "peak {peak} quiet {quiet}");
}

/// Population invariants at a scale the CI can afford: every ingested
/// job has the mandatory metrics, statuses partition, queue waits are
/// non-negative.
#[test]
fn population_runner_invariants() {
    let result = PopulationRunner::q4_2015(11, 400).run();
    let t = result.db.table(JOBS_TABLE).unwrap();
    assert_eq!(t.len(), result.n_jobs);
    // Statuses partition the population.
    let completed = Query::new(t)
        .filter_kw("status", "completed")
        .count()
        .unwrap();
    let failed = Query::new(t).filter_kw("status", "failed").count().unwrap();
    assert_eq!(completed + failed, t.len());
    // Failed fraction matches the failing-app weight (~2%).
    let ffrac = failed as f64 / t.len() as f64;
    assert!((0.002..0.08).contains(&ffrac), "failed frac {ffrac}");
    // Mandatory metrics present on every job; waits non-negative.
    let cpu = Query::new(t).values("CPU_Usage").unwrap();
    assert!(cpu.iter().all(|v| !v.is_null()));
    let waits = Query::new(t).values("queue_wait").unwrap();
    assert!(waits.iter().all(|v| v.as_f64().unwrap() >= 0.0));
    // VecPercent within [0, 100].
    let vecs = Query::new(t).values("VecPercent").unwrap();
    assert!(vecs
        .iter()
        .filter_map(|v| v.as_f64())
        .all(|v| (0.0..=100.0).contains(&v)));
}

/// Auto-configuration works across node types inside one system: a
/// Lonestar5-like (Haswell, HT) cluster runs the same pipeline.
#[test]
fn haswell_cluster_pipeline() {
    let mut cfg = SystemConfig::small(2, Mode::daemon());
    cfg.topology = NodeTopology::lonestar5();
    cfg.host_prefix = "nid".to_string();
    let mut sys = MonitoringSystem::new(cfg);
    let mut rng = StdRng::seed_from_u64(4);
    let topo = NodeTopology::lonestar5();
    sys.enqueue_jobs(vec![(
        t0(),
        JobRequest {
            user: "cray".to_string(),
            uid: 5100,
            account: "TG-C".to_string(),
            job_name: "cray-run".to_string(),
            queue: QueueName::Normal,
            n_nodes: 2,
            wayness: topo.n_cores(),
            runtime: SimDuration::from_mins(60),
            will_fail: false,
            idle_nodes: 0,
            app: AppModel::gromacs().instantiate(&mut rng, 2, topo.n_cores(), &topo),
        },
    )]);
    sys.run_until(t0() + SimDuration::from_hours(2));
    assert_eq!(sys.ingested, 1);
    let table = sys.db().table(JOBS_TABLE).unwrap();
    let flops = Query::new(table).avg("flops").unwrap().unwrap();
    assert!(flops > 10.0, "Haswell node flops {flops}");
    // No MIC on LS5: metric absent (null).
    let mic = Query::new(table).values("MIC_Usage").unwrap();
    assert!(mic[0].is_null());
    // Raw files carry the right architecture.
    let raw = sys.archive().parse_all().expect("archive parses");
    assert!(raw
        .iter()
        .all(|rf| rf.header.arch == tacc_stats::simnode::topology::CpuArch::Haswell));
}

/// §VI-A made emergent: the shared-MDS model makes one user's metadata
/// storm measurably raise a *different* job's MDCWait — not merely its
/// own. Compares the same victim job with and without a concurrent
/// storm.
#[test]
fn storm_raises_victim_mdc_wait() {
    let victim_req = || {
        let mut rng = StdRng::seed_from_u64(21);
        let topo = NodeTopology::stampede();
        JobRequest {
            user: "victim".to_string(),
            uid: 5021,
            account: "TG-V".to_string(),
            job_name: "victim".to_string(),
            queue: QueueName::Normal,
            n_nodes: 1,
            wayness: topo.n_cores(),
            runtime: SimDuration::from_mins(90),
            will_fail: false,
            idle_nodes: 0,
            app: AppModel::io_heavy().instantiate(&mut rng, 1, topo.n_cores(), &topo),
        }
    };
    let run = |with_storm: bool| -> f64 {
        let mut sys = MonitoringSystem::new(SystemConfig::small(4, Mode::daemon()));
        let mut jobs = vec![(t0(), victim_req())];
        if with_storm {
            // A heavy storm: 3 nodes × 141k req/s ≈ half the MDS capacity.
            jobs.push((t0(), storm_request(3, 90)));
        }
        sys.enqueue_jobs(jobs);
        sys.run_until(t0() + SimDuration::from_hours(2));
        let table = sys
            .db()
            .table(tacc_stats::metrics::ingest::JOBS_TABLE)
            .unwrap();
        Query::new(table)
            .filter_kw("user", "victim")
            .avg("MDCWait")
            .unwrap()
            .expect("victim has MDCWait")
    };
    let quiet = run(false);
    let stormy = run(true);
    assert!(
        stormy > quiet * 1.5,
        "victim MDCWait must rise under interference: {quiet:.0} → {stormy:.0} us"
    );
}
