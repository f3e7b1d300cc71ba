//! Cross-crate integration tests: the full collection → archive →
//! metrics → database → portal pipeline, in both operation modes.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tacc_stats::broker::Broker;
use tacc_stats::collect::archive::Archive;
use tacc_stats::collect::consumer::StatsConsumer;
use tacc_stats::collect::record::RawFile;
use tacc_stats::core::config::{Mode, SystemConfig};
use tacc_stats::core::MonitoringSystem;
use tacc_stats::jobdb::Query;
use tacc_stats::metrics::ingest::JOBS_TABLE;
use tacc_stats::metrics::Flag;
use tacc_stats::portal::detail::JobTimeSeries;
use tacc_stats::portal::search::SearchSpec;
use tacc_stats::scheduler::job::{JobRequest, QueueName};
use tacc_stats::simnode::apps::AppModel;
use tacc_stats::simnode::topology::NodeTopology;
use tacc_stats::simnode::{SimDuration, SimTime};

fn t0() -> SimTime {
    SimTime::from_secs(tacc_stats::simnode::clock::Q4_2015_START_SECS)
}

fn request(seed: u64, model: AppModel, n_nodes: usize, runtime_mins: u64) -> JobRequest {
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = NodeTopology::stampede();
    let app = model.instantiate(&mut rng, n_nodes, topo.n_cores(), &topo);
    JobRequest {
        user: format!("user{seed:04}"),
        uid: 5000 + seed as u32,
        account: "TG-1".to_string(),
        job_name: "it".to_string(),
        queue: QueueName::Normal,
        n_nodes,
        wayness: topo.n_cores(),
        runtime: SimDuration::from_mins(runtime_mins),
        will_fail: false,
        idle_nodes: 0,
        app,
    }
}

/// Daemon mode: job → samples → broker → consumer → archive → metrics →
/// DB → portal search, and the archive round-trips through the raw-file
/// parser into per-node time series.
#[test]
fn daemon_pipeline_archive_roundtrip_and_detail_view() {
    let mut sys = MonitoringSystem::new(SystemConfig::small(3, Mode::daemon()));
    sys.enqueue_jobs(vec![
        (t0(), request(1, AppModel::gromacs(), 2, 70)),
        (
            t0() + SimDuration::from_mins(10),
            request(2, AppModel::io_heavy(), 1, 50),
        ),
    ]);
    sys.run_until(t0() + SimDuration::from_hours(3));
    assert_eq!(sys.ingested, 2);

    // Archive text parses, and every file belongs to a known host.
    let raw: Vec<RawFile> = sys.archive().parse_all().expect("archive parses");
    assert!(!raw.is_empty());
    for rf in &raw {
        assert!(rf.header.hostname.as_str().starts_with("c401-"));
        assert!(!rf.samples.is_empty());
    }

    // Portal search finds both jobs; detail view reconstructs per-node
    // series from the archived raw data.
    let table = sys.db().table(JOBS_TABLE).unwrap();
    let all = SearchSpec::default().run(table).unwrap();
    assert_eq!(all.len(), 2);
    let jobids = all.column("jobid");
    for id in jobids {
        let ts = JobTimeSeries::extract(&raw, &format!("{}", id as i64));
        assert!(!ts.hosts.is_empty(), "job {id} series");
        assert!(ts.hosts.iter().all(|h| !h.points.is_empty()));
    }

    // The I/O-heavy job must show higher OSCReqs than the MD job.
    let io = Query::new(table)
        .filter_kw("exec", "h5_writer")
        .avg("OSCReqs")
        .unwrap()
        .unwrap();
    let md = Query::new(table)
        .filter_kw("exec", "mdrun")
        .avg("OSCReqs")
        .unwrap()
        .unwrap();
    assert!(io > md * 5.0, "io {io} vs md {md}");
}

/// Cron and daemon modes compute identical metrics for the same
/// deterministic workload — only data-availability latency differs.
#[test]
fn modes_agree_on_metrics_but_not_latency() {
    let run = |mode: Mode| {
        let mut sys = MonitoringSystem::new(SystemConfig::small(2, mode));
        sys.enqueue_jobs(vec![(t0(), request(7, AppModel::namd(), 2, 90))]);
        sys.run_until(t0() + SimDuration::from_hours(30));
        let table = sys.db().table(JOBS_TABLE).unwrap();
        let get = |col: &str| Query::new(table).avg(col).unwrap().unwrap();
        (
            get("CPU_Usage"),
            get("flops"),
            get("VecPercent"),
            get("MDCReqs"),
            sys.archive().latency_stats(),
        )
    };
    let (cpu_c, flops_c, vec_c, mdc_c, lat_c) = run(Mode::cron());
    let (cpu_d, flops_d, vec_d, mdc_d, lat_d) = run(Mode::daemon());
    // Metrics agree to high precision (same workload, same samples).
    assert!((cpu_c - cpu_d).abs() < 1e-6, "{cpu_c} vs {cpu_d}");
    assert!((flops_c - flops_d).abs() / flops_d < 1e-6);
    assert!((vec_c - vec_d).abs() < 1e-6);
    assert!((mdc_c - mdc_d).abs() / mdc_d.max(1e-9) < 1e-6);
    // Latency differs by orders of magnitude (Fig. 1 vs Fig. 2).
    assert!(
        lat_c.mean_secs > 100.0 * lat_d.mean_secs.max(1.0),
        "cron {} vs daemon {}",
        lat_c.mean_secs,
        lat_d.mean_secs
    );
}

/// A failed application is flagged by `catastrophe` and carries Failed
/// status through to the database.
#[test]
fn failed_job_is_flagged_and_recorded() {
    let mut sys = MonitoringSystem::new(SystemConfig::small(1, Mode::daemon()));
    let mut req = request(9, AppModel::failing(), 1, 120);
    req.will_fail = true;
    sys.enqueue_jobs(vec![(t0(), req)]);
    sys.run_until(t0() + SimDuration::from_hours(3));
    let table = sys.db().table(JOBS_TABLE).unwrap();
    let failed = SearchSpec {
        status: Some("failed".to_string()),
        ..SearchSpec::default()
    }
    .run(table)
    .unwrap();
    assert_eq!(failed.len(), 1);
    let cat = failed.column("catastrophe");
    assert!(cat[0] < 0.1, "catastrophe {cat:?}");
    assert_eq!(failed.flagged_with(Flag::SuddenDrop).len(), 1);
}

/// Idle reserved nodes produce a near-zero `idle` metric and the
/// IdleNodes flag (§V-A).
#[test]
fn idle_nodes_detected_end_to_end() {
    let mut sys = MonitoringSystem::new(SystemConfig::small(4, Mode::daemon()));
    let mut req = request(11, AppModel::lammps(), 4, 60);
    req.idle_nodes = 2;
    sys.enqueue_jobs(vec![(t0(), req)]);
    sys.run_until(t0() + SimDuration::from_hours(2));
    let table = sys.db().table(JOBS_TABLE).unwrap();
    let all = SearchSpec::default().run(table).unwrap();
    assert_eq!(all.flagged_with(Flag::IdleNodes).len(), 1);
    let idle = all.column("idle");
    assert!(idle[0] < 0.05, "idle metric {idle:?}");
}

/// Largemem-queue misuse is flagged; genuine largemem use is not.
#[test]
fn largemem_waste_flagging() {
    let mut cfg = SystemConfig::small(1, Mode::daemon());
    cfg.n_largemem = 2;
    let mut sys = MonitoringSystem::new(cfg);
    let topo_lm = NodeTopology::stampede_largemem();
    let mut rng = StdRng::seed_from_u64(20);
    let mk = |model: AppModel, rng: &mut StdRng| JobRequest {
        user: "lm".to_string(),
        uid: 6000,
        account: "TG-9".to_string(),
        job_name: "lm".to_string(),
        queue: QueueName::LargeMem,
        n_nodes: 1,
        wayness: topo_lm.n_cores(),
        runtime: SimDuration::from_mins(60),
        will_fail: false,
        idle_nodes: 0,
        app: model.instantiate(rng, 1, topo_lm.n_cores(), &topo_lm),
    };
    sys.enqueue_jobs(vec![
        (t0(), mk(AppModel::largemem_waste(), &mut rng)),
        (t0(), mk(AppModel::largemem_genuine(), &mut rng)),
    ]);
    sys.run_until(t0() + SimDuration::from_hours(2));
    let table = sys.db().table(JOBS_TABLE).unwrap();
    let all = SearchSpec::default().run(table).unwrap();
    assert_eq!(all.len(), 2);
    assert_eq!(all.flagged_with(Flag::LargememWaste).len(), 1);
}

/// Every simulated step ends in a drain whose last poll finds the queue
/// empty, so that poll must return at once. A wait on a condition
/// variable, even with a zero timeout, sleeps the kernel's timer slack
/// (≈ 55 µs a call on Linux, ≈ 550 ms here); a pop takes well under a
/// microsecond.
#[test]
fn an_empty_poll_never_sleeps() {
    let broker = Broker::new();
    broker.declare("stats");
    let mut consumer =
        StatsConsumer::new(&broker, "stats", Arc::new(Archive::new())).expect("declared");
    let start = Instant::now();
    for _ in 0..10_000 {
        assert!(consumer.poll_once(t0(), Duration::ZERO).is_none());
    }
    let took = start.elapsed();
    assert!(
        took < Duration::from_millis(100),
        "10,000 empty polls took {took:?}: a poll is blocking"
    );
}
