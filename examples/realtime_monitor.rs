//! The two operation modes head to head (Figs. 1 and 2) plus §VI-B
//! automated real-time analysis.
//!
//! Runs the same workload twice — once under the cron mode (node-local
//! logs, daily staggered rsync) and once under the daemon mode
//! (tacc_statsd → broker → consumer) — and compares data-availability
//! latency and crash data-loss. Then demonstrates the §VI-B loop:
//! online detection of a metadata storm and automated suspension of the
//! offending job. Then it streams a failing job through online
//! detection with an adaptive sampling cadence.
//!
//! Run with: `cargo run --release --example realtime_monitor`

use rand::rngs::StdRng;
use rand::SeedableRng;
use tacc_stats::core::config::{Mode, SystemConfig};
use tacc_stats::core::online::{AdaptiveConfig, OnlineConfig};
use tacc_stats::core::MonitoringSystem;
use tacc_stats::scheduler::job::{JobRequest, QueueName};
use tacc_stats::simnode::apps::AppModel;
use tacc_stats::simnode::topology::NodeTopology;
use tacc_stats::simnode::{SimDuration, SimTime};

fn t0() -> SimTime {
    SimTime::from_secs(tacc_stats::simnode::clock::Q4_2015_START_SECS)
}

fn workload(seed: u64) -> Vec<(SimTime, JobRequest)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = NodeTopology::stampede();
    let mut jobs = Vec::new();
    for (i, model) in [AppModel::namd(), AppModel::lammps(), AppModel::python()]
        .into_iter()
        .enumerate()
    {
        let app = model.instantiate(&mut rng, 2, topo.n_cores(), &topo);
        jobs.push((
            t0() + SimDuration::from_mins(20 * i as u64),
            JobRequest {
                user: format!("user{i:04}"),
                uid: 5000 + i as u32,
                account: "TG-1".to_string(),
                job_name: "run".to_string(),
                queue: QueueName::Normal,
                n_nodes: 2,
                wayness: topo.n_cores(),
                runtime: SimDuration::from_hours(2),
                will_fail: false,
                idle_nodes: 0,
                app,
            },
        ));
    }
    jobs
}

fn main() {
    println!("== Operation modes: cron (Fig. 1) vs daemon (Fig. 2) ==\n");

    // ---- Cron mode over ~1.3 days (so the daily sync fires). ----
    let mut cron = MonitoringSystem::new(SystemConfig::small(6, Mode::cron()));
    cron.enqueue_jobs(workload(1));
    cron.run_until(t0() + SimDuration::from_hours(32));
    let cron_lat = cron.archive().latency_stats();
    println!(
        "cron   : {} samples archived, availability latency mean {:>8.0}s ({:.1} h), max {:.1} h",
        cron_lat.count,
        cron_lat.mean_secs,
        cron_lat.mean_secs / 3600.0,
        cron_lat.max_secs / 3600.0
    );

    // ---- Daemon mode, same workload. ----
    let mut daemon = MonitoringSystem::new(SystemConfig::small(6, Mode::daemon()));
    daemon.enqueue_jobs(workload(1));
    daemon.run_until(t0() + SimDuration::from_hours(32));
    let d_lat = daemon.archive().latency_stats();
    println!(
        "daemon : {} samples archived, availability latency mean {:>8.0}s, max {:.0}s",
        d_lat.count, d_lat.mean_secs, d_lat.max_secs
    );
    println!(
        "\n→ The daemon mode makes data available ~{:.0}× faster.\n",
        cron_lat.mean_secs / d_lat.mean_secs.max(1.0)
    );

    // ---- Crash data loss. ----
    let mut cron2 = MonitoringSystem::new(SystemConfig::small(1, Mode::cron()));
    cron2.run_until(t0() + SimDuration::from_hours(3));
    let lost_cron = cron2.crash_node(0);
    let mut daemon2 = MonitoringSystem::new(SystemConfig::small(1, Mode::daemon()));
    daemon2.run_until(t0() + SimDuration::from_hours(3));
    let lost_daemon = daemon2.crash_node(0);
    println!("Node crash after 3 h of collection:");
    println!("  cron   loses {lost_cron} unsynced samples");
    println!("  daemon loses {lost_daemon} (every sample already left the node)\n");

    // ---- §VI-B: online detection + automated suspension. ----
    println!("== §VI-B automated real-time analysis ==\n");
    let mut rng = StdRng::seed_from_u64(5);
    let topo = NodeTopology::stampede();
    let storm = AppModel::wrf_metadata_storm().instantiate(&mut rng, 2, topo.n_cores(), &topo);
    let mut sys = MonitoringSystem::new(SystemConfig::small(4, Mode::daemon()));
    sys.enable_online(OnlineConfig::default(), true);
    sys.enqueue_jobs(vec![(
        t0(),
        JobRequest {
            user: "user9999".to_string(),
            uid: 9999,
            account: "TG-99".to_string(),
            job_name: "wrf_param_loop".to_string(),
            queue: QueueName::Normal,
            n_nodes: 2,
            wayness: topo.n_cores(),
            runtime: SimDuration::from_hours(8),
            will_fail: false,
            idle_nodes: 0,
            app: storm,
        },
    )]);
    sys.run_until(t0() + SimDuration::from_hours(1));
    for a in sys.alerts() {
        println!(
            "ALERT {:?} on {} at t+{}s: {:.0} (jobs {:?})",
            a.kind,
            a.host,
            a.time.duration_since(t0()).as_secs(),
            a.value,
            a.jobids
        );
    }
    println!(
        "Suspended jobs: {:?} — an 8 h metadata storm was stopped after {} s.\n",
        sys.suspended(),
        sys.alerts()
            .first()
            .map(|a| a.time.duration_since(t0()).as_secs())
            .unwrap_or(0)
    );

    // ---- Streaming engine: sudden drop mid-job + adaptive cadence. ----
    println!("== Streaming analysis: sudden-drop detection and adaptive cadence ==\n");
    let mut rng = StdRng::seed_from_u64(11);
    let unstable = AppModel::failing().instantiate(&mut rng, 2, topo.n_cores(), &topo);
    let mut cfg = SystemConfig::small(4, Mode::daemon());
    // 5-minute base cadence: enough z-score history before the failure,
    // and room for the adaptive policy to move in both directions.
    cfg.interval = SimDuration::from_mins(5);
    let mut sys = MonitoringSystem::new(cfg);
    sys.enable_online(OnlineConfig::default(), false);
    sys.enable_adaptive(AdaptiveConfig::default());
    sys.enqueue_jobs(vec![(
        t0(),
        JobRequest {
            user: "user0042".to_string(),
            uid: 5042,
            account: "TG-1".to_string(),
            job_name: "unstable_run".to_string(),
            queue: QueueName::Normal,
            n_nodes: 2,
            wayness: topo.n_cores(),
            runtime: SimDuration::from_hours(3),
            will_fail: true,
            idle_nodes: 0,
            app: unstable,
        },
    )]);
    sys.run_until(t0() + SimDuration::from_hours(4));
    for a in sys.alerts() {
        println!(
            "ALERT {:?} on {} at t+{}s: z = {:.1} (sample→flag {:.0}s, jobs {:?})",
            a.kind,
            a.host,
            a.time.duration_since(t0()).as_secs(),
            a.value,
            a.latency_secs,
            a.jobids
        );
    }
    println!("\nAdaptive cadence changes (stable nodes back off, anomalous nodes speed up):");
    for (when, node, interval) in sys.cadence_log() {
        println!(
            "  t+{:>6}s node {}: -> {:>4} s",
            when.duration_since(t0()).as_secs(),
            node,
            interval.as_secs()
        );
    }
    let report = sys.delivery_report();
    println!(
        "Samples collected with adaptive cadence: {} (fixed 5-min cadence would take {}).",
        report.collected,
        4 * 4 * 12 // 4 nodes × 4 h × 12 samples/h
    );
}
