//! The pipeline assembly driven through its public stages — a bare
//! `Pipeline` with no scheduler on top — and its tsdb mirror.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tacc_stats::collect::engine::OverheadAccount;
use tacc_stats::core::config::{Mode, SystemConfig};
use tacc_stats::core::{DeliveryReport, MonitoringSystem, Pipeline};
use tacc_stats::scheduler::job::{JobRequest, QueueName};
use tacc_stats::simnode::apps::AppModel;
use tacc_stats::simnode::faults::FaultPlan;
use tacc_stats::simnode::topology::NodeTopology;
use tacc_stats::simnode::SimDuration;
use tacc_stats::tsdb::TagFilter;

fn conserved(r: &DeliveryReport) -> bool {
    r.collected == r.delivered + r.dropped + r.lost + r.in_spool
}

/// One driver step over the stages, in the order every driver calls them.
fn step(p: &mut Pipeline, dt: SimDuration) {
    let now = p.clock().now();
    p.apply_faults(now);
    let now = p.advance(dt, |_| None);
    p.collect(now, |_, _, _| {});
    p.drain(now, usize::MAX, |_, _, _| {});
}

/// A bare pipeline of `n` idle nodes, stepped for `span`.
fn bare(n: usize, mode: Mode, enable_tsdb: bool, span: SimDuration) -> Pipeline {
    let cfg = SystemConfig {
        enable_tsdb,
        ..SystemConfig::small(n, mode)
    };
    let mut p = Pipeline::new(&cfg);
    while p.clock().now() < SystemConfig::START + span {
        step(&mut p, SystemConfig::STEP);
    }
    p
}

/// A one-node I/O-heavy job.
fn io_job(runtime_mins: u64) -> JobRequest {
    let topo = NodeTopology::stampede();
    JobRequest {
        user: "alice".into(),
        uid: 5001,
        account: "TG-1".into(),
        job_name: "io".into(),
        queue: QueueName::Normal,
        n_nodes: 1,
        wayness: 16,
        runtime: SimDuration::from_mins(runtime_mins),
        will_fail: false,
        idle_nodes: 0,
        app: AppModel::io_heavy().instantiate(&mut StdRng::seed_from_u64(1), 1, 16, &topo),
    }
}

#[test]
fn node_crash_loses_cron_data_but_not_daemon_data() {
    let two_hours = SimDuration::from_hours(2);
    let lost = bare(1, Mode::cron(), false, two_hours).crash_node(0);
    assert!(lost >= 12, "unsynced samples lost: {lost}");
    let mut daemon = bare(1, Mode::daemon(), false, two_hours);
    assert_eq!(daemon.crash_node(0), 0);
    assert!(daemon.archive().total_samples() >= 12);
}

#[test]
fn overhead_accounting_accumulates() {
    let two_hours = SimDuration::from_hours(2);
    let acct = bare(2, Mode::daemon(), false, two_hours).overhead();
    // 2 nodes × 13 interval samples.
    assert!(acct.collections >= 24, "collections {}", acct.collections);
    let per_node = OverheadAccount {
        busy: SimDuration::from_nanos(acct.busy.as_nanos() / 2),
        collections: acct.collections / 2,
        real_nanos: 0,
    };
    let ov = per_node.overhead_fraction(two_hours);
    assert!(ov < 1e-3, "overhead {ov}");
}

#[test]
fn tsdb_mirror_populates_series() {
    let p = bare(2, Mode::daemon(), true, SimDuration::from_mins(90));
    let tsdb = p.tsdb().expect("tsdb enabled");
    assert!(!tsdb
        .keys(&TagFilter::any().dev_type("mdc").event("reqs"))
        .is_empty());
    assert!(tsdb.n_points() > 0);
}

/// Two system lifetimes over the same store directory: the second
/// recovers every point the first flushed.
#[test]
fn durable_tsdb_mirror_survives_a_restart() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join(format!("tacc-sys-dur-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = SystemConfig {
        enable_tsdb: true,
        tsdb_dir: Some(dir.clone()),
        ..SystemConfig::small(2, Mode::daemon())
    };
    let mut sys = MonitoringSystem::new(cfg.clone());
    assert!(sys.tsdb_open_error().is_none());
    let report = sys.tsdb_recovery().expect("durable store opened");
    assert_eq!(report.fresh_shards, tacc_stats::tsdb::DEFAULT_SHARDS as u64);
    sys.enqueue_jobs(vec![(SystemConfig::START, io_job(60))]);
    sys.run_until(SystemConfig::START + SimDuration::from_mins(90));
    let (points, series) = (
        sys.tsdb().unwrap().n_points(),
        sys.tsdb().unwrap().n_series(),
    );
    assert!(points > 0);
    sys.flush_tsdb().unwrap();
    drop(sys);

    let sys = MonitoringSystem::new(cfg);
    let report = *sys.tsdb_recovery().expect("durable store reopened");
    assert!(report.balances(), "{report:?}");
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(sys.tsdb().unwrap().n_points(), points);
    assert_eq!(sys.tsdb().unwrap().n_series(), series);
    drop(sys);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A day under the hostile plan keeps the delivery ledger exact after
/// every step; healing and settling empties every spool.
#[test]
fn bare_pipeline_conserves_under_hostile_faults_and_heals() {
    let cfg = SystemConfig::small(4, Mode::daemon());
    let mut p = Pipeline::new(&cfg);
    let hosts: Vec<String> = p
        .headers()
        .iter()
        .map(|h| h.hostname.as_str().to_string())
        .collect();
    let day = SimDuration::from_hours(24);
    p.set_fault_plan(FaultPlan::hostile(7, &hosts, SystemConfig::START, day));

    while p.clock().now() < SystemConfig::START + day {
        step(&mut p, SystemConfig::STEP);
        let r = p.delivery_report();
        assert!(conserved(&r), "at {:?}: {r:?}", p.clock().now());
    }
    let r = p.delivery_report();
    assert!(r.lost > 0, "the crash wipes a spool: {r:?}");
    assert!(r.duplicates > 0, "lost acks force replays: {r:?}");
    assert!(r.degraded_reads > 0, "device faults degrade samples: {r:?}");

    p.heal();
    for _ in 0..120 {
        step(&mut p, SystemConfig::STEP);
    }
    let r = p.delivery_report();
    assert!(conserved(&r), "{r:?}");
    assert_eq!(r.in_spool, 0, "healed spools drain: {r:?}");
    assert_eq!(r.delivered, r.received, "{r:?}");
    assert!(p.broker().is_some_and(|b| !b.is_stopped()));
}

/// A reboot resets every counter to zero; the mirror re-anchors there
/// instead of reading the drop as a 64-bit wrap (a rate near 1.8e19/dt).
#[test]
fn tsdb_mirror_has_no_spike_after_a_reboot() {
    let mut cfg = SystemConfig::small(1, Mode::daemon());
    cfg.enable_tsdb = true;
    let start = SystemConfig::START;
    let mut sys = MonitoringSystem::new(cfg);
    // A job drives the counters up before the crash.
    sys.enqueue_jobs(vec![(start, io_job(100))]);
    sys.run_until(start + SimDuration::from_hours(2));
    sys.crash_node(0);
    sys.run_until(start + SimDuration::from_mins(150));
    sys.reboot_node(0);
    sys.run_until(start + SimDuration::from_mins(210));

    let tsdb = sys.tsdb().expect("tsdb enabled");
    let keys = tsdb.keys(&TagFilter::any());
    assert!(!keys.is_empty());
    let mut post_reboot = 0;
    for key in &keys {
        tsdb.range_for_each(key, 0, u64::MAX, |t, v| {
            assert!(v.is_finite() && v < 1e12, "{key:?} at {t}: {v}");
            post_reboot += usize::from(t > (start + SimDuration::from_mins(150)).as_secs());
        });
    }
    assert!(post_reboot > 0, "the mirror resumes after the reboot");
}
