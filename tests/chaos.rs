//! Chaos integration tests: a simulated day of jobs under a hostile
//! [`FaultPlan`] — broker outages, a node crash overlapping one of
//! them, per-message network drops, and device degradation — with the
//! end-to-end conservation invariant checked at the end: every
//! collected sample is classified exactly once as delivered, dropped
//! (spool overflow), or lost (crash-wiped), and the Table I metric
//! pipeline still produces results for the jobs that survive.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tacc_stats::core::config::{Mode, SystemConfig};
use tacc_stats::core::MonitoringSystem;
use tacc_stats::jobdb::Query;
use tacc_stats::metrics::ingest::JOBS_TABLE;
use tacc_stats::scheduler::job::{JobRequest, QueueName};
use tacc_stats::simnode::apps::AppModel;
use tacc_stats::simnode::faults::{FaultPlan, Window};
use tacc_stats::simnode::topology::NodeTopology;
use tacc_stats::simnode::{SimDuration, SimTime};

fn t0() -> SimTime {
    SimTime::from_secs(tacc_stats::simnode::clock::Q4_2015_START_SECS)
}

fn request(seed: u64, n_nodes: usize, runtime_mins: u64) -> JobRequest {
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = NodeTopology::stampede();
    let app = AppModel::namd().instantiate(&mut rng, n_nodes, 16, &topo);
    JobRequest {
        user: format!("user{seed:04}"),
        uid: 5000 + seed as u32,
        account: "TG-1".to_string(),
        job_name: format!("job{seed}"),
        queue: QueueName::Normal,
        n_nodes,
        wayness: 16,
        runtime: SimDuration::from_mins(runtime_mins),
        will_fail: false,
        idle_nodes: 0,
        app,
    }
}

/// The full hostile plan with a deliberately tiny spool: the long
/// broker outage overflows it (dropped messages), the victim node's
/// crash wipes it (lost messages), and lost acknowledgements force
/// replays (duplicates). Conservation must hold exactly.
#[test]
fn hostile_day_conserves_every_sample() {
    let cfg = SystemConfig::small(4, Mode::daemon());
    let hosts: Vec<String> = (0..4).map(|i| format!("c401-{i:04}")).collect();
    let day = SimDuration::from_hours(24);
    let plan = FaultPlan::hostile(7, &hosts, t0(), day);
    assert!(!plan.is_empty());

    let mut sys = MonitoringSystem::new(cfg);
    // Four messages of spool: the 2 h outage generates ~12 interval
    // samples per host, so the spool must overflow.
    sys.set_spool(4);
    sys.set_fault_plan(plan);

    // A day of two-node jobs, back to back across the cluster.
    let jobs: Vec<(SimTime, JobRequest)> = (0..10)
        .map(|i| (t0() + SimDuration::from_mins(i * 135), request(i, 2, 90)))
        .collect();
    let n_jobs = jobs.len();
    sys.enqueue_jobs(jobs);

    // Run past the end of the day so the last outage is long over and
    // every spool has had time to drain.
    sys.run_until(t0() + day + SimDuration::from_hours(2));

    let r = sys.delivery_report();
    // The conservation invariant: every sequence number issued is in
    // exactly one bucket, with nothing left in flight.
    assert_eq!(
        r.collected,
        r.delivered + r.dropped + r.lost + r.in_spool,
        "conservation violated: {r:?}"
    );
    assert_eq!(r.in_spool, 0, "all spools drained after recovery: {r:?}");
    assert!(r.collected > 400, "a day of samples from 4 hosts: {r:?}");
    // Each fault mechanism left its signature.
    assert!(
        r.dropped > 0,
        "tiny spool must overflow in the 2 h outage: {r:?}"
    );
    assert!(r.lost > 0, "crash during the outage wipes the spool: {r:?}");
    assert!(r.duplicates > 0, "lost acks force replays: {r:?}");
    assert!(r.gap_events > 0, "losses surface as sequence gaps: {r:?}");
    assert!(r.degraded_reads > 0, "device faults degrade samples: {r:?}");
    // The consumer saw exactly the delivered set, once each.
    assert_eq!(r.delivered, r.received, "{r:?}");
    assert!(r.dead_lettered == 0, "all real messages parse: {r:?}");
    // Most of the day still made it through.
    assert!(
        r.delivered as f64 >= 0.75 * r.collected as f64,
        "resilience floor: {r:?}"
    );

    // Table I metrics still computed for the surviving jobs.
    assert_eq!(sys.ingested, n_jobs, "every job finishes and is ingested");
    let t = sys.db().table(JOBS_TABLE).unwrap();
    assert_eq!(t.len(), n_jobs);
    let cpu = Query::new(t).avg("CPU_Usage").unwrap().unwrap();
    assert!(cpu > 0.3, "metrics survive the chaos: CPU_Usage {cpu}");
}

/// With only broker outages — no drops, no crashes — the default spool
/// (256 messages ≫ the 12 samples a 2 h outage produces) guarantees
/// zero loss: spool-and-replay turns an outage into latency, not loss.
#[test]
fn broker_outage_alone_loses_nothing() {
    let cfg = SystemConfig::small(2, Mode::daemon());
    let plan = FaultPlan {
        seed: 3,
        broker_outages: vec![Window::new(
            t0() + SimDuration::from_hours(2),
            SimDuration::from_hours(2),
        )],
        ..FaultPlan::none()
    };
    let mut sys = MonitoringSystem::new(cfg);
    sys.set_fault_plan(plan);
    sys.enqueue_jobs(vec![
        (t0(), request(1, 1, 120)),
        (t0() + SimDuration::from_hours(2), request(2, 1, 120)),
    ]);
    sys.run_until(t0() + SimDuration::from_hours(8));

    let r = sys.delivery_report();
    assert_eq!(r.lost, 0, "{r:?}");
    assert_eq!(r.dropped, 0, "{r:?}");
    assert_eq!(r.in_spool, 0, "{r:?}");
    assert_eq!(
        r.delivered, r.collected,
        "outage became latency, not loss: {r:?}"
    );
    assert_eq!(r.duplicates, 0, "{r:?}");
    assert_eq!(sys.ingested, 2);
}
