//! Fault injection: a hostile day, and where every sample went.
//!
//! Runs the same 4-node daemon-mode cluster twice. First under the full
//! hostile [`FaultPlan`] — two broker outages, a node crash overlapping
//! the long one, per-message network drops, and device read faults —
//! with a deliberately tiny spool so overflow shows up. Then with only
//! the broker outages and the default spool, where spool-and-replay
//! turns the outages into pure latency.
//!
//! After each run the end-to-end delivery report partitions every
//! sequence number ever collected into delivered / dropped (spool
//! overflow) / lost (crash-wiped) / still in spool, and the
//! conservation identity is checked.
//!
//! Run with: `cargo run --release --example fault_injection`

use rand::rngs::StdRng;
use rand::SeedableRng;
use tacc_stats::core::config::{Mode, SystemConfig};
use tacc_stats::core::{DeliveryReport, MonitoringSystem};
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
        account: "TG-DEMO".to_string(),
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

fn print_report(r: &DeliveryReport) {
    println!("  collected      {:>6}", r.collected);
    println!(
        "  delivered      {:>6}  ({:.1}%)",
        r.delivered,
        100.0 * r.delivered as f64 / r.collected.max(1) as f64
    );
    println!("  dropped        {:>6}  (spool overflow)", r.dropped);
    println!("  lost           {:>6}  (crash-wiped spools)", r.lost);
    println!("  in spool       {:>6}", r.in_spool);
    println!(
        "  duplicates     {:>6}  (lost acks -> replays)",
        r.duplicates
    );
    println!("  gap events     {:>6}", r.gap_events);
    println!("  degraded reads {:>6}  (device faults)", r.degraded_reads);
    assert_eq!(
        r.collected,
        r.delivered + r.dropped + r.lost + r.in_spool,
        "conservation violated: {r:?}"
    );
    println!("  conservation: collected == delivered + dropped + lost + in_spool  OK");
}

fn day_of_jobs() -> Vec<(SimTime, JobRequest)> {
    (0..10)
        .map(|i| (t0() + SimDuration::from_mins(i * 135), request(i, 2, 90)))
        .collect()
}

fn main() {
    let hosts: Vec<String> = (0..4).map(|i| format!("c401-{i:04}")).collect();
    let day = SimDuration::from_hours(24);

    println!("=== Hostile day, 4-message spool ===");
    let plan = FaultPlan::hostile(7, &hosts, t0(), day);
    println!(
        "plan: {} broker outage(s), {} node outage(s), {} device fault(s), drops p={:.2}/{:.2}\n",
        plan.broker_outages.len(),
        plan.node_outages.len(),
        plan.device_faults.len(),
        plan.drop_request_prob,
        plan.drop_ack_prob,
    );
    let mut sys = MonitoringSystem::new(SystemConfig::small(4, Mode::daemon()));
    sys.set_spool(4);
    sys.set_fault_plan(plan);
    sys.enqueue_jobs(day_of_jobs());
    sys.run_until(t0() + day + SimDuration::from_hours(2));
    print_report(&sys.delivery_report());
    let t = sys.db().table(JOBS_TABLE).expect("jobs table");
    let cpu = Query::new(t).avg("CPU_Usage").unwrap().unwrap_or(0.0);
    println!(
        "  metrics survive: {} jobs ingested, avg CPU_Usage {cpu:.2}\n",
        sys.ingested
    );

    println!("=== Broker outage only, default spool ===");
    let outage_only = FaultPlan {
        seed: 3,
        broker_outages: vec![Window::new(
            t0() + SimDuration::from_hours(2),
            SimDuration::from_hours(2),
        )],
        ..FaultPlan::none()
    };
    let mut sys = MonitoringSystem::new(SystemConfig::small(4, Mode::daemon()));
    sys.set_fault_plan(outage_only);
    sys.enqueue_jobs(day_of_jobs());
    sys.run_until(t0() + day + SimDuration::from_hours(2));
    let r = sys.delivery_report();
    print_report(&r);
    assert_eq!(r.lost + r.dropped, 0);
    println!("  outage became latency, not loss");
}
