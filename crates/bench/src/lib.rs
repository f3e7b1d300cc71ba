//! # tacc-bench — shared fixtures for the hot-loop benches and the soak
//!
//! Four bench targets: `sample_path` and `query_path` (the hot loops of
//! the stages that carry a benchmark workload's wall), `soak_path` (the
//! fleet soak over [`fleet::run_soak`]) and `substrate_throughput`. The
//! paper's claims are checked by `tacc_stats::claims`, not here.

#![forbid(unsafe_code)]

pub mod fleet;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tacc_scheduler::job::{Job, JobRequest, JobStatus, QueueName};
use tacc_simnode::apps::AppModel;
use tacc_simnode::topology::NodeTopology;
use tacc_simnode::{SimDuration, SimTime};

/// Simulation epoch used across benches.
fn t0() -> SimTime {
    SimTime::from_secs(tacc_simnode::clock::Q4_2015_START_SECS)
}

/// A ready-made job request for a given app model.
fn request(seed: u64, model: AppModel, n_nodes: usize, runtime_mins: u64) -> JobRequest {
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = NodeTopology::stampede();
    let app = model.instantiate(&mut rng, n_nodes, topo.n_cores(), &topo);
    JobRequest {
        user: format!("user{seed:04}"),
        uid: 5000 + (seed % 1000) as u32,
        account: "TG-B".to_string(),
        job_name: "bench".to_string(),
        queue: QueueName::Normal,
        n_nodes,
        wayness: topo.n_cores(),
        runtime: SimDuration::from_mins(runtime_mins),
        will_fail: false,
        idle_nodes: 0,
        app,
    }
}

/// A synthetic already-finished [`Job`] (skips the scheduler) for
/// benches that only need the per-job collection path.
pub fn finished_job(seed: u64, model: AppModel, n_nodes: usize, runtime_mins: u64) -> Job {
    let req = request(seed, model, n_nodes, runtime_mins);
    let start = t0();
    Job {
        id: 4000 + seed,
        user: req.user,
        uid: req.uid,
        account: req.account,
        job_name: req.job_name,
        exec: req.app.exec_name().to_string(),
        queue: req.queue,
        n_nodes: req.n_nodes,
        wayness: req.wayness,
        submit: start,
        start,
        end: start + req.runtime,
        status: JobStatus::Completed,
        nodes: (0..n_nodes).collect(),
        idle_nodes: req.idle_nodes,
        app: req.app,
    }
}

/// Print one paper-vs-measured row.
pub fn report_row(label: &str, paper: &str, measured: &str) {
    println!("  {label:<44} paper: {paper:<16} measured: {measured}");
}

/// Print a block header.
pub fn report_header(experiment: &str, artefact: &str) {
    println!("\n=== {experiment} — {artefact} ===");
}
