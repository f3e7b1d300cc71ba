//! Population-scale experiments (the fast path for §V).
//!
//! The paper's §V analyses run over 404,002 jobs — far more than is
//! sensible to push through the full cluster-time-stepped
//! [`crate::MonitoringSystem`]. The runner splits the work the way the
//! real system does:
//!
//! 1. **Scheduling** runs for the whole population at once (cheap: no
//!    hardware simulation), producing start/end times and queue waits
//!    with real contention.
//! 2. **Per-job collection + metrics** then run independently per job —
//!    each job's nodes are simulated in isolation, sampled
//!    prolog/epilog plus interior intervals, streamed through
//!    [`JobAccum`], and ingested. Contiguous chunks of jobs fan out
//!    across a [`WorkerPool`], which is sound because jobs share no
//!    mutable state, and their results are ingested in chunk order, so
//!    the database is the same at any worker count. Within one job the
//!    ranks run one after another, each feeding its own host.
//!
//! The isolation step is faithful for every Table I metric: counters
//! are cumulative and per-node, and a fresh node is indistinguishable
//! from a rebooted one.

use crate::pipeline::sampler_for;
use tacc_jobdb::Database;
use tacc_metrics::accum::JobAccum;
use tacc_metrics::flags::FlagRules;
use tacc_metrics::ingest::ingest_job;
use tacc_metrics::table1::JobMetrics;
use tacc_scheduler::job::{Job, QueueName};
use tacc_scheduler::sched::Scheduler;
use tacc_scheduler::workload::{WorkloadConfig, WorkloadGenerator};
use tacc_simnode::pool::WorkerPool;
use tacc_simnode::pseudofs::NodeFs;
use tacc_simnode::topology::NodeTopology;
use tacc_simnode::workload::NodeDemand;
use tacc_simnode::{SimDuration, SimNode};

/// Result of a population run.
pub struct PopulationResult {
    /// The populated job database.
    pub db: Database,
    /// Jobs ingested.
    pub n_jobs: usize,
    /// Jobs that never started (still queued when scheduling stopped).
    pub unstarted: usize,
}

/// Runs a synthetic population through scheduling and per-job
/// collection.
pub struct PopulationRunner {
    /// Workload configuration (generator parameters).
    pub workload: WorkloadConfig,
    /// Normal-pool size for scheduling. Defaults scale with the
    /// population so queue waits are realistic but bounded.
    pub n_nodes: usize,
    /// Largemem-pool size.
    pub n_largemem: usize,
    /// Number of interior samples per job (in addition to
    /// prolog/epilog).
    pub interior_samples: usize,
}

impl PopulationRunner {
    /// A Q4-2015-shaped run scaled to `n_jobs`.
    pub fn q4_2015(seed: u64, n_jobs: usize) -> PopulationRunner {
        let workload = WorkloadConfig::q4_2015(seed, n_jobs);
        // Capacity: enough nodes that the queue drains within the
        // quarter. Mean job ≈ 5.5 nodes × ~2.6 h ⇒ node-hours ≈ 14.3/job.
        let span_hours = workload.span.as_secs_f64() / 3600.0;
        let node_hours = n_jobs as f64 * 14.3;
        let n_nodes = ((node_hours / span_hours) * 1.6).ceil().max(300.0) as usize;
        PopulationRunner {
            workload,
            n_nodes,
            n_largemem: (n_nodes / 40).max(4),
            interior_samples: 3,
        }
    }

    /// Run scheduling + per-job collection + ingestion, the per-job
    /// phase on as many workers as the host's parallelism.
    pub fn run(&self) -> PopulationResult {
        let workers = std::thread::available_parallelism().map_or(4, |p| p.get());
        self.run_on(&WorkerPool::new(workers))
    }

    /// [`run`](Self::run) with the per-job phase on `pool`.
    fn run_on(&self, pool: &WorkerPool) -> PopulationResult {
        // Phase 1: schedule the whole population.
        let mut generator = WorkloadGenerator::new(self.workload.clone());
        let submissions = generator.generate();
        let mut sched = Scheduler::new(self.n_nodes, self.n_largemem);
        let step = SimDuration::from_secs(300);
        let mut t = self.workload.start;
        let horizon = self.workload.start + self.workload.span + SimDuration::from_hours(48);
        let mut iter = submissions.into_iter().peekable();
        let mut finished: Vec<Job> = Vec::new();
        while t <= horizon {
            while iter.peek().map(|(st, _)| *st <= t).unwrap_or(false) {
                let (_, req) = iter.next().expect("peeked");
                sched.submit(req, t);
            }
            sched.step(t);
            finished.append(&mut sched.drain_finished());
            if iter.peek().is_none() && sched.running().next().is_none() && sched.queued() == 0 {
                break;
            }
            t = t + step;
        }
        let unstarted = sched.queued();
        finished.append(&mut sched.drain_finished());

        // Phase 2: per-job node simulation + metrics, one contiguous
        // chunk of jobs per worker (a 1-worker pool runs them inline).
        let topo_normal = &self.workload.topology;
        let topo_lm = NodeTopology::stampede_largemem();
        let topo_of = |job: &Job| {
            if job.queue == QueueName::LargeMem {
                &topo_lm
            } else {
                topo_normal
            }
        };
        let metrics = pool.map_chunks(&finished, 1, |_, jobs| {
            jobs.iter()
                .map(|job| simulate_job(job, topo_of(job), self.interior_samples))
                .collect::<Vec<JobMetrics>>()
        });

        // Phase 3: ingest serially, in chunk order.
        let mut db = Database::new();
        let rules = FlagRules::default();
        for (job, metrics) in finished.iter().zip(metrics.iter().flatten()) {
            let mem_gb = topo_of(job).memory_bytes as f64 / 1e9;
            ingest_job(&mut db, job, metrics, &rules, mem_gb);
        }
        PopulationResult {
            db,
            n_jobs: finished.len(),
            unstarted,
        }
    }
}

/// Simulate one rank (node) of a job in isolation, feeding its samples
/// into `acc` under the rank's own hostname.
///
/// Sampling plan: prolog at start, epilog at end, `interior` evenly
/// spaced interior samples; each sampling interval advances the node in
/// 8 sub-steps so phase structure (output bursts, failures, compile
/// phases) lands in the counters.
fn simulate_rank(job: &Job, topo: &NodeTopology, interior: usize, rank: usize, acc: &mut JobAccum) {
    let runtime = job.run_time();
    let n_samples = interior + 2;
    let hostname = format!("c{:03}-{rank:03}", job.id % 1000);
    let mut node = SimNode::new(hostname, topo.clone());
    let mut sampler = sampler_for(&node);
    let idle_rank = rank >= job.n_nodes.saturating_sub(job.idle_nodes);
    if !idle_rank {
        let n_procs = job.wayness.min(topo.n_cores()).max(1);
        for _ in 0..n_procs.min(4) {
            node.spawn_process(&job.exec, job.uid, 1, u64::MAX);
        }
    }
    let jobids = [job.id.to_string()];
    // Prolog sample.
    {
        let fs = NodeFs::new(&node);
        let s = sampler.sample(&fs, job.start, &jobids, &[format!("begin {}", job.id)]);
        acc.feed(sampler.header(), &s);
    }
    for k in 1..n_samples {
        let t_prev = job.start + runtime * (k as u64 - 1) / (n_samples as u64 - 1);
        let t_now = job.start + runtime * (k as u64) / (n_samples as u64 - 1);
        // Advance in sub-steps so phase transitions are captured.
        const SUB: u64 = 8;
        let sub_dt = t_now.duration_since(t_prev) / SUB;
        for s in 0..SUB {
            let mid = t_prev + sub_dt * s + sub_dt / 2;
            let demand = if idle_rank {
                NodeDemand::idle()
            } else {
                job.app.demand(rank, job.t_frac(mid))
            };
            node.advance(sub_dt, &demand);
        }
        let fs = NodeFs::new(&node);
        let marks = if k == n_samples - 1 {
            vec![format!("end {}", job.id)]
        } else {
            Vec::new()
        };
        let s = sampler.sample(&fs, t_now, &jobids, &marks);
        acc.feed(sampler.header(), &s);
    }
}

/// Simulate one job's nodes in isolation and compute its metrics,
/// rank by rank on the caller thread.
pub fn simulate_job(job: &Job, topo: &NodeTopology, interior: usize) -> JobMetrics {
    if job.run_time().is_zero() {
        return JobMetrics::new();
    }
    let mut acc = JobAccum::new();
    for rank in 0..job.n_nodes {
        simulate_rank(job, topo, interior, rank, &mut acc);
    }
    acc.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacc_jobdb::Query;
    use tacc_metrics::ingest::JOBS_TABLE;
    use tacc_metrics::table1::MetricId;

    #[test]
    fn small_population_runs_and_ingests() {
        let result = PopulationRunner::q4_2015(7, 300).run_on(&WorkerPool::new(4));
        assert!(result.n_jobs >= 300, "ingested {}", result.n_jobs);
        assert_eq!(result.unstarted, 0);
        let t = result.db.table(JOBS_TABLE).unwrap();
        assert_eq!(t.len(), result.n_jobs);
        // Core population shapes hold even at this scale.
        let total = t.len() as f64;
        let vec_lo = Query::new(t)
            .filter_kw("VecPercent__gt", 1.0)
            .count()
            .unwrap() as f64
            / total;
        assert!((0.3..0.8).contains(&vec_lo), "vec>1% {vec_lo}");
        let cpu = Query::new(t).avg("CPU_Usage").unwrap().unwrap();
        assert!((0.4..0.95).contains(&cpu), "avg cpu {cpu}");
    }

    #[test]
    fn simulate_job_is_deterministic() {
        let runner = PopulationRunner::q4_2015(3, 50);
        let mut generator = WorkloadGenerator::new(runner.workload.clone());
        let submissions = generator.generate();
        let mut sched = Scheduler::new(100, 4);
        let (t, req) = submissions.into_iter().next().unwrap();
        sched.submit(req, t);
        sched.step(t);
        sched.step(t + SimDuration::from_hours(48));
        let job = sched.drain_finished().pop().unwrap();
        let m1 = simulate_job(&job, &NodeTopology::stampede(), 3);
        let m2 = simulate_job(&job, &NodeTopology::stampede(), 3);
        assert_eq!(m1.get(MetricId::CpuUsage), m2.get(MetricId::CpuUsage));
        assert_eq!(m1.get(MetricId::Flops), m2.get(MetricId::Flops));
    }

    #[test]
    fn population_is_the_same_at_any_worker_count() {
        let run = |workers: usize| {
            let result = PopulationRunner::q4_2015(5, 120).run_on(&WorkerPool::new(workers));
            (result.n_jobs, result.db.render())
        };
        let (n1, one) = run(1);
        let (n4, four) = run(4);
        assert!(n1 >= 120, "ingested {n1}");
        assert_eq!(n1, n4);
        assert!(one == four, "db.render() differs between 1 and 4 workers");
    }

    #[test]
    fn zero_runtime_job_yields_empty_metrics() {
        let runner = PopulationRunner::q4_2015(3, 10);
        let mut generator = WorkloadGenerator::new(runner.workload.clone());
        let (t, req) = generator.generate().into_iter().next().unwrap();
        let mut sched = Scheduler::new(100, 4);
        let id = sched.submit(req, t);
        sched.step(t);
        let mut job = sched.job(id).unwrap().clone();
        job.end = job.start;
        assert!(simulate_job(&job, &NodeTopology::stampede(), 3).is_empty());
    }
}
