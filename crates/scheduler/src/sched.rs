//! The event-driven FCFS scheduler.
//!
//! Two node pools (normal and largemem, matching Stampede's layout);
//! first-come-first-served within each pool. [`Scheduler::step`] retires
//! due jobs and starts queued ones, emitting the events the monitoring
//! system turns into prolog/epilog collections ("a single statement is
//! added to the prolog and epilog scripts", §III-A).

use crate::job::{Job, JobId, JobRequest, JobStatus, QueueName};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use tacc_simnode::{SimDuration, SimTime};

/// Scheduler lifecycle events.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchedEvent {
    /// A job started on its allocated nodes (prolog fires).
    Started(JobId),
    /// A job ended (epilog fires). The job's final status is recorded.
    Ended(JobId),
}

/// FCFS scheduler over a fixed set of nodes.
pub struct Scheduler {
    free_normal: BTreeSet<usize>,
    free_largemem: BTreeSet<usize>,
    queue_normal: VecDeque<JobId>,
    queue_largemem: VecDeque<JobId>,
    jobs: BTreeMap<JobId, Job>,
    /// Running jobs ordered by deadline for cheap retirement.
    deadlines: BTreeSet<(SimTime, JobId)>,
    /// Planned (runtime, will_fail) for jobs not yet finished.
    plans: BTreeMap<JobId, (SimDuration, bool)>,
    /// First node index of the largemem pool.
    largemem_base: usize,
    next_id: JobId,
}

impl Scheduler {
    /// New scheduler over `n_normal` normal nodes (indices
    /// `0..n_normal`) and `n_largemem` largemem nodes (indices
    /// `n_normal..n_normal + n_largemem`).
    pub fn new(n_normal: usize, n_largemem: usize) -> Scheduler {
        Scheduler {
            free_normal: (0..n_normal).collect(),
            free_largemem: (n_normal..n_normal + n_largemem).collect(),
            queue_normal: VecDeque::new(),
            queue_largemem: VecDeque::new(),
            jobs: BTreeMap::new(),
            deadlines: BTreeSet::new(),
            plans: BTreeMap::new(),
            largemem_base: n_normal,
            next_id: 3000,
        }
    }

    /// Submit a request at `now`; returns the assigned job id.
    pub fn submit(&mut self, req: JobRequest, now: SimTime) -> JobId {
        let id = self.next_id;
        self.next_id += 1;
        let job = Job {
            id,
            user: req.user,
            uid: req.uid,
            account: req.account,
            job_name: req.job_name,
            exec: req.app.exec_name().to_string(),
            queue: req.queue,
            n_nodes: req.n_nodes,
            wayness: req.wayness,
            submit: now,
            start: now,
            end: now,
            status: JobStatus::Queued,
            nodes: Vec::new(),
            idle_nodes: req.idle_nodes,
            app: req.app,
        };
        self.plans.insert(id, (req.runtime, req.will_fail));
        match req.queue {
            QueueName::LargeMem => self.queue_largemem.push_back(id),
            _ => self.queue_normal.push_back(id),
        }
        self.jobs.insert(id, job);
        id
    }

    /// Advance to `now`: end due jobs, then start queued jobs while nodes
    /// are available. Ends are emitted before starts so freed nodes can
    /// be reused within the same step.
    pub fn step(&mut self, now: SimTime) -> Vec<SchedEvent> {
        let mut events = Vec::new();
        // Retire due jobs.
        while let Some(&(deadline, id)) = self.deadlines.iter().next() {
            if deadline > now {
                break;
            }
            self.deadlines.remove(&(deadline, id));
            let largemem_base = self.largemem_base;
            let job = self.jobs.get_mut(&id).expect("running job exists");
            job.end = deadline;
            let (_, will_fail) = self.plans.remove(&id).unwrap_or_default();
            job.status = if will_fail {
                JobStatus::Failed
            } else {
                JobStatus::Completed
            };
            for n in &job.nodes {
                if *n < largemem_base {
                    self.free_normal.insert(*n);
                } else {
                    self.free_largemem.insert(*n);
                }
            }
            events.push(SchedEvent::Ended(id));
        }
        // Start queued jobs FCFS per pool.
        for pool in [false, true] {
            let (queue, free) = if pool {
                (&mut self.queue_largemem, &mut self.free_largemem)
            } else {
                (&mut self.queue_normal, &mut self.free_normal)
            };
            while let Some(&id) = queue.front() {
                let job = self.jobs.get_mut(&id).expect("queued job exists");
                if free.len() < job.n_nodes {
                    break; // strict FCFS: head of queue blocks
                }
                queue.pop_front();
                let nodes: Vec<usize> = free.iter().take(job.n_nodes).copied().collect();
                for n in &nodes {
                    free.remove(n);
                }
                let (runtime, _) = self.plans.get(&id).copied().unwrap_or_default();
                job.nodes = nodes;
                job.start = now;
                job.end = now + runtime;
                job.status = JobStatus::Running;
                self.deadlines.insert((job.end, id));
                events.push(SchedEvent::Started(id));
            }
        }
        events
    }

    /// A job by id.
    pub fn job(&self, id: JobId) -> Option<&Job> {
        self.jobs.get(&id)
    }

    /// All jobs still known to the scheduler.
    pub fn jobs(&self) -> impl Iterator<Item = &Job> {
        self.jobs.values()
    }

    /// Ids of jobs currently running on node `node`.
    pub fn running_on(&self, node: usize) -> Vec<JobId> {
        self.jobs
            .values()
            .filter(|j| j.status == JobStatus::Running && j.nodes.contains(&node))
            .map(|j| j.id)
            .collect()
    }

    /// Jobs currently running.
    pub fn running(&self) -> impl Iterator<Item = &Job> {
        self.jobs
            .values()
            .filter(|j| j.status == JobStatus::Running)
    }

    /// Number of queued jobs.
    pub fn queued(&self) -> usize {
        self.queue_normal.len() + self.queue_largemem.len()
    }

    /// Cancel a running or queued job at `now` (the §VI-B automated
    /// response: "problem jobs to be quickly identified and suspended").
    /// Frees its nodes immediately. Returns true if the job existed and
    /// was not already finished.
    pub fn cancel(&mut self, id: JobId, now: SimTime) -> bool {
        let largemem_base = self.largemem_base;
        let Some(job) = self.jobs.get_mut(&id) else {
            return false;
        };
        match job.status {
            JobStatus::Running => {
                self.deadlines.remove(&(job.end, id));
                job.end = now;
                job.status = JobStatus::Cancelled;
                for n in &job.nodes {
                    if *n < largemem_base {
                        self.free_normal.insert(*n);
                    } else {
                        self.free_largemem.insert(*n);
                    }
                }
                self.plans.remove(&id);
                true
            }
            JobStatus::Queued => {
                job.status = JobStatus::Cancelled;
                job.end = now;
                self.queue_normal.retain(|q| *q != id);
                self.queue_largemem.retain(|q| *q != id);
                self.plans.remove(&id);
                true
            }
            _ => false,
        }
    }

    /// Extract all finished jobs (completed, failed, or cancelled),
    /// removing them from scheduler memory (the ingest pipeline owns
    /// them afterwards).
    pub fn drain_finished(&mut self) -> Vec<Job> {
        let done: Vec<JobId> = self
            .jobs
            .iter()
            .filter(|(_, j)| {
                matches!(
                    j.status,
                    JobStatus::Completed | JobStatus::Failed | JobStatus::Cancelled
                )
            })
            .map(|(id, _)| *id)
            .collect();
        done.into_iter()
            .filter_map(|id| self.jobs.remove(&id))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tacc_simnode::apps::AppModel;
    use tacc_simnode::topology::NodeTopology;

    fn request(n_nodes: usize, runtime_secs: u64, queue: QueueName) -> JobRequest {
        let mut rng = StdRng::seed_from_u64(n_nodes as u64);
        let app = AppModel::wrf().instantiate(&mut rng, n_nodes, 16, &NodeTopology::stampede());
        JobRequest {
            user: "alice".into(),
            uid: 5000,
            account: "TG-1".into(),
            job_name: "j".into(),
            queue,
            n_nodes,
            wayness: 16,
            runtime: SimDuration::from_secs(runtime_secs),
            will_fail: false,
            idle_nodes: 0,
            app,
        }
    }

    #[test]
    fn fcfs_start_and_end() {
        let mut s = Scheduler::new(4, 0);
        let a = s.submit(request(2, 3600, QueueName::Normal), SimTime::from_secs(0));
        let b = s.submit(request(2, 1800, QueueName::Normal), SimTime::from_secs(0));
        let c = s.submit(request(2, 600, QueueName::Normal), SimTime::from_secs(0));
        let ev = s.step(SimTime::from_secs(0));
        assert_eq!(ev, vec![SchedEvent::Started(a), SchedEvent::Started(b)]);
        assert_eq!(s.queued(), 1);
        // b ends at 1800; c starts immediately in the same step.
        let ev = s.step(SimTime::from_secs(1800));
        assert_eq!(ev, vec![SchedEvent::Ended(b), SchedEvent::Started(c)]);
        let cj = s.job(c).unwrap();
        assert_eq!(cj.queue_wait().as_secs(), 1800);
        assert_eq!(cj.status, JobStatus::Running);
    }

    #[test]
    fn head_of_queue_blocks_strictly() {
        let mut s = Scheduler::new(4, 0);
        let _a = s.submit(request(4, 3600, QueueName::Normal), SimTime::from_secs(0));
        s.step(SimTime::from_secs(0));
        let big = s.submit(request(4, 600, QueueName::Normal), SimTime::from_secs(10));
        let small = s.submit(request(1, 600, QueueName::Normal), SimTime::from_secs(10));
        let ev = s.step(SimTime::from_secs(10));
        // No backfill: `small` waits behind `big`.
        assert!(ev.is_empty());
        assert_eq!(s.queued(), 2);
        // When `a` finishes, `big` takes all four nodes; `small` keeps
        // waiting (no backfill) until `big` completes.
        let ev = s.step(SimTime::from_secs(3600));
        assert!(ev.contains(&SchedEvent::Started(big)));
        assert!(!ev.contains(&SchedEvent::Started(small)));
        let ev = s.step(SimTime::from_secs(4200));
        assert!(ev.contains(&SchedEvent::Started(small)));
    }

    #[test]
    fn largemem_pool_is_separate() {
        let mut s = Scheduler::new(2, 1);
        let lm = s.submit(request(1, 600, QueueName::LargeMem), SimTime::from_secs(0));
        let n = s.submit(request(2, 600, QueueName::Normal), SimTime::from_secs(0));
        s.step(SimTime::from_secs(0));
        let lmj = s.job(lm).unwrap();
        assert_eq!(lmj.nodes, vec![2], "largemem node is index 2");
        let nj = s.job(n).unwrap();
        assert_eq!(nj.nodes, vec![0, 1]);
    }

    #[test]
    fn failed_jobs_get_failed_status() {
        let mut s = Scheduler::new(1, 0);
        let mut req = request(1, 600, QueueName::Normal);
        req.will_fail = true;
        let id = s.submit(req, SimTime::from_secs(0));
        s.step(SimTime::from_secs(0));
        s.step(SimTime::from_secs(600));
        assert_eq!(s.job(id).unwrap().status, JobStatus::Failed);
    }

    #[test]
    fn running_on_reports_node_occupancy() {
        let mut s = Scheduler::new(4, 0);
        let a = s.submit(request(2, 600, QueueName::Normal), SimTime::from_secs(0));
        s.step(SimTime::from_secs(0));
        assert_eq!(s.running_on(0), vec![a]);
        assert_eq!(s.running_on(3), Vec::<JobId>::new());
    }

    #[test]
    fn drain_finished_removes_jobs() {
        let mut s = Scheduler::new(2, 0);
        s.submit(request(1, 100, QueueName::Normal), SimTime::from_secs(0));
        s.submit(request(1, 200, QueueName::Normal), SimTime::from_secs(0));
        s.step(SimTime::from_secs(0));
        s.step(SimTime::from_secs(150));
        let done = s.drain_finished();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].status, JobStatus::Completed);
        assert_eq!(s.jobs().count(), 1);
        assert!(s.drain_finished().is_empty());
    }

    #[test]
    fn node_reuse_after_completion() {
        let mut s = Scheduler::new(1, 0);
        for i in 0..5u64 {
            let id = s.submit(request(1, 100, QueueName::Normal), SimTime::from_secs(i));
            let _ = id;
        }
        let mut started = 0;
        for t in (0..=500).step_by(100) {
            let ev = s.step(SimTime::from_secs(t));
            started += ev
                .iter()
                .filter(|e| matches!(e, SchedEvent::Started(_)))
                .count();
        }
        assert_eq!(started, 5, "all jobs eventually run on the single node");
    }
}
