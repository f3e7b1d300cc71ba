//! Job metadata.
//!
//! The portal's job list (§IV-B) displays "Job ID, username, executable,
//! start time, end time, run time, queue, job name, job completion
//! status, node wayness, number of reserved nodes, and node hours
//! consumed" — this module carries all of it.

use tacc_simnode::apps::AppInstance;
use tacc_simnode::{SimDuration, SimTime};

/// Job identifier (monotonically assigned by the scheduler).
pub type JobId = u64;

/// Batch queues, mirroring Stampede's (§V-A discusses `largemem`
/// explicitly; "production queues" gate the §V-B correlation study).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QueueName {
    /// The main production queue.
    Normal,
    /// The 1 TB-node queue ("composed of expensive 1 TB nodes and … a
    /// scarce resource").
    LargeMem,
    /// Short test jobs; not "production" for the correlation study.
    Development,
}

impl QueueName {
    /// Queue name string as the portal shows it.
    pub fn name(self) -> &'static str {
        match self {
            QueueName::Normal => "normal",
            QueueName::LargeMem => "largemem",
            QueueName::Development => "development",
        }
    }
}

/// Completion status.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum JobStatus {
    /// Waiting for nodes.
    Queued,
    /// Currently executing.
    Running,
    /// Finished normally.
    Completed,
    /// Application failure.
    Failed,
    /// Cancelled before or during execution.
    Cancelled,
}

impl JobStatus {
    /// Status string as the portal shows it.
    pub fn name(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Completed => "completed",
            JobStatus::Failed => "failed",
            JobStatus::Cancelled => "cancelled",
        }
    }
}

/// What a user submits.
#[derive(Clone, Debug)]
pub struct JobRequest {
    /// Username.
    pub user: String,
    /// Numeric uid (procfs attribution).
    pub uid: u32,
    /// Project/account charged.
    pub account: String,
    /// Job name from the submission script.
    pub job_name: String,
    /// Target queue.
    pub queue: QueueName,
    /// Nodes requested.
    pub n_nodes: usize,
    /// Tasks per node ("wayness").
    pub wayness: usize,
    /// Actual runtime the job will consume.
    pub runtime: SimDuration,
    /// Whether the application fails (sets final status).
    pub will_fail: bool,
    /// Nodes (count) the job reserves but leaves completely idle — the
    /// §V-A "idle nodes" pathology.
    pub idle_nodes: usize,
    /// The application behaviour model instance driving this job's
    /// resource demands.
    pub app: AppInstance,
}

/// A job as the scheduler and database see it.
#[derive(Clone, Debug)]
pub struct Job {
    /// Job id.
    pub id: JobId,
    /// Username.
    pub user: String,
    /// Numeric uid.
    pub uid: u32,
    /// Project/account.
    pub account: String,
    /// Job name.
    pub job_name: String,
    /// Executable name (from the app model).
    pub exec: String,
    /// Queue.
    pub queue: QueueName,
    /// Nodes requested (= reserved).
    pub n_nodes: usize,
    /// Wayness (tasks per node).
    pub wayness: usize,
    /// Submission time.
    pub submit: SimTime,
    /// Start time (== submit while queued).
    pub start: SimTime,
    /// End time (== start while running).
    pub end: SimTime,
    /// Current status.
    pub status: JobStatus,
    /// Indices of the nodes allocated (empty while queued).
    pub nodes: Vec<usize>,
    /// Nodes (count) left idle by the application.
    pub idle_nodes: usize,
    /// The application instance.
    pub app: AppInstance,
}

impl Job {
    /// Queue wait time (start − submit).
    pub fn queue_wait(&self) -> SimDuration {
        self.start.duration_since(self.submit)
    }

    /// Runtime so far (end − start).
    pub fn run_time(&self) -> SimDuration {
        self.end.duration_since(self.start)
    }

    /// Node hours consumed.
    pub fn node_hours(&self) -> f64 {
        self.n_nodes as f64 * self.run_time().as_secs_f64() / 3600.0
    }

    /// Normalized job time of instant `t` (0 at start, 1 at end; used to
    /// drive the app model's phases).
    pub fn t_frac(&self, t: SimTime) -> f64 {
        let total = self.run_time().as_secs_f64();
        if total <= 0.0 {
            return 0.0;
        }
        (t.duration_since(self.start).as_secs_f64() / total).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tacc_simnode::apps::AppModel;
    use tacc_simnode::topology::NodeTopology;

    fn job() -> Job {
        let mut rng = StdRng::seed_from_u64(1);
        let app = AppModel::wrf().instantiate(&mut rng, 4, 16, &NodeTopology::stampede());
        Job {
            id: 1,
            user: "alice".into(),
            uid: 5000,
            account: "TG-123".into(),
            job_name: "forecast".into(),
            exec: "wrf.exe".into(),
            queue: QueueName::Normal,
            n_nodes: 4,
            wayness: 16,
            submit: SimTime::from_secs(1000),
            start: SimTime::from_secs(1600),
            end: SimTime::from_secs(1600 + 7200),
            status: JobStatus::Completed,
            nodes: vec![0, 1, 2, 3],
            idle_nodes: 0,
            app,
        }
    }

    #[test]
    fn derived_quantities() {
        let j = job();
        assert_eq!(j.queue_wait().as_secs(), 600);
        assert_eq!(j.run_time().as_secs(), 7200);
        assert_eq!(j.node_hours(), 8.0);
        assert_eq!(j.t_frac(SimTime::from_secs(1600 + 3600)), 0.5);
        assert_eq!(j.t_frac(SimTime::from_secs(0)), 0.0);
        assert_eq!(j.t_frac(SimTime::from_secs(99_999_999)), 1.0);
    }

    #[test]
    fn queue_properties() {
        assert_eq!(QueueName::LargeMem.name(), "largemem");
    }
}
