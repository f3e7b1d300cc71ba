//! System configuration.

use tacc_broker::ShedPolicy;
use tacc_simnode::topology::NodeTopology;
use tacc_simnode::{SimDuration, SimTime};

/// Which §III-A operation mode the system runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Fig. 1: node-local logs, rotation at midnight, a daily rsync
    /// staggered per node over 03:00–05:00.
    Cron,
    /// Fig. 2: `tacc_statsd` publishing every sample to the broker, a
    /// consumer archiving in real time.
    Daemon {
        /// Broker queue name.
        queue: String,
        /// Bound on the queue's ready backlog in messages (0 = unbounded).
        capacity: usize,
        /// What the queue does at `capacity`.
        policy: ShedPolicy,
    },
}

impl Mode {
    /// The cron mode (midnight rotation, 03:00–05:00 sync).
    pub fn cron() -> Mode {
        Mode::Cron
    }

    /// The default daemon mode (an unbounded queue).
    pub fn daemon() -> Mode {
        Mode::Daemon {
            queue: "tacc_stats".to_string(),
            capacity: 0,
            policy: ShedPolicy::DropOldest,
        }
    }
}

/// Full system configuration.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Hostname prefix (e.g. `c401`).
    pub host_prefix: String,
    /// Normal-pool nodes.
    pub n_nodes: usize,
    /// Largemem-pool nodes.
    pub n_largemem: usize,
    /// Node hardware description for the normal pool.
    pub topology: NodeTopology,
    /// Node hardware for the largemem pool.
    pub largemem_topology: NodeTopology,
    /// Operation mode.
    pub mode: Mode,
    /// Sampling interval (paper default: 10 minutes).
    pub interval: SimDuration,
    /// Whether to mirror samples into the time-series database (§VI-A).
    pub enable_tsdb: bool,
    /// Directory for the durable tsdb (per-shard WAL + segment files).
    /// `None` keeps the mirror purely in memory; `Some(dir)` opens (or
    /// crash-recovers) a persistent store there, so a restarted system
    /// resumes with every fsynced point intact.
    pub tsdb_dir: Option<std::path::PathBuf>,
    /// Whether the XALT plugin records per-job modules/libraries
    /// (§IV-B: the detail view shows them "only if the XALT plugin is
    /// enabled").
    pub enable_xalt: bool,
    /// RNG seed (stagger offsets etc.).
    pub seed: u64,
}

impl SystemConfig {
    /// Simulation step (granularity of scheduling/cluster advance).
    pub const STEP: SimDuration = SimDuration::from_secs(60);
    /// Simulation start time: the first instant of Q4 2015.
    pub const START: SimTime = SimTime::from_secs(tacc_simnode::clock::Q4_2015_START_SECS);

    /// A small Stampede-like test system.
    pub fn small(n_nodes: usize, mode: Mode) -> SystemConfig {
        SystemConfig {
            host_prefix: "c401".to_string(),
            n_nodes,
            n_largemem: 0,
            topology: NodeTopology::stampede(),
            largemem_topology: NodeTopology::stampede_largemem(),
            mode,
            interval: SimDuration::from_mins(10),
            enable_tsdb: false,
            tsdb_dir: None,
            enable_xalt: true,
            seed: 42,
        }
    }

    /// Total nodes (normal + largemem).
    pub fn total_nodes(&self) -> usize {
        self.n_nodes + self.n_largemem
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = SystemConfig::small(4, Mode::daemon());
        assert_eq!(c.total_nodes(), 4);
        assert_eq!(c.interval.as_secs(), 600);
        assert!(matches!(c.mode, Mode::Daemon { .. }));
        assert_eq!(Mode::cron(), Mode::Cron);
    }
}
