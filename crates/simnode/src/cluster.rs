//! A simulated cluster: a set of nodes sharing one clock.
//!
//! Node state is behind `parking_lot::RwLock`s so the collector threads
//! (one per node in daemon mode) and the workload driver can run
//! concurrently, as they do on a real system. Advancing a cluster large
//! enough to pay for threads fans out over the cluster's
//! [`WorkerPool`].

use crate::clock::{SimClock, SimDuration};
use crate::node::SimNode;
use crate::pool::WorkerPool;
use crate::topology::NodeTopology;
use crate::workload::NodeDemand;
use parking_lot::RwLock;
use std::num::NonZeroUsize;
use std::sync::Arc;

/// Fewest nodes a worker thread of [`SimCluster::advance_all`] is given.
/// A busy Stampede node-step costs 1.1–1.7 µs in-fleet (the benchmark's
/// `simnode.advance.ns_per_node_step`, traced `fleet_clean`,
/// `fleet_hostile` and `system_live` at seeds 42 and 2015, every node's
/// CPUs in lockstep), so 200 nodes are ≈ 0.2–0.35 ms of work — still
/// enough to amortise spawning and joining a thread (tens of µs). The
/// benchmark runs pinned to one CPU, so it cannot time the threaded arm
/// that would re-tune the gate. Below it the cluster advances inline; a
/// 64-node cluster always does. Node-steps are independent, so the gate
/// moves wall time only, never a counter.
const PAR_MIN_NODES_PER_WORKER: usize = 200;

/// A collection of simulated nodes sharing a [`SimClock`].
pub struct SimCluster {
    clock: SimClock,
    nodes: Vec<Arc<RwLock<SimNode>>>,
    /// What `advance_all` fans out over: as many workers as the host's
    /// parallelism (4 if unknown), asked once at construction rather
    /// than on every call (the query reads cgroup files, ≈ 12–16 µs).
    pool: WorkerPool,
}

impl SimCluster {
    /// Build a homogeneous cluster of `n` nodes named `prefix-<i>`.
    pub fn homogeneous(
        clock: SimClock,
        prefix: &str,
        n: usize,
        topology: NodeTopology,
    ) -> SimCluster {
        let nodes = (0..n)
            .map(|i| SimNode::new(format!("{prefix}-{i:04}"), topology.clone()))
            .collect();
        SimCluster::from_nodes(clock, nodes)
    }

    /// Build a cluster from explicit nodes.
    pub fn from_nodes(clock: SimClock, nodes: Vec<SimNode>) -> SimCluster {
        SimCluster {
            clock,
            nodes: nodes
                .into_iter()
                .map(|n| Arc::new(RwLock::new(n)))
                .collect(),
            pool: WorkerPool::new(
                std::thread::available_parallelism().map_or(4, NonZeroUsize::get),
            ),
        }
    }

    /// The shared clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Shared handle to node `i`.
    pub fn node(&self, i: usize) -> Arc<RwLock<SimNode>> {
        Arc::clone(&self.nodes[i])
    }

    /// All node handles.
    pub fn nodes(&self) -> &[Arc<RwLock<SimNode>>] {
        &self.nodes
    }

    /// Find a node index by hostname.
    pub fn index_of(&self, hostname: &str) -> Option<usize> {
        self.nodes
            .iter()
            // lock-order: class=SimCluster.nodes
            .position(|n| n.read().hostname == hostname)
    }

    /// Advance every node by `dt` using per-node demands supplied by
    /// `demand_of` (node index → demand; `None` means idle), then advance
    /// the shared clock. Fans out over worker threads only when each gets
    /// at least `PAR_MIN_NODES_PER_WORKER` nodes; a worker's panic is
    /// re-raised here.
    pub fn advance_all<F>(&self, dt: SimDuration, demand_of: F)
    where
        F: Fn(usize) -> Option<NodeDemand> + Sync,
    {
        let advance_chunk = |first: usize, nodes: &[Arc<RwLock<SimNode>>]| {
            let idle = NodeDemand::idle();
            for (i, node) in (first..).zip(nodes) {
                let d = demand_of(i);
                // lock-order: class=SimCluster.nodes
                node.write().advance(dt, d.as_ref().unwrap_or(&idle));
            }
        };
        let workers = self
            .pool
            .workers()
            .min(self.nodes.len() / PAR_MIN_NODES_PER_WORKER);
        if workers <= 1 {
            advance_chunk(0, &self.nodes);
        } else {
            let chunk = self.nodes.len().div_ceil(workers);
            self.pool
                .run_parts(self.nodes.len().div_ceil(chunk), |part, _scratch| {
                    if let Some(nodes) = self.nodes.chunks(chunk).nth(part) {
                        advance_chunk(part * chunk, nodes);
                    }
                });
        }
        self.clock.advance(dt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::SimDevice;
    use crate::schema::DeviceType;

    #[test]
    fn homogeneous_cluster_names_nodes() {
        let c = SimCluster::homogeneous(SimClock::new(), "c401", 3, NodeTopology::stampede());
        assert_eq!(c.len(), 3);
        assert_eq!(c.node(0).read().hostname, "c401-0000");
        assert_eq!(c.index_of("c401-0002"), Some(2));
        assert_eq!(c.index_of("nope"), None);
    }

    #[test]
    fn advance_all_advances_clock_and_nodes() {
        let c = SimCluster::homogeneous(SimClock::new(), "c", 4, NodeTopology::stampede());
        let busy = NodeDemand {
            active_cores: 16,
            cpu_user_frac: 0.5,
            ..NodeDemand::idle()
        };
        c.advance_all(SimDuration::from_secs(60), |i| {
            if i == 0 {
                Some(busy.clone())
            } else {
                None
            }
        });
        assert_eq!(c.clock().now().as_secs(), 60);
        let n0 = c.node(0);
        let n1 = c.node(1);
        let user = |n: &SimNode| {
            n.device(DeviceType::Cpustat, 0)
                .and_then(|d| d.read("user"))
        };
        let (user0, user1) = (user(&n0.read()).unwrap(), user(&n1.read()).unwrap());
        assert!(user0 > 0);
        assert_eq!(user1, 0);
    }

    #[test]
    fn parallel_advance_matches_serial() {
        // Past the gate at two workers (on any host), so the threaded
        // path runs, with a ragged last chunk; totals must match the
        // serial result exactly (demands are pure).
        let n = 2 * PAR_MIN_NODES_PER_WORKER + 3;
        let mk = || SimCluster::homogeneous(SimClock::new(), "c", n, NodeTopology::stampede());
        let busy = |i: usize| {
            Some(NodeDemand {
                active_cores: 16,
                cpu_user_frac: 0.3 + (i % 5) as f64 * 0.1,
                ..NodeDemand::idle()
            })
        };
        let mut par = mk();
        par.pool = WorkerPool::new(2);
        par.advance_all(SimDuration::from_secs(600), busy);
        let ser = mk();
        {
            let idle = NodeDemand::idle();
            for (i, node) in ser.nodes().iter().enumerate() {
                node.write().advance(
                    SimDuration::from_secs(600),
                    busy(i).as_ref().unwrap_or(&idle),
                );
            }
        }
        for i in 0..n {
            for dt in [DeviceType::Cpu, DeviceType::Cpustat, DeviceType::Rapl] {
                let (p, s) = (par.node(i), ser.node(i));
                let (p, s) = (p.read(), s.read());
                for c in 0..p.topology.n_cpus() {
                    let totals = |n: &SimNode| n.device(dt, c).map(SimDevice::totals);
                    assert_eq!(totals(&p), totals(&s), "node {i} {dt} {c}");
                }
            }
        }
    }

    #[test]
    fn parallel_advance_reraises_a_demand_panic() {
        // The setup of `parallel_advance_matches_serial`: the last node
        // sits in the second chunk, which a pool worker advances.
        let n = 2 * PAR_MIN_NODES_PER_WORKER + 3;
        let mut c = SimCluster::homogeneous(SimClock::new(), "c", n, NodeTopology::stampede());
        c.pool = WorkerPool::new(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.advance_all(SimDuration::from_secs(600), |i| {
                assert!(i + 1 < n, "no demand for the last node");
                None
            });
        }));
        assert!(caught.is_err(), "a worker's panic must reach the caller");
        assert_eq!(c.clock().now().as_secs(), 0, "the clock stops at the panic");
    }
}
