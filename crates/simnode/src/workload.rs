//! Per-node resource demand — the interface between application models and
//! simulated hardware.
//!
//! An application (see [`crate::apps`]) is, for simulation purposes, a
//! function from (node index, normalized job time) to a [`NodeDemand`]:
//! the set of resource consumption *rates* the node experiences over the
//! next simulation step. [`crate::node::SimNode::advance`] integrates a
//! demand over a time step into counter increments.
//!
//! The fields map one-to-one onto the metric groups of Table I: processor
//! (FLOPs, CPI, cache hits, memory bandwidth), OS (CPU usage, memory),
//! network (IB, GigE), and Lustre (metadata, object storage, bandwidth).

use serde::{Deserialize, Serialize};

/// Lustre demand against a single mounted filesystem.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct LustreDemand {
    /// Metadata-server request rate (MDC reqs/s).
    pub mdc_reqs_per_sec: f64,
    /// Mean metadata request service time (µs per request).
    pub mdc_wait_us: f64,
    /// Object-storage request rate (OSC reqs/s).
    pub osc_reqs_per_sec: f64,
    /// Mean object-storage request service time (µs per request).
    pub osc_wait_us: f64,
    /// File open rate (opens/s). Closes are generated at the same rate.
    pub opens_per_sec: f64,
    /// getattr rate (getattrs/s).
    pub getattr_per_sec: f64,
    /// Read bandwidth (bytes/s).
    pub read_bytes_per_sec: f64,
    /// Write bandwidth (bytes/s).
    pub write_bytes_per_sec: f64,
}

/// Resource demand a job places on one node over a simulation step.
///
/// All rates are per second of simulated time and describe the node as a
/// whole (they are spread over the node's active cores by
/// [`crate::node::SimNode::advance`]).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NodeDemand {
    /// Number of cores the job actually keeps busy on this node (the
    /// job's "wayness" clamped to the node). Idle-node jobs set this to 0.
    pub active_cores: usize,
    /// Fraction of active-core time spent in user space (0..=1).
    pub cpu_user_frac: f64,
    /// Fraction of active-core time spent in system space (0..=1).
    pub cpu_sys_frac: f64,
    /// Fraction of active-core time spent in iowait (0..=1).
    pub cpu_iowait_frac: f64,
    /// Average cycles per instruction on the active cores.
    pub cpi: f64,
    /// Floating-point operations per second, node-wide.
    pub flops_per_sec: f64,
    /// Fraction of FP *instructions* that are vector instructions (0..=1).
    /// Table I's VecPercent derives from this.
    pub vector_frac: f64,
    /// Data-cache loads per retired instruction.
    pub loads_per_inst: f64,
    /// Fraction of loads that hit L1.
    pub l1_hit_frac: f64,
    /// Fraction of loads that hit L2 (of all loads).
    pub l2_hit_frac: f64,
    /// Fraction of loads that hit LLC (of all loads).
    pub llc_hit_frac: f64,
    /// Main-memory bandwidth (bytes/s, node-wide).
    pub mem_bw_bytes_per_sec: f64,
    /// Resident memory in use by the job on this node (bytes, gauge).
    pub mem_used_bytes: u64,
    /// Infiniband traffic (bytes/s, symmetric xmit+rcv assumed).
    pub ib_bytes_per_sec: f64,
    /// Mean Infiniband packet size (bytes).
    pub ib_pkt_size: f64,
    /// Ethernet traffic (bytes/s).
    pub gige_bytes_per_sec: f64,
    /// Lustre demand per mounted filesystem, indexed like
    /// `NodeTopology::lustre_filesystems`. Missing entries mean no
    /// traffic on that filesystem.
    pub lustre: Vec<LustreDemand>,
    /// Xeon Phi utilization (fraction of MIC core time in user space).
    pub mic_user_frac: f64,
    /// Number of application processes running on the node.
    pub n_processes: usize,
    /// Threads per process.
    pub threads_per_process: usize,
}

impl Default for NodeDemand {
    /// An idle node: OS noise only.
    fn default() -> Self {
        NodeDemand {
            active_cores: 0,
            cpu_user_frac: 0.0,
            cpu_sys_frac: 0.002,
            cpu_iowait_frac: 0.0,
            cpi: 1.0,
            flops_per_sec: 0.0,
            vector_frac: 0.0,
            loads_per_inst: 0.3,
            l1_hit_frac: 0.95,
            l2_hit_frac: 0.03,
            llc_hit_frac: 0.015,
            mem_bw_bytes_per_sec: 0.0,
            mem_used_bytes: 512 << 20, // OS baseline
            ib_bytes_per_sec: 0.0,
            ib_pkt_size: 256.0,
            gige_bytes_per_sec: 1e3, // ssh/monitoring chatter
            lustre: Vec::new(),
            mic_user_frac: 0.0,
            n_processes: 0,
            threads_per_process: 1,
        }
    }
}

impl NodeDemand {
    /// An idle demand (same as `Default`).
    pub fn idle() -> Self {
        Self::default()
    }

    /// Clamp all fractions into valid ranges; used after applying random
    /// jitter so models can't push a fraction past 1.0.
    pub fn sanitize(mut self) -> Self {
        let clamp = |x: f64| x.clamp(0.0, 1.0);
        self.cpu_user_frac = clamp(self.cpu_user_frac);
        self.cpu_sys_frac = clamp(self.cpu_sys_frac);
        self.cpu_iowait_frac = clamp(self.cpu_iowait_frac);
        let busy = self.cpu_user_frac + self.cpu_sys_frac + self.cpu_iowait_frac;
        if busy > 1.0 {
            self.cpu_user_frac /= busy;
            self.cpu_sys_frac /= busy;
            self.cpu_iowait_frac /= busy;
        }
        self.vector_frac = clamp(self.vector_frac);
        self.l1_hit_frac = clamp(self.l1_hit_frac);
        self.l2_hit_frac = clamp(self.l2_hit_frac);
        self.llc_hit_frac = clamp(self.llc_hit_frac);
        let hits = self.l1_hit_frac + self.l2_hit_frac + self.llc_hit_frac;
        if hits > 1.0 {
            self.l1_hit_frac /= hits;
            self.l2_hit_frac /= hits;
            self.llc_hit_frac /= hits;
        }
        self.cpi = self.cpi.max(0.1);
        self.flops_per_sec = self.flops_per_sec.max(0.0);
        self.mem_bw_bytes_per_sec = self.mem_bw_bytes_per_sec.max(0.0);
        self.ib_bytes_per_sec = self.ib_bytes_per_sec.max(0.0);
        self.ib_pkt_size = self.ib_pkt_size.max(16.0);
        self.gige_bytes_per_sec = self.gige_bytes_per_sec.max(0.0);
        for l in &mut self.lustre {
            l.mdc_reqs_per_sec = l.mdc_reqs_per_sec.max(0.0);
            l.osc_reqs_per_sec = l.osc_reqs_per_sec.max(0.0);
            l.opens_per_sec = l.opens_per_sec.max(0.0);
            l.getattr_per_sec = l.getattr_per_sec.max(0.0);
            l.read_bytes_per_sec = l.read_bytes_per_sec.max(0.0);
            l.write_bytes_per_sec = l.write_bytes_per_sec.max(0.0);
            l.mdc_wait_us = l.mdc_wait_us.max(0.0);
            l.osc_wait_us = l.osc_wait_us.max(0.0);
        }
        self.mic_user_frac = clamp(self.mic_user_frac);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_idle() {
        let d = NodeDemand::default();
        assert_eq!(d.active_cores, 0);
        assert_eq!(d.flops_per_sec, 0.0);
    }

    #[test]
    fn sanitize_normalizes_overcommitted_cpu() {
        let d = NodeDemand {
            cpu_user_frac: 0.9,
            cpu_sys_frac: 0.3,
            cpu_iowait_frac: 0.3,
            ..NodeDemand::default()
        }
        .sanitize();
        let busy = d.cpu_user_frac + d.cpu_sys_frac + d.cpu_iowait_frac;
        assert!(busy <= 1.0 + 1e-12);
        // Proportions preserved.
        assert!((d.cpu_user_frac / d.cpu_sys_frac - 3.0).abs() < 1e-9);
    }

    #[test]
    fn sanitize_clamps_negative_rates() {
        let d = NodeDemand {
            flops_per_sec: -5.0,
            cpi: -1.0,
            ..NodeDemand::default()
        }
        .sanitize();
        assert_eq!(d.flops_per_sec, 0.0);
        assert!(d.cpi >= 0.1);
    }
}
