//! MemUsage validation against procfs high-water marks (§IV-A).
//!
//! "The MemUsage metric is unique in that it is a snapshot of memory
//! usage at a given instance in time. This snapshot may miss memory
//! usage spikes. However, we can now validate results derived from this
//! metric with the collection of per-process data from procfs, where a
//! true memory high water mark for each process is recorded by the OS."
//!
//! [`validate_mem_usage`] compares the node-snapshot-derived MemUsage
//! with the per-process VmHWM sum from the job's final samples and
//! reports the discrepancy — the quantity a spiky job would hide from
//! snapshot sampling.

use tacc_collect::record::Sample;
use tacc_simnode::schema::DeviceType;

/// Result of a MemUsage validation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MemValidation {
    /// MemUsage from node snapshots (GB) — max over samples of the
    /// node-summed `MemUsed` gauge.
    pub snapshot_gb: f64,
    /// True high-water mark (GB): max over samples of the summed
    /// per-process VmHWM.
    pub hwm_gb: f64,
}

impl MemValidation {
    /// The spike mass the snapshot metric missed (GB, ≥ 0 up to noise).
    fn missed_gb(&self) -> f64 {
        (self.hwm_gb - self.snapshot_gb).max(0.0)
    }

    /// Relative underestimate of the snapshot metric.
    pub fn underestimate_frac(&self) -> f64 {
        if self.hwm_gb <= 0.0 {
            0.0
        } else {
            self.missed_gb() / self.hwm_gb
        }
    }
}

/// Validate MemUsage for one node's samples of a job.
///
/// Both quantities are computed per sample and maximized over time; the
/// HWM side uses only processes owned by `uid` (job attribution on
/// shared nodes, §VI-C).
pub fn validate_mem_usage(samples: &[Sample], uid: u32) -> MemValidation {
    let mut snapshot_kib = 0u64;
    let mut hwm_kib = 0u64;
    for s in samples {
        let mem: u64 = s
            .devices_of(DeviceType::Mem)
            .filter_map(|r| r.values.get(1).copied()) // MemUsed
            .sum();
        snapshot_kib = snapshot_kib.max(mem);
        let hwm: u64 = s
            .processes
            .iter()
            .filter(|p| p.uid == uid)
            .filter_map(|p| p.values.get(1).copied()) // VmHWM
            .sum();
        hwm_kib = hwm_kib.max(hwm);
    }
    MemValidation {
        snapshot_gb: snapshot_kib as f64 * 1024.0 / 1e9,
        hwm_gb: hwm_kib as f64 * 1024.0 / 1e9,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacc_collect::discovery::{discover, BuildOptions};
    use tacc_collect::engine::Sampler;
    use tacc_simnode::pseudofs::NodeFs;
    use tacc_simnode::topology::NodeTopology;
    use tacc_simnode::workload::NodeDemand;
    use tacc_simnode::{SimDuration, SimNode, SimTime};

    /// A job whose memory spikes *between* samples: the snapshot metric
    /// misses the spike; the procfs HWM catches it.
    #[test]
    fn hwm_catches_spike_that_snapshots_miss() {
        let mut node = SimNode::new("c1", NodeTopology::stampede());
        node.spawn_process("spiky.x", 5000, 1, u64::MAX);
        let cfg = {
            let fs = NodeFs::new(&node);
            discover(&fs, BuildOptions::default()).unwrap()
        };
        let mut sampler = Sampler::new("c1", &cfg);
        let mut samples = Vec::new();
        let demand = |gb: u64| NodeDemand {
            active_cores: 16,
            cpu_user_frac: 0.8,
            mem_used_bytes: gb << 30,
            ..NodeDemand::default()
        };
        // Baseline 4 GB sample.
        node.advance(SimDuration::from_secs(300), &demand(4));
        {
            let fs = NodeFs::new(&node);
            samples.push(sampler.sample(&fs, SimTime::from_secs(300), &[], &[]));
        }
        // Spike to 24 GB mid-interval (no sample taken)…
        node.advance(SimDuration::from_secs(100), &demand(24));
        // …then back down before the next sample.
        node.advance(SimDuration::from_secs(200), &demand(4));
        let fs = NodeFs::new(&node);
        samples.push(sampler.sample(&fs, SimTime::from_secs(600), &[], &[]));

        let v = validate_mem_usage(&samples, 5000);
        assert!(v.snapshot_gb < 6.0, "snapshot saw {}", v.snapshot_gb);
        assert!(v.hwm_gb > 20.0, "hwm saw {}", v.hwm_gb);
        assert!(v.underestimate_frac() > 0.7);
    }

    #[test]
    fn steady_job_validates_cleanly() {
        let mut node = SimNode::new("c1", NodeTopology::stampede());
        node.spawn_process("steady.x", 5000, 1, u64::MAX);
        let cfg = {
            let fs = NodeFs::new(&node);
            discover(&fs, BuildOptions::default()).unwrap()
        };
        let mut sampler = Sampler::new("c1", &cfg);
        let demand = NodeDemand {
            active_cores: 16,
            cpu_user_frac: 0.8,
            mem_used_bytes: 10 << 30,
            ..NodeDemand::default()
        };
        let mut samples = Vec::new();
        for k in 1..=4u64 {
            node.advance(SimDuration::from_secs(600), &demand);
            let fs = NodeFs::new(&node);
            samples.push(sampler.sample(&fs, SimTime::from_secs(600 * k), &[], &[]));
        }
        let v = validate_mem_usage(&samples, 5000);
        // Snapshot and HWM agree within the OS-baseline slack.
        assert!(v.underestimate_frac() < 0.15, "{v:?}");
    }

    #[test]
    fn other_users_processes_are_excluded() {
        let mut node = SimNode::new("c1", NodeTopology::stampede());
        node.spawn_process("mine.x", 5000, 1, u64::MAX);
        node.spawn_process("theirs.x", 6000, 1, u64::MAX);
        let cfg = {
            let fs = NodeFs::new(&node);
            discover(&fs, BuildOptions::default()).unwrap()
        };
        let mut sampler = Sampler::new("c1", &cfg);
        node.advance(
            SimDuration::from_secs(600),
            &NodeDemand {
                active_cores: 16,
                cpu_user_frac: 0.5,
                mem_used_bytes: 8 << 30,
                ..NodeDemand::default()
            },
        );
        let fs = NodeFs::new(&node);
        let s = sampler.sample(&fs, SimTime::from_secs(600), &[], &[]);
        let mine = validate_mem_usage(std::slice::from_ref(&s), 5000);
        let nobody = validate_mem_usage(std::slice::from_ref(&s), 7777);
        assert!(mine.hwm_gb > 0.0);
        assert_eq!(nobody.hwm_gb, 0.0);
    }

    #[test]
    fn empty_samples_are_zero() {
        let v = validate_mem_usage(&[], 5000);
        assert_eq!(v.snapshot_gb, 0.0);
        assert_eq!(v.missed_gb(), 0.0);
        assert_eq!(v.underestimate_frac(), 0.0);
    }
}
