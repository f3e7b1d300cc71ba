//! The sampling engine.
//!
//! A [`Sampler`] owns the collector set produced by discovery and turns a
//! node's current state into a [`Sample`]. It also accounts collection
//! *cost*, reproducing the paper's overhead numbers: "To perform a
//! collection and transmit data off the node TACC Stats requires a single
//! core for ~0.09 s on a system such as Lonestar 5" and "overhead
//! estimated to be 0.02%" at 10-minute sampling.
//!
//! Cost has two parallel books: a simulated-time model (base latency plus
//! a per-device-instance term, occupying one core), used for the overhead
//! experiments and for the §VI-C busy window; and real wall-clock
//! measurement of this implementation's collection path, reported by the
//! overhead bench.

use crate::collectors::{Collector, PsCollector, Scratch};
use crate::discovery::{build_collectors, NodeConfig};
use crate::record::{DeviceRecord, HostHeader, Sample, SimTimeRepr};
use tacc_simnode::pseudofs::NodeFs;
use tacc_simnode::schema::DeviceType;
use tacc_simnode::{SimDuration, SimTime};

/// Fixed per-collection setup cost (process wake-up, file opens) in the
/// simulated cost model.
const COST_BASE: SimDuration = SimDuration::from_millis(25);
/// Marginal simulated cost per device instance read.
const COST_PER_INSTANCE_US: u64 = 550;
/// Marginal simulated cost per process-table entry.
const COST_PER_PROCESS_US: u64 = 150;

/// Cumulative overhead bookkeeping.
#[derive(Clone, Copy, Debug, Default)]
pub struct OverheadAccount {
    /// Total simulated core-time spent collecting.
    pub busy: SimDuration,
    /// Number of collections performed.
    pub collections: u64,
    /// Total real wall-clock nanoseconds this implementation spent
    /// collecting (measured, not modelled).
    pub real_nanos: u64,
}

impl OverheadAccount {
    /// Mean simulated cost per collection.
    pub fn mean_cost(&self) -> SimDuration {
        match self.busy.as_nanos().checked_div(self.collections) {
            Some(per) => SimDuration::from_nanos(per),
            None => SimDuration::ZERO,
        }
    }

    /// Overhead over `elapsed` of simulated time, measured the way the
    /// paper reports it: the fraction of *one core's* time spent
    /// collecting (0.09 s per 600 s ≈ 0.015% ≈ the paper's "0.02%").
    pub fn overhead_fraction(&self, elapsed: SimDuration) -> f64 {
        if elapsed.is_zero() {
            return 0.0;
        }
        self.busy.as_secs_f64() / elapsed.as_secs_f64()
    }

    /// Mean measured wall-clock cost per collection of this
    /// implementation (seconds).
    pub fn mean_real_cost_secs(&self) -> f64 {
        if self.collections == 0 {
            0.0
        } else {
            self.real_nanos as f64 / self.collections as f64 / 1e9
        }
    }
}

/// Collects everything a node exposes into timestamped [`Sample`]s.
pub struct Sampler {
    header: HostHeader,
    collectors: Vec<Box<dyn Collector>>,
    ps: PsCollector,
    /// Text buffers every collection reads through.
    scratch: Scratch,
    account: OverheadAccount,
    busy_until: SimTime,
    /// Most instances ever observed per device type (indexed by the
    /// type's discriminant) — the yardstick a degraded sample is
    /// measured against.
    baseline: [usize; DeviceType::ALL.len()],
    degraded_reads: u64,
}

impl Sampler {
    /// Build a sampler from a discovered configuration.
    pub fn new(hostname: &str, cfg: &NodeConfig) -> Sampler {
        Sampler {
            header: cfg.header(hostname),
            collectors: build_collectors(cfg),
            ps: PsCollector,
            scratch: Scratch::default(),
            account: OverheadAccount::default(),
            busy_until: SimTime::EPOCH,
            baseline: [0; DeviceType::ALL.len()],
            degraded_reads: 0,
        }
    }

    /// The host header (identity + schemas).
    pub fn header(&self) -> &HostHeader {
        &self.header
    }

    /// Overhead bookkeeping so far.
    pub fn account(&self) -> OverheadAccount {
        self.account
    }

    /// The instant until which the collector core is busy with the most
    /// recent collection (§VI-C's ~0.09 s window).
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Whether a collection started at `now` would overlap the previous
    /// collection's busy window.
    pub fn is_busy(&self, now: SimTime) -> bool {
        now < self.busy_until
    }

    /// Device instances that vanished from a sample relative to the
    /// best-ever inventory (cumulative). A pseudofs read failure — file
    /// missing or truncated mid-line — never aborts collection; the
    /// affected device is simply absent from that sample and counted
    /// here so degradation is visible rather than silent.
    pub fn degraded_reads(&self) -> u64 {
        self.degraded_reads
    }

    /// Compare this sample's device inventory against the baseline:
    /// count shortfalls, then ratchet the baseline up with anything new.
    fn account_degradation(&mut self, devices: &[DeviceRecord]) {
        // A totally empty sample is a crashed node, not a degraded read;
        // node outages are accounted separately.
        if devices.is_empty() {
            return;
        }
        let mut counts = [0usize; DeviceType::ALL.len()];
        for d in devices {
            if let Some(n) = counts.get_mut(d.dev_type as usize) {
                *n += 1;
            }
        }
        for (base, have) in self.baseline.iter_mut().zip(counts) {
            self.degraded_reads += base.saturating_sub(have) as u64;
            *base = (*base).max(have);
        }
    }

    /// Simulated cost of one collection given what was read.
    fn cost_model(n_instances: usize, n_processes: usize) -> SimDuration {
        COST_BASE
            + SimDuration::from_nanos(n_instances as u64 * COST_PER_INSTANCE_US * 1_000)
            + SimDuration::from_nanos(n_processes as u64 * COST_PER_PROCESS_US * 1_000)
    }

    /// Collect one sample.
    ///
    /// `jobids` are the jobs currently assigned to the node (provided by
    /// the scheduler integration); `marks` are scheduler annotations
    /// (`begin <job>`, `end <job>`, `procstart <pid>` …) recorded with the
    /// sample.
    // alloc: cold-fn (owned-return wrapper over sample_into; the daemon reuses one Sample)
    pub fn sample(
        &mut self,
        fs: &NodeFs<'_>,
        now: SimTime,
        jobids: &[String],
        marks: &[String],
    ) -> Sample {
        let mut sample = Sample {
            devices: Vec::with_capacity(64),
            processes: Vec::with_capacity(16),
            ..Sample::default()
        };
        self.sample_into(fs, now, jobids, marks, &mut sample);
        sample
    }

    /// [`Sampler::sample`] into a caller-owned `sample`, which is
    /// overwritten whole. Refilling the same `Sample` every collection
    /// reuses its vectors (and the text of unchanged job ids and marks),
    /// so a steady-state collection allocates nothing.
    pub fn sample_into(
        &mut self,
        fs: &NodeFs<'_>,
        now: SimTime,
        jobids: &[String],
        marks: &[String],
        sample: &mut Sample,
    ) {
        let wall_start = std::time::Instant::now();
        sample.devices.clear();
        for c in &self.collectors {
            c.collect_into(fs, &mut self.scratch, &mut sample.devices);
        }
        sample.processes.clear();
        self.ps
            .collect_ps_into(fs, &mut self.scratch, &mut sample.processes);
        self.account_degradation(&sample.devices);
        let cost = Self::cost_model(sample.devices.len(), sample.processes.len());
        self.account.busy = self.account.busy + cost;
        self.account.collections += 1;
        self.account.real_nanos += wall_start.elapsed().as_nanos() as u64;
        self.busy_until = now + cost;
        // Truncate to whole seconds: the raw-file format carries Unix
        // seconds, and samples must round-trip through it.
        sample.time = SimTimeRepr::from(SimTime::from_secs(now.as_secs()));
        jobids.clone_into(&mut sample.jobids);
        marks.clone_into(&mut sample.marks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discovery::{discover, BuildOptions};
    use tacc_simnode::schema::DeviceType;
    use tacc_simnode::topology::NodeTopology;
    use tacc_simnode::workload::NodeDemand;
    use tacc_simnode::SimNode;

    fn sampler_for(node: &SimNode) -> Sampler {
        let fs = NodeFs::new(node);
        let cfg = discover(&fs, BuildOptions::default()).unwrap();
        Sampler::new(&node.hostname, &cfg)
    }

    fn busy() -> NodeDemand {
        NodeDemand {
            active_cores: 16,
            cpu_user_frac: 0.8,
            flops_per_sec: 1e10,
            mem_bw_bytes_per_sec: 1e9,
            mem_used_bytes: 4 << 30,
            ..NodeDemand::default()
        }
    }

    #[test]
    fn sample_covers_every_device_type() {
        let mut node = SimNode::new("c401-0001", NodeTopology::stampede());
        node.spawn_process("wrf.exe", 5000, 16, 0xFFFF);
        node.advance(SimDuration::from_secs(600), &busy());
        let mut s = sampler_for(&node);
        let fs = NodeFs::new(&node);
        let sample = s.sample(
            &fs,
            SimTime::from_secs(1000),
            &["3001".to_string()],
            &["begin 3001".to_string()],
        );
        let mut types: Vec<DeviceType> = sample.devices.iter().map(|d| d.dev_type).collect();
        types.sort();
        types.dedup();
        for dt in [
            DeviceType::Cpu,
            DeviceType::Imc,
            DeviceType::Qpi,
            DeviceType::Cbo,
            DeviceType::Rapl,
            DeviceType::Cpustat,
            DeviceType::Mem,
            DeviceType::Ib,
            DeviceType::Net,
            DeviceType::Llite,
            DeviceType::Mdc,
            DeviceType::Osc,
            DeviceType::Lnet,
            DeviceType::Mic,
        ] {
            assert!(types.contains(&dt), "missing {dt}");
        }
        assert_eq!(sample.processes.len(), 1);
        assert_eq!(sample.jobids, vec!["3001"]);
    }

    #[test]
    fn sample_roundtrips_through_raw_file() {
        let mut node = SimNode::new("c401-0001", NodeTopology::stampede());
        node.spawn_process("wrf.exe", 5000, 16, 0xFFFF);
        node.advance(SimDuration::from_secs(600), &busy());
        let mut s = sampler_for(&node);
        let fs = NodeFs::new(&node);
        let sample = s.sample(&fs, SimTime::from_secs(1000), &[], &[]);
        let mut msg = Vec::new();
        crate::codec::render_message_into(s.header(), &sample, None, &mut msg);
        let parsed = crate::codec::parse_bytes(&msg).unwrap();
        assert_eq!(parsed.header, *s.header());
        assert_eq!(parsed.samples, vec![sample]);
    }

    #[test]
    fn cost_model_matches_paper_scale() {
        // Lonestar 5 node: 48 logical CPUs. The paper reports ~0.09 s per
        // collection there.
        let node = SimNode::new("nid00001", NodeTopology::lonestar5());
        let mut s = sampler_for(&node);
        let fs = NodeFs::new(&node);
        s.sample(&fs, SimTime::from_secs(0), &[], &[]);
        let cost = s.account().mean_cost().as_secs_f64();
        assert!(
            (0.05..0.15).contains(&cost),
            "LS5 collection cost {cost}s should be ~0.09s"
        );
    }

    #[test]
    fn overhead_at_10min_sampling_is_about_2e_minus_4() {
        // One collection every 600 s, cost spread over n_cores cores.
        let node = SimNode::new("c401-0001", NodeTopology::stampede());
        let mut s = sampler_for(&node);
        let fs = NodeFs::new(&node);
        let interval = SimDuration::from_secs(600);
        for i in 0..144 {
            // a day of 10-minute samples
            s.sample(&fs, SimTime::from_secs(600 * i), &[], &[]);
        }
        let elapsed = interval * 144;
        let ov = s.account().overhead_fraction(elapsed);
        // Paper: "overhead estimated to be 0.02%". Accept the right order.
        assert!(
            (0.5e-4..2.5e-4).contains(&ov),
            "overhead {ov} should be ~2e-4"
        );
    }

    #[test]
    fn busy_window_tracks_last_collection() {
        let node = SimNode::new("c401-0001", NodeTopology::stampede());
        let mut s = sampler_for(&node);
        let fs = NodeFs::new(&node);
        let t0 = SimTime::from_secs(100);
        s.sample(&fs, t0, &[], &[]);
        assert!(s.is_busy(t0 + SimDuration::from_millis(10)));
        assert!(!s.is_busy(t0 + SimDuration::from_secs(1)));
    }

    #[test]
    fn failed_reads_degrade_gracefully() {
        use tacc_simnode::faults::{ReadFault, ReadFaultMode};
        let mut node = SimNode::new("c401-0001", NodeTopology::stampede());
        let pid = node.spawn_process("wrf.exe", 5000, 16, 0xFFFF);
        node.advance(SimDuration::from_secs(600), &busy());
        let mut s = sampler_for(&node);
        {
            let fs = NodeFs::new(&node);
            s.sample(&fs, SimTime::from_secs(0), &[], &[]);
        }
        assert_eq!(s.degraded_reads(), 0, "healthy sample sets the baseline");
        let n_llite = NodeFs::new(&node).list("/proc/fs/lustre/llite").len();
        assert!(n_llite >= 2, "stampede mounts scratch and work");

        // Missing file: the scratch llite stats vanish.
        node.set_read_faults(vec![ReadFault {
            prefix: "/proc/fs/lustre/llite/scratch".to_string(),
            mode: ReadFaultMode::Missing,
        }]);
        let sample = {
            let fs = NodeFs::new(&node);
            s.sample(&fs, SimTime::from_secs(600), &[], &[])
        };
        let llite: Vec<_> = sample
            .devices
            .iter()
            .filter(|d| d.dev_type == DeviceType::Llite)
            .collect();
        assert_eq!(
            llite.len(),
            n_llite - 1,
            "faulted device absent, rest intact"
        );
        assert!(llite.iter().all(|d| d.instance != "scratch"));
        assert_eq!(s.degraded_reads(), 1);
        assert!(!sample.devices.is_empty(), "sampling continued");

        // Truncated read: the mdc stats lose their tail; the collector
        // must report the device absent, not fabricate zeros.
        node.set_read_faults(vec![ReadFault {
            prefix: "/proc/fs/lustre/mdc/scratch".to_string(),
            mode: ReadFaultMode::Truncated,
        }]);
        let sample = {
            let fs = NodeFs::new(&node);
            s.sample(&fs, SimTime::from_secs(1200), &[], &[])
        };
        assert!(sample
            .devices
            .iter()
            .filter(|d| d.dev_type == DeviceType::Mdc)
            .all(|d| d.instance != "scratch"));
        assert_eq!(s.degraded_reads(), 2);

        // Truncated meminfo: the cut falls inside the MemUsed line, whose
        // digits must not be read short, and the later keys are gone —
        // the NUMA node is absent, not reported with a wrong MemUsed and
        // zero FilePages.
        node.set_read_faults(vec![ReadFault {
            prefix: "/sys/devices/system/node/node0/meminfo".to_string(),
            mode: ReadFaultMode::Truncated,
        }]);
        let sample = {
            let fs = NodeFs::new(&node);
            s.sample(&fs, SimTime::from_secs(1800), &[], &[])
        };
        let mem: Vec<_> = sample.devices_of(DeviceType::Mem).collect();
        assert_eq!(mem.len(), 1, "node0 absent, node1 intact");
        assert_eq!(mem[0].instance, "1");
        assert_eq!(s.degraded_reads(), 3);

        // Truncated mic stats: the cut leaves `user_sum` whole and loses
        // the two keys after it. The card is absent — reported as
        // `[user, 0, 0]` it would read downstream as two counters reset.
        node.set_read_faults(vec![ReadFault {
            prefix: "/sys/class/mic/mic0/stats".to_string(),
            mode: ReadFaultMode::Truncated,
        }]);
        let sample = {
            let fs = NodeFs::new(&node);
            assert!(fs
                .read("/sys/class/mic/mic0/stats")
                .is_some_and(|cut| cut.contains('\n') && !cut.contains("idle_sum")));
            s.sample(&fs, SimTime::from_secs(2100), &[], &[])
        };
        assert_eq!(sample.devices_of(DeviceType::Mic).count(), 0);
        assert_eq!(s.degraded_reads(), 4);

        // Truncated /proc/<pid>/status (loses the tail keys) or stat
        // (loses field 14): the process is absent from that sample, not
        // reported with zeros. Processes come and go, so they are not
        // part of the degradation inventory.
        for file in ["status", "stat"] {
            node.set_read_faults(vec![ReadFault {
                prefix: format!("/proc/{pid}/{file}"),
                mode: ReadFaultMode::Truncated,
            }]);
            let fs = NodeFs::new(&node);
            let sample = s.sample(&fs, SimTime::from_secs(2400), &[], &[]);
            assert!(sample.processes.is_empty(), "truncated {file}");
            assert_eq!(s.degraded_reads(), 4);
        }

        // Faults cleared: back to the full inventory, counter holds.
        node.set_read_faults(Vec::new());
        let fs = NodeFs::new(&node);
        let sample = s.sample(&fs, SimTime::from_secs(3000), &[], &[]);
        assert_eq!(sample.devices_of(DeviceType::Mem).count(), 2);
        assert_eq!(sample.devices_of(DeviceType::Mic).count(), 1);
        assert_eq!(sample.processes.len(), 1);
        assert_eq!(s.degraded_reads(), 4);
    }

    #[test]
    fn crashed_node_yields_empty_sample() {
        let mut node = SimNode::new("c401-0001", NodeTopology::stampede());
        let mut s = sampler_for(&node);
        node.crash();
        let fs = NodeFs::new(&node);
        let sample = s.sample(&fs, SimTime::from_secs(0), &[], &[]);
        assert!(sample.devices.is_empty());
        assert!(sample.processes.is_empty());
    }
}
