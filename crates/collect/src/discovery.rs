//! Runtime auto-configuration (§III-B).
//!
//! "TACC Stats has been modified to identify the processor architecture
//! and uncore devices automatically at runtime. It also will detect the
//! topology of a node and modify its collection procedure appropriately
//! for processors with and without hardware threading. Currently only 3
//! hardware configuration options for a given system are specified at
//! build time: whether Infiniband is supported, whether a Xeon Phi
//! coprocessor is present on a node, and whether a Lustre filesystem is
//! present."
//!
//! [`discover`] parses `/proc/cpuinfo` (vendor, family, model, physical
//! id, siblings, core id) to identify the architecture and topology, then
//! probes for optional hardware gated by the three [`BuildOptions`].
//! [`build_collectors`] turns the result into a concrete collector set.

use crate::collectors::{
    Collector, CpuCollector, CpustatCollector, IbCollector, LliteCollector, LnetCollector,
    MdcCollector, MemCollector, MicCollector, NetCollector, OscCollector, RaplCollector,
    UncoreCollector,
};
use crate::record::HostHeader;
use std::collections::{BTreeMap, BTreeSet};
use tacc_simnode::intern::Sym;
use tacc_simnode::node::UncoreDev;
use tacc_simnode::pseudofs::NodeFs;
use tacc_simnode::schema::DeviceType;
use tacc_simnode::topology::CpuArch;

/// The three build-time options of §III-B. Disabling one means the
/// corresponding dependency is never probed, even if the hardware exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BuildOptions {
    /// Look for Infiniband HCAs.
    pub infiniband: bool,
    /// Look for Xeon Phi coprocessors.
    pub xeon_phi: bool,
    /// Look for Lustre filesystems.
    pub lustre: bool,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            infiniband: true,
            xeon_phi: true,
            lustre: true,
        }
    }
}

/// What discovery learned about a node.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeConfig {
    /// Detected microarchitecture.
    pub arch: CpuArch,
    /// Logical CPUs found in `/proc/cpuinfo`.
    pub n_cpus: usize,
    /// Distinct sockets (physical ids).
    pub sockets: usize,
    /// Whether hardware threading is on (siblings > cpu cores).
    pub hyperthreading: bool,
    /// NUMA memory nodes found.
    pub numa_nodes: usize,
    /// Infiniband HCAs found (empty if none or not built in).
    pub ib_hcas: Vec<String>,
    /// Lustre filesystems found.
    pub lustre_fs: Vec<String>,
    /// Xeon Phi cards found.
    pub mic_cards: Vec<String>,
}

/// Error from [`discover`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DiscoveryError {
    /// `/proc/cpuinfo` unreadable (node down).
    CpuinfoUnreadable,
    /// Vendor/family/model did not match any supported architecture.
    UnsupportedCpu {
        /// CPUID family.
        family: u32,
        /// CPUID model.
        model: u32,
    },
}

impl std::fmt::Display for DiscoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiscoveryError::CpuinfoUnreadable => write!(f, "/proc/cpuinfo unreadable"),
            DiscoveryError::UnsupportedCpu { family, model } => {
                write!(f, "unsupported CPU family {family} model {model}")
            }
        }
    }
}

impl std::error::Error for DiscoveryError {}

/// Identify architecture, topology, and optional hardware.
pub fn discover(fs: &NodeFs<'_>, opts: BuildOptions) -> Result<NodeConfig, DiscoveryError> {
    let cpuinfo = fs
        .read("/proc/cpuinfo")
        .ok_or(DiscoveryError::CpuinfoUnreadable)?;
    let mut n_cpus = 0usize;
    let mut family = 0u32;
    let mut model = 0u32;
    let mut physical_ids: BTreeSet<u32> = BTreeSet::new();
    let mut siblings = 1u32;
    let mut cpu_cores = 1u32;
    for line in cpuinfo.lines() {
        let Some((key, val)) = line.split_once(':') else {
            continue;
        };
        let key = key.trim();
        let val = val.trim();
        match key {
            "processor" => n_cpus += 1,
            "cpu family" => family = val.parse().unwrap_or(0),
            "model" => model = val.parse().unwrap_or(0),
            "physical id" => {
                if let Ok(id) = val.parse() {
                    physical_ids.insert(id);
                }
            }
            "siblings" => siblings = val.parse().unwrap_or(1),
            "cpu cores" => cpu_cores = val.parse().unwrap_or(1),
            _ => {}
        }
    }
    let arch = CpuArch::from_family_model(family, model)
        .ok_or(DiscoveryError::UnsupportedCpu { family, model })?;
    let numa_nodes = fs.list("/sys/devices/system/node").len();
    let ib_hcas = if opts.infiniband {
        fs.list("/sys/class/infiniband")
    } else {
        Vec::new()
    };
    let lustre_fs = if opts.lustre {
        fs.list("/proc/fs/lustre/llite")
            .into_iter()
            .map(|d| d.split('-').next().unwrap_or(&d).to_string())
            .collect()
    } else {
        Vec::new()
    };
    let mic_cards = if opts.xeon_phi {
        fs.list("/sys/class/mic")
    } else {
        Vec::new()
    };
    Ok(NodeConfig {
        arch,
        n_cpus,
        sockets: physical_ids.len().max(1),
        hyperthreading: siblings > cpu_cores,
        numa_nodes,
        ib_hcas,
        lustre_fs,
        mic_cards,
    })
}

impl NodeConfig {
    /// Device types this configuration will collect.
    pub fn device_types(&self) -> Vec<DeviceType> {
        let mut v = vec![
            DeviceType::Cpu,
            DeviceType::Imc,
            DeviceType::Qpi,
            DeviceType::Cbo,
            DeviceType::Cpustat,
            DeviceType::Mem,
            DeviceType::Net,
            DeviceType::Ps,
        ];
        if self.arch.has_rapl() {
            v.push(DeviceType::Rapl);
        }
        if !self.ib_hcas.is_empty() {
            v.push(DeviceType::Ib);
        }
        if !self.lustre_fs.is_empty() {
            v.extend([
                DeviceType::Llite,
                DeviceType::Mdc,
                DeviceType::Osc,
                DeviceType::Lnet,
            ]);
        }
        if !self.mic_cards.is_empty() {
            v.push(DeviceType::Mic);
        }
        v.sort();
        v
    }

    /// Build the raw-file header for this host.
    pub fn header(&self, hostname: &str) -> HostHeader {
        let schemas: BTreeMap<DeviceType, _> = self
            .device_types()
            .into_iter()
            .map(|dt| (dt, dt.schema(self.arch)))
            .collect();
        HostHeader {
            hostname: Sym::new(hostname),
            arch: self.arch,
            schemas,
        }
    }
}

/// Build the concrete collector set for a configuration.
pub fn build_collectors(cfg: &NodeConfig) -> Vec<Box<dyn Collector>> {
    let mut v: Vec<Box<dyn Collector>> = vec![Box::new(CpuCollector::new(cfg.n_cpus, cfg.arch))];
    v.push(Box::new(UncoreCollector::new(
        UncoreDev::Imc,
        cfg.sockets,
        cfg.arch,
    )));
    v.push(Box::new(UncoreCollector::new(
        UncoreDev::Qpi,
        cfg.sockets,
        cfg.arch,
    )));
    v.push(Box::new(UncoreCollector::new(
        UncoreDev::Cbo,
        cfg.sockets,
        cfg.arch,
    )));
    if cfg.arch.has_rapl() {
        v.push(Box::new(RaplCollector::new(
            cfg.sockets,
            cfg.n_cpus / cfg.sockets.max(1),
        )));
    }
    v.push(Box::new(CpustatCollector));
    v.push(Box::new(MemCollector::new(cfg.numa_nodes)));
    v.push(Box::new(NetCollector));
    if !cfg.ib_hcas.is_empty() {
        v.push(Box::new(IbCollector::new(&cfg.ib_hcas)));
    }
    if !cfg.lustre_fs.is_empty() {
        v.push(Box::new(LliteCollector));
        v.push(Box::new(MdcCollector));
        v.push(Box::new(OscCollector));
        v.push(Box::new(LnetCollector));
    }
    if !cfg.mic_cards.is_empty() {
        v.push(Box::new(MicCollector::new(&cfg.mic_cards)));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacc_simnode::topology::NodeTopology;
    use tacc_simnode::SimNode;

    #[test]
    fn discovers_stampede_node() {
        let n = SimNode::new("c401-0001", NodeTopology::stampede());
        let fs = NodeFs::new(&n);
        let cfg = discover(&fs, BuildOptions::default()).unwrap();
        assert_eq!(cfg.arch, CpuArch::SandyBridge);
        assert_eq!(cfg.n_cpus, 16);
        assert_eq!(cfg.sockets, 2);
        assert!(!cfg.hyperthreading);
        assert_eq!(cfg.numa_nodes, 2);
        assert_eq!(cfg.ib_hcas, vec!["mlx4_0"]);
        assert_eq!(cfg.lustre_fs, vec!["scratch", "work"]);
        assert_eq!(cfg.mic_cards, vec!["mic0"]);
        assert!(cfg.device_types().contains(&DeviceType::Rapl));
    }

    #[test]
    fn discovers_lonestar5_hyperthreading() {
        let n = SimNode::new("nid00001", NodeTopology::lonestar5());
        let fs = NodeFs::new(&n);
        let cfg = discover(&fs, BuildOptions::default()).unwrap();
        assert_eq!(cfg.arch, CpuArch::Haswell);
        assert_eq!(cfg.n_cpus, 48);
        assert!(cfg.hyperthreading);
        assert!(cfg.mic_cards.is_empty());
    }

    #[test]
    fn build_options_gate_probing() {
        let n = SimNode::new("c401-0001", NodeTopology::stampede());
        let fs = NodeFs::new(&n);
        let cfg = discover(
            &fs,
            BuildOptions {
                infiniband: false,
                xeon_phi: false,
                lustre: false,
            },
        )
        .unwrap();
        assert!(cfg.ib_hcas.is_empty());
        assert!(cfg.lustre_fs.is_empty());
        assert!(cfg.mic_cards.is_empty());
        let dts = cfg.device_types();
        assert!(!dts.contains(&DeviceType::Ib));
        assert!(!dts.contains(&DeviceType::Llite));
        assert!(!dts.contains(&DeviceType::Mic));
        // Core devices still collected.
        assert!(dts.contains(&DeviceType::Cpu));
    }

    #[test]
    fn options_enabled_but_hardware_absent_is_fine() {
        // §III-B: options only matter at compile time; a node without the
        // hardware still runs successfully.
        let topo = NodeTopology {
            has_infiniband: false,
            mic_cards: 0,
            lustre_filesystems: vec![],
            ..NodeTopology::stampede()
        };
        let n = SimNode::new("bare", topo);
        let fs = NodeFs::new(&n);
        let cfg = discover(&fs, BuildOptions::default()).unwrap();
        assert!(cfg.ib_hcas.is_empty());
        assert!(cfg.lustre_fs.is_empty());
        let collectors = build_collectors(&cfg);
        for c in &collectors {
            let _ = c.collect(&fs); // must not panic
        }
    }

    #[test]
    fn nehalem_has_no_rapl_or_pci_uncore_events() {
        let topo = NodeTopology {
            arch: CpuArch::Nehalem,
            sockets: 2,
            cores_per_socket: 4,
            threads_per_core: 2,
            memory_bytes: 24 * (1 << 30),
            has_infiniband: true,
            mic_cards: 0,
            lustre_filesystems: vec!["scratch".to_string()],
        };
        let n = SimNode::new("r101", topo);
        let fs = NodeFs::new(&n);
        let cfg = discover(&fs, BuildOptions::default()).unwrap();
        assert_eq!(cfg.arch, CpuArch::Nehalem);
        assert!(cfg.hyperthreading);
        assert!(!cfg.device_types().contains(&DeviceType::Rapl));
    }

    #[test]
    fn crashed_node_discovery_fails_cleanly() {
        let mut n = SimNode::new("c401-0001", NodeTopology::stampede());
        n.crash();
        let fs = NodeFs::new(&n);
        assert_eq!(
            discover(&fs, BuildOptions::default()),
            Err(DiscoveryError::CpuinfoUnreadable)
        );
    }

    #[test]
    fn header_contains_all_schemas() {
        let n = SimNode::new("c401-0001", NodeTopology::stampede());
        let fs = NodeFs::new(&n);
        let cfg = discover(&fs, BuildOptions::default()).unwrap();
        let h = cfg.header("c401-0001");
        assert_eq!(h.hostname, "c401-0001");
        assert_eq!(h.schemas.len(), cfg.device_types().len());
        assert!(h.schemas.contains_key(&DeviceType::Ps));
    }
}
