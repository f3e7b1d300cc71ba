//! The metric set of Table I.

use std::collections::BTreeMap;
use std::fmt;
use tacc_simnode::schema::DeviceType;

/// Defines [`MetricId`], [`MetricId::ALL`], and [`MetricId::COUNT`] from
/// a single variant list. The enum and its registry share one token
/// list, so a metric cannot be added without being registered: leaving a
/// variant out of the list removes it from the enum itself, and every
/// `match self` in this module then fails to compile until the new
/// variant is wired through `label`/`definition`/`group`/`unit`/`events`.
macro_rules! define_metric_ids {
    ($($variant:ident),+ $(,)?) => {
        /// Every metric of Table I, in table order.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[allow(missing_docs)] // each variant is documented by `definition()`
        pub enum MetricId {
            $($variant),+
        }

        impl MetricId {
            /// Number of metrics (enum variants).
            pub const COUNT: usize = [$(MetricId::$variant),+].len();

            /// All metrics in Table I order.
            pub const ALL: [MetricId; MetricId::COUNT] = [$(MetricId::$variant),+];
        }
    };
}

define_metric_ids! {
    // Lustre
    MetaDataRate,
    MDCReqs,
    OSCReqs,
    MDCWait,
    OSCWait,
    LLiteOpenClose,
    LnetAveBW,
    LnetMaxBW,
    // Network
    InternodeIBAveBW,
    InternodeIBMaxBW,
    Packetsize,
    Packetrate,
    GigEBW,
    // Processor
    LoadAll,
    LoadL1Hits,
    LoadL2Hits,
    LoadLLCHits,
    Cpi,
    Cpld,
    Flops,
    VecPercent,
    Mbw,
    // OS
    MemUsage,
    CpuUsage,
    Idle,
    Catastrophe,
    MicUsage,
}

// Compile-time exhaustiveness guard: `ALL` holds every variant exactly
// once, in declaration order. Both halves are generated from the same
// macro list, so this can only fire if the macro itself regresses — but
// it keeps the invariant machine-checked rather than assumed.
const _: () = {
    assert!(MetricId::ALL.len() == MetricId::COUNT);
    let mut i = 0;
    while i < MetricId::ALL.len() {
        assert!(MetricId::ALL[i] as usize == i);
        i += 1;
    }
};

impl MetricId {
    /// The label used in Table I (and as the portal's search-field /
    /// database column name).
    pub fn label(self) -> &'static str {
        match self {
            MetricId::MetaDataRate => "MetaDataRate",
            MetricId::MDCReqs => "MDCReqs",
            MetricId::OSCReqs => "OSCReqs",
            MetricId::MDCWait => "MDCWait",
            MetricId::OSCWait => "OSCWait",
            MetricId::LLiteOpenClose => "LLiteOpenClose",
            MetricId::LnetAveBW => "LnetAveBW",
            MetricId::LnetMaxBW => "LnetMaxBW",
            MetricId::InternodeIBAveBW => "InternodeIBAveBW",
            MetricId::InternodeIBMaxBW => "InternodeIBMaxBW",
            MetricId::Packetsize => "Packetsize",
            MetricId::Packetrate => "Packetrate",
            MetricId::GigEBW => "GigEBW",
            MetricId::LoadAll => "Load_All",
            MetricId::LoadL1Hits => "Load_L1Hits",
            MetricId::LoadL2Hits => "Load_L2Hits",
            MetricId::LoadLLCHits => "Load_LLCHits",
            MetricId::Cpi => "cpi",
            MetricId::Cpld => "cpld",
            MetricId::Flops => "flops",
            MetricId::VecPercent => "VecPercent",
            MetricId::Mbw => "mbw",
            MetricId::MemUsage => "MemUsage",
            MetricId::CpuUsage => "CPU_Usage",
            MetricId::Idle => "idle",
            MetricId::Catastrophe => "catastrophe",
            MetricId::MicUsage => "MIC_Usage",
        }
    }

    /// The definition column of Table I.
    fn definition(self) -> &'static str {
        match self {
            MetricId::MetaDataRate => "Maximum Metadata server operation rate",
            MetricId::MDCReqs => "Average Metadata server operation rate",
            MetricId::OSCReqs => "Average Object Storage server operation rate",
            MetricId::MDCWait => "Average time required to complete Metadata server operations",
            MetricId::OSCWait => {
                "Average time required to complete Object storage server operations"
            }
            MetricId::LLiteOpenClose => "Average file open/close rate",
            MetricId::LnetAveBW => "Average Lustre bandwidth",
            MetricId::LnetMaxBW => "Maximum Lustre bandwidth",
            MetricId::InternodeIBAveBW => {
                "Average Infiniband Bandwidth between compute nodes (typically MPI)"
            }
            MetricId::InternodeIBMaxBW => {
                "Maximum Infiniband Bandwidth between compute nodes (typically MPI)"
            }
            MetricId::Packetsize => "Average Infiniband Package Size",
            MetricId::Packetrate => "Average Infiniband Package Rate",
            MetricId::GigEBW => "Average Bandwidth over the GigE network",
            MetricId::LoadAll => "Average Cache load rate from any cache level",
            MetricId::LoadL1Hits => "Average L1 cache hit rate",
            MetricId::LoadL2Hits => "Average L2 cache hit rate",
            MetricId::LoadLLCHits => "Average Last-level cache hit rate",
            MetricId::Cpi => "Average Ratio of Cycles to Instructions",
            MetricId::Cpld => "Average Ratio of Cycles to L1 data cache loads",
            MetricId::Flops => "Average FLOPs",
            MetricId::VecPercent => "Ratio of vectorized versus unvectorized instructions",
            MetricId::Mbw => "Average Memory bandwidth",
            MetricId::MemUsage => "Maximum memory usage",
            MetricId::CpuUsage => "Average CPU utilization",
            MetricId::Idle => "Ratio of maximum to minimum CPU_Usage over nodes",
            MetricId::Catastrophe => "Ratio of maximum to minimum CPU_Usage over time",
            MetricId::MicUsage => "Average CPU Utilization of the Intel Xeon Phi Coprocessor",
        }
    }

    /// The Table I group this metric belongs to.
    fn group(self) -> &'static str {
        match self {
            MetricId::MetaDataRate
            | MetricId::MDCReqs
            | MetricId::OSCReqs
            | MetricId::MDCWait
            | MetricId::OSCWait
            | MetricId::LLiteOpenClose
            | MetricId::LnetAveBW
            | MetricId::LnetMaxBW => "Lustre Metrics",
            MetricId::InternodeIBAveBW
            | MetricId::InternodeIBMaxBW
            | MetricId::Packetsize
            | MetricId::Packetrate
            | MetricId::GigEBW => "Network Metrics",
            MetricId::LoadAll
            | MetricId::LoadL1Hits
            | MetricId::LoadL2Hits
            | MetricId::LoadLLCHits
            | MetricId::Cpi
            | MetricId::Cpld
            | MetricId::Flops
            | MetricId::VecPercent
            | MetricId::Mbw => "Processor Metrics",
            MetricId::MemUsage
            | MetricId::CpuUsage
            | MetricId::Idle
            | MetricId::Catastrophe
            | MetricId::MicUsage => "OS Metrics",
        }
    }

    /// Unit string for report rendering.
    pub fn unit(self) -> &'static str {
        match self {
            MetricId::MetaDataRate | MetricId::MDCReqs | MetricId::OSCReqs => "req/s",
            MetricId::MDCWait | MetricId::OSCWait => "us/req",
            MetricId::LLiteOpenClose => "ops/s",
            MetricId::LnetAveBW
            | MetricId::LnetMaxBW
            | MetricId::InternodeIBAveBW
            | MetricId::InternodeIBMaxBW
            | MetricId::GigEBW
            | MetricId::Mbw => "MB/s",
            MetricId::Packetsize => "B",
            MetricId::Packetrate => "pkt/s",
            MetricId::LoadAll
            | MetricId::LoadL1Hits
            | MetricId::LoadL2Hits
            | MetricId::LoadLLCHits => "loads/s",
            MetricId::Cpi | MetricId::Cpld => "ratio",
            MetricId::Flops => "GF/s",
            MetricId::VecPercent => "%",
            MetricId::MemUsage => "GB",
            MetricId::CpuUsage | MetricId::Idle | MetricId::Catastrophe | MetricId::MicUsage => {
                "fraction"
            }
        }
    }

    /// The device-schema events this metric consumes, as
    /// `(device type, event name)` pairs.
    ///
    /// This is the machine-readable half of the Table I "definition"
    /// column: the accumulator ([`crate::accum`]) reads exactly these
    /// events, and `cargo xtask lint` cross-references every pair
    /// against the device schemas in `tacc_simnode::schema` so a metric
    /// definition cannot silently drift away from what the collector
    /// actually records.
    pub fn events(self) -> &'static [(DeviceType, &'static str)] {
        use DeviceType as D;
        const CPUSTAT_ALL: &[(DeviceType, &str)] = &[
            (D::Cpustat, "user"),
            (D::Cpustat, "nice"),
            (D::Cpustat, "system"),
            (D::Cpustat, "idle"),
            (D::Cpustat, "iowait"),
        ];
        match self {
            MetricId::MetaDataRate | MetricId::MDCReqs => &[(D::Mdc, "reqs")],
            MetricId::OSCReqs => &[(D::Osc, "reqs")],
            MetricId::MDCWait => &[(D::Mdc, "wait"), (D::Mdc, "reqs")],
            MetricId::OSCWait => &[(D::Osc, "wait"), (D::Osc, "reqs")],
            MetricId::LLiteOpenClose => &[(D::Llite, "open"), (D::Llite, "close")],
            MetricId::LnetAveBW | MetricId::LnetMaxBW => {
                &[(D::Lnet, "tx_bytes"), (D::Lnet, "rx_bytes")]
            }
            MetricId::InternodeIBAveBW | MetricId::InternodeIBMaxBW => {
                &[(D::Ib, "port_xmit_data"), (D::Ib, "port_rcv_data")]
            }
            MetricId::Packetsize => &[
                (D::Ib, "port_xmit_data"),
                (D::Ib, "port_rcv_data"),
                (D::Ib, "port_xmit_pkts"),
                (D::Ib, "port_rcv_pkts"),
            ],
            MetricId::Packetrate => &[(D::Ib, "port_xmit_pkts"), (D::Ib, "port_rcv_pkts")],
            MetricId::GigEBW => &[(D::Net, "rx_bytes"), (D::Net, "tx_bytes")],
            MetricId::LoadAll => &[(D::Cpu, "LOAD_ALL")],
            MetricId::LoadL1Hits => &[(D::Cpu, "LOAD_L1_HIT")],
            MetricId::LoadL2Hits => &[(D::Cpu, "LOAD_L2_HIT")],
            MetricId::LoadLLCHits => &[(D::Cpu, "LOAD_LLC_HIT")],
            MetricId::Cpi => &[(D::Cpu, "FIXED_CTR1"), (D::Cpu, "FIXED_CTR0")],
            MetricId::Cpld => &[(D::Cpu, "FIXED_CTR1"), (D::Cpu, "LOAD_ALL")],
            MetricId::Flops | MetricId::VecPercent => {
                &[(D::Cpu, "FP_SCALAR"), (D::Cpu, "FP_VECTOR")]
            }
            MetricId::Mbw => &[(D::Imc, "CAS_READS"), (D::Imc, "CAS_WRITES")],
            MetricId::MemUsage => &[(D::Mem, "MemUsed")],
            MetricId::CpuUsage | MetricId::Idle | MetricId::Catastrophe => CPUSTAT_ALL,
            MetricId::MicUsage => &[
                (D::Mic, "user_sum"),
                (D::Mic, "sys_sum"),
                (D::Mic, "idle_sum"),
            ],
        }
    }
}

impl fmt::Display for MetricId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Direction of a catastrophic CPU-usage change over a job's lifetime.
///
/// §V-A: "Sudden performance increases suggest a job that consists of a
/// compilation step before it runs, while sudden drops indicate
/// application failure."
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrendDirection {
    /// The weak window came first: activity rose (compile-then-run).
    Rise,
    /// The weak window came last: activity collapsed (failure).
    Drop,
}

/// Computed metric values for one job. Missing hardware (no Phi, no
/// Lustre, no IB) leaves the corresponding metrics absent.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JobMetrics {
    values: BTreeMap<MetricId, f64>,
    /// Direction of the catastrophe (set alongside [`MetricId::Catastrophe`]
    /// when the min/max windows are distinguishable).
    pub trend: Option<TrendDirection>,
}

impl JobMetrics {
    /// New empty set.
    pub fn new() -> JobMetrics {
        JobMetrics::default()
    }

    /// Set a metric.
    pub fn set(&mut self, id: MetricId, v: f64) {
        if v.is_finite() {
            self.values.insert(id, v);
        }
    }

    /// Get a metric.
    pub fn get(&self, id: MetricId) -> Option<f64> {
        self.values.get(&id).copied()
    }

    /// All present metrics.
    pub fn iter(&self) -> impl Iterator<Item = (MetricId, f64)> + '_ {
        self.values.iter().map(|(k, v)| (*k, *v))
    }

    /// Number of present metrics.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no metrics present.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Render as a Table I-shaped text table (label, value, unit,
    /// definition), grouped like the paper.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let mut group = "";
        for id in MetricId::ALL {
            if id.group() != group {
                group = id.group();
                out.push_str(&format!("== {group} ==\n"));
            }
            match self.get(id) {
                Some(v) => out.push_str(&format!(
                    "{:<18} {:>14.4} {:<8} {}\n",
                    id.label(),
                    v,
                    id.unit(),
                    id.definition()
                )),
                None => out.push_str(&format!(
                    "{:<18} {:>14} {:<8} {}\n",
                    id.label(),
                    "-",
                    id.unit(),
                    id.definition()
                )),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_has_27_metrics_in_4_groups() {
        assert_eq!(MetricId::ALL.len(), 27);
        assert_eq!(MetricId::COUNT, 27);
        let groups: std::collections::BTreeSet<&str> =
            MetricId::ALL.iter().map(|m| m.group()).collect();
        assert_eq!(groups.len(), 4);
    }

    #[test]
    fn every_metric_consumes_known_schema_events() {
        use tacc_simnode::topology::CpuArch;
        let arches = [CpuArch::Nehalem, CpuArch::SandyBridge, CpuArch::Haswell];
        for m in MetricId::ALL {
            let events = m.events();
            assert!(!events.is_empty(), "{m} consumes no events");
            for (dev, name) in events {
                assert!(
                    arches
                        .iter()
                        .any(|&a| dev.schema(a).index_of(name).is_some()),
                    "{m} references {dev}/{name}, absent from every arch schema"
                );
            }
        }
    }

    #[test]
    fn set_get_and_render() {
        let mut m = JobMetrics::new();
        m.set(MetricId::CpuUsage, 0.8);
        m.set(MetricId::MetaDataRate, f64::NAN); // ignored
        assert_eq!(m.get(MetricId::CpuUsage), Some(0.8));
        assert_eq!(m.get(MetricId::MetaDataRate), None);
        assert_eq!(m.len(), 1);
        let table = m.render_table();
        assert!(table.contains("CPU_Usage"));
        assert!(table.contains("== Lustre Metrics =="));
        assert!(table.contains("== OS Metrics =="));
    }
}
