//! CPU architecture and node topology.
//!
//! §III-B of the paper: "TACC Stats has been modified to identify the
//! processor architecture and uncore devices automatically at runtime. It
//! also will detect the topology of a node and modify its collection
//! procedure appropriately for processors with and without hardware
//! threading."
//!
//! The simulated node therefore exposes what a real node exposes for that
//! purpose: a `/proc/cpuinfo`-style rendering carrying vendor, CPU
//! family/model numbers, and the sibling/core-id fields the collector uses
//! to detect hyperthreading. The collector (in `tacc-collect`) matches
//! family/model against the same tables Intel documents and the real
//! tacc_stats uses.

/// The processor microarchitectures the paper lists as newly supported
/// (§III-B: "Nehalem, Westmere, Ivy Bridge, and Haswell processors
/// including both the core counters ... and uncore counters"), plus Sandy
/// Bridge (Stampede's host processor) and Knights Corner (the Xeon Phi
/// coprocessor).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CpuArch {
    /// Intel Nehalem (family 6, model 0x1A).
    Nehalem,
    /// Intel Westmere (family 6, model 0x2C).
    Westmere,
    /// Intel Sandy Bridge EP (family 6, model 0x2D) — Stampede.
    SandyBridge,
    /// Intel Ivy Bridge EP (family 6, model 0x3E).
    IvyBridge,
    /// Intel Haswell EP (family 6, model 0x3F) — Lonestar 5.
    Haswell,
    /// Intel Knights Corner Xeon Phi coprocessor (family 11, model 1).
    KnightsCorner,
}

impl CpuArch {
    /// All host (non-coprocessor) architectures.
    pub const HOST_ARCHS: [CpuArch; 5] = [
        CpuArch::Nehalem,
        CpuArch::Westmere,
        CpuArch::SandyBridge,
        CpuArch::IvyBridge,
        CpuArch::Haswell,
    ];

    /// CPUID (family, model) pair, as it appears in `/proc/cpuinfo`.
    const fn family_model(self) -> (u32, u32) {
        match self {
            CpuArch::Nehalem => (6, 0x1A),
            CpuArch::Westmere => (6, 0x2C),
            CpuArch::SandyBridge => (6, 0x2D),
            CpuArch::IvyBridge => (6, 0x3E),
            CpuArch::Haswell => (6, 0x3F),
            CpuArch::KnightsCorner => (11, 0x01),
        }
    }

    /// Resolve an architecture from a CPUID (family, model) pair — the
    /// inverse of [`CpuArch::family_model`], used by the collector's
    /// auto-configuration.
    pub fn from_family_model(family: u32, model: u32) -> Option<CpuArch> {
        match (family, model) {
            (6, 0x1A) | (6, 0x1E) | (6, 0x1F) => Some(CpuArch::Nehalem),
            (6, 0x2C) | (6, 0x25) => Some(CpuArch::Westmere),
            (6, 0x2D) | (6, 0x2A) => Some(CpuArch::SandyBridge),
            (6, 0x3E) | (6, 0x3A) => Some(CpuArch::IvyBridge),
            (6, 0x3F) | (6, 0x3C) => Some(CpuArch::Haswell),
            (11, 0x01) => Some(CpuArch::KnightsCorner),
            _ => None,
        }
    }

    /// Human-readable name used in raw-stats headers.
    pub const fn name(self) -> &'static str {
        match self {
            CpuArch::Nehalem => "nehalem",
            CpuArch::Westmere => "westmere",
            CpuArch::SandyBridge => "sandybridge",
            CpuArch::IvyBridge => "ivybridge",
            CpuArch::Haswell => "haswell",
            CpuArch::KnightsCorner => "knightscorner",
        }
    }

    /// The `model name` string rendered into `/proc/cpuinfo`.
    const fn model_name(self) -> &'static str {
        match self {
            CpuArch::Nehalem => "Intel(R) Xeon(R) CPU X5550 @ 2.67GHz",
            CpuArch::Westmere => "Intel(R) Xeon(R) CPU X5680 @ 3.33GHz",
            CpuArch::SandyBridge => "Intel(R) Xeon(R) CPU E5-2680 0 @ 2.70GHz",
            CpuArch::IvyBridge => "Intel(R) Xeon(R) CPU E5-2680 v2 @ 2.80GHz",
            CpuArch::Haswell => "Intel(R) Xeon(R) CPU E5-2690 v3 @ 2.60GHz",
            CpuArch::KnightsCorner => "Intel(R) Xeon Phi(TM) coprocessor SE10P",
        }
    }

    /// Nominal core clock in Hz.
    pub const fn clock_hz(self) -> u64 {
        match self {
            CpuArch::Nehalem => 2_670_000_000,
            CpuArch::Westmere => 3_330_000_000,
            CpuArch::SandyBridge => 2_700_000_000,
            CpuArch::IvyBridge => 2_800_000_000,
            CpuArch::Haswell => 2_600_000_000,
            CpuArch::KnightsCorner => 1_100_000_000,
        }
    }

    /// Number of programmable core performance counters per hardware
    /// thread.
    pub const fn programmable_counters(self) -> usize {
        match self {
            CpuArch::Nehalem | CpuArch::Westmere => 4,
            CpuArch::SandyBridge | CpuArch::IvyBridge | CpuArch::Haswell => 8,
            CpuArch::KnightsCorner => 2,
        }
    }

    /// Double-precision FLOPs per maximally-vectorized FP instruction.
    pub const fn vector_width_flops(self) -> u64 {
        match self {
            CpuArch::Nehalem | CpuArch::Westmere => 2, // SSE2 128-bit
            CpuArch::SandyBridge | CpuArch::IvyBridge => 4, // AVX 256-bit
            CpuArch::Haswell => 4,                     // AVX2 (FMA counted as 1 inst)
            CpuArch::KnightsCorner => 8,               // 512-bit
        }
    }

    /// Whether RAPL energy counters are available (Sandy Bridge onwards).
    pub const fn has_rapl(self) -> bool {
        matches!(
            self,
            CpuArch::SandyBridge | CpuArch::IvyBridge | CpuArch::Haswell
        )
    }
}

/// Static description of a compute node's hardware layout.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeTopology {
    /// Host processor microarchitecture.
    pub arch: CpuArch,
    /// Number of processor sockets.
    pub sockets: usize,
    /// Physical cores per socket.
    pub cores_per_socket: usize,
    /// Hardware threads per core (1 = HT off, 2 = HT on).
    pub threads_per_core: usize,
    /// Installed physical memory in bytes.
    pub memory_bytes: u64,
    /// Whether an Infiniband HCA is present.
    pub has_infiniband: bool,
    /// Number of Xeon Phi (MIC) coprocessor cards.
    pub mic_cards: usize,
    /// Names of mounted Lustre filesystems (empty = no Lustre).
    pub lustre_filesystems: Vec<String>,
}

impl NodeTopology {
    /// A Stampede-like node: 2× Sandy Bridge E5-2680 (8 cores each, HT
    /// off), 32 GB RAM, FDR Infiniband, one Xeon Phi SE10P, and the
    /// `scratch` + `work` Lustre filesystems. This is the configuration
    /// behind every §V population number in the paper.
    pub fn stampede() -> Self {
        NodeTopology {
            arch: CpuArch::SandyBridge,
            sockets: 2,
            cores_per_socket: 8,
            threads_per_core: 1,
            memory_bytes: 32 * (1 << 30),
            has_infiniband: true,
            mic_cards: 1,
            lustre_filesystems: vec!["scratch".to_string(), "work".to_string()],
        }
    }

    /// A Lonestar 5-like Cray node: 2× Haswell E5-2690 v3 (12 cores each,
    /// HT on), 64 GB RAM, Aries interconnect modelled as IB-equivalent,
    /// `scratch` Lustre.
    pub fn lonestar5() -> Self {
        NodeTopology {
            arch: CpuArch::Haswell,
            sockets: 2,
            cores_per_socket: 12,
            threads_per_core: 2,
            memory_bytes: 64 * (1 << 30),
            has_infiniband: true,
            mic_cards: 0,
            lustre_filesystems: vec!["scratch".to_string()],
        }
    }

    /// A Stampede largemem node: 1 TB of RAM (the scarce resource §V-A's
    /// "largemem waste" flag protects), 4 sockets.
    pub fn stampede_largemem() -> Self {
        NodeTopology {
            arch: CpuArch::SandyBridge,
            sockets: 4,
            cores_per_socket: 8,
            threads_per_core: 1,
            memory_bytes: 1024 * (1 << 30),
            has_infiniband: true,
            mic_cards: 0,
            lustre_filesystems: vec!["scratch".to_string(), "work".to_string()],
        }
    }

    /// A Maverick-like node (the 132-node system where daemon mode was
    /// first tested): 2× Ivy Bridge, 256 GB, no Phi.
    pub fn maverick() -> Self {
        NodeTopology {
            arch: CpuArch::IvyBridge,
            sockets: 2,
            cores_per_socket: 10,
            threads_per_core: 1,
            memory_bytes: 256 * (1 << 30),
            has_infiniband: true,
            mic_cards: 0,
            lustre_filesystems: vec!["scratch".to_string()],
        }
    }

    /// Total physical cores.
    pub fn n_cores(&self) -> usize {
        self.sockets * self.cores_per_socket
    }

    /// Total hardware threads (logical CPUs, i.e. entries in
    /// `/proc/cpuinfo`).
    pub fn n_cpus(&self) -> usize {
        self.n_cores() * self.threads_per_core
    }

    /// Whether hardware threading is enabled.
    pub fn hyperthreading(&self) -> bool {
        self.threads_per_core > 1
    }

    /// Socket (package id) that logical CPU `cpu` belongs to.
    ///
    /// Logical CPUs are numbered the way Linux numbers them on these
    /// machines: CPUs `0..n_cores` are the first hardware thread of each
    /// core (socket-major), and CPUs `n_cores..2*n_cores` are the second
    /// hardware thread of the same cores.
    pub fn socket_of_cpu(&self, cpu: usize) -> usize {
        let core = self.core_of_cpu(cpu);
        core / self.cores_per_socket
    }

    /// Physical core id of logical CPU `cpu`.
    pub fn core_of_cpu(&self, cpu: usize) -> usize {
        cpu % self.n_cores()
    }

    /// Render a `/proc/cpuinfo`-style description, one stanza per logical
    /// CPU. This is what the collector's auto-configuration parses.
    pub fn render_cpuinfo(&self) -> String {
        let (family, model) = self.arch.family_model();
        let mut out = String::with_capacity(512 * self.n_cpus());
        for cpu in 0..self.n_cpus() {
            let core = self.core_of_cpu(cpu);
            let socket = self.socket_of_cpu(cpu);
            out.push_str(&format!(
                "processor\t: {cpu}\n\
                 vendor_id\t: GenuineIntel\n\
                 cpu family\t: {family}\n\
                 model\t\t: {model}\n\
                 model name\t: {}\n\
                 cpu MHz\t\t: {:.3}\n\
                 physical id\t: {socket}\n\
                 siblings\t: {}\n\
                 core id\t\t: {}\n\
                 cpu cores\t: {}\n\
                 \n",
                self.arch.model_name(),
                self.arch.clock_hz() as f64 / 1e6,
                self.cores_per_socket * self.threads_per_core,
                core % self.cores_per_socket,
                self.cores_per_socket,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_model_roundtrip() {
        for arch in CpuArch::HOST_ARCHS {
            let (f, m) = arch.family_model();
            assert_eq!(CpuArch::from_family_model(f, m), Some(arch));
        }
    }

    #[test]
    fn unknown_family_model_is_none() {
        assert_eq!(CpuArch::from_family_model(6, 0x99), None);
        assert_eq!(CpuArch::from_family_model(15, 2), None);
    }

    #[test]
    fn stampede_topology_counts() {
        let t = NodeTopology::stampede();
        assert_eq!(t.n_cores(), 16);
        assert_eq!(t.n_cpus(), 16);
        assert!(!t.hyperthreading());
        assert_eq!(t.memory_bytes, 34_359_738_368);
    }

    #[test]
    fn lonestar5_hyperthreaded_numbering() {
        let t = NodeTopology::lonestar5();
        assert_eq!(t.n_cores(), 24);
        assert_eq!(t.n_cpus(), 48);
        assert!(t.hyperthreading());
        // First HT sibling of core 0 is CPU 24.
        assert_eq!(t.core_of_cpu(24), 0);
        assert_eq!(t.socket_of_cpu(0), 0);
        assert_eq!(t.socket_of_cpu(12), 1);
        assert_eq!(t.socket_of_cpu(36), 1);
    }

    #[test]
    fn cpuinfo_renders_every_cpu() {
        let t = NodeTopology::stampede();
        let s = t.render_cpuinfo();
        assert_eq!(s.matches("processor\t:").count(), 16);
        assert!(s.contains("cpu family\t: 6"));
        assert!(s.contains("model\t\t: 45")); // 0x2D
        assert!(s.contains("GenuineIntel"));
    }

    #[test]
    fn arch_capabilities() {
        assert!(!CpuArch::Nehalem.has_rapl());
        assert!(CpuArch::Haswell.has_rapl());
    }
}
