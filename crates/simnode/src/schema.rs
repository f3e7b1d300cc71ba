//! Device types and event schemas.
//!
//! tacc_stats organizes everything it collects into *device types* (cpu,
//! imc, ib, llite, …), each with a fixed *schema*: an ordered list of named
//! events with units and register widths. Raw stats files carry the schema
//! in their header (lines starting with `!`), and every later record line
//! is a vector of values in schema order. This module is the shared
//! vocabulary: the simulated devices populate values in schema order, and
//! the collector parses/serializes against the same schemas.
//!
//! The set of device types mirrors §III-B of the paper: core MSR counters,
//! uncore (IMC / QPI / CBo) counters from PCI config space, RAPL energy,
//! Xeon Phi, procfs process data, plus the devices supported since 2013
//! (CPU time accounting, memory, Infiniband, Ethernet, Lustre llite / MDC /
//! OSC / lnet).

use crate::intern::{Sym, SymbolTable};
use std::fmt;

/// Unit attached to an event, used when converting counter deltas into
/// the rates of Table I.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Unit {
    /// Dimensionless event count.
    Events,
    /// Bytes.
    Bytes,
    /// Kibibytes (procfs memory fields).
    KiB,
    /// 4-byte words (Infiniband `port_*_data` counters count 32-bit words).
    Words4,
    /// CPU scheduler ticks (USER_HZ = 100 jiffies per second).
    Jiffies,
    /// Microseconds.
    Micros,
    /// RAPL energy units (2^-14 J ≈ 61 µJ each).
    EnergyUnits,
    /// Core clock cycles.
    Cycles,
    /// Instructions retired.
    Instructions,
    /// Floating point operations.
    Flops,
}

impl Unit {
    /// Multiplier converting one unit into its SI base (bytes, seconds,
    /// joules, or plain counts).
    pub fn to_base(self) -> f64 {
        match self {
            Unit::Events | Unit::Cycles | Unit::Instructions | Unit::Flops => 1.0,
            Unit::Bytes => 1.0,
            Unit::KiB => 1024.0,
            Unit::Words4 => 4.0,
            Unit::Jiffies => 0.01,
            Unit::Micros => 1e-6,
            Unit::EnergyUnits => 1.0 / 16384.0,
        }
    }

    /// Short name used in schema lines.
    pub fn label(self) -> &'static str {
        match self {
            Unit::Events => "E",
            Unit::Bytes => "B",
            Unit::KiB => "KB",
            Unit::Words4 => "W4",
            Unit::Jiffies => "CS",
            Unit::Micros => "US",
            Unit::EnergyUnits => "EU",
            Unit::Cycles => "C",
            Unit::Instructions => "I",
            Unit::Flops => "F",
        }
    }

    /// Parse a schema-line unit label.
    pub fn parse(s: &str) -> Option<Unit> {
        Some(match s {
            "E" => Unit::Events,
            "B" => Unit::Bytes,
            "KB" => Unit::KiB,
            "W4" => Unit::Words4,
            "CS" => Unit::Jiffies,
            "US" => Unit::Micros,
            "EU" => Unit::EnergyUnits,
            "C" => Unit::Cycles,
            "I" => Unit::Instructions,
            "F" => Unit::Flops,
            _ => return None,
        })
    }
}

/// How an event's value behaves over time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Monotonically increasing register of a given bit width. Deltas are
    /// meaningful; rollover must be corrected by width.
    Counter,
    /// Instantaneous snapshot (e.g. `MemUsed`). §IV-A: "All counters used
    /// to compute the metrics in Table I, aside from those used to derive
    /// MemUsage, are cumulative."
    Gauge,
}

/// A single event in a device schema.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventDesc {
    /// Event name, e.g. `FIXED_CTR0` or `port_xmit_data` — interned:
    /// the same few hundred names label every schema of every host, so
    /// parsing or cloning a schema never copies them.
    pub name: Sym,
    /// Unit of the value.
    pub unit: Unit,
    /// Counter vs gauge.
    pub kind: EventKind,
    /// Register width in bits (64 for procfs-style values).
    pub width: u32,
}

impl EventDesc {
    /// Cumulative counter event.
    pub fn counter(name: &str, unit: Unit, width: u32) -> Self {
        EventDesc {
            name: Sym::new(name),
            unit,
            kind: EventKind::Counter,
            width,
        }
    }

    /// Gauge (snapshot) event.
    fn gauge(name: &str, unit: Unit) -> Self {
        EventDesc {
            name: Sym::new(name),
            unit,
            kind: EventKind::Gauge,
            width: 64,
        }
    }
}

/// An ordered set of events for one device type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schema {
    /// Events, in the order values appear in record lines.
    pub events: Vec<EventDesc>,
}

impl Schema {
    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the schema has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Index of an event by name: one intern-table lookup, then id
    /// compares. Every event name was interned when its schema was
    /// built, so text the table has never seen names no event.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        let sym = SymbolTable::global().get(name)?;
        self.events.iter().position(|e| e.name == sym)
    }

    /// Render the schema as a raw-stats header payload:
    /// `name,unit,kind,width name,unit,kind,width …`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            let kind = match e.kind {
                EventKind::Counter => "C",
                EventKind::Gauge => "G",
            };
            out.push_str(&format!(
                "{},{},{},{}",
                e.name,
                e.unit.label(),
                kind,
                e.width
            ));
        }
        out
    }

    /// Parse a schema rendered by [`Schema::render`].
    pub fn parse(s: &str) -> Option<Schema> {
        // Pre-count tokens so `events` is sized in one allocation; the
        // second pass over the line is cheaper than realloc doubling.
        let mut events = Vec::with_capacity(s.split_whitespace().count());
        for tok in s.split_whitespace() {
            let mut parts = tok.split(',');
            let name = parts.next()?;
            let unit = Unit::parse(parts.next()?)?;
            let kind = match parts.next()? {
                "C" => EventKind::Counter,
                "G" => EventKind::Gauge,
                _ => return None,
            };
            let width: u32 = parts.next()?.parse().ok()?;
            if parts.next().is_some() || name.is_empty() {
                return None;
            }
            events.push(EventDesc {
                name: Sym::new(name),
                unit,
                kind,
                width,
            });
        }
        Some(Schema { events })
    }
}

/// The device types TACC Stats monitors (§III-B plus Table I of Ref. [3]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DeviceType {
    /// Core hardware counters per logical CPU (fixed + programmable MSRs).
    Cpu,
    /// Integrated memory controller (uncore, per socket).
    Imc,
    /// QPI link layer (uncore, per socket).
    Qpi,
    /// Last-level-cache coherence boxes (uncore, per socket, aggregated).
    Cbo,
    /// Running-average-power-limit energy counters (per socket).
    Rapl,
    /// CPU time accounting from `/proc/stat` (per logical CPU).
    Cpustat,
    /// Node memory from `/proc/meminfo` (per NUMA node).
    Mem,
    /// Infiniband HCA port counters.
    Ib,
    /// Ethernet device counters from `/proc/net/dev`.
    Net,
    /// Lustre client (llite) per-filesystem statistics.
    Llite,
    /// Lustre metadata-client statistics.
    Mdc,
    /// Lustre object-storage-client statistics.
    Osc,
    /// Lustre networking (lnet) statistics.
    Lnet,
    /// Xeon Phi coprocessor utilization, accessed from the host.
    Mic,
    /// Per-process information from procfs (special: structured records).
    Ps,
}

impl DeviceType {
    /// Number of device types: `dt as usize` is below it, so a table
    /// keyed by device type is an array indexed by the discriminant.
    pub const COUNT: usize = 15;

    /// All device types, in canonical raw-file order — which is
    /// declaration order, so `ALL[dt as usize] == dt`.
    pub const ALL: [DeviceType; DeviceType::COUNT] = [
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
        DeviceType::Ps,
    ];

    /// Type name used in raw-stats files.
    pub fn name(self) -> &'static str {
        match self {
            DeviceType::Cpu => "cpu",
            DeviceType::Imc => "imc",
            DeviceType::Qpi => "qpi",
            DeviceType::Cbo => "cbo",
            DeviceType::Rapl => "rapl",
            DeviceType::Cpustat => "cpustat",
            DeviceType::Mem => "mem",
            DeviceType::Ib => "ib",
            DeviceType::Net => "net",
            DeviceType::Llite => "llite",
            DeviceType::Mdc => "mdc",
            DeviceType::Osc => "osc",
            DeviceType::Lnet => "lnet",
            DeviceType::Mic => "mic",
            DeviceType::Ps => "ps",
        }
    }

    /// Inverse of [`DeviceType::name`].
    pub fn parse(s: &str) -> Option<DeviceType> {
        DeviceType::ALL.iter().copied().find(|d| d.name() == s)
    }

    /// The schema of this device type on the given architecture.
    ///
    /// Core-counter schemas vary with the architecture (number of
    /// programmable counters, AVX availability); everything else is
    /// architecture-independent.
    pub fn schema(self, arch: crate::topology::CpuArch) -> Schema {
        use EventDesc as E;
        let events = match self {
            DeviceType::Cpu => {
                let mut v = vec![
                    E::counter("FIXED_CTR0", Unit::Instructions, 48), // instructions retired
                    E::counter("FIXED_CTR1", Unit::Cycles, 48),       // core clock cycles
                    E::counter("FIXED_CTR2", Unit::Cycles, 48),       // reference cycles
                    E::counter("FP_SCALAR", Unit::Flops, 48),
                    E::counter("FP_VECTOR", Unit::Flops, 48),
                    E::counter("LOAD_ALL", Unit::Events, 48),
                    E::counter("LOAD_L1_HIT", Unit::Events, 48),
                ];
                if has_cache_hit_events(arch) {
                    v.push(E::counter("LOAD_L2_HIT", Unit::Events, 48));
                    v.push(E::counter("LOAD_LLC_HIT", Unit::Events, 48));
                }
                v
            }
            DeviceType::Imc => vec![
                E::counter("CAS_READS", Unit::Events, 48),
                E::counter("CAS_WRITES", Unit::Events, 48),
                E::counter("CYCLES", Unit::Cycles, 48),
            ],
            DeviceType::Qpi => vec![
                E::counter("G0_DATA_FLITS", Unit::Events, 48),
                E::counter("G0_NON_DATA_FLITS", Unit::Events, 48),
            ],
            DeviceType::Cbo => vec![
                E::counter("LLC_LOOKUP", Unit::Events, 48),
                E::counter("LLC_MISS", Unit::Events, 48),
            ],
            DeviceType::Rapl => vec![
                E::counter("MSR_PKG_ENERGY_STATUS", Unit::EnergyUnits, 32),
                E::counter("MSR_PP0_ENERGY_STATUS", Unit::EnergyUnits, 32),
                E::counter("MSR_DRAM_ENERGY_STATUS", Unit::EnergyUnits, 32),
            ],
            DeviceType::Cpustat => vec![
                E::counter("user", Unit::Jiffies, 64),
                E::counter("nice", Unit::Jiffies, 64),
                E::counter("system", Unit::Jiffies, 64),
                E::counter("idle", Unit::Jiffies, 64),
                E::counter("iowait", Unit::Jiffies, 64),
            ],
            DeviceType::Mem => vec![
                E::gauge("MemTotal", Unit::KiB),
                E::gauge("MemUsed", Unit::KiB),
                E::gauge("FilePages", Unit::KiB),
                E::gauge("AnonPages", Unit::KiB),
            ],
            DeviceType::Ib => vec![
                E::counter("port_xmit_data", Unit::Words4, 64),
                E::counter("port_rcv_data", Unit::Words4, 64),
                E::counter("port_xmit_pkts", Unit::Events, 64),
                E::counter("port_rcv_pkts", Unit::Events, 64),
            ],
            DeviceType::Net => vec![
                E::counter("rx_bytes", Unit::Bytes, 64),
                E::counter("rx_packets", Unit::Events, 64),
                E::counter("tx_bytes", Unit::Bytes, 64),
                E::counter("tx_packets", Unit::Events, 64),
            ],
            DeviceType::Llite => vec![
                E::counter("read_bytes", Unit::Bytes, 64),
                E::counter("write_bytes", Unit::Bytes, 64),
                E::counter("open", Unit::Events, 64),
                E::counter("close", Unit::Events, 64),
                E::counter("getattr", Unit::Events, 64),
                E::counter("statfs", Unit::Events, 64),
                E::counter("seek", Unit::Events, 64),
                E::counter("fsync", Unit::Events, 64),
            ],
            DeviceType::Mdc => vec![
                E::counter("reqs", Unit::Events, 64),
                E::counter("wait", Unit::Micros, 64),
            ],
            DeviceType::Osc => vec![
                E::counter("reqs", Unit::Events, 64),
                E::counter("wait", Unit::Micros, 64),
                E::counter("read_bytes", Unit::Bytes, 64),
                E::counter("write_bytes", Unit::Bytes, 64),
            ],
            DeviceType::Lnet => vec![
                E::counter("tx_bytes", Unit::Bytes, 64),
                E::counter("rx_bytes", Unit::Bytes, 64),
                E::counter("tx_msgs", Unit::Events, 64),
                E::counter("rx_msgs", Unit::Events, 64),
            ],
            DeviceType::Mic => vec![
                E::counter("user_sum", Unit::Jiffies, 64),
                E::counter("sys_sum", Unit::Jiffies, 64),
                E::counter("idle_sum", Unit::Jiffies, 64),
            ],
            // The ps device is structured (per-process records), but it
            // still has a numeric schema for the per-process value vector.
            DeviceType::Ps => vec![
                E::gauge("VmSize", Unit::KiB),
                E::gauge("VmHWM", Unit::KiB),
                E::gauge("VmRSS", Unit::KiB),
                E::gauge("VmLck", Unit::KiB),
                E::gauge("VmData", Unit::KiB),
                E::gauge("VmStk", Unit::KiB),
                E::gauge("VmExe", Unit::KiB),
                E::gauge("Threads", Unit::Events),
                E::counter("utime", Unit::Jiffies, 64),
                E::gauge("Cpus_allowed", Unit::Events),
                E::gauge("Mems_allowed", Unit::Events),
            ],
        };
        Schema { events }
    }
}

/// Whether the `cpu` schema of `arch` carries the optional
/// `LOAD_L2_HIT` / `LOAD_LLC_HIT` events ([`pos::cpu`] positions 7–8):
/// only with eight programmable counters is there room to program them.
pub(crate) fn has_cache_hit_events(arch: crate::topology::CpuArch) -> bool {
    arch.programmable_counters() >= 8
}

/// Schema positions of every event [`DeviceType::schema`] declares, one
/// module per device type: `pos::cpu::FP_SCALAR` is
/// `DeviceType::Cpu.schema(arch).index_of("FP_SCALAR")` on every
/// architecture (a unit test holds each constant to that). The workload
/// model addresses registers by these, never by name.
pub mod pos {
    /// `cpu`: fixed counters, then the programmable ones.
    pub mod cpu {
        /// Instructions retired (IA32_FIXED_CTR0).
        pub const FIXED_CTR0: usize = 0;
        /// Core clock cycles (IA32_FIXED_CTR1).
        pub const FIXED_CTR1: usize = 1;
        /// Reference cycles (IA32_FIXED_CTR2).
        pub const FIXED_CTR2: usize = 2;
        /// Scalar FP instructions (PMC0).
        pub const FP_SCALAR: usize = 3;
        /// Vector FP instructions.
        pub const FP_VECTOR: usize = 4;
        /// All loads.
        pub const LOAD_ALL: usize = 5;
        /// Loads hitting L1.
        pub const LOAD_L1_HIT: usize = 6;
        /// Loads hitting L2 — only on eight-counter architectures.
        pub const LOAD_L2_HIT: usize = 7;
        /// Loads hitting the LLC — only on eight-counter architectures.
        pub const LOAD_LLC_HIT: usize = 8;
    }
    /// `imc`: integrated memory controller.
    pub mod imc {
        /// CAS read commands.
        pub const CAS_READS: usize = 0;
        /// CAS write commands.
        pub const CAS_WRITES: usize = 1;
        /// Uncore clock cycles.
        pub const CYCLES: usize = 2;
    }
    /// `qpi`: QPI link layer.
    pub mod qpi {
        /// Data flits.
        pub const G0_DATA_FLITS: usize = 0;
        /// Non-data flits.
        pub const G0_NON_DATA_FLITS: usize = 1;
    }
    /// `cbo`: LLC coherence boxes.
    pub mod cbo {
        /// LLC lookups.
        pub const LLC_LOOKUP: usize = 0;
        /// LLC misses.
        pub const LLC_MISS: usize = 1;
    }
    /// `rapl`: energy-status registers.
    pub mod rapl {
        /// Package energy.
        pub const MSR_PKG_ENERGY_STATUS: usize = 0;
        /// Power-plane-0 (cores) energy.
        pub const MSR_PP0_ENERGY_STATUS: usize = 1;
        /// DRAM energy.
        pub const MSR_DRAM_ENERGY_STATUS: usize = 2;
    }
    /// `cpustat`: `/proc/stat` time accounting.
    pub mod cpustat {
        /// User jiffies.
        pub const USER: usize = 0;
        /// Nice jiffies (nothing writes them; the schema test checks the
        /// position).
        #[cfg(test)]
        pub(crate) const NICE: usize = 1;
        /// System jiffies.
        pub const SYSTEM: usize = 2;
        /// Idle jiffies.
        pub const IDLE: usize = 3;
        /// I/O-wait jiffies.
        pub const IOWAIT: usize = 4;
    }
    /// `mem`: `/proc/meminfo` gauges.
    pub mod mem {
        /// Installed memory (KiB).
        pub const MEM_TOTAL: usize = 0;
        /// Memory in use (KiB).
        pub const MEM_USED: usize = 1;
        /// Page-cache pages (KiB).
        pub const FILE_PAGES: usize = 2;
        /// Anonymous pages (KiB).
        pub const ANON_PAGES: usize = 3;
    }
    /// `ib`: Infiniband port counters.
    pub mod ib {
        /// Words transmitted.
        pub const PORT_XMIT_DATA: usize = 0;
        /// Words received.
        pub const PORT_RCV_DATA: usize = 1;
        /// Packets transmitted.
        pub const PORT_XMIT_PKTS: usize = 2;
        /// Packets received.
        pub const PORT_RCV_PKTS: usize = 3;
    }
    /// `net`: `/proc/net/dev` counters.
    pub mod net {
        /// Bytes received.
        pub const RX_BYTES: usize = 0;
        /// Packets received.
        pub const RX_PACKETS: usize = 1;
        /// Bytes transmitted.
        pub const TX_BYTES: usize = 2;
        /// Packets transmitted.
        pub const TX_PACKETS: usize = 3;
    }
    /// `llite`: Lustre client per-filesystem stats.
    pub mod llite {
        /// Bytes read.
        pub const READ_BYTES: usize = 0;
        /// Bytes written.
        pub const WRITE_BYTES: usize = 1;
        /// Opens.
        pub const OPEN: usize = 2;
        /// Closes.
        pub const CLOSE: usize = 3;
        /// getattr calls.
        pub const GETATTR: usize = 4;
        /// statfs calls.
        pub const STATFS: usize = 5;
        /// Seeks.
        pub const SEEK: usize = 6;
        /// fsync calls.
        pub const FSYNC: usize = 7;
    }
    /// `mdc`: Lustre metadata client.
    pub mod mdc {
        /// Requests.
        pub const REQS: usize = 0;
        /// Summed wait (µs).
        pub const WAIT: usize = 1;
    }
    /// `osc`: Lustre object-storage client.
    pub mod osc {
        /// Requests.
        pub const REQS: usize = 0;
        /// Summed wait (µs).
        pub const WAIT: usize = 1;
        /// Bytes read.
        pub const READ_BYTES: usize = 2;
        /// Bytes written.
        pub const WRITE_BYTES: usize = 3;
    }
    /// `lnet`: Lustre networking.
    pub mod lnet {
        /// Bytes transmitted.
        pub const TX_BYTES: usize = 0;
        /// Bytes received.
        pub const RX_BYTES: usize = 1;
        /// Messages transmitted.
        pub const TX_MSGS: usize = 2;
        /// Messages received.
        pub const RX_MSGS: usize = 3;
    }
    /// `mic`: Xeon Phi utilization.
    pub mod mic {
        /// User jiffies summed over the card's CPUs.
        pub const USER_SUM: usize = 0;
        /// System jiffies summed over the card's CPUs.
        pub const SYS_SUM: usize = 1;
        /// Idle jiffies summed over the card's CPUs.
        pub const IDLE_SUM: usize = 2;
    }
}

impl fmt::Display for DeviceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::CpuArch;

    #[test]
    fn device_type_name_roundtrip() {
        for d in DeviceType::ALL {
            assert_eq!(DeviceType::parse(d.name()), Some(d));
        }
        assert_eq!(DeviceType::parse("bogus"), None);
    }

    #[test]
    fn schema_render_parse_roundtrip() {
        for d in DeviceType::ALL {
            for arch in [CpuArch::SandyBridge, CpuArch::Haswell, CpuArch::Nehalem] {
                let s = d.schema(arch);
                let rendered = s.render();
                let parsed = Schema::parse(&rendered).expect("parse");
                assert_eq!(parsed, s, "schema roundtrip for {d} on {arch:?}");
            }
        }
    }

    #[test]
    fn all_is_indexed_by_discriminant() {
        assert_eq!(DeviceType::ALL.len(), DeviceType::COUNT);
        for (i, d) in DeviceType::ALL.iter().enumerate() {
            assert_eq!(*d as usize, i, "{d}");
        }
    }

    /// Every position constant names its event on every architecture,
    /// and together they cover every event of every schema they serve.
    #[test]
    fn position_constants_match_every_schema() {
        use pos::*;
        let table: [(DeviceType, &[(usize, &str)]); 14] = [
            (
                DeviceType::Cpu,
                &[
                    (cpu::FIXED_CTR0, "FIXED_CTR0"),
                    (cpu::FIXED_CTR1, "FIXED_CTR1"),
                    (cpu::FIXED_CTR2, "FIXED_CTR2"),
                    (cpu::FP_SCALAR, "FP_SCALAR"),
                    (cpu::FP_VECTOR, "FP_VECTOR"),
                    (cpu::LOAD_ALL, "LOAD_ALL"),
                    (cpu::LOAD_L1_HIT, "LOAD_L1_HIT"),
                    (cpu::LOAD_L2_HIT, "LOAD_L2_HIT"),
                    (cpu::LOAD_LLC_HIT, "LOAD_LLC_HIT"),
                ],
            ),
            (
                DeviceType::Imc,
                &[
                    (imc::CAS_READS, "CAS_READS"),
                    (imc::CAS_WRITES, "CAS_WRITES"),
                    (imc::CYCLES, "CYCLES"),
                ],
            ),
            (
                DeviceType::Qpi,
                &[
                    (qpi::G0_DATA_FLITS, "G0_DATA_FLITS"),
                    (qpi::G0_NON_DATA_FLITS, "G0_NON_DATA_FLITS"),
                ],
            ),
            (
                DeviceType::Cbo,
                &[(cbo::LLC_LOOKUP, "LLC_LOOKUP"), (cbo::LLC_MISS, "LLC_MISS")],
            ),
            (
                DeviceType::Rapl,
                &[
                    (rapl::MSR_PKG_ENERGY_STATUS, "MSR_PKG_ENERGY_STATUS"),
                    (rapl::MSR_PP0_ENERGY_STATUS, "MSR_PP0_ENERGY_STATUS"),
                    (rapl::MSR_DRAM_ENERGY_STATUS, "MSR_DRAM_ENERGY_STATUS"),
                ],
            ),
            (
                DeviceType::Cpustat,
                &[
                    (cpustat::USER, "user"),
                    (cpustat::NICE, "nice"),
                    (cpustat::SYSTEM, "system"),
                    (cpustat::IDLE, "idle"),
                    (cpustat::IOWAIT, "iowait"),
                ],
            ),
            (
                DeviceType::Mem,
                &[
                    (mem::MEM_TOTAL, "MemTotal"),
                    (mem::MEM_USED, "MemUsed"),
                    (mem::FILE_PAGES, "FilePages"),
                    (mem::ANON_PAGES, "AnonPages"),
                ],
            ),
            (
                DeviceType::Ib,
                &[
                    (ib::PORT_XMIT_DATA, "port_xmit_data"),
                    (ib::PORT_RCV_DATA, "port_rcv_data"),
                    (ib::PORT_XMIT_PKTS, "port_xmit_pkts"),
                    (ib::PORT_RCV_PKTS, "port_rcv_pkts"),
                ],
            ),
            (
                DeviceType::Net,
                &[
                    (net::RX_BYTES, "rx_bytes"),
                    (net::RX_PACKETS, "rx_packets"),
                    (net::TX_BYTES, "tx_bytes"),
                    (net::TX_PACKETS, "tx_packets"),
                ],
            ),
            (
                DeviceType::Llite,
                &[
                    (llite::READ_BYTES, "read_bytes"),
                    (llite::WRITE_BYTES, "write_bytes"),
                    (llite::OPEN, "open"),
                    (llite::CLOSE, "close"),
                    (llite::GETATTR, "getattr"),
                    (llite::STATFS, "statfs"),
                    (llite::SEEK, "seek"),
                    (llite::FSYNC, "fsync"),
                ],
            ),
            (DeviceType::Mdc, &[(mdc::REQS, "reqs"), (mdc::WAIT, "wait")]),
            (
                DeviceType::Osc,
                &[
                    (osc::REQS, "reqs"),
                    (osc::WAIT, "wait"),
                    (osc::READ_BYTES, "read_bytes"),
                    (osc::WRITE_BYTES, "write_bytes"),
                ],
            ),
            (
                DeviceType::Lnet,
                &[
                    (lnet::TX_BYTES, "tx_bytes"),
                    (lnet::RX_BYTES, "rx_bytes"),
                    (lnet::TX_MSGS, "tx_msgs"),
                    (lnet::RX_MSGS, "rx_msgs"),
                ],
            ),
            (
                DeviceType::Mic,
                &[
                    (mic::USER_SUM, "user_sum"),
                    (mic::SYS_SUM, "sys_sum"),
                    (mic::IDLE_SUM, "idle_sum"),
                ],
            ),
        ];
        let archs = CpuArch::HOST_ARCHS
            .into_iter()
            .chain([CpuArch::KnightsCorner]);
        for arch in archs {
            for (dt, events) in table {
                let s = dt.schema(arch);
                let optional = |p: usize| {
                    dt == DeviceType::Cpu
                        && p >= pos::cpu::LOAD_L2_HIT
                        && !has_cache_hit_events(arch)
                };
                let mut present = 0;
                for &(p, name) in events {
                    match s.index_of(name) {
                        Some(i) => {
                            assert_eq!(i, p, "{dt}.{name} on {arch:?}");
                            present += 1;
                        }
                        None => assert!(optional(p), "{dt}.{name} missing on {arch:?}"),
                    }
                }
                assert_eq!(
                    present,
                    s.len(),
                    "{dt} on {arch:?}: an event has no constant"
                );
            }
        }
    }

    #[test]
    fn cpu_schema_varies_by_arch() {
        // Nehalem has 4 programmable counters: no L2/LLC hit events.
        let nhm = DeviceType::Cpu.schema(CpuArch::Nehalem);
        let snb = DeviceType::Cpu.schema(CpuArch::SandyBridge);
        assert_eq!(nhm.len(), 7);
        assert_eq!(snb.len(), 9);
        assert!(nhm.index_of("LOAD_L2_HIT").is_none());
        assert!(snb.index_of("LOAD_L2_HIT").is_some());
    }

    #[test]
    fn rapl_counters_are_32_bit() {
        let s = DeviceType::Rapl.schema(CpuArch::SandyBridge);
        assert!(s.events.iter().all(|e| e.width == 32));
        assert!(s.events.iter().all(|e| e.kind == EventKind::Counter));
    }

    #[test]
    fn mem_is_gauge() {
        let s = DeviceType::Mem.schema(CpuArch::SandyBridge);
        assert!(s.events.iter().all(|e| e.kind == EventKind::Gauge));
    }

    #[test]
    fn unit_conversions() {
        assert_eq!(Unit::Words4.to_base(), 4.0);
        assert_eq!(Unit::Jiffies.to_base(), 0.01);
        assert!((Unit::EnergyUnits.to_base() - 6.103515625e-5).abs() < 1e-12);
    }

    /// Every unit, in declaration order.
    const ALL_UNITS: [Unit; 10] = [
        Unit::Events,
        Unit::Bytes,
        Unit::KiB,
        Unit::Words4,
        Unit::Jiffies,
        Unit::Micros,
        Unit::EnergyUnits,
        Unit::Cycles,
        Unit::Instructions,
        Unit::Flops,
    ];

    #[test]
    fn unit_label_parse_roundtrip_for_all_units() {
        for u in ALL_UNITS {
            assert_eq!(Unit::parse(u.label()), Some(u), "unit {u:?}");
        }
        assert_eq!(Unit::parse(""), None);
        assert_eq!(Unit::parse("XX"), None);
        // Labels are unique: the round-trip above would already catch a
        // collision, but make the intent explicit.
        let labels: std::collections::BTreeSet<&str> =
            ALL_UNITS.iter().map(|u| u.label()).collect();
        assert_eq!(labels.len(), ALL_UNITS.len());
    }

    #[test]
    fn unit_to_base_is_finite_positive_for_all_units() {
        for u in ALL_UNITS {
            let f = u.to_base();
            assert!(f.is_finite() && f > 0.0, "unit {u:?} → {f}");
        }
    }

    #[test]
    fn to_base_roundtrips_through_base_values() {
        // Converting a raw value to base units and back must be exact
        // for the power-of-two factors and stable to 1 ulp for the rest.
        for u in ALL_UNITS {
            let f = u.to_base();
            for raw in [1.0f64, 3.0, 1e6, 1e12] {
                let back = (raw * f) / f;
                assert!(
                    (back - raw).abs() <= raw * f64::EPSILON,
                    "unit {u:?} raw {raw} → {back}"
                );
            }
        }
    }

    #[test]
    fn schema_parse_rejects_garbage() {
        assert!(Schema::parse("name-only").is_none());
        assert!(Schema::parse("a,B,C,64,extra").is_none());
        assert!(Schema::parse("a,XX,C,64").is_none());
        assert!(Schema::parse("a,B,Q,64").is_none());
    }
}
