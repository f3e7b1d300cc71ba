//! Per-device collectors.
//!
//! Each collector reads one device type the way the real tacc_stats does:
//! core counters and RAPL through binary MSR reads, uncore counters
//! through PCI configuration space, and everything else by parsing
//! procfs/sysfs-style text. A collector returns *register values in
//! schema order*; delta/rollover handling happens downstream in the
//! metrics pipeline, because raw files must carry raw readings.
//!
//! Missing hardware is not an error: §III-B — "if any of these are not
//! present on a node TACC Stats will execute successfully at run time".
//! Collectors produce no records when their device is absent.
//!
//! A collection runs in buffers its caller owns: [`Collector::collect_into`]
//! appends records to the caller's vector and reads every pseudo-file
//! through a [`Scratch`]; values go straight into each record's inline
//! [`ValueVec`]. [`Collector::collect`] and [`PsCollector::collect_ps`]
//! are the owned-return wrappers.

use crate::record::{DeviceRecord, PsRecord, ValueVec};
use tacc_simnode::intern::Sym;
use tacc_simnode::node::{
    UncoreDev, MSR_DRAM_ENERGY_STATUS, MSR_FIXED_CTR0, MSR_FIXED_CTR1, MSR_FIXED_CTR2,
    MSR_PKG_ENERGY_STATUS, MSR_PMC0, MSR_PP0_ENERGY_STATUS,
};
use tacc_simnode::pseudofs::NodeFs;
use tacc_simnode::schema::DeviceType;
use tacc_simnode::topology::CpuArch;

/// The text buffers one collection reads through, reused from file to
/// file and from sample to sample (they grow to the node's largest file
/// in the first collection and stay).
#[derive(Default)]
pub struct Scratch {
    /// Text of the pseudo-file being parsed.
    text: String,
    /// Path of the pseudo-file being read.
    path: String,
    /// Directory entry being visited.
    name: String,
}

/// Read the file whose path is the concatenation of `parts` into `text`,
/// building the path in `path`. For the collectors that visit a
/// directory, where the listing holds the scratch's `name`.
fn read_joined(fs: &NodeFs<'_>, path: &mut String, parts: &[&str], text: &mut String) -> bool {
    path.clear();
    for part in parts {
        path.push_str(part);
    }
    fs.read_into(path, text)
}

/// A collector for one device type.
pub trait Collector: Send + Sync {
    /// The device type this collector produces.
    fn dev_type(&self) -> DeviceType;
    /// Append one record per instance of the device to `out`. Nothing
    /// if absent.
    fn collect_into(&self, fs: &NodeFs<'_>, scratch: &mut Scratch, out: &mut Vec<DeviceRecord>);
    /// Read every instance of the device. Empty if absent.
    // alloc: cold-fn (owned-return wrapper over collect_into)
    fn collect(&self, fs: &NodeFs<'_>) -> Vec<DeviceRecord> {
        let mut out = Vec::with_capacity(16);
        self.collect_into(fs, &mut Scratch::default(), &mut out);
        out
    }
}

/// Symbols of the instance names `"0"`..`"n-1"`, resolved once so the
/// per-CPU and per-socket collectors never format or intern a number.
// alloc: cold-fn (collector construction)
fn index_syms(n: usize) -> Vec<Sym> {
    (0..n).map(|i| Sym::new(&i.to_string())).collect()
}

/// Core hardware counters via MSR reads (`/dev/cpu/<n>/msr` equivalent).
pub struct CpuCollector {
    cpus: Vec<Sym>,
    n_programmable: usize,
}

impl CpuCollector {
    /// New collector for `n_cpus` logical CPUs on `arch`.
    pub fn new(n_cpus: usize, arch: CpuArch) -> Self {
        // Schema: 3 fixed + 4 programmable events (7) on 4-counter archs,
        // 3 + 6 (9) on 8-counter archs.
        let n_programmable = DeviceType::Cpu.schema(arch).len() - 3;
        CpuCollector {
            cpus: index_syms(n_cpus),
            n_programmable,
        }
    }
}

impl Collector for CpuCollector {
    fn dev_type(&self) -> DeviceType {
        DeviceType::Cpu
    }

    fn collect_into(&self, fs: &NodeFs<'_>, _: &mut Scratch, out: &mut Vec<DeviceRecord>) {
        let node = fs.node();
        'cpus: for (cpu, &instance) in self.cpus.iter().enumerate() {
            let mut values = ValueVec::new();
            for addr in [MSR_FIXED_CTR0, MSR_FIXED_CTR1, MSR_FIXED_CTR2] {
                match node.read_msr(cpu, addr) {
                    Some(v) => values.push(v),
                    None => continue 'cpus, // node down or CPU offline
                }
            }
            for i in 0..self.n_programmable {
                values.push(node.read_msr(cpu, MSR_PMC0 + i as u32).unwrap_or(0));
            }
            out.push(DeviceRecord {
                dev_type: DeviceType::Cpu,
                instance,
                values,
            });
        }
    }
}

/// Uncore counters (IMC / QPI / CBo) via PCI configuration space.
pub struct UncoreCollector {
    dev: UncoreDev,
    dev_type: DeviceType,
    sockets: Vec<Sym>,
    n_counters: usize,
}

impl UncoreCollector {
    /// New uncore collector for one box type.
    pub fn new(dev: UncoreDev, sockets: usize, arch: CpuArch) -> Self {
        let dev_type = match dev {
            UncoreDev::Imc => DeviceType::Imc,
            UncoreDev::Qpi => DeviceType::Qpi,
            UncoreDev::Cbo => DeviceType::Cbo,
        };
        UncoreCollector {
            dev,
            dev_type,
            sockets: index_syms(sockets),
            n_counters: dev_type.schema(arch).len(),
        }
    }
}

impl Collector for UncoreCollector {
    fn dev_type(&self) -> DeviceType {
        self.dev_type
    }

    fn collect_into(&self, fs: &NodeFs<'_>, _: &mut Scratch, out: &mut Vec<DeviceRecord>) {
        let node = fs.node();
        for (socket, &instance) in self.sockets.iter().enumerate() {
            let mut values = ValueVec::new();
            for idx in 0..self.n_counters {
                match node.read_pci_counter(socket, self.dev, idx) {
                    Some(v) => values.push(v),
                    None => return, // device absent / node down
                }
            }
            out.push(DeviceRecord {
                dev_type: self.dev_type,
                instance,
                values,
            });
        }
    }
}

/// RAPL energy counters via MSR, one read per socket (through the first
/// CPU of the socket).
pub struct RaplCollector {
    sockets: Vec<Sym>,
    cpus_per_socket: usize,
}

impl RaplCollector {
    /// New RAPL collector.
    pub fn new(sockets: usize, cpus_per_socket: usize) -> Self {
        RaplCollector {
            sockets: index_syms(sockets),
            cpus_per_socket,
        }
    }
}

impl Collector for RaplCollector {
    fn dev_type(&self) -> DeviceType {
        DeviceType::Rapl
    }

    fn collect_into(&self, fs: &NodeFs<'_>, _: &mut Scratch, out: &mut Vec<DeviceRecord>) {
        let node = fs.node();
        for (socket, &instance) in self.sockets.iter().enumerate() {
            let cpu = socket * self.cpus_per_socket;
            let mut values = ValueVec::new();
            for addr in [
                MSR_PKG_ENERGY_STATUS,
                MSR_PP0_ENERGY_STATUS,
                MSR_DRAM_ENERGY_STATUS,
            ] {
                match node.read_msr(cpu, addr) {
                    Some(v) => values.push(v),
                    None => return,
                }
            }
            out.push(DeviceRecord {
                dev_type: DeviceType::Rapl,
                instance,
                values,
            });
        }
    }
}

/// A record for a text-backed device. Instance names recur every sample,
/// so interning one is a table lookup after the first collection.
fn rec<const N: usize>(dev_type: DeviceType, instance: &str, values: [u64; N]) -> DeviceRecord {
    DeviceRecord {
        dev_type,
        instance: Sym::new(instance),
        values: values.into(),
    }
}

/// Lines of `text` known to be complete. Every pseudo-file the node
/// renders ends with a newline, so a read cut off mid-file leaves the
/// final line without one; parsing that fragment would turn a truncated
/// counter like `12345` into a plausible-looking `123`. The fragment is
/// dropped instead — an absent reading, never a wrong one.
fn complete_lines(text: &str) -> std::str::Lines<'_> {
    match text.rfind('\n').and_then(|i| text.get(..i + 1)) {
        Some(head) => head.lines(),
        None => "".lines(),
    }
}

/// The values of those `(key, value)` lines whose key is one of `keys`,
/// in `keys` order; `None` for a key with no numeric line of its own.
fn keyed_values<'t, const N: usize>(
    lines: impl Iterator<Item = (&'t str, &'t str)>,
    keys: &[&str; N],
) -> [Option<u64>; N] {
    let mut found = [None; N];
    for (key, val) in lines {
        let slot = keys.iter().position(|k| *k == key);
        if let Some(slot) = slot.and_then(|i| found.get_mut(i)) {
            *slot = val.parse().ok();
        }
    }
    found
}

/// All of `found`, or `None` if any is missing.
fn all_found<T: Copy + Default, const N: usize>(found: [Option<T>; N]) -> Option<[T; N]> {
    let mut values = [T::default(); N];
    for (v, f) in values.iter_mut().zip(found) {
        *v = f?;
    }
    Some(values)
}

/// `/proc/stat` CPU time accounting.
pub struct CpustatCollector;

impl Collector for CpustatCollector {
    fn dev_type(&self) -> DeviceType {
        DeviceType::Cpustat
    }

    fn collect_into(&self, fs: &NodeFs<'_>, s: &mut Scratch, out: &mut Vec<DeviceRecord>) {
        if !fs.read_into("/proc/stat", &mut s.text) {
            return;
        }
        for line in complete_lines(&s.text) {
            // Per-CPU lines are "cpu<N> user nice system idle iowait …";
            // skip the aggregate "cpu " line.
            let Some(rest) = line.strip_prefix("cpu") else {
                continue;
            };
            let mut toks = rest.split_whitespace();
            let Some(first) = toks.next() else { continue };
            if first.parse::<usize>().is_err() {
                continue; // aggregate line: first token is "user" count
            }
            let mut values = ValueVec::new();
            for v in toks.take(5).filter_map(|t| t.parse().ok()) {
                values.push(v);
            }
            if values.len() == 5 {
                out.push(DeviceRecord {
                    dev_type: DeviceType::Cpustat,
                    instance: Sym::new(first),
                    values,
                });
            }
        }
    }
}

/// Per-NUMA-node memory from `/sys/devices/system/node/node*/meminfo`.
pub struct MemCollector;

impl Collector for MemCollector {
    fn dev_type(&self) -> DeviceType {
        DeviceType::Mem
    }

    fn collect_into(&self, fs: &NodeFs<'_>, s: &mut Scratch, out: &mut Vec<DeviceRecord>) {
        let Scratch { text, path, name } = s;
        fs.for_each_entry("/sys/devices/system/node", name, |node_dir| {
            let Some(idx) = node_dir.strip_prefix("node") else {
                return;
            };
            let parts = ["/sys/devices/system/node/", node_dir, "/meminfo"];
            if !read_joined(fs, path, &parts, text) {
                return;
            }
            // "Node 0 MemTotal:  33554432 kB"
            let lines = complete_lines(text).filter_map(|line| {
                let mut toks = line.split_whitespace().skip(2);
                Some((toks.next()?, toks.next()?))
            });
            let keys = ["MemTotal:", "MemUsed:", "FilePages:", "AnonPages:"];
            // A truncated read loses the tail keys: the node is absent
            // for this sample rather than reported with zeros.
            if let Some(values) = all_found(keyed_values(lines, &keys)) {
                out.push(rec(DeviceType::Mem, idx, values));
            }
        });
    }
}

/// Ethernet counters from `/proc/net/dev`.
pub struct NetCollector;

impl Collector for NetCollector {
    fn dev_type(&self) -> DeviceType {
        DeviceType::Net
    }

    fn collect_into(&self, fs: &NodeFs<'_>, s: &mut Scratch, out: &mut Vec<DeviceRecord>) {
        if !fs.read_into("/proc/net/dev", &mut s.text) {
            return;
        }
        for line in complete_lines(&s.text).skip(2) {
            let Some((iface, rest)) = line.split_once(':') else {
                continue;
            };
            let iface = iface.trim();
            if iface == "lo" {
                continue;
            }
            // Fields: rx_bytes rx_packets … (8 rx fields) tx_bytes tx_packets …
            let mut f = rest.split_whitespace().filter_map(|t| t.parse().ok());
            let (Some(rx_bytes), Some(rx_packets)) = (f.next(), f.next()) else {
                continue;
            };
            let (Some(tx_bytes), Some(tx_packets)) = (f.nth(6), f.next()) else {
                continue;
            };
            out.push(rec(
                DeviceType::Net,
                iface,
                [rx_bytes, rx_packets, tx_bytes, tx_packets],
            ));
        }
    }
}

/// Infiniband port counters from sysfs.
pub struct IbCollector;

impl Collector for IbCollector {
    fn dev_type(&self) -> DeviceType {
        DeviceType::Ib
    }

    fn collect_into(&self, fs: &NodeFs<'_>, s: &mut Scratch, out: &mut Vec<DeviceRecord>) {
        let Scratch { text, path, name } = s;
        fs.for_each_entry("/sys/class/infiniband", name, |hca| {
            // All our HCAs are single-port.
            let mut values = [0u64; 4];
            let counters = [
                "port_xmit_data",
                "port_rcv_data",
                "port_xmit_pkts",
                "port_rcv_pkts",
            ];
            for (value, counter) in values.iter_mut().zip(counters) {
                let parts = ["/sys/class/infiniband/", hca, "/ports/1/counters/", counter];
                // A truncated value is no value.
                if !(read_joined(fs, path, &parts, text) && text.ends_with('\n')) {
                    return;
                }
                match text.trim().parse() {
                    Ok(v) => *value = v,
                    Err(_) => return,
                }
            }
            path.clear();
            path.push_str(hca);
            path.push_str("/1");
            out.push(rec(DeviceType::Ib, path, values));
        });
    }
}

/// `(count, sum)` of each of the `names` lines of a Lustre `stats` file,
/// in `names` order, parsed in one pass.
///
/// Lines look like `open 123 samples [regs]` (count only, sum 0) or
/// `read_bytes 4 samples [bytes] 0 1048576 4194304` (count, min, max,
/// sum). `None` if any wanted line is missing: a truncated read cuts
/// the tail lines off, and reporting those counters as zero would be
/// indistinguishable from real idle, so an incomplete file makes the
/// collector report the device *absent* for this sample instead.
fn parse_lustre_stats<const N: usize>(text: &str, names: &[&str; N]) -> Option<[(u64, u64); N]> {
    let mut found = [None; N];
    for line in complete_lines(text) {
        let mut toks = line.split_whitespace();
        let (Some(name), Some(count)) = (toks.next(), toks.next()) else {
            continue;
        };
        // Four tokens at least: `<name> <count> samples [<unit>]`.
        if toks.nth(1).is_none() {
            continue;
        }
        let Ok(count) = count.parse::<u64>() else {
            continue;
        };
        let sum = toks.nth(2).and_then(|t| t.parse().ok()).unwrap_or(0);
        let slot = names.iter().position(|n| *n == name);
        // The first line of a name wins.
        if let Some(slot) = slot.and_then(|i| found.get_mut(i)) {
            slot.get_or_insert((count, sum));
        }
    }
    all_found(found)
}

/// One record per `stats` file under the Lustre directory `dir`, named
/// after the filesystem: the `names` lines of the file, mapped to the
/// device's schema order by `values`.
fn collect_lustre<const N: usize, const M: usize>(
    (dev_type, dir): (DeviceType, &str),
    names: &[&str; N],
    values: impl Fn([(u64, u64); N]) -> [u64; M],
    fs: &NodeFs<'_>,
    s: &mut Scratch,
    out: &mut Vec<DeviceRecord>,
) {
    let Scratch { text, path, name } = s;
    fs.for_each_entry(dir, name, |entry| {
        if !read_joined(fs, path, &[dir, "/", entry, "/stats"], text) {
            return;
        }
        let fsname = entry.split('-').next().unwrap_or(entry);
        if let Some(stats) = parse_lustre_stats(text, names) {
            out.push(rec(dev_type, fsname, values(stats)));
        }
    });
}

/// Lustre client (llite) statistics per filesystem.
pub struct LliteCollector;

impl Collector for LliteCollector {
    fn dev_type(&self) -> DeviceType {
        DeviceType::Llite
    }

    fn collect_into(&self, fs: &NodeFs<'_>, s: &mut Scratch, out: &mut Vec<DeviceRecord>) {
        let names = [
            "read_bytes",
            "write_bytes",
            "open",
            "close",
            "getattr",
            "statfs",
            "seek",
            "fsync",
        ];
        collect_lustre(
            (DeviceType::Llite, "/proc/fs/lustre/llite"),
            &names,
            |[rb, wb, open, close, getattr, statfs, seek, fsync]| {
                [
                    rb.1, wb.1, open.0, close.0, getattr.0, statfs.0, seek.0, fsync.0,
                ]
            },
            fs,
            s,
            out,
        );
    }
}

/// Lustre metadata-client statistics.
pub struct MdcCollector;

impl Collector for MdcCollector {
    fn dev_type(&self) -> DeviceType {
        DeviceType::Mdc
    }

    fn collect_into(&self, fs: &NodeFs<'_>, s: &mut Scratch, out: &mut Vec<DeviceRecord>) {
        collect_lustre(
            (DeviceType::Mdc, "/proc/fs/lustre/mdc"),
            &["req_waittime"],
            |[(reqs, wait)]| [reqs, wait],
            fs,
            s,
            out,
        );
    }
}

/// Lustre object-storage-client statistics.
pub struct OscCollector;

impl Collector for OscCollector {
    fn dev_type(&self) -> DeviceType {
        DeviceType::Osc
    }

    fn collect_into(&self, fs: &NodeFs<'_>, s: &mut Scratch, out: &mut Vec<DeviceRecord>) {
        collect_lustre(
            (DeviceType::Osc, "/proc/fs/lustre/osc"),
            &["req_waittime", "read_bytes", "write_bytes"],
            |[(reqs, wait), rb, wb]| [reqs, wait, rb.1, wb.1],
            fs,
            s,
            out,
        );
    }
}

/// Lustre networking statistics from `/proc/sys/lnet/stats`.
pub struct LnetCollector;

impl Collector for LnetCollector {
    fn dev_type(&self) -> DeviceType {
        DeviceType::Lnet
    }

    fn collect_into(&self, fs: &NodeFs<'_>, s: &mut Scratch, out: &mut Vec<DeviceRecord>) {
        // A single-line file: without its newline it was truncated.
        if !fs.read_into("/proc/sys/lnet/stats", &mut s.text) || !s.text.ends_with('\n') {
            return;
        }
        // Real layout: msgs_alloc msgs_max errors send_count recv_count
        //              route_count drop_count send_length recv_length …
        let mut f = s
            .text
            .split_whitespace()
            .filter_map(|t| t.parse::<u64>().ok());
        let (Some(send_count), Some(recv_count)) = (f.nth(3), f.next()) else {
            return;
        };
        let (Some(send_length), Some(recv_length)) = (f.nth(2), f.next()) else {
            return;
        };
        out.push(rec(
            DeviceType::Lnet,
            "lnet",
            [send_length, recv_length, send_count, recv_count],
        ));
    }
}

/// Xeon Phi utilization, read from the host (§III-B item 2).
pub struct MicCollector;

impl Collector for MicCollector {
    fn dev_type(&self) -> DeviceType {
        DeviceType::Mic
    }

    fn collect_into(&self, fs: &NodeFs<'_>, s: &mut Scratch, out: &mut Vec<DeviceRecord>) {
        let Scratch { text, path, name } = s;
        fs.for_each_entry("/sys/class/mic", name, |card| {
            if !read_joined(fs, path, &["/sys/class/mic/", card, "/stats"], text) {
                return;
            }
            let lines = complete_lines(text).filter_map(|line| {
                let mut toks = line.split_whitespace();
                Some((toks.next()?, toks.next()?))
            });
            let found = keyed_values(lines, &["user_sum", "sys_sum", "idle_sum"]);
            out.push(rec(DeviceType::Mic, card, found.map(|v| v.unwrap_or(0))));
        });
    }
}

/// Position in the `ps` schema, and radix, of a `/proc/<pid>/status` key.
fn ps_status_slot(key: &str) -> Option<(usize, u32)> {
    Some(match key {
        "VmSize" => (0, 10),
        "VmHWM" => (1, 10),
        "VmRSS" => (2, 10),
        "VmLck" => (3, 10),
        "VmData" => (4, 10),
        "VmStk" => (5, 10),
        "VmExe" => (6, 10),
        "Threads" => (7, 10),
        "Cpus_allowed" => (9, 16),
        "Mems_allowed" => (10, 16),
        _ => return None,
    })
}

/// Position of `utime` (field 14 of `/proc/<pid>/stat`) in the `ps` schema.
const PS_UTIME_SLOT: usize = 8;

/// Per-process collection from procfs (§III-B item 4): executable names,
/// memory sizes and high-water marks, locked memory, segment sizes,
/// thread counts, and affinities.
pub struct PsCollector;

impl PsCollector {
    /// Collect the process table. Separate from [`Collector`] because ps
    /// records are structured (pid/comm/uid), not plain value vectors.
    // alloc: cold-fn (owned-return wrapper over collect_ps_into)
    pub fn collect_ps(&self, fs: &NodeFs<'_>) -> Vec<PsRecord> {
        let mut out = Vec::with_capacity(16);
        self.collect_ps_into(fs, &mut Scratch::default(), &mut out);
        out
    }

    /// Append one record per process to `out`. A process whose `status`
    /// or `stat` cannot be read whole — it raced with exit, or the read
    /// was cut short and lost a schema key — is absent for this sample.
    pub fn collect_ps_into(&self, fs: &NodeFs<'_>, s: &mut Scratch, out: &mut Vec<PsRecord>) {
        let Scratch { text, path, name } = s;
        fs.for_each_entry("/proc", name, |pid_s| {
            let Ok(pid) = pid_s.parse::<u32>() else {
                return;
            };
            if !read_joined(fs, path, &["/proc/", pid_s, "/status"], text) {
                return;
            }
            let mut comm = Sym::default();
            let mut uid = 0u32;
            let mut values: [Option<u64>; 11] = [None; 11];
            for line in complete_lines(text) {
                let Some((key, val)) = line.split_once(':') else {
                    continue;
                };
                let first = val.split_ascii_whitespace().next();
                match key {
                    "Name" => comm = Sym::new(val.trim()),
                    "Uid" => uid = first.and_then(|t| t.parse().ok()).unwrap_or(0),
                    _ => {
                        let Some((slot, radix)) = ps_status_slot(key) else {
                            continue;
                        };
                        if let Some(slot) = values.get_mut(slot) {
                            *slot = first.and_then(|t| u64::from_str_radix(t, radix).ok());
                        }
                    }
                }
            }
            // utime from /proc/<pid>/stat, field 14 (1-based).
            if !read_joined(fs, path, &["/proc/", pid_s, "/stat"], text) {
                return;
            }
            let utime = complete_lines(text)
                .next()
                .and_then(|line| line.split_whitespace().nth(13)?.parse().ok());
            if let Some(slot) = values.get_mut(PS_UTIME_SLOT) {
                *slot = utime;
            }
            if let Some(values) = all_found(values) {
                out.push(PsRecord {
                    pid,
                    comm,
                    uid,
                    values: values.into(),
                });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacc_simnode::topology::NodeTopology;
    use tacc_simnode::workload::{LustreDemand, NodeDemand};
    use tacc_simnode::{SimDuration, SimNode};

    fn running_node() -> SimNode {
        let mut n = SimNode::new("c401-0001", NodeTopology::stampede());
        n.spawn_process("wrf.exe", 5000, 16, 0xFFFF);
        let d = NodeDemand {
            active_cores: 16,
            cpu_user_frac: 0.8,
            flops_per_sec: 5e10,
            vector_frac: 0.6,
            mem_bw_bytes_per_sec: 2e10,
            mem_used_bytes: 8 << 30,
            ib_bytes_per_sec: 1e8,
            gige_bytes_per_sec: 2e4,
            mic_user_frac: 0.2,
            lustre: vec![LustreDemand {
                mdc_reqs_per_sec: 50.0,
                mdc_wait_us: 200.0,
                osc_reqs_per_sec: 20.0,
                osc_wait_us: 1000.0,
                opens_per_sec: 2.0,
                getattr_per_sec: 10.0,
                read_bytes_per_sec: 3e6,
                write_bytes_per_sec: 7e6,
            }],
            ..NodeDemand::default()
        };
        n.advance(SimDuration::from_secs(600), &d);
        n
    }

    #[test]
    fn cpu_collector_reads_all_cpus() {
        let n = running_node();
        let fs = NodeFs::new(&n);
        let c = CpuCollector::new(16, CpuArch::SandyBridge);
        let recs = c.collect(&fs);
        assert_eq!(recs.len(), 16);
        assert!(recs.iter().all(|r| r.values.len() == 9));
        assert!(recs[0].values[0] > 0, "instructions should be nonzero");
        // Matches ground truth.
        assert_eq!(recs[3].values, n.devices(DeviceType::Cpu)[3].read_all(),);
    }

    #[test]
    fn uncore_collectors_read_sockets() {
        let n = running_node();
        let fs = NodeFs::new(&n);
        for (dev, dt) in [
            (UncoreDev::Imc, DeviceType::Imc),
            (UncoreDev::Qpi, DeviceType::Qpi),
            (UncoreDev::Cbo, DeviceType::Cbo),
        ] {
            let c = UncoreCollector::new(dev, 2, CpuArch::SandyBridge);
            let recs = c.collect(&fs);
            assert_eq!(recs.len(), 2, "{dt:?}");
            assert_eq!(recs[0].values, n.devices(dt)[0].read_all());
        }
    }

    #[test]
    fn rapl_collector_reads_both_sockets() {
        let n = running_node();
        let fs = NodeFs::new(&n);
        let recs = RaplCollector::new(2, 8).collect(&fs);
        assert_eq!(recs.len(), 2);
        assert!(recs[0].values[0] > 0);
        assert_eq!(recs[1].values, n.devices(DeviceType::Rapl)[1].read_all());
    }

    #[test]
    fn cpustat_parses_proc_stat() {
        let n = running_node();
        let fs = NodeFs::new(&n);
        let recs = CpustatCollector.collect(&fs);
        assert_eq!(recs.len(), 16); // aggregate line excluded
        assert_eq!(recs[0].instance, "0");
        assert_eq!(recs[0].values, n.devices(DeviceType::Cpustat)[0].read_all());
    }

    #[test]
    fn mem_collector_reads_numa_nodes() {
        let n = running_node();
        let fs = NodeFs::new(&n);
        let recs = MemCollector.collect(&fs);
        assert_eq!(recs.len(), 2);
        // MemTotal per socket = 16 GiB in KiB.
        assert_eq!(recs[0].values[0], 16 * 1024 * 1024);
        assert!(recs[0].values[1] > 0, "MemUsed");
    }

    #[test]
    fn net_collector_parses_counters() {
        let n = running_node();
        let fs = NodeFs::new(&n);
        let recs = NetCollector.collect(&fs);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].instance, "eth0");
        assert_eq!(recs[0].values, n.devices(DeviceType::Net)[0].read_all());
    }

    #[test]
    fn ib_collector_reads_port_counters() {
        let n = running_node();
        let fs = NodeFs::new(&n);
        let recs = IbCollector.collect(&fs);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].instance, "mlx4_0/1");
        assert_eq!(recs[0].values, n.devices(DeviceType::Ib)[0].read_all());
    }

    #[test]
    fn lustre_collectors_parse_stats_files() {
        let n = running_node();
        let fs = NodeFs::new(&n);
        let llite = LliteCollector.collect(&fs);
        assert_eq!(llite.len(), 2);
        assert_eq!(llite[0].instance, "scratch");
        assert_eq!(llite[0].values, n.devices(DeviceType::Llite)[0].read_all());
        let mdc = MdcCollector.collect(&fs);
        assert_eq!(mdc[0].values, n.devices(DeviceType::Mdc)[0].read_all());
        let osc = OscCollector.collect(&fs);
        assert_eq!(osc[0].values, n.devices(DeviceType::Osc)[0].read_all());
        let lnet = LnetCollector.collect(&fs);
        assert_eq!(lnet[0].values, n.devices(DeviceType::Lnet)[0].read_all());
    }

    #[test]
    fn mic_collector_reads_cards() {
        let n = running_node();
        let fs = NodeFs::new(&n);
        let recs = MicCollector.collect(&fs);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].instance, "mic0");
        assert!(recs[0].values[0] > 0, "user_sum after activity");
    }

    #[test]
    fn ps_collector_reads_process_table() {
        let n = running_node();
        let fs = NodeFs::new(&n);
        let ps = PsCollector.collect_ps(&fs);
        assert_eq!(ps.len(), 1);
        let p = &ps[0];
        assert_eq!(p.comm, "wrf.exe");
        assert_eq!(p.uid, 5000);
        assert_eq!(p.values.len(), 11);
        assert!(p.values[1] >= p.values[2], "HWM >= RSS");
        assert_eq!(p.values[7], 16, "threads");
        assert!(p.values[8] > 0, "utime");
        assert_eq!(p.values[9], 0xFFFF, "cpu affinity mask");
        assert!(p.values[10] > 0, "mem affinity mask");
    }

    #[test]
    fn collectors_tolerate_missing_hardware() {
        let topo = NodeTopology {
            has_infiniband: false,
            mic_cards: 0,
            lustre_filesystems: vec![],
            ..NodeTopology::stampede()
        };
        let n = SimNode::new("bare", topo);
        let fs = NodeFs::new(&n);
        assert!(IbCollector.collect(&fs).is_empty());
        assert!(MicCollector.collect(&fs).is_empty());
        assert!(LliteCollector.collect(&fs).is_empty());
        assert!(MdcCollector.collect(&fs).is_empty());
        assert!(OscCollector.collect(&fs).is_empty());
        assert!(LnetCollector.collect(&fs).is_empty());
        // Present hardware still collects.
        assert_eq!(CpustatCollector.collect(&fs).len(), 16);
    }

    #[test]
    fn collectors_tolerate_crashed_node() {
        let mut n = running_node();
        n.crash();
        let fs = NodeFs::new(&n);
        assert!(CpuCollector::new(16, CpuArch::SandyBridge)
            .collect(&fs)
            .is_empty());
        assert!(CpustatCollector.collect(&fs).is_empty());
        assert!(PsCollector.collect_ps(&fs).is_empty());
    }

    #[test]
    fn lustre_stats_parser_handles_both_line_shapes() {
        let text = "snapshot_time 0.0 secs.usecs\n\
                    open 42 samples [regs]\n\
                    read_bytes 3 samples [bytes] 0 99 12345\n";
        assert_eq!(
            parse_lustre_stats(text, &["read_bytes", "open"]),
            Some([(3, 12345), (42, 0)])
        );
        assert_eq!(parse_lustre_stats(text, &["open", "absent"]), None);
        // A line cut off mid-value is not a reading.
        let cut = "open 42 samples [regs]\nread_bytes 3 samples [bytes] 0 99 123";
        assert_eq!(parse_lustre_stats(cut, &["open"]), Some([(42, 0)]));
        assert_eq!(parse_lustre_stats(cut, &["read_bytes"]), None);
    }
}
