//! Procfs/sysfs-style text rendering.
//!
//! The real tacc_stats gathers most of its non-MSR data by parsing text
//! files: `/proc/stat`, `/proc/meminfo` (per NUMA node), `/proc/net/dev`,
//! Lustre's `stats` files, Infiniband sysfs counters, and per-process
//! `/proc/<pid>/status`. To keep the collector honest, the simulated node
//! renders the same file shapes, and the collector in `tacc-collect`
//! genuinely parses them.
//!
//! [`NodeFs`] is a read-only view over a [`SimNode`] routing path lookups
//! to renderers. A crashed node returns `None` for every path, exactly as
//! an unreachable node would.
//!
//! A collection reads some sixty files per node, so the renderers write
//! into a buffer the caller owns ([`NodeFs::read_into`],
//! [`NodeFs::for_each_entry`]) and take one register at a time by schema
//! position; the allocating [`NodeFs::read`] and [`NodeFs::list`] wrap
//! them. A file is appended as bytes — literals copied, numbers written
//! by [`crate::digits`], nothing through `fmt` — and checked as UTF-8
//! once, whole, when it is handed back as the caller's `String`.

use crate::devices::SimDevice;
use crate::digits;
use crate::faults::ReadFaultMode;
use crate::node::SimNode;
use crate::schema::DeviceType;

/// Capacity [`NodeFs::read`] gives its buffer: the largest file a
/// collection reads, `/proc/stat` of a 16-CPU node, is about 0.7 KB.
const READ_CAPACITY: usize = 1024;
/// Capacity [`NodeFs::list`] gives its vector: a full Stampede node
/// lists 16 pids, every other directory a handful of entries.
const LIST_CAPACITY: usize = 16;

/// Each instance of `dt` on `node`, in order: its name, and the device
/// its registers are read from.
fn instances(node: &SimNode, dt: DeviceType) -> impl Iterator<Item = (&str, &SimDevice)> {
    (0..).map_while(move |i| Some((node.instance_name(dt, i)?, node.device(dt, i)?)))
}

/// The first `N` registers of `dev`, in schema order.
fn regs<const N: usize>(dev: &SimDevice) -> [u64; N] {
    std::array::from_fn(|i| dev.read_at(i).unwrap_or(0))
}

/// Cut `text` to its first half, snapped back to a char boundary — what
/// a racy partial read of a pseudo-file yields. (The renderers emit
/// ASCII, so the snap is a no-op in practice; it keeps the cut
/// panic-free anyway.)
fn truncate_half(text: &mut String) {
    let mut cut = text.len() / 2;
    while cut > 0 && !text.is_char_boundary(cut) {
        cut -= 1;
    }
    text.truncate(cut);
}

/// The pseudo-file being rendered: literals and numbers appended to the
/// caller's bytes.
struct Text<'a>(&'a mut Vec<u8>);

impl Text<'_> {
    /// Append `text` as it is.
    fn s(&mut self, text: &str) -> &mut Self {
        self.0.extend_from_slice(text.as_bytes());
        self
    }

    /// Append `v` in decimal.
    fn d(&mut self, v: u64) -> &mut Self {
        digits::push_dec(self.0, v);
        self
    }

    /// Append `v` in lower-case hexadecimal.
    fn x(&mut self, v: u64) -> &mut Self {
        digits::push_hex(self.0, v);
        self
    }

    /// A Lustre `stats` line with a sum: `<name> <count> samples
    /// [<unit>] <min> <max> <sum>`, the name padded to 26 columns.
    fn lustre(&mut self, padded_name: &str, count: u64, unit_min_max: &str, sum: u64) {
        self.s(padded_name)
            .d(count)
            .s(" samples ")
            .s(unit_min_max)
            .s(" ")
            .d(sum)
            .s("\n");
    }
}

/// Read-only pseudo-filesystem view of one node.
pub struct NodeFs<'a> {
    node: &'a SimNode,
}

impl<'a> NodeFs<'a> {
    /// Wrap a node.
    pub fn new(node: &'a SimNode) -> Self {
        NodeFs { node }
    }

    /// The underlying node (for MSR/PCI raw access).
    pub fn node(&self) -> &SimNode {
        self.node
    }

    /// Read a file. Returns `None` if the path does not exist, the node
    /// is down, or an active read fault makes the file vanish; an active
    /// truncation fault returns only a prefix of the rendered text.
    // alloc: cold-fn (owned-return wrapper over read_into; the collectors reuse a buffer)
    pub fn read(&self, path: &str) -> Option<String> {
        let mut text = String::with_capacity(READ_CAPACITY);
        self.read_into(path, &mut text).then_some(text)
    }

    /// [`NodeFs::read`] into a caller-owned buffer: `out` is cleared and
    /// holds the file's text if the result is `true`, nothing otherwise.
    pub fn read_into(&self, path: &str, out: &mut String) -> bool {
        out.clear();
        if self.node.is_crashed() {
            return false;
        }
        let fault = self.node.read_fault(path);
        if fault == Some(ReadFaultMode::Missing) {
            return false;
        }
        // alloc: cold (moves the caller's buffer out and back in; nothing is allocated)
        let mut bytes = std::mem::take(out).into_bytes();
        let found = self.render(path, &mut bytes).is_some();
        if !found {
            bytes.clear();
        }
        // One validation pass per file. It cannot fail: the renderers
        // write ASCII around `comm`, which is a `String`.
        let Ok(text) = String::from_utf8(bytes) else {
            return false;
        };
        *out = text;
        if found && fault == Some(ReadFaultMode::Truncated) {
            truncate_half(out);
        }
        found
    }

    /// List directory entries. Returns an empty vector for unknown paths
    /// or a crashed node.
    // alloc: cold-fn (owned-return wrapper over for_each_entry)
    pub fn list(&self, dir: &str) -> Vec<String> {
        let mut entries = Vec::with_capacity(LIST_CAPACITY);
        self.for_each_entry(dir, &mut String::new(), |e| entries.push(e.to_owned()));
        entries
    }

    /// Call `f` with the name of each entry of `dir`, in [`NodeFs::list`]
    /// order, rendering every name into the caller-owned `name`. Calls
    /// nothing for unknown paths or a crashed node.
    pub fn for_each_entry(&self, dir: &str, name: &mut String, mut f: impl FnMut(&str)) {
        if self.node.is_crashed() {
            return;
        }
        let (dt, suffix) = match dir {
            "/proc" => {
                for p in self.node.processes() {
                    name.clear();
                    digits::push_dec_str(name, u64::from(p.pid));
                    f(name);
                }
                return;
            }
            "/sys/devices/system/node" => {
                for s in 0..self.node.topology.sockets {
                    name.clear();
                    name.push_str("node");
                    digits::push_dec_str(name, s as u64);
                    f(name);
                }
                return;
            }
            "/proc/fs/lustre/llite" => (DeviceType::Llite, "-ffff8800"),
            "/proc/fs/lustre/mdc" => (DeviceType::Mdc, "-MDT0000-mdc-ffff8800"),
            "/proc/fs/lustre/osc" => (DeviceType::Osc, "-OST0000-osc-ffff8800"),
            "/sys/class/infiniband" => (DeviceType::Ib, ""),
            "/sys/class/mic" => (DeviceType::Mic, ""),
            _ => return,
        };
        for (instance, _) in instances(self.node, dt) {
            // An IB instance is `<hca>/<port>`; its directory is the HCA.
            let stem = match dt {
                DeviceType::Ib => instance.split('/').next().unwrap_or("hca0"),
                _ => instance,
            };
            name.clear();
            name.push_str(stem);
            name.push_str(suffix);
            f(name);
        }
    }

    fn device(&self, dt: DeviceType, instance: &str) -> Option<&SimDevice> {
        instances(self.node, dt)
            .find(|&(name, _)| name == instance)
            .map(|(_, dev)| dev)
    }

    /// Route `path` to its renderer, which appends the file to `out`.
    /// `None`: no such file.
    fn render(&self, path: &str, out: &mut Vec<u8>) -> Option<()> {
        let mut t = Text(out);
        match path {
            "/proc/cpuinfo" => {
                // alloc: cold (discovery reads cpuinfo once per daemon)
                t.s(&self.node.topology.render_cpuinfo());
            }
            "/proc/stat" => self.render_proc_stat(&mut t),
            "/proc/net/dev" => self.render_net_dev(&mut t),
            "/proc/sys/lnet/stats" => {
                let dev = self.node.device(DeviceType::Lnet, 0)?;
                let [tx_bytes, rx_bytes, tx_msgs, rx_msgs] = regs(dev);
                // Real format: msgs_alloc msgs_max errors send_count recv_count
                //              route_count drop_count send_length recv_length
                //              route_length drop_length
                t.s("0 0 0 ").d(tx_msgs).s(" ").d(rx_msgs);
                t.s(" 0 0 ").d(tx_bytes).s(" ").d(rx_bytes).s(" 0 0\n");
            }
            _ => return self.render_routed(path, &mut t),
        }
        Some(())
    }

    fn render_routed(&self, path: &str, t: &mut Text<'_>) -> Option<()> {
        // /sys/devices/system/node/node<N>/meminfo
        if let Some(rest) = path.strip_prefix("/sys/devices/system/node/node") {
            let (idx, tail) = rest.split_once('/')?;
            if tail != "meminfo" {
                return None;
            }
            let n: usize = idx.parse().ok()?;
            let [total, used, file, anon] = regs(self.node.device(DeviceType::Mem, n)?);
            let rows = [
                (" MemTotal:       ", total),
                (" MemFree:        ", total.saturating_sub(used)),
                (" MemUsed:        ", used),
                (" FilePages:      ", file),
                (" AnonPages:      ", anon),
            ];
            for (key, kib) in rows {
                t.s("Node ").d(n as u64).s(key).d(kib).s(" kB\n");
            }
            return Some(());
        }
        // Lustre stats files.
        const SNAPSHOT: &str = "snapshot_time             0.0 secs.usecs\n";
        const BYTES: &str = "[bytes] 0 1048576";
        if let Some(rest) = path.strip_prefix("/proc/fs/lustre/llite/") {
            let inst = rest.strip_suffix("/stats")?.strip_suffix("-ffff8800")?;
            let [rb, wb, open, close, getattr, statfs, seek, fsync] =
                regs(self.device(DeviceType::Llite, inst)?);
            t.s(SNAPSHOT);
            t.lustre("read_bytes                ", rb / (1 << 20), BYTES, rb);
            t.lustre("write_bytes               ", wb / (1 << 20), BYTES, wb);
            let counts = [
                ("open                      ", open),
                ("close                     ", close),
                ("getattr                   ", getattr),
                ("statfs                    ", statfs),
                ("seek                      ", seek),
                ("fsync                     ", fsync),
            ];
            for (padded_name, count) in counts {
                t.s(padded_name).d(count).s(" samples [regs]\n");
            }
            return Some(());
        }
        if let Some(rest) = path.strip_prefix("/proc/fs/lustre/mdc/") {
            let inst = rest
                .strip_suffix("/stats")?
                .strip_suffix("-MDT0000-mdc-ffff8800")?;
            let [reqs, wait] = regs(self.device(DeviceType::Mdc, inst)?);
            t.s(SNAPSHOT);
            t.lustre("req_waittime              ", reqs, "[usec] 1 100000", wait);
            t.lustre("req_active                ", reqs, "[reqs] 1 16", reqs);
            return Some(());
        }
        if let Some(rest) = path.strip_prefix("/proc/fs/lustre/osc/") {
            let inst = rest
                .strip_suffix("/stats")?
                .strip_suffix("-OST0000-osc-ffff8800")?;
            let [reqs, wait, rb, wb] = regs(self.device(DeviceType::Osc, inst)?);
            t.s(SNAPSHOT);
            t.lustre("req_waittime              ", reqs, "[usec] 1 100000", wait);
            t.lustre("read_bytes                ", rb / (1 << 20), BYTES, rb);
            t.lustre("write_bytes               ", wb / (1 << 20), BYTES, wb);
            return Some(());
        }
        // Infiniband sysfs counters: .../<hca>/ports/<port>/counters/<name>
        if let Some(rest) = path.strip_prefix("/sys/class/infiniband/") {
            let mut parts = rest.split('/');
            let hca = parts.next()?;
            if parts.next()? != "ports" {
                return None;
            }
            let port = parts.next()?;
            if parts.next()? != "counters" {
                return None;
            }
            let counter = parts.next()?;
            if parts.next().is_some() {
                return None;
            }
            let (_, dev) = instances(self.node, DeviceType::Ib)
                .find(|&(name, _)| name.split_once('/') == Some((hca, port)))?;
            t.d(dev.read(counter)?).s("\n");
            return Some(());
        }
        // Xeon Phi utilization pseudo-file.
        if let Some(rest) = path.strip_prefix("/sys/class/mic/") {
            let card = rest.strip_suffix("/stats")?;
            let [user, sys, idle] = regs(self.device(DeviceType::Mic, card)?);
            t.s("user_sum ").d(user).s("\nsys_sum ").d(sys);
            t.s("\nidle_sum ").d(idle).s("\n");
            return Some(());
        }
        // Per-process files.
        let (pid, file) = path.strip_prefix("/proc/")?.split_once('/')?;
        let pid: u32 = pid.parse().ok()?;
        let p = self.node.processes().iter().find(|p| p.pid == pid)?;
        match file {
            "status" => {
                let uid = u64::from(p.uid);
                t.s("Name:\t").s(&p.comm);
                t.s("\nUid:\t").d(uid).s("\t").d(uid);
                t.s("\t").d(uid).s("\t").d(uid);
                t.s("\nVmPeak:\t").d(p.vm_peak_kib);
                t.s(" kB\nVmSize:\t").d(p.vm_size_kib);
                t.s(" kB\nVmLck:\t").d(p.vm_lck_kib);
                t.s(" kB\nVmHWM:\t").d(p.vm_hwm_kib);
                t.s(" kB\nVmRSS:\t").d(p.vm_rss_kib);
                t.s(" kB\nVmData:\t").d(p.vm_data_kib);
                t.s(" kB\nVmStk:\t").d(p.vm_stk_kib);
                t.s(" kB\nVmExe:\t").d(p.vm_exe_kib);
                t.s(" kB\nThreads:\t").d(u64::from(p.threads));
                t.s("\nCpus_allowed:\t").x(p.cpus_allowed);
                t.s("\nMems_allowed:\t").x(p.mems_allowed).s("\n");
            }
            "comm" => {
                t.s(&p.comm).s("\n");
            }
            // Fields 1, 2, and 14 (utime) of /proc/<pid>/stat are what
            // the collector needs; intermediate fields are zeroed.
            "stat" => {
                t.d(u64::from(p.pid)).s(" (").s(&p.comm);
                t.s(") R 0 0 0 0 0 0 0 0 0 0 ").d(p.utime_jiffies);
                t.s(" 0 0 0 0 0 ").d(u64::from(p.threads)).s(" 0\n");
            }
            _ => return None,
        }
        Some(())
    }

    fn render_proc_stat(&self, t: &mut Text<'_>) {
        let mut totals = [0u64; 5];
        for (_, dev) in instances(self.node, DeviceType::Cpustat) {
            for (total, v) in totals.iter_mut().zip(regs::<5>(dev)) {
                *total += v;
            }
        }
        t.s("cpu ");
        for v in totals {
            t.s(" ").d(v);
        }
        t.s("\n");
        for (instance, dev) in instances(self.node, DeviceType::Cpustat) {
            t.s("cpu").s(instance);
            for v in regs::<5>(dev) {
                t.s(" ").d(v);
            }
            t.s("\n");
        }
    }

    fn render_net_dev(&self, t: &mut Text<'_>) {
        t.s(
            "Inter-|   Receive                                                |  Transmit\n \
             face |bytes    packets errs drop fifo frame compressed multicast|bytes    packets errs drop fifo colls carrier compressed\n",
        );
        for (instance, dev) in instances(self.node, DeviceType::Net) {
            let [rx_bytes, rx_packets, tx_bytes, tx_packets] = regs(dev);
            // The interface name, right-aligned in six columns.
            for _ in instance.chars().count()..6 {
                t.s(" ");
            }
            t.s(instance).s(": ").d(rx_bytes).s(" ").d(rx_packets);
            t.s(" 0 0 0 0 0 0 ").d(tx_bytes).s(" ").d(tx_packets);
            t.s(" 0 0 0 0 0 0\n");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::NodeTopology;
    use crate::workload::{LustreDemand, NodeDemand};
    use crate::SimDuration;

    fn active_node() -> SimNode {
        let mut n = SimNode::new("c401-101", NodeTopology::stampede());
        n.spawn_process("wrf.exe", 5000, 16, 0xFFFF);
        let d = NodeDemand {
            active_cores: 16,
            cpu_user_frac: 0.8,
            flops_per_sec: 1e10,
            mem_bw_bytes_per_sec: 1e9,
            mem_used_bytes: 4 << 30,
            ib_bytes_per_sec: 1e7,
            gige_bytes_per_sec: 1e4,
            lustre: vec![LustreDemand {
                mdc_reqs_per_sec: 10.0,
                mdc_wait_us: 100.0,
                osc_reqs_per_sec: 4.0,
                osc_wait_us: 900.0,
                opens_per_sec: 1.0,
                getattr_per_sec: 3.0,
                read_bytes_per_sec: 1e6,
                write_bytes_per_sec: 2e6,
            }],
            ..NodeDemand::default()
        };
        n.advance(SimDuration::from_secs(100), &d);
        n
    }

    #[test]
    fn proc_stat_shape() {
        let n = active_node();
        let s = NodeFs::new(&n).read("/proc/stat").unwrap();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 17); // aggregate + 16 cpus
        assert!(lines[0].starts_with("cpu  "));
        assert!(lines[1].starts_with("cpu0 "));
        // Aggregate equals sum of per-cpu user jiffies.
        let agg: u64 = lines[0].split_whitespace().nth(1).unwrap().parse().unwrap();
        let sum: u64 = lines[1..]
            .iter()
            .map(|l| l.split_whitespace().nth(1).unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(agg, sum);
        assert!(agg > 0);
        // Every CPU ran the job: each line reads CPU 0's counts.
        fn counts(l: &str) -> Vec<&str> {
            l.split_whitespace().skip(1).collect()
        }
        assert!(lines[2..].iter().all(|l| counts(l) == counts(lines[1])));
    }

    #[test]
    fn numa_meminfo_lists_and_reads() {
        let n = active_node();
        let fs = NodeFs::new(&n);
        assert_eq!(fs.list("/sys/devices/system/node"), vec!["node0", "node1"]);
        let s = fs.read("/sys/devices/system/node/node0/meminfo").unwrap();
        assert!(s.contains("MemTotal:"));
        assert!(s.contains("MemUsed:"));
        assert!(fs.read("/sys/devices/system/node/node5/meminfo").is_none());
    }

    #[test]
    fn lustre_stats_files() {
        let n = active_node();
        let fs = NodeFs::new(&n);
        let dirs = fs.list("/proc/fs/lustre/llite");
        assert_eq!(dirs, vec!["scratch-ffff8800", "work-ffff8800"]);
        let s = fs
            .read("/proc/fs/lustre/llite/scratch-ffff8800/stats")
            .unwrap();
        assert!(s.contains("open"), "{s}");
        assert!(s.contains("write_bytes"));
        let mdc = fs
            .read("/proc/fs/lustre/mdc/scratch-MDT0000-mdc-ffff8800/stats")
            .unwrap();
        assert!(
            mdc.contains("req_waittime              1000 samples"),
            "{mdc}"
        );
        let lnet = fs.read("/proc/sys/lnet/stats").unwrap();
        assert_eq!(lnet.split_whitespace().count(), 11);
    }

    #[test]
    fn ib_counters_are_individual_files() {
        let n = active_node();
        let fs = NodeFs::new(&n);
        assert_eq!(fs.list("/sys/class/infiniband"), vec!["mlx4_0"]);
        let xmit = fs
            .read("/sys/class/infiniband/mlx4_0/ports/1/counters/port_xmit_data")
            .unwrap();
        // 1e7 B/s * 100 s / 4 = 2.5e8 words.
        assert_eq!(xmit.trim().parse::<u64>().unwrap(), 250_000_000);
        assert!(fs
            .read("/sys/class/infiniband/mlx4_0/ports/1/counters/nonsense")
            .is_none());
    }

    #[test]
    fn missing_file_fault_hides_path() {
        use crate::faults::{ReadFault, ReadFaultMode};
        let mut n = active_node();
        n.set_read_faults(vec![ReadFault {
            prefix: "/proc/fs/lustre/llite/scratch-ffff8800/stats".to_string(),
            mode: ReadFaultMode::Missing,
        }]);
        let fs = NodeFs::new(&n);
        assert!(fs
            .read("/proc/fs/lustre/llite/scratch-ffff8800/stats")
            .is_none());
        // Other files are unaffected.
        assert!(fs
            .read("/proc/fs/lustre/llite/work-ffff8800/stats")
            .is_some());
        assert!(fs.read("/proc/stat").is_some());
    }

    #[test]
    fn truncated_read_fault_returns_prefix() {
        use crate::faults::{ReadFault, ReadFaultMode};
        let mut n = active_node();
        let full = NodeFs::new(&n).read("/proc/net/dev").unwrap();
        n.set_read_faults(vec![ReadFault {
            prefix: "/proc/net/dev".to_string(),
            mode: ReadFaultMode::Truncated,
        }]);
        let cut = NodeFs::new(&n).read("/proc/net/dev").unwrap();
        assert!(cut.len() < full.len());
        assert!(full.starts_with(&cut));
    }

    #[test]
    fn prefix_fault_covers_ib_counter_files() {
        use crate::faults::{ReadFault, ReadFaultMode};
        let mut n = active_node();
        n.set_read_faults(vec![ReadFault {
            prefix: "/sys/class/infiniband/mlx4_0/ports/1/counters".to_string(),
            mode: ReadFaultMode::Missing,
        }]);
        let fs = NodeFs::new(&n);
        assert!(fs
            .read("/sys/class/infiniband/mlx4_0/ports/1/counters/port_xmit_data")
            .is_none());
    }

    #[test]
    fn frozen_instance_matching() {
        let mut n = active_node();
        n.advance(SimDuration::from_secs(10), &NodeDemand::default());
        assert_eq!(n.set_frozen(DeviceType::Ib, "mlx4_0", true), 1);
        assert_eq!(n.set_frozen(DeviceType::Ib, "mlx4", true), 0);
        assert_eq!(n.set_frozen(DeviceType::Net, "eth0", true), 1);
    }

    #[test]
    fn process_files() {
        let n = active_node();
        let fs = NodeFs::new(&n);
        let pids = fs.list("/proc");
        assert_eq!(pids.len(), 1);
        let pid = &pids[0];
        let status = fs.read(&format!("/proc/{pid}/status")).unwrap();
        assert!(status.contains("Name:\twrf.exe"));
        assert!(status.contains("VmHWM:"));
        assert!(status.contains("Threads:\t16"));
        let comm = fs.read(&format!("/proc/{pid}/comm")).unwrap();
        assert_eq!(comm.trim(), "wrf.exe");
        let stat = fs.read(&format!("/proc/{pid}/stat")).unwrap();
        let utime: u64 = stat.split_whitespace().nth(13).unwrap().parse().unwrap();
        assert!(utime > 0);
    }

    #[test]
    fn crashed_node_reads_nothing() {
        let mut n = active_node();
        n.crash();
        let fs = NodeFs::new(&n);
        assert!(fs.read("/proc/stat").is_none());
        assert!(fs.list("/proc").is_empty());
    }

    #[test]
    fn unknown_paths_are_none() {
        let n = active_node();
        let fs = NodeFs::new(&n);
        assert!(fs.read("/does/not/exist").is_none());
        assert!(fs.read("/proc/99999/status").is_none());
        assert!(fs.list("/nope").is_empty());
    }
}
