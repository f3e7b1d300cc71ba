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
//!
//! The text side is split in two. The `parse_*` functions are the
//! grammars of the pseudo-files — text in, values out, read through the
//! crate's one tokenizer (bytes for ASCII text, the `str` grammar for a
//! text that holds anything else) — and are public so that
//! `tests/collect_parse_props.rs` can hold each against the `str`-method
//! parser it replaced. The collectors around them only find the files:
//! paths whose instance is fixed by discovery are built once, at
//! construction, and a name read from a file keeps the symbol it got in
//! the previous collection for as long as it reads the same
//! ([`Scratch`]'s name cache).

use crate::record::{DeviceRecord, PsRecord, ValueVec};
use crate::tokens::{parse_dec, parse_dec32, parse_hex, AsciiTokens, Tokens, UnicodeTokens};
use tacc_simnode::intern::Sym;
use tacc_simnode::node::{
    UncoreDev, MSR_DRAM_ENERGY_STATUS, MSR_FIXED_CTR0, MSR_FIXED_CTR1, MSR_FIXED_CTR2,
    MSR_PKG_ENERGY_STATUS, MSR_PMC0, MSR_PP0_ENERGY_STATUS,
};
use tacc_simnode::pseudofs::NodeFs;
use tacc_simnode::schema::DeviceType;
use tacc_simnode::topology::CpuArch;

/// The name read at each record position of each device type in the
/// previous collection, beside its symbol. A node's names do not change
/// from sample to sample, so interning one is a `memcmp` against what
/// was there last time — no table lock, no hash — and a table lookup
/// only when it differs.
#[derive(Default)]
struct NameCache {
    seen: [Vec<(&'static str, Sym)>; DeviceType::ALL.len()],
}

impl NameCache {
    /// The symbol of `name`, the `i`th name of `dt` in this collection.
    fn sym(&mut self, dt: DeviceType, i: usize, name: &str) -> Sym {
        let Some(seen) = self.seen.get_mut(dt as usize) else {
            return Sym::new(name);
        };
        if let Some((_, sym)) = seen.get(i).filter(|(text, _)| *text == name) {
            return *sym;
        }
        let sym = Sym::new(name);
        let entry = (sym.as_str(), sym);
        match seen.get_mut(i) {
            Some(stale) => *stale = entry,
            // Positions are visited in order, so a missing one is the
            // next: the listing grew.
            None => seen.push(entry),
        }
        sym
    }
}

/// The buffers one collection reads through, reused from file to file
/// and from sample to sample (they grow to the node's largest file in
/// the first collection and stay).
#[derive(Default)]
pub struct Scratch {
    /// Text of the pseudo-file being parsed.
    text: String,
    /// Path of the pseudo-file being read.
    path: String,
    /// Directory entry being visited.
    name: String,
    /// Names read in the previous collection.
    names: NameCache,
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

/// A record for a text-backed device.
fn rec<const N: usize>(dev_type: DeviceType, instance: Sym, values: [u64; N]) -> DeviceRecord {
    DeviceRecord {
        dev_type,
        instance,
        values: values.into(),
    }
}

/// Run the parser `$body` over the complete lines of `$text` — every
/// pseudo-file the node renders ends with a newline, so a read cut off
/// mid-file leaves a last line without one, and parsing that fragment
/// would turn a truncated counter like `12345` into a plausible-looking
/// `123`; the fragment is never seen: an absent reading, never a wrong
/// one — as bytes when the text is ASCII, by the `str` grammar when it
/// is not.
macro_rules! over_lines {
    ($text:expr, $body:ident $(, $arg:expr)*) => {
        if $text.is_ascii() {
            $body(AsciiTokens::lines($text) $(, $arg)*)
        } else {
            $body(UnicodeTokens::lines($text) $(, $arg)*)
        }
    };
}

/// Record `val` as the value of `key` if it is one of `keys`: the last
/// line of a key decides, and a value that is no number un-finds it.
fn keyed_value<const N: usize>(
    found: &mut [Option<u64>; N],
    keys: &[&str; N],
    key: &str,
    val: Option<u64>,
) {
    let slot = keys.iter().position(|k| *k == key);
    if let Some(slot) = slot.and_then(|i| found.get_mut(i)) {
        *slot = val;
    }
}

/// All of `found`, or `None` if any is missing.
fn all_found<T: Copy + Default, const N: usize>(found: [Option<T>; N]) -> Option<[T; N]> {
    let mut values = [T::default(); N];
    for (v, f) in values.iter_mut().zip(found) {
        *v = f?;
    }
    Some(values)
}

/// The line's first `N` tokens that are numbers.
fn numbers<'t, const N: usize>(toks: &mut impl Tokens<'t>) -> Option<[u64; N]> {
    let mut values = [0u64; N];
    for v in &mut values {
        *v = toks.next_number()?;
    }
    Some(values)
}

/// `/proc/stat`: `f(<N>, [user, nice, system, idle, iowait])` for each
/// `cpu<N> user nice system idle iowait …` line. The aggregate `cpu `
/// line, one field short once its first is read as the name, is not
/// one of them.
pub fn parse_proc_stat<'t>(text: &'t str, f: impl FnMut(&'t str, [u64; 5])) {
    over_lines!(text, proc_stat, f)
}

fn proc_stat<'t>(mut toks: impl Tokens<'t>, mut f: impl FnMut(&'t str, [u64; 5])) {
    'lines: while toks.next_line() {
        if !toks.eat("cpu") {
            continue;
        }
        let Some(cpu) = toks.next_tok() else { continue };
        let index = parse_dec(cpu, &mut true).and_then(|v| usize::try_from(v).ok());
        if index.is_none() {
            continue;
        }
        let mut values = [0u64; 5];
        for v in &mut values {
            match toks.next_dec(&mut true) {
                Some(Some(n)) => *v = n,
                _ => continue 'lines,
            }
        }
        f(cpu, values);
    }
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
        let mut i = 0;
        parse_proc_stat(&s.text, |cpu, values| {
            let instance = s.names.sym(DeviceType::Cpustat, i, cpu);
            out.push(rec(DeviceType::Cpustat, instance, values));
            i += 1;
        });
    }
}

/// A per-NUMA-node `meminfo`: `[MemTotal, MemUsed, FilePages,
/// AnonPages]` from its `Node 0 MemTotal:  33554432 kB` lines. `None`
/// if any of the four is missing: a truncated read loses the tail keys,
/// and the node is absent for this sample rather than reported with
/// zeros.
pub fn parse_meminfo(text: &str) -> Option<[u64; 4]> {
    over_lines!(text, meminfo)
}

fn meminfo<'t>(mut toks: impl Tokens<'t>) -> Option<[u64; 4]> {
    let keys = ["MemTotal:", "MemUsed:", "FilePages:", "AnonPages:"];
    let mut found = [None; 4];
    while toks.next_line() {
        if let (Some(key), Some(val)) = (toks.nth_tok(2), toks.next_dec(&mut true)) {
            keyed_value(&mut found, &keys, key, val);
        }
    }
    all_found(found)
}

/// Per-NUMA-node memory from `/sys/devices/system/node/node*/meminfo`.
pub struct MemCollector {
    /// `(meminfo path, instance)` of each NUMA node discovery found.
    nodes: Vec<(String, Sym)>,
}

impl MemCollector {
    /// New collector for NUMA nodes `0..numa_nodes`.
    // alloc: cold-fn (collector construction)
    pub fn new(numa_nodes: usize) -> Self {
        let nodes = index_syms(numa_nodes)
            .into_iter()
            .map(|n| (format!("/sys/devices/system/node/node{n}/meminfo"), n))
            .collect();
        MemCollector { nodes }
    }
}

impl Collector for MemCollector {
    fn dev_type(&self) -> DeviceType {
        DeviceType::Mem
    }

    fn collect_into(&self, fs: &NodeFs<'_>, s: &mut Scratch, out: &mut Vec<DeviceRecord>) {
        for (path, instance) in &self.nodes {
            if !fs.read_into(path, &mut s.text) {
                continue;
            }
            if let Some(values) = parse_meminfo(&s.text) {
                out.push(rec(DeviceType::Mem, *instance, values));
            }
        }
    }
}

/// `/proc/net/dev`: `f(<iface>, [rx_bytes, rx_packets, tx_bytes,
/// tx_packets])` for each interface line after the two header lines,
/// `lo` excepted. Fields: `rx_bytes rx_packets …` (8 rx fields)
/// `tx_bytes tx_packets …`.
pub fn parse_net_dev<'t>(text: &'t str, f: impl FnMut(&'t str, [u64; 4])) {
    over_lines!(text, net_dev, f)
}

fn net_dev<'t>(mut toks: impl Tokens<'t>, mut f: impl FnMut(&'t str, [u64; 4])) {
    if !(toks.next_line() && toks.next_line()) {
        return;
    }
    while toks.next_line() {
        let Some(iface) = toks.until(b':') else {
            continue;
        };
        let iface = iface.trim();
        if iface == "lo" {
            continue;
        }
        if let Some([rx_bytes, rx_packets, _, _, _, _, _, _, tx_bytes, tx_packets]) =
            numbers(&mut toks)
        {
            f(iface, [rx_bytes, rx_packets, tx_bytes, tx_packets]);
        }
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
        let mut i = 0;
        parse_net_dev(&s.text, |iface, values| {
            let instance = s.names.sym(DeviceType::Net, i, iface);
            out.push(rec(DeviceType::Net, instance, values));
            i += 1;
        });
    }
}

/// A sysfs file holding one number on one line. A truncated value is no
/// value.
pub fn parse_counter_file(text: &str) -> Option<u64> {
    if !text.ends_with('\n') {
        return None;
    }
    parse_dec(text.trim(), &mut true)
}

/// The four port counters an [`IbCollector`] reads, in schema order.
const IB_COUNTERS: [&str; 4] = [
    "port_xmit_data",
    "port_rcv_data",
    "port_xmit_pkts",
    "port_rcv_pkts",
];

/// Infiniband port counters from sysfs.
pub struct IbCollector {
    /// `(counter paths, instance)` of port 1 of each HCA discovery
    /// found. All our HCAs are single-port.
    ports: Vec<([String; 4], Sym)>,
}

impl IbCollector {
    /// New collector for port 1 of each of `hcas`.
    // alloc: cold-fn (collector construction)
    pub fn new(hcas: &[String]) -> Self {
        let ports = hcas
            .iter()
            .map(|hca| {
                let paths = IB_COUNTERS
                    .map(|c| format!("/sys/class/infiniband/{hca}/ports/1/counters/{c}"));
                (paths, Sym::new(&format!("{hca}/1")))
            })
            .collect();
        IbCollector { ports }
    }
}

impl Collector for IbCollector {
    fn dev_type(&self) -> DeviceType {
        DeviceType::Ib
    }

    fn collect_into(&self, fs: &NodeFs<'_>, s: &mut Scratch, out: &mut Vec<DeviceRecord>) {
        'ports: for (paths, instance) in &self.ports {
            let mut values = [0u64; 4];
            for (value, path) in values.iter_mut().zip(paths) {
                if !fs.read_into(path, &mut s.text) {
                    continue 'ports;
                }
                match parse_counter_file(&s.text) {
                    Some(v) => *value = v,
                    None => continue 'ports,
                }
            }
            out.push(rec(DeviceType::Ib, *instance, values));
        }
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
pub fn parse_lustre_stats<const N: usize>(
    text: &str,
    names: &[&str; N],
) -> Option<[(u64, u64); N]> {
    over_lines!(text, lustre_stats, names)
}

fn lustre_stats<'t, const N: usize>(
    mut toks: impl Tokens<'t>,
    names: &[&str; N],
) -> Option<[(u64, u64); N]> {
    let mut found = [None; N];
    while toks.next_line() {
        let Some(name) = toks.next_tok() else {
            continue;
        };
        let slot = names.iter().position(|n| *n == name);
        let Some(slot) = slot.and_then(|i| found.get_mut(i)) else {
            continue;
        };
        // The first line of a name wins.
        if slot.is_some() {
            continue;
        }
        let Some(count) = toks.next_dec(&mut true) else {
            continue;
        };
        // Four tokens at least: `<name> <count> samples [<unit>]`.
        if toks.nth_tok(1).is_none() {
            continue;
        }
        let Some(count) = count else {
            continue;
        };
        let sum = toks.nth_tok(2).and_then(|t| parse_dec(t, &mut true));
        *slot = Some((count, sum.unwrap_or(0)));
    }
    all_found(found)
}

/// One record per `stats` file under the Lustre directory `dir`, named
/// after the filesystem: the `names` lines of the file, mapped to the
/// device's schema order by `values`. The directory is listed every
/// time — its entries end in a mount-specific suffix no configuration
/// knows.
fn collect_lustre<const N: usize, const M: usize>(
    (dev_type, dir): (DeviceType, &str),
    names: &[&str; N],
    values: impl Fn([(u64, u64); N]) -> [u64; M],
    fs: &NodeFs<'_>,
    s: &mut Scratch,
    out: &mut Vec<DeviceRecord>,
) {
    let Scratch {
        text,
        path,
        name,
        names: seen,
    } = s;
    let mut i = 0;
    fs.for_each_entry(dir, name, |entry| {
        path.clear();
        for part in [dir, "/", entry, "/stats"] {
            path.push_str(part);
        }
        if !fs.read_into(path, text) {
            return;
        }
        let fsname = entry.split('-').next().unwrap_or(entry);
        if let Some(stats) = parse_lustre_stats(text, names) {
            out.push(rec(dev_type, seen.sym(dev_type, i, fsname), values(stats)));
            i += 1;
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

/// `/proc/sys/lnet/stats`: `[send_length, recv_length, send_count,
/// recv_count]`. Real layout: `msgs_alloc msgs_max errors send_count
/// recv_count route_count drop_count send_length recv_length …`. A
/// single-line file: without its newline it was truncated.
pub fn parse_lnet_stats(text: &str) -> Option<[u64; 4]> {
    if !text.ends_with('\n') {
        return None;
    }
    over_lines!(text, lnet_stats)
}

fn lnet_stats<'t>(mut toks: impl Tokens<'t>) -> Option<[u64; 4]> {
    // The first nine numbers of the file, wherever its lines break.
    let mut fields = [0u64; 9];
    let mut unread = fields.iter_mut();
    while toks.next_line() {
        while let Some(v) = toks.next_number() {
            match unread.next() {
                Some(field) => *field = v,
                None => break,
            }
        }
    }
    if unread.next().is_some() {
        return None;
    }
    let [_, _, _, send_count, recv_count, _, _, send_length, recv_length] = fields;
    Some([send_length, recv_length, send_count, recv_count])
}

/// Lustre networking statistics from `/proc/sys/lnet/stats`.
pub struct LnetCollector;

impl Collector for LnetCollector {
    fn dev_type(&self) -> DeviceType {
        DeviceType::Lnet
    }

    fn collect_into(&self, fs: &NodeFs<'_>, s: &mut Scratch, out: &mut Vec<DeviceRecord>) {
        if !fs.read_into("/proc/sys/lnet/stats", &mut s.text) {
            return;
        }
        if let Some(values) = parse_lnet_stats(&s.text) {
            let instance = s.names.sym(DeviceType::Lnet, 0, "lnet");
            out.push(rec(DeviceType::Lnet, instance, values));
        }
    }
}

/// A Xeon Phi `stats` file: `[user_sum, sys_sum, idle_sum]`. `None` if
/// any of the three is missing — a half-read file reported with zeros
/// would read downstream as two counters that were reset.
pub fn parse_mic_stats(text: &str) -> Option<[u64; 3]> {
    over_lines!(text, mic_stats)
}

fn mic_stats<'t>(mut toks: impl Tokens<'t>) -> Option<[u64; 3]> {
    let keys = ["user_sum", "sys_sum", "idle_sum"];
    let mut found = [None; 3];
    while toks.next_line() {
        if let (Some(key), Some(val)) = (toks.next_tok(), toks.next_dec(&mut true)) {
            keyed_value(&mut found, &keys, key, val);
        }
    }
    all_found(found)
}

/// Xeon Phi utilization, read from the host (§III-B item 2).
pub struct MicCollector {
    /// `(stats path, instance)` of each card discovery found.
    cards: Vec<(String, Sym)>,
}

impl MicCollector {
    /// New collector for `cards`.
    // alloc: cold-fn (collector construction)
    pub fn new(cards: &[String]) -> Self {
        let cards = cards
            .iter()
            .map(|c| (format!("/sys/class/mic/{c}/stats"), Sym::new(c)))
            .collect();
        MicCollector { cards }
    }
}

impl Collector for MicCollector {
    fn dev_type(&self) -> DeviceType {
        DeviceType::Mic
    }

    fn collect_into(&self, fs: &NodeFs<'_>, s: &mut Scratch, out: &mut Vec<DeviceRecord>) {
        for (path, instance) in &self.cards {
            if !fs.read_into(path, &mut s.text) {
                continue;
            }
            if let Some(values) = parse_mic_stats(&s.text) {
                out.push(rec(DeviceType::Mic, *instance, values));
            }
        }
    }
}

/// What a `/proc/<pid>/status` line holds, by its key.
#[derive(Clone, Copy)]
enum StatusField {
    /// `Name:` — the executable's name, the whole value.
    Name,
    /// `Uid:` — real, effective, saved and filesystem uid; the first is
    /// read.
    Uid,
    /// A decimal for this position of the `ps` schema.
    Dec(usize),
    /// A hexadecimal mask for this position of the `ps` schema.
    Hex(usize),
}

impl StatusField {
    fn of(key: &str) -> Option<StatusField> {
        Some(match key {
            "Name" => StatusField::Name,
            "Uid" => StatusField::Uid,
            "VmSize" => StatusField::Dec(0),
            "VmHWM" => StatusField::Dec(1),
            "VmRSS" => StatusField::Dec(2),
            "VmLck" => StatusField::Dec(3),
            "VmData" => StatusField::Dec(4),
            "VmStk" => StatusField::Dec(5),
            "VmExe" => StatusField::Dec(6),
            "Threads" => StatusField::Dec(7),
            "Cpus_allowed" => StatusField::Hex(9),
            "Mems_allowed" => StatusField::Hex(10),
            _ => return None,
        })
    }
}

/// Position of `utime` (field 14 of `/proc/<pid>/stat`) in the `ps` schema.
const PS_UTIME_SLOT: usize = 8;

/// What a `/proc/<pid>/status` file says.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PidStatus<'t> {
    /// `Name:`, trimmed; empty if the file has none.
    pub comm: &'t str,
    /// `Uid:`'s first number; 0 if the file has none.
    pub uid: u32,
    /// The `ps` schema's values, those read from this file filled in.
    pub values: [Option<u64>; 11],
}

impl PidStatus<'_> {
    /// Record the number read for `field`: the last line of a key
    /// decides, and a value that is no number un-finds it.
    fn set(&mut self, field: StatusField, value: Option<u64>) {
        match field {
            StatusField::Name => {}
            StatusField::Uid => {
                let uid = value.and_then(|v| u32::try_from(v).ok());
                self.uid = uid.unwrap_or(0);
            }
            StatusField::Dec(slot) | StatusField::Hex(slot) => {
                if let Some(slot) = self.values.get_mut(slot) {
                    *slot = value;
                }
            }
        }
    }
}

/// `/proc/<pid>/status`, its complete lines. A value's first token is
/// the one `split_ascii_whitespace` yields — the kernel writes a tab
/// before it — which, unlike every other grammar here, does not end at a
/// vertical tab, and splits at no whitespace beyond ASCII: so a text
/// holding either goes by that `str` method, and only a text holding
/// neither through the byte cursor.
pub fn parse_pid_status(text: &str) -> PidStatus<'_> {
    let mut status = PidStatus {
        comm: "",
        uid: 0,
        values: [None; 11],
    };
    if text.is_ascii() && !text.as_bytes().contains(&0x0b) {
        let mut toks = AsciiTokens::lines(text);
        while toks.next_line() {
            let Some(field) = toks.until(b':').and_then(StatusField::of) else {
                continue;
            };
            let value = match field {
                StatusField::Name => {
                    status.comm = toks.rest_of_line().trim();
                    continue;
                }
                StatusField::Hex(_) => toks.next_tok().and_then(parse_hex),
                _ => toks.next_dec(&mut true).flatten(),
            };
            status.set(field, value);
        }
    } else {
        let mut toks = UnicodeTokens::lines(text);
        while toks.next_line() {
            let Some(field) = toks.until(b':').and_then(StatusField::of) else {
                continue;
            };
            let val = toks.rest_of_line();
            let first = val.split_ascii_whitespace().next();
            let value = match field {
                StatusField::Name => {
                    status.comm = val.trim();
                    continue;
                }
                StatusField::Hex(_) => first.and_then(parse_hex),
                _ => first.and_then(|t| parse_dec(t, &mut true)),
            };
            status.set(field, value);
        }
    }
    status
}

/// `utime`: field 14 (1-based) of the one line of `/proc/<pid>/stat`.
pub fn parse_pid_stat(text: &str) -> Option<u64> {
    over_lines!(text, pid_stat)
}

fn pid_stat<'t>(mut toks: impl Tokens<'t>) -> Option<u64> {
    if !toks.next_line() {
        return None;
    }
    parse_dec(toks.nth_tok(13)?, &mut true)
}

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
        let Scratch {
            text,
            path,
            name,
            names,
        } = s;
        let mut i = 0;
        fs.for_each_entry("/proc", name, |pid_s| {
            let Some(pid) = parse_dec32(pid_s, &mut true) else {
                return;
            };
            path.clear();
            path.push_str("/proc/");
            path.push_str(pid_s);
            let dir = path.len();
            // utime from /proc/<pid>/stat, read first: `status`, whose
            // `Name:` the record's `comm` borrows, then stays in `text`.
            path.push_str("/stat");
            if !fs.read_into(path, text) {
                return;
            }
            let utime = parse_pid_stat(text);
            path.truncate(dir);
            path.push_str("/status");
            if !fs.read_into(path, text) {
                return;
            }
            let mut status = parse_pid_status(text);
            if let Some(slot) = status.values.get_mut(PS_UTIME_SLOT) {
                *slot = utime;
            }
            if let Some(values) = all_found(status.values) {
                out.push(PsRecord {
                    pid,
                    comm: names.sym(DeviceType::Ps, i, status.comm),
                    uid: status.uid,
                    values: values.into(),
                });
                i += 1;
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
        assert_eq!(
            recs[3].values,
            n.device(DeviceType::Cpu, 3).unwrap().read_all()
        );
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
            assert_eq!(recs[0].values, n.device(dt, 0).unwrap().read_all());
        }
    }

    #[test]
    fn rapl_collector_reads_both_sockets() {
        let n = running_node();
        let fs = NodeFs::new(&n);
        let recs = RaplCollector::new(2, 8).collect(&fs);
        assert_eq!(recs.len(), 2);
        assert!(recs[0].values[0] > 0);
        assert_eq!(
            recs[1].values,
            n.device(DeviceType::Rapl, 1).unwrap().read_all()
        );
    }

    #[test]
    fn cpustat_parses_proc_stat() {
        let n = running_node();
        let fs = NodeFs::new(&n);
        let recs = CpustatCollector.collect(&fs);
        assert_eq!(recs.len(), 16); // aggregate line excluded
        assert_eq!(recs[0].instance, "0");
        for (c, rec) in recs.iter().enumerate() {
            assert_eq!(
                rec.values,
                n.device(DeviceType::Cpustat, c).unwrap().read_all()
            );
        }
    }

    #[test]
    fn mem_collector_reads_numa_nodes() {
        let n = running_node();
        let fs = NodeFs::new(&n);
        let recs = MemCollector::new(2).collect(&fs);
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
        assert_eq!(
            recs[0].values,
            n.device(DeviceType::Net, 0).unwrap().read_all()
        );
    }

    #[test]
    fn ib_collector_reads_port_counters() {
        let n = running_node();
        let fs = NodeFs::new(&n);
        let recs = IbCollector::new(&["mlx4_0".to_string()]).collect(&fs);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].instance, "mlx4_0/1");
        assert_eq!(
            recs[0].values,
            n.device(DeviceType::Ib, 0).unwrap().read_all()
        );
    }

    #[test]
    fn lustre_collectors_parse_stats_files() {
        let n = running_node();
        let fs = NodeFs::new(&n);
        let llite = LliteCollector.collect(&fs);
        assert_eq!(llite.len(), 2);
        assert_eq!(llite[0].instance, "scratch");
        assert_eq!(
            llite[0].values,
            n.device(DeviceType::Llite, 0).unwrap().read_all()
        );
        let mdc = MdcCollector.collect(&fs);
        assert_eq!(
            mdc[0].values,
            n.device(DeviceType::Mdc, 0).unwrap().read_all()
        );
        let osc = OscCollector.collect(&fs);
        assert_eq!(
            osc[0].values,
            n.device(DeviceType::Osc, 0).unwrap().read_all()
        );
        let lnet = LnetCollector.collect(&fs);
        assert_eq!(
            lnet[0].values,
            n.device(DeviceType::Lnet, 0).unwrap().read_all()
        );
    }

    #[test]
    fn mic_collector_reads_cards() {
        let n = running_node();
        let fs = NodeFs::new(&n);
        let recs = MicCollector::new(&["mic0".to_string()]).collect(&fs);
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
        assert!(IbCollector::new(&[]).collect(&fs).is_empty());
        assert!(MicCollector::new(&[]).collect(&fs).is_empty());
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
