//! The collectors read the node's pseudo-files through the crate's byte
//! tokenizer (`collectors::parse_*` over `tokens`), and the node renders
//! them, as the codec renders messages, through one integer writer
//! (`tacc_simnode::digits`). Neither may change a parsed value or a
//! written byte, so this file holds what they were written against:
//!
//! * The `ref_*` functions are the collectors' parsers as they stood
//!   before — `str::lines`, `split_whitespace`, `split_once`,
//!   `str::parse`, `from_str_radix` — kept here as the oracle. Over the
//!   real `NodeFs` output of a Stampede and a Lonestar 5 node, cut at
//!   every byte offset and put through the deviations a procfs reader
//!   may meet (tabs, repeated spaces, `\r`, vertical tabs and non-ASCII
//!   whitespace inside and between tokens; `+`-prefixed, zero-padded,
//!   20-digit and overflowing numbers; upper-case hex masks; duplicate,
//!   missing and reordered lines; fragments without a newline), every
//!   `parse_*` returns exactly what its reference returns — for its own
//!   file and for everybody else's.
//! * [`ref_collect`] is the collectors' directory walk as it stood:
//!   list, join, read, parse. Under random read faults — files and
//!   whole pid directories that vanish between the listing and the
//!   read, reads cut short — a `Sampler`'s text-backed records equal it
//!   record for record. (The one deliberate difference is pinned in
//!   [`ref_mic_stats`]: a half-read mic file now yields no record.)
//! * The writer writes every `u64` as `{}` and `{:x}` do.
//! * A counting allocator holds `Sampler::sample_into` at 0 allocations
//!   in steady state and a `TaccStatsd` collection at no more than 2.
//!
//! The vendored proptest is primitive-only, so a drawn seed is expanded
//! into mutations inside the test body.

use bytes::Bytes;
use proptest::prelude::*;
use proptest::TestRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tacc_collect::collectors::{
    parse_counter_file, parse_lnet_stats, parse_lustre_stats, parse_meminfo, parse_mic_stats,
    parse_net_dev, parse_pid_stat, parse_pid_status, parse_proc_stat,
};
use tacc_collect::daemon::{Publisher, TaccStatsd};
use tacc_collect::discovery::{discover, BuildOptions};
use tacc_collect::engine::Sampler;
use tacc_collect::record::Sample;
use tacc_simnode::digits;
use tacc_simnode::faults::{ReadFault, ReadFaultMode};
use tacc_simnode::pseudofs::NodeFs;
use tacc_simnode::schema::DeviceType;
use tacc_simnode::topology::NodeTopology;
use tacc_simnode::workload::{LustreDemand, NodeDemand};
use tacc_simnode::{SimDuration, SimNode, SimTime};

// ------------------------------------------------------------ allocator

thread_local! {
    /// Allocation events (allocs and reallocs) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting per thread so that tests running in
/// parallel do not see each other's allocations.
struct CountingAlloc;

fn count() {
    // Ignored during thread teardown, when the slot is already gone.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every operation is delegated unchanged to the system
// allocator; the counter is a const-initialised thread-local `Cell`
// that never allocates and has no effect on what is returned.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// ------------------------------------------------------------ reference

/// Lines of `text` known to be complete: the fragment after the last
/// `\n` is dropped.
fn ref_complete_lines(text: &str) -> std::str::Lines<'_> {
    match text.rfind('\n').and_then(|i| text.get(..i + 1)) {
        Some(head) => head.lines(),
        None => "".lines(),
    }
}

/// The values of those `(key, value)` lines whose key is one of `keys`,
/// in `keys` order; `None` for a key with no numeric line of its own.
fn ref_keyed_values<'t, const N: usize>(
    lines: impl Iterator<Item = (&'t str, &'t str)>,
    keys: &[&str; N],
) -> [Option<u64>; N] {
    let mut found = [None; N];
    for (key, val) in lines {
        if let Some(slot) = keys.iter().position(|k| *k == key) {
            found[slot] = val.parse().ok();
        }
    }
    found
}

fn ref_all_found<T: Copy + Default, const N: usize>(found: [Option<T>; N]) -> Option<[T; N]> {
    let mut values = [T::default(); N];
    for (v, f) in values.iter_mut().zip(found) {
        *v = f?;
    }
    Some(values)
}

/// `CpustatCollector`'s body.
fn ref_proc_stat(text: &str) -> Vec<(String, [u64; 5])> {
    let mut out = Vec::new();
    for line in ref_complete_lines(text) {
        let Some(rest) = line.strip_prefix("cpu") else {
            continue;
        };
        let mut toks = rest.split_whitespace();
        let Some(first) = toks.next() else { continue };
        if first.parse::<usize>().is_err() {
            continue;
        }
        let values: Vec<u64> = toks.take(5).filter_map(|t| t.parse().ok()).collect();
        if let Ok(values) = <[u64; 5]>::try_from(values) {
            out.push((first.to_string(), values));
        }
    }
    out
}

/// `MemCollector`'s body, per file.
fn ref_meminfo(text: &str) -> Option<[u64; 4]> {
    let lines = ref_complete_lines(text).filter_map(|line| {
        let mut toks = line.split_whitespace().skip(2);
        Some((toks.next()?, toks.next()?))
    });
    let keys = ["MemTotal:", "MemUsed:", "FilePages:", "AnonPages:"];
    ref_all_found(ref_keyed_values(lines, &keys))
}

/// `NetCollector`'s body.
fn ref_net_dev(text: &str) -> Vec<(String, [u64; 4])> {
    let mut out = Vec::new();
    for line in ref_complete_lines(text).skip(2) {
        let Some((iface, rest)) = line.split_once(':') else {
            continue;
        };
        let iface = iface.trim();
        if iface == "lo" {
            continue;
        }
        let mut f = rest.split_whitespace().filter_map(|t| t.parse().ok());
        let (Some(rx_bytes), Some(rx_packets)) = (f.next(), f.next()) else {
            continue;
        };
        let (Some(tx_bytes), Some(tx_packets)) = (f.nth(6), f.next()) else {
            continue;
        };
        out.push((
            iface.to_string(),
            [rx_bytes, rx_packets, tx_bytes, tx_packets],
        ));
    }
    out
}

/// `IbCollector`'s body, per counter file.
fn ref_counter_file(text: &str) -> Option<u64> {
    if !text.ends_with('\n') {
        return None;
    }
    text.trim().parse().ok()
}

/// `parse_lustre_stats` as it stood.
fn ref_lustre_stats<const N: usize>(text: &str, names: &[&str; N]) -> Option<[(u64, u64); N]> {
    let mut found = [None; N];
    for line in ref_complete_lines(text) {
        let mut toks = line.split_whitespace();
        let (Some(name), Some(count)) = (toks.next(), toks.next()) else {
            continue;
        };
        if toks.nth(1).is_none() {
            continue;
        }
        let Ok(count) = count.parse::<u64>() else {
            continue;
        };
        let sum = toks.nth(2).and_then(|t| t.parse().ok()).unwrap_or(0);
        if let Some(slot) = names.iter().position(|n| *n == name) {
            found[slot].get_or_insert((count, sum));
        }
    }
    ref_all_found(found)
}

/// `LnetCollector`'s body, in schema order.
fn ref_lnet_stats(text: &str) -> Option<[u64; 4]> {
    if !text.ends_with('\n') {
        return None;
    }
    let mut f = text
        .split_whitespace()
        .filter_map(|t| t.parse::<u64>().ok());
    let (send_count, recv_count) = (f.nth(3)?, f.next()?);
    let (send_length, recv_length) = (f.nth(2)?, f.next()?);
    Some([send_length, recv_length, send_count, recv_count])
}

/// `MicCollector`'s body — but for its last step: it used to report a
/// key it had not found as 0 (`found.map(|v| v.unwrap_or(0))`), which
/// turned a half-read file into counters that had fallen to zero. The
/// rule every other collector follows applies now: any key missing, no
/// record.
fn ref_mic_stats(text: &str) -> Option<[u64; 3]> {
    let lines = ref_complete_lines(text).filter_map(|line| {
        let mut toks = line.split_whitespace();
        Some((toks.next()?, toks.next()?))
    });
    ref_all_found(ref_keyed_values(
        lines,
        &["user_sum", "sys_sum", "idle_sum"],
    ))
}

fn ref_ps_status_slot(key: &str) -> Option<(usize, u32)> {
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

/// The `status` half of `PsCollector`'s body: `(comm, uid, values)`.
fn ref_pid_status(text: &str) -> (String, u32, [Option<u64>; 11]) {
    let mut comm = String::new();
    let mut uid = 0u32;
    let mut values: [Option<u64>; 11] = [None; 11];
    for line in ref_complete_lines(text) {
        let Some((key, val)) = line.split_once(':') else {
            continue;
        };
        let first = val.split_ascii_whitespace().next();
        match key {
            "Name" => comm = val.trim().to_string(),
            "Uid" => uid = first.and_then(|t| t.parse().ok()).unwrap_or(0),
            _ => {
                let Some((slot, radix)) = ref_ps_status_slot(key) else {
                    continue;
                };
                values[slot] = first.and_then(|t| u64::from_str_radix(t, radix).ok());
            }
        }
    }
    (comm, uid, values)
}

/// The `stat` half of `PsCollector`'s body: utime, field 14.
fn ref_pid_stat(text: &str) -> Option<u64> {
    ref_complete_lines(text)
        .next()
        .and_then(|line| line.split_whitespace().nth(13)?.parse().ok())
}

const LLITE_NAMES: [&str; 8] = [
    "read_bytes",
    "write_bytes",
    "open",
    "close",
    "getattr",
    "statfs",
    "seek",
    "fsync",
];
const MDC_NAMES: [&str; 1] = ["req_waittime"];
const OSC_NAMES: [&str; 3] = ["req_waittime", "read_bytes", "write_bytes"];

/// Every `parse_*` against its reference on one text.
fn assert_parsers_agree(text: &str) {
    let mut cpus = Vec::new();
    parse_proc_stat(text, |cpu, values| cpus.push((cpu.to_string(), values)));
    assert_eq!(cpus, ref_proc_stat(text), "/proc/stat grammar on {text:?}");
    assert_eq!(
        parse_meminfo(text),
        ref_meminfo(text),
        "meminfo on {text:?}"
    );
    let mut ifaces = Vec::new();
    parse_net_dev(text, |iface, values| {
        ifaces.push((iface.to_string(), values))
    });
    assert_eq!(ifaces, ref_net_dev(text), "/proc/net/dev on {text:?}");
    assert_eq!(
        parse_counter_file(text),
        ref_counter_file(text),
        "counter file on {text:?}"
    );
    assert_eq!(
        parse_lustre_stats(text, &LLITE_NAMES),
        ref_lustre_stats(text, &LLITE_NAMES),
        "llite stats on {text:?}"
    );
    assert_eq!(
        parse_lustre_stats(text, &MDC_NAMES),
        ref_lustre_stats(text, &MDC_NAMES),
        "mdc stats on {text:?}"
    );
    assert_eq!(
        parse_lustre_stats(text, &OSC_NAMES),
        ref_lustre_stats(text, &OSC_NAMES),
        "osc stats on {text:?}"
    );
    assert_eq!(
        parse_lnet_stats(text),
        ref_lnet_stats(text),
        "lnet stats on {text:?}"
    );
    assert_eq!(
        parse_mic_stats(text),
        ref_mic_stats(text),
        "mic stats on {text:?}"
    );
    let status = parse_pid_status(text);
    assert_eq!(
        (status.comm.to_string(), status.uid, status.values),
        ref_pid_status(text),
        "/proc/<pid>/status on {text:?}"
    );
    assert_eq!(
        parse_pid_stat(text),
        ref_pid_stat(text),
        "/proc/<pid>/stat on {text:?}"
    );
}

// ------------------------------------------------------------ corpus

fn busy_demand() -> NodeDemand {
    NodeDemand {
        active_cores: 12,
        cpu_user_frac: 0.83,
        cpu_sys_frac: 0.04,
        cpu_iowait_frac: 0.01,
        flops_per_sec: 4.7e10,
        vector_frac: 0.6,
        mem_bw_bytes_per_sec: 2.3e10,
        mem_used_bytes: 9 << 30,
        ib_bytes_per_sec: 1.3e8,
        gige_bytes_per_sec: 2.9e4,
        mic_user_frac: 0.2,
        lustre: vec![
            LustreDemand {
                mdc_reqs_per_sec: 50.0,
                mdc_wait_us: 210.0,
                osc_reqs_per_sec: 20.0,
                osc_wait_us: 1100.0,
                opens_per_sec: 2.0,
                getattr_per_sec: 11.0,
                read_bytes_per_sec: 3.1e6,
                write_bytes_per_sec: 7.3e6,
            };
            2
        ],
        ..NodeDemand::default()
    }
}

/// A Stampede and a Lonestar 5 node, mid-job. One process has a
/// non-ASCII name, so its `status` and `stat` are read by the `str`
/// grammar even before any mutation.
fn nodes() -> Vec<SimNode> {
    let mut stampede = SimNode::new("c401-0001", NodeTopology::stampede());
    stampede.spawn_process("wrf.exe", 5000, 16, 0xFFFF);
    stampede.spawn_process("sshd", 0, 1, 0x1);
    let mut lonestar5 = SimNode::new("nid00001", NodeTopology::lonestar5());
    lonestar5.spawn_process("namd2", 5001, 48, 0xFFFF_FFFF_FFFF);
    lonestar5.spawn_process("解析.exe", 5001, 3, u64::MAX);
    let mut nodes = vec![stampede, lonestar5];
    for (n, secs) in nodes.iter_mut().zip([1213, 1187]) {
        n.advance(SimDuration::from_secs(600), &busy_demand());
        n.advance(SimDuration::from_secs(secs), &busy_demand());
    }
    nodes
}

/// Every pseudo-file a collector reads on `fs`.
fn collector_paths(fs: &NodeFs<'_>) -> Vec<String> {
    let mut paths: Vec<String> = ["/proc/stat", "/proc/net/dev", "/proc/sys/lnet/stats"]
        .map(String::from)
        .to_vec();
    for dir in fs.list("/sys/devices/system/node") {
        paths.push(format!("/sys/devices/system/node/{dir}/meminfo"));
    }
    for hca in fs.list("/sys/class/infiniband") {
        for counter in [
            "port_xmit_data",
            "port_rcv_data",
            "port_xmit_pkts",
            "port_rcv_pkts",
        ] {
            paths.push(format!(
                "/sys/class/infiniband/{hca}/ports/1/counters/{counter}"
            ));
        }
    }
    for kind in ["llite", "mdc", "osc"] {
        for dir in fs.list(&format!("/proc/fs/lustre/{kind}")) {
            paths.push(format!("/proc/fs/lustre/{kind}/{dir}/stats"));
        }
    }
    for card in fs.list("/sys/class/mic") {
        paths.push(format!("/sys/class/mic/{card}/stats"));
    }
    for pid in fs.list("/proc") {
        for file in ["status", "stat"] {
            paths.push(format!("/proc/{pid}/{file}"));
        }
    }
    paths
}

/// The text of every file of [`collector_paths`] on both nodes.
fn corpus() -> Vec<String> {
    let mut texts = Vec::new();
    for node in nodes() {
        let fs = NodeFs::new(&node);
        for path in collector_paths(&fs) {
            texts.push(fs.read(&path).expect("a collector's file is readable"));
        }
    }
    texts
}

// ------------------------------------------------------------ mutations

/// Separators a reader may meet where the node writes a space or a tab:
/// ASCII whitespace of every kind, none at all, and whitespace only
/// `char::is_whitespace` knows.
const SEPARATORS: [&str; 13] = [
    "\t",
    "  ",
    " \t ",
    "\r",
    "\r\n",
    "\x0b",
    "\x0c",
    "",
    "\u{a0}",
    "\u{85}",
    "\u{2003}",
    "\u{3000}",
    " \u{2028}",
];

/// Numbers at and past the edges of `u64` and of the grammars.
const NUMBERS: [&str; 12] = [
    "0",
    "00",
    "+7",
    "007",
    "-1",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999",
    "184467440737095516150",
    "4294967295",
    "4294967296",
    "12x",
];

/// Masks at and past the edges of the hexadecimal grammar.
const MASKS: [&str; 8] = [
    "FFFF",
    "fFfF",
    "+ff",
    "ffffffffffffffff",
    "FFFFFFFFFFFFFFFF",
    "1ffffffffffffffff",
    "0x1f",
    "g1",
];

fn pick<'a>(rng: &mut TestRng, from: &[&'a str]) -> &'a str {
    from[rng.below(from.len() as u64) as usize]
}

/// A random offset of `text` that is a char boundary.
fn offset(rng: &mut TestRng, text: &str) -> usize {
    let mut at = rng.below(text.len() as u64 + 1) as usize;
    while !text.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// The byte ranges of `text`'s maximal runs of bytes accepted by `of`.
fn runs(text: &str, of: impl Fn(u8) -> bool) -> Vec<(usize, usize)> {
    let mut found = Vec::new();
    let mut start = None;
    for (i, b) in text.bytes().chain([b'\n']).enumerate() {
        match (of(b) && i < text.len(), start) {
            (true, None) => start = Some(i),
            (false, Some(s)) => {
                found.push((s, i));
                start = None;
            }
            _ => {}
        }
    }
    found
}

/// Replace one random run of `of`-bytes of `text` by `with(run)`.
fn replace_run(
    rng: &mut TestRng,
    text: &mut String,
    of: impl Fn(u8) -> bool,
    with: impl FnOnce(&mut TestRng, &str) -> String,
) {
    let found = runs(text, of);
    if found.is_empty() {
        return;
    }
    let (start, end) = found[rng.below(found.len() as u64) as usize];
    let new = with(rng, &text[start..end]);
    text.replace_range(start..end, &new);
}

/// `text`'s lines, each with its line ending.
fn lines_of(text: &str) -> Vec<String> {
    text.split_inclusive('\n').map(String::from).collect()
}

/// One deviation from what the node renders, applied to `text`.
fn mutate(rng: &mut TestRng, text: &mut String) {
    match rng.below(14) {
        // A read cut short.
        0 => text.truncate(offset(rng, text)),
        // Another separator where the node writes a space or a tab.
        1 | 2 => replace_run(
            rng,
            text,
            |b| b == b' ' || b == b'\t',
            |rng, _| pick(rng, &SEPARATORS).to_string(),
        ),
        // Whitespace anywhere — inside a token as well as between two.
        3 => {
            let at = offset(rng, text);
            text.insert_str(at, pick(rng, &SEPARATORS));
        }
        // A number from the edges of the grammar, or this one dressed up.
        4 | 5 => replace_run(
            rng,
            text,
            |b| b.is_ascii_digit(),
            |rng, run| match rng.below(5) {
                0 => format!("+{run}"),
                1 => format!("0{run}"),
                2 => format!("{run}9999999999999999999"),
                _ => pick(rng, &NUMBERS).to_string(),
            },
        ),
        // A mask in another case, or from the edges of the grammar.
        6 => replace_run(
            rng,
            text,
            |b| b.is_ascii_hexdigit(),
            |rng, run| match rng.below(3) {
                0 => run.to_uppercase(),
                _ => pick(rng, &MASKS).to_string(),
            },
        ),
        // A line twice, possibly far from itself.
        7 => {
            let mut lines = lines_of(text);
            if !lines.is_empty() {
                let line = lines[rng.below(lines.len() as u64) as usize].clone();
                lines.insert(rng.below(lines.len() as u64 + 1) as usize, line);
                *text = lines.concat();
            }
        }
        // A line gone.
        8 => {
            let mut lines = lines_of(text);
            if !lines.is_empty() {
                lines.remove(rng.below(lines.len() as u64) as usize);
                *text = lines.concat();
            }
        }
        // Two lines the other way round.
        9 => {
            let mut lines = lines_of(text);
            if lines.len() >= 2 {
                let (a, b) = (
                    rng.below(lines.len() as u64) as usize,
                    rng.below(lines.len() as u64) as usize,
                );
                lines.swap(a, b);
                *text = lines.concat();
            }
        }
        // DOS line endings, one or all.
        10 => {
            if rng.below(2) == 0 {
                *text = text.replace('\n', "\r\n");
            } else {
                replace_run(rng, text, |b| b == b'\n', |_, _| "\r\n".to_string());
            }
        }
        // A fragment after the last newline.
        11 => text.push_str(pick(
            rng,
            &["7", "cpu9 1 2 3 4 5", "Uid:\t7", "open 1 samples [regs]"],
        )),
        // A letter beyond ASCII, so that the line — were it plain so
        // far — is read by the `str` grammar.
        12 => {
            let at = offset(rng, text);
            text.insert_str(at, pick(rng, &["é", "名", "\u{200b}"]));
        }
        // A key of the file given to another line.
        _ => {
            let lines = lines_of(text);
            if lines.len() >= 2 {
                let from = &lines[rng.below(lines.len() as u64) as usize];
                let key: String = from
                    .chars()
                    .take_while(|c| !c.is_whitespace() && *c != ':')
                    .collect();
                replace_run(
                    rng,
                    text,
                    |b| b.is_ascii_alphabetic() || b == b'_',
                    |_, _| key,
                );
            }
        }
    }
}

// ------------------------------------------------------------ parsers

#[test]
fn parsers_agree_on_what_the_node_renders() {
    for text in corpus() {
        assert_parsers_agree(&text);
    }
}

#[test]
fn parsers_agree_on_every_truncation() {
    for text in corpus() {
        for cut in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
            assert_parsers_agree(&text[..cut]);
        }
    }
}

proptest! {
    #[test]
    fn parsers_agree_on_mutated_files(seed in any::<u64>()) {
        let corpus = corpus();
        let mut rng = TestRng::seed_from_u64(seed);
        for _ in 0..24 {
            let mut text = corpus[rng.below(corpus.len() as u64) as usize].clone();
            for _ in 0..1 + rng.below(4) {
                mutate(&mut rng, &mut text);
                assert_parsers_agree(&text);
            }
        }
    }

    /// Whitespace-separated junk: words, numbers and separators of
    /// every kind in no particular shape.
    #[test]
    fn parsers_agree_on_line_shaped_junk(seed in any::<u64>()) {
        let words = [
            "cpu", "cpu3", "Node", "0", "MemTotal:", "MemUsed:", "kB", "eth0:", "lo:", "open",
            "read_bytes", "req_waittime", "samples", "[regs]", "user_sum", "idle_sum", "Name:",
            "Uid:", "VmSize:", "VmRSS:\t12", "Threads:", "Cpus_allowed:\tff", "Mems_allowed:", ":",
            "(a b)", "é",
        ];
        let mut rng = TestRng::seed_from_u64(seed);
        for _ in 0..48 {
            let mut text = String::new();
            for _ in 0..rng.below(40) {
                match rng.below(8) {
                    0 => text.push('\n'),
                    1 | 2 => text.push_str(pick(&mut rng, &NUMBERS)),
                    3 => text.push_str(pick(&mut rng, &MASKS)),
                    4 => text.push_str(pick(&mut rng, &SEPARATORS)),
                    _ => text.push_str(pick(&mut rng, &words)),
                }
                text.push_str(if rng.below(6) == 0 { "" } else { " " });
            }
            if rng.below(3) > 0 {
                text.push('\n');
            }
            assert_parsers_agree(&text);
        }
    }
}

// ------------------------------------------------------------ collectors

type DeviceRow = (DeviceType, String, Vec<u64>);
type PsRow = (u32, String, u32, Vec<u64>);

/// The text-backed collectors' directory walks as they stood — list the
/// directory, join the path, read, parse — over the owned-return
/// `NodeFs` functions, in the order `build_collectors` runs them.
fn ref_collect(fs: &NodeFs<'_>) -> (Vec<DeviceRow>, Vec<PsRow>) {
    let mut devices: Vec<DeviceRow> = Vec::new();
    if let Some(text) = fs.read("/proc/stat") {
        for (cpu, values) in ref_proc_stat(&text) {
            devices.push((DeviceType::Cpustat, cpu, values.to_vec()));
        }
    }
    for dir in fs.list("/sys/devices/system/node") {
        let Some(idx) = dir.strip_prefix("node") else {
            continue;
        };
        let text = fs.read(&format!("/sys/devices/system/node/{dir}/meminfo"));
        if let Some(values) = text.as_deref().and_then(ref_meminfo) {
            devices.push((DeviceType::Mem, idx.to_string(), values.to_vec()));
        }
    }
    if let Some(text) = fs.read("/proc/net/dev") {
        for (iface, values) in ref_net_dev(&text) {
            devices.push((DeviceType::Net, iface, values.to_vec()));
        }
    }
    for hca in fs.list("/sys/class/infiniband") {
        let values: Option<Vec<u64>> = [
            "port_xmit_data",
            "port_rcv_data",
            "port_xmit_pkts",
            "port_rcv_pkts",
        ]
        .iter()
        .map(|c| {
            let path = format!("/sys/class/infiniband/{hca}/ports/1/counters/{c}");
            fs.read(&path).as_deref().and_then(ref_counter_file)
        })
        .collect();
        if let Some(values) = values {
            devices.push((DeviceType::Ib, format!("{hca}/1"), values));
        }
    }
    let lustre = |dt: DeviceType, kind: &str, parse: &dyn Fn(&str) -> Option<Vec<u64>>| {
        let mut rows = Vec::new();
        let dir = format!("/proc/fs/lustre/{kind}");
        for entry in fs.list(&dir) {
            let Some(text) = fs.read(&format!("{dir}/{entry}/stats")) else {
                continue;
            };
            let fsname = entry.split('-').next().unwrap_or(&entry).to_string();
            if let Some(values) = parse(&text) {
                rows.push((dt, fsname, values));
            }
        }
        rows
    };
    devices.extend(lustre(DeviceType::Llite, "llite", &|text| {
        let [rb, wb, open, close, getattr, statfs, seek, fsync] =
            ref_lustre_stats(text, &LLITE_NAMES)?;
        Some(vec![
            rb.1, wb.1, open.0, close.0, getattr.0, statfs.0, seek.0, fsync.0,
        ])
    }));
    devices.extend(lustre(DeviceType::Mdc, "mdc", &|text| {
        let [(reqs, wait)] = ref_lustre_stats(text, &MDC_NAMES)?;
        Some(vec![reqs, wait])
    }));
    devices.extend(lustre(DeviceType::Osc, "osc", &|text| {
        let [(reqs, wait), rb, wb] = ref_lustre_stats(text, &OSC_NAMES)?;
        Some(vec![reqs, wait, rb.1, wb.1])
    }));
    if let Some(values) = fs
        .read("/proc/sys/lnet/stats")
        .as_deref()
        .and_then(ref_lnet_stats)
    {
        devices.push((DeviceType::Lnet, "lnet".to_string(), values.to_vec()));
    }
    for card in fs.list("/sys/class/mic") {
        let text = fs.read(&format!("/sys/class/mic/{card}/stats"));
        if let Some(values) = text.as_deref().and_then(ref_mic_stats) {
            devices.push((DeviceType::Mic, card, values.to_vec()));
        }
    }

    let mut processes: Vec<PsRow> = Vec::new();
    for pid_s in fs.list("/proc") {
        let Ok(pid) = pid_s.parse::<u32>() else {
            continue;
        };
        let Some(status) = fs.read(&format!("/proc/{pid_s}/status")) else {
            continue;
        };
        let (comm, uid, mut values) = ref_pid_status(&status);
        let Some(stat) = fs.read(&format!("/proc/{pid_s}/stat")) else {
            continue;
        };
        values[8] = ref_pid_stat(&stat);
        if let Some(values) = ref_all_found(values) {
            processes.push((pid, comm, uid, values.to_vec()));
        }
    }
    (devices, processes)
}

/// The text-backed part of a sample, in [`ref_collect`]'s shape.
fn text_backed(sample: &Sample) -> (Vec<DeviceRow>, Vec<PsRow>) {
    let binary = [
        DeviceType::Cpu,
        DeviceType::Imc,
        DeviceType::Qpi,
        DeviceType::Cbo,
        DeviceType::Rapl,
    ];
    let devices = sample
        .devices
        .iter()
        .filter(|d| !binary.contains(&d.dev_type))
        .map(|d| (d.dev_type, d.instance.to_string(), d.values.to_vec()))
        .collect();
    let processes = sample
        .processes
        .iter()
        .map(|p| (p.pid, p.comm.to_string(), p.uid, p.values.to_vec()))
        .collect();
    (devices, processes)
}

fn sampler_for(node: &SimNode) -> Sampler {
    let cfg = discover(&NodeFs::new(node), BuildOptions::default()).expect("discovery");
    Sampler::new(&node.hostname, &cfg)
}

proptest! {
    /// One sampler per node, refilling one `Sample` (so that names and
    /// paths resolved in one collection meet the next one's faults):
    /// files missing or cut short, whole directories of them, pid
    /// directories gone between the listing and the read, processes
    /// coming and going.
    #[test]
    fn collectors_equal_the_reference_walk_under_read_faults(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        for mut node in nodes() {
            let mut sampler = sampler_for(&node);
            let mut sample = Sample::default();
            let paths = collector_paths(&NodeFs::new(&node));
            for step in 0..12u64 {
                match rng.below(4) {
                    0 => {
                        node.spawn_process(pick(&mut rng, &["a.out", "解析.exe", "x y"]), 5002, 2, rng.next_u64());
                    }
                    1 => {
                        if let Some(p) = node.processes().first() {
                            let pid = p.pid;
                            node.end_process(pid);
                        }
                    }
                    _ => node.advance(SimDuration::from_secs(1 + rng.below(600)), &busy_demand()),
                }
                let faults = (0..rng.below(4))
                    .map(|_| {
                        let path = &paths[rng.below(paths.len() as u64) as usize];
                        // The file, its directory, or — for a pid file —
                        // `/proc/<pid>/stat`, which is `status` too.
                        let prefix = match (rng.below(3), path.rfind('/')) {
                            (0, Some(cut)) if cut > 0 => path[..cut].to_string(),
                            (1, _) => path.trim_end_matches("us").to_string(),
                            _ => path.clone(),
                        };
                        let mode = match rng.below(2) {
                            0 => ReadFaultMode::Missing,
                            _ => ReadFaultMode::Truncated,
                        };
                        ReadFault { prefix, mode }
                    })
                    .collect();
                node.set_read_faults(faults);
                let fs = NodeFs::new(&node);
                sampler.sample_into(&fs, SimTime::from_secs(600 * step), &[], &[], &mut sample);
                prop_assert_eq!(text_backed(&sample), ref_collect(&fs));
            }
        }
    }
}

// ------------------------------------------------------------ writer

proptest! {
    /// The one integer writer writes what `{}` and `{:x}` write, at
    /// every digit count: a uniform draw is all 19- and 20-digit
    /// numbers, so it is shifted down by a drawn amount, and each draw
    /// also visits the nearest powers of ten and sixteen.
    #[test]
    fn writer_matches_fmt(v in any::<u64>(), shift in 0u32..64) {
        let v = v >> shift;
        let ten = 10u64.pow(v.checked_ilog10().unwrap_or(0));
        let sixteen = 16u64.pow(v.checked_ilog(16).unwrap_or(0));
        for v in [v, ten - 1, ten, sixteen - 1, sixteen, u64::MAX - v] {
            let mut bytes = b"=".to_vec();
            digits::push_dec(&mut bytes, v);
            prop_assert_eq!(bytes, format!("={v}").into_bytes());
            let mut text = String::from("=");
            digits::push_dec_str(&mut text, v);
            prop_assert_eq!(text, format!("={v}"));
            let mut bytes = b"=".to_vec();
            digits::push_hex(&mut bytes, v);
            prop_assert_eq!(bytes, format!("={v:x}").into_bytes());
        }
    }
}

// ------------------------------------------------------------ allocations

/// A transport that accepts every message and keeps none.
struct Discard;

impl Publisher for Discard {
    fn publish(&mut self, _queue: &str, _key: &str, _seq: u64, _payload: Bytes) -> bool {
        true
    }
}

#[test]
fn steady_state_collection_allocates_nothing_but_the_payload() {
    for node in nodes() {
        let fs = NodeFs::new(&node);
        let jobids = ["3001".to_string()];
        let mut sampler = sampler_for(&node);
        let mut sample = Sample::default();
        // The first collection sizes every buffer.
        sampler.sample_into(&fs, SimTime::from_secs(0), &jobids, &[], &mut sample);
        let before = allocs();
        for k in 1..=16 {
            sampler.sample_into(&fs, SimTime::from_secs(600 * k), &jobids, &[], &mut sample);
        }
        assert_eq!(allocs() - before, 0, "Sampler::sample_into, steady state");

        let start = SimTime::from_secs(1_443_657_600);
        let mut daemon = TaccStatsd::new(
            sampler,
            SimDuration::from_mins(10),
            "stats",
            Box::new(Discard),
            start,
        );
        daemon.set_jobs(jobids.to_vec());
        daemon.tick(&fs, start);
        let before = allocs();
        for k in 1..=16 {
            daemon.tick(&fs, start + SimDuration::from_mins(10 * k));
        }
        assert_eq!(daemon.collected, 17);
        let per_collection = (allocs() - before) as f64 / 16.0;
        assert!(
            per_collection <= 2.0,
            "a TaccStatsd collection allocates the Bytes it hands over, nothing else: {per_collection}"
        );
    }
}
