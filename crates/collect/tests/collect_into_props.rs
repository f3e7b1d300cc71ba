//! The node-side collection path runs in caller-owned buffers
//! (`NodeFs::read_into` / `for_each_entry`, `Collector::collect_into`,
//! `Sampler::sample_into`, one `Sample` reused by the daemon). Two things
//! must hold for that to be safe:
//!
//! * **Reuse does not leak.** Over random sequences of node activity,
//!   process churn, read faults on every path the collectors read,
//!   crashes, reboots and changing job ids and marks, one `Sampler`
//!   refilling one `Sample` equals, at every step, a second `Sampler`
//!   returning a fresh value; and the `_into` readers equal the
//!   owned-return ones on every path and directory.
//! * **Bytes do not drift.** `golden/` pins every pseudo-file and two
//!   daemon messages of a fixed Stampede node and of a fixed Lonestar 5
//!   node, byte for byte, each as the renderers of the commit before a
//!   rewrite wrote them (`format!` per line for the first, `write!` per
//!   file for the second; the renderers now write bytes without `fmt`).
//!
//! The vendored proptest is primitive-only, so raw integer draws are
//! decoded into operations inside the test body.

use bytes::Bytes;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use tacc_collect::daemon::{Publisher, TaccStatsd};
use tacc_collect::discovery::{discover, BuildOptions};
use tacc_collect::engine::Sampler;
use tacc_collect::record::Sample;
use tacc_simnode::faults::{ReadFault, ReadFaultMode};
use tacc_simnode::pseudofs::NodeFs;
use tacc_simnode::topology::NodeTopology;
use tacc_simnode::workload::{LustreDemand, NodeDemand};
use tacc_simnode::{SimDuration, SimNode, SimTime};

const DIRS: [&str; 7] = [
    "/proc",
    "/sys/devices/system/node",
    "/proc/fs/lustre/llite",
    "/proc/fs/lustre/mdc",
    "/proc/fs/lustre/osc",
    "/sys/class/infiniband",
    "/sys/class/mic",
];

/// Every pseudo-file the node serves right now, in a fixed order.
fn all_paths(fs: &NodeFs<'_>) -> Vec<String> {
    let mut paths: Vec<String> = [
        "/proc/cpuinfo",
        "/proc/stat",
        "/proc/net/dev",
        "/proc/sys/lnet/stats",
    ]
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
        for file in ["status", "comm", "stat"] {
            paths.push(format!("/proc/{pid}/{file}"));
        }
    }
    paths
}

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
            },
            LustreDemand {
                mdc_reqs_per_sec: 3.0,
                mdc_wait_us: 90.0,
                osc_reqs_per_sec: 1.0,
                osc_wait_us: 400.0,
                opens_per_sec: 0.1,
                getattr_per_sec: 0.7,
                read_bytes_per_sec: 1.9e4,
                write_bytes_per_sec: 0.0,
            },
        ],
        ..NodeDemand::default()
    }
}

/// The Stampede node `golden/*_stampede.txt` were written from.
fn stampede_golden_node() -> SimNode {
    let mut n = SimNode::new("c401-0001", NodeTopology::stampede());
    n.spawn_process("wrf.exe", 5000, 16, 0xFFFF);
    n.spawn_process("sshd", 0, 1, 0x1);
    let d = busy_demand();
    n.advance(SimDuration::from_secs(600), &d);
    n.advance(SimDuration::from_secs(613), &d);
    n
}

/// The Lonestar 5 node `golden/*_lonestar5.txt` were written from:
/// Haswell, 48 logical CPUs (two-digit CPU names, a 12-digit affinity
/// mask), no MIC, one Lustre filesystem.
fn lonestar5_golden_node() -> SimNode {
    let mut n = SimNode::new("nid00001", NodeTopology::lonestar5());
    n.spawn_process("namd2", 5001, 48, 0xFFFF_FFFF_FFFF);
    n.spawn_process("python2.7", 5001, 3, 0xF0F0);
    n.spawn_process("sshd", 0, 1, 0x1);
    let d = NodeDemand {
        active_cores: 24,
        ..busy_demand()
    };
    n.advance(SimDuration::from_secs(600), &d);
    n.advance(SimDuration::from_secs(587), &d);
    n
}

fn sampler_for(node: &SimNode) -> Sampler {
    let cfg = discover(&NodeFs::new(node), BuildOptions::default()).expect("discovery");
    Sampler::new(&node.hostname, &cfg)
}

/// Every directory listing and every pseudo-file of `node`, in the
/// golden files' layout.
fn render_pseudofs(node: &SimNode) -> String {
    let fs = NodeFs::new(node);
    let mut got = String::new();
    for dir in DIRS {
        let _ = writeln!(got, "==> ls {dir} <==");
        for e in fs.list(dir) {
            let _ = writeln!(got, "{e}");
        }
    }
    for path in all_paths(&fs) {
        let _ = writeln!(got, "==> {path} <==");
        got.push_str(&fs.read(&path).expect("golden path readable"));
    }
    got
}

#[test]
fn pseudo_files_match_golden_bytes() {
    assert_eq!(
        render_pseudofs(&stampede_golden_node()),
        include_str!("golden/pseudofs_stampede.txt")
    );
    assert_eq!(
        render_pseudofs(&lonestar5_golden_node()),
        include_str!("golden/pseudofs_lonestar5.txt")
    );
}

/// A transport that keeps what the daemon hands it.
struct Capture(Arc<Mutex<Vec<Bytes>>>);

impl Publisher for Capture {
    fn publish(&mut self, _queue: &str, _key: &str, _seq: u64, payload: Bytes) -> bool {
        self.0.lock().expect("capture lock").push(payload);
        true
    }
}

/// Two collections of `node` through a daemon's one reused `Sample`: a
/// marked one, then an interval one whose marks must come out empty.
fn render_daemon_messages(node: &SimNode) -> Vec<u8> {
    let fs = NodeFs::new(node);
    let sent = Arc::new(Mutex::new(Vec::new()));
    let mut d = TaccStatsd::new(
        sampler_for(node),
        SimDuration::from_mins(10),
        "stats",
        Box::new(Capture(Arc::clone(&sent))),
        SimTime::from_secs(1_443_657_600),
    );
    d.set_jobs(vec!["3001".to_string(), "3002".to_string()]);
    d.collect_marked(&fs, SimTime::from_secs(1_443_657_000), "begin 3001");
    d.tick(&fs, SimTime::from_secs(1_443_657_600));
    let sent = sent.lock().expect("capture lock");
    assert_eq!(sent.len(), 2);
    sent.iter().flat_map(|b| b.iter().copied()).collect()
}

#[test]
fn daemon_messages_match_golden_bytes() {
    let goldens: [(SimNode, &[u8]); 2] = [
        (
            stampede_golden_node(),
            include_bytes!("golden/daemon_messages_stampede.txt"),
        ),
        (
            lonestar5_golden_node(),
            include_bytes!("golden/daemon_messages_lonestar5.txt"),
        ),
    ];
    for (node, want) in goldens {
        let got = render_daemon_messages(&node);
        assert_eq!(String::from_utf8_lossy(&got), String::from_utf8_lossy(want));
    }
}

/// `read_into == read` on every path and `for_each_entry == list` on
/// every directory, through one pair of reused buffers.
fn assert_into_equals_owned(fs: &NodeFs<'_>, paths: &BTreeSet<String>, buf: &mut String) {
    for path in paths {
        // Left-over text must not survive a failed or shorter read.
        buf.push_str("left over from the previous read");
        let ok = fs.read_into(path, buf);
        assert_eq!(
            ok.then_some(buf.as_str()),
            fs.read(path).as_deref(),
            "{path}"
        );
        assert!(ok || buf.is_empty(), "{path}: failed read left text behind");
    }
    for dir in DIRS.into_iter().chain(["/no/such/dir"]) {
        let mut seen = Vec::new();
        fs.for_each_entry(dir, buf, |e| seen.push(e.to_string()));
        assert_eq!(seen, fs.list(dir), "{dir}");
    }
}

/// The prefix a fault is installed on: the file itself, or everything in
/// its directory.
fn fault_prefix(path: &str, whole_dir: bool) -> String {
    match path.rfind('/') {
        Some(cut) if whole_dir && cut > 0 => path[..cut].to_string(),
        _ => path.to_string(),
    }
}

proptest! {
    #[test]
    fn reused_sample_equals_fresh_sample(ops in collection::vec(any::<u64>(), 1..48)) {
        let mut node = SimNode::new("c401-0001", NodeTopology::stampede());
        let mut reusing = sampler_for(&node);
        let mut fresh = sampler_for(&node);
        let mut reused = Sample::default();
        let mut buf = String::new();
        // Paths ever served: a crashed or faulted node must agree on
        // the ones it no longer serves, too.
        let mut paths: BTreeSet<String> = BTreeSet::new();
        paths.insert("/does/not/exist".to_string());
        let demands = [NodeDemand::idle(), busy_demand()];
        let comms = ["wrf.exe", "namd2", "sshd"];
        let mut jobids: Vec<String> = Vec::new();
        let mut marks: Vec<String> = Vec::new();
        let mut now = SimTime::from_secs(1_443_657_600);
        for op in ops {
            let arg = op >> 8;
            match op % 8 {
                0 | 1 => {
                    let dt = SimDuration::from_secs(1 + arg % 900);
                    node.advance(dt, &demands[(arg >> 10) as usize % 2]);
                    now = now + dt;
                }
                2 => {
                    let uid = if arg % 3 == 0 { 0 } else { 5000 + (arg % 7) as u32 };
                    node.spawn_process(comms[arg as usize % 3], uid, 1 + (arg % 16) as u32, arg >> 4);
                }
                3 => {
                    if let Some(p) = node.processes().get(arg as usize % 4) {
                        let pid = p.pid;
                        node.end_process(pid);
                    }
                }
                4 => {
                    // Up to three faults on files (or directories) the
                    // node has served; an empty set clears them.
                    let known: Vec<&String> = paths.iter().collect();
                    let faults = (0..arg % 4)
                        .map(|i| {
                            let pick = (arg >> (8 + 12 * i)) as usize;
                            ReadFault {
                                prefix: fault_prefix(known[pick % known.len()], pick & 1024 != 0),
                                mode: if pick & 2048 != 0 {
                                    ReadFaultMode::Missing
                                } else {
                                    ReadFaultMode::Truncated
                                },
                            }
                        })
                        .collect();
                    node.set_read_faults(faults);
                }
                5 => {
                    if node.is_crashed() {
                        node.reboot();
                    } else if arg % 4 == 0 {
                        node.crash();
                    }
                }
                6 => {
                    jobids = (0..arg % 3).map(|i| format!("{}", 3000 + (arg >> 4) % 50 + i)).collect();
                }
                _ => {
                    marks = (0..arg % 3).map(|i| format!("begin {}", 3000 + (arg >> 4) % 50 + i)).collect();
                }
            }
            let fs = NodeFs::new(&node);
            paths.extend(all_paths(&fs));
            assert_into_equals_owned(&fs, &paths, &mut buf);
            reusing.sample_into(&fs, now, &jobids, &marks, &mut reused);
            let want = fresh.sample(&fs, now, &jobids, &marks);
            prop_assert_eq!(&reused, &want);
            prop_assert_eq!(reusing.degraded_reads(), fresh.degraded_reads());
            prop_assert_eq!(reusing.busy_until(), fresh.busy_until());
            let (a, b) = (reusing.account(), fresh.account());
            prop_assert_eq!((a.busy, a.collections), (b.busy, b.collections));
        }
    }
}
