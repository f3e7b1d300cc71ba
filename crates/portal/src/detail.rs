//! The per-job detail view (Fig. 5).
//!
//! "The plots in this figure from top to bottom are the following
//! quantities plotted over time for each node reserved for the job:
//! Gigaflops; Memory Bandwidth in GB/s; Memory Usage in GB; Lustre
//! Filesystem Bandwidth in MB/s; Internode Infiniband traffic due to MPI
//! in MB/s; CPU User fraction."

use crate::render;
use std::collections::HashMap;
use tacc_collect::record::{RawFile, Sample};
use tacc_simnode::counter::wrapping_delta;
use tacc_simnode::intern::Sym;
use tacc_simnode::schema::DeviceType;
use tacc_tsdb::{SeriesKey, TagFilter, TsDb};

/// One point of the six-panel series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PanelPoint {
    /// Interval end (Unix seconds).
    pub t: u64,
    /// Node GFLOP/s.
    pub gflops: f64,
    /// Memory bandwidth, GB/s.
    pub mbw_gbs: f64,
    /// Memory usage, GB (gauge at interval end).
    pub mem_gb: f64,
    /// Lustre filesystem bandwidth, MB/s.
    pub lustre_mbs: f64,
    /// Internode Infiniband traffic, MB/s.
    pub ib_mbs: f64,
    /// CPU user fraction.
    pub cpu_user: f64,
}

/// One node's series.
#[derive(Clone, Debug)]
pub struct HostSeries {
    /// Hostname.
    pub hostname: String,
    /// Points in time order.
    pub points: Vec<PanelPoint>,
}

/// The six-panel per-node time series of one job.
#[derive(Clone, Debug)]
pub struct JobTimeSeries {
    /// The job id.
    pub jobid: String,
    /// One series per node, sorted by hostname.
    pub hosts: Vec<HostSeries>,
}

fn cum_events(
    prev: &Sample,
    cur: &Sample,
    rf: &RawFile,
    dt: DeviceType,
    events: &[&str],
    scale: f64,
) -> f64 {
    let Some(schema) = rf.header.schemas.get(&dt) else {
        return 0.0;
    };
    let mut total = 0.0;
    for cur_rec in cur.devices_of(dt) {
        let Some(prev_vals) = prev.device(dt, cur_rec.instance.as_str()) else {
            continue;
        };
        for ev in events {
            let Some(i) = schema.index_of(ev) else {
                continue;
            };
            total += wrapping_delta(prev_vals[i], cur_rec.values[i], schema.events[i].width) as f64;
        }
    }
    total * scale
}

impl JobTimeSeries {
    /// Extract the series for `jobid` from parsed raw files (one per
    /// host-day; multiple files for the same host are merged).
    pub fn extract(raw_files: &[RawFile], jobid: &str) -> JobTimeSeries {
        // Collect each host's samples tagged with the job.
        let mut per_host: HashMap<String, Vec<(&RawFile, &Sample)>> = HashMap::new();
        for rf in raw_files {
            for s in &rf.samples {
                if s.jobids.iter().any(|j| j == jobid) {
                    per_host
                        .entry(rf.header.hostname.to_string())
                        .or_default()
                        .push((rf, s));
                }
            }
        }
        let mut hosts: Vec<HostSeries> = per_host
            .into_iter()
            .map(|(hostname, mut samples)| {
                samples.sort_by_key(|(_, s)| s.time.0);
                let mut points = Vec::new();
                for w in samples.windows(2) {
                    let (rf, prev) = w[0];
                    let (_, cur) = w[1];
                    let dt_s = (cur.time.as_secs() - prev.time.as_secs()) as f64;
                    if dt_s <= 0.0 {
                        continue;
                    }
                    let arch = rf.header.arch;
                    let w_flops = arch.vector_width_flops() as f64;
                    let scalar = cum_events(prev, cur, rf, DeviceType::Cpu, &["FP_SCALAR"], 1.0);
                    let vector = cum_events(prev, cur, rf, DeviceType::Cpu, &["FP_VECTOR"], 1.0);
                    let gflops = (scalar + w_flops * vector) / dt_s / 1e9;
                    let mbw_gbs = cum_events(
                        prev,
                        cur,
                        rf,
                        DeviceType::Imc,
                        &["CAS_READS", "CAS_WRITES"],
                        64.0,
                    ) / dt_s
                        / 1e9;
                    let lustre_mbs = cum_events(
                        prev,
                        cur,
                        rf,
                        DeviceType::Llite,
                        &["read_bytes", "write_bytes"],
                        1.0,
                    ) / dt_s
                        / 1e6;
                    let ib_mbs = cum_events(
                        prev,
                        cur,
                        rf,
                        DeviceType::Ib,
                        &["port_xmit_data", "port_rcv_data"],
                        4.0,
                    ) / dt_s
                        / 1e6;
                    let user = cum_events(prev, cur, rf, DeviceType::Cpustat, &["user"], 1.0);
                    let total = cum_events(
                        prev,
                        cur,
                        rf,
                        DeviceType::Cpustat,
                        &["user", "nice", "system", "idle", "iowait"],
                        1.0,
                    );
                    let cpu_user = if total > 0.0 { user / total } else { 0.0 };
                    // MemUsage gauge at the interval end.
                    let mem_kib: u64 = cur
                        .devices_of(DeviceType::Mem)
                        .filter_map(|r| {
                            rf.header
                                .schemas
                                .get(&DeviceType::Mem)
                                .and_then(|s| s.index_of("MemUsed"))
                                .map(|i| r.values[i])
                        })
                        .sum();
                    points.push(PanelPoint {
                        t: cur.time.as_secs(),
                        gflops,
                        mbw_gbs,
                        mem_gb: mem_kib as f64 * 1024.0 / 1e9,
                        lustre_mbs,
                        ib_mbs,
                        cpu_user,
                    });
                }
                HostSeries { hostname, points }
            })
            .collect();
        hosts.sort_by(|a, b| a.hostname.cmp(&b.hostname));
        JobTimeSeries {
            jobid: jobid.to_string(),
            hosts,
        }
    }

    /// Store the six panels into `db`, one series per host per panel,
    /// keyed `(host, "panel", <jobid>, <panel event>)` — the long-lived
    /// form the portal serves repeat detail-page hits from without
    /// re-reading raw files.
    pub fn store(&self, db: &TsDb) {
        for h in &self.hosts {
            for (_, ev) in PANELS {
                let key = SeriesKey::new(&h.hostname, "panel", &self.jobid, ev);
                for p in &h.points {
                    db.insert(key.clone(), p.t, panel_value(p, ev));
                }
            }
        }
    }

    /// Render the six panels, one sparkline per node per panel.
    pub fn render(&self) -> String {
        let mut out = format!("=== Job {} detail (Fig. 5 panels) ===\n", self.jobid);
        for (title, ev) in PANELS {
            out.push_str(&format!("--- {title} ---\n"));
            for h in &self.hosts {
                let vals: Vec<f64> = h.points.iter().map(|p| panel_value(p, ev)).collect();
                out.push_str(&panel_line(&h.hostname, &vals));
            }
        }
        out
    }
}

/// The six Fig. 5 panels: display title and the event tag the series is
/// stored under in the time-series database.
const PANELS: [(&str, &str); 6] = [
    ("Gigaflops", "gflops"),
    ("Memory Bandwidth (GB/s)", "mbw_gbs"),
    ("Memory Usage (GB)", "mem_gb"),
    ("Lustre Bandwidth (MB/s)", "lustre_mbs"),
    ("Infiniband MPI (MB/s)", "ib_mbs"),
    ("CPU User Fraction", "cpu_user"),
];

fn panel_value(p: &PanelPoint, ev: &str) -> f64 {
    match ev {
        "gflops" => p.gflops,
        "mbw_gbs" => p.mbw_gbs,
        "mem_gb" => p.mem_gb,
        "lustre_mbs" => p.lustre_mbs,
        "ib_mbs" => p.ib_mbs,
        "cpu_user" => p.cpu_user,
        _ => 0.0,
    }
}

fn panel_line(host: impl std::fmt::Display, vals: &[f64]) -> String {
    let max = vals.iter().cloned().fold(0.0, f64::max);
    format!(
        "  {:<12} {} (max {})\n",
        host,
        render::sparkline(vals),
        render::num(max)
    )
}

/// Render the Fig. 5 detail panels straight out of the time-series
/// store. Each series is streamed through [`TsDb::range_for_each`] into
/// one reused value buffer — no intermediate `Vec<DataPoint>` is
/// materialized per series, which is what keeps repeat detail-page
/// renders off the allocator.
pub fn render_job_detail(db: &TsDb, jobid: &str) -> String {
    let filter = TagFilter::any().dev_type("panel").device(jobid);
    let keys = db.keys(&filter);
    // Keys sort host-first (string order), so hosts come out sorted.
    let mut hosts: Vec<Sym> = keys.iter().map(|k| k.host).collect();
    hosts.dedup();
    let mut out = format!("=== Job {jobid} detail (Fig. 5 panels) ===\n");
    let mut vals: Vec<f64> = Vec::new();
    for (title, ev) in PANELS {
        out.push_str(&format!("--- {title} ---\n"));
        for &host in &hosts {
            let key = SeriesKey {
                host,
                dev_type: Sym::new("panel"),
                device: Sym::new(jobid),
                event: Sym::new(ev),
            };
            vals.clear();
            db.range_for_each(&key, 0, u64::MAX, |_, v| vals.push(v));
            out.push_str(&panel_line(host.as_str(), &vals));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacc_collect::discovery::{discover, BuildOptions};
    use tacc_collect::engine::Sampler;
    use tacc_collect::record::RawFile;
    use tacc_simnode::pseudofs::NodeFs;
    use tacc_simnode::topology::NodeTopology;
    use tacc_simnode::workload::{LustreDemand, NodeDemand};
    use tacc_simnode::{SimDuration, SimNode, SimTime};

    /// Build raw files for a 2-node job where only node 0 does Lustre
    /// I/O (the Fig. 5 signature: "actual Lustre bandwidth utilization
    /// is small and restricted to a single node").
    fn job_raw_files() -> Vec<RawFile> {
        let mut out = Vec::new();
        for node_idx in 0..2usize {
            let mut node = SimNode::new(format!("c401-{node_idx:04}"), NodeTopology::stampede());
            node.spawn_process("wrf.exe", 9999, 16, 0xFFFF);
            let cfg = {
                let fs = NodeFs::new(&node);
                discover(&fs, BuildOptions::default()).unwrap()
            };
            let mut sampler = Sampler::new(&node.hostname.clone(), &cfg);
            let mut rf = RawFile::new(sampler.header().clone());
            let demand = NodeDemand {
                active_cores: 16,
                cpu_user_frac: if node_idx == 0 { 0.5 } else { 0.7 },
                cpu_iowait_frac: if node_idx == 0 { 0.3 } else { 0.0 },
                flops_per_sec: 1e10,
                mem_bw_bytes_per_sec: 5e9,
                mem_used_bytes: 6 << 30,
                ib_bytes_per_sec: 5e7,
                lustre: if node_idx == 0 {
                    vec![LustreDemand {
                        mdc_reqs_per_sec: 140_000.0,
                        mdc_wait_us: 200.0,
                        osc_reqs_per_sec: 10.0,
                        osc_wait_us: 1000.0,
                        opens_per_sec: 15_000.0,
                        getattr_per_sec: 30_000.0,
                        read_bytes_per_sec: 2e6,
                        write_bytes_per_sec: 3e6,
                    }]
                } else {
                    vec![]
                },
                ..NodeDemand::default()
            };
            for k in 0..=6u64 {
                if k > 0 {
                    node.advance(SimDuration::from_secs(600), &demand);
                }
                let fs = NodeFs::new(&node);
                let s =
                    sampler.sample(&fs, SimTime::from_secs(600 * k), &["4242".to_string()], &[]);
                rf.samples.push(s);
            }
            out.push(rf);
        }
        out
    }

    #[test]
    fn extracts_per_node_series() {
        let files = job_raw_files();
        let ts = JobTimeSeries::extract(&files, "4242");
        assert_eq!(ts.hosts.len(), 2);
        assert_eq!(ts.hosts[0].points.len(), 6);
        // Node 0 has Lustre traffic, node 1 none.
        let l0 = ts.hosts[0].points.iter().map(|p| p.lustre_mbs).sum::<f64>();
        let l1 = ts.hosts[1].points.iter().map(|p| p.lustre_mbs).sum::<f64>();
        assert!(l0 > 1.0, "node 0 lustre {l0}");
        assert!(l1 < 0.01, "node 1 lustre {l1}");
        // CPU user fraction differs by node (low on the I/O node).
        let c0 = ts.hosts[0].points[0].cpu_user;
        let c1 = ts.hosts[1].points[0].cpu_user;
        assert!(c0 < 0.6 && c1 > 0.6, "c0={c0} c1={c1}");
        // GFLOPS around 10.
        assert!((ts.hosts[1].points[0].gflops - 10.0).abs() < 0.5);
        // Memory gauge around 6.4 GB.
        assert!((ts.hosts[0].points[0].mem_gb - 6.44).abs() < 0.3);
    }

    #[test]
    fn unknown_job_yields_empty_series() {
        let files = job_raw_files();
        let ts = JobTimeSeries::extract(&files, "999999");
        assert!(ts.hosts.is_empty());
    }

    #[test]
    fn render_contains_all_six_panels() {
        let files = job_raw_files();
        let ts = JobTimeSeries::extract(&files, "4242");
        let s = ts.render();
        for panel in [
            "Gigaflops",
            "Memory Bandwidth",
            "Memory Usage",
            "Lustre Bandwidth",
            "Infiniband MPI",
            "CPU User Fraction",
        ] {
            assert!(s.contains(panel), "missing {panel}");
        }
        assert!(s.contains("c401-0000"));
        assert!(s.contains("c401-0001"));
    }

    #[test]
    fn tsdb_backed_render_matches_in_memory_render() {
        let files = job_raw_files();
        let ts = JobTimeSeries::extract(&files, "4242");
        let db = TsDb::new();
        ts.store(&db);
        assert_eq!(db.n_series(), 12, "6 panels x 2 hosts");
        // Streaming the panels back out of the store reproduces the
        // point-vec render byte for byte.
        assert_eq!(render_job_detail(&db, "4242"), ts.render());
        // A job with no stored panels renders an empty detail header.
        let empty = render_job_detail(&db, "999999");
        assert!(empty.contains("=== Job 999999"));
        assert!(!empty.contains("c401-"));
    }
}
