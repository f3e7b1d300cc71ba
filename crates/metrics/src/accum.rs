//! Streaming metric accumulators.
//!
//! §IV-A: "All counters used to compute the metrics in Table I, aside
//! from those used to derive MemUsage, are cumulative. Therefore
//! infrequent (e.g. 10m) sampling intervals over the lifetime of a job
//! does not prevent an accurate calculation of the ARC." The accumulator
//! exploits exactly that: it holds only the previous sample per device
//! instance, cumulative deltas, per-interval deltas for the *Maximum*
//! metrics, and gauge maxima — so a whole quarter of raw data streams
//! through in one pass.

use crate::table1::{JobMetrics, MetricId};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use tacc_collect::record::{HostHeader, Sample};
use tacc_simnode::counter::wrapping_delta;
use tacc_simnode::intern::Sym;
use tacc_simnode::schema::{DeviceType, EventKind, Schema};
use tacc_simnode::topology::CpuArch;

/// Where a counter's per-interval delta lands in [`IntervalDelta`].
///
/// Resolved once per schema at construction ([`slot_kind`]), so `feed`
/// dispatches on a dense per-event `Vec<SlotKind>` instead of matching
/// event-name strings for every value of every sample.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SlotKind {
    /// Counter feeds cumulative deltas only.
    None,
    /// Lustre metadata requests (MetaDataRate numerator).
    MdcReqs,
    /// Lnet tx/rx bytes (LnetMaxBW numerator).
    LnetBytes,
    /// Infiniband xmit/rcv words — scaled ×4 to bytes on accumulate.
    IbBytes4x,
    /// cpustat `user` jiffies (counted in both user and total).
    CpuUser,
    /// Any other cpustat counter (total jiffies only).
    CpuOther,
}

/// Map one schema event to its interval slot. The `(DeviceType, "name")`
/// pairs here are the interval-tracked quantities of §IV-A's Maximum
/// metrics; `cargo xtask lint` cross-checks them against the schemas.
fn slot_kind(dt: DeviceType, event: &str) -> SlotKind {
    match (dt, event) {
        (DeviceType::Mdc, "reqs") => SlotKind::MdcReqs,
        (DeviceType::Lnet, "tx_bytes") | (DeviceType::Lnet, "rx_bytes") => SlotKind::LnetBytes,
        (DeviceType::Ib, "port_xmit_data") | (DeviceType::Ib, "port_rcv_data") => {
            SlotKind::IbBytes4x
        }
        (DeviceType::Cpustat, "user") => SlotKind::CpuUser,
        (DeviceType::Cpustat, _) => SlotKind::CpuOther,
        _ => SlotKind::None,
    }
}

/// Per-interval deltas needed by Maximum metrics and `catastrophe`.
#[derive(Clone, Copy, Debug, Default)]
struct IntervalDelta {
    len_secs: f64,
    mdc_reqs: f64,
    lnet_bytes: f64,
    ib_bytes: f64,
    user_jiffies: f64,
    total_jiffies: f64,
}

/// Accumulates one host's samples for one job.
pub struct HostAccum {
    arch: CpuArch,
    schemas: BTreeMap<DeviceType, Schema>,
    /// Per-device interval slots in schema-event order, precomputed from
    /// the schemas so `feed` never matches event names per value.
    slots: BTreeMap<DeviceType, Vec<SlotKind>>,
    /// (device type, interned instance) → (time secs, previous raw
    /// values). `Sym` keys make the per-sample lookup a hash of two
    /// integers and the insert allocation-free.
    prev: HashMap<(DeviceType, Sym), (u64, Vec<u64>)>,
    /// Cumulative deltas per device type, summed over instances, in
    /// schema-event order.
    cum: BTreeMap<DeviceType, Vec<f64>>,
    /// Interval-end time → interval deltas.
    intervals: BTreeMap<u64, IntervalDelta>,
    mem_max_kib: u64,
    t_first: Option<u64>,
    t_last: u64,
    n_samples: usize,
}

impl HostAccum {
    /// New accumulator for a host described by `header`.
    pub fn new(header: &HostHeader) -> HostAccum {
        let slots = header
            .schemas
            .iter()
            .map(|(dt, schema)| {
                let kinds = schema
                    .events
                    .iter()
                    .map(|ev| slot_kind(*dt, ev.name.as_str()))
                    .collect();
                (*dt, kinds)
            })
            .collect();
        HostAccum {
            arch: header.arch,
            schemas: header.schemas.clone(),
            slots,
            prev: HashMap::new(),
            cum: BTreeMap::new(),
            intervals: BTreeMap::new(),
            mem_max_kib: 0,
            t_first: None,
            t_last: 0,
            n_samples: 0,
        }
    }

    /// Number of samples fed.
    pub fn n_samples(&self) -> usize {
        self.n_samples
    }

    /// Observation span in seconds.
    pub fn span_secs(&self) -> f64 {
        match self.t_first {
            Some(t0) => (self.t_last - t0) as f64,
            None => 0.0,
        }
    }

    /// Feed the next sample (must be in time order).
    pub fn feed(&mut self, sample: &Sample) {
        let t = sample.time.as_secs();
        if self.t_first.is_none() {
            self.t_first = Some(t);
        }
        let interval_len = if self.n_samples > 0 {
            (t - self.t_last) as f64
        } else {
            0.0
        };
        self.t_last = t;
        self.n_samples += 1;
        let mut iv = IntervalDelta {
            len_secs: interval_len,
            ..IntervalDelta::default()
        };
        let mut mem_now = 0u64;
        for rec in &sample.devices {
            let Some(schema) = self.schemas.get(&rec.dev_type) else {
                continue;
            };
            if rec.values.len() != schema.len() {
                continue; // malformed record: skip defensively
            }
            // Gauges: MemUsage tracking.
            if rec.dev_type == DeviceType::Mem {
                if let Some(idx) = schema.index_of("MemUsed") {
                    mem_now += rec.values[idx];
                }
                continue;
            }
            let key = (rec.dev_type, rec.instance);
            // Steady state reuses the stored buffer in place: one
            // allocation per instance for the life of the accumulator,
            // not one clone per record per sample.
            let prev_slot = match self.prev.entry(key) {
                Entry::Vacant(v) => {
                    v.insert((t, rec.values.to_vec()));
                    continue; // first observation of this instance
                }
                Entry::Occupied(o) => o.into_mut(),
            };
            let cum = self
                .cum
                .entry(rec.dev_type)
                .or_insert_with(|| vec![0.0; schema.len()]);
            let slots = self.slots.get(&rec.dev_type);
            for (i, ev) in schema.events.iter().enumerate() {
                if ev.kind != EventKind::Counter {
                    continue;
                }
                let d = wrapping_delta(prev_slot.1[i], rec.values[i], ev.width) as f64;
                cum[i] += d;
                // Interval-tracked quantities, by precomputed slot.
                let slot = slots
                    .and_then(|s| s.get(i))
                    .copied()
                    .unwrap_or(SlotKind::None);
                match slot {
                    SlotKind::MdcReqs => iv.mdc_reqs += d,
                    SlotKind::LnetBytes => iv.lnet_bytes += d,
                    SlotKind::IbBytes4x => iv.ib_bytes += d * 4.0,
                    SlotKind::CpuUser => {
                        iv.user_jiffies += d;
                        iv.total_jiffies += d;
                    }
                    SlotKind::CpuOther => iv.total_jiffies += d,
                    SlotKind::None => {}
                }
            }
            prev_slot.0 = t;
            prev_slot.1.clear();
            prev_slot.1.extend_from_slice(&rec.values);
        }
        self.mem_max_kib = self.mem_max_kib.max(mem_now);
        if interval_len > 0.0 {
            self.intervals.insert(t, iv);
        }
    }

    /// Cumulative delta of one event, summed over instances.
    fn cum_of(&self, dt: DeviceType, event: &str) -> Option<f64> {
        let schema = self.schemas.get(&dt)?;
        let idx = schema.index_of(event)?;
        self.cum.get(&dt).map(|v| v[idx])
    }

    /// Per-host CPU usage over the whole job (user / total jiffies).
    fn cpu_usage(&self) -> Option<f64> {
        let user = self.cum_of(DeviceType::Cpustat, "user")?;
        let total = ["user", "nice", "system", "idle", "iowait"]
            .iter()
            .filter_map(|e| self.cum_of(DeviceType::Cpustat, e))
            .sum::<f64>();
        if total > 0.0 {
            Some(user / total)
        } else {
            None
        }
    }
}

/// Accumulates all hosts of one job and finalizes into [`JobMetrics`].
#[derive(Default)]
pub struct JobAccum {
    /// Interned hostname → accumulator. `Sym` orders by resolved string,
    /// so iteration stays hostname-sorted; the per-sample entry lookup
    /// allocates nothing.
    hosts: BTreeMap<Sym, HostAccum>,
}

impl JobAccum {
    /// New empty accumulator.
    pub fn new() -> JobAccum {
        JobAccum::default()
    }

    /// Number of hosts seen.
    pub fn n_hosts(&self) -> usize {
        self.hosts.len()
    }

    /// Feed a sample from `host` (creating the host accumulator from its
    /// header on first sight).
    pub fn feed(&mut self, header: &HostHeader, sample: &Sample) {
        self.hosts
            .entry(header.hostname)
            .or_insert_with(|| HostAccum::new(header))
            .feed(sample);
    }

    /// Mean over hosts of a per-host rate (cumulative delta / span).
    fn avg_rate(&self, f: impl Fn(&HostAccum) -> Option<f64>) -> Option<f64> {
        let mut rates = Vec::new();
        for h in self.hosts.values() {
            let span = h.span_secs();
            if span <= 0.0 {
                continue;
            }
            if let Some(c) = f(h) {
                rates.push(c / span);
            }
        }
        if rates.is_empty() {
            None
        } else {
            Some(rates.iter().sum::<f64>() / rates.len() as f64)
        }
    }

    /// Sum over hosts of a cumulative quantity.
    fn sum_cum(&self, f: impl Fn(&HostAccum) -> Option<f64>) -> Option<f64> {
        let vals: Vec<f64> = self.hosts.values().filter_map(&f).collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum())
        }
    }

    /// Maximum over intervals of the node-summed per-interval rate
    /// (the paper's *Maximum* semantics).
    fn max_rate(&self, f: impl Fn(&IntervalDelta) -> f64) -> Option<f64> {
        let mut per_bucket: BTreeMap<u64, (f64, f64)> = BTreeMap::new(); // t → (delta, len)
        for h in self.hosts.values() {
            for (t, iv) in &h.intervals {
                let e = per_bucket.entry(*t).or_insert((0.0, iv.len_secs));
                e.0 += f(iv);
                e.1 = e.1.max(iv.len_secs);
            }
        }
        per_bucket
            .values()
            .filter(|(_, len)| *len > 0.0)
            .map(|(d, len)| d / len)
            .fold(None, |acc, r| Some(acc.map_or(r, |a: f64| a.max(r))))
    }

    /// Build an accumulator for one job from parsed raw files — the
    /// post-hoc path the real pipeline runs daily over the archive
    /// ("TACC Stats maps the raw output from each node to job ids",
    /// §IV-A). Samples are replayed per host in time order.
    pub fn from_raw_files(raw_files: &[tacc_collect::record::RawFile], jobid: &str) -> JobAccum {
        let mut acc = JobAccum::new();
        // Group (file, sample) pairs per host, sort by time, then feed.
        let mut per_host: std::collections::BTreeMap<
            &str,
            Vec<(&tacc_collect::record::HostHeader, &Sample)>,
        > = std::collections::BTreeMap::new();
        for rf in raw_files {
            for s in &rf.samples {
                if s.jobids.iter().any(|j| j == jobid) {
                    per_host
                        .entry(rf.header.hostname.as_str())
                        .or_default()
                        .push((&rf.header, s));
                }
            }
        }
        for (_, mut samples) in per_host {
            samples.sort_by_key(|(_, s)| s.time.0);
            for (h, s) in samples {
                acc.feed(h, s);
            }
        }
        acc
    }

    /// Accumulated RAPL energy deltas (raw 2^-14 J units) summed over
    /// sockets and nodes: `(pkg, pp0, dram, span_secs)`. `None` when no
    /// host exposes RAPL. Rollover of the 32-bit registers is already
    /// corrected per interval by [`HostAccum::feed`].
    pub fn rapl_units(&self) -> Option<(f64, f64, f64, f64)> {
        let mut pkg = 0.0;
        let mut pp0 = 0.0;
        let mut dram = 0.0;
        let mut span: f64 = 0.0;
        let mut any = false;
        for h in self.hosts.values() {
            if let (Some(p), Some(c), Some(d)) = (
                h.cum_of(DeviceType::Rapl, "MSR_PKG_ENERGY_STATUS"),
                h.cum_of(DeviceType::Rapl, "MSR_PP0_ENERGY_STATUS"),
                h.cum_of(DeviceType::Rapl, "MSR_DRAM_ENERGY_STATUS"),
            ) {
                pkg += p;
                pp0 += c;
                dram += d;
                span = span.max(h.span_secs());
                any = true;
            }
        }
        if any {
            Some((pkg, pp0, dram, span))
        } else {
            None
        }
    }

    /// Finalize into the Table I metric set.
    pub fn finalize(&self) -> JobMetrics {
        let mut m = JobMetrics::new();
        let mb = 1e-6;
        // --- Lustre ---
        if let Some(v) = self.max_rate(|iv| iv.mdc_reqs) {
            m.set(MetricId::MetaDataRate, v);
        }
        if let Some(v) = self.avg_rate(|h| h.cum_of(DeviceType::Mdc, "reqs")) {
            m.set(MetricId::MDCReqs, v);
        }
        if let Some(v) = self.avg_rate(|h| h.cum_of(DeviceType::Osc, "reqs")) {
            m.set(MetricId::OSCReqs, v);
        }
        if let (Some(w), Some(r)) = (
            self.sum_cum(|h| h.cum_of(DeviceType::Mdc, "wait")),
            self.sum_cum(|h| h.cum_of(DeviceType::Mdc, "reqs")),
        ) {
            if r > 0.0 {
                m.set(MetricId::MDCWait, w / r);
            }
        }
        if let (Some(w), Some(r)) = (
            self.sum_cum(|h| h.cum_of(DeviceType::Osc, "wait")),
            self.sum_cum(|h| h.cum_of(DeviceType::Osc, "reqs")),
        ) {
            if r > 0.0 {
                m.set(MetricId::OSCWait, w / r);
            }
        }
        if let Some(v) = self.avg_rate(|h| {
            Some(h.cum_of(DeviceType::Llite, "open")? + h.cum_of(DeviceType::Llite, "close")?)
        }) {
            m.set(MetricId::LLiteOpenClose, v);
        }
        if let Some(v) = self.avg_rate(|h| {
            Some(h.cum_of(DeviceType::Lnet, "tx_bytes")? + h.cum_of(DeviceType::Lnet, "rx_bytes")?)
        }) {
            m.set(MetricId::LnetAveBW, v * mb);
        }
        if let Some(v) = self.max_rate(|iv| iv.lnet_bytes) {
            m.set(MetricId::LnetMaxBW, v * mb);
        }
        // --- Network ---
        let ib_bytes = |h: &HostAccum| {
            Some(
                (h.cum_of(DeviceType::Ib, "port_xmit_data")?
                    + h.cum_of(DeviceType::Ib, "port_rcv_data")?)
                    * 4.0,
            )
        };
        if let Some(v) = self.avg_rate(ib_bytes) {
            m.set(MetricId::InternodeIBAveBW, v * mb);
        }
        if let Some(v) = self.max_rate(|iv| iv.ib_bytes) {
            m.set(MetricId::InternodeIBMaxBW, v * mb);
        }
        let ib_pkts = |h: &HostAccum| {
            Some(
                h.cum_of(DeviceType::Ib, "port_xmit_pkts")?
                    + h.cum_of(DeviceType::Ib, "port_rcv_pkts")?,
            )
        };
        if let (Some(b), Some(p)) = (self.sum_cum(ib_bytes), self.sum_cum(ib_pkts)) {
            if p > 0.0 {
                m.set(MetricId::Packetsize, b / p);
            }
        }
        if let Some(v) = self.avg_rate(ib_pkts) {
            m.set(MetricId::Packetrate, v);
        }
        if let Some(v) = self.avg_rate(|h| {
            Some(h.cum_of(DeviceType::Net, "rx_bytes")? + h.cum_of(DeviceType::Net, "tx_bytes")?)
        }) {
            m.set(MetricId::GigEBW, v * mb);
        }
        // --- Processor ---
        if let Some(v) = self.avg_rate(|h| h.cum_of(DeviceType::Cpu, "LOAD_ALL")) {
            m.set(MetricId::LoadAll, v);
        }
        if let Some(v) = self.avg_rate(|h| h.cum_of(DeviceType::Cpu, "LOAD_L1_HIT")) {
            m.set(MetricId::LoadL1Hits, v);
        }
        if let Some(v) = self.avg_rate(|h| h.cum_of(DeviceType::Cpu, "LOAD_L2_HIT")) {
            m.set(MetricId::LoadL2Hits, v);
        }
        if let Some(v) = self.avg_rate(|h| h.cum_of(DeviceType::Cpu, "LOAD_LLC_HIT")) {
            m.set(MetricId::LoadLLCHits, v);
        }
        let cycles = self.sum_cum(|h| h.cum_of(DeviceType::Cpu, "FIXED_CTR1"));
        let inst = self.sum_cum(|h| h.cum_of(DeviceType::Cpu, "FIXED_CTR0"));
        if let (Some(c), Some(i)) = (cycles, inst) {
            if i > 0.0 {
                m.set(MetricId::Cpi, c / i);
            }
        }
        if let (Some(c), Some(l)) = (
            cycles,
            self.sum_cum(|h| h.cum_of(DeviceType::Cpu, "LOAD_ALL")),
        ) {
            if l > 0.0 {
                m.set(MetricId::Cpld, c / l);
            }
        }
        let width = self
            .hosts
            .values()
            .next()
            .map(|h| h.arch.vector_width_flops() as f64)
            .unwrap_or(1.0);
        if let Some(v) = self.avg_rate(|h| {
            Some(
                h.cum_of(DeviceType::Cpu, "FP_SCALAR")?
                    + width * h.cum_of(DeviceType::Cpu, "FP_VECTOR")?,
            )
        }) {
            m.set(MetricId::Flops, v / 1e9); // GF/s per node
        }
        if let (Some(vec), Some(sca)) = (
            self.sum_cum(|h| h.cum_of(DeviceType::Cpu, "FP_VECTOR")),
            self.sum_cum(|h| h.cum_of(DeviceType::Cpu, "FP_SCALAR")),
        ) {
            if vec + sca > 0.0 {
                m.set(MetricId::VecPercent, 100.0 * vec / (vec + sca));
            }
        }
        if let Some(v) = self.avg_rate(|h| {
            Some(
                (h.cum_of(DeviceType::Imc, "CAS_READS")?
                    + h.cum_of(DeviceType::Imc, "CAS_WRITES")?)
                    * 64.0,
            )
        }) {
            m.set(MetricId::Mbw, v * mb);
        }
        // --- OS ---
        let mem_max = self
            .hosts
            .values()
            .map(|h| h.mem_max_kib)
            .max()
            .unwrap_or(0);
        if mem_max > 0 {
            m.set(MetricId::MemUsage, mem_max as f64 * 1024.0 / 1e9); // GB
        }
        let usages: Vec<f64> = self.hosts.values().filter_map(|h| h.cpu_usage()).collect();
        if !usages.is_empty() {
            m.set(
                MetricId::CpuUsage,
                usages.iter().sum::<f64>() / usages.len() as f64,
            );
            let min = usages.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = usages.iter().cloned().fold(0.0, f64::max);
            if max > 0.0 {
                m.set(MetricId::Idle, min / max);
            }
        }
        // catastrophe: min over time windows of node-summed CPU usage,
        // over the max window.
        {
            let mut per_bucket: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
            for h in self.hosts.values() {
                for (t, iv) in &h.intervals {
                    let e = per_bucket.entry(*t).or_insert((0.0, 0.0));
                    e.0 += iv.user_jiffies;
                    e.1 += iv.total_jiffies;
                }
            }
            let fracs: Vec<(u64, f64)> = per_bucket
                .iter()
                .filter(|(_, (_, tot))| *tot > 0.0)
                .map(|(t, (u, tot))| (*t, u / tot))
                .collect();
            if fracs.len() >= 2 {
                let (t_min, min) = fracs
                    .iter()
                    .copied()
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .expect("nonempty");
                let (t_max, max) = fracs
                    .iter()
                    .copied()
                    .max_by(|a, b| a.1.total_cmp(&b.1))
                    .expect("nonempty");
                if max > 0.0 {
                    m.set(MetricId::Catastrophe, min / max);
                    // §V-A: weak window before the strong one = the job
                    // ramped up (compile step); after = it collapsed
                    // (failure).
                    m.trend = Some(if t_min < t_max {
                        crate::table1::TrendDirection::Rise
                    } else {
                        crate::table1::TrendDirection::Drop
                    });
                }
            }
        }
        if let (Some(u), Some(s), Some(i)) = (
            self.sum_cum(|h| h.cum_of(DeviceType::Mic, "user_sum")),
            self.sum_cum(|h| h.cum_of(DeviceType::Mic, "sys_sum")),
            self.sum_cum(|h| h.cum_of(DeviceType::Mic, "idle_sum")),
        ) {
            let tot = u + s + i;
            if tot > 0.0 {
                m.set(MetricId::MicUsage, u / tot);
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacc_collect::discovery::{discover, BuildOptions};
    use tacc_collect::engine::Sampler;
    use tacc_simnode::pseudofs::NodeFs;
    use tacc_simnode::topology::NodeTopology;
    use tacc_simnode::workload::{LustreDemand, NodeDemand};
    use tacc_simnode::{SimDuration, SimNode, SimTime};

    fn demand() -> NodeDemand {
        NodeDemand {
            active_cores: 16,
            cpu_user_frac: 0.8,
            cpu_sys_frac: 0.01,
            cpi: 1.25,
            flops_per_sec: 4.0e10,
            vector_frac: 0.5,
            loads_per_inst: 0.4,
            l1_hit_frac: 0.9,
            l2_hit_frac: 0.05,
            llc_hit_frac: 0.02,
            mem_bw_bytes_per_sec: 1.0e10,
            mem_used_bytes: 20 << 30,
            ib_bytes_per_sec: 1.0e8,
            ib_pkt_size: 2048.0,
            gige_bytes_per_sec: 1.0e5,
            mic_user_frac: 0.25,
            lustre: vec![LustreDemand {
                mdc_reqs_per_sec: 100.0,
                mdc_wait_us: 500.0,
                osc_reqs_per_sec: 40.0,
                osc_wait_us: 2000.0,
                opens_per_sec: 3.0,
                getattr_per_sec: 10.0,
                read_bytes_per_sec: 1e6,
                write_bytes_per_sec: 4e6,
            }],
            ..NodeDemand::default()
        }
    }

    /// Drive `n_nodes` nodes under one demand, sample every 600 s for
    /// `n_intervals`, and return the finalized metrics.
    fn run_job(n_nodes: usize, n_intervals: usize) -> JobMetrics {
        let mut acc = JobAccum::new();
        for node_idx in 0..n_nodes {
            let mut node = SimNode::new(format!("c401-{node_idx:04}"), NodeTopology::stampede());
            let cfg = {
                let fs = NodeFs::new(&node);
                discover(&fs, BuildOptions::default()).unwrap()
            };
            let mut sampler = Sampler::new(&node.hostname.clone(), &cfg);
            let d = demand();
            // Prime the gauges (MemUsed) so even a single sample sees a
            // live node; counters before the first sample never affect
            // deltas.
            node.advance(SimDuration::from_secs(1), &d);
            for k in 0..=n_intervals {
                if k > 0 {
                    node.advance(SimDuration::from_secs(600), &d);
                }
                let fs = NodeFs::new(&node);
                let s = sampler.sample(
                    &fs,
                    SimTime::from_secs(600 * k as u64),
                    &["1".to_string()],
                    &[],
                );
                acc.feed(sampler.header(), &s);
            }
        }
        acc.finalize()
    }

    #[test]
    fn arc_metrics_recover_demand_rates() {
        let m = run_job(2, 6);
        let g = |id| m.get(id).unwrap();
        // MDCReqs: 100 req/s per node (average over nodes).
        assert!(
            (g(MetricId::MDCReqs) - 100.0).abs() < 1.0,
            "{}",
            g(MetricId::MDCReqs)
        );
        // MDCWait: 500 us per request.
        assert!((g(MetricId::MDCWait) - 500.0).abs() < 5.0);
        // OSC.
        assert!((g(MetricId::OSCReqs) - 40.0).abs() < 1.0);
        assert!((g(MetricId::OSCWait) - 2000.0).abs() < 20.0);
        // Open+close = 6/s.
        assert!((g(MetricId::LLiteOpenClose) - 6.0).abs() < 0.2);
        // IB: 2e8 B/s (xmit+rcv) = 200 MB/s.
        assert!((g(MetricId::InternodeIBAveBW) - 200.0).abs() < 2.0);
        assert!((g(MetricId::Packetsize) - 2048.0).abs() < 20.0);
        // cpi as demanded.
        assert!((g(MetricId::Cpi) - 1.25).abs() < 0.01);
        // flops: 40 GF/s per node.
        assert!((g(MetricId::Flops) - 40.0).abs() < 0.5);
        // VecPercent = 50%.
        assert!((g(MetricId::VecPercent) - 50.0).abs() < 1.0);
        // mbw: 1e10 B/s = 10000 MB/s.
        assert!((g(MetricId::Mbw) - 10_000.0).abs() < 100.0);
        // CPU usage ≈ 0.8 busy-core fraction of the whole node... all 16
        // cores active at 0.8 user + 0.01 sys + idle: user/total ≈ 0.8.
        assert!((g(MetricId::CpuUsage) - 0.8).abs() < 0.02);
        // MemUsage 20 GiB ≈ 21.5 GB.
        assert!((g(MetricId::MemUsage) - 21.47).abs() < 0.5);
        // MIC.
        assert!((g(MetricId::MicUsage) - 0.25).abs() < 0.01);
        // Steady workload: no catastrophe, no imbalance.
        assert!(g(MetricId::Idle) > 0.99);
        assert!(g(MetricId::Catastrophe) > 0.99);
    }

    #[test]
    fn maximum_metrics_sum_over_nodes() {
        // Steady demand: MetaDataRate ≈ n_nodes × per-node rate.
        let m = run_job(3, 4);
        let max_rate = m.get(MetricId::MetaDataRate).unwrap();
        assert!(
            (max_rate - 300.0).abs() < 5.0,
            "MetaDataRate {max_rate} should be ~3×100"
        );
        let ave = m.get(MetricId::MDCReqs).unwrap();
        assert!((ave - 100.0).abs() < 1.0, "per-node average stays ~100");
        // LnetMaxBW ≥ LnetAveBW (max of sums vs per-node average).
        assert!(m.get(MetricId::LnetMaxBW).unwrap() >= m.get(MetricId::LnetAveBW).unwrap());
    }

    #[test]
    fn arc_invariant_under_sampling_refinement() {
        // Cumulative counters: 2 samples or 12 samples must give the
        // same ARC metrics (the property §IV-A claims).
        let coarse = run_job(1, 1);
        let fine = run_job(1, 12);
        for id in [
            MetricId::MDCReqs,
            MetricId::Cpi,
            MetricId::Flops,
            MetricId::VecPercent,
            MetricId::CpuUsage,
            MetricId::Mbw,
        ] {
            let a = coarse.get(id).unwrap();
            let b = fine.get(id).unwrap();
            assert!(
                (a - b).abs() / b.abs().max(1e-9) < 0.02,
                "{id}: coarse {a} vs fine {b}"
            );
        }
    }

    #[test]
    fn single_sample_yields_gauges_only() {
        let m = run_job(1, 0);
        assert!(m.get(MetricId::MDCReqs).is_none());
        assert!(m.get(MetricId::Cpi).is_none());
        assert!(m.get(MetricId::MemUsage).is_some());
    }

    #[test]
    fn missing_hardware_leaves_metrics_absent() {
        let topo = NodeTopology {
            has_infiniband: false,
            mic_cards: 0,
            lustre_filesystems: vec![],
            ..NodeTopology::stampede()
        };
        let mut node = SimNode::new("bare-0001", topo);
        let cfg = {
            let fs = NodeFs::new(&node);
            discover(&fs, BuildOptions::default()).unwrap()
        };
        let mut sampler = Sampler::new("bare-0001", &cfg);
        let mut acc = JobAccum::new();
        for k in 0..3u64 {
            if k > 0 {
                node.advance(SimDuration::from_secs(600), &demand());
            }
            let fs = NodeFs::new(&node);
            let s = sampler.sample(&fs, SimTime::from_secs(600 * k), &[], &[]);
            acc.feed(sampler.header(), &s);
        }
        let m = acc.finalize();
        assert!(m.get(MetricId::MDCReqs).is_none());
        assert!(m.get(MetricId::InternodeIBAveBW).is_none());
        assert!(m.get(MetricId::MicUsage).is_none());
        assert!(m.get(MetricId::Cpi).is_some());
        assert!(m.get(MetricId::CpuUsage).is_some());
    }

    #[test]
    fn rapl_rollover_does_not_corrupt_cpu_metrics() {
        // Long job (4 h at 10-min sampling): the 32-bit RAPL registers
        // wrap several times; all other metrics must stay exact.
        let m = run_job(1, 24);
        assert!((m.get(MetricId::Cpi).unwrap() - 1.25).abs() < 0.01);
        assert!((m.get(MetricId::MDCReqs).unwrap() - 100.0).abs() < 1.0);
    }

    #[test]
    fn imbalanced_nodes_show_low_idle_metric() {
        // One busy node, one idle node: idle → ~0.
        let mut acc = JobAccum::new();
        for (node_idx, busy) in [(0usize, true), (1usize, false)] {
            let mut node = SimNode::new(format!("c401-{node_idx:04}"), NodeTopology::stampede());
            let cfg = {
                let fs = NodeFs::new(&node);
                discover(&fs, BuildOptions::default()).unwrap()
            };
            let mut sampler = Sampler::new(&node.hostname.clone(), &cfg);
            let d = if busy { demand() } else { NodeDemand::idle() };
            for k in 0..3u64 {
                if k > 0 {
                    node.advance(SimDuration::from_secs(600), &d);
                }
                let fs = NodeFs::new(&node);
                let s = sampler.sample(&fs, SimTime::from_secs(600 * k), &[], &[]);
                acc.feed(sampler.header(), &s);
            }
        }
        let m = acc.finalize();
        assert!(
            m.get(MetricId::Idle).unwrap() < 0.05,
            "idle = {:?}",
            m.get(MetricId::Idle)
        );
    }

    #[test]
    fn failing_job_shows_catastrophe() {
        // Busy for 3 intervals, dead for 3: catastrophe → ~0.
        let mut node = SimNode::new("c401-0000", NodeTopology::stampede());
        let cfg = {
            let fs = NodeFs::new(&node);
            discover(&fs, BuildOptions::default()).unwrap()
        };
        let mut sampler = Sampler::new("c401-0000", &cfg);
        let mut acc = JobAccum::new();
        for k in 0..=6u64 {
            if k > 0 {
                let d = if k <= 3 { demand() } else { NodeDemand::idle() };
                node.advance(SimDuration::from_secs(600), &d);
            }
            let fs = NodeFs::new(&node);
            let s = sampler.sample(&fs, SimTime::from_secs(600 * k), &[], &[]);
            acc.feed(sampler.header(), &s);
        }
        let m = acc.finalize();
        assert!(
            m.get(MetricId::Catastrophe).unwrap() < 0.05,
            "catastrophe = {:?}",
            m.get(MetricId::Catastrophe)
        );
        // Weak windows come last: a drop (failure signature).
        assert_eq!(m.trend, Some(crate::table1::TrendDirection::Drop));
    }

    #[test]
    fn compile_then_run_job_shows_rise_trend() {
        // Quiet for 3 intervals, busy for 3: catastrophe low, trend Rise.
        let mut node = SimNode::new("c401-0000", NodeTopology::stampede());
        let cfg = {
            let fs = NodeFs::new(&node);
            discover(&fs, BuildOptions::default()).unwrap()
        };
        let mut sampler = Sampler::new("c401-0000", &cfg);
        let mut acc = JobAccum::new();
        for k in 0..=6u64 {
            if k > 0 {
                let d = if k <= 3 { NodeDemand::idle() } else { demand() };
                node.advance(SimDuration::from_secs(600), &d);
            }
            let fs = NodeFs::new(&node);
            let s = sampler.sample(&fs, SimTime::from_secs(600 * k), &[], &[]);
            acc.feed(sampler.header(), &s);
        }
        let m = acc.finalize();
        assert!(m.get(MetricId::Catastrophe).unwrap() < 0.05);
        assert_eq!(m.trend, Some(crate::table1::TrendDirection::Rise));
    }
}
