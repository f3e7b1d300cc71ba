//! Automated real-time analysis (§VI-B).
//!
//! "Combining this time-series analysis capability with the real time
//! reporting recently enabled in TACC Stats will allow problem jobs to
//! be quickly identified and suspended before they create system-wide
//! slowdowns or crashes. This identification process could be automated
//! and a system administrator notified immediately upon identification
//! of problematic behavior."
//!
//! The [`OnlineAnalyzer`] watches the daemon-mode sample stream as the
//! consumer drains it and owns three layers of streaming state:
//!
//! * **Rate thresholds** — the previous sample per host turns
//!   cumulative counters into instantaneous rates; metadata storms and
//!   GigE traffic raise one [`Alert`] per (job, kind).
//! * **Streaming job flags** — the per-host rate estimates feed
//!   [`FlagStreams`] keyed by interned job id, so §V-A flags trip
//!   *mid-job* ([`AlertKind::JobFlag`]); at job end
//!   [`OnlineAnalyzer::finish_job`] replays the batch metrics through
//!   the same stream, making the final verdict exactly the batch one.
//! * **Z-score anomaly detection** — a fixed ring buffer of recent CPU
//!   user-jiffies rates per host; a sample more than
//!   `ZSCORE_THRESHOLD` (3) standard deviations from the
//!   ring mean raises [`AlertKind::SuddenDrop`] /
//!   [`AlertKind::SuddenRise`] online, not just at job end. The
//!   per-host [`OnlineAnalyzer::anomaly_score`] (a decaying max of
//!   |z|) drives adaptive sampling cadence ([`AdaptiveConfig`]).
//!
//! Every alert records its sample→detection latency
//! ([`Alert::latency_secs`]); in daemon mode that is bounded by the
//! sampling interval — versus up to a full day in cron mode.

use std::collections::{HashMap, HashSet};
use tacc_collect::record::{HostHeader, Sample};
use tacc_metrics::flags::FlagContext;
use tacc_metrics::stream::{FlagSet, FlagStreams};
use tacc_metrics::{Flag, FlagRules, JobMetrics, MetricId};
use tacc_simnode::counter::wrapping_delta;
use tacc_simnode::intern::Sym;
use tacc_simnode::schema::DeviceType;
use tacc_simnode::{SimDuration, SimTime};

/// What kind of problem an alert reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AlertKind {
    /// Metadata request rate threatening the Lustre MDS.
    MetadataStorm,
    /// Heavy GigE traffic (MPI over Ethernet).
    GigeTraffic,
    /// A node stopped reporting (possible failure).
    SilentNode,
    /// CPU activity collapsed relative to the host's recent history
    /// (z-score below −threshold): likely application failure.
    SuddenDrop,
    /// CPU activity jumped relative to recent history (z-score above
    /// +threshold): compile-then-run signature.
    SuddenRise,
    /// A §V-A job flag tripped mid-job in the streaming evaluator.
    JobFlag(Flag),
}

/// A raised alert.
#[derive(Clone, Debug, PartialEq)]
pub struct Alert {
    /// When the analyzer saw the offending sample.
    pub time: SimTime,
    /// Host whose sample triggered the alert.
    pub host: String,
    /// Jobs active on the host at that moment.
    pub jobids: Vec<String>,
    /// Problem class.
    pub kind: AlertKind,
    /// The offending rate (req/s for metadata, bytes/s for GigE,
    /// seconds of silence for silent nodes, z-score for sudden
    /// rise/drop, metric value for job flags).
    pub value: f64,
    /// Seconds between the offending sample's timestamp and the
    /// analyzer seeing it — the sample→flag detection latency.
    pub latency_secs: f64,
}

/// Per-host metadata request rate (req/s) above which a storm is
/// declared.
const MD_RATE_PER_HOST: f64 = 20_000.0;
/// Per-host GigE byte rate (bytes/s) above which traffic is flagged.
const GIGE_RATE: f64 = 10e6;
/// Seconds without a sample before a host is declared silent: 3.5
/// sampling intervals at 10 min.
const SILENCE_SECS: u64 = 2_100;
/// |z| at which a CPU-rate sample is anomalous.
const ZSCORE_THRESHOLD: f64 = 3.0;
/// Ring occupancy before z-scores are computed.
const ZSCORE_MIN_SAMPLES: usize = 5;
/// Per-observation decay of the host anomaly score toward zero.
const ANOMALY_DECAY: f64 = 0.85;

/// The analyzer's configuration. Its thresholds are the constants of
/// this module, so the type carries nothing; it stays because
/// [`crate::MonitoringSystem::enable_online`], on the benchmark's
/// frozen measured surface, takes one.
#[derive(Clone, Copy, Debug, Default)]
pub struct OnlineConfig;

/// Adaptive per-node sampling policy (§VI-B closing the loop): stable
/// nodes back off toward `max_interval`, anomalous nodes snap to
/// `min_interval`.
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveConfig {
    /// Cadence for nodes whose anomaly score is at/above `hot_score`.
    pub min_interval: SimDuration,
    /// Ceiling stable nodes back off toward.
    pub max_interval: SimDuration,
    /// Anomaly score at which a node is sampled at `min_interval`.
    pub hot_score: f64,
    /// Multiplicative backoff applied after a full quiet period at the
    /// current cadence.
    pub backoff: f64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            min_interval: SimDuration::from_secs(60),
            max_interval: SimDuration::from_secs(1_200),
            hot_score: 3.0,
            backoff: 2.0,
        }
    }
}

/// Window of recent per-host CPU rates the z-score is taken over: the
/// ring's capacity.
const ZRING_CAP: usize = 12;

/// Fixed-capacity ring of recent rates — no allocation after the host
/// entry itself is created.
#[derive(Clone, Copy)]
struct ZRing {
    buf: [f64; ZRING_CAP],
    len: usize,
    pos: usize,
}

impl ZRing {
    fn new() -> ZRing {
        ZRing {
            buf: [0.0; ZRING_CAP],
            len: 0,
            pos: 0,
        }
    }

    fn push(&mut self, x: f64) {
        if let Some(cell) = self.buf.get_mut(self.pos) {
            *cell = x;
        }
        self.pos = (self.pos + 1) % ZRING_CAP;
        self.len = (self.len + 1).min(ZRING_CAP);
    }

    fn mean_std(&self) -> Option<(f64, f64)> {
        if self.len == 0 {
            return None;
        }
        let slice = self.buf.get(..self.len)?;
        let n = self.len as f64;
        let mean = slice.iter().sum::<f64>() / n;
        let var = slice.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        Some((mean, var.sqrt()))
    }
}

#[derive(Clone, Copy, Default)]
struct PrevCounters {
    t: u64,
    mdc_reqs: u64,
    net_bytes: u64,
    cpu_user: u64,
}

/// Per-host streaming state.
struct HostState {
    prev: Option<PrevCounters>,
    ring: ZRing,
    anomaly: f64,
}

impl HostState {
    fn new() -> HostState {
        HostState {
            prev: None,
            ring: ZRing::new(),
            anomaly: 0.0,
        }
    }
}

/// Streaming analyzer over the consumer output.
pub struct OnlineAnalyzer {
    hosts: HashMap<Sym, HostState>,
    last_seen: HashMap<Sym, SimTime>,
    raised: HashSet<(String, AlertKind)>,
    alerts: Vec<Alert>,
    streams: FlagStreams,
}

impl OnlineAnalyzer {
    /// New analyzer evaluating the default [`FlagRules`]; built by
    /// [`crate::MonitoringSystem::enable_online`].
    pub(crate) fn new() -> OnlineAnalyzer {
        OnlineAnalyzer {
            hosts: HashMap::new(),
            last_seen: HashMap::new(),
            raised: HashSet::new(),
            alerts: Vec::new(),
            streams: FlagStreams::new(FlagRules::default()),
        }
    }

    /// All alerts raised so far.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Alerts of one kind.
    #[cfg(test)]
    fn alerts_of(&self, kind: AlertKind) -> Vec<&Alert> {
        self.alerts.iter().filter(|a| a.kind == kind).collect()
    }

    /// Current anomaly score for a host: a decaying maximum of recent
    /// |z| values, bumped by threshold alerts. Zero for unseen or
    /// quiet hosts.
    pub fn anomaly_score(&self, host: Sym) -> f64 {
        self.hosts.get(&host).map(|h| h.anomaly).unwrap_or(0.0)
    }

    /// Current *streamed* (estimated) flag verdict for a job.
    #[cfg(test)]
    fn job_flags(&self, jobid: &str) -> FlagSet {
        self.streams.flags(Sym::new(jobid))
    }

    /// Number of live per-job flag streams.
    #[cfg(test)]
    fn live_job_streams(&self) -> usize {
        self.streams.len()
    }

    /// Close out a finished job: replay its batch metrics through the
    /// streaming evaluator (dropping the per-job state) and return the
    /// final verdict, which equals `FlagRules::evaluate(ctx, m)` by
    /// construction.
    pub fn finish_job(&mut self, jobid: &str, ctx: &FlagContext, m: &JobMetrics) -> FlagSet {
        self.streams.finish(Sym::new(jobid), ctx, m)
    }

    fn raise(
        &mut self,
        now: SimTime,
        sample_t: SimTime,
        host: &str,
        jobids: &[String],
        kind: AlertKind,
        value: f64,
    ) -> Option<Alert> {
        // One alert per (responsible job or host, kind).
        let key = jobids.first().cloned().unwrap_or_else(|| host.to_string());
        if !self.raised.insert((key, kind)) {
            return None;
        }
        let alert = Alert {
            time: now,
            host: host.to_string(),
            jobids: jobids.to_vec(),
            kind,
            value,
            latency_secs: now.duration_since(sample_t).as_secs() as f64,
        };
        self.alerts.push(alert.clone());
        Some(alert)
    }

    /// Observe one sample as the consumer processes it. Returns any
    /// newly raised alerts.
    pub fn observe(&mut self, now: SimTime, header: &HostHeader, sample: &Sample) -> Vec<Alert> {
        let host = header.hostname;
        self.last_seen.insert(host, now);
        let t = sample.time.as_secs();
        let sample_t = SimTime::from_secs(t);
        let mdc_reqs: u64 = {
            let idx = header
                .schemas
                .get(&DeviceType::Mdc)
                .and_then(|s| s.index_of("reqs"));
            match idx {
                Some(i) => sample
                    .devices_of(DeviceType::Mdc)
                    .map(|r| r.values[i])
                    .sum(),
                None => 0,
            }
        };
        let net_bytes: u64 = {
            let s = header.schemas.get(&DeviceType::Net);
            match s {
                Some(s) => {
                    let rx = s.index_of("rx_bytes");
                    let tx = s.index_of("tx_bytes");
                    sample
                        .devices_of(DeviceType::Net)
                        .map(|r| {
                            rx.map(|i| r.values[i]).unwrap_or(0)
                                + tx.map(|i| r.values[i]).unwrap_or(0)
                        })
                        .sum()
                }
                None => 0,
            }
        };
        let cpu_user: u64 = {
            let idx = header
                .schemas
                .get(&DeviceType::Cpustat)
                .and_then(|s| s.index_of("user"));
            match idx {
                Some(i) => sample
                    .devices_of(DeviceType::Cpustat)
                    .map(|r| r.values[i])
                    .sum(),
                None => 0,
            }
        };

        let mut out = Vec::new();
        let state = self.hosts.entry(host).or_insert_with(HostState::new);
        let prev = state.prev;
        state.prev = Some(PrevCounters {
            t,
            mdc_reqs,
            net_bytes,
            cpu_user,
        });
        let mut decayed = state.anomaly * ANOMALY_DECAY;
        if decayed < 1e-3 {
            decayed = 0.0;
        }

        let Some(prev) = prev else {
            // Baseline sample: no rates yet.
            if let Some(state) = self.hosts.get_mut(&host) {
                state.anomaly = decayed;
            }
            return out;
        };
        let dt = t.saturating_sub(prev.t) as f64;
        if dt <= 0.0 {
            if let Some(state) = self.hosts.get_mut(&host) {
                state.anomaly = decayed;
            }
            return out;
        }

        let md_rate = wrapping_delta(prev.mdc_reqs, mdc_reqs, 64) as f64 / dt;
        let net_rate = wrapping_delta(prev.net_bytes, net_bytes, 64) as f64 / dt;
        let cpu_rate = wrapping_delta(prev.cpu_user, cpu_user, 64) as f64 / dt;

        if md_rate > MD_RATE_PER_HOST {
            if let Some(a) = self.raise(
                now,
                sample_t,
                host.as_str(),
                &sample.jobids,
                AlertKind::MetadataStorm,
                md_rate,
            ) {
                out.push(a);
            }
        }
        if net_rate > GIGE_RATE {
            if let Some(a) = self.raise(
                now,
                sample_t,
                host.as_str(),
                &sample.jobids,
                AlertKind::GigeTraffic,
                net_rate,
            ) {
                out.push(a);
            }
        }

        // Z-score anomaly over the host's own recent CPU activity.
        let (zscore, ring_ready) = match self.hosts.get(&host).map(|h| h.ring) {
            Some(ring) if ring.len >= ZSCORE_MIN_SAMPLES => match ring.mean_std() {
                Some((mean, std)) if std > 1e-9 => ((cpu_rate - mean) / std, true),
                _ => (0.0, false),
            },
            _ => (0.0, false),
        };
        if ring_ready && zscore.abs() >= ZSCORE_THRESHOLD {
            let kind = if zscore < 0.0 {
                AlertKind::SuddenDrop
            } else {
                AlertKind::SuddenRise
            };
            if let Some(a) = self.raise(now, sample_t, host.as_str(), &sample.jobids, kind, zscore)
            {
                out.push(a);
            }
        }
        let score = if ring_ready && zscore.abs() >= ZSCORE_THRESHOLD {
            zscore.abs().max(decayed)
        } else {
            decayed
        };
        if let Some(state) = self.hosts.get_mut(&host) {
            state.ring.push(cpu_rate);
            state.anomaly = score;
        }

        // Feed the streaming flag evaluator with per-job estimates:
        // MetaDataRate in req/s, GigEBW in MB/s (both `>` thresholds,
        // so a zero estimate can never trip them).
        for jobid in &sample.jobids {
            let job = Sym::new(jobid);
            let before = self.streams.flags(job);
            self.streams.update(job, MetricId::MetaDataRate, md_rate);
            let after = self.streams.update(job, MetricId::GigEBW, net_rate / 1e6);
            for flag in after.added_since(before) {
                let value = match flag {
                    Flag::HighMetadataRate => md_rate,
                    Flag::HighGigE => net_rate / 1e6,
                    _ => 0.0,
                };
                if let Some(a) = self.raise(
                    now,
                    sample_t,
                    host.as_str(),
                    &sample.jobids,
                    AlertKind::JobFlag(flag),
                    value,
                ) {
                    out.push(a);
                }
            }
        }
        out
    }

    /// Periodic silence check: hosts not heard from for
    /// `SILENCE_SECS` (2,100 s). Call once per driver step.
    pub fn check_silence(&mut self, now: SimTime) -> Vec<Alert> {
        let mut out = Vec::new();
        let silent: Vec<(Sym, SimTime)> = self
            .last_seen
            .iter()
            .filter(|(_, last)| now.duration_since(**last).as_secs() >= SILENCE_SECS)
            .map(|(h, last)| (*h, *last))
            .collect();
        for (host, last) in silent {
            let silence = now.duration_since(last).as_secs() as f64;
            if let Some(a) = self.raise(
                now,
                last,
                host.as_str(),
                &[],
                AlertKind::SilentNode,
                silence,
            ) {
                out.push(a);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use tacc_collect::record::{DeviceRecord, SimTimeRepr};
    use tacc_simnode::topology::CpuArch;

    fn header(host: &str) -> HostHeader {
        let mut schemas = BTreeMap::new();
        schemas.insert(
            DeviceType::Mdc,
            DeviceType::Mdc.schema(CpuArch::SandyBridge),
        );
        schemas.insert(
            DeviceType::Net,
            DeviceType::Net.schema(CpuArch::SandyBridge),
        );
        schemas.insert(
            DeviceType::Cpustat,
            DeviceType::Cpustat.schema(CpuArch::SandyBridge),
        );
        HostHeader {
            hostname: host.into(),
            arch: CpuArch::SandyBridge,
            schemas,
        }
    }

    fn sample(t: u64, jobid: &str, mdc_reqs: u64, net_bytes: u64) -> Sample {
        sample_cpu(t, jobid, mdc_reqs, net_bytes, t * 100)
    }

    fn sample_cpu(t: u64, jobid: &str, mdc_reqs: u64, net_bytes: u64, cpu_user: u64) -> Sample {
        Sample {
            time: SimTimeRepr::from(SimTime::from_secs(t)),
            jobids: vec![jobid.to_string()],
            marks: vec![],
            devices: vec![
                DeviceRecord {
                    dev_type: DeviceType::Mdc,
                    instance: "scratch".into(),
                    values: vec![mdc_reqs, mdc_reqs * 200].into(),
                },
                DeviceRecord {
                    dev_type: DeviceType::Net,
                    instance: "eth0".into(),
                    values: vec![net_bytes / 2, 0, net_bytes / 2, 0].into(),
                },
                DeviceRecord {
                    dev_type: DeviceType::Cpustat,
                    instance: "cpu".into(),
                    values: vec![cpu_user, 0, 0, 0, 0].into(),
                },
            ],
            processes: vec![],
        }
    }

    #[test]
    fn metadata_storm_detected_on_second_sample() {
        let mut a = OnlineAnalyzer::new();
        let h = header("c1");
        // First sample: baseline only, no alert possible.
        assert!(a
            .observe(SimTime::from_secs(0), &h, &sample(0, "77", 0, 0))
            .is_empty());
        // 600 s later: 140k req/s.
        let alerts = a.observe(
            SimTime::from_secs(600),
            &h,
            &sample(600, "77", 140_000 * 600, 0),
        );
        assert_eq!(alerts.len(), 2);
        assert_eq!(alerts[0].kind, AlertKind::MetadataStorm);
        assert_eq!(alerts[0].jobids, vec!["77"]);
        assert!((alerts[0].value - 140_000.0).abs() < 1.0);
        // The streamed §V-A flag trips on the same sample.
        assert_eq!(alerts[1].kind, AlertKind::JobFlag(Flag::HighMetadataRate));
        assert!(a.job_flags("77").contains(Flag::HighMetadataRate));
        // Continuing storm: no duplicate alert for the same job.
        let again = a.observe(
            SimTime::from_secs(1200),
            &h,
            &sample(1200, "77", 2 * 140_000 * 600, 0),
        );
        assert!(again.is_empty());
        assert_eq!(a.alerts().len(), 2);
    }

    #[test]
    fn quiet_host_never_alerts() {
        let mut a = OnlineAnalyzer::new();
        let h = header("c1");
        for k in 0..10u64 {
            let s = sample(600 * k, "5", 10 * 600 * k, 1000 * 600 * k);
            assert!(a.observe(SimTime::from_secs(600 * k), &h, &s).is_empty());
        }
        assert!(a.anomaly_score(Sym::new("c1")) < 1e-9);
    }

    #[test]
    fn gige_traffic_detected() {
        let mut a = OnlineAnalyzer::new();
        let h = header("c1");
        a.observe(SimTime::from_secs(0), &h, &sample(0, "9", 0, 0));
        let alerts = a.observe(
            SimTime::from_secs(600),
            &h,
            &sample(600, "9", 0, 90_000_000 * 600),
        );
        assert_eq!(alerts.len(), 2);
        assert_eq!(alerts[0].kind, AlertKind::GigeTraffic);
        assert_eq!(alerts[1].kind, AlertKind::JobFlag(Flag::HighGigE));
    }

    #[test]
    fn silent_node_detected() {
        let mut a = OnlineAnalyzer::new();
        let h = header("c1");
        a.observe(SimTime::from_secs(0), &h, &sample(0, "1", 0, 0));
        assert!(a.check_silence(SimTime::from_secs(1200)).is_empty());
        let alerts = a.check_silence(SimTime::from_secs(3000));
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].kind, AlertKind::SilentNode);
        // No duplicates.
        assert!(a.check_silence(SimTime::from_secs(4000)).is_empty());
    }

    #[test]
    fn separate_jobs_alert_separately() {
        let mut a = OnlineAnalyzer::new();
        for (host, job) in [("c1", "100"), ("c2", "200")] {
            let h = header(host);
            a.observe(SimTime::from_secs(0), &h, &sample(0, job, 0, 0));
            let alerts = a.observe(
                SimTime::from_secs(600),
                &h,
                &sample(600, job, 50_000 * 600, 0),
            );
            assert_eq!(alerts.len(), 2, "{job}");
        }
        assert_eq!(a.alerts_of(AlertKind::MetadataStorm).len(), 2);
    }

    #[test]
    fn sudden_drop_detected_by_zscore() {
        let mut a = OnlineAnalyzer::new();
        let h = header("c1");
        // Steady CPU rate (with small jitter so std > 0), then collapse.
        let mut cpu = 0u64;
        for k in 0..8u64 {
            cpu += 600 * (1000 + (k % 3));
            let s = sample_cpu(600 * k, "j1", 0, 0, cpu);
            let alerts = a.observe(SimTime::from_secs(600 * k), &h, &s);
            assert!(alerts.is_empty(), "step {k}: {alerts:?}");
        }
        // CPU activity collapses to ~0.
        let s = sample_cpu(600 * 8, "j1", 0, 0, cpu + 1);
        let alerts = a.observe(SimTime::from_secs(600 * 8), &h, &s);
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert_eq!(alerts[0].kind, AlertKind::SuddenDrop);
        assert!(alerts[0].value < -3.0);
        assert!(a.anomaly_score(Sym::new("c1")) >= 3.0);
    }

    #[test]
    fn sudden_rise_detected_by_zscore() {
        let mut a = OnlineAnalyzer::new();
        let h = header("c1");
        let mut cpu = 0u64;
        for k in 0..8u64 {
            cpu += 600 * (1000 + (k % 3));
            a.observe(
                SimTime::from_secs(600 * k),
                &h,
                &sample_cpu(600 * k, "j2", 0, 0, cpu),
            );
        }
        cpu += 600 * 50_000; // compile step ends, full-rate compute
        let alerts = a.observe(
            SimTime::from_secs(600 * 8),
            &h,
            &sample_cpu(600 * 8, "j2", 0, 0, cpu),
        );
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert_eq!(alerts[0].kind, AlertKind::SuddenRise);
    }

    #[test]
    fn anomaly_score_decays_when_quiet() {
        let mut a = OnlineAnalyzer::new();
        let h = header("c1");
        let mut cpu = 0u64;
        for k in 0..8u64 {
            cpu += 600 * (1000 + (k % 3));
            a.observe(
                SimTime::from_secs(600 * k),
                &h,
                &sample_cpu(600 * k, "j3", 0, 0, cpu),
            );
        }
        cpu += 1;
        a.observe(
            SimTime::from_secs(600 * 8),
            &h,
            &sample_cpu(600 * 8, "j3", 0, 0, cpu),
        );
        let hot = a.anomaly_score(Sym::new("c1"));
        assert!(hot >= 3.0);
        // Quiet again: score decays toward zero.
        for k in 9..30u64 {
            cpu += 600;
            a.observe(
                SimTime::from_secs(600 * k),
                &h,
                &sample_cpu(600 * k, "j3", 0, 0, cpu),
            );
        }
        assert!(a.anomaly_score(Sym::new("c1")) < hot * 0.5);
    }

    #[test]
    fn alerts_record_detection_latency() {
        let mut a = OnlineAnalyzer::new();
        let h = header("c1");
        a.observe(SimTime::from_secs(0), &h, &sample(0, "77", 0, 0));
        // Sample stamped at t=600 but drained 30 s later.
        let alerts = a.observe(
            SimTime::from_secs(630),
            &h,
            &sample(600, "77", 140_000 * 600, 0),
        );
        assert!(!alerts.is_empty());
        assert_eq!(alerts[0].latency_secs, 30.0);
    }

    #[test]
    fn finish_job_matches_batch_and_drops_state() {
        let mut a = OnlineAnalyzer::new();
        let h = header("c1");
        a.observe(SimTime::from_secs(0), &h, &sample(0, "42", 0, 0));
        a.observe(
            SimTime::from_secs(600),
            &h,
            &sample(600, "42", 140_000 * 600, 0),
        );
        assert_eq!(a.live_job_streams(), 1);
        // The finished job's batch metrics show no storm at all (say
        // the storm window was short): final verdict follows the batch.
        let ctx = FlagContext {
            queue_name: "normal".to_string(),
            node_memory_gb: 34.36,
        };
        let mut m = JobMetrics::new();
        m.set(MetricId::MetaDataRate, 12.0);
        let final_set = a.finish_job("42", &ctx, &m);
        assert!(final_set.is_empty());
        assert_eq!(
            final_set.iter().collect::<Vec<_>>(),
            FlagRules::default().evaluate(&ctx, &m)
        );
        assert_eq!(a.live_job_streams(), 0);
    }
}
