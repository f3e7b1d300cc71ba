//! The pipeline assembly: simulated nodes → per-node collectors →
//! broker → consumer → archive → tsdb, wired in one place (DESIGN.md
//! §18).
//!
//! [`Pipeline`] owns the cluster and everything that moves a sample off
//! it, in either §III-A operation mode. A driver step calls its public
//! stages in order: [`Pipeline::apply_faults`] → [`Pipeline::advance`]
//! → [`Pipeline::collect`] → [`Pipeline::drain`] (up to a message
//! budget). Every sample that reaches the central side — synced by cron
//! or consumed from the broker — is mirrored into the tsdb, if enabled,
//! and then lent to the driver's `on_sample(node_idx, header, sample)`.
//! [`crate::MonitoringSystem`] drives it under the scheduler, job
//! accumulation and online analysis; the fleet soak (`tacc_stats::soak`)
//! under a consumer budget, stalls and a settle phase.
//!
//! **Faults.** [`Pipeline::set_fault_plan`] makes every daemon's
//! transport drop publish requests and acknowledgements by `(routing
//! key, seq)`, the routing key being the hostname.
//! [`Pipeline::apply_faults`] stops the broker over outage windows,
//! crashes a node when its outage opens (the hardware stops, the spool
//! is wiped) and reboots it when the outage closes (counters reset to
//! zero, collection resumes from the present), and pushes device
//! degradations onto the nodes. [`Pipeline::heal`] ends the plan.

use crate::config::{Mode, SystemConfig};
use bytes::Bytes;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use tacc_broker::Broker;
use tacc_collect::consumer::StatsConsumer;
use tacc_collect::cron::{CronCollector, CronConfig};
use tacc_collect::daemon::{LocalPublisher, Publisher, TaccStatsd};
use tacc_collect::discovery::{discover, BuildOptions};
use tacc_collect::engine::{OverheadAccount, Sampler};
use tacc_collect::record::{HostHeader, Sample};
use tacc_collect::Archive;
use tacc_simnode::faults::{
    fault_path, DeviceFaultKind, FaultPlan, ReadFault, ReadFaultMode, Window,
};
use tacc_simnode::intern::Sym;
use tacc_simnode::pseudofs::NodeFs;
use tacc_simnode::schema::DeviceType;
use tacc_simnode::workload::NodeDemand;
use tacc_simnode::{SimClock, SimCluster, SimDuration, SimNode, SimTime};
use tacc_tsdb::{RecoveryReport, SeriesKey, TsDb};

/// Base second-of-day of the cron mode's daily sync (03:00); each node
/// adds a deterministic offset within [`CRON_SYNC_SPREAD_SECS`].
const CRON_SYNC_SECOND: u64 = 3 * 3600;
/// Width of the cron mode's per-node sync window.
const CRON_SYNC_SPREAD_SECS: u64 = 2 * 3600;

/// Mirrored rate series: (device type, series event, the schema events
/// summed over every instance of the device type).
const MIRRORED: [(DeviceType, &str, &[&str]); 5] = [
    (DeviceType::Mdc, "reqs", &["reqs"]),
    (DeviceType::Mdc, "wait", &["wait"]),
    (DeviceType::Llite, "open_close", &["open", "close"]),
    (DeviceType::Lnet, "bytes", &["tx_bytes", "rx_bytes"]),
    (DeviceType::Cpustat, "user", &["user"]),
];

/// The time-series database and the §VI-A mirror feeding it: cumulative
/// counters become (host, device type, `all`, event) rate series.
struct TsdbMirror {
    tsdb: TsDb,
    /// Last (time, value) seen per series.
    prev: HashMap<SeriesKey, (u64, u64)>,
}

impl TsdbMirror {
    fn feed(&mut self, header: &HostHeader, sample: &Sample) {
        let t = sample.time.as_secs();
        let host = header.hostname.as_str();
        for (dt, event, summed) in MIRRORED {
            let Some(schema) = header.schemas.get(&dt) else {
                continue;
            };
            let value: u64 = summed
                .iter()
                .filter_map(|ev| schema.index_of(ev))
                .map(|i| sample.devices_of(dt).map(|r| r.values[i]).sum::<u64>())
                .sum();
            let key = SeriesKey::new(host, dt.name(), "all", event);
            if let Some((pt, pv)) = self.prev.get(&key).copied() {
                let dtime = t.saturating_sub(pt);
                // Every mirrored series is a 64-bit software counter, so
                // a decrease is a reboot's reset, never a wrap: the
                // series re-anchors at the new value without a point.
                if let (true, Some(delta)) = (dtime > 0, value.checked_sub(pv)) {
                    self.tsdb
                        .insert(key.clone(), t, delta as f64 / dtime as f64);
                }
            }
            self.prev.insert(key, (t, value));
        }
    }
}

/// Fault-injecting broker transport. A dropped *request* never reaches
/// the broker; a dropped *acknowledgement* is delivered, but the sender
/// sees a failure and replays it later (the at-least-once duplicate the
/// consumer's sequence dedup exists for).
struct ChaosPublisher {
    broker: Broker,
    plan: Arc<FaultPlan>,
}

impl Publisher for ChaosPublisher {
    fn publish(&mut self, queue: &str, routing_key: &str, seq: u64, payload: Bytes) -> bool {
        !self.plan.drops_request(routing_key, seq)
            && self.broker.publish(queue, routing_key, payload)
            && !self.plan.drops_ack(routing_key, seq)
    }
}

enum Collectors {
    Cron(Vec<CronCollector>),
    Daemon {
        daemons: Vec<TaccStatsd>,
        broker: Broker,
        consumer: Box<StatsConsumer>,
    },
}

/// End-to-end delivery reconciliation for daemon mode: every sequence
/// number any node ever assigned is classified into exactly one bucket,
/// so `collected == delivered + dropped + lost + in_spool` holds by
/// construction and the interesting assertions are about which bucket
/// each fate lands in.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeliveryReport {
    /// Samples collected across all nodes (== sequence numbers issued).
    pub collected: u64,
    /// Archived by the consumer (at least once).
    pub delivered: u64,
    /// Evicted from a full spool — bounded-buffer overflow, accounted.
    pub dropped: u64,
    /// Wiped from a spool by a node crash (or otherwise vanished).
    pub lost: u64,
    /// Still spooled awaiting replay.
    pub in_spool: u64,
    /// Redelivered duplicates the consumer skipped.
    pub duplicates: u64,
    /// Sequence-gap events the consumer observed on arrival.
    pub gap_events: u64,
    /// Device instances missing from samples due to failed pseudofs
    /// reads (cumulative across nodes).
    pub degraded_reads: u64,
    /// Unique messages the consumer processed.
    pub received: u64,
    /// Unparseable messages routed to the dead-letter queue.
    pub dead_lettered: u64,
}

/// Discover a node's devices and build its sampler: the one place
/// collection is configured, for the pipeline's nodes and for the
/// isolated per-job nodes of [`crate::population`] alike.
pub fn sampler_for(node: &SimNode) -> Sampler {
    let dcfg = discover(&NodeFs::new(node), BuildOptions::default()).expect("fresh node discovers");
    Sampler::new(&node.hostname, &dcfg)
}

/// The assembled collection pipeline over a simulated cluster.
pub struct Pipeline {
    cluster: SimCluster,
    headers: Vec<HostHeader>,
    /// Hostname → node index, for samples arriving through the broker.
    index: HashMap<Sym, usize>,
    collectors: Collectors,
    archive: Arc<Archive>,
    mirror: Option<TsdbMirror>,
    tsdb_recovery: Option<RecoveryReport>,
    tsdb_open_error: Option<String>,
    fault_plan: Option<Arc<FaultPlan>>,
    /// Which nodes the fault plan currently holds down (to fire
    /// crash/reboot exactly once per window edge).
    plan_node_down: Vec<bool>,
}

impl Pipeline {
    /// Build the nodes, discover each one and give it a collector of
    /// `cfg.mode` — with the broker, its queue and the consumer in
    /// daemon mode — plus the archive and, if enabled, the tsdb mirror.
    pub fn new(cfg: &SystemConfig) -> Pipeline {
        let mut nodes = Vec::with_capacity(cfg.total_nodes());
        for i in 0..cfg.n_nodes {
            let host = format!("{}-{i:04}", cfg.host_prefix);
            nodes.push(SimNode::new(host, cfg.topology.clone()));
        }
        for i in 0..cfg.n_largemem {
            let host = format!("{}-lm{i:02}", cfg.host_prefix);
            nodes.push(SimNode::new(host, cfg.largemem_topology.clone()));
        }
        let samplers: Vec<Sampler> = nodes.iter().map(sampler_for).collect();
        let headers: Vec<HostHeader> = samplers.iter().map(|s| s.header().clone()).collect();
        let index = headers
            .iter()
            .enumerate()
            .map(|(i, h)| (h.hostname, i))
            .collect();
        let cluster = SimCluster::from_nodes(SimClock::starting_at(SystemConfig::START), nodes);
        let archive = Arc::new(Archive::new());
        let collectors = match &cfg.mode {
            Mode::Cron => Collectors::Cron(
                samplers
                    .into_iter()
                    .enumerate()
                    .map(|(i, s)| {
                        // Deterministic per-node stagger within the window.
                        let offset = (i as u64).wrapping_mul(0x9E37_79B9).wrapping_add(cfg.seed)
                            % CRON_SYNC_SPREAD_SECS;
                        let cron = CronConfig {
                            interval: cfg.interval,
                            sync_second: CRON_SYNC_SECOND + offset,
                        };
                        CronCollector::new(s, cron, SystemConfig::START)
                    })
                    .collect(),
            ),
            Mode::Daemon {
                queue,
                capacity,
                policy,
            } => {
                let broker = Broker::new();
                broker.declare_bounded(queue, *capacity, *policy);
                let mut consumer = StatsConsumer::new(&broker, queue, Arc::clone(&archive))
                    .map(Box::new)
                    .expect("queue just declared");
                consumer.set_dead_letter(&format!("{queue}.dead_letter"));
                let daemons = samplers
                    .into_iter()
                    .map(|s| {
                        let publisher = Box::new(LocalPublisher(broker.clone()));
                        TaccStatsd::new(s, cfg.interval, queue, publisher, SystemConfig::START)
                    })
                    .collect();
                Collectors::Daemon {
                    daemons,
                    broker,
                    consumer,
                }
            }
        };
        // In memory by default; durable (WAL + segment files,
        // crash-recovered on open) when a directory is configured. A
        // durable store that fails to open degrades to in-memory — the
        // monitor must keep running (§III "always on") — with the reason
        // kept for inspection.
        let (mut tsdb_recovery, mut tsdb_open_error) = (None, None);
        let mirror = cfg.enable_tsdb.then(|| {
            let tsdb = match &cfg.tsdb_dir {
                None => TsDb::new(),
                Some(dir) => {
                    let opened = tacc_tsdb::FsVfs::open(dir.clone()).and_then(|vfs| {
                        let opts = tacc_tsdb::DurOptions::default();
                        TsDb::recover(Arc::new(vfs), tacc_tsdb::DEFAULT_SHARDS, opts)
                    });
                    match opened {
                        Ok((db, report)) => {
                            tsdb_recovery = Some(report);
                            db
                        }
                        Err(e) => {
                            tsdb_open_error = Some(format!("{}: {e}", dir.display()));
                            TsDb::new()
                        }
                    }
                }
            };
            TsdbMirror {
                tsdb,
                prev: HashMap::new(),
            }
        });
        Pipeline {
            plan_node_down: vec![false; headers.len()],
            cluster,
            headers,
            index,
            collectors,
            archive,
            mirror,
            tsdb_recovery,
            tsdb_open_error,
            fault_plan: None,
        }
    }

    /// Install a [`FaultPlan`] (daemon mode only): every daemon's
    /// transport is swapped for a fault-injecting one sharing the plan,
    /// and from now on [`Pipeline::apply_faults`] applies its windows.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        let Collectors::Daemon {
            daemons, broker, ..
        } = &mut self.collectors
        else {
            panic!("fault plans drive the daemon pipeline; use daemon mode");
        };
        let plan = Arc::new(plan);
        for d in daemons {
            let plan = Arc::clone(&plan);
            d.set_publisher(Box::new(ChaosPublisher {
                broker: broker.clone(),
                plan,
            }));
        }
        self.fault_plan = Some(plan);
    }

    /// Apply the fault plan's state for instant `now`: broker outage
    /// windows, node crash/reboot at window edges, and per-device
    /// degradation (missing/truncated pseudo-files, stuck counters).
    pub fn apply_faults(&mut self, now: SimTime) {
        if let Some(plan) = self.fault_plan.clone() {
            self.apply_plan(&plan, Some(now));
        }
    }

    /// End the fault plan: its state is applied once more with no
    /// window open — the broker restarts, nodes still down reboot,
    /// degraded devices recover — and every daemon gets a plain
    /// [`LocalPublisher`] back.
    pub fn heal(&mut self) {
        let Some(plan) = self.fault_plan.take() else {
            return;
        };
        self.apply_plan(&plan, None);
        if let Collectors::Daemon {
            daemons, broker, ..
        } = &mut self.collectors
        {
            for d in daemons {
                d.set_publisher(Box::new(LocalPublisher(broker.clone())));
            }
        }
    }

    /// The plan's state at `now`; `None` is an instant no window covers.
    fn apply_plan(&mut self, plan: &FaultPlan, now: Option<SimTime>) {
        let open = |w: &Window| now.is_some_and(|t| w.contains(t));
        if let Collectors::Daemon { broker, .. } = &self.collectors {
            let down = plan.broker_outages.iter().any(open);
            if down && !broker.is_stopped() {
                broker.stop();
            } else if !down && broker.is_stopped() {
                broker.restart();
            }
        }
        for outage in &plan.node_outages {
            let Some(idx) = self.host_index(&outage.host) else {
                continue;
            };
            let down = open(&outage.window);
            if down && !self.plan_node_down[idx] {
                self.plan_node_down[idx] = true;
                self.crash_node(idx);
            } else if !down && self.plan_node_down[idx] {
                self.plan_node_down[idx] = false;
                self.reboot_node(idx);
            }
        }
        // Device faults are reasserted every step: a reboot thaws frozen
        // counters and clears read faults, so whatever window is still
        // open must be reinstalled.
        let mut read_faults: HashMap<usize, Vec<ReadFault>> = HashMap::new();
        let mut faulted_nodes: HashSet<usize> = HashSet::new();
        for df in &plan.device_faults {
            let Some(idx) = self.host_index(&df.host) else {
                continue;
            };
            match df.kind {
                DeviceFaultKind::StuckCounter => {
                    let frozen = open(&df.window);
                    let node = self.cluster.node(idx);
                    // lock-order: class=SimCluster.nodes
                    node.write().set_frozen(df.dev_type, &df.instance, frozen);
                }
                DeviceFaultKind::MissingFile | DeviceFaultKind::TruncatedRead => {
                    faulted_nodes.insert(idx);
                    if open(&df.window) {
                        if let Some(prefix) = fault_path(df.dev_type, &df.instance) {
                            read_faults.entry(idx).or_default().push(ReadFault {
                                prefix,
                                mode: match df.kind {
                                    DeviceFaultKind::MissingFile => ReadFaultMode::Missing,
                                    _ => ReadFaultMode::Truncated,
                                },
                            });
                        }
                    }
                }
            }
        }
        for idx in faulted_nodes {
            self.cluster
                .node(idx)
                .write() // lock-order: class=SimCluster.nodes
                .set_read_faults(read_faults.remove(&idx).unwrap_or_default());
        }
    }

    /// Advance every node by `step` under `demand` (node index → demand,
    /// `None` = idle), then the shared clock; returns the new instant.
    pub fn advance(
        &mut self,
        step: SimDuration,
        demand: impl Fn(usize) -> Option<NodeDemand> + Sync,
    ) -> SimTime {
        self.cluster.advance_all(step, demand);
        self.clock().now()
    }

    /// Tick every live node's collector at `now` ([`Pipeline::collect_node`]
    /// with no mark).
    pub fn collect(
        &mut self,
        now: SimTime,
        mut on_sample: impl FnMut(usize, &HostHeader, &Sample),
    ) {
        for i in 0..self.headers.len() {
            self.collect_node(i, now, None, &mut on_sample);
        }
    }

    /// Collect on node `i` at `now`. Without a mark this is the
    /// collector's tick: a daemon fires its due collections and replays
    /// its spool, a cron collector logs, rotates and syncs. With a mark
    /// (prolog `begin <id>`, epilog `end <id>`) it is one tagged
    /// collection. Samples that reach the central side at once — cron
    /// syncs and cron marked collections — go to `on_sample`; a daemon
    /// publishes. A crashed node collects nothing.
    pub fn collect_node(
        &mut self,
        i: usize,
        now: SimTime,
        mark: Option<&str>,
        mut on_sample: impl FnMut(usize, &HostHeader, &Sample),
    ) {
        let node = self.cluster.node(i);
        // lock-order: class=SimCluster.nodes
        let guard = node.read();
        if guard.is_crashed() {
            return; // no daemon, no cron job: a dead node collects nothing
        }
        let fs = NodeFs::new(&guard);
        let samples = match (&mut self.collectors, mark) {
            (Collectors::Daemon { daemons, .. }, None) => {
                daemons[i].tick(&fs, now);
                return;
            }
            (Collectors::Daemon { daemons, .. }, Some(m)) => {
                daemons[i].collect_marked(&fs, now, m);
                return;
            }
            (Collectors::Cron(cs), None) => cs[i].tick(&fs, now, &self.archive),
            (Collectors::Cron(cs), Some(m)) => vec![cs[i].collect_marked(&fs, now, m)],
        };
        drop(guard);
        let header = &self.headers[i];
        for s in &samples {
            if let Some(m) = &mut self.mirror {
                m.feed(header, s);
            }
            on_sample(i, header, s);
        }
    }

    /// Let the daemon-mode consumer process up to `max_msgs` queued
    /// messages (`usize::MAX` drains the queue, 0 is a stall); every
    /// sample it archives is mirrored and then lent to `on_sample`.
    /// Returns the messages processed (0 in cron mode).
    pub fn drain(
        &mut self,
        now: SimTime,
        max_msgs: usize,
        mut on_sample: impl FnMut(usize, &HostHeader, &Sample),
    ) -> usize {
        let Collectors::Daemon { consumer, .. } = &mut self.collectors else {
            return 0;
        };
        let (headers, index, mirror) = (&self.headers, &self.index, &mut self.mirror);
        let mut n = 0;
        // Each sample is lent from the consumer's own storage: nothing is
        // collected into a Vec first.
        while n < max_msgs
            && consumer.poll_with(now, |host, sample| {
                let Some((i, header)) = index.get(&host).map(|&i| (i, &headers[i])) else {
                    return;
                };
                if let Some(m) = mirror.as_mut() {
                    m.feed(header, sample);
                }
                on_sample(i, header, sample);
            })
        {
            n += 1;
        }
        n
    }

    /// Crash a node: the hardware stops responding; in cron mode the
    /// unsynced local log is lost, in daemon mode the in-memory spool is
    /// wiped into the lost-sequence ledger. Returns samples lost.
    pub fn crash_node(&mut self, node_idx: usize) -> usize {
        // lock-order: class=SimCluster.nodes
        self.cluster.node(node_idx).write().crash();
        match &mut self.collectors {
            Collectors::Cron(cs) => cs[node_idx].on_crash(),
            Collectors::Daemon { daemons, .. } => daemons[node_idx].on_crash(),
        }
    }

    /// Reboot a crashed node: counters restart from zero and the
    /// collector resumes its schedule from the present (the dead window
    /// is not backfilled).
    pub fn reboot_node(&mut self, node_idx: usize) {
        // lock-order: class=SimCluster.nodes
        self.cluster.node(node_idx).write().reboot();
        let now = self.clock().now();
        match &mut self.collectors {
            Collectors::Cron(cs) => cs[node_idx].skip_to(now),
            Collectors::Daemon { daemons, .. } => daemons[node_idx].on_reboot(now),
        }
    }

    /// Set the jobs a node's collector tags its samples with.
    pub fn set_jobs(&mut self, node_idx: usize, jobids: Vec<String>) {
        match &mut self.collectors {
            Collectors::Cron(cs) => cs[node_idx].set_jobs(jobids),
            Collectors::Daemon { daemons, .. } => daemons[node_idx].set_jobs(jobids),
        }
    }

    /// Retune one daemon's sampling cadence from `now` on (daemon mode;
    /// a cron schedule is fixed).
    pub fn set_interval(&mut self, node_idx: usize, now: SimTime, interval: SimDuration) {
        if let Collectors::Daemon { daemons, .. } = &mut self.collectors {
            daemons[node_idx].set_interval(now, interval);
        }
    }

    /// Resize every daemon's spool to `capacity` messages (daemon mode
    /// only; call before driving the pipeline).
    pub fn set_spool(&mut self, capacity: usize) {
        let Collectors::Daemon { daemons, .. } = &mut self.collectors else {
            panic!("spools exist only in daemon mode");
        };
        for d in daemons {
            d.set_spool_config(capacity)
                .expect("set_spool is called before any message is spooled");
        }
    }

    /// Reconcile end-to-end delivery accounting (daemon mode only):
    /// every sequence number is classified exactly once.
    pub fn delivery_report(&self) -> DeliveryReport {
        let Collectors::Daemon {
            daemons, consumer, ..
        } = &self.collectors
        else {
            panic!("delivery accounting requires daemon mode");
        };
        let mut r = DeliveryReport::default();
        for (d, header) in daemons.iter().zip(&self.headers) {
            let host = header.hostname.as_str();
            r.collected += d.collected;
            r.degraded_reads += d.sampler().degraded_reads();
            for seq in 0..d.next_seq() {
                if consumer.has_seen(host, seq) {
                    r.delivered += 1;
                } else if d.spool().contains(seq) {
                    r.in_spool += 1;
                } else if d.spool().evicted().contains(&seq) {
                    r.dropped += 1;
                } else {
                    // Crash-wiped (in the lost ledger) or otherwise
                    // vanished — lost either way.
                    r.lost += 1;
                }
            }
        }
        r.duplicates = consumer.duplicates;
        r.gap_events = consumer.gap_events;
        r.received = consumer.received;
        r.dead_lettered = consumer.dead_lettered;
        r
    }

    /// Aggregate collection-overhead accounting across all nodes.
    pub fn overhead(&self) -> OverheadAccount {
        let samplers: Vec<&Sampler> = match &self.collectors {
            Collectors::Cron(cs) => cs.iter().map(CronCollector::sampler).collect(),
            Collectors::Daemon { daemons, .. } => daemons.iter().map(TaccStatsd::sampler).collect(),
        };
        let mut total = OverheadAccount::default();
        for a in samplers.iter().map(|s| s.account()) {
            total.busy = total.busy + a.busy;
            total.collections += a.collections;
            total.real_nanos += a.real_nanos;
        }
        total
    }

    /// The simulated clock.
    pub fn clock(&self) -> &SimClock {
        self.cluster.clock()
    }

    /// The simulated cluster.
    pub fn cluster(&self) -> &SimCluster {
        &self.cluster
    }

    /// Every node's header (hostname and schemas), by node index.
    pub fn headers(&self) -> &[HostHeader] {
        &self.headers
    }

    /// The central raw-stats archive.
    pub fn archive(&self) -> &Archive {
        &self.archive
    }

    /// The broker (daemon mode only).
    pub fn broker(&self) -> Option<&Broker> {
        match &self.collectors {
            Collectors::Daemon { broker, .. } => Some(broker),
            Collectors::Cron(_) => None,
        }
    }

    /// The consumer (daemon mode only).
    pub fn consumer(&self) -> Option<&StatsConsumer> {
        match &self.collectors {
            Collectors::Daemon { consumer, .. } => Some(consumer),
            Collectors::Cron(_) => None,
        }
    }

    /// Every node's daemon, by node index (empty in cron mode).
    pub fn daemons(&self) -> &[TaccStatsd] {
        match &self.collectors {
            Collectors::Daemon { daemons, .. } => daemons,
            Collectors::Cron(_) => &[],
        }
    }

    /// The time-series database, if enabled.
    pub fn tsdb(&self) -> Option<&TsDb> {
        self.mirror.as_ref().map(|m| &m.tsdb)
    }

    /// Crash-recovery accounting from opening a durable tsdb
    /// ([`SystemConfig::tsdb_dir`]); `None` for in-memory mirrors.
    pub fn tsdb_recovery(&self) -> Option<&RecoveryReport> {
        self.tsdb_recovery.as_ref()
    }

    /// Why the configured durable tsdb fell back to memory, if it did.
    pub fn tsdb_open_error(&self) -> Option<&str> {
        self.tsdb_open_error.as_deref()
    }

    fn host_index(&self, host: &str) -> Option<usize> {
        self.headers.iter().position(|h| h.hostname == host)
    }
}
