//! `fleet_clean` and `fleet_hostile`: a Stampede-topology fleet on the
//! virtual clock, each node a `TaccStatsd` publishing through a
//! harness-owned [`Publisher`] into one bounded queue, one consumer
//! draining into an in-memory archive and a three-series-per-host tsdb
//! mirror.
//!
//! The two workloads share every line of the tick loop and differ only
//! in [`FleetParams`]: the clean fleet drains fully every tick into an
//! in-memory tsdb and nothing ever fails; the hostile fleet runs a
//! tighter queue with `DropOldest`, a consumer that is budgeted and
//! periodically stalls, a seeded network [`FaultPlan`], and a *durable*
//! tsdb on a fault-injecting in-memory disk that is killed and
//! recovered three quarters of the way through.
//!
//! One thread, closed loop: tick *k+1* starts when tick *k* has been
//! collected and the consumer leg has returned.

use crate::common::{self, Fnv, Outcome, QueryLog, TickLog};
use crate::trace::{self, Stage};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tacc_broker::{Broker, QueueStats, ShedPolicy};
use tacc_collect::codec;
use tacc_collect::consumer::StatsConsumer;
use tacc_collect::daemon::{Publisher, TaccStatsd};
use tacc_collect::discovery::{discover, BuildOptions};
use tacc_collect::engine::Sampler;
use tacc_collect::{Archive, Sample};
use tacc_metrics::HostAccum;
use tacc_simnode::apps::{AppInstance, AppLibrary};
use tacc_simnode::faults::DiskFaultPlan;
use tacc_simnode::pseudofs::NodeFs;
use tacc_simnode::schema::DeviceType;
use tacc_simnode::topology::NodeTopology;
use tacc_simnode::workload::NodeDemand;
use tacc_simnode::{FaultPlan, SimClock, SimCluster, SimDuration, SimNode, SimTime, Sym};
use tacc_tsdb::{DurOptions, MemVfs, RecoveryReport, SeriesKey, TsDb, DEFAULT_SHARDS};

const QUEUE: &str = "stats";

/// Device types whose per-sample value sums the mirror stores, one
/// series `(host, type, "all", "sum")` each.
const MIRRORED: [DeviceType; 3] = [DeviceType::Cpustat, DeviceType::Mdc, DeviceType::Lnet];

/// Ticks per chunk: one stall period of the hostile fleet, so every
/// chunk holds the same share of stalled ticks.
pub const TICK_CHUNK: usize = 48;

/// `TsDb::recover` calls timed on the hostile fleet's crash image.
const RECOVER_REPEATS: usize = 5;

/// Unsynced bytes each file keeps past its synced prefix in the crash
/// image — a torn in-flight write for recovery to skip.
const TORN_EXTRA: usize = 7;

/// Sizes and switches of one fleet run.
#[derive(Clone, Debug)]
pub struct FleetParams {
    /// Seed for host names, the job mix, both fault plans and the probe
    /// sample.
    pub seed: u64,
    /// Simulated hosts.
    pub nodes: usize,
    /// Measured ticks.
    pub ticks: u64,
    /// Untimed ticks run at the end of set-up.
    pub warmup_ticks: u64,
    /// Queue bound, in messages.
    pub queue_capacity: usize,
    /// Messages the consumer may process per tick (`usize::MAX` drains).
    pub consumer_budget: usize,
    /// Every this many ticks the consumer stalls (0 = never) ...
    pub stall_every: u64,
    /// ... for this many ticks.
    pub stall_len: u64,
    /// Network faults, a durable tsdb on a faulty disk, and a mid-run
    /// kill + recover.
    pub hostile: bool,
    /// Ticks of the settle phase that lets spools drain before the
    /// ledger is read.
    pub settle_ticks: u64,
    /// Passes of the read-back leg, one query per host each. Every pass
    /// is timed; the first is also checked against the reference and, in
    /// a traced run, traced.
    pub readback_passes: u64,
    /// Record spans and run the probe legs.
    pub traced: bool,
}

impl FleetParams {
    /// `fleet_clean` sized for a window of about `seconds` on the
    /// reference host: every ingest layer does its maximal share and
    /// nothing fails.
    pub fn clean(seed: u64, seconds: u64) -> FleetParams {
        let nodes = 64;
        FleetParams {
            seed,
            nodes,
            ticks: (seconds * 60).max(8),
            warmup_ticks: 20,
            queue_capacity: nodes * 2,
            consumer_budget: usize::MAX,
            stall_every: 0,
            stall_len: 0,
            hostile: false,
            settle_ticks: 0,
            readback_passes: 300,
            traced: false,
        }
    }

    /// `fleet_hostile` sized for a window of about `seconds`: the same
    /// fleet under shed, stall, network and disk faults.
    pub fn hostile(seed: u64, seconds: u64) -> FleetParams {
        let nodes = 32;
        FleetParams {
            seed,
            nodes,
            ticks: (seconds * 120).max(48),
            warmup_ticks: 20,
            queue_capacity: nodes * 3 / 2,
            consumer_budget: nodes * 5 / 4,
            stall_every: 48,
            stall_len: 4,
            hostile: true,
            settle_ticks: 24,
            readback_passes: 300,
            traced: false,
        }
    }
}

/// Counters the harness publishers share with the run.
#[derive(Default)]
struct PublishStats {
    /// Publish attempts of a sequence number that was already offered.
    replayed: AtomicU64,
}

/// The harness-owned broker transport: the only place a span can sit
/// *inside* `TaccStatsd::tick`. On the hostile fleet it also applies
/// the plan's per-`(host, seq)` request and acknowledgement drops while
/// `chaos_on` holds (the settle phase clears it — the network heals —
/// so spools can drain instead of retrying a dropped seq forever).
struct FleetPublisher {
    broker: Broker,
    chaos: Option<(Arc<FaultPlan>, Arc<AtomicBool>)>,
    stats: Arc<PublishStats>,
    next_new_seq: u64,
}

impl Publisher for FleetPublisher {
    fn publish(&mut self, queue: &str, routing_key: &str, seq: u64, payload: Bytes) -> bool {
        if seq < self.next_new_seq {
            self.stats.replayed.fetch_add(1, Ordering::Relaxed);
        } else {
            self.next_new_seq = seq + 1;
        }
        let plan = self
            .chaos
            .as_ref()
            .filter(|(_, on)| on.load(Ordering::Relaxed))
            .map(|(plan, _)| plan);
        if plan.is_some_and(|p| p.drops_request(routing_key, seq)) {
            return false;
        }
        let ok = {
            let _span = trace::span(Stage::BrokerPublish);
            self.broker.publish(queue, routing_key, payload)
        };
        // Ack dropped: the broker kept the message, the daemon sees a
        // failure and will retransmit — the consumer's dedup case.
        ok && !plan.is_some_and(|p| p.drops_ack(routing_key, seq))
    }
}

/// A group of nodes running one application, cycling through seeded
/// "jobs" of `period` ticks each.
struct JobGroup {
    first_node: usize,
    app: AppInstance,
    period: u64,
    phase: u64,
    id_base: u64,
}

impl JobGroup {
    fn cycle(&self, tick: u64) -> u64 {
        (tick + self.phase) / self.period
    }

    fn t_frac(&self, tick: u64) -> f64 {
        ((tick + self.phase) % self.period) as f64 / self.period as f64
    }
}

/// Probe state of a traced run: a second sampler and accumulator per
/// node, a probe archive, and buffers, all separate from the pipeline's.
struct Probes {
    samplers: Vec<Sampler>,
    accums: Vec<HostAccum>,
    archive: Archive,
    message: Vec<u8>,
    sample_text: Vec<u8>,
    n: u64,
    pseudofs_bytes: u64,
    message_bytes: u64,
}

/// Per-series reference the harness keeps beside the tsdb: every
/// mirrored point in insertion order.
type SeriesLog = Vec<(u64, f64)>;

/// One fleet, built by [`Fleet::setup`] and consumed by [`Fleet::run`].
pub struct Fleet {
    p: FleetParams,
    start: SimTime,
    hostnames: Vec<String>,
    cluster: SimCluster,
    groups: Vec<JobGroup>,
    group_of: Vec<usize>,
    daemons: Vec<TaccStatsd>,
    broker: Broker,
    consumer: StatsConsumer,
    archive: Arc<Archive>,
    tsdb: TsDb,
    /// The live in-memory disk of the durable (hostile) tsdb.
    disk: Option<MemVfs>,
    plan: Arc<FaultPlan>,
    chaos_on: Arc<AtomicBool>,
    publish_stats: Arc<PublishStats>,
    node_down: Vec<bool>,
    host_idx: HashMap<Sym, usize>,
    keys: Vec<[SeriesKey; 3]>,
    reference: Vec<[SeriesLog; 3]>,
    probes: Option<Probes>,
    /// Next absolute tick (warm-up ticks included).
    tick: u64,
    // Accounting over the whole life of the fleet.
    peak_depth: usize,
    high_watermark_ticks: u64,
    delay_hist: BTreeMap<u64, u64>,
    insert_errors: u64,
    unknown_hosts: u64,
    points_lost_at_crash: u64,
    wal_syncs_before_crash: u64,
    wal_bytes_before_crash: u64,
    wal_points_before_crash: u64,
    recover_ms: Vec<f64>,
    recovery: Option<RecoveryReport>,
}

fn disk_appends_estimate(p: &FleetParams) -> u64 {
    // Roughly one WAL append per point; aim every injected fault at the
    // stretch before the kill.
    p.nodes as u64 * 3 * (p.ticks * 3 / 4).max(1) / 2
}

impl Fleet {
    /// Build the fleet and run its warm-up ticks.
    pub fn setup(p: &FleetParams) -> Fleet {
        let start = common::t0();
        let interval = common::interval();
        let topo = NodeTopology::stampede();
        let hostnames = common::hostnames(p.seed, p.nodes);
        let mut rng = StdRng::seed_from_u64(common::mix(&[p.seed, 2]));

        // The job mix: consecutive groups of 8/4/2/1/1 nodes, each running
        // an application from the production library. The widths and the
        // applications are the same multiset for every seed; the seed
        // decides which group gets which, and each group's job length
        // and phase.
        let lib = AppLibrary::standard();
        let mut widths: Vec<usize> = [8usize, 4, 2, 1, 1]
            .iter()
            .cycle()
            .scan(0usize, |used, &w| {
                let w = w.min(p.nodes - *used);
                *used += w;
                (w > 0).then_some(w)
            })
            .collect();
        common::shuffle(&mut widths, &mut rng);
        let apps = common::app_mix(&lib, widths.len(), &mut rng);
        let mut groups = Vec::with_capacity(widths.len());
        let mut group_of = Vec::with_capacity(p.nodes);
        for (&width, &app) in widths.iter().zip(&apps) {
            let app = lib.entries()[app]
                .0
                .instantiate(&mut rng, width, topo.n_cores(), &topo);
            let period = rng.gen_range(36..144u64);
            groups.push(JobGroup {
                first_node: group_of.len(),
                app,
                period,
                phase: rng.gen_range(0..period),
                id_base: 3_000_000 + groups.len() as u64 * 10_000,
            });
            group_of.extend(std::iter::repeat_n(groups.len() - 1, width));
        }

        let mut nodes: Vec<SimNode> = hostnames
            .iter()
            .map(|h| SimNode::new(h, topo.clone()))
            .collect();
        for (node, &g) in nodes.iter_mut().zip(&group_of) {
            let exec = groups[g].app.exec_name().to_string();
            for _ in 0..topo.n_cores() {
                node.spawn_process(&exec, 5000 + g as u32, 1, u64::MAX);
            }
        }
        let cluster = SimCluster::from_nodes(SimClock::starting_at(start), nodes);

        let broker = Broker::new();
        broker.declare_bounded(QUEUE, p.queue_capacity, ShedPolicy::DropOldest);
        let archive = Arc::new(Archive::new());
        archive.set_retention_bytes(64 << 20);
        let consumer = StatsConsumer::new(&broker, QUEUE, Arc::clone(&archive))
            .expect("queue was just declared");

        let window_start = start + SimDuration::from_secs(p.warmup_ticks * interval.as_secs());
        let plan = Arc::new(if p.hostile {
            FaultPlan::hostile(
                p.seed,
                &hostnames,
                window_start,
                SimDuration::from_secs(p.ticks * interval.as_secs()),
            )
        } else {
            FaultPlan::none()
        });
        let chaos_on = Arc::new(AtomicBool::new(p.hostile));
        let publish_stats = Arc::new(PublishStats::default());

        let mut daemons = Vec::with_capacity(p.nodes);
        let probe_archive = Archive::new();
        probe_archive.set_retention_bytes(8 << 20);
        let mut probes = p.traced.then(|| Probes {
            samplers: Vec::with_capacity(p.nodes),
            accums: Vec::with_capacity(p.nodes),
            archive: probe_archive,
            message: Vec::new(),
            sample_text: Vec::new(),
            n: 0,
            pseudofs_bytes: 0,
            message_bytes: 0,
        });
        for node in cluster.nodes() {
            let guard = node.read();
            let fs = NodeFs::new(&guard);
            let ncfg = discover(&fs, BuildOptions::default()).expect("fresh node discovers");
            let sampler = Sampler::new(&guard.hostname, &ncfg);
            if let Some(pr) = probes.as_mut() {
                let probe_sampler = Sampler::new(&guard.hostname, &ncfg);
                pr.accums.push(HostAccum::new(probe_sampler.header()));
                pr.samplers.push(probe_sampler);
            }
            daemons.push(TaccStatsd::new(
                sampler,
                interval,
                QUEUE,
                Box::new(FleetPublisher {
                    broker: broker.clone(),
                    chaos: p
                        .hostile
                        .then(|| (Arc::clone(&plan), Arc::clone(&chaos_on))),
                    stats: Arc::clone(&publish_stats),
                    next_new_seq: 0,
                }),
                start,
            ));
        }
        let (tsdb, disk) = if p.hostile {
            let disk =
                MemVfs::with_faults(DiskFaultPlan::hostile(p.seed, disk_appends_estimate(p)));
            let (db, _) = TsDb::recover(
                Arc::new(disk.clone()),
                DEFAULT_SHARDS,
                DurOptions::default(),
            )
            .expect("an empty disk opens");
            (db, Some(disk))
        } else {
            (TsDb::new(), None)
        };

        let host_idx = hostnames
            .iter()
            .enumerate()
            .map(|(i, h)| (Sym::new(h), i))
            .collect();
        let keys = hostnames
            .iter()
            .map(|h| MIRRORED.map(|dt| SeriesKey::new(h, dt.name(), "all", "sum")))
            .collect();
        let reference = (0..p.nodes).map(|_| Default::default()).collect();

        let mut fleet = Fleet {
            p: p.clone(),
            start,
            hostnames,
            cluster,
            groups,
            group_of,
            daemons,
            broker,
            consumer,
            archive,
            tsdb,
            disk,
            plan,
            chaos_on,
            publish_stats,
            node_down: vec![false; p.nodes],
            host_idx,
            keys,
            reference,
            probes,
            tick: 0,
            peak_depth: 0,
            high_watermark_ticks: 0,
            delay_hist: BTreeMap::new(),
            insert_errors: 0,
            unknown_hosts: 0,
            points_lost_at_crash: 0,
            wal_syncs_before_crash: 0,
            wal_bytes_before_crash: 0,
            wal_points_before_crash: 0,
            recover_ms: Vec::new(),
            recovery: None,
        };
        for _ in 0..p.warmup_ticks {
            fleet.tick(usize::MAX);
        }
        fleet
    }

    fn now(&self) -> SimTime {
        self.start + SimDuration::from_secs(self.tick * common::interval().as_secs())
    }

    /// Mirror one consumed sample into the tsdb and the reference log.
    fn mirror(&mut self, host: Sym, sample: &Sample) {
        let Some(&idx) = self.host_idx.get(&host) else {
            self.unknown_hosts += 1;
            return;
        };
        let t = sample.time.as_secs();
        for (k, dt) in MIRRORED.iter().enumerate() {
            let mut sum = 0u64;
            let mut any = false;
            for rec in sample.devices_of(*dt) {
                any = true;
                sum = rec
                    .values
                    .as_slice()
                    .iter()
                    .fold(sum, |a, v| a.wrapping_add(*v));
            }
            if !any {
                continue;
            }
            let v = sum as f64;
            let key = self.keys[idx][k].clone();
            if self.p.hostile {
                if self.tsdb.try_insert(key, t, v).is_err() {
                    self.insert_errors += 1;
                }
            } else {
                self.tsdb.insert(key, t, v);
            }
            self.reference[idx][k].push((t, v));
        }
    }

    /// The consumer leg: poll until empty or `budget` samples. Returns
    /// the samples made queryable.
    fn consume(&mut self, budget: usize) -> u32 {
        let now = self.now();
        let mut n = 0u32;
        while (n as usize) < budget {
            let polled = {
                let _span = trace::span(Stage::ConsumerPoll);
                self.consumer.poll_once(now, Duration::ZERO)
            };
            let Some((host, sample)) = polled else {
                break;
            };
            let delay = now.as_secs().saturating_sub(sample.time.as_secs());
            *self.delay_hist.entry(delay).or_insert(0) += 1;
            {
                let _span = trace::span(Stage::TsdbInsert);
                self.mirror(host, &sample);
            }
            n += 1;
        }
        n
    }

    /// Apply the plan's broker outage and node crash/reboot edges.
    fn apply_faults(&mut self, now: SimTime) {
        let down = self.plan.broker_down(now);
        if down != self.broker.is_stopped() {
            if down {
                self.broker.stop();
            } else {
                self.broker.restart();
            }
        }
        for (i, daemon) in self.daemons.iter_mut().enumerate() {
            let host = self.hostnames[i].as_str();
            let in_outage = self
                .plan
                .node_outages
                .iter()
                .any(|o| o.host == host && o.window.contains(now));
            if in_outage && !self.node_down[i] {
                daemon.on_crash();
            } else if !in_outage && self.node_down[i] {
                daemon.on_reboot(now);
            }
            self.node_down[i] = in_outage;
        }
    }

    /// One tick: faults, hardware advance, collect + publish on every
    /// node, consumer leg. Returns the samples made queryable.
    fn tick(&mut self, consumer_budget: usize) -> u32 {
        let now = self.now();
        let tick = self.tick;
        if self.p.hostile {
            self.apply_faults(now);
        }
        // Job boundaries: a group's nodes change job id together.
        for g in &self.groups {
            if tick == 0 || g.cycle(tick) != g.cycle(tick - 1) {
                let id = (g.id_base + g.cycle(tick)).to_string();
                for d in self
                    .daemons
                    .iter_mut()
                    .skip(g.first_node)
                    .take(g.app.n_nodes)
                {
                    d.set_jobs(vec![id.clone()]);
                }
            }
        }
        {
            let _span = trace::span(Stage::SimnodeAdvance);
            let (groups, group_of) = (&self.groups, &self.group_of);
            self.cluster
                .advance_all(common::interval(), |i| -> Option<NodeDemand> {
                    let g = &groups[group_of[i]];
                    Some(g.app.demand(i - g.first_node, g.t_frac(tick)))
                });
        }
        for i in 0..self.daemons.len() {
            if self.node_down[i] {
                continue;
            }
            let node = self.cluster.node(i);
            let guard = node.read();
            let fs = NodeFs::new(&guard);
            {
                let _span = trace::span(Stage::DaemonTick);
                self.daemons[i].tick(&fs, now);
            }
            if trace::enabled() && common::probe_hit(self.p.seed, i as u64, tick) {
                self.probe(i, &fs, now);
            }
        }
        // Watermarks at the tick boundary (what a scheduler would
        // throttle on).
        if let Some(lag) = self.broker.lag(QUEUE) {
            self.peak_depth = self.peak_depth.max(lag.depth);
            if lag.high() {
                self.high_watermark_ticks += 1;
            }
        }
        let made = self.consume(consumer_budget);
        self.tick += 1;
        made
    }

    /// The probe legs on one `(node, tick)`: the same public functions
    /// the daemon and the consumer call, one at a time, on a second
    /// sampler — splitting `daemon_tick` and `consumer_poll` from outside.
    fn probe(&mut self, i: usize, fs: &NodeFs<'_>, now: SimTime) {
        let Some(pr) = self.probes.as_mut() else {
            return;
        };
        pr.n += 1;
        {
            let _span = trace::span(Stage::ProbePseudofs);
            pr.pseudofs_bytes += read_pseudofs(fs);
        }
        let g = &self.groups[self.group_of[i]];
        let jobids = [(g.id_base + g.cycle(self.tick)).to_string()];
        let sample = {
            let _span = trace::span(Stage::ProbeSample);
            pr.samplers[i].sample(fs, now, &jobids, &[])
        };
        pr.message.clear();
        {
            let _span = trace::span(Stage::ProbeRender);
            codec::render_message_into(
                pr.samplers[i].header(),
                &sample,
                Some(self.tick),
                &mut pr.message,
            );
        }
        pr.message_bytes += pr.message.len() as u64;
        let parsed = {
            let _span = trace::span(Stage::ProbeParse);
            codec::parse_bytes(&pr.message)
        };
        std::hint::black_box(&parsed);
        pr.sample_text.clear();
        codec::render_sample_into(&sample, &mut pr.sample_text);
        let t = sample.time.time();
        {
            let _span = trace::span(Stage::ProbeArchive);
            pr.archive.append_bytes(
                pr.samplers[i].header().hostname,
                t.start_of_day(),
                &pr.sample_text,
                &[t],
                now,
            );
        }
        {
            let _span = trace::span(Stage::ProbeAccum);
            pr.accums[i].feed(&sample);
        }
    }

    /// Kill the durable tsdb (dropping what was not fsynced, plus a torn
    /// tail), recover it [`RECOVER_REPEATS`] times from copies of the
    /// same crash image, and check the recovered state against the
    /// reference. The last recovered store becomes the live one.
    fn crash_and_recover(&mut self, out: &mut Outcome) {
        let Some(disk) = self.disk.take() else {
            return;
        };
        if let Some(d) = self.tsdb.durability_stats() {
            self.wal_bytes_before_crash = d.wal_bytes;
            self.wal_points_before_crash = d.points_appended;
        }
        self.wal_syncs_before_crash = disk.stats().syncs;
        let image = disk.crash_image_dropping_unsynced(TORN_EXTRA);
        let before: u64 = self.tsdb.n_points() as u64;
        let mut live = None;
        for _ in 0..RECOVER_REPEATS {
            let copy = image.crash_image();
            let t = Instant::now();
            let recovered = {
                let _span = trace::span(Stage::TsdbRecover);
                TsDb::recover(
                    Arc::new(copy.clone()),
                    DEFAULT_SHARDS,
                    DurOptions::default(),
                )
            };
            self.recover_ms.push(t.elapsed().as_secs_f64() * 1e3);
            match recovered {
                Ok((db, report)) => {
                    if let Some(first) = &self.recovery {
                        out.check(*first == report, || {
                            "recovering the same crash image gave two different reports".into()
                        });
                    } else {
                        self.recovery = Some(report);
                    }
                    live = Some((db, copy));
                }
                Err(e) => out.violation(format!("TsDb::recover failed: {e}")),
            }
        }
        let Some((db, copy)) = live else {
            return;
        };
        self.tsdb = db;
        self.disk = Some(copy);
        if let Some(report) = &self.recovery {
            out.check(report.balances(), || {
                format!("RecoveryReport does not balance: {report:?}")
            });
        }
        // Every recovered series must be a prefix (in insertion order)
        // of what was inserted before the crash; what lies past the
        // prefix was never fsynced and is gone.
        let _span = trace::span(Stage::HarnessCheck);
        let mut recovered_points = 0u64;
        for (idx, logs) in self.reference.iter_mut().enumerate() {
            for (k, log) in logs.iter_mut().enumerate() {
                let mut got: Vec<(u64, f64)> = Vec::with_capacity(log.len());
                self.tsdb
                    .range_for_each(&self.keys[idx][k], 0, u64::MAX, |t, v| got.push((t, v)));
                recovered_points += got.len() as u64;
                if got.len() > log.len() {
                    out.violations.push(format!(
                        "{}: recovered {} points of {} inserted",
                        self.keys[idx][k],
                        got.len(),
                        log.len()
                    ));
                    out.failed += 1;
                    continue;
                }
                let mut prefix = log[..got.len()].to_vec();
                prefix.sort_by_key(|&(t, _)| t);
                if prefix != got {
                    out.violations.push(format!(
                        "{}: recovered series is not a prefix of the pre-crash series",
                        self.keys[idx][k]
                    ));
                    out.failed += 1;
                }
                log.truncate(got.len());
            }
        }
        self.points_lost_at_crash = before.saturating_sub(recovered_points);
    }

    /// Let the network heal and the spools drain, so the ledger sees
    /// terminal states rather than a retry in flight.
    fn settle(&mut self) {
        self.chaos_on.store(false, Ordering::Relaxed);
        if self.broker.is_stopped() {
            self.broker.restart();
        }
        for _ in 0..self.p.settle_ticks {
            let now = self.now();
            for i in 0..self.daemons.len() {
                if std::mem::take(&mut self.node_down[i]) {
                    self.daemons[i].on_reboot(now);
                }
                let node = self.cluster.node(i);
                let guard = node.read();
                let fs = NodeFs::new(&guard);
                self.daemons[i].tick(&fs, now);
                drop(guard);
                // Consume beside each host's replay burst: a healthy
                // consumer keeps pace, so replays are not shed against
                // the bounded queue they drain into.
                self.consume(usize::MAX);
            }
            self.tick += 1;
        }
        self.consume(usize::MAX);
    }

    /// The read-back leg: one client asks for one host at a time — its
    /// three series over the whole run, through `TsDb::range_for_each` —
    /// `readback_passes` times round the fleet. The first pass is
    /// compared with the reference point for point.
    fn read_back(&self, out: &mut Outcome) {
        // Reference answers, one per host: its series in time order.
        let want: Vec<(usize, Fnv)> = self
            .reference
            .iter()
            .map(|logs| {
                let mut ck = Fnv::default();
                let mut n = 0;
                for log in logs {
                    let mut sorted = log.clone();
                    sorted.sort_by_key(|&(t, _)| t);
                    for (t, v) in sorted {
                        ck.push(t);
                        ck.push(v.to_bits());
                        n += 1;
                    }
                }
                (n, ck)
            })
            .collect();
        let passes = self.p.readback_passes.max(1);
        out.queries = QueryLog::with_capacity(want.len() * passes as usize);
        for pass in 0..passes {
            for (host, (want_n, want_ck)) in want.iter().enumerate() {
                trace::set_trace_id(host as u32);
                let mut got = Fnv::default();
                let mut got_n = 0;
                let t = Instant::now();
                {
                    let _root = trace::span(Stage::Op);
                    for key in &self.keys[host] {
                        let _span = trace::span(Stage::TsdbRange);
                        got_n += self.tsdb.range_for_each(key, 0, u64::MAX, |t, v| {
                            got.push(t);
                            got.push(v.to_bits());
                        });
                    }
                }
                out.queries.ns.push(t.elapsed().as_nanos() as u64);
                out.attempted += 1;
                if pass == 0 {
                    out.check(got_n == *want_n && got == *want_ck, || {
                        format!(
                            "{}: read back {got_n} points, the reference has {want_n}",
                            self.hostnames[host]
                        )
                    });
                }
            }
            trace::set_paused(true);
        }
        trace::set_paused(false);
    }

    /// Run the measured window, the hostile crash/recover and settle,
    /// the ledger and identity checks, and the read-back leg.
    pub fn run(mut self) -> Outcome {
        let p = self.p.clone();
        let mut out = Outcome {
            ticks: TickLog {
                drifting: p.hostile,
                ..TickLog::with_capacity(p.ticks as usize)
            },
            tick_chunk: TICK_CHUNK,
            ..Outcome::default()
        };
        let n_queries = p.nodes * 4;
        if p.traced {
            // Per tick: a root, the advance, and per node a daemon tick,
            // its publish, a poll and an insert; the 1-in-64 probes and
            // the read-back fit in the slack.
            trace::install(p.ticks as usize * (p.nodes * 9 / 2 + 8) + 2 * n_queries);
        }
        let crash_tick = p.hostile.then_some(p.ticks * 3 / 4);
        let window = Instant::now();
        for m in 0..p.ticks {
            if crash_tick == Some(m) {
                self.crash_and_recover(&mut out);
            }
            trace::set_trace_id(m as u32);
            let stalled = p.stall_every > 0 && m % p.stall_every < p.stall_len;
            let budget = if stalled { 0 } else { p.consumer_budget };
            let t = Instant::now();
            let made = {
                let _root = trace::span(Stage::Tick);
                self.tick(budget)
            };
            out.ticks.push(t.elapsed().as_nanos() as u64, made);
        }
        out.window_ns = window.elapsed().as_nanos() as u64;
        if p.hostile {
            trace::set_paused(true);
            self.settle();
            trace::set_paused(false);
        }
        self.ledger(&mut out);
        self.read_back(&mut out);
        out.spans = trace::take();
        if p.traced {
            self.layer_from_spans(&mut out);
        }
        out
    }

    /// Read every public counter after the run; check the identities.
    fn ledger(&self, out: &mut Outcome) {
        let p = &self.p;
        let mut collected = 0u64;
        let mut spooled = 0u64;
        let mut spool_evicted = 0u64;
        let mut lost = 0u64;
        for d in &self.daemons {
            collected += d.collected;
            spooled += d.spool().len() as u64;
            spool_evicted += d.spool().evicted().len() as u64;
            lost += d.lost_seqs().len() as u64;
        }
        let c = &self.consumer;
        let q: QueueStats = self
            .broker
            .stats()
            .queues
            .get(QUEUE)
            .copied()
            .unwrap_or_default();
        let mut identity_violations = 0u64;
        let mut identity = |ok: bool, what: String| {
            if !ok {
                identity_violations += 1;
                out.violation(what);
            }
        };
        identity(
            q.offered == q.published + q.shed_newest,
            format!(
                "offered {} != published {} + shed_newest {}",
                q.offered, q.published, q.shed_newest
            ),
        );
        identity(
            q.published == q.acked + q.depth as u64 + q.in_flight as u64 + q.shed_oldest,
            format!(
                "published {} != acked {} + depth {} + in_flight {} + shed_oldest {}",
                q.published, q.acked, q.depth, q.in_flight, q.shed_oldest
            ),
        );
        identity(
            q.acked == c.received + c.duplicates + c.parse_failures,
            format!(
                "acked {} != received {} + duplicates {} + parse_failures {}",
                q.acked, c.received, c.duplicates, c.parse_failures
            ),
        );
        let slack =
            collected as i64 - (c.received + q.shed_oldest + spooled + spool_evicted + lost) as i64;
        let reference_points: u64 = self
            .reference
            .iter()
            .flat_map(|logs| logs.iter())
            .map(|log| log.len() as u64)
            .sum();
        let queryable: u64 = self.reference.iter().map(|logs| logs[0].len() as u64).sum();
        let n_points = self.tsdb.n_points() as u64;
        out.check(n_points == reference_points, || {
            format!("tsdb holds {n_points} points, the reference {reference_points}")
        });
        out.check(c.parse_failures == 0, || {
            format!("{} samples failed to parse", c.parse_failures)
        });
        out.check(self.unknown_hosts == 0, || {
            format!("{} samples from unknown hosts", self.unknown_hosts)
        });
        out.check(q.depth == 0 && q.in_flight == 0, || {
            format!(
                "queue not drained: depth {} in flight {}",
                q.depth, q.in_flight
            )
        });
        if p.hostile {
            // A retransmitted copy can be shed while its first copy is
            // (or will be) received, so the sample ledger is bounded by
            // the overlap candidates, not exact (ROADMAP item 5a).
            let bound = (q.shed_oldest + spool_evicted + lost) as i64;
            out.check(slack.abs() <= bound, || {
                format!("|ledger slack {slack}| exceeds the overlap bound {bound}")
            });
            out.check(
                n_points + self.points_lost_at_crash == 3 * c.received,
                || {
                    format!(
                        "tsdb points {n_points} + lost at crash {} != 3 x received {}",
                        self.points_lost_at_crash, c.received
                    )
                },
            );
        } else {
            out.check(slack == 0, || format!("clean ledger slack {slack} != 0"));
            out.check(c.duplicates == 0, || {
                format!("clean run saw {} duplicates", c.duplicates)
            });
            out.check(n_points == 3 * c.received, || {
                format!("tsdb points {n_points} != 3 x received {}", c.received)
            });
            out.check(collected == c.received, || {
                format!("collected {collected} != received {}", c.received)
            });
        }
        out.collected = collected;
        out.queryable = queryable;
        out.attempted += collected;

        let total_delay: u64 = self.delay_hist.values().sum();
        let delay_rank = |q: f64| -> f64 {
            let want = ((total_delay as f64) * q).ceil().max(1.0) as u64;
            let mut seen = 0u64;
            for (&d, &n) in &self.delay_hist {
                seen += n;
                if seen >= want {
                    return d as f64;
                }
            }
            0.0
        };
        let archive = self.archive.retention_stats();
        let l = &mut out.layer;
        l.insert(
            "collect.spool.replayed",
            self.publish_stats.replayed.load(Ordering::Relaxed) as f64,
        );
        l.insert("collect.spool.evicted", spool_evicted as f64);
        l.insert("collect.daemon.lost", lost as f64);
        l.insert("collect.consumer.duplicates", c.duplicates as f64);
        l.insert("collect.consumer.gap_events", c.gap_events as f64);
        l.insert("collect.consumer.parse_failures", c.parse_failures as f64);
        l.insert("collect.ledger_slack", slack as f64);
        l.insert("collect.archive.stored_bytes", archive.stored_bytes as f64);
        l.insert(
            "collect.archive.evicted_bytes",
            archive.evicted_bytes as f64,
        );
        l.insert("broker.queue.peak_depth", self.peak_depth as f64);
        l.insert("broker.queue.shed_oldest", q.shed_oldest as f64);
        l.insert("broker.queue.shed_newest", q.shed_newest as f64);
        l.insert(
            "broker.queue.high_watermark_ticks",
            self.high_watermark_ticks as f64,
        );
        l.insert("broker.queue_delay_sim_s_p50", delay_rank(0.50));
        l.insert("broker.queue_delay_sim_s_p99", delay_rank(0.99));
        l.insert("broker.identity_violations", identity_violations as f64);
        l.insert("tsdb.seal.blocks", self.tsdb.n_sealed_blocks() as f64);
        l.insert(
            "tsdb.storage_bytes_per_point",
            self.tsdb.storage_bytes() as f64 / n_points.max(1) as f64,
        );
        l.insert("tsdb.seal.tick_ms_max", out.ticks.max_ms());
        let cache = self.tsdb.cache_stats();
        let lookups = cache.hits + cache.misses;
        l.insert(
            "tsdb.cache.hit_rate",
            cache.hits as f64 / lookups.max(1) as f64,
        );
        l.insert("tsdb.cache.evicted_pressure", cache.evicted_pressure as f64);
        l.insert("tsdb.cache.rejected", cache.rejected as f64);
        if p.hostile {
            let (live_syncs, live) = (
                self.disk.as_ref().map_or(0, |d| d.stats().syncs),
                self.tsdb.durability_stats().unwrap_or_default(),
            );
            let wal_points = self.wal_points_before_crash + live.points_appended;
            l.insert(
                "tsdb.wal.bytes_per_point",
                (self.wal_bytes_before_crash + live.wal_bytes) as f64 / wal_points.max(1) as f64,
            );
            l.insert(
                "tsdb.wal.fsyncs",
                (self.wal_syncs_before_crash + live_syncs) as f64,
            );
            l.insert("tsdb.wal.insert_errors", self.insert_errors as f64);
            l.insert("tsdb.recover.points_lost", self.points_lost_at_crash as f64);
            let ms = crate::stats::median(&self.recover_ms);
            l.insert("tsdb.recover.ms_p50", ms);
            if let Some(r) = &self.recovery {
                l.insert(
                    "tsdb.recover.points_per_s",
                    r.points_recovered as f64 / (ms / 1e3).max(1e-9),
                );
                l.insert("tsdb.recover.balances", f64::from(u8::from(r.balances())));
            }
        }
    }

    /// Per-layer values that come from the traced run's spans.
    fn layer_from_spans(&self, out: &mut Outcome) {
        let rows = trace::summarize(&out.spans);
        let row = |s| trace::row(&rows, s);
        let wall_ns = out.ticks.total_ns().max(1) as f64;
        let window_samples = row(Stage::DaemonTick).calls.max(1) as f64;
        let msgs = out.ticks.total_samples().max(1) as f64;
        let node_steps = (self.p.nodes as u64 * self.p.ticks).max(1) as f64;
        let adv = row(Stage::SimnodeAdvance);
        let tick = row(Stage::DaemonTick);
        let poll = row(Stage::ConsumerPoll);
        let insert = row(Stage::TsdbInsert);
        let l = &mut out.layer;
        l.insert(
            "simnode.advance.ns_per_node_step",
            adv.total_ns as f64 / node_steps,
        );
        l.insert("simnode.advance.share", adv.self_ns as f64 / wall_ns);
        l.insert(
            "collect.daemon_tick.self_ns_per_sample",
            tick.self_ns as f64 / window_samples,
        );
        l.insert(
            "collect.daemon_tick.allocs_per_sample",
            tick.allocs as f64 / window_samples,
        );
        l.insert(
            "collect.consumer_poll.ns_per_msg",
            poll.total_ns as f64 / msgs,
        );
        l.insert(
            "collect.consumer_poll.allocs_per_msg",
            poll.allocs as f64 / msgs,
        );
        l.insert(
            "broker.publish.ns_per_msg",
            row(Stage::BrokerPublish).avg_ns(),
        );
        l.insert(
            "tsdb.insert.ns_per_point",
            insert.total_ns as f64 / (3.0 * insert.calls.max(1) as f64),
        );
        // One traced pass visits every point once.
        l.insert(
            "tsdb.range.ns_per_point",
            row(Stage::TsdbRange).total_ns as f64 / self.tsdb.n_points().max(1) as f64,
        );
        if let Some(pr) = &self.probes {
            let n = pr.n.max(1) as f64;
            let per = |s| row(s).total_ns as f64 / n;
            l.insert(
                "simnode.pseudofs_read.ns_per_sample",
                per(Stage::ProbePseudofs),
            );
            l.insert(
                "simnode.pseudofs_read.bytes_per_sample",
                pr.pseudofs_bytes as f64 / n,
            );
            l.insert("collect.sample.ns_per_sample", per(Stage::ProbeSample));
            l.insert(
                "collect.codec_render.ns_per_sample",
                per(Stage::ProbeRender),
            );
            l.insert(
                "collect.codec_render.bytes_per_sample",
                pr.message_bytes as f64 / n,
            );
            l.insert("collect.codec_parse.ns_per_sample", per(Stage::ProbeParse));
            l.insert(
                "collect.codec_parse.allocs_per_sample",
                row(Stage::ProbeParse).allocs as f64 / n,
            );
            l.insert(
                "collect.archive_append.ns_per_sample",
                per(Stage::ProbeArchive),
            );
            l.insert("metrics.accum_feed.ns_per_sample", per(Stage::ProbeAccum));
            l.insert(
                "metrics.accum_feed.allocs_per_sample",
                row(Stage::ProbeAccum).allocs as f64 / n,
            );
        }
    }
}

/// Read every pseudo-file the collectors read (listing the directories
/// they list), returning the bytes of text rendered.
fn read_pseudofs(fs: &NodeFs<'_>) -> u64 {
    let mut bytes = 0u64;
    let mut read = |path: &str| {
        if let Some(text) = fs.read(path) {
            bytes += text.len() as u64;
        }
    };
    read("/proc/stat");
    read("/proc/net/dev");
    read("/proc/sys/lnet/stats");
    for dir in fs.list("/sys/devices/system/node") {
        read(&format!("/sys/devices/system/node/{dir}/meminfo"));
    }
    for hca in fs.list("/sys/class/infiniband") {
        for counter in [
            "port_xmit_data",
            "port_rcv_data",
            "port_xmit_pkts",
            "port_rcv_pkts",
        ] {
            read(&format!(
                "/sys/class/infiniband/{hca}/ports/1/counters/{counter}"
            ));
        }
    }
    for kind in ["llite", "mdc", "osc"] {
        for dir in fs.list(&format!("/proc/fs/lustre/{kind}")) {
            read(&format!("/proc/fs/lustre/{kind}/{dir}/stats"));
        }
    }
    for card in fs.list("/sys/class/mic") {
        read(&format!("/sys/class/mic/{card}/stats"));
    }
    for pid in fs.list("/proc") {
        read(&format!("/proc/{pid}/status"));
    }
    bytes
}
