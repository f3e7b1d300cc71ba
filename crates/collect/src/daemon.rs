//! The daemon operation mode — `tacc_statsd` (§III-A, Fig. 2).
//!
//! "A TACC Stats daemon, tacc_statsd, was implemented that runs on each
//! node and relies on the system call sleep() to induce data collection
//! and RabbitMQ to send data directly over the Ethernet network to a RMQ
//! server."
//!
//! [`TaccStatsd::tick`] is the sleep-loop body, driven in simulated time;
//! each collection is rendered as a self-contained message (header + one
//! sample) and published to the broker queue with the hostname as the
//! routing key.
//!
//! **Delivery semantics.** Every collected sample is stamped with a
//! per-host monotonically increasing sequence number. A publish that
//! fails (broker outage, network drop) lands in a bounded node-local
//! [`Spool`] and is replayed in order — with exponential backoff and
//! per-host jitter — once the broker answers again. While the spool is
//! non-empty, *new* samples are also spooled rather than published, so
//! messages from one host always reach the broker in sequence order.
//! Spool overflow evicts the oldest message into an accounted ledger; a
//! node crash wipes the spool (it lives in volatile memory) into
//! [`TaccStatsd::lost_seqs`]. Publishes are therefore at-least-once and
//! never silently lost: every sequence number is eventually classified
//! delivered, dropped (evicted), or lost (crash-wiped).
//!
//! The §VI-C shared-node scheme also lands here: process start/stop
//! signals ([`TaccStatsd::signal`]) trigger extra collections. "At
//! present, up to one signal can be captured while another signal is
//! still being processed" — one pending slot; signals arriving while the
//! ~0.09 s collection window is busy *and* the slot is full are missed
//! until the next collection.

use crate::codec;
use crate::engine::Sampler;
use crate::record::Sample;
use crate::spool::{Spool, DEFAULT_CAPACITY};
use bytes::Bytes;
use tacc_broker::Broker;
use tacc_simnode::intern::{fnv1a_bytes, FNV_BASIS};
use tacc_simnode::pseudofs::NodeFs;
use tacc_simnode::{SimDuration, SimTime};

/// Where the daemon publishes samples.
pub trait Publisher {
    /// Publish one rendered message carrying sequence number `seq`.
    /// Returns `false` on failure (broker unreachable / queue missing /
    /// message or acknowledgement lost in the network).
    fn publish(&mut self, queue: &str, routing_key: &str, seq: u64, payload: Bytes) -> bool;
}

/// In-process broker transport (the default for simulations).
pub struct LocalPublisher(pub Broker);

impl Publisher for LocalPublisher {
    fn publish(&mut self, queue: &str, routing_key: &str, _seq: u64, payload: Bytes) -> bool {
        self.0.publish(queue, routing_key, payload)
    }
}

/// Spool retry-jitter seed of a host: FNV-1a of its name, so hosts
/// coming back from one outage do not retry in lockstep.
fn jitter_seed(host: &str) -> u64 {
    fnv1a_bytes(FNV_BASIS, host.as_bytes())
}

/// Rejected spool reconfiguration: the spool still holds state that the
/// delivery accounting depends on (see [`TaccStatsd::set_spool_config`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpoolBusy {
    /// Messages awaiting replay at the time of the attempt.
    pub spooled: usize,
    /// Eviction-ledger entries at the time of the attempt.
    pub evicted: usize,
}

impl std::fmt::Display for SpoolBusy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cannot reconfigure a non-empty spool ({} spooled, {} evicted)",
            self.spooled, self.evicted
        )
    }
}

impl std::error::Error for SpoolBusy {}

/// Outcome of a process start/stop signal (§VI-C).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SignalOutcome {
    /// The daemon was idle: collection performed immediately.
    Collected,
    /// The daemon was busy; the signal occupies the single pending slot
    /// and will be processed when the current collection finishes.
    Queued,
    /// Busy and the pending slot was already full: the event is missed
    /// ("they will be missed until the next data collection").
    Missed,
}

/// Per-node daemon state.
pub struct TaccStatsd {
    sampler: Sampler,
    /// The hostname — every message's routing key — resolved once.
    host: &'static str,
    interval: SimDuration,
    queue: String,
    publisher: Box<dyn Publisher>,
    next_sample: SimTime,
    jobids: Vec<String>,
    pending_signal: Option<String>,
    seq: u64,
    spool: Spool,
    lost_seqs: Vec<u64>,
    /// The rendered `$`/`!` header block, cached once: the header is
    /// immutable for the daemon's lifetime and prefixes every message.
    header_buf: Vec<u8>,
    /// Reused per-message render buffer (cleared between messages so
    /// its capacity, sized by the first message, is paid once).
    render_buf: Vec<u8>,
    /// The one sample every collection refills (its record vectors,
    /// sized by the first collection, are likewise paid once).
    sample: Sample,
    /// Samples collected (each consumed one sequence number).
    pub collected: u64,
    /// Messages successfully published (first attempts + replays).
    pub published: u64,
    /// Publish failures (broker unreachable).
    pub publish_failures: u64,
    /// Signals missed because the pending slot was full.
    pub missed_signals: u64,
}

impl TaccStatsd {
    /// New daemon publishing to `queue`, sampling every `interval`,
    /// starting at `start`, with a spool of the default capacity.
    pub fn new(
        sampler: Sampler,
        interval: SimDuration,
        queue: &str,
        publisher: Box<dyn Publisher>,
        start: SimTime,
    ) -> TaccStatsd {
        let host = sampler.header().hostname.as_str();
        let mut header_buf = Vec::new();
        codec::render_header_into(sampler.header(), &mut header_buf);
        TaccStatsd {
            sampler,
            host,
            interval,
            queue: queue.to_string(),
            publisher,
            next_sample: start,
            jobids: Vec::new(),
            pending_signal: None,
            seq: 0,
            spool: Spool::new(DEFAULT_CAPACITY, jitter_seed(host)),
            lost_seqs: Vec::new(),
            header_buf,
            render_buf: Vec::new(),
            sample: Sample::default(),
            collected: 0,
            published: 0,
            publish_failures: 0,
            missed_signals: 0,
        }
    }

    /// The sampler (overhead accounting, busy window).
    pub fn sampler(&self) -> &Sampler {
        &self.sampler
    }

    /// The spool (replay backlog and eviction ledger).
    pub fn spool(&self) -> &Spool {
        &self.spool
    }

    /// Sequence numbers wiped from the spool by node crashes — data
    /// definitively lost, in order.
    pub fn lost_seqs(&self) -> &[u64] {
        &self.lost_seqs
    }

    /// The next sequence number to be assigned (== samples collected).
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    /// Replace the spool with an empty one of `capacity` messages. Fails
    /// if messages are already spooled or evictions have been recorded
    /// (resize before the run, not during an outage: swapping the spool
    /// mid-outage would silently discard the replay backlog and the
    /// eviction ledger that the delivery accounting reconciles against).
    pub fn set_spool_config(&mut self, capacity: usize) -> Result<(), SpoolBusy> {
        if !self.spool.is_empty() || !self.spool.evicted().is_empty() {
            return Err(SpoolBusy {
                spooled: self.spool.len(),
                evicted: self.spool.evicted().len(),
            });
        }
        self.spool = Spool::new(capacity, jitter_seed(self.host));
        Ok(())
    }

    /// Swap the transport (e.g. for fault-injecting publishers).
    pub fn set_publisher(&mut self, publisher: Box<dyn Publisher>) {
        self.publisher = publisher;
    }

    /// Update the set of jobs running on this node.
    pub fn set_jobs(&mut self, jobids: Vec<String>) {
        self.jobids = jobids;
    }

    /// The current sampling interval.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Retune the sampling cadence from `now` on (adaptive sampling).
    ///
    /// Speeding up pulls the next collection forward so it lands
    /// within one new interval of `now`; slowing down keeps an
    /// already-scheduled collection where it is (no sample is skipped)
    /// and applies the new spacing after it fires. Either way the
    /// existing [`TaccStatsd::tick`] loop drives the schedule — no new
    /// scheduling path.
    pub fn set_interval(&mut self, now: SimTime, interval: SimDuration) {
        if interval == self.interval {
            return;
        }
        self.interval = interval;
        let due = now + interval;
        if self.next_sample > due {
            self.next_sample = due;
        }
    }

    /// Node crash: the in-memory spool is wiped. Returns how many
    /// spooled messages were lost; their sequence numbers are appended
    /// to [`TaccStatsd::lost_seqs`].
    pub fn on_crash(&mut self) -> usize {
        self.pending_signal = None;
        let wiped = self.spool.wipe();
        let n = wiped.len();
        self.lost_seqs.extend(wiped);
        n
    }

    /// Node reboot at `now`: the daemon restarts its sleep loop from
    /// the present — it must not backfill samples for the time it was
    /// dead.
    pub fn on_reboot(&mut self, now: SimTime) {
        self.next_sample = now;
    }

    fn collect_and_publish(&mut self, fs: &NodeFs<'_>, now: SimTime, marks: &[String]) {
        self.sampler
            .sample_into(fs, now, &self.jobids, marks, &mut self.sample);
        let seq = self.seq;
        self.seq += 1;
        self.collected += 1;
        // One reused buffer: cached header prefix, `$seq` line, sample.
        // `clear()` keeps the capacity, so steady state renders without
        // allocating; the only per-message allocation is the shared
        // `Bytes` handed to the broker.
        self.render_buf.clear();
        self.render_buf.extend_from_slice(&self.header_buf);
        codec::render_seq(seq, &mut self.render_buf);
        codec::render_sample_into(&self.sample, &mut self.render_buf);
        let payload = Bytes::copy_from_slice(&self.render_buf);
        if !self.spool.is_empty() {
            // Earlier messages are still waiting: spool behind them so
            // the per-host sequence order is preserved on the wire.
            if let Some(evicted) = self.spool.push(seq, payload) {
                debug_assert!(evicted < seq);
            }
            self.try_replay(now);
        } else if self
            .publisher
            .publish(&self.queue, self.host, seq, payload.clone())
        {
            self.published += 1;
        } else {
            self.publish_failures += 1;
            self.spool.push(seq, payload);
            self.spool.on_failure(now);
        }
    }

    /// Replay spooled messages in order while the backoff schedule
    /// allows and publishes keep succeeding.
    fn try_replay(&mut self, now: SimTime) {
        let host = self.host;
        while self.spool.ready(now) {
            // `ready` implies non-empty, but the hot path must not bet
            // the daemon's life on it: an empty front just ends replay.
            let Some(front) = self.spool.front() else {
                break;
            };
            let (seq, payload) = (front.seq, front.payload.clone());
            if self.publisher.publish(&self.queue, host, seq, payload) {
                self.spool.pop();
                self.spool.on_success();
                self.published += 1;
            } else {
                self.publish_failures += 1;
                self.spool.on_failure(now);
                break;
            }
        }
    }

    /// Scheduler-driven collection with a mark (prolog/epilog).
    pub fn collect_marked(&mut self, fs: &NodeFs<'_>, now: SimTime, mark: &str) {
        self.collect_and_publish(fs, now, &[mark.to_string()]);
    }

    /// A process start/stop signal from the LD_PRELOAD shim (§VI-C).
    ///
    /// The mark is `procstart <pid> <comm>` or `procend <pid> <comm>`.
    pub fn signal(&mut self, fs: &NodeFs<'_>, now: SimTime, mark: &str) -> SignalOutcome {
        if self.sampler.is_busy(now) {
            if self.pending_signal.is_none() {
                self.pending_signal = Some(mark.to_string());
                SignalOutcome::Queued
            } else {
                self.missed_signals += 1;
                SignalOutcome::Missed
            }
        } else {
            self.collect_and_publish(fs, now, &[mark.to_string()]);
            SignalOutcome::Collected
        }
    }

    /// Sleep-loop body: replay any spooled backlog that is due, fire
    /// due interval collections, and drain a pending signal once the
    /// busy window has passed.
    pub fn tick(&mut self, fs: &NodeFs<'_>, now: SimTime) {
        self.try_replay(now);
        // Pending signal processed as soon as the previous collection
        // finishes.
        if let Some(mark) = self.pending_signal.take() {
            if !self.sampler.is_busy(now) {
                self.collect_and_publish(fs, now, &[mark]);
            } else {
                self.pending_signal = Some(mark);
            }
        }
        while self.next_sample <= now {
            let t = self.next_sample;
            self.collect_and_publish(fs, t, &[]);
            self.next_sample = self.next_sample + self.interval;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discovery::{discover, BuildOptions};
    use crate::record::RawFile;
    use tacc_simnode::topology::NodeTopology;
    use tacc_simnode::SimNode;

    fn daemon_with_broker(start: SimTime) -> (SimNode, TaccStatsd, Broker) {
        let node = SimNode::new("c401-0001", NodeTopology::stampede());
        let fs = NodeFs::new(&node);
        let cfg = discover(&fs, BuildOptions::default()).unwrap();
        let sampler = Sampler::new("c401-0001", &cfg);
        let broker = Broker::new();
        broker.declare("stats");
        let d = TaccStatsd::new(
            sampler,
            SimDuration::from_mins(10),
            "stats",
            Box::new(LocalPublisher(broker.clone())),
            start,
        );
        (node, d, broker)
    }

    #[test]
    fn interval_collections_publish_immediately() {
        let (node, mut d, broker) = daemon_with_broker(SimTime::from_secs(0));
        let fs = NodeFs::new(&node);
        d.set_jobs(vec!["3001".to_string()]);
        for t in [0u64, 600, 1200, 1800] {
            d.tick(&fs, SimTime::from_secs(t));
        }
        assert_eq!(d.published, 4);
        assert_eq!(d.collected, 4);
        assert_eq!(broker.depth("stats"), 4);
        // Messages are self-contained parseable raw files with
        // monotonically increasing sequence numbers.
        let c = broker.consume("stats").unwrap();
        for want_seq in 0..4u64 {
            let msg = c.get().unwrap();
            let rf = RawFile::parse(std::str::from_utf8(&msg.payload).unwrap()).unwrap();
            assert_eq!(rf.header.hostname, "c401-0001");
            assert_eq!(rf.seq, Some(want_seq));
            assert_eq!(rf.samples.len(), 1);
            assert_eq!(rf.samples[0].jobids, vec!["3001"]);
            assert_eq!(msg.routing_key, "c401-0001");
            c.ack(msg.tag);
        }
    }

    #[test]
    fn publish_failure_spools_instead_of_dropping() {
        let node = SimNode::new("c401-0001", NodeTopology::stampede());
        let fs = NodeFs::new(&node);
        let cfg = discover(&fs, BuildOptions::default()).unwrap();
        let sampler = Sampler::new("c401-0001", &cfg);
        let broker = Broker::new(); // queue never declared
        let mut d = TaccStatsd::new(
            sampler,
            SimDuration::from_mins(10),
            "stats",
            Box::new(LocalPublisher(broker.clone())),
            SimTime::from_secs(0),
        );
        d.tick(&fs, SimTime::from_secs(0));
        assert_eq!(d.published, 0);
        assert_eq!(d.publish_failures, 1);
        assert_eq!(d.spool().len(), 1, "failed publish must be spooled");
        // Once the queue exists, the backlog replays in order on the
        // next tick past the backoff.
        broker.declare("stats");
        d.tick(&fs, SimTime::from_secs(600));
        assert_eq!(d.published, 2, "spooled + new interval sample");
        assert!(d.spool().is_empty());
        let c = broker.consume("stats").unwrap();
        let first = c.get().unwrap();
        let rf = RawFile::parse(std::str::from_utf8(&first.payload).unwrap()).unwrap();
        assert_eq!(
            rf.seq,
            Some(0),
            "replayed message arrives before newer ones"
        );
    }

    #[test]
    fn spool_replay_respects_backoff() {
        let node = SimNode::new("c401-0001", NodeTopology::stampede());
        let fs = NodeFs::new(&node);
        let cfg = discover(&fs, BuildOptions::default()).unwrap();
        let sampler = Sampler::new("c401-0001", &cfg);
        let broker = Broker::new();
        broker.declare("stats");
        broker.stop();
        let mut d = TaccStatsd::new(
            sampler,
            SimDuration::from_mins(10),
            "stats",
            Box::new(LocalPublisher(broker.clone())),
            SimTime::from_secs(0),
        );
        // Several failed collections pile up the backoff.
        d.tick(&fs, SimTime::from_secs(0));
        d.tick(&fs, SimTime::from_secs(600));
        assert_eq!(d.spool().len(), 2);
        let failures_before = d.publish_failures;
        // Broker returns, but the next attempt is not due yet at +1 s.
        broker.restart();
        let next = d.spool().next_attempt();
        assert!(next > SimTime::from_secs(600));
        d.tick(&fs, SimTime::from_secs(601));
        // (601 is within backoff unless jitter made it due — tolerate
        // both, but after the scheduled attempt everything drains.)
        let drain_at = next + SimDuration::from_secs(1);
        d.tick(&fs, drain_at);
        assert!(d.spool().is_empty());
        assert!(d.publish_failures >= failures_before);
        assert_eq!(d.collected, 2);
        assert_eq!(d.published, 2, "both spooled messages replayed");
    }

    #[test]
    fn crash_wipes_spool_into_lost_ledger() {
        let node = SimNode::new("c401-0001", NodeTopology::stampede());
        let fs = NodeFs::new(&node);
        let cfg = discover(&fs, BuildOptions::default()).unwrap();
        let sampler = Sampler::new("c401-0001", &cfg);
        let broker = Broker::new(); // queue missing: all publishes fail
        let mut d = TaccStatsd::new(
            sampler,
            SimDuration::from_mins(10),
            "stats",
            Box::new(LocalPublisher(broker)),
            SimTime::from_secs(0),
        );
        d.tick(&fs, SimTime::from_secs(1200)); // seqs 0,1,2 spooled
        assert_eq!(d.spool().len(), 3);
        let lost = d.on_crash();
        assert_eq!(lost, 3);
        assert_eq!(d.lost_seqs(), &[0, 1, 2]);
        assert!(d.spool().is_empty());
        // Reboot resumes sampling from the present, not the past.
        d.on_reboot(SimTime::from_secs(4000));
        d.tick(&fs, SimTime::from_secs(4000));
        assert_eq!(
            d.collected, 4,
            "exactly one post-reboot sample, no backfill"
        );
    }

    #[test]
    fn signal_when_idle_collects_immediately() {
        let (node, mut d, broker) = daemon_with_broker(SimTime::from_secs(1_000_000));
        let fs = NodeFs::new(&node);
        let out = d.signal(&fs, SimTime::from_secs(50), "procstart 1001 wrf.exe");
        assert_eq!(out, SignalOutcome::Collected);
        assert_eq!(broker.depth("stats"), 1);
    }

    #[test]
    fn second_signal_during_busy_window_queues_third_misses() {
        let (node, mut d, _broker) = daemon_with_broker(SimTime::from_secs(1_000_000));
        let fs = NodeFs::new(&node);
        let t0 = SimTime::from_secs(100);
        assert_eq!(
            d.signal(&fs, t0, "procstart 1 a.out"),
            SignalOutcome::Collected
        );
        // 10 ms later: still inside the ~55-90 ms busy window.
        let t1 = t0 + SimDuration::from_millis(10);
        assert_eq!(
            d.signal(&fs, t1, "procstart 2 b.out"),
            SignalOutcome::Queued
        );
        let t2 = t0 + SimDuration::from_millis(20);
        assert_eq!(
            d.signal(&fs, t2, "procstart 3 c.out"),
            SignalOutcome::Missed
        );
        assert_eq!(d.missed_signals, 1);
        // After the busy window, tick drains the queued signal.
        let t3 = t0 + SimDuration::from_secs(1);
        d.tick(&fs, t3);
        assert_eq!(d.published, 2, "initial + queued signal collection");
    }

    #[test]
    fn queued_signal_survives_busy_tick() {
        let (node, mut d, _broker) = daemon_with_broker(SimTime::from_secs(1_000_000));
        let fs = NodeFs::new(&node);
        let t0 = SimTime::from_secs(100);
        d.signal(&fs, t0, "procstart 1 a.out");
        let t1 = t0 + SimDuration::from_millis(5);
        assert_eq!(d.signal(&fs, t1, "procend 1 a.out"), SignalOutcome::Queued);
        // Tick while still busy: signal must not be dropped.
        d.tick(&fs, t0 + SimDuration::from_millis(10));
        assert_eq!(d.published, 1);
        d.tick(&fs, t0 + SimDuration::from_secs(2));
        assert_eq!(d.published, 2);
    }

    #[test]
    fn every_process_gets_at_least_two_collections() {
        // §VI-C: "This scheme guarantees at least two data points per
        // process are taken regardless of process runtime" (when signals
        // are not missed).
        let (mut node, mut d, broker) = daemon_with_broker(SimTime::from_secs(1_000_000));
        let pid = node.spawn_process("short.x", 5000, 1, 1);
        {
            let fs = NodeFs::new(&node);
            assert_eq!(
                d.signal(
                    &fs,
                    SimTime::from_secs(10),
                    &format!("procstart {pid} short.x")
                ),
                SignalOutcome::Collected
            );
        }
        node.end_process(pid);
        {
            let fs = NodeFs::new(&node);
            assert_eq!(
                d.signal(
                    &fs,
                    SimTime::from_secs(11),
                    &format!("procend {pid} short.x")
                ),
                SignalOutcome::Collected
            );
        }
        let c = broker.consume("stats").unwrap();
        let m1 = c.get().unwrap();
        let rf1 = RawFile::parse(std::str::from_utf8(&m1.payload).unwrap()).unwrap();
        // First collection caught the live process.
        assert_eq!(rf1.samples[0].processes.len(), 1);
        assert!(rf1.samples[0].marks[0].starts_with("procstart"));
        let m2 = c.get().unwrap();
        let rf2 = RawFile::parse(std::str::from_utf8(&m2.payload).unwrap()).unwrap();
        assert!(rf2.samples[0].marks[0].starts_with("procend"));
    }
}
