//! Property tests for admission-control shed accounting (DESIGN.md
//! §17): under randomized publish/consume interleavings — including
//! consumer stalls and at-least-once retransmits — every message is in
//! exactly one terminal state, and the consumer's dedup/gap counters
//! are *exact*, not merely plausible.
//!
//! Two layers:
//!
//! * `queue_and_consumer_counters_match_reference_model` drives the
//!   real bounded queue + [`StatsConsumer`] in lockstep with an
//!   independent reference model (a `VecDeque` plus the documented
//!   dedup/gap spec) and requires every counter to agree exactly.
//! * `daemon_fleet_conserves_under_randomized_stalls` drives real
//!   [`TaccStatsd`] daemons (spool, backoff, in-order replay) against
//!   a bounded queue with a randomized stall schedule, then settles
//!   and checks the conservation identities:
//!   `offered == published + shed_newest`,
//!   `published == acked + shed_oldest` (drained),
//!   `acked == received + duplicates`, and the sample ledger
//!   `collected == received + shed_oldest + spooled + spool_evicted`.
//!
//! The vendored proptest is primitive-only, so raw integer draws are
//! decoded into operations inside the test bodies.

use bytes::Bytes;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use tacc_broker::{Broker, ShedPolicy};
use tacc_collect::codec;
use tacc_collect::consumer::StatsConsumer;
use tacc_collect::daemon::{LocalPublisher, TaccStatsd};
use tacc_collect::discovery::{discover, BuildOptions};
use tacc_collect::engine::Sampler;
use tacc_collect::record::{HostHeader, Sample};
use tacc_collect::Archive;
use tacc_simnode::intern::Sym;
use tacc_simnode::pseudofs::NodeFs;
use tacc_simnode::topology::NodeTopology;
use tacc_simnode::{SimDuration, SimNode, SimTime};

const QUEUE: &str = "stats";

/// One real (header, sample) pair, collected once: rendering real
/// payloads keeps the consumer's parse path honest without paying a
/// discovery per proptest case.
fn fixture() -> &'static (HostHeader, Sample) {
    static FIX: OnceLock<(HostHeader, Sample)> = OnceLock::new();
    FIX.get_or_init(|| {
        let node = SimNode::new("c401-0001", NodeTopology::stampede());
        let fs = NodeFs::new(&node);
        let cfg = discover(&fs, BuildOptions::default()).expect("discovery succeeds");
        let mut sampler = Sampler::new("c401-0001", &cfg);
        let sample = sampler.sample(&fs, SimTime::from_secs(0), &[], &[]);
        (sampler.header().clone(), sample)
    })
}

/// A daemon-mode message from `host` carrying `seq`.
fn message(host: &str, seq: u64) -> Bytes {
    let (header, sample) = fixture();
    let mut header = header.clone();
    header.hostname = Sym::new(host);
    let mut out = Vec::new();
    codec::render_message_into(&header, sample, Some(seq), &mut out);
    Bytes::from(out)
}

/// Reference model: the documented semantics of a bounded queue plus
/// the consumer's dedup/gap spec, implemented independently of both.
#[derive(Default)]
struct Model {
    ready: VecDeque<(String, u64)>,
    offered: u64,
    published: u64,
    shed_oldest: u64,
    shed_newest: u64,
    acked: u64,
    seen: HashMap<String, HashSet<u64>>,
    max_seq: HashMap<String, u64>,
    received: u64,
    duplicates: u64,
    gap_events: u64,
}

impl Model {
    fn publish(&mut self, capacity: usize, policy: ShedPolicy, host: &str, seq: u64) -> bool {
        self.offered += 1;
        if self.ready.len() >= capacity {
            match policy {
                ShedPolicy::DropOldest => {
                    while self.ready.len() >= capacity {
                        self.ready.pop_front();
                        self.shed_oldest += 1;
                    }
                }
                ShedPolicy::RejectNewest => {
                    self.shed_newest += 1;
                    return false;
                }
            }
        }
        self.published += 1;
        self.ready.push_back((host.to_string(), seq));
        true
    }

    /// Mirror of `StatsConsumer::poll_once`: keep consuming messages
    /// until one yields a *unique* sample (duplicates are counted,
    /// acked, and skipped in the same call). Returns false when the
    /// queue is empty.
    fn poll_once(&mut self) -> bool {
        loop {
            let Some((host, seq)) = self.ready.pop_front() else {
                return false;
            };
            self.acked += 1;
            let seen = self.seen.entry(host.clone()).or_default();
            if !seen.insert(seq) {
                self.duplicates += 1;
                continue;
            }
            let expected = self.max_seq.get(&host).map(|m| m + 1).unwrap_or(0);
            if seq > expected {
                self.gap_events += 1;
            }
            let slot = self.max_seq.entry(host).or_insert(0);
            *slot = (*slot).max(seq);
            self.received += 1;
            return true;
        }
    }
}

proptest! {
    /// Lockstep equivalence: real bounded queue + StatsConsumer vs the
    /// reference model, over randomized publish bursts, at-least-once
    /// retransmits, consumer stalls (absence of consume ops), and both
    /// shed policies. Every counter must agree exactly.
    #[test]
    fn queue_and_consumer_counters_match_reference_model(
        capacity in 1usize..12,
        drop_oldest in any::<bool>(),
        ops in proptest::collection::vec((0u32..4, 0u32..3, 0u32..8), 1..40),
    ) {
        let policy = if drop_oldest {
            ShedPolicy::DropOldest
        } else {
            ShedPolicy::RejectNewest
        };
        let broker = Broker::new();
        broker.declare_bounded(QUEUE, capacity, policy);
        let archive = Arc::new(Archive::new());
        let mut consumer =
            StatsConsumer::new(&broker, QUEUE, Arc::clone(&archive)).expect("queue declared");
        let mut model = Model::default();
        let mut next_seq: HashMap<String, u64> = HashMap::new();
        let now = SimTime::from_secs(0);
        let t0 = Duration::from_millis(0);

        for (kind, host_sel, mag) in ops {
            let host = format!("c401-{:04}", host_sel + 1);
            match kind {
                // Publish a burst of fresh sequence numbers.
                0 | 1 => {
                    for _ in 0..=(mag % 4) {
                        let seq = *next_seq.get(&host).unwrap_or(&0);
                        next_seq.insert(host.clone(), seq + 1);
                        let real = broker.publish(QUEUE, &host, message(&host, seq));
                        let modeled = model.publish(capacity, policy, &host, seq);
                        prop_assert_eq!(real, modeled, "publish accept/reject must agree");
                    }
                }
                // At-least-once retransmit: replay an already-published
                // seq (the lost-ack case the dedup counters exist for).
                2 => {
                    let bound = *next_seq.get(&host).unwrap_or(&0);
                    if bound > 0 {
                        let seq = (mag as u64) % bound;
                        let real = broker.publish(QUEUE, &host, message(&host, seq));
                        let modeled = model.publish(capacity, policy, &host, seq);
                        prop_assert_eq!(real, modeled);
                    }
                }
                // Consume a burst (its absence on other ops is the
                // randomized stall).
                _ => {
                    for _ in 0..=(mag % 6) {
                        let real = consumer.poll_once(now, t0).is_some();
                        let modeled = model.poll_once();
                        prop_assert_eq!(real, modeled, "poll outcomes must agree");
                    }
                }
            }
        }
        // Final drain, then compare every counter.
        while consumer.poll_once(now, t0).is_some() {
            prop_assert!(model.poll_once());
        }
        prop_assert!(!model.poll_once());

        let stats = broker.stats();
        let q = stats.queues.get(QUEUE).expect("queue exists");
        prop_assert_eq!(q.offered, model.offered);
        prop_assert_eq!(q.published, model.published);
        prop_assert_eq!(q.shed_oldest, model.shed_oldest);
        prop_assert_eq!(q.shed_newest, model.shed_newest);
        prop_assert_eq!(q.acked, model.acked);
        prop_assert_eq!(q.depth, 0);
        prop_assert_eq!(q.in_flight, 0);
        prop_assert_eq!(consumer.received, model.received);
        prop_assert_eq!(consumer.duplicates, model.duplicates);
        prop_assert_eq!(consumer.gap_events, model.gap_events);
        prop_assert_eq!(consumer.parse_failures, 0);
        // The identities the soak engine asserts at scale.
        prop_assert_eq!(q.offered, q.published + q.shed_newest);
        prop_assert_eq!(q.published, q.acked + q.shed_oldest);
        prop_assert_eq!(
            q.acked,
            consumer.received + consumer.duplicates + consumer.parse_failures
        );
    }
}

proptest! {
    /// Real daemons (spool + backoff + in-order replay) against a
    /// bounded queue under a randomized stall schedule: after a settle
    /// phase, every collected sample is in exactly one terminal state.
    #[test]
    fn daemon_fleet_conserves_under_randomized_stalls(
        n_hosts in 1usize..4,
        ticks in 4u64..24,
        capacity in 2usize..24,
        drop_oldest in any::<bool>(),
        budget in 0usize..8,
        stalls in proptest::collection::vec(any::<bool>(), 24),
    ) {
        let policy = if drop_oldest {
            ShedPolicy::DropOldest
        } else {
            ShedPolicy::RejectNewest
        };
        let interval = SimDuration::from_mins(10);
        let start = SimTime::from_secs(0);
        let broker = Broker::new();
        broker.declare_bounded(QUEUE, capacity, policy);
        let archive = Arc::new(Archive::new());
        let mut consumer =
            StatsConsumer::new(&broker, QUEUE, Arc::clone(&archive)).expect("queue declared");

        let nodes: Vec<SimNode> = (0..n_hosts)
            .map(|i| SimNode::new(format!("c401-{:04}", i + 1), NodeTopology::stampede()))
            .collect();
        let mut daemons: Vec<TaccStatsd> = nodes
            .iter()
            .map(|node| {
                let fs = NodeFs::new(node);
                let cfg = discover(&fs, BuildOptions::default()).expect("discovery succeeds");
                let hostname = node.hostname.clone();
                TaccStatsd::new(
                    Sampler::new(&hostname, &cfg),
                    interval,
                    QUEUE,
                    Box::new(LocalPublisher(broker.clone())),
                    start,
                )
            })
            .collect();

        let t0 = Duration::from_millis(0);
        for tick in 0..ticks {
            let now = start + SimDuration::from_secs(tick * 600);
            for (node, daemon) in nodes.iter().zip(daemons.iter_mut()) {
                let fs = NodeFs::new(node);
                daemon.tick(&fs, now);
            }
            let stalled = stalls.get(tick as usize).copied().unwrap_or(false);
            if !stalled {
                for _ in 0..budget {
                    if consumer.poll_once(now, t0).is_none() {
                        break;
                    }
                }
            }
        }

        // Settle until spools and the queue are empty: collections keep
        // firing (and are counted), consumption is unbounded, so the
        // backlog drains monotonically. The iteration cap only bounds a
        // broken replay loop — conservation is asserted after.
        for settled in ticks..ticks + 400 {
            let now = start + SimDuration::from_secs(settled * 600);
            for (node, daemon) in nodes.iter().zip(daemons.iter_mut()) {
                let fs = NodeFs::new(node);
                daemon.tick(&fs, now);
                while consumer.poll_once(now, t0).is_some() {}
            }
            if daemons.iter().all(|d| d.spool().is_empty()) && broker.depth(QUEUE) == 0 {
                break;
            }
        }

        let stats = broker.stats();
        let q = stats.queues.get(QUEUE).expect("queue exists");
        prop_assert_eq!(q.depth, 0, "settle must drain the queue");
        prop_assert_eq!(q.in_flight, 0);
        prop_assert_eq!(q.offered, q.published + q.shed_newest);
        prop_assert_eq!(q.published, q.acked + q.shed_oldest);
        prop_assert_eq!(
            q.acked,
            consumer.received + consumer.duplicates + consumer.parse_failures
        );
        prop_assert_eq!(consumer.duplicates, 0, "no retransmits on a clean run");
        prop_assert_eq!(consumer.parse_failures, 0);

        let collected: u64 = daemons.iter().map(|d| d.collected).sum();
        let spooled: u64 = daemons.iter().map(|d| d.spool().len() as u64).sum();
        let spool_evicted: u64 = daemons.iter().map(|d| d.spool().evicted().len() as u64).sum();
        prop_assert_eq!(spooled, 0, "settle must drain every spool");
        prop_assert_eq!(
            collected,
            consumer.received + q.shed_oldest + spooled + spool_evicted,
            "every collected sample is in exactly one terminal state"
        );
        if !drop_oldest {
            // RejectNewest preserves per-host order (refused messages
            // spool and replay ahead of newer ones), so the consumer
            // must never observe a sequence gap.
            prop_assert_eq!(consumer.gap_events, 0);
        } else {
            // Each observed gap requires at least one shed message.
            prop_assert!(consumer.gap_events <= q.shed_oldest);
        }
    }
}
