//! The broker consumer (§III-A, Fig. 2).
//!
//! "A data consuming executable was implemented to consume this data
//! from the RMQ server as soon as it is available and output the data to
//! raw stats files" — and, in this new version, to feed online analysis
//! (§VI-B) without waiting for the daily archive cycle.

use crate::archive::Archive;
use crate::codec::{self, Decoded, Envelope, SchemaCache};
use crate::record::Sample;
use crate::seqs::SeqSet;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;
use tacc_broker::{Broker, Consumer, Delivery};
use tacc_simnode::intern::Sym;
use tacc_simnode::SimTime;

/// Drains a broker queue into the archive and hands each sample to an
/// optional online callback.
///
/// At-least-once hardening: messages carrying a `$seq` header are
/// deduplicated per host (replays after a lost acknowledgement are
/// counted and skipped, never archived twice) and arrival gaps in the
/// per-host sequence are detected. Unparseable payloads are routed to a
/// configured dead-letter queue with their original routing key rather
/// than being silently discarded.
pub struct StatsConsumer {
    consumer: Consumer,
    queue_name: String,
    broker: Broker,
    archive: Arc<Archive>,
    /// `(host, day)` pairs whose archive file already has a header.
    /// Hosts are interned: the key is two machine words, and inserts
    /// hash an integer instead of re-hashing the hostname text.
    headered: HashSet<(Sym, u64)>,
    /// Per-host sequence numbers already archived.
    seqs: HashMap<Sym, SeqSet>,
    /// Schema blocks already parsed: every message of a node type
    /// repeats its block byte for byte.
    schemas: SchemaCache,
    /// The message being processed, decoded into storage reused from
    /// one message to the next.
    decoded: Decoded,
    /// Render buffer for the appends that cannot copy the wire bytes: a
    /// host-day's first (header + sample) and non-canonical samples.
    render_buf: Vec<u8>,
    dead_letter: Option<String>,
    /// Messages processed (unique — duplicates excluded).
    pub received: u64,
    /// Messages that failed to parse (counted, acked, dead-lettered if
    /// a dead-letter queue is configured, otherwise dropped).
    pub parse_failures: u64,
    /// Redelivered duplicates skipped by sequence-number dedup.
    pub duplicates: u64,
    /// Unparseable messages republished to the dead-letter queue.
    pub dead_lettered: u64,
    /// Arrival-order gaps observed in per-host sequences (a message
    /// arrived with seq > expected; the missing ones may still arrive
    /// later via replay).
    pub gap_events: u64,
}

impl StatsConsumer {
    /// Attach to `queue` on `broker`, writing into `archive`.
    // alloc: cold-fn (constructor)
    pub fn new(broker: &Broker, queue: &str, archive: Arc<Archive>) -> Option<StatsConsumer> {
        Some(StatsConsumer {
            consumer: broker.consume(queue)?,
            queue_name: queue.to_string(),
            broker: broker.clone(),
            archive,
            headered: HashSet::new(),
            seqs: HashMap::new(),
            schemas: SchemaCache::new(),
            decoded: Decoded::default(),
            render_buf: Vec::new(),
            dead_letter: None,
            received: 0,
            parse_failures: 0,
            duplicates: 0,
            dead_lettered: 0,
            gap_events: 0,
        })
    }

    /// The queue this consumer drains.
    pub fn queue(&self) -> &str {
        &self.queue_name
    }

    /// Route unparseable payloads to `queue` (declared here if absent)
    /// instead of dropping them after counting.
    pub fn set_dead_letter(&mut self, queue: &str) {
        self.broker.declare(queue);
        // alloc: cold (configuration)
        self.dead_letter = Some(queue.to_string());
    }

    /// Has this host's sequence number been archived?
    pub fn has_seen(&self, host: &str, seq: u64) -> bool {
        self.seqs
            .get(&Sym::new(host))
            .is_some_and(|s| s.contains(seq))
    }

    /// Sequence numbers below the host's high-water mark that never
    /// arrived — the candidates for dropped/lost classification.
    pub fn missing(&self, host: &str) -> Vec<u64> {
        let seqs = self.seqs.get(&Sym::new(host));
        let absent = |s: &u64| seqs.is_some_and(|h| !h.contains(*s));
        let max = seqs.and_then(SeqSet::max).unwrap_or(0);
        // alloc: cold (delivery reporting, not the sample path)
        (0..=max).filter(absent).collect()
    }

    fn reject(&mut self, delivery: Delivery) {
        self.parse_failures += 1;
        if let Some(dlq) = &self.dead_letter {
            // Keep the original routing key so operators can trace the
            // poison message back to its producer.
            // alloc: cold (poison message; the clone is a refcount bump)
            let payload = delivery.payload.clone();
            if self
                .broker
                .publish(dlq, delivery.routing_key.as_str(), payload)
            {
                self.dead_lettered += 1;
            }
        }
        self.consumer.ack(delivery.tag);
    }

    /// The one stateful path every decoded message takes, in arrival
    /// order: sequence dedup, gap detection, header once per host-day,
    /// archive append, ack. False for a replay (counted and skipped).
    fn accept(
        &mut self,
        delivery: Delivery,
        envelope: &Envelope,
        decoded: &Decoded,
        now: SimTime,
    ) -> bool {
        let host = envelope.hostname;
        if let Some(seq) = envelope.seq {
            let seqs = self.seqs.entry(host).or_default();
            let expected = seqs.max().map_or(0, |m| m.wrapping_add(1));
            if !seqs.insert(seq) {
                // At-least-once replay after a lost ack: already
                // archived, skip.
                self.duplicates += 1;
                self.consumer.ack(delivery.tag);
                return false;
            }
            if seq > expected {
                self.gap_events += 1;
            }
        }
        for (sample, span) in decoded.samples.iter().zip(&decoded.spans) {
            let t = sample.time.time();
            let day = t.start_of_day();
            // A canonical span is byte for byte what rendering the
            // sample would produce: archive the wire bytes themselves.
            let wire = delivery
                .payload
                .get(span.start..span.end)
                .filter(|_| span.canonical);
            let first = self.headered.insert((host, day.as_secs()))
                && !self.archive.has_file(host.as_str(), day);
            let bytes = match (wire, first) {
                (Some(bytes), false) => bytes,
                _ => {
                    self.render_buf.clear();
                    if first {
                        // alloc: cold (once per host-day: the envelope's schemas are copied into a header)
                        let header = envelope.clone().into_header();
                        codec::render_header_into(&header, &mut self.render_buf);
                    }
                    match wire {
                        Some(bytes) => self.render_buf.extend_from_slice(bytes),
                        None => codec::render_sample_into(sample, &mut self.render_buf),
                    }
                    &self.render_buf
                }
            };
            self.archive.append_bytes(host, day, bytes, &[t], now);
        }
        self.consumer.ack(delivery.tag);
        self.received += 1;
        true
    }

    /// Consume deliveries until one is accepted, leaving it decoded in
    /// `self.decoded`; returns its host if it carried a sample. Rejected
    /// and duplicate messages are consumed on the way, so one poison
    /// message can't stall a drain.
    fn next(&mut self, now: SimTime) -> Option<Sym> {
        loop {
            let delivery = self.consumer.get()?;
            let mut decoded = std::mem::take(&mut self.decoded);
            // Decode straight out of the delivered frame buffer.
            let fresh = match codec::decode_into(&delivery.payload, &mut self.schemas, &mut decoded)
            {
                Ok(envelope) => self
                    .accept(delivery, &envelope, &decoded, now)
                    .then_some(envelope.hostname),
                Err(_) => {
                    self.reject(delivery);
                    None
                }
            };
            self.decoded = decoded;
            if let Some(host) = fresh {
                return (!self.decoded.samples.is_empty()).then_some(host);
            }
        }
    }

    /// Process at most one message and lend its last sample to `f`.
    /// `now` is the (simulated) arrival time used for data-availability
    /// latency accounting. False when nothing was processed. The sample
    /// lives in storage the consumer reuses, so in steady state this
    /// allocates nothing. Never blocks: an empty queue returns false at
    /// once.
    pub fn poll_with(&mut self, now: SimTime, f: impl FnOnce(Sym, &Sample)) -> bool {
        let Some(host) = self.next(now) else {
            return false;
        };
        if let Some(sample) = self.decoded.samples.last() {
            f(host, sample);
        }
        true
    }

    /// [`StatsConsumer::poll_with`] handing the sample out by value:
    /// returns the (interned) hostname and sample if a message was
    /// processed.
    ///
    /// `_timeout` is ignored: the broker never blocks (see
    /// `tacc_broker::Consumer::get`), so an empty queue returns `None` at
    /// once. The argument stays: this signature is on the benchmark's
    /// frozen measured surface (`benchmark/README.md`).
    pub fn poll_once(&mut self, now: SimTime, _timeout: Duration) -> Option<(Sym, Sample)> {
        let host = self.next(now)?;
        let sample = self.decoded.samples.last_mut()?;
        Some((host, std::mem::take(sample)))
    }

    /// Drain everything currently queued; returns the processed samples.
    pub fn drain(&mut self, now: SimTime) -> Vec<(Sym, Sample)> {
        // alloc: cold (owned-return wrapper: callers that keep nothing use poll_with)
        let mut out = Vec::new();
        // alloc: cold (same)
        while self.poll_with(now, |host, s| out.push((host, s.clone()))) {}
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::{LocalPublisher, TaccStatsd};
    use crate::discovery::{discover, BuildOptions};
    use crate::engine::Sampler;
    use tacc_simnode::pseudofs::NodeFs;
    use tacc_simnode::topology::NodeTopology;
    use tacc_simnode::{SimDuration, SimNode};

    fn setup() -> (SimNode, TaccStatsd, Broker, Arc<Archive>) {
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
            SimTime::from_secs(0),
        );
        (node, d, broker, Arc::new(Archive::new()))
    }

    #[test]
    fn consumer_archives_samples_in_real_time() {
        let (node, mut d, broker, archive) = setup();
        let fs = NodeFs::new(&node);
        let mut consumer = StatsConsumer::new(&broker, "stats", Arc::clone(&archive)).unwrap();
        for t in [0u64, 600, 1200] {
            d.tick(&fs, SimTime::from_secs(t));
            // Consumer sees it "as soon as it is available": 1 s later.
            let got = consumer.drain(SimTime::from_secs(t + 1));
            assert_eq!(got.len(), 1);
            assert_eq!(got[0].0, "c401-0001");
        }
        assert_eq!(consumer.received, 3);
        let lat = archive.latency_stats();
        assert_eq!(lat.count, 3);
        assert!(
            lat.max_secs <= 1.0,
            "real-time latency, got {}",
            lat.max_secs
        );
        // Archived file parses and holds all three samples under day 0.
        let rf = archive
            .parse("c401-0001", SimTime::from_secs(0))
            .unwrap()
            .unwrap();
        assert_eq!(rf.samples.len(), 3);
    }

    #[test]
    fn header_written_once_per_host_day() {
        let (node, mut d, broker, archive) = setup();
        let fs = NodeFs::new(&node);
        let mut consumer = StatsConsumer::new(&broker, "stats", Arc::clone(&archive)).unwrap();
        d.tick(&fs, SimTime::from_secs(0));
        d.tick(&fs, SimTime::from_secs(600));
        consumer.drain(SimTime::from_secs(601));
        let headers = archive.with_bytes("c401-0001", SimTime::from_secs(0), |b| {
            String::from_utf8_lossy(b).matches("$hostname").count()
        });
        assert_eq!(headers, Some(1));
        // Samples spanning midnight land in separate day files.
        d.tick(&fs, SimTime::from_secs(86_400 + 600));
        consumer.drain(SimTime::from_secs(86_400 + 601));
        assert!(archive.has_file("c401-0001", SimTime::from_secs(86_400)));
    }

    #[test]
    fn garbage_messages_are_counted_and_dropped() {
        let (_node, _d, broker, archive) = setup();
        broker.publish("stats", "x", bytes::Bytes::from_static(b"not a raw file"));
        let mut consumer = StatsConsumer::new(&broker, "stats", archive).unwrap();
        assert!(consumer
            .poll_once(SimTime::from_secs(0), Duration::from_millis(5))
            .is_none());
        assert_eq!(consumer.parse_failures, 1);
        // Message was acked, not redelivered.
        assert_eq!(broker.stats().queues["stats"].in_flight, 0);
        assert_eq!(broker.depth("stats"), 0);
    }

    #[test]
    fn missing_queue_yields_none() {
        let broker = Broker::new();
        assert!(StatsConsumer::new(&broker, "ghost", Arc::new(Archive::new())).is_none());
    }

    #[test]
    fn unparseable_messages_route_to_dead_letter_queue() {
        let (_node, _d, broker, archive) = setup();
        let mut consumer = StatsConsumer::new(&broker, "stats", archive).unwrap();
        consumer.set_dead_letter("stats.dead_letter");
        broker.publish(
            "stats",
            "c401-0007",
            bytes::Bytes::from_static(b"not a raw file"),
        );
        broker.publish(
            "stats",
            "c401-0008",
            bytes::Bytes::from_static(b"\xff\xfe binary"),
        );
        consumer.drain(SimTime::from_secs(0));
        assert_eq!(consumer.parse_failures, 2);
        assert_eq!(consumer.dead_lettered, 2);
        assert_eq!(
            broker.depth("stats"),
            0,
            "poison messages acked off the main queue"
        );
        assert_eq!(broker.depth("stats.dead_letter"), 2);
        // Source routing key is preserved for tracing.
        let dlq = broker.consume("stats.dead_letter").unwrap();
        let d1 = dlq.get().unwrap();
        assert_eq!(d1.routing_key, "c401-0007");
        assert_eq!(&d1.payload[..], b"not a raw file");
        let d2 = dlq.get().unwrap();
        assert_eq!(d2.routing_key, "c401-0008");
    }

    #[test]
    fn duplicate_sequence_numbers_are_archived_once() {
        let (node, mut d, broker, archive) = setup();
        let fs = NodeFs::new(&node);
        let mut consumer = StatsConsumer::new(&broker, "stats", Arc::clone(&archive)).unwrap();
        d.tick(&fs, SimTime::from_secs(0)); // seq 0
                                            // Simulate an ack-loss replay: the exact message is delivered
                                            // again.
        let c = broker.consume("stats").unwrap();
        let orig = c.get().unwrap();
        broker.publish("stats", orig.routing_key.as_str(), orig.payload.clone());
        c.nack(orig.tag); // put the original back too
        drop(c);
        consumer.drain(SimTime::from_secs(1));
        assert_eq!(consumer.received, 1, "one unique message");
        assert_eq!(consumer.duplicates, 1, "the replay was recognised");
        assert!(consumer.has_seen("c401-0001", 0));
        let rf = archive
            .parse("c401-0001", SimTime::from_secs(0))
            .unwrap()
            .unwrap();
        assert_eq!(rf.samples.len(), 1, "no double archiving");
    }

    #[test]
    fn sequence_gaps_are_detected() {
        let (node, mut d, broker, archive) = setup();
        let fs = NodeFs::new(&node);
        let mut consumer = StatsConsumer::new(&broker, "stats", archive).unwrap();
        d.tick(&fs, SimTime::from_secs(0)); // seq 0
        consumer.drain(SimTime::from_secs(1));
        assert_eq!(consumer.gap_events, 0);
        // Drop seqs 1 and 2 on the floor (collect while the broker is
        // down), then let seq 3 through.
        broker.stop();
        d.tick(&fs, SimTime::from_secs(1200)); // seqs 1,2 spooled
        broker.restart();
        // Wipe the spool so 1 and 2 genuinely never arrive.
        d.on_crash();
        d.on_reboot(SimTime::from_secs(1800));
        d.tick(&fs, SimTime::from_secs(1800)); // seq 3
        consumer.drain(SimTime::from_secs(1801));
        assert_eq!(consumer.gap_events, 1);
        assert_eq!(consumer.missing("c401-0001"), vec![1, 2]);
    }
}
