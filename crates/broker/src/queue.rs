//! In-process broker core: queues, publish, consume, ack, redelivery.
//!
//! The registry and each queue sit in a `RefCell`, the outage flag in a
//! `Cell`, shared by a broker's clones and its consumers through `Rc`
//! (the crate docs say why). No method calls out while it holds a
//! borrow, so two borrows never conflict.

use bytes::Bytes;
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use tacc_simnode::intern::Sym;

/// A message delivered to a consumer. Must be [`Consumer::ack`]ed, or it
/// is redelivered when the consumer disconnects.
///
/// Routing keys are hostnames — a small, stable vocabulary — so they
/// are interned [`Sym`]s: cloning a delivery for the unacked table is a
/// refcount bump on the payload plus four machine words, with no text
/// allocation per message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// Per-queue delivery tag (monotonically increasing).
    pub tag: u64,
    /// Routing key the producer attached (e.g. the node hostname).
    pub routing_key: Sym,
    /// Message payload.
    pub payload: Bytes,
    /// True if this message was delivered before and requeued.
    pub redelivered: bool,
}

/// What a bounded queue does with new publishes once its ready backlog
/// is at capacity (admission control under consumer lag).
///
/// Requeues (nack, consumer disconnect) are exempt: admission control
/// bounds *new* work, never discards messages already accepted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Evict the oldest ready message to admit the new one (fresh data
    /// wins — the monitoring-friendly policy: a stale sample is worth
    /// less than the current one). The evicted message is counted in
    /// [`QueueStats::shed_oldest`].
    #[default]
    DropOldest,
    /// Refuse the new publish (`publish` returns `false`, counted in
    /// [`QueueStats::shed_newest`]), pushing backpressure to the
    /// producer — which in daemon mode spools and replays later.
    RejectNewest,
}

#[derive(Debug, Default)]
struct QueueInner {
    ready: VecDeque<Delivery>,
    /// tag → (consumer id, delivery) for in-flight messages.
    unacked: HashMap<u64, (u64, Delivery)>,
    next_tag: u64,
    /// Ready-backlog bound; `0` means unbounded.
    capacity: usize,
    policy: ShedPolicy,
    /// Publishes that reached this queue while the broker was up
    /// (accepted or shed): `offered == published + shed_newest`.
    offered: u64,
    published: u64,
    delivered: u64,
    acked: u64,
    redelivered: u64,
    shed_oldest: u64,
    shed_newest: u64,
}

#[derive(Debug, Default)]
struct Queue {
    inner: RefCell<QueueInner>,
}

/// Counters for one queue.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Messages currently waiting for delivery.
    pub depth: usize,
    /// Messages delivered but not yet acked.
    pub in_flight: usize,
    /// Total messages published.
    pub published: u64,
    /// Total deliveries (including redeliveries).
    pub delivered: u64,
    /// Total acknowledgements.
    pub acked: u64,
    /// Total redeliveries.
    pub redelivered: u64,
    /// Ready-backlog bound (`0` = unbounded).
    pub capacity: usize,
    /// Publishes that reached the queue while the broker was up,
    /// accepted or shed. Conservation: `offered == published +
    /// shed_newest`, and every published message is exactly one of
    /// acked / ready (`depth`) / in-flight / shed_oldest.
    pub offered: u64,
    /// Ready messages evicted by [`ShedPolicy::DropOldest`].
    pub shed_oldest: u64,
    /// Publishes refused by [`ShedPolicy::RejectNewest`].
    pub shed_newest: u64,
}

impl QueueStats {
    /// Total messages shed by admission control (either policy).
    pub fn shed(&self) -> u64 {
        self.shed_oldest + self.shed_newest
    }
}

/// Consumer-lag watermark for one queue — what a scheduler or soak
/// driver observes to modulate offered load ([`Broker::lag`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueLag {
    /// Messages waiting for delivery.
    pub depth: usize,
    /// Delivered but not yet acked.
    pub in_flight: usize,
    /// Ready-backlog bound (`0` = unbounded).
    pub capacity: usize,
}

impl QueueLag {
    /// High-watermark signal: the ready backlog of a bounded queue has
    /// reached three quarters of capacity — shedding is imminent, back
    /// off now. Always `false` for unbounded queues.
    pub fn high(&self) -> bool {
        self.capacity > 0 && self.depth * 4 >= self.capacity * 3
    }
}

/// Broker-wide statistics.
#[derive(Clone, Debug, Default)]
pub struct BrokerStats {
    /// Per-queue statistics, keyed by queue name.
    pub queues: HashMap<String, QueueStats>,
}

#[derive(Default)]
struct BrokerInner {
    queues: HashMap<String, Rc<Queue>>,
    next_consumer_id: u64,
}

/// The message broker. Cheap to clone: clones share one registry and
/// one outage flag, so every daemon's publisher can hold its own handle.
///
/// ```
/// use tacc_broker::Broker;
/// use bytes::Bytes;
///
/// let broker = Broker::new();
/// broker.declare("stats");
/// broker.publish("stats", "c401-0001", Bytes::from_static(b"sample"));
/// let consumer = broker.consume("stats").unwrap();
/// let d = consumer.get().unwrap();
/// assert_eq!(&d.payload[..], b"sample");
/// assert!(consumer.ack(d.tag));
/// ```
#[derive(Clone, Default)]
pub struct Broker {
    /// Queue registry: name → queue, and the consumer-id counter.
    registry: Rc<RefCell<BrokerInner>>,
    /// Outage flag: while set, publishes fail and consumers receive
    /// nothing, but queue contents survive (an orderly broker restart).
    stopped: Rc<Cell<bool>>,
}

impl Broker {
    /// New empty broker.
    pub fn new() -> Broker {
        Broker::default()
    }

    /// Declare (create if absent) a queue. Idempotent.
    pub fn declare(&self, queue: &str) {
        self.registry
            .borrow_mut()
            .queues
            .entry(queue.to_string())
            .or_insert_with(|| Rc::new(Queue::default()));
    }

    /// Declare a queue with a bounded ready backlog and a shed policy
    /// (admission control). Idempotent on the queue; re-declaring
    /// updates the bound and policy of an existing queue in place
    /// (contents and counters survive). `capacity == 0` means
    /// unbounded, i.e. plain [`Broker::declare`] semantics.
    pub fn declare_bounded(&self, queue: &str, capacity: usize, policy: ShedPolicy) {
        let mut reg = self.registry.borrow_mut();
        let q = reg
            .queues
            .entry(queue.to_string())
            .or_insert_with(|| Rc::new(Queue::default()));
        let mut inner = q.inner.borrow_mut();
        inner.capacity = capacity;
        inner.policy = policy;
    }

    fn queue(&self, queue: &str) -> Option<Rc<Queue>> {
        self.registry.borrow().queues.get(queue).cloned()
    }

    /// Publish a payload to a queue with a routing key. Returns `false`
    /// if the queue has not been declared (message dropped — matching
    /// AMQP's behaviour for unroutable messages on a default exchange),
    /// or if a bounded queue at capacity runs [`ShedPolicy::RejectNewest`]
    /// (backpressure: the producer should retry or spool).
    pub fn publish(&self, queue: &str, routing_key: &str, payload: Bytes) -> bool {
        if self.stopped.get() {
            return false;
        }
        let Some(q) = self.queue(queue) else {
            return false;
        };
        let mut inner = q.inner.borrow_mut();
        inner.offered += 1;
        if inner.capacity > 0 && inner.ready.len() >= inner.capacity {
            match inner.policy {
                ShedPolicy::DropOldest => {
                    // Evict ready messages until the new one fits (one
                    // pop unless the bound was lowered mid-flight).
                    while inner.ready.len() >= inner.capacity {
                        if inner.ready.pop_front().is_none() {
                            break;
                        }
                        inner.shed_oldest += 1;
                    }
                }
                ShedPolicy::RejectNewest => {
                    inner.shed_newest += 1;
                    return false;
                }
            }
        }
        let tag = inner.next_tag;
        inner.next_tag += 1;
        inner.published += 1;
        inner.ready.push_back(Delivery {
            tag,
            routing_key: Sym::new(routing_key),
            payload,
            redelivered: false,
        });
        true
    }

    /// Open a consumer on a queue. Returns `None` if the queue does not
    /// exist.
    pub fn consume(&self, queue: &str) -> Option<Consumer> {
        let q = self.queue(queue)?;
        let id = {
            let mut reg = self.registry.borrow_mut();
            reg.next_consumer_id += 1;
            reg.next_consumer_id
        };
        Some(Consumer {
            id,
            queue: q,
            stopped: Rc::clone(&self.stopped),
        })
    }

    /// Take the broker down: publishes fail and consumers receive
    /// nothing until [`Broker::restart`]. Queue contents — ready and
    /// in-flight messages alike — are preserved (an orderly shutdown,
    /// not a data-loss event). Idempotent.
    pub fn stop(&self) {
        self.stopped.set(true);
    }

    /// Bring the broker back up after [`Broker::stop`]. Idempotent.
    pub fn restart(&self) {
        self.stopped.set(false);
    }

    /// Is the broker currently stopped?
    pub fn is_stopped(&self) -> bool {
        self.stopped.get()
    }

    /// Snapshot of broker statistics.
    pub fn stats(&self) -> BrokerStats {
        let reg = self.registry.borrow();
        let queues = reg
            .queues
            .iter()
            .map(|(name, q)| {
                let qi = q.inner.borrow();
                (
                    name.clone(),
                    QueueStats {
                        depth: qi.ready.len(),
                        in_flight: qi.unacked.len(),
                        published: qi.published,
                        delivered: qi.delivered,
                        acked: qi.acked,
                        redelivered: qi.redelivered,
                        capacity: qi.capacity,
                        offered: qi.offered,
                        shed_oldest: qi.shed_oldest,
                        shed_newest: qi.shed_newest,
                    },
                )
            })
            .collect();
        BrokerStats { queues }
    }

    /// Depth of one queue (0 if it does not exist).
    pub fn depth(&self, queue: &str) -> usize {
        self.queue(queue)
            .map(|q| q.inner.borrow().ready.len())
            .unwrap_or(0)
    }

    /// Consumer-lag watermark for one queue (`None` if undeclared).
    /// Cheap: one snapshot of depth / in-flight / capacity.
    /// A scheduler or soak driver polls this to throttle offered load
    /// before the queue starts shedding ([`QueueLag::high`]).
    pub fn lag(&self, queue: &str) -> Option<QueueLag> {
        let q = self.queue(queue)?;
        let inner = q.inner.borrow();
        Some(QueueLag {
            depth: inner.ready.len(),
            in_flight: inner.unacked.len(),
            capacity: inner.capacity,
        })
    }
}

/// A pull-based consumer holding a position on one queue.
///
/// Dropping the consumer requeues all its unacknowledged messages (the
/// reconnect-resilience semantics daemon mode relies on: a crashed
/// consumer loses nothing that wasn't acked).
pub struct Consumer {
    id: u64,
    queue: Rc<Queue>,
    stopped: Rc<Cell<bool>>,
}

impl Consumer {
    /// Pop the next message. `None` when the queue is empty or the
    /// broker is stopped (messages are retained for after the restart).
    ///
    /// Never blocks: every caller polls on simulated time, where there
    /// is nothing to wait for. A zero-timeout wait on a condition
    /// variable would still sleep the kernel's timer slack (≈ 50 µs on
    /// Linux), and a condition variable would cost every publish a
    /// wake-up syscall.
    pub fn get(&self) -> Option<Delivery> {
        if self.stopped.get() {
            return None;
        }
        let mut inner = self.queue.inner.borrow_mut();
        let d = inner.ready.pop_front()?;
        inner.delivered += 1;
        inner.unacked.insert(d.tag, (self.id, d.clone()));
        Some(d)
    }

    /// Acknowledge a delivery. Returns `false` for unknown tags (already
    /// acked, or never delivered to this consumer).
    pub fn ack(&self, tag: u64) -> bool {
        let mut inner = self.queue.inner.borrow_mut();
        match inner.unacked.get(&tag) {
            Some((cid, _)) if *cid == self.id => {
                inner.unacked.remove(&tag);
                inner.acked += 1;
                true
            }
            _ => false,
        }
    }

    /// Negatively acknowledge: requeue the message at the front.
    pub fn nack(&self, tag: u64) -> bool {
        let mut inner = self.queue.inner.borrow_mut();
        match inner.unacked.remove(&tag) {
            Some((cid, mut d)) if cid == self.id => {
                d.redelivered = true;
                inner.redelivered += 1;
                inner.ready.push_front(d);
                true
            }
            Some(entry) => {
                // Not ours: put it back untouched.
                let tag = entry.1.tag;
                inner.unacked.insert(tag, entry);
                false
            }
            None => false,
        }
    }
}

impl Drop for Consumer {
    fn drop(&mut self) {
        let mut inner = self.queue.inner.borrow_mut();
        let mut mine: Vec<u64> = inner
            .unacked
            .iter()
            .filter(|(_, (cid, _))| *cid == self.id)
            .map(|(tag, _)| *tag)
            .collect();
        // Requeue in tag order so ordering is preserved as well as possible.
        mine.sort_unstable();
        for tag in mine.into_iter().rev() {
            if let Some((_, mut d)) = inner.unacked.remove(&tag) {
                d.redelivered = true;
                inner.redelivered += 1;
                inner.ready.push_front(d);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn publish_to_undeclared_queue_fails() {
        let b = Broker::new();
        assert!(!b.publish("nope", "k", payload("x")));
        b.declare("q");
        assert!(b.publish("q", "k", payload("x")));
    }

    #[test]
    fn fifo_delivery_and_ack() {
        let b = Broker::new();
        b.declare("q");
        for i in 0..5 {
            b.publish("q", "node", payload(&format!("m{i}")));
        }
        let c = b.consume("q").unwrap();
        for i in 0..5 {
            let d = c.get().unwrap();
            assert_eq!(d.payload, payload(&format!("m{i}")));
            assert!(!d.redelivered);
            assert!(c.ack(d.tag));
            assert!(!c.ack(d.tag), "double ack must fail");
        }
        assert!(c.get().is_none());
        let s = b.stats();
        let q = &s.queues["q"];
        assert_eq!((q.published, q.delivered, q.acked), (5, 5, 5));
        assert_eq!(q.depth, 0);
        assert_eq!(q.in_flight, 0);
    }

    #[test]
    fn unacked_messages_requeue_on_disconnect() {
        let b = Broker::new();
        b.declare("q");
        for i in 0..3 {
            b.publish("q", "node", payload(&format!("m{i}")));
        }
        {
            let c = b.consume("q").unwrap();
            let d0 = c.get().unwrap();
            let _d1 = c.get().unwrap(); // never acked
            let _d2 = c.get().unwrap(); // never acked
            c.ack(d0.tag);
            // c dropped here with 2 unacked.
        }
        let c2 = b.consume("q").unwrap();
        let r1 = c2.get().unwrap();
        let r2 = c2.get().unwrap();
        assert!(r1.redelivered && r2.redelivered);
        assert_eq!(r1.payload, payload("m1"));
        assert_eq!(r2.payload, payload("m2"));
        assert_eq!(b.stats().queues["q"].redelivered, 2);
    }

    #[test]
    fn nack_requeues_at_front() {
        let b = Broker::new();
        b.declare("q");
        b.publish("q", "n", payload("a"));
        b.publish("q", "n", payload("b"));
        let c = b.consume("q").unwrap();
        let d = c.get().unwrap();
        assert!(c.nack(d.tag));
        let again = c.get().unwrap();
        assert_eq!(again.payload, payload("a"));
        assert!(again.redelivered);
    }

    #[test]
    fn stopped_broker_rejects_publishes_and_hides_messages() {
        let b = Broker::new();
        b.declare("q");
        b.publish("q", "n", payload("before"));
        let c = b.consume("q").unwrap();
        b.stop();
        assert!(b.is_stopped());
        assert!(!b.publish("q", "n", payload("during")), "publish must fail");
        assert!(c.get().is_none(), "no deliveries during outage");
        b.stop(); // idempotent
        b.restart();
        b.restart(); // idempotent
                     // Pre-outage contents survived; publishes work again.
        let d = c.get().unwrap();
        assert_eq!(d.payload, payload("before"));
        assert!(c.ack(d.tag));
        assert!(b.publish("q", "n", payload("after")));
        assert_eq!(b.depth("q"), 1);
        let q = &b.stats().queues["q"];
        assert_eq!(q.published, 2, "rejected publish must not be counted");
    }

    #[test]
    fn drop_oldest_sheds_stale_messages_at_capacity() {
        let b = Broker::new();
        b.declare_bounded("q", 3, ShedPolicy::DropOldest);
        for i in 0..5 {
            assert!(
                b.publish("q", "n", payload(&format!("m{i}"))),
                "drop-oldest always admits the new message"
            );
        }
        let q = &b.stats().queues["q"];
        assert_eq!(
            (q.offered, q.published, q.shed_oldest, q.shed_newest),
            (5, 5, 2, 0)
        );
        assert_eq!(q.depth, 3);
        assert_eq!(q.offered, q.published + q.shed_newest);
        // The survivors are the *newest* three, still in order.
        let c = b.consume("q").unwrap();
        for i in 2..5 {
            assert_eq!(c.get().unwrap().payload, payload(&format!("m{i}")));
        }
    }

    #[test]
    fn reject_newest_pushes_backpressure_to_producer() {
        let b = Broker::new();
        b.declare_bounded("q", 2, ShedPolicy::RejectNewest);
        assert!(b.publish("q", "n", payload("a")));
        assert!(b.publish("q", "n", payload("b")));
        assert!(!b.publish("q", "n", payload("c")), "full queue refuses");
        let q = &b.stats().queues["q"];
        assert_eq!((q.offered, q.published, q.shed_newest), (3, 2, 1));
        assert_eq!(q.capacity, 2);
        // Draining frees capacity again.
        let c = b.consume("q").unwrap();
        let d = c.get().unwrap();
        assert!(c.ack(d.tag));
        assert!(b.publish("q", "n", payload("c2")));
    }

    #[test]
    fn requeues_are_exempt_from_capacity() {
        let b = Broker::new();
        b.declare_bounded("q", 1, ShedPolicy::RejectNewest);
        assert!(b.publish("q", "n", payload("a")));
        let c = b.consume("q").unwrap();
        let d = c.get().unwrap();
        // Queue is at depth 0 now; fill it back to capacity.
        assert!(b.publish("q", "n", payload("b")));
        // Nack must requeue even though ready is at capacity — admission
        // control never discards accepted work.
        assert!(c.nack(d.tag));
        assert_eq!(b.depth("q"), 2);
        let q = &b.stats().queues["q"];
        assert_eq!(q.shed(), 0);
    }

    #[test]
    fn lag_watermark_tracks_depth_and_capacity() {
        let b = Broker::new();
        assert!(b.lag("nope").is_none());
        b.declare_bounded("q", 4, ShedPolicy::DropOldest);
        assert!(!b.lag("q").unwrap().high());
        for _ in 0..3 {
            b.publish("q", "n", payload("x"));
        }
        let lag = b.lag("q").unwrap();
        assert_eq!((lag.depth, lag.in_flight, lag.capacity), (3, 0, 4));
        assert!(lag.high(), "3/4 full is the high watermark");
        // Unbounded queues never report high.
        b.declare("u");
        for _ in 0..100 {
            b.publish("u", "n", payload("x"));
        }
        assert!(!b.lag("u").unwrap().high());
        // In-flight messages count toward lag but not toward capacity.
        let c = b.consume("q").unwrap();
        let _d = c.get().unwrap();
        let lag = b.lag("q").unwrap();
        assert_eq!((lag.depth, lag.in_flight), (2, 1));
    }

    #[test]
    fn rebounding_an_existing_queue_preserves_contents() {
        let b = Broker::new();
        b.declare("q");
        for i in 0..4 {
            b.publish("q", "n", payload(&format!("{i}")));
        }
        // Tighten the bound below the current depth: nothing is shed
        // retroactively; the next publish under DropOldest evicts down
        // to the bound.
        b.declare_bounded("q", 2, ShedPolicy::DropOldest);
        assert_eq!(b.depth("q"), 4);
        assert!(b.publish("q", "n", payload("new")));
        let q = &b.stats().queues["q"];
        assert_eq!(q.depth, 2);
        assert_eq!(q.shed_oldest, 3);
        assert_eq!(q.offered, 5, "offered spans pre- and post-bound publishes");
        assert_eq!(q.offered, q.published + q.shed_newest);
    }

    #[test]
    fn consumers_compete_for_messages() {
        let b = Broker::new();
        b.declare("q");
        for i in 0..10 {
            b.publish("q", "n", payload(&format!("{i}")));
        }
        let c1 = b.consume("q").unwrap();
        let c2 = b.consume("q").unwrap();
        let mut got = 0;
        while c1.get().map(|d| c1.ack(d.tag)).is_some() {
            got += 1;
            if let Some(d) = c2.get() {
                c2.ack(d.tag);
                got += 1;
            }
        }
        assert_eq!(got, 10);
        // c2 cannot ack a tag delivered to c1 (simulated cross-ack).
        b.publish("q", "n", payload("x"));
        let d = c1.get().unwrap();
        assert!(!c2.ack(d.tag));
        assert!(c1.ack(d.tag));
    }
}
