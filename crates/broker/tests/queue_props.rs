//! Op-sequence properties of the broker: random sequences of
//! `declare_bounded` (both shed policies), `publish` over several
//! routing keys, `get`, `ack`, `nack`, consumer drops, `stop` and
//! `restart`. After every op, each queue's accounting balances:
//! `offered == published + shed_newest` and
//! `published == acked + depth + in_flight + shed_oldest`. Over the
//! whole sequence:
//!
//! * first deliveries of one routing key come in publish order, and a
//!   delivery is flagged `redelivered` exactly when it was delivered
//!   before;
//! * dropping a consumer requeues everything it had not acked;
//! * nothing is delivered or published while the broker is stopped;
//! * a producer that spools refused publishes and replays them in order
//!   delivers every payload exactly once after `restart` and a full
//!   drain, less what `ShedPolicy::DropOldest` evicted.
//!
//! `Broker` and `Consumer` are neither `Send` nor `Sync`, so no two ops
//! overlap: every interleaving the broker can see is a sequence of whole
//! ops, which is what these cases draw. The vendored proptest is
//! primitive-only, so each op is decoded from raw integer draws.

use bytes::Bytes;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet, VecDeque};
use tacc_broker::{Broker, Consumer, Delivery, ShedPolicy};

const QUEUES: [&str; 2] = ["q0", "q1"];
const KEYS: [&str; 3] = ["c401-0001", "c401-0002", "c401-0003"];
/// Consumer slots; slot `s` consumes from `QUEUES[s % 2]`.
const SLOTS: usize = 4;

/// An open consumer and the deliveries it has neither acked nor nacked.
struct Slot {
    consumer: Consumer,
    held: Vec<Delivery>,
}

/// The broker, a retrying producer, the consumers, and what the
/// properties remember of the sequence so far.
#[derive(Default)]
struct Harness {
    broker: Broker,
    declared: [bool; 2],
    slots: [Option<Slot>; SLOTS],
    /// Per queue, ids the broker refused, oldest first: the producer
    /// replays them before anything newer.
    spool: [VecDeque<u64>; 2],
    /// Per payload id (its index), the (queue, key) it was made for.
    made_for: Vec<(usize, usize)>,
    delivered: HashSet<u64>,
    /// Per (queue, key), the id of the latest first delivery.
    last_first: HashMap<(usize, usize), u64>,
    acked: HashSet<u64>,
}

fn id_of(d: &Delivery) -> u64 {
    u64::from_le_bytes(d.payload[..].try_into().expect("an 8-byte id"))
}

/// One declared queue's (depth, in-flight, acked, redelivered).
fn flow(broker: &Broker, queue: usize) -> [u64; 4] {
    let q = broker.stats().queues[QUEUES[queue]];
    [q.depth as u64, q.in_flight as u64, q.acked, q.redelivered]
}

impl Harness {
    /// Both conservation identities, on every declared queue.
    fn check_accounting(&self) -> Result<(), String> {
        let stats = self.broker.stats();
        let declared = self.declared.iter().filter(|d| **d).count();
        prop_assert_eq!(stats.queues.len(), declared);
        for q in stats.queues.values() {
            prop_assert_eq!(q.offered, q.published + q.shed_newest);
            let settled = q.acked + q.depth as u64 + q.in_flight as u64;
            prop_assert_eq!(q.published, settled + q.shed_oldest);
        }
        Ok(())
    }

    /// Replay the queue's spool, oldest first, until the broker refuses.
    fn replay(&mut self, queue: usize) -> Result<(), String> {
        while let Some(&id) = self.spool[queue].front() {
            let key = KEYS[self.made_for[id as usize].1];
            let payload = Bytes::copy_from_slice(&id.to_le_bytes());
            if !self.broker.publish(QUEUES[queue], key, payload) {
                return Ok(());
            }
            prop_assert!(self.declared[queue] && !self.broker.is_stopped());
            self.spool[queue].pop_front();
        }
        Ok(())
    }

    /// The slot's consumer, opened on first use; `None` while its queue
    /// is undeclared.
    fn slot(&mut self, slot: usize) -> Result<Option<&mut Slot>, String> {
        let queue = slot % QUEUES.len();
        if self.slots[slot].is_none() {
            let consumer = self.broker.consume(QUEUES[queue]);
            prop_assert_eq!(consumer.is_some(), self.declared[queue]);
            let held = Vec::new();
            self.slots[slot] = consumer.map(|consumer| Slot { consumer, held });
        }
        Ok(self.slots[slot].as_mut())
    }

    /// Check one delivery from `queue` against the sequence so far.
    fn on_delivery(&mut self, queue: usize, d: &Delivery) -> Result<(), String> {
        let id = id_of(d);
        let (made_queue, key) = self.made_for[id as usize];
        prop_assert_eq!(made_queue, queue);
        prop_assert!(d.routing_key == *KEYS[key]);
        prop_assert!(
            !self.acked.contains(&id),
            "id {} delivered after its ack",
            id
        );
        let first = self.delivered.insert(id);
        prop_assert_eq!(d.redelivered, !first, "id {}", id);
        if first {
            if let Some(last) = self.last_first.insert((queue, key), id) {
                prop_assert!(last < id, "key {}: id {} after {}", KEYS[key], id, last);
            }
        }
        Ok(())
    }

    fn on_ack(&mut self, d: &Delivery) -> Result<(), String> {
        prop_assert!(self.acked.insert(id_of(d)), "id {} acked twice", id_of(d));
        Ok(())
    }

    /// Ack (or nack) the delivery `pick` chooses or, for `pick % 8 == 7`,
    /// a tag the slot does not hold; check the answer and the counters.
    fn settle(&mut self, slot: usize, pick: usize, ack: bool) -> Result<(), String> {
        let (queue, broker) = (slot % QUEUES.len(), self.broker.clone());
        // A tag the queue's other consumer holds, else one never issued.
        let foreign = self.slots[(slot + QUEUES.len()) % SLOTS]
            .as_ref()
            .and_then(|s| s.held.first())
            .map_or(u64::MAX, |d| d.tag);
        let Some(s) = self.slot(slot)? else {
            return Ok(());
        };
        let settle = |c: &Consumer, tag| if ack { c.ack(tag) } else { c.nack(tag) };
        if s.held.is_empty() || pick % 8 == 7 {
            let answer = settle(&s.consumer, foreign);
            prop_assert!(!answer, "settled tag {} it does not hold", foreign);
            return Ok(());
        }
        let d = s.held.swap_remove(pick % s.held.len());
        let [depth, in_flight, acked, redelivered] = flow(&broker, queue);
        prop_assert!(settle(&s.consumer, d.tag));
        prop_assert!(!settle(&s.consumer, d.tag), "settled twice");
        if ack {
            self.on_ack(&d)?;
            let after = [depth, in_flight - 1, acked + 1, redelivered];
            prop_assert_eq!(flow(&broker, queue), after);
        } else {
            let after = [depth + 1, in_flight - 1, acked, redelivered + 1];
            prop_assert_eq!(flow(&broker, queue), after);
        }
        Ok(())
    }

    /// Decode one draw into an op and apply it: `kind` picks the op
    /// (publishes and gets weighted up), `a` and `b` its operands.
    fn apply(&mut self, (kind, a, b): (u8, u8, u8)) -> Result<(), String> {
        let (a, b) = (a as usize, b as usize);
        let slot = a % SLOTS;
        // The op's queue: drawn for a declare or publish, the slot's for
        // the rest (`slot % 2 == a % 2`).
        let queue = a % QUEUES.len();
        match kind {
            0 => {
                let policy = match a & 2 {
                    0 => ShedPolicy::DropOldest,
                    _ => ShedPolicy::RejectNewest,
                };
                self.broker.declare_bounded(QUEUES[queue], b % 5, policy);
                self.declared[queue] = true;
            }
            1..=5 => {
                self.made_for.push((queue, b % KEYS.len()));
                self.spool[queue].push_back(self.made_for.len() as u64 - 1);
                let before = self.broker.stats().queues.get(QUEUES[queue]).copied();
                self.replay(queue)?;
                if self.broker.is_stopped() {
                    let after = self.broker.stats().queues.get(QUEUES[queue]).copied();
                    prop_assert_eq!(after, before, "publish while stopped");
                }
            }
            6..=9 => {
                let stopped = self.broker.is_stopped();
                let Some(s) = self.slot(slot)? else {
                    return Ok(());
                };
                match s.consumer.get() {
                    Some(d) => {
                        prop_assert!(!stopped, "delivery while stopped");
                        s.held.push(d.clone());
                        self.on_delivery(queue, &d)?;
                    }
                    None if !stopped => prop_assert_eq!(flow(&self.broker, queue)[0], 0),
                    None => {}
                }
            }
            10 | 11 => self.settle(slot, b, true)?,
            12 => self.settle(slot, b, false)?,
            13 => {
                if let Some(s) = self.slots[slot].take() {
                    let [depth, in_flight, acked, redelivered] = flow(&self.broker, queue);
                    let n = s.held.len() as u64;
                    drop(s);
                    let requeued = [depth + n, in_flight - n, acked, redelivered + n];
                    let after = flow(&self.broker, queue);
                    prop_assert_eq!(after, requeued, "dropped holding {}", n);
                }
            }
            14 => self.broker.stop(),
            _ => self.broker.restart(),
        }
        self.check_accounting()
    }

    /// Restart, declare what never was and requeue every consumer's
    /// holdings; then replay and drain until nothing is left, and check
    /// that every payload arrived exactly once unless `DropOldest`
    /// evicted it.
    fn settle_all(mut self) -> Result<(), String> {
        self.broker.restart();
        for (name, declared) in QUEUES.iter().zip(&mut self.declared) {
            self.broker.declare(name);
            *declared = true;
        }
        self.slots = Default::default();
        for (queue, name) in QUEUES.iter().enumerate() {
            let drain = self.broker.consume(name).ok_or("no consumer")?;
            // Each round admits at least one spooled payload (a drained
            // queue has room), so this many rounds always suffice.
            for _ in 0..=self.spool[queue].len() {
                self.replay(queue)?;
                while let Some(d) = drain.get() {
                    self.on_delivery(queue, &d)?;
                    prop_assert!(drain.ack(d.tag));
                    self.on_ack(&d)?;
                }
            }
            prop_assert!(self.spool[queue].is_empty(), "spool never drained");
            self.check_accounting()?;
            let q = self.broker.stats().queues[*name];
            let of_queue = |id: &u64| self.made_for[*id as usize].0 == queue;
            let acked = self.acked.iter().filter(|id| of_queue(id)).count() as u64;
            let made = (0..self.made_for.len() as u64).filter(of_queue).count() as u64;
            prop_assert_eq!((q.depth, q.in_flight, q.acked), (0, 0, acked));
            prop_assert_eq!(made, acked + q.shed_oldest, "queue {}", name);
        }
        Ok(())
    }
}

proptest! {
    #[test]
    fn op_sequences_keep_the_broker_accounting_exact(
        draws in collection::vec((0u8..16, any::<u8>(), any::<u8>()), 0..160),
    ) {
        let mut h = Harness::default();
        for (i, &draw) in draws.iter().enumerate() {
            h.apply(draw).map_err(|e| format!("op {i} {draw:?}: {e}"))?;
        }
        h.settle_all()?;
    }
}
