//! Model-checked broker concurrency: queue handoff, crash-redelivery,
//! and the daemon-style spool handoff, explored across many thread
//! interleavings.
//!
//! Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p tacc-broker --test loom_queue
//! ```
//!
//! Under `--cfg loom` the broker's sync layer (`crate::sync`) swaps
//! `parking_lot`/`std` primitives for the `loom` stand-in's
//! instrumented versions: every lock acquire and atomic access becomes
//! a scheduler-perturbation point, and
//! `loom::model` re-runs each closure under `LOOM_ITERS` (default 200)
//! distinct randomized schedules. The invariants below must hold on
//! every explored schedule. Without `--cfg loom` this file compiles to
//! nothing, so plain `cargo test` is unaffected.
//!
//! `Consumer::get` never blocks, so a model that waits for a message
//! polls `get()` and yields between empty polls, under a wall-clock
//! deadline.

#![cfg(loom)]

use bytes::Bytes;
use loom::sync::Arc;
use loom::thread;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};
use tacc_broker::Broker;

/// published == acked + depth + in_flight, with two producers racing a
/// draining consumer. No message is lost or double-counted regardless
/// of interleaving.
#[test]
fn concurrent_publish_conserves_messages() {
    loom::model(|| {
        let broker = Broker::new();
        broker.declare("stats");
        let b1 = broker.clone();
        let b2 = broker.clone();
        let t1 = thread::spawn(move || {
            for i in 0..2 {
                assert!(b1.publish("stats", "hostA", Bytes::from(format!("a{i}"))));
            }
        });
        let t2 = thread::spawn(move || {
            for i in 0..2 {
                assert!(b2.publish("stats", "hostB", Bytes::from(format!("b{i}"))));
            }
        });
        let consumer = broker.consume("stats").expect("queue declared");
        let mut payloads: BTreeSet<Vec<u8>> = BTreeSet::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while payloads.len() < 4 && Instant::now() < deadline {
            match consumer.get() {
                Some(d) => {
                    assert!(consumer.ack(d.tag));
                    payloads.insert(d.payload.to_vec());
                }
                None => thread::yield_now(),
            }
        }
        t1.join().expect("producer 1");
        t2.join().expect("producer 2");
        assert_eq!(payloads.len(), 4, "all four distinct payloads arrive");
        let stats = broker.stats();
        let q = stats.queues.get("stats").expect("queue exists");
        assert_eq!(q.published, 4);
        assert_eq!(q.acked, 4);
        assert_eq!(q.depth, 0, "conservation: nothing left behind");
        assert_eq!(q.in_flight, 0, "conservation: nothing stuck in flight");
    });
}

/// A consumer that takes deliveries and dies without acking must not
/// lose messages: dropping the consumer requeues its unacked in-flight
/// deliveries, and a second consumer racing the crash sees every
/// message exactly once (by payload).
#[test]
fn consumer_crash_redelivers_without_loss() {
    loom::model(|| {
        let broker = Broker::new();
        broker.declare("stats");
        for i in 0..3 {
            assert!(broker.publish("stats", "host", Bytes::from(format!("m{i}"))));
        }
        let bc = broker.clone();
        let crasher = thread::spawn(move || {
            let doomed = bc.consume("stats").expect("queue declared");
            // Take up to two deliveries and never ack them; dropping
            // the consumer is the crash.
            let _held = (doomed.get(), doomed.get());
        });
        let survivor = broker.consume("stats").expect("queue declared");
        let mut seen: BTreeSet<Vec<u8>> = BTreeSet::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while seen.len() < 3 && Instant::now() < deadline {
            match survivor.get() {
                Some(d) => {
                    assert!(survivor.ack(d.tag));
                    assert!(
                        seen.insert(d.payload.to_vec()),
                        "no payload delivered twice here"
                    );
                }
                None => thread::yield_now(),
            }
        }
        crasher.join().expect("crasher join");
        assert_eq!(seen.len(), 3, "every message survives the crash");
        let stats = broker.stats();
        let q = stats.queues.get("stats").expect("queue exists");
        assert_eq!(q.depth + q.in_flight, 0);
        assert_eq!(q.acked, 3);
        assert!(
            q.delivered >= q.acked,
            "redeliveries only add attempts, never lose acks"
        );
    });
}

/// The daemon-side spool handoff (collect::daemon + collect::spool
/// logic, modeled here because the broker cannot depend on collect):
/// a publisher keeps a FIFO spool of rejected publishes and replays it
/// before fresh samples, while a broker outage (stop → restart) races
/// the publish loop. Every sample must be accepted exactly once and
/// per-host sequence order must hold on the wire.
#[test]
fn spool_handoff_survives_broker_outage() {
    loom::model(|| {
        let broker = Broker::new();
        broker.declare("stats");
        let bp = broker.clone();
        let publisher = thread::spawn(move || {
            let mut spool: Vec<Bytes> = Vec::new();
            let mut accepted = 0u64;
            for seq in 0..6u64 {
                // Replay the backlog first so per-host order holds.
                while let Some(oldest) = spool.first().cloned() {
                    if bp.publish("stats", "host", oldest) {
                        accepted += 1;
                        spool.remove(0);
                    } else {
                        break;
                    }
                }
                let sample = Bytes::from(format!("{seq}"));
                if spool.is_empty() && bp.publish("stats", "host", sample.clone()) {
                    accepted += 1;
                } else {
                    spool.push(sample);
                }
            }
            // Drain whatever the outage spooled; the broker restarts,
            // so this terminates.
            while let Some(oldest) = spool.first().cloned() {
                if bp.publish("stats", "host", oldest) {
                    accepted += 1;
                    spool.remove(0);
                } else {
                    thread::yield_now();
                }
            }
            accepted
        });
        let bo = broker.clone();
        let outage = thread::spawn(move || {
            bo.stop();
            thread::yield_now();
            bo.restart();
        });
        let accepted = publisher.join().expect("publisher join");
        outage.join().expect("outage join");
        assert_eq!(accepted, 6, "every sample eventually accepted exactly once");
        let stats = broker.stats();
        assert_eq!(
            stats.queues.get("stats").expect("queue exists").published,
            6
        );
        // Drain and check the wire order: spool-first replay preserves
        // the per-host sequence numbering.
        let consumer = broker.consume("stats").expect("queue declared");
        let mut seqs = Vec::new();
        while let Some(d) = consumer.get() {
            let text = String::from_utf8(d.payload.to_vec()).expect("utf8 payload");
            seqs.push(text.parse::<u64>().expect("numeric payload"));
            assert!(consumer.ack(d.tag));
        }
        assert_eq!(seqs, vec![0, 1, 2, 3, 4, 5], "per-host order holds");
    });
}

/// stop() racing a `get` never strands a message: the getter
/// either received the delivery before the outage or the message is
/// still queued (and deliverable) after restart.
#[test]
fn stop_never_strands_a_delivery() {
    loom::model(|| {
        let broker = Broker::new();
        broker.declare("stats");
        assert!(broker.publish("stats", "host", Bytes::from_static(b"sample")));
        let consumer = broker.consume("stats").expect("queue declared");
        let bs = broker.clone();
        let stopper = thread::spawn(move || {
            bs.stop();
        });
        let got = consumer.get();
        stopper.join().expect("stopper join");
        broker.restart();
        match got {
            Some(d) => {
                assert_eq!(&d.payload[..], b"sample");
                assert!(consumer.ack(d.tag));
                assert_eq!(broker.depth("stats"), 0);
            }
            None => {
                // The outage won the race; the message is intact.
                let d = consumer.get().expect("message survives the outage");
                assert_eq!(&d.payload[..], b"sample");
                assert!(consumer.ack(d.tag));
            }
        }
        let stats = broker.stats();
        let q = stats.queues.get("stats").expect("queue exists");
        assert_eq!(q.acked, 1);
        assert_eq!(q.depth + q.in_flight, 0);
    });
}

/// Arc is shared state here — make sure the import is exercised even if
/// future edits drop other uses (loom::sync::Arc must stay in the swap
/// surface).
#[test]
fn shared_broker_clone_counts_once() {
    loom::model(|| {
        let broker = Arc::new(Broker::new());
        broker.declare("stats");
        let b2 = Arc::clone(&broker);
        let t = thread::spawn(move || {
            assert!(b2.publish("stats", "host", Bytes::from_static(b"x")));
        });
        t.join().expect("join");
        assert_eq!(broker.depth("stats"), 1);
        let consumer = broker.consume("stats").expect("queue declared");
        let d = consumer.get().expect("delivery");
        assert!(consumer.ack(d.tag));
    });
}
