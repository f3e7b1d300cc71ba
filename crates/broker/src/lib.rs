//! # tacc-broker — a minimal message broker (RabbitMQ substitute)
//!
//! The paper's new daemon mode (§III-A, Fig. 2) ships every sample from
//! `tacc_statsd` on each compute node "directly over the Ethernet network
//! to a RMQ server", where a consumer processes it "as soon as it is
//! available". RabbitMQ itself is not available offline, so this crate
//! implements the subset of broker semantics that mode relies on:
//!
//! * named, process-lifetime queues ([`Broker::declare`]), optionally
//!   with a bounded ready backlog and a shed policy
//!   ([`Broker::declare_bounded`], [`ShedPolicy`]) plus consumer-lag
//!   watermarks ([`Broker::lag`]) — admission control for fleet-scale
//!   soak runs where the consumer can fall behind,
//! * any number of producers, each daemon publishing through its own
//!   clone of one broker handle ([`Broker::publish`]),
//! * pull-based consumers with acknowledgement and redelivery
//!   ([`Consumer::get`], [`Consumer::ack`]) — an unacked message is
//!   returned to the queue when its consumer disconnects,
//! * depth/throughput statistics ([`Broker::stats`]).
//!
//! Everything is in process, and a poll never blocks: the system runs on
//! simulated time, so [`Consumer::get`] is one pop from the queue's
//! ready deque. Network faults between daemon and broker are injected on
//! the publishing side (`core::Pipeline`'s chaos publisher, driven by a
//! `FaultPlan`).
//!
//! The broker has one owner: the thread that drives simulated time. Its
//! state sits in cells shared through `Rc`, not behind locks, so neither
//! a [`Broker`] nor a [`Consumer`] can cross to another thread:
//!
//! ```compile_fail,E0277
//! fn send<T: Send>(_: T) {}
//! send(tacc_broker::Broker::new());
//! ```
//!
//! ```compile_fail,E0277
//! fn send<T: Send>(_: T) {}
//! let broker = tacc_broker::Broker::new();
//! broker.declare("stats");
//! send(broker.consume("stats"));
//! ```
//!
//! A publish and a poll are therefore whole operations, one after the
//! other; `tests/queue_props.rs` checks the broker's accounting over
//! random sequences of them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod queue;

pub use crate::queue::{Broker, BrokerStats, Consumer, Delivery, QueueLag, QueueStats, ShedPolicy};
