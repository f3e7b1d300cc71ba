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
//! * many concurrent producers ([`Broker::publish`]),
//! * pull-based consumers with acknowledgement and redelivery
//!   ([`Consumer::get`], [`Consumer::ack`]) — an unacked message is
//!   returned to the queue when its consumer disconnects,
//! * depth/throughput statistics ([`Broker::stats`]).
//!
//! Everything is in process, and a poll never blocks: the system runs on
//! simulated time, so [`Consumer::get`] is one pop under the queue lock.
//! Network faults between daemon and broker are injected on the
//! publishing side (`core::Pipeline`'s chaos publisher, driven by a
//! `FaultPlan`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod queue;
mod sync;

pub use crate::queue::{Broker, BrokerStats, Consumer, Delivery, QueueLag, QueueStats, ShedPolicy};
