//! Node-local spool for unsent daemon messages.
//!
//! When the broker is unreachable, `tacc_statsd` must not silently drop
//! the sample it just collected — but it also cannot buffer without
//! bound on a compute node. The [`Spool`] is the compromise: a bounded
//! FIFO of rendered messages awaiting replay. Replay is paced by
//! exponential backoff with deterministic jitter (so a thousand nodes
//! coming back from the same broker outage don't stampede it), and when
//! the spool overflows the *oldest* message is evicted and its sequence
//! number recorded in a ledger — overflow loses data, but never
//! silently: every evicted sequence number is accounted for in the
//! end-to-end delivered/dropped/lost reconciliation.
//!
//! All timing is simulated time; nothing here sleeps.

use bytes::Bytes;
use std::collections::VecDeque;
use tacc_simnode::{SimDuration, SimTime};

/// Default capacity in messages: 256 at a 10-minute sampling interval
/// covers a broker outage of ~42 hours per host.
pub(crate) const DEFAULT_CAPACITY: usize = 256;
/// First retry delay after a failed publish.
const BASE_BACKOFF: SimDuration = SimDuration::from_secs(2);
/// Ceiling for the exponential backoff.
const MAX_BACKOFF: SimDuration = SimDuration::from_mins(5);

/// One spooled message.
#[derive(Clone, Debug)]
pub struct Spooled {
    /// Per-host sequence number stamped into the message.
    pub seq: u64,
    /// Rendered message payload.
    pub payload: Bytes,
}

/// Bounded FIFO of unsent messages with backoff-paced replay.
#[derive(Debug)]
pub struct Spool {
    capacity: usize,
    entries: VecDeque<Spooled>,
    evicted: Vec<u64>,
    consecutive_failures: u32,
    next_attempt: SimTime,
    jitter_seed: u64,
}

impl Spool {
    /// New empty spool holding at most `capacity` messages (pushing
    /// beyond evicts the oldest). `jitter_seed` decorrelates retry
    /// timing across hosts (derive it from the hostname).
    ///
    /// A zero `capacity` is normalized to 1: the collector hot path must
    /// never panic (the whole point of the spool is that the daemon
    /// survives), and a one-slot spool is the closest meaningful reading
    /// of "no buffering" that still keeps the eviction ledger accurate.
    pub fn new(capacity: usize, jitter_seed: u64) -> Spool {
        Spool {
            capacity: capacity.max(1),
            entries: VecDeque::new(),
            evicted: Vec::new(),
            consecutive_failures: 0,
            next_attempt: SimTime::EPOCH,
            jitter_seed,
        }
    }

    /// Messages currently spooled.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the spool empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Append a message. If the spool is full the *oldest* entry is
    /// evicted (newest data is most valuable for monitoring) and its
    /// sequence number is returned and recorded in the eviction ledger.
    pub fn push(&mut self, seq: u64, payload: Bytes) -> Option<u64> {
        let evicted = if self.entries.len() >= self.capacity {
            self.entries.pop_front().map(|oldest| {
                self.evicted.push(oldest.seq);
                oldest.seq
            })
        } else {
            None
        };
        self.entries.push_back(Spooled { seq, payload });
        evicted
    }

    /// Is a replay attempt due at `now`? Always false when empty.
    pub fn ready(&self, now: SimTime) -> bool {
        !self.entries.is_empty() && now >= self.next_attempt
    }

    /// Oldest spooled message (the next to replay — FIFO preserves
    /// per-host sequence order on the wire).
    pub fn front(&self) -> Option<&Spooled> {
        self.entries.front()
    }

    /// Remove and return the oldest message (after a successful replay).
    pub fn pop(&mut self) -> Option<Spooled> {
        self.entries.pop_front()
    }

    /// Record a failed publish attempt at `now`: doubles the backoff
    /// (from `BASE_BACKOFF`, 2 s, capped at `MAX_BACKOFF`, 5 min) and
    /// schedules the next attempt with deterministic jitter in
    /// `[0, BASE_BACKOFF)`.
    pub fn on_failure(&mut self, now: SimTime) {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        let exp = (self.consecutive_failures - 1).min(20);
        let backoff =
            SimDuration::from_nanos((BASE_BACKOFF.as_nanos() << exp).min(MAX_BACKOFF.as_nanos()));
        let jitter = SimDuration::from_nanos(
            splitmix64(self.jitter_seed ^ self.consecutive_failures as u64)
                % BASE_BACKOFF.as_nanos(),
        );
        self.next_attempt = now + backoff + jitter;
    }

    /// Record a successful publish: backoff resets and further replays
    /// may proceed immediately.
    pub fn on_success(&mut self) {
        self.consecutive_failures = 0;
        self.next_attempt = SimTime::EPOCH;
    }

    /// Consecutive failed attempts since the last success.
    #[cfg(test)]
    fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }

    /// Earliest instant the next replay attempt may run.
    pub fn next_attempt(&self) -> SimTime {
        self.next_attempt
    }

    /// Sequence numbers evicted on overflow, oldest first. Grows for
    /// the life of the spool — the ledger is the accounting record that
    /// keeps overflow loss from being silent.
    pub fn evicted(&self) -> &[u64] {
        &self.evicted
    }

    /// Is `seq` currently sitting in the spool?
    pub fn contains(&self, seq: u64) -> bool {
        self.entries.iter().any(|e| e.seq == seq)
    }

    /// Discard all spooled messages (node crash: the spool lives in
    /// volatile memory). Returns the lost sequence numbers in order.
    pub fn wipe(&mut self) -> Vec<u64> {
        let lost = self.entries.drain(..).map(|e| e.seq).collect();
        self.consecutive_failures = 0;
        self.next_attempt = SimTime::EPOCH;
        lost
    }
}

/// SplitMix64 finalizer — cheap deterministic jitter hash.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(seq: u64) -> Bytes {
        Bytes::from(format!("m{seq}"))
    }

    #[test]
    fn fifo_push_pop() {
        let mut s = Spool::new(4, 0);
        for i in 0..3 {
            assert_eq!(s.push(i, msg(i)), None);
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.front().unwrap().seq, 0);
        assert_eq!(s.pop().unwrap().seq, 0);
        assert_eq!(s.pop().unwrap().seq, 1);
        assert_eq!(s.pop().unwrap().seq, 2);
        assert!(s.is_empty());
    }

    #[test]
    fn overflow_evicts_oldest_and_keeps_ledger() {
        let mut s = Spool::new(2, 0);
        assert_eq!(s.push(10, msg(10)), None);
        assert_eq!(s.push(11, msg(11)), None);
        assert_eq!(s.push(12, msg(12)), Some(10));
        assert_eq!(s.push(13, msg(13)), Some(11));
        assert_eq!(s.evicted(), &[10, 11]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.front().unwrap().seq, 12);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let mut s = Spool::new(4, 7);
        s.push(0, msg(0));
        let t0 = SimTime::from_secs(1000);
        assert!(s.ready(t0));
        let mut delays = Vec::new();
        let mut now = t0;
        for _ in 0..10 {
            s.on_failure(now);
            delays.push(s.next_attempt().duration_since(now));
            now = s.next_attempt();
        }
        // Strictly past the failure instant, growing toward the cap.
        assert!(delays[0] >= SimDuration::from_secs(2));
        assert!(delays[0] < SimDuration::from_secs(4)); // base + jitter < 2*base
        for w in delays.windows(2) {
            assert!(w[1] >= w[0] || w[0] > MAX_BACKOFF, "{delays:?}");
        }
        // Capped after 2 s << 8 passes 5 min: never beyond max + jitter.
        assert!(delays[9] >= MAX_BACKOFF, "{delays:?}");
        assert!(delays[9] < MAX_BACKOFF + BASE_BACKOFF, "{delays:?}");
        s.on_failure(now);
        assert!(
            !s.ready(now),
            "backoff pushes the next attempt strictly past the failure"
        );
        assert!(s.ready(now + MAX_BACKOFF + BASE_BACKOFF));
        s.on_success();
        assert!(s.ready(now), "success resets pacing");
        assert_eq!(s.consecutive_failures(), 0);
    }

    #[test]
    fn jitter_decorrelates_hosts() {
        let mut a = Spool::new(4, 1);
        let mut b = Spool::new(4, 2);
        a.push(0, msg(0));
        b.push(0, msg(0));
        let t = SimTime::from_secs(50);
        a.on_failure(t);
        b.on_failure(t);
        assert_ne!(a.next_attempt(), b.next_attempt());
    }

    #[test]
    fn wipe_returns_lost_seqs() {
        let mut s = Spool::new(4, 0);
        s.push(5, msg(5));
        s.push(6, msg(6));
        assert_eq!(s.wipe(), vec![5, 6]);
        assert!(s.is_empty());
        assert!(s.evicted().is_empty(), "wipe is loss, not eviction");
    }

    #[test]
    fn empty_spool_is_never_ready() {
        let s = Spool::new(1, 0);
        assert!(!s.ready(SimTime::from_secs(1_000_000)));
    }
}
