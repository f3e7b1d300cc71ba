//! Deterministic fault injection for the simulated cluster.
//!
//! A [`FaultPlan`] is a seeded, fully reproducible schedule of failures
//! consulted in *simulated* time by the monitoring system driver:
//!
//! * **Node outages** — a node crashes at a wall-clock instant and
//!   reboots at a later one, losing everything held in volatile state
//!   (including the daemon's unsent spool).
//! * **Broker outages** — windows during which the message broker
//!   accepts no publishes and delivers nothing to consumers.
//! * **Network message loss** — per-message Bernoulli drops, decided by
//!   a pure hash of `(seed, host, seq)` so the same plan always drops
//!   the same messages. Request drops lose the message before the
//!   broker sees it; ack drops lose only the acknowledgement, so the
//!   broker has the message but the sender believes it failed (the
//!   classic at-least-once duplicate source).
//! * **Device degradation** — a counter source on one node misbehaves
//!   for a window: its pseudo-file disappears, reads come back
//!   truncated, or the underlying counter freezes (sticks) at its
//!   current value.
//!
//! Nothing in this module consults an ambient RNG or real clock; every
//! decision is a pure function of the plan and simulated time, which is
//! what makes chaos tests replayable from a single seed.

use crate::clock::{SimDuration, SimTime};
use crate::intern::{fnv1a_bytes, FNV_BASIS};
use crate::schema::DeviceType;

/// Half-open window of simulated time `[start, end)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Window {
    /// First instant inside the window.
    pub start: SimTime,
    /// First instant after the window.
    pub end: SimTime,
}

impl Window {
    /// Window covering `[start, start + len)`.
    pub fn new(start: SimTime, len: SimDuration) -> Window {
        Window {
            start,
            end: start + len,
        }
    }

    /// Is `t` inside the window?
    pub fn contains(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }

    /// Window length.
    pub fn len(&self) -> SimDuration {
        self.end.duration_since(self.start)
    }

    /// True when the window is empty (`end <= start`).
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// How a degraded device misbehaves while its fault window is active.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviceFaultKind {
    /// The pseudo-file vanishes (reads return nothing), as when a
    /// module is unloaded or a mount goes away.
    MissingFile,
    /// Reads return only a prefix of the file, as when a racy
    /// `read(2)` of a seq_file catches a partial update.
    TruncatedRead,
    /// The counter freezes at its current value and stops advancing.
    StuckCounter,
}

/// One scheduled device degradation on one host.
#[derive(Clone, Debug)]
pub struct DeviceFault {
    /// Hostname the fault applies to.
    pub host: String,
    /// Device type being degraded.
    pub dev_type: DeviceType,
    /// Device instance name (e.g. `scratch`, `mlx4_0`, `eth0`).
    pub instance: String,
    /// Failure mode.
    pub kind: DeviceFaultKind,
    /// Active window.
    pub window: Window,
}

/// One scheduled node crash/reboot cycle.
#[derive(Clone, Debug)]
pub struct NodeOutage {
    /// Hostname that goes down.
    pub host: String,
    /// Down window: crashed at `window.start`, rebooted at `window.end`.
    pub window: Window,
}

/// How a pseudo-file read fails (the node-side projection of a
/// [`DeviceFault`], installed on the node by the driver).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadFaultMode {
    /// The file is absent: reads return `None`.
    Missing,
    /// Reads return only the first half of the rendered text.
    Truncated,
}

/// A path-prefix read fault active on a node right now.
#[derive(Clone, Debug)]
pub struct ReadFault {
    /// Paths starting with this prefix are affected.
    pub prefix: String,
    /// Failure mode.
    pub mode: ReadFaultMode,
}

/// Pseudo-filesystem path (or path prefix) backing a device instance,
/// used to translate a [`DeviceFault`] into a [`ReadFault`]. Returns
/// `None` for devices read through MSRs or PCI config space rather than
/// files (those can only be degraded via [`DeviceFaultKind::StuckCounter`]).
pub fn fault_path(dev_type: DeviceType, instance: &str) -> Option<String> {
    match dev_type {
        DeviceType::Llite => Some(format!("/proc/fs/lustre/llite/{instance}-ffff8800/stats")),
        DeviceType::Mdc => Some(format!(
            "/proc/fs/lustre/mdc/{instance}-MDT0000-mdc-ffff8800/stats"
        )),
        DeviceType::Osc => Some(format!(
            "/proc/fs/lustre/osc/{instance}-OST0000-osc-ffff8800/stats"
        )),
        DeviceType::Net => Some("/proc/net/dev".to_string()),
        DeviceType::Cpustat => Some("/proc/stat".to_string()),
        DeviceType::Lnet => Some("/proc/sys/lnet/stats".to_string()),
        DeviceType::Ib => Some(format!("/sys/class/infiniband/{instance}/ports/1/counters")),
        DeviceType::Mic => Some(format!("/sys/class/mic/{instance}/stats")),
        _ => None,
    }
}

/// A deterministic schedule of disk faults, consumed by the tsdb's
/// fault-injectable virtual disk (`tacc-tsdb`'s `MemVfs`). Ordinals
/// count operations across the whole disk (every file), 0-based, so a
/// plan describes one run of the durability layer end to end:
///
/// * **Short writes** — the named append persists only the first half
///   of its buffer and reports failure, as when a filesystem runs out
///   of space or an I/O error interrupts `write(2)` mid-buffer.
/// * **fsync failures** — the named sync calls fail without advancing
///   the durable watermark (the `fsync`-returns-`EIO` case; dirty
///   pages may or may not reach the platter later, so the writer must
///   treat everything since the last good sync as at-risk).
/// * **Kill-at-offset** — after the disk has absorbed this many
///   appended bytes (a straddling append persists exactly up to the
///   boundary — a torn record), the process is dead: every later
///   operation fails with `Killed`. Sweeping this offset over a run is
///   the "kill at any byte offset" chaos schedule.
///
/// Like the rest of [`FaultPlan`], nothing here consults an ambient
/// RNG: a plan is replayable from its fields alone.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DiskFaultPlan {
    /// Disk-wide append ordinals that short-write (persist half, fail).
    pub short_write_at: Vec<u64>,
    /// Disk-wide sync ordinals that fail without syncing.
    pub sync_fail_at: Vec<u64>,
    /// Kill the process once this many bytes have been appended
    /// disk-wide; the straddling append is torn at the boundary.
    pub kill_at_offset: Option<u64>,
}

impl DiskFaultPlan {
    /// The empty plan: the disk never misbehaves.
    pub fn none() -> DiskFaultPlan {
        DiskFaultPlan::default()
    }

    /// True when the plan injects no disk faults at all.
    pub fn is_empty(&self) -> bool {
        self.short_write_at.is_empty()
            && self.sync_fail_at.is_empty()
            && self.kill_at_offset.is_none()
    }

    /// Kill the process after `offset` appended bytes.
    pub fn kill_at(offset: u64) -> DiskFaultPlan {
        DiskFaultPlan {
            kill_at_offset: Some(offset),
            ..DiskFaultPlan::default()
        }
    }

    /// Does append ordinal `n` short-write?
    pub fn short_write(&self, n: u64) -> bool {
        self.short_write_at.contains(&n)
    }

    /// Does sync ordinal `n` fail?
    pub fn sync_fails(&self, n: u64) -> bool {
        self.sync_fail_at.contains(&n)
    }

    /// A deliberately hostile but deterministic disk schedule derived
    /// from `seed`: a handful of short writes and fsync failures
    /// scattered over the first `appends` append operations.
    pub fn hostile(seed: u64, appends: u64) -> DiskFaultPlan {
        let n = appends.max(1);
        let pick = |salt: u64| fnv1a(&[seed, salt]) % n;
        DiskFaultPlan {
            short_write_at: vec![pick(1), pick(2), pick(3)],
            sync_fail_at: vec![pick(4) % (n / 8).max(1), pick(5) % (n / 8).max(1)],
            kill_at_offset: None,
        }
    }
}

/// A complete, seeded fault schedule for one simulation run.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Seed for per-message drop decisions (and provenance of the plan).
    pub seed: u64,
    /// Scheduled node crash/reboot cycles.
    pub node_outages: Vec<NodeOutage>,
    /// Windows during which the broker is down.
    pub broker_outages: Vec<Window>,
    /// Probability a publish request is lost before reaching the broker.
    pub drop_request_prob: f64,
    /// Probability a publish succeeds but its acknowledgement is lost.
    pub drop_ack_prob: f64,
    /// Scheduled device degradations.
    pub device_faults: Vec<DeviceFault>,
    /// Disk faults for the durable storage tier.
    pub disk: DiskFaultPlan,
}

/// FNV-1a over a few words' little-endian bytes — a cheap, stable
/// message-level hash.
fn fnv1a(words: &[u64]) -> u64 {
    words
        .iter()
        .fold(FNV_BASIS, |h, w| fnv1a_bytes(h, &w.to_le_bytes()))
}

fn str_hash(s: &str) -> u64 {
    fnv1a_bytes(FNV_BASIS, s.as_bytes())
}

/// Map a hash to `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl FaultPlan {
    /// The empty plan: nothing ever fails.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// True when the plan injects no faults at all.
    pub fn is_empty(&self) -> bool {
        self.node_outages.is_empty()
            && self.broker_outages.is_empty()
            && self.drop_request_prob == 0.0
            && self.drop_ack_prob == 0.0
            && self.device_faults.is_empty()
            && self.disk.is_empty()
    }

    /// Is the broker down at `t`?
    pub fn broker_down(&self, t: SimTime) -> bool {
        self.broker_outages.iter().any(|w| w.contains(t))
    }

    /// Is this publish request lost in the network? Pure in
    /// `(seed, host, seq)` — replaying the run drops the same messages.
    pub fn drops_request(&self, host: &str, seq: u64) -> bool {
        self.drop_request_prob > 0.0
            && unit(fnv1a(&[self.seed, str_hash(host), seq, 1])) < self.drop_request_prob
    }

    /// Is the acknowledgement for this publish lost? (The broker keeps
    /// the message; the sender sees a failure and will retransmit.)
    pub fn drops_ack(&self, host: &str, seq: u64) -> bool {
        self.drop_ack_prob > 0.0
            && unit(fnv1a(&[self.seed, str_hash(host), seq, 2])) < self.drop_ack_prob
    }

    /// Length of the longest broker outage (zero if none are scheduled).
    /// A node-local spool sized to cover this window guarantees zero
    /// message loss from broker outages alone.
    #[cfg(test)]
    fn longest_broker_outage(&self) -> SimDuration {
        self.broker_outages
            .iter()
            .map(Window::len)
            .max()
            .unwrap_or(SimDuration::from_secs(0))
    }

    /// A deliberately hostile but fully deterministic plan for chaos
    /// testing: two broker outages (one short, one long), one node
    /// crash overlapping the long outage (so spooled samples are lost
    /// with the node), per-message request and ack drops, and one
    /// device degradation of each kind spread across the hosts.
    ///
    /// `start` is the beginning and `span` the length of the simulated
    /// period being attacked; windows are placed at fixed fractions of
    /// the span so the plan scales with the run.
    pub fn hostile(seed: u64, hosts: &[String], start: SimTime, span: SimDuration) -> FaultPlan {
        assert!(!hosts.is_empty(), "hostile plan needs at least one host");
        let frac =
            |num: u64, den: u64| start + SimDuration::from_nanos(span.as_nanos() / den * num);
        let pick = |salt: u64| &hosts[(fnv1a(&[seed, salt]) % hosts.len() as u64) as usize];

        // Short outage early (covered by any reasonable spool), long
        // outage later in the day.
        let short = Window {
            start: frac(1, 8),
            end: frac(1, 8) + SimDuration::from_secs(20 * 60),
        };
        let long = Window {
            start: frac(5, 8),
            end: frac(5, 8) + SimDuration::from_secs(2 * 3600),
        };

        // A node crashes in the middle of the long outage — whatever it
        // had spooled is gone for good — and reboots after the outage.
        let victim = pick(11).clone();
        let crash = Window {
            start: long.start + SimDuration::from_secs(30 * 60),
            end: long.end + SimDuration::from_secs(30 * 60),
        };

        let dev_window = Window {
            start: frac(2, 8),
            end: frac(3, 8),
        };
        let device_faults = vec![
            DeviceFault {
                host: pick(21).clone(),
                dev_type: DeviceType::Llite,
                instance: "scratch".to_string(),
                kind: DeviceFaultKind::MissingFile,
                window: dev_window,
            },
            DeviceFault {
                host: pick(22).clone(),
                dev_type: DeviceType::Net,
                instance: "eth0".to_string(),
                kind: DeviceFaultKind::TruncatedRead,
                window: dev_window,
            },
            DeviceFault {
                host: pick(23).clone(),
                dev_type: DeviceType::Ib,
                instance: "mlx4_0".to_string(),
                kind: DeviceFaultKind::StuckCounter,
                window: dev_window,
            },
        ];

        FaultPlan {
            seed,
            node_outages: vec![NodeOutage {
                host: victim,
                window: crash,
            }],
            broker_outages: vec![short, long],
            drop_request_prob: 0.05,
            drop_ack_prob: 0.04,
            device_faults,
            disk: DiskFaultPlan::none(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn window_contains_is_half_open() {
        let w = Window::new(t(100), SimDuration::from_secs(10));
        assert!(!w.contains(t(99)));
        assert!(w.contains(t(100)));
        assert!(w.contains(t(109)));
        assert!(!w.contains(t(110)));
        assert_eq!(w.len(), SimDuration::from_secs(10));
        assert!(!w.is_empty());
    }

    #[test]
    fn empty_plan_never_faults() {
        let p = FaultPlan::none();
        assert!(p.is_empty());
        assert!(!p.broker_down(t(0)));
        assert!(!p.drops_request("h", 0));
        assert!(!p.drops_ack("h", 0));
        assert_eq!(p.longest_broker_outage(), SimDuration::from_secs(0));
    }

    #[test]
    fn drop_decisions_are_deterministic_and_distinct() {
        let p = FaultPlan {
            seed: 42,
            drop_request_prob: 0.5,
            drop_ack_prob: 0.5,
            ..FaultPlan::default()
        };
        let a: Vec<bool> = (0..64).map(|s| p.drops_request("host-1", s)).collect();
        let b: Vec<bool> = (0..64).map(|s| p.drops_request("host-1", s)).collect();
        assert_eq!(a, b, "same plan must drop the same messages");
        let dropped = a.iter().filter(|&&d| d).count();
        assert!(
            dropped > 5 && dropped < 60,
            "p=0.5 should drop roughly half"
        );
        // Request and ack decisions are independent streams.
        let acks: Vec<bool> = (0..64).map(|s| p.drops_ack("host-1", s)).collect();
        assert_ne!(a, acks);
        // Different hosts see different streams.
        let other: Vec<bool> = (0..64).map(|s| p.drops_request("host-2", s)).collect();
        assert_ne!(a, other);
    }

    #[test]
    fn drop_rate_roughly_matches_probability() {
        let p = FaultPlan {
            seed: 7,
            drop_request_prob: 0.1,
            ..FaultPlan::default()
        };
        let dropped = (0..10_000)
            .filter(|&s| p.drops_request("c401-0001", s))
            .count();
        assert!(
            (600..1400).contains(&dropped),
            "expected ~1000 of 10000 dropped, got {dropped}"
        );
    }

    #[test]
    fn hostile_plan_is_deterministic_and_well_formed() {
        let hosts: Vec<String> = (0..4).map(|i| format!("c401-{i:04}")).collect();
        let start = t(1_443_657_600);
        let span = SimDuration::from_secs(86_400);
        let p1 = FaultPlan::hostile(99, &hosts, start, span);
        let p2 = FaultPlan::hostile(99, &hosts, start, span);
        assert_eq!(p1.node_outages[0].host, p2.node_outages[0].host);
        assert_eq!(p1.broker_outages, p2.broker_outages);
        assert_eq!(p1.longest_broker_outage(), SimDuration::from_secs(2 * 3600));
        // The node crash overlaps the long broker outage.
        let long = p1.broker_outages[1];
        let crash = p1.node_outages[0].window;
        assert!(crash.start > long.start && crash.start < long.end);
        assert!(crash.end > long.end);
        for f in &p1.device_faults {
            assert!(hosts.contains(&f.host));
            assert!(!f.window.is_empty());
        }
    }

    #[test]
    fn disk_plan_defaults_to_empty_and_queries_are_pure() {
        let p = DiskFaultPlan::none();
        assert!(p.is_empty());
        assert!(!p.short_write(0));
        assert!(!p.sync_fails(0));
        assert!(
            FaultPlan::none().is_empty(),
            "empty disk plan keeps FaultPlan empty"
        );

        let k = DiskFaultPlan::kill_at(4096);
        assert!(!k.is_empty());
        assert_eq!(k.kill_at_offset, Some(4096));

        let h1 = DiskFaultPlan::hostile(9, 1000);
        let h2 = DiskFaultPlan::hostile(9, 1000);
        assert_eq!(h1, h2, "hostile disk plans are deterministic");
        assert!(h1.short_write_at.iter().all(|&n| n < 1000));
        assert!(!h1.is_empty());
        let full = FaultPlan {
            disk: h1,
            ..FaultPlan::none()
        };
        assert!(!full.is_empty(), "disk faults alone make a plan non-empty");
    }

    #[test]
    fn fault_paths_cover_file_backed_devices() {
        assert_eq!(
            fault_path(DeviceType::Llite, "scratch").as_deref(),
            Some("/proc/fs/lustre/llite/scratch-ffff8800/stats")
        );
        assert_eq!(
            fault_path(DeviceType::Ib, "mlx4_0").as_deref(),
            Some("/sys/class/infiniband/mlx4_0/ports/1/counters")
        );
        assert_eq!(
            fault_path(DeviceType::Net, "eth0").as_deref(),
            Some("/proc/net/dev")
        );
        assert_eq!(fault_path(DeviceType::Cpu, "0"), None);
        assert_eq!(fault_path(DeviceType::Rapl, "0"), None);
    }
}
