//! The original, cron-based operation mode (§III-A, Fig. 1).
//!
//! "This mode of operation appends the collected data to a log file,
//! local to the compute node on which it is running, that is created
//! during a daily log rotation triggered by cron. A copy of this log
//! file is later made to a central location on a shared filesystem. In
//! order to avoid undue stress on the filesystem the data is centralized
//! once a day at a different random time per node when the system
//! utilization is low (e.g. early morning). … This operation mode
//! introduces a time lag between when the data is collected and when it
//! is accessible … and introduces the possibility that a node failure
//! will result in data loss."
//!
//! [`CronCollector::tick`] is driven by the simulation loop; it fires
//! interval samples, the daily rotation at midnight, and the staggered
//! daily sync, all in simulated time. The day log is kept as the raw
//! bytes the archive stores, rendered by [`crate::codec`].
//! [`CronCollector::on_crash`] models the node-failure data loss.

use crate::archive::Archive;
use crate::codec;
use crate::engine::Sampler;
use crate::record::Sample;
use tacc_simnode::pseudofs::NodeFs;
use tacc_simnode::{SimDuration, SimTime};

/// Configuration of the cron mode.
#[derive(Clone, Copy, Debug)]
pub struct CronConfig {
    /// Sampling interval (the paper's default: 10 minutes).
    pub interval: SimDuration,
    /// Second-of-day of this node's staggered rsync to the central
    /// archive (randomized per node in the early morning).
    pub sync_second: u64,
}

/// A day's worth of local log plus bookkeeping for latency accounting.
#[derive(Clone, Debug, Default)]
struct LocalLog {
    bytes: Vec<u8>,
    sample_times: Vec<SimTime>,
}

/// Per-node cron-mode collector state.
pub struct CronCollector {
    sampler: Sampler,
    cfg: CronConfig,
    /// The log being appended today (None until the first sample of the
    /// day writes the header).
    current: LocalLog,
    current_day: SimTime,
    /// Rotated logs waiting for the daily sync.
    pending: Vec<(SimTime, LocalLog)>,
    next_sample: SimTime,
    last_sync_day: Option<SimTime>,
    jobids: Vec<String>,
    queued_marks: Vec<String>,
    /// Samples lost to crashes (unsynced local data).
    pub lost_samples: usize,
}

impl CronCollector {
    /// New cron collector starting at `start`.
    pub fn new(sampler: Sampler, cfg: CronConfig, start: SimTime) -> CronCollector {
        CronCollector {
            sampler,
            cfg,
            current: LocalLog::default(),
            current_day: start.start_of_day(),
            pending: Vec::new(),
            next_sample: start,
            last_sync_day: None,
            jobids: Vec::new(),
            queued_marks: Vec::new(),
            lost_samples: 0,
        }
    }

    /// The sampler (for overhead accounting).
    pub fn sampler(&self) -> &Sampler {
        &self.sampler
    }

    /// Update the set of jobs running on this node (scheduler feed).
    pub fn set_jobs(&mut self, jobids: Vec<String>) {
        self.jobids = jobids;
    }

    /// Trigger an immediate collection with a scheduler mark — the
    /// prolog/epilog hook ("a single statement is added to the prolog
    /// and epilog scripts"), which guarantees ≥2 samples per job.
    /// Returns the collected sample (callers feed it to the metric
    /// pipeline and the time-series mirror).
    pub fn collect_marked(&mut self, fs: &NodeFs<'_>, now: SimTime, mark: &str) -> Sample {
        self.queued_marks.push(mark.to_string());
        self.do_collect(fs, now)
    }

    fn do_collect(&mut self, fs: &NodeFs<'_>, now: SimTime) -> Sample {
        let marks = std::mem::take(&mut self.queued_marks);
        let sample = self.sampler.sample(fs, now, &self.jobids, &marks);
        if self.current.bytes.is_empty() {
            codec::render_header_into(self.sampler.header(), &mut self.current.bytes);
        }
        codec::render_sample_into(&sample, &mut self.current.bytes);
        self.current.sample_times.push(now);
        sample
    }

    fn rotate(&mut self, new_day: SimTime) {
        if !self.current.bytes.is_empty() {
            let log = std::mem::take(&mut self.current);
            self.pending.push((self.current_day, log));
        }
        self.current_day = new_day;
    }

    fn sync(&mut self, archive: &Archive, now: SimTime) {
        for (day, log) in self.pending.drain(..) {
            archive.append_bytes(
                self.sampler.header().hostname,
                day,
                &log.bytes,
                &log.sample_times,
                now,
            );
        }
    }

    /// Drive the collector up to `now`: fire any due interval samples,
    /// the daily rotation, and the daily sync, in time order. Returns
    /// the samples collected by this tick.
    pub fn tick(&mut self, fs: &NodeFs<'_>, now: SimTime, archive: &Archive) -> Vec<Sample> {
        let mut out = Vec::new();
        // Interval samples (possibly several if the driver steps coarsely).
        while self.next_sample <= now {
            let t = self.next_sample;
            // Rotation happens before a sample that lands in a new day.
            self.maybe_rotate_and_sync(t, archive);
            out.push(self.do_collect(fs, t));
            self.next_sample = self.next_sample + self.cfg.interval;
        }
        self.maybe_rotate_and_sync(now, archive);
        out
    }

    fn maybe_rotate_and_sync(&mut self, now: SimTime, archive: &Archive) {
        let today = now.start_of_day();
        // Daily rotation at midnight: rotate when we have moved past the
        // boundary into a new day.
        if today > self.current_day {
            self.rotate(today);
        }
        // Daily sync at this node's staggered second-of-day.
        let due = now.seconds_into_day() >= self.cfg.sync_second;
        let not_done_today = self.last_sync_day != Some(today);
        if due && not_done_today {
            self.sync(archive, now);
            self.last_sync_day = Some(today);
        }
    }

    /// Node reboot at `now`: resume the sampling schedule from the
    /// present. The window the node spent dead is not backfilled.
    pub fn skip_to(&mut self, now: SimTime) {
        if self.next_sample < now {
            self.next_sample = now;
        }
    }

    /// Node failure: everything not yet synced to the archive is lost.
    /// Returns the number of samples lost.
    pub fn on_crash(&mut self) -> usize {
        let lost = self.current.sample_times.len()
            + self
                .pending
                .iter()
                .map(|(_, l)| l.sample_times.len())
                .sum::<usize>();
        self.current = LocalLog::default();
        self.pending.clear();
        self.queued_marks.clear();
        self.lost_samples += lost;
        lost
    }

    /// Samples buffered locally (not yet in the archive).
    #[cfg(test)]
    fn unsynced_samples(&self) -> usize {
        self.current.sample_times.len()
            + self
                .pending
                .iter()
                .map(|(_, l)| l.sample_times.len())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discovery::{discover, BuildOptions};
    use tacc_simnode::topology::NodeTopology;
    use tacc_simnode::workload::NodeDemand;
    use tacc_simnode::SimNode;

    fn setup() -> (SimNode, CronCollector, Archive) {
        let node = SimNode::new("c401-0001", NodeTopology::stampede());
        let fs = NodeFs::new(&node);
        let cfg = discover(&fs, BuildOptions::default()).unwrap();
        let sampler = Sampler::new("c401-0001", &cfg);
        let cron_cfg = CronConfig {
            interval: SimDuration::from_mins(10),
            sync_second: 4 * 3600,
        };
        let cron = CronCollector::new(sampler, cron_cfg, SimTime::from_secs(0));
        (node, cron, Archive::new())
    }

    fn drive(
        node: &mut SimNode,
        cron: &mut CronCollector,
        archive: &Archive,
        from_secs: u64,
        to_secs: u64,
        step_secs: u64,
    ) {
        let mut t = from_secs;
        while t < to_secs {
            node.advance(
                SimDuration::from_secs(step_secs),
                &NodeDemand {
                    active_cores: 16,
                    cpu_user_frac: 0.5,
                    ..NodeDemand::default()
                },
            );
            t += step_secs;
            let fs = NodeFs::new(node);
            cron.tick(&fs, SimTime::from_secs(t), archive);
        }
    }

    #[test]
    fn interval_samples_accumulate_locally_before_sync() {
        let (mut node, mut cron, archive) = setup();
        // Drive 2 hours: 13 samples (t=0 fires on first tick), no sync yet.
        drive(&mut node, &mut cron, &archive, 0, 7200, 600);
        assert_eq!(cron.unsynced_samples(), 13);
        assert_eq!(archive.total_samples(), 0, "nothing centralized yet");
    }

    #[test]
    fn daily_rotation_and_staggered_sync() {
        let (mut node, mut cron, archive) = setup();
        // Drive a full day plus the 4 am sync window of day 2.
        drive(&mut node, &mut cron, &archive, 0, 86_400 + 5 * 3600, 600);
        // Day-0 log must now be in the archive.
        assert!(archive.has_file("c401-0001", SimTime::from_secs(0)));
        let parsed = archive
            .parse("c401-0001", SimTime::from_secs(0))
            .unwrap()
            .unwrap();
        assert_eq!(parsed.samples.len(), 144, "one day of 10-min samples");
        // Latency: collected throughout day 0, available at 04:00 day 1 →
        // mean ~16.2 h, max ~28 h.
        let lat = archive.latency_stats();
        assert!(lat.max_secs > 20.0 * 3600.0, "max {:.0}s", lat.max_secs);
        assert!(lat.mean_secs > 10.0 * 3600.0, "mean {:.0}s", lat.mean_secs);
    }

    #[test]
    fn prolog_epilog_marks_collect_immediately() {
        let (node, mut cron, _archive) = setup();
        let fs = NodeFs::new(&node);
        cron.set_jobs(vec!["3001".to_string()]);
        cron.collect_marked(&fs, SimTime::from_secs(42), "begin 3001");
        assert_eq!(cron.unsynced_samples(), 1);
        cron.collect_marked(&fs, SimTime::from_secs(99), "end 3001");
        assert_eq!(cron.unsynced_samples(), 2);
    }

    #[test]
    fn crash_loses_unsynced_data() {
        let (mut node, mut cron, archive) = setup();
        drive(&mut node, &mut cron, &archive, 0, 7200, 600);
        let buffered = cron.unsynced_samples();
        assert!(buffered > 0);
        let lost = cron.on_crash();
        assert_eq!(lost, buffered);
        assert_eq!(cron.unsynced_samples(), 0);
        // Continue after reboot; the archive only ever sees post-crash data.
        drive(&mut node, &mut cron, &archive, 7200, 86_400 + 5 * 3600, 600);
        let parsed = archive
            .parse("c401-0001", SimTime::from_secs(0))
            .unwrap()
            .unwrap();
        assert!(
            parsed.samples.len() < 144,
            "crash should have cost samples: {}",
            parsed.samples.len()
        );
        assert!(parsed.samples[0].time.as_secs() > 7200);
    }

    #[test]
    fn crash_at_rotation_boundary_counts_every_sample_exactly_once() {
        let (mut node, mut cron, archive) = setup();
        // Drive to the exact rotation instant of day 2: the tick at
        // t = 172800 rotates the day-1 log into the pending queue and
        // then collects the boundary sample into the fresh day-2 log.
        drive(&mut node, &mut cron, &archive, 0, 2 * 86_400, 600);
        let collections = cron.sampler().account().collections as usize;
        assert_eq!(collections, 289, "samples at 0..=172800 step 600");
        let archived = archive.total_samples();
        assert_eq!(archived, 144, "day 0 synced at 04:00 of day 1");
        // Crash exactly at the rotation instant. The pending day-1 log
        // and the just-collected boundary sample are lost — once each.
        let lost = cron.on_crash();
        assert_eq!(lost, 145, "pending day-1 log (144) + the boundary sample");
        assert_eq!(
            archived + lost,
            collections,
            "no sample double-counted or double-lost at the boundary"
        );
        // Reboot half an hour later: the schedule resumes from the
        // present, so the dead window is neither backfilled nor re-lost.
        let reboot_at = 2 * 86_400 + 1800;
        cron.skip_to(SimTime::from_secs(reboot_at));
        drive(
            &mut node,
            &mut cron,
            &archive,
            reboot_at,
            3 * 86_400 + 5 * 3600,
            600,
        );
        let day2 = archive
            .parse("c401-0001", SimTime::from_secs(2 * 86_400))
            .unwrap()
            .unwrap();
        assert_eq!(day2.samples[0].time.as_secs(), reboot_at);
        assert_eq!(
            archive.total_samples() + cron.unsynced_samples() + lost,
            cron.sampler().account().collections as usize,
            "conservation holds after recovery too"
        );
    }

    #[test]
    fn sync_happens_once_per_day() {
        let (mut node, mut cron, archive) = setup();
        // Two full days.
        drive(
            &mut node,
            &mut cron,
            &archive,
            0,
            2 * 86_400 + 5 * 3600,
            600,
        );
        let keys = archive.keys();
        assert_eq!(keys.len(), 2, "one file per day: {keys:?}");
    }
}
