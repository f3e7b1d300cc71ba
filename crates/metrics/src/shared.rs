//! Shared-node per-job attribution (§VI-C).
//!
//! "While it is impossible to definitively attribute all the data TACC
//! Stats collects to specific jobs on shared nodes …, we do have an
//! approach to disentangling some of the data": every collection is
//! labelled by the list of running jobs, and "the procfs data … provides
//! a list of active processes along with their owners and cpu
//! affinities. … If jobs are pinned to cores or sockets, such as through
//! the use of cgroups, core-level and process-level data can be reliably
//! extracted."
//!
//! [`attribute`] splits a shared node's sample stream per job by process
//! ownership: per-job CPU seconds (utime deltas, rollover-corrected),
//! peak resident memory, process counts, and the union of the job's CPU
//! affinity masks. [`pinning_report`] checks whether jobs were actually
//! pinned disjointly (the precondition for reliable core-level
//! attribution) and flags overlaps.

use std::collections::{BTreeMap, HashMap};
use tacc_collect::record::Sample;
use tacc_simnode::counter::wrapping_delta;

/// Index of `utime` in the ps value vector.
const PS_UTIME: usize = 8;
/// Index of `VmHWM`.
const PS_HWM: usize = 1;
/// Index of `VmRSS`.
const PS_RSS: usize = 2;
/// Index of `Cpus_allowed`.
const PS_CPUS: usize = 9;

/// Attributed usage of one job on a shared node.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JobShare {
    /// CPU seconds consumed by the job's processes (user mode).
    pub cpu_seconds: f64,
    /// Peak summed RSS of the job's processes (KiB).
    pub max_rss_kib: u64,
    /// Peak summed VmHWM (KiB) — the OS-recorded high-water mark.
    pub max_hwm_kib: u64,
    /// Distinct pids observed for the job.
    pub n_processes: usize,
    /// Union of the job's processes' CPU affinity masks.
    pub cpu_mask: u64,
    /// Samples in which the job's processes were visible.
    pub samples_seen: usize,
}

/// Result of attributing a shared node's samples.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SharedNodeUsage {
    /// Per-job shares, keyed by job id string (as carried in samples).
    pub per_job: BTreeMap<String, JobShare>,
    /// Processes whose uid matched no job (system daemons etc.).
    pub unattributed_pids: usize,
}

/// Attribute a time-ordered sample stream from ONE node to jobs by
/// process ownership. `uid_to_job` maps owning uids to job ids.
pub fn attribute(samples: &[Sample], uid_to_job: &HashMap<u32, String>) -> SharedNodeUsage {
    let mut usage = SharedNodeUsage::default();
    // pid → last seen utime (for deltas).
    let mut prev_utime: HashMap<u32, u64> = HashMap::new();
    // (job, pid) pairs seen, for process counting.
    let mut seen_pids: HashMap<String, std::collections::BTreeSet<u32>> = HashMap::new();
    for s in samples {
        // Per-sample per-job aggregates of the gauges.
        let mut rss_now: HashMap<String, u64> = HashMap::new();
        let mut hwm_now: HashMap<String, u64> = HashMap::new();
        let mut jobs_this_sample: std::collections::BTreeSet<String> =
            std::collections::BTreeSet::new();
        for p in &s.processes {
            let Some(job) = uid_to_job.get(&p.uid) else {
                usage.unattributed_pids += 1;
                continue;
            };
            let share = usage.per_job.entry(job.clone()).or_default();
            if p.values.len() > PS_CPUS {
                share.cpu_mask |= p.values[PS_CPUS];
            }
            if let Some(prev) = prev_utime.get(&p.pid) {
                let d = wrapping_delta(*prev, p.values[PS_UTIME], 64);
                share.cpu_seconds += d as f64 * 0.01; // jiffies → seconds
            }
            prev_utime.insert(p.pid, p.values[PS_UTIME]);
            *rss_now.entry(job.clone()).or_default() += p.values[PS_RSS];
            *hwm_now.entry(job.clone()).or_default() += p.values[PS_HWM];
            seen_pids.entry(job.clone()).or_default().insert(p.pid);
            jobs_this_sample.insert(job.clone());
        }
        for (job, rss) in rss_now {
            let share = usage.per_job.entry(job).or_default();
            share.max_rss_kib = share.max_rss_kib.max(rss);
        }
        for (job, hwm) in hwm_now {
            let share = usage.per_job.entry(job).or_default();
            share.max_hwm_kib = share.max_hwm_kib.max(hwm);
        }
        for job in jobs_this_sample {
            usage.per_job.get_mut(&job).expect("inserted").samples_seen += 1;
        }
    }
    for (job, pids) in seen_pids {
        usage.per_job.get_mut(&job).expect("seen").n_processes = pids.len();
    }
    usage
}

/// Whether the jobs on the node were pinned to disjoint core sets — the
/// §VI-C precondition for reliable core-level extraction. Returns the
/// pairs of jobs whose affinity masks overlap (empty = cleanly pinned).
fn pinning_conflicts(usage: &SharedNodeUsage) -> Vec<(String, String)> {
    let jobs: Vec<(&String, u64)> = usage.per_job.iter().map(|(j, s)| (j, s.cpu_mask)).collect();
    let mut out = Vec::new();
    for i in 0..jobs.len() {
        for j in i + 1..jobs.len() {
            if jobs[i].1 & jobs[j].1 != 0 {
                out.push((jobs[i].0.clone(), jobs[j].0.clone()));
            }
        }
    }
    out
}

/// Render the shared-node attribution report.
pub fn render(usage: &SharedNodeUsage) -> String {
    let mut out = String::from("=== Shared-node attribution (§VI-C) ===\n");
    out.push_str(&format!(
        "{:<8} {:>10} {:>12} {:>12} {:>7} {:>18}\n",
        "job", "cpu-sec", "maxRSS(MB)", "maxHWM(MB)", "procs", "cpu mask"
    ));
    for (job, s) in &usage.per_job {
        out.push_str(&format!(
            "{:<8} {:>10.1} {:>12.0} {:>12.0} {:>7} {:>#18x}\n",
            job,
            s.cpu_seconds,
            s.max_rss_kib as f64 / 1024.0,
            s.max_hwm_kib as f64 / 1024.0,
            s.n_processes,
            s.cpu_mask
        ));
    }
    let conflicts = pinning_conflicts(usage);
    if conflicts.is_empty() {
        out.push_str("jobs pinned to disjoint cores: core-level data reliable\n");
    } else {
        for (a, b) in conflicts {
            out.push_str(&format!(
                "WARNING: jobs {a} and {b} share cores — core-level data unreliable\n"
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacc_collect::record::{PsRecord, SimTimeRepr};
    use tacc_simnode::SimTime;

    fn ps(pid: u32, uid: u32, rss: u64, hwm: u64, utime: u64, mask: u64) -> PsRecord {
        PsRecord {
            pid,
            comm: format!("p{pid}").as_str().into(),
            uid,
            values: vec![rss + 100, hwm, rss, 0, rss / 2, 8, 4, 1, utime, mask, 3].into(),
        }
    }

    fn sample(t: u64, processes: Vec<PsRecord>) -> Sample {
        Sample {
            time: SimTimeRepr::from(SimTime::from_secs(t)),
            jobids: vec!["100".into(), "200".into()],
            marks: vec![],
            devices: vec![],
            processes,
        }
    }

    fn uid_map() -> HashMap<u32, String> {
        HashMap::from([(6000, "100".to_string()), (6001, "200".to_string())])
    }

    #[test]
    fn cpu_time_and_memory_split_by_owner() {
        // Job 100 (uid 6000) pinned to cores 0-7, job 200 to 8-15.
        let samples = vec![
            sample(
                0,
                vec![
                    ps(1, 6000, 1000, 1000, 0, 0x00FF),
                    ps(2, 6001, 4000, 4000, 0, 0xFF00),
                ],
            ),
            sample(
                600,
                vec![
                    ps(1, 6000, 2000, 2500, 48_000, 0x00FF),
                    ps(2, 6001, 3000, 4500, 12_000, 0xFF00),
                ],
            ),
        ];
        let usage = attribute(&samples, &uid_map());
        let j100 = &usage.per_job["100"];
        let j200 = &usage.per_job["200"];
        // utime deltas: 48000 jiffies = 480 s; 12000 = 120 s.
        assert!((j100.cpu_seconds - 480.0).abs() < 1e-9);
        assert!((j200.cpu_seconds - 120.0).abs() < 1e-9);
        // Peak RSS per job: job 100 peaked later, job 200 earlier.
        assert_eq!(j100.max_rss_kib, 2000);
        assert_eq!(j200.max_rss_kib, 4000);
        assert_eq!(j200.max_hwm_kib, 4500);
        assert_eq!(j100.n_processes, 1);
        assert_eq!(j100.samples_seen, 2);
        assert_eq!(j100.cpu_mask, 0x00FF);
        // Disjoint pinning: reliable.
        assert!(pinning_conflicts(&usage).is_empty());
        assert!(render(&usage).contains("reliable"));
    }

    #[test]
    fn overlapping_affinities_are_flagged() {
        let samples = vec![sample(
            0,
            vec![
                ps(1, 6000, 100, 100, 0, 0x0F0F),
                ps(2, 6001, 100, 100, 0, 0x00FF),
            ],
        )];
        let usage = attribute(&samples, &uid_map());
        let conflicts = pinning_conflicts(&usage);
        assert_eq!(conflicts.len(), 1);
        assert!(render(&usage).contains("WARNING"));
    }

    #[test]
    fn unowned_processes_counted_not_attributed() {
        let samples = vec![sample(0, vec![ps(1, 0, 100, 100, 0, u64::MAX)])];
        let usage = attribute(&samples, &uid_map());
        assert!(usage.per_job.is_empty());
        assert_eq!(usage.unattributed_pids, 1);
    }

    #[test]
    fn short_lived_process_with_two_signal_samples() {
        // §VI-C guarantee: a process visible in exactly two collections
        // (procstart + procend) still gets CPU time attributed.
        let samples = vec![
            sample(10, vec![ps(7, 6000, 500, 500, 100, 0x1)]),
            sample(11, vec![ps(7, 6000, 600, 700, 350, 0x1)]),
        ];
        let usage = attribute(&samples, &uid_map());
        let j = &usage.per_job["100"];
        assert!((j.cpu_seconds - 2.5).abs() < 1e-9);
        assert_eq!(j.max_hwm_kib, 700);
    }

    #[test]
    fn multiple_processes_per_job_sum() {
        let samples = vec![
            sample(
                0,
                vec![
                    ps(1, 6000, 1000, 1000, 0, 0x3),
                    ps(2, 6000, 1000, 1000, 0, 0xC),
                ],
            ),
            sample(
                600,
                vec![
                    ps(1, 6000, 1500, 1500, 6000, 0x3),
                    ps(2, 6000, 1500, 1500, 6000, 0xC),
                ],
            ),
        ];
        let usage = attribute(&samples, &uid_map());
        let j = &usage.per_job["100"];
        assert_eq!(j.n_processes, 2);
        assert!((j.cpu_seconds - 120.0).abs() < 1e-9);
        assert_eq!(j.max_rss_kib, 3000, "summed across the job's processes");
        assert_eq!(j.cpu_mask, 0xF);
    }
}
