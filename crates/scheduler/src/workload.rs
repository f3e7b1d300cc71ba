//! The calibrated workload generator.
//!
//! Produces a synthetic job population whose *shape* matches what §V-A
//! of the paper reports for Stampede's Q4 2015 (404,002 jobs):
//!
//! * ~4% WRF jobs, including one pathological user whose code opens and
//!   closes a file every loop iteration (105 jobs in the paper),
//! * ~52% of jobs with more than 1% of FP instructions vectorized and
//!   ~25% above 50%,
//! * ~1.3% of jobs using the Xeon Phi for more than 1% of CPU time,
//! * ~3% of jobs using more than 20 GB of the 32 GB nodes,
//! * more than 2% of jobs leaving whole reserved nodes idle,
//! * a largemem queue with occasional low-memory misuse.
//!
//! Everything is seeded and deterministic.

use crate::job::{JobRequest, QueueName};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tacc_simnode::apps::{AppLibrary, AppModel};
use tacc_simnode::topology::NodeTopology;
use tacc_simnode::{SimDuration, SimTime};

/// Parameters of a generated population.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// RNG seed.
    pub seed: u64,
    /// Number of regular jobs to generate.
    pub n_jobs: usize,
    /// First submission time.
    pub start: SimTime,
    /// Submissions are spread uniformly over this window.
    pub span: SimDuration,
    /// Number of distinct users.
    pub n_users: usize,
    /// Fraction of jobs that reserve nodes they leave idle (paper: "over
    /// 2% of jobs in the last quarter of 2015").
    pub idle_node_frac: f64,
    /// Fraction of jobs submitted to the largemem queue.
    pub largemem_frac: f64,
    /// Of largemem jobs, the fraction that barely use memory (the
    /// "largemem waste" flag case).
    pub largemem_waste_frac: f64,
    /// Fraction of jobs in the development queue (not production).
    pub development_frac: f64,
    /// Jobs from the §V-B pathological WRF user (the paper's user ran
    /// 105 in the quarter).
    pub bad_wrf_jobs: usize,
    /// Node type (drives per-node core/memory figures).
    pub topology: NodeTopology,
    /// Largest node count a job may request.
    pub max_nodes: usize,
}

impl WorkloadConfig {
    /// A Q4-2015-shaped population scaled to `n_jobs` regular jobs.
    pub fn q4_2015(seed: u64, n_jobs: usize) -> WorkloadConfig {
        // The paper's quarter: 404,002 jobs, 105 bad-WRF jobs. Scale the
        // bad user's share with the population.
        let bad = ((n_jobs as f64) * 105.0 / 404_002.0).round().max(1.0) as usize;
        WorkloadConfig {
            seed,
            n_jobs,
            start: SimTime::from_secs(tacc_simnode::clock::Q4_2015_START_SECS),
            span: SimDuration::from_secs(
                tacc_simnode::clock::Q4_2015_END_SECS - tacc_simnode::clock::Q4_2015_START_SECS,
            ),
            n_users: (n_jobs / 40).clamp(10, 3000),
            idle_node_frac: 0.045,
            largemem_frac: 0.015,
            largemem_waste_frac: 0.3,
            development_frac: 0.12,
            bad_wrf_jobs: bad,
            topology: NodeTopology::stampede(),
            max_nodes: 256,
        }
    }
}

/// Generates `(submit time, request)` pairs.
pub struct WorkloadGenerator {
    cfg: WorkloadConfig,
    rng: StdRng,
    library: AppLibrary,
}

impl WorkloadGenerator {
    /// New generator.
    pub fn new(cfg: WorkloadConfig) -> WorkloadGenerator {
        WorkloadGenerator {
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
            library: AppLibrary::standard(),
        }
    }

    fn sample_nodes(&mut self) -> usize {
        let r: f64 = self.rng.gen();
        let n = match r {
            x if x < 0.40 => 1,
            x if x < 0.55 => 2,
            x if x < 0.70 => 4,
            x if x < 0.82 => 8,
            x if x < 0.92 => 16,
            x if x < 0.97 => 32,
            x if x < 0.99 => 64,
            _ => 128,
        };
        n.min(self.cfg.max_nodes)
    }

    fn sample_runtime(&mut self, queue: QueueName) -> SimDuration {
        // Log-normal-ish runtimes; development jobs are short.
        let z: f64 = self.rng.gen::<f64>() * 2.0 - 1.0;
        let base_mins = match queue {
            QueueName::Development => 12.0 * (1.8f64).powf(z * 2.0),
            _ => 80.0 * (2.6f64).powf(z * 2.0),
        };
        let mins = base_mins.clamp(2.0, 24.0 * 60.0);
        SimDuration::from_secs((mins * 60.0) as u64)
    }

    fn user_for(&mut self, exec: &str) -> (String, u32) {
        // Users are sticky to applications: hash the exec into a band of
        // users so each app has a community, like a real centre.
        let band = (exec.bytes().map(|b| b as usize).sum::<usize>() * 7) % self.cfg.n_users;
        let width = (self.cfg.n_users / 4).max(1);
        let idx = (band + self.rng.gen_range(0..width)) % self.cfg.n_users;
        (format!("user{idx:04}"), 5000 + idx as u32)
    }

    fn request_for_model(&mut self, model: &AppModel, queue: QueueName) -> JobRequest {
        let mut n_nodes = self.sample_nodes();
        if queue == QueueName::LargeMem {
            n_nodes = n_nodes.min(4);
        }
        let wayness = self.cfg.topology.n_cores();
        let mut idle_nodes = 0;
        if self.rng.gen::<f64>() < self.cfg.idle_node_frac && n_nodes > 1 {
            // Misconfigured script: half (at least one) of the reserved
            // nodes never run a task.
            idle_nodes = (n_nodes / 2).max(1);
        }
        let app = model.instantiate(&mut self.rng, n_nodes, wayness, &self.cfg.topology);
        let will_fail = matches!(model.phases, tacc_simnode::apps::PhasePlan::FailAt { .. });
        let (user, uid) = self.user_for(&model.exec_name);
        let runtime = self.sample_runtime(queue);
        JobRequest {
            user,
            uid,
            account: format!("TG-{}", uid % 97),
            job_name: format!("{}-run", model.exec_name.replace('.', "_")),
            queue,
            n_nodes,
            wayness,
            runtime,
            will_fail,
            idle_nodes,
            app,
        }
    }

    /// Generate the full population, sorted by submission time.
    pub fn generate(&mut self) -> Vec<(SimTime, JobRequest)> {
        let mut out: Vec<(SimTime, JobRequest)> =
            Vec::with_capacity(self.cfg.n_jobs + self.cfg.bad_wrf_jobs);
        let span_secs = self.cfg.span.as_secs().max(1);
        for _ in 0..self.cfg.n_jobs {
            let queue = {
                let r: f64 = self.rng.gen();
                if r < self.cfg.largemem_frac {
                    QueueName::LargeMem
                } else if r < self.cfg.largemem_frac + self.cfg.development_frac {
                    QueueName::Development
                } else {
                    QueueName::Normal
                }
            };
            let model = if queue == QueueName::LargeMem {
                if self.rng.gen::<f64>() < self.cfg.largemem_waste_frac {
                    AppModel::largemem_waste()
                } else {
                    AppModel::largemem_genuine()
                }
            } else {
                self.library.sample(&mut self.rng).clone()
            };
            let submit = self.cfg.start + SimDuration::from_secs(self.rng.gen_range(0..span_secs));
            let req = self.request_for_model(&model, queue);
            out.push((submit, req));
        }
        // The §V-B pathological WRF user: always the same user, small
        // node counts, metadata-storm behaviour.
        let storm = AppModel::wrf_metadata_storm();
        for _ in 0..self.cfg.bad_wrf_jobs {
            let submit = self.cfg.start + SimDuration::from_secs(self.rng.gen_range(0..span_secs));
            let n_nodes = *[2usize, 4, 4, 8].get(self.rng.gen_range(0..4)).unwrap();
            let app = storm.instantiate(
                &mut self.rng,
                n_nodes,
                self.cfg.topology.n_cores(),
                &self.cfg.topology,
            );
            let runtime = self.sample_runtime(QueueName::Normal);
            out.push((
                submit,
                JobRequest {
                    user: "user9999".to_string(),
                    uid: 9999,
                    account: "TG-99".to_string(),
                    job_name: "wrf_param_loop".to_string(),
                    queue: QueueName::Normal,
                    n_nodes,
                    wayness: self.cfg.topology.n_cores(),
                    runtime,
                    will_fail: false,
                    idle_nodes: 0,
                    app,
                },
            ));
        }
        out.sort_by_key(|(t, _)| *t);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn population(n: usize) -> Vec<(SimTime, JobRequest)> {
        WorkloadGenerator::new(WorkloadConfig::q4_2015(42, n)).generate()
    }

    #[test]
    fn generates_requested_count_sorted() {
        let pop = population(2000);
        assert!(pop.len() >= 2000);
        assert!(pop.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = population(500);
        let b = population(500);
        assert_eq!(a.len(), b.len());
        for ((ta, ra), (tb, rb)) in a.iter().zip(&b) {
            assert_eq!(ta, tb);
            assert_eq!(ra.user, rb.user);
            assert_eq!(ra.n_nodes, rb.n_nodes);
            assert_eq!(ra.app.seed, rb.app.seed);
        }
    }

    #[test]
    fn wrf_share_matches_quarter() {
        // Paper: 16,741 WRF jobs of 404,002 ≈ 4.1%.
        let pop = population(8000);
        let wrf = pop
            .iter()
            .filter(|(_, r)| r.app.exec_name() == "wrf.exe")
            .count();
        let frac = wrf as f64 / pop.len() as f64;
        assert!((0.02..0.07).contains(&frac), "wrf frac {frac}");
    }

    #[test]
    fn bad_user_scales_with_population() {
        let pop = population(8000);
        let bad = pop.iter().filter(|(_, r)| r.uid == 9999).count();
        // 105/404002 * 8000 ≈ 2.
        assert!((1..=5).contains(&bad), "bad jobs {bad}");
        assert!(pop.iter().filter(|(_, r)| r.uid == 9999).all(|(_, r)| r
            .app
            .model
            .lustre
            .opens_per_sec
            > 1000.0));
    }

    #[test]
    fn idle_node_fraction_in_band() {
        let pop = population(8000);
        let idle = pop.iter().filter(|(_, r)| r.idle_nodes > 0).count();
        let frac = idle as f64 / pop.len() as f64;
        // Paper: "over 2% of jobs". Generator targets 2.6% of requests,
        // thinned by single-node jobs.
        assert!((0.01..0.04).contains(&frac), "idle frac {frac}");
    }

    #[test]
    fn queue_mix() {
        let pop = population(8000);
        let lm = pop
            .iter()
            .filter(|(_, r)| r.queue == QueueName::LargeMem)
            .count() as f64
            / pop.len() as f64;
        let dev = pop
            .iter()
            .filter(|(_, r)| r.queue == QueueName::Development)
            .count() as f64
            / pop.len() as f64;
        assert!((0.005..0.03).contains(&lm), "largemem {lm}");
        assert!((0.08..0.16).contains(&dev), "dev {dev}");
    }

    #[test]
    fn users_are_plausibly_many_and_sticky() {
        let pop = population(4000);
        let users: HashSet<&str> = pop.iter().map(|(_, r)| r.user.as_str()).collect();
        assert!(users.len() > 20, "users {}", users.len());
        // The bad user's jobs all belong to one identity.
        let bad_users: HashSet<&str> = pop
            .iter()
            .filter(|(_, r)| r.uid == 9999)
            .map(|(_, r)| r.user.as_str())
            .collect();
        assert!(bad_users.len() <= 1);
    }

    #[test]
    fn runtimes_within_limits() {
        let pop = population(3000);
        for (_, r) in &pop {
            let mins = r.runtime.as_secs() / 60;
            assert!((2..=24 * 60).contains(&mins), "runtime {mins} min");
        }
    }

    #[test]
    fn vectorization_thresholds_have_mass_on_both_sides() {
        // Precondition for reproducing the §V-A 52%/25% numbers.
        let pop = population(6000);
        let lo =
            pop.iter().filter(|(_, r)| r.app.vector_frac > 0.01).count() as f64 / pop.len() as f64;
        let hi =
            pop.iter().filter(|(_, r)| r.app.vector_frac > 0.5).count() as f64 / pop.len() as f64;
        assert!((0.35..0.70).contains(&lo), "vec>1% frac {lo}");
        assert!((0.12..0.40).contains(&hi), "vec>50% frac {hi}");
        assert!(lo > hi);
    }

    #[test]
    fn mic_user_fraction_near_paper() {
        // Paper: 1.3% of jobs used the Phi for >1% of CPU time.
        let pop = population(8000);
        let mic = pop
            .iter()
            .filter(|(_, r)| r.app.model.mic_frac > 0.01)
            .count() as f64
            / pop.len() as f64;
        assert!((0.005..0.03).contains(&mic), "mic frac {mic}");
    }
}
