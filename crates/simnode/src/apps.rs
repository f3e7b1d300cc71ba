//! Application workload models.
//!
//! §V of the paper characterizes Stampede's Q4-2015 workload: 404,002
//! jobs spanning weather codes (WRF), molecular dynamics, scripted serial
//! work, I/O-bound applications, a long tail of home-built MPI codes —
//! plus the pathological cases the portal flags (metadata storms, GigE
//! MPI, largemem waste, idle nodes, mid-job failures, compile-then-run
//! jobs). This module provides parametric models for all of them.
//!
//! A model ([`AppModel`]) is instantiated per job ([`AppInstance`]) with
//! per-job random multipliers, and an instance is a *pure function* from
//! `(node index, normalized job time)` to a [`NodeDemand`]. Purity
//! matters: the demand a node experiences must not depend on when or how
//! often the collector samples, so noise comes from a counter-based hash,
//! not from a stateful RNG.

use crate::topology::NodeTopology;
use crate::workload::{LustreDemand, NodeDemand};
use rand::Rng;

/// Deterministic noise in `[-1, 1]` from a seed and coordinates
/// (splitmix64 finalizer).
fn hash_noise(seed: u64, a: u64, b: u64) -> f64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(a.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(b.wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z as f64 / u64::MAX as f64) * 2.0 - 1.0
}

/// Multiplicative jitter `exp(sigma * noise)` — cheap log-normal-ish.
fn jitter(seed: u64, a: u64, b: u64, sigma: f64) -> f64 {
    (sigma * hash_noise(seed, a, b)).exp()
}

/// Temporal structure of an application run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PhasePlan {
    /// Uniform behaviour over the whole run.
    Steady,
    /// A low-activity compilation phase followed by the real run — the
    /// paper: "Sudden performance increases suggest a job that consists
    /// of a compilation step before it runs".
    CompileThenRun {
        /// Fraction of the runtime spent compiling.
        compile_frac: f64,
    },
    /// The application dies partway and the nodes sit idle afterwards —
    /// "sudden drops indicate application failure".
    FailAt {
        /// Fraction of the runtime at which the application fails.
        fail_frac: f64,
    },
    /// Periodic output phases with elevated metadata/write activity
    /// (typical checkpoint/output cadence of codes like WRF).
    OutputBursts {
        /// Number of output phases over the run.
        bursts: u32,
        /// Fraction of each period spent in the output phase.
        burst_frac: f64,
        /// Metadata/IO multiplier during the output phase.
        burst_mult: f64,
    },
}

/// Static description of an application's resource appetite.
///
/// Rates are *per active core* where that makes sense (FLOPs, memory
/// bandwidth) so models scale across node types, and per node otherwise.
#[derive(Clone, Debug)]
pub struct AppModel {
    /// Executable name as it would appear in procfs (e.g. `wrf.exe`).
    pub exec_name: String,
    /// Mean fraction of active-core time in user space.
    pub cpu_user: f64,
    /// Mean fraction in system space.
    pub cpu_sys: f64,
    /// Mean fraction in iowait.
    pub cpu_iowait: f64,
    /// Mean cycles per instruction.
    pub cpi: f64,
    /// FLOPs per second per active core.
    pub flops_per_core: f64,
    /// Mean fraction of FP instructions that are vectorized.
    pub vector_frac: f64,
    /// Per-job spread (sigma of the log-normal multiplier) of
    /// `vector_frac`.
    pub vector_spread: f64,
    /// Probability that a given job runs an essentially unvectorized
    /// build of the application (§V-A: "many applications were not
    /// compiled with the most advanced vector instruction set
    /// available"). Such jobs land below the paper's 1% threshold.
    pub unvectorized_prob: f64,
    /// Loads per instruction.
    pub loads_per_inst: f64,
    /// L1/L2/LLC hit fractions of all loads.
    pub cache_hits: (f64, f64, f64),
    /// Memory bandwidth per active core (bytes/s).
    pub mem_bw_per_core: f64,
    /// Fraction of node memory used at steady state.
    pub mem_frac: f64,
    /// Infiniband bytes/s per node (MPI traffic).
    pub ib_bw: f64,
    /// Mean IB packet size (bytes).
    pub ib_pkt_size: f64,
    /// GigE bytes/s per node (nonzero only for misconfigured MPI).
    pub gige_bw: f64,
    /// Baseline Lustre demand per node on the primary filesystem.
    pub lustre: LustreDemand,
    /// Xeon Phi utilization fraction (0 for non-MIC apps).
    pub mic_frac: f64,
    /// Temporal phase structure.
    pub phases: PhasePlan,
    /// Relative per-node imbalance of CPU activity (0 = perfectly
    /// balanced). Drives the paper's `idle` metric.
    pub node_imbalance: f64,
    /// Relative over-time variability of CPU activity. Drives the
    /// `catastrophe` metric.
    pub time_variability: f64,
    /// Per-job spread of the metadata-rate multiplier.
    pub md_spread: f64,
    /// Per-job spread of the overall I/O-intensity multiplier (applies
    /// to every Lustre rate). Real populations vary enormously in how
    /// much I/O "the same" application does — this spread is what keeps
    /// the §V-B CPU↔I/O correlations weak (|r| ≈ 0.1–0.2) rather than
    /// deterministic.
    pub io_spread: f64,
}

impl AppModel {
    /// A quiet, well-balanced compute app used as a base for variants.
    fn compute_base(exec: &str) -> AppModel {
        AppModel {
            exec_name: exec.to_string(),
            cpu_user: 0.9,
            cpu_sys: 0.01,
            cpu_iowait: 0.005,
            cpi: 0.9,
            flops_per_core: 4.0e9,
            vector_frac: 0.7,
            vector_spread: 0.3,
            unvectorized_prob: 0.0,
            loads_per_inst: 0.3,
            cache_hits: (0.92, 0.05, 0.02),
            mem_bw_per_core: 1.5e9,
            mem_frac: 0.25,
            ib_bw: 1.5e8,
            ib_pkt_size: 4096.0,
            gige_bw: 0.0,
            lustre: LustreDemand {
                mdc_reqs_per_sec: 1.0,
                mdc_wait_us: 300.0,
                osc_reqs_per_sec: 2.0,
                osc_wait_us: 1500.0,
                opens_per_sec: 0.05,
                getattr_per_sec: 0.5,
                read_bytes_per_sec: 1e5,
                write_bytes_per_sec: 5e5,
            },
            mic_frac: 0.0,
            phases: PhasePlan::Steady,
            node_imbalance: 0.05,
            time_variability: 0.05,
            md_spread: 0.5,
            io_spread: 1.0,
        }
    }

    /// WRF, the weather code of the paper's case study (§V-A/V-B):
    /// moderately vectorized, ~80% CPU usage, periodic output phases whose
    /// metadata bursts produce the population's MetaDataRate ≈ 3,870 op/s
    /// peaks. LLiteOpenClose for the healthy population is ~2/s.
    pub fn wrf() -> AppModel {
        AppModel {
            cpu_user: 0.80,
            cpi: 1.1,
            flops_per_core: 2.5e9,
            vector_frac: 0.5,
            vector_spread: 0.25,
            unvectorized_prob: 0.3,
            mem_bw_per_core: 2.0e9,
            mem_frac: 0.3,
            ib_bw: 2.5e8,
            lustre: LustreDemand {
                mdc_reqs_per_sec: 8.0,
                mdc_wait_us: 400.0,
                osc_reqs_per_sec: 5.0,
                osc_wait_us: 2000.0,
                opens_per_sec: 0.1,
                getattr_per_sec: 3.0,
                read_bytes_per_sec: 5e5,
                write_bytes_per_sec: 4e6,
            },
            phases: PhasePlan::OutputBursts {
                bursts: 6,
                burst_frac: 0.2,
                burst_mult: 80.0,
            },
            node_imbalance: 0.12,
            time_variability: 0.10,
            ..Self::compute_base("wrf.exe")
        }
    }

    /// The §V-B pathological WRF variant: the user's code opens and
    /// closes a file *every loop iteration* to read one parameter. Per
    /// node: ~15 k opens+closes/s, driving ~140 k MDC requests/s, and
    /// CPU user fraction degraded to ~67%.
    pub fn wrf_metadata_storm() -> AppModel {
        AppModel {
            cpu_user: 0.67,
            cpu_iowait: 0.18,
            lustre: LustreDemand {
                mdc_reqs_per_sec: 141_000.0,
                mdc_wait_us: 180.0,
                osc_reqs_per_sec: 5.0,
                osc_wait_us: 2500.0,
                opens_per_sec: 15_440.0,
                getattr_per_sec: 31_000.0,
                read_bytes_per_sec: 2e5,
                write_bytes_per_sec: 1e6,
            },
            phases: PhasePlan::Steady,
            node_imbalance: 0.35,
            md_spread: 0.15,
            io_spread: 0.1,
            ..Self::wrf()
        }
    }

    /// Highly vectorized molecular dynamics (NAMD-like).
    pub fn namd() -> AppModel {
        AppModel {
            vector_frac: 0.85,
            vector_spread: 0.15,
            cpi: 0.7,
            flops_per_core: 6.0e9,
            ..Self::compute_base("namd2")
        }
    }

    /// GROMACS-like: the best-vectorized code in the mix.
    pub fn gromacs() -> AppModel {
        AppModel {
            vector_frac: 0.92,
            vector_spread: 0.08,
            cpi: 0.6,
            flops_per_core: 8.0e9,
            ..Self::compute_base("mdrun")
        }
    }

    /// LAMMPS-like.
    pub fn lammps() -> AppModel {
        AppModel {
            vector_frac: 0.6,
            cpi: 0.9,
            unvectorized_prob: 0.25,
            ..Self::compute_base("lmp_stampede")
        }
    }

    /// Memory-bandwidth-bound electronic structure code (QE-like).
    pub fn quantum_espresso() -> AppModel {
        AppModel {
            vector_frac: 0.8,
            cpi: 1.6,
            unvectorized_prob: 0.1,
            mem_bw_per_core: 4.5e9,
            cache_hits: (0.80, 0.08, 0.05),
            mem_frac: 0.5,
            ..Self::compute_base("pw.x")
        }
    }

    /// Unvectorized scripted/serial task-farm work (python).
    pub fn python() -> AppModel {
        AppModel {
            cpu_user: 0.93,
            cpi: 1.4,
            flops_per_core: 2e8,
            vector_frac: 0.004,
            vector_spread: 0.6,
            mem_bw_per_core: 4e8,
            ib_bw: 1e5,
            mem_frac: 0.12,
            io_spread: 1.6,
            lustre: LustreDemand {
                mdc_reqs_per_sec: 6.0,
                mdc_wait_us: 350.0,
                osc_reqs_per_sec: 3.0,
                osc_wait_us: 1500.0,
                opens_per_sec: 1.5,
                getattr_per_sec: 6.0,
                read_bytes_per_sec: 3e5,
                write_bytes_per_sec: 3e5,
            },
            ..Self::compute_base("python")
        }
    }

    /// Home-built MPI codes — the long tail. Broad spreads everywhere.
    fn custom_mpi() -> AppModel {
        AppModel {
            cpu_user: 0.85,
            vector_frac: 0.2,
            vector_spread: 1.2,
            unvectorized_prob: 0.55,
            io_spread: 1.4,
            cpi: 1.2,
            flops_per_core: 1.5e9,
            node_imbalance: 0.15,
            time_variability: 0.15,
            ..Self::compute_base("a.out")
        }
    }

    /// I/O-bound application writing heavily through the object servers;
    /// low CPU usage (the negative CPU↔I/O correlation of §V-B).
    pub fn io_heavy() -> AppModel {
        AppModel {
            cpu_user: 0.68,
            cpu_iowait: 0.18,
            flops_per_core: 4e8,
            vector_frac: 0.15,
            unvectorized_prob: 0.5,
            io_spread: 2.1,
            lustre: LustreDemand {
                mdc_reqs_per_sec: 250.0,
                mdc_wait_us: 600.0,
                osc_reqs_per_sec: 350.0,
                osc_wait_us: 3500.0,
                opens_per_sec: 4.0,
                getattr_per_sec: 15.0,
                read_bytes_per_sec: 8e7,
                write_bytes_per_sec: 1.2e8,
            },
            node_imbalance: 0.25,
            ..Self::compute_base("h5_writer")
        }
    }

    /// User running their own MPI build over Ethernet instead of IB —
    /// one of the portal's flag rules ("High GigE traffic indicates users
    /// running their own MPI builds over the Ethernet").
    fn gige_mpi() -> AppModel {
        AppModel {
            cpu_user: 0.40,
            cpu_iowait: 0.02,
            ib_bw: 0.0,
            gige_bw: 9e7, // ~0.72 Gb/s, saturating GigE
            vector_frac: 0.2,
            unvectorized_prob: 0.5,
            flops_per_core: 8e8,
            ..Self::compute_base("mpirun_custom")
        }
    }

    /// Post-processing/analysis scripts that walk large directory trees
    /// (archive scans, `ls -R`-style workflows): metadata-bound with
    /// mediocre CPU utilization. A real and common population segment —
    /// and a contributor to the §V-B negative CPU↔MDCReqs correlation.
    fn postprocess() -> AppModel {
        AppModel {
            cpu_user: 0.58,
            cpu_iowait: 0.25,
            flops_per_core: 2e8,
            vector_frac: 0.02,
            vector_spread: 0.8,
            unvectorized_prob: 0.6,
            io_spread: 1.8,
            mem_frac: 0.08,
            ib_bw: 0.0,
            lustre: LustreDemand {
                mdc_reqs_per_sec: 600.0,
                mdc_wait_us: 450.0,
                osc_reqs_per_sec: 25.0,
                osc_wait_us: 2000.0,
                opens_per_sec: 60.0,
                getattr_per_sec: 300.0,
                read_bytes_per_sec: 4e6,
                write_bytes_per_sec: 5e5,
            },
            node_imbalance: 0.2,
            ..Self::compute_base("postproc.py")
        }
    }

    /// Offload application actually using the Xeon Phi (only ~1.3% of
    /// jobs did, per §V-A).
    fn mic_offload() -> AppModel {
        AppModel {
            mic_frac: 0.35,
            vector_frac: 0.75,
            ..Self::compute_base("mic_offload.x")
        }
    }

    /// Compile-then-run job: low activity for the first quarter, then
    /// full compute ("sudden performance increases").
    pub fn compile_then_run() -> AppModel {
        AppModel {
            phases: PhasePlan::CompileThenRun { compile_frac: 0.25 },
            unvectorized_prob: 0.4,
            ..Self::compute_base("simulation.x")
        }
    }

    /// Application that fails mid-run and leaves its nodes idle
    /// ("sudden drops indicate application failure").
    pub fn failing() -> AppModel {
        AppModel {
            phases: PhasePlan::FailAt { fail_frac: 0.45 },
            unvectorized_prob: 0.4,
            ..Self::compute_base("unstable.x")
        }
    }

    /// Large-memory application that genuinely needs a 1 TB node.
    pub fn largemem_genuine() -> AppModel {
        AppModel {
            mem_frac: 0.7,
            mem_bw_per_core: 3e9,
            vector_frac: 0.4,
            unvectorized_prob: 0.3,
            ..Self::compute_base("denovo_assembly")
        }
    }

    /// Job run in the largemem queue that barely uses memory — the
    /// "largemem waste" flag case.
    pub fn largemem_waste() -> AppModel {
        AppModel {
            mem_frac: 0.01,
            ..Self::python()
        }
    }

    /// Instantiate the model for a concrete job.
    ///
    /// `rng` draws the per-job multipliers; `nodes`/`active_cores` come
    /// from the scheduler's placement.
    pub fn instantiate<R: Rng>(
        &self,
        rng: &mut R,
        n_nodes: usize,
        active_cores: usize,
        topo: &NodeTopology,
    ) -> AppInstance {
        let seed = rng.gen::<u64>();
        // Per-job multipliers. Vector fraction uses a logit-ish jitter so
        // the population spans the paper's 1%/50% thresholds.
        let vec_mult = jitter(seed, 1, 0, self.vector_spread);
        let unvectorized = rng.gen::<f64>() < self.unvectorized_prob;
        let md_mult = jitter(seed, 2, 0, self.md_spread);
        let io_mult = jitter(seed, 6, 0, self.io_spread);
        // Weak physical coupling: jobs doing more I/O than their app's
        // norm lose a little user-space time to it (the paper's
        // principal predictor of poor CPU utilization, §V-B).
        let io_penalty = 1.0 - 0.065 * io_mult.ln().clamp(0.0, 2.2);
        let cpu_mult = jitter(seed, 3, 0, 0.06) * io_penalty;
        let flops_mult = jitter(seed, 4, 0, 0.4);
        let mem_mult = jitter(seed, 5, 0, 0.3);
        AppInstance {
            model: self.clone(),
            seed,
            n_nodes,
            active_cores,
            node_cores: topo.n_cores(),
            node_memory_bytes: topo.memory_bytes,
            vector_frac: if unvectorized {
                (self.vector_frac * 0.004).min(0.008)
            } else {
                (self.vector_frac * vec_mult).clamp(0.0, 0.98)
            },
            md_mult,
            io_mult,
            cpu_mult,
            flops_mult,
            mem_mult,
        }
    }
}

/// A concrete per-job realization of an [`AppModel`].
#[derive(Clone, Debug)]
pub struct AppInstance {
    /// The model this instance was drawn from.
    pub model: AppModel,
    /// Per-job noise seed.
    pub seed: u64,
    /// Number of nodes the job runs on.
    pub n_nodes: usize,
    /// Cores the job keeps busy per node (wayness).
    pub active_cores: usize,
    /// Cores physically present per node.
    pub node_cores: usize,
    /// Memory per node in bytes.
    pub node_memory_bytes: u64,
    /// Realized per-job vector fraction.
    pub vector_frac: f64,
    /// Realized metadata-rate multiplier.
    pub md_mult: f64,
    /// Realized I/O-intensity multiplier.
    pub io_mult: f64,
    /// Realized CPU-usage multiplier.
    pub cpu_mult: f64,
    /// Realized FLOP-rate multiplier.
    pub flops_mult: f64,
    /// Realized memory-footprint multiplier.
    pub mem_mult: f64,
}

impl AppInstance {
    /// Executable name.
    pub fn exec_name(&self) -> &str {
        &self.model.exec_name
    }

    /// Activity level in `[0, 1]` at normalized time `t_frac` according
    /// to the phase plan (1 = full activity).
    fn phase_level(&self, t_frac: f64) -> (f64, f64) {
        // Returns (compute_level, io_mult).
        match self.model.phases {
            PhasePlan::Steady => (1.0, 1.0),
            PhasePlan::CompileThenRun { compile_frac } => {
                if t_frac < compile_frac {
                    // Compilation keeps ~1 core of a 16-core node busy.
                    (0.045, 0.3)
                } else {
                    (1.0, 1.0)
                }
            }
            PhasePlan::FailAt { fail_frac } => {
                if t_frac < fail_frac {
                    (1.0, 1.0)
                } else {
                    (0.0, 0.0)
                }
            }
            PhasePlan::OutputBursts {
                bursts,
                burst_frac,
                burst_mult,
            } => {
                let phase = (t_frac * bursts as f64).fract();
                if phase < burst_frac {
                    // Output phases still compute, just slower.
                    (0.78, burst_mult)
                } else {
                    (1.0, 1.0)
                }
            }
        }
    }

    /// The demand node `node_idx` (0-based within the job) experiences at
    /// normalized job time `t_frac ∈ [0, 1]`.
    ///
    /// Pure: the same `(node_idx, t_frac)` always yields the same demand,
    /// so collection timing cannot perturb the workload.
    pub fn demand(&self, node_idx: usize, t_frac: f64) -> NodeDemand {
        let m = &self.model;
        let (level, io_mult) = self.phase_level(t_frac);
        // Per-node static imbalance plus slow temporal wander. Noise is
        // bucketed in time so sub-sampling sees consistent values.
        let t_bucket = (t_frac * 64.0) as u64;
        let node_factor = 1.0 + m.node_imbalance * hash_noise(self.seed, 10 + node_idx as u64, 0);
        let time_factor =
            1.0 + m.time_variability * hash_noise(self.seed, 20 + node_idx as u64, t_bucket);
        let act = (level * node_factor * time_factor).max(0.0);

        let cpu_user = (m.cpu_user * self.cpu_mult * act).min(0.98);
        let cores = self.active_cores.min(self.node_cores) as f64;
        let flops = m.flops_per_core * self.flops_mult * cores * act;
        let lustre_level = io_mult * self.md_mult * self.io_mult * act.max(0.05);
        let l = &m.lustre;
        let lustre = LustreDemand {
            mdc_reqs_per_sec: l.mdc_reqs_per_sec * lustre_level,
            mdc_wait_us: l.mdc_wait_us,
            osc_reqs_per_sec: l.osc_reqs_per_sec * lustre_level,
            osc_wait_us: l.osc_wait_us,
            opens_per_sec: l.opens_per_sec * lustre_level,
            getattr_per_sec: l.getattr_per_sec * lustre_level,
            read_bytes_per_sec: l.read_bytes_per_sec * io_mult * self.io_mult * act,
            write_bytes_per_sec: l.write_bytes_per_sec * io_mult * self.io_mult * act,
        };
        let mem_used = ((self.node_memory_bytes as f64 * (m.mem_frac * self.mem_mult).min(0.93))
            * if level > 0.0 { 1.0 } else { 0.3 }) as u64;
        NodeDemand {
            active_cores: if level > 0.0 { self.active_cores } else { 0 },
            cpu_user_frac: cpu_user,
            cpu_sys_frac: m.cpu_sys,
            cpu_iowait_frac: m.cpu_iowait * io_mult.min(3.0),
            cpi: m.cpi,
            flops_per_sec: flops,
            vector_frac: self.vector_frac,
            loads_per_inst: m.loads_per_inst,
            l1_hit_frac: m.cache_hits.0,
            l2_hit_frac: m.cache_hits.1,
            llc_hit_frac: m.cache_hits.2,
            mem_bw_bytes_per_sec: m.mem_bw_per_core * cores * act,
            mem_used_bytes: mem_used,
            ib_bytes_per_sec: m.ib_bw * act * (self.n_nodes.min(2) as f64 - 1.0).max(0.0),
            ib_pkt_size: m.ib_pkt_size,
            gige_bytes_per_sec: m.gige_bw * act + 1e3,
            lustre: vec![lustre],
            mic_user_frac: m.mic_frac * act,
            n_processes: self.active_cores.max(1),
            threads_per_process: 1,
        }
        .sanitize()
    }
}

/// A weighted library of application models approximating Stampede's
/// production mix. Weights are tuned so the §V-A population statistics
/// (vectorization, MIC usage, memory, idle nodes) land in the paper's
/// bands.
#[derive(Clone, Debug)]
pub struct AppLibrary {
    entries: Vec<(AppModel, f64)>,
}

impl AppLibrary {
    /// The standard production mix.
    pub fn standard() -> AppLibrary {
        let entries = vec![
            (AppModel::wrf(), 4.0),
            (AppModel::namd(), 6.0),
            (AppModel::gromacs(), 6.0),
            (AppModel::lammps(), 8.0),
            (AppModel::quantum_espresso(), 6.0),
            (AppModel::python(), 24.0),
            (AppModel::custom_mpi(), 29.0),
            (AppModel::io_heavy(), 7.0),
            (AppModel::postprocess(), 3.5),
            (AppModel::gige_mpi(), 1.0),
            (AppModel::mic_offload(), 1.3),
            (AppModel::compile_then_run(), 2.5),
            (AppModel::failing(), 2.2),
            (AppModel::largemem_genuine(), 0.5),
        ];
        AppLibrary { entries }
    }

    /// Models and weights.
    pub fn entries(&self) -> &[(AppModel, f64)] {
        &self.entries
    }

    /// Draw a model according to the weights.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> &AppModel {
        let total: f64 = self.entries.iter().map(|(_, w)| w).sum();
        let mut x = rng.gen::<f64>() * total;
        for (m, w) in &self.entries {
            x -= w;
            if x <= 0.0 {
                return m;
            }
        }
        &self.entries.last().expect("non-empty library").0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn inst(model: AppModel) -> AppInstance {
        let mut rng = StdRng::seed_from_u64(7);
        model.instantiate(&mut rng, 4, 16, &NodeTopology::stampede())
    }

    #[test]
    fn demand_is_pure() {
        let i = inst(AppModel::wrf());
        let a = i.demand(2, 0.37);
        let b = i.demand(2, 0.37);
        assert_eq!(a, b);
    }

    #[test]
    fn nodes_differ_but_deterministically() {
        let i = inst(AppModel::wrf());
        let a = i.demand(0, 0.5);
        let b = i.demand(1, 0.5);
        assert_ne!(a.cpu_user_frac, b.cpu_user_frac);
    }

    #[test]
    fn metadata_storm_is_orders_of_magnitude_hotter() {
        let healthy = inst(AppModel::wrf());
        let storm = inst(AppModel::wrf_metadata_storm());
        // t = 0.45 is outside WRF's output bursts (0.45*6 = 2.7, fract 0.7).
        let h = healthy.demand(0, 0.45).lustre[0].clone();
        let s = storm.demand(0, 0.45).lustre[0].clone();
        assert!(
            s.opens_per_sec / h.opens_per_sec.max(1e-9) > 1000.0,
            "storm {} vs healthy {}",
            s.opens_per_sec,
            h.opens_per_sec
        );
        assert!(s.mdc_reqs_per_sec > 1e5);
        // CPU degraded.
        assert!(storm.demand(0, 0.45).cpu_user_frac < healthy.demand(0, 0.45).cpu_user_frac);
    }

    #[test]
    fn failing_app_goes_idle() {
        let i = inst(AppModel::failing());
        let before = i.demand(0, 0.3);
        let after = i.demand(0, 0.8);
        assert!(before.cpu_user_frac > 0.5);
        assert_eq!(after.active_cores, 0);
        assert_eq!(after.flops_per_sec, 0.0);
    }

    #[test]
    fn compile_phase_is_quiet() {
        let i = inst(AppModel::compile_then_run());
        let compiling = i.demand(0, 0.1);
        let running = i.demand(0, 0.6);
        assert!(compiling.flops_per_sec < running.flops_per_sec * 0.3);
    }

    #[test]
    fn wrf_output_bursts_raise_metadata() {
        let i = inst(AppModel::wrf());
        // With 6 bursts of width 0.08, t in [0, 0.013) is inside burst 0.
        let burst = i.demand(0, 0.005);
        let steady = i.demand(0, 0.08);
        assert!(
            burst.lustre[0].mdc_reqs_per_sec > steady.lustre[0].mdc_reqs_per_sec * 10.0,
            "burst {} steady {}",
            burst.lustre[0].mdc_reqs_per_sec,
            steady.lustre[0].mdc_reqs_per_sec
        );
    }

    #[test]
    fn library_sampling_respects_weights_roughly() {
        let lib = AppLibrary::standard();
        let mut rng = StdRng::seed_from_u64(42);
        let mut wrf = 0usize;
        let n = 20_000;
        for _ in 0..n {
            if lib.sample(&mut rng).exec_name == "wrf.exe" {
                wrf += 1;
            }
        }
        let frac = wrf as f64 / n as f64;
        let total: f64 = lib.entries().iter().map(|(_, w)| w).sum();
        let want = 4.0 / total;
        assert!((frac - want).abs() < 0.01, "frac {frac} want {want}");
    }

    #[test]
    fn vector_fraction_population_spans_thresholds() {
        // Sanity: the standard mix must produce jobs on both sides of
        // the paper's 1% and 50% VecPercent thresholds.
        let lib = AppLibrary::standard();
        let mut rng = StdRng::seed_from_u64(1);
        let topo = NodeTopology::stampede();
        let mut lo = 0usize;
        let mut hi = 0usize;
        let n = 4000;
        for _ in 0..n {
            let m = lib.sample(&mut rng).clone();
            let i = m.instantiate(&mut rng, 2, 16, &topo);
            if i.vector_frac < 0.01 {
                lo += 1;
            }
            if i.vector_frac > 0.5 {
                hi += 1;
            }
        }
        assert!(lo > n / 10, "too few unvectorized: {lo}");
        assert!(hi > n / 10, "too few well-vectorized: {hi}");
    }

    #[test]
    fn gige_app_uses_ethernet_not_ib() {
        let i = inst(AppModel::gige_mpi());
        let d = i.demand(0, 0.5);
        assert!(d.gige_bytes_per_sec > 1e7);
        assert_eq!(d.ib_bytes_per_sec, 0.0);
    }
}
