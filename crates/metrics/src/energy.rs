//! Energy-use analysis from RAPL counters (§I-C).
//!
//! "Analyses of energy use broken down by socket, process and dram
//! components are now available." The RAPL energy-status registers are
//! 32-bit counters of 2^-14 J units that wrap every ~40 minutes under
//! load, so the per-interval rollover correction of the accumulator is
//! what makes whole-job energy integration possible at 10-minute
//! sampling.

use crate::accum::JobAccum;

/// RAPL unit: 2^-14 joule.
const JOULES_PER_UNIT: f64 = 1.0 / 16384.0;

/// Whole-job energy broken down the way the paper describes.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnergyReport {
    /// Package energy (cores + LLC + uncore), joules, summed over
    /// sockets and nodes.
    pub pkg_joules: f64,
    /// Power-plane-0 energy (all cores), joules.
    pub pp0_joules: f64,
    /// DRAM energy, joules.
    pub dram_joules: f64,
    /// Observation span in seconds (max over hosts).
    pub span_secs: f64,
}

impl EnergyReport {
    /// Mean package power over the job (watts).
    fn mean_pkg_watts(&self) -> f64 {
        if self.span_secs > 0.0 {
            self.pkg_joules / self.span_secs
        } else {
            0.0
        }
    }

    /// Mean DRAM power (watts).
    fn mean_dram_watts(&self) -> f64 {
        if self.span_secs > 0.0 {
            self.dram_joules / self.span_secs
        } else {
            0.0
        }
    }

    /// Non-core (uncore + LLC) share of package energy — the paper's
    /// "all cores + LLC cache" vs "all cores" decomposition.
    fn uncore_joules(&self) -> f64 {
        (self.pkg_joules - self.pp0_joules).max(0.0)
    }

    /// Render as a detail-page block.
    pub fn render(&self) -> String {
        format!(
            "Energy use (RAPL):\n\
             \x20 package : {:>12.1} J ({:>7.1} W mean)\n\
             \x20 cores   : {:>12.1} J\n\
             \x20 uncore  : {:>12.1} J\n\
             \x20 dram    : {:>12.1} J ({:>7.1} W mean)\n",
            self.pkg_joules,
            self.mean_pkg_watts(),
            self.pp0_joules,
            self.uncore_joules(),
            self.dram_joules,
            self.mean_dram_watts(),
        )
    }
}

/// Compute the job's energy report from its accumulated RAPL deltas.
/// Returns `None` when the nodes have no RAPL support (pre-Sandy-Bridge).
pub fn energy_report(acc: &JobAccum) -> Option<EnergyReport> {
    let (pkg, pp0, dram, span) = acc.rapl_units()?;
    Some(EnergyReport {
        pkg_joules: pkg * JOULES_PER_UNIT,
        pp0_joules: pp0 * JOULES_PER_UNIT,
        dram_joules: dram * JOULES_PER_UNIT,
        span_secs: span,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacc_collect::discovery::{discover, BuildOptions};
    use tacc_collect::engine::Sampler;
    use tacc_simnode::pseudofs::NodeFs;
    use tacc_simnode::topology::{CpuArch, NodeTopology};
    use tacc_simnode::workload::NodeDemand;
    use tacc_simnode::{SimDuration, SimNode, SimTime};

    fn run_node(topo: NodeTopology, hours: u64) -> JobAccum {
        let mut node = SimNode::new("c1", topo);
        let cfg = {
            let fs = NodeFs::new(&node);
            discover(&fs, BuildOptions::default()).unwrap()
        };
        let mut sampler = Sampler::new("c1", &cfg);
        let mut acc = JobAccum::new();
        let demand = NodeDemand {
            active_cores: 16,
            cpu_user_frac: 0.9,
            mem_bw_bytes_per_sec: 2e10,
            ..NodeDemand::default()
        };
        for k in 0..=(hours * 6) {
            if k > 0 {
                node.advance(SimDuration::from_mins(10), &demand);
            }
            let fs = NodeFs::new(&node);
            let s = sampler.sample(&fs, SimTime::from_secs(600 * k), &[], &[]);
            acc.feed(sampler.header(), &s);
        }
        acc
    }

    #[test]
    fn energy_integrates_across_rollover() {
        // 4 hours at full load: each 32-bit RAPL register wraps several
        // times; the integrated energy must still equal power × time.
        let acc = run_node(NodeTopology::stampede(), 4);
        let e = energy_report(&acc).expect("SNB has RAPL");
        // Power model: ~40+75×0.91 ≈ 108 W/socket × 2 sockets.
        let expected_pkg = 2.0 * (40.0 + 75.0 * 0.91) * 4.0 * 3600.0;
        let rel = (e.pkg_joules - expected_pkg).abs() / expected_pkg;
        assert!(
            rel < 0.02,
            "pkg {} vs {} ({rel})",
            e.pkg_joules,
            expected_pkg
        );
        assert!(e.pp0_joules > 0.0 && e.pp0_joules < e.pkg_joules);
        assert!(e.dram_joules > 0.0);
        assert!(e.uncore_joules() > 0.0);
        assert!((e.mean_pkg_watts() - expected_pkg / (4.0 * 3600.0)).abs() < 3.0);
        // Sanity: the registers really did wrap (energy > 2^32 units).
        assert!(e.pkg_joules / JOULES_PER_UNIT > (1u64 << 32) as f64);
    }

    #[test]
    fn nehalem_has_no_rapl_report() {
        let topo = NodeTopology {
            arch: CpuArch::Nehalem,
            ..NodeTopology::stampede()
        };
        let acc = run_node(topo, 1);
        assert!(energy_report(&acc).is_none());
    }

    #[test]
    fn render_shows_breakdown() {
        let e = EnergyReport {
            pkg_joules: 1000.0,
            pp0_joules: 700.0,
            dram_joules: 120.0,
            span_secs: 100.0,
        };
        let s = e.render();
        assert!(s.contains("package"));
        assert!(s.contains("10.0 W"));
        assert!(e.uncore_joules() == 300.0);
    }
}
