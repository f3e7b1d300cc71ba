//! Automatic job flagging (§V-A).
//!
//! "Every search also returns a sublist of jobs that have been flagged
//! for metric values that exceed thresholds such as high metadata rates,
//! excessive use of the GigE network, running in the largemem queue but
//! using little memory, idle nodes, sudden performance increases or
//! drops, and a high average cycles per instruction."

use crate::table1::JobMetrics;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The pathologies the portal flags automatically.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Flag {
    /// Metadata request rate high enough to threaten the Lustre MDS
    /// ("always cause for concern to system administrators").
    HighMetadataRate,
    /// MPI over Ethernet instead of Infiniband.
    HighGigE,
    /// Job in the largemem queue using little memory.
    LargememWaste,
    /// Reserved nodes doing no work.
    IdleNodes,
    /// Sudden performance drop (application failure signature).
    SuddenDrop,
    /// Sudden performance increase (compile-then-run signature).
    SuddenRise,
    /// High average cycles per instruction.
    HighCpi,
    /// Less than 1% of FP instructions vectorized.
    LowVectorization,
}

impl Flag {
    /// Every flag, in declaration order — which is also the emission
    /// order of [`FlagRules::evaluate`] (the catastrophe rule emits
    /// exactly one of `SuddenDrop`/`SuddenRise`).
    pub const ALL: [Flag; 8] = [
        Flag::HighMetadataRate,
        Flag::HighGigE,
        Flag::LargememWaste,
        Flag::IdleNodes,
        Flag::SuddenDrop,
        Flag::SuddenRise,
        Flag::HighCpi,
        Flag::LowVectorization,
    ];

    /// The flag's canonical name, as stored in the jobs table's
    /// `"flags"` column.
    pub fn name(self) -> &'static str {
        match self {
            Flag::HighMetadataRate => "HighMetadataRate",
            Flag::HighGigE => "HighGigE",
            Flag::LargememWaste => "LargememWaste",
            Flag::IdleNodes => "IdleNodes",
            Flag::SuddenDrop => "SuddenDrop",
            Flag::SuddenRise => "SuddenRise",
            Flag::HighCpi => "HighCpi",
            Flag::LowVectorization => "LowVectorization",
        }
    }

    /// Human-readable description for reports.
    pub fn describe(self) -> &'static str {
        match self {
            Flag::HighMetadataRate => "high metadata request rate (Lustre MDS at risk)",
            Flag::HighGigE => "heavy GigE traffic (user MPI over Ethernet instead of IB)",
            Flag::LargememWaste => "largemem queue but low memory use (wastes 1TB nodes)",
            Flag::IdleNodes => "reserved nodes idle (misconfigured submission script)",
            Flag::SuddenDrop => "sudden performance drop (likely application failure)",
            Flag::SuddenRise => "sudden performance increase (likely compile step)",
            Flag::HighCpi => "high cycles per instruction (memory layout or I/O issue)",
            Flag::LowVectorization => "essentially unvectorized floating point",
        }
    }
}

// `FlagSet` packs flags by discriminant and iterates via `ALL`; keep
// both machine-checked: every variant appears once, in declaration
// order, with discriminant == index (so they all fit in a u8 mask).
const _: () = {
    let mut i = 0;
    while i < Flag::ALL.len() {
        assert!(Flag::ALL[i] as usize == i);
        i += 1;
    }
};

impl fmt::Display for Flag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Job context the rules need beyond the metrics.
#[derive(Clone, Debug)]
pub struct FlagContext {
    /// Queue the job ran in.
    pub queue_name: String,
    /// Memory per node on the job's node type, in GB.
    pub node_memory_gb: f64,
}

/// Thresholds for each rule. Defaults follow the paper's narrative.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct FlagRules {
    /// MetaDataRate above this flags [`Flag::HighMetadataRate`] (req/s).
    pub metadata_rate: f64,
    /// GigEBW above this flags [`Flag::HighGigE`] (MB/s).
    pub gige_bw_mbs: f64,
    /// Largemem jobs below this fraction of node memory flag
    /// [`Flag::LargememWaste`].
    pub largemem_min_frac: f64,
    /// `idle` below this flags [`Flag::IdleNodes`].
    pub idle_ratio: f64,
    /// `catastrophe` below this flags [`Flag::SuddenDrop`] /
    /// [`Flag::SuddenRise`].
    pub catastrophe_ratio: f64,
    /// `cpi` above this flags [`Flag::HighCpi`].
    pub high_cpi: f64,
    /// VecPercent below this (percent) flags [`Flag::LowVectorization`].
    pub low_vec_percent: f64,
}

impl Default for FlagRules {
    fn default() -> Self {
        FlagRules {
            metadata_rate: 10_000.0,
            gige_bw_mbs: 10.0,
            largemem_min_frac: 0.25,
            idle_ratio: 0.05,
            catastrophe_ratio: 0.05,
            high_cpi: 2.5,
            low_vec_percent: 1.0,
        }
    }
}

impl FlagRules {
    /// Evaluate all rules against a finished job's metrics.
    ///
    /// This is now a thin wrapper over the streaming evaluator
    /// ([`crate::stream::FlagStream`]): build a fresh stream with the
    /// job context, replay the metrics through the incremental update
    /// path, read the verdict. The predicates themselves live in
    /// `FlagStream::recompute`, so the batch and streamed paths cannot
    /// drift apart — equivalence is by construction (and proptested in
    /// `tests/stream_props.rs`).
    pub fn evaluate(&self, ctx: &FlagContext, m: &JobMetrics) -> Vec<Flag> {
        let mut s = crate::stream::FlagStream::with_context(*self, ctx);
        s.apply(m);
        s.flags().iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table1::MetricId;

    fn ctx(queue: &str) -> FlagContext {
        FlagContext {
            queue_name: queue.to_string(),
            node_memory_gb: 34.36,
        }
    }

    fn metrics(pairs: &[(MetricId, f64)]) -> JobMetrics {
        let mut m = JobMetrics::new();
        for (id, v) in pairs {
            m.set(*id, *v);
        }
        m
    }

    #[test]
    fn healthy_job_raises_nothing() {
        let m = metrics(&[
            (MetricId::MetaDataRate, 200.0),
            (MetricId::GigEBW, 0.01),
            (MetricId::Idle, 0.9),
            (MetricId::Catastrophe, 0.8),
            (MetricId::Cpi, 0.9),
            (MetricId::VecPercent, 60.0),
            (MetricId::MemUsage, 20.0),
        ]);
        assert!(FlagRules::default().evaluate(&ctx("normal"), &m).is_empty());
    }

    #[test]
    fn metadata_storm_flagged() {
        let m = metrics(&[(MetricId::MetaDataRate, 563_905.0)]);
        let flags = FlagRules::default().evaluate(&ctx("normal"), &m);
        assert_eq!(flags, vec![Flag::HighMetadataRate]);
    }

    #[test]
    fn gige_mpi_flagged() {
        let m = metrics(&[(MetricId::GigEBW, 45.0)]);
        assert!(FlagRules::default()
            .evaluate(&ctx("normal"), &m)
            .contains(&Flag::HighGigE));
    }

    #[test]
    fn largemem_waste_only_in_largemem_queue() {
        let m = metrics(&[(MetricId::MemUsage, 2.0)]);
        let rules = FlagRules {
            largemem_min_frac: 0.25,
            ..FlagRules::default()
        };
        let lm_ctx = FlagContext {
            queue_name: "largemem".to_string(),
            node_memory_gb: 1100.0,
        };
        assert!(rules.evaluate(&lm_ctx, &m).contains(&Flag::LargememWaste));
        assert!(!rules
            .evaluate(&ctx("normal"), &m)
            .contains(&Flag::LargememWaste));
        // Genuine largemem user unflagged.
        let big = metrics(&[(MetricId::MemUsage, 700.0)]);
        assert!(!rules.evaluate(&lm_ctx, &big).contains(&Flag::LargememWaste));
    }

    #[test]
    fn idle_and_catastrophe_and_cpi_and_vec() {
        let m = metrics(&[
            (MetricId::Idle, 0.01),
            (MetricId::Catastrophe, 0.002),
            (MetricId::Cpi, 4.0),
            (MetricId::VecPercent, 0.3),
        ]);
        let flags = FlagRules::default().evaluate(&ctx("normal"), &m);
        assert!(flags.contains(&Flag::IdleNodes));
        assert!(flags.contains(&Flag::SuddenDrop));
        assert!(flags.contains(&Flag::HighCpi));
        assert!(flags.contains(&Flag::LowVectorization));
    }

    #[test]
    fn rise_trend_selects_sudden_rise() {
        let mut m = metrics(&[(MetricId::Catastrophe, 0.01)]);
        m.trend = Some(crate::table1::TrendDirection::Rise);
        let flags = FlagRules::default().evaluate(&ctx("normal"), &m);
        assert!(flags.contains(&Flag::SuddenRise));
        assert!(!flags.contains(&Flag::SuddenDrop));
    }

    #[test]
    fn absent_metrics_never_flag() {
        let m = JobMetrics::new();
        assert!(FlagRules::default()
            .evaluate(&ctx("largemem"), &m)
            .is_empty());
    }
}
