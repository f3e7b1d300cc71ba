//! The metric registry — the names, units and bounds `BENCHMARK.json`
//! records — and the one-line JSON result the command prints last.

use crate::common::Outcome;
use std::collections::BTreeMap;

/// One metric as `BENCHMARK.json` declares it.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// The end-to-end metrics, reported by every workload (untraced runs).
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("samples_per_s", "1/s", "higher", 0.25),
    e2e("tick_ms_p50", "ms", "lower", 0.25),
    e2e("queries_per_s", "1/s", "higher", 0.25),
    e2e("query_us_p50", "us", "lower", 0.25),
    e2e("peak_rss_mib", "MiB", "lower", 0.2),
    e2e("delivered_share", "ratio", "higher", 0.05),
];

/// The per-layer metrics, reported by the traced run. A layer that
/// does no work on a workload reports 0. The two `tail.*` entries are
/// end-to-end tails, here because nothing here carries a bound: on the
/// reference host their run-to-run spread exceeds the largest bound an
/// end-to-end metric may have.
pub const PER_LAYER: &[MetricDef] = &[
    layer("simnode.advance.ns_per_node_step", "ns", "lower"),
    layer("simnode.advance.share", "ratio", "lower"),
    layer("simnode.pseudofs_read.ns_per_sample", "ns", "lower"),
    layer("simnode.pseudofs_read.bytes_per_sample", "B", "lower"),
    layer("collect.daemon_tick.self_ns_per_sample", "ns", "lower"),
    layer("collect.daemon_tick.allocs_per_sample", "count", "lower"),
    layer("collect.sample.ns_per_sample", "ns", "lower"),
    layer("collect.codec_render.ns_per_sample", "ns", "lower"),
    layer("collect.codec_render.bytes_per_sample", "B", "lower"),
    layer("collect.codec_parse.ns_per_sample", "ns", "lower"),
    layer("collect.codec_parse.allocs_per_sample", "count", "lower"),
    layer("collect.archive_append.ns_per_sample", "ns", "lower"),
    layer("collect.consumer_poll.ns_per_msg", "ns", "lower"),
    layer("collect.consumer_poll.allocs_per_msg", "count", "lower"),
    layer("collect.spool.replayed", "count", "lower"),
    layer("collect.spool.evicted", "count", "lower"),
    layer("collect.daemon.lost", "count", "lower"),
    layer("collect.consumer.duplicates", "count", "lower"),
    layer("collect.consumer.gap_events", "count", "lower"),
    layer("collect.consumer.parse_failures", "count", "lower"),
    layer("collect.ledger_slack", "count", "lower"),
    layer("collect.archive.stored_bytes", "B", "lower"),
    layer("collect.archive.evicted_bytes", "B", "lower"),
    layer("broker.publish.ns_per_msg", "ns", "lower"),
    layer("broker.queue.peak_depth", "count", "lower"),
    layer("broker.queue.shed_oldest", "count", "lower"),
    layer("broker.queue.shed_newest", "count", "lower"),
    layer("broker.queue.high_watermark_ticks", "count", "lower"),
    layer("broker.queue_delay_sim_s_p50", "s", "lower"),
    layer("broker.queue_delay_sim_s_p99", "s", "lower"),
    layer("broker.identity_violations", "count", "lower"),
    layer("tsdb.insert.ns_per_point", "ns", "lower"),
    layer("tsdb.seal.blocks", "count", "higher"),
    layer("tsdb.storage_bytes_per_point", "B", "lower"),
    layer("tsdb.seal.tick_ms_max", "ms", "lower"),
    layer("tsdb.wal.bytes_per_point", "B", "lower"),
    layer("tsdb.wal.fsyncs", "count", "lower"),
    layer("tsdb.wal.insert_errors", "count", "lower"),
    layer("tsdb.recover.ms_p50", "ms", "lower"),
    layer("tsdb.recover.points_per_s", "1/s", "higher"),
    layer("tsdb.recover.points_lost", "count", "lower"),
    layer("tsdb.recover.balances", "count", "higher"),
    layer("tsdb.range.ns_per_point", "ns", "lower"),
    layer("tsdb.aggregate.us_per_query", "us", "lower"),
    layer("tsdb.cache.hit_rate", "ratio", "higher"),
    layer("tsdb.cache.evicted_pressure", "count", "lower"),
    layer("tsdb.cache.rejected", "count", "lower"),
    layer("mem.budget.peak_bytes", "B", "lower"),
    layer("metrics.accum_feed.ns_per_sample", "ns", "lower"),
    layer("metrics.accum_feed.allocs_per_sample", "count", "lower"),
    layer("metrics.ingest_job.us_per_job", "us", "lower"),
    layer("portal.search.us_p50_cold", "us", "lower"),
    layer("portal.search.us_p50_warm", "us", "lower"),
    layer("portal.fig4.us_p50_cold", "us", "lower"),
    layer("portal.fig4.us_p50_warm", "us", "lower"),
    layer("portal.detail.us_p50", "us", "lower"),
    layer(
        "portal.search.rows_scanned_per_row_returned",
        "ratio",
        "lower",
    ),
    layer("portal.cache.hit_rate", "ratio", "higher"),
    layer("portal.cache.pressure_evicted", "count", "lower"),
    layer("core.step.ns_per_node_step", "ns", "lower"),
    layer("core.jobs_ingested", "count", "higher"),
    layer("core.online.alerts", "count", "lower"),
    layer("tail.tick_ms_p95", "ms", "lower"),
    layer("tail.query_us_p99", "us", "lower"),
    layer("trace.unattributed_share", "ratio", "lower"),
    layer("trace.overhead_share", "ratio", "lower"),
];

/// The result of one run, as printed on the last line of stdout.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// `(name, value, unit)` in registry order.
    pub metrics: Vec<(String, f64, String)>,
}

impl RunResult {
    /// Pick `defs` out of `values` (a missing name reads 0: the layer did
    /// nothing on this workload). A non-finite value makes the run
    /// incorrect rather than unprintable.
    pub fn new(
        out: &Outcome,
        defs: &[MetricDef],
        values: &BTreeMap<&'static str, f64>,
    ) -> RunResult {
        let mut correct = out.failed == 0;
        let metrics = defs
            .iter()
            .map(|d| {
                let v = values.get(d.name).copied().unwrap_or(0.0);
                if !v.is_finite() {
                    correct = false;
                }
                (
                    d.name.to_string(),
                    if v.is_finite() { v } else { 0.0 },
                    d.unit.to_string(),
                )
            })
            .collect();
        RunResult {
            correct,
            attempted: out.attempted.max(1),
            failed: out.failed,
            metrics,
        }
    }

    /// The one-line JSON object of the benchmark contract.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Parse a line [`RunResult::to_json`] printed (the suite reads its
    /// children's results back). Not a general JSON parser.
    pub fn parse(line: &str) -> Option<RunResult> {
        let after =
            |hay: &str, key: &str| -> Option<usize> { hay.find(key).map(|i| i + key.len()) };
        let scalar = |key: &str| -> Option<&str> {
            let rest = &line[after(line, key)?..];
            Some(rest[..rest.find([',', '}'])?].trim())
        };
        let correct = scalar("\"correct\":")?.parse().ok()?;
        let attempted = scalar("\"attempted\":")?.parse().ok()?;
        let failed = scalar("\"failed\":")?.parse().ok()?;
        let mut rest = &line[after(line, "\"metrics\":")?..];
        let mut metrics = Vec::new();
        const VALUE_KEY: &str = "{\"value\":";
        while let Some(value_at) = after(rest, VALUE_KEY) {
            let head = &rest[..value_at - VALUE_KEY.len()];
            let name_end = head.rfind("\":")?;
            let name_start = head[..name_end].rfind('"')? + 1;
            let name = head[name_start..name_end].to_string();
            let tail = &rest[value_at..];
            let value = tail[..tail.find(',')?].trim().parse().ok()?;
            let unit_at = after(tail, "\"unit\": \"")?;
            let unit_len = tail[unit_at..].find('"')?;
            metrics.push((name, value, tail[unit_at..unit_at + unit_len].to_string()));
            rest = &tail[unit_at + unit_len..];
        }
        Some(RunResult {
            correct,
            attempted,
            failed,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let r = RunResult {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                ("setup_s".into(), 0.8127, "s".into()),
                ("samples_per_s".into(), 4123.456789, "1/s".into()),
                ("collect.ledger_slack".into(), -17.0, "count".into()),
            ],
        };
        let line = r.to_json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}"));
        assert_eq!(RunResult::parse(&line), Some(r));
        assert_eq!(RunResult::parse("not a result"), None);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} declared twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.better == "lower" || d.better == "higher");
            assert!(d.bound <= 0.25);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    /// `BENCHMARK.json` sits outside this package, at the repository
    /// root; when it is there, it must declare exactly this registry.
    #[test]
    fn benchmark_json_declares_this_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        for d in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name, d.unit, d.better, d.bound
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for d in PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name, d.unit, d.better
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = text.matches("{\"name\": ").count();
        // Four workloads are declared with the same leading key.
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len() + 4);
    }
}
