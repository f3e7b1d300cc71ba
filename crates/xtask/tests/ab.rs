//! `cargo xtask ab`'s statistics on fixture result lines: a 1.2× shift
//! over ten pairs is "moved", pure noise is not, the gain rule is
//! stricter than "moved", and a quantity that is a function of the seed
//! is never noise. Its traced rows compare each per-layer metric base →
//! head, in the summary and in the JSON report.

use proptest::prelude::TestRng;
use xtask::ab::{
    compare, report_json, sign_test_p, Benchmark, Cell, Comparison, MetricDef, Options, RunResult,
    Traced, Verdict,
};

/// A result line as the benchmark prints it last.
fn line(tick_ms: f64, samples_per_s: f64, delivered: f64, correct: bool) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": 5790, \"failed\": 0, \"metrics\": \
         {{\"tick_ms_p50\": {{\"value\": {tick_ms}, \"unit\": \"ms\"}}, \"samples_per_s\": \
         {{\"value\": {samples_per_s}, \"unit\": \"1/s\"}}, \"delivered_share\": {{\"value\": \
         {delivered}, \"unit\": \"ratio\"}}}}}}"
    )
}

fn bench() -> Benchmark {
    let text = std::fs::read_to_string(xtask::workspace_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json");
    Benchmark::parse(&text).expect("parses")
}

fn defs() -> Vec<MetricDef> {
    bench().metrics
}

/// Ten pairs of `system_live`-like runs: every run's values carry up to
/// ±`noise` of multiplicative noise, and the change's tick time is the
/// base's divided by `shift`.
fn cell(rng: &mut TestRng, shift: f64, noise: f64) -> Cell {
    let mut jitter = || 1.0 + noise * (2.0 * rng.unit_f64() - 1.0);
    let runs = (0..10)
        .map(|_| {
            let base = line(0.100 * jitter(), 1500.0 * jitter(), 1.0, true);
            let head = line(0.100 / shift * jitter(), 1500.0 * jitter(), 1.0, true);
            // Each side's output ends with its result line.
            let parse =
                |l: String| RunResult::from_output(&format!("warm-up\n{l}\n")).expect("parses");
            (parse(base), parse(head))
        })
        .collect();
    Cell {
        workload: "system_live".into(),
        seed: 42,
        runs,
    }
}

fn comparison(cell: &Cell, metric: &str) -> Comparison {
    let (rows, behaviour) = cell.compare(&defs());
    assert!(behaviour.is_empty(), "{behaviour:?}");
    rows.into_iter()
        .find(|(m, _)| m == metric)
        .map(|(_, c)| c)
        .unwrap_or_else(|| panic!("{metric} compared"))
}

fn verdict(cell: &Cell, metric: &str) -> Verdict {
    comparison(cell, metric).verdict
}

#[test]
fn a_1_2x_shift_over_ten_pairs_is_moved_and_pure_noise_is_not() {
    let mut rng = TestRng::seed_from_u64(22);
    let shifted = cell(&mut rng, 1.2, 0.05);
    assert_eq!(
        verdict(&shifted, "tick_ms_p50"),
        Verdict::Moved { better: true }
    );
    assert_eq!(verdict(&shifted, "samples_per_s"), Verdict::WithinNoise);
    assert_eq!(verdict(&shifted, "delivered_share"), Verdict::WithinNoise);

    let noise = cell(&mut rng, 1.0, 0.05);
    assert_eq!(verdict(&noise, "tick_ms_p50"), Verdict::WithinNoise);
    // Slower by 1.2x is moved too, the other way.
    let slower = cell(&mut rng, 1.0 / 1.2, 0.05);
    assert_eq!(
        verdict(&slower, "tick_ms_p50"),
        Verdict::Moved { better: false }
    );
}

/// The gain rule asks for nine wins in ten and a median gap wider than
/// the base's quartile distance; "moved" asks for neither.
#[test]
fn the_gain_rule_is_stricter_than_moved() {
    let mut rng = TestRng::seed_from_u64(42);
    let shifted = comparison(&cell(&mut rng, 1.2, 0.05), "tick_ms_p50");
    assert!(shifted.gain, "{shifted:?}");
    assert!(shifted.gap > shifted.base.q3 - shifted.base.q1);
    let noise = comparison(&cell(&mut rng, 1.0, 0.05), "tick_ms_p50");
    assert!(!noise.gain, "{noise:?}");
    let slower = comparison(&cell(&mut rng, 1.0 / 1.2, 0.05), "tick_ms_p50");
    assert!(!slower.gain && slower.gap < 0.0, "{slower:?}");

    let tick = defs()
        .into_iter()
        .find(|d| d.name == "tick_ms_p50")
        .expect("declared");
    // Every pair 3 % faster over a base that spreads 0.08–0.17 ms: moved,
    // but a median gap of 3.8 µs is well inside the base's quartiles.
    let base = [0.10, 0.17, 0.08, 0.15, 0.12, 0.09, 0.16, 0.11, 0.14, 0.13];
    let head = base.map(|b| b * 0.97);
    let c = compare(&base, &head, &tick, false);
    assert_eq!(c.verdict, Verdict::Moved { better: true });
    assert_eq!(c.wins, 10);
    assert!(!c.gain, "{c:?}");
    // A wide gap won in 8 pairs of 10 is not enough either.
    let mut head = [0.05; 10];
    head[2] = 0.2;
    head[7] = 0.2;
    let c = compare(&base, &head, &tick, false);
    assert_eq!(c.wins, 8);
    assert!(c.gap > c.base.q3 - c.base.q1 && !c.gain, "{c:?}");
    // A function of the seed never claims a gain.
    let delivered = defs()
        .into_iter()
        .find(|d| d.name == "delivered_share")
        .expect("declared");
    assert!(!compare(&[0.5; 10], &[0.6; 10], &delivered, true).gain);
}

/// Over many fixtures: noise alone reads "moved" well under one time in
/// twenty, a 1.2× shift nearly always, and noise wider than the bound is
/// "unresolved" rather than "within noise".
#[test]
fn verdict_rates_over_many_fixtures() {
    let mut rng = TestRng::seed_from_u64(2015);
    let trials = 200;
    let count = |rng: &mut TestRng, shift: f64, noise: f64, want: Verdict| {
        (0..trials)
            .filter(|_| verdict(&cell(rng, shift, noise), "tick_ms_p50") == want)
            .count()
    };
    let moved = Verdict::Moved { better: true };
    let false_moves = count(&mut rng, 1.0, 0.05, moved)
        + count(&mut rng, 1.0, 0.05, Verdict::Moved { better: false });
    assert!(
        false_moves <= trials / 20,
        "noise moved {false_moves}/{trials}"
    );
    let hits = count(&mut rng, 1.2, 0.05, moved);
    assert!(hits >= trials * 95 / 100, "1.2x moved {hits}/{trials}");
    let unresolved = count(&mut rng, 1.0, 0.6, Verdict::Unresolved);
    assert!(
        unresolved >= trials / 2,
        "wide noise unresolved {unresolved}/{trials}"
    );
}

#[test]
fn a_seed_function_that_differs_is_a_behaviour_change() {
    let def = defs()
        .into_iter()
        .find(|d| d.name == "delivered_share")
        .expect("declared");
    let same = [0.6545; 10];
    let mut moved = same;
    moved[3] = 0.6546;
    assert_eq!(
        compare(&same, &same, &def, true).verdict,
        Verdict::WithinNoise
    );
    assert_eq!(
        compare(&same, &moved, &def, true).verdict,
        Verdict::BehaviourChange
    );

    let mut rng = TestRng::seed_from_u64(7);
    let mut c = cell(&mut rng, 1.0, 0.05);
    c.runs[4].1 = RunResult::from_output(&line(0.1, 1500.0, 0.99, false)).expect("parses");
    let (rows, behaviour) = c.compare(&defs());
    assert_eq!(behaviour.len(), 1, "{behaviour:?}");
    assert!(behaviour[0].contains("pair 4: head run correct = false"));
    let delivered = rows
        .iter()
        .find(|(m, _)| m == "delivered_share")
        .expect("row");
    assert_eq!(delivered.1.verdict, Verdict::BehaviourChange);
}

#[test]
fn sign_test_is_exact() {
    // Two-sided: 2 * P(X <= min(k, n - k)), X ~ Binomial(n, 1/2).
    assert_eq!(sign_test_p(10, 10), 2.0 / 1024.0);
    assert_eq!(sign_test_p(0, 10), 2.0 / 1024.0);
    assert_eq!(sign_test_p(9, 10), 22.0 / 1024.0);
    assert_eq!(sign_test_p(8, 10), 112.0 / 1024.0);
    assert_eq!(sign_test_p(6, 6), 2.0 / 64.0);
    assert_eq!(sign_test_p(5, 10), 1.0);
    assert_eq!(sign_test_p(0, 0), 1.0);
}

#[test]
fn options_parse_and_reject() {
    let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let o = Options::parse(&args(
        "--base 889f1cb --workload system_live --seed 42 --seed 2015 --pairs 6",
    ))
    .expect("parses");
    assert_eq!(o.base, "889f1cb");
    assert_eq!(o.workloads, ["system_live"]);
    assert_eq!(o.seeds, [42, 2015]);
    assert_eq!(o.pairs, 6);
    let d = Options::parse(&args("--base HEAD~1")).expect("parses");
    assert_eq!((d.seeds.as_slice(), d.pairs), (&[42][..], 10));
    for bad in [
        "",
        "--pairs 3",
        "--base x --pairs 0",
        "--base x --seed y",
        "--base x --trace",
        // Runs take BENCHMARK.json's run_seconds, the same on both sides.
        "--base x --seconds 5",
    ] {
        assert!(Options::parse(&args(bad)).is_err(), "{bad:?}");
    }
}

#[test]
fn benchmark_declarations_are_read() {
    let text = std::fs::read_to_string(xtask::workspace_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json");
    let b = Benchmark::parse(&text).expect("parses");
    assert_eq!(
        b.workloads,
        ["fleet_clean", "fleet_hostile", "portal_read", "system_live"]
    );
    assert_eq!(b.metrics.len(), 7);
    let tick = b
        .metrics
        .iter()
        .find(|m| m.name == "tick_ms_p50")
        .expect("declared");
    assert!(!tick.higher_is_better && tick.bound == 0.25);
    assert!(b.run_seconds > 0);
    assert_eq!(b.layers.len(), 66);
    assert_eq!(b.layers[0], "simnode.advance.ns_per_node_step");
}

/// A traced run's result line: the per-layer metrics it reports.
fn traced_result(metrics: &[(&str, f64)]) -> RunResult {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"ns\"}}"))
        .collect();
    let line = format!(
        "{{\"correct\": true, \"attempted\": 5790, \"failed\": 0, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
    RunResult::from_output(&format!("stage table\n{line}\n")).expect("parses")
}

#[test]
fn traced_rows_compare_each_per_layer_metric_base_to_head() {
    let bench = bench();
    let traced = Traced {
        workload: "system_live".into(),
        seed: 42,
        base: traced_result(&[
            ("core.step.ns_per_node_step", 4000.0),
            ("simnode.advance.share", 0.24),
            ("simnode.advance.ns_per_node_step", 3977.0),
            ("core.jobs_ingested", 68.0),
        ]),
        head: traced_result(&[
            ("simnode.advance.ns_per_node_step", 2024.0),
            ("simnode.advance.share", 0.14),
            ("core.jobs_ingested", 68.0),
            ("tsdb.seal.blocks", 3.0),
        ]),
    };
    let rows = traced.rows(&bench.layers);
    // In BENCHMARK.json's order, whatever order the runs printed.
    let names: Vec<&str> = rows.iter().map(|r| r.metric.as_str()).collect();
    assert_eq!(
        names,
        [
            "simnode.advance.ns_per_node_step",
            "simnode.advance.share",
            "tsdb.seal.blocks",
            "core.step.ns_per_node_step",
            "core.jobs_ingested",
        ]
    );
    assert_eq!((rows[0].base, rows[0].head), (3977.0, 2024.0));
    assert!((rows[0].ratio - 2024.0 / 3977.0).abs() < 1e-12);
    // Equal values are a ratio of 1; a side that lacks the metric is NaN.
    assert_eq!(rows[4].ratio, 1.0);
    assert!(rows[2].base.is_nan() && rows[2].ratio.is_nan());
    assert!(rows[3].head.is_nan());

    let lines = traced.lines(&bench.layers);
    assert_eq!(
        lines[0],
        "system_live seed 42 traced simnode.advance.ns_per_node_step: base 3977 → head 2024, \
         ratio 0.509"
    );
    assert_eq!(
        lines[1],
        "system_live seed 42 traced simnode.advance.share: base 0.2400 → head 0.1400, ratio 0.583"
    );

    let mut rng = TestRng::seed_from_u64(3);
    let opts = Options::parse(&["--base".to_string(), "2899c72".to_string()]).expect("parses");
    let json = report_json(
        "2899c72",
        "abcdef0",
        &opts,
        &bench,
        &[cell(&mut rng, 1.0, 0.05)],
        &[traced],
    );
    let doc = xtask::json::parse(&json).expect("the report is JSON");
    let rows = doc
        .get("traced")
        .and_then(|t| t.as_array())
        .expect("traced rows");
    assert_eq!(rows.len(), 5);
    let field = |i: usize, key: &str| rows[i].get(key).and_then(|v| v.as_f64());
    assert_eq!(
        rows[1].get("metric").and_then(|m| m.as_str()),
        Some("simnode.advance.share")
    );
    assert_eq!(
        (field(1, "base"), field(1, "head")),
        (Some(0.24), Some(0.14))
    );
    assert_eq!(field(2, "base"), None, "a missing side is null");
    assert!(doc.get("results").and_then(|r| r.as_array()).is_some());
}
