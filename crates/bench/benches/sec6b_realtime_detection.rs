//! E14 — §VI-B: automated real-time analysis.
//!
//! "Problem jobs [can] be quickly identified and suspended before they
//! create system-wide slowdowns or crashes." Measures the detection
//! latency of a metadata storm in daemon mode, contrasts it with the
//! cron-mode floor (data unavailable until the next day's rsync),
//! reports what adaptive per-node cadence saves in samples at equal
//! first-alert latency, and benchmarks the analyzer's per-sample cost.

use criterion::{criterion_group, criterion_main, Criterion};
use tacc_bench::{report_header, report_row, request, t0};
use tacc_core::config::{Mode, SystemConfig};
use tacc_core::online::{AlertKind, OnlineConfig};
use tacc_core::{AdaptiveConfig, MonitoringSystem};
use tacc_simnode::apps::AppModel;
use tacc_simnode::SimDuration;

fn bench(c: &mut Criterion) {
    report_header(
        "E14 / §VI-B",
        "automated real-time detection and suspension",
    );

    // Daemon mode: detection latency.
    let mut sys = MonitoringSystem::new(SystemConfig::small(2, Mode::daemon()));
    sys.enable_online(OnlineConfig::default(), true);
    let mut storm = request(1, AppModel::wrf_metadata_storm(), 2, 10 * 60);
    storm.user = "user9999".to_string();
    sys.enqueue_jobs(vec![(t0(), storm)]);
    sys.run_until(t0() + SimDuration::from_hours(2));
    let detect = sys
        .alerts()
        .iter()
        .find(|a| a.kind == AlertKind::MetadataStorm)
        .map(|a| a.time.duration_since(t0()).as_secs())
        .expect("storm detected");
    report_row(
        "daemon-mode detection latency",
        "within a sampling interval",
        &format!("{detect} s"),
    );
    report_row(
        "automated response",
        "suspend problem job",
        &format!("{} job(s) suspended", sys.suspended().len()),
    );
    assert!(detect <= 2 * 600);
    assert_eq!(sys.suspended().len(), 1);

    // Cron-mode floor: data for the same instant is unavailable until
    // the staggered next-day sync.
    let mut cron = MonitoringSystem::new(SystemConfig::small(2, Mode::cron()));
    let mut storm = request(1, AppModel::wrf_metadata_storm(), 2, 10 * 60);
    storm.user = "user9999".to_string();
    cron.enqueue_jobs(vec![(t0(), storm)]);
    cron.run_until(t0() + SimDuration::from_hours(30));
    let floor = cron.archive().latency_stats().mean_secs;
    report_row(
        "cron-mode analysis floor (mean data lag)",
        "up to ~1 day",
        &format!("{:.1} h", floor / 3600.0),
    );
    let speedup = floor / detect as f64;
    report_row(
        "daemon detection vs cron floor",
        "orders of magnitude",
        &format!("{speedup:.0}x faster"),
    );
    assert!(speedup > 20.0);

    // Adaptive cadence: three quiet hours, then a storm on 2 of 4
    // nodes, from a 5-minute base cadence so the adaptive arm has room
    // in both directions (60 s .. 20 min). Samples collected and the
    // first alert's sample→flag latency, fixed vs adaptive.
    let run = |adaptive: bool| {
        let mut cfg = SystemConfig::small(4, Mode::daemon());
        cfg.interval = SimDuration::from_mins(5);
        let mut sys = MonitoringSystem::new(cfg);
        sys.enable_online(OnlineConfig::default(), true);
        if adaptive {
            sys.enable_adaptive(AdaptiveConfig::default());
        }
        let storm = request(17, AppModel::wrf_metadata_storm(), 2, 120);
        sys.enqueue_jobs(vec![(t0() + SimDuration::from_hours(3), storm)]);
        sys.run_until(t0() + SimDuration::from_hours(4));
        let first_alert = sys.alerts().first().map(|a| a.latency_secs);
        (sys.delivery_report().collected, first_alert)
    };
    let (fixed, fixed_alert) = run(false);
    let (adaptive, adaptive_alert) = run(true);
    let saved = 1.0 - adaptive as f64 / fixed as f64;
    report_row(
        "adaptive cadence: samples, first alert",
        "(extension)",
        &format!(
            "{fixed} fixed vs {adaptive} adaptive ({:.0} % saved), first alert {:.0} s vs {:.0} s",
            saved * 100.0,
            fixed_alert.expect("fixed arm alerts"),
            adaptive_alert.expect("adaptive arm alerts"),
        ),
    );
    assert!(adaptive < fixed);
    assert_eq!(fixed_alert, adaptive_alert);
    println!();

    // Analyzer throughput: samples/s it can inspect (cluster-scale
    // feasibility: SDSC Comet = 1,944 nodes publishing every 10 min).
    let mut feeder = MonitoringSystem::new(SystemConfig::small(4, Mode::daemon()));
    feeder.enqueue_jobs(vec![(t0(), request(9, AppModel::wrf(), 4, 120))]);
    feeder.run_until(t0() + SimDuration::from_hours(2));
    let raw = feeder.archive().parse_all().expect("archive parses");
    let samples: Vec<_> = raw
        .iter()
        .flat_map(|rf| {
            rf.samples
                .iter()
                .map(move |s| (rf.header.clone(), s.clone()))
        })
        .collect();
    println!("  analyzer replay set: {} samples", samples.len());
    let mut g = c.benchmark_group("sec6b");
    g.bench_function("analyzer_observe_per_sample", |b| {
        b.iter(|| {
            let mut analyzer = tacc_core::online::OnlineAnalyzer::new(OnlineConfig::default());
            let mut n = 0;
            for (h, s) in &samples {
                n += analyzer.observe(s.time.time(), h, s).len();
            }
            n
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
