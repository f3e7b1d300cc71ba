//! Harness self-tests: tiny instances of the workloads must pass every
//! correctness check quickly, a corrupted expectation must fail, and the
//! command must reject a workload it does not know.

use std::process::Command;
use std::time::{Duration, Instant};
use tacc_benchmark::fleet::{Fleet, FleetParams};
use tacc_benchmark::live::{ExpectedCounts, Live, LiveParams};
use tacc_benchmark::portal::{Portal, PortalParams};

fn tiny_fleet(hostile: bool) -> FleetParams {
    let base = if hostile {
        FleetParams::hostile(42, 1)
    } else {
        FleetParams::clean(42, 1)
    };
    FleetParams {
        nodes: 4,
        ticks: if hostile { 96 } else { 8 },
        warmup_ticks: 2,
        queue_capacity: if hostile { 6 } else { 8 },
        consumer_budget: if hostile { 5 } else { usize::MAX },
        readback_passes: 2,
        ..base
    }
}

#[test]
fn four_node_eight_tick_fleet_clean_delivers_everything_quickly() {
    let t = Instant::now();
    let out = Fleet::setup(&tiny_fleet(false)).run();
    assert!(
        t.elapsed() < Duration::from_secs(2),
        "took {:?}",
        t.elapsed()
    );
    assert_eq!(out.violations, Vec::<String>::new());
    assert_eq!(out.failed, 0);
    // 4 nodes × (2 warm-up + 8 measured) ticks, all queryable.
    assert_eq!((out.collected, out.queryable), (40, 40));
    assert_eq!(out.ticks.wall_ns.len(), 8);
    assert_eq!(out.ticks.total_samples(), 32);
    // Two passes of one query per host.
    assert_eq!(out.queries.ns.len(), 8);
    assert_eq!(out.attempted, 40 + 8);
    assert_eq!(out.layer["collect.ledger_slack"], 0.0);
    assert_eq!(out.layer["broker.identity_violations"], 0.0);
    assert!(out.spans.is_empty(), "an untraced run records no spans");
}

#[test]
fn traced_fleet_attributes_its_ticks_and_keeps_layers_apart() {
    let out = Fleet::setup(&FleetParams {
        traced: true,
        ..tiny_fleet(false)
    })
    .run();
    assert_eq!(out.failed, 0, "{:?}", out.violations);
    let names: std::collections::BTreeSet<&str> =
        out.spans.iter().map(|s| s.stage.name()).collect();
    for want in [
        "harness.tick",
        "simnode.advance",
        "collect.daemon_tick",
        "broker.publish",
        "collect.consumer_poll",
        "tsdb.insert",
        "tsdb.range",
    ] {
        assert!(names.contains(want), "no {want} span in {names:?}");
    }
    assert!(
        !names.iter().any(|n| n.starts_with("portal.")
            || n.starts_with("metrics.")
            || n.starts_with("core.")),
        "the fleet must not touch the portal, jobdb or core layers: {names:?}"
    );
    // Every publish sits inside a daemon tick, inside a tick root.
    for s in &out.spans {
        if s.stage.name() == "broker.publish" {
            let parent = &out.spans[s.parent as usize];
            assert_eq!(parent.stage.name(), "collect.daemon_tick");
            assert_eq!(
                out.spans[parent.parent as usize].stage.name(),
                "harness.tick"
            );
        }
    }
    assert!(out
        .layer
        .contains_key("collect.daemon_tick.self_ns_per_sample"));
}

#[test]
fn tiny_fleet_hostile_sheds_recovers_and_keeps_every_identity() {
    let out = Fleet::setup(&tiny_fleet(true)).run();
    assert_eq!(out.violations, Vec::<String>::new());
    assert!(
        out.queryable < out.collected,
        "a hostile run must lose samples"
    );
    assert_eq!(out.layer["tsdb.recover.balances"], 1.0);
    assert_eq!(out.layer["broker.identity_violations"], 0.0);
    assert!(out.layer["collect.spool.replayed"] > 0.0);
    assert!(out.layer["tsdb.wal.fsyncs"] > 0.0);
}

fn tiny_portal() -> PortalParams {
    PortalParams {
        jobs: 400,
        hosts: 4,
        points: 1_200,
        detail_jobs: 6,
        warmup_ops: 10,
        ops: 50,
        ..PortalParams::sized(42, 1)
    }
}

#[test]
fn fifty_op_portal_read_answers_match_the_reference_quickly() {
    let t = Instant::now();
    let out = Portal::setup(&tiny_portal()).run();
    assert!(
        t.elapsed() < Duration::from_secs(2),
        "took {:?}",
        t.elapsed()
    );
    assert_eq!(out.violations, Vec::<String>::new());
    assert_eq!(out.failed, 0);
    assert_eq!(out.queries.ns.len(), 50);
    assert_eq!(out.attempted, 50);
    assert_eq!(out.queryable, out.collected);
    assert!(out.layer["portal.cache.hit_rate"] > 0.0);
}

#[test]
fn traced_portal_read_window_has_no_collect_or_broker_spans() {
    let out = Portal::setup(&PortalParams {
        traced: true,
        ..tiny_portal()
    })
    .run();
    assert_eq!(out.failed, 0, "{:?}", out.violations);
    assert!(!out.spans.is_empty());
    assert!(out.spans.iter().all(|s| {
        let n = s.stage.name();
        !n.starts_with("collect.") && !n.starts_with("broker.") && !n.starts_with("simnode.")
    }));
}

fn tiny_live() -> LiveParams {
    LiveParams {
        nodes: 8,
        warmup_steps: 5,
        steps: 120,
        jobs: 6,
        ..LiveParams::sized(42, 1)
    }
}

#[test]
fn tiny_system_live_counts_match_the_harness_arithmetic() {
    let out = Live::setup(&LiveParams {
        expected: None,
        ..tiny_live()
    })
    .run();
    assert_eq!(out.violations, Vec::<String>::new());
    assert_eq!(out.queryable, out.collected);
    assert!(!out.queries.ns.is_empty());
    // An operation is a visit: 16 views of 8 searches and 8 Fig. 4s.
    assert!(out.queries.calls_ns.len() >= 256 * out.queries.ns.len());
}

#[test]
fn a_corrupted_committed_count_fails_the_run() {
    // Learn the true counts from a first run, then commit them off by one.
    let honest = Live::setup(&LiveParams {
        expected: None,
        ..tiny_live()
    })
    .run();
    assert_eq!(honest.failed, 0, "{:?}", honest.violations);
    let truth = ExpectedCounts {
        samples: honest.queryable,
        jobs: honest.layer["core.jobs_ingested"] as u64,
        alerts: honest.layer["core.online.alerts"] as u64,
    };
    let agree = Live::setup(&LiveParams {
        expected: Some(truth),
        ..tiny_live()
    })
    .run();
    assert_eq!(agree.failed, 0, "{:?}", agree.violations);
    let corrupted = Live::setup(&LiveParams {
        expected: Some(ExpectedCounts {
            samples: truth.samples + 1,
            ..truth
        }),
        ..tiny_live()
    })
    .run();
    assert_eq!(corrupted.failed, 1, "{:?}", corrupted.violations);
    assert!(corrupted.violations[0].contains("committed"));
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    let counts = |seed| {
        let out = Fleet::setup(&FleetParams {
            seed,
            ..tiny_fleet(true)
        })
        .run();
        (
            out.collected,
            out.queryable,
            out.layer["collect.consumer.duplicates"] as u64,
            out.layer["broker.queue.shed_oldest"] as u64,
        )
    };
    assert_eq!(counts(7), counts(7));
    assert_ne!(counts(7), counts(8));
}

#[test]
fn unknown_workload_exits_non_zero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_tacc-benchmark"))
        .args(["--workload", "no_such_workload", "--seed", "1"])
        .args(["--seconds", "1", "--trace", "0"])
        .output()
        .expect("the benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result may be printed");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown workload"));
}
