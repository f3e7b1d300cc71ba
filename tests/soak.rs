//! The fleet soak (`tacc_stats::soak`, DESIGN.md §17) at test scale:
//! its ledger and budget identities hold clean, under `RejectNewest`
//! and under a hostile fault plan, and its outcome is a pinned function
//! of the configuration.

use tacc_stats::broker::ShedPolicy;
use tacc_stats::core::Mode;
use tacc_stats::soak::{run_soak, FleetConfig, SoakOutcome};

fn stats_queue(capacity: usize, policy: ShedPolicy) -> Mode {
    Mode::Daemon {
        queue: "stats".to_string(),
        capacity,
        policy,
    }
}

/// FNV-1a 64 of the outcome's `Debug` text with wall time zeroed:
/// everything else a run reports is a function of its configuration.
fn fingerprint(mut out: SoakOutcome) -> u64 {
    out.thirds.iter_mut().for_each(|t| t.wall_secs = 0.0);
    format!("{out:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[test]
fn smoke_preset_is_pinned_clean_and_hostile() {
    let clean = run_soak(&FleetConfig::smoke());
    assert_eq!(clean.check(true), Vec::<String>::new());
    assert_eq!(clean.unaccounted(), 0);
    assert_eq!(fingerprint(clean), 0x79b2_1be6_9559_00bf);

    let hostile = run_soak(&FleetConfig {
        hostile: Some(42),
        ..FleetConfig::smoke()
    });
    assert_eq!(hostile.check(false), Vec::<String>::new());
    assert_eq!(hostile.unaccounted(), -11);
    assert_eq!(fingerprint(hostile), 0x78ab_0de3_f73f_14f7);
}

#[test]
fn smoke_soak_conserves_and_stays_under_budget() {
    let cfg = FleetConfig {
        nodes: 12,
        ticks: 24,
        mode: stats_queue(16, ShedPolicy::DropOldest),
        consumer_budget: 15,
        stall_every: 8,
        stall_len: 2,
        soft_bytes: 64 << 10,
        hard_bytes: 128 << 10,
        portal_jobs: 60,
        settle_ticks: 8,
        ..FleetConfig::smoke()
    };
    let out = run_soak(&cfg);
    assert_eq!(out.check(true), Vec::<String>::new());
    assert_eq!(out.collected, 12 * (24 + 8) as u64);
    assert!(out.received > 0);
    assert_eq!(out.queue.depth, 0, "settle drains the queue");
    assert_eq!(out.queue.in_flight, 0);
    assert!(out.shed() > 0, "stalls against a 16-deep queue must shed");
    assert!(out.latency.p99_secs >= out.latency.p50_secs);
    assert!(out.mem_peak <= cfg.hard_bytes);
}

#[test]
fn reject_newest_pushes_load_into_spools_and_conserves() {
    let cfg = FleetConfig {
        nodes: 12,
        ticks: 24,
        mode: stats_queue(16, ShedPolicy::RejectNewest),
        consumer_budget: 15,
        stall_every: 8,
        stall_len: 3,
        portal_jobs: 40,
        settle_ticks: 10,
        ..FleetConfig::smoke()
    };
    let out = run_soak(&cfg);
    assert_eq!(out.check(true), Vec::<String>::new());
    assert!(out.queue.shed_newest > 0, "full queue must refuse");
    assert_eq!(out.queue.shed_oldest, 0);
    // Refused publishes spool and replay: nothing is lost, so the
    // only terminal non-received states are spool-side.
    assert_eq!(
        out.collected,
        out.received + out.spooled + out.spool_evicted
    );
}

fn faulted() -> FleetConfig {
    FleetConfig {
        nodes: 10,
        ticks: 30,
        mode: stats_queue(24, ShedPolicy::DropOldest),
        consumer_budget: 14,
        stall_every: 10,
        stall_len: 2,
        portal_jobs: 40,
        hostile: Some(7),
        settle_ticks: 12,
        ..FleetConfig::smoke()
    }
}

#[test]
fn faulted_soak_keeps_message_identities_exact() {
    let out = run_soak(&faulted());
    assert_eq!(out.check(false), Vec::<String>::new());
    assert!(
        out.duplicates > 0 || out.lost > 0 || out.spool_evicted > 0,
        "a hostile plan should leave visible scars: {out:?}"
    );
}

#[test]
fn same_config_gives_the_same_outcome() {
    assert_eq!(
        fingerprint(run_soak(&faulted())),
        fingerprint(run_soak(&faulted()))
    );
}
