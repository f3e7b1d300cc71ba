//! Stampede-scale soak: fleet-wide steady-state throughput under
//! backpressure and a fixed memory budget (DESIGN.md §17).
//!
//! Two legs through [`tacc_bench::fleet::run_soak`]:
//!
//! * `clean` — a 2,048-node fleet for 720 simulated ticks (five days at
//!   the paper's 10-minute cadence, ~1.5 M samples) with periodic
//!   consumer stalls so admission control genuinely sheds, plus the
//!   portal + tsdb query legs hammering the budget-governed caches.
//! * `faulted` — the same fleet under a hostile `FaultPlan` (broker
//!   outages, a node crash, request/ack drops, device faults), proving
//!   the message conservation identities hold when everything goes
//!   wrong at once.
//!
//! Acceptance (checked here, recorded in `BENCH_soak.json`):
//!
//! * fleet ≥ 2,000 nodes, window ≥ 360 simulated ticks;
//! * final-third sustained throughput ≥ 90% of the first third (no
//!   slow leak: the decoded-block caches are live in the final third
//!   once series seal past tick ~512);
//! * peak tracked bytes ≤ the hard budget, with zero cache-insert
//!   rejections (eviction absorbed all pressure);
//! * shed / spooled / evicted / lost counts satisfy the conservation
//!   identities on both legs.
//!
//! `SOAK_SMOKE=1` runs the CI-sized preset instead (seconds, same
//! assertions, smaller numbers).

use std::time::Instant;
use tacc_bench::fleet::{run_soak, FleetConfig, SoakOutcome};
use tacc_bench::report_header;

/// JSON object for one leg's outcome.
fn leg_json(label: &str, cfg: &FleetConfig, out: &SoakOutcome, wall_secs: f64) -> String {
    let total_received = out.received;
    let sustained = if wall_secs > 0.0 {
        total_received as f64 / wall_secs
    } else {
        0.0
    };
    format!(
        "  \"{label}\": {{\n    \"nodes\": {}, \"ticks\": {}, \"interval_secs\": {}, \"wall_secs\": {:.2},\n    \"collected\": {}, \"received\": {}, \"duplicates\": {}, \"gap_events\": {},\n    \"shed_oldest\": {}, \"shed_newest\": {}, \"spooled\": {}, \"spool_evicted\": {}, \"lost\": {},\n    \"offered\": {}, \"published\": {}, \"acked\": {},\n    \"sustained_samples_per_sec\": {:.0},\n    \"thirds_samples_per_sec\": [{:.0}, {:.0}, {:.0}],\n    \"steady_state_ratio\": {:.3},\n    \"latency_secs\": {{\"p50\": {}, \"p99\": {}, \"max\": {}}},\n    \"queue\": {{\"capacity\": {}, \"peak_depth\": {}, \"high_watermark_ticks\": {}}},\n    \"memory\": {{\"soft\": {}, \"hard\": {}, \"peak\": {}, \"soft_events\": {}}},\n    \"tsdb_cache\": {{\"inserted\": {}, \"hits\": {}, \"evicted_lru\": {}, \"expired\": {}, \"evicted_pressure\": {}, \"rejected\": {}}},\n    \"portal_cache\": {{\"hits\": {}, \"misses\": {}, \"pressure_evicted\": {}, \"rejected\": {}}},\n    \"archive\": {{\"stored_bytes\": {}, \"retention_bytes\": {}, \"evicted_files\": {}, \"evicted_bytes\": {}}},\n    \"tsdb_points\": {}, \"unaccounted\": {}\n  }}",
        cfg.nodes,
        cfg.ticks,
        cfg.interval_secs,
        wall_secs,
        out.collected,
        out.received,
        out.duplicates,
        out.gap_events,
        out.queue.shed_oldest,
        out.queue.shed_newest,
        out.spooled,
        out.spool_evicted,
        out.lost,
        out.queue.offered,
        out.queue.published,
        out.queue.acked,
        sustained,
        out.thirds[0].samples_per_sec(),
        out.thirds[1].samples_per_sec(),
        out.thirds[2].samples_per_sec(),
        steady_ratio(out),
        out.latency.p50_secs,
        out.latency.p99_secs,
        out.latency.max_secs,
        out.queue.capacity,
        out.peak_depth,
        out.high_watermark_ticks,
        out.mem_soft,
        out.mem_hard,
        out.mem_peak,
        out.soft_events,
        out.tsdb_cache.inserted,
        out.tsdb_cache.hits,
        out.tsdb_cache.evicted_lru,
        out.tsdb_cache.expired,
        out.tsdb_cache.evicted_pressure,
        out.tsdb_cache.rejected,
        out.portal_cache.hits,
        out.portal_cache.misses,
        out.portal_cache.pressure_evicted,
        out.portal_cache.rejected,
        out.archive.stored_bytes,
        out.archive.retention_bytes,
        out.archive.evicted_files,
        out.archive.evicted_bytes,
        out.tsdb_points,
        out.unaccounted(),
    )
}

/// Final-third throughput over first-third throughput.
fn steady_ratio(out: &SoakOutcome) -> f64 {
    let first = out.thirds[0].samples_per_sec();
    let last = out.thirds[2].samples_per_sec();
    if first > 0.0 {
        last / first
    } else {
        0.0
    }
}

fn main() {
    let smoke = std::env::var("SOAK_SMOKE").is_ok_and(|v| v != "0" && !v.is_empty());
    let scale = if smoke { "smoke" } else { "full" };
    report_header(
        "soak_path",
        "fleet steady-state under backpressure + memory budget",
    );
    println!("  scale: {scale} (set SOAK_SMOKE=1 for the CI preset)");

    let clean_cfg = if smoke {
        FleetConfig::smoke()
    } else {
        FleetConfig::full()
    };

    let mut faulted_cfg = clean_cfg.clone();
    if !smoke {
        // Half the window keeps the faulted leg affordable while still
        // clearing the >=360-tick bar.
        faulted_cfg.ticks = 360;
        faulted_cfg.settle_ticks = 30;
    }
    faulted_cfg.hostile = Some(42);

    let t = Instant::now();
    let clean = run_soak(&clean_cfg);
    let clean_json = leg_json("clean", &clean_cfg, &clean, t.elapsed().as_secs_f64());
    println!("{clean_json}");
    let clean_violations = clean.check(true);

    let t = Instant::now();
    let faulted = run_soak(&faulted_cfg);
    let faulted_json = leg_json("faulted", &faulted_cfg, &faulted, t.elapsed().as_secs_f64());
    println!("{faulted_json}");
    let faulted_violations = faulted.check(false);

    // --- acceptance ---
    let nodes_ok = clean_cfg.nodes >= if smoke { 16 } else { 2000 };
    let ticks_ok = clean_cfg.ticks >= if smoke { 24 } else { 360 };
    let ratio = steady_ratio(&clean);
    let steady_ok = ratio >= 0.90;
    let mem_ok = clean.mem_peak <= clean.mem_hard
        && faulted.mem_peak <= faulted.mem_hard
        && clean.tsdb_cache.rejected + clean.portal_cache.rejected == 0
        && faulted.tsdb_cache.rejected + faulted.portal_cache.rejected == 0;
    let conserved_clean = clean_violations.is_empty();
    let conserved_faulted = faulted_violations.is_empty();
    let shed_exercised = clean.shed() > 0 || clean.high_watermark_ticks > 0;
    println!(
        "  acceptance: nodes {nodes_ok}; ticks {ticks_ok}; steady ratio {ratio:.3} >= 0.90: {steady_ok}; \
         mem {mem_ok}; conserved clean {conserved_clean} faulted {conserved_faulted}; shed exercised {shed_exercised}"
    );
    for v in &clean_violations {
        println!("  VIOLATION (clean): {v}");
    }
    for v in &faulted_violations {
        println!("  VIOLATION (faulted): {v}");
    }

    // --- JSON ---
    let json = format!(
        "{{\n  \"bench\": \"soak_path\",\n  \"scale\": \"{scale}\",\n{},\n{},\n  \"acceptance\": {{\n    \"nodes_ok\": {nodes_ok}, \"ticks_ok\": {ticks_ok},\n    \"steady_state_ratio\": {ratio:.3}, \"steady_ok\": {steady_ok},\n    \"mem_ok\": {mem_ok}, \"conserved_clean\": {conserved_clean}, \"conserved_faulted\": {conserved_faulted},\n    \"shed_exercised\": {shed_exercised}\n  }}\n}}\n",
        clean_json, faulted_json,
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_soak.json");
    match std::fs::write(&out, &json) {
        Ok(()) => println!("  wrote {}", out.display()),
        Err(e) => println!("  could not write {}: {e}", out.display()),
    }

    assert!(conserved_clean, "clean leg violated: {clean_violations:?}");
    assert!(
        conserved_faulted,
        "faulted leg violated: {faulted_violations:?}"
    );
    assert!(mem_ok, "memory governance failed");
    assert!(steady_ok, "throughput decayed: ratio {ratio:.3} < 0.90");
}
