//! Workspace wiring invariants.
//!
//! These checks keep the verification infrastructure itself from
//! rotting: the `cargo xtask` alias must stay wired, the loom model
//! suites (broker queue, worker pool, tsdb shard) must stay
//! loom-gated (so plain `cargo test` is unaffected) and reachable
//! from CI along with the one performance record — the one hot-loop
//! bench (`hot_paths`) with its JSON artifact, the system benchmark's
//! quick run, and the allocation invariants tier-1 enforces
//! (`tests/alloc_invariants.rs`) — and every
//! loom-using crate must keep rustc's `unexpected_cfgs` lint taught
//! about `cfg(loom)` (CI runs clippy with `-D warnings`).

use crate::{alloc_lint, panic_lint};
use std::fs;
use std::path::Path;

/// Run the wiring checks. `lock_classes` is the lock-order analyzer's
/// discovered class set — every class must be documented in
/// DESIGN.md's concurrency section. Returns violations (empty = pass).
pub fn check(root: &Path, lock_classes: &[String]) -> Result<Vec<String>, String> {
    let mut errors = Vec::new();
    let mut expect = |rel: &str, needles: &[&str]| -> Result<(), String> {
        let path = root.join(rel);
        let text = fs::read_to_string(&path)
            .map_err(|e| format!("invariants: read {}: {e}", path.display()))?;
        for needle in needles {
            if !text.contains(needle) {
                errors.push(format!("invariants: {rel} must contain `{needle}`"));
            }
        }
        Ok(())
    };

    expect(
        ".cargo/config.toml",
        &["xtask = \"run --quiet --package xtask --\""],
    )?;
    expect(
        "crates/broker/tests/loom_queue.rs",
        &["#![cfg(loom)]", "loom::model"],
    )?;
    expect(
        "crates/simnode/tests/loom_pool.rs",
        &["#![cfg(loom)]", "loom::model"],
    )?;
    expect(
        "crates/tsdb/tests/loom_shard.rs",
        &["#![cfg(loom)]", "loom::model"],
    )?;
    expect("crates/broker/Cargo.toml", &["check-cfg = [\"cfg(loom)\"]"])?;
    expect(
        "crates/simnode/Cargo.toml",
        &["check-cfg = [\"cfg(loom)\"]"],
    )?;
    expect("crates/tsdb/Cargo.toml", &["check-cfg = [\"cfg(loom)\"]"])?;
    expect(
        ".github/workflows/ci.yml",
        &[
            "cargo xtask lint",
            "--cfg loom",
            "--test loom_pool",
            "--test loom_shard",
            "--bench hot_paths",
            "BENCH_hot_paths.json",
            "benchmark/Cargo.toml -- --quick",
            "--test alloc_invariants",
            // The five-pass suite must stay a required CI job with its
            // JSON artifact, and the TSan job is the lock-order pass's
            // dynamic cross-check.
            "xtask-lint",
            "lint-report.json",
            "-Zsanitizer=thread",
        ],
    )?;

    // Every tsdb module whose panic allowance is pinned to zero is also
    // a 0 allocs/op module: the panic DENY list marks the code that
    // must keep running while the disk fails, and that same code is
    // the storage hot path.
    for deny in panic_lint::DENY {
        if deny.starts_with("crates/tsdb/") && !alloc_lint::SCOPE.contains(deny) {
            errors.push(format!(
                "invariants: {deny} is panic-lint DENY but not covered by the \
                 allocation lint — add it to alloc_lint::SCOPE"
            ));
        }
    }

    // Every lock class the analyzer discovers must be documented in the
    // `### Lock classes` table of DESIGN.md's static-analysis section.
    {
        let rel = "DESIGN.md";
        let path = root.join(rel);
        let text = fs::read_to_string(&path)
            .map_err(|e| format!("invariants: read {}: {e}", path.display()))?;
        match text.find("### Lock classes") {
            None => errors.push(format!(
                "invariants: {rel} must contain a `### Lock classes` section"
            )),
            Some(at) => {
                let section = &text[at..];
                let section = section
                    .find("\n## ")
                    .map(|end| &section[..end])
                    .unwrap_or(section);
                for class in lock_classes {
                    if !section.contains(class.as_str()) {
                        errors.push(format!(
                            "invariants: lock class `{class}` is not documented in \
                             {rel}'s `### Lock classes` section"
                        ));
                    }
                }
            }
        }
    }
    Ok(errors)
}
