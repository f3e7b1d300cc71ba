//! Workspace wiring invariants.
//!
//! These checks keep the verification infrastructure itself from
//! rotting: the `cargo xtask` alias must stay wired; the broker keeps
//! the guards that stand in for a concurrency model — `compile_fail`
//! doctests that reject sending a `Broker` or `Consumer` to another
//! thread, and the op-sequence property over its queues, which CI
//! also runs with more cases; CI keeps the one performance record
//! (the hot-loop bench `hot_paths` with its JSON artifact, the system
//! benchmark's quick run, and the allocation invariants tier-1
//! enforces in `tests/alloc_invariants.rs`) and runs the nightly
//! ThreadSanitizer job over `tacc-simnode`, where the remaining
//! threads and shared locks are; and DESIGN.md's lock-class table
//! must be the graph the lock-order pass certifies.

use crate::{alloc_lint, panic_lint};
use std::fs;
use std::path::Path;

/// Run the wiring checks. `lock_classes` and `lock_edges` are the
/// lock-order analyzer's discovered classes and hold-while-acquiring
/// edges — DESIGN.md's `### Lock classes` table must list exactly
/// those. Returns violations (empty = pass).
pub fn check(
    root: &Path,
    lock_classes: &[String],
    lock_edges: &[(String, String)],
) -> Result<Vec<String>, String> {
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
    expect("crates/broker/src/lib.rs", &["```compile_fail,E0277"])?;
    expect(
        "crates/broker/tests/queue_props.rs",
        &[
            "proptest!",
            "fn op_sequences_keep_the_broker_accounting_exact",
        ],
    )?;
    expect(
        ".github/workflows/ci.yml",
        &[
            "cargo xtask lint",
            "--test queue_props",
            "--bench hot_paths",
            "BENCH_hot_paths.json",
            "benchmark/Cargo.toml -- --quick",
            "--test alloc_invariants",
            // The six-pass suite must stay a required CI job with its
            // JSON artifact, and the TSan job is the lock-order pass's
            // dynamic cross-check, run where the threads are.
            "xtask-lint",
            "lint-report.json",
            "-Zsanitizer=thread",
            "--target x86_64-unknown-linux-gnu -p tacc-simnode",
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

    let path = root.join("DESIGN.md");
    let design = fs::read_to_string(&path)
        .map_err(|e| format!("invariants: read {}: {e}", path.display()))?;
    errors.extend(lock_class_table(&design, lock_classes, lock_edges));
    Ok(errors)
}

/// Check DESIGN.md's `### Lock classes` table against the analyzer,
/// both ways. Its first column must be the discovered classes and its
/// "Held while acquiring" column (the classes named there, or `—`) the
/// discovered edges: a class or edge missing from the table is an
/// error, and so is a listed one the analyzer no longer finds.
fn lock_class_table(
    design: &str,
    lock_classes: &[String],
    lock_edges: &[(String, String)],
) -> Vec<String> {
    let Some(at) = design.find("### Lock classes") else {
        return vec!["invariants: DESIGN.md must contain a `### Lock classes` section".into()];
    };
    let section = &design[at..];
    let section = section.find("\n## ").map_or(section, |end| &section[..end]);
    let mut listed: Vec<&str> = Vec::new();
    let mut listed_edges: Vec<(&str, &str)> = Vec::new();
    for line in section.lines() {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        let (Some(class), Some(held)) = (cells.get(1), cells.get(3)) else {
            continue;
        };
        let Some(class) = class.strip_prefix('`').and_then(|c| c.strip_suffix('`')) else {
            continue;
        };
        listed.push(class);
        // Backticked names sit at the odd positions of a '`' split.
        listed_edges.extend(held.split('`').skip(1).step_by(2).map(|to| (class, to)));
    }
    let mut errors = Vec::new();
    for class in lock_classes {
        if !listed.contains(&class.as_str()) {
            errors.push(format!(
                "invariants: lock class `{class}` is not listed in \
                 DESIGN.md's `### Lock classes` table"
            ));
        }
    }
    for class in listed {
        if !lock_classes.iter().any(|c| c == class) {
            errors.push(format!(
                "invariants: DESIGN.md's `### Lock classes` table lists `{class}`, \
                 which the lock-order analyzer does not find"
            ));
        }
    }
    for (from, to) in lock_edges {
        if !listed_edges.contains(&(from.as_str(), to.as_str())) {
            errors.push(format!(
                "invariants: lock-order edge `{from}` → `{to}` is not listed in \
                 DESIGN.md's `### Lock classes` table (\"Held while acquiring\")"
            ));
        }
    }
    for (from, to) in listed_edges {
        if !lock_edges.iter().any(|(a, b)| a == from && b == to) {
            errors.push(format!(
                "invariants: DESIGN.md's `### Lock classes` table lists the edge \
                 `{from}` → `{to}`, which the lock-order analyzer does not find"
            ));
        }
    }
    errors
}
