//! `cargo xtask` — workspace static-analysis suite for the TACC Stats
//! reproduction.
//!
//! Six passes, run by `cargo xtask lint` (DESIGN.md §13):
//!
//! 1. **lock-order** ([`lock_order`]): extract every `.lock()` /
//!    `.read()` / `.write()` acquisition across every runtime crate,
//!    attribute each to a named lock class, and certify the
//!    may-hold-while-acquiring graph cycle-free;
//! 2. **alloc-lint** ([`alloc_lint`]): the modules benchmarked at
//!    0 allocs/op must not grow allocation constructs outside
//!    annotated cold sites;
//! 3. **crash-order** ([`crash_order`]): the WAL → segment → seal
//!    write order PR 6 proved dynamically is enforced syntactically;
//! 4. **panic-lint** ([`panic_lint`]): the collection hot path must
//!    not contain panic-capable constructs, modulo a ratchet;
//! 5. **conformance** ([`conformance`] + [`invariants`]): schema ↔
//!    metric agreement plus workspace wiring (CI jobs, the broker's
//!    `!Send` guards, lock classes and edges documented in DESIGN.md);
//! 6. **dead-surface** ([`dead_surface`]): an unrestricted `pub fn` /
//!    `pub const` / `pub static` of a runtime crate must be used in
//!    some other file.
//!
//! The suite produces a unified [`report::LintReport`] with JSON
//! output for CI (`--json`) and ratchet regeneration
//! (`--fix-ratchet`). The checker runs as a plain workspace binary
//! (the `xtask` pattern), so it needs no external tooling and
//! versions with the code it lints.
//!
//! `cargo xtask ab` ([`ab`]) is the other command: A/B pairs of the
//! system benchmark, base revision against the working tree, with a
//! sign-test verdict per end-to-end metric.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ab;
pub mod alloc_lint;
pub mod conformance;
pub mod crash_order;
pub mod dead_surface;
pub mod invariants;
pub mod json;
pub mod lexer;
pub mod lock_order;
pub mod panic_lint;
pub mod report;
mod util;

use report::{LintReport, Pass};
use std::path::{Path, PathBuf};

/// Workspace root, assuming the canonical `crates/xtask` location.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Run the full six-pass suite against `root`. `Err` means a pass
/// could not run at all (missing file, bad allowlist syntax), which is
/// just as fatal as a violation.
pub fn run_report(root: &Path) -> Result<LintReport, String> {
    let mut passes = Vec::new();

    // Pass 1: lock-order.
    let (violations, analysis) = lock_order::check(root)?;
    let allowlisted: usize = lock_order::parse_allowlist(root)?.values().sum();
    let mut info = vec![
        format!("{} lock class(es)", analysis.classes.len()),
        format!("{} hold-while-acquiring edge(s)", analysis.edges.len()),
    ];
    info.extend(analysis.classes.iter().map(|c| format!("class {c}")));
    info.extend(
        analysis
            .edges
            .iter()
            .map(|(a, b)| format!("edge {a} → {b}")),
    );
    passes.push(Pass {
        name: "lock-order",
        files: count_files(root, &lock_order::scope(root)?)?,
        violations,
        allowlisted: allowlisted.min(analysis.unclassified.len()),
        annotated: 0,
        info,
    });

    // Pass 2: alloc-lint.
    let (violations, alloc) = alloc_lint::check(root)?;
    passes.push(Pass {
        name: "alloc-lint",
        files: count_files(root, alloc_lint::SCOPE)?,
        violations,
        allowlisted: 0,
        annotated: alloc.findings.iter().filter(|f| f.cold).count(),
        info: vec![format!(
            "{} allocation construct(s) found ({} annotated cold)",
            alloc.findings.len(),
            alloc.findings.iter().filter(|f| f.cold).count()
        )],
    });

    // Pass 3: crash-order.
    passes.push(Pass {
        name: "crash-order",
        files: count_files(root, crash_order::SCOPE)?,
        violations: crash_order::check(root)?,
        allowlisted: 0,
        annotated: 0,
        info: Vec::new(),
    });

    // Pass 4: panic-lint.
    passes.push(Pass {
        name: "panic-lint",
        files: count_files(root, panic_lint::SCOPE)?,
        violations: panic_lint::check(root)?,
        allowlisted: report::panic_allowance_total(root)?,
        annotated: 0,
        info: Vec::new(),
    });

    // Pass 5: conformance + wiring invariants (which consume the lock
    // classes and edges pass 1 discovered).
    let mut violations = conformance::check(root)?;
    violations.extend(invariants::check(root, &analysis.classes, &analysis.edges)?);
    passes.push(Pass {
        name: "conformance",
        files: 0,
        violations,
        allowlisted: 0,
        annotated: 0,
        info: Vec::new(),
    });

    // Pass 6: dead-surface.
    passes.push(Pass {
        name: "dead-surface",
        files: dead_surface::defining_files(root)?,
        violations: dead_surface::check(root)?,
        allowlisted: 0,
        annotated: 0,
        info: Vec::new(),
    });

    Ok(LintReport { passes })
}

/// Run every lint family against `root`, returning the flattened
/// violation list (the pre-report interface; the selftest and external
/// callers keep working).
pub fn run_lint(root: &Path) -> Result<Vec<String>, String> {
    Ok(run_report(root)?.violations())
}

fn count_files(root: &Path, scope: &[impl AsRef<str>]) -> Result<usize, String> {
    Ok(util::walk_scope(root, scope, "lint")?.len())
}
