//! Unified `LintReport` for the six-pass suite, with machine-readable
//! JSON output for CI (hand-rolled serialisation — xtask stays
//! dependency-free) and `--fix-ratchet` allowlist regeneration.

use crate::{lock_order, panic_lint};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// One pass's outcome.
pub struct Pass {
    /// Pass name (`lock-order`, `alloc-lint`, `crash-order`,
    /// `panic-lint`, `conformance`, `dead-surface`).
    pub name: &'static str,
    /// Files scanned (0 for wiring-style passes that read fixed files).
    pub files: usize,
    /// Violations — non-empty fails the build.
    pub violations: Vec<String>,
    /// Findings excused by a ratchet allowlist.
    pub allowlisted: usize,
    /// Findings excused by an in-source annotation.
    pub annotated: usize,
    /// Informational lines (lock classes, edges, …).
    pub info: Vec<String>,
}

/// The whole suite's outcome.
pub struct LintReport {
    /// Per-pass results, in run order.
    pub passes: Vec<Pass>,
}

impl LintReport {
    /// All violations across passes, in pass order.
    pub fn violations(&self) -> Vec<String> {
        self.passes
            .iter()
            .flat_map(|p| p.violations.iter().cloned())
            .collect()
    }

    /// One summary line per pass (for terminal output).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for p in &self.passes {
            let _ = writeln!(
                out,
                "  {:<12} {:>3} file(s)  {:>2} violation(s)  {:>2} allowlisted  {:>2} annotated",
                p.name,
                p.files,
                p.violations.len(),
                p.allowlisted,
                p.annotated,
            );
        }
        out
    }

    /// Serialise for CI artifacts.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"version\": 1,\n  \"passes\": [\n");
        for (i, p) in self.passes.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"name\": {}, \"files\": {}, \"violations\": [",
                json_str(p.name),
                p.files
            );
            for (j, v) in p.violations.iter().enumerate() {
                let _ = write!(s, "{}{}", if j > 0 { ", " } else { "" }, json_str(v));
            }
            let _ = write!(
                s,
                "], \"allowlisted\": {}, \"annotated\": {}, \"info\": [",
                p.allowlisted, p.annotated
            );
            for (j, v) in p.info.iter().enumerate() {
                let _ = write!(s, "{}{}", if j > 0 { ", " } else { "" }, json_str(v));
            }
            let _ = writeln!(s, "]}}{}", if i + 1 < self.passes.len() { "," } else { "" });
        }
        let total: usize = self.passes.iter().map(|p| p.violations.len()).sum();
        let _ = write!(s, "  ],\n  \"total_violations\": {total}\n}}\n");
        s
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Rewrite both ratchet files to current finding counts. Allowances
/// only ever *shrink*: a count above the current allowance is a
/// violation to fix in source, not a ratchet to loosen, so it is left
/// for the lint to report. Zero-count entries are dropped.
pub fn fix_ratchets(root: &Path) -> Result<Vec<String>, String> {
    let mut changed = Vec::new();

    // Panic lint: `<path> <kind> <count>`.
    {
        let old = panic_lint::parse_allowlist(root)?;
        let actual = panic_lint::actual_counts(root)?;
        let mut lines: Vec<String> = Vec::new();
        for ((file, kind), allowance) in &old {
            let found = actual.get(&(file.clone(), *kind)).copied().unwrap_or(0);
            let new = (*allowance).min(found);
            if new > 0 {
                lines.push(format!("{file} {} {new}", kind.key()));
            }
        }
        write_ratchet(
            root,
            panic_lint::ALLOWLIST,
            "# Panic-lint ratchet: `<path> <kind> <count>`. Counts only shrink;\n\
             # regenerate with `cargo xtask lint --fix-ratchet` after cleanups.\n\
             # Kinds: unwrap | expect | panic | indexing. The delivery-critical\n\
             # modules (collect::{daemon,spool,consumer,codec}, broker::queue,\n\
             # the interner, tsdb::{block,shard}, the worker pool) are deny-listed\n\
             # by the lint itself and may never appear here. Every allowance below\n\
             # is simulator-internal (crates/simnode): constructor contract asserts\n\
             # and schema-derived lookups where a violation is a logic bug in the\n\
             # simulation, not a monitoring outage.",
            &lines,
            &mut changed,
        )?;
    }

    // Lock-order: `<path> <count>` of unclassifiable sites.
    {
        let old = lock_order::parse_allowlist(root)?;
        let analysis = lock_order::analyze(root)?;
        let mut actual: BTreeMap<String, usize> = BTreeMap::new();
        for (rel, _, _) in &analysis.unclassified {
            *actual.entry(rel.clone()).or_insert(0) += 1;
        }
        let mut lines: Vec<String> = Vec::new();
        for (file, allowance) in &old {
            let new = (*allowance).min(actual.get(file).copied().unwrap_or(0));
            if new > 0 {
                lines.push(format!("{file} {new}"));
            }
        }
        write_ratchet(
            root,
            lock_order::ALLOWLIST,
            "# Lock-order ratchet: `<path> <count>` of acquisition sites the\n\
             # analyzer cannot attribute to a lock class. Prefer annotating the\n\
             # site (`// lock-order: class=<Class>`); counts only shrink.",
            &lines,
            &mut changed,
        )?;
    }

    Ok(changed)
}

fn write_ratchet(
    root: &Path,
    rel: &str,
    header: &str,
    lines: &[String],
    changed: &mut Vec<String>,
) -> Result<(), String> {
    let mut text = String::from(header);
    text.push('\n');
    for l in lines {
        text.push_str(l);
        text.push('\n');
    }
    let path = root.join(rel);
    let old = std::fs::read_to_string(&path).unwrap_or_default();
    if old != text {
        std::fs::write(&path, &text).map_err(|e| format!("write {}: {e}", path.display()))?;
        changed.push(rel.to_string());
    }
    Ok(())
}

/// Total allowance currently granted by the panic-lint ratchet.
pub fn panic_allowance_total(root: &Path) -> Result<usize, String> {
    Ok(panic_lint::parse_allowlist(root)?.values().sum())
}
