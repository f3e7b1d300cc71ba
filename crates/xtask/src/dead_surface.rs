//! Dead-surface lint (pass 6 of `cargo xtask lint`).
//!
//! ROADMAP's standing rule: code with no caller is deleted. This pass
//! finds the first half of that mechanically — an unrestricted `pub fn`,
//! `pub const` or `pub static` in a runtime crate (`crates/*/src` except
//! `xtask`, plus the root `src/` without `src/bin`) whose name appears
//! as a whole word in no *other* `.rs` file. Names are matched on
//! [`mask`]ed text, so a comment, doc link or string does not count; a
//! use in the defining file (including its own `#[cfg(test)]` module)
//! does not count either.
//!
//! References are counted everywhere code can reach the item from
//! outside its file: all of `crates/` (so `crates/xtask` and every
//! `crates/*/tests`), the root `src/`, `tests/`, `benches/`,
//! `examples/`, and `benchmark/src` — the frozen measured surface keeps
//! its own entries alive.
//!
//! The finding is only ever "this is `pub` for nobody", and the fix is
//! always to drop the `pub`. The pass does no reachability analysis:
//! once the item is private, rustc's `dead_code` decides, transitively
//! and exactly, whether anything still calls it. Items already
//! `pub(crate)` / `pub(super)` / `pub(in …)` are left to rustc, and so
//! are types and traits, whose `pub` a live signature may need
//! (`private_interfaces`).

use crate::lexer::{excluded_spans, mask, Lines};
use crate::util::read_scope;
use std::collections::{HashMap, HashSet};
use std::path::Path;

/// Trees whose files count as reference sites (workspace-relative).
pub const SCOPE: &[&str] = &[
    "crates",
    "src",
    "tests",
    "benches",
    "examples",
    "benchmark/src",
];

/// Whether `rel` defines items the pass checks: runtime crate sources
/// and the root library, not the lint crate and not the CLI binary.
fn defines(rel: &str) -> bool {
    if let Some(rest) = rel.strip_prefix("crates/") {
        let mut parts = rest.splitn(3, '/');
        let (krate, dir) = (parts.next(), parts.next());
        return krate != Some("xtask") && dir == Some("src") && parts.next().is_some();
    }
    rel.starts_with("src/") && !rel.starts_with("src/bin/")
}

/// One unrestricted `pub` item: its kind (`fn`, `const`, `static`),
/// name and 1-based line.
struct PubItem {
    kind: &'static str,
    name: String,
    line: usize,
}

/// Unrestricted `pub fn` / `pub const` / `pub static` items outside
/// `#[cfg(test)]` spans of one masked file.
fn pub_items(masked: &str) -> Vec<PubItem> {
    let chars: Vec<char> = masked.chars().collect();
    let excluded = excluded_spans(masked);
    let lines = Lines::new(masked);
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let word_at = |mut i: usize| -> (String, usize) {
        while i < chars.len() && chars[i].is_whitespace() {
            i += 1;
        }
        let start = i;
        while i < chars.len() && is_ident(chars[i]) {
            i += 1;
        }
        (chars[start..i].iter().collect(), i)
    };
    let mut items = Vec::new();
    let mut i = 0;
    while i + 3 <= chars.len() {
        let at_pub = chars[i..i + 3] == ['p', 'u', 'b']
            && (i == 0 || !is_ident(chars[i - 1]))
            && chars.get(i + 3).is_none_or(|&c| !is_ident(c));
        if !at_pub || excluded.iter().any(|&(a, b)| i >= a && i < b) {
            i += 1;
            continue;
        }
        let start = i;
        // `pub(crate)` and friends read as an empty word: rustc's job.
        // The workspace has no `unsafe`, `async` or `extern` fns, so
        // `const` is the only qualifier before `fn`.
        let (word, mut next) = word_at(i + 3);
        let kind = match word.as_str() {
            "fn" => Some("fn"),
            "static" => Some("static"),
            "const" => match word_at(next) {
                (after, after_next) if after == "fn" => {
                    next = after_next;
                    Some("fn")
                }
                _ => Some("const"),
            },
            _ => None,
        };
        if let Some(kind) = kind {
            let (mut name, after) = word_at(next);
            if kind == "static" && name == "mut" {
                name = word_at(after).0;
            }
            if !name.is_empty() && name != "_" {
                items.push(PubItem {
                    kind,
                    name,
                    line: lines.line_of(start),
                });
            }
        }
        i = next.max(start + 3);
    }
    items
}

/// Whole-word identifiers of one masked file.
fn words(masked: &str) -> HashSet<&str> {
    masked
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
        .collect()
}

/// Scan in-memory sources (workspace-relative path, text); returns
/// violations. `check` and the test suite share this.
pub fn scan_sources(files: &[(String, String)]) -> Vec<String> {
    let masked: Vec<String> = files.iter().map(|(_, text)| mask(text)).collect();
    // For each word, the number of files it appears in.
    let mut files_naming: HashMap<&str, usize> = HashMap::new();
    for m in &masked {
        for w in words(m) {
            *files_naming.entry(w).or_insert(0) += 1;
        }
    }
    let mut errors = Vec::new();
    for ((rel, _), m) in files.iter().zip(&masked) {
        if !defines(rel) {
            continue;
        }
        for item in pub_items(m) {
            // The defining file names it once; any other file makes two.
            if files_naming.get(item.name.as_str()).copied().unwrap_or(0) < 2 {
                errors.push(format!(
                    "dead-surface: {rel}:{}: `pub {} {}` is named in no other file — \
                     drop the `pub` (rustc's dead_code then says whether it has a caller)",
                    item.line, item.kind, item.name
                ));
            }
        }
    }
    errors
}

/// Number of files whose `pub` items the pass checks.
pub fn defining_files(root: &Path) -> Result<usize, String> {
    Ok(crate::util::walk_scope(root, SCOPE, "dead-surface")?
        .iter()
        .filter(|rel| defines(rel))
        .count())
}

/// Run the pass from the workspace root.
pub fn check(root: &Path) -> Result<Vec<String>, String> {
    Ok(scan_sources(&read_scope(root, SCOPE, "dead-surface")?))
}
