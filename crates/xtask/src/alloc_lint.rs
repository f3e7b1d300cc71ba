//! Hot-path allocation lint (pass 2 of `cargo xtask lint`).
//!
//! The steady-state pipeline runs at **0 allocs/op**: the byte codec
//! (`collect::codec`), the columnar block codec and shard read path
//! (`tsdb::block`, `tsdb::shard`), and the WAL frame scan and segment
//! codec (`tsdb::wal`, `tsdb::segment`, `tsdb::vfs`). An allocation
//! that creeps into one of those modules silently converts a measured
//! invariant into a regression that is only caught later, on a loaded
//! machine. This pass deny-lists those
//! modules and flags allocation *constructs* syntactically —
//! constructor paths (`Vec::new`, `String::from`, `Box::new`, …),
//! allocating method calls (`.clone()`, `.collect()`, `.to_vec()`, …),
//! and the `format!`/`vec!` macros. The streaming analysis hot path
//! (`metrics::stream`, `metrics::sketch`) is held to the same bar, and
//! so are the portal's fused Fig. 4 scan (`portal::fused`) and query
//! cache (`portal::cache`): `tests/alloc_invariants.rs` asserts a
//! steady-state flag or sketch update, the fused scan, a warm
//! cache hit and sealed-block reads (in-memory and recovered) at 0
//! allocations in tier-1. So does the node side of a collection — the
//! pseudo-file renderers (`simnode::pseudofs`), the collectors and the
//! sampler (`collect::collectors`, `collect::engine`), with the
//! tokenizer and the integer writer both sides of that path read and
//! write through (`collect::tokens`, `simnode::digits`):
//! `crates/collect/tests/collect_parse_props.rs` holds
//! `Sampler::sample_into` at 0 allocations (as does the hot loop behind
//! `BENCH_hot_paths.json`). And the consumer side of the same path
//! (`collect::consumer` over the decoder in `collect::codec`):
//! `crates/collect/tests/decode_props.rs` holds a steady-state
//! `StatsConsumer::poll_with` at 0 allocations per message. The
//! simulated substrate under all of it joins them: a warm
//! `SimNode::advance` (`simnode::node` over `simnode::devices`) is held
//! at 0 allocations by `tests/alloc_invariants.rs`.
//!
//! Cold paths inside a hot module (error formatting, constructors,
//! recovery) are annotated in the source rather than allowlisted in a
//! side file, so the exemption sits next to the code it excuses:
//!
//! * `// alloc: cold (<why>)` — exempts its own line (trailing) or the
//!   next code line (comment-only line);
//! * `// alloc: cold-fn (<why>)` — exempts the function that starts on
//!   the next code line;
//! * `// alloc: cold-module (<why>)` — exempts the whole file (used by
//!   `tsdb::recover`: recovery is a startup path, not a hot path).
//!
//! The `(<why>)` is mandatory — an exemption without a reason fails
//! the pass. Annotated findings are still counted and reported in the
//! `LintReport` so drift stays visible.
//!
//! Deliberately **not** flagged: `Arc::clone(&x)` (refcount bump — and
//! the idiomatic replacement for a flagged `.clone()` on an `Arc`),
//! and `BytesMut::new()` (allocates nothing until first write).

use crate::lexer::{excluded_spans, item_fns, mask, method_call_sites, Lines};
use crate::util::read_scope;
use std::fmt::Write as _;
use std::path::Path;

/// Modules benchmarked at 0 allocs/op (workspace-relative). All are
/// deny: a new allocation is a violation unless annotated cold.
pub const SCOPE: &[&str] = &[
    "crates/collect/src/codec.rs",
    "crates/collect/src/collectors.rs",
    "crates/collect/src/consumer.rs",
    "crates/collect/src/engine.rs",
    "crates/collect/src/seqs.rs",
    "crates/collect/src/tokens.rs",
    "crates/simnode/src/devices.rs",
    "crates/simnode/src/digits.rs",
    "crates/simnode/src/mem.rs",
    "crates/simnode/src/node.rs",
    "crates/simnode/src/pseudofs.rs",
    "crates/tsdb/src/block.rs",
    "crates/tsdb/src/shard.rs",
    "crates/tsdb/src/wal.rs",
    "crates/tsdb/src/segment.rs",
    "crates/tsdb/src/vfs.rs",
    "crates/tsdb/src/recover.rs",
    "crates/metrics/src/stream.rs",
    "crates/metrics/src/sketch.rs",
    "crates/portal/src/fused.rs",
    "crates/portal/src/cache.rs",
];

/// Allocating zero-argument method calls.
const ALLOC_METHODS: &[&str] = &[
    "clone",
    "collect",
    "to_vec",
    "to_string",
    "to_owned",
    "into_bytes",
];

/// Allocating constructor paths (`Type::method`).
const ALLOC_PATHS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("String", "new"),
    ("String", "from"),
    ("String", "with_capacity"),
    ("Box", "new"),
    ("Arc", "new"),
    ("Rc", "new"),
    ("HashMap", "new"),
    ("BTreeMap", "new"),
    ("VecDeque", "new"),
    ("HashSet", "new"),
    ("BTreeSet", "new"),
];

/// Allocating macros.
const ALLOC_MACROS: &[&str] = &["format", "vec"];

/// One allocation construct found in a hot module.
pub struct AllocFinding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// The construct (`.clone()`, `Vec::new`, `format!`).
    pub what: String,
    /// Trimmed source line.
    pub excerpt: String,
    /// Covered by an `// alloc: cold*` annotation.
    pub cold: bool,
}

/// Pass output: findings plus annotation-syntax errors.
pub struct AllocReport {
    /// Every construct found (cold and hot).
    pub findings: Vec<AllocFinding>,
    /// Malformed annotations (missing reason, unknown form).
    pub errors: Vec<String>,
}

impl AllocReport {
    /// Findings not excused by a cold annotation.
    pub fn violations(&self) -> impl Iterator<Item = &AllocFinding> {
        self.findings.iter().filter(|f| !f.cold)
    }
}

/// Cold spans for one file: exempt whole file, line set, fn spans.
struct ColdMap {
    whole_file: bool,
    lines: Vec<usize>,
    fn_spans: Vec<(usize, usize)>, // char spans
}

fn parse_cold(rel: &str, raw_lines: &[String], masked: &str, errors: &mut Vec<String>) -> ColdMap {
    let fns = item_fns(masked);
    let line_index = Lines::new(masked);
    let mut map = ColdMap {
        whole_file: false,
        lines: Vec::new(),
        fn_spans: Vec::new(),
    };
    for (i, line) in raw_lines.iter().enumerate() {
        let Some(at) = line.find("// alloc:") else {
            continue;
        };
        let text = line[at + "// alloc:".len()..].trim();
        let (form, rest) = text
            .split_once(' ')
            .map(|(a, b)| (a, b.trim()))
            .unwrap_or((text, ""));
        if !(rest.starts_with('(') && rest.ends_with(')') && rest.len() > 2) {
            errors.push(format!(
                "alloc-lint: {rel}:{}: cold annotation needs a reason: \
                 `// alloc: {form} (<why>)`",
                i + 1
            ));
            continue;
        }
        let own_line = !line.trim_start().starts_with("//");
        // The code line the annotation governs.
        let target = if own_line {
            i + 1
        } else {
            let mut t = i + 1;
            while t < raw_lines.len() && raw_lines[t].trim_start().starts_with("//") {
                t += 1;
            }
            t + 1
        };
        match form {
            "cold" => map.lines.push(target),
            "cold-fn" => {
                // Exempt the innermost fn starting at/after the target
                // line (the annotation sits above the signature).
                let f = fns
                    .iter()
                    .filter(|f| line_index.line_of(f.start) >= target)
                    .min_by_key(|f| f.start);
                match f {
                    Some(f) => map.fn_spans.push(f.body),
                    None => errors.push(format!(
                        "alloc-lint: {rel}:{}: cold-fn annotation has no following fn",
                        i + 1
                    )),
                }
            }
            "cold-module" => map.whole_file = true,
            other => errors.push(format!(
                "alloc-lint: {rel}:{}: unknown annotation form `{other}` \
                 (expected cold, cold-fn, or cold-module)",
                i + 1
            )),
        }
    }
    map
}

/// Scan in-memory sources. `check` and the test suite share this.
pub fn scan_sources(files: &[(String, String)]) -> AllocReport {
    let mut findings = Vec::new();
    let mut errors = Vec::new();
    for (rel, text) in files {
        let masked = mask(text);
        let excluded = excluded_spans(&masked);
        let raw_lines: Vec<String> = text.lines().map(str::to_string).collect();
        let cold = parse_cold(rel, &raw_lines, &masked, &mut errors);
        let lines = Lines::new(&masked);
        let chars: Vec<char> = masked.chars().collect();
        let in_excluded = |pos: usize| excluded.iter().any(|(s, e)| pos >= *s && pos < *e);
        let is_cold = |pos: usize, line: usize| {
            cold.whole_file
                || cold.lines.contains(&line)
                || cold.fn_spans.iter().any(|(s, e)| pos >= *s && pos <= *e)
        };
        let mut push = |pos: usize, what: String| {
            if in_excluded(pos) {
                return;
            }
            let line = lines.line_of(pos);
            findings.push(AllocFinding {
                file: rel.clone(),
                line,
                what,
                excerpt: raw_lines
                    .get(line.saturating_sub(1))
                    .map(|l| l.trim().chars().take(90).collect())
                    .unwrap_or_default(),
                cold: is_cold(pos, line),
            });
        };

        // Allocating method calls — zero-argument only, so
        // `.clone_from(&x)` or a user `collect(into)` never match.
        for site in method_call_sites(&masked, ALLOC_METHODS, true) {
            // `Arc::clone(&x)` never reaches here (path call, not a
            // method call); `arc.clone()` does and is flagged — the
            // fix is to spell the refcount bump `Arc::clone`.
            push(site.pos, format!(".{}()", site.method));
        }

        // Constructor paths and macros, by token walk.
        let n = chars.len();
        let mut i = 0;
        while i < n {
            let c = chars[i];
            if !is_word(c) || c.is_ascii_digit() || (i != 0 && is_word(chars[i - 1])) {
                i += 1;
                continue;
            }
            let s = i;
            while i < n && is_word(chars[i]) {
                i += 1;
            }
            let word: String = chars[s..i].iter().collect();
            // Macro?
            if i < n && chars[i] == '!' && ALLOC_MACROS.contains(&word.as_str()) {
                push(s, format!("{word}!"));
                continue;
            }
            // Path constructor? `Type::method` with `Type` not itself
            // path-qualified further left is enough — `std::vec::Vec`
            // still ends in `Vec::new`.
            if s >= 2 && chars[s - 1] == ':' && chars[s - 2] == ':' {
                let mut q = s - 2;
                while q > 0 && chars[q - 1].is_whitespace() {
                    q -= 1;
                }
                let te = q;
                let mut ts = q;
                while ts > 0 && is_word(chars[ts - 1]) {
                    ts -= 1;
                }
                let ty: String = chars[ts..te].iter().collect();
                if ALLOC_PATHS
                    .iter()
                    .any(|(t, m)| *t == ty && *m == word.as_str())
                {
                    push(ts, format!("{ty}::{word}"));
                }
            }
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    AllocReport { findings, errors }
}

fn is_word(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Full pass against the workspace: violations are hot findings plus
/// annotation errors. Returns `(violations, report)`.
pub fn check(root: &Path) -> Result<(Vec<String>, AllocReport), String> {
    let files = read_scope(root, SCOPE, "alloc-lint")?;
    let report = scan_sources(&files);
    let mut errors = report.errors.clone();
    let mut hot: std::collections::BTreeMap<&str, Vec<&AllocFinding>> = Default::default();
    for f in report.violations() {
        hot.entry(&f.file).or_default().push(f);
    }
    for (file, fs) in hot {
        let mut msg = format!(
            "alloc-lint: {file}: {} allocation construct(s) in a 0 allocs/op module \
             — restructure, or annotate a genuinely cold site with `// alloc: cold (<why>)`:",
            fs.len()
        );
        for f in fs {
            let _ = write!(msg, "\n    {file}:{}: {} — {}", f.line, f.what, f.excerpt);
        }
        errors.push(msg);
    }
    Ok((errors, report))
}
