//! Panic-freedom lint for the collection hot path.
//!
//! The daemon pipeline (sampling → spool → broker → consumer) runs
//! unattended on thousands of nodes; a panic there is a monitoring
//! outage (§III of the paper: the monitor must be *always on*). This
//! lint walks the hot-path crates and rejects panic-capable constructs
//! in non-test code: `unwrap`/`expect`, panicking macros, and unchecked
//! indexing (`debug_assert*` is fine — it compiles out of release).
//!
//! Intentional exceptions live in a checked-in allowlist
//! (`crates/xtask/panic-allowlist.txt`) with *ratchet* semantics:
//!
//! * a file with **more** findings than its allowance fails (new
//!   violations never land), and
//! * a file with **fewer** findings than its allowance also fails until
//!   the allowance is shrunk (progress is locked in; the allowlist can
//!   only shrink, never grow back silently).
//!
//! A hard deny-list covers the modules the pipeline's delivery
//! guarantees depend on — `collect::daemon`, `collect::spool`,
//! `broker::queue`, plus the consumer endpoint `collect::consumer`,
//! and the shared data-representation layer every
//! sample now rides: the interner (`simnode::intern`), the byte codec
//! (`collect::codec`), and the columnar block codec every stored point
//! round-trips through (`tsdb::block`) — with the tokenizer and the
//! integer writer that codec and the node side both read and write
//! through (`collect::tokens`, `simnode::digits`). The parallel
//! execution layer joins them: the scoped fan-out (`simnode::pool`)
//! runs under every fan-out site, and the shard layer (`tsdb::shard`)
//! routes every stored sample — a panic in the shard layer
//! poisons a lock and wedges the pipeline. Those may never appear in
//! the allowlist at all. The durability tier joins them: the virtual
//! disk (`tsdb::vfs`), the WAL and segment codecs (`tsdb::wal`,
//! `tsdb::segment`), and recovery itself (`tsdb::recover`) are the
//! code that must keep running — and keep its promises — while the
//! disk is actively failing, so a panic there turns an injected fault
//! into a crash loop. The streaming analysis engine
//! (`metrics::stream`, `metrics::sketch`) joins the deny tier too:
//! both run inside the consumer drain on every sample, so a panic
//! there takes the real-time analysis loop down with the pipeline.
//! Finally the portal's fused query engine (`portal::fused`) and the
//! watermark-keyed query cache (`portal::cache`) join the deny tier:
//! every interactive portal query crosses both, and the cache fronts
//! the whole query path — a panic there is a portal outage.

use crate::lexer::{scan, LintKind};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// Hot-path source trees (or single files) the lint walks
/// (workspace-relative).
pub const SCOPE: &[&str] = &[
    "crates/collect/src",
    "crates/broker/src",
    "crates/simnode/src",
    "crates/tsdb/src/block.rs",
    "crates/tsdb/src/shard.rs",
    "crates/tsdb/src/vfs.rs",
    "crates/tsdb/src/wal.rs",
    "crates/tsdb/src/segment.rs",
    "crates/tsdb/src/recover.rs",
    "crates/metrics/src/stream.rs",
    "crates/metrics/src/sketch.rs",
    "crates/portal/src/fused.rs",
    "crates/portal/src/cache.rs",
];

/// Modules whose allowance is pinned to zero: never allowlisted.
pub const DENY: &[&str] = &[
    "crates/collect/src/daemon.rs",
    "crates/collect/src/spool.rs",
    "crates/collect/src/consumer.rs",
    "crates/collect/src/seqs.rs",
    "crates/collect/src/codec.rs",
    "crates/collect/src/tokens.rs",
    "crates/broker/src/queue.rs",
    "crates/simnode/src/intern.rs",
    "crates/simnode/src/digits.rs",
    "crates/simnode/src/pool.rs",
    "crates/simnode/src/mem.rs",
    "crates/tsdb/src/block.rs",
    "crates/tsdb/src/shard.rs",
    "crates/tsdb/src/vfs.rs",
    "crates/tsdb/src/wal.rs",
    "crates/tsdb/src/segment.rs",
    "crates/tsdb/src/recover.rs",
    "crates/metrics/src/stream.rs",
    "crates/metrics/src/sketch.rs",
    "crates/portal/src/fused.rs",
    "crates/portal/src/cache.rs",
];

/// Workspace-relative path of the allowlist file.
pub const ALLOWLIST: &str = "crates/xtask/panic-allowlist.txt";

/// Run the panic-freedom lint from the workspace root. Returns the
/// list of violations (empty means the lint passes).
pub fn check(root: &Path) -> Result<Vec<String>, String> {
    let allowed = parse_allowlist(root)?;
    let mut errors = Vec::new();
    let actual = findings(root)?;

    let keys: std::collections::BTreeSet<(String, LintKind)> = actual
        .keys()
        .cloned()
        .chain(allowed.keys().cloned())
        .collect();
    for key in keys {
        let (file, kind) = &key;
        let found = actual.get(&key).map(Vec::len).unwrap_or(0);
        let allowance = allowed.get(&key).copied().unwrap_or(0);
        if found > allowance {
            let mut msg = format!(
                "panic-lint: {file}: {found} `{kind}` finding(s), allowance is {allowance}:"
            );
            for (line, excerpt) in actual.get(&key).into_iter().flatten() {
                let _ = write!(msg, "\n    {file}:{line}: {excerpt}");
            }
            errors.push(msg);
        } else if found < allowance {
            errors.push(format!(
                "panic-lint: {file}: allowance for `{kind}` is {allowance} but only \
                 {found} finding(s) remain — shrink {ALLOWLIST} (the ratchet only \
                 tightens)"
            ));
        }
    }
    Ok(errors)
}

/// Findings per `(file, kind)`: `(line, excerpt)` locations.
type FindingMap = BTreeMap<(String, LintKind), Vec<(usize, String)>>;

/// Scan the lint scope, returning findings per `(file, kind)` with
/// locations for reports.
fn findings(root: &Path) -> Result<FindingMap, String> {
    let mut actual: FindingMap = BTreeMap::new();
    for rel in crate::util::walk_scope(root, SCOPE, "panic-lint")? {
        let path = root.join(&rel);
        let source = fs::read_to_string(&path)
            .map_err(|e| format!("panic-lint: read {}: {e}", path.display()))?;
        for f in scan(&source) {
            actual
                .entry((rel.clone(), f.kind))
                .or_default()
                .push((f.line, f.excerpt));
        }
    }
    Ok(actual)
}

/// Current finding counts per `(file, kind)` — `--fix-ratchet` input.
pub(crate) fn actual_counts(root: &Path) -> Result<BTreeMap<(String, LintKind), usize>, String> {
    Ok(findings(root)?
        .into_iter()
        .map(|(k, v)| (k, v.len()))
        .collect())
}

/// Parse the allowlist: `<path> <kind> <count>` per line, `#` comments.
/// Deny-listed files, unknown kinds, duplicates, and paths outside the
/// lint scope are hard errors.
pub(crate) fn parse_allowlist(root: &Path) -> Result<BTreeMap<(String, LintKind), usize>, String> {
    let path = root.join(ALLOWLIST);
    let text = fs::read_to_string(&path)
        .map_err(|e| format!("panic-lint: read {}: {e}", path.display()))?;
    let mut allowed = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(file), Some(kind), Some(count), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(format!(
                "{ALLOWLIST}:{}: expected `<path> <kind> <count>`, got: {line}",
                lineno + 1
            ));
        };
        let kind = LintKind::from_key(kind)
            .ok_or_else(|| format!("{ALLOWLIST}:{}: unknown lint kind `{kind}`", lineno + 1))?;
        let count: usize = count
            .parse()
            .map_err(|_| format!("{ALLOWLIST}:{}: bad count `{count}`", lineno + 1))?;
        if count == 0 {
            return Err(format!(
                "{ALLOWLIST}:{}: zero allowance for {file} — delete the line",
                lineno + 1
            ));
        }
        if DENY.contains(&file) {
            return Err(format!(
                "{ALLOWLIST}:{}: {file} is deny-listed (hot-path delivery \
                 guarantee) and may never be allowlisted",
                lineno + 1
            ));
        }
        if !SCOPE.iter().any(|s| file.starts_with(s)) {
            return Err(format!(
                "{ALLOWLIST}:{}: {file} is outside the lint scope",
                lineno + 1
            ));
        }
        if allowed.insert((file.to_string(), kind), count).is_some() {
            return Err(format!(
                "{ALLOWLIST}:{}: duplicate entry for {file} {kind}",
                lineno + 1
            ));
        }
    }
    Ok(allowed)
}
