//! Dead-surface lint (pass 6 of `cargo xtask lint`).
//!
//! ROADMAP's standing rule: code with no caller is deleted. This pass
//! finds the first half of that mechanically — an unrestricted `pub fn`,
//! `pub const` or `pub static` in a runtime crate (`crates/*/src` except
//! `xtask`, plus the root `src/` without `src/bin`) that no *other*
//! `.rs` file uses. Names are matched as whole words on [`mask`]ed text,
//! so a comment, doc link or string does not count; a use in the
//! defining file (including its own `#[cfg(test)]` module) does not
//! count either, and neither do three shapes that name an item without
//! using it:
//!
//! * a same-named definition (`fn name`, `const NAME`, `mod name`, …):
//!   another file's `Shard::set_policy` does not keep `TsDb::set_policy`
//!   alive;
//! * a `pub use …;` re-export, which only passes the name on;
//! * a `Type::name` path whose `Type` is not the item's own: for an
//!   associated item of `impl SimClock`, `PopulationRunner::q4_2015` is
//!   another function, and a free item is never reached through a
//!   type. `Self::name`, module paths and method calls (`.name(`) carry
//!   no type the pass can read, so they count for every item so named.
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
//!
//! `--report` ([`module_report`]) looks one layer down and never fails:
//! it lists each module of a runtime crate whose users outside that
//! crate are all examples, tests or benches — a module that no other
//! crate's source, no root `src/` file and no `benchmark/src` file
//! reaches. A user is a file that names the module by path
//! (`tacc_<crate>::<module>` or `tacc_stats::<crate>::<module>`, use
//! groups included) or names an item the crate root re-exports from
//! it. Whether such a module should go is a human decision, so the
//! listing is input, not a verdict.

use crate::lexer::{excluded_spans, impl_spans, impl_type_at, mask, Lines};
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
/// name, the type of the `impl` block it sits in (`None` for a free
/// item) and 1-based line.
struct PubItem {
    kind: &'static str,
    name: String,
    owner: Option<String>,
    line: usize,
}

/// Unrestricted `pub fn` / `pub const` / `pub static` items outside
/// `#[cfg(test)]` spans of one masked file.
fn pub_items(masked: &str) -> Vec<PubItem> {
    let chars: Vec<char> = masked.chars().collect();
    let excluded = excluded_spans(masked);
    let impls = impl_spans(masked);
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
                    owner: impl_type_at(&impls, start).map(str::to_string),
                    line: lines.line_of(start),
                });
            }
        }
        i = next.max(start + 3);
    }
    items
}

/// Keywords after which a name is being defined, not used.
const DEFINING: &[&str] = &[
    "fn", "const", "static", "struct", "enum", "union", "trait", "type", "mod",
];

/// How one file uses a word: bare (unqualified, a method call, a module
/// path or `Self::word`), and through which `Type::word` types.
#[derive(Default)]
struct Uses<'a> {
    bare: bool,
    types: HashSet<&'a str>,
}

impl Uses<'_> {
    /// Whether these uses can reach an item of `impl owner` (`None`: a
    /// free item).
    fn reach(&self, owner: Option<&str>) -> bool {
        self.bare || owner.is_some_and(|t| self.types.contains(t))
    }
}

/// The uses of every word of one masked file, leaving out definitions
/// and `pub use` re-exports.
fn uses(masked: &str) -> HashMap<&str, Uses<'_>> {
    let toks = tokens(masked);
    let mut out: HashMap<&str, Uses> = HashMap::new();
    let mut i = 0;
    while i < toks.len() {
        let Tok::Ident(word) = toks[i] else {
            i += 1;
            continue;
        };
        if word == "pub" && toks.get(i + 1) == Some(&Tok::Ident("use")) {
            while i < toks.len() && toks[i] != Tok::Semi {
                i += 1;
            }
            continue;
        }
        let before = |k: usize| i.checked_sub(k).map(|j| &toks[j]);
        let defined = match before(1) {
            Some(Tok::Ident(kw)) => {
                DEFINING.contains(kw) || (*kw == "mut" && before(2) == Some(&Tok::Ident("static")))
            }
            _ => false,
        };
        if !defined {
            let uses = out.entry(word).or_default();
            match (before(1), before(2)) {
                (Some(Tok::Sep), Some(Tok::Ident(t)))
                    if *t != "Self" && t.starts_with(|c: char| c.is_ascii_uppercase()) =>
                {
                    uses.types.insert(t);
                }
                _ => uses.bare = true,
            }
        }
        i += 1;
    }
    out
}

/// Scan in-memory sources (workspace-relative path, text); returns
/// violations. `check` and the test suite share this.
pub fn scan_sources(files: &[(String, String)]) -> Vec<String> {
    let masked: Vec<String> = files.iter().map(|(_, text)| mask(text)).collect();
    let uses: Vec<HashMap<&str, Uses>> = masked.iter().map(|m| uses(m)).collect();
    let mut errors = Vec::new();
    for (at, ((rel, _), m)) in files.iter().zip(&masked).enumerate() {
        if !defines(rel) {
            continue;
        }
        for item in pub_items(m) {
            let used = uses.iter().enumerate().any(|(other, file)| {
                other != at
                    && file
                        .get(item.name.as_str())
                        .is_some_and(|u| u.reach(item.owner.as_deref()))
            });
            if !used {
                let within = item
                    .owner
                    .map_or(String::new(), |t| format!(" (in `impl {t}`)"));
                errors.push(format!(
                    "dead-surface: {rel}:{}: `pub {} {}`{within} is used in no other file — \
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

/// One token of a masked file, as far as paths need: an identifier or
/// one of `::`, `{`, `}`, `,`, `;`. Anything else ends a path.
#[derive(PartialEq)]
enum Tok<'a> {
    Ident(&'a str),
    Sep,
    Open,
    Close,
    Comma,
    Semi,
    Other,
}

/// Tokens of a masked file.
fn tokens(masked: &str) -> Vec<Tok<'_>> {
    let bytes = masked.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut toks = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        let start = i;
        i += 1;
        let tok = match b {
            _ if is_ident(b) => {
                while i < bytes.len() && is_ident(bytes[i]) {
                    i += 1;
                }
                Tok::Ident(&masked[start..i])
            }
            b':' if bytes.get(i) == Some(&b':') => {
                i += 1;
                Tok::Sep
            }
            b'{' => Tok::Open,
            b'}' => Tok::Close,
            b',' => Tok::Comma,
            b';' => Tok::Semi,
            _ if b.is_ascii_whitespace() => continue,
            _ => Tok::Other,
        };
        toks.push(tok);
    }
    toks
}

/// Flatten the path (or use tree) starting at `toks[i]` under `prefix`
/// into `out`; returns the index after it.
fn flatten<'a>(
    toks: &[Tok<'a>],
    mut i: usize,
    prefix: &mut Vec<&'a str>,
    out: &mut Vec<Vec<&'a str>>,
) -> usize {
    match toks.get(i) {
        Some(Tok::Ident(w)) => {
            prefix.push(w);
            i += 1;
            if toks.get(i) == Some(&Tok::Sep) {
                i = flatten(toks, i + 1, prefix, out);
            } else {
                out.push(prefix.clone());
            }
            prefix.pop();
        }
        Some(Tok::Open) => {
            i += 1;
            while let Some(t) = toks.get(i) {
                if *t == Tok::Close {
                    return i + 1;
                }
                let next = flatten(toks, i, prefix, out);
                i = match toks.get(next) {
                    Some(Tok::Comma) => next + 1,
                    Some(Tok::Close) => return next + 1,
                    _ => return next.max(i + 1),
                };
            }
        }
        _ => out.push(prefix.clone()),
    }
    i
}

/// Paths in a masked file that start at `toks[i]` for every `i` where
/// `start(i)` holds, flattened (use groups expanded).
fn paths_from<'a>(toks: &[Tok<'a>], start: impl Fn(usize) -> bool) -> Vec<Vec<&'a str>> {
    let mut out = Vec::new();
    for i in (0..toks.len()).filter(|&i| start(i)) {
        flatten(toks, i, &mut Vec::new(), &mut out);
    }
    out
}

/// `(crate, name)` for every path a masked file roots at `tacc_<crate>`
/// or at `tacc_stats::<crate>`: `name` is the segment after the crate.
fn crate_refs(masked: &str) -> HashSet<(String, String)> {
    let toks = tokens(masked);
    let roots = |i: usize| {
        matches!(toks[i], Tok::Ident(w) if w.starts_with("tacc_"))
            && (i == 0 || toks[i - 1] != Tok::Sep)
    };
    let mut refs = HashSet::new();
    for path in paths_from(&toks, roots) {
        let segs = match path.as_slice() {
            ["tacc_stats", rest @ ..] => rest.to_vec(),
            [root, rest @ ..] => [&[&root["tacc_".len()..]], rest].concat(),
            [] => continue,
        };
        if let [krate, name, ..] = segs.as_slice() {
            refs.insert((krate.to_string(), name.to_string()));
        }
    }
    refs
}

/// Whether a user file is production code: another crate's `src`, the
/// root `src/` or `benchmark/src` (not an example, test or bench).
fn is_production(rel: &str) -> bool {
    if let Some(rest) = rel.strip_prefix("crates/") {
        return rest.split('/').nth(1) == Some("src");
    }
    rel.starts_with("src/") || rel.starts_with("benchmark/src/")
}

/// Modules of runtime crates whose only users outside their own crate
/// are examples, tests or benches, each with those users, sorted.
///
/// A module is a `mod m` of `crates/<k>/src/lib.rs`. A file names it
/// by path (`tacc_<k>::m…`), or through an item `lib.rs` re-exports
/// from it (`pub use m::Item` makes `tacc_<k>::Item` a use of `m`). A
/// module no file outside its crate names is not listed: it is internal,
/// and rustc's `dead_code` covers it.
pub fn module_report_sources(files: &[(String, String)]) -> Vec<(String, Vec<String>)> {
    // (crate, name) → module: each module names itself, and each root
    // re-export names the module it comes from.
    let mut resolve: HashMap<(String, String), String> = HashMap::new();
    for (rel, text) in files {
        let Some(krate) = rel
            .strip_prefix("crates/")
            .and_then(|r| r.strip_suffix("/src/lib.rs"))
            .filter(|k| !k.contains('/') && *k != "xtask")
        else {
            continue;
        };
        // Test modules are not modules of the crate: blank them.
        let masked = mask(text);
        let excluded = excluded_spans(&masked);
        let live: String = masked
            .chars()
            .enumerate()
            .map(|(i, c)| {
                let in_test = excluded.iter().any(|&(a, b)| i >= a && i < b);
                if in_test {
                    ' '
                } else {
                    c
                }
            })
            .collect();
        let toks = tokens(&live);
        let mut modules = HashSet::new();
        for pair in toks.windows(2) {
            if let [Tok::Ident("mod"), Tok::Ident(m)] = pair {
                modules.insert(m.to_string());
            }
        }
        let reexports = |i: usize| {
            i >= 2 && toks[i - 2] == Tok::Ident("pub") && toks[i - 1] == Tok::Ident("use")
        };
        for path in paths_from(&toks, reexports) {
            let path = match path.as_slice() {
                ["crate" | "self", rest @ ..] => rest,
                rest => rest,
            };
            if let ([m, ..], Some(item)) = (path, path.get(1..).and_then(<[_]>::last)) {
                if modules.contains(*m) {
                    resolve.insert((krate.to_string(), item.to_string()), m.to_string());
                }
            }
        }
        for m in modules {
            resolve.insert((krate.to_string(), m.clone()), m);
        }
    }
    // (crate, module) → (users outside the crate, any of them production).
    let mut users: HashMap<(String, String), (Vec<String>, bool)> = HashMap::new();
    for (rel, text) in files {
        let mut named = HashSet::new();
        for (krate, name) in crate_refs(&mask(text)) {
            if rel.starts_with(&format!("crates/{krate}/")) {
                continue;
            }
            if let Some(m) = resolve.get(&(krate.clone(), name)) {
                named.insert((krate, m.clone()));
            }
        }
        for key in named {
            let entry = users.entry(key).or_default();
            entry.0.push(rel.clone());
            entry.1 |= is_production(rel);
        }
    }
    let mut report: Vec<(String, Vec<String>)> = users
        .into_iter()
        .filter(|(_, (_, production))| !production)
        .map(|((krate, m), (mut files, _))| {
            files.sort();
            (format!("{krate}::{m}"), files)
        })
        .collect();
    report.sort();
    report
}

/// [`module_report_sources`] over the workspace at `root`.
pub fn module_report(root: &Path) -> Result<Vec<(String, Vec<String>)>, String> {
    Ok(module_report_sources(&read_scope(
        root,
        SCOPE,
        "dead-surface",
    )?))
}
