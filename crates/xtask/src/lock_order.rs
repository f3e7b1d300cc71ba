//! Lock-order deadlock analysis (pass 1 of `cargo xtask lint`).
//!
//! The runtime takes `Mutex`/`RwLock` guards in a handful of modules
//! across its crates; the pass reads every runtime crate's `src` and
//! the root `src/` ([`scope`]). A deadlock needs two locks
//! acquired in opposite orders on two threads — so the pass extracts
//! every `.lock()` / `.read()` / `.write()` acquisition site,
//! attributes each to a named **lock class** (the struct field or
//! static the lock hangs off), records a *may-hold-while-acquiring*
//! edge for every acquisition performed while another guard is live,
//! and fails if the resulting graph has a cycle (a self-edge — same
//! class re-acquired while held — counts: `parking_lot` locks are not
//! reentrant).
//!
//! # Lock-class naming
//!
//! * `Struct.field` — a lock stored in a struct field (`Queue.inner`);
//!   elements of a lock-bearing collection field share the container's
//!   class (`SimCluster.nodes`).
//! * `STATIC_NAME` — a lock in a `static`.
//! * `fn::var` — a lock created locally in `fn` (`run::slots`).
//!
//! # Attribution
//!
//! Sites resolve in order: an explicit `// lock-order:` annotation,
//! `self.field` via the enclosing `impl` block's struct, a workspace-
//! unique `(field, kind)` match for other receivers, a local
//! `let`/`static` definition. Receivers that reach a *non-lock* field
//! (`self.counters[i].read()` on a `Vec<Counter>`) are recognised and
//! skipped. Anything else is **unclassified** and must be ratcheted in
//! `crates/xtask/lock-allowlist.txt` (`<path> <count>` lines) — the
//! allowlist is for sites the lexer cannot attribute, never for real
//! ordering violations.
//!
//! Annotations (written in the source, comment-only line applies to the
//! next code line, trailing comment to its own line):
//!
//! * `// lock-order: class=<Class>` — attribute the site by hand;
//! * `// lock-order: not-a-lock` — the call is not a lock acquisition.
//!
//! # Approximations
//!
//! Guard lifetimes are tracked lexically: a `let`-bound guard lives to
//! the end of its block (or an explicit `drop(var)`), a temporary to
//! the end of its statement (through an attached `if let`/`match`
//! block). Calls made while a guard is held add edges to every lock
//! class the callee may acquire, computed as a same-file transitive
//! closure, plus a small table of known cross-crate acquirers (the
//! symbol interner). This over-approximates holding and misses
//! cross-crate propagation by design — the nightly TSan job is the
//! dynamic cross-check.

use crate::lexer::{excluded_spans, item_fns, mask, method_call_sites, CallSite, ItemFn, Lines};
use crate::util::read_scope;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;

/// Source trees the analyzer walks (workspace-relative): the `src` of
/// every crate under `crates/` but the lint crate's own, plus the root
/// `src/`. Read off the tree, so a new runtime crate is in scope the
/// day it lands.
pub fn scope(root: &Path) -> Result<Vec<String>, String> {
    let crates = root.join("crates");
    let mut dirs = Vec::new();
    if crates.is_dir() {
        let entries = std::fs::read_dir(&crates)
            .map_err(|e| format!("lock-order: read_dir {}: {e}", crates.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("lock-order: {e}"))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name != "xtask" && entry.path().join("src").is_dir() {
                dirs.push(format!("crates/{name}/src"));
            }
        }
    }
    dirs.sort();
    dirs.push("src".to_string());
    Ok(dirs)
}

/// Workspace-relative path of the unclassified-site ratchet file.
pub const ALLOWLIST: &str = "crates/xtask/lock-allowlist.txt";

/// Methods treated as guard acquisitions (zero-argument calls only —
/// `Condvar::wait(&mut g)` and `Counter::read(&self)`-style calls with
/// arguments never match).
const LOCK_METHODS: &[&str] = &["lock", "read", "write"];

/// Cross-crate acquirers the same-file closure cannot see: these
/// callees take the global `SymbolTable.inner` lock. Suppressed inside
/// the interner's own defining modules, where the same names are the
/// implementation itself.
const KNOWN_ACQUIRERS: &[(&str, &str)] = &[
    // (callee pattern, class) — pattern is `Type::name` or `.name`.
    ("Sym::new", "SymbolTable.inner"),
    (".intern", "SymbolTable.inner"),
    (".as_str", "SymbolTable.inner"),
    (".resolve", "SymbolTable.inner"),
    (".route4", "SymbolTable.inner"),
];
const INTERNER_FILES: &[&str] = &["crates/simnode/src/intern.rs"];

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum LockKind {
    Mutex,
    RwLock,
}

/// Result of analysing a set of sources.
pub struct Analysis {
    /// Every lock class discovered, sorted.
    pub classes: Vec<String>,
    /// May-hold-while-acquiring edges (held → acquired), deduplicated.
    pub edges: Vec<(String, String)>,
    /// Sites the analyzer could not attribute: `(path, line, excerpt)`.
    pub unclassified: Vec<(String, usize, String)>,
    /// Hard errors (malformed annotations).
    pub errors: Vec<String>,
}

impl Analysis {
    /// First cycle in the edge graph, as a class path `a → b → … → a`,
    /// if any.
    pub fn cycle(&self) -> Option<Vec<String>> {
        let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for (a, b) in &self.edges {
            adj.entry(a).or_default().push(b);
        }
        // Iterative DFS with colouring; reconstruct the cycle from the
        // active path when a grey node is re-entered.
        let mut colour: BTreeMap<&str, u8> = BTreeMap::new(); // 1 grey, 2 black
        for start in adj.keys().copied().collect::<Vec<_>>() {
            if colour.get(start).copied().unwrap_or(0) != 0 {
                continue;
            }
            let mut path: Vec<&str> = Vec::new();
            let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
            while let Some((node, idx)) = stack.pop() {
                if idx == 0 {
                    colour.insert(node, 1);
                    path.push(node);
                }
                let nexts = adj.get(node).map(Vec::as_slice).unwrap_or(&[]);
                if idx < nexts.len() {
                    stack.push((node, idx + 1));
                    let next = nexts[idx];
                    match colour.get(next).copied().unwrap_or(0) {
                        1 => {
                            let from = path.iter().position(|n| *n == next).unwrap_or(0);
                            let mut cycle: Vec<String> =
                                path[from..].iter().map(|s| s.to_string()).collect();
                            cycle.push(next.to_string());
                            return Some(cycle);
                        }
                        0 => stack.push((next, 0)),
                        _ => {}
                    }
                } else {
                    colour.insert(node, 2);
                    path.pop();
                }
            }
        }
        None
    }
}

#[derive(Clone, Debug)]
enum Directive {
    NotALock,
    Class(String),
}

struct ParsedFile {
    rel: String,
    raw_lines: Vec<String>,
    masked: Vec<char>,
    excluded: Vec<(usize, usize)>,
    fns: Vec<ItemFn>,
    sites: Vec<CallSite>,
    directives: BTreeMap<usize, Directive>,
    /// struct name → field name → lock kind (None = non-lock field).
    structs: BTreeMap<String, BTreeMap<String, Option<LockKind>>>,
    /// static name → kind.
    statics: BTreeMap<String, LockKind>,
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

fn kind_of_type(ty: &str) -> Option<LockKind> {
    let flat: String = ty.chars().filter(|c| !c.is_whitespace()).collect();
    if flat.contains("Mutex<") {
        Some(LockKind::Mutex)
    } else if flat.contains("RwLock<") {
        Some(LockKind::RwLock)
    } else {
        None
    }
}

/// Parse `// lock-order:` annotations from raw source lines.
fn parse_directives(
    rel: &str,
    raw_lines: &[String],
    errors: &mut Vec<String>,
) -> BTreeMap<usize, Directive> {
    let mut map = BTreeMap::new();
    for (i, line) in raw_lines.iter().enumerate() {
        let Some(at) = line.find("// lock-order:") else {
            continue;
        };
        let text = line[at + "// lock-order:".len()..].trim();
        let directive = if text == "not-a-lock" {
            Directive::NotALock
        } else if let Some(class) = text.strip_prefix("class=") {
            let class = class.trim();
            if class.is_empty()
                || !class
                    .chars()
                    .all(|c| is_ident_char(c) || c == '.' || c == ':')
            {
                errors.push(format!(
                    "lock-order: {rel}:{}: bad class name in annotation: `{text}`",
                    i + 1
                ));
                continue;
            }
            Directive::Class(class.to_string())
        } else {
            errors.push(format!(
                "lock-order: {rel}:{}: unknown annotation `{text}` \
                 (expected `class=<Class>` or `not-a-lock`)",
                i + 1
            ));
            continue;
        };
        // A comment-only line annotates the next code line; a trailing
        // comment annotates its own line.
        let target = if line.trim_start().starts_with("//") {
            let mut t = i + 1;
            while t < raw_lines.len() && raw_lines[t].trim_start().starts_with("//") {
                t += 1;
            }
            t + 1
        } else {
            i + 1
        };
        map.insert(target, directive);
    }
    map
}

/// Parse `struct Name { field: Type, … }` declarations from masked text.
fn parse_structs(chars: &[char]) -> BTreeMap<String, BTreeMap<String, Option<LockKind>>> {
    let n = chars.len();
    let mut out = BTreeMap::new();
    let mut i = 0;
    while i < n {
        if !(is_ident_char(chars[i]) && (i == 0 || !is_ident_char(chars[i - 1]))) {
            i += 1;
            continue;
        }
        let s = i;
        while i < n && is_ident_char(chars[i]) {
            i += 1;
        }
        let word: String = chars[s..i].iter().collect();
        if word != "struct" {
            continue;
        }
        let mut k = i;
        while k < n && chars[k].is_whitespace() {
            k += 1;
        }
        let ns = k;
        while k < n && is_ident_char(chars[k]) {
            k += 1;
        }
        if ns == k {
            continue;
        }
        let name: String = chars[ns..k].iter().collect();
        // Skip generics to the body; tuple structs and unit structs
        // have no named fields to record.
        let mut angle = 0i32;
        while k < n {
            match chars[k] {
                '<' => angle += 1,
                '>' if k > 0 && chars[k - 1] != '-' => {
                    angle -= 1;
                }
                '{' if angle <= 0 => break,
                '(' | ';' if angle <= 0 => {
                    k = n;
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        if k >= n {
            continue;
        }
        // Fields: split the brace body at depth-1 commas; each chunk's
        // field name is the ident right before its first top-level `:`.
        let body_start = k + 1;
        let mut depth = 1i32;
        let mut e = body_start;
        while e < n && depth > 0 {
            match chars[e] {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
            e += 1;
        }
        let body: String = chars[body_start..e.saturating_sub(1)].iter().collect();
        let mut fields = BTreeMap::new();
        let mut chunk = String::new();
        let (mut d_par, mut d_ang, mut d_brk, mut d_brc) = (0i32, 0i32, 0i32, 0i32);
        let mut prev = ' ';
        for c in body.chars().chain(std::iter::once(',')) {
            match c {
                '(' => d_par += 1,
                ')' => d_par -= 1,
                '[' => d_brk += 1,
                ']' => d_brk -= 1,
                '{' => d_brc += 1,
                '}' => d_brc -= 1,
                '<' => d_ang += 1,
                '>' if prev != '-' => {
                    d_ang -= 1;
                }
                ',' if d_par == 0 && d_ang <= 0 && d_brk == 0 && d_brc == 0 => {
                    if let Some(colon) = chunk.find(':') {
                        // Not `::`.
                        if chunk.as_bytes().get(colon + 1) != Some(&b':') {
                            let fname = chunk[..colon]
                                .split(|c: char| !is_ident_char(c))
                                .rfind(|w| !w.is_empty())
                                .unwrap_or("")
                                .to_string();
                            if !fname.is_empty() && fname != "pub" && fname != "crate" {
                                fields.insert(fname, kind_of_type(&chunk[colon + 1..]));
                            }
                        }
                    }
                    chunk.clear();
                    prev = c;
                    continue;
                }
                _ => {}
            }
            chunk.push(c);
            prev = c;
        }
        out.insert(name, fields);
        i = e;
    }
    out
}

/// Parse `static NAME: <lock type>` declarations from masked text.
fn parse_statics(chars: &[char]) -> BTreeMap<String, LockKind> {
    let n = chars.len();
    let mut out = BTreeMap::new();
    let mut i = 0;
    while i < n {
        if !(is_ident_char(chars[i]) && (i == 0 || !is_ident_char(chars[i - 1]))) {
            i += 1;
            continue;
        }
        let s = i;
        while i < n && is_ident_char(chars[i]) {
            i += 1;
        }
        let word: String = chars[s..i].iter().collect();
        if word != "static" {
            continue;
        }
        let mut k = i;
        let mut name = String::new();
        while k < n {
            while k < n && chars[k].is_whitespace() {
                k += 1;
            }
            let ns = k;
            while k < n && is_ident_char(chars[k]) {
                k += 1;
            }
            if ns == k {
                break;
            }
            let w: String = chars[ns..k].iter().collect();
            if w != "mut" {
                name = w;
                break;
            }
        }
        while k < n && chars[k].is_whitespace() {
            k += 1;
        }
        if name.is_empty() || k >= n || chars[k] != ':' {
            continue;
        }
        let ts = k + 1;
        let mut e = ts;
        let mut angle = 0i32;
        while e < n {
            match chars[e] {
                '<' => angle += 1,
                '>' if chars[e - 1] != '-' => {
                    angle -= 1;
                }
                '=' | ';' if angle <= 0 => break,
                _ => {}
            }
            e += 1;
        }
        let ty: String = chars[ts..e.min(n)].iter().collect();
        if let Some(kind) = kind_of_type(&ty) {
            out.insert(name, kind);
        }
        i = e;
    }
    out
}

fn in_excluded(excluded: &[(usize, usize)], pos: usize) -> bool {
    excluded.iter().any(|(s, e)| pos >= *s && pos < *e)
}

fn innermost_fn(fns: &[ItemFn], pos: usize) -> Option<&ItemFn> {
    fns.iter()
        .filter(|f| f.contains(pos))
        .min_by_key(|f| f.body.1 - f.body.0)
}

/// How a classified acquisition site resolved.
enum Resolved {
    Class(String),
    NotALock,
    Unclassified,
}

/// A call event observed in a function body: `(pos, qualifier, name)`.
/// `qualifier` is `Some(Type)` for `Type::name(`, `None` for `.name(`
/// and bare `name(` (`dotted` distinguishes them). `self_recv` marks
/// `self.name(` — the only dotted form the same-file closure expands,
/// so a `vec.len()` under a guard never resolves to an unrelated
/// `fn len` in the file.
struct CallEvent {
    pos: usize,
    qualifier: Option<String>,
    dotted: bool,
    self_recv: bool,
    name: String,
}

fn parse_file(rel: &str, text: &str, errors: &mut Vec<String>) -> ParsedFile {
    let masked_s = mask(text);
    let excluded = excluded_spans(&masked_s);
    let masked: Vec<char> = masked_s.chars().collect();
    let fns = item_fns(&masked_s);
    let sites = method_call_sites(&masked_s, LOCK_METHODS, true);
    let raw_lines: Vec<String> = text.lines().map(str::to_string).collect();
    let directives = parse_directives(rel, &raw_lines, errors);
    ParsedFile {
        rel: rel.to_string(),
        raw_lines,
        structs: parse_structs(&masked),
        statics: parse_statics(&masked),
        masked,
        excluded,
        fns,
        sites,
        directives,
    }
}

/// Analyse in-memory sources. The entry point `check` and the test
/// suite share this.
pub fn analyze_sources(files: &[(String, String)]) -> Analysis {
    let mut errors = Vec::new();
    let parsed: Vec<ParsedFile> = files
        .iter()
        .map(|(rel, text)| parse_file(rel, text, &mut errors))
        .collect();

    // Workspace-global lookup tables.
    let mut field_map: BTreeMap<(String, LockKind), BTreeSet<String>> = BTreeMap::new();
    let mut nonlock_fields: BTreeSet<String> = BTreeSet::new();
    let mut statics: BTreeMap<String, LockKind> = BTreeMap::new();
    let mut struct_files: BTreeMap<&str, &BTreeMap<String, Option<LockKind>>> = BTreeMap::new();
    for pf in &parsed {
        for (sname, fields) in &pf.structs {
            struct_files.entry(sname).or_insert(fields);
            for (fname, kind) in fields {
                match kind {
                    Some(k) => {
                        field_map
                            .entry((fname.clone(), *k))
                            .or_default()
                            .insert(sname.clone());
                    }
                    None => {
                        nonlock_fields.insert(fname.clone());
                    }
                }
            }
        }
        for (name, kind) in &pf.statics {
            statics.insert(name.clone(), *kind);
        }
    }

    let mut classes: BTreeSet<String> = BTreeSet::new();
    let mut edges: BTreeSet<(String, String)> = BTreeSet::new();
    let mut unclassified: Vec<(String, usize, String)> = Vec::new();

    for pf in &parsed {
        let lines = Lines::new(&pf.masked.iter().collect::<String>());
        // Classify every non-test site in this file.
        let mut resolved: Vec<(usize, Resolved)> = Vec::new(); // (site idx, result)
        for (si, site) in pf.sites.iter().enumerate() {
            if in_excluded(&pf.excluded, site.pos) {
                continue;
            }
            let r = classify(
                pf,
                site,
                &struct_files,
                &field_map,
                &nonlock_fields,
                &statics,
            );
            match &r {
                Resolved::Class(c) => {
                    classes.insert(c.clone());
                }
                Resolved::Unclassified => {
                    let excerpt = pf
                        .raw_lines
                        .get(site.line.saturating_sub(1))
                        .map(|l| l.trim().chars().take(90).collect::<String>())
                        .unwrap_or_default();
                    unclassified.push((pf.rel.clone(), site.line, excerpt));
                }
                Resolved::NotALock => {}
            }
            resolved.push((si, r));
        }

        // Per-fn direct classes + call events, then the same-file
        // transitive closure of may-acquire sets.
        let fn_count = pf.fns.len();
        let mut direct: Vec<BTreeSet<String>> = vec![BTreeSet::new(); fn_count];
        let mut fn_sites: Vec<Vec<(usize, String)>> = vec![Vec::new(); fn_count]; // (site idx, class)
        for (si, r) in &resolved {
            let site = &pf.sites[*si];
            let Some(f) = innermost_fn(&pf.fns, site.pos) else {
                continue;
            };
            let fi = pf
                .fns
                .iter()
                .position(|g| std::ptr::eq(g, f))
                .unwrap_or(usize::MAX);
            if fi == usize::MAX {
                continue;
            }
            if let Resolved::Class(c) = r {
                direct[fi].insert(c.clone());
                fn_sites[fi].push((*si, c.clone()));
            }
        }

        let interner_file = INTERNER_FILES.contains(&pf.rel.as_str());
        let mut fn_calls: Vec<Vec<CallEvent>> = Vec::with_capacity(fn_count);
        for (fi, f) in pf.fns.iter().enumerate() {
            let evs = call_events(&pf.masked, f, &pf.excluded);
            if !interner_file {
                for ev in &evs {
                    for (pat, class) in KNOWN_ACQUIRERS {
                        if matches_acquirer(ev, pat) {
                            direct[fi].insert(class.to_string());
                            classes.insert(class.to_string());
                        }
                    }
                }
            }
            fn_calls.push(evs);
        }

        // Same-file call graph: resolve each event to fn indices.
        // `Type::name(` resolves within `impl Type`; `self.name(`
        // within the caller's own impl; bare `name(` to free fns.
        // Dotted calls on other receivers are NOT expanded — common
        // method names (`len`, `get`) would otherwise alias unrelated
        // lock-taking methods in the same file.
        let resolve_callee = |ev: &CallEvent, caller_impl: Option<&str>| -> Vec<usize> {
            pf.fns
                .iter()
                .enumerate()
                .filter(|(_, g)| {
                    g.name == ev.name
                        && match &ev.qualifier {
                            Some(t) => g.impl_type.as_deref() == Some(t.as_str()),
                            None if ev.dotted => {
                                ev.self_recv && g.impl_type.as_deref() == caller_impl
                            }
                            None => g.impl_type.is_none(),
                        }
                })
                .map(|(i, _)| i)
                .collect()
        };
        let call_graph: Vec<Vec<usize>> = fn_calls
            .iter()
            .enumerate()
            .map(|(fi, evs)| {
                let caller_impl = pf.fns[fi].impl_type.as_deref();
                let mut cs: Vec<usize> = evs
                    .iter()
                    .flat_map(|ev| resolve_callee(ev, caller_impl))
                    .collect();
                cs.sort_unstable();
                cs.dedup();
                cs
            })
            .collect();
        let mut trans = direct.clone();
        loop {
            let mut changed = false;
            for fi in 0..fn_count {
                for &ci in &call_graph[fi] {
                    if ci == fi {
                        continue;
                    }
                    let add: Vec<String> = trans[ci].difference(&trans[fi]).cloned().collect();
                    if !add.is_empty() {
                        trans[fi].extend(add);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        // Guard-tracking walk of every fn body: edges from each live
        // guard to each new acquisition (direct, via same-file callee,
        // or via a known cross-crate acquirer).
        for (fi, f) in pf.fns.iter().enumerate() {
            let mut acq: Vec<(usize, String)> = fn_sites[fi].clone();
            acq.sort_by_key(|(si, _)| pf.sites[*si].pos);
            let caller_impl = f.impl_type.clone();
            walk_fn(
                pf,
                f,
                &acq,
                &fn_calls[fi],
                &|ev| resolve_callee(ev, caller_impl.as_deref()),
                &trans,
                interner_file,
                &lines,
                &mut edges,
            );
        }
    }

    Analysis {
        classes: classes.into_iter().collect(),
        edges: edges.into_iter().collect(),
        unclassified,
        errors,
    }
}

fn matches_acquirer(ev: &CallEvent, pat: &str) -> bool {
    if let Some(m) = pat.strip_prefix('.') {
        ev.dotted && ev.qualifier.is_none() && ev.name == m
    } else if let Some((ty, m)) = pat.split_once("::") {
        ev.qualifier.as_deref() == Some(ty) && ev.name == m
    } else {
        false
    }
}

fn classify(
    pf: &ParsedFile,
    site: &CallSite,
    struct_files: &BTreeMap<&str, &BTreeMap<String, Option<LockKind>>>,
    field_map: &BTreeMap<(String, LockKind), BTreeSet<String>>,
    nonlock_fields: &BTreeSet<String>,
    statics: &BTreeMap<String, LockKind>,
) -> Resolved {
    if let Some(d) = pf.directives.get(&site.line) {
        return match d {
            Directive::NotALock => Resolved::NotALock,
            Directive::Class(c) => Resolved::Class(c.clone()),
        };
    }
    let kind = if site.method == "lock" {
        LockKind::Mutex
    } else {
        LockKind::RwLock
    };
    let Some(last) = site.chain.last() else {
        return Resolved::Unclassified;
    };
    if last.called || last.name.contains("::") {
        // Receiver is a call result (`guard_for(x).lock()`) — needs an
        // annotation.
        return Resolved::Unclassified;
    }
    let f = &last.name;
    if site.chain.len() == 1 {
        // Bare identifier: local let or static.
        if let Some(k) = statics.get(f) {
            if *k == kind {
                return Resolved::Class(f.clone());
            }
        }
        if let Some(fn_item) = innermost_fn(&pf.fns, site.pos) {
            if local_let_is_lock(&pf.masked, fn_item, site.pos, f, kind) {
                return Resolved::Class(format!("{}::{}", fn_item.name, f));
            }
        }
        return Resolved::Unclassified;
    }
    // `self.field` resolves through the enclosing impl's struct first.
    if site.chain.len() == 2 && site.chain[0].name == "self" && !site.chain[0].called {
        if let Some(t) = innermost_fn(&pf.fns, site.pos).and_then(|g| g.impl_type.clone()) {
            if let Some(fields) = pf
                .structs
                .get(&t)
                .or_else(|| struct_files.get(t.as_str()).copied())
            {
                match fields.get(f) {
                    Some(Some(k)) if *k == kind => return Resolved::Class(format!("{t}.{f}")),
                    Some(None) => return Resolved::NotALock,
                    Some(Some(_)) => return Resolved::Unclassified,
                    None => {} // fall through to the global map
                }
            }
        }
    }
    // Any other receiver: workspace-unique (field, kind) match.
    match field_map.get(&(f.clone(), kind)) {
        Some(owners) if owners.len() == 1 => {
            let owner = owners.iter().next().map(String::as_str).unwrap_or("?");
            Resolved::Class(format!("{owner}.{f}"))
        }
        Some(_) => Resolved::Unclassified,
        None if nonlock_fields.contains(f) => Resolved::NotALock,
        None => Resolved::Unclassified,
    }
}

/// Does `name` bind a lock created locally in this fn before `pos`?
fn local_let_is_lock(
    masked: &[char],
    fn_item: &ItemFn,
    pos: usize,
    name: &str,
    kind: LockKind,
) -> bool {
    let body: String = masked[fn_item.body.0..pos.min(masked.len())]
        .iter()
        .collect();
    let needle_kind = match kind {
        LockKind::Mutex => "Mutex",
        LockKind::RwLock => "RwLock",
    };
    for (i, _) in body.match_indices("let ") {
        let rest = &body[i + 4..];
        let rest = rest.trim_start().trim_start_matches("mut ").trim_start();
        if !rest.starts_with(name) || rest[name.len()..].starts_with(|c: char| is_ident_char(c)) {
            continue;
        }
        let stmt_end = rest.find(';').unwrap_or(rest.len());
        let stmt = &rest[..stmt_end];
        let flat: String = stmt.chars().filter(|c| !c.is_whitespace()).collect();
        if flat.contains(&format!("{needle_kind}::new"))
            || flat.contains(&format!(":{needle_kind}<"))
        {
            return true;
        }
    }
    false
}

/// One live guard during the body walk.
struct Guard {
    class: String,
    var: Option<String>,
    depth: i32,
    temp: bool,
}

#[allow(clippy::too_many_arguments)]
fn walk_fn(
    pf: &ParsedFile,
    f: &ItemFn,
    acquisitions: &[(usize, String)], // (site idx, class), sorted by pos
    calls: &[CallEvent],
    resolve_callee: &dyn Fn(&CallEvent) -> Vec<usize>,
    trans: &[BTreeSet<String>],
    interner_file: bool,
    _lines: &Lines,
    edges: &mut BTreeSet<(String, String)>,
) {
    let chars = &pf.masked;
    let (start, end) = f.body;
    if start >= end {
        return;
    }
    let mut guards: Vec<Guard> = Vec::new();
    let mut acq_iter = acquisitions.iter().peekable();
    let mut call_iter = calls.iter().peekable();
    let mut depth = 0i32;
    let mut i = start;
    while i <= end && i < chars.len() {
        // Acquisition reached?
        while let Some((si, class)) = acq_iter.peek() {
            let site = &pf.sites[*si];
            if site.pos > i {
                break;
            }
            for g in &guards {
                edges.insert((g.class.clone(), class.clone()));
            }
            let (var, temp) = binding_of(chars, site);
            guards.push(Guard {
                class: class.clone(),
                var,
                depth,
                temp,
            });
            acq_iter.next();
        }
        // Call made while guards are live?
        while let Some(ev) = call_iter.peek() {
            if ev.pos > i {
                break;
            }
            if !guards.is_empty() {
                let mut acquired: BTreeSet<&str> = BTreeSet::new();
                for ci in resolve_callee(ev) {
                    for c in &trans[ci] {
                        acquired.insert(c);
                    }
                }
                if !interner_file {
                    for (pat, class) in KNOWN_ACQUIRERS {
                        if matches_acquirer(ev, pat) {
                            acquired.insert(class);
                        }
                    }
                }
                for g in &guards {
                    for c in &acquired {
                        edges.insert((g.class.clone(), c.to_string()));
                    }
                }
            }
            // `drop(var)` releases a let-bound guard early.
            if ev.name == "drop" && ev.qualifier.is_none() && !ev.dotted {
                if let Some(arg) = single_ident_arg(chars, ev.pos) {
                    guards.retain(|g| g.var.as_deref() != Some(arg.as_str()));
                }
            }
            call_iter.next();
        }
        match chars[i] {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                guards.retain(|g| {
                    if g.temp {
                        g.depth < depth
                    } else {
                        g.depth <= depth
                    }
                });
            }
            ';' => guards.retain(|g| !(g.temp && g.depth == depth)),
            _ => {}
        }
        i += 1;
    }
}

/// For a lock site, decide whether the guard is `let`-bound (returns
/// the variable) or a temporary. A site whose call is chained onward
/// (`.lock().field…`) is always a temporary — the binding holds the
/// projection, not the guard.
fn binding_of(chars: &[char], site: &CallSite) -> (Option<String>, bool) {
    let n = chars.len();
    // Find the `(` after the method name, then its `)`.
    let mut j = site.pos;
    while j < n && is_ident_char(chars[j]) {
        j += 1;
    }
    while j < n && chars[j] != '(' {
        j += 1;
    }
    let mut d = 0i32;
    while j < n {
        match chars[j] {
            '(' => d += 1,
            ')' => {
                d -= 1;
                if d == 0 {
                    break;
                }
            }
            _ => {}
        }
        j += 1;
    }
    let mut k = j + 1;
    while k < n && (chars[k].is_whitespace() || chars[k] == '?') {
        k += 1;
    }
    if k < n && (chars[k] == '.' || chars[k] == '[') {
        return (None, true);
    }
    // Scan back from the chain start for `let [mut] ident =`.
    let mut p = site.chain_start;
    while p > 0 {
        p -= 1;
        let c = chars[p];
        if c.is_whitespace() {
            continue;
        }
        if c != '=' {
            return (None, true);
        }
        // `=` but not `==`/`=>`/compound assignment.
        if p > 0
            && matches!(
                chars[p - 1],
                '=' | '!' | '<' | '>' | '+' | '-' | '*' | '/' | '%' | '&' | '|' | '^'
            )
        {
            return (None, true);
        }
        // Ident before `=`?
        let mut q = p;
        while q > 0 && chars[q - 1].is_whitespace() {
            q -= 1;
        }
        let ie = q;
        while q > 0 && is_ident_char(chars[q - 1]) {
            q -= 1;
        }
        if q == ie {
            return (None, true); // destructuring pattern — temp guard
        }
        let var: String = chars[q..ie].iter().collect();
        // Walk back over `mut` / type annotation to confirm `let`.
        let before: String = chars[f0(q, 64)..q].iter().collect();
        let toks: Vec<&str> = before
            .split(|c: char| !is_ident_char(c))
            .filter(|w| !w.is_empty())
            .collect();
        let is_let = matches!(toks.last().copied(), Some("let") | Some("mut"))
            || toks.iter().rev().take(3).any(|w| *w == "let");
        if is_let {
            return (Some(var), false);
        }
        return (None, true);
    }
    (None, true)
}

fn f0(q: usize, back: usize) -> usize {
    q.saturating_sub(back)
}

/// Extract `ident(` call events inside a fn body (excluding macro
/// invocations, definitions, and the lock methods themselves).
fn call_events(chars: &[char], f: &ItemFn, excluded: &[(usize, usize)]) -> Vec<CallEvent> {
    let (start, end) = f.body;
    let n = chars.len().min(end + 1);
    let mut out = Vec::new();
    let mut i = start;
    while i < n {
        let c = chars[i];
        if !is_ident_char(c) || c.is_ascii_digit() || (i != 0 && is_ident_char(chars[i - 1])) {
            i += 1;
            continue;
        }
        let s = i;
        while i < n && is_ident_char(chars[i]) {
            i += 1;
        }
        let name: String = chars[s..i].iter().collect();
        let mut k = i;
        while k < n && chars[k].is_whitespace() {
            k += 1;
        }
        if k >= n || chars[k] != '(' {
            continue;
        }
        if in_excluded(excluded, s) {
            continue;
        }
        if LOCK_METHODS.contains(&name.as_str()) {
            continue;
        }
        // Not a definition (`fn name(`) and not a macro (`name!(`).
        let mut b = s;
        while b > 0 && chars[b - 1].is_whitespace() {
            b -= 1;
        }
        let prev_word: String = {
            let mut q = b;
            while q > 0 && is_ident_char(chars[q - 1]) {
                q -= 1;
            }
            chars[q..b].iter().collect()
        };
        if prev_word == "fn" {
            continue;
        }
        let (mut qualifier, mut dotted, mut self_recv) = (None, false, false);
        if b >= 2 && chars[b - 1] == ':' && chars[b - 2] == ':' {
            let mut q = b - 2;
            while q > 0 && chars[q - 1].is_whitespace() {
                q -= 1;
            }
            let qe = q;
            while q > 0 && is_ident_char(chars[q - 1]) {
                q -= 1;
            }
            if q < qe {
                qualifier = Some(chars[q..qe].iter().collect());
            }
        } else if b >= 1 && chars[b - 1] == '.' {
            dotted = true;
            let mut q = b - 1;
            while q > 0 && chars[q - 1].is_whitespace() {
                q -= 1;
            }
            let qe = q;
            while q > 0 && is_ident_char(chars[q - 1]) {
                q -= 1;
            }
            let recv: String = chars[q..qe].iter().collect();
            // `self.name(` only — `self.field.name(` has a field
            // between and is not a same-impl method call.
            self_recv = recv == "self" && (q == 0 || chars[q.saturating_sub(1)] != '.');
        }
        out.push(CallEvent {
            pos: s,
            qualifier,
            dotted,
            self_recv,
            name,
        });
    }
    out
}

/// Extract the single-identifier argument of a call at `pos`
/// (`drop(pile)` → `pile`), if the argument is exactly one ident.
fn single_ident_arg(chars: &[char], pos: usize) -> Option<String> {
    let n = chars.len();
    let mut i = pos;
    while i < n && is_ident_char(chars[i]) {
        i += 1;
    }
    while i < n && chars[i].is_whitespace() {
        i += 1;
    }
    if i >= n || chars[i] != '(' {
        return None;
    }
    i += 1;
    while i < n && chars[i].is_whitespace() {
        i += 1;
    }
    let s = i;
    while i < n && is_ident_char(chars[i]) {
        i += 1;
    }
    let arg: String = chars[s..i].iter().collect();
    while i < n && chars[i].is_whitespace() {
        i += 1;
    }
    (i < n && chars[i] == ')' && !arg.is_empty()).then_some(arg)
}

/// Run the analyzer against the workspace.
pub fn analyze(root: &Path) -> Result<Analysis, String> {
    let files = read_scope(root, &scope(root)?, "lock-order")?;
    Ok(analyze_sources(&files))
}

/// Full pass: analysis + cycle check + unclassified-site ratchet.
/// Returns `(violations, analysis)`.
pub fn check(root: &Path) -> Result<(Vec<String>, Analysis), String> {
    let analysis = analyze(root)?;
    let mut errors = analysis.errors.clone();

    if let Some(cycle) = analysis.cycle() {
        errors.push(format!(
            "lock-order: cycle in the may-hold-while-acquiring graph: {}",
            cycle.join(" → ")
        ));
    }

    // Ratchet unclassified sites per file.
    let allowed = parse_allowlist(root)?;
    let mut per_file: BTreeMap<String, Vec<(usize, String)>> = BTreeMap::new();
    for (rel, line, excerpt) in &analysis.unclassified {
        per_file
            .entry(rel.clone())
            .or_default()
            .push((*line, excerpt.clone()));
    }
    let keys: BTreeSet<String> = per_file
        .keys()
        .cloned()
        .chain(allowed.keys().cloned())
        .collect();
    for file in keys {
        let found = per_file.get(&file).map(Vec::len).unwrap_or(0);
        let allowance = allowed.get(&file).copied().unwrap_or(0);
        if found > allowance {
            let mut msg = format!(
                "lock-order: {file}: {found} unclassifiable acquisition site(s), \
                 allowance is {allowance} — attribute with `// lock-order: class=<Class>` \
                 (or `not-a-lock`):"
            );
            for (line, excerpt) in per_file.get(&file).into_iter().flatten() {
                let _ = write!(msg, "\n    {file}:{line}: {excerpt}");
            }
            errors.push(msg);
        } else if found < allowance {
            errors.push(format!(
                "lock-order: {file}: allowance is {allowance} but only {found} \
                 unclassifiable site(s) remain — shrink {ALLOWLIST} (the ratchet \
                 only tightens)"
            ));
        }
    }
    Ok((errors, analysis))
}

/// Parse the ratchet file: `<path> <count>` per line, `#` comments.
/// A missing file is an empty allowlist.
pub fn parse_allowlist(root: &Path) -> Result<BTreeMap<String, usize>, String> {
    let path = root.join(ALLOWLIST);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(BTreeMap::new()),
        Err(e) => return Err(format!("lock-order: read {}: {e}", path.display())),
    };
    let mut allowed = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(file), Some(count), None) = (parts.next(), parts.next(), parts.next()) else {
            return Err(format!(
                "{ALLOWLIST}:{}: expected `<path> <count>`, got: {line}",
                lineno + 1
            ));
        };
        let count: usize = count
            .parse()
            .map_err(|_| format!("{ALLOWLIST}:{}: bad count `{count}`", lineno + 1))?;
        if count == 0 {
            return Err(format!(
                "{ALLOWLIST}:{}: zero allowance for {file} — delete the line",
                lineno + 1
            ));
        }
        if allowed.insert(file.to_string(), count).is_some() {
            return Err(format!(
                "{ALLOWLIST}:{}: duplicate entry for {file}",
                lineno + 1
            ));
        }
    }
    Ok(allowed)
}
