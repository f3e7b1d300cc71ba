//! A small comment/string-aware Rust scanner for the panic-freedom lint.
//!
//! `syn` is not vendorable offline, so this module does the minimum
//! lexical work the lint needs, directly on source text:
//!
//! 1. [`mask`] replaces the *interiors* of comments, string literals,
//!    and char literals with spaces (preserving byte offsets and line
//!    structure), so pattern scanning never fires inside prose or data.
//!    Doc comments are masked too, which conveniently excludes doc-test
//!    example code from the lint.
//! 2. [`excluded_spans`] finds `#[cfg(test)]` / `#[test]` items by
//!    attribute + brace matching, so test code may panic freely.
//! 3. [`scan`] pattern-matches the masked text for panic-capable
//!    constructs: `.unwrap()`, `.expect(...)`, panicking macros
//!    (`panic!`, `unreachable!`, `todo!`, `unimplemented!`, `assert!`
//!    and friends — `debug_assert*` is allowed, it compiles out of
//!    release builds), and unchecked indexing `expr[...]`.
//!
//! The scanner is deliberately conservative and syntactic: it can
//! over-approximate (flag an indexing that is actually infallible), and
//! the ratcheted allowlist in `panic_lint` absorbs the intentional
//! cases. It must never *under*-approximate on the constructs above.

use std::fmt;

/// What kind of panic-capable construct a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintKind {
    /// `.unwrap()` on Option/Result (or anything else).
    Unwrap,
    /// `.expect(...)`.
    Expect,
    /// A macro that panics in release builds: `panic!`, `unreachable!`,
    /// `todo!`, `unimplemented!`, `assert!`, `assert_eq!`, `assert_ne!`.
    PanicMacro,
    /// Unchecked indexing or slicing: `expr[...]`.
    Indexing,
}

impl LintKind {
    /// Stable key used in the allowlist file.
    pub fn key(self) -> &'static str {
        match self {
            LintKind::Unwrap => "unwrap",
            LintKind::Expect => "expect",
            LintKind::PanicMacro => "panic",
            LintKind::Indexing => "indexing",
        }
    }

    /// Parse an allowlist key.
    pub fn from_key(key: &str) -> Option<LintKind> {
        match key {
            "unwrap" => Some(LintKind::Unwrap),
            "expect" => Some(LintKind::Expect),
            "panic" => Some(LintKind::PanicMacro),
            "indexing" => Some(LintKind::Indexing),
            _ => None,
        }
    }
}

impl fmt::Display for LintKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// One panic-capable construct found in non-test code.
#[derive(Clone, Debug)]
pub struct Finding {
    /// 1-based line number.
    pub line: usize,
    /// Construct kind.
    pub kind: LintKind,
    /// The source line, trimmed, for the report.
    pub excerpt: String,
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Replace comment bodies and string/char literal interiors with
/// spaces. Delimiters (quotes) are kept; newlines are preserved so
/// line numbers survive masking. Handles line and nested block
/// comments, escapes, raw strings (`r"…"`, `r#"…"#`, byte/C-string
/// prefixes), raw identifiers (`r#match`), and the char-literal vs
/// lifetime ambiguity (`'a'` vs `<'a>`).
pub fn mask(source: &str) -> String {
    let chars: Vec<char> = source.chars().collect();
    let mut out: Vec<char> = chars.clone();
    let n = chars.len();
    let mut i = 0;
    let blank = |out: &mut Vec<char>, from: usize, to: usize| {
        for c in out.iter_mut().take(to).skip(from) {
            if *c != '\n' {
                *c = ' ';
            }
        }
    };
    while i < n {
        let c = chars[i];
        // Line comment (// /// //!): mask to end of line.
        if c == '/' && i + 1 < n && chars[i + 1] == '/' {
            let start = i;
            while i < n && chars[i] != '\n' {
                i += 1;
            }
            blank(&mut out, start, i);
            continue;
        }
        // Block comment, nested.
        if c == '/' && i + 1 < n && chars[i + 1] == '*' {
            let start = i;
            let mut depth = 1;
            i += 2;
            while i < n && depth > 0 {
                if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            blank(&mut out, start, i);
            continue;
        }
        // Raw string / raw identifier, with optional b/c prefix. Only
        // when this `r`/`b`/`c` starts an identifier (prev not ident).
        if (c == 'r' || c == 'b' || c == 'c') && (i == 0 || !is_ident(chars[i - 1])) {
            // Longest prefix match among: r#*", br#*", cr#*", b", c", b'.
            let mut j = i + 1;
            let two = c == 'b' && j < n && chars[j] == 'r';
            if two {
                j += 1;
            }
            let raw = c == 'r' || two || (c == 'c' && j < n && chars[j] == 'r');
            if c == 'c' && j < n && chars[j] == 'r' {
                j += 1;
            }
            let mut hashes = 0;
            while raw && j < n && chars[j] == '#' {
                hashes += 1;
                j += 1;
            }
            if raw && hashes > 0 && j < n && chars[j] != '"' {
                // Raw identifier like r#match — skip the whole ident.
                while j < n && is_ident(chars[j]) {
                    j += 1;
                }
                i = j;
                continue;
            }
            if j < n && chars[j] == '"' && (raw || c != 'r') {
                // String body: for raw strings scan for `"###`; for
                // cooked strings honor escapes.
                let body = j + 1;
                let mut k = body;
                'string: while k < n {
                    if !raw && chars[k] == '\\' {
                        k += 2;
                        continue;
                    }
                    if chars[k] == '"' {
                        let mut h = 0;
                        while h < hashes && k + 1 + h < n && chars[k + 1 + h] == '#' {
                            h += 1;
                        }
                        if h == hashes {
                            break 'string;
                        }
                    }
                    k += 1;
                }
                blank(&mut out, body, k.min(n));
                i = (k + 1 + hashes).min(n);
                continue;
            }
            if c == 'b' && i + 1 < n && chars[i + 1] == '\'' {
                // Byte literal b'x'.
                let mut k = i + 2;
                if k < n && chars[k] == '\\' {
                    k += 1;
                }
                while k < n && chars[k] != '\'' {
                    k += 1;
                }
                blank(&mut out, i + 2, k);
                i = (k + 1).min(n);
                continue;
            }
            // Plain identifier starting with r/b/c — fall through.
        }
        // Cooked string with no prefix.
        if c == '"' {
            let mut k = i + 1;
            while k < n {
                if chars[k] == '\\' {
                    k += 2;
                    continue;
                }
                if chars[k] == '"' {
                    break;
                }
                k += 1;
            }
            blank(&mut out, i + 1, k.min(n));
            i = (k + 1).min(n);
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            if i + 1 < n && chars[i + 1] == '\\' {
                let mut k = i + 2;
                if k < n {
                    k += 1; // escaped char (or first of \x/\u sequence)
                }
                while k < n && chars[k] != '\'' {
                    k += 1;
                }
                blank(&mut out, i + 1, k);
                i = (k + 1).min(n);
                continue;
            }
            if i + 2 < n && chars[i + 2] == '\'' && chars[i + 1] != '\'' {
                blank(&mut out, i + 1, i + 2);
                i += 3;
                continue;
            }
            // Lifetime: skip the quote, the label lexes as an ident.
            i += 1;
            continue;
        }
        // Skip whole identifiers so `brr` or `cfg` never half-matches a
        // prefix rule above.
        if is_ident(c) {
            while i < n && is_ident(chars[i]) {
                i += 1;
            }
            continue;
        }
        i += 1;
    }
    out.into_iter().collect()
}

/// Keywords that may directly precede `[` without it being an index
/// expression (array literals, patterns, types).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "as", "box", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "fn",
    "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "static", "struct", "super", "trait", "type", "unsafe", "use", "where", "while",
    "yield", "await",
];

/// Spans of masked text (byte ranges over the char vector) belonging to
/// `#[cfg(test)]` / `#[test]` items, where panics are fine.
pub fn excluded_spans(masked: &str) -> Vec<(usize, usize)> {
    let chars: Vec<char> = masked.chars().collect();
    let n = chars.len();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < n {
        if chars[i] != '#' || i + 1 >= n || chars[i + 1] != '[' {
            i += 1;
            continue;
        }
        let attr_start = i;
        // Collect the attribute text up to the matching `]`.
        let mut depth = 0;
        let mut j = i + 1;
        let mut attr = String::new();
        while j < n {
            match chars[j] {
                '[' => depth += 1,
                ']' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            attr.push(chars[j]);
            j += 1;
        }
        let is_test_attr = {
            let a: String = attr.chars().filter(|c| !c.is_whitespace()).collect();
            a == "[test"
                || (a.starts_with("[cfg(") && has_word(&a, "test") && !a.contains("not(test"))
        };
        if !is_test_attr {
            i = j + 1;
            continue;
        }
        // Skip any further stacked attributes and whitespace, then span
        // the following item: to its `;`, or through its `{ … }` block.
        let mut k = j + 1;
        loop {
            while k < n && chars[k].is_whitespace() {
                k += 1;
            }
            if k + 1 < n && chars[k] == '#' && chars[k + 1] == '[' {
                let mut d = 0;
                while k < n {
                    match chars[k] {
                        '[' => d += 1,
                        ']' => {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                k += 1;
                continue;
            }
            break;
        }
        let mut end = k;
        while end < n && chars[end] != '{' && chars[end] != ';' {
            end += 1;
        }
        if end < n && chars[end] == '{' {
            let mut d = 0;
            while end < n {
                match chars[end] {
                    '{' => d += 1,
                    '}' => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                end += 1;
            }
        }
        spans.push((attr_start, (end + 1).min(n)));
        i = (end + 1).min(n);
    }
    spans
}

fn has_word(haystack: &str, word: &str) -> bool {
    let h: Vec<char> = haystack.chars().collect();
    let w: Vec<char> = word.chars().collect();
    if w.is_empty() || h.len() < w.len() {
        return false;
    }
    for start in 0..=h.len() - w.len() {
        if h[start..start + w.len()] != w[..] {
            continue;
        }
        let before_ok = start == 0 || !is_ident(h[start - 1]);
        let after = start + w.len();
        let after_ok = after == h.len() || !is_ident(h[after]);
        if before_ok && after_ok {
            return true;
        }
    }
    false
}

/// Scan Rust source text for panic-capable constructs outside test
/// code. Returns findings ordered by position.
pub fn scan(source: &str) -> Vec<Finding> {
    let masked = mask(source);
    let chars: Vec<char> = masked.chars().collect();
    let n = chars.len();
    let excluded = excluded_spans(&masked);
    let in_excluded = |pos: usize| excluded.iter().any(|&(a, b)| pos >= a && pos < b);
    let line_starts: Vec<usize> = std::iter::once(0)
        .chain(
            chars
                .iter()
                .enumerate()
                .filter(|(_, c)| **c == '\n')
                .map(|(i, _)| i + 1),
        )
        .collect();
    let line_of = |pos: usize| match line_starts.binary_search(&pos) {
        Ok(l) => l + 1,
        Err(l) => l,
    };
    let excerpt_of = |pos: usize| {
        let line = line_of(pos);
        source
            .lines()
            .nth(line - 1)
            .unwrap_or("")
            .trim()
            .to_string()
    };
    let next_nonws = |from: usize| {
        let mut k = from;
        while k < n && chars[k].is_whitespace() {
            k += 1;
        }
        (k < n).then(|| chars[k])
    };
    let prev_nonws = |from: usize| {
        let mut k = from;
        while k > 0 {
            k -= 1;
            if !chars[k].is_whitespace() {
                return Some((k, chars[k]));
            }
        }
        None
    };

    let mut findings = Vec::new();
    let mut i = 0;
    while i < n {
        let c = chars[i];
        if is_ident(c) && (i == 0 || !is_ident(chars[i - 1])) && !c.is_ascii_digit() {
            let start = i;
            let mut j = i;
            while j < n && is_ident(chars[j]) {
                j += 1;
            }
            let word: String = chars[start..j].iter().collect();
            let kind = match word.as_str() {
                "unwrap" | "expect" => {
                    let dotted = prev_nonws(start).map(|(_, p)| p) == Some('.');
                    let called = next_nonws(j) == Some('(');
                    (dotted && called).then(|| {
                        if word == "unwrap" {
                            LintKind::Unwrap
                        } else {
                            LintKind::Expect
                        }
                    })
                }
                "panic" | "unreachable" | "todo" | "unimplemented" | "assert" | "assert_eq"
                | "assert_ne" => (j < n && chars[j] == '!').then_some(LintKind::PanicMacro),
                _ => None,
            };
            if let Some(kind) = kind {
                if !in_excluded(start) {
                    findings.push(Finding {
                        line: line_of(start),
                        kind,
                        excerpt: excerpt_of(start),
                    });
                }
            }
            i = j;
            continue;
        }
        if c == '[' && !in_excluded(i) {
            if let Some((p, pc)) = prev_nonws(i) {
                let indexing = if pc == ')' || pc == ']' || pc == '?' {
                    true
                } else if is_ident(pc) {
                    let mut s = p;
                    while s > 0 && is_ident(chars[s - 1]) {
                        s -= 1;
                    }
                    let word: String = chars[s..=p].iter().collect();
                    // A lifetime before `[` (`&'a [u8]`) is slice type
                    // syntax, not indexing.
                    let is_lifetime = s > 0 && chars[s - 1] == '\'';
                    !is_lifetime
                        && !NON_INDEX_KEYWORDS.contains(&word.as_str())
                        && !word.chars().next().is_some_and(|c| c.is_ascii_digit())
                } else {
                    false
                };
                if indexing {
                    findings.push(Finding {
                        line: line_of(i),
                        kind: LintKind::Indexing,
                        excerpt: excerpt_of(i),
                    });
                }
            }
        }
        i += 1;
    }
    findings
}

// ---------------------------------------------------------------------
// Method-call-chain and item extraction (lock-order / crash-order passes)
// ---------------------------------------------------------------------

/// Line lookup over a (masked) char stream.
pub struct Lines {
    starts: Vec<usize>,
}

impl Lines {
    /// Index `text` (char offsets, matching the scanners here).
    pub fn new(text: &str) -> Lines {
        let starts = std::iter::once(0)
            .chain(
                text.chars()
                    .enumerate()
                    .filter(|(_, c)| *c == '\n')
                    .map(|(i, _)| i + 1),
            )
            .collect();
        Lines { starts }
    }

    /// 1-based line containing char offset `pos`.
    pub fn line_of(&self, pos: usize) -> usize {
        match self.starts.binary_search(&pos) {
            Ok(l) => l + 1,
            Err(l) => l,
        }
    }
}

/// One segment of a method-call receiver chain, outermost first.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainSeg {
    /// Identifier text (`self`, a field, a called method, a static,
    /// possibly a `Path::seg` for path calls).
    pub name: String,
    /// The segment is itself a call: `shard(key)` in
    /// `self.shard(key).data.read()`.
    pub called: bool,
    /// The segment is indexed: `counters[i]`.
    pub indexed: bool,
}

/// A `.method(...)` call site with its receiver chain attributed.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Char offset of the method identifier in the masked text.
    pub pos: usize,
    /// Char offset where the receiver chain begins (statement lookback
    /// for `let`-binding detection starts here).
    pub chain_start: usize,
    /// 1-based line of the method identifier.
    pub line: usize,
    /// Method name.
    pub method: String,
    /// Receiver chain, outermost-first. May be empty or truncated when
    /// the receiver starts at a parenthesised expression the lexer
    /// cannot attribute.
    pub chain: Vec<ChainSeg>,
}

/// Find `.m(...)` call sites for every `m` in `methods`, walking each
/// receiver chain backwards into field/call/index segments. With
/// `empty_args_only`, only zero-argument calls match (the shape of
/// `.lock()` / `.read()` / `.write()` guard acquisitions).
pub fn method_call_sites(masked: &str, methods: &[&str], empty_args_only: bool) -> Vec<CallSite> {
    let chars: Vec<char> = masked.chars().collect();
    let n = chars.len();
    let lines = Lines::new(masked);
    let mut sites = Vec::new();
    let next_nonws = |from: usize| {
        let mut k = from;
        while k < n && chars[k].is_whitespace() {
            k += 1;
        }
        (k < n).then_some(k)
    };
    let prev_nonws = |from: usize| {
        let mut k = from;
        while k > 0 {
            k -= 1;
            if !chars[k].is_whitespace() {
                return Some(k);
            }
        }
        None
    };
    // Walk back across a balanced group ending at `close` (a `)` or
    // `]`); returns the offset of the opener, or None if unbalanced.
    let balance_back = |close: usize| -> Option<usize> {
        let (open_c, close_c) = match chars.get(close) {
            Some(')') => ('(', ')'),
            Some(']') => ('[', ']'),
            _ => return None,
        };
        let mut depth = 0usize;
        let mut k = close + 1;
        while k > 0 {
            k -= 1;
            if chars[k] == close_c {
                depth += 1;
            } else if chars[k] == open_c {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
        }
        None
    };
    // Scan back over `ident` ending at `end` (inclusive); returns start.
    let ident_start = |end: usize| -> usize {
        let mut s = end;
        while s > 0 && is_ident(chars[s - 1]) {
            s -= 1;
        }
        s
    };

    let mut i = 0;
    while i < n {
        let c = chars[i];
        if !is_ident(c) || c.is_ascii_digit() || (i != 0 && is_ident(chars[i - 1])) {
            i += 1;
            continue;
        }
        let start = i;
        let mut j = i;
        while j < n && is_ident(chars[j]) {
            j += 1;
        }
        i = j;
        let word: String = chars[start..j].iter().collect();
        if !methods.iter().any(|m| *m == word) {
            continue;
        }
        let Some(dot) = prev_nonws(start).filter(|&p| chars[p] == '.') else {
            continue;
        };
        let Some(open) = next_nonws(j).filter(|&p| chars[p] == '(') else {
            continue;
        };
        if empty_args_only && next_nonws(open + 1).map(|p| chars[p]) != Some(')') {
            continue;
        }
        // Walk the receiver chain backwards from the dot.
        let mut rev: Vec<ChainSeg> = Vec::new();
        let mut chain_start = start;
        let mut at = dot; // offset of the `.` to the left of the next segment
        while let Some(p) = prev_nonws(at) {
            match chars[p] {
                '?' => {
                    // `foo()?.lock()` — transparent postfix.
                    at = p;
                }
                ')' | ']' => {
                    let grouped = chars[p] == ')';
                    let Some(opener) = balance_back(p) else { break };
                    chain_start = opener;
                    let Some(q) = prev_nonws(opener).filter(|&q| is_ident(chars[q])) else {
                        break; // `(expr).lock()` — unattributable start
                    };
                    let s = ident_start(q);
                    let mut name: String = chars[s..=q].iter().collect();
                    chain_start = s;
                    // Fold a `Path::call()` prefix into the segment name.
                    let mut before = prev_nonws(s);
                    while grouped
                        && before.is_some_and(|b| b > 0 && chars[b] == ':' && chars[b - 1] == ':')
                    {
                        let b = before.unwrap_or(0);
                        match prev_nonws(b - 1).filter(|&q2| is_ident(chars[q2])) {
                            Some(q2) => {
                                let s2 = ident_start(q2);
                                let prefix: String = chars[s2..=q2].iter().collect();
                                name = format!("{prefix}::{name}");
                                chain_start = s2;
                                before = prev_nonws(s2);
                            }
                            None => break,
                        }
                    }
                    rev.push(ChainSeg {
                        name,
                        called: grouped,
                        indexed: !grouped,
                    });
                    match before {
                        Some(b) if chars[b] == '.' => at = b,
                        _ => break,
                    }
                }
                ch if is_ident(ch) => {
                    let s = ident_start(p);
                    let name: String = chars[s..=p].iter().collect();
                    chain_start = s;
                    rev.push(ChainSeg {
                        name,
                        called: false,
                        indexed: false,
                    });
                    match prev_nonws(s) {
                        Some(b) if chars[b] == '.' => at = b,
                        _ => break,
                    }
                }
                _ => break,
            }
        }
        rev.reverse();
        sites.push(CallSite {
            pos: start,
            chain_start,
            line: lines.line_of(start),
            method: word,
            chain: rev,
        });
    }
    sites
}

/// A `fn` item located in masked source.
#[derive(Clone, Debug)]
pub struct ItemFn {
    /// Function name.
    pub name: String,
    /// Type of the enclosing `impl` block, if any (for trait impls,
    /// the implementing type after `for`).
    pub impl_type: Option<String>,
    /// Char offset of the `fn` keyword.
    pub start: usize,
    /// Char span of the `{ … }` body (inclusive of both braces), or
    /// `start..start` for bodyless trait-method declarations.
    pub body: (usize, usize),
    /// 1-based line of the `fn` keyword.
    pub line: usize,
}

impl ItemFn {
    /// True if `pos` falls inside this function's body.
    pub fn contains(&self, pos: usize) -> bool {
        pos > self.body.0 && pos < self.body.1
    }
}

/// The `impl` blocks of masked source: each block's type (for trait
/// impls, the implementing type after `for`) and the char span of its
/// `{ … }` body, braces included. `impl<G> Path<G> { … }` and
/// `impl T for U { … }` both name the type's last path segment.
pub fn impl_spans(masked: &str) -> Vec<(String, usize, usize)> {
    let chars: Vec<char> = masked.chars().collect();
    let n = chars.len();
    let mut impls: Vec<(String, usize, usize)> = Vec::new();
    let mut i = 0;
    while i < n {
        if !(is_ident(chars[i]) && (i == 0 || !is_ident(chars[i - 1]))) {
            i += 1;
            continue;
        }
        let start = i;
        let mut j = i;
        while j < n && is_ident(chars[j]) {
            j += 1;
        }
        let word: String = chars[start..j].iter().collect();
        i = j;
        if word != "impl" {
            continue;
        }
        // Read to the opening brace, remembering the last path ident
        // seen outside generic args; `for` resets it (trait impls name
        // the implementing type after `for`), and a `where` clause names
        // bounds, not the type.
        let mut k = j;
        let mut angle = 0i32;
        let mut last_ident = String::new();
        let mut in_where = false;
        while k < n && chars[k] != '{' && chars[k] != ';' {
            let c = chars[k];
            if c == '<' {
                angle += 1;
                k += 1;
            } else if c == '>' {
                if k > 0 && chars[k - 1] != '-' {
                    angle -= 1;
                }
                k += 1;
            } else if is_ident(c) && !c.is_ascii_digit() {
                let s = k;
                while k < n && is_ident(chars[k]) {
                    k += 1;
                }
                let w: String = chars[s..k].iter().collect();
                if angle == 0 && !in_where {
                    match w.as_str() {
                        "for" => last_ident.clear(),
                        "where" => in_where = true,
                        _ => last_ident = w,
                    }
                }
            } else {
                k += 1;
            }
        }
        if k < n && chars[k] == '{' {
            let mut d = 0i32;
            let mut e = k;
            while e < n {
                match chars[e] {
                    '{' => d += 1,
                    '}' => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                e += 1;
            }
            if !last_ident.is_empty() {
                impls.push((last_ident, k, e.min(n)));
            }
            // Continue scanning *inside* the impl for nested items.
            i = k + 1;
        } else {
            i = k;
        }
    }
    impls
}

/// The type of the innermost `impl` block of `impls` ([`impl_spans`])
/// whose body contains char offset `pos`.
pub fn impl_type_at(impls: &[(String, usize, usize)], pos: usize) -> Option<&str> {
    impls
        .iter()
        .filter(|(_, s, e)| pos > *s && pos < *e)
        .min_by_key(|(_, s, e)| e - s)
        .map(|(t, _, _)| t.as_str())
}

/// Locate every `fn` item (with enclosing-impl attribution) in masked
/// source. Nested functions are reported too; pick the innermost
/// containing span when attributing a position.
pub fn item_fns(masked: &str) -> Vec<ItemFn> {
    let chars: Vec<char> = masked.chars().collect();
    let n = chars.len();
    let lines = Lines::new(masked);
    let impls = impl_spans(masked);

    // Pass 2: fn items.
    let mut fns = Vec::new();
    let mut i = 0;
    while i < n {
        if !(is_ident(chars[i]) && (i == 0 || !is_ident(chars[i - 1]))) {
            i += 1;
            continue;
        }
        let start = i;
        let mut j = i;
        while j < n && is_ident(chars[j]) {
            j += 1;
        }
        let word: String = chars[start..j].iter().collect();
        i = j;
        if word != "fn" {
            continue;
        }
        // Name (absent for `fn(…)` pointer types).
        let mut k = j;
        while k < n && chars[k].is_whitespace() {
            k += 1;
        }
        if k >= n || !is_ident(chars[k]) || chars[k].is_ascii_digit() {
            continue;
        }
        let ns = k;
        while k < n && is_ident(chars[k]) {
            k += 1;
        }
        let name: String = chars[ns..k].iter().collect();
        // Skip to the body `{` (or `;`), tracking paren/bracket/angle
        // depth so braces in where-clauses or closures in default args
        // don't fool us (`->` is not an angle close).
        let (mut paren, mut brack, mut angle) = (0i32, 0i32, 0i32);
        while k < n {
            match chars[k] {
                '(' => paren += 1,
                ')' => paren -= 1,
                '[' => brack += 1,
                ']' => brack -= 1,
                '<' => angle += 1,
                '>' if k > 0 && chars[k - 1] != '-' => {
                    angle -= 1;
                }
                '{' if paren == 0 && brack == 0 && angle <= 0 => break,
                ';' if paren == 0 && brack == 0 => {
                    k = n + 1; // bodyless declaration
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        let body = if k < n {
            let mut d = 0i32;
            let mut e = k;
            while e < n {
                match chars[e] {
                    '{' => d += 1,
                    '}' => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                e += 1;
            }
            (k, e.min(n))
        } else {
            (start, start)
        };
        let impl_type = impl_type_at(&impls, start).map(str::to_string);
        fns.push(ItemFn {
            name,
            impl_type,
            start,
            body,
            line: lines.line_of(start),
        });
        i = body.0.max(start) + 1;
    }
    fns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_comments_and_strings() {
        let src = "let x = \"unwrap()\"; // .unwrap()\n/* panic! */ let y = 1;";
        let m = mask(src);
        assert!(!m.contains("unwrap"));
        assert!(!m.contains("panic"));
        assert!(m.contains("let y = 1;"));
    }

    #[test]
    fn masks_raw_strings_and_chars() {
        let m = mask("let s = r#\"a.unwrap()\"#; let c = 'x'; let l: &'a str = s;");
        assert!(!m.contains("unwrap"));
        assert!(m.contains("&'a str"), "{m}");
    }

    #[test]
    fn finds_unwrap_expect_macros_indexing() {
        let src = "fn f(v: Vec<u8>) {\n    let a = v.first().unwrap();\n    let b = v.iter().next().expect(\"x\");\n    panic!(\"boom\");\n    let c = v[0];\n    debug_assert!(c > 0);\n}\n";
        let kinds: Vec<LintKind> = scan(src).iter().map(|f| f.kind).collect();
        assert_eq!(
            kinds,
            vec![
                LintKind::Unwrap,
                LintKind::Expect,
                LintKind::PanicMacro,
                LintKind::Indexing
            ]
        );
    }

    #[test]
    fn skips_test_code_and_doc_tests() {
        let src = "/// ```\n/// x.unwrap();\n/// ```\nfn ok() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { None::<u8>.unwrap(); }\n}\n";
        assert!(scan(src).is_empty(), "{:?}", scan(src));
    }

    #[test]
    fn array_literals_and_attributes_are_not_indexing() {
        let src = "#[derive(Debug)]\nstruct S;\nfn g() -> [u8; 2] {\n    let a = [1u8, 2];\n    let v = vec![1, 2];\n    let _ = (a, v);\n    [0, 1]\n}\n";
        assert!(scan(src).is_empty(), "{:?}", scan(src));
    }

    #[test]
    fn lifetime_slice_types_are_not_indexing() {
        let src = "struct C<'a> {\n    ts: &'a [u8],\n    vs: &'a [u8],\n}\nfn f<'b>(x: &'b [u64]) -> &'b [u64] { x }\n";
        assert!(scan(src).is_empty(), "{:?}", scan(src));
    }

    #[test]
    fn chained_and_slice_indexing_found() {
        let src =
            "fn h(m: Vec<Vec<u8>>, s: &str) {\n    let _ = m[0][1];\n    let _ = &s[1..];\n}\n";
        let kinds: Vec<LintKind> = scan(src).iter().map(|f| f.kind).collect();
        assert_eq!(kinds.len(), 3, "{:?}", scan(src));
        assert!(kinds.iter().all(|k| *k == LintKind::Indexing));
    }

    fn chain_names(site: &CallSite) -> Vec<&str> {
        site.chain.iter().map(|s| s.name.as_str()).collect()
    }

    #[test]
    fn lines_maps_offsets_to_one_based_lines() {
        let l = Lines::new("ab\ncd\n");
        assert_eq!(l.line_of(0), 1);
        assert_eq!(l.line_of(2), 1);
        assert_eq!(l.line_of(3), 2);
        assert_eq!(l.line_of(5), 2);
    }

    #[test]
    fn call_sites_walk_field_chains_and_chained_continuations() {
        let src = "impl S {\n    fn f(&self, k: u64) {\n        let hit = self.cache.lock().get(k);\n        self.shard(k).data.read();\n    }\n}\n";
        let masked = mask(src);
        let sites = method_call_sites(&masked, &["lock", "read"], true);
        assert_eq!(sites.len(), 2, "{sites:?}");
        assert_eq!(sites[0].method, "lock");
        assert_eq!(sites[0].line, 3);
        assert_eq!(chain_names(&sites[0]), ["self", "cache"]);
        assert_eq!(sites[1].method, "read");
        assert_eq!(chain_names(&sites[1]), ["self", "shard", "data"]);
        assert!(sites[1].chain[1].called, "shard(k) is a call segment");
    }

    #[test]
    fn empty_args_only_skips_non_guard_reads() {
        let src = "fn f(c: &Counter, st: &Mutex<u8>) {\n    c.read(\"user\");\n    st.lock();\n}\n";
        let masked = mask(src);
        let guards = method_call_sites(&masked, &["lock", "read"], true);
        assert_eq!(guards.len(), 1, "{guards:?}");
        assert_eq!(guards[0].method, "lock");
        let all = method_call_sites(&masked, &["lock", "read"], false);
        assert_eq!(all.len(), 2, "{all:?}");
    }

    #[test]
    fn call_sites_found_in_closures_and_match_arms() {
        let src = "fn f(x: Option<u8>) {\n    let g = || m.lock();\n    match x {\n        Some(_) => n.lock(),\n        None => {}\n    }\n    g();\n}\n";
        let masked = mask(src);
        let sites = method_call_sites(&masked, &["lock"], true);
        assert_eq!(sites.len(), 2, "{sites:?}");
        assert_eq!(chain_names(&sites[0]), ["m"]);
        assert_eq!(chain_names(&sites[1]), ["n"]);
    }

    #[test]
    fn indexed_receivers_and_parenthesised_receivers() {
        let src = "fn f(&self) {\n    self.counters[i].read();\n    (a + b).lock();\n}\n";
        let masked = mask(src);
        let sites = method_call_sites(&masked, &["lock", "read"], true);
        assert_eq!(sites.len(), 2, "{sites:?}");
        assert_eq!(chain_names(&sites[0]), ["self", "counters"]);
        assert!(sites[0].chain[1].indexed, "counters[i] is indexed");
        // A parenthesised-expression receiver is unattributable: the
        // chain is empty rather than wrong.
        assert_eq!(sites[1].method, "lock");
        assert!(sites[1].chain.is_empty(), "{:?}", sites[1].chain);
    }

    #[test]
    fn item_fns_attribute_impl_types_and_spans() {
        let src = "struct S;\nimpl S {\n    fn a(&self) -> Result<Vec<u8>, ()> {\n        body();\n    }\n}\nimpl Other for S {\n    fn b(&self) {}\n}\nfn free() {}\nimpl<T> W<T> where T: Bound {\n    fn c() {}\n}\n";
        let masked = mask(src);
        let fns = item_fns(&masked);
        assert_eq!(fns.len(), 4, "{fns:?}");
        assert_eq!(
            fns[3].impl_type.as_deref(),
            Some("W"),
            "a where clause names bounds, not the type"
        );
        assert_eq!(fns[0].name, "a");
        assert_eq!(fns[0].impl_type.as_deref(), Some("S"));
        assert_eq!(fns[1].name, "b");
        assert_eq!(
            fns[1].impl_type.as_deref(),
            Some("S"),
            "trait impls attribute to the implementing type"
        );
        assert_eq!(fns[2].name, "free");
        assert_eq!(fns[2].impl_type, None);
        // The body span of `a` contains the `body()` call.
        let call = masked.find("body").unwrap();
        assert!(fns[0].contains(call));
        assert!(!fns[1].contains(call));
    }
}
