//! The one whitespace/decimal tokenizer of the text paths.
//!
//! Both parsers of the crate read whitespace-separated text: the
//! decoder of the raw format ([`crate::codec`]) and the collectors of
//! the node's pseudo-files ([`crate::collectors`]). Both must accept
//! exactly what the `str` methods they once used accept —
//! `split_whitespace` for separators, `str::parse::<u64>` and
//! `u64::from_str_radix(_, 16)` for numbers — so they share this
//! module: ASCII text is read as bytes ([`AsciiTokens`] — one pass
//! finds the lines, the tokens and, for a plain number, its value),
//! text holding any non-ASCII byte keeps the `str` grammar
//! ([`UnicodeTokens`]), and numbers are read by [`parse_dec`] and
//! [`parse_hex`] either way.

/// `(line without its '\n', everything after it)`.
pub(crate) fn split_line(rest: &str) -> (&str, &str) {
    rest.split_once('\n').unwrap_or((rest, ""))
}

/// What `char::is_whitespace` accepts below 0x80.
fn is_ascii_ws(b: u8) -> bool {
    matches!(b, 9..=13 | b' ')
}

/// Whitespace inside a line: all of it but the `\n` that ends one.
fn is_blank(b: u8) -> bool {
    is_ascii_ws(b) && b != b'\n'
}

/// Checked decimal: accepts exactly what `str::parse::<u64>` accepts
/// (ASCII digits after an optional `+`, no overflow). Clears `plain`
/// when the codec's `put_u64` would have written the value differently.
pub(crate) fn parse_dec(tok: &str, plain: &mut bool) -> Option<u64> {
    let digits = match tok.as_bytes().split_first() {
        Some((b'+', rest)) => {
            *plain = false;
            rest
        }
        _ => tok.as_bytes(),
    };
    let (&lead, more) = digits.split_first()?;
    if lead == b'0' && !more.is_empty() {
        *plain = false;
    }
    // Nineteen digits cannot overflow, so only a longer token pays
    // for checked arithmetic.
    let checked = digits.len() > 19;
    let mut v = 0u64;
    for &b in digits {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        v = if checked {
            v.checked_mul(10)?.checked_add(u64::from(d))?
        } else {
            v.wrapping_mul(10).wrapping_add(u64::from(d))
        };
    }
    Some(v)
}

/// Checked hexadecimal: accepts exactly what `u64::from_str_radix(_, 16)`
/// accepts (digits of either case after an optional `+`, no overflow).
pub(crate) fn parse_hex(tok: &str) -> Option<u64> {
    let digits = tok.strip_prefix('+').unwrap_or(tok).as_bytes();
    if digits.is_empty() {
        return None;
    }
    let mut v = 0u64;
    for &b in digits {
        let d = char::from(b).to_digit(16)?;
        if v >> 60 != 0 {
            return None;
        }
        v = v << 4 | u64::from(d);
    }
    Some(v)
}

pub(crate) fn parse_dec32(tok: &str, plain: &mut bool) -> Option<u32> {
    parse_dec(tok, plain).and_then(|v| u32::try_from(v).ok())
}

/// A cursor over whitespace-separated text: the tokens of one line
/// after another.
///
/// A cursor made by `new` stands on the one line it was given. A cursor
/// made by `lines` stands before the first line of a text and visits its
/// *complete* lines — those that end in `\n` — with [`Tokens::next_line`];
/// the fragment a truncated read leaves after the last `\n` is never
/// seen. Either way the tokens stop at the end of the line.
pub(crate) trait Tokens<'a> {
    /// Move to the next line; `false` when there is none.
    fn next_line(&mut self) -> bool;
    /// The line's next token.
    fn next_tok(&mut self) -> Option<&'a str>;
    /// The next token as a number: `None` at the end of the line,
    /// `Some(None)` for a token [`parse_dec`] rejects.
    fn next_dec(&mut self, plain: &mut bool) -> Option<Option<u64>> {
        self.next_tok().map(|t| parse_dec(t, plain))
    }
    /// Skip `n` tokens and return the one after them.
    fn nth_tok(&mut self, n: usize) -> Option<&'a str> {
        for _ in 0..n {
            self.next_tok()?;
        }
        self.next_tok()
    }
    /// The next token that is a number, passing over those that are
    /// not; `None` at the end of the line.
    fn next_number(&mut self) -> Option<u64> {
        loop {
            if let Some(v) = self.next_dec(&mut true)? {
                return Some(v);
            }
        }
    }
    /// Step over `prefix` if what is left of the line starts with it.
    fn eat(&mut self, prefix: &str) -> bool;
    /// What is left of the line up to its first `delim` (an ASCII
    /// byte), stepping over both; `None`, and nothing stepped over, if
    /// it holds none.
    fn until(&mut self, delim: u8) -> Option<&'a str>;
    /// All that is left of the line.
    fn rest_of_line(&mut self) -> &'a str;
    /// True while the line began with a token and every separator so
    /// far was a single space — what the renderer writes.
    fn tidy(&self) -> bool;
}

/// The text up to and including its last `\n`: its complete lines.
fn complete_lines(text: &str) -> &str {
    text.rfind('\n')
        .and_then(|end| text.get(..=end))
        .unwrap_or("")
}

/// [`Tokens`] of ASCII text, read as bytes.
pub(crate) struct AsciiTokens<'a> {
    text: &'a str,
    pos: usize,
    /// Where the line `pos` is on starts.
    line_start: usize,
    /// Standing before the first line.
    before_first: bool,
    tidy: bool,
}

impl<'a> AsciiTokens<'a> {
    /// A cursor on `line`, which must be ASCII.
    pub(crate) fn new(line: &'a str) -> Self {
        AsciiTokens {
            text: line,
            pos: 0,
            line_start: 0,
            before_first: false,
            tidy: true,
        }
    }

    /// A cursor before the complete lines of `text`, which must be
    /// ASCII.
    pub(crate) fn lines(text: &'a str) -> Self {
        AsciiTokens {
            before_first: true,
            ..AsciiTokens::new(complete_lines(text))
        }
    }

    /// The bytes from the cursor on.
    fn ahead(&self) -> &'a [u8] {
        self.text.as_bytes().get(self.pos..).unwrap_or(&[])
    }

    /// The `len` bytes from the cursor on, stepping over them and
    /// `skip` more. An ASCII text has a char boundary at every offset.
    fn take(&mut self, len: usize, skip: usize) -> Option<&'a str> {
        let taken = self.text.get(self.pos..self.pos + len);
        self.pos += len + skip;
        taken
    }

    /// Step over the `gap` blanks `ahead` and the `len`-byte token
    /// after them, which is returned.
    fn step_over(&mut self, ahead: &[u8], gap: usize, len: usize) -> Option<&'a str> {
        self.tidy &= if self.pos == self.line_start {
            gap == 0
        } else {
            gap == 1 && ahead.first() == Some(&b' ')
        };
        self.pos += gap;
        self.take(len, 0)
    }
}

impl<'a> Tokens<'a> for AsciiTokens<'a> {
    fn next_line(&mut self) -> bool {
        if self.before_first {
            self.before_first = false;
        } else {
            let ahead = self.ahead();
            let end = ahead.iter().position(|&b| b == b'\n');
            self.pos += end.map_or(ahead.len(), |i| i + 1);
        }
        self.line_start = self.pos;
        self.tidy = true;
        self.pos < self.text.len()
    }
    fn next_tok(&mut self) -> Option<&'a str> {
        let ahead = self.ahead();
        let gap = ahead.iter().position(|&b| !is_blank(b))?;
        let tok = ahead.get(gap..)?;
        if tok.first() == Some(&b'\n') {
            return None;
        }
        let len = tok
            .iter()
            .position(|&b| is_ascii_ws(b))
            .unwrap_or(tok.len());
        self.step_over(ahead, gap, len)
    }
    /// One pass for the common shape — blanks, then at most 19 digits
    /// with no leading zero, then a separator or the end — instead of
    /// finding the token and then scanning it again.
    fn next_dec(&mut self, plain: &mut bool) -> Option<Option<u64>> {
        let ahead = self.ahead();
        let gap = ahead.iter().position(|&b| !is_blank(b))?;
        let digits = ahead.get(gap..)?;
        let mut v = 0u64;
        let mut len = 0usize;
        for &b in digits {
            let d = b.wrapping_sub(b'0');
            if d > 9 {
                break;
            }
            v = v.wrapping_mul(10).wrapping_add(u64::from(d));
            len += 1;
        }
        let leading_zero = len > 1 && digits.first() == Some(&b'0');
        let ended = digits.get(len).is_none_or(|&b| is_ascii_ws(b));
        if (1..=19).contains(&len) && ended && !leading_zero {
            self.step_over(ahead, gap, len);
            return Some(Some(v));
        }
        self.next_tok().map(|t| parse_dec(t, plain))
    }
    fn eat(&mut self, prefix: &str) -> bool {
        // No `prefix` of ours holds a `\n`, so none reaches past the line.
        let found = self.ahead().starts_with(prefix.as_bytes());
        if found {
            self.pos += prefix.len();
        }
        found
    }
    fn until(&mut self, delim: u8) -> Option<&'a str> {
        let ahead = self.ahead();
        let len = ahead.iter().position(|&b| b == delim || b == b'\n')?;
        if ahead.get(len) != Some(&delim) {
            return None;
        }
        self.take(len, 1)
    }
    fn rest_of_line(&mut self) -> &'a str {
        let ahead = self.ahead();
        let end = ahead.iter().position(|&b| b == b'\n');
        let len = end.unwrap_or(ahead.len());
        // As `str::lines` has it: `\r\n` ends a line too.
        let cr = usize::from(end.is_some() && len > 0 && ahead.get(len - 1) == Some(&b'\r'));
        self.take(len - cr, cr).unwrap_or("")
    }
    fn tidy(&self) -> bool {
        self.tidy
    }
}

/// [`Tokens`] of text holding non-ASCII bytes: the `str` grammar, so
/// Unicode whitespace separates exactly as it always has. Never tidy —
/// such a sample is re-rendered rather than copied.
pub(crate) struct UnicodeTokens<'a> {
    /// What is left of the line the cursor is on.
    line: &'a str,
    /// The lines after it.
    after: &'a str,
}

impl<'a> UnicodeTokens<'a> {
    /// A cursor on `line`.
    pub(crate) fn new(line: &'a str) -> Self {
        UnicodeTokens { line, after: "" }
    }

    /// A cursor before the complete lines of `text`.
    pub(crate) fn lines(text: &'a str) -> Self {
        UnicodeTokens {
            line: "",
            after: complete_lines(text),
        }
    }
}

impl<'a> Tokens<'a> for UnicodeTokens<'a> {
    fn next_line(&mut self) -> bool {
        let Some((line, after)) = self.after.split_once('\n') else {
            self.line = "";
            return false;
        };
        // As `str::lines` has it: `\r\n` ends a line too.
        self.line = line.strip_suffix('\r').unwrap_or(line);
        self.after = after;
        true
    }
    fn next_tok(&mut self) -> Option<&'a str> {
        // `split_whitespace`, one token at a time.
        let line = self.line.trim_start();
        let len = line.find(char::is_whitespace).unwrap_or(line.len());
        let (tok, rest) = line.split_at_checked(len)?;
        if tok.is_empty() {
            return None;
        }
        self.line = rest;
        Some(tok)
    }
    fn eat(&mut self, prefix: &str) -> bool {
        let rest = self.line.strip_prefix(prefix);
        self.line = rest.unwrap_or(self.line);
        rest.is_some()
    }
    fn until(&mut self, delim: u8) -> Option<&'a str> {
        let (head, rest) = self.line.split_once(char::from(delim))?;
        self.line = rest;
        Some(head)
    }
    fn rest_of_line(&mut self) -> &'a str {
        std::mem::take(&mut self.line)
    }
    fn tidy(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The checked decimal accepts exactly what `str::parse::<u64>`
        /// accepts, and calls a token plain exactly when `put_u64`
        /// writes it back.
        #[test]
        fn parse_dec_is_str_parse(tok in "[0-9+-]{0,22}", small in "[0-9]{1,3}") {
            for tok in [tok, small] {
                let mut plain = true;
                let got = parse_dec(&tok, &mut plain);
                prop_assert_eq!(got, tok.parse::<u64>().ok(), "{}", tok);
                if let Some(v) = got {
                    prop_assert_eq!(plain, v.to_string() == tok, "{}", tok);
                }
            }
        }

        /// The checked hexadecimal accepts exactly what
        /// `u64::from_str_radix(_, 16)` accepts.
        #[test]
        fn parse_hex_is_from_str_radix(tok in "[0-9a-fA-F+g-]{0,19}", small in "[0-9a-fA-F]{1,4}") {
            for tok in [tok, small] {
                prop_assert_eq!(parse_hex(&tok), u64::from_str_radix(&tok, 16).ok(), "{}", tok);
            }
        }

        /// On ASCII text the two cursors are one: the same complete
        /// lines, and on each line the same answer to every question,
        /// asked in any order.
        #[test]
        fn cursors_agree_on_ascii_text(
            text in "[a-c0-9:+ \t\x0b\x0c\r\n]{0,96}",
            questions in any::<u64>(),
        ) {
            let mut ascii = AsciiTokens::lines(&text);
            let mut unicode = UnicodeTokens::lines(&text);
            let complete = text.rfind('\n').map_or("", |end| &text[..=end]);
            let mut lines = complete.lines();
            let mut asked = 0;
            loop {
                let line = lines.next();
                prop_assert_eq!(ascii.next_line(), line.is_some(), "{:?}", text);
                prop_assert_eq!(unicode.next_line(), line.is_some(), "{:?}", text);
                let Some(line) = line else { break };
                let mut words = line.split_whitespace();
                for _ in 0..6 {
                    asked += 3;
                    match questions >> (asked % 64) & 7 {
                        0 | 1 => {
                            let tok = ascii.next_tok();
                            prop_assert_eq!(tok, unicode.next_tok(), "{:?}", text);
                            // Until something other than a token is
                            // asked for, these are `split_whitespace`'s.
                            if asked == 3 {
                                prop_assert_eq!(tok, words.next(), "{:?}", text);
                            }
                        }
                        2 => prop_assert_eq!(
                            ascii.next_dec(&mut true),
                            unicode.next_dec(&mut true),
                            "{:?}", text
                        ),
                        3 => prop_assert_eq!(ascii.nth_tok(2), unicode.nth_tok(2), "{:?}", text),
                        4 => prop_assert_eq!(ascii.next_number(), unicode.next_number(), "{:?}", text),
                        5 => prop_assert_eq!(ascii.eat("a"), unicode.eat("a"), "{:?}", text),
                        6 => prop_assert_eq!(ascii.until(b':'), unicode.until(b':'), "{:?}", text),
                        _ => prop_assert_eq!(ascii.rest_of_line(), unicode.rest_of_line(), "{:?}", text),
                    }
                }
            }
        }

        /// The byte tokenizer splits an ASCII line where
        /// `split_whitespace` does, reads numbers as `parse_dec` does
        /// whichever way they are asked for, and is tidy exactly when
        /// the line is its tokens joined by single spaces.
        #[test]
        fn ascii_tokens_are_split_whitespace(
            line in "[a-c0-9 \t\x0b\x0c\r+]{0,48}",
            as_numbers in any::<u64>(),
        ) {
            let line = line.trim_end();
            let want: Vec<&str> = line.split_whitespace().collect();
            let mut toks = AsciiTokens::new(line);
            for (i, w) in want.iter().enumerate() {
                if i > 0 && as_numbers >> (i % 64) & 1 == 1 {
                    let (mut a, mut b) = (true, true);
                    prop_assert_eq!(toks.next_dec(&mut a), Some(parse_dec(w, &mut b)), "{:?}", line);
                    prop_assert_eq!(a, b);
                } else {
                    prop_assert_eq!(toks.next_tok(), Some(*w), "{:?}", line);
                }
            }
            prop_assert_eq!(toks.next_tok(), None);
            prop_assert_eq!(toks.next_dec(&mut true), None);
            prop_assert_eq!(toks.tidy(), want.join(" ") == line, "{:?}", line);
        }
    }
}
