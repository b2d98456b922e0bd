//! A small Rust lexer: just enough to strip comments and string/char
//! literals correctly so rule needles only ever match real code tokens.
//!
//! Full `syn`-style parsing is deliberately out of scope — a parser
//! dependency would break the offline build. The lexer handles the
//! lexical constructs that defeat grep-based linting:
//!
//! * line comments (`//`, `///`, `//!`) and **nested** block comments;
//! * string literals with escapes, byte strings, and raw strings with
//!   arbitrary `#` fencing (`r"…"`, `r#"…"#`, `br##"…"##`);
//! * char literals vs. lifetimes (`'a'` vs. `'a`);
//! * `kvlint:` suppression pragmas, extracted from comment text while
//!   the comments themselves are dropped.
//!
//! Output is a token stream of identifiers and punctuation (with `::`
//! fused), each tagged with its 1-based source line.

/// Token kind. String/char literals and comments never become tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword.
    Ident,
    /// One punctuation glyph (`::` is fused into a single token).
    Punct,
    /// A numeric literal (`42`, `0x52_4554_5259`, `1.5e3`, `100u64`) —
    /// kept as a token so `rng-domain-separation` can read domain
    /// constants.
    Lit,
}

/// One token, borrowing its text from the source.
#[derive(Debug, Clone, Copy)]
pub struct Tok<'a> {
    /// 1-based source line.
    pub line: u32,
    /// Kind (ident vs punctuation).
    pub kind: TokKind,
    /// The token text.
    pub s: &'a str,
}

impl Tok<'_> {
    /// True when this is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.s == s
    }

    /// True when this is the punctuation `s`.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.s == s
    }

    /// For a [`TokKind::Lit`] integer literal, its numeric value:
    /// handles `0x`/`0o`/`0b` prefixes, `_` separators, and type
    /// suffixes. `None` for floats and malformed literals.
    pub fn int_value(&self) -> Option<u64> {
        if self.kind != TokKind::Lit || self.s.contains('.') {
            return None;
        }
        let s = self.s.replace('_', "");
        let (digits, radix) = match s.as_bytes() {
            [b'0', b'x' | b'X', ..] => (&s[2..], 16),
            [b'0', b'o' | b'O', ..] => (&s[2..], 8),
            [b'0', b'b' | b'B', ..] => (&s[2..], 2),
            _ => (&s[..], 10),
        };
        // Strip a type suffix (`u64`, `i32`, `usize`): digits end at the
        // first char that is not valid in this radix.
        let end = digits
            .find(|c: char| !c.is_digit(radix))
            .unwrap_or(digits.len());
        u64::from_str_radix(&digits[..end], radix).ok()
    }
}

/// A `kvlint: allow(<rule>) — <justification>` pragma found in a
/// comment. Validation (known rule, non-empty justification) happens in
/// the rule layer; the lexer only extracts the pieces.
#[derive(Debug, Clone)]
pub struct Pragma {
    /// 1-based line the pragma comment starts on.
    pub line: u32,
    /// The text between the parentheses (a rule name, hopefully).
    pub rule: String,
    /// Comment text after the closing parenthesis, separators stripped.
    pub justification: String,
}

/// Lexer output: the token stream plus extracted pragmas and the
/// comment geometry `unsafe-requires-safety` needs.
#[derive(Debug, Default)]
pub struct Lexed<'a> {
    /// Identifier/punctuation/literal tokens in source order.
    pub toks: Vec<Tok<'a>>,
    /// Suppression pragmas found in comments.
    pub pragmas: Vec<Pragma>,
    /// Inclusive line ranges covered by comments, in source order.
    /// Used by `unsafe-requires-safety` to walk a comment run upward.
    pub comment_lines: Vec<(u32, u32)>,
    /// Lines on which a comment contains a `SAFETY:` marker.
    pub safety_lines: Vec<u32>,
}

impl Lexed<'_> {
    fn note_comment(&mut self, text: &str, start_line: u32, end_line: u32) {
        self.comment_lines.push((start_line, end_line));
        for (off, chunk) in text.split('\n').enumerate() {
            if chunk.contains("SAFETY:") {
                self.safety_lines.push(start_line + off as u32);
            }
        }
    }
}

/// Scans one comment's text for `kvlint:` pragmas. `line` is the line
/// the comment text starts on; embedded newlines (in block comments)
/// advance the recorded pragma line.
///
/// Recognition is anchored: the pragma must start the comment line
/// (after comment decoration `/ * !` and whitespace). A `kvlint:`
/// mentioned mid-sentence in prose is documentation, not a pragma —
/// and a mis-anchored pragma still fails loudly, because the violation
/// it meant to excuse stays unsuppressed.
fn scan_comment_for_pragmas(text: &str, line: u32, out: &mut Vec<Pragma>) {
    for (off, chunk) in text.split('\n').enumerate() {
        let anchored = chunk.trim_start_matches(['/', '*', '!', ' ', '\t']);
        let Some(rest) = anchored.strip_prefix("kvlint:") else {
            continue;
        };
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix("allow") else {
            // `kvlint:` followed by anything but `allow` — record as a
            // pragma with an unparsable rule so the rule layer can
            // reject it loudly instead of silently ignoring a typo.
            out.push(Pragma {
                line: line + off as u32,
                rule: rest.split_whitespace().next().unwrap_or("").to_string(),
                justification: String::new(),
            });
            continue;
        };
        let rest = rest.trim_start();
        let (rule, tail) = match rest.strip_prefix('(').and_then(|r| r.split_once(')')) {
            Some((rule, tail)) => (rule.trim().to_string(), tail),
            None => (String::new(), rest),
        };
        let justification = tail
            .trim_start_matches([' ', '\t', '-', ':', '\u{2013}', '\u{2014}'])
            .trim_end_matches(['*', '/', ' ', '\t'])
            .trim()
            .to_string();
        out.push(Pragma {
            line: line + off as u32,
            rule,
            justification,
        });
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Lexes Rust source. Never fails: unterminated constructs are consumed
/// to end-of-file, which is the forgiving behavior a linter wants.
pub fn lex(src: &str) -> Lexed<'_> {
    let b = src.as_bytes();
    let n = b.len();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;

    while i < n {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b'/' if i + 1 < n && b[i + 1] == b'/' => {
                let start = i;
                while i < n && b[i] != b'\n' {
                    i += 1;
                }
                scan_comment_for_pragmas(&src[start..i], line, &mut out.pragmas);
                out.note_comment(&src[start..i], line, line);
            }
            b'/' if i + 1 < n && b[i + 1] == b'*' => {
                let start = i;
                let start_line = line;
                let mut depth = 1usize;
                i += 2;
                while i < n && depth > 0 {
                    if b[i] == b'/' && i + 1 < n && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < n && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        if b[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                scan_comment_for_pragmas(&src[start..i], start_line, &mut out.pragmas);
                out.note_comment(&src[start..i], start_line, line);
            }
            b'"' => {
                i = skip_string(b, i, &mut line);
            }
            b'\'' => {
                i = skip_char_or_lifetime(b, i, &mut line);
            }
            _ if is_ident_start(c) => {
                let start = i;
                while i < n && is_ident_continue(b[i]) {
                    i += 1;
                }
                let ident = &src[start..i];
                // String-literal prefixes: `r`, `b`, `br` glued to a
                // quote (or `#` fencing for raw forms).
                let raw = matches!(ident, "r" | "br");
                let stringy = matches!(ident, "b" | "r" | "br");
                if raw && i < n && (b[i] == b'"' || b[i] == b'#') {
                    i = skip_raw_string(b, i, &mut line);
                } else if stringy && i < n && b[i] == b'"' {
                    i = skip_string(b, i, &mut line);
                } else if ident == "b" && i < n && b[i] == b'\'' {
                    i = skip_char_or_lifetime(b, i, &mut line);
                } else {
                    out.toks.push(Tok {
                        line,
                        kind: TokKind::Ident,
                        s: ident,
                    });
                }
            }
            _ if c.is_ascii_digit() => {
                // Numeric literal: digits, `_`, radix/suffix letters, and
                // `.` only when a digit follows (so `0..n` stays a range
                // and `1.max(2)` stays a method call).
                let start = i;
                i += 1;
                while i < n {
                    if is_ident_continue(b[i]) {
                        i += 1;
                    } else if b[i] == b'.' && i + 1 < n && b[i + 1].is_ascii_digit() {
                        i += 2;
                    } else {
                        break;
                    }
                }
                out.toks.push(Tok {
                    line,
                    kind: TokKind::Lit,
                    s: &src[start..i],
                });
            }
            _ if c.is_ascii_graphic() => {
                if c == b':' && i + 1 < n && b[i + 1] == b':' {
                    out.toks.push(Tok {
                        line,
                        kind: TokKind::Punct,
                        s: "::",
                    });
                    i += 2;
                } else {
                    out.toks.push(Tok {
                        line,
                        kind: TokKind::Punct,
                        s: &src[i..i + 1],
                    });
                    i += 1;
                }
            }
            _ => {
                // Whitespace or non-ASCII byte: skip. (Needles are all
                // ASCII identifiers, so non-ASCII never matters.)
                i += 1;
            }
        }
    }
    out
}

/// Consumes a `"…"` string starting at the opening quote; returns the
/// index just past the closing quote.
fn skip_string(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    let n = b.len();
    i += 1; // opening quote
    while i < n {
        match b[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Consumes `#*"…"#*` starting at the first `#` or `"`; returns the
/// index just past the closing fence.
fn skip_raw_string(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    let n = b.len();
    let mut hashes = 0usize;
    while i < n && b[i] == b'#' {
        hashes += 1;
        i += 1;
    }
    if i >= n || b[i] != b'"' {
        return i; // `r#foo` raw identifier, not a string
    }
    i += 1;
    while i < n {
        if b[i] == b'\n' {
            *line += 1;
            i += 1;
        } else if b[i] == b'"'
            && b[i + 1..]
                .iter()
                .take(hashes)
                .filter(|&&h| h == b'#')
                .count()
                == hashes
        {
            return i + 1 + hashes;
        } else {
            i += 1;
        }
    }
    i
}

/// Disambiguates `'a'` (char literal) from `'a` (lifetime) starting at
/// the quote; returns the index just past whichever it was.
fn skip_char_or_lifetime(b: &[u8], i: usize, line: &mut u32) -> usize {
    let n = b.len();
    if i + 1 >= n {
        return i + 1;
    }
    if b[i + 1] == b'\\' {
        // Escaped char literal: scan to the closing quote (escape
        // sequences never contain one).
        let mut j = i + 2;
        while j < n && b[j] != b'\'' {
            j += 1;
        }
        return (j + 1).min(n);
    }
    if i + 2 < n && b[i + 2] == b'\'' && b[i + 1] != b'\'' {
        if b[i + 1] == b'\n' {
            *line += 1;
        }
        return i + 3; // 'x'
    }
    // Lifetime (or label): consume the identifier, no closing quote.
    let mut j = i + 1;
    while j < n && is_ident_continue(b[j]) {
        j += 1;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<&str> {
        lex(src)
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.s)
            .collect()
    }

    #[test]
    fn comments_and_strings_are_stripped() {
        let src = r##"
            // Instant in a line comment
            /* Instant in a /* nested */ block */
            let s = "Instant in a string";
            let r = r#"Instant raw"#;
            let b = b"Instant bytes";
            let real = Marker;
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"Instant"), "{ids:?}");
        assert!(ids.contains(&"Marker"));
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        // Lifetimes must not be treated as unterminated char literals
        // that swallow the rest of the file.
        let src = "fn f<'a>(x: &'a str) -> Out { g('x') }";
        let ids = idents(src);
        assert!(ids.contains(&"str"));
        assert!(ids.contains(&"Out"));
        assert!(ids.contains(&"g"));
        let src2 = "let c = 'q'; let after = Visible;";
        assert!(idents(src2).contains(&"Visible"));
    }

    #[test]
    fn double_colon_is_fused() {
        let l = lex("std::env::var(x)");
        let shape: Vec<(&str, TokKind)> = l.toks.iter().map(|t| (t.s, t.kind)).collect();
        assert_eq!(
            shape[..5],
            [
                ("std", TokKind::Ident),
                ("::", TokKind::Punct),
                ("env", TokKind::Ident),
                ("::", TokKind::Punct),
                ("var", TokKind::Ident),
            ]
        );
    }

    #[test]
    fn raw_string_with_fencing_and_quote_inside() {
        let src = r##"let s = r#"contains "quoted" Instant"#; let tail = Tail;"##;
        let ids = idents(src);
        assert!(!ids.contains(&"Instant"));
        assert!(ids.contains(&"Tail"));
    }

    #[test]
    fn pragmas_are_extracted_with_rule_and_justification() {
        let src = "// kvlint: allow(no-wall-clock) — timing the host, not the device\nlet x = 1;";
        let l = lex(src);
        assert_eq!(l.pragmas.len(), 1);
        assert_eq!(l.pragmas[0].rule, "no-wall-clock");
        assert_eq!(l.pragmas[0].line, 1);
        assert!(l.pragmas[0].justification.starts_with("timing the host"));
    }

    #[test]
    fn pragma_without_parens_is_still_surfaced() {
        let l = lex("// kvlint: allow no parens here\n");
        assert_eq!(l.pragmas.len(), 1);
        assert!(l.pragmas[0].rule.is_empty());
    }

    #[test]
    fn block_comment_pragma_line_accounts_for_offset() {
        let src = "/* first\n   kvlint: allow(no-env-read) — second line of the comment\n*/";
        let l = lex(src);
        assert_eq!(l.pragmas.len(), 1);
        assert_eq!(l.pragmas[0].line, 2);
    }

    #[test]
    fn numeric_literals_lex_as_single_tokens() {
        let l = lex("let d = mix64(seed ^ mix64(0x52_4554_5259)); let r = 0..10; let f = 1.5e3;");
        let lits: Vec<&str> = l
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Lit)
            .map(|t| t.s)
            .collect();
        assert_eq!(lits, ["0x52_4554_5259", "0", "10", "1.5e3"]);
        let domain = l.toks.iter().find(|t| t.s == "0x52_4554_5259").unwrap();
        assert_eq!(domain.int_value(), Some(0x52_4554_5259));
        assert_eq!(
            l.toks.iter().find(|t| t.s == "1.5e3").unwrap().int_value(),
            None
        );
    }

    #[test]
    fn int_value_handles_radix_and_suffix() {
        let l = lex("a(0b1010); b(0o17); c(100u64); d(0xffu8);");
        let vals: Vec<Option<u64>> = l
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Lit)
            .map(|t| t.int_value())
            .collect();
        assert_eq!(vals, [Some(10), Some(15), Some(100), Some(0xff)]);
    }

    #[test]
    fn safety_markers_and_comment_runs_are_recorded() {
        let src = "// SAFETY: the buffer is exclusively owned\n// and never aliased.\nunsafe { }\n/* SAFETY: block form */\n";
        let l = lex(src);
        assert_eq!(l.safety_lines, vec![1, 4]);
        assert_eq!(l.comment_lines, vec![(1, 1), (2, 2), (4, 4)]);
    }

    #[test]
    fn multiline_block_comment_safety_line_is_exact() {
        let src = "/* prologue\n   SAFETY: pointer is valid\n*/\n";
        let l = lex(src);
        assert_eq!(l.safety_lines, vec![2]);
        assert_eq!(l.comment_lines, vec![(1, 3)]);
    }

    #[test]
    fn line_numbers_survive_multiline_strings() {
        let src = "let a = \"line\none\";\nlet probe = Probe;";
        let l = lex(src);
        let probe = l.toks.iter().find(|t| t.is_ident("Probe")).unwrap();
        assert_eq!(probe.line, 3);
    }
}
