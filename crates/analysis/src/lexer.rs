//! A hand-rolled Rust lexer, just deep enough for linting.
//!
//! The engine needs four things from a source file: the identifier and
//! punctuation stream with line numbers (comments and literal *contents*
//! stripped from the token stream, so `"panic!"` inside a string never
//! trips a rule), the set of lines carrying rustdoc comments (for the
//! `missing-docs` rule), the `// pccs-lint:` directives (`allow(<rule>)`
//! waivers and `publishes(<metric>)` declarations), and — for the
//! workspace symbol index — the *contents* of string literals, kept in a
//! side table ([`LexedFile::strings`]) so brace matching over tokens stays
//! exact while `counter("dram.cycles")`-style call sites remain
//! inspectable. A full parser — or a `syn` dependency — would be overkill
//! and is unavailable offline; this scanner handles the token-level
//! subtleties that actually matter: shebang lines, nested block comments,
//! raw strings (`r#"…"#`, `r##"…"##`), byte and raw-byte strings, raw
//! identifiers, and the lifetime-vs-char-literal ambiguity at `'`.
//!
//! Directives inside doc comments (`///`, `//!`, `/** */`, `/*! */`) are
//! deliberately ignored: rustdoc text is prose about the code, not the
//! code — quoting the waiver syntax in documentation must never waive.
//!
//! [`LexedFile::strings`]: crate::lexer::LexedFile::strings

use std::collections::{BTreeMap, BTreeSet};

/// What a [`Token`] is, at the granularity the rules need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`unwrap`, `pub`, `HashMap`, …).
    Ident,
    /// A single punctuation character (`.`, `:`, `{`, `!`, …). Multi-char
    /// operators arrive as consecutive tokens; rules match the sequence.
    Punct,
    /// A string/char/number literal. The text is a placeholder, never the
    /// literal's contents.
    Literal,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// 1-based line the token starts on.
    pub line: u32,
    /// The token text — the identifier itself, the punctuation character,
    /// or `"<lit>"` for literals.
    pub text: String,
    /// Coarse classification.
    pub kind: TokenKind,
}

/// The lexed view of one source file.
#[derive(Debug, Default)]
pub struct LexedFile {
    /// Comment- and literal-stripped token stream.
    pub tokens: Vec<Token>,
    /// `line -> rules waived on that line` from `pccs-lint: allow(...)`
    /// comment directives.
    pub waivers: BTreeMap<u32, BTreeSet<String>>,
    /// `line -> metric names declared published on that line` from
    /// `pccs-lint: publishes(...)` comment directives — the escape hatch
    /// for metric names assembled at runtime (e.g. `format!("{prefix}.x")`)
    /// that the symbol index cannot see as literals.
    pub publishes: BTreeMap<u32, BTreeSet<String>>,
    /// Lines that carry a rustdoc comment (`///`, `//!`, `/** */`, `/*! */`).
    pub doc_lines: BTreeSet<u32>,
    /// String-literal contents, keyed by index into [`LexedFile::tokens`].
    /// Covers plain, raw, byte, and raw-byte strings (char and numeric
    /// literals are not recorded). The token itself stays a `"<lit>"`
    /// placeholder so rules and brace matching never see literal text.
    pub strings: BTreeMap<usize, String>,
    /// Total source lines (1-based line number of the last character).
    pub lines: u32,
}

impl LexedFile {
    /// Whether `rule` is waived for a finding on `line` — a directive on the
    /// finding's own line or the line directly above counts.
    pub fn is_waived(&self, rule: &str, line: u32) -> bool {
        [line, line.saturating_sub(1)]
            .iter()
            .any(|l| self.waivers.get(l).is_some_and(|set| set.contains(rule)))
    }
}

/// Scans `pccs-lint:` directives (`allow(rule-a, rule-b)` waivers and
/// `publishes(metric.a, metric.b)` declarations) out of a comment body.
fn scan_directives(comment: &str, line: u32, out: &mut LexedFile) {
    let Some(at) = comment.find("pccs-lint:") else {
        return;
    };
    let rest = &comment[at + "pccs-lint:".len()..];
    for (keyword, map) in [
        ("allow(", &mut out.waivers),
        ("publishes(", &mut out.publishes),
    ] {
        let Some(open) = rest.find(keyword) else {
            continue;
        };
        let body = &rest[open + keyword.len()..];
        let Some(close) = body.find(')') else {
            continue;
        };
        let entry = map.entry(line).or_default();
        for name in body[..close].split(',') {
            let name = name.trim();
            if !name.is_empty() {
                entry.insert(name.to_owned());
            }
        }
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `src` into tokens, waivers, and doc-comment lines.
///
/// The lexer never fails: malformed input (an unterminated string, say)
/// degrades to consuming the rest of the file as a literal, which is the
/// right behaviour for a linter — rustc will reject the file anyway.
pub fn lex(src: &str) -> LexedFile {
    let chars: Vec<char> = src.chars().collect();
    let mut out = LexedFile::default();
    let mut i = 0usize;
    let mut line = 1u32;

    let at = |i: usize| chars.get(i).copied();

    // A shebang (`#!/usr/bin/env …`) is legal on the first line of a Rust
    // source file and is not tokens; an inner attribute (`#![…]`) is.
    if chars.first() == Some(&'#') && at(1) == Some('!') && at(2) != Some('[') {
        while i < chars.len() && chars[i] != '\n' {
            i += 1;
        }
    }

    while i < chars.len() {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            _ if c.is_whitespace() => i += 1,
            '/' if at(i + 1) == Some('/') => {
                let start = i;
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                if text.starts_with("///") || text.starts_with("//!") {
                    out.doc_lines.insert(line);
                } else {
                    // Directives in rustdoc text are prose, not directives.
                    scan_directives(&text, line, &mut out);
                }
            }
            '/' if at(i + 1) == Some('*') => {
                let start_line = line;
                let is_doc = matches!(at(i + 2), Some('!'))
                    || (at(i + 2) == Some('*') && at(i + 3) != Some('/'));
                let mut depth = 1;
                let start = i;
                i += 2;
                while i < chars.len() && depth > 0 {
                    match (chars[i], at(i + 1)) {
                        ('/', Some('*')) => {
                            depth += 1;
                            i += 2;
                        }
                        ('*', Some('/')) => {
                            depth -= 1;
                            i += 2;
                        }
                        ('\n', _) => {
                            line += 1;
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
                if is_doc {
                    for l in start_line..=line {
                        out.doc_lines.insert(l);
                    }
                } else {
                    let text: String = chars[start..i.min(chars.len())].iter().collect();
                    scan_directives(&text, start_line, &mut out);
                }
            }
            '"' => {
                let tok_line = line;
                let start = i;
                i = consume_string(&chars, i, &mut line);
                let content_end = if at(i.saturating_sub(1)) == Some('"') {
                    i - 1
                } else {
                    i
                };
                out.strings.insert(
                    out.tokens.len(),
                    chars[start + 1..content_end.max(start + 1)]
                        .iter()
                        .collect(),
                );
                out.tokens.push(Token {
                    line: tok_line,
                    text: "<lit>".into(),
                    kind: TokenKind::Literal,
                });
            }
            'r' | 'b' if starts_string_prefix(&chars, i) => {
                let tok_line = line;
                let (end, content) = consume_prefixed_string(&chars, i, &mut line);
                i = end;
                if let Some((from, to)) = content {
                    out.strings
                        .insert(out.tokens.len(), chars[from..to].iter().collect());
                }
                out.tokens.push(Token {
                    line: tok_line,
                    text: "<lit>".into(),
                    kind: TokenKind::Literal,
                });
            }
            '\'' => {
                // Lifetime (`'a`) or char literal (`'a'`, `'\n'`)?
                let next = at(i + 1);
                let is_char = match next {
                    Some('\\') => true,
                    Some(n) if is_ident_start(n) => at(i + 2) == Some('\''),
                    Some(_) => true,
                    None => false,
                };
                if is_char {
                    let tok_line = line;
                    i += 1;
                    if at(i) == Some('\\') {
                        i += 2; // escape + escaped char
                    } else {
                        i += 1;
                    }
                    // Consume to the closing quote (handles `'\u{1F600}'`).
                    while i < chars.len() && chars[i] != '\'' && chars[i] != '\n' {
                        i += 1;
                    }
                    i += 1;
                    out.tokens.push(Token {
                        line: tok_line,
                        text: "<lit>".into(),
                        kind: TokenKind::Literal,
                    });
                } else {
                    // Lifetime: skip the quote and its identifier.
                    i += 1;
                    while i < chars.len() && is_ident_continue(chars[i]) {
                        i += 1;
                    }
                }
            }
            _ if is_ident_start(c) => {
                let start = i;
                while i < chars.len() && is_ident_continue(chars[i]) {
                    i += 1;
                }
                out.tokens.push(Token {
                    line,
                    text: chars[start..i].iter().collect(),
                    kind: TokenKind::Ident,
                });
            }
            _ if c.is_ascii_digit() => {
                while i < chars.len()
                    && (is_ident_continue(chars[i])
                        || (chars[i] == '.' && at(i + 1).is_some_and(|n| n.is_ascii_digit())))
                {
                    i += 1;
                }
                out.tokens.push(Token {
                    line,
                    text: "<lit>".into(),
                    kind: TokenKind::Literal,
                });
            }
            _ => {
                out.tokens.push(Token {
                    line,
                    text: c.to_string(),
                    kind: TokenKind::Punct,
                });
                i += 1;
            }
        }
    }
    out.lines = line;
    out
}

/// Whether position `i` (at `r` or `b`) starts a raw/byte string or byte
/// char rather than an identifier.
fn starts_string_prefix(chars: &[char], i: usize) -> bool {
    let at = |k: usize| chars.get(k).copied();
    match chars[i] {
        'r' => match at(i + 1) {
            Some('"') => true,
            Some('#') => {
                // `r#"…"#` is a raw string; `r#ident` is a raw identifier.
                let mut k = i + 1;
                while at(k) == Some('#') {
                    k += 1;
                }
                at(k) == Some('"')
            }
            _ => false,
        },
        'b' => matches!(
            (at(i + 1), at(i + 2)),
            (Some('"'), _) | (Some('\''), _) | (Some('r'), Some('"')) | (Some('r'), Some('#'))
        ),
        _ => false,
    }
}

/// Consumes a plain `"…"` string starting at `i`; returns the index past it.
fn consume_string(chars: &[char], mut i: usize, line: &mut u32) -> usize {
    i += 1; // opening quote
    while i < chars.len() {
        match chars[i] {
            '\\' => i += 2,
            '"' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Consumes an `r`/`b`-prefixed string (raw, byte, raw-byte) or byte char.
/// Returns the index past the literal plus the content span (start, end)
/// for string forms (`None` for byte chars and non-strings).
fn consume_prefixed_string(
    chars: &[char],
    mut i: usize,
    line: &mut u32,
) -> (usize, Option<(usize, usize)>) {
    let at = |k: usize| chars.get(k).copied();
    // Skip the prefix letters.
    while matches!(at(i), Some('r') | Some('b')) {
        i += 1;
    }
    if at(i) == Some('\'') {
        // Byte char literal `b'x'`.
        i += 1;
        if at(i) == Some('\\') {
            i += 1;
        }
        while i < chars.len() && chars[i] != '\'' && chars[i] != '\n' {
            i += 1;
        }
        return (i + 1, None);
    }
    let mut hashes = 0usize;
    while at(i) == Some('#') {
        hashes += 1;
        i += 1;
    }
    if at(i) != Some('"') {
        // Not actually a string; nothing consumed beyond prefix.
        return (i, None);
    }
    if hashes == 0 {
        let end = consume_string(chars, i, line);
        let content_end = if at(end.saturating_sub(1)) == Some('"') {
            end - 1
        } else {
            end
        };
        return (end, Some((i + 1, content_end.max(i + 1))));
    }
    i += 1;
    let content_start = i;
    while i < chars.len() {
        if chars[i] == '\n' {
            *line += 1;
            i += 1;
            continue;
        }
        if chars[i] == '"' {
            let mut k = 0;
            while k < hashes && at(i + 1 + k) == Some('#') {
                k += 1;
            }
            if k == hashes {
                return (i + 1 + hashes, Some((content_start, i)));
            }
        }
        i += 1;
    }
    (i, Some((content_start, i)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_are_stripped() {
        let src = r##"
            // unwrap() in a comment
            let x = "panic!(\"no\")"; /* expect( */
            let y = r#"unwrap()"#;
            call(x);
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"unwrap".to_owned()));
        assert!(!ids.contains(&"panic".to_owned()));
        assert!(!ids.contains(&"expect".to_owned()));
        assert!(ids.contains(&"call".to_owned()));
    }

    #[test]
    fn lines_are_tracked_across_multiline_constructs() {
        let src = "let a = \"x\ny\";\n/* c\nc */\nlet b = 1;\n";
        let lexed = lex(src);
        let b = lexed.tokens.iter().find(|t| t.text == "b").unwrap();
        assert_eq!(b.line, 5);
    }

    #[test]
    fn doc_lines_are_recorded() {
        let src = "/// docs\npub fn f() {}\n//! inner\n/** block */\nstruct S;\n";
        let lexed = lex(src);
        assert!(lexed.doc_lines.contains(&1));
        assert!(lexed.doc_lines.contains(&3));
        assert!(lexed.doc_lines.contains(&4));
        assert!(!lexed.doc_lines.contains(&2));
    }

    #[test]
    fn waivers_parse_rule_lists() {
        let src = "x(); // pccs-lint: allow(hot-path-panic, nondeterminism)\n";
        let lexed = lex(src);
        assert!(lexed.is_waived("hot-path-panic", 1));
        assert!(lexed.is_waived("nondeterminism", 1));
        assert!(lexed.is_waived("hot-path-panic", 2)); // line above counts
        assert!(!lexed.is_waived("missing-docs", 1));
        assert!(!lexed.is_waived("hot-path-panic", 3));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }\nlet c = 'x';\nlet nl = '\\n';\n";
        let lexed = lex(src);
        let ids: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        // The lifetime identifier `a` is consumed with the quote, and char
        // literal contents never surface as identifiers.
        assert!(!ids.contains(&"a"));
        assert!(!ids.contains(&"x") || ids.iter().filter(|&&t| t == "x").count() == 2);
        let lits = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Literal)
            .count();
        assert_eq!(lits, 2, "two char literals");
    }

    #[test]
    fn raw_identifiers_stay_identifiers() {
        let ids = idents("let r#match = 1; let s = r#\"str\"#;");
        assert!(ids.contains(&"match".to_owned()));
    }

    #[test]
    fn nested_block_comments_terminate_correctly() {
        let ids = idents("/* outer /* inner */ still comment */ real();");
        assert_eq!(ids, vec!["real".to_owned()]);
    }

    #[test]
    fn shebang_line_is_skipped() {
        let src = "#!/usr/bin/env run-cargo-script\nfn main() {}\n";
        let lexed = lex(src);
        assert_eq!(lexed.tokens[0].text, "fn");
        assert_eq!(lexed.tokens[0].line, 2);
        // An inner attribute is NOT a shebang: `#![deny(warnings)]`.
        let lexed = lex("#![deny(warnings)]\nfn f() {}\n");
        assert_eq!(lexed.tokens[0].text, "#");
        assert!(lexed.tokens.iter().any(|t| t.text == "deny"));
    }

    #[test]
    fn nested_raw_strings_capture_contents() {
        let src = "let x = r##\"inner \"#\" quote\"##; after();\n";
        let lexed = lex(src);
        assert_eq!(
            lexed.strings.values().collect::<Vec<_>>(),
            vec![&"inner \"#\" quote".to_owned()]
        );
        // The token stream never sees the contents.
        assert!(lexed.tokens.iter().all(|t| t.text != "inner"));
        assert!(lexed.tokens.iter().any(|t| t.text == "after"));
    }

    #[test]
    fn byte_and_raw_byte_strings_are_single_literals() {
        let src = "let a = b\"bytes\"; let b = br#\"raw bytes\"#; let c = b'x'; end();\n";
        let lexed = lex(src);
        let lits = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Literal)
            .count();
        assert_eq!(lits, 3, "two byte strings + one byte char");
        let contents: Vec<&String> = lexed.strings.values().collect();
        assert_eq!(contents, vec![&"bytes".to_owned(), &"raw bytes".to_owned()]);
        assert!(lexed.tokens.iter().any(|t| t.text == "end"));
    }

    #[test]
    fn plain_string_contents_are_recorded_with_token_index() {
        let src = "counter(\"dram.cycles\");\n";
        let lexed = lex(src);
        // Tokens: counter ( <lit> ) ;  — the literal is index 2.
        assert_eq!(lexed.strings.get(&2), Some(&"dram.cycles".to_owned()));
    }

    #[test]
    fn waiver_inside_a_doc_comment_does_not_waive() {
        let src = "/// Suppress with `// pccs-lint: allow(hot-path-panic)`.\n\
                   pub fn documented() {}\n\
                   //! pccs-lint: allow(nondeterminism)\n\
                   /** pccs-lint: allow(missing-docs) */\n\
                   fn f() {}\n";
        let lexed = lex(src);
        assert!(lexed.waivers.is_empty(), "{:?}", lexed.waivers);
        // The same text in a plain comment still waives.
        let lexed = lex("// pccs-lint: allow(hot-path-panic)\nfn f() {}\n");
        assert!(lexed.is_waived("hot-path-panic", 1));
    }

    #[test]
    fn publishes_directives_are_collected() {
        let src = "fn f() {\n    // pccs-lint: publishes(serve.offered, serve.completed)\n    publish();\n}\n";
        let lexed = lex(src);
        let declared = lexed.publishes.get(&2).expect("directive on line 2");
        assert!(declared.contains("serve.offered"));
        assert!(declared.contains("serve.completed"));
        // Doc comments never declare.
        let lexed = lex("/// pccs-lint: publishes(x.y)\npub fn g() {}\n");
        assert!(lexed.publishes.is_empty());
    }

    #[test]
    fn line_total_is_tracked() {
        assert_eq!(lex("a\nb\nc\n").lines, 4);
        assert_eq!(lex("one line").lines, 1);
    }
}
