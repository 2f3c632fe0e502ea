//! A minimal hand-rolled Rust lexer.
//!
//! The analyzer cannot depend on `syn`/`proc-macro2` (no registry access in
//! the build environment, see `vendor/README.md`), so it carries its own
//! tokenizer. It understands exactly as much Rust as the rules need:
//!
//! - line comments (`//`, `///`, `//!`) and *nested* block comments,
//! - string literals (plain, raw `r#"…"#`, byte, C-string) with escapes,
//! - char literals vs. lifetimes (`'a'` vs `'a`),
//! - identifiers/keywords, numbers, and single-char punctuation,
//! - line numbers for every token and comment.
//!
//! Comments are not discarded: `// analyze:allow(<rule>): <reason>`
//! directives are extracted during lexing, and the set of comment-only
//! lines is recorded so a standalone allow comment can suppress a
//! violation on the next code line.

/// Kinds of token the rules care about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fs`, `as`, `for`, `unwrap`, …).
    Ident,
    /// Lifetime such as `'a` or `'_` (distinguished from char literals).
    Lifetime,
    /// Integer or float literal, any base or suffix.
    Number,
    /// String / raw-string / byte-string / char literal.
    Literal,
    /// A single punctuation character (`+`, `[`, `::` is two `:` tokens…).
    Punct,
}

/// One lexed token: kind, source text range, and 1-based line number.
#[derive(Debug, Clone, Copy)]
pub struct Tok {
    /// What sort of token this is.
    pub kind: TokKind,
    /// Byte offset of the token start in the source.
    pub start: usize,
    /// Byte offset one past the token end.
    pub end: usize,
    /// 1-based line the token starts on.
    pub line: u32,
}

/// An `// analyze:allow(<rule>): <reason>` directive found in a comment.
#[derive(Debug, Clone)]
pub struct AllowDirective {
    /// 1-based line the directive's comment *ends* on.
    pub line: u32,
    /// Rule name inside the parentheses, e.g. `hot-path-panic`.
    pub rule: String,
    /// Justification after the trailing `:` (may be empty — rules reject that).
    pub reason: String,
    /// True when the comment is the only thing on its line, in which case
    /// the directive also covers the next code line below it.
    pub standalone: bool,
}

/// Output of [`lex`]: the token stream plus comment-derived side tables.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All non-comment tokens in source order.
    pub toks: Vec<Tok>,
    /// All `analyze:allow` directives found in comments.
    pub allows: Vec<AllowDirective>,
    /// 1-based lines that contain only whitespace and/or comments.
    pub comment_only_lines: Vec<u32>,
}

impl Lexed {
    /// Source text of token `i` (panics only on out-of-range internal bugs).
    pub fn text<'s>(&self, src: &'s str, i: usize) -> &'s str {
        let t = &self.toks[i];
        &src[t.start..t.end]
    }
}

fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

/// Lex `src` into tokens, allow-directives, and comment-only line info.
///
/// The lexer never fails: malformed input degrades to punctuation tokens,
/// which at worst produces a spurious diagnostic pointing at real code.
pub fn lex(src: &str) -> Lexed {
    let bytes = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;
    // Tracks whether the current line has seen any non-comment token, so we
    // can record comment-only lines for standalone-allow suppression.
    let mut line_has_code = false;
    let mut line_has_comment = false;
    let mut cur_line_no: u32 = 1;

    // `$next_comment` is whether the following line starts inside a comment
    // (true only while crossing newlines within a block comment).
    macro_rules! end_line {
        ($next_comment:expr) => {
            if !line_has_code && line_has_comment {
                out.comment_only_lines.push(cur_line_no);
            }
            line_has_code = false;
            line_has_comment = $next_comment;
        };
    }

    while i < bytes.len() {
        let c = bytes[i] as char;
        if c == '\n' {
            end_line!(false);
            line += 1;
            cur_line_no = line;
            i += 1;
            continue;
        }
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // Line comment.
        if c == '/' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
            let start = i;
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            scan_allow(&src[start..i], line, !line_has_code, &mut out.allows);
            line_has_comment = true;
            continue;
        }
        // Block comment (nested).
        if c == '/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
            let start = i;
            let standalone = !line_has_code;
            let mut depth = 1usize;
            line_has_comment = true;
            i += 2;
            while i < bytes.len() && depth > 0 {
                if bytes[i] == b'\n' {
                    end_line!(true);
                    line += 1;
                    cur_line_no = line;
                    i += 1;
                } else if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
                    depth += 1;
                    i += 2;
                } else if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            scan_allow(&src[start..i], line, standalone, &mut out.allows);
            line_has_comment = true;
            continue;
        }
        // Raw / byte / C strings: r"..", r#".."#, br".."), b"..", c"..".
        if let Some((len, lines)) = raw_string_len(&src[i..]) {
            out.toks.push(Tok {
                kind: TokKind::Literal,
                start: i,
                end: i + len,
                line,
            });
            for _ in 0..lines {
                end_line!(false);
                line += 1;
                cur_line_no = line;
            }
            line_has_code = true;
            i += len;
            continue;
        }
        // Plain string literal (possibly b"…" handled above only for raw).
        if c == '"' || (c == 'b' && i + 1 < bytes.len() && bytes[i + 1] == b'"') {
            let start = i;
            if c == 'b' {
                i += 1;
            }
            i += 1; // opening quote
            while i < bytes.len() {
                match bytes[i] {
                    b'\\' => i += 2,
                    b'"' => {
                        i += 1;
                        break;
                    }
                    b'\n' => {
                        end_line!(false);
                        line += 1;
                        cur_line_no = line;
                        i += 1;
                    }
                    _ => i += 1,
                }
            }
            out.toks.push(Tok {
                kind: TokKind::Literal,
                start,
                end: i,
                line,
            });
            line_has_code = true;
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            let start = i;
            // Lifetime: 'ident not followed by closing quote.
            let mut j = i + 1;
            let rest: &str = &src[j..];
            let mut chars = rest.chars();
            if let Some(c1) = chars.next() {
                if is_ident_start(c1) {
                    let mut k = j + c1.len_utf8();
                    while k < src.len() {
                        let ck = src[k..].chars().next().unwrap_or(' ');
                        if is_ident_continue(ck) {
                            k += ck.len_utf8();
                        } else {
                            break;
                        }
                    }
                    if !src[k..].starts_with('\'') {
                        // Lifetime.
                        out.toks.push(Tok {
                            kind: TokKind::Lifetime,
                            start,
                            end: k,
                            line,
                        });
                        line_has_code = true;
                        i = k;
                        continue;
                    }
                }
            }
            // Char literal: consume until closing quote, honoring escapes.
            j = i + 1;
            if j < bytes.len() && bytes[j] == b'\\' {
                j += 2;
                while j < bytes.len() && bytes[j] != b'\'' {
                    j += 1;
                }
                j += 1;
            } else {
                let cl = src[j..].chars().next().map_or(1, char::len_utf8);
                j += cl;
                if j < bytes.len() && bytes[j] == b'\'' {
                    j += 1;
                }
            }
            out.toks.push(Tok {
                kind: TokKind::Literal,
                start,
                end: j.min(src.len()),
                line,
            });
            line_has_code = true;
            i = j.min(src.len());
            continue;
        }
        // Number literal.
        if c.is_ascii_digit() {
            let start = i;
            while i < bytes.len() {
                let b = bytes[i] as char;
                // Accept digits, underscores, radix/exponent letters, and a
                // dot followed by a digit (so `0..n` range syntax stops).
                let dot_digit =
                    b == '.' && i + 1 < bytes.len() && (bytes[i + 1] as char).is_ascii_digit();
                if b.is_ascii_alphanumeric() || b == '_' || dot_digit {
                    i += 1;
                } else {
                    break;
                }
            }
            out.toks.push(Tok {
                kind: TokKind::Number,
                start,
                end: i,
                line,
            });
            line_has_code = true;
            continue;
        }
        // Identifier / keyword (incl. r#ident raw identifiers).
        if is_ident_start(c) {
            let start = i;
            while i < src.len() {
                let ck = src[i..].chars().next().unwrap_or(' ');
                if is_ident_continue(ck) {
                    i += ck.len_utf8();
                } else {
                    break;
                }
            }
            out.toks.push(Tok {
                kind: TokKind::Ident,
                start,
                end: i,
                line,
            });
            line_has_code = true;
            continue;
        }
        // Everything else: single-char punctuation.
        out.toks.push(Tok {
            kind: TokKind::Punct,
            start: i,
            end: i + c.len_utf8(),
            line,
        });
        line_has_code = true;
        i += c.len_utf8();
    }
    if !line_has_code && line_has_comment {
        out.comment_only_lines.push(cur_line_no);
    }
    out
}

/// If `rest` starts with a raw/byte-raw/c-raw string literal, return its
/// total byte length and the number of embedded newlines.
fn raw_string_len(rest: &str) -> Option<(usize, usize)> {
    let b = rest.as_bytes();
    let mut p = 0usize;
    // Optional b/c/br prefix before r.
    if p < b.len() && (b[p] == b'b' || b[p] == b'c') {
        p += 1;
    }
    if p >= b.len() || b[p] != b'r' {
        return None;
    }
    p += 1;
    let mut hashes = 0usize;
    while p < b.len() && b[p] == b'#' {
        hashes += 1;
        p += 1;
    }
    if p >= b.len() || b[p] != b'"' {
        return None;
    }
    p += 1;
    let closer: Vec<u8> = std::iter::once(b'"')
        .chain(std::iter::repeat_n(b'#', hashes))
        .collect();
    let mut lines = 0usize;
    while p < b.len() {
        if b[p] == b'\n' {
            lines += 1;
            p += 1;
            continue;
        }
        if b[p..].starts_with(&closer) {
            return Some((p + closer.len(), lines));
        }
        p += 1;
    }
    Some((b.len(), lines))
}

/// Extract `analyze:allow(<rule>): <reason>` from a comment's text.
fn scan_allow(comment: &str, end_line: u32, standalone: bool, out: &mut Vec<AllowDirective>) {
    const NEEDLE: &str = "analyze:allow(";
    let Some(pos) = comment.find(NEEDLE) else {
        return;
    };
    let after = &comment[pos + NEEDLE.len()..];
    let Some(close) = after.find(')') else { return };
    let rule = after[..close].trim().to_string();
    // Documentation that *describes* the syntax (`analyze:allow(<rule>)`)
    // is not a directive; real rule names are kebab-case ASCII.
    if rule.is_empty() || !rule.chars().all(|c| c.is_ascii_lowercase() || c == '-') {
        return;
    }
    let mut reason = String::new();
    let tail = &after[close + 1..];
    if let Some(stripped) = tail.trim_start().strip_prefix(':') {
        reason = stripped.trim().trim_end_matches("*/").trim().to_string();
    }
    out.push(AllowDirective {
        line: end_line,
        rule,
        reason,
        standalone,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        let l = lex(src);
        (0..l.toks.len())
            .map(|i| l.text(src, i).to_string())
            .collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            texts("let x = a + 1;"),
            ["let", "x", "=", "a", "+", "1", ";"]
        );
    }

    #[test]
    fn comments_are_stripped_but_lines_tracked() {
        let l = lex("// hi\nlet x = 1; // trailing\n/* block\nstill block */\nlet y;\n");
        assert_eq!(l.comment_only_lines, vec![1, 3, 4]);
        assert_eq!(l.toks.first().map(|t| t.line), Some(2));
    }

    #[test]
    fn nested_block_comment() {
        let l = lex("/* a /* b */ c */ let z;");
        let toks: Vec<_> = (0..l.toks.len())
            .map(|i| l.text("/* a /* b */ c */ let z;", i))
            .collect();
        assert_eq!(toks, ["let", "z", ";"]);
    }

    #[test]
    fn strings_and_chars_and_lifetimes() {
        let src = r#"let s = "a // not comment"; let c = '\n'; fn f<'a>(x: &'a str) {}"#;
        let l = lex(src);
        let kinds: Vec<_> = l.toks.iter().map(|t| t.kind).collect();
        assert!(kinds.contains(&TokKind::Literal));
        assert!(kinds.contains(&TokKind::Lifetime));
        // The string contents must not have been tokenized.
        assert!(!texts(src).iter().any(|t| t == "not"));
    }

    #[test]
    fn raw_strings() {
        let src = "let s = r#\"has \"quotes\" and // slashes\"#; let t = 1;";
        let l = lex(src);
        let has_t = (0..l.toks.len()).any(|i| l.text(src, i) == "t");
        assert!(has_t);
        assert!(!(0..l.toks.len()).any(|i| l.text(src, i) == "slashes"));
    }

    #[test]
    fn multiline_raw_string_line_numbers() {
        let src = "let s = r\"line1\nline2\";\nlet z = 9;";
        let l = lex(src);
        let z = l
            .toks
            .iter()
            .enumerate()
            .find(|(i, _)| l.text(src, *i) == "z")
            .map(|(_, t)| t.line);
        assert_eq!(z, Some(3));
    }

    #[test]
    fn raw_string_lock_shapes_do_not_tokenize() {
        // Guard tracking keys off `.lock()` / `let g =` token shapes; lock
        // code quoted inside a raw string must produce no such tokens.
        let src = "let msg = r#\"let g = self.inner.lock(); drop(g)\"#;\nlet next = 2;";
        let l = lex(src);
        let idents: Vec<&str> = l
            .toks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind == TokKind::Ident)
            .map(|(i, _)| l.text(src, i))
            .collect();
        assert_eq!(idents, ["let", "msg", "let", "next"]);
    }

    #[test]
    fn raw_string_with_double_hash_delimiter() {
        let src = "let s = r##\"ends with \"# not here\"##; let after = 1;";
        let l = lex(src);
        assert!((0..l.toks.len()).any(|i| l.text(src, i) == "after"));
        assert!(!(0..l.toks.len()).any(|i| l.text(src, i) == "here"));
    }

    #[test]
    fn nested_block_comment_hides_guard_shapes() {
        let src = "/* outer /* let g = x.lock(); */ still comment */ let real = 1;";
        let l = lex(src);
        let idents: Vec<&str> = l
            .toks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind == TokKind::Ident)
            .map(|(i, _)| l.text(src, i))
            .collect();
        assert_eq!(idents, ["let", "real"]);
    }

    #[test]
    fn lifetime_ticks_are_not_char_literals() {
        // `'a` must lex as a Lifetime token, not open a char literal that
        // would swallow the following `.lock()` call.
        let src = "fn f<'a>(g: &'a Guard) { g.inner.lock(); }";
        let l = lex(src);
        let kinds: Vec<TokKind> = l.toks.iter().map(|t| t.kind).collect();
        assert!(kinds.contains(&TokKind::Lifetime));
        assert!((0..l.toks.len()).any(|i| l.text(src, i) == "lock"));
        // And a real char literal still lexes as one token.
        let src2 = "let c = 'x'; let d = '\\'';";
        let l2 = lex(src2);
        let lits = l2
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Literal)
            .count();
        assert_eq!(lits, 2);
    }

    #[test]
    fn allow_directive_parsing() {
        let src = "// analyze:allow(io-bypass): bench artifact\nfoo();\nbar(); // analyze:allow(hot-path-panic): checked above\n";
        let l = lex(src);
        assert_eq!(l.allows.len(), 2);
        assert_eq!(l.allows[0].rule, "io-bypass");
        assert_eq!(l.allows[0].reason, "bench artifact");
        assert!(l.allows[0].standalone);
        assert_eq!(l.allows[1].rule, "hot-path-panic");
        assert!(!l.allows[1].standalone);
        assert_eq!(l.allows[1].line, 3);
    }

    #[test]
    fn allow_without_reason_is_captured_empty() {
        let l = lex("// analyze:allow(accounting-arith)\nx();\n");
        assert_eq!(l.allows.len(), 1);
        assert!(l.allows[0].reason.is_empty());
    }

    #[test]
    fn shebang_like_punct_does_not_crash() {
        let l = lex("#![warn(missing_docs)]\n#[cfg(test)]\nmod t {}\n");
        assert!(l.toks.len() > 5);
    }
}
