//! A small, total Rust lexer: good enough to walk every token of this
//! workspace, simple enough to audit in one sitting.
//!
//! The lexer is **total**: it never panics and never rejects input — any
//! byte string (decoded lossily to UTF-8 upstream) lexes to a token
//! stream, with malformed trailing constructs (unterminated strings,
//! unbalanced block comments) swallowed into the token that started
//! them. Rules only ever *read* tokens, so graceful nonsense beats a
//! hard error: a file the lexer mangles produces at worst a missed or
//! spurious diagnostic, which the waiver machinery can absorb.
//!
//! It understands exactly the constructs that would otherwise corrupt a
//! token walk over real Rust source:
//!
//! * line (`//`) and **nested** block (`/* /* */ */`) comments — kept as
//!   tokens because the waiver syntax lives in comments;
//! * string escapes, raw strings `r#"…"#` with arbitrary `#` counts,
//!   byte (`b"…"`, `br#"…"#`) and C (`c"…"`) variants;
//! * char literals vs. lifetimes (`'a'` vs. `'a`), including escaped
//!   chars (`'\''`, `'\u{1F600}'`) and byte chars (`b'x'`);
//! * raw identifiers (`r#type`) and compound operators (`+=`, `::`, …).

/// What a token is, at the granularity the rules need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `interactions`, `r#type`).
    Ident,
    /// Lifetime (`'a`, `'static`) — *not* a char literal.
    Lifetime,
    /// Char or byte-char literal (`'x'`, `b'\n'`).
    Char,
    /// Any string literal: plain, raw, byte, or C.
    Str,
    /// Numeric literal, suffix glommed on (`0xFF_u64`, `1.5e-3`).
    Num,
    /// `// …` comment (doc comments included); text excludes the newline.
    LineComment,
    /// `/* … */` comment (nesting resolved); text includes delimiters.
    BlockComment,
    /// Punctuation / operator, possibly multi-char (`+=`, `::`, `..=`).
    Punct,
}

/// One lexed token: kind, verbatim text, and 1-based source position.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokenKind,
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// 1-based column (in chars) of the token's first character.
    pub col: u32,
}

impl Token {
    /// True for comment tokens (which rules other than the waiver
    /// scanner skip).
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }
}

/// Multi-char operators, longest first so greedy matching is correct.
const COMPOUND_OPS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "&&=", "||=", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||",
    "<<", ">>", "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "..",
];

struct Cursor {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
}

impl Cursor {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }
}

fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

/// Lex `source` into a token stream. Total: never panics, accepts any
/// input, and concatenating the token texts (plus skipped whitespace)
/// reproduces the source.
pub fn lex(source: &str) -> Vec<Token> {
    let mut cur = Cursor {
        chars: source.chars().collect(),
        pos: 0,
        line: 1,
        col: 1,
    };
    let mut out = Vec::new();

    while let Some(c) = cur.peek(0) {
        let (line, col) = (cur.line, cur.col);
        if c.is_whitespace() {
            cur.bump();
            continue;
        }

        // Comments.
        if c == '/' && cur.peek(1) == Some('/') {
            let mut text = String::new();
            while let Some(ch) = cur.peek(0) {
                if ch == '\n' {
                    break;
                }
                text.push(ch);
                cur.bump();
            }
            out.push(Token {
                kind: TokenKind::LineComment,
                text,
                line,
                col,
            });
            continue;
        }
        if c == '/' && cur.peek(1) == Some('*') {
            let mut text = String::new();
            let mut depth = 0usize;
            while let Some(ch) = cur.peek(0) {
                if ch == '/' && cur.peek(1) == Some('*') {
                    depth += 1;
                    text.push('/');
                    text.push('*');
                    cur.bump();
                    cur.bump();
                } else if ch == '*' && cur.peek(1) == Some('/') {
                    depth = depth.saturating_sub(1);
                    text.push('*');
                    text.push('/');
                    cur.bump();
                    cur.bump();
                    if depth == 0 {
                        break;
                    }
                } else {
                    text.push(ch);
                    cur.bump();
                }
            }
            out.push(Token {
                kind: TokenKind::BlockComment,
                text,
                line,
                col,
            });
            continue;
        }

        // Raw identifiers and raw / byte / C string prefixes. We must
        // decide before the generic ident path eats the prefix letter.
        if is_ident_start(c) {
            if let Some(tok) = try_lex_prefixed(&mut cur, line, col) {
                out.push(tok);
                continue;
            }
            let mut text = String::new();
            while let Some(ch) = cur.peek(0) {
                if !is_ident_continue(ch) {
                    break;
                }
                text.push(ch);
                cur.bump();
            }
            out.push(Token {
                kind: TokenKind::Ident,
                text,
                line,
                col,
            });
            continue;
        }

        // Numbers (suffixes and a single decimal point glommed on; `1..2`
        // correctly leaves `..` alone).
        if c.is_ascii_digit() {
            let mut text = String::new();
            while let Some(ch) = cur.peek(0) {
                let fraction_dot = ch == '.'
                    && cur.peek(1).is_some_and(|d| d.is_ascii_digit())
                    && !text.contains('.');
                // float exponent sign: `1.5e-3`
                let exponent_sign = (ch == '+' || ch == '-')
                    && matches!(text.chars().last(), Some('e') | Some('E'))
                    && text.starts_with(|f: char| f.is_ascii_digit())
                    && text.contains('.');
                if !(is_ident_continue(ch) || fraction_dot || exponent_sign) {
                    break;
                }
                text.push(ch);
                cur.bump();
            }
            out.push(Token {
                kind: TokenKind::Num,
                text,
                line,
                col,
            });
            continue;
        }

        // Strings.
        if c == '"' {
            let text = lex_string_body(&mut cur);
            out.push(Token {
                kind: TokenKind::Str,
                text,
                line,
                col,
            });
            continue;
        }

        // Char literal vs lifetime.
        if c == '\'' {
            let tok = lex_quote(&mut cur, line, col);
            out.push(tok);
            continue;
        }

        // Punctuation: longest compound first.
        let mut matched = None;
        for op in COMPOUND_OPS {
            let mut ok = true;
            for (i, oc) in op.chars().enumerate() {
                if cur.peek(i) != Some(oc) {
                    ok = false;
                    break;
                }
            }
            if ok {
                matched = Some(*op);
                break;
            }
        }
        if let Some(op) = matched {
            for _ in 0..op.chars().count() {
                cur.bump();
            }
            out.push(Token {
                kind: TokenKind::Punct,
                text: op.to_string(),
                line,
                col,
            });
        } else {
            cur.bump();
            out.push(Token {
                kind: TokenKind::Punct,
                text: c.to_string(),
                line,
                col,
            });
        }
    }
    out
}

/// Try to lex `r#ident`, `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `c"…"`,
/// or `b'x'` at the cursor. Returns `None` when the cursor sits on a
/// plain identifier instead.
fn try_lex_prefixed(cur: &mut Cursor, line: u32, col: u32) -> Option<Token> {
    let c0 = cur.peek(0)?;
    match c0 {
        'r' | 'b' | 'c' => {}
        _ => return None,
    }

    // Longest prefix of [rbc] letters that ends in a quote or `r#`.
    // Real Rust allows: r" r#" r#ident b" b' br" br#" c" cr#".
    let c1 = cur.peek(1);
    match (c0, c1) {
        ('r', Some('"')) | ('r', Some('#')) => {
            // r#ident (raw identifier) vs raw string r#"…".
            if c1 == Some('#') && cur.peek(2).is_some_and(is_ident_start) {
                let mut text = String::new();
                text.push(cur.bump()?); // r
                text.push(cur.bump()?); // #
                while let Some(ch) = cur.peek(0) {
                    if !is_ident_continue(ch) {
                        break;
                    }
                    text.push(ch);
                    cur.bump();
                }
                return Some(Token {
                    kind: TokenKind::Ident,
                    text,
                    line,
                    col,
                });
            }
            cur.bump(); // r
            let mut text = String::from("r");
            text.push_str(&lex_raw_string_body(cur));
            Some(Token {
                kind: TokenKind::Str,
                text,
                line,
                col,
            })
        }
        ('b', Some('"')) => {
            cur.bump();
            let mut text = String::from("b");
            text.push_str(&lex_string_body(cur));
            Some(Token {
                kind: TokenKind::Str,
                text,
                line,
                col,
            })
        }
        ('b', Some('\'')) => {
            cur.bump();
            let mut tok = lex_quote(cur, line, col);
            tok.text.insert(0, 'b');
            tok.col = col;
            Some(tok)
        }
        ('b', Some('r')) if matches!(cur.peek(2), Some('"') | Some('#')) => {
            cur.bump();
            cur.bump();
            let mut text = String::from("br");
            text.push_str(&lex_raw_string_body(cur));
            Some(Token {
                kind: TokenKind::Str,
                text,
                line,
                col,
            })
        }
        ('c', Some('"')) => {
            cur.bump();
            let mut text = String::from("c");
            text.push_str(&lex_string_body(cur));
            Some(Token {
                kind: TokenKind::Str,
                text,
                line,
                col,
            })
        }
        _ => None,
    }
}

/// Lex `"…"` with escapes; cursor sits on the opening quote. Swallows
/// to EOF when unterminated.
fn lex_string_body(cur: &mut Cursor) -> String {
    let mut text = String::new();
    if let Some(q) = cur.bump() {
        text.push(q); // opening "
    }
    while let Some(ch) = cur.peek(0) {
        if ch == '\\' {
            text.push(ch);
            cur.bump();
            if let Some(esc) = cur.bump() {
                text.push(esc);
            }
            continue;
        }
        text.push(ch);
        cur.bump();
        if ch == '"' {
            break;
        }
    }
    text
}

/// Lex `#*"…"#*` (cursor on the first `#` or the quote). Swallows to
/// EOF when unterminated or malformed.
fn lex_raw_string_body(cur: &mut Cursor) -> String {
    let mut text = String::new();
    let mut hashes = 0usize;
    while cur.peek(0) == Some('#') {
        text.push('#');
        hashes += 1;
        cur.bump();
    }
    if cur.peek(0) != Some('"') {
        // `r##x` — not actually a raw string; return what we consumed
        // and let the main loop lex the rest. Harmless for rule checks.
        return text;
    }
    text.push('"');
    cur.bump();
    'outer: while let Some(ch) = cur.peek(0) {
        if ch == '"' {
            // A closing quote counts only when followed by `hashes` #s.
            for i in 0..hashes {
                if cur.peek(1 + i) != Some('#') {
                    text.push(ch);
                    cur.bump();
                    continue 'outer;
                }
            }
            text.push('"');
            cur.bump();
            for _ in 0..hashes {
                text.push('#');
                cur.bump();
            }
            break;
        }
        text.push(ch);
        cur.bump();
    }
    text
}

/// Disambiguate `'a'` (char) from `'a` (lifetime); cursor on the `'`.
fn lex_quote(cur: &mut Cursor, line: u32, col: u32) -> Token {
    let mut text = String::new();
    if let Some(q) = cur.bump() {
        text.push(q);
    }
    match cur.peek(0) {
        Some('\\') => {
            // Escaped char literal: consume escape then to closing quote.
            text.push('\\');
            cur.bump();
            if let Some(esc) = cur.bump() {
                text.push(esc);
                if esc == 'u' {
                    // '\u{…}'
                    while let Some(ch) = cur.peek(0) {
                        text.push(ch);
                        cur.bump();
                        if ch == '}' {
                            break;
                        }
                    }
                } else if esc == 'x' {
                    for _ in 0..2 {
                        if let Some(ch) = cur.peek(0) {
                            if ch != '\'' {
                                text.push(ch);
                                cur.bump();
                            }
                        }
                    }
                }
            }
            if cur.peek(0) == Some('\'') {
                text.push('\'');
                cur.bump();
            }
            Token {
                kind: TokenKind::Char,
                text,
                line,
                col,
            }
        }
        Some(c) if is_ident_start(c) => {
            if cur.peek(1) == Some('\'') {
                // 'a'
                text.push(c);
                cur.bump();
                text.push('\'');
                cur.bump();
                Token {
                    kind: TokenKind::Char,
                    text,
                    line,
                    col,
                }
            } else {
                // 'a, 'static, 'outer — a lifetime (or loop label).
                while let Some(ch) = cur.peek(0) {
                    if !is_ident_continue(ch) {
                        break;
                    }
                    text.push(ch);
                    cur.bump();
                }
                Token {
                    kind: TokenKind::Lifetime,
                    text,
                    line,
                    col,
                }
            }
        }
        Some(c) => {
            // Punctuation char literal: '(' ')' ' ' etc.
            text.push(c);
            cur.bump();
            if cur.peek(0) == Some('\'') {
                text.push('\'');
                cur.bump();
                Token {
                    kind: TokenKind::Char,
                    text,
                    line,
                    col,
                }
            } else {
                // Stray quote — treat as punct so lexing stays total.
                Token {
                    kind: TokenKind::Punct,
                    text,
                    line,
                    col,
                }
            }
        }
        None => Token {
            kind: TokenKind::Punct,
            text,
            line,
            col,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_and_ops() {
        let t = kinds("let x += y_2 ^ 0xFF;");
        assert_eq!(
            t,
            vec![
                (TokenKind::Ident, "let".into()),
                (TokenKind::Ident, "x".into()),
                (TokenKind::Punct, "+=".into()),
                (TokenKind::Ident, "y_2".into()),
                (TokenKind::Punct, "^".into()),
                (TokenKind::Num, "0xFF".into()),
                (TokenKind::Punct, ";".into()),
            ]
        );
    }

    #[test]
    fn char_literal_vs_lifetime() {
        let t = kinds("'a' 'static x: &'a str 'x' b'q' '\\n' '\\u{1F600}'");
        let kinds_only: Vec<TokenKind> = t.iter().map(|(k, _)| *k).collect();
        assert_eq!(
            kinds_only,
            vec![
                TokenKind::Char,
                TokenKind::Lifetime,
                TokenKind::Ident,
                TokenKind::Punct,
                TokenKind::Punct,
                TokenKind::Lifetime,
                TokenKind::Ident,
                TokenKind::Char,
                TokenKind::Char,
                TokenKind::Char,
                TokenKind::Char,
            ]
        );
    }

    #[test]
    fn raw_strings_arbitrary_hashes() {
        let t = kinds(r####"r"plain" r#"one "quoted" level"# r##"deep "# inside"## x"####);
        assert_eq!(t[0].0, TokenKind::Str);
        assert_eq!(t[1].0, TokenKind::Str);
        assert!(t[1].1.contains("\"quoted\""));
        assert_eq!(t[2].0, TokenKind::Str);
        assert!(t[2].1.contains("\"# inside"));
        assert_eq!(t[3], (TokenKind::Ident, "x".into()));
    }

    #[test]
    fn byte_and_c_strings() {
        let t = kinds(r##"b"bytes" br#"raw bytes"# c"cstr" b'z'"##);
        assert_eq!(t[0].0, TokenKind::Str);
        assert_eq!(t[1].0, TokenKind::Str);
        assert_eq!(t[2].0, TokenKind::Str);
        assert_eq!(t[3].0, TokenKind::Char);
        assert_eq!(t[3].1, "b'z'");
    }

    #[test]
    fn nested_block_comments() {
        let t = kinds("a /* outer /* inner */ still outer */ b");
        assert_eq!(t[0], (TokenKind::Ident, "a".into()));
        assert_eq!(t[1].0, TokenKind::BlockComment);
        assert!(t[1].1.contains("still outer"));
        assert_eq!(t[2], (TokenKind::Ident, "b".into()));
    }

    #[test]
    fn line_comment_keeps_text_and_position() {
        let toks = lex("x\n  // lint:allow(D001): frozen stream\ny");
        assert_eq!(toks[1].kind, TokenKind::LineComment);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[1].col, 3);
        assert!(toks[1].text.contains("lint:allow(D001)"));
        assert_eq!(toks[2].line, 3);
    }

    #[test]
    fn string_escapes_do_not_terminate_early() {
        let t = kinds(r#""a \" b" next"#);
        assert_eq!(t[0].0, TokenKind::Str);
        assert!(t[0].1.contains("\\\""));
        assert_eq!(t[1], (TokenKind::Ident, "next".into()));
    }

    #[test]
    fn raw_identifier() {
        let t = kinds("r#type r#fn x");
        assert_eq!(t[0], (TokenKind::Ident, "r#type".into()));
        assert_eq!(t[1], (TokenKind::Ident, "r#fn".into()));
        assert_eq!(t[2], (TokenKind::Ident, "x".into()));
    }

    #[test]
    fn unterminated_constructs_lex_to_eof() {
        // Totality: none of these may panic or loop forever.
        for src in [
            "\"unterminated",
            "r#\"unterminated raw",
            "/* unterminated /* nested",
            "'",
            "b'",
            "'\\",
            "r#",
            "1.5e",
        ] {
            let _ = lex(src);
        }
    }

    #[test]
    fn numbers_glom_suffixes_but_not_ranges() {
        let t = kinds("0u64 1_000_000 1.5e-3 0..n 2.0f64");
        assert_eq!(t[0], (TokenKind::Num, "0u64".into()));
        assert_eq!(t[1], (TokenKind::Num, "1_000_000".into()));
        assert_eq!(t[2], (TokenKind::Num, "1.5e-3".into()));
        assert_eq!(t[3], (TokenKind::Num, "0".into()));
        assert_eq!(t[4], (TokenKind::Punct, "..".into()));
        assert_eq!(t[5], (TokenKind::Ident, "n".into()));
        assert_eq!(t[6], (TokenKind::Num, "2.0f64".into()));
    }

    #[test]
    fn positions_are_one_based_char_columns() {
        let toks = lex("αβ x");
        // 'αβ' is an ident starting at col 1; 'x' starts at col 4.
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (1, 4));
    }
}
