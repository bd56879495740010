//! A small, line-oriented Rust token scanner.
//!
//! This is *not* a parser: it classifies the character stream into just
//! enough token kinds for policy checks — identifiers, punctuation,
//! numeric literals (with float/int distinction), string/char literals,
//! and attributes — while tracking line numbers. Its one hard job is
//! never to report a token from inside a string, char literal, or
//! comment.
//!
//! Supported syntax: line + nested block comments, `"…"` strings with
//! escapes, raw strings `r#"…"#` (any hash depth, plus `b`/`br`
//! prefixes), char literals vs. lifetimes, numeric literals with `_`
//! separators / exponents / type suffixes, and outer (`#[…]`) and inner
//! (`#![…]`) attributes captured as single balanced tokens.

/// Classification of a scanned token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`unwrap`, `unsafe`, `fn`, …).
    Ident,
    /// Punctuation; multi-char operators `==`, `!=`, `::`, `..`, `->`,
    /// `=>` are combined into one token.
    Punct,
    /// Integer literal (`42`, `0xFF`, `1_000u64`).
    Int,
    /// Floating literal (`1.0`, `0.`, `1e-3`, `2f32`).
    Float,
    /// String literal (regular, raw, or byte), quotes included.
    Str,
    /// Char literal (`'a'`, `'\n'`).
    Char,
    /// Lifetime (`'a`) — distinguished from char literals.
    Lifetime,
    /// A whole attribute, `#[…]` or `#![…]`, captured balanced.
    Attr,
}

/// One scanned token: kind, 1-based line of its first character, and its
/// source text.
#[derive(Debug, Clone)]
pub struct Token {
    /// Token classification.
    pub kind: TokenKind,
    /// 1-based source line of the token's first character.
    pub line: usize,
    /// The token's source text.
    pub text: String,
}

/// Result of scanning one source file (comments are skipped).
#[derive(Debug, Default)]
pub struct Scan {
    /// Code tokens in source order.
    pub tokens: Vec<Token>,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Scanner state over a char vector (we index chars, not bytes, so
/// multi-byte characters in comments/strings cannot split tokens).
struct Scanner {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    out: Scan,
}

impl Scanner {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn push_token(&mut self, kind: TokenKind, line: usize, text: String) {
        self.out.tokens.push(Token { kind, line, text });
    }

    /// Skip a `//…` comment (to end of line, newline not consumed).
    fn line_comment(&mut self) {
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            self.pos += 1; // never a newline, so no line bump needed
        }
    }

    /// Skip a `/* … */` comment, honoring nesting.
    fn block_comment(&mut self) {
        let mut depth = 0usize;
        while let Some(c) = self.bump() {
            if c == '/' && self.peek(0) == Some('*') {
                self.bump();
                depth += 1;
            } else if c == '*' && self.peek(0) == Some('/') {
                self.bump();
                if depth == 1 {
                    break;
                }
                depth = depth.saturating_sub(1);
            }
        }
    }

    /// Consume a regular `"…"` string (opening quote already pending at
    /// `pos`); returns its text including quotes.
    fn quoted_string(&mut self) -> String {
        let mut text = String::new();
        // Opening quote.
        if let Some(c) = self.bump() {
            text.push(c);
        }
        while let Some(c) = self.bump() {
            text.push(c);
            match c {
                '\\' => {
                    // Skip the escaped character (handles \" and \\).
                    if let Some(e) = self.bump() {
                        text.push(e);
                    }
                }
                '"' => break,
                _ => {}
            }
        }
        text
    }

    /// Consume a raw string `r#*"…"#*` whose `r` has already been
    /// consumed; `hashes` is the number of `#` after `r`.
    fn raw_string(&mut self, mut text: String, hashes: usize) -> String {
        // Opening quote.
        if let Some(c) = self.bump() {
            text.push(c);
        }
        loop {
            match self.bump() {
                None => break,
                Some('"') => {
                    text.push('"');
                    let mut seen = 0;
                    while seen < hashes && self.peek(0) == Some('#') {
                        text.push('#');
                        self.bump();
                        seen += 1;
                    }
                    if seen == hashes {
                        break;
                    }
                }
                Some(c) => text.push(c),
            }
        }
        text
    }

    /// Consume an attribute starting at `#` (optionally `#!`), capturing
    /// balanced `[…]` while respecting strings and comments inside.
    fn attribute(&mut self) {
        let line = self.line;
        let mut text = String::new();
        text.push('#');
        self.bump();
        if self.peek(0) == Some('!') {
            text.push('!');
            self.bump();
        }
        if self.peek(0) != Some('[') {
            // Stray `#` (e.g. inside macro_rules) — emit as punct.
            self.push_token(TokenKind::Punct, line, text);
            return;
        }
        let mut depth = 0usize;
        while let Some(c) = self.peek(0) {
            match c {
                '[' => {
                    depth += 1;
                    text.push(c);
                    self.bump();
                }
                ']' => {
                    text.push(c);
                    self.bump();
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                '"' => text.push_str(&self.quoted_string()),
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                _ => {
                    text.push(c);
                    self.bump();
                }
            }
        }
        self.push_token(TokenKind::Attr, line, text);
    }

    /// Consume a numeric literal; classifies float vs. int.
    fn number(&mut self) {
        let line = self.line;
        let mut text = String::new();
        let mut is_float = false;

        // Hex/octal/binary prefixes are always integers.
        if self.peek(0) == Some('0')
            && matches!(self.peek(1), Some('x') | Some('X') | Some('o') | Some('b'))
        {
            text.push(self.bump().unwrap_or('0'));
            text.push(self.bump().unwrap_or('x'));
            while let Some(c) = self.peek(0) {
                if c.is_ascii_hexdigit() || c == '_' {
                    text.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            self.push_token(TokenKind::Int, line, text);
            return;
        }

        while let Some(c) = self.peek(0) {
            if c.is_ascii_digit() || c == '_' {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        // Decimal point: only when not `..` (range) and not a method
        // call on a literal (`1.max(2)`).
        if self.peek(0) == Some('.') {
            let next = self.peek(1);
            let is_range = next == Some('.');
            let is_method = next.map(is_ident_start).unwrap_or(false);
            if !is_range && !is_method {
                is_float = true;
                text.push('.');
                self.bump();
                while let Some(c) = self.peek(0) {
                    if c.is_ascii_digit() || c == '_' {
                        text.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
        }
        // Exponent.
        if matches!(self.peek(0), Some('e') | Some('E')) {
            let mut ahead = 1;
            if matches!(self.peek(1), Some('+') | Some('-')) {
                ahead = 2;
            }
            if self
                .peek(ahead)
                .map(|c| c.is_ascii_digit())
                .unwrap_or(false)
            {
                is_float = true;
                for _ in 0..ahead {
                    if let Some(c) = self.bump() {
                        text.push(c);
                    }
                }
                while let Some(c) = self.peek(0) {
                    if c.is_ascii_digit() || c == '_' {
                        text.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
        }
        // Type suffix (f32/f64 forces float; u8/i64/usize stay int).
        if self.peek(0).map(is_ident_start).unwrap_or(false) {
            let mut suffix = String::new();
            while let Some(c) = self.peek(0) {
                if is_ident_continue(c) {
                    suffix.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            if suffix == "f32" || suffix == "f64" {
                is_float = true;
            }
            text.push_str(&suffix);
        }
        let kind = if is_float {
            TokenKind::Float
        } else {
            TokenKind::Int
        };
        self.push_token(kind, line, text);
    }

    /// After a `'`: char literal or lifetime?
    fn char_or_lifetime(&mut self) {
        let line = self.line;
        let mut text = String::from("'");
        self.bump(); // the quote
        match self.peek(0) {
            Some('\\') => {
                // Escaped char literal.
                text.push('\\');
                self.bump();
                if let Some(e) = self.bump() {
                    text.push(e);
                }
                // Consume up to the closing quote (covers \u{…}).
                while let Some(c) = self.bump() {
                    text.push(c);
                    if c == '\'' {
                        break;
                    }
                }
                self.push_token(TokenKind::Char, line, text);
            }
            Some(c) if is_ident_start(c) => {
                // `'a'` is a char; `'a` (no closing quote) is a lifetime.
                let mut ident = String::new();
                let mut ahead = 0;
                while let Some(n) = self.peek(ahead) {
                    if is_ident_continue(n) {
                        ident.push(n);
                        ahead += 1;
                    } else {
                        break;
                    }
                }
                if self.peek(ahead) == Some('\'') && ident.chars().count() == 1 {
                    // Char literal 'x'.
                    for _ in 0..=ahead {
                        if let Some(ch) = self.bump() {
                            text.push(ch);
                        }
                    }
                    self.push_token(TokenKind::Char, line, text);
                } else {
                    for _ in 0..ahead {
                        if let Some(ch) = self.bump() {
                            text.push(ch);
                        }
                    }
                    self.push_token(TokenKind::Lifetime, line, text);
                }
            }
            Some(c) => {
                // Punctuation char literal like '(' or ' '.
                text.push(c);
                self.bump();
                if self.peek(0) == Some('\'') {
                    text.push('\'');
                    self.bump();
                }
                self.push_token(TokenKind::Char, line, text);
            }
            None => self.push_token(TokenKind::Punct, line, text),
        }
    }
}

/// Scan `source` into tokens.
pub fn scan(source: &str) -> Scan {
    let mut s = Scanner {
        chars: source.chars().collect(),
        pos: 0,
        line: 1,
        out: Scan::default(),
    };

    while let Some(c) = s.peek(0) {
        match c {
            c if c.is_whitespace() => {
                s.bump();
            }
            '/' if s.peek(1) == Some('/') => s.line_comment(),
            '/' if s.peek(1) == Some('*') => s.block_comment(),
            '#' => s.attribute(),
            '"' => {
                let line = s.line;
                let text = s.quoted_string();
                s.push_token(TokenKind::Str, line, text);
            }
            'r' | 'b' => {
                // Raw / byte strings: r", r#", br", b", b#…
                let line = s.line;
                let mut ahead = 1;
                let mut prefix = String::new();
                prefix.push(c);
                if c == 'b' && s.peek(1) == Some('r') {
                    prefix.push('r');
                    ahead = 2;
                }
                let mut hashes = 0;
                while s.peek(ahead) == Some('#') {
                    hashes += 1;
                    ahead += 1;
                }
                if s.peek(ahead) == Some('"') && (hashes == 0 || prefix.ends_with('r') || c == 'r')
                {
                    // It is a (raw/byte) string start.
                    for _ in 0..ahead {
                        s.bump();
                    }
                    let text = if hashes == 0 && !prefix.ends_with('r') && c == 'b' {
                        // b"…" is escape-processed like a normal string.
                        let mut t = prefix.clone();
                        t.push_str(&s.quoted_string());
                        t
                    } else if hashes == 0 && (c == 'r' || prefix.ends_with('r')) {
                        let mut t = prefix.clone();
                        t.push_str(&s.raw_string(String::new(), 0));
                        t
                    } else {
                        let mut t = prefix.clone();
                        for _ in 0..hashes {
                            t.push('#');
                        }
                        t.push_str(&s.raw_string(String::new(), hashes));
                        t
                    };
                    s.push_token(TokenKind::Str, line, text);
                } else {
                    // Plain identifier starting with r/b.
                    let mut text = String::new();
                    while let Some(n) = s.peek(0) {
                        if is_ident_continue(n) {
                            text.push(n);
                            s.bump();
                        } else {
                            break;
                        }
                    }
                    s.push_token(TokenKind::Ident, line, text);
                }
            }
            '\'' => s.char_or_lifetime(),
            c if c.is_ascii_digit() => s.number(),
            c if is_ident_start(c) => {
                let line = s.line;
                let mut text = String::new();
                while let Some(n) = s.peek(0) {
                    if is_ident_continue(n) {
                        text.push(n);
                        s.bump();
                    } else {
                        break;
                    }
                }
                s.push_token(TokenKind::Ident, line, text);
            }
            _ => {
                let line = s.line;
                let mut text = String::new();
                text.push(c);
                s.bump();
                // Combine the two-char operators checks care about.
                if let Some(n) = s.peek(0) {
                    let pair = matches!(
                        (c, n),
                        ('=', '=')
                            | ('!', '=')
                            | (':', ':')
                            | ('.', '.')
                            | ('-', '>')
                            | ('=', '>')
                            | ('&', '&')
                            | ('|', '|')
                            | ('<', '=')
                            | ('>', '=')
                    );
                    if pair {
                        text.push(n);
                        s.bump();
                    }
                }
                s.push_token(TokenKind::Punct, line, text);
            }
        }
    }
    s.out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        scan(src)
            .tokens
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn comments_are_skipped_not_tokens() {
        let s = scan("let x = 1; // unwrap() here\n/* block\nspans */ let y = 2;");
        let words: Vec<&str> = s.tokens.iter().map(|t| t.text.as_str()).collect();
        assert!(!words.contains(&"unwrap") && !words.contains(&"block"));
        let y = s.tokens.iter().find(|t| t.text == "y");
        assert_eq!(y.map(|t| t.line), Some(3), "block comments keep line count");
    }

    #[test]
    fn strings_hide_operators_and_markers() {
        let toks = kinds(r#"let s = "a == b // not a comment"; x == y"#);
        let strs: Vec<_> = toks.iter().filter(|(k, _)| *k == TokenKind::Str).collect();
        assert_eq!(strs.len(), 1);
        let eqs = toks.iter().filter(|(_, t)| t == "==").count();
        assert_eq!(eqs, 1, "only the code `==` outside the string counts");
    }

    #[test]
    fn raw_strings_with_hashes() {
        let toks = kinds(r##"let s = r#"embedded "quotes" and == ops"#; a != b"##);
        let eqs = toks.iter().filter(|(_, t)| t == "!=" || t == "==").count();
        assert_eq!(eqs, 1);
    }

    #[test]
    fn float_vs_int_vs_range() {
        let toks = kinds(
            "let a = 1.0; let b = 0.; let c = 1e-3; let d = 2f32; \
                          let e = 42; let f = 0xFF; for i in 0..10 {}",
        );
        let floats: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Float)
            .map(|(_, t)| t.clone())
            .collect();
        assert_eq!(floats, vec!["1.0", "0.", "1e-3", "2f32"]);
        let ints: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Int)
            .map(|(_, t)| t.clone())
            .collect();
        assert!(ints.contains(&"42".to_string()));
        assert!(ints.contains(&"0xFF".to_string()));
        assert!(ints.contains(&"0".to_string()) && ints.contains(&"10".to_string()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) -> char { 'x' }");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Lifetime && t == "'a"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Char && t == "'x'"));
    }

    #[test]
    fn attributes_are_single_balanced_tokens() {
        let toks = kinds("#[allow(clippy::unwrap_used)]\nfn f() {}\n#![warn(missing_docs)]");
        let attrs: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Attr)
            .map(|(_, t)| t.clone())
            .collect();
        assert_eq!(attrs.len(), 2);
        assert!(attrs[0].contains("unwrap_used"));
        assert!(attrs[1].starts_with("#!["));
    }

    #[test]
    fn escaped_quotes_do_not_terminate_strings() {
        let toks = kinds(r#"let s = "he said \"==\" loudly"; y"#);
        let eqs = toks.iter().filter(|(_, t)| t == "==").count();
        assert_eq!(eqs, 0);
    }

    #[test]
    fn line_numbers_track_newlines_in_all_token_shapes() {
        let src = "line1();\n\"multi\nline\nstring\";\nafter();";
        let s = scan(src);
        let after = s.tokens.iter().find(|t| t.text == "after");
        assert_eq!(after.map(|t| t.line), Some(5));
    }

    #[test]
    fn nested_block_comments() {
        let s = scan("/* outer /* inner */ still comment */ code()");
        assert!(s.tokens.iter().any(|t| t.text == "code"));
        assert!(!s.tokens.iter().any(|t| t.text == "inner"));
    }
}
