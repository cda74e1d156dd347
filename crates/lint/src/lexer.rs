//! A token-level Rust lexer: just enough of the language to drive the
//! rule engine in [`crate::rules`].
//!
//! This is deliberately not a parser. The rules only need a faithful
//! token stream with line numbers — identifiers, punctuation, literals
//! — plus the line comments (where `// dmp-lint: allow(...)`
//! annotations live). The tricky parts a naive `split_whitespace` scan
//! would get wrong are handled properly: nested block comments, string
//! escapes, raw strings (`r#"…"#` with any hash count), byte strings,
//! char literals vs. lifetimes (`'a'` vs. `'a`), raw identifiers
//! (`r#fn`), and numbers (`1.0` is one token; `1.max(2)`, `0..10` and
//! `x.0.lock()` keep their dots).

/// Token classification. Only as fine-grained as the rules need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (the rules treat keywords as idents).
    Ident,
    /// Numeric literal, suffix included (`0x1e`, `2f64`, `1.0`).
    Num,
    /// String, byte-string, or raw-string literal.
    Str,
    /// Character or byte literal.
    Char,
    /// Lifetime (`'a`, `'_`).
    Lifetime,
    /// Single punctuation character. Rules match multi-char operators
    /// (`::`) as consecutive punct tokens.
    Punct,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
}

impl Tok {
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }
}

/// A `//` line comment, with the text after the slashes.
#[derive(Debug, Clone)]
pub struct Comment {
    pub text: String,
    pub line: u32,
    /// Whether any token precedes the comment on its own line (a
    /// trailing comment annotates that line; a standalone comment
    /// annotates the next token-bearing line).
    pub trailing: bool,
}

/// Lexer output: the token stream and the line comments.
#[derive(Debug, Default)]
pub struct Lexed {
    pub toks: Vec<Tok>,
    pub comments: Vec<Comment>,
}

pub fn lex(src: &str) -> Lexed {
    Lexer {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: Lexed,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    /// Advance one char, tracking line numbers.
    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn push(&mut self, kind: TokKind, text: String, line: u32) {
        self.out.toks.push(Tok { kind, text, line });
    }

    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string(line),
                '\'' => self.char_or_lifetime(line),
                'r' | 'b' if self.raw_or_byte_string(line) => {}
                c if is_ident_start(c) => self.ident(line),
                c if c.is_ascii_digit() => self.number(line),
                _ => {
                    let c = self.bump().unwrap_or_default();
                    self.push(TokKind::Punct, c.to_string(), line);
                }
            }
        }
        self.out
    }

    fn line_comment(&mut self) {
        let line = self.line;
        let trailing = self.out.toks.last().is_some_and(|t| t.line == line);
        self.bump();
        self.bump();
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.out.comments.push(Comment {
            text,
            line,
            trailing,
        });
    }

    fn block_comment(&mut self) {
        self.bump();
        self.bump();
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    self.bump();
                    self.bump();
                    depth += 1;
                }
                (Some('*'), Some('/')) => {
                    self.bump();
                    self.bump();
                    depth -= 1;
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break,
            }
        }
    }

    /// Ordinary (escaped) string body, after the opening quote.
    fn string(&mut self, line: u32) {
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '"' => break,
                _ => {}
            }
        }
        self.push(TokKind::Str, String::new(), line);
    }

    /// Try to lex a raw string (`r"…"`, `r#"…"#`), byte string
    /// (`b"…"`), byte raw string (`br#"…"#`), or raw identifier
    /// (`r#fn`). Returns false if the current position is a plain
    /// identifier starting with `r`/`b`, leaving the position
    /// untouched.
    fn raw_or_byte_string(&mut self, line: u32) -> bool {
        let c0 = self.peek(0);
        let mut i = 1;
        if c0 == Some('b') && self.peek(1) == Some('r') {
            i = 2;
        }
        let raw = i == 2 || c0 == Some('r');
        let mut hashes = 0usize;
        if raw {
            while self.peek(i) == Some('#') {
                hashes += 1;
                i += 1;
            }
        }
        match self.peek(i) {
            Some('"') => {}
            Some(c) if raw && hashes == 1 && is_ident_start(c) => {
                // Raw identifier `r#name`: consume prefix, lex as ident.
                self.bump();
                self.bump();
                self.ident(line);
                return true;
            }
            _ => return false,
        }
        // Consume up to and including the opening quote.
        for _ in 0..=i {
            self.bump();
        }
        if raw {
            // Scan for `"` followed by `hashes` hash marks.
            'outer: while let Some(c) = self.bump() {
                if c == '"' {
                    for h in 0..hashes {
                        if self.peek(h) != Some('#') {
                            continue 'outer;
                        }
                    }
                    for _ in 0..hashes {
                        self.bump();
                    }
                    break;
                }
            }
        } else {
            while let Some(c) = self.bump() {
                match c {
                    '\\' => {
                        self.bump();
                    }
                    '"' => break,
                    _ => {}
                }
            }
        }
        self.push(TokKind::Str, String::new(), line);
        true
    }

    /// `'a'` / `'\n'` are char literals; `'a` / `'_` are lifetimes.
    fn char_or_lifetime(&mut self, line: u32) {
        self.bump(); // the quote
        let first = self.peek(0);
        let second = self.peek(1);
        let is_lifetime = matches!(first, Some(c) if is_ident_start(c))
            && second != Some('\'')
            && first != Some('\\');
        if is_lifetime {
            let text = self.take_ident_continue();
            self.push(TokKind::Lifetime, text, line);
            return;
        }
        // Char literal: consume through the closing quote.
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '\'' => break,
                _ => {}
            }
        }
        self.push(TokKind::Char, String::new(), line);
    }

    fn ident(&mut self, line: u32) {
        let text = self.take_ident_continue();
        self.push(TokKind::Ident, text, line);
    }

    /// A numeric literal: digits, radix prefix and suffix, plus a
    /// fraction when a digit follows the dot. An exponent sign splits
    /// the token (`1e-3` is `1e`, `-`, `3`), which no rule can see.
    fn number(&mut self, line: u32) {
        let mut text = self.take_ident_continue();
        if self.peek(0) == Some('.') && self.peek(1).is_some_and(|c| c.is_ascii_digit()) {
            self.bump();
            text.push('.');
            text.push_str(&self.take_ident_continue());
        }
        self.push(TokKind::Num, text, line);
    }

    fn take_ident_continue(&mut self) -> String {
        let mut text = String::new();
        while let Some(c) = self.peek(0).filter(|&c| is_ident_continue(c)) {
            text.push(c);
            self.bump();
        }
        text
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .toks
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn floats_vs_ints() {
        let toks = kinds("1.0 1e12 2f64 1_000_000.0 0x1e 1.max(2) 0..10 x.0");
        let nums: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Num)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(
            nums,
            [
                "1.0",
                "1e12",
                "2f64",
                "1_000_000.0",
                "0x1e",
                "1",
                "2",
                "0",
                "10",
                "0"
            ]
        );
    }

    #[test]
    fn lifetimes_vs_chars() {
        let toks = kinds("&'a str 'x' '\\n' '_");
        let lifetimes: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Lifetime)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(lifetimes, ["a", "_"]);
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Char).count(), 2);
    }

    #[test]
    fn raw_strings_hide_contents() {
        let toks = kinds(r####"let x = r#"HashMap.unwrap()"# ; y"####);
        assert!(!toks.iter().any(|(_, t)| t == "HashMap" || t == "unwrap"));
        assert!(toks.iter().any(|(_, t)| t == "y"));
    }

    #[test]
    fn nested_block_comments_and_line_comments() {
        let lexed = lex("a /* x /* y */ z */ b // trailing\n// standalone\nc");
        let idents: Vec<&str> = lexed.toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(idents, ["a", "b", "c"]);
        assert_eq!(lexed.comments.len(), 2);
        assert!(lexed.comments[0].trailing);
        assert!(!lexed.comments[1].trailing);
        assert_eq!(lexed.comments[1].line, 2);
    }

    #[test]
    fn raw_identifiers() {
        let toks = kinds("r#fn r#type");
        assert_eq!(
            toks,
            vec![
                (TokKind::Ident, "fn".to_string()),
                (TokKind::Ident, "type".to_string())
            ]
        );
    }

    #[test]
    fn line_numbers_cross_strings() {
        let lexed = lex("a\n\"two\nlines\"\nb");
        assert_eq!(lexed.toks[0].line, 1);
        assert_eq!(lexed.toks[1].line, 2);
        assert_eq!(lexed.toks[2].line, 4);
    }
}
