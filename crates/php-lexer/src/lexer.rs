//! The PHP lexer: a faithful, total re-implementation of the behaviour the
//! paper relies on from PHP's `token_get_all`.
//!
//! The lexer is *total*: any byte sequence produces a token stream, never an
//! error (unclassifiable bytes become [`TokenKind::Unknown`]). Every token's
//! `text` is the slice of the input it was lexed from, and the slices tile
//! the input, so concatenating them reproduces it exactly; the `phpsafe`
//! analyzer and both baselines depend on this when mapping findings back to
//! source lines.

use crate::cursor::Cursor;
use crate::token::{keyword_kind, Token, TokenKind};

/// Lexes a complete PHP source file (starting in HTML mode, as PHP does).
///
/// # Examples
///
/// ```
/// use php_lexer::{tokenize, TokenKind};
/// let toks = tokenize("<?php echo $_GET['id']; ?>");
/// assert!(toks.iter().any(|t| t.kind == TokenKind::Variable && t.text == "$_GET"));
/// ```
pub fn tokenize(src: &str) -> Vec<Token<'_>> {
    let _span = phpsafe_obs::span!("stage.lex", src);
    let toks = Lexer::new(src).run();
    phpsafe_obs::count("lex.files", 1);
    phpsafe_obs::count("lex.tokens", toks.len() as u64);
    toks
}

/// Lexes source and drops trivia (whitespace/comments), the view parsers use.
pub fn tokenize_significant(src: &str) -> Vec<Token<'_>> {
    let mut toks = tokenize(src);
    toks.retain(|t| !t.kind.is_trivia());
    toks
}

/// What terminates an interpolated scanning region.
#[derive(Debug, Clone, Copy)]
enum InterpEnd<'a> {
    DoubleQuote,
    Backtick,
    /// The (non-empty) terminator label.
    Heredoc(&'a str),
}

/// Streaming PHP lexer. Construct with [`Lexer::new`], consume with
/// [`Lexer::run`].
#[derive(Debug)]
pub struct Lexer<'a> {
    cur: Cursor<'a>,
    out: Vec<Token<'a>>,
}

impl<'a> Lexer<'a> {
    /// Creates a lexer over `src`.
    pub fn new(src: &'a str) -> Self {
        Lexer {
            cur: Cursor::new(src),
            // PHP source averages well under one token per 4 bytes; one
            // up-front guess avoids the doubling-regrowth copies.
            out: Vec::with_capacity(src.len() / 4),
        }
    }

    /// Runs the lexer to completion, returning the token stream.
    pub fn run(mut self) -> Vec<Token<'a>> {
        while !self.cur.is_eof() {
            self.lex_html_until_open_tag();
            // Inside PHP until a close tag flips us back to HTML mode.
            while !self.cur.is_eof() {
                if self.cur.starts_with("?>", false) {
                    let line = self.cur.line();
                    let tag = self.cur.advance(2);
                    self.push(TokenKind::CloseTag, tag, line);
                    break;
                }
                self.lex_php_token();
            }
        }
        self.out
    }

    fn push(&mut self, kind: TokenKind, text: &'a str, line: u32) {
        self.out.push(Token::new(kind, text, line));
    }

    /// HTML mode: consume inline HTML until an open tag (or EOF).
    fn lex_html_until_open_tag(&mut self) {
        let line = self.cur.line();
        let start = self.cur.pos();
        loop {
            if self.cur.is_eof() {
                break;
            }
            if self.cur.starts_with("<?", false) {
                if self.cur.pos() > start {
                    let html = self.cur.slice_from(start);
                    self.push(TokenKind::InlineHtml, html, line);
                }
                let tag_line = self.cur.line();
                let (kind, len) = if self.cur.starts_with("<?php", true) {
                    (TokenKind::OpenTag, 5)
                } else if self.cur.starts_with("<?=", false) {
                    (TokenKind::OpenTagWithEcho, 3)
                } else {
                    (TokenKind::OpenTag, 2)
                };
                let tag = self.cur.advance(len);
                self.push(kind, tag, tag_line);
                return;
            }
            self.cur.bump();
        }
        if self.cur.pos() > start {
            let html = self.cur.slice_from(start);
            self.push(TokenKind::InlineHtml, html, line);
        }
    }

    /// Lexes exactly one PHP-mode token (never called at `?>` or EOF).
    fn lex_php_token(&mut self) {
        let line = self.cur.line();
        let c = match self.cur.peek() {
            Some(c) => c,
            None => return,
        };

        // Whitespace
        if c.is_whitespace() {
            let ws = self.cur.eat_while(|ch| ch.is_whitespace());
            self.push(TokenKind::Whitespace, ws, line);
            return;
        }

        // Comments
        if self.cur.starts_with("/**", false) && self.cur.peek_at(3) != Some('/') {
            let text = self.block_comment();
            self.push(TokenKind::DocComment, text, line);
            return;
        }
        if self.cur.starts_with("/*", false) {
            let text = self.block_comment();
            self.push(TokenKind::Comment, text, line);
            return;
        }
        if self.cur.starts_with("//", false) || c == '#' {
            let text = self.line_comment();
            self.push(TokenKind::Comment, text, line);
            return;
        }

        // Variables
        if c == '$' {
            if matches!(self.cur.peek_at(1), Some(n) if is_ident_start(n)) {
                let start = self.cur.pos();
                self.cur.bump();
                self.cur.skip_while(is_ident_continue);
                let name = self.cur.slice_from(start);
                self.push(TokenKind::Variable, name, line);
            } else {
                let dollar = self.cur.advance(1);
                self.push(TokenKind::Dollar, dollar, line);
            }
            return;
        }

        // Numbers
        if c.is_ascii_digit()
            || (c == '.' && matches!(self.cur.peek_at(1), Some(d) if d.is_ascii_digit()))
        {
            self.lex_number(line);
            return;
        }

        // Identifiers / keywords / magic constants
        if is_ident_start(c) {
            let word = self.cur.eat_while(is_ident_continue);
            let kind = keyword_kind(word).unwrap_or(TokenKind::Identifier);
            self.push(kind, word, line);
            return;
        }

        // Strings
        if c == '\'' {
            self.lex_single_quoted(line);
            return;
        }
        if c == '"' {
            self.lex_double_quoted(line);
            return;
        }
        if c == '`' {
            let tick = self.cur.advance(1);
            self.push(TokenKind::Backtick, tick, line);
            self.lex_interpolated(InterpEnd::Backtick);
            return;
        }
        if self.cur.starts_with("<<<", false) && self.lex_heredoc(line) {
            return;
        }

        // Casts: "(" ws* keyword ws* ")"
        if c == '(' && self.lex_cast(line) {
            return;
        }

        // Operators & punctuation
        self.lex_operator(line);
    }

    fn block_comment(&mut self) -> &'a str {
        let start = self.cur.pos();
        self.cur.advance(2); // "/*"
        loop {
            if self.cur.is_eof() {
                break;
            }
            if self.cur.starts_with("*/", false) {
                self.cur.advance(2);
                break;
            }
            self.cur.bump();
        }
        self.cur.slice_from(start)
    }

    fn line_comment(&mut self) -> &'a str {
        let start = self.cur.pos();
        loop {
            match self.cur.peek() {
                None => break,
                Some('\n') => break,
                // A line comment ends at a close tag, which must be re-lexed.
                _ if self.cur.starts_with("?>", false) => break,
                Some(_) => {
                    self.cur.bump();
                }
            }
        }
        self.cur.slice_from(start)
    }

    fn lex_number(&mut self, line: u32) {
        let start = self.cur.pos();
        if self.cur.starts_with("0x", true) || self.cur.starts_with("0X", false) {
            self.cur.advance(2);
            self.cur.skip_while(|c| c.is_ascii_hexdigit() || c == '_');
            let text = self.cur.slice_from(start);
            self.push(TokenKind::LNumber, text, line);
            return;
        }
        if self.cur.starts_with("0b", true) {
            self.cur.advance(2);
            self.cur.skip_while(|c| c == '0' || c == '1' || c == '_');
            let text = self.cur.slice_from(start);
            self.push(TokenKind::LNumber, text, line);
            return;
        }
        let mut is_float = false;
        self.cur.skip_while(|c| c.is_ascii_digit());
        if self.cur.peek() == Some('.')
            && matches!(self.cur.peek_at(1), Some(d) if d.is_ascii_digit())
        {
            is_float = true;
            self.cur.bump();
            self.cur.skip_while(|c| c.is_ascii_digit());
        } else if self.cur.peek() == Some('.') && self.cur.pos() == start {
            // ".5" style float
            is_float = true;
            self.cur.bump();
            self.cur.skip_while(|c| c.is_ascii_digit());
        }
        if matches!(self.cur.peek(), Some('e') | Some('E')) {
            let mut k = 1;
            if matches!(self.cur.peek_at(1), Some('+') | Some('-')) {
                k = 2;
            }
            if matches!(self.cur.peek_at(k), Some(d) if d.is_ascii_digit()) {
                is_float = true;
                self.cur.advance(k);
                self.cur.skip_while(|c| c.is_ascii_digit());
            }
        }
        let kind = if is_float {
            TokenKind::DNumber
        } else {
            TokenKind::LNumber
        };
        let text = self.cur.slice_from(start);
        self.push(kind, text, line);
    }

    fn lex_single_quoted(&mut self, line: u32) {
        let start = self.cur.pos();
        self.cur.bump(); // opening quote
        loop {
            match self.cur.peek() {
                None => break,
                Some('\\') => {
                    self.cur.bump();
                    self.cur.bump();
                }
                Some('\'') => {
                    self.cur.bump();
                    break;
                }
                Some(_) => {
                    self.cur.bump();
                }
            }
        }
        let text = self.cur.slice_from(start);
        self.push(TokenKind::ConstantEncapsedString, text, line);
    }

    /// Double-quoted strings: emitted as a single
    /// `T_CONSTANT_ENCAPSED_STRING` when free of interpolation, otherwise as
    /// `"` + interpolation parts + `"`, exactly as PHP does.
    fn lex_double_quoted(&mut self, line: u32) {
        // Scan ahead on a copy of the cursor to decide whether the string
        // interpolates, so simple strings stay one token.
        let start = self.cur.pos();
        let mut probe = self.cur;
        probe.bump(); // opening quote
        let mut interpolates = false;
        let mut closed = false;
        loop {
            match probe.peek() {
                None => break,
                Some('\\') => {
                    probe.bump();
                    probe.bump();
                }
                Some('"') => {
                    probe.bump();
                    closed = true;
                    break;
                }
                Some('$') => {
                    if matches!(probe.peek_at(1), Some(n) if is_ident_start(n) || n == '{') {
                        interpolates = true;
                    }
                    probe.bump();
                }
                Some('{') => {
                    if probe.peek_at(1) == Some('$') {
                        interpolates = true;
                    }
                    probe.bump();
                }
                Some(_) => {
                    probe.bump();
                }
            }
        }
        if !interpolates {
            // Commit the probe's progress.
            self.cur = probe;
            let raw = self.cur.slice_from(start);
            let kind = if closed || !raw.is_empty() {
                TokenKind::ConstantEncapsedString
            } else {
                TokenKind::Unknown
            };
            self.push(kind, raw, line);
            return;
        }
        let quote = self.cur.advance(1);
        self.push(TokenKind::DoubleQuote, quote, line);
        self.lex_interpolated(InterpEnd::DoubleQuote);
    }

    /// Lexes a heredoc/nowdoc starting at `<<<`. Returns false, consuming
    /// nothing, when no label follows: PHP then reads `<<` and `<`.
    fn lex_heredoc(&mut self, line: u32) -> bool {
        let snapshot = self.cur;
        let start = self.cur.pos();
        self.cur.advance(3); // "<<<"
        self.cur.skip_while(|c| c == ' ' || c == '\t');
        let mut nowdoc = false;
        let mut quoted = false;
        if self.cur.eat('\'') {
            nowdoc = true;
        } else if self.cur.eat('"') {
            quoted = true;
        }
        let label = self.cur.eat_while(is_ident_continue);
        if label.is_empty() {
            self.cur = snapshot;
            return false;
        }
        if nowdoc {
            self.cur.eat('\'');
        }
        if quoted {
            self.cur.eat('"');
        }
        if self.cur.peek() == Some('\r') {
            self.cur.bump();
        }
        if self.cur.peek() == Some('\n') {
            self.cur.bump();
        }
        let text = self.cur.slice_from(start);
        self.push(TokenKind::StartHeredoc, text, line);
        if !nowdoc {
            self.lex_interpolated(InterpEnd::Heredoc(label));
            return true;
        }
        // Nowdoc: raw until terminator, no interpolation.
        let body_start = self.cur.pos();
        let body_line = self.cur.line();
        let mut closed = false;
        while !self.cur.is_eof() {
            if self.at_heredoc_end(label) {
                closed = true;
                break;
            }
            self.cur.bump();
        }
        if self.cur.pos() > body_start {
            let body = self.cur.slice_from(body_start);
            self.push(TokenKind::EncapsedAndWhitespace, body, body_line);
        }
        if closed {
            let end_line = self.cur.line();
            let end = self.cur.advance(label.chars().count());
            self.push(TokenKind::EndHeredoc, end, end_line);
        }
        true
    }

    /// True when the cursor sits at the start of a line containing exactly
    /// the heredoc terminator label (optionally followed by `;` or `,`).
    fn at_heredoc_end(&self, label: &str) -> bool {
        // Must be at start of line: previous char was '\n' — we approximate
        // by only calling this after consuming a '\n' or at the body start.
        if !self.cur.starts_with(label, false) {
            return false;
        }
        let after = self.cur.peek_at(label.chars().count());
        matches!(
            after,
            None | Some(';') | Some(',') | Some('\n') | Some('\r') | Some(')')
        )
    }

    /// Scans interpolated content (double-quoted string, backtick, heredoc),
    /// emitting `T_ENCAPSED_AND_WHITESPACE` runs, simple `$var` accesses and
    /// `{$ ... }` complex expressions, until the terminator.
    fn lex_interpolated(&mut self, end: InterpEnd<'a>) {
        let mut run_start = self.cur.pos();
        let mut run_line = self.cur.line();
        let mut at_line_start = matches!(end, InterpEnd::Heredoc(_));
        loop {
            if self.cur.is_eof() {
                break;
            }
            // Terminator?
            let terminator = match end {
                InterpEnd::DoubleQuote if self.cur.peek() == Some('"') => {
                    Some((TokenKind::DoubleQuote, 1))
                }
                InterpEnd::Backtick if self.cur.peek() == Some('`') => {
                    Some((TokenKind::Backtick, 1))
                }
                InterpEnd::Heredoc(label) if at_line_start && self.at_heredoc_end(label) => {
                    Some((TokenKind::EndHeredoc, label.chars().count()))
                }
                _ => None,
            };
            if let Some((kind, len)) = terminator {
                self.flush_encapsed_run(run_start, run_line);
                let line = self.cur.line();
                let text = self.cur.advance(len);
                self.push(kind, text, line);
                return;
            }
            at_line_start = false;
            match self.cur.peek() {
                Some('\\') => {
                    // Escapes stay verbatim inside the encapsed run.
                    self.cur.bump();
                    if let Some(e) = self.cur.bump() {
                        if e == '\n' {
                            at_line_start = true;
                        }
                    }
                }
                Some('$') if matches!(self.cur.peek_at(1), Some(n) if is_ident_start(n)) => {
                    self.flush_encapsed_run(run_start, run_line);
                    let line = self.cur.line();
                    let var_start = self.cur.pos();
                    self.cur.bump(); // $
                    self.cur.skip_while(is_ident_continue);
                    let name = self.cur.slice_from(var_start);
                    self.push(TokenKind::Variable, name, line);
                    // Simple-syntax suffixes: ->prop or [index]
                    if self.cur.starts_with("->", false)
                        && matches!(self.cur.peek_at(2), Some(n) if is_ident_start(n))
                    {
                        let line = self.cur.line();
                        let arrow = self.cur.advance(2);
                        self.push(TokenKind::ObjectOperator, arrow, line);
                        let prop = self.cur.eat_while(is_ident_continue);
                        self.push(TokenKind::Identifier, prop, line);
                    } else if self.cur.peek() == Some('[')
                        && matches!(
                            self.cur.peek_at(1),
                            Some(c) if c == '$' || c == '\'' || c.is_ascii_digit() || is_ident_start(c)
                        )
                    {
                        let line = self.cur.line();
                        let bracket = self.cur.advance(1);
                        self.push(TokenKind::OpenBracket, bracket, line);
                        // index: $var | number | bareword
                        if self.cur.peek() == Some('$') {
                            let idx_start = self.cur.pos();
                            self.cur.bump();
                            self.cur.skip_while(is_ident_continue);
                            let iname = self.cur.slice_from(idx_start);
                            self.push(TokenKind::Variable, iname, line);
                        } else if matches!(self.cur.peek(), Some(d) if d.is_ascii_digit()) {
                            let num = self.cur.eat_while(|c| c.is_ascii_digit());
                            self.push(TokenKind::LNumber, num, line);
                        } else {
                            let word = self.cur.eat_while(|c| is_ident_continue(c) || c == '\'');
                            self.push(TokenKind::Identifier, word, line);
                        }
                        if self.cur.peek() == Some(']') {
                            let bracket = self.cur.advance(1);
                            self.push(TokenKind::CloseBracket, bracket, line);
                        }
                    }
                    run_start = self.cur.pos();
                    run_line = self.cur.line();
                }
                Some('{') if self.cur.peek_at(1) == Some('$') => {
                    self.flush_encapsed_run(run_start, run_line);
                    let line = self.cur.line();
                    let curly = self.cur.advance(1);
                    self.push(TokenKind::CurlyOpen, curly, line);
                    self.lex_php_until_matching_brace();
                    run_start = self.cur.pos();
                    run_line = self.cur.line();
                }
                Some('$') if self.cur.peek_at(1) == Some('{') => {
                    self.flush_encapsed_run(run_start, run_line);
                    let line = self.cur.line();
                    let open = self.cur.advance(2);
                    self.push(TokenKind::DollarOpenCurlyBraces, open, line);
                    self.lex_php_until_matching_brace();
                    run_start = self.cur.pos();
                    run_line = self.cur.line();
                }
                Some(c) => {
                    if c == '\n' {
                        at_line_start = true;
                    }
                    self.cur.bump();
                }
                None => break,
            }
        }
        self.flush_encapsed_run(run_start, run_line);
    }

    /// Emits the pending `T_ENCAPSED_AND_WHITESPACE` run (source text from
    /// `run_start` to the cursor), if non-empty.
    fn flush_encapsed_run(&mut self, run_start: usize, run_line: u32) {
        if self.cur.pos() > run_start {
            let run = self.cur.slice_from(run_start);
            self.push(TokenKind::EncapsedAndWhitespace, run, run_line);
        }
    }

    /// Lexes full PHP tokens inside `{$ ... }` until the matching `}` (which
    /// is emitted as `}`), tracking nesting.
    fn lex_php_until_matching_brace(&mut self) {
        let mut depth = 1usize;
        while !self.cur.is_eof() {
            if self.cur.peek() == Some('{') {
                depth += 1;
            } else if self.cur.peek() == Some('}') {
                depth -= 1;
                let line = self.cur.line();
                let brace = self.cur.advance(1);
                self.push(TokenKind::CloseBrace, brace, line);
                if depth == 0 {
                    return;
                }
                continue;
            }
            self.lex_php_token();
        }
    }

    /// Lexes a cast like `(int)`. Returns false, consuming nothing, when
    /// the parenthesis does not open a cast.
    fn lex_cast(&mut self, line: u32) -> bool {
        let mut probe = self.cur;
        probe.bump(); // (
        probe.skip_while(|c| c == ' ' || c == '\t');
        let word = probe.eat_while(|c| c.is_ascii_alphabetic());
        let Some(&(_, kind)) = CASTS.iter().find(|(w, _)| word.eq_ignore_ascii_case(w)) else {
            return false;
        };
        probe.skip_while(|c| c == ' ' || c == '\t');
        if !probe.eat(')') {
            return false;
        }
        let start = self.cur.pos();
        self.cur = probe;
        let text = self.cur.slice_from(start);
        self.push(kind, text, line);
        true
    }

    fn lex_operator(&mut self, line: u32) {
        use TokenKind::*;
        // Multi-char operators dispatched on the first char (longest match
        // first within each group) so plain punctuation — the bulk of the
        // operator stream — doesn't scan a global table.
        let multi: &[(&str, TokenKind)] = match self.cur.peek() {
            Some('=') => &[("===", Identical), ("==", Equal), ("=>", DoubleArrow)],
            Some('!') => &[("!==", NotIdentical), ("!=", NotEqual)],
            Some('<') => &[
                ("<<=", SlEqual),
                ("<<", Sl),
                ("<=", SmallerOrEqual),
                ("<>", NotEqual),
            ],
            Some('>') => &[(">>=", SrEqual), (">>", Sr), (">=", GreaterOrEqual)],
            Some('.') => &[("...", Ellipsis), (".=", ConcatEqual)],
            Some('-') => &[("->", ObjectOperator), ("--", Dec), ("-=", MinusEqual)],
            Some('+') => &[("++", Inc), ("+=", PlusEqual)],
            Some(':') => &[("::", DoubleColon)],
            Some('&') => &[("&&", BooleanAnd), ("&=", AndEqual)],
            Some('|') => &[("||", BooleanOr), ("|=", OrEqual)],
            Some('*') => &[("**", Pow), ("*=", MulEqual)],
            Some('/') => &[("/=", DivEqual)],
            Some('%') => &[("%=", ModEqual)],
            Some('^') => &[("^=", XorEqual)],
            _ => &[],
        };
        for (s, k) in multi {
            if self.cur.starts_with(s, false) {
                let text = self.cur.advance(s.len());
                self.push(*k, text, line);
                return;
            }
        }
        let text = self.cur.advance(1);
        let kind = match text.chars().next().expect("operator char") {
            ';' => Semicolon,
            ',' => Comma,
            '(' => OpenParen,
            ')' => CloseParen,
            '{' => OpenBrace,
            '}' => CloseBrace,
            '[' => OpenBracket,
            ']' => CloseBracket,
            '+' => Plus,
            '-' => Minus,
            '*' => Star,
            '/' => Slash,
            '%' => Percent,
            '.' => Dot,
            '=' => Assign,
            '<' => Lt,
            '>' => Gt,
            '!' => Bang,
            '?' => Question,
            ':' => Colon,
            '&' => Amp,
            '|' => Pipe,
            '^' => Caret,
            '~' => Tilde,
            '@' => At,
            '$' => Dollar,
            '\\' => Backslash,
            _ => Unknown,
        };
        self.push(kind, text, line);
    }
}

/// Cast keywords (ASCII case-insensitive) and the cast each spells.
const CASTS: [(&str, TokenKind); 12] = [
    ("int", TokenKind::IntCast),
    ("integer", TokenKind::IntCast),
    ("float", TokenKind::DoubleCast),
    ("double", TokenKind::DoubleCast),
    ("real", TokenKind::DoubleCast),
    ("string", TokenKind::StringCast),
    ("binary", TokenKind::StringCast),
    ("array", TokenKind::ArrayCast),
    ("object", TokenKind::ObjectCast),
    ("bool", TokenKind::BoolCast),
    ("boolean", TokenKind::BoolCast),
    ("unset", TokenKind::UnsetCast),
];

fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_' || (c as u32) >= 0x80
}

fn is_ident_continue(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || (c as u32) >= 0x80
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::TokenKind as K;

    fn kinds(src: &str) -> Vec<K> {
        tokenize_significant(src)
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    fn texts(src: &str) -> Vec<&str> {
        tokenize_significant(src)
            .into_iter()
            .map(|t| t.text)
            .collect()
    }

    fn roundtrip(src: &str) {
        let joined: String = tokenize(src).iter().map(|t| t.text).collect();
        assert_eq!(joined, src, "token texts must reconstruct the source");
    }

    #[test]
    fn html_then_php() {
        let toks = tokenize("<h1>Hi</h1><?php echo 1; ?><p>bye</p>");
        assert_eq!(toks[0].kind, K::InlineHtml);
        assert_eq!(toks[0].text, "<h1>Hi</h1>");
        assert_eq!(toks[1].kind, K::OpenTag);
        assert!(toks.iter().any(|t| t.kind == K::CloseTag));
        assert_eq!(toks.last().unwrap().kind, K::InlineHtml);
        roundtrip("<h1>Hi</h1><?php echo 1; ?><p>bye</p>");
    }

    #[test]
    fn open_tag_with_echo() {
        let toks = tokenize("<?= $x ?>");
        assert_eq!(toks[0].kind, K::OpenTagWithEcho);
        assert_eq!(toks[2].kind, K::Variable);
    }

    #[test]
    fn variables_and_superglobals() {
        assert_eq!(
            kinds("<?php $_POST;"),
            vec![K::OpenTag, K::Variable, K::Semicolon]
        );
        assert_eq!(texts("<?php $_POST;")[1], "$_POST");
    }

    #[test]
    fn variable_line_numbers_match_source() {
        let toks = tokenize("<?php\n\n$x = 1;\n$y = 2;");
        let x = toks.iter().find(|t| t.text == "$x").unwrap();
        let y = toks.iter().find(|t| t.text == "$y").unwrap();
        assert_eq!(x.line, 3);
        assert_eq!(y.line, 4);
    }

    #[test]
    fn keywords_vs_identifiers() {
        let k = kinds("<?php function foo() { return bar; }");
        assert_eq!(
            k,
            vec![
                K::OpenTag,
                K::Function,
                K::Identifier,
                K::OpenParen,
                K::CloseParen,
                K::OpenBrace,
                K::Return,
                K::Identifier,
                K::Semicolon,
                K::CloseBrace
            ]
        );
    }

    #[test]
    fn numbers() {
        let k = kinds("<?php 1 1.5 0x1F 0b101 1e3 .5;");
        assert_eq!(
            k,
            vec![
                K::OpenTag,
                K::LNumber,
                K::DNumber,
                K::LNumber,
                K::LNumber,
                K::DNumber,
                K::DNumber,
                K::Semicolon
            ]
        );
    }

    #[test]
    fn single_quoted_string_is_one_token() {
        let t = tokenize_significant("<?php 'a $x b';");
        assert_eq!(t[1].kind, K::ConstantEncapsedString);
        assert_eq!(t[1].text, "'a $x b'");
    }

    #[test]
    fn plain_double_quoted_string_is_one_token() {
        let t = tokenize_significant("<?php \"hello world\";");
        assert_eq!(t[1].kind, K::ConstantEncapsedString);
        assert_eq!(t[1].text, "\"hello world\"");
    }

    #[test]
    fn interpolated_string_splits() {
        let t = tokenize_significant("<?php \"abc $x def\";");
        let k: Vec<K> = t.iter().map(|t| t.kind).collect();
        assert_eq!(
            k,
            vec![
                K::OpenTag,
                K::DoubleQuote,
                K::EncapsedAndWhitespace,
                K::Variable,
                K::EncapsedAndWhitespace,
                K::DoubleQuote,
                K::Semicolon
            ]
        );
        assert_eq!(t[3].text, "$x");
        roundtrip("<?php \"abc $x def\";");
    }

    #[test]
    fn interpolated_property_access() {
        let t = tokenize_significant("<?php \"v={$row->sml_name}\";");
        assert!(t.iter().any(|t| t.kind == K::CurlyOpen));
        assert!(t.iter().any(|t| t.kind == K::ObjectOperator));
        assert!(t.iter().any(|t| t.text == "sml_name"));
        roundtrip("<?php \"v={$row->sml_name}\";");
    }

    #[test]
    fn simple_syntax_property_access_in_string() {
        let t = tokenize_significant("<?php \"v=$row->name!\";");
        let k: Vec<K> = t.iter().map(|t| t.kind).collect();
        assert!(k.contains(&K::ObjectOperator));
        roundtrip("<?php \"v=$row->name!\";");
    }

    #[test]
    fn simple_syntax_array_index_in_string() {
        let t = tokenize_significant("<?php \"v=$a[key] w=$b[0] x=$c[$i]\";");
        let brackets = t.iter().filter(|t| t.kind == K::OpenBracket).count();
        assert_eq!(brackets, 3);
        roundtrip("<?php \"v=$a[key] w=$b[0] x=$c[$i]\";");
    }

    #[test]
    fn escaped_dollar_does_not_interpolate() {
        let t = tokenize_significant("<?php \"a \\$x b\";");
        assert_eq!(t[1].kind, K::ConstantEncapsedString);
    }

    #[test]
    fn heredoc_with_interpolation() {
        let src = "<?php $s = <<<EOT\nhello $name\nEOT;\n";
        let t = tokenize_significant(src);
        let k: Vec<K> = t.iter().map(|t| t.kind).collect();
        assert!(k.contains(&K::StartHeredoc));
        assert!(k.contains(&K::Variable));
        assert!(k.contains(&K::EndHeredoc));
        roundtrip(src);
    }

    #[test]
    fn nowdoc_has_no_interpolation() {
        let src = "<?php $s = <<<'EOT'\nhello $name\nEOT;\n";
        let t = tokenize_significant(src);
        assert!(t.iter().any(|t| t.kind == K::StartHeredoc));
        assert!(!t.iter().any(|t| t.kind == K::Variable && t.text == "$name"));
        roundtrip(src);
    }

    #[test]
    fn comments() {
        let t = tokenize("<?php // line\n# hash\n/* block */ /** doc */ 1;");
        let k: Vec<K> = t.iter().map(|t| t.kind).collect();
        assert_eq!(k.iter().filter(|&&x| x == K::Comment).count(), 3);
        assert_eq!(k.iter().filter(|&&x| x == K::DocComment).count(), 1);
    }

    #[test]
    fn line_comment_stops_at_close_tag() {
        let t = tokenize("<?php // c ?>after");
        assert!(t.iter().any(|t| t.kind == K::CloseTag));
        assert_eq!(t.last().unwrap().kind, K::InlineHtml);
        roundtrip("<?php // c ?>after");
    }

    #[test]
    fn object_and_static_operators() {
        let k = kinds("<?php $wpdb->get_results(); Foo::bar();");
        assert!(k.contains(&K::ObjectOperator));
        assert!(k.contains(&K::DoubleColon));
    }

    #[test]
    fn casts() {
        let k = kinds("<?php (int)$x; (string) $y; ( array )$z; (bool)$w;");
        assert!(k.contains(&K::IntCast));
        assert!(k.contains(&K::StringCast));
        assert!(k.contains(&K::ArrayCast));
        assert!(k.contains(&K::BoolCast));
    }

    #[test]
    fn non_cast_paren_is_paren() {
        let k = kinds("<?php (1 + 2);");
        assert_eq!(k[1], K::OpenParen);
    }

    #[test]
    fn three_char_operators() {
        let k = kinds("<?php $a === $b; $a !== $b;");
        assert!(k.contains(&K::Identical));
        assert!(k.contains(&K::NotIdentical));
        // `<<<` opens a heredoc only when a label follows.
        let k = kinds("<?php <<<\n;");
        assert_eq!(k, vec![K::OpenTag, K::Sl, K::Lt, K::Semicolon]);
    }

    #[test]
    fn assignment_operator_family() {
        let k = kinds("<?php $a .= 'x'; $a += 1; $a <<= 2;");
        assert!(k.contains(&K::ConcatEqual));
        assert!(k.contains(&K::PlusEqual));
        assert!(k.contains(&K::SlEqual));
    }

    #[test]
    fn variable_variable() {
        let k = kinds("<?php $$name;");
        assert_eq!(k[1], K::Dollar);
        assert_eq!(k[2], K::Variable);
    }

    #[test]
    fn unclosed_string_is_total() {
        // Must not panic and must round-trip.
        roundtrip("<?php $x = 'never closed");
        roundtrip("<?php $x = \"never closed $y");
        roundtrip("<?php $x = <<<'EOT'\nnever closed");
    }

    #[test]
    fn empty_and_html_only_inputs() {
        assert!(tokenize("").is_empty());
        let t = tokenize("just html, no php");
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].kind, K::InlineHtml);
    }

    #[test]
    fn short_open_tag() {
        let t = tokenize("<? echo 1;");
        assert_eq!(t[0].kind, K::OpenTag);
        assert_eq!(t[0].text, "<?");
        assert_eq!(tokenize("<?PHP echo 1;")[0].text, "<?PHP");
    }

    #[test]
    fn roundtrip_realistic_plugin_snippet() {
        let src = r#"<?php
/*
Plugin Name: Example
*/
class My_Plugin {
    private $db;
    public function __construct() {
        global $wpdb;
        $this->db = $wpdb;
    }
    function render() {
        $rows = $this->db->get_results("SELECT * FROM {$this->db->prefix}sml");
        foreach ($rows as $row) {
            echo '<li>' . $row->sml_name . '</li>';
        }
    }
}
$p = new My_Plugin();
$p->render();
"#;
        roundtrip(src);
        let k = kinds(src);
        assert!(k.contains(&K::Class));
        assert!(k.contains(&K::Private));
        assert!(k.contains(&K::Foreach));
        assert!(k.contains(&K::New));
    }
}
