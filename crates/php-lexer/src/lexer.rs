//! The PHP lexer: a faithful, total re-implementation of the behaviour the
//! paper relies on from PHP's `token_get_all`.
//!
//! The lexer is *total*: any byte sequence produces a token stream, never an
//! error (unclassifiable bytes become [`TokenKind::Unknown`]). Every token's
//! `text` is the slice of the input it was lexed from, and the slices tile
//! the input, so concatenating them reproduces it exactly; the `phpsafe`
//! analyzer and both baselines depend on this when mapping findings back to
//! source lines.
//!
//! PHP mode dispatches once per token, on the class of its first byte
//! ([`CLASS`]). Runs (whitespace, identifiers, digits) are scanned on bytes
//! through the same table; comments, strings, inline HTML and nowdoc
//! bodies jump to the next byte that can end them.

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
    lex(src, true)
}

/// Lexes source without its trivia (whitespace/comments), the view parsers
/// use: the same tokens as [`tokenize`] minus the trivia, which is scanned
/// but never pushed.
pub fn tokenize_significant(src: &str) -> Vec<Token<'_>> {
    lex(src, false)
}

/// Lexes `src` under the `stage.lex` span. `lex.tokens` counts every token,
/// trivia included, whether or not the stream keeps it.
fn lex(src: &str, keep_trivia: bool) -> Vec<Token<'_>> {
    let _span = phpsafe_obs::span!("stage.lex", src);
    let mut lexer = Lexer::new(src);
    lexer.keep_trivia = keep_trivia;
    lexer.lex_all();
    phpsafe_obs::count("lex.files", 1);
    phpsafe_obs::count("lex.tokens", (lexer.out.len() + lexer.trivia) as u64);
    lexer.out
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
    /// Whether whitespace and comment tokens go into `out`.
    keep_trivia: bool,
    /// Trivia tokens lexed but not kept.
    trivia: usize,
}

impl<'a> Lexer<'a> {
    /// Creates a lexer over `src`.
    pub fn new(src: &'a str) -> Self {
        Lexer {
            cur: Cursor::new(src),
            // PHP source averages about 2.5 bytes per token, trivia
            // included; one up-front guess avoids the doubling-regrowth
            // copies.
            out: Vec::with_capacity(src.len() / 2),
            keep_trivia: true,
            trivia: 0,
        }
    }

    /// Runs the lexer to completion, returning the token stream.
    pub fn run(mut self) -> Vec<Token<'a>> {
        self.lex_all();
        self.out
    }

    fn lex_all(&mut self) {
        while !self.cur.is_eof() {
            self.lex_html_until_open_tag();
            // Inside PHP until a close tag flips us back to HTML mode.
            while let Some(b) = self.cur.peek_byte() {
                if b == b'?' && self.cur.peek_byte_at(1) == Some(b'>') {
                    let line = self.cur.line();
                    let tag = self.cur.bump(2);
                    self.push(TokenKind::CloseTag, tag, line);
                    break;
                }
                self.lex_php_token();
            }
        }
    }

    fn push(&mut self, kind: TokenKind, text: &'a str, line: u32) {
        self.out.push(Token::new(kind, text, line));
    }

    /// Pushes a whitespace or comment token, or only counts it when the
    /// stream drops trivia.
    fn push_trivia(&mut self, kind: TokenKind, text: &'a str, line: u32) {
        if self.keep_trivia {
            self.push(kind, text, line);
        } else {
            self.trivia += 1;
        }
    }

    /// Pushes the token whose text runs from `start` to the cursor.
    fn push_from(&mut self, kind: TokenKind, start: usize, line: u32) {
        let text = self.cur.slice_from(start);
        self.push(kind, text, line);
    }

    /// HTML mode: consume inline HTML until an open tag (or EOF).
    fn lex_html_until_open_tag(&mut self) {
        let line = self.cur.line();
        let rest = self.cur.rest();
        let html_len = find2(rest, b'<', b'?').unwrap_or(rest.len());
        if html_len > 0 {
            let html = self.cur.advance(html_len);
            self.push(TokenKind::InlineHtml, html, line);
        }
        if self.cur.is_eof() {
            return;
        }
        let (kind, len) = if self.cur.starts_with("<?php", true) {
            (TokenKind::OpenTag, 5)
        } else if self.cur.peek_byte_at(2) == Some(b'=') {
            (TokenKind::OpenTagWithEcho, 3)
        } else {
            (TokenKind::OpenTag, 2)
        };
        let line = self.cur.line();
        let tag = self.cur.bump(len);
        self.push(kind, tag, line);
    }

    /// Lexes exactly one PHP-mode token (never called at `?>` or EOF).
    fn lex_php_token(&mut self) {
        let line = self.cur.line();
        let Some(b) = self.cur.peek_byte() else {
            return;
        };
        match CLASS[usize::from(b)] {
            Class::Space => self.lex_whitespace(line),
            Class::Ident => self.lex_word(line),
            Class::Digit => self.lex_number(line),
            Class::Dollar => {
                let start = self.cur.pos();
                if self.cur.peek_byte_at(1).is_some_and(is_ident_start) {
                    self.cur.bump(1);
                    self.cur.skip_while(is_ident_byte);
                    self.push_from(TokenKind::Variable, start, line);
                } else {
                    let dollar = self.cur.bump(1);
                    self.push(TokenKind::Dollar, dollar, line);
                }
            }
            Class::Quote => self.lex_single_quoted(line),
            Class::DoubleQuote => self.lex_double_quoted(line),
            Class::Backtick => {
                let tick = self.cur.bump(1);
                self.push(TokenKind::Backtick, tick, line);
                self.lex_interpolated(InterpEnd::Backtick);
            }
            Class::Slash => match self.cur.peek_byte_at(1) {
                Some(b'*') => self.lex_block_comment(line),
                Some(b'/') => self.lex_line_comment(line),
                _ => self.lex_operator(line),
            },
            Class::Hash => self.lex_line_comment(line),
            Class::Lt => {
                if !(self.cur.starts_with("<<<", false) && self.lex_heredoc(line)) {
                    self.lex_operator(line);
                }
            }
            Class::OpenParen => {
                if !self.lex_cast(line) {
                    self.lex_operator(line);
                }
            }
            Class::Op => {
                if b == b'.' && self.cur.peek_byte_at(1).is_some_and(|d| d.is_ascii_digit()) {
                    self.lex_number(line);
                } else {
                    self.lex_operator(line);
                }
            }
            // Every non-ASCII character but Unicode whitespace starts an
            // identifier.
            Class::NonAscii => match self.cur.char_at(0) {
                Some(c) if c.is_whitespace() => self.lex_whitespace(line),
                _ => self.lex_word(line),
            },
        }
    }

    /// A run of whitespace: ASCII whitespace bytes and Unicode whitespace
    /// characters.
    fn lex_whitespace(&mut self, line: u32) {
        let rest = self.cur.rest();
        let (mut n, mut lines) = (0, 0);
        while let Some(&b) = rest.get(n) {
            n += match CLASS[usize::from(b)] {
                Class::Space => {
                    lines += u32::from(b == b'\n');
                    1
                }
                Class::NonAscii => match self.cur.char_at(n) {
                    Some(c) if c.is_whitespace() => c.len_utf8(),
                    _ => break,
                },
                _ => break,
            };
        }
        let ws = self.cur.advance_lines(n, lines);
        self.push_trivia(TokenKind::Whitespace, ws, line);
    }

    /// Identifiers, keywords and magic constants.
    fn lex_word(&mut self, line: u32) {
        let start = self.cur.pos();
        self.cur.skip_while(is_ident_byte);
        let word = self.cur.slice_from(start);
        let kind = keyword_kind(word).unwrap_or(TokenKind::Identifier);
        self.push(kind, word, line);
    }

    /// `/* ... */`, or a doc comment when it opens with `/**` and is not
    /// the empty `/**/`. Unclosed, it runs to the end of input.
    fn lex_block_comment(&mut self, line: u32) {
        let rest = self.cur.rest();
        let doc = rest.get(2) == Some(&b'*') && rest.get(3) != Some(&b'/');
        let len = find2(&rest[2..], b'*', b'/').map_or(rest.len(), |i| i + 4);
        let text = self.cur.advance(len);
        let kind = if doc {
            TokenKind::DocComment
        } else {
            TokenKind::Comment
        };
        self.push_trivia(kind, text, line);
    }

    /// `// ...` or `# ...`, up to (not including) the newline or a close
    /// tag, which must be re-lexed.
    fn lex_line_comment(&mut self, line: u32) {
        let rest = self.cur.rest();
        let mut from = 0;
        let len = loop {
            let Some(at) = find_any(rest, from, |b| b == b'\n' || b == b'?') else {
                break rest.len();
            };
            if rest[at] == b'\n' || rest.get(at + 1) == Some(&b'>') {
                break at;
            }
            from = at + 1;
        };
        let text = self.cur.bump(len);
        self.push_trivia(TokenKind::Comment, text, line);
    }

    fn lex_number(&mut self, line: u32) {
        let start = self.cur.pos();
        let digit = |b: u8| b.is_ascii_digit();
        let radix_digit: Option<fn(u8) -> bool> = if self.cur.starts_with("0x", true) {
            Some(|b| b.is_ascii_hexdigit() || b == b'_')
        } else if self.cur.starts_with("0b", true) {
            Some(|b| b == b'0' || b == b'1' || b == b'_')
        } else {
            None
        };
        if let Some(radix_digit) = radix_digit {
            self.cur.bump(2);
            self.cur.skip_while(radix_digit);
            return self.push_from(TokenKind::LNumber, start, line);
        }
        let mut is_float = false;
        self.cur.skip_while(digit);
        if self.cur.peek_byte() == Some(b'.') && self.cur.peek_byte_at(1).is_some_and(digit) {
            is_float = true;
            self.cur.bump(1);
            self.cur.skip_while(digit);
        }
        if matches!(self.cur.peek_byte(), Some(b'e' | b'E')) {
            let k = 1 + usize::from(matches!(self.cur.peek_byte_at(1), Some(b'+' | b'-')));
            if self.cur.peek_byte_at(k).is_some_and(digit) {
                is_float = true;
                self.cur.bump(k);
                self.cur.skip_while(digit);
            }
        }
        let kind = if is_float {
            TokenKind::DNumber
        } else {
            TokenKind::LNumber
        };
        self.push_from(kind, start, line);
    }

    fn lex_single_quoted(&mut self, line: u32) {
        let rest = self.cur.rest();
        let mut at = 1;
        let len = loop {
            let Some(i) = find_any(rest, at, |b| b == b'\\' || b == b'\'') else {
                break rest.len();
            };
            if rest[i] == b'\'' {
                break i + 1;
            }
            // The backslash and the byte it escapes.
            at = i + 2;
        };
        let text = self.cur.advance(len);
        self.push(TokenKind::ConstantEncapsedString, text, line);
    }

    /// Double-quoted strings: emitted as a single
    /// `T_CONSTANT_ENCAPSED_STRING` when free of interpolation, otherwise as
    /// `"` + interpolation parts + `"`, exactly as PHP does.
    fn lex_double_quoted(&mut self, line: u32) {
        // Scan ahead to decide whether the string interpolates, so simple
        // strings stay one token.
        let rest = self.cur.rest();
        let mut at = 1;
        let len = loop {
            let Some(i) = find_any(rest, at, |b| matches!(b, b'\\' | b'"' | b'$' | b'{')) else {
                break rest.len();
            };
            let next = rest.get(i + 1).copied();
            let interpolates = match rest[i] {
                b'"' => break i + 1,
                b'\\' => false,
                b'$' => next.is_some_and(|n| is_ident_start(n) || n == b'{'),
                _ => next == Some(b'$'),
            };
            if interpolates {
                let quote = self.cur.bump(1);
                self.push(TokenKind::DoubleQuote, quote, line);
                return self.lex_interpolated(InterpEnd::DoubleQuote);
            }
            at = i + if rest[i] == b'\\' { 2 } else { 1 };
        };
        let text = self.cur.advance(len);
        self.push(TokenKind::ConstantEncapsedString, text, line);
    }

    /// Lexes a heredoc/nowdoc starting at `<<<`. Returns false, consuming
    /// nothing, when no label follows: PHP then reads `<<` and `<`.
    fn lex_heredoc(&mut self, line: u32) -> bool {
        let start = self.cur.pos();
        let mut probe = self.cur;
        probe.bump(3); // "<<<"
        probe.skip_while(|b| b == b' ' || b == b'\t');
        let quote = probe.peek_byte().filter(|&q| q == b'\'' || q == b'"');
        if quote.is_some() {
            probe.bump(1);
        }
        let label_start = probe.pos();
        probe.skip_while(is_ident_byte);
        let label = probe.slice_from(label_start);
        if label.is_empty() {
            return false;
        }
        if quote.is_some() && probe.peek_byte() == quote {
            probe.bump(1);
        }
        if probe.peek_byte() == Some(b'\r') {
            probe.bump(1);
        }
        if probe.peek_byte() == Some(b'\n') {
            probe.advance(1);
        }
        self.cur = probe;
        self.push_from(TokenKind::StartHeredoc, start, line);
        if quote != Some(b'\'') {
            self.lex_interpolated(InterpEnd::Heredoc(label));
            return true;
        }
        // Nowdoc: raw until a line that starts with the terminator, no
        // interpolation.
        let body_line = self.cur.line();
        let rest = self.cur.rest();
        let mut len = 0;
        let closed = loop {
            if len == rest.len() {
                break false;
            }
            if is_heredoc_end(&rest[len..], label) {
                break true;
            }
            len = find_any(rest, len, |b| b == b'\n').map_or(rest.len(), |i| i + 1);
        };
        if len > 0 {
            let body = self.cur.advance(len);
            self.push(TokenKind::EncapsedAndWhitespace, body, body_line);
        }
        if closed {
            let end_line = self.cur.line();
            let end = self.cur.bump(label.len());
            self.push(TokenKind::EndHeredoc, end, end_line);
        }
        true
    }

    /// Scans interpolated content (double-quoted string, backtick, heredoc),
    /// emitting `T_ENCAPSED_AND_WHITESPACE` runs, simple `$var` accesses and
    /// `{$ ... }` complex expressions, until the terminator.
    fn lex_interpolated(&mut self, end: InterpEnd<'a>) {
        let mut run_start = self.cur.pos();
        let mut run_line = self.cur.line();
        let mut at_line_start = matches!(end, InterpEnd::Heredoc(_));
        while let Some(b) = self.cur.peek_byte() {
            let terminator = match end {
                InterpEnd::DoubleQuote if b == b'"' => Some((TokenKind::DoubleQuote, 1)),
                InterpEnd::Backtick if b == b'`' => Some((TokenKind::Backtick, 1)),
                InterpEnd::Heredoc(label)
                    if at_line_start && is_heredoc_end(self.cur.rest(), label) =>
                {
                    Some((TokenKind::EndHeredoc, label.len()))
                }
                _ => None,
            };
            if let Some((kind, len)) = terminator {
                self.flush_encapsed_run(run_start, run_line);
                let line = self.cur.line();
                let text = self.cur.bump(len);
                self.push(kind, text, line);
                return;
            }
            at_line_start = false;
            let next = self.cur.peek_byte_at(1);
            let open = match (b, next) {
                (b'$', Some(n)) if is_ident_start(n) => None,
                (b'{', Some(b'$')) => Some((TokenKind::CurlyOpen, 1)),
                (b'$', Some(b'{')) => Some((TokenKind::DollarOpenCurlyBraces, 2)),
                (b'\\', _) => {
                    // Escapes stay verbatim inside the encapsed run.
                    self.cur.bump(1);
                    at_line_start = self.cur.bump_char() == Some(b'\n');
                    continue;
                }
                (b'\n', _) => {
                    self.cur.advance(1);
                    at_line_start = true;
                    continue;
                }
                _ => {
                    // Plain text: jump to the next byte that can end it.
                    let rest = self.cur.rest();
                    let len = find_any(rest, 1, |b| {
                        matches!(b, b'\\' | b'$' | b'{' | b'\n' | b'"' | b'`')
                    });
                    self.cur.bump(len.unwrap_or(rest.len()));
                    continue;
                }
            };
            self.flush_encapsed_run(run_start, run_line);
            let line = self.cur.line();
            match open {
                None => self.lex_simple_interpolation(line),
                Some((kind, len)) => {
                    let text = self.cur.bump(len);
                    self.push(kind, text, line);
                    self.lex_php_until_matching_brace();
                }
            }
            run_start = self.cur.pos();
            run_line = self.cur.line();
        }
        self.flush_encapsed_run(run_start, run_line);
    }

    /// `$var`, optionally followed by one `->prop` or one `[index]` (a
    /// `$var`, a number or a bareword), PHP's simple interpolation syntax.
    fn lex_simple_interpolation(&mut self, line: u32) {
        let start = self.cur.pos();
        self.cur.bump(1); // $
        self.cur.skip_while(is_ident_byte);
        self.push_from(TokenKind::Variable, start, line);
        let next = self.cur.peek_byte_at(1);
        match self.cur.peek_byte() {
            Some(b'-')
                if next == Some(b'>') && self.cur.peek_byte_at(2).is_some_and(is_ident_start) =>
            {
                let arrow = self.cur.bump(2);
                self.push(TokenKind::ObjectOperator, arrow, line);
                let start = self.cur.pos();
                self.cur.skip_while(is_ident_byte);
                self.push_from(TokenKind::Identifier, start, line);
            }
            Some(b'[')
                if next.is_some_and(|c| {
                    c == b'$' || c == b'\'' || c.is_ascii_digit() || is_ident_start(c)
                }) =>
            {
                let bracket = self.cur.bump(1);
                self.push(TokenKind::OpenBracket, bracket, line);
                let start = self.cur.pos();
                let kind = match next {
                    Some(b'$') => {
                        self.cur.bump(1);
                        self.cur.skip_while(is_ident_byte);
                        TokenKind::Variable
                    }
                    Some(d) if d.is_ascii_digit() => {
                        self.cur.skip_while(|b| b.is_ascii_digit());
                        TokenKind::LNumber
                    }
                    _ => {
                        self.cur.skip_while(|b| is_ident_byte(b) || b == b'\'');
                        TokenKind::Identifier
                    }
                };
                self.push_from(kind, start, line);
                if self.cur.peek_byte() == Some(b']') {
                    let bracket = self.cur.bump(1);
                    self.push(TokenKind::CloseBracket, bracket, line);
                }
            }
            _ => {}
        }
    }

    /// Emits the pending `T_ENCAPSED_AND_WHITESPACE` run (source text from
    /// `run_start` to the cursor), if non-empty.
    fn flush_encapsed_run(&mut self, run_start: usize, run_line: u32) {
        if self.cur.pos() > run_start {
            self.push_from(TokenKind::EncapsedAndWhitespace, run_start, run_line);
        }
    }

    /// Lexes full PHP tokens inside `{$ ... }` until the matching `}` (which
    /// is emitted as `}`), tracking nesting.
    fn lex_php_until_matching_brace(&mut self) {
        let mut depth = 1usize;
        while let Some(b) = self.cur.peek_byte() {
            if b == b'{' {
                depth += 1;
            } else if b == b'}' {
                depth -= 1;
                let line = self.cur.line();
                let brace = self.cur.bump(1);
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
        let blank = |b: u8| b == b' ' || b == b'\t';
        let mut probe = self.cur;
        probe.bump(1); // (
        probe.skip_while(blank);
        let word_start = probe.pos();
        probe.skip_while(|b| b.is_ascii_alphabetic());
        let word = probe.slice_from(word_start);
        let Some(&(_, kind)) = CASTS.iter().find(|(w, _)| word.eq_ignore_ascii_case(w)) else {
            return false;
        };
        probe.skip_while(blank);
        if probe.peek_byte() != Some(b')') {
            return false;
        }
        probe.bump(1);
        let start = self.cur.pos();
        self.cur = probe;
        self.push_from(kind, start, line);
        true
    }

    /// Operators and punctuation: the first byte picks the family, the
    /// next one or two pick the longest operator of it.
    fn lex_operator(&mut self, line: u32) {
        use TokenKind::*;
        let rest = self.cur.rest();
        let (b, n1, n2) = (rest[0], rest.get(1).copied(), rest.get(2).copied());
        let (kind, len) = match (b, n1) {
            (b'=', Some(b'=')) if n2 == Some(b'=') => (Identical, 3),
            (b'=', Some(b'=')) => (Equal, 2),
            (b'=', Some(b'>')) => (DoubleArrow, 2),
            (b'!', Some(b'=')) if n2 == Some(b'=') => (NotIdentical, 3),
            (b'!', Some(b'=')) => (NotEqual, 2),
            (b'<', Some(b'<')) if n2 == Some(b'=') => (SlEqual, 3),
            (b'<', Some(b'<')) => (Sl, 2),
            (b'<', Some(b'=')) => (SmallerOrEqual, 2),
            (b'<', Some(b'>')) => (NotEqual, 2),
            (b'>', Some(b'>')) if n2 == Some(b'=') => (SrEqual, 3),
            (b'>', Some(b'>')) => (Sr, 2),
            (b'>', Some(b'=')) => (GreaterOrEqual, 2),
            (b'.', Some(b'.')) if n2 == Some(b'.') => (Ellipsis, 3),
            (b'.', Some(b'=')) => (ConcatEqual, 2),
            (b'-', Some(b'>')) => (ObjectOperator, 2),
            (b'-', Some(b'-')) => (Dec, 2),
            (b'-', Some(b'=')) => (MinusEqual, 2),
            (b'+', Some(b'+')) => (Inc, 2),
            (b'+', Some(b'=')) => (PlusEqual, 2),
            (b':', Some(b':')) => (DoubleColon, 2),
            (b'&', Some(b'&')) => (BooleanAnd, 2),
            (b'&', Some(b'=')) => (AndEqual, 2),
            (b'|', Some(b'|')) => (BooleanOr, 2),
            (b'|', Some(b'=')) => (OrEqual, 2),
            (b'*', Some(b'*')) => (Pow, 2),
            (b'*', Some(b'=')) => (MulEqual, 2),
            (b'/', Some(b'=')) => (DivEqual, 2),
            (b'%', Some(b'=')) => (ModEqual, 2),
            (b'^', Some(b'=')) => (XorEqual, 2),
            _ => (punctuation_kind(b), 1),
        };
        let text = self.cur.bump(len);
        self.push(kind, text, line);
    }
}

/// The one-byte operator or punctuation token `b` spells, else `Unknown`.
fn punctuation_kind(b: u8) -> TokenKind {
    use TokenKind::*;
    match b {
        b';' => Semicolon,
        b',' => Comma,
        b'(' => OpenParen,
        b')' => CloseParen,
        b'{' => OpenBrace,
        b'}' => CloseBrace,
        b'[' => OpenBracket,
        b']' => CloseBracket,
        b'+' => Plus,
        b'-' => Minus,
        b'*' => Star,
        b'/' => Slash,
        b'%' => Percent,
        b'.' => Dot,
        b'=' => Assign,
        b'<' => Lt,
        b'>' => Gt,
        b'!' => Bang,
        b'?' => Question,
        b':' => Colon,
        b'&' => Amp,
        b'|' => Pipe,
        b'^' => Caret,
        b'~' => Tilde,
        b'@' => At,
        b'\\' => Backslash,
        _ => Unknown,
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

/// The class of a PHP-mode token's first byte; [`Lexer::lex_php_token`]
/// matches on it once per token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    /// `a-z`, `A-Z`, `_`.
    Ident,
    /// A byte of a multi-byte character: whitespace or an identifier.
    NonAscii,
    // The three classes above are the identifier bytes, and the first two
    // the bytes that start one: `Class` order makes each a range test.
    Digit,
    /// ASCII whitespace: `\t`, `\n`, vertical tab, form feed, `\r`, space.
    Space,
    Dollar,
    Quote,
    DoubleQuote,
    Backtick,
    /// `/`: a comment or an operator.
    Slash,
    /// `#`: a line comment.
    Hash,
    /// `<`: a heredoc or an operator.
    Lt,
    /// `(`: a cast or a parenthesis.
    OpenParen,
    /// Any other ASCII byte: an operator, punctuation, a `.5` number or
    /// `Unknown`.
    Op,
}

/// The class of every byte.
static CLASS: [Class; 256] = {
    let mut table = [Class::Op; 256];
    let mut i = 0;
    while i < 256 {
        table[i] = match i as u8 {
            b'\t' | b'\n' | 0x0b | 0x0c | b'\r' | b' ' => Class::Space,
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => Class::Ident,
            b'0'..=b'9' => Class::Digit,
            b'$' => Class::Dollar,
            b'\'' => Class::Quote,
            b'"' => Class::DoubleQuote,
            b'`' => Class::Backtick,
            b'/' => Class::Slash,
            b'#' => Class::Hash,
            b'<' => Class::Lt,
            b'(' => Class::OpenParen,
            0x80..=0xff => Class::NonAscii,
            _ => Class::Op,
        };
        i += 1;
    }
    table
};

/// Whether `b` can start an identifier: ASCII letters, `_`, and every
/// non-ASCII character.
fn is_ident_start(b: u8) -> bool {
    CLASS[usize::from(b)] <= Class::NonAscii
}

/// Whether `b` can continue an identifier.
fn is_ident_byte(b: u8) -> bool {
    CLASS[usize::from(b)] <= Class::Digit
}

/// True when `rest` starts with the heredoc terminator `label`, followed by
/// the end of input or one of `;`, `,`, `)` or a line break. The caller
/// checks that `rest` starts a line.
fn is_heredoc_end(rest: &[u8], label: &str) -> bool {
    rest.starts_with(label.as_bytes())
        && matches!(
            rest.get(label.len()),
            None | Some(b';' | b',' | b'\n' | b'\r' | b')')
        )
}

/// The offset of the first byte at or after `from` that `pred` accepts.
fn find_any(hay: &[u8], from: usize, pred: impl Fn(u8) -> bool) -> Option<usize> {
    let i = hay.get(from..)?.iter().position(|&b| pred(b))?;
    Some(from + i)
}

/// The offset of the first `a` directly followed by `b`.
fn find2(hay: &[u8], a: u8, b: u8) -> Option<usize> {
    let mut from = 0;
    while let Some(at) = find_any(hay, from, |x| x == a) {
        if hay.get(at + 1) == Some(&b) {
            return Some(at);
        }
        from = at + 1;
    }
    None
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
    fn nowdoc_terminator_counts_only_at_line_start() {
        let t = tokenize_significant("<?php $s = <<<'EOT'\nfoo EOT;\nEOT;\n");
        let k: Vec<K> = t.iter().map(|t| t.kind).collect();
        assert_eq!(
            k,
            vec![
                K::OpenTag,
                K::Variable,
                K::Assign,
                K::StartHeredoc,
                K::EncapsedAndWhitespace,
                K::EndHeredoc,
                K::Semicolon
            ]
        );
        assert_eq!(t[4].text, "foo EOT;\n");
        assert_eq!((t[5].text, t[5].line), ("EOT", 3));
        // A label that ends a longer word is body text, not the terminator.
        let t = tokenize_significant("<?php <<<'EOT'\nxEOT\n");
        assert_eq!(t.last().unwrap().kind, K::EncapsedAndWhitespace);
        assert_eq!(t.last().unwrap().text, "xEOT\n");
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
