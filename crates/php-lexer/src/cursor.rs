//! A byte cursor over source text with line tracking and lookahead.

/// Cursor used by the lexer: a byte offset into borrowed source text.
///
/// The lexer decides on bytes: every byte that ends a token or starts
/// one is ASCII, and no byte of a multi-byte UTF-8 character is, so the
/// cursor only ever stops on a character boundary. The one place a whole
/// character matters (is a non-ASCII character whitespace?) decodes it
/// with [`Cursor::char_at`].
///
/// The cursor is `Copy`, so the speculative probes the lexer takes (cast
/// probing, heredoc labels) copy a pointer and two integers, and
/// [`Cursor::slice_from`] hands out token text as a slice of the source
/// itself: no token owns a copy of its text.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cursor<'a> {
    src: &'a str,
    pos: usize,
    line: u32,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(src: &'a str) -> Self {
        Cursor {
            src,
            pos: 0,
            line: 1,
        }
    }

    /// Current 1-based line number.
    pub(crate) fn line(&self) -> u32 {
        self.line
    }

    /// Current byte offset (a valid UTF-8 boundary).
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    /// The source text between `start` (an earlier [`Cursor::pos`]) and the
    /// current position.
    pub(crate) fn slice_from(&self, start: usize) -> &'a str {
        &self.src[start..self.pos]
    }

    pub(crate) fn is_eof(&self) -> bool {
        self.pos >= self.src.len()
    }

    /// The unread bytes.
    pub(crate) fn rest(&self) -> &'a [u8] {
        &self.src.as_bytes()[self.pos..]
    }

    /// The current byte, or `None` at the end of input.
    pub(crate) fn peek_byte(&self) -> Option<u8> {
        self.rest().first().copied()
    }

    /// The byte `n` bytes ahead (0 = current).
    pub(crate) fn peek_byte_at(&self, n: usize) -> Option<u8> {
        self.rest().get(n).copied()
    }

    /// The character starting `n` bytes ahead; `n` must land on a
    /// character boundary.
    pub(crate) fn char_at(&self, n: usize) -> Option<char> {
        self.src[self.pos + n..].chars().next()
    }

    /// True if the upcoming bytes match `s` (ASCII case-insensitive when
    /// `ci` is set).
    pub(crate) fn starts_with(&self, s: &str, ci: bool) -> bool {
        let (rest, pat) = (self.rest(), s.as_bytes());
        match rest.get(..pat.len()) {
            Some(have) if ci => have.eq_ignore_ascii_case(pat),
            Some(have) => have == pat,
            None => false,
        }
    }

    /// Moves `n` bytes forward, counting the newlines passed, and returns
    /// the text passed. `n` must land on a character boundary (or past
    /// the end, which stops at the end).
    pub(crate) fn advance(&mut self, n: usize) -> &'a str {
        let end = (self.pos + n).min(self.src.len());
        let passed = &self.src.as_bytes()[self.pos..end];
        let lines = passed.iter().filter(|&&b| b == b'\n').count();
        self.advance_lines(n, lines as u32)
    }

    /// [`Cursor::advance`] over text the caller knows holds `lines`
    /// newlines.
    pub(crate) fn advance_lines(&mut self, n: usize, lines: u32) -> &'a str {
        let start = self.pos;
        self.pos = (start + n).min(self.src.len());
        self.line += lines;
        self.slice_from(start)
    }

    /// Moves `n` bytes forward over text that holds no newline, and
    /// returns it: the short tokens that cannot span lines.
    pub(crate) fn bump(&mut self, n: usize) -> &'a str {
        let text = self.advance_lines(n, 0);
        debug_assert!(!text.contains('\n'), "bump over a newline: {text:?}");
        text
    }

    /// Consumes one whole character and returns its first byte.
    pub(crate) fn bump_char(&mut self) -> Option<u8> {
        let b = self.peek_byte()?;
        self.advance(utf8_len(b));
        Some(b)
    }

    /// Consumes bytes while `pred` holds. `pred` must reject `b'\n'` (no
    /// line is counted here) and must not stop inside a character: a
    /// predicate over ASCII bytes that accepts either all or none of the
    /// bytes from `0x80` up does neither.
    pub(crate) fn skip_while(&mut self, pred: impl Fn(u8) -> bool) {
        let rest = self.rest();
        let n = rest.iter().position(|&b| !pred(b)).unwrap_or(rest.len());
        self.pos += n;
    }
}

/// The byte length of the UTF-8 character whose first byte is `b`.
fn utf8_len(b: u8) -> usize {
    match b {
        0x00..=0x7f => 1,
        0x80..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_lines_across_advances() {
        let mut c = Cursor::new("a\nb\nc");
        assert_eq!(c.line(), 1);
        c.advance(2); // a, \n
        assert_eq!(c.line(), 2);
        assert_eq!(c.advance(2), "b\n");
        assert_eq!(c.line(), 3);
        assert_eq!(c.bump_char(), Some(b'c'));
        assert!(c.is_eof());
        assert_eq!(c.advance(5), "");
    }

    #[test]
    fn starts_with_case_modes() {
        let c = Cursor::new("<?PHP echo");
        assert!(c.starts_with("<?php", true));
        assert!(!c.starts_with("<?php", false));
        assert!(c.starts_with("<?PHP", false));
        assert!(!c.starts_with("<?PHP echo!", false));
    }

    #[test]
    fn skip_while_stops_at_predicate_boundary() {
        let mut c = Cursor::new("abc123");
        c.skip_while(|b| b.is_ascii_alphabetic());
        assert_eq!(c.slice_from(0), "abc");
        assert_eq!(c.peek_byte(), Some(b'1'));
        assert_eq!(c.peek_byte_at(2), Some(b'3'));
        assert_eq!(c.peek_byte_at(3), None);
    }

    #[test]
    fn bump_char_steps_over_whole_characters() {
        let mut c = Cursor::new("é😀$x");
        assert_eq!(c.char_at(0), Some('é'));
        c.bump_char();
        c.bump_char();
        assert_eq!(c.pos(), 6);
        assert_eq!(c.peek_byte(), Some(b'$'));
    }

    #[test]
    fn slice_from_reproduces_consumed_text() {
        let mut c = Cursor::new("héllo world");
        c.skip_while(|b| b != b' ');
        assert_eq!(c.slice_from(0), "héllo");
    }
}
