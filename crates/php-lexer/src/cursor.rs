//! A character cursor over source text with line tracking and lookahead.

/// Cursor used by the lexer: a byte offset into borrowed source text.
///
/// The cursor is `Copy`, so the speculative probes the lexer takes (cast
/// probing, interpolation scanning) copy a pointer and two integers, and
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

    /// Peeks `n` characters ahead (0 = current).
    pub(crate) fn peek_at(&self, n: usize) -> Option<char> {
        self.src[self.pos..].chars().nth(n)
    }

    pub(crate) fn peek(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    /// Consumes and returns the current character, tracking newlines.
    pub(crate) fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    /// Consumes the current char if it equals `c`.
    pub(crate) fn eat(&mut self, c: char) -> bool {
        if self.peek() == Some(c) {
            self.bump();
            true
        } else {
            false
        }
    }

    /// True if the upcoming characters match `s` (ASCII case-insensitive
    /// when `ci` is set). `s` must be ASCII, which every caller's pattern is.
    pub(crate) fn starts_with(&self, s: &str, ci: bool) -> bool {
        let rest = self.src.as_bytes();
        let (pat, n) = (s.as_bytes(), s.len());
        if self.pos + n > rest.len() {
            return false;
        }
        let have = &rest[self.pos..self.pos + n];
        if ci {
            have.eq_ignore_ascii_case(pat)
        } else {
            have == pat
        }
    }

    /// Consumes `n` characters, maintaining line counts, and returns them.
    pub(crate) fn advance(&mut self, n: usize) -> &'a str {
        let start = self.pos;
        for _ in 0..n {
            if self.bump().is_none() {
                break;
            }
        }
        self.slice_from(start)
    }

    /// Consumes characters while `pred` holds, returning the consumed text.
    pub(crate) fn eat_while(&mut self, pred: impl FnMut(char) -> bool) -> &'a str {
        let start = self.pos;
        self.skip_while(pred);
        self.slice_from(start)
    }

    /// Consumes characters while `pred` holds; pair with
    /// [`Cursor::slice_from`] to read the region. ASCII bytes
    /// take a decode-free fast path — this runs per character of every
    /// identifier, number, and whitespace run.
    pub(crate) fn skip_while(&mut self, mut pred: impl FnMut(char) -> bool) {
        let bytes = self.src.as_bytes();
        while self.pos < bytes.len() {
            let b = bytes[self.pos];
            if b < 0x80 {
                if !pred(b as char) {
                    break;
                }
                self.pos += 1;
                if b == b'\n' {
                    self.line += 1;
                }
            } else {
                let c = self.src[self.pos..].chars().next().expect("utf8 boundary");
                if !pred(c) {
                    break;
                }
                self.pos += c.len_utf8();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_lines_across_bumps() {
        let mut c = Cursor::new("a\nb\nc");
        assert_eq!(c.line(), 1);
        c.bump(); // a
        c.bump(); // \n
        assert_eq!(c.line(), 2);
        c.advance(2); // b, \n
        assert_eq!(c.line(), 3);
        assert_eq!(c.bump(), Some('c'));
        assert!(c.is_eof());
    }

    #[test]
    fn starts_with_case_modes() {
        let c = Cursor::new("<?PHP echo");
        assert!(c.starts_with("<?php", true));
        assert!(!c.starts_with("<?php", false));
        assert!(c.starts_with("<?PHP", false));
    }

    #[test]
    fn eat_while_stops_at_predicate_boundary() {
        let mut c = Cursor::new("abc123");
        let word = c.eat_while(|ch| ch.is_ascii_alphabetic());
        assert_eq!(word, "abc");
        assert_eq!(c.peek(), Some('1'));
    }

    #[test]
    fn handles_multibyte_chars() {
        let mut c = Cursor::new("éé$x");
        c.advance(2);
        assert_eq!(c.peek(), Some('$'));
    }

    #[test]
    fn slice_from_reproduces_consumed_text() {
        let mut c = Cursor::new("héllo world");
        let start = c.pos();
        c.skip_while(|ch| !ch.is_whitespace());
        assert_eq!(c.slice_from(start), "héllo");
    }
}
