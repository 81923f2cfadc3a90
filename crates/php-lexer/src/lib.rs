//! # php-lexer
//!
//! A total, line-tracking PHP tokenizer mirroring the semantics of PHP's
//! `token_get_all`, which the phpSAFE paper (Nunes, Fonseca, Vieira — DSN
//! 2015, §III.B) uses as its model-construction front end.
//!
//! Design goals:
//!
//! * **Totality** — every input produces a token stream; malformed code
//!   degrades to [`TokenKind::Unknown`] / truncated strings instead of
//!   failing, because a plugin analyzer must survive real-world code.
//! * **Round-trip fidelity** — [`Token::text`] is the slice of the source
//!   a token was lexed from (tokens are `Copy`; lexing allocates nothing
//!   per token), so the texts concatenate to the source by construction.
//! * **PHP-shaped output** — token kinds carry their PHP `T_*` names
//!   ([`TokenKind::php_name`]), including interpolation tokens
//!   (`T_ENCAPSED_AND_WHITESPACE`, `T_CURLY_OPEN`, …) and OOP operators
//!   (`T_OBJECT_OPERATOR`, `T_DOUBLE_COLON`) that the paper's OOP support
//!   (§III.E) keys on.
//!
//! ## Example
//!
//! ```
//! use php_lexer::{tokenize_significant, TokenKind};
//!
//! let tokens = tokenize_significant(r#"<?php echo $_GET['name']; "#);
//! assert_eq!(tokens[1].kind, TokenKind::Echo);
//! assert_eq!(tokens[2].kind, TokenKind::Variable);
//! assert_eq!(tokens[2].text, "$_GET");
//! ```

#![warn(missing_docs)]

mod cursor;
mod lexer;
mod token;

pub use lexer::{tokenize, tokenize_significant, Lexer};
pub use token::{keyword_kind, Token, TokenKind};

/// Counts non-blank source lines of PHP code, the LOC measure used for the
/// paper's responsiveness numbers (Table III reports seconds per KLOC).
///
/// # Examples
///
/// ```
/// use php_lexer::count_loc;
/// assert_eq!(count_loc("<?php\n$a = 1;\n\n$b = 2;\n"), 3);
/// ```
pub fn count_loc(src: &str) -> usize {
    src.lines().filter(|l| !l.trim().is_empty()).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loc_ignores_blank_lines() {
        assert_eq!(count_loc(""), 0);
        assert_eq!(count_loc("\n\n\n"), 0);
        assert_eq!(count_loc("a\n\nb"), 2);
    }
}
