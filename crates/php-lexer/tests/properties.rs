//! Property-based tests for the lexer's totality and round-trip invariants.

use php_lexer::{tokenize, tokenize_significant, TokenKind};
use proptest::prelude::*;

/// Strategy producing PHP-ish source fragments: a soup of constructs the
/// lexer must survive, biased toward tricky boundaries (strings, tags,
/// interpolation, comments).
fn php_soup() -> impl Strategy<Value = String> {
    let fragment = prop_oneof![
        Just("<?php ".to_string()),
        Just("<?PHP ".to_string()),
        Just("<?Php ".to_string()),
        Just("?>".to_string()),
        Just("<?= ".to_string()),
        Just("$x".to_string()),
        Just("$_GET['a']".to_string()),
        Just("\"a $b c\"".to_string()),
        Just("'lit'".to_string()),
        Just("\"{$obj->prop}\"".to_string()),
        Just("// comment\n".to_string()),
        Just("/* block */".to_string()),
        Just("echo ".to_string()),
        Just("function f($a) { return $a; }".to_string()),
        Just("class C { var $p; }".to_string()),
        Just("$a->b".to_string()),
        Just("A::b()".to_string()),
        Just("1.5e3".to_string()),
        Just("0x1F".to_string()),
        Just("(int)".to_string()),
        Just("===".to_string()),
        Just("<<<EOT\nbody\nEOT;\n".to_string()),
        Just("<<<'EOT'\nbody".to_string()),
        Just("<<<\n".to_string()),
        Just("<html><b>x</b>".to_string()),
        Just(";".to_string()),
        Just("\n".to_string()),
        Just("\\".to_string()),
        Just("'unclosed".to_string()),
        Just("\"unclosed $v".to_string()),
        "[ -~]{0,12}".prop_map(|s| s),
    ];
    prop::collection::vec(fragment, 0..24).prop_map(|v| v.concat())
}

proptest! {
    /// The lexer is total and round-trips arbitrary construct soup.
    #[test]
    fn lexing_is_total_and_roundtrips(src in php_soup()) {
        let toks = tokenize(&src);
        let rebuilt: String = toks.iter().map(|t| t.text).collect();
        prop_assert_eq!(rebuilt, src);
    }

    /// The lexer is total on completely arbitrary unicode strings.
    #[test]
    fn lexing_is_total_on_arbitrary_unicode(src in "\\PC{0,64}") {
        let toks = tokenize(&src);
        let rebuilt: String = toks.iter().map(|t| t.text).collect();
        prop_assert_eq!(rebuilt, src);
    }

    /// Each token's text is the slice of `src` at the running byte offset
    /// (pointer equality), so no token can carry text the source lacks.
    #[test]
    fn token_text_is_the_source_slice_at_its_offset(src in php_soup()) {
        let mut offset = 0;
        for t in tokenize(&src) {
            prop_assert_eq!(
                t.text.as_ptr(),
                src.as_ptr().wrapping_add(offset),
                "{:?} does not start at byte {}",
                t,
                offset
            );
            offset += t.text.len();
        }
        prop_assert_eq!(offset, src.len());
    }

    /// No token has empty text (C-DEBUG-NONEMPTY analogue for tokens), and
    /// line numbers are monotonically non-decreasing and 1-based.
    #[test]
    fn tokens_nonempty_and_lines_monotone(src in php_soup()) {
        let toks = tokenize(&src);
        let mut last = 1u32;
        for t in &toks {
            prop_assert!(!t.text.is_empty(), "empty token text: {:?}", t);
            prop_assert!(t.line >= 1);
            prop_assert!(t.line >= last, "line went backwards at {:?}", t);
            last = t.line;
        }
    }

    /// Filtering trivia never removes significant kinds.
    #[test]
    fn significant_is_a_subsequence(src in php_soup()) {
        let all = tokenize(&src);
        let sig = tokenize_significant(&src);
        prop_assert!(sig.len() <= all.len());
        prop_assert!(sig.iter().all(|t| !t.kind.is_trivia()));
        // Every significant token appears in the full stream.
        let mut it = all.iter();
        for s in &sig {
            prop_assert!(it.any(|a| a == s), "significant token missing from full stream");
        }
    }

    /// Line numbers never exceed the physical line count of the input.
    #[test]
    fn line_numbers_bounded_by_input(src in php_soup()) {
        let max_line = src.lines().count().max(1) as u32;
        for t in tokenize(&src) {
            prop_assert!(t.line <= max_line + 1, "token line {} > {}", t.line, max_line);
        }
    }
}

#[test]
fn significant_filters_whitespace_deterministically() {
    let src = "<?php  $a  =  1 ; // c\n$b = 2;";
    let a = tokenize_significant(src);
    let b = tokenize_significant(src);
    assert_eq!(a, b);
    assert!(a.iter().all(|t| t.kind != TokenKind::Whitespace));
}

/// Byte dispatch must never slice inside a character. Every ASCII byte
/// next to a multi-byte character, right after every opener and operator,
/// lexes without a panic into texts that tile the input.
#[test]
fn multibyte_characters_after_every_opener_and_operator_tile_the_input() {
    const MULTI: [&str; 5] = ["é", "\u{a0}", "\u{2028}", "\u{fffd}", "😀"];
    const OPENERS: [&str; 11] = [
        "",
        "<<<EOT\n",
        "<<<'EOT'\n",
        "( ",
        "\"$a->",
        "\"$a[",
        "\"{$",
        "\"${",
        "\"\\",
        "'\\",
        "?>",
    ];
    // Space-separated: string, comment and heredoc openers, number
    // prefixes, then every operator and punctuation byte.
    const TOKENS: &str = "\" ' ` <<< <<<' <<<\" /* /** // # $ \"$ ( 0x 0b 1. 1e 1e+ . ? <? \
        === == => !== != <<= << <= <> >>= >> >= ... .= -> -- -= ++ += :: && &= || |= ** *= \
        /= %= ^= ; , ) { } [ ] + - * / % = < > ! : & | ^ ~ @ \\";
    let check = |src: &str| {
        let mut offset = 0;
        for t in tokenize(src) {
            assert!(!t.text.is_empty(), "empty token in {src:?}");
            assert_eq!(t.text.as_ptr(), src[offset..].as_ptr(), "{src:?}");
            offset += t.text.len();
        }
        assert_eq!(offset, src.len(), "{src:?}");
    };
    for b in (0u8..0x80).map(char::from) {
        for m in MULTI {
            check(&format!("{m}{b}"));
            for open in OPENERS.into_iter().chain(TOKENS.split_whitespace()) {
                check(&format!("<?php {open}{b}{m}"));
                check(&format!("<?php {open}{m}{b}"));
                check(&format!("<?php {open}{m}>"));
            }
        }
    }
}
