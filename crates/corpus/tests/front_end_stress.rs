//! Front-end stress: generated plugin files, broken the ways real plugin
//! code breaks, must lex and parse without panicking, and their tokens
//! must still tile the broken text exactly.

use php_ast::parse_tokens;
use php_lexer::tokenize;
use phpsafe::{PhpSafe, PluginProject, SourceFile};
use phpsafe_corpus::{Corpus, Version};
use proptest::prelude::*;
use std::sync::OnceLock;

/// The contents of every file of both corpus versions.
fn sources() -> &'static [String] {
    static S: OnceLock<Vec<String>> = OnceLock::new();
    S.get_or_init(|| {
        let corpus = Corpus::generate();
        let mut files = Vec::new();
        for p in corpus.plugins() {
            for v in Version::ALL {
                files.extend(p.project(v).files().iter().map(|f| f.content.clone()));
            }
        }
        files
    })
}

/// Openers that are never closed: a string whose quote character is
/// stripped from the rest of the file, or a heredoc/nowdoc whose label
/// the corpus never uses.
const UNTERMINATED: [(&str, Option<char>); 4] = [
    ("'", Some('\'')),
    ("\"", Some('"')),
    ("<<<EOT_STRESS\n", None),
    ("<<<'EOT_STRESS'\n", None),
];

/// Breaks `src` at the char boundary at or before byte `at` (taken modulo
/// the length), the way `kind` says; `arg` sizes the damage.
fn mutate(src: &str, kind: u8, at: u64, arg: usize) -> String {
    let mut cut = (at % (src.len() as u64 + 1)) as usize;
    while !src.is_char_boundary(cut) {
        cut -= 1;
    }
    let (head, tail) = src.split_at(cut);
    match kind {
        // Truncation.
        0 => head.to_string(),
        // One flipped byte, repaired to UTF-8 the lossy way.
        1 => {
            let mut bytes = src.as_bytes().to_vec();
            if let Some(b) = bytes.get_mut(cut) {
                *b ^= (arg as u8) | 1;
            }
            String::from_utf8_lossy(&bytes).into_owned()
        }
        // Deep expression or statement nesting, never closed.
        2 => {
            let open = ["(", "[", "{", "if ($a) {"][arg % 4];
            format!("{head}{}{tail}", open.repeat(arg))
        }
        // An unterminated string or heredoc.
        _ => {
            let (open, quote) = UNTERMINATED[arg % UNTERMINATED.len()];
            let tail = match quote {
                Some(q) => tail.replace(q, ""),
                None => tail.to_string(),
            };
            format!("{head}{open}{tail}")
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Every mutant lexes and parses without panicking, and concatenating
    /// its token texts gives the mutant back.
    #[test]
    fn mutated_corpus_files_lex_parse_and_round_trip(
        file in 0..sources().len(),
        kind in 0u8..4,
        at in 0..u64::MAX,
        arg in 1usize..2048,
    ) {
        let src = mutate(&sources()[file], kind, at, arg);
        let toks = tokenize(&src);
        let rebuilt: String = toks.iter().map(|t| t.text).collect();
        prop_assert!(rebuilt == src, "file {} kind {} at {} arg {}", file, kind, at, arg);
        parse_tokens(toks);
    }
}

#[test]
fn nesting_past_the_parser_bound_is_an_error_not_a_crash() {
    for (head, open, message) in [
        ("$x = ", "(", "expression nested too deeply"),
        ("$x = ", "[", "expression nested too deeply"),
        ("", "{", "statement nested too deeply"),
        ("", "if ($a) {", "statement nested too deeply"),
    ] {
        let src = format!("<?php {head}{};", open.repeat(4096));
        let file = parse_tokens(tokenize(&src));
        assert!(
            file.errors.iter().any(|e| e.message == message),
            "{open:?} x 4096 must record {message:?}"
        );
    }
}

/// The daemon analyzes on worker threads with the default stack, so a
/// deeply nested buffer must not overflow one.
#[test]
fn deep_statement_nesting_analyzes_on_a_default_stack() {
    let src = format!("<?php {}echo $_GET['x'];", "if ($a) {".repeat(5000));
    let outcome = std::thread::spawn(move || {
        let project = PluginProject::new("deep").with_file(SourceFile::new("deep.php", &src));
        PhpSafe::new().analyze(&project)
    })
    .join()
    .expect("analysis thread must not die");
    assert!(
        outcome.files[0].parse_errors > 0,
        "the over-deep nest must be reported"
    );
}
