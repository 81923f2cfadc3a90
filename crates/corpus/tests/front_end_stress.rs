//! Front-end stress: generated plugin files, broken the ways real plugin
//! code breaks, must lex and parse without panicking, and their tokens
//! must still tile the broken text exactly.

use php_ast::parse_tokens;
use php_lexer::tokenize;
use phpsafe::{PhpSafe, PluginProject, SourceFile};
use phpsafe_corpus::{mutate, Corpus, Version, MUTATION_KINDS};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Every mutant lexes and parses without panicking, and concatenating
    /// its token texts gives the mutant back.
    #[test]
    fn mutated_corpus_files_lex_parse_and_round_trip(
        file in 0..sources().len(),
        kind in 0..MUTATION_KINDS,
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
