//! Front-end stress mutations: the ways real plugin code arrives broken
//! (cut short, a byte flipped, nesting never closed, a string never
//! terminated), applied to corpus files so the lexer and parser can be
//! checked on inputs the generator never writes.

/// How many mutation kinds [`mutate`] knows; kinds are `0..MUTATION_KINDS`.
pub const MUTATION_KINDS: u8 = 4;

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
///
/// | kind | damage |
/// |---|---|
/// | 0 | truncation |
/// | 1 | one byte flipped by `arg`, repaired to UTF-8 the lossy way |
/// | 2 | `arg` openers of one nesting construct, never closed |
/// | 3 | an unterminated string or heredoc |
///
/// # Examples
///
/// ```
/// use phpsafe_corpus::mutate;
/// assert_eq!(mutate("<?php echo 1;", 0, 5, 1), "<?php");
/// assert_eq!(mutate("<?php f();", 2, 8, 4), "<?php f((((();");
/// ```
pub fn mutate(src: &str, kind: u8, at: u64, arg: usize) -> String {
    let mut cut = (at % (src.len() as u64 + 1)) as usize;
    while !src.is_char_boundary(cut) {
        cut -= 1;
    }
    let (head, tail) = src.split_at(cut);
    match kind {
        0 => head.to_string(),
        1 => {
            let mut bytes = src.as_bytes().to_vec();
            if let Some(b) = bytes.get_mut(cut) {
                *b ^= (arg as u8) | 1;
            }
            String::from_utf8_lossy(&bytes).into_owned()
        }
        2 => {
            let open = ["(", "[", "{", "if ($a) {"][arg % 4];
            format!("{head}{}{tail}", open.repeat(arg))
        }
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
