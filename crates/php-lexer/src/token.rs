//! Token definitions mirroring PHP's `token_get_all` output.
//!
//! PHP's tokenizer names compound tokens `T_*` (e.g. `T_VARIABLE`) and emits
//! single-character punctuation as bare strings. We model both uniformly as
//! [`TokenKind`] variants; [`TokenKind::php_name`] recovers the PHP-style
//! name the paper refers to (e.g. `"T_VARIABLE"`).

use phpsafe_intern::Symbol;
use std::fmt;

/// The kind of a PHP token.
///
/// Compound variants correspond to PHP `T_*` token identifiers; punctuation
/// variants correspond to the bare one/two-character strings PHP's
/// `token_get_all` returns outside of arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variant names are self-describing PHP token names
pub enum TokenKind {
    // --- structure ---
    /// `<?php` or `<?`
    OpenTag,
    /// `<?=`
    OpenTagWithEcho,
    /// `?>` (including a trailing newline, as PHP does)
    CloseTag,
    /// Raw HTML outside PHP tags.
    InlineHtml,
    /// Whitespace inside PHP code (`T_WHITESPACE`).
    Whitespace,
    /// `// ...`, `# ...` or `/* ... */`
    Comment,
    /// `/** ... */`
    DocComment,

    // --- literals & identifiers ---
    /// `$name`
    Variable,
    /// Identifier / keyword-like bareword (`T_STRING`).
    Identifier,
    /// Integer literal.
    LNumber,
    /// Float literal.
    DNumber,
    /// Fully quoted string with no interpolation (quotes included in text).
    ConstantEncapsedString,
    /// Literal fragment inside an interpolated string or heredoc.
    EncapsedAndWhitespace,
    /// `<<<EOT` opener.
    StartHeredoc,
    /// Heredoc/nowdoc terminator label.
    EndHeredoc,
    /// `{$` inside an interpolated string.
    CurlyOpen,
    /// `${` inside an interpolated string.
    DollarOpenCurlyBraces,
    /// The `"` delimiting an interpolated double-quoted string.
    DoubleQuote,
    /// The `` ` `` delimiting a shell-exec string.
    Backtick,

    // --- keywords ---
    Abstract,
    Array,
    As,
    Break,
    Callable,
    Case,
    Catch,
    Class,
    ClassC, // __CLASS__
    Clone,
    Const,
    Continue,
    Declare,
    Default,
    Do,
    Echo,
    Else,
    Elseif,
    Empty,
    EndDeclare,
    EndFor,
    EndForeach,
    EndIf,
    EndSwitch,
    EndWhile,
    Exit,
    Extends,
    Final,
    Finally,
    FileC, // __FILE__
    For,
    Foreach,
    Function,
    FuncC, // __FUNCTION__
    Global,
    Goto,
    If,
    Implements,
    Include,
    IncludeOnce,
    Instanceof,
    Insteadof,
    Interface,
    Isset,
    LineC, // __LINE__
    List,
    LogicalAnd, // and
    LogicalOr,  // or
    LogicalXor, // xor
    MethodC,    // __METHOD__
    Namespace,
    NsC, // __NAMESPACE__
    New,
    Print,
    Private,
    Protected,
    Public,
    Require,
    RequireOnce,
    Return,
    Static,
    Switch,
    Throw,
    Trait,
    Try,
    Unset,
    Use,
    Var,
    While,
    Yield,

    // --- casts ---
    IntCast,
    DoubleCast,
    StringCast,
    ArrayCast,
    ObjectCast,
    BoolCast,
    UnsetCast,

    // --- multi-char operators ---
    /// `->`
    ObjectOperator,
    /// `::`
    DoubleColon,
    /// `=>`
    DoubleArrow,
    /// `++`
    Inc,
    /// `--`
    Dec,
    /// `===`
    Identical,
    /// `!==`
    NotIdentical,
    /// `==`
    Equal,
    /// `!=` or `<>`
    NotEqual,
    /// `<=`
    SmallerOrEqual,
    /// `>=`
    GreaterOrEqual,
    /// `&&`
    BooleanAnd,
    /// `||`
    BooleanOr,
    /// `+=`
    PlusEqual,
    /// `-=`
    MinusEqual,
    /// `*=`
    MulEqual,
    /// `/=`
    DivEqual,
    /// `.=`
    ConcatEqual,
    /// `%=`
    ModEqual,
    /// `&=`
    AndEqual,
    /// `|=`
    OrEqual,
    /// `^=`
    XorEqual,
    /// `<<=`
    SlEqual,
    /// `>>=`
    SrEqual,
    /// `<<`
    Sl,
    /// `>>`
    Sr,
    /// `**`
    Pow,
    /// `...`
    Ellipsis,

    // --- single-char punctuation (bare strings in token_get_all) ---
    Semicolon,
    Comma,
    OpenParen,
    CloseParen,
    OpenBrace,
    CloseBrace,
    OpenBracket,
    CloseBracket,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Dot,
    Assign,
    Lt,
    Gt,
    Bang,
    Question,
    Colon,
    Amp,
    Pipe,
    Caret,
    Tilde,
    At,
    Dollar,
    Backslash,

    /// A byte the lexer could not classify (kept for error tolerance).
    Unknown,
}

impl TokenKind {
    /// PHP-style token name, e.g. `T_VARIABLE`, as returned by PHP's
    /// `token_name`. Punctuation kinds return their literal spelling.
    ///
    /// # Examples
    ///
    /// ```
    /// use php_lexer::TokenKind;
    /// assert_eq!(TokenKind::Variable.php_name(), "T_VARIABLE");
    /// assert_eq!(TokenKind::Semicolon.php_name(), ";");
    /// ```
    pub fn php_name(self) -> &'static str {
        use TokenKind::*;
        match self {
            OpenTag => "T_OPEN_TAG",
            OpenTagWithEcho => "T_OPEN_TAG_WITH_ECHO",
            CloseTag => "T_CLOSE_TAG",
            InlineHtml => "T_INLINE_HTML",
            Whitespace => "T_WHITESPACE",
            Comment => "T_COMMENT",
            DocComment => "T_DOC_COMMENT",
            Variable => "T_VARIABLE",
            Identifier => "T_STRING",
            LNumber => "T_LNUMBER",
            DNumber => "T_DNUMBER",
            ConstantEncapsedString => "T_CONSTANT_ENCAPSED_STRING",
            EncapsedAndWhitespace => "T_ENCAPSED_AND_WHITESPACE",
            StartHeredoc => "T_START_HEREDOC",
            EndHeredoc => "T_END_HEREDOC",
            CurlyOpen => "T_CURLY_OPEN",
            DollarOpenCurlyBraces => "T_DOLLAR_OPEN_CURLY_BRACES",
            DoubleQuote => "\"",
            Backtick => "`",
            Abstract => "T_ABSTRACT",
            Array => "T_ARRAY",
            As => "T_AS",
            Break => "T_BREAK",
            Callable => "T_CALLABLE",
            Case => "T_CASE",
            Catch => "T_CATCH",
            Class => "T_CLASS",
            ClassC => "T_CLASS_C",
            Clone => "T_CLONE",
            Const => "T_CONST",
            Continue => "T_CONTINUE",
            Declare => "T_DECLARE",
            Default => "T_DEFAULT",
            Do => "T_DO",
            Echo => "T_ECHO",
            Else => "T_ELSE",
            Elseif => "T_ELSEIF",
            Empty => "T_EMPTY",
            EndDeclare => "T_ENDDECLARE",
            EndFor => "T_ENDFOR",
            EndForeach => "T_ENDFOREACH",
            EndIf => "T_ENDIF",
            EndSwitch => "T_ENDSWITCH",
            EndWhile => "T_ENDWHILE",
            Exit => "T_EXIT",
            Extends => "T_EXTENDS",
            Final => "T_FINAL",
            Finally => "T_FINALLY",
            FileC => "T_FILE",
            For => "T_FOR",
            Foreach => "T_FOREACH",
            Function => "T_FUNCTION",
            FuncC => "T_FUNC_C",
            Global => "T_GLOBAL",
            Goto => "T_GOTO",
            If => "T_IF",
            Implements => "T_IMPLEMENTS",
            Include => "T_INCLUDE",
            IncludeOnce => "T_INCLUDE_ONCE",
            Instanceof => "T_INSTANCEOF",
            Insteadof => "T_INSTEADOF",
            Interface => "T_INTERFACE",
            Isset => "T_ISSET",
            LineC => "T_LINE",
            List => "T_LIST",
            LogicalAnd => "T_LOGICAL_AND",
            LogicalOr => "T_LOGICAL_OR",
            LogicalXor => "T_LOGICAL_XOR",
            MethodC => "T_METHOD_C",
            Namespace => "T_NAMESPACE",
            NsC => "T_NS_C",
            New => "T_NEW",
            Print => "T_PRINT",
            Private => "T_PRIVATE",
            Protected => "T_PROTECTED",
            Public => "T_PUBLIC",
            Require => "T_REQUIRE",
            RequireOnce => "T_REQUIRE_ONCE",
            Return => "T_RETURN",
            Static => "T_STATIC",
            Switch => "T_SWITCH",
            Throw => "T_THROW",
            Trait => "T_TRAIT",
            Try => "T_TRY",
            Unset => "T_UNSET",
            Use => "T_USE",
            Var => "T_VAR",
            While => "T_WHILE",
            Yield => "T_YIELD",
            IntCast => "T_INT_CAST",
            DoubleCast => "T_DOUBLE_CAST",
            StringCast => "T_STRING_CAST",
            ArrayCast => "T_ARRAY_CAST",
            ObjectCast => "T_OBJECT_CAST",
            BoolCast => "T_BOOL_CAST",
            UnsetCast => "T_UNSET_CAST",
            ObjectOperator => "T_OBJECT_OPERATOR",
            DoubleColon => "T_DOUBLE_COLON",
            DoubleArrow => "T_DOUBLE_ARROW",
            Inc => "T_INC",
            Dec => "T_DEC",
            Identical => "T_IS_IDENTICAL",
            NotIdentical => "T_IS_NOT_IDENTICAL",
            Equal => "T_IS_EQUAL",
            NotEqual => "T_IS_NOT_EQUAL",
            SmallerOrEqual => "T_IS_SMALLER_OR_EQUAL",
            GreaterOrEqual => "T_IS_GREATER_OR_EQUAL",
            BooleanAnd => "T_BOOLEAN_AND",
            BooleanOr => "T_BOOLEAN_OR",
            PlusEqual => "T_PLUS_EQUAL",
            MinusEqual => "T_MINUS_EQUAL",
            MulEqual => "T_MUL_EQUAL",
            DivEqual => "T_DIV_EQUAL",
            ConcatEqual => "T_CONCAT_EQUAL",
            ModEqual => "T_MOD_EQUAL",
            AndEqual => "T_AND_EQUAL",
            OrEqual => "T_OR_EQUAL",
            XorEqual => "T_XOR_EQUAL",
            SlEqual => "T_SL_EQUAL",
            SrEqual => "T_SR_EQUAL",
            Sl => "T_SL",
            Sr => "T_SR",
            Pow => "T_POW",
            Ellipsis => "T_ELLIPSIS",
            Semicolon => ";",
            Comma => ",",
            OpenParen => "(",
            CloseParen => ")",
            OpenBrace => "{",
            CloseBrace => "}",
            OpenBracket => "[",
            CloseBracket => "]",
            Plus => "+",
            Minus => "-",
            Star => "*",
            Slash => "/",
            Percent => "%",
            Dot => ".",
            Assign => "=",
            Lt => "<",
            Gt => ">",
            Bang => "!",
            Question => "?",
            Colon => ":",
            Amp => "&",
            Pipe => "|",
            Caret => "^",
            Tilde => "~",
            At => "@",
            Dollar => "$",
            Backslash => "\\",
            Unknown => "T_UNKNOWN",
        }
    }

    /// Whether this token carries no syntactic meaning for a parser
    /// (whitespace, comments and HTML passthrough).
    pub fn is_trivia(self) -> bool {
        matches!(
            self,
            TokenKind::Whitespace | TokenKind::Comment | TokenKind::DocComment
        )
    }

    /// Whether this is one of the PHP cast tokens like `(int)`.
    pub fn is_cast(self) -> bool {
        matches!(
            self,
            TokenKind::IntCast
                | TokenKind::DoubleCast
                | TokenKind::StringCast
                | TokenKind::ArrayCast
                | TokenKind::ObjectCast
                | TokenKind::BoolCast
                | TokenKind::UnsetCast
        )
    }

    /// Whether this is an `include`/`require` family keyword.
    pub fn is_include(self) -> bool {
        matches!(
            self,
            TokenKind::Include
                | TokenKind::IncludeOnce
                | TokenKind::Require
                | TokenKind::RequireOnce
        )
    }
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.php_name())
    }
}

/// A single lexed token: kind, verbatim source text and 1-based line number.
///
/// Mirrors the `[id, text, line]` triples of PHP's `token_get_all` (the paper,
/// §III.B: *"the array has the token identifier, the value of the token and
/// the line number"*). The text borrows the lexed source, so a token is
/// `Copy` and lexing allocates nothing per token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'src> {
    /// Token classification.
    pub kind: TokenKind,
    /// Verbatim text: the slice of the source the token was lexed from.
    pub text: &'src str,
    /// Interned name for identifier-like tokens ([`TokenKind::Variable`],
    /// [`TokenKind::Identifier`]); [`Symbol::EMPTY`] for everything else.
    /// Interning here means the parser and interpreter never re-hash the
    /// name string — they thread the `Copy` id through the whole pipeline.
    pub sym: Symbol,
    /// 1-based source line on which the token starts.
    pub line: u32,
}

impl<'src> Token<'src> {
    /// Creates a token, interning identifier/variable names.
    pub fn new(kind: TokenKind, text: &'src str, line: u32) -> Self {
        let sym = match kind {
            TokenKind::Variable | TokenKind::Identifier => Symbol::intern(text),
            _ => Symbol::EMPTY,
        };
        Token {
            kind,
            text,
            sym,
            line,
        }
    }

    /// The interned text: `sym` when pre-interned at lex time, otherwise
    /// interned on demand (keywords used as member names, magic constants).
    pub fn symbol(&self) -> Symbol {
        if self.sym.is_empty() && !self.text.is_empty() {
            Symbol::intern(self.text)
        } else {
            self.sym
        }
    }
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}, {:?}, {}]",
            self.kind.php_name(),
            self.text,
            self.line
        )
    }
}

/// Resolves a keyword spelled `word` (ASCII case-insensitive, as in PHP) to
/// its token kind, or `None` if it is an ordinary identifier.
pub fn keyword_kind(word: &str) -> Option<TokenKind> {
    use TokenKind::*;
    // Lowercase on the stack: this runs for every identifier-shaped token
    // in the stream, and the longest keyword (`__namespace__`) is 13 bytes.
    const MAX: usize = 13;
    let bytes = word.as_bytes();
    if bytes.len() > MAX {
        return None;
    }
    let mut buf = [0u8; MAX];
    for (dst, b) in buf.iter_mut().zip(bytes) {
        *dst = b.to_ascii_lowercase();
    }
    Some(match &buf[..bytes.len()] {
        b"abstract" => Abstract,
        b"array" => Array,
        b"as" => As,
        b"break" => Break,
        b"callable" => Callable,
        b"case" => Case,
        b"catch" => Catch,
        b"class" => Class,
        b"__class__" => ClassC,
        b"clone" => Clone,
        b"const" => Const,
        b"continue" => Continue,
        b"declare" => Declare,
        b"default" => Default,
        b"do" => Do,
        b"echo" => Echo,
        b"else" => Else,
        b"elseif" => Elseif,
        b"empty" => Empty,
        b"enddeclare" => EndDeclare,
        b"endfor" => EndFor,
        b"endforeach" => EndForeach,
        b"endif" => EndIf,
        b"endswitch" => EndSwitch,
        b"endwhile" => EndWhile,
        b"exit" | b"die" => Exit,
        b"extends" => Extends,
        b"final" => Final,
        b"finally" => Finally,
        b"__file__" => FileC,
        b"for" => For,
        b"foreach" => Foreach,
        b"function" => Function,
        b"__function__" => FuncC,
        b"global" => Global,
        b"goto" => Goto,
        b"if" => If,
        b"implements" => Implements,
        b"include" => Include,
        b"include_once" => IncludeOnce,
        b"instanceof" => Instanceof,
        b"insteadof" => Insteadof,
        b"interface" => Interface,
        b"isset" => Isset,
        b"__line__" => LineC,
        b"list" => List,
        b"and" => LogicalAnd,
        b"or" => LogicalOr,
        b"xor" => LogicalXor,
        b"__method__" => MethodC,
        b"namespace" => Namespace,
        b"__namespace__" => NsC,
        b"new" => New,
        b"print" => Print,
        b"private" => Private,
        b"protected" => Protected,
        b"public" => Public,
        b"require" => Require,
        b"require_once" => RequireOnce,
        b"return" => Return,
        b"static" => Static,
        b"switch" => Switch,
        b"throw" => Throw,
        b"trait" => Trait,
        b"try" => Try,
        b"unset" => Unset,
        b"use" => Use,
        b"var" => Var,
        b"while" => While,
        b"yield" => Yield,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn php_names_match_php_conventions() {
        assert_eq!(TokenKind::Variable.php_name(), "T_VARIABLE");
        assert_eq!(TokenKind::ObjectOperator.php_name(), "T_OBJECT_OPERATOR");
        assert_eq!(TokenKind::DoubleColon.php_name(), "T_DOUBLE_COLON");
        assert_eq!(TokenKind::OpenBrace.php_name(), "{");
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert_eq!(keyword_kind("ECHO"), Some(TokenKind::Echo));
        assert_eq!(keyword_kind("Function"), Some(TokenKind::Function));
        assert_eq!(keyword_kind("die"), Some(TokenKind::Exit));
        assert_eq!(keyword_kind("not_a_keyword"), None);
    }

    #[test]
    fn trivia_classification() {
        assert!(TokenKind::Whitespace.is_trivia());
        assert!(TokenKind::Comment.is_trivia());
        assert!(TokenKind::DocComment.is_trivia());
        assert!(!TokenKind::Variable.is_trivia());
        assert!(!TokenKind::InlineHtml.is_trivia());
    }

    #[test]
    fn cast_classification() {
        assert!(TokenKind::IntCast.is_cast());
        assert!(TokenKind::UnsetCast.is_cast());
        assert!(!TokenKind::OpenParen.is_cast());
    }

    #[test]
    fn include_classification() {
        assert!(TokenKind::Include.is_include());
        assert!(TokenKind::RequireOnce.is_include());
        assert!(!TokenKind::Use.is_include());
    }

    #[test]
    fn token_display_mirrors_token_get_all_triple() {
        let t = Token::new(TokenKind::Variable, "$_POST", 11);
        assert_eq!(t.to_string(), "[T_VARIABLE, \"$_POST\", 11]");
    }
}
