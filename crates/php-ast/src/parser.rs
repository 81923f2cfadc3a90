//! Recursive-descent / Pratt parser from token streams to [`crate::ast`]
//! arenas.
//!
//! The parser is *error-tolerant*: unexpected input produces
//! [`Expr::Error`] / [`Stmt::Error`] placeholders plus a recorded
//! [`ParseError`], and parsing continues. Analyzing plugins requires
//! surviving whatever third-party developers ship (the paper's robustness
//! metric counts exactly this).
//!
//! Nodes are allocated into the file's [`Arena`] as they are reduced, so
//! pool order matches evaluation order and the returned [`ParsedFile`] is
//! a few flat buffers rather than a pointer tree.

use crate::ast::*;
use php_lexer::{tokenize_significant, Token, TokenKind as K};
use phpsafe_intern::Symbol;

/// Parses a complete PHP source file (HTML mode at start, like PHP itself).
///
/// # Examples
///
/// ```
/// use php_ast::parse;
/// let file = parse("<?php echo $_GET['id'];");
/// assert!(file.is_clean());
/// assert_eq!(file.top_stmts().len(), 1);
/// ```
pub fn parse(src: &str) -> ParsedFile {
    parse_significant(tokenize_significant(src))
}

/// Parses a pre-lexed token stream (trivia is filtered here, so the stream
/// may come straight from [`php_lexer::tokenize`]).
///
/// Splitting lexing from parsing lets callers time the two stages
/// independently — the engine's stage statistics need that.
///
/// # Examples
///
/// ```
/// use php_ast::parse_tokens;
/// use php_lexer::tokenize;
/// let file = parse_tokens(tokenize("<?php echo $_GET['id'];"));
/// assert!(file.is_clean());
/// ```
pub fn parse_tokens(mut toks: Vec<Token<'_>>) -> ParsedFile {
    toks.retain(|t| !t.kind.is_trivia());
    parse_significant(toks)
}

/// Parses a token stream that holds no trivia.
fn parse_significant(toks: Vec<Token<'_>>) -> ParsedFile {
    let _span = phpsafe_obs::span!("stage.parse", toks.len());
    let file = Parser::new(toks).parse_file();
    phpsafe_obs::count("parse.files", 1);
    phpsafe_obs::count("parse.errors", file.errors.len() as u64);
    phpsafe_obs::count("ast.nodes", file.node_count() as u64);
    phpsafe_obs::count("ast.arena_bytes", file.arena_bytes() as u64);
    phpsafe_obs::count("ast.slices", file.slice_count() as u64);
    file
}

/// Statement plus expression nesting the parser descends into before it
/// records an error instead: a bound on recursion depth, so hostile input
/// cannot overflow the stack.
const MAX_NESTING: u32 = 256;

struct Parser<'a> {
    toks: Vec<Token<'a>>,
    pos: usize,
    /// Current [`Parser::parse_stmt`] plus [`Parser::parse_prefix`]
    /// recursion depth.
    depth: u32,
    arena: Arena,
    errors: Vec<ParseError>,
}

impl<'a> Parser<'a> {
    fn new(toks: Vec<Token<'a>>) -> Self {
        Parser {
            toks,
            pos: 0,
            depth: 0,
            arena: Arena::new(),
            errors: Vec::new(),
        }
    }

    // ---- stream primitives ----

    fn peek(&self) -> Option<&Token<'a>> {
        self.toks.get(self.pos)
    }

    fn peek_kind(&self) -> Option<K> {
        self.peek().map(|t| t.kind)
    }

    fn peek_kind_at(&self, n: usize) -> Option<K> {
        self.toks.get(self.pos + n).map(|t| t.kind)
    }

    fn at(&self, k: K) -> bool {
        self.peek_kind() == Some(k)
    }

    fn line(&self) -> u32 {
        self.peek()
            .map(|t| t.line)
            .or_else(|| self.toks.last().map(|t| t.line))
            .unwrap_or(1)
    }

    fn span(&self) -> Span {
        Span::at(self.line())
    }

    fn bump(&mut self) -> Option<Token<'a>> {
        let t = self.toks.get(self.pos).copied();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, k: K) -> bool {
        if self.at(k) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn error(&mut self, msg: impl Into<String>) {
        let span = self.span();
        self.errors.push(ParseError {
            message: msg.into(),
            span,
        });
    }

    fn expect(&mut self, k: K, what: &str) -> bool {
        if self.eat(k) {
            true
        } else {
            let found = self
                .peek()
                .map(|t| t.kind.php_name().to_string())
                .unwrap_or_else(|| "end of file".into());
            self.error(format!("expected {what}, found {found}"));
            false
        }
    }

    fn is_eof(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn expr(&mut self, e: Expr) -> ExprId {
        self.arena.alloc_expr(e)
    }

    fn stmt(&mut self, s: Stmt) -> StmtId {
        self.arena.alloc_stmt(s)
    }

    // ---- file / block level ----

    fn parse_file(mut self) -> ParsedFile {
        let mut stmts = Vec::new();
        while !self.is_eof() {
            let before = self.pos;
            if let Some(s) = self.parse_top() {
                stmts.push(s);
            }
            if self.pos == before {
                // Guarantee progress: drop one token as an error.
                self.error(format!(
                    "unexpected token {}",
                    self.peek().map(|t| t.kind.php_name()).unwrap_or("?")
                ));
                let span = self.span();
                self.bump();
                let s = self.stmt(Stmt::Error(span));
                stmts.push(s);
            }
        }
        let top = self.arena.alloc_stmt_list(stmts);
        let mut arena = self.arena;
        arena.shrink_to_fit();
        ParsedFile {
            arena,
            top,
            errors: self.errors,
        }
    }

    /// Handles top-of-loop tokens that are not statements proper (tags,
    /// HTML). Returns a statement when one was parsed.
    fn parse_top(&mut self) -> Option<StmtId> {
        match self.peek_kind()? {
            K::OpenTag => {
                self.bump();
                None
            }
            K::CloseTag => {
                self.bump();
                None
            }
            K::InlineHtml => {
                let t = self.bump().expect("html");
                Some(self.stmt(Stmt::InlineHtml(t.text.into(), Span::at(t.line))))
            }
            K::OpenTagWithEcho => {
                let line = self.line();
                self.bump();
                let mut exprs = vec![self.parse_expr()];
                while self.eat(K::Comma) {
                    exprs.push(self.parse_expr());
                }
                self.eat(K::Semicolon);
                let exprs = self.arena.alloc_expr_list(exprs);
                Some(self.stmt(Stmt::Echo(exprs, Span::at(line))))
            }
            _ => Some(self.parse_stmt()),
        }
    }

    /// Parses statements until one of `enders` (alternative-syntax blocks),
    /// EOF, or a closing brace that isn't ours. Does not consume the ender.
    fn parse_stmts_until(&mut self, enders: &[K]) -> StmtRange {
        let mut out = Vec::new();
        loop {
            match self.peek_kind() {
                None => break,
                Some(k) if enders.contains(&k) => break,
                Some(K::OpenTag) | Some(K::CloseTag) => {
                    self.bump();
                }
                Some(K::InlineHtml) => {
                    let t = self.bump().expect("html");
                    let s = self.stmt(Stmt::InlineHtml(t.text.into(), Span::at(t.line)));
                    out.push(s);
                }
                Some(K::OpenTagWithEcho) => {
                    if let Some(s) = self.parse_top() {
                        out.push(s);
                    }
                }
                Some(_) => {
                    let before = self.pos;
                    out.push(self.parse_stmt());
                    if self.pos == before {
                        self.error("parser stuck; skipping token");
                        let span = self.span();
                        self.bump();
                        let s = self.stmt(Stmt::Error(span));
                        out.push(s);
                    }
                }
            }
        }
        self.arena.alloc_stmt_list(out)
    }

    /// Parses a `{ ... }` block or a single statement (PHP allows both as
    /// bodies); with alternative syntax, parses until one of `alt_enders`
    /// and consumes the ender keyword.
    fn parse_body(&mut self, alt_enders: &[K]) -> StmtRange {
        if self.eat(K::Colon) {
            let body = self.parse_stmts_until(alt_enders);
            if let Some(k) = self.peek_kind() {
                if alt_enders.contains(&k) {
                    // Ender consumed by caller for elseif chains; consume
                    // terminal enders here.
                    // (callers handle Else/Elseif themselves)
                }
            }
            return body;
        }
        if self.eat(K::OpenBrace) {
            let body = self.parse_stmts_until(&[K::CloseBrace]);
            self.expect(K::CloseBrace, "`}`");
            return body;
        }
        let s = self.parse_stmt();
        self.arena.alloc_stmt_list(vec![s])
    }

    // ---- statements ----

    /// Every statement recursion passes through here. It shares
    /// [`Parser::depth`] with [`Parser::parse_prefix`], so one
    /// [`MAX_NESTING`] bounds statements and expressions together.
    fn parse_stmt(&mut self) -> StmtId {
        if self.depth == MAX_NESTING {
            self.error("statement nested too deeply");
            let span = self.span();
            self.skip_stmt();
            return self.stmt(Stmt::Error(span));
        }
        self.depth += 1;
        let s = self.parse_stmt_inner();
        self.depth -= 1;
        s
    }

    /// Skips the statement at the cursor without recursing: up to and
    /// including a `;` outside braces, or the `}` closing the first brace
    /// it opened. A `}` closing an enclosing block is left to the caller.
    /// Linear in the tokens skipped, however deep they nest.
    fn skip_stmt(&mut self) {
        let mut depth = 0u32;
        while let Some(k) = self.peek_kind() {
            match k {
                K::OpenBrace | K::CurlyOpen | K::DollarOpenCurlyBraces => depth += 1,
                K::CloseBrace if depth == 0 => return,
                K::CloseBrace => depth -= 1,
                _ => {}
            }
            self.bump();
            if depth == 0 && matches!(k, K::Semicolon | K::CloseBrace) {
                return;
            }
        }
    }

    fn parse_stmt_inner(&mut self) -> StmtId {
        let span = self.span();
        let s = match self.peek_kind() {
            Some(K::Semicolon) => {
                self.bump();
                Stmt::Nop(span)
            }
            Some(K::OpenBrace) => {
                self.bump();
                let body = self.parse_stmts_until(&[K::CloseBrace]);
                self.expect(K::CloseBrace, "`}`");
                Stmt::Block(body, span)
            }
            Some(K::Echo) => {
                self.bump();
                let mut exprs = vec![self.parse_expr()];
                while self.eat(K::Comma) {
                    exprs.push(self.parse_expr());
                }
                self.end_stmt();
                let exprs = self.arena.alloc_expr_list(exprs);
                Stmt::Echo(exprs, span)
            }
            Some(K::If) => self.parse_if(),
            Some(K::While) => self.parse_while(),
            Some(K::Do) => self.parse_do_while(),
            Some(K::For) => self.parse_for(),
            Some(K::Foreach) => self.parse_foreach(),
            Some(K::Switch) => self.parse_switch(),
            Some(K::Break) => {
                self.bump();
                if matches!(self.peek_kind(), Some(K::LNumber)) {
                    self.bump();
                }
                self.end_stmt();
                Stmt::Break(span)
            }
            Some(K::Continue) => {
                self.bump();
                if matches!(self.peek_kind(), Some(K::LNumber)) {
                    self.bump();
                }
                self.end_stmt();
                Stmt::Continue(span)
            }
            Some(K::Return) => {
                self.bump();
                let value = if self.at(K::Semicolon) || self.at(K::CloseTag) || self.is_eof() {
                    None
                } else {
                    Some(self.parse_expr())
                };
                self.end_stmt();
                Stmt::Return(value, span)
            }
            Some(K::Global) => {
                self.bump();
                let mut names = Vec::new();
                loop {
                    if let Some(K::Variable) = self.peek_kind() {
                        names.push(self.bump().expect("var").sym);
                    } else {
                        self.error("expected variable after `global`");
                        break;
                    }
                    if !self.eat(K::Comma) {
                        break;
                    }
                }
                self.end_stmt();
                let names = self.arena.alloc_syms(names);
                Stmt::Global(names, span)
            }
            Some(K::Static) if matches!(self.peek_kind_at(1), Some(K::Variable)) => {
                self.bump();
                let mut vars = Vec::new();
                while let Some(K::Variable) = self.peek_kind() {
                    let name = self.bump().expect("var").sym;
                    let default = if self.eat(K::Assign) {
                        Some(self.parse_expr())
                    } else {
                        None
                    };
                    vars.push((name, default));
                    if !self.eat(K::Comma) {
                        break;
                    }
                }
                self.end_stmt();
                let vars = self.arena.alloc_static_vars(vars);
                Stmt::StaticVars(vars, span)
            }
            Some(K::Unset) => {
                self.bump();
                self.expect(K::OpenParen, "`(` after unset");
                let mut exprs = Vec::new();
                if !self.at(K::CloseParen) {
                    exprs.push(self.parse_expr());
                    while self.eat(K::Comma) {
                        exprs.push(self.parse_expr());
                    }
                }
                self.expect(K::CloseParen, "`)`");
                self.end_stmt();
                let exprs = self.arena.alloc_expr_list(exprs);
                Stmt::Unset(exprs, span)
            }
            Some(K::Throw) => {
                self.bump();
                let e = self.parse_expr();
                self.end_stmt();
                Stmt::Throw(e, span)
            }
            Some(K::Try) => self.parse_try(),
            Some(K::Function)
                if matches!(self.peek_kind_at(1), Some(K::Identifier))
                    || (matches!(self.peek_kind_at(1), Some(K::Amp))
                        && matches!(self.peek_kind_at(2), Some(K::Identifier))) =>
            {
                let f = self.parse_function_decl();
                Stmt::Function(f)
            }
            Some(K::Abstract) | Some(K::Final) if self.lookahead_is_class() => {
                self.parse_class_decl()
            }
            Some(K::Class) | Some(K::Interface) | Some(K::Trait) => self.parse_class_decl(),
            Some(K::Const) => {
                self.bump();
                let mut consts = Vec::new();
                loop {
                    let name = if self.at(K::Identifier) {
                        self.bump().expect("ident").sym
                    } else {
                        self.error("expected constant name");
                        break;
                    };
                    self.expect(K::Assign, "`=`");
                    let value = self.parse_expr();
                    consts.push((name, value));
                    if !self.eat(K::Comma) {
                        break;
                    }
                }
                self.end_stmt();
                let consts = self.arena.alloc_consts(consts);
                Stmt::ConstDecl(consts, span)
            }
            Some(K::Namespace) => {
                // `namespace A\B;` or `namespace A\B { ... }` — record as a
                // no-op scope marker; plugin code is effectively global.
                self.bump();
                while matches!(self.peek_kind(), Some(K::Identifier) | Some(K::Backslash)) {
                    self.bump();
                }
                if self.eat(K::OpenBrace) {
                    let body = self.parse_stmts_until(&[K::CloseBrace]);
                    self.expect(K::CloseBrace, "`}`");
                    return self.stmt(Stmt::Block(body, span));
                }
                self.end_stmt();
                Stmt::Nop(span)
            }
            Some(K::Use) => {
                // top-level `use A\B as C;` import — no analysis impact.
                self.bump();
                while !self.at(K::Semicolon) && !self.is_eof() && !self.at(K::CloseTag) {
                    self.bump();
                }
                self.end_stmt();
                Stmt::Nop(span)
            }
            Some(K::Declare) => {
                self.bump();
                self.expect(K::OpenParen, "`(`");
                while !self.at(K::CloseParen) && !self.is_eof() {
                    self.bump();
                }
                self.expect(K::CloseParen, "`)`");
                if self.eat(K::OpenBrace) {
                    let body = self.parse_stmts_until(&[K::CloseBrace]);
                    self.expect(K::CloseBrace, "`}`");
                    return self.stmt(Stmt::Block(body, span));
                }
                self.end_stmt();
                Stmt::Nop(span)
            }
            Some(K::Goto) => {
                self.bump();
                if self.at(K::Identifier) {
                    self.bump();
                }
                self.end_stmt();
                Stmt::Nop(span)
            }
            Some(_) => {
                let e = self.parse_expr();
                self.end_stmt();
                Stmt::Expr(e, span)
            }
            None => Stmt::Nop(span),
        };
        self.stmt(s)
    }

    /// After `abstract`/`final`, is a class declaration coming?
    fn lookahead_is_class(&self) -> bool {
        let mut i = 1;
        while matches!(self.peek_kind_at(i), Some(K::Abstract) | Some(K::Final)) {
            i += 1;
        }
        matches!(self.peek_kind_at(i), Some(K::Class))
    }

    /// Consumes the statement terminator: `;`, or a close tag (which PHP
    /// accepts as an implicit semicolon).
    fn end_stmt(&mut self) {
        if self.eat(K::Semicolon) {
            return;
        }
        if self.at(K::CloseTag) || self.is_eof() {
            return; // close tag handled by the statement loop
        }
        self.error("expected `;`");
        // Recover: skip to the next plausible statement boundary — a
        // semicolon, a block edge, or a statement-starting keyword.
        while let Some(k) = self.peek_kind() {
            match k {
                K::Semicolon => {
                    self.bump();
                    break;
                }
                K::CloseBrace
                | K::CloseTag
                | K::OpenBrace
                | K::Echo
                | K::If
                | K::While
                | K::Do
                | K::For
                | K::Foreach
                | K::Switch
                | K::Return
                | K::Function
                | K::Class
                | K::Interface
                | K::Trait
                | K::Global
                | K::Throw
                | K::Try => break,
                _ => {
                    self.bump();
                }
            }
        }
    }

    fn parse_if(&mut self) -> Stmt {
        let span = self.span();
        self.bump(); // if
        self.expect(K::OpenParen, "`(`");
        let cond = self.parse_expr();
        self.expect(K::CloseParen, "`)`");
        if self.eat(K::Colon) {
            // Alternative syntax: if: ... [elseif: ...]* [else: ...] endif;
            let then = self.parse_stmts_until(&[K::Elseif, K::Else, K::EndIf]);
            let mut elseifs = Vec::new();
            let mut otherwise = None;
            loop {
                if self.eat(K::Elseif) {
                    self.expect(K::OpenParen, "`(`");
                    let c = self.parse_expr();
                    self.expect(K::CloseParen, "`)`");
                    self.eat(K::Colon);
                    let b = self.parse_stmts_until(&[K::Elseif, K::Else, K::EndIf]);
                    elseifs.push((c, b));
                } else if self.eat(K::Else) {
                    self.eat(K::Colon);
                    otherwise = Some(self.parse_stmts_until(&[K::EndIf]));
                } else {
                    break;
                }
            }
            self.expect(K::EndIf, "`endif`");
            self.end_stmt();
            let elseifs = self.arena.alloc_elseifs(elseifs);
            return Stmt::If {
                cond,
                then,
                elseifs,
                otherwise,
                span,
            };
        }
        let then = self.parse_body(&[]);
        let mut elseifs = Vec::new();
        let mut otherwise = None;
        loop {
            if self.eat(K::Elseif) {
                self.expect(K::OpenParen, "`(`");
                let c = self.parse_expr();
                self.expect(K::CloseParen, "`)`");
                let b = self.parse_body(&[]);
                elseifs.push((c, b));
            } else if self.at(K::Else) && self.peek_kind_at(1) == Some(K::If) {
                self.bump();
                self.bump();
                self.expect(K::OpenParen, "`(`");
                let c = self.parse_expr();
                self.expect(K::CloseParen, "`)`");
                let b = self.parse_body(&[]);
                elseifs.push((c, b));
            } else if self.eat(K::Else) {
                otherwise = Some(self.parse_body(&[]));
                break;
            } else {
                break;
            }
        }
        let elseifs = self.arena.alloc_elseifs(elseifs);
        Stmt::If {
            cond,
            then,
            elseifs,
            otherwise,
            span,
        }
    }

    fn parse_while(&mut self) -> Stmt {
        let span = self.span();
        self.bump();
        self.expect(K::OpenParen, "`(`");
        let cond = self.parse_expr();
        self.expect(K::CloseParen, "`)`");
        let body = if self.at(K::Colon) {
            self.bump();
            let b = self.parse_stmts_until(&[K::EndWhile]);
            self.expect(K::EndWhile, "`endwhile`");
            self.end_stmt();
            b
        } else {
            self.parse_body(&[])
        };
        Stmt::While { cond, body, span }
    }

    fn parse_do_while(&mut self) -> Stmt {
        let span = self.span();
        self.bump(); // do
        let body = self.parse_body(&[]);
        self.expect(K::While, "`while`");
        self.expect(K::OpenParen, "`(`");
        let cond = self.parse_expr();
        self.expect(K::CloseParen, "`)`");
        self.end_stmt();
        Stmt::DoWhile { body, cond, span }
    }

    fn parse_expr_vec(&mut self, stop: K) -> Vec<ExprId> {
        let mut out = Vec::new();
        if self.at(stop) {
            return out;
        }
        out.push(self.parse_expr());
        while self.eat(K::Comma) {
            out.push(self.parse_expr());
        }
        out
    }

    fn parse_expr_list(&mut self, stop: K) -> ExprRange {
        let out = self.parse_expr_vec(stop);
        self.arena.alloc_expr_list(out)
    }

    fn parse_for(&mut self) -> Stmt {
        let span = self.span();
        self.bump();
        self.expect(K::OpenParen, "`(`");
        let init = self.parse_expr_list(K::Semicolon);
        self.expect(K::Semicolon, "`;`");
        let cond = self.parse_expr_list(K::Semicolon);
        self.expect(K::Semicolon, "`;`");
        let step = self.parse_expr_list(K::CloseParen);
        self.expect(K::CloseParen, "`)`");
        let body = if self.at(K::Colon) {
            self.bump();
            let b = self.parse_stmts_until(&[K::EndFor]);
            self.expect(K::EndFor, "`endfor`");
            self.end_stmt();
            b
        } else {
            self.parse_body(&[])
        };
        Stmt::For {
            init,
            cond,
            step,
            body,
            span,
        }
    }

    fn parse_foreach(&mut self) -> Stmt {
        let span = self.span();
        self.bump();
        self.expect(K::OpenParen, "`(`");
        let subject = self.parse_expr();
        self.expect(K::As, "`as`");
        let mut by_ref = self.eat(K::Amp);
        let first = self.parse_expr();
        let (key, value, by_ref2) = if self.eat(K::DoubleArrow) {
            let vref = self.eat(K::Amp);
            let v = self.parse_expr();
            (Some(first), v, vref)
        } else {
            (None, first, false)
        };
        by_ref = by_ref || by_ref2;
        self.expect(K::CloseParen, "`)`");
        let body = if self.at(K::Colon) {
            self.bump();
            let b = self.parse_stmts_until(&[K::EndForeach]);
            self.expect(K::EndForeach, "`endforeach`");
            self.end_stmt();
            b
        } else {
            self.parse_body(&[])
        };
        Stmt::Foreach {
            subject,
            key,
            value,
            by_ref,
            body,
            span,
        }
    }

    fn parse_switch(&mut self) -> Stmt {
        let span = self.span();
        self.bump();
        self.expect(K::OpenParen, "`(`");
        let subject = self.parse_expr();
        self.expect(K::CloseParen, "`)`");
        let alt = self.eat(K::Colon);
        if !alt {
            self.expect(K::OpenBrace, "`{`");
        }
        let mut cases = Vec::new();
        loop {
            match self.peek_kind() {
                Some(K::Case) => {
                    self.bump();
                    let value = self.parse_expr();
                    if !self.eat(K::Colon) {
                        self.eat(K::Semicolon);
                    }
                    let body =
                        self.parse_stmts_until(&[K::Case, K::Default, K::CloseBrace, K::EndSwitch]);
                    cases.push(SwitchCase {
                        value: Some(value),
                        body,
                    });
                }
                Some(K::Default) => {
                    self.bump();
                    if !self.eat(K::Colon) {
                        self.eat(K::Semicolon);
                    }
                    let body =
                        self.parse_stmts_until(&[K::Case, K::Default, K::CloseBrace, K::EndSwitch]);
                    cases.push(SwitchCase { value: None, body });
                }
                _ => break,
            }
        }
        if alt {
            self.expect(K::EndSwitch, "`endswitch`");
            self.end_stmt();
        } else {
            self.expect(K::CloseBrace, "`}`");
        }
        let cases = self.arena.alloc_cases(cases);
        Stmt::Switch {
            subject,
            cases,
            span,
        }
    }

    fn parse_try(&mut self) -> Stmt {
        let span = self.span();
        self.bump();
        self.expect(K::OpenBrace, "`{`");
        let body = self.parse_stmts_until(&[K::CloseBrace]);
        self.expect(K::CloseBrace, "`}`");
        let mut catches = Vec::new();
        while self.eat(K::Catch) {
            self.expect(K::OpenParen, "`(`");
            let class = match self.parse_name() {
                Some(n) => Symbol::intern(&n),
                None => {
                    self.error("expected exception class");
                    "Exception".into()
                }
            };
            let var = if self.at(K::Variable) {
                self.bump().expect("var").sym
            } else {
                self.error("expected catch variable");
                "$e".into()
            };
            self.expect(K::CloseParen, "`)`");
            self.expect(K::OpenBrace, "`{`");
            let cbody = self.parse_stmts_until(&[K::CloseBrace]);
            self.expect(K::CloseBrace, "`}`");
            catches.push(Catch {
                class,
                var,
                body: cbody,
            });
        }
        let finally = if self.eat(K::Finally) {
            self.expect(K::OpenBrace, "`{`");
            let f = self.parse_stmts_until(&[K::CloseBrace]);
            self.expect(K::CloseBrace, "`}`");
            Some(f)
        } else {
            None
        };
        let catches = self.arena.alloc_catches(catches);
        Stmt::Try {
            body,
            catches,
            finally,
            span,
        }
    }

    /// Parses a possibly-namespaced name (`Foo`, `\Foo\Bar`, `self`,
    /// `static`, `array` in type position).
    fn parse_name(&mut self) -> Option<String> {
        let mut name = String::new();
        if self.eat(K::Backslash) {
            name.push('\\');
        }
        match self.peek_kind() {
            Some(K::Identifier) => name.push_str(self.bump().expect("id").text),
            Some(K::Static) => {
                self.bump();
                name.push_str("static");
            }
            Some(K::Array) => {
                self.bump();
                name.push_str("array");
            }
            Some(K::Callable) => {
                self.bump();
                name.push_str("callable");
            }
            _ => return if name.is_empty() { None } else { Some(name) },
        }
        while self.at(K::Backslash) && matches!(self.peek_kind_at(1), Some(K::Identifier)) {
            self.bump();
            name.push('\\');
            name.push_str(self.bump().expect("id").text);
        }
        Some(name)
    }

    // ---- declarations ----

    fn parse_function_decl(&mut self) -> FunctionDecl {
        let span = self.span();
        self.bump(); // function
        let by_ref = self.eat(K::Amp);
        let name = if self.at(K::Identifier) {
            self.bump().expect("id").sym
        } else {
            self.error("expected function name");
            format!("__anon_{}", span.line).into()
        };
        let params = self.parse_params();
        let body = if self.eat(K::OpenBrace) {
            let b = self.parse_stmts_until(&[K::CloseBrace]);
            self.expect(K::CloseBrace, "`}`");
            b
        } else {
            self.end_stmt(); // abstract/interface method
            StmtRange::EMPTY
        };
        FunctionDecl {
            name,
            params,
            by_ref,
            body,
            span,
        }
    }

    fn parse_params(&mut self) -> ParamRange {
        let mut params = Vec::new();
        if !self.expect(K::OpenParen, "`(`") {
            return ParamRange::EMPTY;
        }
        if self.eat(K::CloseParen) {
            return ParamRange::EMPTY;
        }
        loop {
            let type_hint = if matches!(
                self.peek_kind(),
                Some(K::Identifier) | Some(K::Array) | Some(K::Callable) | Some(K::Backslash)
            ) {
                self.parse_name().map(|n| Symbol::intern(&n))
            } else {
                None
            };
            let by_ref = self.eat(K::Amp);
            let variadic = self.eat(K::Ellipsis);
            let name = if self.at(K::Variable) {
                self.bump().expect("var").sym
            } else {
                self.error("expected parameter variable");
                break;
            };
            let default = if self.eat(K::Assign) {
                Some(self.parse_expr())
            } else {
                None
            };
            params.push(Param {
                name,
                by_ref,
                default,
                type_hint,
                variadic,
            });
            if !self.eat(K::Comma) {
                break;
            }
        }
        self.expect(K::CloseParen, "`)`");
        self.arena.alloc_params(params)
    }

    fn parse_class_decl(&mut self) -> Stmt {
        let span = self.span();
        let mut is_abstract = false;
        let mut is_final = false;
        loop {
            match self.peek_kind() {
                Some(K::Abstract) => {
                    is_abstract = true;
                    self.bump();
                }
                Some(K::Final) => {
                    is_final = true;
                    self.bump();
                }
                _ => break,
            }
        }
        let kind = match self.peek_kind() {
            Some(K::Interface) => ClassKind::Interface,
            Some(K::Trait) => ClassKind::Trait,
            _ => ClassKind::Class,
        };
        self.bump(); // class/interface/trait
        let name = if self.at(K::Identifier) {
            self.bump().expect("id").sym
        } else {
            self.error("expected class name");
            format!("__anon_class_{}", span.line).into()
        };
        let mut parent = None;
        let mut interfaces = Vec::new();
        if self.eat(K::Extends) {
            parent = self.parse_name().map(Symbol::from);
            if parent.is_none() {
                self.error("expected parent class name after `extends`");
            }
            // interfaces may extend a list; keep only the first as parent.
            while self.eat(K::Comma) {
                if let Some(n) = self.parse_name() {
                    interfaces.push(Symbol::intern(&n));
                }
            }
        }
        if self.eat(K::Implements) {
            while let Some(n) = self.parse_name() {
                interfaces.push(Symbol::intern(&n));
                if !self.eat(K::Comma) {
                    break;
                }
            }
        }
        self.expect(K::OpenBrace, "`{`");
        let members = self.parse_class_members();
        self.expect(K::CloseBrace, "`}`");
        let interfaces = self.arena.alloc_syms(interfaces);
        Stmt::Class(ClassDecl {
            name,
            kind,
            parent,
            interfaces,
            is_abstract,
            is_final,
            members,
            span,
        })
    }

    fn parse_class_members(&mut self) -> MemberRange {
        let mut members = Vec::new();
        while !self.at(K::CloseBrace) && !self.is_eof() {
            let before = self.pos;
            let span = self.span();
            if self.eat(K::Use) {
                let mut traits = Vec::new();
                while let Some(n) = self.parse_name() {
                    traits.push(Symbol::intern(&n));
                    if !self.eat(K::Comma) {
                        break;
                    }
                }
                if self.eat(K::OpenBrace) {
                    // conflict-resolution block — skip
                    let mut depth = 1;
                    while depth > 0 && !self.is_eof() {
                        match self.peek_kind() {
                            Some(K::OpenBrace) => depth += 1,
                            Some(K::CloseBrace) => depth -= 1,
                            _ => {}
                        }
                        self.bump();
                    }
                } else {
                    self.end_stmt();
                }
                let traits = self.arena.alloc_syms(traits);
                members.push(ClassMember::UseTrait(traits, span));
                continue;
            }
            if self.eat(K::Const) {
                loop {
                    let name = if self.at(K::Identifier) {
                        self.bump().expect("id").sym
                    } else {
                        self.error("expected constant name");
                        break;
                    };
                    self.expect(K::Assign, "`=`");
                    let value = self.parse_expr();
                    members.push(ClassMember::Const { name, value, span });
                    if !self.eat(K::Comma) {
                        break;
                    }
                }
                self.end_stmt();
                continue;
            }
            // modifiers
            let mut mods = Modifiers::default();
            let mut saw_modifier = false;
            loop {
                match self.peek_kind() {
                    Some(K::Public) => {
                        mods.visibility = Visibility::Public;
                        saw_modifier = true;
                        self.bump();
                    }
                    Some(K::Protected) => {
                        mods.visibility = Visibility::Protected;
                        saw_modifier = true;
                        self.bump();
                    }
                    Some(K::Private) => {
                        mods.visibility = Visibility::Private;
                        saw_modifier = true;
                        self.bump();
                    }
                    Some(K::Static) => {
                        mods.is_static = true;
                        saw_modifier = true;
                        self.bump();
                    }
                    Some(K::Abstract) => {
                        mods.is_abstract = true;
                        saw_modifier = true;
                        self.bump();
                    }
                    Some(K::Final) => {
                        mods.is_final = true;
                        saw_modifier = true;
                        self.bump();
                    }
                    Some(K::Var) => {
                        saw_modifier = true;
                        self.bump();
                    }
                    _ => break,
                }
            }
            match self.peek_kind() {
                Some(K::Function) => {
                    let f = self.parse_function_decl();
                    members.push(ClassMember::Method(mods, f));
                }
                Some(K::Variable) => {
                    loop {
                        let name = self.bump().expect("var").sym;
                        let default = if self.eat(K::Assign) {
                            Some(self.parse_expr())
                        } else {
                            None
                        };
                        members.push(ClassMember::Property {
                            name,
                            default,
                            modifiers: mods,
                            span,
                        });
                        if !self.eat(K::Comma) {
                            break;
                        }
                        if !self.at(K::Variable) {
                            break;
                        }
                    }
                    self.end_stmt();
                }
                _ => {
                    if !saw_modifier {
                        self.error("unexpected token in class body");
                    } else {
                        self.error("expected property or method after modifiers");
                    }
                    if self.pos == before {
                        self.bump();
                    }
                }
            }
        }
        self.arena.alloc_members(members)
    }

    // ---- expressions (Pratt) ----

    fn parse_expr(&mut self) -> ExprId {
        self.parse_expr_bp(0)
    }

    fn parse_expr_bp(&mut self, min_bp: u8) -> ExprId {
        let mut lhs = self.parse_prefix();
        while let Some(k) = self.peek_kind() {
            // assignment (right associative, low precedence)
            if let Some(op) = assign_op(k) {
                const ASSIGN_LBP: u8 = 10;
                if ASSIGN_LBP < min_bp {
                    break;
                }
                let span = self.span();
                self.bump();
                let by_ref = op == AssignOp::Assign && self.eat(K::Amp);
                let value = self.parse_expr_bp(ASSIGN_LBP - 1);
                lhs = self.expr(Expr::Assign {
                    target: lhs,
                    op,
                    value,
                    by_ref,
                    span,
                });
                continue;
            }
            // ternary
            if k == K::Question {
                const TERNARY_LBP: u8 = 12;
                if TERNARY_LBP < min_bp {
                    break;
                }
                let span = self.span();
                self.bump();
                let then = if self.at(K::Colon) {
                    None
                } else {
                    Some(self.parse_expr_bp(0))
                };
                self.expect(K::Colon, "`:` in ternary");
                let otherwise = self.parse_expr_bp(TERNARY_LBP - 1);
                lhs = self.expr(Expr::Ternary {
                    cond: lhs,
                    then,
                    otherwise,
                    span,
                });
                continue;
            }
            // instanceof
            if k == K::Instanceof {
                const INSTANCEOF_LBP: u8 = 38;
                if INSTANCEOF_LBP < min_bp {
                    break;
                }
                let span = self.span();
                self.bump();
                let class = match self.parse_name() {
                    Some(n) => Symbol::intern(&n),
                    // dynamic instanceof target
                    None if self.at(K::Variable) => self.bump().expect("var").sym,
                    None => {
                        self.error("expected class after instanceof");
                        "?".into()
                    }
                };
                lhs = self.expr(Expr::Instanceof(lhs, class, span));
                continue;
            }
            // binary operators
            if let Some((op, lbp, rbp)) = binary_op(k) {
                if lbp < min_bp {
                    break;
                }
                let span = self.span();
                self.bump();
                let rhs = self.parse_expr_bp(rbp);
                lhs = self.expr(Expr::Binary { op, lhs, rhs, span });
                continue;
            }
            break;
        }
        lhs
    }

    /// Every expression recursion passes through here, so this is where
    /// nesting is bounded (see [`MAX_NESTING`]).
    fn parse_prefix(&mut self) -> ExprId {
        if self.depth == MAX_NESTING {
            self.error("expression nested too deeply");
            return self.expr(Expr::Error(self.span()));
        }
        self.depth += 1;
        let e = self.parse_prefix_inner();
        self.depth -= 1;
        e
    }

    fn parse_prefix_inner(&mut self) -> ExprId {
        let span = self.span();
        let Some(k) = self.peek_kind() else {
            self.error("unexpected end of input in expression");
            return self.expr(Expr::Error(span));
        };
        let e = match k {
            K::Variable => {
                let t = self.bump().expect("var");
                Expr::Var(t.sym, Span::at(t.line))
            }
            K::Dollar => {
                self.bump();
                if self.eat(K::OpenBrace) {
                    let inner = self.parse_expr();
                    self.expect(K::CloseBrace, "`}`");
                    Expr::VarVar(inner, span)
                } else {
                    let inner = self.parse_prefix();
                    Expr::VarVar(inner, span)
                }
            }
            K::LNumber => {
                let t = self.bump().expect("num");
                Expr::Lit(Lit::Int(t.text.into()), Span::at(t.line))
            }
            K::DNumber => {
                let t = self.bump().expect("num");
                Expr::Lit(Lit::Float(t.text.into()), Span::at(t.line))
            }
            K::ConstantEncapsedString => {
                let t = self.bump().expect("str");
                Expr::Lit(Lit::Str(strip_quotes(t.text).into()), Span::at(t.line))
            }
            K::DoubleQuote => {
                self.bump();
                let parts = self.parse_interp_parts(K::DoubleQuote);
                Expr::Interp(parts, span)
            }
            K::StartHeredoc => {
                self.bump();
                let parts = self.parse_interp_parts(K::EndHeredoc);
                Expr::Interp(parts, span)
            }
            K::Backtick => {
                self.bump();
                let parts = self.parse_interp_parts(K::Backtick);
                Expr::ShellExec(parts, span)
            }
            K::Identifier => {
                let e = self.parse_identifier_expr();
                return self.parse_postfix(e);
            }
            K::Static if self.peek_kind_at(1) == Some(K::DoubleColon) => {
                let e = self.parse_identifier_expr();
                return self.parse_postfix(e);
            }
            K::Array => {
                self.bump();
                self.expect(K::OpenParen, "`(` after array");
                let items = self.parse_array_items(K::CloseParen);
                self.expect(K::CloseParen, "`)`");
                Expr::ArrayLit(items, span)
            }
            K::OpenBracket => {
                self.bump();
                let items = self.parse_array_items(K::CloseBracket);
                self.expect(K::CloseBracket, "`]`");
                Expr::ArrayLit(items, span)
            }
            K::List => {
                self.bump();
                self.expect(K::OpenParen, "`(`");
                let mut items = Vec::new();
                loop {
                    if self.at(K::CloseParen) {
                        break;
                    }
                    if self.at(K::Comma) {
                        items.push(None);
                    } else {
                        items.push(Some(self.parse_expr()));
                    }
                    if !self.eat(K::Comma) {
                        break;
                    }
                }
                self.expect(K::CloseParen, "`)`");
                let items = self.arena.alloc_opt_exprs(items);
                Expr::ListIntrinsic(items, span)
            }
            K::Isset => {
                self.bump();
                self.expect(K::OpenParen, "`(`");
                let exprs = self.parse_expr_list(K::CloseParen);
                self.expect(K::CloseParen, "`)`");
                Expr::Isset(exprs, span)
            }
            K::Empty => {
                self.bump();
                self.expect(K::OpenParen, "`(`");
                let e = self.parse_expr();
                self.expect(K::CloseParen, "`)`");
                Expr::Empty(e, span)
            }
            K::Exit => {
                self.bump();
                let arg = if self.eat(K::OpenParen) {
                    let a = if self.at(K::CloseParen) {
                        None
                    } else {
                        Some(self.parse_expr())
                    };
                    self.expect(K::CloseParen, "`)`");
                    a
                } else {
                    None
                };
                Expr::Exit(arg, span)
            }
            K::Include | K::IncludeOnce | K::Require | K::RequireOnce => {
                let kind = match k {
                    K::Include => IncludeKind::Include,
                    K::IncludeOnce => IncludeKind::IncludeOnce,
                    K::Require => IncludeKind::Require,
                    _ => IncludeKind::RequireOnce,
                };
                self.bump();
                let e = self.parse_expr_bp(9);
                Expr::Include(kind, e, span)
            }
            K::Print => {
                self.bump();
                let e = self.parse_expr_bp(9);
                Expr::Print(e, span)
            }
            K::New => {
                self.bump();
                let class = if self.at(K::Variable) {
                    let t = self.bump().expect("var");
                    let v = self.expr(Expr::Var(t.sym, Span::at(t.line)));
                    Member::Dynamic(v)
                } else {
                    match self.parse_name() {
                        Some(n) => Member::Name(n.into()),
                        None => {
                            self.error("expected class name after new");
                            Member::Name("?".into())
                        }
                    }
                };
                let args = if self.eat(K::OpenParen) {
                    let a = self.parse_args();
                    self.expect(K::CloseParen, "`)`");
                    a
                } else {
                    ArgRange::EMPTY
                };
                Expr::New { class, args, span }
            }
            K::Clone => {
                self.bump();
                let e = self.parse_expr_bp(37);
                Expr::Clone(e, span)
            }
            K::Function => {
                self.bump();
                let _by_ref = self.eat(K::Amp);
                let params = self.parse_params();
                let mut uses = Vec::new();
                if self.eat(K::Use) {
                    self.expect(K::OpenParen, "`(`");
                    loop {
                        let by_ref = self.eat(K::Amp);
                        if self.at(K::Variable) {
                            uses.push((self.bump().expect("var").sym, by_ref));
                        } else {
                            break;
                        }
                        if !self.eat(K::Comma) {
                            break;
                        }
                    }
                    self.expect(K::CloseParen, "`)`");
                }
                self.expect(K::OpenBrace, "`{`");
                let body = self.parse_stmts_until(&[K::CloseBrace]);
                self.expect(K::CloseBrace, "`}`");
                let uses = self.arena.alloc_uses(uses);
                Expr::Closure {
                    params,
                    uses,
                    body,
                    span,
                }
            }
            K::OpenParen => {
                self.bump();
                let e = self.parse_expr();
                self.expect(K::CloseParen, "`)`");
                return self.parse_postfix(e);
            }
            K::Bang | K::Minus | K::Plus | K::Tilde => {
                let (op, bp) = match k {
                    K::Bang => (UnOp::Not, 33),
                    K::Minus => (UnOp::Neg, 37),
                    K::Plus => (UnOp::Plus, 37),
                    _ => (UnOp::BitNot, 37),
                };
                self.bump();
                let expr = self.parse_expr_bp(bp);
                Expr::Unary { op, expr, span }
            }
            K::At => {
                self.bump();
                let e = self.parse_expr_bp(37);
                Expr::ErrorSuppress(e, span)
            }
            K::Amp => {
                self.bump();
                let e = self.parse_expr_bp(37);
                Expr::Ref(e, span)
            }
            K::Inc | K::Dec => {
                let increment = k == K::Inc;
                self.bump();
                let e = self.parse_expr_bp(41);
                Expr::IncDec {
                    prefix: true,
                    increment,
                    expr: e,
                    span,
                }
            }
            _ if k.is_cast() => {
                let t = self.bump().expect("cast");
                let kind = match t.kind {
                    K::IntCast => CastKind::Int,
                    K::DoubleCast => CastKind::Float,
                    K::StringCast => CastKind::String,
                    K::ArrayCast => CastKind::Array,
                    K::ObjectCast => CastKind::Object,
                    K::BoolCast => CastKind::Bool,
                    _ => CastKind::Unset,
                };
                let e = self.parse_expr_bp(37);
                Expr::Cast(kind, e, span)
            }
            K::LineC | K::FileC | K::ClassC | K::FuncC | K::MethodC | K::NsC => {
                let t = self.bump().expect("magic");
                Expr::ConstFetch(t.symbol(), span)
            }
            K::Backslash => {
                // leading-backslash global name
                match self.parse_name() {
                    Some(_n) => {
                        let e = self.parse_identifier_continuation(span);
                        return self.parse_postfix(e);
                    }
                    None => {
                        self.bump();
                        Expr::Error(span)
                    }
                }
            }
            _ => {
                self.error(format!("unexpected token {} in expression", k.php_name()));
                // Leave statement/group terminators for the caller so
                // recovery can resynchronize on them.
                if !matches!(
                    k,
                    K::Semicolon
                        | K::CloseParen
                        | K::CloseBrace
                        | K::CloseBracket
                        | K::Comma
                        | K::CloseTag
                ) {
                    self.bump();
                }
                return self.expr(Expr::Error(span));
            }
        };
        let e = self.expr(e);
        self.parse_postfix(e)
    }

    /// Parses identifier-led expressions: calls, static access, constants.
    fn parse_identifier_expr(&mut self) -> ExprId {
        let span = self.span();
        // Fast path: a plain identifier reuses the symbol the lexer already
        // interned; only namespaced / keyword-led names re-intern.
        let name = match self.peek_kind() {
            Some(K::Identifier) if !matches!(self.peek_kind_at(1), Some(K::Backslash)) => {
                self.bump().expect("id").sym
            }
            _ => match self.parse_name() {
                Some(n) => Symbol::intern(&n),
                None => "?".into(),
            },
        };
        // Boolean / null literals
        if name.as_str().eq_ignore_ascii_case("true") {
            return self.expr(Expr::Lit(Lit::Bool(true), span));
        }
        if name.as_str().eq_ignore_ascii_case("false") {
            return self.expr(Expr::Lit(Lit::Bool(false), span));
        }
        if name.as_str().eq_ignore_ascii_case("null") {
            return self.expr(Expr::Lit(Lit::Null, span));
        }
        self.parse_identifier_continuation_named(name, span)
    }

    fn parse_identifier_continuation(&mut self, span: Span) -> ExprId {
        // used after consuming a namespaced name we discarded; treat as
        // ConstFetch of unknown.
        self.parse_identifier_continuation_named("?".into(), span)
    }

    fn parse_identifier_continuation_named(&mut self, name: Symbol, span: Span) -> ExprId {
        let e = if self.at(K::DoubleColon) {
            self.bump();
            match self.peek_kind() {
                Some(K::Variable) => {
                    let t = self.bump().expect("var");
                    Expr::StaticProp(name, t.sym, Span::at(t.line))
                }
                Some(K::Identifier) | Some(K::Class) => {
                    let m = self.bump().expect("id");
                    if self.at(K::OpenParen) {
                        self.bump();
                        let args = self.parse_args();
                        self.expect(K::CloseParen, "`)`");
                        Expr::Call {
                            callee: Callee::StaticMethod {
                                class: name,
                                name: Member::Name(m.symbol()),
                            },
                            args,
                            span,
                        }
                    } else {
                        Expr::ClassConst(name, m.symbol(), span)
                    }
                }
                Some(K::Dollar) | Some(K::OpenBrace) => {
                    // Cls::$$x / Cls::{expr} — dynamic; parse and wrap.
                    let inner = self.parse_prefix();
                    Expr::Call {
                        callee: Callee::StaticMethod {
                            class: name,
                            name: Member::Dynamic(inner),
                        },
                        args: ArgRange::EMPTY,
                        span,
                    }
                }
                _ => {
                    self.error("expected member after `::`");
                    Expr::Error(span)
                }
            }
        } else if self.at(K::OpenParen) {
            self.bump();
            let args = self.parse_args();
            self.expect(K::CloseParen, "`)`");
            Expr::Call {
                callee: Callee::Function(name),
                args,
                span,
            }
        } else {
            Expr::ConstFetch(name, span)
        };
        self.expr(e)
    }

    fn parse_args(&mut self) -> ArgRange {
        let mut args = Vec::new();
        if self.at(K::CloseParen) {
            return ArgRange::EMPTY;
        }
        loop {
            let by_ref = self.eat(K::Amp);
            let value = self.parse_expr();
            args.push(Arg { value, by_ref });
            if !self.eat(K::Comma) {
                break;
            }
        }
        self.arena.alloc_args(args)
    }

    fn parse_array_items(&mut self, stop: K) -> ItemRange {
        let mut items = Vec::new();
        while !self.at(stop) && !self.is_eof() {
            let first = self.parse_expr();
            if self.eat(K::DoubleArrow) {
                let by_ref = self.eat(K::Amp);
                let mut v = self.parse_expr();
                if by_ref {
                    let s = self.arena.expr(v).span();
                    v = self.expr(Expr::Ref(v, s));
                }
                items.push((Some(first), v));
            } else {
                items.push((None, first));
            }
            if !self.eat(K::Comma) {
                break;
            }
        }
        self.arena.alloc_items(items)
    }

    fn parse_postfix(&mut self, mut e: ExprId) -> ExprId {
        loop {
            match self.peek_kind() {
                Some(K::OpenBracket) => {
                    let span = self.span();
                    self.bump();
                    if self.eat(K::CloseBracket) {
                        e = self.expr(Expr::Index(e, None, span));
                    } else {
                        let idx = self.parse_expr();
                        self.expect(K::CloseBracket, "`]`");
                        e = self.expr(Expr::Index(e, Some(idx), span));
                    }
                }
                Some(K::ObjectOperator) => {
                    let span = self.span();
                    self.bump();
                    let member = match self.peek_kind() {
                        Some(K::Identifier) => Member::Name(self.bump().expect("id").sym),
                        // Keywords are valid member names in PHP (`$q->list`).
                        Some(kk)
                            if php_lexer::keyword_kind(
                                self.peek().map(|t| t.text).unwrap_or(""),
                            ) == Some(kk) =>
                        {
                            Member::Name(self.bump().expect("kw").symbol())
                        }
                        Some(K::Variable) => {
                            let t = self.bump().expect("var");
                            let v = self.expr(Expr::Var(t.sym, Span::at(t.line)));
                            Member::Dynamic(v)
                        }
                        Some(K::OpenBrace) => {
                            self.bump();
                            let inner = self.parse_expr();
                            self.expect(K::CloseBrace, "`}`");
                            Member::Dynamic(inner)
                        }
                        _ => {
                            self.error("expected member name after `->`");
                            Member::Name("?".into())
                        }
                    };
                    if self.at(K::OpenParen) {
                        self.bump();
                        let args = self.parse_args();
                        self.expect(K::CloseParen, "`)`");
                        e = self.expr(Expr::Call {
                            callee: Callee::Method {
                                base: e,
                                name: member,
                            },
                            args,
                            span,
                        });
                    } else {
                        e = self.expr(Expr::Prop(e, member, span));
                    }
                }
                Some(K::OpenParen) => {
                    // Dynamic call on an arbitrary expression: `$f()`,
                    // `$obj->cb()` handled above; here `$arr['k']()` etc.
                    match self.arena.expr(e) {
                        Expr::Var(..)
                        | Expr::Index(..)
                        | Expr::Prop(..)
                        | Expr::StaticProp(..)
                        | Expr::Closure { .. } => {
                            let span = self.span();
                            self.bump();
                            let args = self.parse_args();
                            self.expect(K::CloseParen, "`)`");
                            e = self.expr(Expr::Call {
                                callee: Callee::Dynamic(e),
                                args,
                                span,
                            });
                        }
                        _ => break,
                    }
                }
                Some(K::Inc) | Some(K::Dec) => {
                    // Postfix inc/dec only applies to lvalue-ish expressions.
                    match self.arena.expr(e) {
                        Expr::Var(..) | Expr::Index(..) | Expr::Prop(..) | Expr::StaticProp(..) => {
                            let span = self.span();
                            let increment = self.peek_kind() == Some(K::Inc);
                            self.bump();
                            e = self.expr(Expr::IncDec {
                                prefix: false,
                                increment,
                                expr: e,
                                span,
                            });
                        }
                        _ => break,
                    }
                }
                _ => break,
            }
        }
        e
    }

    /// Parses interpolation parts until the given end token kind.
    fn parse_interp_parts(&mut self, end: K) -> InterpRange {
        let mut parts = Vec::new();
        loop {
            match self.peek_kind() {
                None => break,
                Some(k) if k == end => {
                    self.bump();
                    break;
                }
                Some(K::EncapsedAndWhitespace) => {
                    let t = self.bump().expect("encapsed");
                    parts.push(InterpPart::Lit(t.text.into()));
                }
                Some(K::Variable) => {
                    let t = self.bump().expect("var");
                    let mut e = self.expr(Expr::Var(t.sym, Span::at(t.line)));
                    // simple-syntax suffix emitted by the lexer
                    if self.at(K::ObjectOperator) {
                        let span = self.span();
                        self.bump();
                        if self.at(K::Identifier) {
                            let m = self.bump().expect("id");
                            e = self.expr(Expr::Prop(e, Member::Name(m.sym), span));
                        }
                    } else if self.at(K::OpenBracket) {
                        let span = self.span();
                        self.bump();
                        let idx = match self.peek_kind() {
                            Some(K::Variable) => {
                                let it = self.bump().expect("var");
                                Some(self.expr(Expr::Var(it.sym, Span::at(it.line))))
                            }
                            Some(K::LNumber) => {
                                let it = self.bump().expect("num");
                                Some(self.expr(Expr::Lit(Lit::Int(it.text.into()), span)))
                            }
                            Some(K::Identifier) => {
                                let it = self.bump().expect("id");
                                // The lexer may have captured quotes in a
                                // sloppy `$a['k']` simple-syntax index.
                                let lit = Expr::Lit(Lit::Str(strip_quotes(it.text).into()), span);
                                Some(self.expr(lit))
                            }
                            _ => None,
                        };
                        self.eat(K::CloseBracket);
                        e = self.expr(Expr::Index(e, idx, span));
                    }
                    parts.push(InterpPart::Expr(e));
                }
                Some(K::CurlyOpen) => {
                    self.bump();
                    let e = self.parse_expr();
                    self.eat(K::CloseBrace);
                    parts.push(InterpPart::Expr(e));
                }
                Some(K::DollarOpenCurlyBraces) => {
                    self.bump();
                    let span = self.span();
                    let e = if self.at(K::Identifier) {
                        let t = self.bump().expect("id");
                        self.expr(Expr::Var(format!("${}", t.text).into(), Span::at(t.line)))
                    } else {
                        self.parse_expr()
                    };
                    self.eat(K::CloseBrace);
                    let vv = self.expr(Expr::VarVar(e, span));
                    parts.push(InterpPart::Expr(vv));
                }
                Some(_) => {
                    // Unexpected token inside interpolation — take it as text.
                    let t = self.bump().expect("tok");
                    parts.push(InterpPart::Lit(t.text.into()));
                }
            }
        }
        self.arena.alloc_interp(parts)
    }
}

/// Maps a token to an assignment operator.
fn assign_op(k: K) -> Option<AssignOp> {
    Some(match k {
        K::Assign => AssignOp::Assign,
        K::PlusEqual => AssignOp::AddAssign,
        K::MinusEqual => AssignOp::SubAssign,
        K::MulEqual => AssignOp::MulAssign,
        K::DivEqual => AssignOp::DivAssign,
        K::ModEqual => AssignOp::ModAssign,
        K::ConcatEqual => AssignOp::ConcatAssign,
        K::AndEqual => AssignOp::BitAndAssign,
        K::OrEqual => AssignOp::BitOrAssign,
        K::XorEqual => AssignOp::BitXorAssign,
        K::SlEqual => AssignOp::ShlAssign,
        K::SrEqual => AssignOp::ShrAssign,
        _ => return None,
    })
}

/// Maps a token to a binary operator with (left, right) binding powers,
/// following PHP's precedence table.
fn binary_op(k: K) -> Option<(BinOp, u8, u8)> {
    Some(match k {
        K::LogicalOr => (BinOp::Or, 1, 2),
        K::LogicalXor => (BinOp::Xor, 3, 4),
        K::LogicalAnd => (BinOp::And, 5, 6),
        K::BooleanOr => (BinOp::Or, 13, 14),
        K::BooleanAnd => (BinOp::And, 15, 16),
        K::Pipe => (BinOp::BitOr, 17, 18),
        K::Caret => (BinOp::BitXor, 19, 20),
        K::Amp => (BinOp::BitAnd, 21, 22),
        K::Equal => (BinOp::Eq, 23, 24),
        K::NotEqual => (BinOp::NotEq, 23, 24),
        K::Identical => (BinOp::Identical, 23, 24),
        K::NotIdentical => (BinOp::NotIdentical, 23, 24),
        K::Lt => (BinOp::Lt, 25, 26),
        K::Gt => (BinOp::Gt, 25, 26),
        K::SmallerOrEqual => (BinOp::Le, 25, 26),
        K::GreaterOrEqual => (BinOp::Ge, 25, 26),
        K::Sl => (BinOp::Shl, 27, 28),
        K::Sr => (BinOp::Shr, 27, 28),
        K::Plus => (BinOp::Add, 29, 30),
        K::Minus => (BinOp::Sub, 29, 30),
        K::Dot => (BinOp::Concat, 29, 30),
        K::Star => (BinOp::Mul, 31, 32),
        K::Slash => (BinOp::Div, 31, 32),
        K::Percent => (BinOp::Mod, 31, 32),
        K::Pow => (BinOp::Pow, 40, 39),
        _ => return None,
    })
}

/// Strips the outer quotes from a `T_CONSTANT_ENCAPSED_STRING` text and
/// resolves escape sequences to the string's runtime value.
fn strip_quotes(s: &str) -> String {
    let bytes = s.as_bytes();
    let (quote, inner) = if bytes.len() >= 2
        && (bytes[0] == b'\'' || bytes[0] == b'"')
        && bytes[bytes.len() - 1] == bytes[0]
    {
        (bytes[0], &s[1..s.len() - 1])
    } else if !bytes.is_empty() && (bytes[0] == b'\'' || bytes[0] == b'"') {
        // Unclosed string (error tolerance): drop the opening quote.
        (bytes[0], &s[1..])
    } else {
        return s.to_string();
    };
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            None => out.push('\\'),
            Some(e) => {
                if quote == b'\'' {
                    // Single-quoted: only \' and \\ are escapes.
                    match e {
                        '\'' | '\\' => out.push(e),
                        other => {
                            out.push('\\');
                            out.push(other);
                        }
                    }
                } else {
                    match e {
                        'n' => out.push('\n'),
                        't' => out.push('\t'),
                        'r' => out.push('\r'),
                        'v' => out.push('\u{0B}'),
                        'f' => out.push('\u{0C}'),
                        '0' => out.push('\0'),
                        '"' | '\\' | '$' => out.push(e),
                        other => {
                            out.push('\\');
                            out.push(other);
                        }
                    }
                }
            }
        }
    }
    out
}
