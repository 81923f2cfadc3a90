//! ZAST v2: the alignment-padded, relocation-free on-disk AST layout used
//! by the warm cache path.
//!
//! ZAST stores the flat [`Arena`] pools as fixed-width little-endian `u32`
//! records behind a validated header and a relocation-free string table
//! (an `(offset, len)` index into one UTF-8 blob). [`encode_file`] writes
//! it; [`decode`] is the only reader.
//!
//! [`decode`] reads a payload once. It checks the header counts against
//! the exact payload length, every string against the blob (interning
//! each one once), and then reads each pool through checked record
//! readers into a vector sized from the header: every node handle, range
//! and tag is checked against the pool counts as the record is built.
//! Garbage input yields a [`CodecError`], never a panic or an
//! out-of-range pool handle.
//!
//! Layout (all multi-byte values little-endian `u32` words):
//!
//! ```text
//! magic "ZAST" | version=2 | 24 header words          (104 B, 8-aligned)
//! string index: count x (offset, len) into the blob   (8 B per entry)
//! string blob: UTF-8 bytes                            (pad to 8)
//! 17 pool sections, fixed-width records, each 8-aligned
//! error records: (message string, line)               (8 B per entry)
//! ```
//!
//! The header words are the 17 pool counts in [`Arena`] field order, then
//! string count, blob byte length, `top` range start/len, error count,
//! slice-range count, and one reserved word. The total payload length is
//! fully determined by the header, and validation checks it exactly —
//! a truncated or padded file fails before any record is read.
//!
//! Node records pack their enum tag and small operands into word 0
//! (`tag | aux1<<8 | aux2<<16 | aux3<<24`) with payload handles in the
//! following words and the source line in the last word. `u32::MAX` is
//! the `None` sentinel for optional handles.

use crate::ast::*;
use crate::codec::CodecError;
use phpsafe_intern::{FnvHashMap, Symbol};

/// Magic prefix of a ZAST payload.
pub const MAGIC: &[u8; 4] = b"ZAST";
/// Layout version (v1 was a retired streaming codec).
pub const VERSION: u32 = 2;

const HEADER_WORDS: usize = 24;
const HEADER_BYTES: usize = 8 + HEADER_WORDS * 4; // 104, a multiple of 8
const NONE: u32 = u32::MAX;
const N_POOLS: usize = 17;

/// Words per record for each pool, in [`Arena`] field order: exprs, stmts,
/// expr_ids, stmt_ids, args, params, interp_parts, array_items, opt_exprs,
/// elseifs, cases, catches, syms, static_vars, closure_uses, consts,
/// members.
const POOL_WORDS: [usize; N_POOLS] = [8, 10, 1, 1, 2, 4, 2, 2, 1, 3, 3, 4, 1, 2, 2, 2, 8];

const P_EXPRS: usize = 0;
const P_STMTS: usize = 1;
const P_EXPR_IDS: usize = 2;
const P_STMT_IDS: usize = 3;
const P_ARGS: usize = 4;
const P_PARAMS: usize = 5;
const P_INTERP: usize = 6;
const P_ITEMS: usize = 7;
const P_OPT_EXPRS: usize = 8;
const P_ELSEIFS: usize = 9;
const P_CASES: usize = 10;
const P_CATCHES: usize = 11;
const P_SYMS: usize = 12;
const P_STATIC_VARS: usize = 13;
const P_USES: usize = 14;
const P_CONSTS: usize = 15;
const P_MEMBERS: usize = 16;

type Result<T> = std::result::Result<T, CodecError>;

fn align8(n: usize) -> usize {
    (n + 7) & !7
}

fn meta(tag: u8, a1: u8, a2: u8, a3: u8) -> u32 {
    tag as u32 | (a1 as u32) << 8 | (a2 as u32) << 16 | (a3 as u32) << 24
}

fn opt(e: Option<ExprId>) -> u32 {
    e.map(ExprId::raw).unwrap_or(NONE)
}

// ----------------------------------------------------------------- encoder

/// Deduplicating string table builder: symbols (and error messages) are
/// assigned dense indices in first-use order, so encoding is deterministic
/// for a given [`ParsedFile`] regardless of global interner state.
#[derive(Default)]
struct StrTab {
    syms: Vec<Symbol>,
    index: FnvHashMap<Symbol, u32>,
}

impl StrTab {
    fn get(&mut self, s: Symbol) -> u32 {
        if let Some(&i) = self.index.get(&s) {
            return i;
        }
        let i = self.syms.len() as u32;
        self.syms.push(s);
        self.index.insert(s, i);
        i
    }
}

/// Per-pool word buffers accumulated before assembly.
#[derive(Default)]
struct Enc {
    t: StrTab,
    pools: [Vec<u32>; N_POOLS],
    errors: Vec<u32>,
}

impl Enc {
    fn member_parts(&mut self, m: &Member) -> (u8, u32) {
        match m {
            Member::Name(n) => (0, self.t.get(*n)),
            Member::Dynamic(e) => (1, e.raw()),
        }
    }

    fn expr(&mut self, e: &Expr) {
        let mut w = [0u32; 8];
        w[7] = e.span().line;
        match *e {
            Expr::Var(n, _) => {
                w[0] = meta(0, 0, 0, 0);
                w[1] = self.t.get(n);
            }
            Expr::VarVar(e, _) => {
                w[0] = meta(1, 0, 0, 0);
                w[1] = e.raw();
            }
            Expr::Lit(lit, _) => {
                let (kind, payload) = match lit {
                    Lit::Int(s) => (0, self.t.get(s)),
                    Lit::Float(s) => (1, self.t.get(s)),
                    Lit::Str(s) => (2, self.t.get(s)),
                    Lit::Bool(b) => (3, b as u32),
                    Lit::Null => (4, 0),
                };
                w[0] = meta(2, kind, 0, 0);
                w[1] = payload;
            }
            Expr::Interp(r, _) => {
                w[0] = meta(3, 0, 0, 0);
                (w[1], w[2]) = r.raw_parts();
            }
            Expr::ConstFetch(n, _) => {
                w[0] = meta(4, 0, 0, 0);
                w[1] = self.t.get(n);
            }
            Expr::ClassConst(c, k, _) => {
                w[0] = meta(5, 0, 0, 0);
                w[1] = self.t.get(c);
                w[2] = self.t.get(k);
            }
            Expr::ArrayLit(r, _) => {
                w[0] = meta(6, 0, 0, 0);
                (w[1], w[2]) = r.raw_parts();
            }
            Expr::Index(b, i, _) => {
                w[0] = meta(7, 0, 0, 0);
                w[1] = b.raw();
                w[2] = opt(i);
            }
            Expr::Prop(b, m, _) => {
                let (kind, payload) = self.member_parts(&m);
                w[0] = meta(8, kind, 0, 0);
                w[1] = b.raw();
                w[2] = payload;
            }
            Expr::StaticProp(c, p, _) => {
                w[0] = meta(9, 0, 0, 0);
                w[1] = self.t.get(c);
                w[2] = self.t.get(p);
            }
            Expr::Assign {
                target,
                op,
                value,
                by_ref,
                ..
            } => {
                w[0] = meta(10, op as u8, by_ref as u8, 0);
                w[1] = target.raw();
                w[2] = value.raw();
            }
            Expr::Binary { op, lhs, rhs, .. } => {
                w[0] = meta(11, op as u8, 0, 0);
                w[1] = lhs.raw();
                w[2] = rhs.raw();
            }
            Expr::Unary { op, expr, .. } => {
                w[0] = meta(12, op as u8, 0, 0);
                w[1] = expr.raw();
            }
            Expr::IncDec {
                prefix,
                increment,
                expr,
                ..
            } => {
                w[0] = meta(13, prefix as u8, increment as u8, 0);
                w[1] = expr.raw();
            }
            Expr::Call { callee, args, .. } => {
                let (kind, mkind, w1, w2) = match callee {
                    Callee::Function(n) => (0, 0, self.t.get(n), 0),
                    Callee::Dynamic(e) => (1, 0, e.raw(), 0),
                    Callee::Method { base, name } => {
                        let (mk, mp) = self.member_parts(&name);
                        (2, mk, base.raw(), mp)
                    }
                    Callee::StaticMethod { class, name } => {
                        let (mk, mp) = self.member_parts(&name);
                        (3, mk, self.t.get(class), mp)
                    }
                };
                w[0] = meta(14, kind, mkind, 0);
                w[1] = w1;
                w[2] = w2;
                (w[3], w[4]) = args.raw_parts();
            }
            Expr::New { class, args, .. } => {
                let (mk, mp) = self.member_parts(&class);
                w[0] = meta(15, mk, 0, 0);
                w[1] = mp;
                (w[2], w[3]) = args.raw_parts();
            }
            Expr::Clone(e, _) => {
                w[0] = meta(16, 0, 0, 0);
                w[1] = e.raw();
            }
            Expr::Ternary {
                cond,
                then,
                otherwise,
                ..
            } => {
                w[0] = meta(17, 0, 0, 0);
                w[1] = cond.raw();
                w[2] = opt(then);
                w[3] = otherwise.raw();
            }
            Expr::Cast(kind, e, _) => {
                w[0] = meta(18, kind as u8, 0, 0);
                w[1] = e.raw();
            }
            Expr::Isset(r, _) => {
                w[0] = meta(19, 0, 0, 0);
                (w[1], w[2]) = r.raw_parts();
            }
            Expr::Empty(e, _) => {
                w[0] = meta(20, 0, 0, 0);
                w[1] = e.raw();
            }
            Expr::ErrorSuppress(e, _) => {
                w[0] = meta(21, 0, 0, 0);
                w[1] = e.raw();
            }
            Expr::Print(e, _) => {
                w[0] = meta(22, 0, 0, 0);
                w[1] = e.raw();
            }
            Expr::Exit(o, _) => {
                w[0] = meta(23, 0, 0, 0);
                w[1] = opt(o);
            }
            Expr::Include(kind, e, _) => {
                w[0] = meta(24, kind as u8, 0, 0);
                w[1] = e.raw();
            }
            Expr::Instanceof(e, n, _) => {
                w[0] = meta(25, 0, 0, 0);
                w[1] = e.raw();
                w[2] = self.t.get(n);
            }
            Expr::ListIntrinsic(r, _) => {
                w[0] = meta(26, 0, 0, 0);
                (w[1], w[2]) = r.raw_parts();
            }
            Expr::Closure {
                params, uses, body, ..
            } => {
                w[0] = meta(27, 0, 0, 0);
                (w[1], w[2]) = params.raw_parts();
                (w[3], w[4]) = uses.raw_parts();
                (w[5], w[6]) = body.raw_parts();
            }
            Expr::ShellExec(r, _) => {
                w[0] = meta(28, 0, 0, 0);
                (w[1], w[2]) = r.raw_parts();
            }
            Expr::Ref(e, _) => {
                w[0] = meta(29, 0, 0, 0);
                w[1] = e.raw();
            }
            Expr::Error(_) => {
                w[0] = meta(30, 0, 0, 0);
            }
        }
        self.pools[P_EXPRS].extend_from_slice(&w);
    }

    fn stmt(&mut self, s: &Stmt) {
        let mut w = [0u32; 10];
        w[9] = s.span().line;
        match *s {
            Stmt::Expr(e, _) => {
                w[0] = meta(0, 0, 0, 0);
                w[1] = e.raw();
            }
            Stmt::Echo(r, _) => {
                w[0] = meta(1, 0, 0, 0);
                (w[1], w[2]) = r.raw_parts();
            }
            Stmt::InlineHtml(h, _) => {
                w[0] = meta(2, 0, 0, 0);
                w[1] = self.t.get(h);
            }
            Stmt::If {
                cond,
                then,
                elseifs,
                otherwise,
                ..
            } => {
                w[0] = meta(3, otherwise.is_some() as u8, 0, 0);
                w[1] = cond.raw();
                (w[2], w[3]) = then.raw_parts();
                (w[4], w[5]) = elseifs.raw_parts();
                (w[6], w[7]) = otherwise.unwrap_or(StmtRange::EMPTY).raw_parts();
            }
            Stmt::While { cond, body, .. } => {
                w[0] = meta(4, 0, 0, 0);
                w[1] = cond.raw();
                (w[2], w[3]) = body.raw_parts();
            }
            Stmt::DoWhile { body, cond, .. } => {
                w[0] = meta(5, 0, 0, 0);
                (w[1], w[2]) = body.raw_parts();
                w[3] = cond.raw();
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                w[0] = meta(6, 0, 0, 0);
                (w[1], w[2]) = init.raw_parts();
                (w[3], w[4]) = cond.raw_parts();
                (w[5], w[6]) = step.raw_parts();
                (w[7], w[8]) = body.raw_parts();
            }
            Stmt::Foreach {
                subject,
                key,
                value,
                by_ref,
                body,
                ..
            } => {
                w[0] = meta(7, by_ref as u8, 0, 0);
                w[1] = subject.raw();
                w[2] = opt(key);
                w[3] = value.raw();
                (w[4], w[5]) = body.raw_parts();
            }
            Stmt::Switch { subject, cases, .. } => {
                w[0] = meta(8, 0, 0, 0);
                w[1] = subject.raw();
                (w[2], w[3]) = cases.raw_parts();
            }
            Stmt::Break(_) => w[0] = meta(9, 0, 0, 0),
            Stmt::Continue(_) => w[0] = meta(10, 0, 0, 0),
            Stmt::Return(o, _) => {
                w[0] = meta(11, 0, 0, 0);
                w[1] = opt(o);
            }
            Stmt::Global(r, _) => {
                w[0] = meta(12, 0, 0, 0);
                (w[1], w[2]) = r.raw_parts();
            }
            Stmt::StaticVars(r, _) => {
                w[0] = meta(13, 0, 0, 0);
                (w[1], w[2]) = r.raw_parts();
            }
            Stmt::Unset(r, _) => {
                w[0] = meta(14, 0, 0, 0);
                (w[1], w[2]) = r.raw_parts();
            }
            Stmt::Throw(e, _) => {
                w[0] = meta(15, 0, 0, 0);
                w[1] = e.raw();
            }
            Stmt::Try {
                body,
                catches,
                finally,
                ..
            } => {
                w[0] = meta(16, finally.is_some() as u8, 0, 0);
                (w[1], w[2]) = body.raw_parts();
                (w[3], w[4]) = catches.raw_parts();
                (w[5], w[6]) = finally.unwrap_or(StmtRange::EMPTY).raw_parts();
            }
            Stmt::Block(r, _) => {
                w[0] = meta(17, 0, 0, 0);
                (w[1], w[2]) = r.raw_parts();
            }
            Stmt::Function(f) => {
                w[0] = meta(18, f.by_ref as u8, 0, 0);
                w[1] = self.t.get(f.name);
                (w[2], w[3]) = f.params.raw_parts();
                (w[4], w[5]) = f.body.raw_parts();
            }
            Stmt::Class(c) => {
                let flags =
                    c.is_abstract as u8 | (c.is_final as u8) << 1 | (c.parent.is_some() as u8) << 2;
                w[0] = meta(19, c.kind as u8, flags, 0);
                w[1] = self.t.get(c.name);
                w[2] = c.parent.map(|p| self.t.get(p)).unwrap_or(0);
                (w[3], w[4]) = c.interfaces.raw_parts();
                (w[5], w[6]) = c.members.raw_parts();
            }
            Stmt::ConstDecl(r, _) => {
                w[0] = meta(20, 0, 0, 0);
                (w[1], w[2]) = r.raw_parts();
            }
            Stmt::Nop(_) => w[0] = meta(21, 0, 0, 0),
            Stmt::Error(_) => w[0] = meta(22, 0, 0, 0),
        }
        self.pools[P_STMTS].extend_from_slice(&w);
    }

    fn modifiers_byte(m: &Modifiers) -> u8 {
        let vis = match m.visibility {
            Visibility::Public => 0,
            Visibility::Protected => 1,
            Visibility::Private => 2,
        };
        vis | (m.is_static as u8) << 2 | (m.is_abstract as u8) << 3 | (m.is_final as u8) << 4
    }

    fn member(&mut self, m: &ClassMember) {
        let mut w = [0u32; 8];
        match *m {
            ClassMember::Property {
                name,
                default,
                modifiers,
                span,
            } => {
                w[0] = meta(0, Self::modifiers_byte(&modifiers), 0, 0);
                w[1] = self.t.get(name);
                w[2] = opt(default);
                w[7] = span.line;
            }
            ClassMember::Method(mods, f) => {
                w[0] = meta(1, Self::modifiers_byte(&mods), f.by_ref as u8, 0);
                w[1] = self.t.get(f.name);
                (w[2], w[3]) = f.params.raw_parts();
                (w[4], w[5]) = f.body.raw_parts();
                w[7] = f.span.line;
            }
            ClassMember::Const { name, value, span } => {
                w[0] = meta(2, 0, 0, 0);
                w[1] = self.t.get(name);
                w[2] = value.raw();
                w[7] = span.line;
            }
            ClassMember::UseTrait(r, span) => {
                w[0] = meta(3, 0, 0, 0);
                (w[1], w[2]) = r.raw_parts();
                w[7] = span.line;
            }
        }
        self.pools[P_MEMBERS].extend_from_slice(&w);
    }
}

/// Encodes `file` into the ZAST v2 layout. Deterministic: the string table
/// is built in first-use order, independent of global interner state.
pub fn encode_file(file: &ParsedFile) -> Vec<u8> {
    let a = &file.arena;
    let mut enc = Enc::default();

    for e in &a.exprs {
        enc.expr(e);
    }
    for s in &a.stmts {
        enc.stmt(s);
    }
    for id in &a.expr_ids {
        enc.pools[P_EXPR_IDS].push(id.raw());
    }
    for id in &a.stmt_ids {
        enc.pools[P_STMT_IDS].push(id.raw());
    }
    for arg in &a.args {
        enc.pools[P_ARGS].push(arg.value.raw());
        enc.pools[P_ARGS].push(arg.by_ref as u32);
    }
    for p in &a.params {
        let flags =
            p.by_ref as u32 | (p.variadic as u32) << 1 | (p.type_hint.is_some() as u32) << 2;
        let name = enc.t.get(p.name);
        let hint = p.type_hint.map(|h| enc.t.get(h)).unwrap_or(0);
        let pool = &mut enc.pools[P_PARAMS];
        pool.push(name);
        pool.push(flags);
        pool.push(opt(p.default));
        pool.push(hint);
    }
    for part in &a.interp_parts {
        let (kind, payload) = match part {
            InterpPart::Lit(s) => (0, enc.t.get(*s)),
            InterpPart::Expr(e) => (1, e.raw()),
        };
        enc.pools[P_INTERP].push(kind);
        enc.pools[P_INTERP].push(payload);
    }
    for (key, value) in &a.array_items {
        enc.pools[P_ITEMS].push(opt(*key));
        enc.pools[P_ITEMS].push(value.raw());
    }
    for o in &a.opt_exprs {
        enc.pools[P_OPT_EXPRS].push(opt(*o));
    }
    for (cond, body) in &a.elseifs {
        let (s, l) = body.raw_parts();
        enc.pools[P_ELSEIFS].push(cond.raw());
        enc.pools[P_ELSEIFS].push(s);
        enc.pools[P_ELSEIFS].push(l);
    }
    for c in &a.cases {
        let (s, l) = c.body.raw_parts();
        enc.pools[P_CASES].push(opt(c.value));
        enc.pools[P_CASES].push(s);
        enc.pools[P_CASES].push(l);
    }
    for c in &a.catches {
        let (s, l) = c.body.raw_parts();
        let class = enc.t.get(c.class);
        let var = enc.t.get(c.var);
        let pool = &mut enc.pools[P_CATCHES];
        pool.push(class);
        pool.push(var);
        pool.push(s);
        pool.push(l);
    }
    for s in &a.syms {
        let i = enc.t.get(*s);
        enc.pools[P_SYMS].push(i);
    }
    for (name, init) in &a.static_vars {
        let n = enc.t.get(*name);
        enc.pools[P_STATIC_VARS].push(n);
        enc.pools[P_STATIC_VARS].push(opt(*init));
    }
    for (name, by_ref) in &a.closure_uses {
        let n = enc.t.get(*name);
        enc.pools[P_USES].push(n);
        enc.pools[P_USES].push(*by_ref as u32);
    }
    for (name, value) in &a.consts {
        let n = enc.t.get(*name);
        enc.pools[P_CONSTS].push(n);
        enc.pools[P_CONSTS].push(value.raw());
    }
    for m in &a.members {
        enc.member(m);
    }
    for e in &file.errors {
        let msg = enc.t.get(Symbol::from(e.message.as_str()));
        enc.errors.push(msg);
        enc.errors.push(e.span.line);
    }

    // Assemble: header, string index, blob, pools, errors — each section
    // zero-padded to an 8-byte boundary.
    let mut blob = Vec::new();
    let mut index = Vec::with_capacity(enc.t.syms.len() * 2);
    for s in &enc.t.syms {
        let bytes = s.as_str().as_bytes();
        index.push(blob.len() as u32);
        index.push(bytes.len() as u32);
        blob.extend_from_slice(bytes);
    }

    let counts: Vec<u32> = (0..N_POOLS)
        .map(|p| (enc.pools[p].len() / POOL_WORDS[p]) as u32)
        .collect();
    let (top_start, top_len) = file.top.raw_parts();

    let mut out = Vec::with_capacity(
        HEADER_BYTES
            + index.len() * 4
            + align8(blob.len())
            + enc.pools.iter().map(|p| align8(p.len() * 4)).sum::<usize>()
            + enc.errors.len() * 4,
    );
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    let mut header = Vec::with_capacity(HEADER_WORDS);
    header.extend_from_slice(&counts);
    header.push(enc.t.syms.len() as u32);
    header.push(blob.len() as u32);
    header.push(top_start);
    header.push(top_len);
    header.push(file.errors.len() as u32);
    header.push(a.slices);
    header.push(0); // reserved
    debug_assert_eq!(header.len(), HEADER_WORDS);
    for wv in &header {
        out.extend_from_slice(&wv.to_le_bytes());
    }

    let pad = |out: &mut Vec<u8>| {
        while !out.len().is_multiple_of(8) {
            out.push(0);
        }
    };
    for wv in &index {
        out.extend_from_slice(&wv.to_le_bytes());
    }
    out.extend_from_slice(&blob);
    pad(&mut out);
    for pool in &enc.pools {
        for wv in pool {
            out.extend_from_slice(&wv.to_le_bytes());
        }
        pad(&mut out);
    }
    for wv in &enc.errors {
        out.extend_from_slice(&wv.to_le_bytes());
    }
    out
}

// ----------------------------------------------------------------- decoder

fn fail<T>(what: &'static str, at: usize) -> Result<T> {
    Err(CodecError { what, at })
}

fn dec_flag(v: u32, at: usize) -> Result<bool> {
    match v {
        0 => Ok(false),
        1 => Ok(true),
        _ => fail("bad boolean flag", at),
    }
}

macro_rules! dec_enum {
    ($name:ident, $ty:ident, $what:literal, [$($variant:ident),+ $(,)?]) => {
        fn $name(v: u8, at: usize) -> Result<$ty> {
            const ALL: &[$ty] = &[$($ty::$variant),+];
            ALL.get(v as usize)
                .copied()
                .ok_or(CodecError { what: $what, at })
        }
    };
}

dec_enum!(
    dec_binop,
    BinOp,
    "bad binary operator",
    [
        Add,
        Sub,
        Mul,
        Div,
        Mod,
        Pow,
        Concat,
        Eq,
        NotEq,
        Identical,
        NotIdentical,
        Lt,
        Gt,
        Le,
        Ge,
        And,
        Or,
        Xor,
        BitAnd,
        BitOr,
        BitXor,
        Shl,
        Shr,
    ]
);
dec_enum!(
    dec_unop,
    UnOp,
    "bad unary operator",
    [Not, Neg, Plus, BitNot]
);
dec_enum!(
    dec_assign_op,
    AssignOp,
    "bad assignment operator",
    [
        Assign,
        AddAssign,
        SubAssign,
        MulAssign,
        DivAssign,
        ModAssign,
        ConcatAssign,
        BitAndAssign,
        BitOrAssign,
        BitXorAssign,
        ShlAssign,
        ShrAssign,
    ]
);
dec_enum!(
    dec_cast,
    CastKind,
    "bad cast kind",
    [Int, Float, String, Array, Object, Bool, Unset]
);
dec_enum!(
    dec_include,
    IncludeKind,
    "bad include kind",
    [Include, IncludeOnce, Require, RequireOnce]
);
dec_enum!(
    dec_class_kind,
    ClassKind,
    "bad class kind",
    [Class, Interface, Trait]
);
dec_enum!(
    dec_visibility,
    Visibility,
    "bad visibility",
    [Public, Protected, Private]
);

/// A ZAST payload whose header, exact length, string table and top range
/// have been checked. The `read_*` methods check every record they read,
/// so [`decode`] validates and builds each pool in the same pass.
struct Decoder<'a> {
    bytes: &'a [u8],
    counts: [u32; N_POOLS],
    offsets: [usize; N_POOLS],
    err_off: usize,
    n_errors: u32,
    top: StmtRange,
    slices: u32,
    /// String table remapped to process-local symbols (one intern per
    /// distinct string per load, not per occurrence).
    syms: Vec<Symbol>,
}

/// Decodes a ZAST v2 payload into an owned [`ParsedFile`].
///
/// One pass checks everything: header counts against the exact payload
/// length, strings against the blob (bounds and UTF-8), and every
/// record's tag, handle, range and string index against the pool counts.
/// Each record is checked as it is read into its pool. Malformed input —
/// truncation, bit flips, hostile counts — yields `Err`, never a panic or
/// an out-of-range handle.
pub fn decode(bytes: &[u8]) -> Result<ParsedFile> {
    let d = Decoder::new(bytes)?;
    let arena = Arena {
        exprs: d.read_all(d.counts[P_EXPRS], Decoder::read_expr)?,
        stmts: d.read_all(d.counts[P_STMTS], Decoder::read_stmt)?,
        expr_ids: d.read_all(d.counts[P_EXPR_IDS], Decoder::read_expr_id)?,
        stmt_ids: d.read_all(d.counts[P_STMT_IDS], Decoder::read_stmt_id)?,
        args: d.read_all(d.counts[P_ARGS], Decoder::read_arg)?,
        params: d.read_all(d.counts[P_PARAMS], Decoder::read_param)?,
        interp_parts: d.read_all(d.counts[P_INTERP], Decoder::read_interp_part)?,
        array_items: d.read_all(d.counts[P_ITEMS], Decoder::read_array_item)?,
        opt_exprs: d.read_all(d.counts[P_OPT_EXPRS], Decoder::read_opt_expr)?,
        elseifs: d.read_all(d.counts[P_ELSEIFS], Decoder::read_elseif)?,
        cases: d.read_all(d.counts[P_CASES], Decoder::read_case)?,
        catches: d.read_all(d.counts[P_CATCHES], Decoder::read_catch)?,
        syms: d.read_all(d.counts[P_SYMS], Decoder::read_sym_entry)?,
        static_vars: d.read_all(d.counts[P_STATIC_VARS], Decoder::read_static_var)?,
        closure_uses: d.read_all(d.counts[P_USES], Decoder::read_closure_use)?,
        consts: d.read_all(d.counts[P_CONSTS], Decoder::read_const_item)?,
        members: d.read_all(d.counts[P_MEMBERS], Decoder::read_class_member)?,
        slices: d.slices,
    };
    Ok(ParsedFile {
        arena,
        top: d.top,
        errors: d.read_all(d.n_errors, Decoder::read_error)?,
    })
}

impl<'a> Decoder<'a> {
    /// Checks the header, the exact payload length, the string table
    /// (interning each string once) and the top range. Records are left
    /// for the `read_*` methods.
    fn new(bytes: &'a [u8]) -> Result<Decoder<'a>> {
        if bytes.len() < HEADER_BYTES {
            return fail("zast payload shorter than header", bytes.len());
        }
        if &bytes[..4] != MAGIC {
            return fail("bad zast magic", 0);
        }
        let word = |i: usize| {
            let b = &bytes[8 + i * 4..8 + i * 4 + 4];
            u32::from_le_bytes([b[0], b[1], b[2], b[3]])
        };
        if u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]) != VERSION {
            return fail("unsupported zast version", 4);
        }
        let mut counts = [0u32; N_POOLS];
        for (p, c) in counts.iter_mut().enumerate() {
            *c = word(p);
        }
        let n_strings = word(N_POOLS);
        let blob_len = word(N_POOLS + 1);
        let top_start = word(N_POOLS + 2);
        let top_len = word(N_POOLS + 3);
        let n_errors = word(N_POOLS + 4);
        let slices = word(N_POOLS + 5);

        // The header fully determines the payload length; check it exactly
        // (u64 arithmetic so hostile counts cannot overflow the math). This
        // also bounds every count, so pre-sizing a pool from its count
        // cannot over-allocate.
        let align8_64 = |n: u64| (n + 7) & !7;
        let mut off = HEADER_BYTES as u64;
        let sidx_off = off as usize;
        off += n_strings as u64 * 8;
        let blob_off = off;
        off = align8_64(off + blob_len as u64);
        let mut offsets = [0usize; N_POOLS];
        for p in 0..N_POOLS {
            if off > bytes.len() as u64 {
                return fail("zast section exceeds payload", bytes.len());
            }
            offsets[p] = off as usize;
            off = align8_64(off + counts[p] as u64 * POOL_WORDS[p] as u64 * 4);
        }
        if off > bytes.len() as u64 {
            return fail("zast section exceeds payload", bytes.len());
        }
        let err_off = off as usize;
        off += n_errors as u64 * 8;
        if off != bytes.len() as u64 {
            return fail("zast payload length mismatch", bytes.len());
        }

        // String table: bounds + UTF-8 check each entry, interning it once.
        let blob_off = blob_off as usize;
        let mut syms = Vec::with_capacity(n_strings as usize);
        for i in 0..n_strings as usize {
            let at = sidx_off + i * 8;
            let b = &bytes[at..at + 8];
            let s = u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as u64;
            let l = u32::from_le_bytes([b[4], b[5], b[6], b[7]]) as u64;
            if s + l > blob_len as u64 {
                return fail("string exceeds blob", at);
            }
            let text = &bytes[blob_off + s as usize..blob_off + (s + l) as usize];
            match std::str::from_utf8(text) {
                Ok(text) => syms.push(Symbol::from(text)),
                Err(_) => return fail("string is not UTF-8", at),
            }
        }

        if top_start as u64 + top_len as u64 > counts[P_STMT_IDS] as u64 {
            return fail("top range exceeds statement list pool", HEADER_BYTES);
        }
        Ok(Decoder {
            bytes,
            counts,
            offsets,
            err_off,
            n_errors,
            top: StmtRange::from_raw_parts(top_start, top_len),
            slices,
            syms,
        })
    }

    /// Reads records `0..n` through `read` into a vector sized up front.
    fn read_all<T>(&self, n: u32, read: impl Fn(&Self, u32) -> Result<T>) -> Result<Vec<T>> {
        let mut out = Vec::with_capacity(n as usize);
        for i in 0..n {
            out.push(read(self, i)?);
        }
        Ok(out)
    }

    // -- raw word access (in-bounds by the header length check whenever
    //    `i < counts[pool]`, which every caller below guarantees)

    fn rec_at(&self, pool: usize, i: u32) -> usize {
        self.offsets[pool] + i as usize * POOL_WORDS[pool] * 4
    }

    fn word_at(&self, byte: usize) -> u32 {
        let b = &self.bytes[byte..byte + 4];
        u32::from_le_bytes([b[0], b[1], b[2], b[3]])
    }

    fn w(&self, pool: usize, i: u32, word: usize) -> u32 {
        debug_assert!(i < self.counts[pool] && word < POOL_WORDS[pool]);
        self.word_at(self.rec_at(pool, i) + word * 4)
    }

    // -- checked handle / range / string constructors

    fn sym(&self, idx: u32, at: usize) -> Result<Symbol> {
        self.syms.get(idx as usize).copied().ok_or(CodecError {
            what: "string index out of range",
            at,
        })
    }

    fn expr_id(&self, v: u32, at: usize) -> Result<ExprId> {
        if v < self.counts[P_EXPRS] {
            Ok(ExprId::from_raw(v))
        } else {
            fail("expression handle out of range", at)
        }
    }

    fn opt_expr_id(&self, v: u32, at: usize) -> Result<Option<ExprId>> {
        if v == NONE {
            Ok(None)
        } else {
            self.expr_id(v, at).map(Some)
        }
    }

    fn range(&self, start: u32, len: u32, pool: usize, at: usize) -> Result<(u32, u32)> {
        if start as u64 + len as u64 <= self.counts[pool] as u64 {
            Ok((start, len))
        } else {
            fail("slice range out of pool bounds", at)
        }
    }

    fn stmt_range(&self, start: u32, len: u32, at: usize) -> Result<StmtRange> {
        let (s, l) = self.range(start, len, P_STMT_IDS, at)?;
        Ok(StmtRange::from_raw_parts(s, l))
    }

    fn member_sel(&self, kind: u8, payload: u32, at: usize) -> Result<Member> {
        match kind {
            0 => Ok(Member::Name(self.sym(payload, at)?)),
            1 => Ok(Member::Dynamic(self.expr_id(payload, at)?)),
            _ => fail("bad member selector kind", at),
        }
    }

    // -- record readers

    fn read_expr(&self, i: u32) -> Result<Expr> {
        let at = self.rec_at(P_EXPRS, i);
        let w = |k: usize| self.w(P_EXPRS, i, k);
        let m = w(0);
        let (tag, a1, a2) = (m as u8, (m >> 8) as u8, (m >> 16) as u8);
        let span = Span::at(w(7));
        Ok(match tag {
            0 => Expr::Var(self.sym(w(1), at)?, span),
            1 => Expr::VarVar(self.expr_id(w(1), at)?, span),
            2 => {
                let lit = match a1 {
                    0 => Lit::Int(self.sym(w(1), at)?),
                    1 => Lit::Float(self.sym(w(1), at)?),
                    2 => Lit::Str(self.sym(w(1), at)?),
                    3 => Lit::Bool(dec_flag(w(1), at)?),
                    4 => Lit::Null,
                    _ => return fail("bad literal kind", at),
                };
                Expr::Lit(lit, span)
            }
            3 => {
                let (s, l) = self.range(w(1), w(2), P_INTERP, at)?;
                Expr::Interp(InterpRange::from_raw_parts(s, l), span)
            }
            4 => Expr::ConstFetch(self.sym(w(1), at)?, span),
            5 => Expr::ClassConst(self.sym(w(1), at)?, self.sym(w(2), at)?, span),
            6 => {
                let (s, l) = self.range(w(1), w(2), P_ITEMS, at)?;
                Expr::ArrayLit(ItemRange::from_raw_parts(s, l), span)
            }
            7 => Expr::Index(self.expr_id(w(1), at)?, self.opt_expr_id(w(2), at)?, span),
            8 => Expr::Prop(
                self.expr_id(w(1), at)?,
                self.member_sel(a1, w(2), at)?,
                span,
            ),
            9 => Expr::StaticProp(self.sym(w(1), at)?, self.sym(w(2), at)?, span),
            10 => Expr::Assign {
                target: self.expr_id(w(1), at)?,
                op: dec_assign_op(a1, at)?,
                value: self.expr_id(w(2), at)?,
                by_ref: dec_flag(a2 as u32, at)?,
                span,
            },
            11 => Expr::Binary {
                op: dec_binop(a1, at)?,
                lhs: self.expr_id(w(1), at)?,
                rhs: self.expr_id(w(2), at)?,
                span,
            },
            12 => Expr::Unary {
                op: dec_unop(a1, at)?,
                expr: self.expr_id(w(1), at)?,
                span,
            },
            13 => Expr::IncDec {
                prefix: dec_flag(a1 as u32, at)?,
                increment: dec_flag(a2 as u32, at)?,
                expr: self.expr_id(w(1), at)?,
                span,
            },
            14 => {
                let callee = match a1 {
                    0 => Callee::Function(self.sym(w(1), at)?),
                    1 => Callee::Dynamic(self.expr_id(w(1), at)?),
                    2 => Callee::Method {
                        base: self.expr_id(w(1), at)?,
                        name: self.member_sel(a2, w(2), at)?,
                    },
                    3 => Callee::StaticMethod {
                        class: self.sym(w(1), at)?,
                        name: self.member_sel(a2, w(2), at)?,
                    },
                    _ => return fail("bad callee kind", at),
                };
                let (s, l) = self.range(w(3), w(4), P_ARGS, at)?;
                Expr::Call {
                    callee,
                    args: ArgRange::from_raw_parts(s, l),
                    span,
                }
            }
            15 => {
                let class = self.member_sel(a1, w(1), at)?;
                let (s, l) = self.range(w(2), w(3), P_ARGS, at)?;
                Expr::New {
                    class,
                    args: ArgRange::from_raw_parts(s, l),
                    span,
                }
            }
            16 => Expr::Clone(self.expr_id(w(1), at)?, span),
            17 => Expr::Ternary {
                cond: self.expr_id(w(1), at)?,
                then: self.opt_expr_id(w(2), at)?,
                otherwise: self.expr_id(w(3), at)?,
                span,
            },
            18 => Expr::Cast(dec_cast(a1, at)?, self.expr_id(w(1), at)?, span),
            19 => {
                let (s, l) = self.range(w(1), w(2), P_EXPR_IDS, at)?;
                Expr::Isset(ExprRange::from_raw_parts(s, l), span)
            }
            20 => Expr::Empty(self.expr_id(w(1), at)?, span),
            21 => Expr::ErrorSuppress(self.expr_id(w(1), at)?, span),
            22 => Expr::Print(self.expr_id(w(1), at)?, span),
            23 => Expr::Exit(self.opt_expr_id(w(1), at)?, span),
            24 => Expr::Include(dec_include(a1, at)?, self.expr_id(w(1), at)?, span),
            25 => Expr::Instanceof(self.expr_id(w(1), at)?, self.sym(w(2), at)?, span),
            26 => {
                let (s, l) = self.range(w(1), w(2), P_OPT_EXPRS, at)?;
                Expr::ListIntrinsic(OptExprRange::from_raw_parts(s, l), span)
            }
            27 => {
                let (ps, pl) = self.range(w(1), w(2), P_PARAMS, at)?;
                let (us, ul) = self.range(w(3), w(4), P_USES, at)?;
                Expr::Closure {
                    params: ParamRange::from_raw_parts(ps, pl),
                    uses: UseRange::from_raw_parts(us, ul),
                    body: self.stmt_range(w(5), w(6), at)?,
                    span,
                }
            }
            28 => {
                let (s, l) = self.range(w(1), w(2), P_INTERP, at)?;
                Expr::ShellExec(InterpRange::from_raw_parts(s, l), span)
            }
            29 => Expr::Ref(self.expr_id(w(1), at)?, span),
            30 => Expr::Error(span),
            _ => return fail("bad expression tag", at),
        })
    }

    fn read_stmt(&self, i: u32) -> Result<Stmt> {
        let at = self.rec_at(P_STMTS, i);
        let w = |k: usize| self.w(P_STMTS, i, k);
        let m = w(0);
        let (tag, a1, a2) = (m as u8, (m >> 8) as u8, (m >> 16) as u8);
        let span = Span::at(w(9));
        Ok(match tag {
            0 => Stmt::Expr(self.expr_id(w(1), at)?, span),
            1 => {
                let (s, l) = self.range(w(1), w(2), P_EXPR_IDS, at)?;
                Stmt::Echo(ExprRange::from_raw_parts(s, l), span)
            }
            2 => Stmt::InlineHtml(self.sym(w(1), at)?, span),
            3 => Stmt::If {
                cond: self.expr_id(w(1), at)?,
                then: self.stmt_range(w(2), w(3), at)?,
                elseifs: {
                    let (s, l) = self.range(w(4), w(5), P_ELSEIFS, at)?;
                    ElseifRange::from_raw_parts(s, l)
                },
                otherwise: if dec_flag(a1 as u32, at)? {
                    Some(self.stmt_range(w(6), w(7), at)?)
                } else {
                    None
                },
                span,
            },
            4 => Stmt::While {
                cond: self.expr_id(w(1), at)?,
                body: self.stmt_range(w(2), w(3), at)?,
                span,
            },
            5 => Stmt::DoWhile {
                body: self.stmt_range(w(1), w(2), at)?,
                cond: self.expr_id(w(3), at)?,
                span,
            },
            6 => {
                let (is_, il) = self.range(w(1), w(2), P_EXPR_IDS, at)?;
                let (cs, cl) = self.range(w(3), w(4), P_EXPR_IDS, at)?;
                let (ss, sl) = self.range(w(5), w(6), P_EXPR_IDS, at)?;
                Stmt::For {
                    init: ExprRange::from_raw_parts(is_, il),
                    cond: ExprRange::from_raw_parts(cs, cl),
                    step: ExprRange::from_raw_parts(ss, sl),
                    body: self.stmt_range(w(7), w(8), at)?,
                    span,
                }
            }
            7 => Stmt::Foreach {
                subject: self.expr_id(w(1), at)?,
                key: self.opt_expr_id(w(2), at)?,
                value: self.expr_id(w(3), at)?,
                by_ref: dec_flag(a1 as u32, at)?,
                body: self.stmt_range(w(4), w(5), at)?,
                span,
            },
            8 => Stmt::Switch {
                subject: self.expr_id(w(1), at)?,
                cases: {
                    let (s, l) = self.range(w(2), w(3), P_CASES, at)?;
                    CaseRange::from_raw_parts(s, l)
                },
                span,
            },
            9 => Stmt::Break(span),
            10 => Stmt::Continue(span),
            11 => Stmt::Return(self.opt_expr_id(w(1), at)?, span),
            12 => {
                let (s, l) = self.range(w(1), w(2), P_SYMS, at)?;
                Stmt::Global(SymRange::from_raw_parts(s, l), span)
            }
            13 => {
                let (s, l) = self.range(w(1), w(2), P_STATIC_VARS, at)?;
                Stmt::StaticVars(StaticVarRange::from_raw_parts(s, l), span)
            }
            14 => {
                let (s, l) = self.range(w(1), w(2), P_EXPR_IDS, at)?;
                Stmt::Unset(ExprRange::from_raw_parts(s, l), span)
            }
            15 => Stmt::Throw(self.expr_id(w(1), at)?, span),
            16 => Stmt::Try {
                body: self.stmt_range(w(1), w(2), at)?,
                catches: {
                    let (s, l) = self.range(w(3), w(4), P_CATCHES, at)?;
                    CatchRange::from_raw_parts(s, l)
                },
                finally: if dec_flag(a1 as u32, at)? {
                    Some(self.stmt_range(w(5), w(6), at)?)
                } else {
                    None
                },
                span,
            },
            17 => Stmt::Block(self.stmt_range(w(1), w(2), at)?, span),
            18 => {
                let (ps, pl) = self.range(w(2), w(3), P_PARAMS, at)?;
                Stmt::Function(FunctionDecl {
                    name: self.sym(w(1), at)?,
                    params: ParamRange::from_raw_parts(ps, pl),
                    by_ref: dec_flag(a1 as u32, at)?,
                    body: self.stmt_range(w(4), w(5), at)?,
                    span,
                })
            }
            19 => {
                if a2 & !0b111 != 0 {
                    return fail("bad class flags", at);
                }
                let (is_, il) = self.range(w(3), w(4), P_SYMS, at)?;
                let (ms, ml) = self.range(w(5), w(6), P_MEMBERS, at)?;
                Stmt::Class(ClassDecl {
                    name: self.sym(w(1), at)?,
                    kind: dec_class_kind(a1, at)?,
                    parent: if a2 & 0b100 != 0 {
                        Some(self.sym(w(2), at)?)
                    } else {
                        None
                    },
                    interfaces: SymRange::from_raw_parts(is_, il),
                    is_abstract: a2 & 0b001 != 0,
                    is_final: a2 & 0b010 != 0,
                    members: MemberRange::from_raw_parts(ms, ml),
                    span,
                })
            }
            20 => {
                let (s, l) = self.range(w(1), w(2), P_CONSTS, at)?;
                Stmt::ConstDecl(ConstRange::from_raw_parts(s, l), span)
            }
            21 => Stmt::Nop(span),
            22 => Stmt::Error(span),
            _ => return fail("bad statement tag", at),
        })
    }

    fn read_class_member(&self, i: u32) -> Result<ClassMember> {
        let at = self.rec_at(P_MEMBERS, i);
        let w = |k: usize| self.w(P_MEMBERS, i, k);
        let m = w(0);
        let (tag, a1, a2) = (m as u8, (m >> 8) as u8, (m >> 16) as u8);
        let span = Span::at(w(7));
        let modifiers = |at: usize| -> Result<Modifiers> {
            if a1 & !0b11111 != 0 {
                return fail("bad modifier flags", at);
            }
            Ok(Modifiers {
                visibility: dec_visibility(a1 & 0b11, at)?,
                is_static: a1 & 0b100 != 0,
                is_abstract: a1 & 0b1000 != 0,
                is_final: a1 & 0b10000 != 0,
            })
        };
        Ok(match tag {
            0 => ClassMember::Property {
                name: self.sym(w(1), at)?,
                default: self.opt_expr_id(w(2), at)?,
                modifiers: modifiers(at)?,
                span,
            },
            1 => {
                let (ps, pl) = self.range(w(2), w(3), P_PARAMS, at)?;
                ClassMember::Method(
                    modifiers(at)?,
                    FunctionDecl {
                        name: self.sym(w(1), at)?,
                        params: ParamRange::from_raw_parts(ps, pl),
                        by_ref: dec_flag(a2 as u32, at)?,
                        body: self.stmt_range(w(4), w(5), at)?,
                        span,
                    },
                )
            }
            2 => ClassMember::Const {
                name: self.sym(w(1), at)?,
                value: self.expr_id(w(2), at)?,
                span,
            },
            3 => {
                let (s, l) = self.range(w(1), w(2), P_SYMS, at)?;
                ClassMember::UseTrait(SymRange::from_raw_parts(s, l), span)
            }
            _ => return fail("bad class member tag", at),
        })
    }

    fn read_expr_id(&self, i: u32) -> Result<ExprId> {
        let at = self.rec_at(P_EXPR_IDS, i);
        self.expr_id(self.w(P_EXPR_IDS, i, 0), at)
    }

    fn read_stmt_id(&self, i: u32) -> Result<StmtId> {
        let at = self.rec_at(P_STMT_IDS, i);
        let v = self.w(P_STMT_IDS, i, 0);
        if v < self.counts[P_STMTS] {
            Ok(StmtId::from_raw(v))
        } else {
            fail("statement handle out of range", at)
        }
    }

    fn read_arg(&self, i: u32) -> Result<Arg> {
        let at = self.rec_at(P_ARGS, i);
        Ok(Arg {
            value: self.expr_id(self.w(P_ARGS, i, 0), at)?,
            by_ref: dec_flag(self.w(P_ARGS, i, 1), at)?,
        })
    }

    fn read_param(&self, i: u32) -> Result<Param> {
        let at = self.rec_at(P_PARAMS, i);
        let w = |k: usize| self.w(P_PARAMS, i, k);
        let flags = w(1);
        if flags & !0b111 != 0 {
            return fail("bad parameter flags", at);
        }
        Ok(Param {
            name: self.sym(w(0), at)?,
            by_ref: flags & 0b001 != 0,
            default: self.opt_expr_id(w(2), at)?,
            type_hint: if flags & 0b100 != 0 {
                Some(self.sym(w(3), at)?)
            } else {
                None
            },
            variadic: flags & 0b010 != 0,
        })
    }

    fn read_interp_part(&self, i: u32) -> Result<InterpPart> {
        let at = self.rec_at(P_INTERP, i);
        let payload = self.w(P_INTERP, i, 1);
        match self.w(P_INTERP, i, 0) {
            0 => Ok(InterpPart::Lit(self.sym(payload, at)?)),
            1 => Ok(InterpPart::Expr(self.expr_id(payload, at)?)),
            _ => fail("bad interpolation part kind", at),
        }
    }

    fn read_array_item(&self, i: u32) -> Result<ArrayItem> {
        let at = self.rec_at(P_ITEMS, i);
        Ok((
            self.opt_expr_id(self.w(P_ITEMS, i, 0), at)?,
            self.expr_id(self.w(P_ITEMS, i, 1), at)?,
        ))
    }

    fn read_opt_expr(&self, i: u32) -> Result<Option<ExprId>> {
        let at = self.rec_at(P_OPT_EXPRS, i);
        self.opt_expr_id(self.w(P_OPT_EXPRS, i, 0), at)
    }

    fn read_elseif(&self, i: u32) -> Result<Elseif> {
        let at = self.rec_at(P_ELSEIFS, i);
        let w = |k: usize| self.w(P_ELSEIFS, i, k);
        Ok((self.expr_id(w(0), at)?, self.stmt_range(w(1), w(2), at)?))
    }

    fn read_case(&self, i: u32) -> Result<SwitchCase> {
        let at = self.rec_at(P_CASES, i);
        let w = |k: usize| self.w(P_CASES, i, k);
        Ok(SwitchCase {
            value: self.opt_expr_id(w(0), at)?,
            body: self.stmt_range(w(1), w(2), at)?,
        })
    }

    fn read_catch(&self, i: u32) -> Result<Catch> {
        let at = self.rec_at(P_CATCHES, i);
        let w = |k: usize| self.w(P_CATCHES, i, k);
        Ok(Catch {
            class: self.sym(w(0), at)?,
            var: self.sym(w(1), at)?,
            body: self.stmt_range(w(2), w(3), at)?,
        })
    }

    fn read_sym_entry(&self, i: u32) -> Result<Symbol> {
        let at = self.rec_at(P_SYMS, i);
        self.sym(self.w(P_SYMS, i, 0), at)
    }

    fn read_static_var(&self, i: u32) -> Result<StaticVar> {
        let at = self.rec_at(P_STATIC_VARS, i);
        Ok((
            self.sym(self.w(P_STATIC_VARS, i, 0), at)?,
            self.opt_expr_id(self.w(P_STATIC_VARS, i, 1), at)?,
        ))
    }

    fn read_closure_use(&self, i: u32) -> Result<ClosureUse> {
        let at = self.rec_at(P_USES, i);
        Ok((
            self.sym(self.w(P_USES, i, 0), at)?,
            dec_flag(self.w(P_USES, i, 1), at)?,
        ))
    }

    fn read_const_item(&self, i: u32) -> Result<ConstItem> {
        let at = self.rec_at(P_CONSTS, i);
        Ok((
            self.sym(self.w(P_CONSTS, i, 0), at)?,
            self.expr_id(self.w(P_CONSTS, i, 1), at)?,
        ))
    }

    fn read_error(&self, i: u32) -> Result<ParseError> {
        let at = self.err_off + i as usize * 8;
        let msg = self.sym(self.word_at(at), at)?;
        Ok(ParseError {
            message: msg.as_str().to_string(),
            span: Span::at(self.word_at(at + 4)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    /// A source exercising every expression/statement/member variant the
    /// parser can produce, plus recovered errors.
    const KITCHEN_SINK: &str = r#"<html><body>
<?php
$id = $_GET['id'];
$x = 1 + 2.5 * 0x1f; $s = "pre $id mid {$row['k']} post"; $n = null; $t = true;
$arr = array('a' => 1, 2, 'c' => $x); $arr[] = $id; $e = $arr[0];
$$name = 3; $obj->prop = 4; $obj->$dyn = 5; C::$sp = 6; $k = C::KONST; $pi = M_PI;
$y = $x ?: 7; $z = $t ? 'a' : 'b'; $c = (int)$id; $d = (string)$x;
$q = isset($a, $b); $w = empty($a); $sup = @f(); print $x; $r = &$x;
$cat = 'a' . $id; $cat .= '!'; $neg = -$x; $not = !$t; $inc = ++$x; $dec = $x--;
$call = f($a, &$b); $m = $obj->m(1); $dm = $obj->$dmn(2); $sm = C::sm(3); $dyn = $fn(4);
$new = new C($x); $newd = new $cls(); $cl = clone $obj;
$closure = function (&$p, $q = 1) use (&$cap, $val) { return $p + $cap; };
$sh = `ls $dir`; $io = $obj instanceof C; $inc2 = include 'x.php'; require_once 'y.php';
list($l1, , $l2) = $arr;
if ($x > 1) { echo 'a'; } elseif ($x < 0) { echo 'b'; } else { echo 'c'; }
while ($x) { $x--; break; }
do { $x++; continue; } while ($x < 3);
for ($i = 0; $i < 9; $i++) { echo $i; }
foreach ($arr as $k => &$v) { $v = 1; }
switch ($x) { case 1: echo 'one'; break; default: echo 'other'; }
try { throw new E('boom'); } catch (E $ex) { echo 'c'; } finally { echo 'f'; }
global $g1, $g2; static $sv = 1, $sv2; unset($a, $b); ;
const TOP = 1;
{ echo 'block'; }
function f(&$a, array $b = array(), $c = 2) { return $a; }
function &byref() { static $s = 0; return $s; }
abstract class B { }
final class C extends B implements I, J {
    use T1, T2;
    const KONST = 9;
    public static $sp = 0;
    private $priv = 'p';
    protected abstract function pm();
    public final function m($p) { return $this->priv . $p; }
    static function sm($q) { return $q; }
    function &mref() { return $this->priv; }
}
interface I { } trait T1 { public function tm() { return 1; } }
echo $undefined_syntax ===;
?>tail html"#;

    fn sink() -> ParsedFile {
        parse(KITCHEN_SINK)
    }

    fn encoded() -> (ParsedFile, Vec<u8>) {
        let f = sink();
        let bytes = encode_file(&f);
        (f, bytes)
    }

    fn decoded(bytes: &[u8]) -> ParsedFile {
        decode(bytes).expect("valid payload")
    }

    #[test]
    fn roundtrip_is_identical() {
        let (f, bytes) = encoded();
        assert!(!f.errors.is_empty(), "source should exercise recovery");
        assert_eq!(decoded(&bytes), f);
        // Shapes the kitchen sink does not cover: an HTML-only file,
        // `print @…` / bare `exit;`, and a recovered unclosed condition.
        for src in [
            "plain html, no php at all",
            "<?php print @file_get_contents($a); exit;",
            "<?php if ($a { echo 1; }",
        ] {
            let f = parse(src);
            assert_eq!(decoded(&encode_file(&f)), f, "source: {src:?}");
        }
    }

    #[test]
    fn header_is_aligned_and_recognized() {
        let (_, bytes) = encoded();
        assert_eq!(&bytes[..4], MAGIC);
        assert_eq!(bytes.len() % 8, 0);
        assert_eq!(HEADER_BYTES % 8, 0);
    }

    #[test]
    fn encoding_is_deterministic() {
        let (f, bytes) = encoded();
        assert_eq!(encode_file(&f), bytes);
        // Re-encoding a decoded copy is also byte-identical: the string
        // table order depends only on record order, not interner state.
        assert_eq!(encode_file(&decoded(&bytes)), bytes);
    }

    #[test]
    fn every_truncation_fails_cleanly() {
        let (_, bytes) = encoded();
        // The header determines the exact length, so every proper prefix
        // must be rejected (and must not panic).
        for len in 0..bytes.len() {
            assert!(
                decode(&bytes[..len]).is_err(),
                "truncation to {len} bytes must fail"
            );
        }
        let mut extended = bytes.clone();
        extended.extend_from_slice(&[0u8; 8]);
        assert!(decode(&extended).is_err());
    }

    #[test]
    fn byte_flips_never_panic_or_escape_bounds() {
        let (_, bytes) = encoded();
        for pos in 0..bytes.len() {
            for flip in [0xffu8, 0x01, 0x80] {
                let mut b = bytes.clone();
                b[pos] ^= flip;
                if b[pos] == bytes[pos] {
                    continue;
                }
                // Either rejected, or decoded into a tree whose handles
                // all stay in bounds; never a panic.
                let _ = decode(&b);
            }
        }
    }

    #[test]
    fn garbage_fails_cleanly() {
        for n in [0usize, 3, 7, 8, 95, 104, 256, 4096] {
            let junk: Vec<u8> = (0..n).map(|i| (i * 37 + 11) as u8).collect();
            assert!(decode(&junk).is_err());
        }
        // Correct magic + version but hostile counts.
        let mut hostile = Vec::new();
        hostile.extend_from_slice(MAGIC);
        hostile.extend_from_slice(&VERSION.to_le_bytes());
        for _ in 0..HEADER_WORDS {
            hostile.extend_from_slice(&u32::MAX.to_le_bytes());
        }
        assert!(decode(&hostile).is_err());
    }

    #[test]
    fn empty_file_roundtrips() {
        let f = parse("");
        let bytes = encode_file(&f);
        assert_eq!(decoded(&bytes), f);
    }

    #[test]
    fn wrong_version_is_rejected() {
        let (_, mut bytes) = encoded();
        bytes[4] = 3;
        let err = decode(&bytes).expect_err("wrong version must be rejected");
        assert_eq!(err.what, "unsupported zast version");
    }
}
