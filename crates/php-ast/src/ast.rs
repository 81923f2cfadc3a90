//! Typed abstract syntax tree for the PHP 5 subset relevant to plugin
//! analysis: full expression grammar, statements, functions, closures and
//! the OOP constructs (classes, interfaces, traits, properties, methods)
//! whose handling distinguishes phpSAFE from RIPS/Pixy.
//!
//! Nodes live in per-file [`Arena`] pools and refer to each other through
//! `Copy` index handles ([`ExprId`], [`StmtId`]) instead of `Box` pointers.
//! Child lists (bodies, argument lists, array items, …) are `(start, len)`
//! ranges into shared slice pools, so a whole [`ParsedFile`] is a handful
//! of contiguous buffers: one allocation per pool rather than one per
//! node, in the order the parser — and therefore the taint interpreter —
//! visits them.

use phpsafe_intern::Symbol;
use std::fmt;

/// A lightweight source position (1-based line). The analyzers report
/// findings by file + line, mirroring the paper's output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Span {
    /// 1-based line number.
    pub line: u32,
}

impl Span {
    /// Creates a span at `line`.
    pub fn at(line: u32) -> Self {
        Span { line }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}", self.line)
    }
}

// ------------------------------------------------------------------ handles

/// Index of an [`Expr`] in its file's [`Arena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(u32);

impl ExprId {
    /// The raw pool index (for the binary codec).
    pub(crate) fn raw(self) -> u32 {
        self.0
    }

    /// Rebuilds a handle from a raw pool index (for the binary codec).
    pub(crate) fn from_raw(raw: u32) -> ExprId {
        ExprId(raw)
    }
}

/// Index of a [`Stmt`] in its file's [`Arena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StmtId(u32);

impl StmtId {
    /// The raw pool index (for the binary codec).
    pub(crate) fn raw(self) -> u32 {
        self.0
    }

    /// Rebuilds a handle from a raw pool index (for the binary codec).
    pub(crate) fn from_raw(raw: u32) -> StmtId {
        StmtId(raw)
    }
}

macro_rules! define_range {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        ///
        /// A `(start, len)` window into one of the [`Arena`] slice pools.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub struct $name {
            start: u32,
            len: u32,
        }

        impl $name {
            /// The empty range.
            pub const EMPTY: $name = $name { start: 0, len: 0 };

            /// Number of elements in the range.
            pub fn len(self) -> usize {
                self.len as usize
            }

            /// Whether the range is empty.
            pub fn is_empty(self) -> bool {
                self.len == 0
            }

            fn slice(self) -> std::ops::Range<usize> {
                self.start as usize..(self.start + self.len) as usize
            }

            /// The raw `(start, len)` window (for the binary codec).
            pub(crate) fn raw_parts(self) -> (u32, u32) {
                (self.start, self.len)
            }

            /// Rebuilds a range from a raw window (for the binary codec).
            pub(crate) fn from_raw_parts(start: u32, len: u32) -> $name {
                $name { start, len }
            }
        }

        impl Default for $name {
            fn default() -> Self {
                $name::EMPTY
            }
        }
    };
}

define_range!(
    /// A list of expressions (echo arguments, `isset` targets, …).
    ExprRange
);
define_range!(
    /// A list of statements (a body or block).
    StmtRange
);
define_range!(
    /// A call argument list.
    ArgRange
);
define_range!(
    /// A parameter list.
    ParamRange
);
define_range!(
    /// Interpolated-string parts.
    InterpRange
);
define_range!(
    /// `array(...)` items.
    ItemRange
);
define_range!(
    /// `list(...)` slots (holes allowed).
    OptExprRange
);
define_range!(
    /// `elseif` arms.
    ElseifRange
);
define_range!(
    /// `switch` arms.
    CaseRange
);
define_range!(
    /// `catch` clauses.
    CatchRange
);
define_range!(
    /// Plain name lists (`global` names, interfaces, trait uses).
    SymRange
);
define_range!(
    /// `static $a = 1, $b;` declarations.
    StaticVarRange
);
define_range!(
    /// Closure `use (...)` captures.
    UseRange
);
define_range!(
    /// `const NAME = value` items.
    ConstRange
);
define_range!(
    /// Class members.
    MemberRange
);

/// One `array(...)` item: optional key plus value.
pub type ArrayItem = (Option<ExprId>, ExprId);
/// One `elseif` arm: condition plus body.
pub type Elseif = (ExprId, StmtRange);
/// One `static` variable: name plus optional initializer.
pub type StaticVar = (Symbol, Option<ExprId>);
/// One closure capture: name plus by-reference flag.
pub type ClosureUse = (Symbol, bool);
/// One `const` item: name plus value.
pub type ConstItem = (Symbol, ExprId);

// -------------------------------------------------------------------- arena

/// Per-file flat node storage. All [`Expr`]/[`Stmt`] nodes of a parsed file
/// sit in two contiguous pools addressed by [`ExprId`]/[`StmtId`]; child
/// lists are ranges into the typed slice pools. Nodes are appended in parse
/// order, so traversal order matches memory order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Arena {
    pub(crate) exprs: Vec<Expr>,
    pub(crate) stmts: Vec<Stmt>,
    pub(crate) expr_ids: Vec<ExprId>,
    pub(crate) stmt_ids: Vec<StmtId>,
    pub(crate) args: Vec<Arg>,
    pub(crate) params: Vec<Param>,
    pub(crate) interp_parts: Vec<InterpPart>,
    pub(crate) array_items: Vec<ArrayItem>,
    pub(crate) opt_exprs: Vec<Option<ExprId>>,
    pub(crate) elseifs: Vec<Elseif>,
    pub(crate) cases: Vec<SwitchCase>,
    pub(crate) catches: Vec<Catch>,
    pub(crate) syms: Vec<Symbol>,
    pub(crate) static_vars: Vec<StaticVar>,
    pub(crate) closure_uses: Vec<ClosureUse>,
    pub(crate) consts: Vec<ConstItem>,
    pub(crate) members: Vec<ClassMember>,
    pub(crate) slices: u32,
}

macro_rules! pool_range {
    ($alloc:ident, $get:ident, $field:ident, $elem:ty, $range:ident) => {
        /// Moves the items into the pool and returns their range.
        pub fn $alloc(&mut self, items: Vec<$elem>) -> $range {
            if items.is_empty() {
                return $range::EMPTY;
            }
            let start = self.$field.len() as u32;
            let len = items.len() as u32;
            self.$field.extend(items);
            self.slices += 1;
            $range { start, len }
        }

        /// The pool slice addressed by `range`.
        pub fn $get(&self, range: $range) -> &[$elem] {
            &self.$field[range.slice()]
        }
    };
}

impl Arena {
    /// Fresh empty arena.
    pub fn new() -> Arena {
        Arena::default()
    }

    /// Appends an expression node, returning its handle.
    pub fn alloc_expr(&mut self, e: Expr) -> ExprId {
        let id = ExprId(self.exprs.len() as u32);
        self.exprs.push(e);
        id
    }

    /// Appends a statement node, returning its handle.
    pub fn alloc_stmt(&mut self, s: Stmt) -> StmtId {
        let id = StmtId(self.stmts.len() as u32);
        self.stmts.push(s);
        id
    }

    /// The expression node behind `id`.
    pub fn expr(&self, id: ExprId) -> &Expr {
        &self.exprs[id.0 as usize]
    }

    /// The statement node behind `id`.
    pub fn stmt(&self, id: StmtId) -> &Stmt {
        &self.stmts[id.0 as usize]
    }

    pool_range!(alloc_expr_list, expr_list, expr_ids, ExprId, ExprRange);
    pool_range!(alloc_stmt_list, stmt_list, stmt_ids, StmtId, StmtRange);
    pool_range!(alloc_args, args, args, Arg, ArgRange);
    pool_range!(alloc_params, params, params, Param, ParamRange);
    pool_range!(alloc_interp, interp, interp_parts, InterpPart, InterpRange);
    pool_range!(alloc_items, items, array_items, ArrayItem, ItemRange);
    pool_range!(
        alloc_opt_exprs,
        opt_exprs,
        opt_exprs,
        Option<ExprId>,
        OptExprRange
    );
    pool_range!(alloc_elseifs, elseifs, elseifs, Elseif, ElseifRange);
    pool_range!(alloc_cases, cases, cases, SwitchCase, CaseRange);
    pool_range!(alloc_catches, catches, catches, Catch, CatchRange);
    pool_range!(alloc_syms, syms, syms, Symbol, SymRange);
    pool_range!(
        alloc_static_vars,
        static_vars,
        static_vars,
        StaticVar,
        StaticVarRange
    );
    pool_range!(alloc_uses, uses, closure_uses, ClosureUse, UseRange);
    pool_range!(alloc_consts, consts, consts, ConstItem, ConstRange);
    pool_range!(alloc_members, members, members, ClassMember, MemberRange);

    /// Total node count (expressions + statements).
    pub fn node_count(&self) -> usize {
        self.exprs.len() + self.stmts.len()
    }

    /// Number of slice-pool ranges allocated.
    pub fn slice_count(&self) -> usize {
        self.slices as usize
    }

    /// Approximate resident bytes of the flat pools (element sizes × pool
    /// lengths; literal text lives in the shared interner, not here).
    pub fn arena_bytes(&self) -> usize {
        use std::mem::size_of;
        self.exprs.len() * size_of::<Expr>()
            + self.stmts.len() * size_of::<Stmt>()
            + self.expr_ids.len() * size_of::<ExprId>()
            + self.stmt_ids.len() * size_of::<StmtId>()
            + self.args.len() * size_of::<Arg>()
            + self.params.len() * size_of::<Param>()
            + self.interp_parts.len() * size_of::<InterpPart>()
            + self.array_items.len() * size_of::<ArrayItem>()
            + self.opt_exprs.len() * size_of::<Option<ExprId>>()
            + self.elseifs.len() * size_of::<Elseif>()
            + self.cases.len() * size_of::<SwitchCase>()
            + self.catches.len() * size_of::<Catch>()
            + self.syms.len() * size_of::<Symbol>()
            + self.static_vars.len() * size_of::<StaticVar>()
            + self.closure_uses.len() * size_of::<ClosureUse>()
            + self.consts.len() * size_of::<ConstItem>()
            + self.members.len() * size_of::<ClassMember>()
    }

    /// Shrinks every pool to its exact length (done once after parsing, so
    /// cached files don't hold parser headroom).
    pub fn shrink_to_fit(&mut self) {
        self.exprs.shrink_to_fit();
        self.stmts.shrink_to_fit();
        self.expr_ids.shrink_to_fit();
        self.stmt_ids.shrink_to_fit();
        self.args.shrink_to_fit();
        self.params.shrink_to_fit();
        self.interp_parts.shrink_to_fit();
        self.array_items.shrink_to_fit();
        self.opt_exprs.shrink_to_fit();
        self.elseifs.shrink_to_fit();
        self.cases.shrink_to_fit();
        self.catches.shrink_to_fit();
        self.syms.shrink_to_fit();
        self.static_vars.shrink_to_fit();
        self.closure_uses.shrink_to_fit();
        self.consts.shrink_to_fit();
        self.members.shrink_to_fit();
    }
}

impl std::ops::Index<ExprId> for Arena {
    type Output = Expr;
    fn index(&self, id: ExprId) -> &Expr {
        self.expr(id)
    }
}

impl std::ops::Index<StmtId> for Arena {
    type Output = Stmt;
    fn index(&self, id: StmtId) -> &Stmt {
        self.stmt(id)
    }
}

// ---------------------------------------------------------------- literals

/// Literal values. Text-carrying literals hold interned [`Symbol`]s, so
/// every node is a fixed-shape `Copy` value: the arena pools contain no
/// heap pointers, literal equality is an integer compare, and repeated
/// literals across files share one interner entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lit {
    /// Integer literal (kept as text to preserve hex/octal/binary forms).
    Int(Symbol),
    /// Float literal.
    Float(Symbol),
    /// String literal with quotes stripped and escapes left verbatim.
    Str(Symbol),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BinOp {
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
}

impl BinOp {
    /// PHP spelling of the operator.
    pub fn symbol(self) -> &'static str {
        use BinOp::*;
        match self {
            Add => "+",
            Sub => "-",
            Mul => "*",
            Div => "/",
            Mod => "%",
            Pow => "**",
            Concat => ".",
            Eq => "==",
            NotEq => "!=",
            Identical => "===",
            NotIdentical => "!==",
            Lt => "<",
            Gt => ">",
            Le => "<=",
            Ge => ">=",
            And => "&&",
            Or => "||",
            Xor => "xor",
            BitAnd => "&",
            BitOr => "|",
            BitXor => "^",
            Shl => "<<",
            Shr => ">>",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum UnOp {
    Not,
    Neg,
    Plus,
    BitNot,
}

/// Compound-assignment operators (`$a .= $b` etc.); `Assign` is plain `=`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum AssignOp {
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
}

impl AssignOp {
    /// PHP spelling.
    pub fn symbol(self) -> &'static str {
        use AssignOp::*;
        match self {
            Assign => "=",
            AddAssign => "+=",
            SubAssign => "-=",
            MulAssign => "*=",
            DivAssign => "/=",
            ModAssign => "%=",
            ConcatAssign => ".=",
            BitAndAssign => "&=",
            BitOrAssign => "|=",
            BitXorAssign => "^=",
            ShlAssign => "<<=",
            ShrAssign => ">>=",
        }
    }

    /// Whether the old value of the target flows into the new value
    /// (true for every compound op; `.=` is the one that matters for taint).
    pub fn reads_target(self) -> bool {
        !matches!(self, AssignOp::Assign)
    }
}

/// Cast kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum CastKind {
    Int,
    Float,
    String,
    Array,
    Object,
    Bool,
    Unset,
}

impl CastKind {
    /// Whether this cast neutralizes injection payloads (numeric/bool casts
    /// sanitize; string/array/object casts do not).
    pub fn sanitizes(self) -> bool {
        matches!(
            self,
            CastKind::Int | CastKind::Float | CastKind::Bool | CastKind::Unset
        )
    }

    /// PHP spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            CastKind::Int => "(int)",
            CastKind::Float => "(float)",
            CastKind::String => "(string)",
            CastKind::Array => "(array)",
            CastKind::Object => "(object)",
            CastKind::Bool => "(bool)",
            CastKind::Unset => "(unset)",
        }
    }
}

/// `include` / `require` family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum IncludeKind {
    Include,
    IncludeOnce,
    Require,
    RequireOnce,
}

impl IncludeKind {
    /// PHP spelling.
    pub fn keyword(self) -> &'static str {
        match self {
            IncludeKind::Include => "include",
            IncludeKind::IncludeOnce => "include_once",
            IncludeKind::Require => "require",
            IncludeKind::RequireOnce => "require_once",
        }
    }
}

/// A member selector after `->` or `::` — either a fixed name or a computed
/// expression (`$obj->$field`, `$obj->{expr}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Member {
    /// `->name`
    Name(Symbol),
    /// `->$var` or `->{expr}`
    Dynamic(ExprId),
}

impl Member {
    /// The fixed name, if statically known.
    pub fn as_name(&self) -> Option<&str> {
        match self {
            Member::Name(n) => Some(n.as_str()),
            Member::Dynamic(_) => None,
        }
    }
}

/// What is being called in a [`Expr::Call`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Callee {
    /// `foo(...)` — a plain (possibly namespaced) function name.
    Function(Symbol),
    /// `$f(...)` or `($expr)(...)` — dynamic call.
    Dynamic(ExprId),
    /// `$obj->m(...)`
    Method {
        /// The receiver expression.
        base: ExprId,
        /// The method selector.
        name: Member,
    },
    /// `Cls::m(...)` / `self::m(...)` / `static::m(...)`
    StaticMethod {
        /// The class name as written.
        class: Symbol,
        /// The method selector.
        name: Member,
    },
}

/// A call argument (PHP 5: optional by-reference marker).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Arg {
    /// Argument expression.
    pub value: ExprId,
    /// `&$x` at the call site.
    pub by_ref: bool,
}

impl Arg {
    /// Positional argument.
    pub fn pos(value: ExprId) -> Self {
        Arg {
            value,
            by_ref: false,
        }
    }
}

/// One piece of an interpolated string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterpPart {
    /// Literal fragment (interned).
    Lit(Symbol),
    /// Interpolated expression (`$x`, `$x->p`, `{$expr}`).
    Expr(ExprId),
}

/// Expressions. Child nodes are [`ExprId`]/[`StmtId`] handles into the
/// owning [`Arena`]; child lists are ranges into its slice pools. Every
/// variant is `Copy` — the pools are flat `u32`-shaped records, which is
/// what lets the disk codec store them as fixed-width rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Expr {
    /// `$name`
    Var(Symbol, Span),
    /// Variable-variable `$$name` or `${expr}`.
    VarVar(ExprId, Span),
    /// Literal.
    Lit(Lit, Span),
    /// Interpolated double-quoted string / heredoc.
    Interp(InterpRange, Span),
    /// Bareword constant fetch (`FOO`, `PHP_EOL`).
    ConstFetch(Symbol, Span),
    /// `CLS::CONST`
    ClassConst(Symbol, Symbol, Span),
    /// `array(...)` / `[...]`
    ArrayLit(ItemRange, Span),
    /// `$base[index]`; `index` is `None` for push syntax `$a[] = ...`.
    Index(ExprId, Option<ExprId>, Span),
    /// `$base->member`
    Prop(ExprId, Member, Span),
    /// `CLS::$prop`
    StaticProp(Symbol, Symbol, Span),
    /// Assignment (including compound and by-reference).
    Assign {
        /// Assignment target (lvalue).
        target: ExprId,
        /// Operator (plain or compound).
        op: AssignOp,
        /// Right-hand side.
        value: ExprId,
        /// `=& ` reference assignment.
        by_ref: bool,
        /// Location.
        span: Span,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: ExprId,
        /// Right operand.
        rhs: ExprId,
        /// Location.
        span: Span,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: ExprId,
        /// Location.
        span: Span,
    },
    /// `++$x`, `$x--`, …
    IncDec {
        /// Prefix (`++$x`) vs postfix (`$x++`).
        prefix: bool,
        /// Increment vs decrement.
        increment: bool,
        /// Operand.
        expr: ExprId,
        /// Location.
        span: Span,
    },
    /// Function / method / dynamic call.
    Call {
        /// Call target.
        callee: Callee,
        /// Arguments.
        args: ArgRange,
        /// Location.
        span: Span,
    },
    /// `new Cls(args)`; class may be dynamic (`new $cls`).
    New {
        /// Class name if statically known.
        class: Member,
        /// Constructor arguments.
        args: ArgRange,
        /// Location.
        span: Span,
    },
    /// `clone $x`
    Clone(ExprId, Span),
    /// `$c ? $t : $e` (with `$t` optional for the `?:` short form).
    Ternary {
        /// Condition.
        cond: ExprId,
        /// `then` branch (`None` for `?:`).
        then: Option<ExprId>,
        /// `else` branch.
        otherwise: ExprId,
        /// Location.
        span: Span,
    },
    /// Type cast.
    Cast(CastKind, ExprId, Span),
    /// `isset($a, $b)`
    Isset(ExprRange, Span),
    /// `empty($x)`
    Empty(ExprId, Span),
    /// `@expr`
    ErrorSuppress(ExprId, Span),
    /// `print $x` (an expression in PHP).
    Print(ExprId, Span),
    /// `exit($x)` / `die($x)`.
    Exit(Option<ExprId>, Span),
    /// `include`/`require` expression.
    Include(IncludeKind, ExprId, Span),
    /// `$x instanceof Cls`
    Instanceof(ExprId, Symbol, Span),
    /// `list($a, $b) = ...` target.
    ListIntrinsic(OptExprRange, Span),
    /// Anonymous function.
    Closure {
        /// Parameters.
        params: ParamRange,
        /// `use (...)` captures: (name, by_ref).
        uses: UseRange,
        /// Body statements.
        body: StmtRange,
        /// Location.
        span: Span,
    },
    /// Backtick shell execution.
    ShellExec(InterpRange, Span),
    /// `&$x` reference in value position.
    Ref(ExprId, Span),
    /// Placeholder produced by error recovery.
    Error(Span),
}

impl Expr {
    /// The source span of this expression.
    pub fn span(&self) -> Span {
        use Expr::*;
        match self {
            Var(_, s)
            | VarVar(_, s)
            | Lit(_, s)
            | Interp(_, s)
            | ConstFetch(_, s)
            | ClassConst(_, _, s)
            | ArrayLit(_, s)
            | Index(_, _, s)
            | Prop(_, _, s)
            | StaticProp(_, _, s)
            | Clone(_, s)
            | Cast(_, _, s)
            | Isset(_, s)
            | Empty(_, s)
            | ErrorSuppress(_, s)
            | Print(_, s)
            | Exit(_, s)
            | Include(_, _, s)
            | Instanceof(_, _, s)
            | ListIntrinsic(_, s)
            | ShellExec(_, s)
            | Ref(_, s)
            | Error(s) => *s,
            Assign { span, .. }
            | Binary { span, .. }
            | Unary { span, .. }
            | IncDec { span, .. }
            | Call { span, .. }
            | New { span, .. }
            | Ternary { span, .. }
            | Closure { span, .. } => *span,
        }
    }

    /// Convenience: `$name` variable expression.
    pub fn var(name: impl Into<Symbol>, line: u32) -> Expr {
        Expr::Var(name.into(), Span::at(line))
    }

    /// Convenience: string literal.
    pub fn str(value: impl Into<Symbol>, line: u32) -> Expr {
        Expr::Lit(Lit::Str(value.into()), Span::at(line))
    }

    /// If this is `$name`, return the name (with `$`).
    pub fn as_var_name(&self) -> Option<&str> {
        match self {
            Expr::Var(n, _) => Some(n.as_str()),
            _ => None,
        }
    }
}

/// A function / method / closure parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Param {
    /// Parameter variable name including `$`.
    pub name: Symbol,
    /// Declared by reference (`&$x`).
    pub by_ref: bool,
    /// Default value, if any.
    pub default: Option<ExprId>,
    /// Type hint as written (`array`, class name), if any.
    pub type_hint: Option<Symbol>,
    /// Variadic (`...$args`).
    pub variadic: bool,
}

impl Param {
    /// A plain by-value parameter with no default.
    pub fn simple(name: impl Into<Symbol>) -> Self {
        Param {
            name: name.into(),
            by_ref: false,
            default: None,
            type_hint: None,
            variadic: false,
        }
    }
}

/// Member visibility / modifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Modifiers {
    /// `public` (default), `protected`, or `private`.
    pub visibility: Visibility,
    /// `static`
    pub is_static: bool,
    /// `abstract`
    pub is_abstract: bool,
    /// `final`
    pub is_final: bool,
}

/// Member visibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Visibility {
    /// `public` / `var` / unspecified.
    #[default]
    Public,
    /// `protected`
    Protected,
    /// `private`
    Private,
}

/// A named function declaration (also used for methods). `Copy`: the body
/// and parameter list are ranges into the declaring file's [`Arena`], so
/// symbol tables and call sites hand declarations around by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FunctionDecl {
    /// Function name as written (case preserved; PHP resolves
    /// case-insensitively).
    pub name: Symbol,
    /// Parameters.
    pub params: ParamRange,
    /// Returns by reference (`function &f()`).
    pub by_ref: bool,
    /// Body statements (empty for abstract/interface methods).
    pub body: StmtRange,
    /// Location of the declaration.
    pub span: Span,
}

/// A class / interface / trait declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClassDecl {
    /// Declared name.
    pub name: Symbol,
    /// Declaration flavor.
    pub kind: ClassKind,
    /// `extends` parent, if any (interfaces may extend several; we keep the
    /// first — enough for method resolution in plugin code).
    pub parent: Option<Symbol>,
    /// `implements` list.
    pub interfaces: SymRange,
    /// `abstract class`.
    pub is_abstract: bool,
    /// `final class`.
    pub is_final: bool,
    /// Members in declaration order.
    pub members: MemberRange,
    /// Location.
    pub span: Span,
}

impl ClassDecl {
    /// Iterates the methods of the class.
    pub fn methods<'a>(
        &self,
        a: &'a Arena,
    ) -> impl Iterator<Item = (&'a Modifiers, &'a FunctionDecl)> {
        a.members(self.members).iter().filter_map(|m| match m {
            ClassMember::Method(mods, f) => Some((mods, f)),
            _ => None,
        })
    }

    /// Looks up a method by case-insensitive name.
    pub fn method<'a>(&self, a: &'a Arena, name: &str) -> Option<&'a FunctionDecl> {
        self.methods(a)
            .find(|(_, f)| f.name.as_str().eq_ignore_ascii_case(name))
            .map(|(_, f)| f)
    }
}

/// `class` vs `interface` vs `trait`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum ClassKind {
    Class,
    Interface,
    Trait,
}

/// A class member.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClassMember {
    /// `public $x = default;`
    Property {
        /// Property name including `$`.
        name: Symbol,
        /// Default value.
        default: Option<ExprId>,
        /// Modifiers.
        modifiers: Modifiers,
        /// Location.
        span: Span,
    },
    /// A method.
    Method(Modifiers, FunctionDecl),
    /// `const NAME = value;`
    Const {
        /// Constant name.
        name: Symbol,
        /// Value expression.
        value: ExprId,
        /// Location.
        span: Span,
    },
    /// `use TraitA, TraitB;`
    UseTrait(SymRange, Span),
}

/// A `catch (Type $e)` clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Catch {
    /// Caught class name.
    pub class: Symbol,
    /// Exception variable including `$`.
    pub var: Symbol,
    /// Handler body.
    pub body: StmtRange,
}

/// One `case`/`default` arm of a `switch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SwitchCase {
    /// Case value; `None` for `default`.
    pub value: Option<ExprId>,
    /// Arm body.
    pub body: StmtRange,
}

/// Statements. Like [`Expr`], every variant is a fixed-shape `Copy` value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stmt {
    /// Expression statement.
    Expr(ExprId, Span),
    /// `echo a, b, c;` (also synthesized for `<?= ... ?>`).
    Echo(ExprRange, Span),
    /// Raw HTML between PHP blocks — an *output* in taint terms.
    InlineHtml(Symbol, Span),
    /// `if` with any number of `elseif`s and an optional `else`.
    If {
        /// Condition.
        cond: ExprId,
        /// `then` branch.
        then: StmtRange,
        /// `elseif` chain.
        elseifs: ElseifRange,
        /// `else` branch.
        otherwise: Option<StmtRange>,
        /// Location.
        span: Span,
    },
    /// `while`
    While {
        /// Condition.
        cond: ExprId,
        /// Body.
        body: StmtRange,
        /// Location.
        span: Span,
    },
    /// `do { } while ()`
    DoWhile {
        /// Body.
        body: StmtRange,
        /// Condition.
        cond: ExprId,
        /// Location.
        span: Span,
    },
    /// `for (init; cond; step)`
    For {
        /// Init expressions.
        init: ExprRange,
        /// Condition expressions.
        cond: ExprRange,
        /// Step expressions.
        step: ExprRange,
        /// Body.
        body: StmtRange,
        /// Location.
        span: Span,
    },
    /// `foreach ($subject as $key => $value)`
    Foreach {
        /// Iterated expression.
        subject: ExprId,
        /// Key variable, if present.
        key: Option<ExprId>,
        /// Value binding target.
        value: ExprId,
        /// `as &$v` by-reference binding.
        by_ref: bool,
        /// Body.
        body: StmtRange,
        /// Location.
        span: Span,
    },
    /// `switch`
    Switch {
        /// Scrutinee.
        subject: ExprId,
        /// Arms.
        cases: CaseRange,
        /// Location.
        span: Span,
    },
    /// `break [n];`
    Break(Span),
    /// `continue [n];`
    Continue(Span),
    /// `return [expr];`
    Return(Option<ExprId>, Span),
    /// `global $a, $b;`
    Global(SymRange, Span),
    /// `static $a = 1;` (function-static variables).
    StaticVars(StaticVarRange, Span),
    /// `unset($a, $b);`
    Unset(ExprRange, Span),
    /// `throw expr;`
    Throw(ExprId, Span),
    /// `try { } catch () { } finally { }`
    Try {
        /// Protected body.
        body: StmtRange,
        /// Catch clauses.
        catches: CatchRange,
        /// Finally block.
        finally: Option<StmtRange>,
        /// Location.
        span: Span,
    },
    /// A bare `{ ... }` block.
    Block(StmtRange, Span),
    /// Named function declaration.
    Function(FunctionDecl),
    /// Class / interface / trait declaration.
    Class(ClassDecl),
    /// `const NAME = value;` at top level.
    ConstDecl(ConstRange, Span),
    /// `;` empty statement.
    Nop(Span),
    /// Placeholder produced by error recovery.
    Error(Span),
}

impl Stmt {
    /// The source span of this statement (best effort).
    pub fn span(&self) -> Span {
        use Stmt::*;
        match self {
            Expr(_, s)
            | Echo(_, s)
            | InlineHtml(_, s)
            | Break(s)
            | Continue(s)
            | Return(_, s)
            | Global(_, s)
            | StaticVars(_, s)
            | Unset(_, s)
            | Throw(_, s)
            | Block(_, s)
            | ConstDecl(_, s)
            | Nop(s)
            | Error(s) => *s,
            If { span, .. }
            | While { span, .. }
            | DoWhile { span, .. }
            | For { span, .. }
            | Foreach { span, .. }
            | Switch { span, .. }
            | Try { span, .. } => *span,
            Function(f) => f.span,
            Class(c) => c.span,
        }
    }
}

/// A parse diagnostic: the parser recovers and keeps going, recording these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable message.
    pub message: String,
    /// Location.
    pub span: Span,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {}", self.message, self.span)
    }
}

impl std::error::Error for ParseError {}

/// A fully parsed PHP file: the node arena, the top-level statement list
/// and recovered errors. Dereferences to its [`Arena`], so `file.expr(id)`
/// etc. work directly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParsedFile {
    /// Flat node storage for everything in the file.
    pub arena: Arena,
    /// Top-level statements (functions/classes appear as statements, as in
    /// PHP).
    pub top: StmtRange,
    /// Parse errors recovered from.
    pub errors: Vec<ParseError>,
}

impl ParsedFile {
    /// Whether the file parsed without any recovered errors.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }

    /// The top-level statement ids.
    pub fn top_stmts(&self) -> &[StmtId] {
        self.arena.stmt_list(self.top)
    }
}

impl std::ops::Deref for ParsedFile {
    type Target = Arena;
    fn deref(&self) -> &Arena {
        &self.arena
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cast_sanitization_classes() {
        assert!(CastKind::Int.sanitizes());
        assert!(CastKind::Bool.sanitizes());
        assert!(!CastKind::String.sanitizes());
        assert!(!CastKind::Array.sanitizes());
    }

    #[test]
    fn assign_op_reads_target() {
        assert!(!AssignOp::Assign.reads_target());
        assert!(AssignOp::ConcatAssign.reads_target());
        assert!(AssignOp::AddAssign.reads_target());
    }

    #[test]
    fn expr_spans_and_node_ids() {
        let mut a = Arena::new();
        let e = a.alloc_expr(Expr::var("$x", 7));
        assert_eq!(a[e].span().line, 7);
        let arg = a.alloc_expr(Expr::str("v", 7));
        let args = a.alloc_args(vec![Arg::pos(arg)]);
        let call = a.alloc_expr(Expr::Call {
            callee: Callee::Function("f".into()),
            args,
            span: Span::at(7),
        });
        assert_eq!(a[call].span().line, 7);
        assert_eq!(a.node_count(), 3);
        assert_eq!(a.args(args).len(), 1);
        assert_eq!(a.slice_count(), 1);
        assert!(a.arena_bytes() > 0);
    }

    #[test]
    fn empty_ranges_allocate_no_slices() {
        let mut a = Arena::new();
        let r = a.alloc_expr_list(vec![]);
        assert!(r.is_empty());
        assert_eq!(a.slice_count(), 0);
        assert!(a.expr_list(r).is_empty());
    }

    #[test]
    fn class_method_lookup_is_case_insensitive() {
        let mut a = Arena::new();
        let body = StmtRange::EMPTY;
        let members = a.alloc_members(vec![ClassMember::Method(
            Modifiers::default(),
            FunctionDecl {
                name: "Render".into(),
                params: ParamRange::EMPTY,
                by_ref: false,
                body,
                span: Span::at(1),
            },
        )]);
        let c = ClassDecl {
            name: "C".into(),
            kind: ClassKind::Class,
            parent: None,
            interfaces: SymRange::EMPTY,
            is_abstract: false,
            is_final: false,
            members,
            span: Span::at(1),
        };
        assert!(c.method(&a, "render").is_some());
        assert!(c.method(&a, "RENDER").is_some());
        assert!(c.method(&a, "missing").is_none());
    }

    #[test]
    fn member_as_name() {
        let mut a = Arena::new();
        assert_eq!(Member::Name("p".into()).as_name(), Some("p"));
        let dyn_e = a.alloc_expr(Expr::var("$f", 1));
        assert_eq!(Member::Dynamic(dyn_e).as_name(), None);
    }
}
