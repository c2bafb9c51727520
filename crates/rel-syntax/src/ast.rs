//! Abstract syntax tree for Rel, covering the grammar of Figure 2 plus the
//! concrete notation used in the paper's examples.
//!
//! A single [`Expr`] type covers the grammar's `Expr` and `Formula`
//! nonterminals; semantic analysis checks "formula-ness" (guaranteed
//! evaluation to a boolean, i.e. arity-0 relation) where the grammar
//! requires it. This keeps the parser simple and matches the paper's note
//! that `Formula` is "a subclass of `RelExpression` for which we can
//! statically infer that they produce only Boolean values" (§5.3.1).

use rel_core::Value;

/// A whole Rel program: a sequence of definitions and integrity
/// constraints. Rule order is irrelevant to semantics (§3.3).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Program {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

impl Program {
    /// All `def` items.
    pub fn defs(&self) -> impl Iterator<Item = &Def> {
        self.items.iter().filter_map(|i| match i {
            Item::Def(d) => Some(d),
            _ => None,
        })
    }

    /// All `ic` items.
    pub fn constraints(&self) -> impl Iterator<Item = &Constraint> {
        self.items.iter().filter_map(|i| match i {
            Item::Constraint(c) => Some(c),
            _ => None,
        })
    }

    /// Concatenate two programs (library + user program).
    pub fn extend(&mut self, other: Program) {
        self.items.extend(other.items);
    }
}

/// A top-level item.
#[derive(Clone, PartialEq, Debug)]
pub enum Item {
    /// `def Name …` rule.
    Def(Def),
    /// `ic name(params) requires F` integrity constraint (§3.5).
    Constraint(Constraint),
}

/// One rule: `def RName Abstraction` (form (2) of the paper). The common
/// forms `def R(x, y) : F` and `def R[x] : e` are abstractions whose outer
/// braces were omitted.
#[derive(Clone, PartialEq, Debug)]
pub struct Def {
    /// Relation being (partially) defined. Multiple rules for one name
    /// union their results (§3.3). Infix operator definitions like
    /// `def (+)(x,y,z) : …` use the operator's lexeme (`"+"`) as the name.
    pub name: String,
    /// Head binding list.
    pub params: Vec<Binding>,
    /// Paren heads (form 3a) expect a boolean body; bracket heads
    /// (form 3b) allow a general expression body.
    pub style: BindStyle,
    /// Right-hand side.
    pub body: Expr,
}

/// An integrity constraint: `ic name(params) requires F`.
///
/// With parameters, the constraint relation is populated with violating
/// values and the transaction aborts if it is non-empty; without
/// parameters the formula itself must hold (§3.5).
#[derive(Clone, PartialEq, Debug)]
pub struct Constraint {
    /// Constraint name (diagnostic handle).
    pub name: String,
    /// Violation-witness parameters (possibly empty).
    pub params: Vec<Binding>,
    /// The requirement.
    pub body: Expr,
}

/// Whether an abstraction/head uses `(...)` (formula body) or `[...]`
/// (expression body).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BindStyle {
    /// `(x, y) : Formula` — form (3a).
    Paren,
    /// `[x, y] : Expr` — form (3b).
    Bracket,
}

/// A binding in a head, abstraction, or quantifier
/// (grammar nonterminals `FOBinding` / `Binding`).
#[derive(Clone, PartialEq, Debug)]
pub enum Binding {
    /// Ordinary first-order variable `x`.
    Var(String),
    /// Tuple variable `x...`.
    TupleVar(String),
    /// Relation variable `{A}` (second-order parameter).
    RelVar(String),
    /// Range-restricted variable `x in R` (quantifier/abstraction domains).
    In(String, Expr),
    /// Constant binding (e.g. the `0` in `def APSP({V},{E},x,y,0)`), or the
    /// `:Name` symbol in `def delete(:R, x…)`.
    Lit(Value),
    /// Anonymous binding `_` (allowed in heads of `ic`s and wildcard-ish
    /// positions).
    Wildcard,
}

impl Binding {
    /// The bound variable's name, if this binding introduces one.
    pub fn var_name(&self) -> Option<&str> {
        match self {
            Binding::Var(v) | Binding::TupleVar(v) | Binding::In(v, _) => Some(v),
            Binding::RelVar(v) => Some(v),
            Binding::Lit(_) | Binding::Wildcard => None,
        }
    }
}

/// Comparison operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Concrete syntax.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Neq => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// Binary arithmetic operators (each has a relational library equivalent,
/// §3.2: `add` for `+`, `multiply` for `*`, …).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArithOp {
    /// `+` / `add`
    Add,
    /// `-` / `subtract`
    Sub,
    /// `*` / `multiply`
    Mul,
    /// `/` / `divide`
    Div,
    /// `%` / `modulo`
    Mod,
    /// `^` / `power`
    Pow,
}

impl ArithOp {
    /// Concrete syntax.
    pub fn symbol(self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
            ArithOp::Mod => "%",
            ArithOp::Pow => "^",
        }
    }

    /// The name of the ternary built-in relation implementing this
    /// operator (`add(x, y, z)` ⇔ `x + y = z`, §3.2).
    pub fn relation_name(self) -> &'static str {
        match self {
            ArithOp::Add => "add",
            ArithOp::Sub => "subtract",
            ArithOp::Mul => "multiply",
            ArithOp::Div => "divide",
            ArithOp::Mod => "modulo",
            ArithOp::Pow => "power",
        }
    }
}

/// First-/second-order argument annotation (Addendum A): `?{e}` forces a
/// first-order (value) reading, `&{e}` a second-order (relation) reading.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArgAnnotation {
    /// Unannotated — the engine infers the order from the callee.
    None,
    /// `?{…}` — first-order argument.
    First,
    /// `&{…}` — second-order argument.
    Second,
}

/// One argument of an application.
#[derive(Clone, PartialEq, Debug)]
pub struct Arg {
    /// The argument expression (wildcards are `Expr::Wildcard`/
    /// `Expr::TupleWildcard`).
    pub expr: Expr,
    /// Optional `?`/`&` annotation.
    pub ann: ArgAnnotation,
}

impl Arg {
    /// Unannotated argument.
    pub fn plain(expr: Expr) -> Self {
        Arg { expr, ann: ArgAnnotation::None }
    }
}

/// Application style: full `R(args)` (boolean) vs partial `R[args]`
/// (relation of matching suffixes) — §4.3.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AppStyle {
    /// `R(args)` — all arguments supplied; evaluates to a boolean.
    Full,
    /// `R[args]` — prefix arguments; evaluates to the suffix relation.
    Partial,
}

/// Expressions (and formulas — see module docs).
#[derive(Clone, PartialEq, Debug)]
pub enum Expr {
    /// Constant literal.
    Lit(Value),
    /// Identifier: variable or relation name (resolved by sema).
    Ident(String),
    /// Tuple variable reference `x...`.
    TupleVar(String),
    /// Anonymous variable `_` (an existential, scoped just outside the
    /// enclosing atom — §3.1).
    Wildcard,
    /// Anonymous tuple variable `_...`.
    TupleWildcard,
    /// Query-parameter placeholder `?name`: a singleton unary relation
    /// whose value is supplied at execute time by a prepared query's
    /// parameter bindings (client API v2).
    Param(String),
    /// Cartesian product `(e₁, …, eₙ)`; `n = 1` is plain grouping.
    Product(Vec<Expr>),
    /// Union `{e₁; …; eₙ}`; `{}` (empty) is `false`.
    Union(Vec<Expr>),
    /// `e where F` — conditioning (§5.3.1).
    Where(Box<Expr>, Box<Expr>),
    /// Abstraction `[bindings] : e` or `(bindings) : F` (§4.4).
    Abstraction {
        /// Bound variables (with optional domains).
        bindings: Vec<Binding>,
        /// `Bracket` for `[..] : e`, `Paren` for `(..) : F`.
        style: BindStyle,
        /// Body.
        body: Box<Expr>,
    },
    /// Application `f(args)` / `f[args]` (§4.3).
    App {
        /// The applied expression (usually an identifier).
        func: Box<Expr>,
        /// Arguments.
        args: Vec<Arg>,
        /// Full or partial.
        style: AppStyle,
    },
    /// Conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Negation.
    Not(Box<Expr>),
    /// `F implies G` (sugar for `not F or G`).
    Implies(Box<Expr>, Box<Expr>),
    /// `F iff G`.
    Iff(Box<Expr>, Box<Expr>),
    /// `F xor G`.
    Xor(Box<Expr>, Box<Expr>),
    /// `exists((bindings) | F)`.
    Exists {
        /// Quantified variables.
        bindings: Vec<Binding>,
        /// Scope.
        body: Box<Expr>,
    },
    /// `forall((bindings) | F)`.
    Forall {
        /// Quantified variables.
        bindings: Vec<Binding>,
        /// Scope.
        body: Box<Expr>,
    },
    /// Comparison `e₁ ⊙ e₂`.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Infix arithmetic `e₁ ⊕ e₂`.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// Unary minus.
    Neg(Box<Expr>),
    /// Dot-join `A . B` (§5.1): join last column of A with first of B.
    DotJoin(Box<Expr>, Box<Expr>),
    /// Left override `A <++ B` (§5.1).
    LeftOverride(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Identifier helper.
    pub fn ident(s: impl Into<String>) -> Expr {
        Expr::Ident(s.into())
    }

    /// Integer literal helper.
    pub fn int(i: i64) -> Expr {
        Expr::Lit(Value::Int(i))
    }

    /// String literal helper.
    pub fn str(s: &str) -> Expr {
        Expr::Lit(Value::str(s))
    }

    /// The `true` formula `{()}`.
    pub fn true_() -> Expr {
        Expr::Product(vec![])
    }

    /// The `false` formula `{}`.
    pub fn false_() -> Expr {
        Expr::Union(vec![])
    }

    /// Build a full application of a named relation.
    pub fn call(name: &str, args: Vec<Expr>) -> Expr {
        Expr::App {
            func: Box::new(Expr::ident(name)),
            args: args.into_iter().map(Arg::plain).collect(),
            style: AppStyle::Full,
        }
    }

    /// Build a partial application of a named relation.
    pub fn apply(name: &str, args: Vec<Expr>) -> Expr {
        Expr::App {
            func: Box::new(Expr::ident(name)),
            args: args.into_iter().map(Arg::plain).collect(),
            style: AppStyle::Partial,
        }
    }

    /// Fold a conjunction list (empty = `true`).
    pub fn and_all(mut es: Vec<Expr>) -> Expr {
        match es.len() {
            0 => Expr::true_(),
            1 => es.pop().expect("len checked"),
            _ => {
                let mut it = es.into_iter();
                let first = it.next().expect("len checked");
                it.fold(first, |a, b| Expr::And(Box::new(a), Box::new(b)))
            }
        }
    }

    /// Visit every sub-expression (pre-order). [`Expr::map_children`]
    /// rebuilds the same children in the same order.
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Lit(_)
            | Expr::Ident(_)
            | Expr::TupleVar(_)
            | Expr::Wildcard
            | Expr::TupleWildcard
            | Expr::Param(_) => {}
            Expr::Product(es) | Expr::Union(es) => {
                for e in es {
                    e.walk(f);
                }
            }
            Expr::Where(a, b)
            | Expr::And(a, b)
            | Expr::Or(a, b)
            | Expr::Implies(a, b)
            | Expr::Iff(a, b)
            | Expr::Xor(a, b)
            | Expr::Cmp(_, a, b)
            | Expr::Arith(_, a, b)
            | Expr::DotJoin(a, b)
            | Expr::LeftOverride(a, b) => {
                a.walk(f);
                b.walk(f);
            }
            Expr::Not(a) | Expr::Neg(a) => a.walk(f),
            Expr::Abstraction { bindings, body, .. }
            | Expr::Exists { bindings, body }
            | Expr::Forall { bindings, body } => {
                for b in bindings {
                    if let Binding::In(_, d) = b {
                        d.walk(f);
                    }
                }
                body.walk(f);
            }
            Expr::App { func, args, .. } => {
                func.walk(f);
                for a in args {
                    a.expr.walk(f);
                }
            }
        }
    }

    /// Rebuild this node with every child expression replaced by
    /// `f(child)`, called on the children [`Expr::walk`] visits and in the
    /// same order: operands left to right, a binder's `x in D` domains and
    /// then its body, an application's functor and then each [`Arg`].
    /// Binding names, argument annotations, styles and operators are kept;
    /// leaves are cloned.
    ///
    /// This and `walk` are the one definition of the tree's shape: a
    /// rewriter matches only the nodes it treats specially and hands every
    /// other node here, so a new node kind is taught to every rewriter at
    /// once.
    pub fn map_children<E>(
        &self,
        f: &mut impl FnMut(&Expr) -> Result<Expr, E>,
    ) -> Result<Expr, E> {
        fn bx<E>(
            e: &Expr,
            f: &mut impl FnMut(&Expr) -> Result<Expr, E>,
        ) -> Result<Box<Expr>, E> {
            f(e).map(Box::new)
        }
        fn bindings<E>(
            bs: &[Binding],
            f: &mut impl FnMut(&Expr) -> Result<Expr, E>,
        ) -> Result<Vec<Binding>, E> {
            bs.iter()
                .map(|b| match b {
                    Binding::In(v, d) => Ok(Binding::In(v.clone(), f(d)?)),
                    other => Ok(other.clone()),
                })
                .collect()
        }
        Ok(match self {
            Expr::Lit(_)
            | Expr::Ident(_)
            | Expr::TupleVar(_)
            | Expr::Wildcard
            | Expr::TupleWildcard
            | Expr::Param(_) => self.clone(),
            Expr::Product(es) => Expr::Product(es.iter().map(&mut *f).collect::<Result<_, E>>()?),
            Expr::Union(es) => Expr::Union(es.iter().map(&mut *f).collect::<Result<_, E>>()?),
            Expr::Where(a, b) => Expr::Where(bx(a, f)?, bx(b, f)?),
            Expr::And(a, b) => Expr::And(bx(a, f)?, bx(b, f)?),
            Expr::Or(a, b) => Expr::Or(bx(a, f)?, bx(b, f)?),
            Expr::Implies(a, b) => Expr::Implies(bx(a, f)?, bx(b, f)?),
            Expr::Iff(a, b) => Expr::Iff(bx(a, f)?, bx(b, f)?),
            Expr::Xor(a, b) => Expr::Xor(bx(a, f)?, bx(b, f)?),
            Expr::Cmp(op, a, b) => Expr::Cmp(*op, bx(a, f)?, bx(b, f)?),
            Expr::Arith(op, a, b) => Expr::Arith(*op, bx(a, f)?, bx(b, f)?),
            Expr::DotJoin(a, b) => Expr::DotJoin(bx(a, f)?, bx(b, f)?),
            Expr::LeftOverride(a, b) => Expr::LeftOverride(bx(a, f)?, bx(b, f)?),
            Expr::Not(a) => Expr::Not(bx(a, f)?),
            Expr::Neg(a) => Expr::Neg(bx(a, f)?),
            Expr::Abstraction { bindings: bs, style, body } => Expr::Abstraction {
                bindings: bindings(bs, f)?,
                style: *style,
                body: bx(body, f)?,
            },
            Expr::Exists { bindings: bs, body } => {
                Expr::Exists { bindings: bindings(bs, f)?, body: bx(body, f)? }
            }
            Expr::Forall { bindings: bs, body } => {
                Expr::Forall { bindings: bindings(bs, f)?, body: bx(body, f)? }
            }
            Expr::App { func, args, style } => Expr::App {
                func: bx(func, f)?,
                args: args
                    .iter()
                    .map(|a| Ok(Arg { expr: f(&a.expr)?, ann: a.ann }))
                    .collect::<Result<_, E>>()?,
                style: *style,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn true_false_encodings() {
        assert_eq!(Expr::true_(), Expr::Product(vec![]));
        assert_eq!(Expr::false_(), Expr::Union(vec![]));
    }

    #[test]
    fn and_all_folds() {
        let e = Expr::and_all(vec![Expr::ident("a"), Expr::ident("b"), Expr::ident("c")]);
        match e {
            Expr::And(ab, c) => {
                assert_eq!(*c, Expr::ident("c"));
                match *ab {
                    Expr::And(a, b) => {
                        assert_eq!(*a, Expr::ident("a"));
                        assert_eq!(*b, Expr::ident("b"));
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(Expr::and_all(vec![]), Expr::true_());
    }

    #[test]
    fn walk_visits_all() {
        let e = Expr::call("R", vec![Expr::ident("x"), Expr::int(1)]);
        let mut count = 0;
        e.walk(&mut |_| count += 1);
        assert_eq!(count, 4); // App, Ident R, Ident x, Lit 1
    }

    #[test]
    fn binding_var_names() {
        assert_eq!(Binding::Var("x".into()).var_name(), Some("x"));
        assert_eq!(Binding::RelVar("A".into()).var_name(), Some("A"));
        assert_eq!(Binding::Lit(Value::int(0)).var_name(), None);
        assert_eq!(Binding::Wildcard.var_name(), None);
    }
}
