//! Lowered intermediate representation.
//!
//! After second-order **specialization** (see [`crate::specialize`]) every
//! predicate is first-order. Rules are lowered from the AST into this IR:
//!
//! * all variables are numbered ([`Var`]), with names kept in a side table
//!   for diagnostics;
//! * `implies`/`iff`/`xor`/`forall` are desugared into `and`/`or`/`not`/
//!   `exists`;
//! * infix arithmetic in *term positions* is flattened into built-in atoms
//!   over fresh variables (`R(x, y-1)` ⇒ `subtract(y,1,t) ∧ R(x,t)`);
//! * `x in E` domains become explicit [`Formula::Member`] conjuncts;
//! * applications of *predicates* become [`Atom`]s / [`RExpr::PApp`]s;
//!   applications of computed relations become `DynAtom` / `DynPApp`.
//!
//! A rule `def p(params) : body` evaluates to
//! `{ ⟨params(µ)⟩ · t | µ ∈ envs(body), t ∈ ⟦value-part⟧µ }` — for formula
//! bodies the value part is `{⟨⟩}`, so heads alone produce the tuples.
//!
//! The child visitors [`Node::for_each_child`] and
//! [`NodeMut::for_each_child`] are the one definition of the IR's shape.
//! Every structural walk — predicate references here, dependency polarity
//! in [`crate::strata`], and the engine's Δ-variant rewrite and variable
//! references — writes only the arms where it does something of its own
//! and hands every other node to them, so a new node kind is taught to
//! every walk in one place, and the shared and mutable walks list children
//! in one order.

use rel_core::{name, Name, Value};
use rel_syntax::ast::CmpOp;
use std::collections::BTreeMap;
use std::fmt;

/// The reserved base-relation name backing the query parameter `?param`.
/// The `?` prefix cannot appear in a source identifier, so these names can
/// never collide with user relations; the engine injects a singleton
/// relation under this name at execute time (prepared queries, client API
/// v2).
pub fn param_relation(param: &str) -> Name {
    name(format!("?{param}"))
}

/// The bare parameter name of a reserved `?name` relation, if `rel` is
/// one (inverse of [`param_relation`]).
pub fn param_name(rel: &str) -> Option<&str> {
    rel.strip_prefix('?')
}

/// A numbered variable. Names live in [`VarTable`].
pub type Var = u32;

/// Side table mapping variable numbers to source names (for diagnostics).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct VarTable {
    names: Vec<String>,
}

impl VarTable {
    /// Allocate a fresh variable with the given display name.
    pub fn fresh(&mut self, name: impl Into<String>) -> Var {
        self.names.push(name.into());
        (self.names.len() - 1) as Var
    }

    /// Display name of `v`.
    pub fn name(&self, v: Var) -> &str {
        self.names.get(v as usize).map(String::as_str).unwrap_or("?")
    }

    /// Number of variables allocated.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no variables were allocated.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// A term in an atom-argument or head position.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Term {
    /// First-order variable.
    Var(Var),
    /// Tuple variable (binds to a sub-tuple of any length).
    TupleVar(Var),
    /// Constant.
    Const(Value),
}

impl Term {
    /// Is this a tuple variable?
    pub fn is_tuple_var(&self) -> bool {
        matches!(self, Term::TupleVar(_))
    }
}

/// A positive atom `pred(args…)` over a named predicate.
#[derive(Clone, PartialEq, Debug)]
pub struct Atom {
    /// Predicate name (EDB, IDB instance, or builtin).
    pub pred: Name,
    /// Argument terms.
    pub args: Vec<Term>,
}

/// Boolean-valued IR (the grammar's `Formula`).
#[derive(Clone, PartialEq, Debug)]
pub enum Formula {
    /// `{()}`.
    True,
    /// `{}`.
    False,
    /// Conjunction (empty = true).
    Conj(Vec<Formula>),
    /// Disjunction (empty = false).
    Disj(Vec<Formula>),
    /// Negation.
    Not(Box<Formula>),
    /// Full application of a named predicate; free variables in `args` are
    /// *bound* by matching (relational application, §4.3).
    Atom(Atom),
    /// Full application of a computed relation.
    DynAtom {
        /// Expression producing the relation to match against.
        rel: Box<RExpr>,
        /// Argument terms (may bind).
        args: Vec<Term>,
    },
    /// Comparison; the sides are expressions evaluating to unary relations
    /// (typically singleton values). `=` can bind a free variable on one
    /// side; other operators only filter.
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left side.
        lhs: Box<RExpr>,
        /// Right side.
        rhs: Box<RExpr>,
    },
    /// `term ∈ unary-relation` (lowered `x in E` domains).
    Member {
        /// The member term.
        term: Term,
        /// The domain expression.
        of: Box<RExpr>,
    },
    /// Existential quantification. Domains were lowered to `Member`
    /// conjuncts in `body`.
    Exists {
        /// Quantified first-order variables.
        vars: Vec<Var>,
        /// Quantified tuple variables.
        tuple_vars: Vec<Var>,
        /// Scope.
        body: Box<Formula>,
        /// Variable-id range `[lo, hi)` allocated while lowering this
        /// scope: every binding in the range is *local* and is discarded
        /// (projected away) when the quantifier closes. Bindings of outer
        /// variables established inside the scope survive.
        intro: (Var, Var),
    },
    /// An arbitrary expression used in formula position: holds iff the
    /// relation contains the empty tuple.
    OfExpr(Box<RExpr>),
}

impl Formula {
    /// Build a conjunction, flattening nested `Conj`s and dropping `True`s
    /// recursively.
    pub fn conj(items: Vec<Formula>) -> Formula {
        fn flatten(items: Vec<Formula>, out: &mut Vec<Formula>) {
            for f in items {
                match f {
                    Formula::True => {}
                    Formula::Conj(inner) => flatten(inner, out),
                    other => out.push(other),
                }
            }
        }
        let mut out = Vec::with_capacity(items.len());
        flatten(items, &mut out);
        match out.len() {
            0 => Formula::True,
            1 => out.pop().expect("len checked"),
            _ => Formula::Conj(out),
        }
    }
}

/// Relation-valued IR (the grammar's `Expr`).
#[derive(Clone, PartialEq, Debug)]
pub enum RExpr {
    /// Whole named relation.
    Pred(Name),
    /// Partial application `pred[args…]`; argument terms must be bound at
    /// evaluation time; evaluates to the suffix relation.
    PApp {
        /// Predicate.
        pred: Name,
        /// Bound-prefix terms.
        args: Vec<Term>,
    },
    /// Partial application of a computed relation.
    DynPApp {
        /// Relation expression.
        rel: Box<RExpr>,
        /// Bound-prefix terms.
        args: Vec<Term>,
    },
    /// Cartesian product (empty = `{()}` i.e. true).
    Product(Vec<RExpr>),
    /// Union (empty = `{}` i.e. false).
    Union(Vec<RExpr>),
    /// Singleton tuple `{⟨t₁ … tₙ⟩}`; tuple-variable terms splice their
    /// bound sub-tuple.
    Singleton(Vec<Term>),
    /// `body where cond`.
    Where {
        /// Value part.
        body: Box<RExpr>,
        /// Condition.
        cond: Box<Formula>,
    },
    /// Abstraction `[params] : body` — for each binding of `params`
    /// (satisfying domains) emit `⟨params⟩ · t` for `t ∈ body`.
    Abstract {
        /// Bound parameters.
        params: Vec<AbsParam>,
        /// Body.
        body: Box<RExpr>,
        /// Variable-id range allocated while lowering this abstraction
        /// (params and everything below). Open evaluation groups results
        /// by bindings of variables *outside* this range — those are the
        /// outer free variables (e.g. the group-by variables of an
        /// aggregation input).
        intro: (Var, Var),
    },
    /// The `reduce` primitive (§5.2): fold the last column of `input`
    /// with the binary operation denoted by `op`.
    Reduce {
        /// Operation relation (e.g. `add`).
        op: Box<RExpr>,
        /// Relation whose last column is folded.
        input: Box<RExpr>,
        /// Variable-id range allocated while lowering `input`; bindings
        /// outside the range are group keys (grouped aggregation, §5.2).
        intro: (Var, Var),
    },
    /// Application of a builtin operation to unary-relation-valued
    /// arguments (lowered infix arithmetic): the result is the set of
    /// outputs for every combination of argument values — empty operands
    /// propagate emptiness (`sum[∅] + 1 = ∅`), matching the first-order
    /// application semantics of Fig. 3.
    BuiltinApp {
        /// Canonical builtin name (e.g. `rel_primitive_add`).
        op: Name,
        /// Input argument expressions (the builtin's last position is the
        /// produced output).
        args: Vec<RExpr>,
    },
    /// Dot-join `a . b` (join last column of `a` with first of `b`,
    /// dropping the join position).
    DotJoin(Box<RExpr>, Box<RExpr>),
    /// Left override `a <++ b`.
    LeftOverride(Box<RExpr>, Box<RExpr>),
    /// A formula in expression position: `{()}` if it holds, else `{}`.
    OfFormula(Box<Formula>),
}

/// A parameter of an abstraction or rule head.
#[derive(Clone, PartialEq, Debug)]
pub enum AbsParam {
    /// Plain first-order variable — must be grounded by the body (safety).
    Val(Var),
    /// Tuple variable.
    Tup(Var),
    /// Domain-restricted variable `x in E`.
    In(Var, Box<RExpr>),
    /// Fixed constant position (e.g. the `0` in `APSP(…,0)`).
    Fixed(Value),
}

impl AbsParam {
    /// The variable introduced, if any.
    pub fn var(&self) -> Option<Var> {
        match self {
            AbsParam::Val(v) | AbsParam::Tup(v) | AbsParam::In(v, _) => Some(*v),
            AbsParam::Fixed(_) => None,
        }
    }
}

/// A lowered rule.
#[derive(Clone, PartialEq, Debug)]
pub struct Rule {
    /// Head predicate.
    pub pred: Name,
    /// Head parameters in order.
    pub params: Vec<AbsParam>,
    /// Body; its tuples are appended to the head parameters' values.
    pub body: RExpr,
    /// Variable name table for this rule.
    pub vars: VarTable,
}

/// A lowered integrity constraint: violation witnesses are the tuples of a
/// rule-like query; the constraint holds iff that query is empty (for
/// parameterless constraints the body formula must hold).
#[derive(Clone, PartialEq, Debug)]
pub struct ConstraintIr {
    /// Constraint name.
    pub name: Name,
    /// Witness parameters (empty = boolean constraint).
    pub params: Vec<AbsParam>,
    /// For parameterised constraints: the *violation* formula (already
    /// negated as needed). For boolean constraints: the requirement itself.
    pub body: RExpr,
    /// True when `body` computes violations (non-empty ⇒ abort); false when
    /// `body` is the requirement (false ⇒ abort).
    pub is_violation_query: bool,
    /// Variable table.
    pub vars: VarTable,
}

/// How a predicate may be evaluated (assigned by safety analysis).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EvalMode {
    /// Fully materialisable bottom-up with no external bindings.
    Materialize,
    /// Requires the first `bound_prefix` arguments bound at call sites;
    /// evaluated on demand with tabling.
    Demand {
        /// Number of leading arguments that must be bound.
        bound_prefix: usize,
    },
}

/// Per-predicate metadata.
#[derive(Clone, Debug)]
pub struct PredInfo {
    /// Evaluation mode.
    pub mode: EvalMode,
    /// Stratum index (position in [`Module::strata`]).
    pub stratum: usize,
}

/// One stratum: a set of mutually recursive predicates (an SCC of the
/// dependency graph), evaluated together.
#[derive(Clone, Debug)]
pub struct Stratum {
    /// Predicates in this stratum.
    pub preds: Vec<Name>,
    /// Whether any member depends on itself (directly or mutually).
    pub recursive: bool,
    /// Whether all intra-stratum dependencies are monotone (no negation /
    /// aggregation / emptiness through the cycle). Monotone strata use
    /// semi-naive evaluation; non-monotone ones use partial-fixpoint
    /// iteration (see DESIGN.md §2.3).
    pub monotone: bool,
}

/// The relations one stratum's rules *read* (its inputs plus its own SCC
/// members), split by the polarity of the reference. A name can appear in
/// both lists when different occurrences read it in different contexts.
///
/// Computed by [`crate::analyze`] from its one walk over the rules and
/// stored on [`Module::stratum_reads`]; the engine's incremental-maintenance
/// subsystem uses the split to decide whether a changed input admits
/// delta-seeded semi-naive restart (insertions into positively-read
/// inputs) or forces a stratum recomputation (any change to a
/// negatively-read input — negation, aggregation, override).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StratumReads {
    /// Names read only through monotone contexts, sorted and deduplicated.
    pub positive: Vec<Name>,
    /// Names read under negation, aggregation input, or left-override,
    /// sorted and deduplicated.
    pub negative: Vec<Name>,
}

impl StratumReads {
    /// Every name the stratum reads: the sorted positive list followed by
    /// the sorted negative list (not globally sorted; a name read in both
    /// polarities appears twice).
    pub fn all(&self) -> impl Iterator<Item = &Name> {
        self.positive.iter().chain(self.negative.iter())
    }

    /// Does the stratum read any of the given names (either polarity)?
    pub fn reads_any(&self, names: &std::collections::BTreeSet<Name>) -> bool {
        self.all().any(|n| names.contains(n))
    }

    /// Is `name` read under a non-monotone context (negation, aggregation,
    /// override) anywhere in the stratum?
    pub fn reads_negatively(&self, name: &Name) -> bool {
        self.negative.binary_search(name).is_ok()
    }

    /// Is `name` read in a monotone context anywhere in the stratum?
    pub fn reads_positively(&self, name: &Name) -> bool {
        self.positive.binary_search(name).is_ok()
    }
}

/// A fully analysed program, ready for the engine.
///
/// [`Module::strata`], [`Module::stratum_deps`] and
/// [`Module::stratum_reads`] are filled together, one entry per stratum,
/// by every producer (`rel_sema::analyze`, and the engine's split of a
/// query against its library); consumers index all three by stratum and
/// keep no fallback for a module where they disagree.
#[derive(Clone, Debug, Default)]
pub struct Module {
    /// Rules grouped by head predicate.
    pub rules: BTreeMap<Name, Vec<Rule>>,
    /// Integrity constraints.
    pub constraints: Vec<ConstraintIr>,
    /// Evaluation strata in dependency order.
    pub strata: Vec<Stratum>,
    /// The condensation's dependency edges: `stratum_deps[i]` holds the
    /// (sorted, deduplicated) indices of the strata that stratum `i` reads
    /// from. Since [`Module::strata`] is in dependency order, every entry
    /// of `stratum_deps[i]` is `< i`. The engine's parallel scheduler
    /// walks this DAG: a stratum may materialize as soon as all of its
    /// dependency strata have, independent strata concurrently.
    pub stratum_deps: Vec<Vec<usize>>,
    /// Per-stratum read sets (same indexing as [`Module::strata`]): the
    /// relation names each stratum's rules reference, split by polarity.
    /// Together with [`Module::stratum_deps`] this is what
    /// [`Module::dependent_cone`] — and the engine's incremental
    /// transaction maintenance — is computed from.
    pub stratum_reads: Vec<StratumReads>,
    /// Per-predicate info.
    pub pred_info: BTreeMap<Name, PredInfo>,
    /// Bare names of the query parameters (`?name` placeholders) this
    /// module references, sorted. A module with a non-empty parameter list
    /// can only be executed with bindings for every listed name (see the
    /// engine's `Prepared::execute_with`).
    pub params: Vec<Name>,
}

impl Module {
    /// All IDB predicate names (those with rules).
    pub fn idb_preds(&self) -> impl Iterator<Item = &Name> {
        self.rules.keys()
    }

    /// Rules for one predicate (empty slice if none).
    pub fn rules_for(&self, pred: &str) -> &[Rule] {
        self.rules.get(pred).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The *dependent cone* of a set of touched base relations: the
    /// (sorted) indices of every stratum whose result can differ once the
    /// touched relations change. A stratum is in the cone when
    ///
    /// * one of its rules reads a touched name (either polarity),
    /// * one of its own predicates *is* a touched name (a base relation
    ///   feeding the predicate's EDB seed changed), or
    /// * it depends — transitively, via [`Module::stratum_deps`] — on an
    ///   in-cone stratum.
    ///
    /// Everything **outside** the cone is guaranteed to re-materialize to
    /// its previous value, so an incremental engine may reuse the
    /// pre-state result wholesale (the engine's `incremental` module does
    /// exactly that). Because [`Module::strata`] is in dependency order,
    /// one forward pass closes the cone transitively.
    pub fn dependent_cone(&self, touched: &std::collections::BTreeSet<Name>) -> Vec<usize> {
        let n = self.strata.len();
        let mut in_cone = vec![false; n];
        for i in 0..n {
            in_cone[i] = self.strata[i].preds.iter().any(|p| touched.contains(p))
                || self.stratum_reads[i].reads_any(touched)
                || self.stratum_deps[i].iter().any(|&d| in_cone[d]);
        }
        in_cone
            .iter()
            .enumerate()
            .filter_map(|(i, &in_c)| in_c.then_some(i))
            .collect()
    }
}

/// A node of the lowered IR, for the child visitors: a formula or a
/// relation expression.
#[derive(Clone, Copy, Debug)]
pub enum Node<'a> {
    /// A formula.
    Formula(&'a Formula),
    /// A relation expression.
    RExpr(&'a RExpr),
}

/// A mutable node of the lowered IR (see [`Node`]).
#[derive(Debug)]
pub enum NodeMut<'a> {
    /// A formula.
    Formula(&'a mut Formula),
    /// A relation expression.
    RExpr(&'a mut RExpr),
}

impl<'a> Node<'a> {
    /// Call `f` on each child node, in order: operands and list items left
    /// to right, a `where`'s body before its condition, an abstraction's
    /// `x in D` domains before its body, a `reduce`'s operation before its
    /// input. Terms are not nodes; a `BuiltinApp`'s operation is a
    /// primitive's name, not a child.
    ///
    /// This and [`NodeMut::for_each_child`] are the one definition of the
    /// IR's shape: every walker matches only the nodes it treats specially
    /// and hands every other node to them.
    pub fn for_each_child(self, f: &mut impl FnMut(Node<'a>)) {
        match self {
            Node::Formula(x) => match x {
                Formula::True | Formula::False | Formula::Atom(_) => {}
                Formula::Conj(items) | Formula::Disj(items) => {
                    items.iter().for_each(|i| f(Node::Formula(i)))
                }
                Formula::Not(g) | Formula::Exists { body: g, .. } => f(Node::Formula(g)),
                Formula::DynAtom { rel: e, .. }
                | Formula::Member { of: e, .. }
                | Formula::OfExpr(e) => f(Node::RExpr(e)),
                Formula::Cmp { lhs, rhs, .. } => {
                    f(Node::RExpr(lhs));
                    f(Node::RExpr(rhs));
                }
            },
            Node::RExpr(x) => match x {
                RExpr::Pred(_) | RExpr::PApp { .. } | RExpr::Singleton(_) => {}
                RExpr::DynPApp { rel: e, .. } => f(Node::RExpr(e)),
                RExpr::Product(es) | RExpr::Union(es) | RExpr::BuiltinApp { args: es, .. } => {
                    es.iter().for_each(|e| f(Node::RExpr(e)))
                }
                RExpr::Where { body, cond } => {
                    f(Node::RExpr(body));
                    f(Node::Formula(cond));
                }
                RExpr::Abstract { params, body, .. } => {
                    for p in params {
                        if let AbsParam::In(_, dom) = p {
                            f(Node::RExpr(dom));
                        }
                    }
                    f(Node::RExpr(body));
                }
                RExpr::Reduce { op: a, input: b, .. }
                | RExpr::DotJoin(a, b)
                | RExpr::LeftOverride(a, b) => {
                    f(Node::RExpr(a));
                    f(Node::RExpr(b));
                }
                RExpr::OfFormula(g) => f(Node::Formula(g)),
            },
        }
    }
}

impl<'a> NodeMut<'a> {
    /// [`Node::for_each_child`] with mutable access: the same children in
    /// the same order.
    pub fn for_each_child(self, f: &mut impl FnMut(NodeMut<'a>)) {
        match self {
            NodeMut::Formula(x) => match x {
                Formula::True | Formula::False | Formula::Atom(_) => {}
                Formula::Conj(items) | Formula::Disj(items) => {
                    items.iter_mut().for_each(|i| f(NodeMut::Formula(i)))
                }
                Formula::Not(g) | Formula::Exists { body: g, .. } => f(NodeMut::Formula(g)),
                Formula::DynAtom { rel: e, .. }
                | Formula::Member { of: e, .. }
                | Formula::OfExpr(e) => f(NodeMut::RExpr(e)),
                Formula::Cmp { lhs, rhs, .. } => {
                    f(NodeMut::RExpr(lhs));
                    f(NodeMut::RExpr(rhs));
                }
            },
            NodeMut::RExpr(x) => match x {
                RExpr::Pred(_) | RExpr::PApp { .. } | RExpr::Singleton(_) => {}
                RExpr::DynPApp { rel: e, .. } => f(NodeMut::RExpr(e)),
                RExpr::Product(es) | RExpr::Union(es) | RExpr::BuiltinApp { args: es, .. } => {
                    es.iter_mut().for_each(|e| f(NodeMut::RExpr(e)))
                }
                RExpr::Where { body, cond } => {
                    f(NodeMut::RExpr(body));
                    f(NodeMut::Formula(cond));
                }
                RExpr::Abstract { params, body, .. } => {
                    for p in params {
                        if let AbsParam::In(_, dom) = p {
                            f(NodeMut::RExpr(dom));
                        }
                    }
                    f(NodeMut::RExpr(body));
                }
                RExpr::Reduce { op: a, input: b, .. }
                | RExpr::DotJoin(a, b)
                | RExpr::LeftOverride(a, b) => {
                    f(NodeMut::RExpr(a));
                    f(NodeMut::RExpr(b));
                }
                RExpr::OfFormula(g) => f(NodeMut::Formula(g)),
            },
        }
    }
}

/// Visit every predicate name referenced below `n`, in child order.
fn visit_preds(n: Node<'_>, visit: &mut impl FnMut(&Name)) {
    match n {
        Node::Formula(Formula::Atom(Atom { pred, .. }))
        | Node::RExpr(RExpr::Pred(pred) | RExpr::PApp { pred, .. }) => visit(pred),
        _ => n.for_each_child(&mut |c| visit_preds(c, visit)),
    }
}

/// The head domains and the body of a rule or constraint, as nodes.
fn rule_nodes<'a>(params: &'a [AbsParam], body: &'a RExpr) -> impl Iterator<Item = Node<'a>> {
    params
        .iter()
        .filter_map(|p| match p {
            AbsParam::In(_, dom) => Some(Node::RExpr(dom)),
            _ => None,
        })
        .chain([Node::RExpr(body)])
}

/// Visit every predicate name a rule references (head domains + body), in
/// [`Node::for_each_child`] order.
pub fn visit_rule_preds(rule: &Rule, visit: &mut impl FnMut(&Name)) {
    rule_nodes(&rule.params, &rule.body).for_each(|n| visit_preds(n, visit));
}

/// Visit every predicate name an integrity constraint references
/// (witness-parameter domains + body). The engine's incremental commit
/// path uses this to decide which constraints sit inside the dependent
/// cone of a transaction's touched relations and must be re-verified
/// against the post-change state.
pub fn visit_constraint_preds(c: &ConstraintIr, visit: &mut impl FnMut(&Name)) {
    rule_nodes(&c.params, &c.body).for_each(|n| visit_preds(n, visit));
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "v{v}"),
            Term::TupleVar(v) => write!(f, "v{v}..."),
            Term::Const(c) => write!(f, "{c}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_table() {
        let mut t = VarTable::default();
        let x = t.fresh("x");
        let y = t.fresh("y");
        assert_eq!(t.name(x), "x");
        assert_eq!(t.name(y), "y");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn conj_flattens() {
        let f = Formula::conj(vec![
            Formula::True,
            Formula::Conj(vec![Formula::False, Formula::True]),
        ]);
        assert_eq!(f, Formula::False);
        assert_eq!(Formula::conj(vec![]), Formula::True);
    }

    #[test]
    fn abs_param_vars() {
        assert_eq!(AbsParam::Val(3).var(), Some(3));
        assert_eq!(AbsParam::Fixed(Value::int(0)).var(), None);
    }

    /// The node kinds with two or more children (an abstraction counts when
    /// it has a domain), for the coverage check below.
    fn multi_child_kind(n: Node<'_>) -> Option<&'static str> {
        Some(match n {
            Node::Formula(Formula::Conj(_)) => "and",
            Node::Formula(Formula::Disj(_)) => "or",
            Node::Formula(Formula::Cmp { .. }) => "cmp",
            Node::RExpr(RExpr::Product(_)) => "product",
            Node::RExpr(RExpr::Union(_)) => "union",
            Node::RExpr(RExpr::Where { .. }) => "where",
            Node::RExpr(RExpr::Abstract { params, .. })
                if params.iter().any(|p| matches!(p, AbsParam::In(..))) =>
            {
                "abstract"
            }
            Node::RExpr(RExpr::Reduce { .. }) => "reduce",
            Node::RExpr(RExpr::BuiltinApp { .. }) => "builtin",
            Node::RExpr(RExpr::DotJoin(..)) => "dot",
            Node::RExpr(RExpr::LeftOverride(..)) => "override",
            _ => return None,
        })
    }

    #[test]
    fn predicate_visits_reach_every_domain() {
        let m = crate::compile(
            "def sum[{A}] : reduce[add, A]\n\
             def Q[x in V] : sum[[y in W] : E[x, y]]",
        )
        .unwrap();
        let mut seen = Vec::new();
        for rule in m.rules.values().flatten() {
            visit_rule_preds(rule, &mut |p| seen.push(p.to_string()));
        }
        for p in ["V", "W", "E"] {
            assert!(seen.iter().any(|s| s == p), "{p} not visited: {seen:?}");
        }
    }

    #[test]
    fn shared_and_mutable_visitors_list_children_in_one_order() {
        fn shared(n: Node<'_>, order: &mut Vec<usize>, kinds: &mut Vec<&'static str>) {
            order.push(match n {
                Node::Formula(f) => f as *const Formula as usize,
                Node::RExpr(e) => e as *const RExpr as usize,
            });
            kinds.extend(multi_child_kind(n));
            n.for_each_child(&mut |c| shared(c, order, kinds));
        }
        fn mutable(n: NodeMut<'_>, order: &mut Vec<usize>) {
            order.push(match &n {
                NodeMut::Formula(f) => &**f as *const Formula as usize,
                NodeMut::RExpr(e) => &**e as *const RExpr as usize,
            });
            n.for_each_child(&mut |c| mutable(c, order));
        }
        let mut m = crate::compile(
            "def sum[{A}] : reduce[add, A]\n\
             def P(x, y) : E(x, y) and (F(x, y) or not G(x)) and x + 1 < y\n\
             def Q[x in V] : sum[[y in W] : E[x, y] where F(x, y)]\n\
             def R(x, y) : {E.F; E <++ F}(x, y) and (V, W)(x, y)",
        )
        .unwrap();
        let mut kinds = Vec::new();
        for rule in m.rules.values_mut().flatten() {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            shared(Node::RExpr(&rule.body), &mut a, &mut kinds);
            mutable(NodeMut::RExpr(&mut rule.body), &mut b);
            assert_eq!(a, b, "child orders diverged in {:?}", rule.body);
        }
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(
            kinds,
            [
                "abstract", "and", "builtin", "cmp", "dot", "or", "override", "product",
                "reduce", "union", "where"
            ]
        );
    }
}
