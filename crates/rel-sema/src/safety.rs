//! Safety (range-restriction) analysis — §3.1–3.2 of the paper,
//! following the mode-based approach of "Queries with External
//! Predicates" (ref. 28): built-in relations are infinite but evaluable under
//! *modes*, and an expression is safe when some conjunct ordering grounds
//! every variable from finite sources or mode outputs rooted in finite
//! sources.
//!
//! The analysis works over *sets of bound variables*: [`formula_binds`]
//! and [`expr_binds`] answer whether a conjunct (or an expression) can run
//! once a set of variables is bound, and which variables it binds. They
//! are the one answer to that question: [`infer_modes`] asks it to find
//! each predicate's mode, and the engine's greedy planner asks it, under
//! the variables each batch of environments binds, to pick the next
//! conjunct — so a rule accepted here is a rule the planner can schedule.
//! A central notion is **open evaluation**: a relation-valued expression
//! may ground its own free variables from its internal structure — e.g.
//! the aggregation input `min[(j): exists((z) | E(x,z) ∧ APSP(z,y,j-1))]`
//! grounds the group variables `x, y` from `E` and `APSP`. This is how
//! grouped aggregation generates its groups.
//!
//! The output is an [`EvalMode`] per predicate:
//!
//! * [`EvalMode::Materialize`] — every rule grounds all head variables with
//!   no outside help: the predicate can be computed bottom-up.
//! * [`EvalMode::Demand`] — rules become safe once a prefix of the head
//!   parameters is bound: the predicate is evaluated on demand (tabled),
//!   like `vector[d, i]` (needs `d`) or the digit-summing `addUp` of
//!   Addendum A (needs its argument). This matches the paper's stance that
//!   unsafe expressions "can be written and used in other queries" as long
//!   as the context grounds them — but only applied to a bound prefix: a
//!   demand predicate used whole (`count[g]`) is not evaluable.
//!
//! Predicates with no safe mode at all are rejected, mirroring "the engine
//! never attempts to evaluate an expression that could be unsafe".

use crate::builtins;
use crate::ir::{AbsParam, EvalMode, Formula, RExpr, Rule, Term, Var};
use rel_core::{Name, RelError, RelResult};
use std::collections::{BTreeMap, BTreeSet};

/// Per-predicate evaluation modes, inferred to a fixpoint.
pub fn infer_modes(rules: &BTreeMap<Name, Vec<Rule>>) -> RelResult<BTreeMap<Name, EvalMode>> {
    let mut modes: BTreeMap<Name, EvalMode> = rules
        .keys()
        .map(|k| (k.clone(), EvalMode::Materialize))
        .collect();
    // Iterate to a fixpoint: demand requirements propagate through call
    // chains (bounded: prefixes only grow, capped by arity).
    for _round in 0..rules.len() + 2 {
        let mut changed = false;
        for (pred, rs) in rules {
            let mut needed = match &modes[pred] {
                EvalMode::Materialize => 0,
                EvalMode::Demand { bound_prefix } => *bound_prefix,
            };
            for rule in rs {
                let k = minimal_prefix(rule, &modes).ok_or_else(|| {
                    RelError::unsafe_expr(format!(
                        "no safe evaluation order for a rule of `{pred}`: some \
                         variable cannot be grounded even with all parameters bound"
                    ))
                })?;
                needed = needed.max(k);
            }
            let new_mode = if needed == 0 {
                EvalMode::Materialize
            } else {
                EvalMode::Demand { bound_prefix: needed }
            };
            if new_mode != modes[pred] {
                modes.insert(pred.clone(), new_mode);
                changed = true;
            }
        }
        if !changed {
            return Ok(modes);
        }
    }
    Ok(modes)
}

/// Can the conjunct `f` run once the variables in `bound` are bound?
/// `None` when it cannot; otherwise the variables it newly binds.
/// `demand(p)` is the bound prefix a demand-driven predicate `p` needs,
/// and `None` for every other relation.
pub fn formula_binds(
    f: &Formula,
    bound: &BTreeSet<Var>,
    demand: impl Fn(&Name) -> Option<usize>,
) -> Option<BTreeSet<Var>> {
    Cx { demand }.try_run(f, bound)
}

/// **Open evaluation** check: is the expression `e` evaluable under
/// `bound`, and which of its free variables does it ground? `None` when
/// unevaluable; `demand` as in [`formula_binds`].
pub fn expr_binds(
    e: &RExpr,
    bound: &BTreeSet<Var>,
    demand: impl Fn(&Name) -> Option<usize>,
) -> Option<BTreeSet<Var>> {
    Cx { demand }.expr_open(e, bound)
}

/// Smallest `k` such that binding the first `k` head parameters makes the
/// rule safe, or `None` if no `k` works.
fn minimal_prefix(rule: &Rule, modes: &BTreeMap<Name, EvalMode>) -> Option<usize> {
    let cx = Cx {
        demand: |p: &Name| match modes.get(p) {
            Some(EvalMode::Demand { bound_prefix }) => Some(*bound_prefix),
            _ => None,
        },
    };
    let mut gen: Vec<Formula> = Vec::new();
    for p in &rule.params {
        if let AbsParam::In(v, dom) = p {
            gen.push(Formula::Member { term: Term::Var(*v), of: dom.clone() });
        }
    }
    let head_vars: BTreeSet<Var> = rule.params.iter().filter_map(AbsParam::var).collect();
    (0..=rule.params.len()).find(|&k| {
        let bound = rule.params.iter().take(k).filter_map(AbsParam::var).collect();
        cx.check_body(&rule.body, gen.clone(), &bound, &head_vars)
    })
}

struct Cx<D> {
    demand: D,
}

impl<D: Fn(&Name) -> Option<usize>> Cx<D> {
    /// Check one rule body given pre-collected generator conjuncts. All
    /// `need` variables must end up bound; each branch of a top-level
    /// union is a rule of its own.
    fn check_body(
        &self,
        body: &RExpr,
        gen: Vec<Formula>,
        bound: &BTreeSet<Var>,
        need: &BTreeSet<Var>,
    ) -> bool {
        if let RExpr::Union(branches) = body {
            return branches.iter().all(|br| self.check_body(br, gen.clone(), bound, need));
        }
        self.body_binds(gen, body, bound)
            .is_some_and(|newly| need.iter().all(|v| bound.contains(v) || newly.contains(v)))
    }

    /// What a rule or abstraction body binds: the generator conjuncts
    /// `gen` and the body's formula part scheduled as one conjunction,
    /// then its value part (openly) evaluated.
    fn body_binds(
        &self,
        mut gen: Vec<Formula>,
        body: &RExpr,
        bound: &BTreeSet<Var>,
    ) -> Option<BTreeSet<Var>> {
        let value = match body {
            RExpr::OfFormula(f) => {
                gen.push((**f).clone());
                None
            }
            RExpr::Where { body: value, cond } => {
                gen.push((**cond).clone());
                Some(&**value)
            }
            other => Some(other),
        };
        let mut newly = self.try_run(&Formula::conj(gen), bound)?;
        if let Some(value) = value {
            let mut b = bound.clone();
            b.extend(newly.iter().copied());
            newly.extend(self.expr_open(value, &b)?);
        }
        Some(newly)
    }

    /// Can this conjunct run under `bound`? Returns newly bound vars.
    fn try_run(&self, f: &Formula, bound: &BTreeSet<Var>) -> Option<BTreeSet<Var>> {
        match f {
            Formula::True | Formula::False => Some(BTreeSet::new()),
            Formula::Conj(items) => {
                debug_assert!(
                    !items.iter().any(|g| matches!(g, Formula::Conj(_))),
                    "a Conj directly inside a Conj: build conjunctions with Formula::conj"
                );
                // Greedy: run whatever can run, until nothing is pending.
                let mut b = bound.clone();
                let mut pending: Vec<&Formula> = items.iter().collect();
                while !pending.is_empty() {
                    let before = pending.len();
                    pending.retain(|g| match self.try_run(g, &b) {
                        Some(n) => {
                            b.extend(n);
                            false
                        }
                        None => true,
                    });
                    if pending.len() == before {
                        return None;
                    }
                }
                Some(&b - bound)
            }
            Formula::Disj(branches) => {
                // Only what every branch binds is bound afterwards.
                let mut common: Option<BTreeSet<Var>> = None;
                for br in branches {
                    let n = self.try_run(br, bound)?;
                    common = Some(match common {
                        None => n,
                        Some(c) => &c & &n,
                    });
                }
                Some(common.unwrap_or_default())
            }
            Formula::Not(inner) => {
                // Negation is a filter; the subformula must be evaluable
                // (it may bind its own local variables internally).
                self.try_run(inner, bound)?;
                Some(BTreeSet::new())
            }
            Formula::Atom(a) => self.atom_newly(&a.pred, &a.args, bound),
            Formula::DynAtom { rel, args } => {
                self.expr_open(rel, bound)?;
                Some(new_vars_of(args, bound))
            }
            Formula::Member { term, of } => match &**of {
                RExpr::Pred(p) => {
                    if let Some(b) = builtins::lookup(p) {
                        // Infinite builtin as a domain: check-only (type
                        // tests with the term already bound); anything
                        // else cannot be enumerated.
                        return (b.type_test && term_bound(term, bound)).then(BTreeSet::new);
                    }
                    // Finite relation: generates.
                    Some(new_vars_of(std::slice::from_ref(term), bound))
                }
                other => {
                    let mut out = self.expr_open(other, bound)?;
                    out.extend(new_vars_of(std::slice::from_ref(term), bound));
                    Some(out)
                }
            },
            Formula::Cmp { op, lhs, rhs } => {
                let l_open = self.expr_open(lhs, bound);
                let r_open = self.expr_open(rhs, bound);
                match (l_open, r_open) {
                    (Some(a), Some(b)) => Some(a.union(&b).copied().collect()),
                    (l, r) if *op == rel_syntax::ast::CmpOp::Eq => {
                        // `x = E` binds x when E is evaluable.
                        if let (RExpr::Singleton(ts), Some(rb)) = (&**lhs, &r) {
                            if let [t] = ts.as_slice() {
                                let mut out = rb.clone();
                                out.extend(new_vars_of(std::slice::from_ref(t), bound));
                                return Some(out);
                            }
                        }
                        if let (Some(lb), RExpr::Singleton(ts)) = (&l, &**rhs) {
                            if let [t] = ts.as_slice() {
                                let mut out = lb.clone();
                                out.extend(new_vars_of(std::slice::from_ref(t), bound));
                                return Some(out);
                            }
                        }
                        None
                    }
                    _ => None,
                }
            }
            Formula::Exists { vars, tuple_vars, body, .. } => {
                // All quantified variables must be grounded inside the
                // scope, otherwise the existential ranges over an infinite
                // universe; they do not bind outside it.
                let mut newly = self.try_run(body, bound)?;
                for v in vars.iter().chain(tuple_vars) {
                    if !newly.remove(v) && !bound.contains(v) {
                        return None;
                    }
                }
                Some(newly)
            }
            Formula::OfExpr(e) => self.expr_open(e, bound),
        }
    }

    /// Newly bound vars from an atom over `pred`, or `None` if unschedulable.
    fn atom_newly(
        &self,
        pred: &Name,
        args: &[Term],
        bound: &BTreeSet<Var>,
    ) -> Option<BTreeSet<Var>> {
        if let Some(sig) = builtins::lookup(pred) {
            if args.len() + 1 == sig.arity {
                // Partial application computing the output position:
                // all provided arguments must be bound.
                return args
                    .iter()
                    .all(|t| term_bound(t, bound))
                    .then(BTreeSet::new);
            }
            if args.len() != sig.arity {
                return None;
            }
            'modes: for mode in sig.modes {
                let mut newly = BTreeSet::new();
                for (c, t) in mode.chars().zip(args) {
                    match c {
                        'b' => {
                            if !term_bound(t, bound) {
                                continue 'modes;
                            }
                        }
                        _ => {
                            if let Term::Var(v) = t {
                                if !bound.contains(v) {
                                    newly.insert(*v);
                                }
                            }
                        }
                    }
                }
                return Some(newly);
            }
            return None;
        }
        match (self.demand)(pred) {
            Some(k) => {
                if args.iter().any(|t| matches!(t, Term::TupleVar(_))) {
                    // Tuple-variable args can't be aligned with the bound
                    // prefix statically: only a fully-bound filter runs.
                    return args
                        .iter()
                        .all(|t| term_bound(t, bound))
                        .then(BTreeSet::new);
                }
                if args.len() < k || !args.iter().take(k).all(|t| term_bound(t, bound)) {
                    return None;
                }
                Some(new_vars_of(&args[k..], bound))
            }
            // Materialized IDB or EDB (unknown names are empty EDBs):
            // binds everything.
            None => Some(new_vars_of(args, bound)),
        }
    }

    /// See [`expr_binds`].
    fn expr_open(&self, e: &RExpr, bound: &BTreeSet<Var>) -> Option<BTreeSet<Var>> {
        match e {
            // A bare builtin is an infinite relation, and a demand
            // predicate needs its bound prefix: neither can be used whole.
            // Finite EDB/IDB relations are fine.
            RExpr::Pred(p) => {
                (builtins::lookup(p).is_none() && (self.demand)(p).is_none()).then(BTreeSet::new)
            }
            RExpr::PApp { pred, args } => self.atom_newly(pred, args, bound),
            RExpr::DynPApp { rel, args } => {
                let mut newly = self.expr_open(rel, bound)?;
                newly.extend(new_vars_of(args, bound));
                Some(newly)
            }
            RExpr::Product(es) => {
                // Sequential: later factors may use variables ground by
                // earlier ones (and vice versa — iterate greedily).
                let mut b = bound.clone();
                let mut pending: Vec<&RExpr> = es.iter().collect();
                while !pending.is_empty() {
                    let before = pending.len();
                    pending.retain(|x| match self.expr_open(x, &b) {
                        Some(n) => {
                            b.extend(n);
                            false
                        }
                        None => true,
                    });
                    if pending.len() == before {
                        return None;
                    }
                }
                Some(&b - bound)
            }
            RExpr::Union(es) => {
                let mut common: Option<BTreeSet<Var>> = None;
                for x in es {
                    let n = self.expr_open(x, bound)?;
                    common = Some(match common {
                        None => n,
                        Some(c) => &c & &n,
                    });
                }
                Some(common.unwrap_or_default())
            }
            RExpr::Singleton(ts) => ts.iter().all(|t| term_bound(t, bound)).then(BTreeSet::new),
            RExpr::Where { body, cond } => {
                let mut newly = self.try_run(cond, bound)?;
                let mut b = bound.clone();
                b.extend(newly.iter().copied());
                newly.extend(self.expr_open(body, &b)?);
                Some(newly)
            }
            RExpr::Abstract { params, body, .. } => {
                // A mini-rule: domains + the body's generating part must
                // ground the parameters; free outer variables ground too
                // and propagate out.
                let mut members: Vec<Formula> = Vec::new();
                for p in params {
                    if let AbsParam::In(v, dom) = p {
                        members.push(Formula::Member { term: Term::Var(*v), of: dom.clone() });
                    }
                }
                let mut newly = self.body_binds(members, body, bound)?;
                for v in params.iter().filter_map(AbsParam::var) {
                    if !newly.remove(&v) && !bound.contains(&v) {
                        return None;
                    }
                }
                Some(newly)
            }
            RExpr::Reduce { op, input, .. } => {
                // The op is applied as a binary operation, never
                // materialized — a builtin name (e.g. `add`) is fine.
                if !matches!(&**op, RExpr::Pred(_)) {
                    self.expr_open(op, bound)?;
                }
                self.expr_open(input, bound)
            }
            RExpr::BuiltinApp { args, .. } => {
                let mut newly = BTreeSet::new();
                for a in args {
                    let mut b = bound.clone();
                    b.extend(newly.iter().copied());
                    newly.extend(self.expr_open(a, &b)?);
                }
                Some(newly)
            }
            RExpr::DotJoin(a, b) | RExpr::LeftOverride(a, b) => {
                let na = self.expr_open(a, bound)?;
                let nb = self.expr_open(b, bound)?;
                Some(na.union(&nb).copied().collect())
            }
            RExpr::OfFormula(f) => self.try_run(f, bound),
        }
    }
}

fn term_bound(t: &Term, bound: &BTreeSet<Var>) -> bool {
    match t {
        Term::Const(_) => true,
        Term::Var(v) | Term::TupleVar(v) => bound.contains(v),
    }
}

fn new_vars_of(ts: &[Term], bound: &BTreeSet<Var>) -> BTreeSet<Var> {
    ts.iter()
        .filter_map(|t| match t {
            Term::Var(v) | Term::TupleVar(v) if !bound.contains(v) => Some(*v),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use crate::specialize::specialize;
    use rel_syntax::parse_program;

    fn modes_of(src: &str) -> RelResult<BTreeMap<Name, EvalMode>> {
        let sp = specialize(&parse_program(src).unwrap()).unwrap();
        let (rules, _) = lower(&sp).unwrap();
        infer_modes(&rules)
    }

    #[test]
    fn plain_rules_materialize() {
        let m = modes_of("def F(x) : R(x) and not S(x)").unwrap();
        assert_eq!(m[&rel_core::name("F")], EvalMode::Materialize);
    }

    #[test]
    fn tc_materializes() {
        let m = modes_of(
            "def TC(x,y) : E(x,y)\n\
             def TC(x,y) : exists((z) | E(x,z) and TC(z,y))",
        )
        .unwrap();
        assert_eq!(m[&rel_core::name("TC")], EvalMode::Materialize);
    }

    #[test]
    fn negated_price_becomes_demand() {
        // NotP1Price is unsafe standalone but fine when its argument is
        // bound by context (§3.1) — it becomes demand-driven.
        let m = modes_of("def NotP1Price(x) : not ProductPrice(\"P1\",x)").unwrap();
        assert_eq!(
            m[&rel_core::name("NotP1Price")],
            EvalMode::Demand { bound_prefix: 1 }
        );
    }

    #[test]
    fn additive_inverse_becomes_demand() {
        // Infinite standalone; evaluable once x is bound (§3.2: "such
        // expressions can be written and used in other queries").
        let m =
            modes_of("def AdditiveInverse(x,y) : Int(x) and Int(y) and add(x,y,0)").unwrap();
        assert_eq!(
            m[&rel_core::name("AdditiveInverse")],
            EvalMode::Demand { bound_prefix: 1 }
        );
    }

    #[test]
    fn truly_ungroundable_is_rejected() {
        // The quantified variable can never be grounded.
        let err = modes_of("def Bad() : exists((x) | not R(x))").unwrap_err();
        assert!(matches!(err, RelError::Unsafe(_)), "{err}");
    }

    #[test]
    fn intersection_with_finite_is_safe() {
        let m = modes_of(
            "def Fin2(x,y) : FinA(x) and FinB(y)\n\
             def Safe(x,y) : Fin2(x,y) and Int(x) and Int(y) and add(x,y,0)",
        )
        .unwrap();
        assert_eq!(m[&rel_core::name("Safe")], EvalMode::Materialize);
    }

    #[test]
    fn inverted_arithmetic_mode() {
        // DiscountedproductPrice: add(y,5,z) with z bound solves y (§3.2).
        let m = modes_of(
            "def D(x,y) : exists((z) | ProductPrice(x,z) and add(y,5,z))",
        )
        .unwrap();
        assert_eq!(m[&rel_core::name("D")], EvalMode::Materialize);
    }

    #[test]
    fn inverted_arith_in_argument_position() {
        // R(x, j-1): j is solved from R's second column.
        let m = modes_of("def F(x,j) : R(x, j-1) and Int(j)").unwrap();
        assert_eq!(m[&rel_core::name("F")], EvalMode::Materialize);
    }

    #[test]
    fn vector_needs_demand() {
        let m = modes_of("def vector[d,i] : 1.0/d where range(1,d,1,i)").unwrap();
        assert_eq!(
            m[&rel_core::name("vector")],
            EvalMode::Demand { bound_prefix: 1 }
        );
    }

    #[test]
    fn addup_needs_demand() {
        let m = modes_of(
            "def addUp[x in Int] : x%10 + addUp[(x-x%10)/10] where x >= 0",
        )
        .unwrap();
        assert_eq!(
            m[&rel_core::name("addUp")],
            EvalMode::Demand { bound_prefix: 1 }
        );
    }

    #[test]
    fn grouped_aggregation_materializes() {
        // The sum instance grounds its group variable from the aggregation
        // input (open evaluation).
        let m = modes_of(
            "def sum[{A}] : reduce[add,A]\n\
             def OrderPaymentAmount(x,y,z) : PaymentOrder(y,x) and PaymentAmount(y,z)\n\
             def Ord(x) : OrderProductQuantity(x,_,_)\n\
             def OrderPaid[x in Ord] : sum[OrderPaymentAmount[x]]",
        )
        .unwrap();
        assert_eq!(m[&rel_core::name("OrderPaid")], EvalMode::Materialize);
    }

    #[test]
    fn matmul_materializes() {
        let m = modes_of(
            "def sum[{A}] : reduce[add,A]\n\
             def MatrixMult[{A},{B},i,j] : { sum[[k] : A[i,k]*B[k,j]] }\n\
             def output(i,j,v) : MatrixMult(M1, M2, i, j, v)",
        )
        .unwrap();
        assert_eq!(m[&rel_core::name("output")], EvalMode::Materialize);
        let mm = m.iter().find(|(k, _)| k.starts_with("MatrixMult@")).unwrap();
        assert_eq!(*mm.1, EvalMode::Materialize);
    }

    #[test]
    fn demand_propagates_to_callers() {
        let m = modes_of(
            "def g[x] : x + 1\n\
             def f(y) : exists((x) | R(x) and g(x, y))",
        )
        .unwrap();
        assert_eq!(m[&rel_core::name("g")], EvalMode::Demand { bound_prefix: 1 });
        assert_eq!(m[&rel_core::name("f")], EvalMode::Materialize);
    }

    #[test]
    fn bare_demand_relation_is_not_evaluable() {
        // `g` needs its argument bound; `count[g]` would use it whole.
        let err = modes_of(
            "def count[{A}] : reduce[add, (A, 1)]\n\
             def g[x] : x + 1\n\
             def output : count[g]",
        )
        .unwrap_err();
        assert!(matches!(err, RelError::Unsafe(_)), "{err}");
    }

    #[test]
    fn disjunction_binds_only_common_variables() {
        // Each branch binds one head variable and neither binds both, so
        // only a caller binding both can evaluate `F`.
        let m = modes_of("def F(x, y) : R(x) or S(y)").unwrap();
        assert_eq!(m[&rel_core::name("F")], EvalMode::Demand { bound_prefix: 2 });
    }

    #[test]
    fn caller_without_binding_becomes_demand() {
        let m = modes_of(
            "def g[x] : x + 1\n\
             def f(x, y) : g(x, y)",
        )
        .unwrap();
        assert_eq!(m[&rel_core::name("f")], EvalMode::Demand { bound_prefix: 1 });
    }
}
