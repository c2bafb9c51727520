//! # rel-interp
//!
//! A **reference interpreter** implementing the denotational semantics of
//! Figures 3–4 of the paper (Addendum A) as literally as practical: an
//! environment µ maps identifiers to relations (first-order variables are
//! bound to singleton relations `{⟨v⟩}`, tuple variables to singleton
//! tuple sets), and every syntactic construct is evaluated by its ⟦·⟧µ
//! equation.
//!
//! **Substitution (documented in DESIGN.md §4):** the paper's universe
//! **Values** is infinite; this interpreter replaces it with the *active
//! domain* — every value in the database plus every constant in the
//! program (and `_...` ranges over active-domain tuples up to the widest
//! arity in scope). For range-restricted (safe) queries the two agree,
//! which is exactly what the safety analysis guarantees; the optimized
//! engine is differential-tested against this interpreter on such
//! queries.
//!
//! Programs are first specialized (second-order elimination) with
//! [`rel_sema::specialize`], then each stratum is evaluated to a fixpoint
//! by naive re-derivation (inflationary for monotone strata, synchronous
//! partial-fixpoint for non-monotone ones — mirroring the engine's
//! semantics at reference-implementation speed).
//!
//! The interpreter is deliberately *slow and obvious*: quantifiers and
//! abstractions enumerate the universe. A work budget guards against
//! blow-ups; exceeding it is an error, not a hang.

use rel_core::{Database, RelError, RelResult, Relation, Tuple, Value};
use rel_sema::specialize::{specialize, Specialized};
use rel_syntax::ast::{AppStyle, Arg, BindStyle, Binding, CmpOp, Def, Expr};
use std::collections::{BTreeMap, BTreeSet};

/// Evaluation budget: total number of elementary steps the interpreter
/// may take before giving up.
const DEFAULT_BUDGET: u64 = 2_000_000;

/// Iteration cap for fixpoints.
const FIX_CAP: usize = 1_000;

/// The reference interpreter.
pub struct Interp {
    /// Universe of first-order values (active domain + program constants).
    universe: Vec<Value>,
    /// Maximum tuple width `_...` and tuple variables may take.
    max_width: usize,
    /// Remaining work budget.
    budget: std::cell::Cell<u64>,
}

/// An environment: every binding is a relation (Fig. 3 — variables map to
/// singleton relations). The relations in scope, shadowed by the
/// variables bound so far (innermost last); extending it copies only the
/// variables.
#[derive(Clone)]
struct Env<'a> {
    rels: &'a BTreeMap<String, Relation>,
    vars: Vec<(&'a str, Relation)>,
}

impl<'a> Env<'a> {
    fn get(&self, x: &str) -> Option<&Relation> {
        match self.vars.iter().rev().find(|(n, _)| *n == x) {
            Some((_, r)) => Some(r),
            None => self.rels.get(x),
        }
    }

    fn contains_key(&self, x: &str) -> bool {
        self.get(x).is_some()
    }

    /// This environment with `x` bound to `r`.
    fn bind(&self, x: &'a str, r: Relation) -> Env<'a> {
        let mut env = self.clone();
        env.vars.push((x, r));
        env
    }
}

impl Interp {
    /// Interpret `src` against `db` and return the `output` relation.
    pub fn run(db: &Database, src: &str) -> RelResult<Relation> {
        Self::run_relation(db, src, "output")
    }

    /// Interpret `src` against `db` and return an arbitrary defined
    /// relation.
    pub fn run_relation(db: &Database, src: &str, want: &str) -> RelResult<Relation> {
        Ok(Self::run_all(db, src)?.remove(want).unwrap_or_default())
    }

    /// Interpret `src` against `db` and return every relation at the
    /// fixpoint — the base relations and each one `src` defines — from a
    /// single evaluation.
    pub fn run_all(db: &Database, src: &str) -> RelResult<BTreeMap<String, Relation>> {
        let program = rel_syntax::parse_program(src)?;
        let sp = specialize(&program)?;

        // Universe: active domain + program constants.
        let mut universe: BTreeSet<Value> = db.active_domain();
        for defs in sp.defs.values() {
            for def in defs {
                collect_constants(&def.body, &mut universe);
                for p in &def.params {
                    if let Binding::Lit(v) = p {
                        universe.insert(v.clone());
                    }
                }
            }
        }
        let max_width = db
            .iter()
            .flat_map(|(_, r)| r.iter().map(Tuple::arity))
            .chain(sp.defs.values().flatten().map(|d| d.params.len()))
            .max()
            .unwrap_or(0)
            .max(2);

        let interp = Interp {
            universe: universe.into_iter().collect(),
            max_width,
            budget: std::cell::Cell::new(DEFAULT_BUDGET),
        };
        interp.fixpoint(db, &sp)
    }

    fn spend(&self, amount: u64) -> RelResult<()> {
        let left = self.budget.get();
        if left < amount {
            return Err(RelError::internal(
                "reference interpreter budget exhausted (query too large for \
                 naive enumeration)",
            ));
        }
        self.budget.set(left - amount);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Program evaluation
    // ------------------------------------------------------------------

    /// Evaluate all definitions: stratified naive fixpoints.
    fn fixpoint(&self, db: &Database, sp: &Specialized) -> RelResult<BTreeMap<String, Relation>> {
        let mut rels: BTreeMap<String, Relation> =
            db.iter().map(|(n, r)| (n.to_string(), r.clone())).collect();
        for group in strata_of(sp) {
            if !group.recursive {
                let name = &group.names[0];
                let derived = self.eval_pred(&rels, sp, name)?;
                rels.entry(name.clone()).or_default().absorb(&derived);
                continue;
            }
            for n in &group.names {
                rels.entry(n.clone()).or_default();
            }
            for _ in 0..FIX_CAP {
                let mut next: BTreeMap<String, Relation> = BTreeMap::new();
                for n in &group.names {
                    next.insert(n.clone(), self.eval_pred(&rels, sp, n)?);
                }
                if group.monotone {
                    let mut changed = false;
                    for n in &group.names {
                        let cur = rels.get_mut(n.as_str()).expect("seeded");
                        changed |= cur.absorb(&next[n]) > 0;
                    }
                    if !changed {
                        break;
                    }
                } else {
                    let stable = group.names.iter().all(|n| rels[n.as_str()] == next[n]);
                    for n in &group.names {
                        rels.insert(n.clone(), next[n].clone());
                    }
                    if stable {
                        break;
                    }
                }
            }
        }
        Ok(rels)
    }

    fn eval_pred(
        &self,
        rels: &BTreeMap<String, Relation>,
        sp: &Specialized,
        pred: &str,
    ) -> RelResult<Relation> {
        let mut out = Relation::new();
        for def in sp.defs.get(pred).map(Vec::as_slice).unwrap_or(&[]) {
            out.absorb(&self.eval_rule(rels, def)?);
        }
        Ok(out)
    }

    /// ⟦def p(params): body⟧ — enumerate parameter bindings over the
    /// universe (Fig. 3's abstraction semantics) and collect head·value
    /// tuples.
    fn eval_rule(&self, rels: &BTreeMap<String, Relation>, def: &Def) -> RelResult<Relation> {
        let mut out = Relation::new();
        let env = Env { rels, vars: Vec::new() };
        self.enum_bindings(&env, &def.params, &mut Vec::new(), &mut |env2, prefix| {
            let body = self.eval(env2, &def.body)?;
            match def.style {
                BindStyle::Paren => {
                    if body.is_true() {
                        out.insert(Tuple::from(prefix.to_vec()));
                    }
                }
                BindStyle::Bracket => {
                    for t in body.iter() {
                        out.insert(Tuple::from(prefix.to_vec()).concat(t));
                    }
                }
            }
            Ok(())
        })?;
        Ok(out)
    }

    /// Enumerate all bindings of a binding list over the universe,
    /// invoking `k(env, prefix-values)` for each.
    fn enum_bindings<'a>(
        &self,
        env: &Env<'a>,
        bindings: &'a [Binding],
        prefix: &mut Vec<Value>,
        k: &mut dyn FnMut(&Env<'a>, &[Value]) -> RelResult<()>,
    ) -> RelResult<()> {
        let Some((first, rest)) = bindings.split_first() else {
            return k(env, prefix);
        };
        match first {
            Binding::Var(_) | Binding::Wildcard => {
                let name = first.var_name().unwrap_or("_anon");
                for v in &self.universe {
                    self.spend(1)?;
                    let env2 =
                        env.bind(name, Relation::singleton(Tuple::from(vec![v.clone()])));
                    prefix.push(v.clone());
                    self.enum_bindings(&env2, rest, prefix, k)?;
                    prefix.pop();
                }
                Ok(())
            }
            Binding::In(x, dom) => {
                let d = self.eval(env, dom)?;
                for t in d.iter().filter(|t| t.arity() == 1) {
                    self.spend(1)?;
                    let v = &t.values()[0];
                    let env2 = env.bind(x, Relation::singleton(Tuple::from(vec![v.clone()])));
                    prefix.push(v.clone());
                    self.enum_bindings(&env2, rest, prefix, k)?;
                    prefix.pop();
                }
                Ok(())
            }
            Binding::TupleVar(x) => {
                for t in self.all_tuples()? {
                    self.spend(1)?;
                    let env2 = env.bind(x, Relation::singleton(t.clone()));
                    let before = prefix.len();
                    prefix.extend(t.values().iter().cloned());
                    self.enum_bindings(&env2, rest, prefix, k)?;
                    prefix.truncate(before);
                }
                Ok(())
            }
            Binding::Lit(v) => {
                prefix.push(v.clone());
                self.enum_bindings(env, rest, prefix, k)?;
                prefix.pop();
                Ok(())
            }
            Binding::RelVar(n) => Err(RelError::resolve(format!(
                "relation variable `{{{n}}}` in the reference interpreter \
                 (specialization should have removed it)"
            ))),
        }
    }

    /// All active-domain tuples up to the maximum width (the finite
    /// stand-in for *Tuples₁*).
    fn all_tuples(&self) -> RelResult<Vec<Tuple>> {
        let mut out = vec![Tuple::empty()];
        let mut layer = vec![Vec::<Value>::new()];
        for _ in 0..self.max_width {
            let mut next = Vec::new();
            for base in &layer {
                for v in &self.universe {
                    self.spend(1)?;
                    let mut t = base.clone();
                    t.push(v.clone());
                    out.push(Tuple::from(t.clone()));
                    next.push(t);
                }
            }
            layer = next;
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Expression semantics (Fig. 3) — every construct denotes a Relation.
    // ------------------------------------------------------------------

    /// ⟦e⟧µ.
    fn eval<'a>(&self, env: &Env<'a>, e: &'a Expr) -> RelResult<Relation> {
        self.spend(1)?;
        match e {
            // J c Kµ = {⟨c⟩}
            Expr::Lit(v) => Ok(Relation::singleton(Tuple::from(vec![v.clone()]))),
            // J x Kµ = µ(x); relation names denote their extent.
            Expr::Ident(x) | Expr::TupleVar(x) => {
                Ok(env.get(x).cloned().unwrap_or_default())
            }
            // J ?p Kµ = the extent of the reserved relation `?p` (the
            // prepared-query API injects it at execute time; absent = ∅).
            Expr::Param(p) => {
                Ok(env.get(&format!("?{p}")).cloned().unwrap_or_default())
            }
            // J _ Kµ = {⟨v⟩ | v ∈ Values}
            Expr::Wildcard => Ok(Relation::from_values(self.universe.iter().cloned())),
            // J _... Kµ = Tuples₁
            Expr::TupleWildcard => Ok(Relation::from_tuples(self.all_tuples()?)),
            // J (e₁, e₂) Kµ = JE₁Kµ × JE₂Kµ
            Expr::Product(es) => {
                let mut acc = Relation::true_rel();
                for x in es {
                    acc = acc.product(&self.eval(env, x)?);
                }
                Ok(acc)
            }
            // J {e₁; e₂} Kµ = JE₁Kµ ∪ JE₂Kµ
            Expr::Union(es) => {
                let mut acc = Relation::new();
                for x in es {
                    acc.absorb(&self.eval(env, x)?);
                }
                Ok(acc)
            }
            // J e where F Kµ = JeKµ × JFKµ
            Expr::Where(body, cond) => {
                let c = self.eval(env, cond)?;
                if c.is_true() {
                    self.eval(env, body)
                } else {
                    Ok(Relation::new())
                }
            }
            Expr::Abstraction { bindings, style, body } => {
                let mut out = Relation::new();
                self.enum_bindings(env, bindings, &mut Vec::new(), &mut |env2, prefix| {
                    let b = self.eval(env2, body)?;
                    match style {
                        BindStyle::Paren => {
                            if b.is_true() {
                                out.insert(Tuple::from(prefix.to_vec()));
                            }
                        }
                        BindStyle::Bracket => {
                            for t in b.iter() {
                                out.insert(Tuple::from(prefix.to_vec()).concat(t));
                            }
                        }
                    }
                    Ok(())
                })?;
                Ok(out)
            }
            Expr::App { func, args, style } => self.eval_app(env, func, args, *style),
            // Connectives on boolean relations (Fig. 4).
            // ∅ ∩ ⟦b⟧µ = ∅: an empty left side settles the conjunction.
            Expr::And(a, b) => {
                let l = self.eval(env, a)?;
                if l.is_empty() {
                    return Ok(l);
                }
                Ok(l.intersect(&self.eval(env, b)?))
            }
            Expr::Or(a, b) => Ok(self.eval(env, a)?.union(&self.eval(env, b)?)),
            Expr::Not(a) => Ok(bool_rel(!self.eval(env, a)?.is_true())),
            Expr::Implies(a, b) => {
                Ok(bool_rel(!self.eval(env, a)?.is_true() || self.eval(env, b)?.is_true()))
            }
            Expr::Iff(a, b) => {
                Ok(bool_rel(self.eval(env, a)?.is_true() == self.eval(env, b)?.is_true()))
            }
            Expr::Xor(a, b) => {
                Ok(bool_rel(self.eval(env, a)?.is_true() != self.eval(env, b)?.is_true()))
            }
            Expr::Exists { bindings, body } => {
                let mut found = false;
                self.enum_bindings(env, bindings, &mut Vec::new(), &mut |env2, _| {
                    if !found && self.eval(env2, body)?.is_true() {
                        found = true;
                    }
                    Ok(())
                })?;
                Ok(bool_rel(found))
            }
            Expr::Forall { bindings, body } => {
                let mut all = true;
                self.enum_bindings(env, bindings, &mut Vec::new(), &mut |env2, _| {
                    if all && !self.eval(env2, body)?.is_true() {
                        all = false;
                    }
                    Ok(())
                })?;
                Ok(bool_rel(all))
            }
            Expr::Cmp(op, a, b) => {
                let l = self.eval(env, a)?;
                let r = self.eval(env, b)?;
                Ok(bool_rel(cmp_rels(*op, &l, &r)))
            }
            Expr::Arith(op, a, b) => self.arith(*op, &self.eval(env, a)?, &self.eval(env, b)?),
            // J -e Kµ = J -1 * e Kµ
            Expr::Neg(a) => self.arith(
                rel_syntax::ast::ArithOp::Mul,
                &Relation::singleton(Tuple::from(vec![Value::Int(-1)])),
                &self.eval(env, a)?,
            ),
            Expr::DotJoin(a, b) => {
                let l = self.eval(env, a)?;
                let r = self.eval(env, b)?;
                let mut out = Relation::new();
                for x in l.iter().filter(|t| !t.is_empty()) {
                    for y in r.iter().filter(|t| !t.is_empty()) {
                        if x.values()[x.arity() - 1] == y.values()[0] {
                            let mut vals = x.values()[..x.arity() - 1].to_vec();
                            vals.extend(y.values()[1..].iter().cloned());
                            out.insert(Tuple::from(vals));
                        }
                    }
                }
                Ok(out)
            }
            Expr::LeftOverride(a, b) => {
                let l = self.eval(env, a)?;
                let r = self.eval(env, b)?;
                let mut out = l.clone();
                for t in r.iter().filter(|t| !t.is_empty()) {
                    let key = &t.values()[..t.arity() - 1];
                    if !l.iter().any(|x| x.starts_with(key)) {
                        out.insert(t.clone());
                    }
                }
                Ok(out)
            }
        }
    }

    /// Arithmetic over two value sets: every pairing through the
    /// builtin's forward mode.
    fn arith(&self, op: rel_syntax::ast::ArithOp, l: &Relation, r: &Relation) -> RelResult<Relation> {
        let mut out = Relation::new();
        for x in l.iter().filter(|t| t.arity() == 1) {
            for y in r.iter().filter(|t| t.arity() == 1) {
                self.spend(1)?;
                let solved = rel_engine::builtins::solve(
                    op_name(op),
                    &[Some(x.values()[0].clone()), Some(y.values()[0].clone()), None],
                )?;
                for t in solved {
                    out.insert(Tuple::from(vec![t[2].clone()]));
                }
            }
        }
        Ok(out)
    }

    /// Application semantics (Figs. 3–4): full applications intersect with
    /// `{⟨⟩}`; partial applications produce suffix relations; argument
    /// expressions are first-order value sets.
    fn eval_app<'a>(
        &self,
        env: &Env<'a>,
        func: &'a Expr,
        args: &'a [Arg],
        style: AppStyle,
    ) -> RelResult<Relation> {
        // `reduce` is the built-in second-order primitive (§5.2).
        if let Expr::Ident(n) = func {
            if n == "reduce" && (args.len() == 2 || args.len() == 3) {
                let input = self.eval(env, &args[1].expr)?;
                let folded = self.reduce_with(env, &args[0].expr, &input)?;
                if args.len() == 2 {
                    return Ok(folded);
                }
                let v = self.eval(env, &args[2].expr)?;
                return Ok(bool_rel(!folded.is_empty() && folded == v));
            }
        }
        let f = match func {
            Expr::Ident(n) if !env.contains_key(n) && rel_sema::builtins::is_builtin(n) => {
                return self.eval_builtin_app(env, n, args, style);
            }
            other => self.eval(env, other)?,
        };
        let mut result = f;
        for a in args {
            let mut narrowed = Relation::new();
            match &a.expr {
                Expr::Wildcard => {
                    // J{E}[_]K = {t | ⟨v⟩·t ∈ E}
                    for t in result.iter().filter(|t| !t.is_empty()) {
                        narrowed.insert(t.suffix(1));
                    }
                }
                Expr::TupleWildcard => {
                    // J{E}[_...]K = {t | s·t ∈ E}
                    for t in result.iter() {
                        for cut in 0..=t.arity() {
                            narrowed.insert(t.suffix(cut));
                        }
                    }
                }
                Expr::TupleVar(x) => {
                    // J{E}[x...]K — x... is bound to a singleton tuple set.
                    let bound = env.get(x).cloned().unwrap_or_default();
                    for s in bound.iter() {
                        for t in result.iter() {
                            if t.starts_with(s.values()) {
                                narrowed.insert(t.suffix(s.arity()));
                            }
                        }
                    }
                }
                other => {
                    // First-order argument: a set of values.
                    let vals = self.eval(env, other)?;
                    for v in vals.iter().filter(|t| t.arity() == 1) {
                        for t in result.iter() {
                            if t.starts_with(v.values()) {
                                narrowed.insert(t.suffix(1));
                            }
                        }
                    }
                }
            }
            result = narrowed;
        }
        match style {
            AppStyle::Partial => Ok(result),
            // Full application: J{E}(args)K = J{E}[args]K ∩ {⟨⟩}.
            AppStyle::Full => Ok(bool_rel(result.is_true())),
        }
    }

    fn eval_builtin_app<'a>(
        &self,
        env: &Env<'a>,
        name: &str,
        args: &'a [Arg],
        style: AppStyle,
    ) -> RelResult<Relation> {
        let sig = rel_sema::builtins::lookup(name).expect("checked by caller");
        let canonical = rel_sema::builtins::canonical(name).expect("checked");
        let arg_sets: Vec<Relation> = args
            .iter()
            .map(|a| self.eval(env, &a.expr))
            .collect::<RelResult<_>>()?;
        let mut out = Relation::new();
        let mut stack: Vec<Vec<Value>> = vec![Vec::new()];
        for set in &arg_sets {
            let mut next = Vec::new();
            for base in &stack {
                for t in set.iter().filter(|t| t.arity() == 1) {
                    self.spend(1)?;
                    let mut b = base.clone();
                    b.push(t.values()[0].clone());
                    next.push(b);
                }
            }
            stack = next;
        }
        for combo in stack {
            let mut inputs: Vec<Option<Value>> = combo.iter().cloned().map(Some).collect();
            if style == AppStyle::Partial && combo.len() + 1 == sig.arity {
                inputs.push(None);
                for t in rel_engine::builtins::solve(canonical, &inputs)? {
                    out.insert(Tuple::from(vec![t[sig.arity - 1].clone()]));
                }
            } else if combo.len() == sig.arity
                && !rel_engine::builtins::solve(canonical, &inputs)?.is_empty()
            {
                return Ok(Relation::true_rel());
            }
        }
        if style == AppStyle::Full {
            return Ok(Relation::false_rel());
        }
        Ok(out)
    }

    /// Fold the last column (Fig. 3's `reduce` equation) in sorted order.
    /// Builtin op names (`add`, `minimum`, …) denote their infinite
    /// relations and are applied directly; other ops evaluate to a finite
    /// function table.
    fn reduce_with<'a>(&self, env: &Env<'a>, op: &'a Expr, input: &Relation) -> RelResult<Relation> {
        if let Expr::Ident(n) = op {
            if !env.contains_key(n) {
                if let Some(canonical) = rel_sema::builtins::canonical(n) {
                    let values = input.last_column();
                    let Some(first) = values.first() else {
                        return Ok(Relation::new());
                    };
                    let mut acc = first.clone();
                    for v in &values[1..] {
                        acc = rel_engine::builtins::fold_step(canonical, &acc, v)?;
                    }
                    return Ok(Relation::singleton(Tuple::from(vec![acc])));
                }
            }
        }
        let table = self.eval(env, op)?;
        self.reduce(&table, input)
    }

    /// Fold with a finite op relation used as a function table.
    fn reduce(&self, op: &Relation, input: &Relation) -> RelResult<Relation> {
        let values = input.last_column();
        let Some(first) = values.first() else {
            return Ok(Relation::new());
        };
        let mut acc = first.clone();
        for v in &values[1..] {
            let suffix = op.partial_apply(&[acc.clone(), v.clone()]);
            let mut it = suffix.iter();
            match (it.next(), it.next()) {
                (Some(t), None) if t.arity() == 1 => acc = t.values()[0].clone(),
                _ => {
                    return Err(RelError::Reduce(
                        "reference reduce: op is not a binary function".into(),
                    ))
                }
            }
        }
        Ok(Relation::singleton(Tuple::from(vec![acc])))
    }
}

/// Stratum info computed on the specialized program by reusing the precise
/// IR-level stratifier.
struct AstStratum {
    names: Vec<String>,
    recursive: bool,
    monotone: bool,
}

fn strata_of(sp: &Specialized) -> Vec<AstStratum> {
    let Ok((rules, _)) = rel_sema::lower::lower(sp) else {
        return vec![AstStratum {
            names: sp.defs.keys().cloned().collect(),
            recursive: true,
            monotone: false,
        }];
    };
    rel_sema::strata::stratify(&rules)
        .into_iter()
        .map(|s| AstStratum {
            names: s.preds.iter().map(|p| p.to_string()).collect(),
            recursive: s.recursive,
            monotone: s.monotone,
        })
        .collect()
}

fn bool_rel(b: bool) -> Relation {
    if b {
        Relation::true_rel()
    } else {
        Relation::false_rel()
    }
}

fn cmp_rels(op: CmpOp, l: &Relation, r: &Relation) -> bool {
    for a in l.iter().filter(|t| t.arity() == 1) {
        for b in r.iter().filter(|t| t.arity() == 1) {
            let x = &a.values()[0];
            let y = &b.values()[0];
            let holds = match op {
                CmpOp::Eq => x.numeric_eq(y),
                CmpOp::Neq => !x.numeric_eq(y),
                _ => match x.numeric_cmp(y) {
                    Some(ord) => match op {
                        CmpOp::Lt => ord.is_lt(),
                        CmpOp::Le => ord.is_le(),
                        CmpOp::Gt => ord.is_gt(),
                        CmpOp::Ge => ord.is_ge(),
                        _ => unreachable!(),
                    },
                    None => false,
                },
            };
            if holds {
                return true;
            }
        }
    }
    false
}

fn op_name(op: rel_syntax::ast::ArithOp) -> &'static str {
    match op {
        rel_syntax::ast::ArithOp::Add => "rel_primitive_add",
        rel_syntax::ast::ArithOp::Sub => "rel_primitive_subtract",
        rel_syntax::ast::ArithOp::Mul => "rel_primitive_multiply",
        rel_syntax::ast::ArithOp::Div => "rel_primitive_divide",
        rel_syntax::ast::ArithOp::Mod => "rel_primitive_modulo",
        rel_syntax::ast::ArithOp::Pow => "rel_primitive_power",
    }
}

fn collect_constants(e: &Expr, out: &mut BTreeSet<Value>) {
    e.walk(&mut |x| {
        if let Expr::Lit(v) = x {
            out.insert(v.clone());
        }
    });
}

/// Convenience: evaluate `src` with both the optimized engine and this
/// reference interpreter, returning `(engine, reference)` outputs.
pub fn differential(db: &Database, src: &str) -> RelResult<(Relation, Relation)> {
    let engine = rel_engine::Session::new(db.clone()).query(src)?;
    let reference = Interp::run(db, src)?;
    Ok((engine, reference))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rel_core::database::figure1_database;
    use rel_core::tuple;

    fn agree(src: &str) {
        let db = figure1_database();
        let (engine, reference) = differential(&db, src).unwrap();
        assert_eq!(engine, reference, "disagreement on {src:?}");
    }

    #[test]
    fn basic_projection() {
        agree("def output(y) : PaymentOrder(_, y)");
    }

    #[test]
    fn join() {
        agree("def output(x,y) : OrderProductQuantity(_,x,_) and ProductPrice(x,y)");
    }

    #[test]
    fn negation() {
        agree("def output(x) : ProductPrice(x,_) and not OrderProductQuantity(_,x,_)");
    }

    #[test]
    fn forall_quantifier() {
        agree(
            "def output(x) : ProductPrice(x,_) and \
             forall((y1,y2) | not OrderProductQuantity(y1,x,y2))",
        );
    }

    #[test]
    fn comparison_and_arith() {
        agree("def output(x) : exists((y) | ProductPrice(x,y) and y % 100 = 99)");
        agree("def output(x) : exists((y) | ProductPrice(x,y) and y > 15)");
    }

    #[test]
    fn inverted_builtin() {
        // Active-domain semantics: the discounted prices must be in the
        // domain for the enumerating reference to see them (the engine
        // computes them via `add`'s inverse mode regardless). This is the
        // documented substitution — DESIGN.md §4.
        let mut db = figure1_database();
        for v in [5, 15, 25, 35] {
            db.insert("Num", tuple![v]);
        }
        let src = "def output(x,y) : exists((z) | ProductPrice(x,z) and add(y,5,z))";
        let (engine, reference) = differential(&db, src).unwrap();
        assert_eq!(engine, reference);
        assert_eq!(engine.len(), 4);
    }

    #[test]
    fn recursion_tc() {
        let mut db = Database::new();
        for (a, b) in [(1, 2), (2, 3), (3, 1), (3, 4)] {
            db.insert("E", tuple![a, b]);
        }
        let src = "def TC(x,y) : E(x,y)\n\
                   def TC(x,y) : exists((z) | E(x,z) and TC(z,y))\n\
                   def output(x,y) : TC(x,y)";
        let (engine, reference) = differential(&db, src).unwrap();
        assert_eq!(engine, reference);
        assert!(engine.contains(&tuple![1, 1])); // cycle closes
    }

    #[test]
    fn partial_application() {
        agree("def output : OrderProductQuantity[\"O1\"]");
    }

    #[test]
    fn union_and_product_literals() {
        agree("def output : {(1,2,3); (4,5,6)}");
        agree("def output : (ProductPrice, PaymentOrder)");
    }

    #[test]
    fn tuple_wildcard_prefixes() {
        agree("def output(x...) : OrderProductQuantity(x..., _...)");
    }

    #[test]
    fn reduce_sum() {
        // The folded total (100) is not an active-domain value, so the
        // reference can only see it in *expression* position (not by
        // re-enumerating it through a variable).
        agree("def output : reduce[add, ProductPrice]");
    }

    #[test]
    fn where_and_override() {
        agree("def output : ProductPrice[\"P1\"] <++ 0");
        agree("def output : ProductPrice[\"P9\"] <++ 0");
        agree("def output[] : 1 where ProductPrice(\"P1\", 10)");
    }

    #[test]
    fn second_order_through_specialization() {
        agree(
            "def Biggest({A}) : {A.(reduce[maximum, A])}\n\
             def output : Biggest[ProductPrice]",
        );
    }

    #[test]
    fn win_move_pfp() {
        let mut db = Database::new();
        for (a, b) in [(1, 2), (2, 3), (3, 4)] {
            db.insert("Move", tuple![a, b]);
        }
        let src = "def Win(x) : exists((y) | Move(x,y) and not Win(y))\n\
                   def output(x) : Win(x)";
        let (engine, reference) = differential(&db, src).unwrap();
        assert_eq!(engine, reference);
        assert_eq!(engine, Relation::from_tuples([tuple![1], tuple![3]]));
    }

    #[test]
    fn budget_guards_blowup() {
        // A 7-way cross product of the universe exhausts the budget
        // rather than hanging; the engine rejects it as unsafe anyway.
        let db = figure1_database();
        let src = "def output(a,b,c,d,e,f,g) : \
                   Int(a) and Int(b) and Int(c) and Int(d) and Int(e) and Int(f) and Int(g)";
        let r = Interp::run(&db, src);
        assert!(r.is_err() || r.unwrap().is_empty());
    }
}
