//! Second-order **specialization** (monomorphisation).
//!
//! Rel's relation variables (`def Product({A},{B},x...,y...)`) make
//! definitions second-order: `Product` is conceptually an infinite relation
//! whose first columns range over all of *Rels₁* (§4.2). Following the Data
//! HiLog-style parameter passing the paper cites (§7, ref. 50), we implement
//! them by *instantiation*: every application `Product[R,S]` creates — once,
//! memoised — a first-order predicate `Product@k` whose rules are the
//! original rules with `A ↦ R`, `B ↦ S` substituted.
//!
//! Relation arguments may contain free first-order variables
//! (`sum[OrderPaymentAmount[x]]`, §5.2). These are *lambda-lifted*: the
//! instance predicate gains leading parameters (`$0`, `$1`, …) for them and
//! call sites pass the actual variables. Canonicalising the free variables
//! ensures `sum[OPA[x]]` and `sum[OPA[y]]` share one instance.
//!
//! Recursive second-order definitions (`APSP[V,E]` calling itself with the
//! same relation arguments) hit the memo table and become ordinary
//! first-order recursion. A global instance cap guards against programs
//! that would generate unboundedly many instances.

use crate::builtins;
use rel_core::{RelError, RelResult};
use rel_syntax::ast::*;
use std::collections::{BTreeMap, BTreeSet};
use std::convert::Infallible;

/// Maximum number of generated instances before we assume divergence.
const INSTANCE_CAP: usize = 10_000;
/// Maximum instantiation nesting depth (a rule whose relation arguments
/// grow on every recursive call would otherwise recurse unboundedly).
const DEPTH_CAP: usize = 64;

/// Result of specialization: a purely first-order program.
#[derive(Clone, Debug, Default)]
pub struct Specialized {
    /// Rules grouped by (possibly instance-) predicate name.
    pub defs: BTreeMap<String, Vec<Def>>,
    /// Transformed integrity constraints.
    pub constraints: Vec<Constraint>,
    /// Instance provenance: instance name → (original name, canonical
    /// relation-argument keys).
    pub instances: BTreeMap<String, (String, Vec<String>)>,
}

/// A definition group: the rules for one name, split by order.
#[derive(Clone, Debug, Default)]
struct Group {
    /// Rules with no relation parameters.
    first_order: Vec<Def>,
    /// Rules with relation parameters (positions in `rel_positions`).
    second_order: Vec<Def>,
    /// Parameter positions (into the full param list) that are relation
    /// variables, shared by all second-order rules of the group.
    rel_positions: Vec<usize>,
}

/// Specialize `program`: eliminate all relation variables.
pub fn specialize(program: &Program) -> RelResult<Specialized> {
    let mut groups: BTreeMap<String, Group> = BTreeMap::new();
    for def in program.defs() {
        let rel_pos = rel_param_positions(def);
        let group = groups.entry(def.name.clone()).or_default();
        if rel_pos.is_empty() {
            group.first_order.push(def.clone());
        } else {
            if !group.second_order.is_empty() && group.rel_positions != rel_pos {
                return Err(RelError::resolve(format!(
                    "rules for `{}` disagree on which parameters are relation \
                     variables",
                    def.name
                )));
            }
            group.rel_positions = rel_pos;
            group.second_order.push(def.clone());
        }
    }

    let mut sp = Sp {
        groups,
        out: Specialized::default(),
        keys: BTreeMap::new(),
        counter: 0,
        depth: 0,
    };

    // Roots: every first-order definition, transformed in place.
    let root_names: Vec<String> = sp
        .groups
        .iter()
        .filter(|(_, g)| !g.first_order.is_empty())
        .map(|(n, _)| n.clone())
        .collect();
    for name in root_names {
        let defs = sp.groups[&name].first_order.clone();
        for def in defs {
            let new = sp.transform_def(&def, &BTreeMap::new())?;
            sp.out.defs.entry(name.clone()).or_default().push(new);
        }
    }
    for c in program.constraints() {
        let mut scope = Scope::new();
        for p in &c.params {
            if let Some(v) = p.var_name() {
                scope.bind(v);
            }
        }
        let body = sp.transform_expr(&c.body, &scope, &BTreeMap::new())?;
        let params = c.params.clone();
        sp.out.constraints.push(Constraint { name: c.name.clone(), params, body });
    }
    Ok(sp.out)
}

/// Which parameter positions of this def are relation variables. Includes
/// the inference rule: a plain `Var` parameter *applied* in the body
/// (`R(x…)`) is a relation parameter (`def empty(R) : not exists((x...) |
/// R(x...))` — the paper drops the braces).
fn rel_param_positions(def: &Def) -> Vec<usize> {
    let mut applied = BTreeSet::new();
    collect_applied_names(&def.body, &mut applied);
    def.params
        .iter()
        .enumerate()
        .filter(|(_, p)| match p {
            Binding::RelVar(_) => true,
            Binding::Var(v) => applied.contains(v.as_str()),
            _ => false,
        })
        .map(|(i, _)| i)
        .collect()
}

/// Names used in applied (functor) position anywhere in `e`.
fn collect_applied_names(e: &Expr, out: &mut BTreeSet<String>) {
    e.walk(&mut |x| {
        if let Expr::App { func, .. } = x {
            if let Expr::Ident(n) = &**func {
                out.insert(n.clone());
            }
        }
    });
}

/// Lexical scope: variables currently bound (first-order and tuple).
#[derive(Clone, Debug, Default)]
struct Scope {
    vars: BTreeSet<String>,
}

impl Scope {
    fn new() -> Self {
        Scope::default()
    }
    fn bind(&mut self, v: &str) {
        self.vars.insert(v.to_string());
    }
    fn contains(&self, v: &str) -> bool {
        self.vars.contains(v)
    }
}

/// Relation-variable substitution: name → argument expression.
type Subst = BTreeMap<String, Expr>;

struct Sp {
    groups: BTreeMap<String, Group>,
    out: Specialized,
    /// (orig name, canonical arg keys) → instance name.
    keys: BTreeMap<(String, Vec<String>), String>,
    counter: usize,
    /// Current instantiation nesting depth.
    depth: usize,
}

impl Sp {
    fn transform_def(&mut self, def: &Def, subst: &Subst) -> RelResult<Def> {
        let (params, scope) =
            bind_all(&def.params, &Scope::new(), &mut |d, s| self.transform_expr(d, s, subst))?;
        let body = self.transform_expr(&def.body, &scope, subst)?;
        Ok(Def { name: def.name.clone(), params, style: def.style, body })
    }

    /// Core rewrite: apply the relation-variable substitution, instantiate
    /// second-order calls, recurse structurally.
    fn transform_expr(&mut self, e: &Expr, scope: &Scope, subst: &Subst) -> RelResult<Expr> {
        match e {
            Expr::Ident(n) => Ok(subst.get(n).unwrap_or(e).clone()),
            Expr::App { func, args, style } => {
                self.transform_app(func, args, *style, scope, subst)
            }
            Expr::Abstraction { bindings, body, .. }
            | Expr::Exists { bindings, body }
            | Expr::Forall { bindings, body } => {
                let (bindings, inner) =
                    bind_all(bindings, scope, &mut |d, s| self.transform_expr(d, s, subst))?;
                let body = self.transform_expr(body, &inner, subst)?;
                Ok(rebind(e, bindings, body))
            }
            _ => e.map_children(&mut |c| self.transform_expr(c, scope, subst)),
        }
    }

    fn transform_app(
        &mut self,
        func: &Expr,
        args: &[Arg],
        style: AppStyle,
        scope: &Scope,
        subst: &Subst,
    ) -> RelResult<Expr> {
        // Resolve the functor through the substitution first.
        let func_t = self.transform_expr(func, scope, subst)?;
        // Flatten `App(App(f, a1), a2)` into `App(f, a1 ++ a2)` when the
        // inner application is partial — this happens when a relation
        // variable was substituted by a partial application.
        let (base, mut pre_args): (Expr, Vec<Arg>) = match func_t {
            Expr::App { func: inner, args: inner_args, style: AppStyle::Partial } => {
                (*inner, inner_args)
            }
            other => (other, Vec::new()),
        };

        let callee = match &base {
            Expr::Ident(n) => Some(n.clone()),
            _ => None,
        };

        // Second-order instantiation?
        if let Some(name) = &callee {
            let is_so = self
                .groups
                .get(name)
                .map(|g| !g.second_order.is_empty())
                .unwrap_or(false);
            let has_fo = self
                .groups
                .get(name)
                .map(|g| !g.first_order.is_empty())
                .unwrap_or(false)
                || builtins::is_builtin(name);

            // The argument list the callee sees is pre_args ++ args.
            let mut all_args: Vec<Arg> = pre_args.clone();
            all_args.extend(args.iter().cloned());

            // `f[?x]` once spelled the first-order annotation; today `?x`
            // lexes as a query parameter. In exactly the position where an
            // annotation would be meaningful — the first argument of a
            // predicate with second-order rules — a bare parameter is far
            // more likely a mis-spelled annotation than a genuine binding,
            // so reject it with the `?{x}` spelling instead of failing
            // later with a confusing unbound-parameter error.
            if is_so {
                if let Some(Arg { expr: Expr::Param(p), .. }) = all_args.first() {
                    return Err(RelError::AmbiguousApplication(format!(
                        "`{name}` has second-order rules, so `?{p}` reads like \
                         the retired brace-less annotation — but `?{p}` is a \
                         query parameter; write `{name}[?{{{p}}}]` to annotate \
                         the argument as first-order"
                    )));
                }
            }

            let forced_first = all_args.first().map(|a| a.ann == ArgAnnotation::First).unwrap_or(false)
                || (has_fo && all_args.iter().all(|a| definitely_first_order(&a.expr, scope)));
            let forced_second =
                all_args.first().map(|a| a.ann == ArgAnnotation::Second).unwrap_or(false);

            if is_so && !forced_first {
                if has_fo && !forced_second && could_be_first_order(&all_args, scope) {
                    return Err(RelError::AmbiguousApplication(format!(
                        "`{name}` has both first- and second-order rules; \
                         annotate the argument with ?{{…}} or &{{…}}"
                    )));
                }
                return self.instantiate(name, &all_args, style, scope, subst);
            }
        }

        // Ordinary application: transform arguments.
        let mut out_args = Vec::with_capacity(pre_args.len() + args.len());
        for a in pre_args.drain(..) {
            out_args.push(a); // already transformed
        }
        for a in args {
            out_args.push(Arg {
                expr: self.transform_expr(&a.expr, scope, subst)?,
                ann: a.ann,
            });
        }
        Ok(Expr::App { func: Box::new(base), args: out_args, style })
    }

    /// Instantiate a second-order call.
    fn instantiate(
        &mut self,
        name: &str,
        all_args: &[Arg],
        style: AppStyle,
        scope: &Scope,
        subst: &Subst,
    ) -> RelResult<Expr> {
        let group = self.groups.get(name).cloned().expect("checked by caller");
        let rel_positions = group.rel_positions.clone();
        let n_rel = rel_positions.len();
        // The paper's usage always passes relation arguments first; require
        // that the relation parameters are a prefix of the provided args.
        if rel_positions.iter().enumerate().any(|(i, p)| *p != i) {
            return Err(RelError::resolve(format!(
                "relation parameters of `{name}` must be leading parameters"
            )));
        }
        if all_args.len() < n_rel {
            return Err(RelError::resolve(format!(
                "`{name}` requires {n_rel} relation argument(s), got {}",
                all_args.len()
            )));
        }

        // Transform the relation arguments, then canonicalize their free
        // variables to `$0`, `$1`, ….
        let mut canon_args = Vec::with_capacity(n_rel);
        let mut lifted: Vec<String> = Vec::new(); // actual free vars, in order
        for arg in &all_args[..n_rel] {
            let t = self.transform_expr(&arg.expr, scope, subst)?;
            let canon = canonicalize(&t, scope, &mut lifted)?;
            canon_args.push(canon);
        }
        let keys: Vec<String> = canon_args
            .iter()
            .map(|e| rel_syntax::pretty::ExprPrinter(e).to_string())
            .collect();

        let key = (name.to_string(), keys.clone());
        let inst_name = if let Some(n) = self.keys.get(&key) {
            n.clone()
        } else {
            self.counter += 1;
            if self.counter > INSTANCE_CAP || self.depth > DEPTH_CAP {
                return Err(RelError::Stratify(format!(
                    "second-order instantiation diverged (relation `{name}`: \
                     {} instances, nesting depth {}); a recursive call is \
                     probably growing its relation arguments",
                    self.counter, self.depth
                )));
            }
            let inst = format!("{name}@{}", self.counter);
            self.keys.insert(key, inst.clone());
            self.out
                .instances
                .insert(inst.clone(), (name.to_string(), keys));
            // Number of lifted parameters for the instance.
            let n_lift = lifted.len();
            // Generate instance rules (tracking nesting depth: the rule
            // bodies may instantiate further).
            self.depth += 1;
            for rule in &group.second_order {
                let new_def =
                    self.instantiate_rule(rule, &inst, &rel_positions, &canon_args, n_lift);
                match new_def {
                    Ok(d) => {
                        self.out.defs.entry(inst.clone()).or_default().push(d);
                    }
                    Err(e) => {
                        self.depth -= 1;
                        return Err(e);
                    }
                }
            }
            self.depth -= 1;
            inst
        };

        // Build the call: instance[lifted…, remaining args…].
        let mut call_args: Vec<Arg> =
            lifted.iter().map(|v| Arg::plain(Expr::Ident(v.clone()))).collect();
        for a in &all_args[n_rel..] {
            call_args.push(Arg {
                expr: self.transform_expr(&a.expr, scope, subst)?,
                ann: ArgAnnotation::None,
            });
        }
        if call_args.is_empty() {
            return Ok(Expr::Ident(inst_name));
        }
        Ok(Expr::App { func: Box::new(Expr::Ident(inst_name)), args: call_args, style })
    }

    /// Instantiate one second-order rule for an instance predicate.
    fn instantiate_rule(
        &mut self,
        def: &Def,
        inst_name: &str,
        rel_positions: &[usize],
        canon_args: &[Expr],
        n_lift: usize,
    ) -> RelResult<Def> {
        // Fresh-rename the rule's own local variables to avoid clashing
        // with the canonical `$i` names (they can't clash with call-site
        // variables because the body is re-transformed afterwards in terms
        // of `$i` only).
        let renamed = alpha_rename(def, &format!("{inst_name}%"));

        // Substitution: relation parameter name → canonical argument.
        let mut inner_subst = Subst::new();
        let mut new_params: Vec<Binding> =
            (0..n_lift).map(|i| Binding::Var(format!("${i}"))).collect();
        for (i, p) in renamed.params.iter().enumerate() {
            if rel_positions.contains(&i) {
                let orig = p
                    .var_name()
                    .ok_or_else(|| RelError::resolve("relation parameter must be named"))?;
                let idx = rel_positions.iter().position(|x| *x == i).expect("checked");
                inner_subst.insert(orig.to_string(), canon_args[idx].clone());
            } else {
                new_params.push(p.clone());
            }
        }

        let shell = Def {
            name: inst_name.to_string(),
            params: new_params,
            style: renamed.style,
            body: renamed.body.clone(),
        };
        self.transform_def(&shell, &inner_subst)
    }
}

/// Rewrite a binder's bindings left to right: each `x in D` domain is
/// rewritten (by `rewrite`) under the variables bound before it, then every
/// named binding joins the scope. Returns the new bindings and the scope
/// of the binder's body. Serves rule heads and every binder of both
/// scope-aware rewriters.
fn bind_all<E>(
    bindings: &[Binding],
    scope: &Scope,
    rewrite: &mut impl FnMut(&Expr, &Scope) -> Result<Expr, E>,
) -> Result<(Vec<Binding>, Scope), E> {
    let mut inner = scope.clone();
    let mut out = Vec::with_capacity(bindings.len());
    for b in bindings {
        out.push(match b {
            Binding::In(v, dom) => Binding::In(v.clone(), rewrite(dom, &inner)?),
            other => other.clone(),
        });
        if let Some(v) = b.var_name() {
            inner.bind(v);
        }
    }
    Ok((out, inner))
}

/// The binder `e` (an abstraction or quantifier) with new bindings and body.
fn rebind(e: &Expr, bindings: Vec<Binding>, body: Expr) -> Expr {
    let body = Box::new(body);
    match e {
        Expr::Abstraction { style, .. } => Expr::Abstraction { bindings, style: *style, body },
        Expr::Exists { .. } => Expr::Exists { bindings, body },
        Expr::Forall { .. } => Expr::Forall { bindings, body },
        other => unreachable!("not a binder: {other:?}"),
    }
}

/// Is this argument *unambiguously* a first-order (value) expression?
/// Literals, in-scope variables, and arithmetic over those cannot denote
/// relations, so the engine routes them to first-order rules without an
/// annotation (Addendum A: "We can drop & and ? if the engine can figure
/// out whether the argument should be passed as first-order").
fn definitely_first_order(e: &Expr, scope: &Scope) -> bool {
    match e {
        Expr::Lit(_) => true,
        // A query parameter is a singleton of values — first-order.
        Expr::Param(_) => true,
        Expr::Ident(n) => scope.contains(n),
        Expr::Arith(_, a, b) => {
            definitely_first_order(a, scope) && definitely_first_order(b, scope)
        }
        Expr::Neg(a) => definitely_first_order(a, scope),
        _ => false,
    }
}

/// Could this argument list be a first-order application? (Used only to
/// detect the ambiguous `addUp[{11;22}]` case of Addendum A: a call is
/// potentially first-order when its arguments are value-like.)
fn could_be_first_order(args: &[Arg], scope: &Scope) -> bool {
    args.iter().all(|a| {
        matches!(
            &a.expr,
            Expr::Lit(_)
                | Expr::Wildcard
                | Expr::Union(_)
                | Expr::Arith(..)
                | Expr::Neg(..)
                | Expr::Param(_)
        ) || matches!(&a.expr, Expr::Ident(n) if scope.contains(n))
    })
}

/// Rename the free variables of a (transformed) relation argument to
/// `$0, $1, …` in first-occurrence order, extending `lifted` with the
/// original names. Identifiers not in scope are relation names and are left
/// alone.
fn canonicalize(e: &Expr, scope: &Scope, lifted: &mut Vec<String>) -> RelResult<Expr> {
    /// `local` holds the variables bound inside the argument itself.
    fn go(e: &Expr, scope: &Scope, local: &Scope, lifted: &mut Vec<String>) -> RelResult<Expr> {
        match e {
            Expr::Ident(n) if scope.contains(n) && !local.contains(n) => {
                let idx = match lifted.iter().position(|v| v == n) {
                    Some(i) => i,
                    None => {
                        lifted.push(n.clone());
                        lifted.len() - 1
                    }
                };
                Ok(Expr::Ident(format!("${idx}")))
            }
            Expr::TupleVar(n) if scope.contains(n) && !local.contains(n) => {
                Err(RelError::resolve(format!(
                    "free tuple variable `{n}...` cannot be lifted into a \
                     relation argument"
                )))
            }
            Expr::Abstraction { bindings, body, .. }
            | Expr::Exists { bindings, body }
            | Expr::Forall { bindings, body } => {
                let (bindings, inner) =
                    bind_all(bindings, local, &mut |d, s| go(d, scope, s, lifted))?;
                let body = go(body, scope, &inner, lifted)?;
                Ok(rebind(e, bindings, body))
            }
            _ => e.map_children(&mut |c| go(c, scope, local, lifted)),
        }
    }
    go(e, scope, &Scope::new(), lifted)
}

/// Alpha-rename all locally bound variables of a def with a prefix. The
/// canonical `$i` names and relation names are untouched.
fn alpha_rename(def: &Def, prefix: &str) -> Def {
    let mut map: BTreeMap<String, String> = BTreeMap::new();
    let params = def.params.iter().map(|p| rename_binding(p, prefix, &mut map)).collect();
    let Ok(body) = rename_expr(&def.body, prefix, &mut map);
    Def { name: def.name.clone(), params, style: def.style, body }
}

fn renamed(name: &str, prefix: &str, map: &mut BTreeMap<String, String>) -> String {
    map.entry(name.to_string())
        .or_insert_with(|| format!("{prefix}{name}"))
        .clone()
}

fn rename_binding(b: &Binding, prefix: &str, map: &mut BTreeMap<String, String>) -> Binding {
    match b {
        Binding::Var(v) => Binding::Var(renamed(v, prefix, map)),
        Binding::TupleVar(v) => Binding::TupleVar(renamed(v, prefix, map)),
        Binding::In(v, dom) => {
            let Ok(dom) = rename_expr(dom, prefix, map);
            Binding::In(renamed(v, prefix, map), dom)
        }
        Binding::RelVar(_) | Binding::Lit(_) | Binding::Wildcard => b.clone(),
    }
}

fn rename_expr(
    e: &Expr,
    prefix: &str,
    map: &mut BTreeMap<String, String>,
) -> Result<Expr, Infallible> {
    Ok(match e {
        Expr::Ident(n) => Expr::Ident(map.get(n).unwrap_or(n).clone()),
        Expr::TupleVar(n) => Expr::TupleVar(map.get(n).unwrap_or(n).clone()),
        Expr::Abstraction { bindings, body, .. }
        | Expr::Exists { bindings, body }
        | Expr::Forall { bindings, body } => {
            let bindings = bindings.iter().map(|b| rename_binding(b, prefix, map)).collect();
            rebind(e, bindings, rename_expr(body, prefix, map)?)
        }
        _ => e.map_children(&mut |c| rename_expr(c, prefix, map))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rel_syntax::parse_program;

    fn run(src: &str) -> Specialized {
        specialize(&parse_program(src).unwrap()).unwrap()
    }

    #[test]
    fn plain_first_order_untouched() {
        let sp = run("def F(x) : R(x) and not S(x)");
        assert_eq!(sp.defs.len(), 1);
        assert!(sp.instances.is_empty());
    }

    #[test]
    fn product_instantiation() {
        let sp = run(
            "def Product({A},{B},x...,y...) : A(x...) and B(y...)\n\
             def output(a,b,c,d) : Product(R, S, a, b, c, d)",
        );
        // One instance for Product⟨R,S⟩.
        assert_eq!(sp.instances.len(), 1);
        let (inst, (orig, keys)) = sp.instances.iter().next().unwrap();
        assert_eq!(orig, "Product");
        assert_eq!(keys, &vec!["R".to_string(), "S".to_string()]);
        // Instance has rules.
        assert!(sp.defs.contains_key(inst));
        // output's body calls the instance.
        let out = &sp.defs["output"][0];
        let mut found = false;
        out.body.walk(&mut |e| {
            if let Expr::App { func, .. } = e {
                if **func == Expr::Ident(inst.clone()) {
                    found = true;
                }
            }
        });
        assert!(found, "output should call the instance: {:?}", out.body);
    }

    #[test]
    fn same_args_share_instance() {
        let sp = run(
            "def Union({A},{B},x...) : A(x...) or B(x...)\n\
             def o1(x) : Union(R, S, x)\n\
             def o2(x,y) : Union(R, S, x, y)",
        );
        assert_eq!(sp.instances.len(), 1);
    }

    #[test]
    fn different_args_different_instances() {
        let sp = run(
            "def Union({A},{B},x...) : A(x...) or B(x...)\n\
             def o1(x) : Union(R, S, x)\n\
             def o2(x) : Union(S, R, x)",
        );
        assert_eq!(sp.instances.len(), 2);
    }

    #[test]
    fn recursive_second_order_terminates() {
        let sp = run(
            "def APSP({V},{E},x,y,0) : V(x) and V(y) and x = y\n\
             def APSP({V},{E},x,y,i) :\n\
               i = min[(j) : exists((z) | E(x,z) and APSP[V,E](z,y,j-1))]\n\
             def min[{A}] : reduce[minimum,A]\n\
             def output(x,y,d) : APSP(N, NN, x, y, d)",
        );
        // APSP⟨N,NN⟩ plus the min instance(s).
        let apsp_insts: Vec<_> =
            sp.instances.values().filter(|(o, _)| o == "APSP").collect();
        assert_eq!(apsp_insts.len(), 1, "{:?}", sp.instances);
        // The instance's rules exist (two of them).
        let inst_name = sp
            .instances
            .iter()
            .find(|(_, (o, _))| o == "APSP")
            .map(|(n, _)| n.clone())
            .unwrap();
        assert_eq!(sp.defs[&inst_name].len(), 2);
    }

    #[test]
    fn free_variable_lifting() {
        let sp = run(
            "def sum[{A}] : reduce[add,A]\n\
             def Ord(x) : OrderProductQuantity(x,_,_)\n\
             def OrderPaid[x in Ord] : sum[OrderPaymentAmount[x]]",
        );
        // sum instantiated with canonical key OrderPaymentAmount[$0].
        let sum_inst = sp
            .instances
            .iter()
            .find(|(_, (o, _))| o == "sum")
            .expect("sum instance");
        assert!(
            sum_inst.1 .1[0].contains("$0"),
            "canonical key should use $0: {:?}",
            sum_inst.1
        );
        // The instance def has one lifted param `$0`.
        let rules = &sp.defs[sum_inst.0];
        assert_eq!(rules[0].params.len(), 1);
        assert_eq!(rules[0].params[0], Binding::Var("$0".into()));
    }

    #[test]
    fn lifted_instances_shared_across_variables() {
        let sp = run(
            "def sum[{A}] : reduce[add,A]\n\
             def P1[x] : sum[R[x]]\n\
             def P2[y] : sum[R[y]]",
        );
        let sum_insts: Vec<_> = sp.instances.values().filter(|(o, _)| o == "sum").collect();
        assert_eq!(sum_insts.len(), 1, "x and y calls must share the instance");
    }

    #[test]
    fn inferred_relation_param_without_braces() {
        // `def empty(R)` — plain R applied in the body is inferred second
        // order (the paper omits the braces in §5.4).
        let sp = run(
            "def empty(R) : not exists((x...) | R(x...))\n\
             def out() : empty(Q)",
        );
        assert_eq!(sp.instances.len(), 1);
        let (_, (orig, keys)) = sp.instances.iter().next().unwrap();
        assert_eq!(orig, "empty");
        assert_eq!(keys[0], "Q");
    }

    #[test]
    fn ambiguous_application_rejected() {
        let err = specialize(
            &parse_program(
                "def addUp[{A}] : sum[A]\n\
                 def addUp[x in Int] : x\n\
                 def sum[{A}] : reduce[add,A]\n\
                 def out(v) : addUp[{11;22}](v)",
            )
            .unwrap(),
        )
        .unwrap_err();
        assert!(matches!(err, RelError::AmbiguousApplication(_)), "{err}");
    }

    #[test]
    fn braceless_annotation_spelling_suggests_braced_form() {
        // `addUp[?x]` lexes `?x` as a query parameter; in the first
        // argument of a second-order predicate that is almost certainly
        // the retired brace-less annotation, so the diagnostic must spell
        // out the `?{x}` fix — exactly this text.
        let err = specialize(
            &parse_program(
                "def addUp[{A}] : sum[A]\n\
                 def sum[{A}] : reduce[add,A]\n\
                 def out(v) : addUp[?x](v)",
            )
            .unwrap(),
        )
        .unwrap_err();
        assert_eq!(
            err.to_string(),
            "ambiguous application (use ?{} or &{}): `addUp` has \
             second-order rules, so `?x` reads like the retired brace-less \
             annotation — but `?x` is a query parameter; write `addUp[?{x}]` \
             to annotate the argument as first-order"
        );
        // A parameter argument to a plain first-order predicate stays a
        // parameter — no spurious diagnostic.
        let ok = specialize(
            &parse_program("def out(y) : ProductPrice[?product](y)").unwrap(),
        );
        assert!(ok.is_ok(), "{ok:?}");
    }

    #[test]
    fn annotation_disambiguates() {
        let sp = run(
            "def addUp[{A}] : sum[A]\n\
             def addUp[x in Int] : x\n\
             def sum[{A}] : reduce[add,A]\n\
             def out(v) : addUp[&{11;22}](v)\n\
             def out2(v) : addUp[?{11;22}](v)",
        );
        // & creates an instance; ? goes to the first-order rules.
        let addup_insts: Vec<_> =
            sp.instances.values().filter(|(o, _)| o == "addUp").collect();
        assert_eq!(addup_insts.len(), 1);
    }

    #[test]
    fn annotations_survive_instantiation() {
        // `wrap`'s body is alpha-renamed before it is instantiated; the
        // `&` on its inner call must survive that rewrite, or the call
        // reads as ambiguous between `addUp`'s two kinds of rules.
        let sp = run(
            "def addUp[{A}] : sum[A]\n\
             def addUp[x in Int] : x\n\
             def sum[{A}] : reduce[add,A]\n\
             def wrap[{A}] : addUp[&{A; 22}]\n\
             def out(v) : wrap[{11;22}](v)",
        );
        assert!(sp.instances.values().any(|(o, _)| o == "addUp"));
    }

    #[test]
    fn pagerank_instances_converge() {
        let src = r#"
def sum[{A}] : reduce[add,A]
def max[{A}] : reduce[maximum,A]
def MatrixVector[{A},{V},i] : { sum[[k] : A[i,k]*V[k]] }
def dimension[{Matrix}] : max[(k) : Matrix(k,_,_)]
def vector[d,i] : 1.0/d where range(1,d,1,i)
def myabs(x,y) : (x >= 0 and y = x) or (x < 0 and y = -1 * x)
def delta[{Vec1},{Vec2}] : max[[k] : myabs[Vec1[k] - Vec2[k]]]
def next[{G},{P}]: {MatrixVector[G,P]}
def stop({G},{P}): {delta[next[G,P],P] > 0.005}
def empty(R) : not exists( (x...) | R(x...))
def PageRank[{G}] : {vector[dimension[G]] where empty(PageRank[G])}
def PageRank[{G}] : {next[G,PageRank[G]]
    where not empty(PageRank[G]) and stop(G,PageRank[G])}
def PageRank[{G}] : {PageRank[G] where
    not empty(PageRank[G]) and not stop(G,PageRank[G])}
def output(i,v) : PageRank[M](i,v)
"#;
        let sp = run(src);
        let pr: Vec<_> = sp.instances.values().filter(|(o, _)| o == "PageRank").collect();
        assert_eq!(pr.len(), 1, "PageRank⟨M⟩ must be a single instance");
    }
}
