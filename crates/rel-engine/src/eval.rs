//! The core evaluator: formula evaluation over environment batches
//! (with greedy sideways-information-passing scheduling, and a
//! worst-case-optimal escape for multi-atom joins — a variable-connected
//! group of at least [`WCOJ_MIN_ATOMS`] positive atoms is handed whole to
//! the leapfrog triejoin kernel) and **open expression evaluation**
//! (relation-valued expressions that may bind their own free variables —
//! the mechanism behind grouped aggregation, demand-driven predicates, and
//! generator-style `where`).
//!
//! A rule `def p(params) : body` is evaluated by running the body's
//! generating part as a formula over a seed environment, then evaluating
//! the value part per resulting environment and emitting
//! `⟨params⟩ · value-tuple` head tuples (Fig. 3 of the paper).
//!
//! A handful of whole-rule shapes bypass the environment machinery
//! entirely via *fused kernels*: one- and two-atom conjunctive rules run
//! as trie projections / merge joins over typed columns
//! (`try_fused_formula`), and the aggregation shapes the stdlib
//! lowers to — grouped `Reduce` over a prefix application, and
//! `LeftOverride` with a constant default — run as single sorted walks
//! (`try_fused_open`). Every fused path is bit-identical to the
//! generic evaluator.

use crate::builtins;
use crate::env::{Env, EnvVal};
use crate::leapfrog::{leapfrog_join, merge_join_emit, project_emit, JoinAtom, SortedRel};
use crate::metrics;
use crate::profile::ProfileSink;
use rel_core::{Name, RelError, RelResult, Relation, Tuple, Value};
use rel_sema::builtins as bsig;
use rel_sema::ir::{AbsParam, Atom, EvalMode, Formula, Module, RExpr, Rule, Term, Var};
use rel_syntax::ast::CmpOp;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, Mutex, RwLock};

/// Cap on demand-evaluation recursion depth (`addUp`-style top-down
/// recursion).
const DEMAND_DEPTH_CAP: usize = 100_000;

/// Schedulability verdict for one conjunct.
enum Sched {
    /// Cannot run yet (needs more bound variables).
    No,
    /// Runs without binding anything new — run as early as possible.
    Filter,
    /// Runs and binds new variables, with an estimated cost.
    Generate(u64),
}

/// Evaluation context: the module, the current state of all materialized
/// relations, and caches.
///
/// The context is `Send + Sync`: its interior state (demand memo, demand
/// stack, index cache) sits behind `RwLock`/`Mutex`, so one context can be
/// shared across threads, and — more importantly for the parallel stratum
/// scheduler — contexts in different worker threads can share one
/// [`SharedIndexCache`] handle.
pub struct EvalCtx<'a> {
    /// Analyzed program.
    pub module: &'a Module,
    /// Current relation values: EDB ∪ materialized IDB (plus semi-naive
    /// `Δp` / `old§p` overlays during fixpoints).
    pub rels: &'a BTreeMap<Name, Relation>,
    /// Demand-evaluation memo: (pred, bound prefix) → full head tuples.
    demand_memo: RwLock<HashMap<DemandKey, Arc<Relation>>>,
    /// Demand stacks for cycle detection, **one per thread**: a chain of
    /// top-down calls lives on one thread, so cycle/depth checks must not
    /// see keys pushed by other threads' chains (a shared stack would
    /// report spurious cycles under concurrent demand evaluation). Lock
    /// guards are never held across recursion, so re-entrant demand
    /// evaluation cannot deadlock.
    demand_stacks: Mutex<HashMap<std::thread::ThreadId, Vec<DemandKey>>>,
    /// Lazy permuted sorted views, possibly shared across contexts (and
    /// hence across fixpoint iterations and scheduler threads): see
    /// [`SharedIndexCache`].
    indexes: SharedIndexCache,
}

/// Key of a demand-evaluation memo entry: predicate and bound prefix.
type DemandKey = (Name, Vec<Value>);

/// The rows starting with `key`: one contiguous run of the sorted
/// storage, found by binary search. Rows of every arity ≥ `key.len()`
/// qualify; a row equal to `key` itself sorts first in the run.
fn prefix_run<'r>(rows: &'r [Tuple], key: &[Value]) -> &'r [Tuple] {
    let start = rows.partition_point(|t| t.values() < key);
    let len = rows[start..].partition_point(|t| t.starts_with(key));
    &rows[start..start + len]
}

/// Cache of per-(predicate, column-permutation) sorted views (the implied
/// arity is `perm.len()`): the tries of the leapfrog and fused kernels,
/// and the key-first permutations `exec_atom` binary-searches when an
/// atom's bound positions are not a prefix of its arguments. Each entry
/// remembers the relation generation it was built from; a lookup against
/// a relation with a different generation rebuilds and replaces the
/// entry, so stale views are evicted in place rather than accumulated. A
/// permuted [`SortedRel`] is thus built once per relation state and
/// shared read-only — across fixpoint iterations, scheduler worker
/// threads, and session queries.
type TrieCache = HashMap<(Name, Vec<usize>), (u64, Arc<SortedRel>)>;

// Inert, only `Auto`; kept only for benchmark/src/harness.rs:105-121's struct literal.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WcojMode {
    Auto,
}

/// Minimum size of a variable-connected eligible atom group for
/// `eval_conj` to route it through the leapfrog kernel (the cyclic-join
/// shapes — triangles, paths-with-closure — where worst-case optimality
/// pays). Smaller groups take the greedy binary-join scheduler.
pub const WCOJ_MIN_ATOMS: usize = 3;

/// A cloneable handle to the shared evaluation cache — permuted sorted
/// views of relations ([`SortedRel`]: the tries of the leapfrog and fused
/// kernels, and the key-first permutations of non-prefix atom probes) —
/// that outlives any single [`EvalCtx`]. The fixpoint engine threads one
/// handle through every iteration's context, so views over *unchanged*
/// relations (the EDB, already-materialized strata, stable SCC members)
/// are built once and reused; only entries over relations whose
/// generation moved are rebuilt. Cloning the handle shares the cache,
/// and the cache is all it shares: a profiled evaluation runs on a
/// private copy of the handle that carries its [`ProfileSink`], so one
/// evaluation's profile never reaches another's evaluators.
///
/// The handle is `Arc`-of-locks-based and therefore `Send + Sync`: the
/// parallel stratum scheduler shares one cache across all of its worker
/// threads, and a [`crate::session::Session`] holding a handle can serve
/// queries from multiple threads concurrently. Entries are keyed on
/// relation *generations* (never reused; see `rel_core::Relation`), so a
/// concurrent reader can never be handed a view that disagrees with the
/// relation state it is evaluating against — at worst two threads build
/// the same view once each and the last write wins.
#[derive(Clone, Default)]
pub struct SharedIndexCache {
    tries: Arc<RwLock<TrieCache>>,
    /// The sink of the one evaluation this copy of the handle was made
    /// for ([`Self::profiled`]); never shared with the original.
    profile: Option<Arc<ProfileSink>>,
}

impl std::fmt::Debug for SharedIndexCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SharedIndexCache({} tries)", self.len())
    }
}

impl SharedIndexCache {
    fn read(&self) -> std::sync::RwLockReadGuard<'_, TrieCache> {
        self.tries.read().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, TrieCache> {
        self.tries.write().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// A copy of the handle that shares this one's tries and ticks `sink`
    /// from every evaluator made with it. The original and its other
    /// clones stay unprofiled.
    pub(crate) fn profiled(&self, sink: Arc<ProfileSink>) -> Self {
        SharedIndexCache { tries: Arc::clone(&self.tries), profile: Some(sink) }
    }

    /// The profile sink this handle carries, if any.
    pub(crate) fn profile(&self) -> Option<&Arc<ProfileSink>> {
        self.profile.as_ref()
    }

    /// Number of cached entries (diagnostics/tests).
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }

    /// Drop every entry that no longer matches the given relation state
    /// (the relation is gone — e.g. a Δ overlay — or its generation has
    /// moved on). The fixpoint engine calls this when a materialize run
    /// finishes, so a long-lived session retains only views that the
    /// *next* run can actually hit, instead of accumulating dead ones.
    pub fn prune_stale(&self, rels: &BTreeMap<Name, Relation>) {
        self.write().retain(|(name, _), (built_gen, _)| {
            rels.get(name).map(Relation::generation) == Some(*built_gen)
        });
    }

    /// The generations the cached views over `name` were built from
    /// (diagnostics/tests).
    pub fn generations_for(&self, name: &str) -> Vec<u64> {
        self.read()
            .iter()
            .filter(|((n, _), _)| &**n == name)
            .map(|(_, (built_gen, _))| *built_gen)
            .collect()
    }
}

impl<'a> EvalCtx<'a> {
    /// New context over the given relation state, with a private index
    /// cache.
    pub fn new(module: &'a Module, rels: &'a BTreeMap<Name, Relation>) -> Self {
        EvalCtx::with_cache(module, rels, SharedIndexCache::default())
    }

    /// New context sharing a caller-owned index cache (generation-keyed,
    /// so it is safe to reuse across different relation states).
    pub fn with_cache(
        module: &'a Module,
        rels: &'a BTreeMap<Name, Relation>,
        cache: SharedIndexCache,
    ) -> Self {
        EvalCtx {
            module,
            rels,
            demand_memo: RwLock::new(HashMap::new()),
            demand_stacks: Mutex::new(HashMap::new()),
            indexes: cache,
        }
    }

    /// Instrumentation at a dispatch point: tick the registry counter
    /// (behind the process-wide gate) and the per-query sink, if any — one
    /// predictable branch each, a no-op when both are off.
    #[inline]
    fn note(&self, counter: fn(&metrics::Registry) -> &metrics::Counter, tick: fn(&ProfileSink)) {
        if metrics::enabled() {
            counter(metrics::registry()).incr();
        }
        if let Some(sink) = &self.indexes.profile {
            tick(sink);
        }
    }

    fn relation(&self, pred: &Name) -> Relation {
        self.rels.get(pred).cloned().unwrap_or_default()
    }

    fn pred_mode(&self, pred: &Name) -> EvalMode {
        self.module
            .pred_info
            .get(pred)
            .map(|i| i.mode.clone())
            .unwrap_or(EvalMode::Materialize)
    }

    fn is_demand(&self, pred: &Name) -> Option<usize> {
        match self.pred_mode(pred) {
            EvalMode::Demand { bound_prefix } => Some(bound_prefix),
            EvalMode::Materialize => None,
        }
    }

    // ------------------------------------------------------------------
    // Rules
    // ------------------------------------------------------------------

    /// Evaluate one rule from a seed environment, returning full head
    /// tuples. Derived tuples are buffered and the relation is built once
    /// (sort + dedup bulk construction) instead of tree-inserting each.
    pub fn eval_rule(&self, rule: &Rule, seed: Env) -> RelResult<Relation> {
        let mut out = Vec::new();
        self.eval_rule_into(rule, &rule.body, seed, &mut out)?;
        Ok(Relation::from_tuples(out))
    }

    fn eval_rule_into(
        &self,
        rule: &Rule,
        body: &RExpr,
        seed: Env,
        out: &mut Vec<Tuple>,
    ) -> RelResult<()> {
        let mut gen: Vec<Formula> = Vec::new();
        for p in &rule.params {
            if let AbsParam::In(v, dom) = p {
                gen.push(Formula::Member { term: Term::Var(*v), of: dom.clone() });
            }
        }
        match body {
            RExpr::Union(branches) => {
                for br in branches {
                    self.eval_rule_into(rule, br, seed.clone(), out)?;
                }
                Ok(())
            }
            RExpr::OfFormula(f) => {
                if self.try_fused_formula(rule, f, &seed, out) {
                    self.note(|r| &r.fused_rules, ProfileSink::note_fused_rule);
                    return Ok(());
                }
                self.note(|r| &r.env_rules, ProfileSink::note_env_rule);
                gen.push((**f).clone());
                let envs = self.eval_formula(&Formula::conj(gen), vec![seed])?;
                for env in envs {
                    if let Some(t) = env.head_tuple(&rule.params) {
                        out.push(t);
                    }
                }
                Ok(())
            }
            RExpr::Where { body: inner, cond } => {
                self.note(|r| &r.env_rules, ProfileSink::note_env_rule);
                gen.push((**cond).clone());
                let envs = self.eval_formula(&Formula::conj(gen), vec![seed])?;
                for env in envs {
                    for (env2, rel) in self.eval_open(inner, &env)? {
                        self.emit(&rule.params, &env2, &rel, out)?;
                    }
                }
                Ok(())
            }
            other => {
                if let Some(res) = self.try_fused_open(rule, other, &seed, out) {
                    self.note(|r| &r.fused_rules, ProfileSink::note_fused_rule);
                    return res;
                }
                self.note(|r| &r.env_rules, ProfileSink::note_env_rule);
                let envs = self.eval_formula(&Formula::conj(gen), vec![seed])?;
                for env in envs {
                    for (env2, rel) in self.eval_open(other, &env)? {
                        self.emit(&rule.params, &env2, &rel, out)?;
                    }
                }
                Ok(())
            }
        }
    }

    /// Fused columnar rule kernel. When the head is plain first-order
    /// variables and the body formula is (possibly `Exists`-wrapped
    /// conjunctions of) one or two positive atoms over stored relations
    /// with variable-only, atom-distinct arguments, evaluate the whole
    /// rule as one permuted-trie projection / merge join
    /// ([`project_emit`] / [`merge_join_emit`]): head tuples are emitted
    /// straight from trie cells, bypassing environment batches, per-row
    /// `Env` clones, and `head_tuple` re-packing entirely. The tries come
    /// from the generation-keyed cache, so a stable relation (e.g. the
    /// EDB side of a semi-naive delta join) is sorted once per state and
    /// reused across fixpoint iterations.
    ///
    /// Variable-only atoms keep this exact: variable–variable unification
    /// is strict value equality (no Int/Float promotion — that applies
    /// only to constants, which are ineligible here), matching the trie's
    /// strict cell order, so the emitted head set is identical to the
    /// generic path's. Existential variables are projected away by the
    /// head plan itself; the final [`Relation::from_tuples`] build
    /// canonicalizes order and duplicates either way.
    ///
    /// Returns `false` (emitting nothing) when the shape is ineligible
    /// and the generic evaluator should proceed.
    fn try_fused_formula(
        &self,
        rule: &Rule,
        f: &Formula,
        seed: &Env,
        out: &mut Vec<Tuple>,
    ) -> bool {
        // Only top-level materialization: a seeded env (demand evaluation,
        // constraint checking) takes the generic path.
        if (0..seed.len()).any(|v| seed.get(v as Var).is_some()) {
            return false;
        }
        // Head: plain first-order variables (repeats allowed).
        let mut head: Vec<Var> = Vec::with_capacity(rule.params.len());
        for p in &rule.params {
            let AbsParam::Val(v) = p else { return false };
            head.push(*v);
        }
        // Body: at most two positive atoms under Exists/Conj nesting.
        fn collect<'x>(f: &'x Formula, out: &mut Vec<&'x Atom>) -> bool {
            match f {
                Formula::True => true,
                Formula::Atom(a) => {
                    out.push(a);
                    out.len() <= 2
                }
                Formula::Conj(fs) => fs.iter().all(|g| collect(g, out)),
                Formula::Exists { tuple_vars, body, .. } => {
                    tuple_vars.is_empty() && collect(body, out)
                }
                _ => false,
            }
        }
        let mut atoms: Vec<&Atom> = Vec::new();
        if !collect(f, &mut atoms) || atoms.is_empty() {
            return false;
        }
        // Atoms: stored relations (not builtins, not demand-driven) applied
        // to distinct variables.
        let mut infos: Vec<(&Name, Vec<Var>)> = Vec::with_capacity(atoms.len());
        for a in &atoms {
            if a.args.is_empty()
                || bsig::lookup(&a.pred).is_some()
                || self.is_demand(&a.pred).is_some()
            {
                return false;
            }
            let mut vars: Vec<Var> = Vec::with_capacity(a.args.len());
            for t in &a.args {
                let Term::Var(v) = t else { return false };
                if vars.contains(v) {
                    return false; // repeated variable: in-atom equality
                }
                vars.push(*v);
            }
            infos.push((&a.pred, vars));
        }
        // Every head variable must be bound by some atom.
        if head
            .iter()
            .any(|hv| !infos.iter().any(|(_, vs)| vs.contains(hv)))
        {
            return false;
        }
        // A full column permutation leading with `first` (atom positions,
        // deduped), followed by the remaining positions in source order.
        fn perm_from(first: &[usize], arity: usize) -> Vec<usize> {
            let mut perm: Vec<usize> = Vec::with_capacity(arity);
            for &p in first {
                if !perm.contains(&p) {
                    perm.push(p);
                }
            }
            for p in 0..arity {
                if !perm.contains(&p) {
                    perm.push(p);
                }
            }
            perm
        }
        match infos.as_slice() {
            // Projection: sort the trie head-variables-first and emit.
            [(pred, vars)] => {
                let positions: Vec<usize> = head
                    .iter()
                    .map(|hv| vars.iter().position(|v| v == hv).expect("covered"))
                    .collect();
                let perm = perm_from(&positions, vars.len());
                let trie = self.trie_for(pred, &perm, false);
                let depths: Vec<usize> = positions
                    .iter()
                    .map(|p| perm.iter().position(|q| q == p).expect("full perm"))
                    .collect();
                project_emit(&trie, &depths, out);
                true
            }
            // Binary join: both tries lead with the shared variables.
            [(pa, va), (pb, vb)] => {
                let join: Vec<Var> =
                    va.iter().copied().filter(|v| vb.contains(v)).collect();
                let perm_of = |vars: &[Var]| {
                    let first: Vec<usize> = join
                        .iter()
                        .map(|jv| vars.iter().position(|v| v == jv).expect("shared"))
                        .collect();
                    perm_from(&first, vars.len())
                };
                let (perm_a, perm_b) = (perm_of(va), perm_of(vb));
                let ta = self.trie_for(pa, &perm_a, false);
                let tb = self.trie_for(pb, &perm_b, false);
                let plan: Vec<(bool, usize)> = head
                    .iter()
                    .map(|hv| {
                        if let Some(p) = va.iter().position(|v| v == hv) {
                            (false, perm_a.iter().position(|&q| q == p).expect("full perm"))
                        } else {
                            let p = vb.iter().position(|v| v == hv).expect("covered");
                            (true, perm_b.iter().position(|&q| q == p).expect("full perm"))
                        }
                    })
                    .collect();
                merge_join_emit(&ta, &tb, join.len(), &plan, out);
                true
            }
            _ => false,
        }
    }

    /// Fused columnar kernels for the two aggregation rule shapes the
    /// stdlib's `sum[R[x]] <++ d`-style definitions lower to. Returns
    /// `None` when the shape is ineligible (generic evaluator proceeds)
    /// and `Some(result)` when the kernel handled the rule.
    ///
    /// Both kernels exploit the same invariant as [`Self::try_fused_formula`]:
    /// stored relations iterate in lexicographic tuple order, so groups
    /// of a common prefix are contiguous runs and domain/override merges
    /// are single sorted walks — no per-row `Env` clones, no `BTreeMap`
    /// of group environments, no intermediate suffix `Relation`s.
    fn try_fused_open(
        &self,
        rule: &Rule,
        body: &RExpr,
        seed: &Env,
        out: &mut Vec<Tuple>,
    ) -> Option<RelResult<()>> {
        // Only top-level materialization; a seeded env takes the generic path.
        if (0..seed.len()).any(|v| seed.get(v as Var).is_some()) {
            return None;
        }
        match body {
            RExpr::Reduce { op, input, intro } => {
                self.fused_grouped_reduce(rule, op, input, *intro, out)
            }
            RExpr::LeftOverride(a, b) => self.fused_override_default(rule, a, b, out),
            _ => None,
        }
    }

    /// Grouped-reduce kernel: `def p[x…] : Reduce(op, P[x…])` where the
    /// head is plain distinct variables, `op` is a builtin with a fold
    /// rule, and the input is a prefix application of a stored relation
    /// on exactly the head variables.
    ///
    /// The generic path re-derives the grouping the storage order already
    /// provides: it clones an `Env` per input row, collects suffix
    /// relations in a `BTreeMap<Env, Relation>`, then folds each group's
    /// last column. Since `P` is sorted lexicographically and prefix
    /// matching on unbound variables is strict value equality, groups are
    /// exactly the runs of equal `k`-prefix, in the same order, and each
    /// group's suffixes arrive already sorted — so the fold visits values
    /// in the generic path's order (bit-identical float folds, same first
    /// error on a type mismatch). Empty groups cannot arise (every run has
    /// a row), matching `reduce over ∅ = ∅`.
    ///
    /// Run boundaries and fold inputs are read from the typed columnar
    /// projection (no per-row tuple-header chasing), which a non-empty
    /// relation of uniform arity ≥ 1 always has.
    fn fused_grouped_reduce(
        &self,
        rule: &Rule,
        op: &RExpr,
        input: &RExpr,
        intro: (Var, Var),
        out: &mut Vec<Tuple>,
    ) -> Option<RelResult<()>> {
        // Head: plain distinct variables.
        let mut head: Vec<Var> = Vec::with_capacity(rule.params.len());
        for p in &rule.params {
            let AbsParam::Val(v) = p else { return None };
            if head.contains(v) {
                return None;
            }
            head.push(*v);
        }
        // Group keys survive the `intro` clearing that forms them.
        if head.iter().any(|v| *v >= intro.0 && *v < intro.1) {
            return None;
        }
        // Op: a builtin with a canonical fold step.
        let RExpr::Pred(opname) = op else { return None };
        let canonical = bsig::canonical(opname)?;
        // Input: the head variables, in order, prefix-applied to a stored
        // relation of uniform arity with a non-empty suffix.
        let RExpr::PApp { pred, args } = input else { return None };
        if args.len() != head.len() {
            return None;
        }
        for (t, v) in args.iter().zip(&head) {
            let Term::Var(av) = t else { return None };
            if av != v {
                return None;
            }
        }
        if bsig::lookup(pred).is_some() || self.is_demand(pred).is_some() {
            return None;
        }
        let rel = self.relation(pred);
        let k = head.len();
        let n = rel.uniform_arity()?;
        if n <= k {
            return None;
        }
        let c = rel.columnar()?;
        Some((|| {
            let cols = c.cols();
            let rows = c.len();
            let mut start = 0;
            for i in 1..=rows {
                let boundary = i == rows
                    || (0..k).any(|j| {
                        cols[j].cmp_rows(i, &cols[j], start) != std::cmp::Ordering::Equal
                    });
                if !boundary {
                    continue;
                }
                let mut acc = cols[n - 1].value(start);
                for r in start + 1..i {
                    acc = builtins::fold_step(canonical, &acc, &cols[n - 1].value(r))?;
                }
                let mut vals: Vec<Value> = (0..k).map(|j| cols[j].value(start)).collect();
                vals.push(acc);
                out.push(Tuple::from(vals));
                start = i;
            }
            Ok(())
        })())
    }

    /// Override-with-default kernel: `def p[x in D] : P[x] <++ (c)` — the
    /// lowering of `agg[…] <++ default`. For each `x` in the unary domain
    /// `D`, emit `P`'s rows for `x` when any exist, else `(x, c)`.
    ///
    /// The generic path evaluates a `Member` formula per domain element
    /// and runs the full `LeftOverride` open-expression machinery per
    /// environment (prefix re-matching `P`, per-group suffix relations, a
    /// singleton build, an override scan). With a single-constant right
    /// side the override key is the empty prefix, so "left side wins"
    /// degenerates to a non-emptiness test — one sorted merge of `D`
    /// against `P`'s first column. Bound-variable prefix matching is
    /// strict equality, matching the merge's comparisons.
    fn fused_override_default(
        &self,
        rule: &Rule,
        a: &RExpr,
        b: &RExpr,
        out: &mut Vec<Tuple>,
    ) -> Option<RelResult<()>> {
        let [AbsParam::In(v, dom)] = rule.params.as_slice() else {
            return None;
        };
        let RExpr::Pred(dname) = dom.as_ref() else { return None };
        if bsig::lookup(dname).is_some() || self.is_demand(dname).is_some() {
            return None;
        }
        let RExpr::PApp { pred, args } = a else { return None };
        let [Term::Var(av)] = args.as_slice() else { return None };
        if av != v {
            return None;
        }
        if bsig::lookup(pred).is_some() || self.is_demand(pred).is_some() {
            return None;
        }
        let RExpr::Singleton(ts) = b else { return None };
        let [Term::Const(c)] = ts.as_slice() else { return None };
        let dom_rel = self.relation(dname);
        if dom_rel.uniform_arity() != Some(1) {
            return None;
        }
        let p_rel = self.relation(pred);
        let n = p_rel.uniform_arity()?;
        if n < 2 {
            return None;
        }
        let prows: Vec<&Tuple> = p_rel.iter().collect();
        let mut pi = 0;
        for d in dom_rel.iter() {
            let x = &d.values()[0];
            while pi < prows.len() && prows[pi].values()[0] < *x {
                pi += 1;
            }
            let mut j = pi;
            while j < prows.len() && prows[j].values()[0] == *x {
                out.push(prows[j].clone());
                j += 1;
            }
            if j == pi {
                out.push(Tuple::from(vec![x.clone(), c.clone()]));
            }
            pi = j;
        }
        Some(Ok(()))
    }

    fn emit(
        &self,
        params: &[AbsParam],
        env: &Env,
        rel: &Relation,
        out: &mut Vec<Tuple>,
    ) -> RelResult<()> {
        if rel.is_empty() {
            return Ok(());
        }
        let Some(head) = env.head_tuple(params) else {
            return Err(RelError::internal(
                "rule head variable unbound at emission (safety analysis gap)",
            ));
        };
        for t in rel.iter() {
            out.push(head.concat(t));
        }
        Ok(())
    }

    /// Demand-driven (tabled) evaluation of a predicate with a bound
    /// prefix. Returns full head tuples whose first columns equal `prefix`.
    pub fn eval_demand(&self, pred: &Name, prefix: &[Value]) -> RelResult<Arc<Relation>> {
        let key = (pred.clone(), prefix.to_vec());
        if let Some(hit) = self.lock_memo().get(&key) {
            return Ok(Arc::clone(hit));
        }
        {
            let mut stacks = self.lock_stacks();
            let stack = stacks.entry(std::thread::current().id()).or_default();
            if stack.contains(&key) {
                return Err(RelError::Stratify(format!(
                    "cyclic demand-driven recursion on `{pred}` with arguments {prefix:?} \
                     (top-down evaluation requires acyclic demands)"
                )));
            }
            if stack.len() > DEMAND_DEPTH_CAP {
                return Err(RelError::Divergent {
                    relation: pred.to_string(),
                    iterations: DEMAND_DEPTH_CAP,
                });
            }
            stack.push(key.clone());
        }
        let result = (|| {
            let mut out = Relation::new();
            for rule in self.module.rules_for(pred) {
                let mut seed = Env::new(rule.vars.len());
                let mut ok = true;
                for (p, v) in rule.params.iter().zip(prefix) {
                    match p {
                        AbsParam::Fixed(c) => {
                            if !c.numeric_eq(v) {
                                ok = false;
                                break;
                            }
                        }
                        AbsParam::Val(var) | AbsParam::In(var, _) => {
                            // Repeated head variables must receive equal
                            // prefix values.
                            if let Some(existing) = seed.value(*var) {
                                if existing != v {
                                    ok = false;
                                    break;
                                }
                            }
                            seed.bind(*var, EnvVal::Val(v.clone()));
                        }
                        AbsParam::Tup(_) => {
                            return Err(RelError::unsafe_expr(format!(
                                "demand evaluation of `{pred}` through a tuple-variable \
                                 parameter is not supported"
                            )));
                        }
                    }
                }
                if !ok {
                    continue;
                }
                out.absorb(&self.eval_rule(rule, seed)?);
            }
            // Keep only tuples actually matching the prefix (Fixed params
            // already filtered; In-domains may have narrowed).
            let filtered: Relation =
                out.into_tuples().into_iter().filter(|t| t.starts_with(prefix)).collect();
            Ok(Arc::new(filtered))
        })();
        {
            let mut stacks = self.lock_stacks();
            let tid = std::thread::current().id();
            let stack = stacks.entry(tid).or_default();
            stack.pop();
            if stack.is_empty() {
                stacks.remove(&tid); // chain finished: don't leak per-thread slots
            }
        }
        let rel = result?;
        self.demand_memo
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(key, Arc::clone(&rel));
        Ok(rel)
    }

    fn lock_memo(&self) -> std::sync::RwLockReadGuard<'_, HashMap<DemandKey, Arc<Relation>>> {
        self.demand_memo.read().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn lock_stacks(
        &self,
    ) -> std::sync::MutexGuard<'_, HashMap<std::thread::ThreadId, Vec<DemandKey>>> {
        self.demand_stacks.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Membership check for a demand predicate against a fully ground
    /// value tuple. Handles tuple-variable parameters by enumerating the
    /// splits of `values` over the parameter list.
    fn demand_check(&self, pred: &Name, values: &[Value]) -> RelResult<bool> {
        let full = Tuple::from(values.to_vec());
        for rule in self.module.rules_for(pred) {
            let terms: Vec<Term> = rule
                .params
                .iter()
                .map(|p| match p {
                    AbsParam::Val(v) | AbsParam::In(v, _) => Term::Var(*v),
                    AbsParam::Tup(v) => Term::TupleVar(*v),
                    AbsParam::Fixed(c) => Term::Const(c.clone()),
                })
                .collect();
            let mut seeds = Vec::new();
            rec_match(&terms, values, &Env::new(rule.vars.len()), &mut seeds);
            for (seed, suffix) in seeds {
                if !suffix.is_empty() {
                    continue;
                }
                if self.eval_rule(rule, seed)?.contains(&full) {
                    return Ok(true);
                }
            }
        }
        Ok(false)
    }

    // ------------------------------------------------------------------
    // Formulas
    // ------------------------------------------------------------------

    /// Evaluate a formula as a generator/filter over environments.
    pub fn eval_formula(&self, f: &Formula, envs: Vec<Env>) -> RelResult<Vec<Env>> {
        if envs.is_empty() {
            return Ok(envs);
        }
        match f {
            Formula::True => Ok(envs),
            Formula::False => Ok(vec![]),
            Formula::Conj(items) => self.eval_conj(items, envs),
            Formula::Disj(branches) => {
                // Sort + dedup matches the previous BTreeSet order exactly
                // (deterministic iteration) at a fraction of the cost.
                let mut out: Vec<Env> = Vec::new();
                for br in branches {
                    out.extend(self.eval_formula(br, envs.clone())?);
                }
                out.sort_unstable();
                out.dedup();
                Ok(out)
            }
            Formula::Not(inner) => {
                // A fully bound atom over stored rows is one binary search
                // per environment: the row equal to the key, if present,
                // heads the run of rows starting with it.
                let stored = self.bound_stored_atom(inner, &envs);
                let mut key = Vec::new();
                let mut out = Vec::with_capacity(envs.len());
                for env in envs {
                    let holds = match &stored {
                        Some((rel, args)) => {
                            key.clear();
                            key.extend(args.iter().filter_map(|t| env.term_value(t)));
                            prefix_run(rel.as_slice(), &key)
                                .first()
                                .is_some_and(|t| t.arity() == key.len())
                        }
                        None => !self.eval_formula(inner, vec![env.clone()])?.is_empty(),
                    };
                    if !holds {
                        out.push(env);
                    }
                }
                Ok(out)
            }
            Formula::Atom(a) => self.exec_atom(&a.pred, &a.args, envs),
            Formula::DynAtom { rel, args } => {
                let mut out = Vec::new();
                for env in envs {
                    for (env1, r) in self.eval_open(rel, &env)? {
                        for t in r.iter() {
                            for (env2, suffix) in self.match_prefix(args, t, &env1) {
                                if suffix.is_empty() {
                                    out.push(env2);
                                }
                            }
                        }
                    }
                }
                Ok(out)
            }
            Formula::Member { term, of } => self.exec_member(term, of, envs),
            Formula::Cmp { op, lhs, rhs } => self.exec_cmp(*op, lhs, rhs, envs),
            Formula::Exists { body, intro, .. } => {
                let inner = self.eval_formula(body, envs)?;
                let mut out: Vec<Env> = inner
                    .into_iter()
                    .map(|mut env| {
                        env.unbind_range(intro.0, intro.1);
                        env
                    })
                    .collect();
                out.sort_unstable();
                out.dedup();
                Ok(out)
            }
            Formula::OfExpr(e) => {
                let mut out = Vec::new();
                for env in envs {
                    for (env1, rel) in self.eval_open(e, &env)? {
                        if rel.is_true() {
                            out.push(env1);
                        }
                    }
                }
                Ok(out)
            }
        }
    }

    /// Greedy scheduling of a conjunction: filters first, then — when a
    /// group of positive atoms qualifies (see [`Self::plan_wcoj`]) — the
    /// leapfrog worst-case-optimal join over the whole group, otherwise
    /// the smallest-relation generator; stuck scheduling is a bug the
    /// safety analysis should have caught.
    fn eval_conj(&self, items: &[Formula], mut envs: Vec<Env>) -> RelResult<Vec<Env>> {
        let mut pending: Vec<&Formula> = Vec::with_capacity(items.len());
        fn flatten<'x>(items: &'x [Formula], out: &mut Vec<&'x Formula>) {
            for f in items {
                match f {
                    Formula::Conj(inner) => flatten(inner, out),
                    other => out.push(other),
                }
            }
        }
        flatten(items, &mut pending);

        // Once WCOJ planning fails for this conjunction it can never
        // start succeeding: scheduling only consumes conjuncts and binds
        // variables, so eligible components can only shrink. Caching the
        // failure keeps the planner from paying eligibility + union-find
        // on every subsequent pick.
        let mut wcoj_failed = false;

        while !pending.is_empty() {
            if envs.is_empty() {
                return Ok(envs);
            }
            let bound = batch_bound(&envs);
            // Negation deferral: a `Not` must wait until no *other*
            // pending conjunct can still bind one of its variables —
            // running `not S(x)` before `R(x)` binds `x` would negate the
            // wrong thing. The "other conjuncts" reference set is the
            // same for every pending `Not` (its own refs are excluded by
            // construction — a `Not` never appears in it), so it is
            // computed once per scheduling iteration instead of once per
            // negation (the old per-`Not` recomputation made each pick
            // O(n²) in the conjunction size).
            let mut positive_refs: Option<BTreeSet<Var>> = None;
            if pending.iter().any(|f| matches!(f, Formula::Not(_))) {
                let mut refs = BTreeSet::new();
                for g in &pending {
                    if !matches!(g, Formula::Not(_)) {
                        formula_refs(g, &mut refs);
                    }
                }
                refs.retain(|v| !bound.contains(v));
                positive_refs = Some(refs);
            }
            // Choose the next conjunct: prefer pure filters, then the
            // cheapest generator.
            let mut choice: Option<(usize, u64)> = None; // (index, cost)
            for (i, f) in pending.iter().enumerate() {
                if let Formula::Not(inner) = f {
                    let free = positive_refs.as_ref().expect("computed when a Not is pending");
                    let mut inner_refs = BTreeSet::new();
                    formula_refs(inner, &mut inner_refs);
                    if inner_refs.iter().any(|v| free.contains(v)) {
                        continue; // defer: a shared variable is still free
                    }
                }
                match self.schedule(f, &bound) {
                    Sched::No => {}
                    Sched::Filter => {
                        choice = Some((i, 0));
                        break;
                    }
                    Sched::Generate(cost) => {
                        if choice.map(|(_, c)| cost < c).unwrap_or(true) {
                            choice = Some((i, cost.max(1)));
                        }
                    }
                }
            }
            let Some((idx, cost)) = choice else {
                return Err(RelError::internal(format!(
                    "evaluation stuck: no conjunct schedulable among {} pending \
                     (safety analysis gap)",
                    pending.len()
                )));
            };
            // With no filter runnable and a generator about to be picked,
            // see whether a whole group of positive atoms can go through
            // the worst-case-optimal path instead of one pairwise step.
            if cost > 0 && !wcoj_failed {
                if let Some(group) = self.plan_wcoj(&pending, &bound) {
                    let picked: Vec<&Formula> = group.iter().map(|&i| pending[i]).collect();
                    for &i in group.iter().rev() {
                        pending.remove(i);
                    }
                    let atoms: Vec<(&Name, &[Term])> = picked
                        .iter()
                        .map(|f| self.wcoj_atom(f).expect("planned atoms stay eligible"))
                        .collect();
                    envs = self.exec_wcoj(&atoms, &bound, envs)?;
                    continue;
                }
                wcoj_failed = true;
            }
            let f = pending.remove(idx);
            if cost > 0 && matches!(f, Formula::Atom(_)) {
                self.note(|r| &r.binary_join_dispatches, ProfileSink::note_binary_join);
            }
            envs = self.eval_formula(f, envs)?;
        }
        Ok(envs)
    }

    // ------------------------------------------------------------------
    // Worst-case-optimal join planning (leapfrog triejoin)
    // ------------------------------------------------------------------

    /// Is this conjunct a WCOJ-eligible atom? Eligible means: a positive
    /// atom over a materialized (or Δ-overlay) relation — not a builtin,
    /// not demand-driven — whose arguments are first-order variables
    /// (distinct within the atom) or non-numeric constants. Numeric
    /// constants are excluded because the scheduler matches them with
    /// Int/Float-promoting equality, while trie seeks use the strict
    /// value order; strings/symbols/entities compare identically either
    /// way. Returns the atom's predicate and argument list.
    fn wcoj_atom<'x>(&self, f: &'x Formula) -> Option<(&'x Name, &'x [Term])> {
        let Formula::Atom(a) = f else { return None };
        if a.args.is_empty()
            || bsig::lookup(&a.pred).is_some()
            || self.is_demand(&a.pred).is_some()
        {
            return None;
        }
        let mut seen = BTreeSet::new();
        for t in &a.args {
            match t {
                Term::Var(v) => {
                    if !seen.insert(*v) {
                        return None; // repeated variable: needs in-atom equality
                    }
                }
                Term::Const(c) => {
                    if c.is_number() {
                        return None;
                    }
                }
                Term::TupleVar(_) => return None,
            }
        }
        Some((&a.pred, &a.args))
    }

    /// Select a group of pending conjuncts for the WCOJ path, returning
    /// their indexes (ascending): the largest variable-connected
    /// component of eligible atoms, when it has at least
    /// [`WCOJ_MIN_ATOMS`] members (two atoms are connected when they share
    /// a variable unbound in the current batch — the genuinely joining
    /// shapes). Returns `None` when the binary-join scheduler should
    /// proceed instead.
    fn plan_wcoj(&self, pending: &[&Formula], bound: &BTreeSet<Var>) -> Option<Vec<usize>> {
        let elig: Vec<(usize, BTreeSet<Var>)> = pending
            .iter()
            .enumerate()
            .filter_map(|(i, f)| {
                self.wcoj_atom(f).map(|(_, args)| {
                    let vars = args
                        .iter()
                        .filter_map(|t| match t {
                            Term::Var(v) if !bound.contains(v) => Some(*v),
                            _ => None,
                        })
                        .collect();
                    (i, vars)
                })
            })
            .collect();
        if elig.len() < WCOJ_MIN_ATOMS {
            return None;
        }
        // Union-find over the eligible atoms, connected by shared free
        // variables.
        let mut parent: Vec<usize> = (0..elig.len()).collect();
        fn find(parent: &mut [usize], i: usize) -> usize {
            let mut root = i;
            while parent[root] != root {
                root = parent[root];
            }
            let mut cur = i;
            while parent[cur] != root {
                let next = parent[cur];
                parent[cur] = root;
                cur = next;
            }
            root
        }
        for a in 0..elig.len() {
            for b in a + 1..elig.len() {
                if !elig[a].1.is_disjoint(&elig[b].1) {
                    let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                    if ra != rb {
                        parent[ra] = rb;
                    }
                }
            }
        }
        let mut components: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, (pending_idx, _)) in elig.iter().enumerate() {
            let root = find(&mut parent, i);
            components.entry(root).or_default().push(*pending_idx);
        }
        // Largest component wins; ties resolve to the earliest conjunct
        // (deterministic — BTreeMap order is by root, and roots carry the
        // first member's index ordering closely enough once sizes tie).
        let best = components
            .into_values()
            .max_by(|a, b| a.len().cmp(&b.len()).then(b[0].cmp(&a[0])))?;
        (best.len() >= WCOJ_MIN_ATOMS).then_some(best)
    }

    /// Evaluate a group of positive atoms as one leapfrog triejoin,
    /// extending each environment of the batch with every satisfying
    /// binding — semantically identical to scheduling the atoms through
    /// the pairwise path (the set of produced environments is the same;
    /// intra-batch order may differ, which no downstream consumer
    /// observes because results land in sorted relations).
    ///
    /// The global variable order is: batch-bound variables, then constant
    /// columns (each pinned by a one-tuple relation), then free variables
    /// most-shared-first. Atom relations are permuted into that order and
    /// fetched from the generation-keyed trie cache, so across fixpoint
    /// iterations, repeated queries, and scheduler workers each sorted
    /// trie is built exactly once per relation state; the per-environment
    /// work is a handful of cursor seeks, not tuple copies.
    fn exec_wcoj(
        &self,
        atoms: &[(&Name, &[Term])],
        bound: &BTreeSet<Var>,
        envs: Vec<Env>,
    ) -> RelResult<Vec<Env>> {
        enum Slot {
            Var(Var),
            Const(Value),
        }
        // 1. Collect variable roles.
        let mut bound_vars: BTreeSet<Var> = BTreeSet::new();
        let mut free_count: BTreeMap<Var, usize> = BTreeMap::new();
        for (_, args) in atoms {
            for t in *args {
                match t {
                    Term::Var(v) if bound.contains(v) => {
                        bound_vars.insert(*v);
                    }
                    Term::Var(v) => *free_count.entry(*v).or_insert(0) += 1,
                    Term::Const(_) => {}
                    Term::TupleVar(_) => unreachable!("excluded by wcoj_atom"),
                }
            }
        }
        // 2. Global join order.
        let mut order: Vec<Slot> = bound_vars.iter().map(|v| Slot::Var(*v)).collect();
        let mut const_slots: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        for (ai, (_, args)) in atoms.iter().enumerate() {
            for (ci, t) in args.iter().enumerate() {
                if let Term::Const(c) = t {
                    const_slots.insert((ai, ci), order.len());
                    order.push(Slot::Const(c.clone()));
                }
            }
        }
        let mut free: Vec<(usize, Var)> = free_count.into_iter().map(|(v, c)| (c, v)).collect();
        free.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        order.extend(free.into_iter().map(|(_, v)| Slot::Var(v)));
        let slot_of: BTreeMap<Var, usize> = order
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s {
                Slot::Var(v) => Some((*v, i)),
                Slot::Const(_) => None,
            })
            .collect();
        // 3. Per-atom column permutation + cached trie.
        let mut tries: Vec<(Arc<SortedRel>, Vec<usize>)> = Vec::with_capacity(atoms.len());
        for (ai, (pred, args)) in atoms.iter().enumerate() {
            let mut cols: Vec<(usize, usize)> = args
                .iter()
                .enumerate()
                .map(|(ci, t)| match t {
                    Term::Var(v) => (slot_of[v], ci),
                    Term::Const(_) => (const_slots[&(ai, ci)], ci),
                    Term::TupleVar(_) => unreachable!("excluded by wcoj_atom"),
                })
                .collect();
            cols.sort_unstable();
            let perm: Vec<usize> = cols.iter().map(|&(_, ci)| ci).collect();
            let vars: Vec<usize> = cols.iter().map(|&(slot, _)| slot).collect();
            let trie = self.trie_for(pred, &perm, false);
            if trie.is_empty() {
                // A required positive conjunct over ∅: the conjunction is ∅.
                return Ok(Vec::new());
            }
            tries.push((trie, vars));
        }
        self.note(|r| &r.wcoj_dispatches, ProfileSink::note_wcoj_join);
        // 4. Constant pins are shared across the batch; per-environment
        // pins add one singleton atom per variable the environment binds.
        // The trie + constant part of the atom list is identical for
        // every environment — build it once (JoinAtom is Copy, so the
        // per-env list is a memcpy plus the pins).
        let const_pins: Vec<(SortedRel, [usize; 1])> = order
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s {
                Slot::Const(c) => {
                    Some((SortedRel::new(vec![Tuple::from(vec![c.clone()])]), [i]))
                }
                Slot::Var(_) => None,
            })
            .collect();
        let mut base: Vec<JoinAtom<'_>> = tries
            .iter()
            .map(|(trie, vars)| JoinAtom { rel: trie, vars })
            .collect();
        base.extend(const_pins.iter().map(|(rel, slot)| JoinAtom { rel, vars: slot }));
        let nvars = order.len();
        let mut out = Vec::new();
        for env in envs {
            let mut pins: Vec<(SortedRel, [usize; 1])> = Vec::new();
            for (i, s) in order.iter().enumerate() {
                if let Slot::Var(v) = s {
                    if let Some(val) = env.value(*v) {
                        pins.push((SortedRel::new(vec![Tuple::from(vec![val.clone()])]), [i]));
                    }
                }
            }
            let mut join_atoms: Vec<JoinAtom<'_>> = base.clone();
            join_atoms.extend(pins.iter().map(|(rel, slot)| JoinAtom { rel, vars: slot }));
            leapfrog_join(&mut join_atoms, nvars, &mut |vals| {
                let mut extended = env.clone();
                for (i, s) in order.iter().enumerate() {
                    if let Slot::Var(v) = s {
                        if extended.value(*v).is_none() {
                            extended.bind(*v, EnvVal::Val(vals[i].clone()));
                        }
                    }
                }
                out.push(extended);
            });
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Conjunct scheduling (abstract, mirrors rel-sema::safety)
    // ------------------------------------------------------------------

    fn schedule(&self, f: &Formula, bound: &BTreeSet<Var>) -> Sched {
        match self.sched_newly(f, bound) {
            None => Sched::No,
            Some(newly) if newly.is_empty() => Sched::Filter,
            Some(_) => Sched::Generate(self.cost_estimate(f)),
        }
    }

    fn cost_estimate(&self, f: &Formula) -> u64 {
        match f {
            Formula::Atom(a) => match self.rels.get(&a.pred) {
                Some(r) => r.len() as u64,
                None => {
                    if bsig::is_builtin(&a.pred) {
                        8
                    } else if self.is_demand(&a.pred).is_some() {
                        64
                    } else {
                        0
                    }
                }
            },
            Formula::Member { of, .. } => match &**of {
                RExpr::Pred(p) => self.rels.get(p).map(|r| r.len() as u64).unwrap_or(16),
                _ => 32,
            },
            Formula::Cmp { .. } => 4,
            _ => 128,
        }
    }

    /// Abstract schedulability: `None` = cannot run; `Some(newly)` = runs
    /// binding `newly`. Mirrors `rel_sema::safety::Cx::try_run`.
    fn sched_newly(&self, f: &Formula, bound: &BTreeSet<Var>) -> Option<BTreeSet<Var>> {
        match f {
            Formula::True | Formula::False => Some(BTreeSet::new()),
            Formula::Conj(items) => {
                let mut b = bound.clone();
                let mut pending: Vec<&Formula> = items.iter().collect();
                while !pending.is_empty() {
                    let before = pending.len();
                    pending.retain(|g| match self.sched_newly(g, &b) {
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
                let mut common: Option<BTreeSet<Var>> = None;
                for br in branches {
                    let n = self.sched_newly(br, bound)?;
                    common = Some(match common {
                        None => n,
                        Some(c) => &c & &n,
                    });
                }
                Some(common.unwrap_or_default())
            }
            Formula::Not(inner) => {
                self.sched_newly(inner, bound)?;
                Some(BTreeSet::new())
            }
            Formula::Atom(a) => self.sched_atom(&a.pred, &a.args, bound),
            Formula::DynAtom { rel, args } => {
                self.sched_expr(rel, bound)?;
                Some(new_vars(args, bound))
            }
            Formula::Member { term, of } => match &**of {
                RExpr::Pred(p) => {
                    if let Some(sig) = bsig::lookup(p) {
                        return (sig.type_test && term_bound_in(term, bound))
                            .then(BTreeSet::new);
                    }
                    Some(new_vars(std::slice::from_ref(term), bound))
                }
                other => {
                    let mut n = self.sched_expr(other, bound)?;
                    n.extend(new_vars(std::slice::from_ref(term), bound));
                    Some(n)
                }
            },
            Formula::Cmp { op, lhs, rhs } => {
                let l = self.sched_expr(lhs, bound);
                let r = self.sched_expr(rhs, bound);
                match (l, r) {
                    (Some(a), Some(b)) => Some(a.union(&b).copied().collect()),
                    (l, r) if *op == CmpOp::Eq => {
                        if let (RExpr::Singleton(ts), Some(rb)) = (&**lhs, &r) {
                            if let [t] = ts.as_slice() {
                                let mut out = rb.clone();
                                out.extend(new_vars(std::slice::from_ref(t), bound));
                                return Some(out);
                            }
                        }
                        if let (Some(lb), RExpr::Singleton(ts)) = (&l, &**rhs) {
                            if let [t] = ts.as_slice() {
                                let mut out = lb.clone();
                                out.extend(new_vars(std::slice::from_ref(t), bound));
                                return Some(out);
                            }
                        }
                        None
                    }
                    _ => None,
                }
            }
            Formula::Exists { vars, tuple_vars, body, .. } => {
                let inner = self.sched_newly(body, bound)?;
                let mut all = bound.clone();
                all.extend(inner.iter().copied());
                if !vars.iter().chain(tuple_vars).all(|v| all.contains(v)) {
                    return None;
                }
                let mut newly = inner;
                for v in vars.iter().chain(tuple_vars) {
                    newly.remove(v);
                }
                Some(newly)
            }
            Formula::OfExpr(e) => self.sched_expr(e, bound),
        }
    }

    fn sched_atom(&self, pred: &Name, args: &[Term], bound: &BTreeSet<Var>) -> Option<BTreeSet<Var>> {
        if let Some(sig) = bsig::lookup(pred) {
            if args.len() + 1 == sig.arity {
                // Partial application computing the output position:
                // all provided arguments must be bound.
                return args
                    .iter()
                    .all(|t| term_bound_in(t, bound))
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
                            if !term_bound_in(t, bound) {
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
        if let Some(k) = self.is_demand(pred) {
            if args.iter().any(Term::is_tuple_var) {
                // Tuple-variable args can't be aligned with the bound
                // prefix statically: run as a fully-bound filter.
                return args
                    .iter()
                    .all(|t| term_bound_in(t, bound))
                    .then(BTreeSet::new);
            }
            if args.len() < k || !args.iter().take(k).all(|t| term_bound_in(t, bound)) {
                return None;
            }
            return Some(new_vars(&args[k..], bound));
        }
        Some(new_vars(args, bound))
    }

    fn sched_expr(&self, e: &RExpr, bound: &BTreeSet<Var>) -> Option<BTreeSet<Var>> {
        match e {
            RExpr::Pred(p) => {
                // A bare builtin (infinite) or a demand predicate with a
                // required bound prefix cannot be used whole.
                let usable = bsig::lookup(p).is_none()
                    && !self.is_demand(p).map(|k| k > 0).unwrap_or(false);
                usable.then(BTreeSet::new)
            }
            RExpr::PApp { pred, args } => self.sched_atom(pred, args, bound),
            RExpr::DynPApp { rel, args } => {
                let mut n = self.sched_expr(rel, bound)?;
                n.extend(new_vars(args, bound));
                Some(n)
            }
            RExpr::Product(es) => {
                let mut b = bound.clone();
                let mut pending: Vec<&RExpr> = es.iter().collect();
                while !pending.is_empty() {
                    let before = pending.len();
                    pending.retain(|x| match self.sched_expr(x, &b) {
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
                    let n = self.sched_expr(x, bound)?;
                    common = Some(match common {
                        None => n,
                        Some(c) => &c & &n,
                    });
                }
                Some(common.unwrap_or_default())
            }
            RExpr::Singleton(ts) => ts
                .iter()
                .all(|t| term_bound_in(t, bound))
                .then(BTreeSet::new),
            RExpr::Where { body, cond } => {
                let n = self.sched_newly(cond, bound)?;
                let mut b = bound.clone();
                b.extend(n.iter().copied());
                let n2 = self.sched_expr(body, &b)?;
                let mut out = n;
                out.extend(n2);
                Some(out)
            }
            RExpr::Abstract { params, body, .. } => {
                let mut members: Vec<Formula> = Vec::new();
                for p in params {
                    if let AbsParam::In(v, dom) = p {
                        members.push(Formula::Member { term: Term::Var(*v), of: dom.clone() });
                    }
                }
                let param_vars: BTreeSet<Var> = params.iter().filter_map(AbsParam::var).collect();
                let inner = match &**body {
                    RExpr::OfFormula(f) => {
                        members.push((**f).clone());
                        self.sched_newly(&Formula::conj(members), bound)?
                    }
                    RExpr::Where { body: vb, cond } => {
                        members.push((**cond).clone());
                        let n = self.sched_newly(&Formula::conj(members), bound)?;
                        let mut b = bound.clone();
                        b.extend(n.iter().copied());
                        let n2 = self.sched_expr(vb, &b)?;
                        n.union(&n2).copied().collect()
                    }
                    other => {
                        let n = self.sched_newly(&Formula::conj(members), bound)?;
                        let mut b = bound.clone();
                        b.extend(n.iter().copied());
                        let n2 = self.sched_expr(other, &b)?;
                        n.union(&n2).copied().collect()
                    }
                };
                let mut all = bound.clone();
                all.extend(inner.iter().copied());
                if !param_vars.iter().all(|v| all.contains(v)) {
                    return None;
                }
                let mut newly = inner;
                for v in &param_vars {
                    newly.remove(v);
                }
                Some(newly)
            }
            RExpr::Reduce { op, input, .. } => {
                if !matches!(&**op, RExpr::Pred(_)) {
                    self.sched_expr(op, bound)?;
                }
                self.sched_expr(input, bound)
            }
            RExpr::BuiltinApp { args, .. } => {
                let mut newly = BTreeSet::new();
                for a in args {
                    let mut b = bound.clone();
                    b.extend(newly.iter().copied());
                    newly.extend(self.sched_expr(a, &b)?);
                }
                Some(newly)
            }
            RExpr::DotJoin(a, b) | RExpr::LeftOverride(a, b) => {
                let na = self.sched_expr(a, bound)?;
                let nb = self.sched_expr(b, bound)?;
                Some(na.union(&nb).copied().collect())
            }
            RExpr::OfFormula(f) => self.sched_newly(f, bound),
        }
    }

    // ------------------------------------------------------------------
    // Atom execution
    // ------------------------------------------------------------------

    /// If `f` is an atom over a stored relation (no builtin, no demand
    /// predicate, no tuple variable) whose arguments every environment of
    /// the batch grounds, the relation and the arguments.
    fn bound_stored_atom<'x>(&self, f: &'x Formula, envs: &[Env]) -> Option<(Relation, &'x [Term])> {
        let Formula::Atom(a) = f else { return None };
        let grounded = |env: &Env| {
            a.args.iter().all(|t| match t {
                Term::Const(_) => true,
                Term::Var(v) => env.value(*v).is_some(),
                Term::TupleVar(_) => false,
            })
        };
        (bsig::lookup(&a.pred).is_none()
            && self.is_demand(&a.pred).is_none()
            && envs.iter().all(grounded))
        .then(|| (self.relation(&a.pred), a.args.as_slice()))
    }

    fn exec_atom(&self, pred: &Name, args: &[Term], envs: Vec<Env>) -> RelResult<Vec<Env>> {
        // Builtins.
        if bsig::lookup(pred).is_some() {
            let mut out = Vec::new();
            for env in envs {
                let inputs: Vec<Option<Value>> = args.iter().map(|t| env.term_value(t)).collect();
                for tuple in builtins::solve(bsig::canonical(pred).expect("checked"), &inputs)? {
                    if let Some(env2) = unify_values(args, &tuple, &env) {
                        out.push(env2);
                    }
                }
            }
            return Ok(out);
        }
        // Demand-driven predicates.
        if let Some(k) = self.is_demand(pred) {
            let mut out = Vec::new();
            let has_tuple_vars = args.iter().any(Term::is_tuple_var);
            for env in envs {
                if has_tuple_vars {
                    // Fully-bound filter mode: splice all args into a value
                    // tuple and check membership rule by rule (the callee's
                    // own parameters may include tuple variables, so the
                    // positional-prefix table cannot be used).
                    let mut vals = Vec::new();
                    for t in args {
                        if !env.splice_term(t, &mut vals) {
                            return Err(RelError::internal(format!(
                                "demand argument of `{pred}` unbound at runtime"
                            )));
                        }
                    }
                    if self.demand_check(pred, &vals)? {
                        out.push(env);
                    }
                    continue;
                }
                let mut prefix = Vec::with_capacity(k);
                for t in args.iter().take(k) {
                    match env.term_value(t) {
                        Some(v) => prefix.push(v),
                        None => {
                            return Err(RelError::internal(format!(
                                "demand argument of `{pred}` unbound at runtime"
                            )))
                        }
                    }
                }
                let rel = self.eval_demand(pred, &prefix)?;
                for t in rel.iter() {
                    for (env2, suffix) in self.match_prefix(args, t, &env) {
                        if suffix.is_empty() {
                            out.push(env2);
                        }
                    }
                }
            }
            return Ok(out);
        }
        // Materialized relation, tuple-variable-free atom: the bound
        // positions select the candidate rows — a binary-searched run of
        // the sorted rows when they are a prefix of the arguments (point
        // lookups, fully bound filters, plain scans), otherwise a run of
        // the rows permuted key positions first (a cached sorted view).
        let has_tuple_vars = args.iter().any(Term::is_tuple_var);
        if !has_tuple_vars && !envs.is_empty() {
            let bound = batch_bound(&envs);
            let key_positions: Vec<usize> = args
                .iter()
                .enumerate()
                .filter(|(_, t)| match t {
                    Term::Const(_) => true,
                    Term::Var(v) => bound.contains(v),
                    Term::TupleVar(_) => false,
                })
                .map(|(i, _)| i)
                .collect();
            let is_prefix = key_positions.iter().copied().eq(0..key_positions.len());
            let permuted = (!is_prefix).then(|| {
                let mut perm = key_positions.clone();
                perm.extend((0..args.len()).filter(|i| !key_positions.contains(i)));
                self.trie_for(pred, &perm, true)
            });
            let rel = self.relation(pred);
            let mut out = Vec::new();
            let mut key = Vec::with_capacity(key_positions.len());
            for env in envs {
                key.clear();
                key.extend(key_positions.iter().map_while(|&i| env.term_value(&args[i])));
                let mut unify = |t: &Tuple| out.extend(self.unify_atom(args, t, &env));
                if key.len() < key_positions.len() {
                    // This env lacks a binding the batch generally has —
                    // fall back to a scan for it.
                    rel.iter().for_each(&mut unify);
                } else if let Some(view) = &permuted {
                    view.prefix_rows(&key).for_each(&mut unify);
                } else {
                    prefix_run(rel.as_slice(), &key).iter().for_each(&mut unify);
                }
            }
            return Ok(out);
        }
        // Tuple-variable matching: scan with split enumeration.
        let rel = self.relation(pred);
        let mut out = Vec::new();
        for env in envs {
            for t in rel.iter() {
                for (env2, suffix) in self.match_prefix(args, t, &env) {
                    if suffix.is_empty() {
                        out.push(env2);
                    }
                }
            }
        }
        Ok(out)
    }

    /// Build (or fetch) the sorted view of `pred` with columns permuted
    /// by `perm` (only tuples of arity `perm.len()` participate — the
    /// atom's arity). Cached generation-keyed: the permutation sort runs
    /// once per relation state and the resulting [`SortedRel`] is shared
    /// read-only across fixpoint iterations, session queries, and
    /// scheduler worker threads. `probe` names the caller for the
    /// counters: a non-prefix atom probe in `exec_atom` ticks
    /// `index_builds`/`index_reuses`, a leapfrog or fused kernel
    /// `trie_builds`/`trie_reuses`.
    fn trie_for(&self, pred: &Name, perm: &[usize], probe: bool) -> Arc<SortedRel> {
        let rel = self.rels.get(pred);
        let generation = rel.map(Relation::generation).unwrap_or(0);
        let cache_key = (pred.clone(), perm.to_vec());
        if let Some((built_gen, hit)) = self.indexes.read().get(&cache_key) {
            // A generation-stale entry falls through to the rebuild below
            // and is counted as a build (miss), never a reuse.
            if *built_gen == generation {
                if probe {
                    self.note(|r| &r.index_reuses, ProfileSink::note_index_reuse);
                } else {
                    self.note(|r| &r.trie_reuses, ProfileSink::note_trie_reuse);
                }
                return Arc::clone(hit);
            }
        }
        if probe {
            self.note(|r| &r.index_builds, ProfileSink::note_index_build);
        } else {
            self.note(|r| &r.trie_builds, ProfileSink::note_trie_build);
        }
        let trie = Arc::new(match rel {
            Some(r) => SortedRel::permuted(r, perm),
            None => SortedRel::new(Vec::new()),
        });
        self.indexes
            .write()
            .insert(cache_key, (generation, Arc::clone(&trie)));
        trie
    }

    /// Unify tuple-variable-free args against a tuple.
    fn unify_atom(&self, args: &[Term], t: &Tuple, env: &Env) -> Option<Env> {
        if t.arity() != args.len() {
            return None;
        }
        unify_values(args, t.values(), env)
    }

    /// Match `args` as a prefix of tuple `t`, enumerating tuple-variable
    /// splits. Returns `(env, suffix)` pairs (suffix = values beyond the
    /// matched prefix; empty for full applications).
    fn match_prefix<'t>(
        &self,
        args: &[Term],
        t: &'t Tuple,
        env: &Env,
    ) -> Vec<(Env, &'t [Value])> {
        let mut out = Vec::new();
        rec_match(args, t.values(), env, &mut out);
        out
    }

    // ------------------------------------------------------------------
    // Member / Cmp
    // ------------------------------------------------------------------

    fn exec_member(&self, term: &Term, of: &RExpr, envs: Vec<Env>) -> RelResult<Vec<Env>> {
        // Builtin type tests.
        if let RExpr::Pred(p) = of {
            if let Some(sig) = bsig::lookup(p) {
                if sig.type_test {
                    let mut out = Vec::new();
                    for env in envs {
                        let Some(v) = env.term_value(term) else {
                            return Err(RelError::internal(
                                "type-test argument unbound at runtime",
                            ));
                        };
                        if !builtins::solve(sig.name, &[Some(v)])?.is_empty() {
                            out.push(env);
                        }
                    }
                    return Ok(out);
                }
                return Err(RelError::unsafe_expr(format!(
                    "builtin `{p}` cannot be used as a membership domain"
                )));
            }
            // Finite named relation: behaves like a unary atom.
            return self.exec_atom(p, std::slice::from_ref(term), envs);
        }
        let mut out = Vec::new();
        for env in envs {
            for (env1, rel) in self.eval_open(of, &env)? {
                for t in rel.iter() {
                    if t.arity() != 1 {
                        continue;
                    }
                    if let Some(env2) =
                        unify_values(std::slice::from_ref(term), t.values(), &env1)
                    {
                        out.push(env2);
                    }
                }
            }
        }
        Ok(out)
    }

    fn exec_cmp(
        &self,
        op: CmpOp,
        lhs: &RExpr,
        rhs: &RExpr,
        envs: Vec<Env>,
    ) -> RelResult<Vec<Env>> {
        let mut out = Vec::new();
        for env in envs {
            let bound = env_bound(&env);
            let l_ok = self.sched_expr(lhs, &bound).is_some();
            let r_ok = self.sched_expr(rhs, &bound).is_some();
            match (l_ok, r_ok) {
                (true, true) => {
                    for (env1, l) in self.eval_open(lhs, &env)? {
                        for (env2, r) in self.eval_open(rhs, &env1)? {
                            if rel_cmp_holds(op, &l, &r) {
                                out.push(env2);
                            }
                        }
                    }
                }
                (false, true) if op == CmpOp::Eq => {
                    let RExpr::Singleton(ts) = lhs else {
                        return Err(stuck_cmp());
                    };
                    let [t] = ts.as_slice() else { return Err(stuck_cmp()) };
                    for (env1, r) in self.eval_open(rhs, &env)? {
                        for tup in r.iter() {
                            if tup.arity() == 1 {
                                if let Some(env2) =
                                    unify_values(std::slice::from_ref(t), tup.values(), &env1)
                                {
                                    out.push(env2);
                                }
                            }
                        }
                    }
                }
                (true, false) if op == CmpOp::Eq => {
                    let RExpr::Singleton(ts) = rhs else {
                        return Err(stuck_cmp());
                    };
                    let [t] = ts.as_slice() else { return Err(stuck_cmp()) };
                    for (env1, l) in self.eval_open(lhs, &env)? {
                        for tup in l.iter() {
                            if tup.arity() == 1 {
                                if let Some(env2) =
                                    unify_values(std::slice::from_ref(t), tup.values(), &env1)
                                {
                                    out.push(env2);
                                }
                            }
                        }
                    }
                }
                _ => return Err(stuck_cmp()),
            }
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Open expression evaluation
    // ------------------------------------------------------------------

    /// Evaluate a relation-valued expression under `env`, possibly
    /// extending it (binding free variables). Returns `(env', relation)`
    /// pairs — one per binding of the expression's outer free variables.
    pub fn eval_open(&self, e: &RExpr, env: &Env) -> RelResult<Vec<(Env, Relation)>> {
        match e {
            RExpr::Pred(p) => {
                if bsig::lookup(p).is_some() {
                    return Err(RelError::unsafe_expr(format!(
                        "builtin relation `{p}` is infinite and cannot be materialized"
                    )));
                }
                if let Some(k) = self.is_demand(p) {
                    if k == 0 {
                        return Ok(vec![(env.clone(), (*self.eval_demand(p, &[])?).clone())]);
                    }
                    return Err(RelError::unsafe_expr(format!(
                        "demand-driven relation `{p}` used without bound arguments"
                    )));
                }
                Ok(vec![(env.clone(), self.relation(p))])
            }
            RExpr::PApp { pred, args } => self.open_papp(pred, args, env),
            RExpr::DynPApp { rel, args } => {
                let mut out = Vec::new();
                for (env1, r) in self.eval_open(rel, env)? {
                    let mut grouped: BTreeMap<Env, Relation> = BTreeMap::new();
                    for t in r.iter() {
                        for (env2, suffix) in self.match_prefix(args, t, &env1) {
                            grouped
                                .entry(env2)
                                .or_default()
                                .insert(Tuple::from(suffix.to_vec()));
                        }
                    }
                    out.extend(grouped);
                }
                Ok(out)
            }
            RExpr::Product(es) => self.open_product(es, env),
            RExpr::Union(es) => {
                let mut rel = Relation::new();
                for x in es {
                    for (_, r) in self.eval_open(x, env)? {
                        rel.absorb(&r);
                    }
                }
                Ok(vec![(env.clone(), rel)])
            }
            RExpr::Singleton(ts) => {
                let mut vals = Vec::with_capacity(ts.len());
                for t in ts {
                    if !env.splice_term(t, &mut vals) {
                        return Err(RelError::internal(
                            "singleton term unbound at runtime (safety analysis gap)",
                        ));
                    }
                }
                Ok(vec![(env.clone(), Relation::singleton(Tuple::from(vals)))])
            }
            RExpr::Where { body, cond } => {
                let envs = self.eval_formula(cond, vec![env.clone()])?;
                let mut out = Vec::new();
                for env1 in envs {
                    out.extend(self.eval_open(body, &env1)?);
                }
                Ok(out)
            }
            RExpr::OfFormula(f) => {
                let envs = self.eval_formula(f, vec![env.clone()])?;
                Ok(envs.into_iter().map(|e| (e, Relation::true_rel())).collect())
            }
            RExpr::Abstract { params, body, intro } => self.open_abstract(params, body, *intro, env),
            RExpr::Reduce { op, input, intro } => self.open_reduce(op, input, *intro, env),
            RExpr::BuiltinApp { op, args } => self.open_builtin_app(op, args, env),
            RExpr::DotJoin(a, b) => {
                let mut out = Vec::new();
                for (env1, ra) in self.eval_open(a, env)? {
                    for (env2, rb) in self.eval_open(b, &env1)? {
                        let mut rel = Relation::new();
                        for ta in ra.iter() {
                            if ta.is_empty() {
                                continue;
                            }
                            let join = &ta.values()[ta.arity() - 1];
                            for tb in rb.iter() {
                                if tb.is_empty() {
                                    continue;
                                }
                                if tb.values()[0] == *join {
                                    let mut vals = ta.values()[..ta.arity() - 1].to_vec();
                                    vals.extend(tb.values()[1..].iter().cloned());
                                    rel.insert(Tuple::from(vals));
                                }
                            }
                        }
                        out.push((env2, rel));
                    }
                }
                Ok(out)
            }
            RExpr::LeftOverride(a, b) => {
                let mut out = Vec::new();
                for (env1, ra) in self.eval_open(a, env)? {
                    for (env2, rb) in self.eval_open(b, &env1)? {
                        let mut rel = ra.clone();
                        for tb in rb.iter() {
                            if tb.is_empty() {
                                continue;
                            }
                            let key = &tb.values()[..tb.arity() - 1];
                            if !ra.iter().any(|ta| ta.starts_with(key)) {
                                rel.insert(tb.clone());
                            }
                        }
                        out.push((env2, rel));
                    }
                }
                Ok(out)
            }
        }
    }

    fn open_papp(&self, pred: &Name, args: &[Term], env: &Env) -> RelResult<Vec<(Env, Relation)>> {
        // Builtins: partial application computes outputs.
        if let Some(sig) = bsig::lookup(pred) {
            let canonical = bsig::canonical(pred).expect("checked");
            let mut inputs: Vec<Option<Value>> =
                args.iter().map(|t| env.term_value(t)).collect();
            if args.len() == sig.arity {
                let results = builtins::solve(canonical, &inputs)?;
                let rel = if results.is_empty() {
                    Relation::false_rel()
                } else {
                    Relation::true_rel()
                };
                return Ok(vec![(env.clone(), rel)]);
            }
            if args.len() == sig.arity - 1 {
                inputs.push(None);
                let mut rel = Relation::new();
                for t in builtins::solve(canonical, &inputs)? {
                    rel.insert(Tuple::from(vec![t[sig.arity - 1].clone()]));
                }
                return Ok(vec![(env.clone(), rel)]);
            }
            return Err(RelError::unsafe_expr(format!(
                "partial application of builtin `{pred}` with {} arguments \
                 (arity {})",
                args.len(),
                sig.arity
            )));
        }
        // Demand predicates.
        if let Some(k) = self.is_demand(pred) {
            let mut prefix = Vec::with_capacity(k);
            for t in args.iter().take(k) {
                match env.term_value(t) {
                    Some(v) => prefix.push(v),
                    None => {
                        return Err(RelError::internal(format!(
                            "demand argument of `{pred}` unbound at runtime"
                        )))
                    }
                }
            }
            let rel = self.eval_demand(pred, &prefix)?;
            return Ok(self.group_suffixes(args, rel.iter(), env));
        }
        // Materialized.
        let rel = self.relation(pred);
        Ok(self.group_suffixes(args, rel.iter(), env))
    }

    /// Match args as prefixes over `tuples`, grouping suffixes by the
    /// resulting environment extension.
    fn group_suffixes<'t>(
        &self,
        args: &[Term],
        tuples: impl Iterator<Item = &'t Tuple>,
        env: &Env,
    ) -> Vec<(Env, Relation)> {
        let mut grouped: BTreeMap<Env, Relation> = BTreeMap::new();
        for t in tuples {
            for (env2, suffix) in self.match_prefix(args, t, env) {
                grouped
                    .entry(env2)
                    .or_default()
                    .insert(Tuple::from(suffix.to_vec()));
            }
        }
        if grouped.is_empty() {
            // A fully-bound application over no matches is simply empty.
            let all_bound = args.iter().all(|t| env.term_bound(t));
            if all_bound {
                return vec![(env.clone(), Relation::new())];
            }
        }
        grouped.into_iter().collect()
    }

    fn open_product(&self, es: &[RExpr], env: &Env) -> RelResult<Vec<(Env, Relation)>> {
        // Greedy factor scheduling with per-factor relation parts.
        let mut states: Vec<(Env, BTreeMap<usize, Relation>)> =
            vec![(env.clone(), BTreeMap::new())];
        let mut pending: Vec<usize> = (0..es.len()).collect();
        while !pending.is_empty() {
            if states.is_empty() {
                return Ok(vec![]);
            }
            let bound = env_bound(&states[0].0);
            let pos = pending
                .iter()
                .position(|&i| self.sched_expr(&es[i], &bound).is_some())
                .ok_or_else(|| {
                    RelError::internal("product factors unschedulable (safety gap)")
                })?;
            let i = pending.remove(pos);
            let mut next = Vec::with_capacity(states.len());
            for (env1, parts) in states {
                for (env2, rel) in self.eval_open(&es[i], &env1)? {
                    let mut p = parts.clone();
                    p.insert(i, rel);
                    next.push((env2, p));
                }
            }
            states = next;
        }
        Ok(states
            .into_iter()
            .map(|(env1, parts)| {
                let mut rel = Relation::true_rel();
                for i in 0..es.len() {
                    rel = rel.product(parts.get(&i).expect("all factors evaluated"));
                }
                (env1, rel)
            })
            .collect())
    }

    fn open_abstract(
        &self,
        params: &[AbsParam],
        body: &RExpr,
        intro: (Var, Var),
        env: &Env,
    ) -> RelResult<Vec<(Env, Relation)>> {
        let mut members: Vec<Formula> = Vec::new();
        for p in params {
            if let AbsParam::In(v, dom) = p {
                members.push(Formula::Member { term: Term::Var(*v), of: dom.clone() });
            }
        }
        let mut grouped: BTreeMap<Env, Relation> = BTreeMap::new();
        let route = |env2: Env, head_params: &[AbsParam], rel: Relation,
                         grouped: &mut BTreeMap<Env, Relation>|
         -> RelResult<()> {
            if rel.is_empty() {
                return Ok(());
            }
            let Some(head) = env2.head_tuple(head_params) else {
                return Err(RelError::internal(
                    "abstraction parameter unbound at emission",
                ));
            };
            let key = env2.cleared(intro.0, intro.1);
            let slot = grouped.entry(key).or_default();
            for t in rel.iter() {
                slot.insert(head.concat(t));
            }
            Ok(())
        };
        match body {
            RExpr::OfFormula(f) => {
                members.push((**f).clone());
                let envs = self.eval_formula(&Formula::conj(members), vec![env.clone()])?;
                for env2 in envs {
                    route(env2, params, Relation::true_rel(), &mut grouped)?;
                }
            }
            RExpr::Where { body: vb, cond } => {
                members.push((**cond).clone());
                let envs = self.eval_formula(&Formula::conj(members), vec![env.clone()])?;
                for env1 in envs {
                    for (env2, rel) in self.eval_open(vb, &env1)? {
                        route(env2, params, rel, &mut grouped)?;
                    }
                }
            }
            RExpr::Union(branches) => {
                // Evaluate each branch independently under the domains.
                let envs = self.eval_formula(&Formula::conj(members), vec![env.clone()])?;
                for env1 in envs {
                    for br in branches {
                        for (env2, rel) in self.eval_open(br, &env1)? {
                            route(env2, params, rel, &mut grouped)?;
                        }
                    }
                }
            }
            other => {
                let envs = self.eval_formula(&Formula::conj(members), vec![env.clone()])?;
                for env1 in envs {
                    for (env2, rel) in self.eval_open(other, &env1)? {
                        route(env2, params, rel, &mut grouped)?;
                    }
                }
            }
        }
        if grouped.is_empty() {
            return Ok(vec![(env.clone(), Relation::new())]);
        }
        Ok(grouped.into_iter().collect())
    }

    fn open_reduce(
        &self,
        op: &RExpr,
        input: &RExpr,
        intro: (Var, Var),
        env: &Env,
    ) -> RelResult<Vec<(Env, Relation)>> {
        // Group input pieces by the environment outside the input's scope.
        let mut groups: BTreeMap<Env, Relation> = BTreeMap::new();
        for (env1, rel) in self.eval_open(input, env)? {
            let key = env1.cleared(intro.0, intro.1);
            groups.entry(key).or_default().absorb(&rel);
        }
        let mut out = Vec::with_capacity(groups.len());
        for (genv, rel) in groups {
            if rel.is_empty() {
                continue; // reduce over ∅ is ∅ (§5.2: unpaid orders vanish)
            }
            let folded = self.fold(op, &rel, &genv)?;
            out.push((genv, Relation::singleton(Tuple::from(vec![folded]))));
        }
        Ok(out)
    }

    /// Fold the last column of `rel` with `op` (sorted order — deterministic;
    /// the paper requires associativity/commutativity for order-independence).
    fn fold(&self, op: &RExpr, rel: &Relation, env: &Env) -> RelResult<Value> {
        let values = rel.last_column();
        if values.is_empty() {
            return Err(RelError::Reduce("reduce over an empty relation".into()));
        }
        // Fast path: builtin op by name.
        if let RExpr::Pred(p) = op {
            if let Some(canonical) = bsig::canonical(p) {
                let mut acc = values[0].clone();
                for v in &values[1..] {
                    acc = builtins::fold_step(canonical, &acc, v)?;
                }
                return Ok(acc);
            }
            // User-defined op relation: apply as a binary function via
            // demand or materialized lookup.
            let mut acc = values[0].clone();
            for v in &values[1..] {
                acc = self.apply_binary(p, &acc, v)?;
            }
            return Ok(acc);
        }
        // General case: evaluate the op to a finite relation and use it as
        // a function table.
        let pairs = self.eval_open(op, env)?;
        let table: Relation = pairs.into_iter().flat_map(|(_, r)| r.into_tuples()).collect();
        let mut acc = values[0].clone();
        for v in &values[1..] {
            let suffix = table.partial_apply(&[acc.clone(), v.clone()]);
            let mut it = suffix.iter();
            match (it.next(), it.next()) {
                (Some(t), None) if t.arity() == 1 => acc = t.values()[0].clone(),
                _ => {
                    return Err(RelError::Reduce(format!(
                        "reduce op is not a binary function on ({acc}, {v})"
                    )))
                }
            }
        }
        Ok(acc)
    }

    /// Apply a named predicate as a binary function: `p(a, b, result)`.
    fn apply_binary(&self, pred: &Name, a: &Value, b: &Value) -> RelResult<Value> {
        let prefix = [a.clone(), b.clone()];
        let suffix: Relation = if let Some(k) = self.is_demand(pred) {
            if k > 2 {
                return Err(RelError::Reduce(format!(
                    "reduce op `{pred}` needs {k} bound arguments"
                )));
            }
            let rel = self.eval_demand(pred, &prefix[..k])?;
            rel.partial_apply(&prefix)
        } else {
            self.relation(pred).partial_apply(&prefix)
        };
        let mut it = suffix.iter();
        match (it.next(), it.next()) {
            (Some(t), None) if t.arity() == 1 => Ok(t.values()[0].clone()),
            _ => Err(RelError::Reduce(format!(
                "reduce op `{pred}` is not a binary function on ({a}, {b})"
            ))),
        }
    }

    fn open_builtin_app(
        &self,
        op: &Name,
        args: &[RExpr],
        env: &Env,
    ) -> RelResult<Vec<(Env, Relation)>> {
        // Evaluate argument sets (each a unary relation), then apply the
        // builtin to every combination, collecting outputs.
        fn rec(
            cx: &EvalCtx<'_>,
            op: &Name,
            args: &[RExpr],
            idx: usize,
            env: Env,
            chosen: &mut Vec<Value>,
            out: &mut Vec<(Env, Relation)>,
        ) -> RelResult<()> {
            if idx == args.len() {
                let mut inputs: Vec<Option<Value>> =
                    chosen.iter().cloned().map(Some).collect();
                inputs.push(None);
                let mut rel = Relation::new();
                for t in builtins::solve(op, &inputs)? {
                    rel.insert(Tuple::from(vec![t[t.len() - 1].clone()]));
                }
                out.push((env, rel));
                return Ok(());
            }
            for (env1, r) in cx.eval_open(&args[idx], &env)? {
                for t in r.iter() {
                    if t.arity() != 1 {
                        continue;
                    }
                    chosen.push(t.values()[0].clone());
                    rec(cx, op, args, idx + 1, env1.clone(), chosen, out)?;
                    chosen.pop();
                }
            }
            Ok(())
        }
        let mut raw = Vec::new();
        let mut chosen = Vec::new();
        rec(self, op, args, 0, env.clone(), &mut chosen, &mut raw)?;
        // Merge relations per environment.
        let mut grouped: BTreeMap<Env, Relation> = BTreeMap::new();
        for (e, r) in raw {
            grouped.entry(e).or_default().absorb(&r);
        }
        if grouped.is_empty() {
            return Ok(vec![(env.clone(), Relation::new())]);
        }
        Ok(grouped.into_iter().collect())
    }
}

/// Does the comparison hold between two unary relations (exists-semantics)?
fn rel_cmp_holds(op: CmpOp, l: &Relation, r: &Relation) -> bool {
    for a in l.iter().filter(|t| t.arity() == 1) {
        for b in r.iter().filter(|t| t.arity() == 1) {
            let x = &a.values()[0];
            let y = &b.values()[0];
            let holds = match op {
                CmpOp::Eq => x.numeric_eq(y),
                CmpOp::Neq => !x.numeric_eq(y),
                _ => match x.numeric_cmp(y) {
                    Some(ord) => match op {
                        CmpOp::Lt => ord == std::cmp::Ordering::Less,
                        CmpOp::Le => ord != std::cmp::Ordering::Greater,
                        CmpOp::Gt => ord == std::cmp::Ordering::Greater,
                        CmpOp::Ge => ord != std::cmp::Ordering::Less,
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

fn stuck_cmp() -> RelError {
    RelError::internal("comparison with unbound sides at runtime (safety analysis gap)")
}

/// Variables bound in *every* environment of the batch.
fn batch_bound(envs: &[Env]) -> BTreeSet<Var> {
    let Some(first) = envs.first() else { return BTreeSet::new() };
    let mut bound: BTreeSet<Var> =
        (0..first.len() as Var).filter(|v| first.is_bound(*v)).collect();
    for env in &envs[1..] {
        bound.retain(|v| env.is_bound(*v));
    }
    bound
}

fn env_bound(env: &Env) -> BTreeSet<Var> {
    (0..env.len() as Var).filter(|v| env.is_bound(*v)).collect()
}

/// All variable references in a formula (conservative, including nested
/// scopes).
fn formula_refs(f: &Formula, out: &mut BTreeSet<Var>) {
    match f {
        Formula::True | Formula::False => {}
        Formula::Conj(items) | Formula::Disj(items) => {
            for i in items {
                formula_refs(i, out);
            }
        }
        Formula::Not(inner) => formula_refs(inner, out),
        Formula::Atom(a) => term_refs(&a.args, out),
        Formula::DynAtom { rel, args } => {
            rexpr_refs(rel, out);
            term_refs(args, out);
        }
        Formula::Cmp { lhs, rhs, .. } => {
            rexpr_refs(lhs, out);
            rexpr_refs(rhs, out);
        }
        Formula::Member { term, of } => {
            term_refs(std::slice::from_ref(term), out);
            rexpr_refs(of, out);
        }
        Formula::Exists { body, intro, .. } => {
            let mut inner = BTreeSet::new();
            formula_refs(body, &mut inner);
            out.extend(inner.into_iter().filter(|v| *v < intro.0 || *v >= intro.1));
        }
        Formula::OfExpr(e) => rexpr_refs(e, out),
    }
}

fn rexpr_refs(e: &RExpr, out: &mut BTreeSet<Var>) {
    match e {
        RExpr::Pred(_) => {}
        RExpr::PApp { args, .. } => term_refs(args, out),
        RExpr::DynPApp { rel, args } => {
            rexpr_refs(rel, out);
            term_refs(args, out);
        }
        RExpr::Product(es) | RExpr::Union(es) => {
            for x in es {
                rexpr_refs(x, out);
            }
        }
        RExpr::Singleton(ts) => term_refs(ts, out),
        RExpr::Where { body, cond } => {
            rexpr_refs(body, out);
            formula_refs(cond, out);
        }
        RExpr::Abstract { params, body, intro } => {
            let mut inner = BTreeSet::new();
            for p in params {
                if let AbsParam::In(_, dom) = p {
                    rexpr_refs(dom, &mut inner);
                }
            }
            rexpr_refs(body, &mut inner);
            out.extend(inner.into_iter().filter(|v| *v < intro.0 || *v >= intro.1));
        }
        RExpr::Reduce { op, input, intro } => {
            rexpr_refs(op, out);
            let mut inner = BTreeSet::new();
            rexpr_refs(input, &mut inner);
            out.extend(inner.into_iter().filter(|v| *v < intro.0 || *v >= intro.1));
        }
        RExpr::BuiltinApp { args, .. } => {
            for a in args {
                rexpr_refs(a, out);
            }
        }
        RExpr::DotJoin(a, b) | RExpr::LeftOverride(a, b) => {
            rexpr_refs(a, out);
            rexpr_refs(b, out);
        }
        RExpr::OfFormula(f) => formula_refs(f, out),
    }
}

fn term_refs(ts: &[Term], out: &mut BTreeSet<Var>) {
    for t in ts {
        match t {
            Term::Var(v) | Term::TupleVar(v) => {
                out.insert(*v);
            }
            Term::Const(_) => {}
        }
    }
}

fn term_bound_in(t: &Term, bound: &BTreeSet<Var>) -> bool {
    match t {
        Term::Const(_) => true,
        Term::Var(v) | Term::TupleVar(v) => bound.contains(v),
    }
}

fn new_vars(ts: &[Term], bound: &BTreeSet<Var>) -> BTreeSet<Var> {
    ts.iter()
        .filter_map(|t| match t {
            Term::Var(v) | Term::TupleVar(v) if !bound.contains(v) => Some(*v),
            _ => None,
        })
        .collect()
}

/// Unify tuple-variable-free terms against exactly matching values.
fn unify_values(args: &[Term], vals: &[Value], env: &Env) -> Option<Env> {
    if args.len() != vals.len() {
        return None;
    }
    let mut out = env.clone();
    for (t, v) in args.iter().zip(vals) {
        match t {
            Term::Const(c) => {
                if !c.numeric_eq(v) {
                    return None;
                }
            }
            Term::Var(var) => match out.value(*var) {
                Some(existing) => {
                    if existing != v {
                        return None;
                    }
                }
                None => out.bind(*var, EnvVal::Val(v.clone())),
            },
            Term::TupleVar(var) => match out.get(*var) {
                Some(EnvVal::Tup(existing)) => {
                    if existing.len() != 1 || existing[0] != *v {
                        return None;
                    }
                }
                Some(EnvVal::Val(_)) => return None,
                None => out.bind(*var, EnvVal::Tup(vec![v.clone()])),
            },
        }
    }
    Some(out)
}

/// Recursive prefix matcher with tuple-variable split enumeration.
fn rec_match<'t>(args: &[Term], vals: &'t [Value], env: &Env, out: &mut Vec<(Env, &'t [Value])>) {
    let Some((first, rest)) = args.split_first() else {
        out.push((env.clone(), vals));
        return;
    };
    match first {
        Term::Const(c) => {
            if let Some(v) = vals.first() {
                if c.numeric_eq(v) {
                    rec_match(rest, &vals[1..], env, out);
                }
            }
        }
        Term::Var(var) => {
            let Some(v) = vals.first() else { return };
            match env.value(*var) {
                Some(existing) => {
                    if existing == v {
                        rec_match(rest, &vals[1..], env, out);
                    }
                }
                None => {
                    let mut e = env.clone();
                    e.bind(*var, EnvVal::Val(v.clone()));
                    rec_match(rest, &vals[1..], &e, out);
                }
            }
        }
        Term::TupleVar(var) => match env.get(*var) {
            Some(EnvVal::Tup(existing)) => {
                if vals.len() >= existing.len() && vals[..existing.len()] == existing[..] {
                    let existing_len = existing.len();
                    rec_match(rest, &vals[existing_len..], env, out);
                }
            }
            Some(EnvVal::Val(_)) => {}
            None => {
                // Try every split length; remaining fixed terms need at
                // least as many values as their count.
                let min_rest: usize = rest
                    .iter()
                    .map(|t| if t.is_tuple_var() { 0 } else { 1 })
                    .sum();
                let max_take = vals.len().saturating_sub(min_rest);
                for take in 0..=max_take {
                    let mut e = env.clone();
                    e.bind(*var, EnvVal::Tup(vals[..take].to_vec()));
                    rec_match(rest, &vals[take..], &e, out);
                }
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rel_core::tuple;
    use rel_sema::ir::Atom;

    fn ctx_fixture() -> (Module, BTreeMap<Name, Relation>) {
        let module = rel_sema::compile("def Dummy(x) : Nothing(x)").unwrap();
        let mut rels = BTreeMap::new();
        rels.insert(
            rel_core::name("E"),
            Relation::from_tuples([tuple![1, 2], tuple![2, 3], tuple![1, 3]]),
        );
        (module, rels)
    }

    #[test]
    fn atom_binds_and_filters() {
        let (module, rels) = ctx_fixture();
        let cx = EvalCtx::new(&module, &rels);
        // E(x, y) over one empty env: 3 results.
        let atom = Formula::Atom(Atom {
            pred: rel_core::name("E"),
            args: vec![Term::Var(0), Term::Var(1)],
        });
        let envs = cx.eval_formula(&atom, vec![Env::new(2)]).unwrap();
        assert_eq!(envs.len(), 3);
        // E(1, y): 2 results.
        let atom = Formula::Atom(Atom {
            pred: rel_core::name("E"),
            args: vec![Term::Const(Value::int(1)), Term::Var(1)],
        });
        let envs = cx.eval_formula(&atom, vec![Env::new(2)]).unwrap();
        assert_eq!(envs.len(), 2);
    }

    #[test]
    fn repeated_var_join() {
        let (module, rels) = ctx_fixture();
        let cx = EvalCtx::new(&module, &rels);
        // E(x, x): no loops in fixture.
        let atom = Formula::Atom(Atom {
            pred: rel_core::name("E"),
            args: vec![Term::Var(0), Term::Var(0)],
        });
        let envs = cx.eval_formula(&atom, vec![Env::new(1)]).unwrap();
        assert!(envs.is_empty());
    }

    #[test]
    fn tuple_var_split_enumeration() {
        let env = Env::new(2);
        let t = tuple![1, 2, 3];
        let mut out = Vec::new();
        // (x..., y...): as a *full* match (empty suffix) there are 4 splits
        // of a 3-tuple; as a prefix match every partial consumption also
        // appears (4 + 3 + 2 + 1 = 10).
        rec_match(
            &[Term::TupleVar(0), Term::TupleVar(1)],
            t.values(),
            &env,
            &mut out,
        );
        assert_eq!(out.len(), 10);
        let full: Vec<_> = out.iter().filter(|(_, s)| s.is_empty()).collect();
        assert_eq!(full.len(), 4);
    }

    #[test]
    fn builtin_atom_inverse_in_engine() {
        let (module, rels) = ctx_fixture();
        let cx = EvalCtx::new(&module, &rels);
        // add(x, 5, 15) with x free.
        let mut env = Env::new(1);
        env.unbind(0);
        let atom = Formula::Atom(Atom {
            pred: rel_core::name("rel_primitive_add"),
            args: vec![
                Term::Var(0),
                Term::Const(Value::int(5)),
                Term::Const(Value::int(15)),
            ],
        });
        let envs = cx.eval_formula(&atom, vec![env]).unwrap();
        assert_eq!(envs.len(), 1);
        assert_eq!(envs[0].value(0), Some(&Value::int(10)));
    }

    #[test]
    fn negation_filters() {
        let (module, rels) = ctx_fixture();
        let cx = EvalCtx::new(&module, &rels);
        // E(x, y) ∧ ¬E(y, x)
        let f = Formula::Conj(vec![
            Formula::Atom(Atom {
                pred: rel_core::name("E"),
                args: vec![Term::Var(0), Term::Var(1)],
            }),
            Formula::Not(Box::new(Formula::Atom(Atom {
                pred: rel_core::name("E"),
                args: vec![Term::Var(1), Term::Var(0)],
            }))),
        ]);
        let envs = cx.eval_formula(&f, vec![Env::new(2)]).unwrap();
        assert_eq!(envs.len(), 3); // no symmetric edges in fixture
    }

    #[test]
    fn prefix_positions_probe_sorted_rows_and_build_no_index() {
        let (module, rels) = ctx_fixture();
        let cache = SharedIndexCache::default();
        let cx = EvalCtx::with_cache(&module, &rels, cache.clone());
        let e = rel_core::name("E");
        let atom = |args: Vec<Term>| Formula::Atom(Atom { pred: e.clone(), args });
        let rows = rels[&e].as_slice();
        // Scan, first-column lookup, full key: all prefixes of (x, y).
        for args in [
            vec![Term::Var(0), Term::Var(1)],
            vec![Term::Const(Value::int(1)), Term::Var(1)],
            vec![Term::Const(Value::int(1)), Term::Const(Value::int(2))],
        ] {
            let key: Vec<Value> = args
                .iter()
                .map_while(|t| match t {
                    Term::Const(c) => Some(c.clone()),
                    _ => None,
                })
                .collect();
            let envs = cx.eval_formula(&atom(args), vec![Env::new(2)]).unwrap();
            assert_eq!(envs.len(), prefix_run(rows, &key).len());
            assert_eq!(envs.len(), rows.iter().filter(|t| t.starts_with(&key)).count());
        }
        assert!(cache.is_empty(), "prefix probes must not build or cache anything");
        // A key on the second column alone is not a prefix: the rows are
        // permuted key-first once and cached.
        let by_target = atom(vec![Term::Var(0), Term::Const(Value::int(2))]);
        let envs = cx.eval_formula(&by_target, vec![Env::new(2)]).unwrap();
        assert_eq!(envs.len(), rows.iter().filter(|t| t.values()[1] == Value::int(2)).count());
        assert_eq!(cache.generations_for("E"), vec![rels[&e].generation()]);
    }

    #[test]
    fn concurrent_demand_chains_use_separate_stacks() {
        // Two threads demanding the same acyclic predicate through one
        // shared EvalCtx must not see each other's in-flight keys as
        // cycles.
        let module = rel_sema::compile(
            "def addUp(n, s) : n = 0 and s = 0\n\
             def addUp(n, s) : n > 0 and s = n + addUp[n - 1]",
        )
        .unwrap();
        let rels = BTreeMap::new();
        let cx = EvalCtx::new(&module, &rels);
        let pred = rel_core::name("addUp");
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let cx = &cx;
                    let pred = &pred;
                    scope.spawn(move || cx.eval_demand(pred, &[Value::int(12)]).unwrap())
                })
                .collect();
            for h in handles {
                let rel = h.join().unwrap();
                assert_eq!(rel.len(), 1);
                assert!(rel.contains(&tuple![12, 78]));
            }
        });
    }

    fn triangle_conj() -> Formula {
        let e = |a: Var, b: Var| {
            Formula::Atom(Atom {
                pred: rel_core::name("E"),
                args: vec![Term::Var(a), Term::Var(b)],
            })
        };
        Formula::Conj(vec![e(0, 1), e(1, 2), e(0, 2)])
    }

    /// The environment binding slots `0..` to `vals`.
    fn bound(vals: &[i64]) -> Env {
        let mut env = Env::new(vals.len());
        for (v, &x) in vals.iter().enumerate() {
            env.bind(v as Var, EnvVal::Val(Value::int(x)));
        }
        env
    }

    /// A 7-node graph dense enough for many triangles, with two loops.
    fn graph_edges() -> Vec<(i64, i64)> {
        let mut edges: Vec<(i64, i64)> = (0..7)
            .flat_map(|a| (0..7).map(move |b| (a, b)))
            .filter(|&(a, b)| a != b && (a * 3 + b * 5) % 7 < 4)
            .collect();
        edges.extend([(2, 2), (5, 5)]);
        edges
    }

    fn graph_fixture() -> (Module, BTreeMap<Name, Relation>) {
        let (module, mut rels) = ctx_fixture();
        let e = Relation::from_tuples(graph_edges().into_iter().map(|(a, b)| tuple![a, b]));
        rels.insert(rel_core::name("E"), e);
        (module, rels)
    }

    /// Every `(a, b, c)` with `E(a,b)`, `E(b,c)` and `E(a,c)`, by nested
    /// loops over [`graph_edges`].
    fn triangles_brute_force() -> Vec<[i64; 3]> {
        let edges = graph_edges();
        let mut out: Vec<[i64; 3]> = Vec::new();
        for &(a, b) in &edges {
            for &(_, c) in edges.iter().filter(|&&(x, _)| x == b) {
                if edges.contains(&(a, c)) {
                    out.push([a, b, c]);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Evaluate `f` from `seed` on a fresh profiled cache: the sorted
    /// environments and the leapfrog dispatches.
    fn eval_with_sink(
        module: &Module,
        rels: &BTreeMap<Name, Relation>,
        f: &Formula,
        seed: Env,
    ) -> (Vec<Env>, u64) {
        let sink = Arc::new(ProfileSink::new());
        let cx = EvalCtx::with_cache(module, rels, SharedIndexCache::default().profiled(Arc::clone(&sink)));
        let mut envs = cx.eval_formula(f, vec![seed]).unwrap();
        envs.sort_unstable();
        (envs, sink.counts().wcoj_joins)
    }

    #[test]
    fn wcoj_triangle_matches_brute_force_and_routes() {
        let (module, rels) = graph_fixture();
        let (envs, joins) = eval_with_sink(&module, &rels, &triangle_conj(), Env::new(3));
        let expected: Vec<Env> = triangles_brute_force().iter().map(|t| bound(t)).collect();
        assert!(expected.len() > 5, "the fixture has many triangles");
        assert_eq!(envs, expected);
        assert!(joins >= 1, "a 3-atom cyclic conjunction routes through leapfrog");
        let (module, rels) = ctx_fixture();
        let (envs, _) = eval_with_sink(&module, &rels, &triangle_conj(), Env::new(3));
        assert_eq!(envs, vec![bound(&[1, 2, 3])], "the small fixture has exactly one triangle");
    }

    #[test]
    fn wcoj_respects_prebound_variables() {
        // Seed the batch with a bound: the WCOJ path pins it via a
        // singleton atom and produces exactly the triangles through it.
        let (module, rels) = graph_fixture();
        let all = triangles_brute_force();
        for a in 0..8 {
            let mut seed = Env::new(3);
            seed.bind(0, EnvVal::Val(Value::int(a)));
            let (envs, joins) = eval_with_sink(&module, &rels, &triangle_conj(), seed);
            let expected: Vec<Env> = all.iter().filter(|t| t[0] == a).map(|t| bound(t)).collect();
            assert_eq!(envs, expected, "a = {a}");
            assert!(joins >= 1, "b and c still join three atoms");
        }
    }

    #[test]
    fn wcoj_excludes_ineligible_atoms() {
        // A numeric constant and a repeated in-atom variable make atoms
        // ineligible (wcoj_atom rejects them): the triangle routes through
        // leapfrog, and the other two atoms join its output pairwise.
        let (module, rels) = graph_fixture();
        let e = |args: Vec<Term>| Formula::Atom(Atom { pred: rel_core::name("E"), args });
        let Formula::Conj(mut conj) = triangle_conj() else { unreachable!() };
        conj.push(e(vec![Term::Var(2), Term::Const(Value::int(1))]));
        conj.push(e(vec![Term::Var(3), Term::Var(3)]));
        let (envs, joins) = eval_with_sink(&module, &rels, &Formula::Conj(conj), Env::new(4));
        let edges = graph_edges();
        let mut expected: Vec<Env> = Vec::new();
        for [a, b, c] in triangles_brute_force().into_iter().filter(|t| edges.contains(&(t[2], 1))) {
            for &(d, _) in edges.iter().filter(|&&(x, y)| x == y) {
                expected.push(bound(&[a, b, c, d]));
            }
        }
        expected.sort_unstable();
        assert!(!expected.is_empty());
        assert_eq!(envs, expected);
        assert!(joins >= 1);
    }

    #[test]
    fn wcoj_tries_are_cached_by_generation() {
        let (module, rels) = ctx_fixture();
        let cache = SharedIndexCache::default();
        let cx = EvalCtx::with_cache(&module, &rels, cache.clone());
        cx.eval_formula(&triangle_conj(), vec![Env::new(3)]).unwrap();
        let after_first = cache.len();
        assert!(after_first > 0, "tries must land in the shared cache");
        let e_gen = rels[&rel_core::name("E")].generation();
        assert!(cache.generations_for("E").contains(&e_gen));
        // Same state again: every trie is served from cache, nothing new.
        cx.eval_formula(&triangle_conj(), vec![Env::new(3)]).unwrap();
        assert_eq!(cache.len(), after_first);
        // A generation bump invalidates via the usual path.
        let mut moved = rels.clone();
        moved.get_mut("E").expect("fixture relation").insert(tuple![7, 8]);
        cache.prune_stale(&moved);
        assert!(cache.generations_for("E").is_empty());
    }

    #[test]
    fn stale_rebuild_counts_as_build_not_reuse() {
        let (module, rels) = ctx_fixture();
        let sink = Arc::new(ProfileSink::new());
        let cache = SharedIndexCache::default().profiled(Arc::clone(&sink));
        let cx = EvalCtx::with_cache(&module, &rels, cache.clone());
        let e = rel_core::name("E");

        // First lookups: builds, each counted for the caller that asked
        // (a non-prefix probe, a kernel trie).
        cx.trie_for(&e, &[1, 0], true);
        cx.trie_for(&e, &[0, 1], false);
        let c = sink.counts();
        assert_eq!((c.index_builds, c.index_reuses), (1, 0));
        assert_eq!((c.trie_builds, c.trie_reuses), (1, 0));

        // Same generation: reuses.
        cx.trie_for(&e, &[1, 0], true);
        cx.trie_for(&e, &[0, 1], false);
        let c = sink.counts();
        assert_eq!((c.index_builds, c.index_reuses), (1, 1));
        assert_eq!((c.trie_builds, c.trie_reuses), (1, 1));

        // The relation's generation moves. The stale entries still sit in
        // the cache map, but looking them up must count as a build
        // (miss) — finding a stale entry is not a hit.
        let mut rels2 = rels.clone();
        let mut moved = rels2[&e].clone();
        moved.insert(tuple![7, 8]);
        rels2.insert(e.clone(), moved);
        let cx2 = EvalCtx::with_cache(&module, &rels2, cache.clone());
        cx2.trie_for(&e, &[1, 0], true);
        cx2.trie_for(&e, &[0, 1], false);
        let c = sink.counts();
        assert_eq!((c.index_builds, c.index_reuses), (2, 1));
        assert_eq!((c.trie_builds, c.trie_reuses), (2, 1));
    }

    #[test]
    fn partial_apply_groups_by_binding() {
        let (module, rels) = ctx_fixture();
        let cx = EvalCtx::new(&module, &rels);
        // E[x] with x unbound: groups for x=1 (2 suffixes) and x=2 (1).
        let papp = RExpr::PApp {
            pred: rel_core::name("E"),
            args: vec![Term::Var(0)],
        };
        let pairs = cx.eval_open(&papp, &Env::new(1)).unwrap();
        assert_eq!(pairs.len(), 2);
        let sizes: Vec<usize> = pairs.iter().map(|(_, r)| r.len()).collect();
        assert_eq!(sizes, vec![2, 1]);
    }
}
