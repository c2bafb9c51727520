//! Stratum-by-stratum materialization.
//!
//! * Non-recursive strata: one bottom-up pass per predicate.
//! * Recursive **monotone** strata: semi-naive evaluation — per iteration,
//!   each rule is evaluated once per occurrence of an SCC predicate, with
//!   that occurrence reading the Δ relation (new/full formulation; set
//!   semantics deduplicates the overlap). Occurrences are counted and
//!   rewritten in the order of rel-sema's IR child visitors
//!   ([`rel_sema::ir::Node::for_each_child`] and its mutable twin), so
//!   the count and the rewrite agree by construction. Δ overlays live in the ordinary
//!   relation map, so `eval_conj`'s WCOJ planner treats a Δ-focused atom
//!   like any other materialized atom — recursive strata route through
//!   the leapfrog kernel too (see [`crate::eval::WCOJ_MIN_ATOMS`]).
//! * Recursive **non-monotone** strata (Rel's non-stratified programs,
//!   Addendum A): partial-fixpoint (PFP) iteration — synchronously
//!   recompute every SCC predicate from the previous iterate until two
//!   consecutive iterates agree, with a divergence cap. This gives the
//!   paper's PageRank and APSP-with-negation programs their intended
//!   meaning (DESIGN.md §2.3).
//!
//! # Parallel stratum scheduling
//!
//! Strata are SCCs of the dependency graph, so strata with disjoint
//! ancestries are semantically independent — and since every stratum is
//! one SCC, independent predicates in the non-recursive part of a program
//! are themselves separate strata. [`materialize_with_threads`] walks the
//! condensation DAG (`Module::stratum_deps`) with a pool of
//! `std::thread::scope` workers: a stratum is *ready* once all of its
//! dependency strata have completed; a worker claims a ready stratum,
//! takes an O(1)-per-relation copy-on-write snapshot of the current
//! relation state, materializes the stratum against the snapshot, and
//! merges the stratum's own relations back. Because a stratum reads only
//! relations produced by its (completed) dependencies, and relations are
//! sorted sets merged into a [`BTreeMap`] keyed by name, the final state —
//! contents *and* iteration order — is byte-identical to sequential
//! evaluation no matter how the schedule interleaves.
//!
//! The worker count is the available hardware parallelism ([`eval_threads`]);
//! [`materialize_with_threads`] takes an explicit one (`1` is the
//! sequential path). A profiled evaluation takes the same path: each
//! stratum counts into a profile sink of its own ([`crate::profile`]).

use crate::env::Env;
use crate::eval::{EvalCtx, SharedIndexCache};
use crate::profile::{record_stratum, StratumAction};
use rel_core::{Database, Name, RelError, RelResult, Relation};
use rel_sema::ir::{
    visit_rule_preds, AbsParam, Atom, EvalMode, Formula, Module, NodeMut, RExpr, Rule, Stratum,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Condvar, Mutex};

/// Iteration cap for partial-fixpoint strata.
pub const PFP_CAP: usize = 10_000;
/// Iteration cap for semi-naive strata (a safety net; monotone fixpoints
/// over finite domains terminate on their own).
pub const SEMI_NAIVE_CAP: usize = 10_000_000;

/// The reserved Δ-relation prefix used during semi-naive evaluation (and
/// by the incremental engine's input-delta overlays).
pub(crate) fn delta_name(p: &Name) -> Name {
    rel_core::name(format!("Δ{p}"))
}

/// Materialize every `Materialize`-mode predicate of the module, stratum
/// by stratum, starting from the database's base relations. Returns the
/// full relation state (EDB ∪ IDB).
pub fn materialize(module: &Module, db: &Database) -> RelResult<BTreeMap<Name, Relation>> {
    materialize_with_cache(module, db, SharedIndexCache::default())
}

/// [`materialize`] with a caller-owned index cache, so lazily built sorted
/// views survive across fixpoint iterations *and* across materialize
/// calls (e.g. a session's repeated queries over the same base data).
/// Entries are keyed on relation generations, so stale views are
/// replaced automatically when a relation changes.
///
/// Uses the parallel stratum scheduler with [`eval_threads`] workers;
/// output is byte-identical to sequential evaluation.
pub fn materialize_with_cache(
    module: &Module,
    db: &Database,
    cache: SharedIndexCache,
) -> RelResult<BTreeMap<Name, Relation>> {
    materialize_with_threads(module, db, cache, eval_threads())
}

/// The scheduler's worker count: the available hardware parallelism,
/// capped at 8 (stratum DAGs rarely go wider). Resolved once per process.
pub fn eval_threads() -> usize {
    static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1).min(8)
    })
}

/// [`materialize_with_cache`] with an explicit worker count. `threads <= 1`
/// evaluates strata sequentially in dependency order; otherwise a pool of
/// scoped worker threads walks the stratum DAG, materializing independent
/// strata concurrently. Both paths produce byte-identical relation state.
pub fn materialize_with_threads(
    module: &Module,
    db: &Database,
    cache: SharedIndexCache,
    threads: usize,
) -> RelResult<BTreeMap<Name, Relation>> {
    // CoW relations make this initial map O(#relations) pointer bumps —
    // no tuple is copied until somebody mutates a base relation.
    let mut rels: BTreeMap<Name, Relation> =
        db.iter().map(|(n, r)| (n.clone(), r.clone())).collect();
    // Demand-only strata are no-ops here, so they earn no worker: a run
    // with at most one stratum to evaluate stays on the calling thread
    // (spawning costs more than a microsecond query).
    let workers = threads.min(module.strata.iter().filter(|s| materializes(module, s)).count());
    if workers > 1 {
        if crate::metrics::enabled() {
            crate::metrics::registry().scheduler_spawns.incr();
        }
        let mut run = || materialize_parallel(module, &mut rels, &cache, workers);
        match cache.profile() {
            Some(sink) => sink.index_ordered(run)?,
            None => run()?,
        }
    } else {
        for idx in 0..module.strata.len() {
            evaluate(module, &mut rels, idx, &cache)?;
        }
    }
    // Keep the cache bounded for long-lived sessions: only indexes that
    // still match the final relation state (EDB + fixpoint results) can
    // be hit again; Δ-overlay and superseded-iteration indexes cannot.
    cache.prune_stale(&rels);
    Ok(rels)
}

/// Materialize stratum `idx` of a full run against (and into) `rels`,
/// recorded as `evaluated` on a profiled handle.
fn evaluate(
    module: &Module,
    rels: &mut BTreeMap<Name, Relation>,
    idx: usize,
    cache: &SharedIndexCache,
) -> RelResult<()> {
    record_stratum(module, idx, StratumAction::Evaluated, cache, |cache| {
        eval_stratum(module, rels, &module.strata[idx], cache)
    })
}

/// Materialize one stratum against (and into) `rels`. Demand-only strata
/// are a no-op: they are evaluated lazily at call sites. Also the
/// incremental engine's "recompute this stratum from its current inputs"
/// primitive.
pub(crate) fn eval_stratum(
    module: &Module,
    rels: &mut BTreeMap<Name, Relation>,
    stratum: &Stratum,
    cache: &SharedIndexCache,
) -> RelResult<()> {
    let mats: Vec<&Name> = materialized_preds(module, stratum).collect();
    if mats.is_empty() {
        return Ok(()); // demand-only stratum: evaluated lazily at call sites
    }
    if stratum.recursive && mats.len() != stratum.preds.len() {
        return Err(RelError::Stratify(format!(
            "stratum {:?} mixes materializable and demand-driven predicates \
             in one recursive component",
            stratum.preds
        )));
    }
    if !stratum.recursive {
        let p = mats[0];
        let derived = {
            let cx = EvalCtx::with_cache(module, rels, cache.clone());
            eval_pred_once(&cx, module, p)?
        };
        rels.entry(p.clone()).or_default().absorb(&derived);
        Ok(())
    } else if stratum.monotone {
        semi_naive(module, rels, &stratum.preds, cache)
    } else {
        pfp(module, rels, &stratum.preds, cache)
    }
}

/// The stratum's predicates that are materialized bottom-up (the others
/// are demand-driven and evaluated at their call sites).
fn materialized_preds<'m>(module: &'m Module, stratum: &'m Stratum) -> impl Iterator<Item = &'m Name> {
    stratum.preds.iter().filter(|p| {
        matches!(module.pred_info.get(*p).map(|i| &i.mode), Some(EvalMode::Materialize) | None)
    })
}

/// Does evaluating the stratum do any work (is it not demand-only)?
pub(crate) fn materializes(module: &Module, stratum: &Stratum) -> bool {
    materialized_preds(module, stratum).next().is_some()
}

/// Shared scheduler state: the growing relation map plus the DAG
/// bookkeeping, all under one mutex paired with a condvar.
struct SchedState {
    rels: BTreeMap<Name, Relation>,
    /// Unsatisfied-dependency count per stratum.
    indegree: Vec<usize>,
    /// Strata whose dependencies have all completed, not yet claimed.
    ready: BTreeSet<usize>,
    /// Strata that can never run: a (transitive) dependency errored.
    abandoned: Vec<bool>,
    /// Strata not yet completed, errored, or abandoned. The scheduler
    /// runs until this hits zero: evaluation *continues* past an error
    /// for every stratum whose ancestry is error-free, so the minimum
    /// errored index below is deterministic.
    outstanding: usize,
    /// First error by *stratum index* (not discovery time). Because all
    /// strata outside an errored stratum's cone still run, the minimum
    /// index here is exactly the error the sequential walk reports (all
    /// strata before it succeed — deterministically — in both modes).
    error: Option<(usize, RelError)>,
    /// A worker panicked: stop claiming work so the scope can unwind.
    halt: bool,
}

/// Walk the stratum DAG with `workers` scoped threads. Each worker claims
/// a ready stratum, snapshots the relation state (O(1) CoW clones),
/// materializes the stratum against the snapshot, and merges the
/// stratum's own relations back under the lock in a single step —
/// dependents only become ready after the merge, so every stratum reads
/// fully materialized dependencies.
fn materialize_parallel(
    module: &Module,
    rels: &mut BTreeMap<Name, Relation>,
    cache: &SharedIndexCache,
    workers: usize,
) -> RelResult<()> {
    let n = module.strata.len();
    debug_assert!(
        module.stratum_deps.len() == n && module.stratum_reads.len() == n,
        "the per-stratum vectors of a module are filled together"
    );
    // Reverse edges: dependents[d] = strata unblocked by d's completion.
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut indegree = vec![0usize; n];
    for (i, deps) in module.stratum_deps.iter().enumerate() {
        indegree[i] = deps.len();
        for &d in deps {
            dependents[d].push(i);
        }
    }
    let ready: BTreeSet<usize> =
        indegree.iter().enumerate().filter(|(_, &d)| d == 0).map(|(i, _)| i).collect();
    let state = Mutex::new(SchedState {
        rels: std::mem::take(rels),
        indegree,
        ready,
        abandoned: vec![false; n],
        outstanding: n,
        error: None,
        halt: false,
    });
    let work_available = Condvar::new();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let lock = |caller: &str| {
                    state
                        .lock()
                        .unwrap_or_else(|_| panic!("scheduler mutex poisoned in {caller}"))
                };
                loop {
                    // Claim a ready stratum and snapshot the relation state.
                    let (idx, mut snapshot) = {
                        let mut st = lock("claim");
                        loop {
                            if st.halt || st.outstanding == 0 {
                                return;
                            }
                            if let Some(&idx) = st.ready.iter().next() {
                                st.ready.remove(&idx);
                                break (idx, st.rels.clone());
                            }
                            st = work_available
                                .wait(st)
                                .unwrap_or_else(|_| panic!("scheduler mutex poisoned in wait"));
                        }
                    };
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        evaluate(module, &mut snapshot, idx, cache)
                    }));
                    let mut st = lock("merge");
                    match result {
                        Ok(Ok(())) => {
                            // Merge only this stratum's relations: everything
                            // else in the snapshot is either shared with the
                            // global map already or scratch (Δ overlays are
                            // removed by the fixpoint loops on success).
                            for p in &module.strata[idx].preds {
                                if let Some(r) = snapshot.remove(p) {
                                    st.rels.insert(p.clone(), r);
                                }
                            }
                            st.outstanding -= 1;
                            for &dep in &dependents[idx] {
                                st.indegree[dep] -= 1;
                                if st.indegree[dep] == 0 && !st.abandoned[dep] {
                                    st.ready.insert(dep);
                                }
                            }
                        }
                        Ok(Err(e)) => {
                            // Record the error of the *earliest* stratum and
                            // abandon this stratum's cone; everything outside
                            // it keeps evaluating, so the minimum errored
                            // index — the error the sequential walk reports —
                            // is always reached regardless of timing.
                            if !matches!(&st.error, Some((i, _)) if *i <= idx) {
                                st.error = Some((idx, e));
                            }
                            st.outstanding -= 1;
                            let mut stack = vec![idx];
                            while let Some(s) = stack.pop() {
                                for &dep in &dependents[s] {
                                    if !st.abandoned[dep] {
                                        st.abandoned[dep] = true;
                                        st.outstanding -= 1;
                                        stack.push(dep);
                                    }
                                }
                            }
                        }
                        Err(payload) => {
                            // Stop the other workers, then re-raise: the
                            // scope's join propagates the panic out of
                            // materialize (same observable behavior as the
                            // sequential walk panicking).
                            st.halt = true;
                            drop(st);
                            work_available.notify_all();
                            std::panic::resume_unwind(payload);
                        }
                    }
                    drop(st);
                    work_available.notify_all();
                }
            });
        }
    });

    let state = state.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner);
    let SchedState { rels: final_rels, error, outstanding, .. } = state;
    *rels = final_rels;
    if let Some((_, e)) = error {
        return Err(e);
    }
    debug_assert_eq!(outstanding, 0, "scheduler finished with unevaluated strata");
    Ok(())
}

/// Evaluate all rules of one predicate once.
pub(crate) fn eval_pred_once(cx: &EvalCtx<'_>, module: &Module, pred: &Name) -> RelResult<Relation> {
    let mut out = Relation::new();
    for rule in module.rules_for(pred) {
        out.absorb(&cx.eval_rule(rule, Env::new(rule.vars.len()))?);
    }
    Ok(out)
}

/// Semi-naive evaluation of a monotone recursive stratum.
fn semi_naive(
    module: &Module,
    rels: &mut BTreeMap<Name, Relation>,
    preds: &[Name],
    cache: &SharedIndexCache,
) -> RelResult<()> {
    let variants = scc_delta_variants(module, preds);

    // Iteration 0: full evaluation (SCC relations start as their EDB
    // contents, typically empty).
    let mut delta: BTreeMap<Name, Relation> = BTreeMap::new();
    {
        let cx = EvalCtx::with_cache(module, rels, cache.clone());
        for p in preds {
            let mut d = eval_pred_once(&cx, module, p)?;
            if let Some(existing) = rels.get(p) {
                d.absorb(existing);
            }
            delta.insert(p.clone(), d);
        }
    }
    for p in preds {
        let d = delta[p].clone(); // O(1): CoW handle
        rels.insert(p.clone(), d);
    }

    semi_naive_loop(module, rels, preds, cache, &variants, delta)
}

/// Pre-compute the Δ-focused rule variants of an SCC: for every rule, one
/// variant per occurrence of an SCC predicate, that occurrence reading the
/// Δ relation.
pub(crate) fn scc_delta_variants(module: &Module, preds: &[Name]) -> BTreeMap<Name, Vec<Rule>> {
    let scc: BTreeSet<&Name> = preds.iter().collect();
    let mut variants: BTreeMap<Name, Vec<Rule>> = BTreeMap::new();
    for p in preds {
        let mut vs = Vec::new();
        for rule in module.rules_for(p) {
            let n = count_scc_refs(rule, &scc);
            for focus in 0..n {
                vs.push(delta_variant(rule, &scc, focus));
            }
        }
        variants.insert(p.clone(), vs);
    }
    variants
}

/// The semi-naive iteration proper: given each SCC relation already
/// holding its accumulated value in `rels` and the current per-predicate
/// Δ sets, iterate to the fixpoint. Callers differ only in how the first
/// Δ was produced — full evaluation ([`semi_naive`] iteration 0) or
/// input-delta seeding from a previous fixpoint (the incremental engine's
/// restart, [`crate::incremental`]).
pub(crate) fn semi_naive_loop(
    module: &Module,
    rels: &mut BTreeMap<Name, Relation>,
    preds: &[Name],
    cache: &SharedIndexCache,
    variants: &BTreeMap<Name, Vec<Rule>>,
    mut delta: BTreeMap<Name, Relation>,
) -> RelResult<()> {
    let sink = cache.profile();
    for _iter in 0..SEMI_NAIVE_CAP {
        if delta.values().all(Relation::is_empty) {
            // Remove Δ overlays.
            for p in preds {
                rels.remove(&delta_name(p));
            }
            return Ok(());
        }
        if let Some(sink) = &sink {
            sink.note_iteration();
        }
        // Install Δ overlays — O(1) CoW clones, not deep copies.
        for p in preds {
            rels.insert(delta_name(p), delta[p].clone());
        }
        let mut new_delta: BTreeMap<Name, Relation> = BTreeMap::new();
        {
            let cx = EvalCtx::with_cache(module, rels, cache.clone());
            for p in preds {
                let mut fresh = Relation::new();
                for rule in &variants[p] {
                    fresh.absorb(&cx.eval_rule(rule, Env::new(rule.vars.len()))?);
                }
                // Δ = fresh ∖ current without copying the (large)
                // accumulated relation.
                if let Some(current) = rels.get(p) {
                    fresh.minus_in_place(current);
                }
                new_delta.insert(p.clone(), fresh);
            }
        }
        for p in preds {
            let d = &new_delta[p];
            if !d.is_empty() {
                rels.get_mut(p).expect("inserted above").absorb(d);
            }
        }
        delta = new_delta;
    }
    Err(RelError::Divergent {
        relation: preds[0].to_string(),
        iterations: SEMI_NAIVE_CAP,
    })
}

/// Partial-fixpoint evaluation of a non-monotone recursive stratum.
fn pfp(
    module: &Module,
    rels: &mut BTreeMap<Name, Relation>,
    preds: &[Name],
    cache: &SharedIndexCache,
) -> RelResult<()> {
    // Previous iterate, starting from the EDB contents (usually empty).
    // All snapshots below are O(1) CoW clones.
    let mut prev: BTreeMap<Name, Relation> = preds
        .iter()
        .map(|p| (p.clone(), rels.get(p).cloned().unwrap_or_default()))
        .collect();
    for p in preds {
        rels.insert(p.clone(), prev[p].clone());
    }
    let sink = cache.profile();
    for _iter in 0..PFP_CAP {
        if let Some(sink) = &sink {
            sink.note_iteration();
        }
        let mut next: BTreeMap<Name, Relation> = BTreeMap::new();
        {
            let cx = EvalCtx::with_cache(module, rels, cache.clone());
            for p in preds {
                next.insert(p.clone(), eval_pred_once(&cx, module, p)?);
            }
        }
        if converged(&prev, &next) {
            return Ok(());
        }
        for p in preds {
            rels.insert(p.clone(), next[p].clone());
        }
        prev = next;
    }
    Err(RelError::Divergent {
        relation: preds[0].to_string(),
        iterations: PFP_CAP,
    })
}

/// Have two PFP iterates converged? Checked per predicate with cheap
/// short-circuits — shared storage / equal generation, then length, then
/// the cached content fingerprint — before any element-wise comparison.
fn converged(prev: &BTreeMap<Name, Relation>, next: &BTreeMap<Name, Relation>) -> bool {
    debug_assert_eq!(prev.len(), next.len());
    prev.iter().all(|(p, a)| {
        let b = &next[p];
        a.len() == b.len() && a.fingerprint() == b.fingerprint() && a == b
    })
}

// ----------------------------------------------------------------------
// Δ-variant rewriting
// ----------------------------------------------------------------------

/// Count references to SCC predicates in a rule — a read-only walk, no
/// clone of the rule.
pub fn count_scc_refs(rule: &Rule, scc: &BTreeSet<&Name>) -> usize {
    let mut n = 0;
    visit_rule_preds(rule, &mut |p| {
        if scc.contains(p) {
            n += 1;
        }
    });
    n
}

/// Produce the rule variant whose `focus`-th SCC reference reads the Δ
/// relation. References are numbered in [`visit_rule_preds`] order, the
/// order [`count_scc_refs`] counts them in: both walks hand every node to
/// the IR's child visitors, which list children in one order.
pub fn delta_variant(rule: &Rule, scc: &BTreeSet<&Name>, focus: usize) -> Rule {
    let mut out = rule.clone();
    let mut i = 0;
    rename_preds(&mut out, &mut |p| {
        if scc.contains(&*p) {
            if i == focus {
                *p = delta_name(p);
            }
            i += 1;
        }
    });
    out
}

/// Apply `f` to every predicate reference in the rule, in
/// [`visit_rule_preds`] order.
fn rename_preds(rule: &mut Rule, f: &mut impl FnMut(&mut Name)) {
    fn go(n: NodeMut<'_>, f: &mut impl FnMut(&mut Name)) {
        match n {
            NodeMut::Formula(Formula::Atom(Atom { pred, .. }))
            | NodeMut::RExpr(RExpr::Pred(pred) | RExpr::PApp { pred, .. }) => f(pred),
            n => n.for_each_child(&mut |c| go(c, f)),
        }
    }
    for p in &mut rule.params {
        if let AbsParam::In(_, dom) = p {
            go(NodeMut::RExpr(dom), f);
        }
    }
    go(NodeMut::RExpr(&mut rule.body), f);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rel_core::tuple;

    fn edge_db() -> Database {
        let mut db = Database::new();
        for (a, b) in [(1, 2), (2, 3), (3, 4)] {
            db.insert("E", tuple![a, b]);
        }
        db
    }

    #[test]
    fn transitive_closure_semi_naive() {
        let module = rel_sema::compile(
            "def TC(x,y) : E(x,y)\n\
             def TC(x,y) : exists((z) | E(x,z) and TC(z,y))",
        )
        .unwrap();
        let rels = materialize(&module, &edge_db()).unwrap();
        let tc = &rels[&rel_core::name("TC")];
        assert_eq!(tc.len(), 6); // 1→2,1→3,1→4,2→3,2→4,3→4
        assert!(tc.contains(&tuple![1, 4]));
        assert!(!tc.contains(&tuple![4, 1]));
    }

    #[test]
    fn nonlinear_recursion() {
        // TC via doubling: TC(x,y) :- TC(x,z), TC(z,y).
        let module = rel_sema::compile(
            "def TC(x,y) : E(x,y)\n\
             def TC(x,y) : exists((z) | TC(x,z) and TC(z,y))",
        )
        .unwrap();
        let rels = materialize(&module, &edge_db()).unwrap();
        assert_eq!(rels[&rel_core::name("TC")].len(), 6);
    }

    #[test]
    fn stratified_negation() {
        let module = rel_sema::compile(
            "def Reach(x) : Start(x)\n\
             def Reach(y) : exists((x) | Reach(x) and E(x,y))\n\
             def Unreach(x) : Node(x) and not Reach(x)",
        )
        .unwrap();
        let mut db = edge_db();
        db.insert("Start", tuple![1]);
        for n in 1..=5 {
            db.insert("Node", tuple![n]);
        }
        let rels = materialize(&module, &db).unwrap();
        assert_eq!(rels[&rel_core::name("Reach")].len(), 4);
        assert_eq!(
            rels[&rel_core::name("Unreach")],
            Relation::from_tuples([tuple![5]])
        );
    }

    #[test]
    fn pfp_win_move_game() {
        // Win(x) :- Move(x,y), not Win(y) — the classic non-stratified
        // program; on an acyclic game graph PFP reaches the unique fixpoint.
        let module = rel_sema::compile(
            "def Win(x) : exists((y) | Move(x,y) and not Win(y))",
        )
        .unwrap();
        let mut db = Database::new();
        for (a, b) in [(1, 2), (2, 3), (3, 4)] {
            db.insert("Move", tuple![a, b]);
        }
        let rels = materialize(&module, &db).unwrap();
        // 4 has no moves: lost. 3 wins (→4). 2 loses (only →3 wins).
        // 1 wins (→2 loses).
        assert_eq!(
            rels[&rel_core::name("Win")],
            Relation::from_tuples([tuple![1], tuple![3]])
        );
    }

    #[test]
    fn delta_variant_rewrites_one_occurrence() {
        let module = rel_sema::compile(
            "def TC(x,y) : exists((z) | TC(x,z) and TC(z,y))",
        )
        .unwrap();
        let rule = &module.rules_for("TC")[0];
        let tc = rel_core::name("TC");
        let scc: BTreeSet<&Name> = [&tc].into_iter().collect();
        assert_eq!(count_scc_refs(rule, &scc), 2);
        let v0 = delta_variant(rule, &scc, 0);
        let v1 = delta_variant(rule, &scc, 1);
        assert_ne!(v0, v1);
        let refs = |r: &Rule| {
            let mut names = Vec::new();
            visit_rule_preds(r, &mut |p| names.push(p.to_string()));
            names
        };
        assert!(refs(&v0).contains(&"ΔTC".to_string()));
        assert!(refs(&v1).contains(&"ΔTC".to_string()));
    }

    #[test]
    fn visit_rule_preds_matches_rename_preds_order() {
        let module = rel_sema::compile(
            "def P(x,y) : exists((z) | E(x,z) and (Q(z,y) or not R(z)) \
             and S[z](y))",
        )
        .unwrap();
        for rule in module.rules.values().flatten() {
            let mut visited = Vec::new();
            visit_rule_preds(rule, &mut |p| visited.push(p.clone()));
            let mut mapped = Vec::new();
            rename_preds(&mut rule.clone(), &mut |p| mapped.push(p.clone()));
            assert_eq!(visited, mapped, "traversal orders diverged");
        }
    }

    #[test]
    fn materialize_shares_edb_storage() {
        // The initial relation map is built from O(1) CoW clones: a base
        // relation the program never mutates still shares storage with
        // the database after materialization.
        let module = rel_sema::compile(
            "def TC(x,y) : E(x,y)\n\
             def TC(x,y) : exists((z) | E(x,z) and TC(z,y))",
        )
        .unwrap();
        let db = edge_db();
        let rels = materialize(&module, &db).unwrap();
        let e = rels.get(&rel_core::name("E")).expect("EDB relation present");
        assert!(
            e.shares_storage(db.get("E").unwrap()),
            "EDB relation was deep-copied into the fixpoint state"
        );
        assert_eq!(e.generation(), db.get("E").unwrap().generation());
    }

    #[test]
    fn iteration_order_is_deterministic_across_strategies() {
        // The same fixpoint reached twice, or by 1 and 4 workers, yields
        // the identical tuple sequence: the sorted brute-force closure.
        let module = rel_sema::compile(
            "def TC(x,y) : E(x,y)\n\
             def TC(x,y) : exists((z) | E(x,z) and TC(z,y))",
        )
        .unwrap();
        let db = edge_db();
        let order = |rels: BTreeMap<Name, Relation>| -> Vec<rel_core::Tuple> {
            rels[&rel_core::name("TC")].iter().cloned().collect()
        };
        let want: Vec<rel_core::Tuple> = (1..=4)
            .flat_map(|x| (x + 1..=4).map(move |y| tuple![x, y]))
            .collect();
        for threads in [1, 1, 4] {
            let got = materialize_with_threads(&module, &db, SharedIndexCache::default(), threads);
            assert_eq!(order(got.unwrap()), want, "threads={threads}");
        }
    }

    #[test]
    fn parallel_scheduler_matches_sequential() {
        // Mixed shapes: two independent TCs, a negation layer, and a sink.
        let module = rel_sema::compile(
            "def TC(x,y) : E(x,y)\n\
             def TC(x,y) : exists((z) | E(x,z) and TC(z,y))\n\
             def RC(x,y) : E(y,x)\n\
             def RC(x,y) : exists((z) | E(z,x) and RC(z,y))\n\
             def Asym(x,y) : TC(x,y) and not RC(x,y)\n\
             def output(x,y) : Asym(x,y)",
        )
        .unwrap();
        let db = edge_db();
        let seq = materialize_with_threads(&module, &db, SharedIndexCache::default(), 1)
            .unwrap();
        let par = materialize_with_threads(&module, &db, SharedIndexCache::default(), 4)
            .unwrap();
        assert_eq!(seq.len(), par.len());
        for (name, rel) in &seq {
            let other = &par[name];
            let a: Vec<_> = rel.iter().cloned().collect();
            let b: Vec<_> = other.iter().cloned().collect();
            assert_eq!(a, b, "relation {name} diverged under the parallel scheduler");
        }
    }

    #[test]
    fn parallel_scheduler_propagates_errors() {
        // Win/Move over a 3-cycle oscillates under PFP. A second,
        // healthy stratum keeps the module multi-stratum so workers=4
        // actually takes the parallel path (a single-stratum module
        // falls back to the sequential walk); a dependent of the
        // divergent stratum exercises cone abandonment — the scheduler
        // must terminate with the divergence error, not hang on the
        // unreachable dependent.
        let module = rel_sema::compile(
            "def Win(x) : exists((y) | Move(x,y) and not Win(y))\n\
             def Selfish(x) : Move(x, x)\n\
             def Blocked(x) : Win(x) and Selfish(x)",
        )
        .unwrap();
        assert!(module.strata.len() >= 3, "test needs a multi-stratum module");
        let mut db = Database::new();
        for (a, b) in [(1, 2), (2, 3), (3, 1)] {
            db.insert("Move", tuple![a, b]);
        }
        for workers in [1usize, 4] {
            let err =
                materialize_with_threads(&module, &db, SharedIndexCache::default(), workers)
                    .unwrap_err();
            assert!(matches!(err, RelError::Divergent { .. }), "workers={workers}: {err}");
        }
    }

    #[test]
    fn parallel_scheduler_reports_earliest_stratum_error() {
        // Two *independent* divergent strata: whichever finishes failing
        // first in wall-clock time, the scheduler must keep evaluating
        // the rest of the DAG and report the error of the earliest
        // stratum — exactly what the sequential walk surfaces.
        let module = rel_sema::compile(
            "def WinA(x) : exists((y) | MoveA(x,y) and not WinA(y))\n\
             def WinB(x) : exists((y) | MoveB(x,y) and not WinB(y))\n\
             def Both(x) : WinA(x) and WinB(x)",
        )
        .unwrap();
        assert!(module.strata.len() >= 3);
        let mut db = Database::new();
        for (a, b) in [(1, 2), (2, 3), (3, 1)] {
            db.insert("MoveA", tuple![a, b]);
            db.insert("MoveB", tuple![a, b]);
        }
        let ia = module.pred_info[&rel_core::name("WinA")].stratum;
        let ib = module.pred_info[&rel_core::name("WinB")].stratum;
        assert_ne!(ia, ib);
        let expected = if ia < ib { "WinA" } else { "WinB" };
        for workers in [1usize, 2, 4] {
            let err =
                materialize_with_threads(&module, &db, SharedIndexCache::default(), workers)
                    .unwrap_err();
            match err {
                RelError::Divergent { ref relation, .. } => assert_eq!(
                    relation, expected,
                    "workers={workers}: reported the wrong stratum's error"
                ),
                other => panic!("workers={workers}: expected divergence, got {other}"),
            }
        }
    }

    #[test]
    fn wcoj_delta_variants_match_brute_force_in_recursive_strata() {
        // A 3-atom recursive body: semi-naive evaluation rewrites one
        // occurrence per variant to the Δ relation, and the WCOJ planner
        // must pick the rewritten atom group up exactly like any other
        // materialized relation (Δ overlays live in the same rels map).
        let module = rel_sema::compile(
            "def P(x,y) : E(x,y)\n\
             def P(x,y) : exists((z, w) | E(x,z) and P(z,w) and E(w,y))",
        )
        .unwrap();
        let edges = [(1, 2), (2, 3), (3, 4), (4, 2), (2, 5)];
        let mut db = Database::new();
        for (a, b) in edges {
            db.insert("E", tuple![a, b]);
        }
        // The fixpoint by brute force: apply both rules until nothing new.
        let mut want: BTreeSet<(i64, i64)> = edges.into_iter().collect();
        loop {
            let step: Vec<(i64, i64)> = edges
                .iter()
                .flat_map(|&(x, z)| want.iter().filter(move |p| p.0 == z).map(move |p| (x, p.1)))
                .flat_map(|(x, w)| edges.iter().filter(move |e| e.0 == w).map(move |e| (x, e.1)))
                .collect();
            let before = want.len();
            want.extend(step);
            if want.len() == before {
                break;
            }
        }
        let want = Relation::from_tuples(want.into_iter().map(|(a, b)| tuple![a, b]));
        let sink = std::sync::Arc::new(crate::profile::ProfileSink::new());
        let cache = SharedIndexCache::default().profiled(sink.clone());
        let got = materialize_with_threads(&module, &db, cache, 1).unwrap();
        assert_eq!(got[&rel_core::name("P")], want, "diverged in a recursive stratum");
        let strata = sink.take_strata();
        let p = strata.iter().find(|s| s.preds == ["P"]).expect("P's stratum is recorded");
        let joins = p.counts.wcoj_joins;
        assert!(joins > 1, "expected leapfrog joins across semi-naive iterations, got {joins}");
    }

    #[test]
    fn pfp_convergence_short_circuit_is_sound() {
        // Two maps that differ only in content (same lengths) must not be
        // declared converged.
        let a: BTreeMap<Name, Relation> = [(
            rel_core::name("P"),
            Relation::from_tuples([tuple![1]]),
        )]
        .into_iter()
        .collect();
        let b: BTreeMap<Name, Relation> = [(
            rel_core::name("P"),
            Relation::from_tuples([tuple![2]]),
        )]
        .into_iter()
        .collect();
        assert!(!converged(&a, &b));
        assert!(converged(&a, &a.clone()));
    }
}
