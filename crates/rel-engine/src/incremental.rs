//! Incremental view maintenance: delta propagation under input change.
//!
//! The paper's system maintains derived relations under base-relation
//! change instead of recomputing them (§6). Here that is one function,
//! [`materialize_incremental`]: given the **pre-state fixpoint** of a
//! module (the full input ∪ derived relation state of a previous
//! materialization, captured in a [`PreState`]) and a database whose
//! relations have since changed, it re-derives only what the change can
//! affect and produces relation state **byte-identical** to a
//! from-scratch [`crate::fixpoint::materialize`] run over the new
//! database.
//!
//! The library state is part of the database, and modules evaluate on
//! top of it: a commit advances the session's one library state
//! ([`crate::library`]) through this function, once, and every module
//! compiled against the library maintains only its *own* strata — through
//! the session's per-module fixpoint cache and this same function, to
//! which a library predicate is just another input whose generation is
//! compared. One maintenance implementation serves both.
//!
//! # The delta-seeding model
//!
//! Which inputs changed is detected structurally, not by diffing: every
//! [`rel_core::Relation`] carries a globally unique *generation* that
//! moves exactly when its tuple set does, so comparing the generations
//! recorded in the [`PreState`] against the new database yields the
//! touched set in O(#relations). The engine then walks the strata in
//! dependency order and treats each one in the cheapest sound way:
//!
//! * **No input changed** — each stratum first *value-compares* its
//!   inputs against the pre-state (generation, then length, then cached
//!   fingerprint, before any element-wise walk; an untouched base relation
//!   or a reused upstream result is settled by its generation) and takes
//!   the pre-state result over with an O(1) copy-on-write pointer bump
//!   when nothing moved. No rule is evaluated.
//! * **Monotone recursive strata with grown inputs** — *delta-seeded
//!   semi-naive restart*. The SCC relations are seeded with their
//!   pre-state fixpoint; for every changed input `I` the engine installs
//!   `ΔI = new(I) ∖ old(I)` and evaluates, for each rule, one variant per
//!   occurrence of a changed input with that occurrence reading `ΔI`. The
//!   novel tuples become the seed Δ of the ordinary semi-naive loop, which
//!   runs to fixpoint exactly as a from-scratch evaluation would — but
//!   starting from the pre-state instead of from nothing. Sound precisely
//!   when every changed input is read only *positively* and only **grew**.
//! * **Everything else** — non-monotone strata, non-recursive
//!   strata (already a single pass), strata whose own seed was touched,
//!   and monotone strata facing *deletions* or changed negatively-read
//!   inputs are recomputed, but only that stratum, from upstream results
//!   that were themselves reused or maintained. A recomputation that
//!   lands on the old value keeps the old relation, generation and all, so
//!   nothing downstream — no later stratum, no module on top, no watch —
//!   sees a change. Deletion deltas through recursion (counting / DRed)
//!   are future work.
//!
//! Because every path either reuses a provably unchanged value or re-runs
//! the stock evaluator over correct inputs, the final relation state —
//! contents *and* iteration order, since relations are sorted sets — is
//! byte-identical to full re-materialization — and equal to the reference
//! interpreter, which the differential harness (`tests/differential.rs`)
//! checks after every commit of random streams of inserts, multi-tuple
//! deletes, aborts and library changes, with this module chained from one
//! pre-state to the next and inside every session configuration.

use crate::env::Env;
use crate::eval::{EvalCtx, SharedIndexCache};
use crate::fixpoint::{
    count_scc_refs, delta_name, delta_variant, eval_stratum, materialize_with_cache,
    scc_delta_variants, semi_naive_loop,
};
use crate::profile::{record_stratum, FixpointOutcome, StratumAction};
use rel_core::{Database, Name, RelResult, Relation};
use rel_sema::ir::{EvalMode, Module, Stratum};
use std::collections::{BTreeMap, BTreeSet};

/// A captured pre-state: the full relation state of one materialization
/// of a module, plus the generation of every base relation of the
/// database it ran against. Cloning is O(#relations) pointer bumps.
///
/// The generations are what make reuse sound without trusting the
/// caller: generations are globally unique and move exactly when a
/// relation's tuple set does, so `base_gens[name] ==
/// db.get(name).generation()` *proves* the base relation is unchanged —
/// even across session clones, aborted transactions, or direct
/// `db_mut()` edits the engine never saw.
#[derive(Clone, Debug)]
pub struct PreState {
    /// Generation of every base relation at capture time.
    base_gens: BTreeMap<Name, u64>,
    /// The materialized relation state (EDB ∪ IDB).
    state: BTreeMap<Name, Relation>,
}

impl PreState {
    /// Capture the pre-state of a finished materialization: `db` is the
    /// database it evaluated against (including any injected `?param`
    /// relations), `state` its resulting relation map.
    pub fn capture(db: &Database, state: &BTreeMap<Name, Relation>) -> Self {
        PreState {
            base_gens: db.iter().map(|(n, r)| (n.clone(), r.generation())).collect(),
            state: state.clone(),
        }
    }

    /// The captured relation state.
    pub fn state(&self) -> &BTreeMap<Name, Relation> {
        &self.state
    }

    /// The base relations of `db` that changed (or appeared, or vanished)
    /// since this pre-state was captured, detected by generation
    /// comparison — never by content diffing.
    pub fn touched_in(&self, db: &Database) -> BTreeSet<Name> {
        let mut touched = BTreeSet::new();
        for (n, r) in db.iter() {
            if self.base_gens.get(n) != Some(&r.generation()) {
                touched.insert(n.clone());
            }
        }
        for n in self.base_gens.keys() {
            if db.get(n).is_none() {
                touched.insert(n.clone());
            }
        }
        touched
    }
}

/// How [`materialize_incremental_with_stats`] handled each stratum.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Strata reused wholesale from the pre-state (out of the cone, or in
    /// the cone with value-identical inputs): O(1) per relation.
    pub reused: usize,
    /// Monotone recursive strata restarted semi-naively from the
    /// pre-state fixpoint with input-delta seeding.
    pub delta_seeded: usize,
    /// Strata re-evaluated from scratch (over reused/maintained inputs).
    pub recomputed: usize,
}

/// Bring a module's materialization up to date with `db`, the cheapest
/// sound way: `pre` itself when the generations it recorded still match,
/// incremental maintenance from it otherwise, a full materialization
/// without a `pre` — the one decision behind the session's library state
/// and its per-module fixpoint cache alike.
pub(crate) fn advance(
    module: &Module,
    pre: Option<&PreState>,
    db: &Database,
    cache: &SharedIndexCache,
) -> RelResult<(BTreeMap<Name, Relation>, FixpointOutcome)> {
    Ok(match pre {
        Some(pre) if pre.touched_in(db).is_empty() => (pre.state.clone(), FixpointOutcome::CacheReuse),
        Some(pre) => {
            let (rels, stats) = materialize_incremental_with_stats(module, pre, db, cache.clone())?;
            (rels, FixpointOutcome::Incremental(stats))
        }
        None => (materialize_with_cache(module, db, cache.clone())?, FixpointOutcome::Full),
    })
}

/// [`materialize_incremental_with_stats`] without the stats.
pub fn materialize_incremental(
    module: &Module,
    pre: &PreState,
    db: &Database,
    cache: SharedIndexCache,
) -> RelResult<BTreeMap<Name, Relation>> {
    materialize_incremental_with_stats(module, pre, db, cache).map(|(rels, _)| rels)
}

/// Re-derive the module's relation state over `db`, reusing everything
/// the changed base relations cannot affect. The result is byte-identical
/// to `materialize_with_cache(module, db, cache)`; see the module docs
/// for the maintenance strategy.
pub fn materialize_incremental_with_stats(
    module: &Module,
    pre: &PreState,
    db: &Database,
    cache: SharedIndexCache,
) -> RelResult<(BTreeMap<Name, Relation>, IncrementalStats)> {
    let n = module.strata.len();
    let touched = pre.touched_in(db);

    // Seed exactly like a full run: every base relation, O(1) clones.
    let mut rels: BTreeMap<Name, Relation> =
        db.iter().map(|(name, r)| (name.clone(), r.clone())).collect();
    let mut stats = IncrementalStats::default();

    // Walk the strata in dependency order, noting which ones could not
    // simply take over the pre-state's result.
    let mut moved = vec![false; n];
    for idx in 0..n {
        moved[idx] =
            maintain_stratum(module, &mut rels, idx, pre, &touched, &moved, &cache, &mut stats)?;
    }

    cache.prune_stale(&rels);
    note_incremental_stats(&stats);
    Ok((rels, stats))
}

/// Fold one incremental run's per-stratum classification into the
/// process-wide registry (when metrics are on).
fn note_incremental_stats(stats: &IncrementalStats) {
    if crate::metrics::enabled() {
        let r = crate::metrics::registry();
        r.strata_reused.add(stats.reused as u64);
        r.strata_delta_restarted.add(stats.delta_seeded as u64);
        r.strata_recomputed.add(stats.recomputed as u64);
    }
}

/// Does the pre-state hold a result for every materialized predicate of
/// the stratum? Always true for a `PreState` captured from this module's
/// own materialization.
fn pre_covers(module: &Module, pre: &PreState, stratum: &Stratum) -> bool {
    stratum.preds.iter().all(|p| {
        pre.state.contains_key(p)
            || matches!(
                module.pred_info.get(p).map(|i| &i.mode),
                Some(EvalMode::Demand { .. })
            )
    })
}

/// Bring one stratum up to date against `rels` (which already holds the
/// new base relations and every earlier stratum's result). `false` when
/// the pre-state's result was reused, `true` when it was maintained.
#[allow(clippy::too_many_arguments)]
fn maintain_stratum(
    module: &Module,
    rels: &mut BTreeMap<Name, Relation>,
    idx: usize,
    pre: &PreState,
    touched: &BTreeSet<Name>,
    moved: &[bool],
    cache: &SharedIndexCache,
    stats: &mut IncrementalStats,
) -> RelResult<bool> {
    let stratum: &Stratum = &module.strata[idx];
    let reads = &module.stratum_reads[idx];
    let pred_set: BTreeSet<&Name> = stratum.preds.iter().collect();

    // Did a touched base relation feed one of this stratum's own EDB
    // seeds? Its old base contribution cannot be separated from the
    // pre-state fixpoint, so neither reuse nor delta seeding applies.
    let own_touched = stratum.preds.iter().any(|p| touched.contains(p));

    // A reusable pre-state must actually cover the stratum's materialized
    // predicates. It always does when captured from this module; one
    // captured from a *different* module makes the stratum recompute,
    // which keeps the byte-identical contract even for that misuse.
    let pre_complete = pre_covers(module, pre, stratum);

    // Diff this stratum's inputs against the pre-state. Demand-driven
    // inputs are not materialized in `rels`; if such an input's (earlier)
    // stratum moved, its call-time value may differ in ways we cannot
    // diff, which blocks both reuse and delta seeding.
    let mut demand_blocked = false;
    let mut changed: BTreeMap<&Name, (Relation, Relation)> = BTreeMap::new();
    for input in reads.all() {
        if pred_set.contains(input) || changed.contains_key(input) {
            continue;
        }
        if let Some(info) = module.pred_info.get(input) {
            if matches!(info.mode, EvalMode::Demand { .. }) {
                demand_blocked |= moved[info.stratum];
                continue;
            }
        }
        let old = pre.state.get(input).cloned().unwrap_or_default();
        let new = rels.get(input).cloned().unwrap_or_default();
        if old != new {
            changed.insert(input, (old, new));
        }
    }

    if pre_complete && !own_touched && !demand_blocked {
        if changed.is_empty() {
            // Every input re-derived to its old value: so does this
            // stratum.
            record_stratum(module, idx, StratumAction::Reused, cache, |_| {
                for p in &stratum.preds {
                    if let Some(r) = pre.state.get(p) {
                        rels.insert(p.clone(), r.clone());
                    }
                }
                Ok(())
            })?;
            stats.reused += 1;
            return Ok(false);
        }
        if stratum.recursive && stratum.monotone {
            // Delta-seeded restart applies when every changed input is
            // read only positively and only grew (|new ∖ old| makes the
            // superset check a length comparison).
            let mut deltas: BTreeMap<Name, Relation> = BTreeMap::new();
            let mut eligible = true;
            for (input, (old, new)) in &changed {
                if reads.reads_negatively(input) {
                    eligible = false;
                    break;
                }
                let grown = new.minus(old);
                if old.len() + grown.len() != new.len() {
                    eligible = false; // a tuple was deleted: DRed is future work
                    break;
                }
                deltas.insert((*input).clone(), grown);
            }
            if eligible {
                record_stratum(module, idx, StratumAction::DeltaRestarted, cache, |cache| {
                    semi_naive_restart(module, rels, &stratum.preds, pre, deltas, cache)
                })?;
                stats.delta_seeded += 1;
                return Ok(true);
            }
        }
    }

    // Recompute just this stratum from its current (correct) inputs. A
    // recomputation that lands on the old value keeps the old relation —
    // and its generation — so nothing downstream sees a change.
    record_stratum(module, idx, StratumAction::Recomputed, cache, |cache| {
        eval_stratum(module, rels, stratum, cache)
    })?;
    for p in &stratum.preds {
        if let Some(old) = pre.state.get(p).filter(|old| rels.get(p) == Some(old)) {
            rels.insert(p.clone(), old.clone());
        }
    }
    stats.recomputed += 1;
    Ok(true)
}

/// Restart a monotone recursive stratum's semi-naive fixpoint from the
/// pre-state: seed the SCC relations with their previous fixpoint,
/// derive the initial Δ from the changed inputs' deltas (one rule
/// variant per changed-input occurrence, that occurrence reading `ΔI`),
/// and hand off to the stock semi-naive loop.
fn semi_naive_restart(
    module: &Module,
    rels: &mut BTreeMap<Name, Relation>,
    preds: &[Name],
    pre: &PreState,
    input_deltas: BTreeMap<Name, Relation>,
    cache: &SharedIndexCache,
) -> RelResult<()> {
    debug_assert!(!input_deltas.is_empty());
    // The accumulated "current" value starts at the previous fixpoint —
    // guaranteed a subset of the new one by monotonicity in the grown
    // inputs.
    for p in preds {
        rels.insert(p.clone(), pre.state.get(p).cloned().unwrap_or_default());
    }
    // Seed Δ: novel derivations that use at least one new input tuple.
    let changed_set: BTreeSet<&Name> = input_deltas.keys().collect();
    for (input, d) in &input_deltas {
        rels.insert(delta_name(input), d.clone());
    }
    let mut delta: BTreeMap<Name, Relation> = BTreeMap::new();
    {
        let cx = EvalCtx::with_cache(module, rels, cache.clone());
        for p in preds {
            let mut fresh = Relation::new();
            for rule in module.rules_for(p) {
                let occurrences = count_scc_refs(rule, &changed_set);
                for focus in 0..occurrences {
                    let variant = delta_variant(rule, &changed_set, focus);
                    fresh.absorb(&cx.eval_rule(&variant, Env::new(variant.vars.len()))?);
                }
            }
            if let Some(current) = rels.get(p) {
                fresh.minus_in_place(current);
            }
            delta.insert(p.clone(), fresh);
        }
    }
    for input in input_deltas.keys() {
        rels.remove(&delta_name(input));
    }
    for p in preds {
        let d = &delta[p];
        if !d.is_empty() {
            rels.get_mut(p).expect("seeded above").absorb(d);
        }
    }
    let variants = scc_delta_variants(module, preds);
    semi_naive_loop(module, rels, preds, cache, &variants, delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rel_core::tuple;

    fn edge_db(edges: &[(i64, i64)]) -> Database {
        let mut db = Database::new();
        for &(a, b) in edges {
            db.insert("E", tuple![a, b]);
        }
        db
    }

    const TC: &str = "def TC(x,y) : E(x,y)\n\
                      def TC(x,y) : exists((z) | E(x,z) and TC(z,y))";

    fn flatten(rels: &BTreeMap<Name, Relation>) -> Vec<(Name, Vec<rel_core::Tuple>)> {
        rels.iter().map(|(n, r)| (n.clone(), r.iter().cloned().collect())).collect()
    }

    #[test]
    fn insert_delta_matches_full_and_delta_seeds() {
        let module = rel_sema::compile(TC).unwrap();
        let db0 = edge_db(&[(1, 2), (2, 3), (3, 4)]);
        let pre_rels = materialize_with_cache(&module, &db0, SharedIndexCache::default()).unwrap();
        let pre = PreState::capture(&db0, &pre_rels);

        let mut db1 = db0.clone();
        db1.insert("E", tuple![4, 5]);
        let (inc, stats) = materialize_incremental_with_stats(
            &module,
            &pre,
            &db1,
            SharedIndexCache::default(),
        )
        .unwrap();
        let full = materialize_with_cache(&module, &db1, SharedIndexCache::default()).unwrap();
        assert_eq!(flatten(&inc), flatten(&full));
        assert_eq!(stats.delta_seeded, 1, "TC stratum must take the restart path: {stats:?}");
    }

    #[test]
    fn delete_falls_back_to_stratum_recompute_and_matches_full() {
        let module = rel_sema::compile(TC).unwrap();
        let db0 = edge_db(&[(1, 2), (2, 3), (3, 4)]);
        let pre_rels = materialize_with_cache(&module, &db0, SharedIndexCache::default()).unwrap();
        let pre = PreState::capture(&db0, &pre_rels);

        let mut db1 = db0.clone();
        db1.get_mut("E").remove(&tuple![2, 3]);
        let (inc, stats) = materialize_incremental_with_stats(
            &module,
            &pre,
            &db1,
            SharedIndexCache::default(),
        )
        .unwrap();
        let full = materialize_with_cache(&module, &db1, SharedIndexCache::default()).unwrap();
        assert_eq!(flatten(&inc), flatten(&full));
        assert_eq!(stats.delta_seeded, 0);
        assert!(stats.recomputed >= 1, "{stats:?}");
    }

    #[test]
    fn untouched_run_reuses_everything_by_pointer() {
        let module = rel_sema::compile(TC).unwrap();
        let db = edge_db(&[(1, 2), (2, 3)]);
        let pre_rels = materialize_with_cache(&module, &db, SharedIndexCache::default()).unwrap();
        let pre = PreState::capture(&db, &pre_rels);
        let (inc, stats) =
            materialize_incremental_with_stats(&module, &pre, &db, SharedIndexCache::default())
                .unwrap();
        assert_eq!(stats.recomputed + stats.delta_seeded, 0, "{stats:?}");
        let tc = rel_core::name("TC");
        assert!(
            inc[&tc].shares_storage(&pre_rels[&tc]),
            "an untouched fixpoint must be reused by pointer, not recomputed"
        );
    }

    #[test]
    fn out_of_cone_strata_share_storage_with_pre_state() {
        // Two disjoint TCs: touching E1 must leave TC2 pointer-shared.
        let module = rel_sema::compile(
            "def TC1(x,y) : E1(x,y)\n\
             def TC1(x,y) : exists((z) | E1(x,z) and TC1(z,y))\n\
             def TC2(x,y) : E2(x,y)\n\
             def TC2(x,y) : exists((z) | E2(x,z) and TC2(z,y))",
        )
        .unwrap();
        let mut db0 = Database::new();
        for (a, b) in [(1, 2), (2, 3)] {
            db0.insert("E1", tuple![a, b]);
            db0.insert("E2", tuple![a, b]);
        }
        let pre_rels = materialize_with_cache(&module, &db0, SharedIndexCache::default()).unwrap();
        let pre = PreState::capture(&db0, &pre_rels);
        let mut db1 = db0.clone();
        db1.insert("E1", tuple![3, 4]);
        let (inc, stats) = materialize_incremental_with_stats(
            &module,
            &pre,
            &db1,
            SharedIndexCache::default(),
        )
        .unwrap();
        let full = materialize_with_cache(&module, &db1, SharedIndexCache::default()).unwrap();
        assert_eq!(flatten(&inc), flatten(&full));
        let tc2 = rel_core::name("TC2");
        assert!(inc[&tc2].shares_storage(&pre_rels[&tc2]), "TC2 is outside the cone");
        assert_eq!(stats.delta_seeded, 1, "{stats:?}");
    }

    #[test]
    fn negatively_read_input_change_forces_recompute() {
        // Reach is monotone-recursive but reads Block under negation: a
        // grown Block can *shrink* Reach, so the restart must not fire.
        let module = rel_sema::compile(
            "def Reach(x) : Start(x)\n\
             def Reach(y) : exists((x) | Reach(x) and E(x,y) and not Block(y))",
        )
        .unwrap();
        let mut db0 = edge_db(&[(1, 2), (2, 3), (3, 4)]);
        db0.insert("Start", tuple![1]);
        db0.insert("Block", tuple![9]);
        let pre_rels = materialize_with_cache(&module, &db0, SharedIndexCache::default()).unwrap();
        let pre = PreState::capture(&db0, &pre_rels);

        let mut db1 = db0.clone();
        db1.insert("Block", tuple![3]); // grows, but read negatively
        let (inc, stats) = materialize_incremental_with_stats(
            &module,
            &pre,
            &db1,
            SharedIndexCache::default(),
        )
        .unwrap();
        let full = materialize_with_cache(&module, &db1, SharedIndexCache::default()).unwrap();
        assert_eq!(flatten(&inc), flatten(&full));
        assert_eq!(stats.delta_seeded, 0, "{stats:?}");
        let reach = rel_core::name("Reach");
        assert!(inc[&reach].len() < pre_rels[&reach].len(), "Reach must shrink");
    }

    #[test]
    fn touched_own_seed_forces_recompute() {
        // Inserting directly into the base relation backing TC's own EDB
        // seed: the restart cannot tell old seed tuples apart from derived
        // ones, so the stratum recomputes — and still matches full.
        let module = rel_sema::compile(TC).unwrap();
        let mut db0 = edge_db(&[(1, 2), (2, 3)]);
        db0.insert("TC", tuple![7, 8]);
        let pre_rels = materialize_with_cache(&module, &db0, SharedIndexCache::default()).unwrap();
        let pre = PreState::capture(&db0, &pre_rels);
        let mut db1 = db0.clone();
        db1.insert("TC", tuple![8, 9]);
        let (inc, stats) = materialize_incremental_with_stats(
            &module,
            &pre,
            &db1,
            SharedIndexCache::default(),
        )
        .unwrap();
        let full = materialize_with_cache(&module, &db1, SharedIndexCache::default()).unwrap();
        assert_eq!(flatten(&inc), flatten(&full));
        assert_eq!(stats.delta_seeded, 0, "{stats:?}");
    }

    #[test]
    fn aggregation_over_touched_input_recomputes_and_matches() {
        let module = rel_sema::compile(
            "def agg_sum[{A}] : reduce[add, A]\n\
             def Tot(x,s) : exists((q) | E(x,q)) and s = agg_sum[(v) : E(x,v)]",
        )
        .unwrap();
        let db0 = edge_db(&[(1, 10), (1, 20), (2, 5)]);
        let pre_rels = materialize_with_cache(&module, &db0, SharedIndexCache::default()).unwrap();
        let pre = PreState::capture(&db0, &pre_rels);
        let mut db1 = db0.clone();
        db1.insert("E", tuple![1, 30]);
        let inc =
            materialize_incremental(&module, &pre, &db1, SharedIndexCache::default()).unwrap();
        let full = materialize_with_cache(&module, &db1, SharedIndexCache::default()).unwrap();
        assert_eq!(flatten(&inc), flatten(&full));
        assert!(inc[&rel_core::name("Tot")].contains(&tuple![1, 60]));
    }

    #[test]
    fn pfp_stratum_in_cone_recomputes_and_matches() {
        let module = rel_sema::compile(
            "def Win(x) : exists((y) | Move(x,y) and not Win(y))",
        )
        .unwrap();
        let mut db0 = Database::new();
        for (a, b) in [(1, 2), (2, 3), (3, 4)] {
            db0.insert("Move", tuple![a, b]);
        }
        let pre_rels = materialize_with_cache(&module, &db0, SharedIndexCache::default()).unwrap();
        let pre = PreState::capture(&db0, &pre_rels);
        let mut db1 = db0.clone();
        db1.insert("Move", tuple![4, 5]);
        let (inc, stats) = materialize_incremental_with_stats(
            &module,
            &pre,
            &db1,
            SharedIndexCache::default(),
        )
        .unwrap();
        let full = materialize_with_cache(&module, &db1, SharedIndexCache::default()).unwrap();
        assert_eq!(flatten(&inc), flatten(&full));
        assert_eq!(stats.delta_seeded, 0, "PFP strata never delta-seed: {stats:?}");
    }

    #[test]
    fn foreign_pre_state_still_yields_full_state() {
        // A PreState captured from a *different* (here: empty) module
        // covers none of this module's predicates; the engine must
        // recompute rather than silently return EDB-only state.
        let module = rel_sema::compile(TC).unwrap();
        let db = edge_db(&[(1, 2), (2, 3)]);
        let foreign = PreState::capture(&db, &BTreeMap::new());
        let (inc, stats) = materialize_incremental_with_stats(
            &module,
            &foreign,
            &db,
            SharedIndexCache::default(),
        )
        .unwrap();
        let full = materialize_with_cache(&module, &db, SharedIndexCache::default()).unwrap();
        assert_eq!(flatten(&inc), flatten(&full));
        assert!(inc.contains_key(&rel_core::name("TC")));
        assert!(stats.recomputed >= 1, "{stats:?}");
    }

    #[test]
    fn touched_in_detects_new_and_mutated_relations() {
        let db0 = edge_db(&[(1, 2)]);
        let rels = BTreeMap::new();
        let pre = PreState::capture(&db0, &rels);
        assert!(pre.touched_in(&db0).is_empty());
        let mut db1 = db0.clone();
        db1.insert("E", tuple![2, 3]);
        db1.insert("F", tuple![1]);
        let touched = pre.touched_in(&db1);
        assert!(touched.contains("E"));
        assert!(touched.contains("F"));
        assert_eq!(touched.len(), 2);
    }
}
