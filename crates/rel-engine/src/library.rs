//! The installed library as part of the database.
//!
//! In the paper the library's derived relations and integrity constraints
//! belong to the *database* (§3.4–3.5, §6), not to whichever query reads
//! them. A session therefore keeps **one** `LibraryState` next to its
//! database: the materialization of the library module (`compile("")`)
//! plus the verdict of the library's constraints, valid for the
//! base-relation generations it was derived from and advanced by
//! [`crate::incremental`] when they move. Every module compiled against
//! the library is `split`: strata whose rules equal the library's are
//! dropped, their predicates become inputs served from the library state,
//! and only the module's *own* strata and constraints are evaluated for
//! it — so a prepared step, a watch and an ad hoc query read the very
//! same `TC` object instead of each maintaining a copy.

use crate::eval::SharedIndexCache;
use crate::incremental::{advance, PreState};
use crate::profile::FixpointOutcome;
use crate::session::check_constraints;
use rel_core::{Database, Name, RelResult, Relation};
use rel_sema::ir::{visit_constraint_preds, ConstraintIr, EvalMode, Module, PredInfo};
use std::sync::Arc;

/// A query compiled against the session's library.
#[derive(Debug)]
pub(crate) struct Compiled {
    /// What `rel-sema` produced for `library + query`.
    pub full: Arc<Module>,
    /// The library module `full` was split against.
    library: Arc<Module>,
    /// `full` without the strata and constraints the library state
    /// answers (the same allocation when there are none).
    own: Arc<Module>,
    /// The library predicates `own` reads as inputs.
    shared: Vec<Name>,
}

impl Compiled {
    /// The module to evaluate on top of `lib`, and the library predicates
    /// it takes from there as inputs: the split — or, for a handle that
    /// outlived an `install_library`, the whole module with the library it
    /// was compiled against.
    pub(crate) fn over(&self, lib: &LibraryState) -> (&Arc<Module>, &[Name]) {
        match Arc::ptr_eq(&self.library, &lib.module) {
            true => (&self.own, &self.shared),
            false => (&self.full, &[]),
        }
    }
}

/// Split `full` (compiled from `library + query`) against the library
/// module. A stratum is *equal* to the library's when its predicates have
/// the library's rules and modes and everything it reads is a base
/// relation or comes from an equal stratum; equal materialized strata,
/// and library constraints over equal inputs, leave `own`. Demand-driven
/// predicates stay: they are evaluated at call sites from their rules.
pub(crate) fn split(full: Module, library: Arc<Module>) -> Compiled {
    let n = full.strata.len();
    let (full, lib) = (Arc::new(full), &*library);
    let sharable = lib.params.is_empty();
    let mut equal = vec![false; n];
    let mode = |m: &Module, p: &Name| m.pred_info.get(p).map(|i| i.mode.clone());
    for (i, s) in full.strata.iter().enumerate() {
        let same_rules = |p: &Name| {
            lib.rules.get(p).is_some_and(|r| full.rules.get(p) == Some(r))
                && mode(lib, p) == mode(&full, p)
        };
        let same_input = |q: &Name| {
            full.pred_info.get(q).is_none_or(|info| info.stratum == i || equal[info.stratum])
        };
        let is_equal =
            sharable && s.preds.iter().all(same_rules) && full.stratum_reads[i].all().all(same_input);
        equal[i] = is_equal;
    }
    let answered = |c: &ConstraintIr| {
        let mut inputs_equal = sharable && lib.constraints.contains(c);
        visit_constraint_preds(c, &mut |q| {
            inputs_equal &= full.pred_info.get(q).is_none_or(|info| equal[info.stratum]);
        });
        inputs_equal
    };
    let removed: Vec<bool> = (0..n)
        .map(|i| {
            let materialized = |p| mode(&full, p) == Some(EvalMode::Materialize);
            equal[i] && full.strata[i].preds.iter().all(materialized)
        })
        .collect();
    if !removed.contains(&true) && !full.constraints.iter().any(answered) {
        return Compiled { own: Arc::clone(&full), full, library, shared: Vec::new() };
    }
    let mut own = Module { params: full.params.clone(), ..Module::default() };
    let mut shared = Vec::new();
    let mut index = vec![0; n];
    for (i, s) in full.strata.iter().enumerate() {
        if removed[i] {
            shared.extend(s.preds.iter().cloned());
            continue;
        }
        index[i] = own.strata.len();
        own.strata.push(s.clone());
        own.stratum_reads.push(full.stratum_reads[i].clone());
        let deps = full.stratum_deps[i].iter().filter(|&&d| !removed[d]).map(|&d| index[d]);
        own.stratum_deps.push(deps.collect());
        for p in &s.preds {
            own.rules.insert(p.clone(), full.rules[p].clone());
            let mode = full.pred_info[p].mode.clone();
            own.pred_info.insert(p.clone(), PredInfo { mode, stratum: index[i] });
        }
    }
    own.constraints = full.constraints.iter().filter(|c| !answered(c)).cloned().collect();
    Compiled { full, library, own: Arc::new(own), shared }
}

/// The library module materialized over one database state, with the
/// verdict of the library's constraints over it.
#[derive(Debug)]
pub(crate) struct LibraryState {
    module: Arc<Module>,
    /// The materialization and the base generations it holds for.
    pre: PreState,
    /// `Err` is the first violated library constraint.
    pub verdict: RelResult<()>,
}

impl LibraryState {
    /// The library state for `db`: `prev` itself when its base
    /// generations still match, otherwise `prev` advanced through the
    /// incremental engine (or a fresh materialization without a usable
    /// `prev`). Constraints none of whose inputs moved keep their passing
    /// verdict.
    pub(crate) fn advance(
        prev: Option<&Arc<LibraryState>>,
        module: &Arc<Module>,
        db: &Database,
        cache: &SharedIndexCache,
    ) -> RelResult<Arc<LibraryState>> {
        let prev = prev.filter(|s| Arc::ptr_eq(&s.module, module));
        let (rels, outcome) = advance(module, prev.map(|s| &s.pre), db, cache)?;
        if let (Some(current), FixpointOutcome::CacheReuse) = (prev, outcome) {
            return Ok(Arc::clone(current));
        }
        let generation = |r: Option<&Relation>| r.map(Relation::generation);
        let passed = prev.filter(|s| s.verdict.is_ok());
        let recheck = module.constraints.iter().filter(|c| {
            let Some(passed) = passed else { return true };
            let mut moved = false;
            visit_constraint_preds(c, &mut |q| {
                let demand = module
                    .pred_info
                    .get(q)
                    .is_some_and(|i| matches!(i.mode, EvalMode::Demand { .. }));
                moved |= demand || generation(passed.pre.state().get(q)) != generation(rels.get(q));
            });
            moved
        });
        let verdict = check_constraints(module, recheck, &rels, cache);
        let pre = PreState::capture(db, &rels);
        Ok(Arc::new(LibraryState { module: Arc::clone(module), pre, verdict }))
    }

    /// Put the `shared` library relations into `db` as inputs.
    pub(crate) fn overlay(&self, shared: &[Name], db: &mut Database) {
        for p in shared {
            if let Some(r) = self.pre.state().get(p) {
                db.set(p, r.clone());
            }
        }
    }
}
