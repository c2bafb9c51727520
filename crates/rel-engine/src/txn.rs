//! Explicit transaction handles (client API v2).
//!
//! [`crate::Session::begin`] opens a [`Transaction`] holding an O(1)
//! copy-on-write snapshot of the database (the *candidate* state). The
//! transaction stages work against the candidate:
//!
//! * [`Transaction::run`] / [`Transaction::run_prepared`] — evaluate a
//!   program; its `insert`/`delete` control relations are applied to the
//!   candidate immediately, so later steps observe earlier staged writes;
//! * [`Transaction::stage_insert`] / [`Transaction::stage_delete`] —
//!   direct tuple-level staging without compiling a program.
//!
//! The library state is part of the database (see [`crate::library`]), so
//! the transaction carries a *candidate library state* next to the
//! candidate database: steps evaluate their own strata on top of it, and
//! [`Transaction::commit`] brings it up to date with the final candidate
//! **once**, reads the library constraints' verdict off it, re-checks the
//! constraints the steps themselves declared, and installs database and
//! library state together — the paper's §3.4–3.5 protocol ("changes are
//! persisted, unless the transaction is aborted"), with constraints
//! enforced against the **final** state, so a step may transiently
//! violate one that a later step repairs. [`Transaction::abort`] — or
//! simply dropping the handle — discards both candidates at zero cost: an
//! aborted candidate can never leak into the next commit's maintenance.
//!
//! ```
//! use rel_core::database::figure1_database;
//! use rel_core::tuple;
//! use rel_engine::Session;
//!
//! let mut s = Session::new(figure1_database());
//! let mut txn = s.begin();
//! txn.run("def insert(:ClosedOrders, x) : PaymentOrder(_, x)").unwrap();
//! txn.stage_insert("ClosedOrders", tuple!["O9"]);
//! let outcome = txn.commit().unwrap();
//! assert_eq!(outcome.inserted, 4);
//! assert_eq!(s.db().get("ClosedOrders").unwrap().len(), 4);
//! ```

use crate::library::{Compiled, LibraryState};
use crate::prepared::{Params, Prepared};
use crate::session::{check_constraints, extract_delta, Session, TxnOutcome};
use crate::watch::Watch;
use rel_core::database::Delta;
use rel_core::{Database, Name, RelResult, Relation, Tuple};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, RwLock};

/// The constraints a step's own source declared, deferred to commit
/// time: the step is re-evaluated against the final candidate (through
/// the session's incremental cache, which holds the step's fixpoint — so
/// nothing is re-derived when no later step touched what it reads).
struct PendingCheck {
    compiled: Arc<Compiled>,
    /// Reserved `?name` relations the step ran with.
    param_rels: BTreeMap<Name, Relation>,
}

/// An in-flight transaction over a candidate database snapshot. Created
/// by [`Session::begin`]; holds the session exclusively (`&mut`) so no
/// other writer can interleave, while the snapshot itself cost O(1).
pub struct Transaction<'s> {
    session: &'s mut Session,
    candidate: Database,
    /// The library state last derived for (some state of) the candidate.
    library: Option<Arc<LibraryState>>,
    touched: BTreeSet<Name>,
    inserted: usize,
    deleted: usize,
    checks: Vec<PendingCheck>,
    output: Relation,
}

impl<'s> Transaction<'s> {
    pub(crate) fn begin(session: &'s mut Session) -> Self {
        let candidate = session.db().clone();
        Transaction {
            session,
            candidate,
            library: None,
            touched: BTreeSet::new(),
            inserted: 0,
            deleted: 0,
            checks: Vec::new(),
            output: Relation::default(),
        }
    }

    /// The candidate state (the snapshot plus everything staged so far).
    pub fn db(&self) -> &Database {
        &self.candidate
    }

    /// Tuples staged for insertion so far.
    pub fn staged_inserts(&self) -> usize {
        self.inserted
    }

    /// Tuples staged for deletion so far.
    pub fn staged_deletes(&self) -> usize {
        self.deleted
    }

    /// Compile (through the session's module cache) and run one step:
    /// evaluate against the candidate, apply the step's `insert`/`delete`
    /// delta to the candidate, and return the step's `output` relation.
    /// Constraint checking is deferred to [`Transaction::commit`].
    pub fn run(&mut self, src: &str) -> RelResult<Relation> {
        // Parameterized sources must come through `run_prepared`, which
        // binds the reserved relations — running them here would silently
        // evaluate against empty parameters.
        let compiled = self.session.compiled_query(src)?;
        self.step(compiled, self.candidate.clone())
    }

    /// Run a prepared step with `?name` parameters bound. The parameter
    /// relations exist only for this step's evaluation — they never leak
    /// into the candidate (or the committed) database.
    pub fn run_prepared(&mut self, prepared: &Prepared, params: &Params) -> RelResult<Relation> {
        let db = prepared.bind(params, &self.candidate)?;
        self.step(Arc::clone(&prepared.compiled), db)
    }

    /// The candidate library state, brought up to date with the
    /// candidate database (starting from the session's own state).
    fn library_state(&mut self) -> RelResult<Arc<LibraryState>> {
        let prev = self.library.take().or_else(|| self.session.stored_library_state());
        let lib = self.session.advance_library(prev.as_ref(), &self.candidate)?;
        self.library = Some(Arc::clone(&lib));
        Ok(lib)
    }

    /// Evaluate one step over `db` (the candidate plus bound parameters)
    /// and stage its delta.
    fn step(&mut self, compiled: Arc<Compiled>, mut db: Database) -> RelResult<Relation> {
        let lib = self.library_state()?;
        let (rels, _) = self.session.evaluate(&compiled, &mut db, &lib)?;
        let delta = extract_delta(&rels)?;
        let output = rels.get("output").cloned().unwrap_or_default();
        if !compiled.over(&lib).0.constraints.is_empty() {
            let param_rels = compiled
                .full
                .params
                .iter()
                .map(|p| {
                    let reserved = rel_sema::ir::param_relation(p);
                    let rel = rels.get(&reserved).cloned().unwrap_or_default();
                    (reserved, rel)
                })
                .collect();
            self.checks.push(PendingCheck { compiled, param_rels });
        }
        if !delta.is_empty() {
            self.inserted += delta.inserts.values().map(Vec::len).sum::<usize>();
            self.deleted += delta.deletes.values().map(Vec::len).sum::<usize>();
            self.touched
                .extend(delta.inserts.keys().chain(delta.deletes.keys()).cloned());
            self.candidate.apply(&delta);
        }
        self.output = output.clone();
        Ok(output)
    }

    /// Register a standing query while this transaction is open. The
    /// watch observes the **committed** snapshot — never this
    /// transaction's staged candidate: its initial snapshot excludes
    /// everything staged so far, and the staged writes arrive as an
    /// ordinary delta batch if (and only if) the transaction commits.
    /// (The borrow rules already prevent calling [`Session::watch`] while
    /// a transaction holds the session; this delegation is the sanctioned
    /// mid-transaction path, pinned to committed-state semantics by the
    /// `watch_registered_mid_transaction_sees_committed_state_only` test.)
    pub fn watch(&self, prepared: &Prepared, params: &Params) -> RelResult<Watch> {
        self.session.watch(prepared, params)
    }

    /// Stage one tuple for insertion, bypassing compilation. Returns
    /// whether the tuple was new.
    pub fn stage_insert(&mut self, rel: impl AsRef<str>, t: Tuple) -> bool {
        let added = self.candidate.insert(rel.as_ref(), t);
        if added {
            self.inserted += 1;
            self.touched.insert(rel_core::name(rel));
        }
        added
    }

    /// Stage one tuple for deletion, bypassing compilation. Returns
    /// whether the tuple was present.
    pub fn stage_delete(&mut self, rel: impl AsRef<str>, t: &Tuple) -> bool {
        if !self.candidate.defines(rel.as_ref()) {
            return false;
        }
        let removed = self.candidate.get_mut(rel.as_ref()).remove(t);
        if removed {
            self.deleted += 1;
            self.touched.insert(rel_core::name(rel));
        }
        removed
    }

    /// Check the library's and every staged step's integrity constraints
    /// against the final candidate state and install it — database and
    /// library state together — as the session's. On a violation the
    /// transaction aborts with the error and the session is left
    /// untouched. The library's constraints judge the *database*: their
    /// verdict is taken over the pure library state, so a rule a step
    /// added to a library predicate — never persisted — cannot repair
    /// one. A transaction that ran no step and staged nothing commits
    /// unconditionally.
    ///
    /// The work is what the transaction's delta costs: the library state
    /// is advanced once by the incremental engine (see
    /// [`crate::incremental`]; a full re-materialization when the session
    /// disables it), library constraints whose inputs did not move keep
    /// their verdict, and each step that declared constraints of its own
    /// re-derives only what later steps changed under it.
    pub fn commit(mut self) -> RelResult<TxnOutcome> {
        // A transaction that neither ran a step nor staged a tuple has
        // nothing to answer for: it commits even over a database that
        // already violates a library constraint (reads still raise it).
        let answerable = self.library.is_some() || !self.touched.is_empty();
        let lib = self.library_state()?;
        if answerable {
            lib.verdict.clone()?;
        }
        for check in &self.checks {
            let mut db = self.candidate.clone();
            for (reserved, rel) in &check.param_rels {
                db.set(reserved, rel.clone());
            }
            let (rels, _) = self.session.evaluate(&check.compiled, &mut db, &lib)?;
            let (own, _) = check.compiled.over(&lib);
            check_constraints(own, &own.constraints, &rels, &self.session.index_cache)?;
        }
        // Durable sessions log the commit's net delta *after* every
        // constraint check passed and *before* the candidate becomes
        // visible: an aborted (or dropped) transaction never reaches the
        // log, and a failed append aborts the commit with the session
        // untouched. Ephemeral sessions skip even the diff.
        if self.session.is_durable() {
            let delta = net_delta(&self.session.db, &self.candidate, &self.touched);
            if !delta.is_empty() {
                self.session.log_commit(&delta)?;
            }
        }
        self.session.db = self.candidate;
        self.session.library_state = RwLock::new(Some(Arc::clone(&lib)));
        // Standing queries see the commit the instant it is visible:
        // compute and push each registered watch's output delta against
        // the freshly installed database (watches whose dependent cone
        // the commit cannot reach are skipped without evaluation).
        self.session.notify_watches(&lib, &self.touched);
        // Fold the log into a snapshot when a compaction trigger fired
        // (no-op for ephemeral sessions; failure is a warning — the WAL
        // already holds this commit).
        self.session.maybe_compact();
        crate::metrics::registry().commits.incr();
        Ok(TxnOutcome {
            output: self.output,
            inserted: self.inserted,
            deleted: self.deleted,
        })
    }

    /// Discard the candidate state. Equivalent to dropping the handle —
    /// provided so call sites can say what they mean. On a durable
    /// session this (like any abort path) leaves no trace in the WAL:
    /// commits are logged only at a successful [`Transaction::commit`].
    pub fn abort(self) {
        crate::metrics::registry().aborts.incr();
    }
}

/// The net difference between the session database and the final
/// candidate over the touched relations, as an applyable [`Delta`].
/// Staged-then-reverted changes cancel out, so a relation whose contents
/// ended up unchanged contributes nothing (even though staging bumped its
/// generation) — replaying the log reproduces exactly the committed
/// states.
fn net_delta(old: &Database, new: &Database, touched: &BTreeSet<Name>) -> Delta {
    let empty = Relation::default();
    let mut delta = Delta::default();
    for name in touched {
        let before = old.get(name).unwrap_or(&empty);
        let after = new.get(name).unwrap_or(&empty);
        if before == after {
            continue;
        }
        let ins = after.minus(before);
        let del = before.minus(after);
        if !ins.is_empty() {
            delta.inserts.insert(name.clone(), ins.iter().cloned().collect());
        }
        if !del.is_empty() {
            delta.deletes.insert(name.clone(), del.iter().cloned().collect());
        }
    }
    delta
}

impl std::fmt::Debug for Transaction<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Transaction")
            .field("staged_inserts", &self.inserted)
            .field("staged_deletes", &self.deleted)
            .field("touched", &self.touched)
            .field("pending_checks", &self.checks.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rel_core::database::figure1_database;
    use rel_core::{tuple, RelError};

    fn session() -> Session {
        Session::new(figure1_database())
    }

    #[test]
    fn staged_steps_see_each_other() {
        let mut s = session();
        let mut txn = s.begin();
        txn.run("def insert(:Closed, x) : PaymentOrder(_, x)").unwrap();
        // The second step reads the first step's staged writes (the
        // candidate view exposes them too).
        let out = txn.run("def output(x) : Closed(x)").unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(txn.db().get("Closed").unwrap().len(), 3);
        txn.commit().unwrap();
        assert_eq!(s.db().get("Closed").unwrap().len(), 3);
    }

    #[test]
    fn abort_discards_everything() {
        let mut s = session();
        let mut txn = s.begin();
        txn.run("def insert(:Closed, x) : PaymentOrder(_, x)").unwrap();
        txn.stage_insert("Closed", tuple!["O9"]);
        txn.abort();
        assert!(!s.db().defines("Closed"));
    }

    #[test]
    fn drop_is_abort() {
        let mut s = session();
        {
            let mut txn = s.begin();
            txn.stage_insert("Closed", tuple!["O9"]);
        }
        assert!(!s.db().defines("Closed"));
    }

    #[test]
    fn direct_staging_counts_and_commits() {
        let mut s = session();
        let mut txn = s.begin();
        assert!(txn.stage_insert("ProductPrice", tuple!["P9", 99]));
        assert!(!txn.stage_insert("ProductPrice", tuple!["P9", 99])); // dup
        assert!(txn.stage_delete("ProductPrice", &tuple!["P1", 10]));
        assert!(!txn.stage_delete("ProductPrice", &tuple!["P1", 10]));
        let outcome = txn.commit().unwrap();
        assert_eq!((outcome.inserted, outcome.deleted), (1, 1));
        assert_eq!(s.db().get("ProductPrice").unwrap().len(), 4);
        assert!(s.db().get("ProductPrice").unwrap().contains(&tuple!["P9", 99]));
    }

    #[test]
    fn constraints_checked_on_commit_against_final_state() {
        // Step 1 violates the constraint transiently; step 2 repairs it
        // before commit — the transaction succeeds.
        let mut s = session();
        let mut txn = s.begin();
        txn.run(
            "def insert(:OrderProductQuantity, x, y, z) : \
               x = \"O9\" and y = \"P9\" and z = 1\n\
             ic valid_products(p) requires \
               OrderProductQuantity(_,p,_) implies ProductPrice(p,_)",
        )
        .unwrap();
        txn.stage_insert("ProductPrice", tuple!["P9", 99]);
        txn.commit().unwrap();
        assert_eq!(s.db().get("OrderProductQuantity").unwrap().len(), 5);
    }

    #[test]
    fn unrepaired_violation_aborts_commit() {
        let mut s = session();
        let mut txn = s.begin();
        txn.run(
            "def insert(:OrderProductQuantity, x, y, z) : \
               x = \"O9\" and y = \"P9\" and z = 1\n\
             ic valid_products(p) requires \
               OrderProductQuantity(_,p,_) implies ProductPrice(p,_)",
        )
        .unwrap();
        let err = txn.commit().unwrap_err();
        assert!(matches!(err, RelError::ConstraintViolation { .. }), "{err}");
        // Aborted: database unchanged.
        assert_eq!(s.db().get("OrderProductQuantity").unwrap().len(), 4);
    }

    #[test]
    fn prepared_step_with_params_stages_writes() {
        let mut s = session();
        let q = s
            .prepare("def insert(:Expensive, x) : exists((y) | ProductPrice(x, y) and y > ?min)")
            .unwrap();
        let mut txn = s.begin();
        let n = txn
            .run_prepared(&q, &Params::new().set("min", 15))
            .map(|_| txn.staged_inserts())
            .unwrap();
        assert_eq!(n, 3);
        txn.commit().unwrap();
        assert_eq!(s.db().get("Expensive").unwrap().len(), 3);
        // The reserved parameter relation never reaches the database.
        assert!(!s.db().defines("?min"));
    }

    #[test]
    fn stage_only_transaction_enforces_library_constraints() {
        // Direct staging must not slip past `ic`s installed as library:
        // the same write that aborts through `transact` aborts here too.
        let mut s = session().with_library(
            "ic valid_products(p) requires \
               OrderProductQuantity(_,p,_) implies ProductPrice(p,_)\n",
        );
        let mut txn = s.begin();
        txn.stage_insert("OrderProductQuantity", tuple!["O9", "NOPE", 1]);
        let err = txn.commit().unwrap_err();
        assert!(matches!(err, RelError::ConstraintViolation { .. }), "{err}");
        assert_eq!(s.db().get("OrderProductQuantity").unwrap().len(), 4);
        // A conforming staged write still commits.
        let mut txn = s.begin();
        txn.stage_insert("OrderProductQuantity", tuple!["O9", "P1", 1]);
        txn.commit().unwrap();
        assert_eq!(s.db().get("OrderProductQuantity").unwrap().len(), 5);
    }

    #[test]
    fn empty_commit_over_a_violating_database_succeeds() {
        // The data already breaks the installed constraint (loaded behind
        // the session's back). A transaction that did nothing commits;
        // one that ran a step or staged a tuple answers for the state.
        let mut s = session().with_library(
            "ic valid_products(p) requires \
               OrderProductQuantity(_,p,_) implies ProductPrice(p,_)\n",
        );
        s.db_mut().insert("OrderProductQuantity", tuple!["O9", "NOPE", 1]);
        let violated = |r: RelResult<TxnOutcome>| {
            matches!(r, Err(RelError::ConstraintViolation { .. }))
        };
        assert!(s.query("def output(x) : ProductPrice(x, _)").is_err());
        s.begin().commit().unwrap();
        let mut txn = s.begin();
        txn.run("def output(x) : ProductPrice(x, _)").unwrap();
        assert!(violated(txn.commit()));
        let mut txn = s.begin();
        txn.stage_insert("AuditLog", tuple!["unrelated"]);
        assert!(violated(txn.commit()));
        // Repairing the data is a commit like any other.
        let mut txn = s.begin();
        txn.stage_delete("OrderProductQuantity", &tuple!["O9", "NOPE", 1]);
        txn.commit().unwrap();
    }

    #[test]
    fn library_constraints_judge_the_database_not_a_steps_extension() {
        // The installed constraint is violated by the stored data. A step
        // that adds a rule to the library's predicate sees the constraint
        // satisfied over *its* definition, but that rule is not persisted:
        // the committed database would still violate it, so the commit
        // aborts on the library state's verdict.
        let mut s = session().with_library(
            "def Priced(p) : ProductPrice(p, _)\n\
             ic valid_products(p) requires OrderProductQuantity(_,p,_) implies Priced(p)\n",
        );
        s.db_mut().insert("OrderProductQuantity", tuple!["O9", "NOPE", 1]);
        let mut txn = s.begin();
        txn.run("def Priced(p) : p = \"NOPE\"\ndef insert(:AuditLog, x) : x = \"seen\"").unwrap();
        let err = txn.commit().unwrap_err();
        assert!(matches!(err, RelError::ConstraintViolation { .. }), "{err}");
        assert!(!s.db().defines("AuditLog"));
    }

    #[test]
    fn run_rejects_parameterized_source() {
        // A `?param` through the unprepared path must error, not evaluate
        // against an absent (empty) parameter relation.
        let mut s = session();
        let mut txn = s.begin();
        let err = txn
            .run("def insert(:X, x) : exists((y) | ProductPrice(x, y) and y > ?min)")
            .unwrap_err();
        assert!(err.to_string().contains("?min"), "{err}");
        drop(txn);
        // And the thin `transact` wrapper inherits the guard.
        let err = s
            .transact("def insert(:X, x) : exists((y) | ProductPrice(x, y) and y > ?min)")
            .unwrap_err();
        assert!(err.to_string().contains("?min"), "{err}");
    }

    #[test]
    fn later_step_violating_earlier_constraint_aborts() {
        // Step 1's constraint holds at step time; step 2's staged delete
        // breaks it. The incremental re-check must re-derive the cone and
        // abort.
        let mut s = session();
        let mut txn = s.begin();
        txn.run(
            "def insert(:OrderProductQuantity, x, y, z) : \
               x = \"O9\" and y = \"P1\" and z = 1\n\
             ic valid_products(p) requires \
               OrderProductQuantity(_,p,_) implies ProductPrice(p,_)",
        )
        .unwrap();
        // Deleting P1's price invalidates both the staged insert and
        // the pre-existing O1/O2 rows referencing P1.
        assert!(txn.stage_delete("ProductPrice", &tuple!["P1", 10]));
        let err = txn.commit().unwrap_err();
        assert!(matches!(err, RelError::ConstraintViolation { .. }), "{err}");
        assert_eq!(s.db().get("ProductPrice").unwrap().len(), 4);
    }

    #[test]
    fn out_of_cone_constraint_checks_against_step_state() {
        // The step's constraint reads only ProductPrice; everything the
        // transaction touches afterwards (Expensive via the step's own
        // delta, AuditLog via direct staging) is outside the constraint's
        // reach, so commit takes the no-re-derivation branch and checks
        // the step's own state. The commit succeeds and applies both
        // writes.
        let mut s = session();
        let mut txn = s.begin();
        txn.run(
            "def insert(:Expensive, x) : exists((y) | ProductPrice(x, y) and y > 25)\n\
             ic has_cheap() requires exists((p) | ProductPrice(p, 10))",
        )
        .unwrap();
        txn.stage_insert("AuditLog", tuple!["touched"]);
        txn.commit().unwrap();
        assert_eq!(s.db().get("Expensive").unwrap().len(), 2);
        assert_eq!(s.db().get("AuditLog").unwrap().len(), 1);

        // And the branch *evaluates*, it does not skip: a violated
        // out-of-cone constraint still aborts.
        let mut txn = s.begin();
        txn.run(
            "def insert(:Expensive2, x) : exists((y) | ProductPrice(x, y) and y > 25)\n\
             ic impossible() requires ProductPrice(\"P1\", 11)",
        )
        .unwrap();
        txn.stage_insert("AuditLog", tuple!["touched again"]);
        let err = txn.commit().unwrap_err();
        assert!(matches!(err, RelError::ConstraintViolation { .. }), "{err}");
        assert!(!s.db().defines("Expensive2"));
        assert_eq!(s.db().get("AuditLog").unwrap().len(), 1);
    }

    #[test]
    fn repeated_transacts_maintain_the_closure() {
        // A sequence of small commits over a recursive view: the session's
        // incremental maintenance must land on the closure of the chain
        // 1 -> 2 -> ... -> 8, which is every pair (i, j) with i < j.
        let lib = "def TC(x,y) : E(x,y)\n\
                   def TC(x,y) : exists((z) | E(x,z) and TC(z,y))\n\
                   ic closed(x, y) requires E(x,y) implies TC(x,y)";
        let mut s = Session::new(Database::new()).with_library(lib);
        s.db_mut().insert("E", tuple![1, 2]);
        s.db_mut().insert("E", tuple![2, 3]);
        let q = "def output(x, y) : TC(x, y)";
        for step in 3..8i64 {
            let mut txn = s.begin();
            txn.run(&format!("def insert(:E, x, y) : x = {step} and y = {}", step + 1))
                .unwrap();
            txn.commit().unwrap();
            let want = (1..=step + 1).flat_map(|i| (i + 1..=step + 1).map(move |j| tuple![i, j]));
            assert_eq!(s.query(q).unwrap(), Relation::from_tuples(want), "after step {step}");
        }
    }

    #[test]
    fn watch_registered_mid_transaction_sees_committed_state_only() {
        let mut s = session();
        let q = s.prepare("def output(x, y) : ProductPrice(x, y)").unwrap();
        let mut txn = s.begin();
        txn.stage_insert("ProductPrice", tuple!["P9", 99]);
        // Registration happens with staged state pending: the initial
        // snapshot must be the committed database, not the candidate.
        let w = txn.watch(&q, &Params::new()).unwrap();
        let first = w.try_recv().unwrap();
        assert!(first.snapshot);
        assert_eq!(first.added.len(), 4, "snapshot must exclude staged writes");
        assert!(!first.added.contains(&tuple!["P9", 99]));
        txn.commit().unwrap();
        // The staged write arrives as the commit's delta, not earlier.
        let d = w.try_recv().unwrap();
        assert_eq!(d.seq, 1);
        assert!(!d.snapshot);
        assert_eq!(
            d.added.rows::<(String, i64)>().unwrap(),
            vec![("P9".to_string(), 99)]
        );
        assert!(d.removed.is_empty());
    }

    #[test]
    fn aborted_transaction_pushes_nothing() {
        let mut s = session();
        let q = s.prepare("def output(x, y) : ProductPrice(x, y)").unwrap();
        let w = {
            let mut txn = s.begin();
            txn.stage_insert("ProductPrice", tuple!["P9", 99]);
            let w = txn.watch(&q, &Params::new()).unwrap();
            txn.abort();
            w
        };
        let first = w.try_recv().unwrap();
        assert!(first.snapshot);
        assert!(w.try_recv().is_none(), "aborted staging must never surface");
        // A commit-time constraint violation is equally invisible.
        let err = s
            .transact(
                "def insert(:ProductPrice, x, y) : x = \"P9\" and y = 99\n\
                 ic impossible() requires ProductPrice(\"P1\", 11)",
            )
            .unwrap_err();
        assert!(matches!(err, RelError::ConstraintViolation { .. }), "{err}");
        assert!(w.try_recv().is_none());
    }

    #[test]
    fn outcome_output_is_last_step() {
        let mut s = session();
        let mut txn = s.begin();
        txn.run("def output(x) : ProductPrice(x, _)").unwrap();
        txn.run("def output(y) : exists((x) | PaymentOrder(x, y))").unwrap();
        let outcome = txn.commit().unwrap();
        assert_eq!(outcome.output.len(), 3);
    }
}
