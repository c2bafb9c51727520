//! Prepared queries with parameter binding (client API v2).
//!
//! [`crate::Session::prepare`] compiles `library + query` **once** into a
//! [`Prepared`] handle; every [`Prepared::execute`] /
//! [`Prepared::execute_with`] call re-runs the compiled module against the
//! session's *current* database snapshot with zero recompilation — for a
//! server executing the same query shapes over changing data, compilation
//! drops out of the hot path entirely (the repo benchmark's `lookup_mix`
//! workload measures it).
//!
//! `?name` placeholders in the query source are lowered by `rel-sema`
//! into reserved `?`-prefixed singleton base relations; [`Params`] carries
//! the execute-time bindings, which are injected into an O(1) CoW clone
//! of the database. Binding parameters never touches the compiled module,
//! so rebinding cannot trigger recompilation by construction.
//!
//! ```
//! use rel_core::database::figure1_database;
//! use rel_engine::{Params, Session};
//!
//! let s = Session::new(figure1_database());
//! let q = s
//!     .prepare("def output(x, y) : ProductPrice(x, y) and y > ?min")
//!     .unwrap();
//! for min in [10, 20, 30] {
//!     let out = q.execute_with(&s, &Params::new().set("min", min)).unwrap();
//!     let rows: Vec<(String, i64)> = out.rows().unwrap();
//!     assert!(rows.iter().all(|(_, y)| *y > min));
//! }
//! ```

use crate::library::Compiled;
use crate::session::Session;
use rel_core::{name, Database, Name, RelError, RelResult, Relation, Value};
use rel_sema::ir::{param_relation, Module};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Execute-time parameter bindings for a [`Prepared`] query.
///
/// Each binding is relational: a value set under the reserved `?name`
/// relation. [`Params::set`] binds a single value (the common case);
/// [`Params::set_many`] and [`Params::set_rel`] bind whole value sets, so
/// one placeholder can range over e.g. an `IN`-list.
///
/// Reusing one `Params` across executes also reuses the underlying
/// relations (and therefore their generations), which keeps the session's
/// index cache warm across repeated executions.
#[derive(Clone, Debug, Default)]
pub struct Params {
    bound: BTreeMap<Name, Relation>,
}

impl Params {
    /// No bindings.
    pub fn new() -> Self {
        Params::default()
    }

    /// Bind `?name` to a single value (builder-style).
    pub fn set(mut self, param: &str, value: impl Into<Value>) -> Self {
        self.bound.insert(name(param), Relation::from_values([value.into()]));
        self
    }

    /// Bind `?name` to a set of values: the placeholder ranges over all
    /// of them.
    pub fn set_many<V: Into<Value>>(
        mut self,
        param: &str,
        values: impl IntoIterator<Item = V>,
    ) -> Self {
        self.bound
            .insert(name(param), Relation::from_values(values.into_iter().map(Into::into)));
        self
    }

    /// Bind `?name` to an arbitrary relation (O(1): relations are CoW).
    pub fn set_rel(mut self, param: &str, rel: Relation) -> Self {
        self.bound.insert(name(param), rel);
        self
    }

    /// Names bound so far, sorted.
    pub fn names(&self) -> impl Iterator<Item = &Name> {
        self.bound.keys()
    }

    /// The bound `(name, relation)` pairs in name order — the stable
    /// iteration a wire protocol needs to ship bindings to a server.
    pub fn iter(&self) -> impl Iterator<Item = (&Name, &Relation)> {
        self.bound.iter()
    }

    /// Number of bound parameters.
    pub fn len(&self) -> usize {
        self.bound.len()
    }

    /// Are there no bindings?
    pub fn is_empty(&self) -> bool {
        self.bound.is_empty()
    }

    fn get(&self, param: &str) -> Option<&Relation> {
        self.bound.get(param)
    }
}

/// A compiled query, reusable across executions and shareable across
/// threads (the module is behind an `Arc`; execution state lives in the
/// session). Obtained from [`Session::prepare`].
#[derive(Clone, Debug)]
pub struct Prepared {
    /// The compiled module, split against the session's library.
    pub(crate) compiled: Arc<Compiled>,
    src: String,
}

impl Prepared {
    pub(crate) fn new(compiled: Arc<Compiled>, src: String) -> Self {
        Prepared { compiled, src }
    }

    /// The compiled module (shared handle).
    pub fn module(&self) -> &Arc<Module> {
        &self.compiled.full
    }

    /// The query source this handle was prepared from (not including the
    /// session's library prefix).
    pub fn src(&self) -> &str {
        &self.src
    }

    /// Bare names of the `?name` parameters the query references, sorted.
    pub fn param_names(&self) -> &[Name] {
        &self.module().params
    }

    /// Execute against the session's current database snapshot. The query
    /// must be parameterless — use [`Prepared::execute_with`] otherwise.
    /// Read-only: `insert`/`delete` rules are evaluated but not applied
    /// (stage writes through [`crate::Transaction::run_prepared`]).
    pub fn execute(&self, session: &Session) -> RelResult<Relation> {
        self.execute_with(session, &Params::new())
    }

    /// Execute with `?name` parameters bound. Every parameter the query
    /// references must be bound, and every binding must be referenced —
    /// mismatches are errors rather than silently-empty results. Returns
    /// the `output` relation (integrity constraints in scope are checked).
    pub fn execute_with(&self, session: &Session, params: &Params) -> RelResult<Relation> {
        session.read_output(&self.src, || Ok((&*self.compiled, self.bind(params, session.db())?)))
    }

    /// [`Prepared::execute`] under a profile sink — see
    /// [`crate::Session::query_profiled`] for the contract and
    /// [`crate::profile`] for how to read the result.
    pub fn execute_profiled(
        &self,
        session: &Session,
    ) -> RelResult<(Relation, crate::profile::QueryProfile)> {
        self.execute_with_profiled(session, &Params::new())
    }

    /// [`Prepared::execute_with`] under a profile sink. A prepared handle
    /// is by construction compiled, so the profile's module-cache outcome
    /// is the cache's *current* view of the source.
    pub fn execute_with_profiled(
        &self,
        session: &Session,
        params: &Params,
    ) -> RelResult<(Relation, crate::profile::QueryProfile)> {
        session.read_output_profiled(&self.src, || {
            Ok((&*self.compiled, self.bind(params, session.db())?))
        })
    }

    /// Check that every module parameter is bound and every binding is a
    /// module parameter — mismatches are errors rather than
    /// silently-empty results.
    fn validate(&self, params: &Params) -> RelResult<()> {
        let expected = self.param_names();
        for required in expected {
            if params.get(required).is_none() {
                return Err(RelError::unsafe_expr(format!(
                    "parameter `?{required}` is unbound (prepared query \
                     expects: {})",
                    render_names(expected)
                )));
            }
        }
        for bound in params.names() {
            if !expected.contains(bound) {
                return Err(RelError::unsafe_expr(format!(
                    "query has no parameter `?{bound}` (prepared query \
                     expects: {})",
                    render_names(expected)
                )));
            }
        }
        Ok(())
    }

    /// Validate `params` against the module's parameter list and build
    /// the execution database: an O(1) CoW clone of `base` with the
    /// reserved `?name` relations injected.
    pub(crate) fn bind(&self, params: &Params, base: &Database) -> RelResult<Database> {
        self.validate(params)?;
        let mut db = base.clone();
        for p in self.param_names() {
            let rel = params.get(p).expect("checked above").clone();
            db.set(param_relation(p), rel);
        }
        Ok(db)
    }

    /// Execute a whole batch of parameter bindings against **one**
    /// copy-on-write snapshot of the session's current database (a single
    /// [`Database::clone`], amortized across the batch — asserted by the
    /// `execute_many_snapshots` test against the
    /// [`rel_core::database::snapshots`] counter), returning one `output`
    /// relation per binding, in order. Each binding is one read, exactly
    /// as [`Prepared::execute_with`] runs it — constraints checked,
    /// `query_us` recorded, the slow-query log armed; the first failure
    /// aborts the batch.
    pub fn execute_many(&self, session: &Session, batches: &[Params]) -> RelResult<Vec<Relation>> {
        if batches.is_empty() {
            return Ok(Vec::new());
        }
        // One snapshot; each binding only swaps the reserved `?name`
        // relations in place (the validation in `bind` is replicated so
        // error behavior matches the one-at-a-time path).
        let mut db = self.bind(&batches[0], session.db())?;
        let mut out = Vec::with_capacity(batches.len());
        for (i, params) in batches.iter().enumerate() {
            if i > 0 {
                self.validate(params)?;
                for p in self.param_names() {
                    let rel = params.get(p).expect("validated above").clone();
                    db.set(param_relation(p), rel);
                }
            }
            out.push(session.read_output(&self.src, || Ok((&*self.compiled, &mut db)))?);
        }
        Ok(out)
    }
}

fn render_names(names: &[Name]) -> String {
    if names.is_empty() {
        return "none".to_string();
    }
    names
        .iter()
        .map(|n| format!("?{n}"))
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rel_core::database::figure1_database;
    use rel_core::tuple;

    fn session() -> Session {
        Session::new(figure1_database())
    }

    #[test]
    fn execute_reruns_against_current_snapshot() {
        let mut s = session();
        let q = s.prepare("def output(x) : ProductPrice(x, _)").unwrap();
        assert_eq!(q.execute(&s).unwrap().len(), 4);
        s.db_mut().insert("ProductPrice", tuple!["P9", 99]);
        // Same handle, new data — no recompilation, fresh snapshot.
        assert_eq!(q.execute(&s).unwrap().len(), 5);
    }

    #[test]
    fn parameter_binding_filters() {
        let s = session();
        let q = s
            .prepare("def output(x, y) : ProductPrice(x, y) and y > ?min")
            .unwrap();
        assert_eq!(q.param_names(), &[name("min")]);
        let out = q.execute_with(&s, &Params::new().set("min", 15)).unwrap();
        assert_eq!(
            out.rows::<(String, i64)>().unwrap(),
            vec![("P2".to_string(), 20), ("P3".to_string(), 30), ("P4".to_string(), 40)]
        );
        let out = q.execute_with(&s, &Params::new().set("min", 35)).unwrap();
        assert_eq!(out, Relation::from_tuples([tuple!["P4", 40]]));
    }

    #[test]
    fn param_in_argument_position_joins() {
        let s = session();
        let q = s.prepare("def output(y) : ProductPrice(?product, y)").unwrap();
        let out = q
            .execute_with(&s, &Params::new().set("product", "P3"))
            .unwrap();
        assert_eq!(out.single::<i64>().unwrap(), 30);
    }

    #[test]
    fn set_valued_param_ranges() {
        let s = session();
        let q = s.prepare("def output(x, y) : x = ?x and ProductPrice(x, y)").unwrap();
        let out = q
            .execute_with(&s, &Params::new().set_many("x", ["P1", "P3"]))
            .unwrap();
        assert_eq!(
            out,
            Relation::from_tuples([tuple!["P1", 10], tuple!["P3", 30]])
        );
    }

    #[test]
    fn unbound_param_is_an_error() {
        let s = session();
        let q = s.prepare("def output(x) : ProductPrice(x, ?min)").unwrap();
        let err = q.execute(&s).unwrap_err();
        assert!(err.to_string().contains("?min"), "{err}");
    }

    #[test]
    fn unknown_binding_is_an_error() {
        let s = session();
        let q = s.prepare("def output(x) : ProductPrice(x, _)").unwrap();
        let err = q
            .execute_with(&s, &Params::new().set("nope", 1))
            .unwrap_err();
        assert!(err.to_string().contains("?nope"), "{err}");
    }

    #[test]
    fn query_rejects_parameterized_source() {
        let s = session();
        let err = s
            .query("def output(x) : ProductPrice(x, ?min)")
            .unwrap_err();
        assert!(err.to_string().contains("?min"), "{err}");
    }

    #[test]
    fn params_never_leak_into_session_db() {
        let s = session();
        let q = s.prepare("def output(x) : ProductPrice(x, ?min)").unwrap();
        q.execute_with(&s, &Params::new().set("min", 10)).unwrap();
        assert!(!s.db().defines("?min"));
    }
}
