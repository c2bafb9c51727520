//! Standing queries: registered once, pushed forever.
//!
//! [`crate::Session::watch`] registers a [`crate::Prepared`] query (plus
//! bound [`Params`]) as a *standing query*: the caller gets a [`Watch`]
//! handle whose channel receives one [`WatchDelta`] batch per change —
//! an initial snapshot at registration, then, after every committed
//! transaction that can affect the result, the exact added/removed
//! output rows.
//!
//! The library state is part of the database, and a standing query
//! evaluates on top of it: a commit has already brought the library's
//! derived relations up to date (once, for everybody) when watches are
//! notified, so a watch re-derives only its *own* strata — through the
//! captured fixpoint its module keeps in the session's incremental cache —
//! from the base and library relations the commit moved. A commit that
//! staged nothing in the query's cone — the cone of the whole module,
//! library strata included — is detected up front by
//! [`rel_sema::ir::Module::dependent_cone`] and skipped without evaluating
//! anything (the O(1) no-op path; `watch_out_of_cone_commit_is_noop` pins it).
//!
//! # Delivery contract
//!
//! * Batches carry a per-watch sequence number. Delivered sequence
//!   numbers are **gapless**: `seq` 0 is the initial snapshot, and every
//!   later batch is exactly one greater than the previous *delivered*
//!   batch.
//! * A batch with [`WatchDelta::snapshot`] set replaces the subscriber's
//!   state wholesale (`added` is the full current result, `removed` is
//!   empty); a plain batch is applied as `state − removed ∪ added`.
//! * The channel is bounded ([`crate::EngineConfig::watch_buffer`] /
//!   `REL_WATCH_BUFFER` batches). A subscriber that falls behind does
//!   **not** block commits and does not grow memory: once the buffer is
//!   full the watch goes *lagged* — deltas stop (no sequence numbers are
//!   consumed), and the next commit inside the cone after the subscriber
//!   drains sends one coalescing resync snapshot instead. Applying every
//!   batch as specified therefore always converges to the live result.
//! * Dropping the [`Watch`] (or the receiver disconnecting) unregisters
//!   the standing query; later commits pay nothing for it.
//!
//! Watches observe **committed** state only: registration evaluates
//! against the session's current committed database — never a
//! transaction's staged candidate (see [`crate::Transaction::watch`]) —
//! and deltas are computed after a commit installs. Direct
//! [`crate::Session::db_mut`] edits bypass commits and therefore bypass
//! watch notification, exactly as they bypass the WAL.

use crate::library::LibraryState;
use crate::prepared::{Params, Prepared};
use crate::session::Session;
use rel_core::{Name, RelResult, Relation};
use std::collections::BTreeSet;
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Default bound of a watch's delivery buffer, in batches
/// (`REL_WATCH_BUFFER` overrides process-wide,
/// [`crate::EngineConfig::watch_buffer`] per session).
pub const DEFAULT_WATCH_BUFFER: usize = 64;

/// One pushed batch of standing-query output changes.
#[derive(Clone, Debug)]
pub struct WatchDelta {
    /// Per-watch sequence number; delivered batches are gapless from 0.
    pub seq: u64,
    /// When set, `added` is the **full current result** and the
    /// subscriber's state must be replaced, not merged: sent as the
    /// initial batch at registration (seq 0) and as the coalescing
    /// resync after the subscriber lagged.
    pub snapshot: bool,
    /// Output rows that entered the result (for a snapshot: all of it).
    pub added: Relation,
    /// Output rows that left the result (empty for a snapshot).
    pub removed: Relation,
}

impl WatchDelta {
    /// Apply this batch to a subscriber-side mirror of the result,
    /// following the delivery contract (snapshot replaces; delta merges).
    pub fn apply_to(&self, state: &Relation) -> Relation {
        if self.snapshot {
            return self.added.clone();
        }
        state.minus(&self.removed).union(&self.added)
    }

    /// Neither rows added nor removed (snapshots never count as empty).
    pub fn is_empty(&self) -> bool {
        !self.snapshot && self.added.is_empty() && self.removed.is_empty()
    }
}

/// One registered standing query, owned by the session's registry.
struct WatchEntry {
    id: u64,
    prepared: Prepared,
    params: Params,
    /// The last result successfully delivered (the subscriber's view).
    last: Relation,
    /// Sequence number the *next* delivered batch will carry.
    seq: u64,
    /// Delivery buffer full (or an evaluation failed): the next
    /// deliverable batch is a resync snapshot, not a delta.
    lagged: bool,
    tx: SyncSender<WatchDelta>,
}

/// The session's set of standing queries. Shared with every [`Watch`]
/// handle (so dropping a handle can unregister itself), but **not**
/// across session clones: a clone's database diverges immediately, and a
/// watch must only ever be fed deltas from the one database it was
/// registered against.
#[derive(Clone, Default)]
pub(crate) struct WatchRegistry {
    inner: Arc<Mutex<Watches>>,
}

#[derive(Default)]
struct Watches {
    next_id: u64,
    entries: Vec<WatchEntry>,
}

impl std::fmt::Debug for WatchRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.inner.lock().unwrap_or_else(PoisonError::into_inner).entries.len();
        f.debug_struct("WatchRegistry").field("watches", &n).finish()
    }
}

impl WatchRegistry {
    /// Number of live standing queries.
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).entries.len()
    }
}

/// A live standing query: the receiving end of the delta channel plus
/// the registration, which is cleanly removed on drop.
pub struct Watch {
    id: u64,
    rx: Receiver<WatchDelta>,
    registry: WatchRegistry,
}

impl Watch {
    /// The watch's id, unique within its session.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Block until the next batch. `None` once the session side is gone
    /// (the session was dropped) and the buffer is drained.
    pub fn recv(&self) -> Option<WatchDelta> {
        self.rx.recv().ok()
    }

    /// The next batch if one is already buffered, without blocking.
    pub fn try_recv(&self) -> Option<WatchDelta> {
        self.rx.try_recv().ok()
    }

    /// Block up to `timeout` for the next batch.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<WatchDelta> {
        self.rx.recv_timeout(timeout).ok()
    }
}

impl Drop for Watch {
    fn drop(&mut self) {
        let mut set = self.registry.inner.lock().unwrap_or_else(PoisonError::into_inner);
        set.entries.retain(|e| e.id != self.id);
    }
}

impl std::fmt::Debug for Watch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Watch").field("id", &self.id).finish()
    }
}

/// Evaluate the query against the session's committed database and
/// register it. The initial snapshot (seq 0) is already buffered on the
/// returned handle; registration errors (unbound parameters, violated
/// constraints — the same errors [`Prepared::execute_with`] raises)
/// register nothing.
pub(crate) fn register(
    session: &Session,
    registry: &WatchRegistry,
    prepared: &Prepared,
    params: &Params,
) -> RelResult<Watch> {
    let (rels, _) = session.read(&prepared.compiled, &mut prepared.bind(params, session.db())?)?;
    let initial = rels.get("output").cloned().unwrap_or_default();
    let buffer = session.watch_buffer().max(1);
    let (tx, rx) = std::sync::mpsc::sync_channel(buffer);
    // Capacity ≥ 1 and the channel is empty: the snapshot always fits.
    tx.try_send(WatchDelta {
        seq: 0,
        snapshot: true,
        added: initial.clone(),
        removed: Relation::default(),
    })
    .expect("fresh bounded channel cannot be full");
    let mut set = registry.inner.lock().unwrap_or_else(PoisonError::into_inner);
    let id = set.next_id;
    set.next_id += 1;
    set.entries.push(WatchEntry {
        id,
        prepared: prepared.clone(),
        params: params.clone(),
        last: initial,
        seq: 1,
        lagged: false,
        tx,
    });
    Ok(Watch { id, rx, registry: registry.clone() })
}

/// Fan one committed transaction's effects out to every standing query.
/// Called by [`crate::Transaction::commit`] right after the candidate is
/// installed as the session database; `lib` is its library state and
/// `touched` the base relations the commit moved.
pub(crate) fn notify(
    registry: &WatchRegistry,
    session: &Session,
    lib: &LibraryState,
    touched: &BTreeSet<Name>,
) {
    let mut set = registry.inner.lock().unwrap_or_else(PoisonError::into_inner);
    if set.entries.is_empty() {
        return;
    }
    set.entries.retain_mut(|entry| {
        let compiled = &entry.prepared.compiled;
        if !entry.lagged && compiled.full.dependent_cone(touched).is_empty() {
            // The commit provably cannot reach this query's result: O(1)
            // skip. The cone is taken over the whole module, so a result
            // the library state answers (an `output` the library itself
            // defines) is reached like any other. (`dependent_cone`
            // returns every stratum when it cannot prove independence,
            // which routes through re-evaluation.)
            return true;
        }
        // Re-evaluate through the session's incremental cache: only the
        // query's own strata downstream of what moved are re-derived (the
        // module's captured fixpoint does the bookkeeping).
        let new = match entry
            .prepared
            .bind(&entry.params, session.db())
            .and_then(|mut db| session.evaluate(compiled, &mut db, lib))
        {
            Ok((rels, _)) => rels.get("output").cloned().unwrap_or_default(),
            // Evaluation failure (e.g. resource pressure) must not lose
            // the subscriber silently — force a resync on the next commit.
            Err(_) => {
                entry.lagged = true;
                return true;
            }
        };
        let delta = if entry.lagged {
            WatchDelta {
                seq: entry.seq,
                snapshot: true,
                added: new.clone(),
                removed: Relation::default(),
            }
        } else {
            let added = new.minus(&entry.last);
            let removed = entry.last.minus(&new);
            if added.is_empty() && removed.is_empty() {
                // In-cone but the output didn't move (e.g. the commit
                // changed rows the projection collapses): nothing to say,
                // but remember the evaluation.
                entry.last = new;
                return true;
            }
            WatchDelta { seq: entry.seq, snapshot: false, added, removed }
        };
        match entry.tx.try_send(delta) {
            Ok(()) => {
                entry.seq += 1;
                entry.lagged = false;
                entry.last = new;
                true
            }
            // Buffer full: the subscriber is lagging. Drop this batch
            // without consuming its sequence number; once the subscriber
            // drains, the next in-cone commit coalesces everything missed
            // into one snapshot carrying this same `seq` — delivered
            // numbering stays gapless.
            Err(TrySendError::Full(_)) => {
                entry.lagged = true;
                true
            }
            // Receiver dropped without the handle's Drop having run yet
            // (e.g. mem::forget): unregister now.
            Err(TrySendError::Disconnected(_)) => false,
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rel_core::{tuple, Database};

    fn tc_session() -> Session {
        let mut db = Database::new();
        db.insert("E", tuple![1, 2]);
        db.insert("E", tuple![2, 3]);
        Session::new(db)
    }

    const TC: &str = "def TC(x,y) : E(x,y)\n\
                      def TC(x,y) : exists((z) | E(x,z) and TC(z,y))\n\
                      def output(x,y) : TC(x,y)";

    #[test]
    fn watch_delivers_initial_snapshot_then_deltas() {
        let mut s = tc_session();
        let q = s.prepare(TC).unwrap();
        let w = s.watch(&q, &Params::new()).unwrap();
        let first = w.try_recv().unwrap();
        assert_eq!(first.seq, 0);
        assert!(first.snapshot);
        assert_eq!(first.added.len(), 3); // (1,2) (2,3) (1,3)
        // A commit extending the chain pushes exactly the new TC pairs.
        s.transact("def insert(:E, x, y) : x = 3 and y = 4").unwrap();
        let d = w.try_recv().unwrap();
        assert_eq!(d.seq, 1);
        assert!(!d.snapshot);
        assert_eq!(d.added.len(), 3); // (3,4) (2,4) (1,4)
        assert!(d.removed.is_empty());
        // Deletions surface as removed rows.
        s.transact("def delete(:E, x, y) : x = 3 and y = 4").unwrap();
        let d = w.try_recv().unwrap();
        assert_eq!(d.seq, 2);
        assert_eq!(d.removed.len(), 3);
        assert!(d.added.is_empty());
    }

    #[test]
    fn watch_out_of_cone_commit_is_noop() {
        let mut s = tc_session();
        let q = s.prepare(TC).unwrap();
        let w = s.watch(&q, &Params::new()).unwrap();
        w.try_recv().unwrap();
        // `Unrelated` is outside TC's cone: nothing may be pushed, and
        // nothing may be evaluated (the fixpoint cache entry must be
        // byte-identically reused on the next real delta).
        s.transact("def insert(:Unrelated, x) : x = 1").unwrap();
        assert!(w.try_recv().is_none());
        s.transact("def insert(:E, x, y) : x = 0 and y = 1").unwrap();
        let d = w.try_recv().unwrap();
        assert_eq!(d.seq, 1, "skipped commits must not consume sequence numbers");
        assert_eq!(d.added.len(), 3); // (0,1) (0,2) (0,3)
    }

    #[test]
    fn watch_on_an_output_the_library_defines_gets_deltas() {
        // The query adds nothing of its own: `output` is the library
        // state's relation, and a commit that moves it must still push.
        for library in ["def output(x,y) : E(x,y)", TC] {
            let mut s = tc_session().with_library(library);
            let q = s.prepare("").unwrap();
            let w = s.watch(&q, &Params::new()).unwrap();
            let mut mirror = w.try_recv().unwrap().apply_to(&Relation::default());
            let mut txn = s.begin();
            txn.stage_insert("E", tuple![3, 4]);
            txn.commit().unwrap();
            let d = w.try_recv().expect("the commit moved the library's output");
            assert_eq!(d.seq, 1);
            mirror = d.apply_to(&mirror);
            assert_eq!(mirror, s.query("").unwrap());
            s.transact("def insert(:Unrelated, x) : x = 1").unwrap();
            assert!(w.try_recv().is_none());
        }
    }

    #[test]
    fn lagged_watch_coalesces_into_resync_snapshot() {
        let cfg = crate::EngineConfig::from_env().watch_buffer(1);
        let mut s = Session::with_config(tc_session().db().clone(), cfg);
        let q = s.prepare(TC).unwrap();
        let w = s.watch(&q, &Params::new()).unwrap();
        // Buffer of 1 holds the initial snapshot; the next commits all
        // find it full and coalesce.
        for x in 10..14 {
            s.transact(&format!("def insert(:E, x, y) : x = {x} and y = {}", x + 1))
                .unwrap();
        }
        let first = w.try_recv().unwrap();
        assert_eq!(first.seq, 0);
        let mut state = first.apply_to(&Relation::default());
        assert!(w.try_recv().is_none(), "lagged commits must have been dropped");
        // Drained now; the next commit resyncs with one snapshot equal to
        // a fresh query, at the next gapless sequence number.
        s.transact("def insert(:E, x, y) : x = 20 and y = 21").unwrap();
        let resync = w.try_recv().unwrap();
        assert_eq!(resync.seq, 1);
        assert!(resync.snapshot);
        state = resync.apply_to(&state);
        let fresh = q.execute(&s).unwrap();
        assert_eq!(state, fresh);
    }

    #[test]
    fn dropped_watch_unregisters() {
        let mut s = tc_session();
        let q = s.prepare(TC).unwrap();
        let w = s.watch(&q, &Params::new()).unwrap();
        assert_eq!(s.watch_count(), 1);
        drop(w);
        assert_eq!(s.watch_count(), 0);
        // And commits after the drop find no registry work at all.
        s.transact("def insert(:E, x, y) : x = 3 and y = 4").unwrap();
    }

    #[test]
    fn parameterized_watch_filters_deltas() {
        let mut s = Session::new(Database::new());
        s.db_mut().insert("Price", tuple!["a", 5]);
        s.db_mut().insert("Price", tuple!["b", 50]);
        let q = s
            .prepare("def output(x, y) : Price(x, y) and y > ?min")
            .unwrap();
        let w = s.watch(&q, &Params::new().set("min", 10)).unwrap();
        assert_eq!(w.try_recv().unwrap().added.len(), 1);
        s.transact("def insert(:Price, x, y) : x = \"c\" and y = 7").unwrap();
        assert!(w.try_recv().is_none(), "below-threshold row must not push");
        s.transact("def insert(:Price, x, y) : x = \"d\" and y = 70").unwrap();
        let d = w.try_recv().unwrap();
        assert_eq!(d.added.rows::<(String, i64)>().unwrap(), vec![("d".to_string(), 70)]);
    }

    #[test]
    fn watch_errors_register_nothing() {
        let s = tc_session();
        let q = s.prepare("def output(x) : E(x, ?min)").unwrap();
        assert!(s.watch(&q, &Params::new()).is_err());
        assert_eq!(s.watch_count(), 0);
    }
}
