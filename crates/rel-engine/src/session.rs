//! Sessions and transactions (§3.4–3.5 of the paper).
//!
//! A [`Session`] owns a [`Database`] plus installed library source (the
//! standard library and any user libraries). The library's derived
//! relations and constraints are part of the database: the session keeps
//! one maintained *library state* next to `db` (see [`crate::library`]).
//! Executing a query is a *transaction*: the program (library + query) is
//! compiled, its own strata are materialized on top of the library state;
//! the control relations `output`, `insert` and `delete` steer the
//! result; integrity constraints are checked against the post-state and
//! abort the transaction when violated.
//!
//! Compilation is cached (client API v2): the library prefix is parsed
//! once per revision, and every compiled `library + query` module is
//! memoized by source in the session's module cache — re-running a query
//! string, or executing a [`Prepared`] handle any number of times, never
//! recompiles. See [`crate::prepared`] and [`crate::txn`] for the
//! prepared-query and explicit-transaction halves of the API.

use crate::config::EngineConfig;
use crate::durability::{self, DurableStore};
use crate::env::Env;
use crate::eval::{EvalCtx, SharedIndexCache};
use crate::incremental::{self, PreState};
use crate::library::{self, Compiled, LibraryState};
use crate::lru::LruMap;
use crate::metrics;
use crate::prepared::{Params, Prepared};
use crate::profile::{FixpointOutcome, ProfileSink, QueryProfile};
use crate::recovery;
use crate::txn::Transaction;
use crate::watch::{self, Watch, WatchRegistry};
use rel_core::database::Delta;
use rel_core::{Database, Name, RelError, RelResult, Relation, Tuple, Value};
use rel_sema::ir::{ConstraintIr, Module, Rule};
use rel_syntax::Program;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Compiled modules cached per session, keyed by query source. Bounded so
/// a server feeding unbounded ad-hoc query strings through one session
/// cannot grow the cache without limit; at capacity the *least recently
/// used* entry is evicted (hot query shapes stay compiled).
const MODULE_CACHE_CAP: usize = 512;

/// Captured fixpoints cached per session for incremental re-evaluation,
/// keyed by compiled-module identity. Each entry holds CoW handles into
/// (mostly) the live database, so the bound is about map bookkeeping, not
/// tuple storage.
const FIXPOINT_CACHE_CAP: usize = 32;

type ModuleCache = LruMap<String, Arc<Compiled>>;

/// The session's caches are valid at every step of an update, so a lock
/// poisoned by a panicking reader or writer is simply taken.
fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// Key: the module's `Arc` address. The entry keeps the `Arc` alive, so
/// the address cannot be recycled by a different allocation while the
/// entry exists; the stored handle is still pointer-compared on lookup,
/// making a stale hit impossible by construction.
type FixpointCache = LruMap<usize, (Arc<Module>, Arc<PreState>)>;

/// Result of a committed transaction.
#[derive(Clone, Debug, Default)]
pub struct TxnOutcome {
    /// Contents of the `output` control relation.
    pub output: Relation,
    /// Number of tuples inserted into base relations.
    pub inserted: usize,
    /// Number of tuples deleted from base relations.
    pub deleted: usize,
}

/// An interactive session: a database plus library code.
///
/// The session also owns a [`SharedIndexCache`]: sorted views (tries)
/// built while evaluating one query are keyed by relation generation, so
/// later queries and transactions over the same relation objects — base
/// or library — reuse them, and they go when those relations do.
///
/// # Threading model
///
/// `Session` is `Send + Sync` (asserted at compile time in this module's
/// tests): the CoW `Relation` storage is `Arc`-shared, the index cache is
/// `Arc<RwLock<…>>`, and the evaluator's interior state sits behind
/// locks. One session can therefore serve read-only [`Session::query`] /
/// [`Session::eval`] calls from many threads concurrently — each call
/// snapshots the database with O(1) CoW clones, and concurrent callers
/// share lazily built sorted views through the generation-keyed cache.
/// Mutation ([`Session::transact`], [`Session::db_mut`]) takes `&mut
/// self`, so Rust's borrow rules serialize writers; wrap the session in
/// your own `RwLock` for a mixed read/write multi-threaded server.
/// Internally, every materialize run additionally fans independent
/// strata out across worker threads (see [`crate::fixpoint`]).
///
/// # Durability
///
/// [`Session::open`] backs the session with a durable store directory:
/// committed transactions append their net base-relation delta to a
/// CRC-framed write-ahead log, a compaction policy folds the log into
/// snapshots, and reopening the directory recovers exactly the committed
/// history (see [`crate::wal`], [`crate::snapshot`],
/// [`crate::recovery`]). [`Session::new`] sessions — and *clones* of any
/// session — are ephemeral. The `REL_DURABILITY` / `REL_FSYNC` switches
/// are listed in the crate-level
/// [environment-variable table](crate#environment-variables).
#[derive(Debug)]
pub struct Session {
    pub(crate) db: Database,
    library: String,
    pub(crate) index_cache: SharedIndexCache,
    /// The installed library, parsed and compiled on its own
    /// (`compile("")`) once per library revision: compiling a query
    /// re-parses only the query's own text before analysis, and its module
    /// is split against the library's. Shared with clones, like the module
    /// cache whose entries refer to it.
    library_compiled: Arc<OnceLock<(Program, Arc<Module>)>>,
    /// The library state last derived for `db` (`None` until first
    /// needed). Validated by base generations, never trusted: a stale
    /// one — after [`Session::db_mut`] edits — is advanced on the next
    /// read. Commits install the transaction's candidate state together
    /// with its database; clones start from a copy of the handle.
    pub(crate) library_state: RwLock<Option<Arc<LibraryState>>>,
    /// Compiled modules keyed by query source, valid for the *current*
    /// library revision, with LRU eviction at capacity. Shared across
    /// clones of the session; [`Session::install_library`] swaps in a
    /// fresh cache (rather than clearing the shared one), so clones still
    /// on the old library keep their valid entries.
    module_cache: Arc<RwLock<ModuleCache>>,
    /// Captured fixpoints per compiled module, driving the incremental
    /// evaluation mode (see [`crate::incremental`]): a later evaluation of
    /// the same module re-derives only the dependent cone of the base
    /// relations whose generations moved. Safe to share across session
    /// clones and surviving aborted transactions, because entries are
    /// validated structurally against the database they are applied to —
    /// never trusted.
    fixpoint_cache: Arc<RwLock<FixpointCache>>,
    /// The durable store backing this session, if it was opened with
    /// [`Session::open`]. Behind a `Mutex` only so read-handle methods
    /// like [`Session::sync`] can take `&self`; commits already hold the
    /// session exclusively.
    durability: Option<Mutex<DurableStore>>,
    /// While set, [`Session::log_commit`] appends WAL records *without*
    /// applying the fsync policy; [`Session::end_commit_group`] closes
    /// the window with one sync covering every commit inside it. Atomic
    /// only because `log_commit` takes `&self`; the begin/end methods
    /// take `&mut self`, so a window is always owned by a single writer.
    group_commit: AtomicBool,
    /// Standing queries registered on this session ([`Session::watch`],
    /// fed by every [`Transaction::commit`]). **Not** shared with clones:
    /// a clone's database diverges immediately, and a watch must only
    /// ever receive deltas from the database it was registered against.
    watches: WatchRegistry,
    /// Delivery-buffer bound, in batches, for watches registered through
    /// this session ([`EngineConfig::watch_buffer`]).
    watch_buffer: usize,
}

impl Default for Session {
    fn default() -> Self {
        Session::new(Database::new())
    }
}

impl Clone for Session {
    /// Clones are **ephemeral read replicas**: they share the caches and
    /// see the database as of the clone, but never the durable store —
    /// two writers interleaving appends in one WAL would corrupt its
    /// commit sequence. Commits made through a clone stay in memory.
    fn clone(&self) -> Self {
        Session {
            db: self.db.clone(),
            library: self.library.clone(),
            index_cache: self.index_cache.clone(),
            library_compiled: Arc::clone(&self.library_compiled),
            library_state: RwLock::new(self.stored_library_state()),
            module_cache: Arc::clone(&self.module_cache),
            fixpoint_cache: Arc::clone(&self.fixpoint_cache),
            durability: None,
            group_commit: AtomicBool::new(false),
            watches: WatchRegistry::default(),
            watch_buffer: self.watch_buffer,
        }
    }
}

impl Session {
    /// A session over a database, with no library installed, configured
    /// by [`EngineConfig::from_env`]. Leaves the process-wide switches as
    /// they are.
    pub fn new(db: Database) -> Self {
        Session::configured(db, EngineConfig::from_env())
    }

    /// A session over `db` with an explicit [`EngineConfig`] applied; a
    /// session's switches are fixed at construction. The process-wide
    /// one (metrics) is written only when `cfg` asks for a different
    /// value than the current one. Ephemeral — the config's
    /// durability field is only consulted by [`Session::open_with`].
    pub fn with_config(db: Database, cfg: EngineConfig) -> Session {
        cfg.apply_process_wide();
        Session::configured(db, cfg)
    }

    fn configured(db: Database, cfg: EngineConfig) -> Session {
        Session {
            db,
            library: String::new(),
            index_cache: SharedIndexCache::default(),
            library_compiled: Arc::default(),
            library_state: RwLock::new(None),
            module_cache: Arc::new(RwLock::new(LruMap::new(MODULE_CACHE_CAP))),
            fixpoint_cache: Arc::new(RwLock::new(LruMap::new(FIXPOINT_CACHE_CAP))),
            durability: None,
            group_commit: AtomicBool::new(false),
            watches: WatchRegistry::default(),
            watch_buffer: cfg.watch_buffer.max(1),
        }
    }

    /// Open (or create) a **durable** session backed by the store
    /// directory at `path`, configured by [`EngineConfig::from_env`]
    /// (fsync policy from `REL_FSYNC`). See [`Session::open_with`].
    pub fn open(path: impl AsRef<Path>) -> RelResult<Session> {
        Session::open_with(path, EngineConfig::from_env())
    }

    /// Open (or create) a durable session with an explicit
    /// [`EngineConfig`]; its `durability` field tunes the store.
    ///
    /// Recovery loads the newest valid snapshot and replays the WAL tail
    /// on top of it; the resulting database is **byte-identical to a
    /// prefix of the committed history** (all of it, after a clean
    /// shutdown). A torn final WAL record — a crash point — is recovered
    /// past with a warning; *mid-log* corruption is a hard
    /// [`RelError::Corrupt`] with the damaged byte offset.
    ///
    /// The session **degrades gracefully** instead of failing when the
    /// environment, not the data, is the problem:
    ///
    /// * `REL_DURABILITY=0/off/false/no` — returns a plain ephemeral
    ///   session without touching disk;
    /// * the directory cannot be created or read — returns an empty
    ///   ephemeral session with a one-time warning on stderr;
    /// * the store recovers but cannot be opened for appending (e.g. a
    ///   read-only volume) — returns an ephemeral session *seeded with
    ///   the recovered database*, with a one-time warning.
    ///
    /// No library is installed; compose with [`Session::with_library`].
    ///
    /// Note that [`Session::db_mut`] bypasses the WAL: direct mutations
    /// become durable only when the next compaction snapshots the full
    /// database. Transactions are the durable write path.
    pub fn open_with(path: impl AsRef<Path>, cfg: EngineConfig) -> RelResult<Session> {
        let dir = path.as_ref();
        if !crate::config::env().durable {
            return Ok(Session::with_config(Database::new(), cfg));
        }
        if let Err(e) = std::fs::create_dir_all(dir) {
            durability::warn_degraded(&format!(
                "cannot create durable store at {} ({e}); continuing ephemeral — \
                 commits will NOT be persisted",
                dir.display()
            ));
            return Ok(Session::with_config(Database::new(), cfg));
        }
        let rec = match recovery::recover(dir) {
            Ok(rec) => rec,
            Err(e @ RelError::Corrupt(_)) => return Err(e),
            Err(e) => {
                durability::warn_degraded(&format!(
                    "cannot read durable store at {} ({e}); continuing ephemeral — \
                     commits will NOT be persisted",
                    dir.display()
                ));
                return Ok(Session::with_config(Database::new(), cfg));
            }
        };
        for w in &rec.warnings {
            eprintln!("rel durability warning: {w}");
        }
        match DurableStore::attach(dir, cfg.durability, &rec) {
            Ok(store) => {
                let mut session = Session::with_config(rec.db, cfg);
                session.durability = Some(Mutex::new(store));
                // A previous run may have crashed past the compaction
                // triggers; fold the replayed backlog down right away.
                session.maybe_compact();
                Ok(session)
            }
            Err(e) => {
                durability::warn_degraded(&format!(
                    "cannot append to durable store at {} ({e}); serving the \
                     recovered database ephemerally — commits will NOT be persisted",
                    dir.display()
                ));
                Ok(Session::with_config(rec.db, cfg))
            }
        }
    }

    /// Is this session backed by a durable store?
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// The durable store directory, when [`Session::is_durable`].
    pub fn durability_path(&self) -> Option<PathBuf> {
        self.durability.as_ref().map(|s| {
            s.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .dir()
                .to_path_buf()
        })
    }

    /// Flush every acknowledged commit to stable storage now, regardless
    /// of the fsync policy. No-op for ephemeral sessions.
    pub fn sync(&self) -> RelResult<()> {
        match &self.durability {
            Some(store) => store.lock().unwrap_or_else(PoisonError::into_inner).sync(),
            None => Ok(()),
        }
    }

    /// Compact now: snapshot the current database and truncate the WAL,
    /// without waiting for the configured triggers. Returns whether a
    /// durable store was actually compacted (`false` for ephemeral
    /// sessions).
    pub fn compact_now(&self) -> RelResult<bool> {
        match &self.durability {
            Some(store) => {
                store
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .compact(&self.db)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Append one committed transaction's net delta to the WAL. Called by
    /// [`Transaction::commit`] *after* constraint checks pass and before
    /// the candidate is installed: an `Err` aborts the commit with the
    /// session untouched, and an aborted/dropped transaction never
    /// reaches the log at all.
    pub(crate) fn log_commit(&self, delta: &Delta) -> RelResult<()> {
        if let Some(store) = &self.durability {
            let mut store = store.lock().unwrap_or_else(PoisonError::into_inner);
            if self.group_commit.load(Ordering::Relaxed) {
                store.append_commit_deferred(delta)?;
            } else {
                store.append_commit(delta)?;
            }
        }
        Ok(())
    }

    /// Open a **group-commit window**: until [`Session::end_commit_group`]
    /// closes it, every transaction commit appends its WAL record without
    /// syncing, and the close applies the fsync policy *once* over the
    /// whole group. This is how a commit queue coalesces N concurrent
    /// commits into one `fdatasync` — under [`FsyncPolicy::Always`] the
    /// ungrouped path pays one sync per commit.
    ///
    /// Contract: commits made inside the window must not be acknowledged
    /// to clients until `end_commit_group` returns `Ok` — a crash before
    /// the group sync may lose a suffix of them (recovery still lands on
    /// a clean prefix of the appended history; the WAL framing and
    /// torn-tail scan are unchanged). No-op for ephemeral sessions.
    ///
    /// [`FsyncPolicy::Always`]: crate::durability::FsyncPolicy::Always
    pub fn begin_commit_group(&mut self) {
        self.group_commit.store(true, Ordering::Relaxed);
    }

    /// Close the group-commit window opened by
    /// [`Session::begin_commit_group`] and apply the fsync policy once
    /// over every commit inside it. Returns how many commits the sync
    /// covered (`0` for ephemeral sessions, under `FsyncPolicy::Off`, or
    /// under `Batch` while the running batch is still short). On `Err`
    /// the group's durability is unknown and none of its commits may be
    /// acknowledged.
    pub fn end_commit_group(&mut self) -> RelResult<u64> {
        self.group_commit.store(false, Ordering::Relaxed);
        match &self.durability {
            Some(store) => {
                store.lock().unwrap_or_else(PoisonError::into_inner).flush_group()
            }
            None => Ok(0),
        }
    }

    /// Is a group-commit window currently open?
    pub fn in_commit_group(&self) -> bool {
        self.group_commit.load(Ordering::Relaxed)
    }

    /// Run compaction if either trigger (commit count / log size) fired.
    /// Compaction failure is a warning, not an error: the commits are
    /// safe in the WAL, and the next commit retries.
    pub(crate) fn maybe_compact(&self) {
        let Some(store) = &self.durability else { return };
        let mut store = store.lock().unwrap_or_else(PoisonError::into_inner);
        if store.should_compact() {
            if let Err(e) = store.compact(&self.db) {
                eprintln!(
                    "rel durability warning: compaction failed (the WAL still \
                     holds every commit; will retry): {e}"
                );
            }
        }
    }

    /// Append library source (e.g. the standard library) that is compiled
    /// in front of every query. Invalidates this session's cached library
    /// parse and compiled modules (clones sharing the old cache keep
    /// theirs — they still compile against the old library).
    pub fn install_library(&mut self, src: &str) {
        self.library.push_str(src);
        self.library.push('\n');
        self.library_compiled = Arc::default();
        self.library_state = RwLock::new(None);
        self.module_cache = Arc::new(RwLock::new(LruMap::new(MODULE_CACHE_CAP)));
        // The old library's compiled modules can never be looked up again
        // through this session, so their captured fixpoints would only
        // pin retired modules and pre-change relation state — swap the
        // cache out with the module cache (clones on the old library keep
        // both of theirs).
        self.fixpoint_cache = Arc::new(RwLock::new(LruMap::new(FIXPOINT_CACHE_CAP)));
    }

    /// Is the process-wide hot-path metrics switch on?
    pub fn metrics_enabled(&self) -> bool {
        metrics::enabled()
    }

    /// Register a **standing query**: evaluate `prepared` (with `params`
    /// bound) against the current committed database and return a
    /// [`Watch`] whose channel already holds the initial snapshot batch;
    /// after every later [`Transaction::commit`] that can affect the
    /// result, the exact added/removed output rows are pushed as a
    /// [`crate::WatchDelta`]. Commits outside the query's dependent cone
    /// are skipped without evaluating anything. See [`crate::watch`] for
    /// the full delivery/ordering contract.
    pub fn watch(&self, prepared: &Prepared, params: &Params) -> RelResult<Watch> {
        watch::register(self, &self.watches, prepared, params)
    }

    /// Number of live standing queries on this session.
    pub fn watch_count(&self) -> usize {
        self.watches.len()
    }

    /// The delivery-buffer bound new watches will be registered with.
    pub fn watch_buffer(&self) -> usize {
        self.watch_buffer
    }

    /// Fan a committed transaction's effects out to every standing query
    /// (called by [`Transaction::commit`] right after the candidate
    /// database is installed).
    pub(crate) fn notify_watches(&self, lib: &LibraryState, touched: &BTreeSet<Name>) {
        watch::notify(&self.watches, self, lib, touched);
    }

    /// Builder-style library installation.
    pub fn with_library(mut self, src: &str) -> Self {
        self.install_library(src);
        self
    }

    /// The current database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Mutable database access (e.g. for loading data).
    pub fn db_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// The installed library, parsed and compiled on its own (at most
    /// once per library revision; no library, no analysis).
    fn library_compiled(&self) -> RelResult<&(Program, Arc<Module>)> {
        if self.library_compiled.get().is_none() {
            let program = rel_syntax::parse_program(&self.library)?;
            let module = match self.library.is_empty() {
                true => Module::default(),
                false => rel_sema::analyze(&program)?,
            };
            // Two racing threads both compile; `set` keeps one.
            let _ = self.library_compiled.set((program, Arc::new(module)));
        }
        Ok(self.library_compiled.get().expect("set above"))
    }

    pub(crate) fn stored_library_state(&self) -> Option<Arc<LibraryState>> {
        read(&self.library_state).clone()
    }

    /// The library state for `db`, advanced from `prev` (see
    /// [`LibraryState::advance`]).
    pub(crate) fn advance_library(
        &self,
        prev: Option<&Arc<LibraryState>>,
        db: &Database,
    ) -> RelResult<Arc<LibraryState>> {
        let (_, library) = self.library_compiled()?;
        LibraryState::advance(prev, library, db, &self.index_cache)
    }

    /// The library state of the session's own database, brought up to
    /// date (and kept) if the database moved since it was derived.
    pub(crate) fn library_state(&self) -> RelResult<Arc<LibraryState>> {
        let prev = self.stored_library_state();
        let lib = self.advance_library(prev.as_ref(), &self.db)?;
        if !prev.is_some_and(|p| Arc::ptr_eq(&p, &lib)) {
            *write(&self.library_state) = Some(Arc::clone(&lib));
        }
        Ok(lib)
    }

    /// Compile a query against the installed library, through the
    /// session's module cache: the same source string is analyzed at most
    /// once per library revision (and the library prefix is *parsed* at
    /// most once per revision). The cache-hit path is allocation-free.
    /// The returned handle is shared — cloning it is free.
    pub fn compile(&self, src: &str) -> RelResult<Arc<Module>> {
        self.compiled(src).map(|c| Arc::clone(&c.full))
    }

    /// [`Session::compile`], keeping the split against the library.
    pub(crate) fn compiled(&self, src: &str) -> RelResult<Arc<Compiled>> {
        if let Some(m) = read(&self.module_cache).get(src) {
            if metrics::enabled() {
                metrics::registry().module_cache_hits.incr();
            }
            return Ok(m);
        }
        if metrics::enabled() {
            metrics::registry().module_cache_misses.incr();
        }
        let (library_program, library) = self.library_compiled()?;
        let mut program = library_program.clone();
        program.extend(rel_syntax::parse_program(src)?);
        let compiled = Arc::new(library::split(rel_sema::analyze(&program)?, Arc::clone(library)));
        write(&self.module_cache).insert(src.to_string(), Arc::clone(&compiled));
        Ok(compiled)
    }

    /// Evaluate a compiled query over `db` (a snapshot of the base
    /// database plus any bound `?param` relations) on top of `lib`, the
    /// library state of that base database: the library predicates the
    /// query reads are put into `db` from `lib`, and only the query's own
    /// strata are materialized — through the incremental machinery: when a
    /// fixpoint of the module was captured before, only the dependent cone
    /// of the inputs whose generations moved is re-derived, and an
    /// unchanged `db` costs O(#relations) pointer bumps. The fresh state is captured for the next call. Results are
    /// byte-identical to a full [`crate::fixpoint::materialize`] run; the
    /// second component says *how* the evaluation was served — the
    /// fixpoint line of a [`QueryProfile`].
    pub(crate) fn evaluate(
        &self,
        compiled: &Compiled,
        db: &mut Database,
        lib: &LibraryState,
    ) -> RelResult<(BTreeMap<Name, Relation>, FixpointOutcome)> {
        let (module, shared) = compiled.over(lib);
        lib.overlay(shared, db);
        // A pure reuse — nothing moved since capture — needs no re-capture
        // and (the hot concurrent path) no write lock.
        let key = Arc::as_ptr(module) as usize;
        let cached = read(&self.fixpoint_cache).get(&key);
        let pre = cached.and_then(|(m, pre)| Arc::ptr_eq(&m, module).then_some(pre));
        let (rels, outcome) = incremental::advance(module, pre.as_deref(), db, &self.index_cache)?;
        let reused = outcome == FixpointOutcome::CacheReuse;
        if metrics::enabled() {
            let r = metrics::registry();
            if reused { r.fixpoint_cache_hits.incr() } else { r.fixpoint_cache_misses.incr() }
        }
        if !reused {
            let pre = Arc::new(PreState::capture(db, &rels));
            write(&self.fixpoint_cache).insert(key, (Arc::clone(module), pre));
        }
        Ok((rels, outcome))
    }

    /// A read against the session's own database: [`Session::evaluate`]
    /// over its library state, then the library's constraint verdict and
    /// the constraints the query itself declares.
    pub(crate) fn read(
        &self,
        compiled: &Compiled,
        db: &mut Database,
    ) -> RelResult<(BTreeMap<Name, Relation>, FixpointOutcome)> {
        let lib = self.library_state()?;
        let (rels, outcome) = self.evaluate(compiled, db, &lib)?;
        lib.verdict.clone()?;
        let (own, _) = compiled.over(&lib);
        check_constraints(own, &own.constraints, &rels, &self.index_cache)?;
        Ok((rels, outcome))
    }

    /// [`Session::compiled`] for a source that runs as it stands: its
    /// control relations materializable, no `?param` left to bind.
    pub(crate) fn compiled_query(&self, src: &str) -> RelResult<Arc<Compiled>> {
        let compiled = self.compiled(src)?;
        check_control_materializable(&compiled.full)?;
        require_no_params(&compiled.full)?;
        Ok(compiled)
    }

    /// Compile a query once into a [`Prepared`] handle that can be
    /// executed any number of times — against the session's *current*
    /// database snapshot each time, with `?name` parameters bound at
    /// execute time and **zero recompilation** (asserted by tests against
    /// the [`rel_sema::compilations`] counter):
    ///
    /// ```
    /// use rel_core::database::figure1_database;
    /// use rel_engine::{Params, Session};
    ///
    /// let s = Session::new(figure1_database());
    /// let q = s.prepare("def output(x) : ProductPrice(x, ?min)").unwrap();
    /// let cheap = q.execute_with(&s, &Params::new().set("min", 10)).unwrap();
    /// assert_eq!(cheap.rows::<String>().unwrap(), vec!["P1".to_string()]);
    /// ```
    pub fn prepare(&self, src: &str) -> RelResult<Prepared> {
        let compiled = self.compiled(src)?;
        check_control_materializable(&compiled.full)?;
        Ok(Prepared::new(compiled, src.to_string()))
    }

    /// Run a read-only query: returns the `output` relation. Integrity
    /// constraints in scope are checked; `insert`/`delete` rules are
    /// evaluated but **not** applied. Equivalent to
    /// `self.prepare(src)?.execute(self)` minus the reusable handle.
    pub fn query(&self, src: &str) -> RelResult<Relation> {
        // With a slow-query threshold armed, run under a profile sink so
        // a crossing logs *what the query did*, not just that it was slow.
        if metrics::slow_query_ms().is_some() {
            return self.query_profiled(src).map(|(out, _)| out);
        }
        let start = metrics::enabled().then(std::time::Instant::now);
        let compiled = self.compiled_query(src)?;
        let (rels, _) = self.read(&compiled, &mut self.db.clone())?;
        if let Some(start) = start {
            metrics::registry().query_us.record(start.elapsed());
        }
        Ok(rels.get("output").cloned().unwrap_or_default())
    }

    /// [`Session::query`] under a profile sink: returns the `output`
    /// relation — byte-identical to an unprofiled run — together with a
    /// [`QueryProfile`] of what the engine did to produce it (per-stratum
    /// wall times and kernel choices, cache/reuse outcomes, incremental
    /// classification). Profiled runs evaluate strata sequentially so the
    /// per-stratum wall times are attributable; see
    /// [`crate::profile`] for how to read the result.
    pub fn query_profiled(&self, src: &str) -> RelResult<(Relation, QueryProfile)> {
        let start = std::time::Instant::now();
        let module_cache_hit = self.module_cached(src);
        let compiled = self.compiled_query(src)?;
        self.run_profiled(start, module_cache_hit, |s| {
            let (rels, outcome) = s.read(&compiled, &mut s.db.clone())?;
            Ok((rels.get("output").cloned().unwrap_or_default(), outcome))
        })
    }

    /// Shared profiled-evaluation harness ([`Session::query_profiled`],
    /// [`crate::Prepared::execute_profiled`]): run `eval` on a clone whose
    /// index-cache handle carries a fresh sink (it shares the tries and
    /// every other cache, but no other evaluation ticks the sink), and
    /// assemble the [`QueryProfile`] (recording query latency and the
    /// slow-query log on the way out).
    pub(crate) fn run_profiled<T>(
        &self,
        start: std::time::Instant,
        module_cache_hit: bool,
        eval: impl FnOnce(&Session) -> RelResult<(T, FixpointOutcome)>,
    ) -> RelResult<(T, QueryProfile)> {
        let sink = Arc::new(ProfileSink::new());
        let mut profiled = self.clone();
        profiled.index_cache = self.index_cache.profiled(Arc::clone(&sink));
        let result = eval(&profiled);
        // Keep the library state the read advanced, as an unprofiled read does.
        *write(&self.library_state) = profiled.stored_library_state();
        let (value, fixpoint) = result?;
        let profile = QueryProfile {
            wall: start.elapsed(),
            module_cache_hit,
            fixpoint,
            strata: sink.take_strata(),
        };
        if metrics::enabled() {
            metrics::registry().query_us.record(profile.wall);
        }
        if let Some(ms) = metrics::slow_query_ms() {
            if profile.wall.as_millis() as u64 >= ms {
                metrics::registry().slow_queries.incr();
                eprintln!(
                    "rel slow query (>= {ms}ms threshold):\n{}",
                    profile.render()
                );
            }
        }
        Ok((value, profile))
    }

    /// Was this query source already compiled into the session's module
    /// cache? (Profile plumbing for the prepared API.)
    pub(crate) fn module_cached(&self, src: &str) -> bool {
        read(&self.module_cache).get(src).is_some()
    }

    /// Evaluate a query and return an arbitrary derived relation (useful
    /// for tests and tooling). Demand-driven relations cannot be fetched
    /// whole.
    pub fn eval(&self, src: &str, relation: &str) -> RelResult<Relation> {
        let compiled = self.compiled(src)?;
        require_no_params(&compiled.full)?;
        let (rels, _) = self.evaluate(&compiled, &mut self.db.clone(), &*self.library_state()?)?;
        Ok(rels.get(relation).cloned().unwrap_or_default())
    }

    /// Open an explicit transaction over an O(1) copy-on-write snapshot
    /// of the current database. Staged steps ([`Transaction::run`],
    /// [`Transaction::run_prepared`], [`Transaction::stage_insert`],
    /// [`Transaction::stage_delete`]) see each other's effects; integrity
    /// constraints are checked on [`Transaction::commit`], and
    /// [`Transaction::abort`] (or a plain drop) discards everything at
    /// zero cost.
    pub fn begin(&mut self) -> Transaction<'_> {
        Transaction::begin(self)
    }

    /// Execute a one-shot transaction: evaluate, build the delta from the
    /// `insert` and `delete` control relations, check integrity
    /// constraints against the post-state, and commit (or abort, leaving
    /// the database untouched). A thin wrapper over
    /// [`Session::begin`] → [`Transaction::run`] → [`Transaction::commit`].
    pub fn transact(&mut self, src: &str) -> RelResult<TxnOutcome> {
        let mut txn = self.begin();
        txn.run(src)?;
        txn.commit()
    }
}

/// A module whose `?name` parameters are unbound can only run through the
/// prepared-query API, which supplies the reserved relations.
fn require_no_params(module: &Module) -> RelResult<()> {
    if let Some(p) = module.params.first() {
        return Err(RelError::unsafe_expr(format!(
            "query references parameter `?{p}`: prepare it and bind values \
             via `Prepared::execute_with`"
        )));
    }
    Ok(())
}

/// Control relations must be fully materializable: a demand-driven
/// `output` would silently evaluate to nothing.
fn check_control_materializable(module: &Module) -> RelResult<()> {
    for control in ["output", "insert", "delete"] {
        if let Some(info) = module.pred_info.get(control) {
            if let rel_sema::ir::EvalMode::Demand { bound_prefix } = info.mode {
                return Err(RelError::unsafe_expr(format!(
                    "`{control}` is not materializable: its first {bound_prefix} \
                     argument(s) would need to be bound externally — some rule \
                     cannot ground them"
                )));
            }
        }
    }
    Ok(())
}

/// Build a [`Delta`] from the `insert`/`delete` control relations: each
/// tuple is `⟨:RelName, v₁, …, vₙ⟩` (§3.4).
pub(crate) fn extract_delta(rels: &BTreeMap<Name, Relation>) -> RelResult<Delta> {
    let mut delta = Delta::default();
    for (control, is_insert) in [("insert", true), ("delete", false)] {
        let Some(rel) = rels.get(control) else { continue };
        for t in rel.iter() {
            let Some(Value::Symbol(target)) = t.get(0) else {
                return Err(RelError::type_err(format!(
                    "`{control}` tuples must start with a :RelationName symbol, got {t}"
                )));
            };
            let rest = Tuple::from(t.values()[1..].to_vec());
            if is_insert {
                delta.insert(target.as_ref(), rest);
            } else {
                delta.delete(target.as_ref(), rest);
            }
        }
    }
    Ok(delta)
}

/// Evaluate the violation query of each of `constraints` (declared by
/// `module`) over `rels`, through the shared index cache; the first
/// non-empty one aborts.
pub fn check_constraints<'c>(
    module: &Module,
    constraints: impl IntoIterator<Item = &'c ConstraintIr>,
    rels: &BTreeMap<Name, Relation>,
    cache: &SharedIndexCache,
) -> RelResult<()> {
    let cx = EvalCtx::with_cache(module, rels, cache.clone());
    for c in constraints {
        let witnesses = eval_constraint(&cx, c)?;
        if !witnesses.is_empty() {
            let rendered: Vec<String> =
                witnesses.iter().take(5).map(|t| t.to_string()).collect();
            return Err(RelError::ConstraintViolation {
                name: c.name.to_string(),
                witnesses: format!("{{{}}}", rendered.join("; ")),
            });
        }
    }
    Ok(())
}

/// Evaluate one constraint's violation query as a synthetic rule.
pub fn eval_constraint(cx: &EvalCtx<'_>, c: &ConstraintIr) -> RelResult<Relation> {
    let rule = Rule {
        pred: c.name.clone(),
        params: c.params.clone(),
        body: c.body.clone(),
        vars: c.vars.clone(),
    };
    cx.eval_rule(&rule, Env::new(rule.vars.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durability::{DurabilityConfig, FsyncPolicy};
    use rel_core::database::figure1_database;
    use rel_core::tuple;

    fn session() -> Session {
        Session::new(figure1_database())
    }

    /// A durable-session configuration with the given store tuning.
    fn durable(cfg: DurabilityConfig) -> EngineConfig {
        EngineConfig::from_env().durability(cfg)
    }

    #[test]
    fn basic_query_output() {
        // §3.4: products whose price exceeds 30.
        let out = session()
            .query("def output(x) : exists( (y) | ProductPrice(x,y) and y > 30)")
            .unwrap();
        assert_eq!(out, Relation::from_tuples([tuple!["P4"]]));
    }

    #[test]
    fn order_with_payment() {
        // §3.1 — set semantics: "O1" appears once despite two payments.
        let out = session()
            .query("def output(y) : exists((x) | PaymentOrder(x,y))")
            .unwrap();
        assert_eq!(
            out,
            Relation::from_tuples([tuple!["O1"], tuple!["O2"], tuple!["O3"]])
        );
    }

    #[test]
    fn transact_insert_creates_relation() {
        let mut s = session();
        let outcome = s
            .transact("def insert(:ClosedOrders, x) : PaymentOrder(_, x)")
            .unwrap();
        assert_eq!(outcome.inserted, 3);
        assert_eq!(s.db().get("ClosedOrders").unwrap().len(), 3);
    }

    #[test]
    fn transact_delete() {
        let mut s = session();
        let outcome = s
            .transact("def delete(:ProductPrice, x, y) : ProductPrice(x, y) and y > 30")
            .unwrap();
        assert_eq!(outcome.deleted, 1);
        assert_eq!(s.db().get("ProductPrice").unwrap().len(), 3);
    }

    #[test]
    fn violated_constraint_aborts() {
        let mut s = session();
        let err = s
            .transact(
                "def insert(:OrderProductQuantity, x, y, z) : \
                   x = \"O9\" and y = \"P9\" and z = 1\n\
                 ic valid_products(p) requires \
                   OrderProductQuantity(_,p,_) implies ProductPrice(p,_)",
            )
            .unwrap_err();
        assert!(matches!(err, RelError::ConstraintViolation { .. }), "{err}");
        // Aborted: database unchanged.
        assert_eq!(s.db().get("OrderProductQuantity").unwrap().len(), 4);
    }

    #[test]
    fn satisfied_constraint_commits() {
        let mut s = session();
        s.transact(
            "def insert(:OrderProductQuantity, x, y, z) : \
               x = \"O9\" and y = \"P1\" and z = 1\n\
             ic valid_products(p) requires \
               OrderProductQuantity(_,p,_) implies ProductPrice(p,_)",
        )
        .unwrap();
        assert_eq!(s.db().get("OrderProductQuantity").unwrap().len(), 5);
    }

    #[test]
    fn boolean_constraint_checked() {
        let s = session();
        let err = s
            .query(
                "def output(x) : ProductPrice(x, _)\n\
                 ic impossible() requires ProductPrice(\"P1\", 11)",
            )
            .unwrap_err();
        assert!(matches!(err, RelError::ConstraintViolation { .. }), "{err}");
    }

    #[test]
    fn control_materializable_message_is_single_spaced() {
        // A demand-driven `output` (its argument can't be grounded
        // bottom-up) must be rejected with a readable message: exactly the
        // text below, no embedded runs of whitespace from the source
        // literal's line continuation.
        let err = session()
            .query("def output(x) : x > 3")
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "safety error: `output` is not materializable: its first 1 \
             argument(s) would need to be bound externally — some rule \
             cannot ground them"
        );
        assert!(!err.to_string().contains("  "), "double space in: {err}");
    }

    #[test]
    fn compile_is_cached_per_source() {
        // Cache hits are proven by pointer identity — a recompile could
        // never hand back the same allocation. (Exact compilation-counter
        // deltas are asserted in the isolated `prepared_compile_once`
        // integration binary; the counter is process-global, so sibling
        // tests in this binary would race an exact assertion here.)
        let s = session();
        let m1 = s.compile("def output(x) : ProductPrice(x, _)").unwrap();
        let m2 = s.compile("def output(x) : ProductPrice(x, _)").unwrap();
        assert!(Arc::ptr_eq(&m1, &m2), "same source must be served from the cache");
        // Different source: a different module.
        let m3 = s.compile("def output(x) : PaymentOrder(x, _)").unwrap();
        assert!(!Arc::ptr_eq(&m1, &m3));
        // A clone shares the cache.
        let c = s.clone();
        let m4 = c.compile("def output(x) : ProductPrice(x, _)").unwrap();
        assert!(Arc::ptr_eq(&m1, &m4));
    }

    #[test]
    fn install_library_invalidates_cached_parse() {
        let mut s = session();
        s.query("def output(x) : ProductPrice(x, _)").unwrap();
        s.install_library("def Cheap(x) : ProductPrice(x, 10)\n");
        let out = s.query("def output(x) : Cheap(x)").unwrap();
        assert_eq!(out, Relation::from_tuples([tuple!["P1"]]));
    }

    #[test]
    fn session_is_send_and_sync() {
        // Compile-time assertion: the evaluation core's interior state is
        // lock-based, so a session can be shared across threads.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Session>();
        assert_send_sync::<SharedIndexCache>();
        assert_send_sync::<EvalCtx<'static>>();
    }

    #[test]
    fn concurrent_queries_share_one_session() {
        // One session, many threads: every thread sees the same answer a
        // single-threaded query produces, and the shared index cache
        // survives the contention.
        let s = session();
        let expected = s
            .query("def output(x) : exists( (y) | ProductPrice(x,y) and y > 30)")
            .unwrap();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let s = &s;
                    scope.spawn(move || {
                        s.query(
                            "def output(x) : exists( (y) | ProductPrice(x,y) and y > 30)",
                        )
                        .unwrap()
                    })
                })
                .collect();
            for h in handles {
                assert_eq!(h.join().unwrap(), expected);
            }
        });
    }

    #[test]
    fn repeated_queries_reuse_the_captured_fixpoint() {
        // Same module, unchanged database: the second evaluation must
        // reuse the captured fixpoint by pointer (a recompute would build
        // fresh storage for the derived relation).
        let mut s = session();
        let src = "def Joined(x, o) : \
                   exists((p) | OrderProductQuantity(o, x, _) and ProductPrice(x, p))";
        let a = s.eval(src, "Joined").unwrap();
        let b = s.eval(src, "Joined").unwrap();
        assert!(!a.is_empty());
        assert!(
            b.shares_storage(&a),
            "unchanged snapshot must be served from the fixpoint cache"
        );
        // A mutation moves the touched relation's generation; the next
        // evaluation re-derives (fresh storage) with the new data.
        s.db_mut().insert("ProductPrice", tuple!["P9", 99]);
        s.db_mut().insert("OrderProductQuantity", tuple!["O9", "P9", 1]);
        let c = s.eval(src, "Joined").unwrap();
        assert!(!c.shares_storage(&a));
        assert_eq!(c.len(), a.len() + 1);
    }

    #[test]
    fn session_clones_cannot_poison_each_others_fixpoints() {
        // Clones share the fixpoint cache, but entries are validated by
        // base-relation generations — a clone whose database diverged
        // must never be served the other clone's state.
        let a = session();
        let src = "def output(x) : exists( (y) | ProductPrice(x,y) and y > 30)";
        let mut b = a.clone();
        assert_eq!(a.query(src).unwrap().len(), 1);
        b.db_mut().insert("ProductPrice", tuple!["P9", 99]);
        assert_eq!(b.query(src).unwrap().len(), 2, "clone must see its own data");
        assert_eq!(a.query(src).unwrap().len(), 1, "original must keep its answer");
    }

    #[test]
    fn commit_sheds_indexes_of_touched_relations() {
        let mut s = session();
        // Keyed on the second column — not a prefix, so a key-first
        // permutation is built and cached at the pre-commit generation (a
        // first-column lookup probes the sorted rows and caches nothing).
        s.query("def output(y) : ProductPrice(\"P1\", y)").unwrap();
        assert!(s.index_cache.generations_for("ProductPrice").is_empty());
        s.query("def output(x) : ProductPrice(x, 10)").unwrap();
        let old_gen = s.db().get("ProductPrice").unwrap().generation();
        let pre = s.index_cache.generations_for("ProductPrice");
        assert!(
            pre.contains(&old_gen),
            "expected an index built against the pre-commit generation, got {pre:?}"
        );
        // Commit a transaction that touches ProductPrice. The module here
        // never *reads* ProductPrice through an index; the commit's
        // library-state pass prunes the stale entry all the same.
        s.transact("def insert(:ProductPrice, x, y) : x = \"P9\" and y = 99")
            .unwrap();
        let post = s.index_cache.generations_for("ProductPrice");
        assert!(
            !post.contains(&old_gen),
            "a committed transaction must not retain an index built against \
             the pre-commit generation (left: {post:?})"
        );
        // And the next query sees the committed tuple.
        let out = s
            .query("def output(x) : exists( (y) | ProductPrice(x,y) and y > 30)")
            .unwrap();
        assert_eq!(out, Relation::from_tuples([tuple!["P4"], tuple!["P9"]]));
    }

    fn triangle_db() -> Database {
        let mut db = Database::new();
        for (a, b) in [(1, 2), (2, 3), (1, 3), (3, 4), (2, 4), (1, 4)] {
            db.insert("E", tuple![a, b]);
        }
        db
    }

    /// Every `(a, b, c)` with `E(a,b)`, `E(b,c)` and `E(a,c)`, by nested
    /// loops over the edge list.
    fn triangles_brute_force(db: &Database) -> Vec<Tuple> {
        let edges: Vec<&Tuple> = db.get("E").unwrap().iter().collect();
        let has = |a: &Value, c: &Value| edges.iter().any(|e| e[0] == *a && e[1] == *c);
        let mut out: Vec<Tuple> = Vec::new();
        for ab in &edges {
            for bc in edges.iter().filter(|bc| bc[0] == ab[1]) {
                if has(&ab[0], &bc[1]) {
                    out.push(tuple![ab[0].clone(), ab[1].clone(), bc[1].clone()]);
                }
            }
        }
        out.sort();
        out
    }

    #[test]
    fn triangle_query_routes_through_leapfrog_and_matches_brute_force() {
        let s = Session::new(triangle_db());
        let src = "def output(a,b,c) : E(a,b) and E(b,c) and E(a,c)";
        let (out, profile) = s.query_profiled(src).unwrap();
        assert!(profile.totals().wcoj_joins > 0, "a 3-atom cycle routes through leapfrog");
        assert_eq!(out.iter().cloned().collect::<Vec<_>>(), triangles_brute_force(s.db()));
    }

    #[test]
    fn a_clone_reuses_the_tries_its_original_built() {
        // The triangle join under two source texts: the second module
        // misses the fixpoint cache and joins again, over the tries the
        // first built through the shared cache.
        let a = Session::new(triangle_db());
        let b = a.clone();
        let (first, p) = a.query_profiled("def output(a,b,c) : E(a,b) and E(b,c) and E(a,c)").unwrap();
        assert!(p.totals().trie_builds > 0);
        let (second, q) = b.query_profiled("def output(x,y,z) : E(x,y) and E(y,z) and E(x,z)").unwrap();
        assert_eq!(first, second);
        assert_eq!(first.iter().cloned().collect::<Vec<_>>(), triangles_brute_force(a.db()));
        assert!(q.totals().wcoj_joins > 0);
        assert_eq!(q.totals().trie_builds, 0, "the clone reuses the original's tries");
        assert!(q.totals().trie_reuses > 0);
    }

    #[test]
    fn durable_session_roundtrips_commits() {
        let dir = std::env::temp_dir()
            .join(format!("rel-sess-dur-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = durable(DurabilityConfig { fsync: FsyncPolicy::Off, ..Default::default() });
        {
            let mut s = Session::open_with(&dir, cfg).unwrap();
            assert!(s.is_durable());
            assert_eq!(s.durability_path().as_deref(), Some(dir.as_path()));
            s.transact("def insert(:E, x, y) : x = 1 and y = 2").unwrap();
            s.transact("def insert(:E, x, y) : x = 2 and y = 3").unwrap();
            s.transact("def delete(:E, x, y) : E(x, y) and x = 1").unwrap();
            s.sync().unwrap();
        }
        let s = Session::open_with(&dir, cfg).unwrap();
        assert_eq!(s.db().get("E").unwrap().len(), 1);
        assert!(s.db().get("E").unwrap().contains(&tuple![2, 3]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_session_compacts_and_recovers_from_snapshot() {
        use crate::wal;
        let dir = std::env::temp_dir()
            .join(format!("rel-sess-compact-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Compact after every other commit.
        let cfg = durable(DurabilityConfig {
            fsync: FsyncPolicy::Off,
            compact_after_commits: 2,
            ..Default::default()
        });
        {
            let mut s = Session::open_with(&dir, cfg).unwrap();
            for n in 1..=5 {
                s.transact(&format!("def insert(:E, x) : x = {n}")).unwrap();
            }
        }
        // Commits 1–4 were folded into a snapshot; only commit 5 remains
        // in the log.
        let scan =
            wal::scan(&dir.join(wal::WAL_FILE), &wal::read_log(&dir).unwrap()).unwrap();
        assert_eq!(scan.records.len(), 1, "log must hold exactly the post-snapshot tail");
        assert_eq!(scan.records[0].seq, 5);
        let s = Session::open_with(&dir, cfg).unwrap();
        assert_eq!(s.db().get("E").unwrap().len(), 5);
        // Forced compaction empties the log and survives another reopen.
        assert!(s.compact_now().unwrap());
        let scan =
            wal::scan(&dir.join(wal::WAL_FILE), &wal::read_log(&dir).unwrap()).unwrap();
        assert!(scan.records.is_empty());
        drop(s);
        let s = Session::open_with(&dir, cfg).unwrap();
        assert_eq!(s.db().get("E").unwrap().len(), 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clones_of_durable_sessions_are_ephemeral() {
        let dir = std::env::temp_dir()
            .join(format!("rel-sess-clone-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = durable(DurabilityConfig { fsync: FsyncPolicy::Off, ..Default::default() });
        let mut s = Session::open_with(&dir, cfg).unwrap();
        s.transact("def insert(:E, x) : x = 1").unwrap();
        let mut replica = s.clone();
        assert!(!replica.is_durable(), "clones must not share the WAL");
        replica.transact("def insert(:E, x) : x = 2").unwrap();
        assert_eq!(replica.db().get("E").unwrap().len(), 2);
        drop(s);
        drop(replica);
        let s = Session::open_with(&dir, cfg).unwrap();
        assert_eq!(s.db().get("E").unwrap().len(), 1, "replica commits stay in memory");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn aborted_and_constraint_failed_transactions_leave_no_wal_trace() {
        use crate::wal;
        let dir = std::env::temp_dir()
            .join(format!("rel-sess-abort-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = durable(DurabilityConfig { fsync: FsyncPolicy::Off, ..Default::default() });
        let mut s = Session::open_with(&dir, cfg).unwrap();
        s.transact("def insert(:E, x) : x = 1").unwrap();
        let baseline = wal::read_log(&dir).unwrap().len();
        // Explicit abort, plain drop, and a commit-time constraint
        // violation: none may grow the log by a single byte.
        let mut txn = s.begin();
        txn.stage_insert("E", tuple![2]);
        txn.abort();
        {
            let mut txn = s.begin();
            txn.stage_insert("E", tuple![3]);
        }
        let err = s
            .transact(
                "def insert(:E, x) : x = 4\n\
                 ic never() requires E(1) implies E(99)",
            )
            .unwrap_err();
        assert!(matches!(err, RelError::ConstraintViolation { .. }), "{err}");
        assert_eq!(wal::read_log(&dir).unwrap().len(), baseline);
        // And a no-op commit (staged then reverted) logs nothing either.
        let mut txn = s.begin();
        txn.stage_insert("E", tuple![7]);
        txn.stage_delete("E", &tuple![7]);
        txn.commit().unwrap();
        assert_eq!(wal::read_log(&dir).unwrap().len(), baseline);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn integer_quantities_ic_holds() {
        // §3.5 with the Figure 1 data: all quantities are integers.
        let s = session();
        s.query(
            "def output(x) : ProductPrice(x, _)\n\
             ic integer_quantities() requires \
               forall((x) | OrderProductQuantity(_,_,x) implies Int(x))",
        )
        .unwrap();
    }
}
