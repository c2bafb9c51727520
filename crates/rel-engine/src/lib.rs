//! # rel-engine
//!
//! Bottom-up evaluation engine for Rel, fronted by the **client API v2**:
//! prepared queries, typed results, and explicit transaction handles.
//!
//! ## Client API
//!
//! A [`Session`] owns a database plus installed library source — and,
//! because the library's derived relations and constraints belong to the
//! database (paper §3.4–3.5, §6), one *library state* next to it: the
//! library materialized once per database state and advanced
//! incrementally by each commit. Queries, prepared executes, transaction
//! steps and watches all evaluate only their own strata on top of that
//! shared state. The intended shape of a client interaction is *prepare →
//! execute → typed rows*, with writes staged through a transaction handle:
//!
//! ```
//! use rel_core::database::figure1_database;
//! use rel_engine::{Params, Session};
//!
//! let mut s = Session::new(figure1_database());
//!
//! // Compile once; the module is cached by source.
//! let q = s
//!     .prepare("def output(x, y) : ProductPrice(x, y) and y > ?min")
//!     .unwrap();
//!
//! // Execute many times — zero recompilation, parameters bound per call.
//! let rows: Vec<(String, i64)> = q
//!     .execute_with(&s, &Params::new().set("min", 15))
//!     .unwrap()
//!     .rows()
//!     .unwrap();
//! assert_eq!(rows.len(), 3);
//!
//! // Stage multiple steps in one transaction; constraints are checked
//! // on commit, abort is free.
//! let mut txn = s.begin();
//! txn.run("def insert(:Expensive, x) : exists((y) | ProductPrice(x, y) and y > 25)")
//!     .unwrap();
//! let outcome = txn.commit().unwrap();
//! assert_eq!(outcome.inserted, 2);
//! ```
//!
//! [`Session::query`] and [`Session::transact`] remain as thin one-shot
//! wrappers over the same machinery (both go through the session's
//! module cache).
//!
//! ## Modules
//!
//! * [`prepared`] — [`Prepared`] query handles and [`Params`] bindings:
//!   compile once (`library + query`, cached by source), execute against
//!   the current CoW database snapshot with `?name` placeholders bound at
//!   execute time;
//! * [`txn`] — explicit [`Transaction`] handles over an O(1) CoW
//!   candidate snapshot: staged `run`/prepared steps plus direct
//!   `stage_insert`/`stage_delete`, constraint checking on `commit()`,
//!   free `abort()`;
//! * [`session`] — the session itself: database + libraries + library
//!   state + module cache + shared index cache; `Session` is `Send +
//!   Sync` and serves queries from many threads;
//! * [`config`] — [`EngineConfig`]: every engine switch (WCOJ, metrics,
//!   watch buffer, durability) as one builder,
//!   and the engine's only reader of the environment:
//!   [`EngineConfig::from_env`] is the whole `REL_*` table below, resolved
//!   once per process, and [`Session::with_config`] /
//!   [`Session::open_with`] fix a session's switches at construction;
//! * [`watch`] — standing queries: [`Session::watch`] registers a
//!   prepared query and every later commit pushes the exact
//!   added/removed output rows as [`WatchDelta`] batches over a bounded
//!   channel (initial snapshot at registration, O(1) skip for commits
//!   outside the query's cone, coalescing resync snapshots for lagging
//!   subscribers);
//! * [`eval`] — formula evaluation over environment batches with greedy
//!   sideways-information-passing, open expression evaluation (grouped
//!   aggregation, generator `where`), tuple-variable matching,
//!   demand-driven (tabled) predicate evaluation; an atom whose bound
//!   positions are a prefix of its arguments binary-searches the sorted
//!   rows, any other binary-searches the rows permuted key positions
//!   first — a sorted view kept in the generation-keyed cache
//!   ([`eval::SharedIndexCache`]) that survives across fixpoint
//!   iterations and session queries;
//! * [`fixpoint`] — stratum materialization: semi-naive for monotone
//!   recursion, partial-fixpoint iteration for Rel's non-stratified
//!   programs (Addendum A); zero-copy over the CoW relations of
//!   `rel-core`; a parallel scheduler walks the stratum DAG with scoped
//!   worker threads, one per core up to 8 ([`eval_threads`]);
//! * [`library`] — the installed library as part of the database: the
//!   one maintained library state (derived relations plus the verdict of
//!   the library's constraints) and the split of every compiled module
//!   into what that state answers and what is the module's own;
//! * [`incremental`] — incremental view maintenance: given a captured
//!   pre-state fixpoint ([`PreState`]) and the generation-diffed set of
//!   changed inputs, re-derives only the dependent cone — pointer-bump
//!   reuse outside it, delta-seeded semi-naive restart for monotone
//!   recursion inside it. The one maintenance implementation: it advances
//!   the session's library state at commit and each module's own strata
//!   on top of it;
//! * [`builtins`] — implementations of the infinite built-in relations
//!   with invertible modes (`add(x, 5, z)` solves for `x`);
//! * [`leapfrog`] — the leapfrog-triejoin worst-case-optimal join kernel
//!   (the substrate the paper credits for making GNF practical, §7).
//!   `eval`'s conjunction scheduler routes qualifying multi-atom groups
//!   (triangles, cyclic joins) through it, over permuted sorted tries
//!   cached generation-keyed in the shared index cache. It takes every
//!   variable-connected group of at least [`WCOJ_MIN_ATOMS`] eligible
//!   atoms; smaller groups take pairwise joins, and no switch changes
//!   that routing;
//! * [`metrics`] / [`profile`] — engine-wide observability: a
//!   process-wide registry of atomic counters and latency histograms
//!   (zero-cost no-ops unless `REL_METRICS` / [`metrics::set_metrics`]
//!   turns them on; the cold-path counters — commits, WAL bytes, fsyncs —
//!   always tick), plus per-query [`QueryProfile`]s from
//!   [`Session::query_profiled`] / [`Prepared::execute_profiled`], each
//!   ticked by its own evaluation only —
//!   per-stratum wall time and iteration counts, join-kernel choice,
//!   cache outcomes, incremental classification — with an EXPLAIN-style
//!   text renderer;
//! * [`durability`] / [`wal`] / [`snapshot`] / [`recovery`] — the durable
//!   store behind [`Session::open`]: committed transactions append
//!   CRC32-framed net deltas to a write-ahead log, compaction folds the
//!   log into atomically published snapshots, and recovery replays the
//!   log tail over the newest valid snapshot — landing, for *every* crash
//!   point, on a byte-identical prefix of the committed history (proven
//!   by the crash-injection harness in [`durability::failpoint`] and the
//!   `crash_recovery` suite).
//!
//! ## Environment variables
//!
//! Every `REL_*` switch the engine reads, in one place — plus the
//! `REL_SERVER_*` knobs the `rel-server` crate layers on top, so the
//! whole `REL_*` namespace has a single consolidated table. Each is a
//! process-wide *default*; where a per-session (or per-server) override
//! exists it is listed alongside. [`config`] reads the engine rows, once
//! per process, and `ServerConfig::from_env` the server rows; nothing
//! else reads the environment. On/off switches share one spelling:
//! `0`/`false`/`off`/`no` and `1`/`true`/`on`/`yes`, trimmed, any case;
//! an unparsable value counts as unset.
//!
//! | Variable | Values | Default | Effect |
//! |----------|--------|---------|--------|
//! | `REL_DURABILITY` | switch | on | Whether [`Session::open`] actually attaches durable storage; off, it returns a plain ephemeral session without touching disk. |
//! | `REL_FSYNC` | `always`, `batch`, switch off | `batch` | When WAL appends reach stable storage ([`FsyncPolicy`]; [`EngineConfig::durability`] per session via [`Session::open_with`]). |
//! | `REL_WATCH_BUFFER` | positive integer | `64` | Delivery buffer of a standing query ([`Session::watch`]), in [`WatchDelta`] batches: a subscriber further behind than this goes *lagged* — commits stop buffering deltas for it and the next in-cone commit after it drains coalesces everything missed into one resync snapshot ([`EngineConfig::watch_buffer`] per session). |
//! | `REL_SERVER_ADDR` | `host:port` | `127.0.0.1:0` | Listen address of `rel-server` (port `0` picks a free port). Read by `ServerConfig::from_env` in the `rel-server` crate; the config struct overrides per server. |
//! | `REL_SERVER_MAX_CONNS` | positive integer | `64` | Max simultaneous connections; excess connects get a typed `Busy` reply. |
//! | `REL_SERVER_MAX_INFLIGHT` | positive integer | `4` | Max commit jobs one connection may have queued at once (`Busy` beyond it). |
//! | `REL_SERVER_QUEUE_DEPTH` | positive integer | `256` | Max commit jobs queued across all connections (`Busy` when full). |
//! | `REL_SERVER_GROUP_WINDOW` | positive integer | `32` | Max commits coalesced into one group-commit window — one WAL fsync — per commit-worker pass ([`Session::begin_commit_group`]). |
//! | `REL_SERVER_POOL` | positive integer | `8` | Max read replicas checked out of the server's session pool at once (readers block, never fail, beyond it). |
//! | `REL_METRICS` | switch | off | Hot-path engine metrics ([`metrics`]): cache hit/miss, join-kernel dispatch, incremental classification, and per-query latency counters on the process-wide [`metrics::registry`] ([`metrics::set_metrics`] flips the same process-wide switch at runtime, and the variable never undoes such a call). Cold-path counters (commits, aborts, WAL bytes, fsyncs, compactions, snapshot publishes) record regardless. Results are byte-identical either way. |
//! | `REL_SLOW_QUERY_MS` | non-negative integer | unset | Slow-query log: any [`Session::query`] at or above the threshold is profiled and its rendered [`QueryProfile`] printed to stderr ([`metrics::slow_query_ms`]). |
//!
//! [`Session::query`]/[`Session::eval`] results are unaffected by every
//! switch in the table — they tune scheduling, caching, observability,
//! and durability, never semantics.

pub mod builtins;
pub mod config;
pub mod durability;
pub mod env;
pub mod eval;
pub mod fixpoint;
pub mod incremental;
pub mod leapfrog;
pub mod library;
mod lru;
pub mod metrics;
pub mod prepared;
pub mod profile;
pub mod recovery;
pub mod session;
pub mod snapshot;
pub mod txn;
pub mod wal;
pub mod watch;

pub use config::EngineConfig;
pub use durability::{DurabilityConfig, FsyncPolicy};
pub use eval::{EvalCtx, SharedIndexCache, WcojMode, WCOJ_MIN_ATOMS};
pub use fixpoint::{
    eval_threads, materialize, materialize_naive, materialize_with_cache,
    materialize_with_threads,
};
pub use incremental::{
    materialize_incremental, materialize_incremental_with_stats, IncrementalStats, PreState,
};
pub use metrics::MetricsSnapshot;
pub use prepared::{Params, Prepared};
pub use profile::{
    FixpointOutcome, KernelCounts, QueryProfile, StratumAction, StratumProfile,
};
pub use session::{Session, TxnOutcome};
pub use txn::Transaction;
pub use watch::{Watch, WatchDelta, DEFAULT_WATCH_BUFFER};
