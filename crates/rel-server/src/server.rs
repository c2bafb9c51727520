//! The server: accept loop, per-connection handlers, and the
//! group-committing write queue.
//!
//! ## Architecture
//!
//! One **commit worker** thread owns the authoritative [`Session`] (the
//! only durable one). Reads never touch it: connection handlers serve
//! queries from ephemeral replicas in a [`SessionPool`] over the latest
//! published CoW snapshot — checkout is an `Arc` bump plus at most an
//! O(1) `Session::clone`, so reads proceed lock-free with respect to
//! writers. Writes are serialized through a bounded queue: the worker
//! drains up to [`ServerConfig::group_window`] jobs, applies them inside
//! one [`Session::begin_commit_group`] window, closes the window with a
//! single fsync ([group commit]), publishes the new snapshot, and only
//! then acknowledges the batch — a client that receives its commit reply
//! and immediately reads is guaranteed to see its own write, and a crash
//! can only lose commits that were never acknowledged.
//!
//! ## Interactive transactions
//!
//! A `begin`/`run`/`stage`/`commit` transaction cannot hold the
//! authoritative session across requests (writes would stall behind an
//! idle client). Instead the connection records the transaction as a
//! **step log** over a private snapshot taken at `begin`: each step is
//! re-executed locally so the client sees its own effects immediately,
//! and `commit` ships the log through the queue, where the worker
//! replays it against the authoritative state — optimistic concurrency
//! with the queue as the single serialization point.
//!
//! ## Standing queries
//!
//! `Subscribe` rides the commit queue: the worker registers the watch on
//! the **authoritative** session (the only one whose commits exist), so
//! registration is serialized with commits and the engine's gapless
//! sequence numbering carries straight onto the wire. After each worker
//! pass the accumulated [`rel_engine::WatchDelta`] batches are fanned
//! out as server-initiated [`Response::Delta`] frames — strictly *after*
//! [`SessionPool::publish`] and the batch acknowledgements, so a pushed
//! delta never precedes the read-your-writes visibility of the commit
//! that caused it. Each connection's outbound stream is a shared writer
//! (a mutex over the socket) so push frames and request replies never
//! interleave mid-frame; a subscriber whose socket stalls past the write
//! timeout or dies is dropped (its engine watch unregisters on drop) and
//! its connection is shut down rather than desynced.
//!
//! ## Admission control
//!
//! Three independent gates, each answering with a typed
//! [`ErrorKind::Busy`]: the connection table ([`ServerConfig::max_conns`]),
//! the commit queue depth ([`ServerConfig::queue_depth`]), and a
//! per-connection in-flight commit budget ([`ServerConfig::max_inflight`]).
//! Subscriptions ride the same queue gates plus a per-connection watch
//! cap ([`ServerConfig::max_watches`]). The pool bounds read fan-out by
//! blocking, not refusing.
//!
//! [group commit]: Session::end_commit_group

use crate::pool::SessionPool;
use crate::protocol::{
    read_frame, write_frame, ErrorKind, ErrorReply, FrameRead, Outcome, Request, Response,
    StatsReply, WireError, WireParams, PROTOCOL_VERSION, READ_POLL,
};
use rel_core::{RelError, RelResult, Tuple};
use rel_engine::metrics::{self, Counter, Histogram};
use rel_engine::{Params, Prepared, Session, Transaction, TxnOutcome, Watch};
use std::collections::{HashMap, VecDeque};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long one outbound frame write may stall before the connection is
/// considered dead. Applies to push frames and request replies alike: a
/// frame write that times out partway leaves the stream unframeable, so
/// the connection is shut down rather than desynced.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Tuning knobs for a [`Server`]. [`ServerConfig::from_env`] reads the
/// `REL_SERVER_*` environment variables documented in the `rel-engine`
/// crate-level switch table; [`Default`] uses the same values without
/// touching the environment.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address (`REL_SERVER_ADDR`). Port `0` picks a free port;
    /// [`Server::addr`] reports the bound one.
    pub addr: String,
    /// Max simultaneous connections (`REL_SERVER_MAX_CONNS`); excess
    /// connects are answered with `Busy` and closed.
    pub max_conns: usize,
    /// Max commit jobs one connection may have queued at once
    /// (`REL_SERVER_MAX_INFLIGHT`).
    pub max_inflight: usize,
    /// Max commit jobs queued across all connections
    /// (`REL_SERVER_QUEUE_DEPTH`); a full queue answers `Busy`.
    pub queue_depth: usize,
    /// Max commits coalesced into one group-commit window — one fsync —
    /// per worker pass (`REL_SERVER_GROUP_WINDOW`).
    pub group_window: usize,
    /// Max read replicas checked out at once (`REL_SERVER_POOL`).
    pub pool: usize,
    /// Per-connection prepared-statement registry cap.
    pub max_stmts: usize,
    /// Per-connection open-transaction cap.
    pub max_txns: usize,
    /// Per-connection standing-query (subscription) cap.
    pub max_watches: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_conns: 64,
            max_inflight: 4,
            queue_depth: 256,
            group_window: 32,
            pool: 8,
            max_stmts: 256,
            max_txns: 16,
            max_watches: 64,
        }
    }
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

impl ServerConfig {
    /// Defaults overridden by the `REL_SERVER_*` environment variables.
    pub fn from_env() -> Self {
        let d = ServerConfig::default();
        ServerConfig {
            addr: std::env::var("REL_SERVER_ADDR").unwrap_or(d.addr),
            max_conns: env_usize("REL_SERVER_MAX_CONNS", d.max_conns),
            max_inflight: env_usize("REL_SERVER_MAX_INFLIGHT", d.max_inflight),
            queue_depth: env_usize("REL_SERVER_QUEUE_DEPTH", d.queue_depth),
            group_window: env_usize("REL_SERVER_GROUP_WINDOW", d.group_window),
            pool: env_usize("REL_SERVER_POOL", d.pool),
            ..d
        }
    }
}

// ---------------------------------------------------------------------------
// Server metrics
// ---------------------------------------------------------------------------

/// Request classes for per-type latency histograms, coarse on purpose:
/// the interesting separations are read vs write vs compile vs step.
const REQUEST_CLASSES: [&str; 6] = ["query", "execute", "prepare", "commit", "txn_step", "other"];

fn request_class(req: &Request) -> usize {
    match req {
        Request::Query { .. } => 0,
        Request::Execute { .. } | Request::ExecuteMany { .. } => 1,
        Request::Prepare { .. } => 2,
        Request::Transact { .. } | Request::TxnCommit { .. } => 3,
        Request::TxnBegin
        | Request::TxnRun { .. }
        | Request::TxnRunPrepared { .. }
        | Request::TxnStage { .. }
        | Request::TxnAbort { .. } => 4,
        Request::Hello { .. }
        | Request::Ping
        | Request::CloseStmt { .. }
        | Request::Stats
        | Request::Subscribe { .. }
        | Request::Unsubscribe { .. } => 5,
    }
}

/// The serving layer's own observability, alongside the engine's
/// process-wide registry. Commit-path instruments (group size, waits,
/// admission refusals) record unconditionally — they fire once per
/// batch or refusal, not per tuple; the per-request latency histograms
/// are gated on [`metrics::enabled`] like every engine hot path.
#[derive(Debug)]
struct ServerMetrics {
    /// Per-[`request_class`] request latency.
    request_us: [Histogram; REQUEST_CLASSES.len()],
    /// Commits coalesced per group-commit window (a size, not a time).
    group_size: Histogram,
    /// Time closing each group window (the shared fsync).
    fsync_wait_us: Histogram,
    /// Time each commit job waited in the queue before the worker
    /// picked it up.
    queue_wait_us: Histogram,
    /// Admission-control refusals answered with `Busy`.
    busy_rejections: Counter,
}

impl ServerMetrics {
    const fn new() -> Self {
        ServerMetrics {
            request_us: [const { Histogram::new() }; REQUEST_CLASSES.len()],
            group_size: Histogram::new(),
            fsync_wait_us: Histogram::new(),
            queue_wait_us: Histogram::new(),
            busy_rejections: Counter::new(),
        }
    }
}

// ---------------------------------------------------------------------------
// Commit queue
// ---------------------------------------------------------------------------

/// One recorded transaction step (see the module docs on step logs).
#[derive(Clone, Debug)]
enum Step {
    Run { src: String },
    RunPrepared { src: String, params: Params },
    Stage { rel: String, deletes: bool, tuples: Vec<Tuple> },
}

/// A connection's outbound half, shared between its handler thread and
/// the commit worker's delta fan-out. Every frame write goes through the
/// mutex so pushes and replies never interleave mid-frame.
type SharedWriter = Arc<Mutex<TcpStream>>;

/// Write one frame through a shared writer. `false` means the socket is
/// dead or wedged (the [`WRITE_TIMEOUT`] elapsed mid-frame) — callers
/// must treat the connection as unusable.
fn send(writer: &SharedWriter, resp: &Response) -> bool {
    let mut w = writer.lock().unwrap_or_else(PoisonError::into_inner);
    write_frame(&mut *w, &resp.encode()).is_ok()
}

/// What a queued commit job executes against the authoritative session.
/// Subscription management rides the same queue as commits so watch
/// registration is serialized with the commit stream (gapless sequence
/// numbers, no registration races).
#[derive(Debug)]
enum CommitWork {
    Transact { src: String },
    Steps(Vec<Step>),
    Subscribe { src: String, params: Params, writer: SharedWriter },
    Unsubscribe { watch: u64 },
    /// Injected (reply-less, gate-less) when a connection exits, so its
    /// subscriptions are reaped promptly instead of on the next failed
    /// delta write.
    ConnClosed,
}

type CommitResult = Result<Response, ErrorReply>;

struct CommitJob {
    conn: u64,
    work: CommitWork,
    reply: mpsc::Sender<CommitResult>,
    enqueued: Instant,
}

#[derive(Default)]
struct Queue {
    jobs: VecDeque<CommitJob>,
    /// Queued jobs per connection (admission: `max_inflight`).
    inflight: HashMap<u64, usize>,
    /// Set during shutdown *after* every connection has drained: the
    /// worker finishes the remaining jobs and exits.
    stopped: bool,
}

struct Shared {
    cfg: ServerConfig,
    pool: SessionPool,
    queue: Mutex<Queue>,
    queue_ready: Condvar,
    shutdown: AtomicBool,
    conns: AtomicUsize,
    metrics: ServerMetrics,
}

impl Shared {
    fn lock_queue(&self) -> std::sync::MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

fn submit(shared: &Shared, conn: u64, work: CommitWork) -> Result<mpsc::Receiver<CommitResult>, ErrorReply> {
    let mut q = shared.lock_queue();
    if q.stopped || shared.shutdown.load(Ordering::SeqCst) {
        return Err(ErrorReply::new(ErrorKind::ShuttingDown, "server is shutting down"));
    }
    if q.jobs.len() >= shared.cfg.queue_depth {
        shared.metrics.busy_rejections.incr();
        return Err(ErrorReply::new(
            ErrorKind::Busy,
            format!("commit queue is full ({} jobs)", shared.cfg.queue_depth),
        ));
    }
    let inflight = q.inflight.entry(conn).or_insert(0);
    if *inflight >= shared.cfg.max_inflight {
        shared.metrics.busy_rejections.incr();
        return Err(ErrorReply::new(
            ErrorKind::Busy,
            format!("connection already has {inflight} commits in flight"),
        ));
    }
    *inflight += 1;
    let (tx, rx) = mpsc::channel();
    q.jobs.push_back(CommitJob { conn, work, reply: tx, enqueued: Instant::now() });
    drop(q);
    shared.queue_ready.notify_all();
    Ok(rx)
}

fn query_reply(e: RelError) -> ErrorReply {
    ErrorReply::new(ErrorKind::Query, e.to_string())
}

fn wire_outcome(o: TxnOutcome) -> Outcome {
    Outcome { output: o.output, inserted: o.inserted as u64, deleted: o.deleted as u64 }
}

/// Replay a transaction's step log inside one new transaction on
/// `session` and return it still open, with the response for the *last*
/// step: the commit worker commits it on the authoritative session, and a
/// connection aborts it after checking a step against its begin-time
/// snapshot. Quadratic in the step count across a transaction's life —
/// fine for interactive use, and the commit-time replay runs once.
fn replay<'s>(session: &'s mut Session, steps: &[Step]) -> RelResult<(Transaction<'s>, Response)> {
    // Prepared steps are re-compiled by source — a module-cache hit,
    // since the connection compiled the same source at prepare time and
    // all sessions share the cache.
    let mut prepared = Vec::with_capacity(steps.len());
    for step in steps {
        prepared.push(match step {
            Step::RunPrepared { src, .. } => Some(session.prepare(src)?),
            _ => None,
        });
    }
    let mut txn = session.begin();
    let mut last = Response::Done;
    for (step, prep) in steps.iter().zip(&prepared) {
        last = match step {
            Step::Run { src } => Response::Rows(txn.run(src)?),
            Step::RunPrepared { params, .. } => {
                Response::Rows(txn.run_prepared(prep.as_ref().expect("prepared above"), params)?)
            }
            Step::Stage { rel, deletes, tuples } => {
                let mut changed = 0u64;
                for t in tuples {
                    changed += u64::from(if *deletes {
                        txn.stage_delete(rel, t)
                    } else {
                        txn.stage_insert(rel, t.clone())
                    });
                }
                Response::Staged { changed }
            }
        };
    }
    Ok((txn, last))
}

/// One live subscription: the engine-side watch handle (registered on
/// the authoritative session) plus the wire to push its deltas down.
struct ServerWatch {
    watch: Watch,
    conn: u64,
    writer: SharedWriter,
}

fn apply_job(
    session: &mut Session,
    shared: &Shared,
    watches: &mut HashMap<u64, ServerWatch>,
    job: &CommitJob,
) -> CommitResult {
    match &job.work {
        CommitWork::Transact { src } => {
            session.transact(src).map(|o| Response::Committed(wire_outcome(o))).map_err(query_reply)
        }
        CommitWork::Steps(steps) => replay(session, steps)
            .and_then(|(txn, _)| txn.commit())
            .map(|o| Response::Committed(wire_outcome(o)))
            .map_err(query_reply),
        CommitWork::Subscribe { src, params, writer } => {
            let open = watches.values().filter(|w| w.conn == job.conn).count();
            if open >= shared.cfg.max_watches {
                shared.metrics.busy_rejections.incr();
                return Err(ErrorReply::new(
                    ErrorKind::Busy,
                    format!("subscription registry is full ({open} watches)"),
                ));
            }
            let prepared = session.prepare(src).map_err(query_reply)?;
            let watch = session.watch(&prepared, params).map_err(query_reply)?;
            let id = watch.id();
            watches.insert(id, ServerWatch { watch, conn: job.conn, writer: writer.clone() });
            Ok(Response::Subscribed { watch: id })
        }
        CommitWork::Unsubscribe { watch } => match watches.get(watch) {
            Some(sw) if sw.conn == job.conn => {
                watches.remove(watch);
                Ok(Response::Done)
            }
            _ => Err(ErrorReply::new(
                ErrorKind::UnknownWatch,
                format!("no subscription {watch} on this connection"),
            )),
        },
        CommitWork::ConnClosed => {
            watches.retain(|_, sw| sw.conn != job.conn);
            Ok(Response::Done)
        }
    }
}

/// Drain every watch's buffered [`rel_engine::WatchDelta`] batches onto
/// the subscriber's wire as [`Response::Delta`] push frames. Runs
/// strictly after `pool.publish` and the batch acknowledgements (module
/// docs: push-after-publish). A failed write means the subscriber is
/// gone or wedged mid-frame: drop the subscription (the engine watch
/// unregisters on drop) and shut the socket down so the connection dies
/// cleanly instead of desyncing.
fn fan_out(watches: &mut HashMap<u64, ServerWatch>) {
    watches.retain(|&id, sw| {
        while let Some(d) = sw.watch.try_recv() {
            let resp = Response::Delta {
                watch: id,
                seq: d.seq,
                snapshot: d.snapshot,
                added: d.added,
                removed: d.removed,
            };
            let mut w = sw.writer.lock().unwrap_or_else(PoisonError::into_inner);
            if write_frame(&mut *w, &resp.encode()).is_err() {
                let _ = w.shutdown(Shutdown::Both);
                return false;
            }
        }
        true
    });
}

/// The commit worker: drain a batch, apply it inside one group-commit
/// window, publish the new snapshot, then acknowledge. Returns the
/// authoritative session at shutdown so the owner can inspect or reuse
/// it.
fn commit_worker(mut session: Session, shared: Arc<Shared>) -> Session {
    // The server-side subscription registry lives on the worker thread:
    // the authoritative session is the only one whose commits exist, so
    // its watch registry is the only meaningful one (pool replicas have
    // fresh, empty registries by design).
    let mut watches: HashMap<u64, ServerWatch> = HashMap::new();
    loop {
        let batch: Vec<CommitJob> = {
            let mut q = shared.lock_queue();
            while q.jobs.is_empty() && !q.stopped {
                q = shared.queue_ready.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
            if q.jobs.is_empty() {
                break; // stopped and drained
            }
            let n = q.jobs.len().min(shared.cfg.group_window.max(1));
            q.jobs.drain(..n).collect()
        };
        for job in &batch {
            shared.metrics.queue_wait_us.record(job.enqueued.elapsed());
        }
        shared.metrics.group_size.record_us(batch.len() as u64);
        session.begin_commit_group();
        let mut results = Vec::with_capacity(batch.len());
        for job in &batch {
            results.push(apply_job(&mut session, &shared, &mut watches, job));
        }
        let sync_start = Instant::now();
        let group = session.end_commit_group();
        shared.metrics.fsync_wait_us.record(sync_start.elapsed());
        // Publish before acknowledging: a client that sees its commit
        // reply and immediately reads must observe its own write.
        shared.pool.publish(&session);
        {
            let mut q = shared.lock_queue();
            for job in &batch {
                if matches!(job.work, CommitWork::ConnClosed) {
                    // Injected without an admission increment, and the
                    // connection is gone: drop its in-flight slot.
                    q.inflight.remove(&job.conn);
                } else if let Some(n) = q.inflight.get_mut(&job.conn) {
                    *n = n.saturating_sub(1);
                }
            }
        }
        for (job, result) in batch.into_iter().zip(results) {
            let result = match (&group, result) {
                // The group sync failed: the commits are installed in
                // memory but their durability is unknown — refuse the
                // acknowledgement (same contract as a lone failed sync).
                (Err(e), Ok(Response::Committed(_))) => Err(ErrorReply::new(
                    ErrorKind::Internal,
                    format!("commit applied but group sync failed: {e}"),
                )),
                (_, r) => r,
            };
            let _ = job.reply.send(result);
        }
        // Push-after-publish: deltas produced by this batch's commits
        // (and initial snapshots of this batch's subscribes) go out only
        // after the snapshot they describe is readable and acknowledged.
        fan_out(&mut watches);
    }
    // Flush any batched-but-unsynced tail before handing the session back.
    let _ = session.sync();
    session
}

// ---------------------------------------------------------------------------
// Connection handling
// ---------------------------------------------------------------------------

/// An interactive transaction recorded server-side: the snapshot it
/// began on plus the step log replayed against it.
struct TxnState {
    base: Session,
    steps: Vec<Step>,
}

struct StmtEntry {
    src: String,
    prepared: Prepared,
}

struct ConnCtx {
    id: u64,
    shared: Arc<Shared>,
    /// The outbound half, shared with the commit worker's delta fan-out
    /// once this connection subscribes.
    writer: SharedWriter,
    stmts: HashMap<u32, StmtEntry>,
    next_stmt: u32,
    txns: HashMap<u32, TxnState>,
    next_txn: u32,
}

fn err(kind: ErrorKind, msg: impl Into<String>) -> Response {
    Response::Error(ErrorReply::new(kind, msg))
}

/// Assemble the `Stats` reply: the engine's process-wide registry
/// verbatim (same names, same values — the wire read must match an
/// in-process snapshot), then the serving layer's own counters and
/// histograms under `server.` names.
fn stats_reply(shared: &Shared) -> Response {
    let engine = metrics::registry().snapshot();
    let mut counters: Vec<(String, u64)> =
        engine.counters.iter().map(|&(name, v)| (name.to_string(), v)).collect();
    counters.push((
        "server.busy_rejections".to_string(),
        shared.metrics.busy_rejections.get(),
    ));
    let mut histograms: Vec<(String, metrics::HistogramSnapshot)> =
        vec![("query_us".to_string(), engine.query_us)];
    for (class, hist) in REQUEST_CLASSES.iter().zip(&shared.metrics.request_us) {
        histograms.push((format!("server.request.{class}_us"), hist.snapshot()));
    }
    histograms.push(("server.commit.group_size".to_string(), shared.metrics.group_size.snapshot()));
    histograms
        .push(("server.commit.fsync_wait_us".to_string(), shared.metrics.fsync_wait_us.snapshot()));
    histograms
        .push(("server.commit.queue_wait_us".to_string(), shared.metrics.queue_wait_us.snapshot()));
    Response::Stats(StatsReply {
        metrics_enabled: metrics::enabled(),
        pool_generation: shared.pool.generation(),
        queue_depth: shared.lock_queue().jobs.len() as u64,
        connections: shared.conns.load(Ordering::SeqCst) as u64,
        counters,
        histograms,
    })
}

fn wire_to_params(pairs: WireParams) -> Params {
    pairs.into_iter().fold(Params::new(), |p, (name, rel)| p.set_rel(&name, rel))
}

fn txn_step(ctx: &mut ConnCtx, txn: u32, step: Step) -> Response {
    let Some(state) = ctx.txns.get_mut(&txn) else {
        return err(ErrorKind::UnknownTxn, format!("no open transaction {txn}"));
    };
    state.steps.push(step);
    match replay(&mut state.base, &state.steps) {
        Ok((txn, resp)) => {
            txn.abort();
            resp
        }
        Err(e) => {
            // Only the newly added step can fail (the prefix replayed
            // cleanly when each of its steps was added); drop it so the
            // transaction stays usable.
            state.steps.pop();
            Response::Error(query_reply(e))
        }
    }
}

fn commit_roundtrip(ctx: &ConnCtx, work: CommitWork) -> (Response, bool) {
    match submit(&ctx.shared, ctx.id, work) {
        Err(e) => (Response::Error(e), false),
        Ok(rx) => match rx.recv() {
            Ok(Ok(resp)) => (resp, false),
            Ok(Err(e)) => (Response::Error(e), false),
            Err(_) => (
                err(ErrorKind::ShuttingDown, "commit worker exited before replying"),
                true,
            ),
        },
    }
}

/// Process one request; returns the response and whether to close the
/// connection afterwards.
fn dispatch(ctx: &mut ConnCtx, req: Request) -> (Response, bool) {
    if ctx.shared.shutdown.load(Ordering::SeqCst) {
        return (err(ErrorKind::ShuttingDown, "server is shutting down"), true);
    }
    let resp = match req {
        Request::Hello { version } => {
            if version != PROTOCOL_VERSION {
                return (
                    err(
                        ErrorKind::Protocol,
                        format!("protocol version {version} unsupported (server speaks {PROTOCOL_VERSION})"),
                    ),
                    true,
                );
            }
            Response::Hello { version: PROTOCOL_VERSION }
        }
        Request::Ping => Response::Pong,
        Request::Prepare { src } => {
            if ctx.stmts.len() >= ctx.shared.cfg.max_stmts {
                ctx.shared.metrics.busy_rejections.incr();
                return (err(ErrorKind::Busy, "prepared-statement registry is full"), false);
            }
            match ctx.shared.pool.with(|s| s.prepare(&src)) {
                Ok(prepared) => {
                    let stmt = ctx.next_stmt;
                    ctx.next_stmt += 1;
                    let params = prepared.param_names().iter().map(|n| n.to_string()).collect();
                    ctx.stmts.insert(stmt, StmtEntry { src, prepared });
                    Response::Prepared { stmt, params }
                }
                Err(e) => Response::Error(query_reply(e)),
            }
        }
        Request::CloseStmt { stmt } => match ctx.stmts.remove(&stmt) {
            Some(_) => Response::Done,
            None => err(ErrorKind::UnknownStmt, format!("no prepared statement {stmt}")),
        },
        Request::Execute { stmt, params } => match ctx.stmts.get(&stmt) {
            None => err(ErrorKind::UnknownStmt, format!("no prepared statement {stmt}")),
            Some(entry) => {
                let bound = wire_to_params(params);
                match ctx.shared.pool.with(|s| entry.prepared.execute_with(s, &bound)) {
                    Ok(rel) => Response::Rows(rel),
                    Err(e) => Response::Error(query_reply(e)),
                }
            }
        },
        Request::ExecuteMany { stmt, batches } => match ctx.stmts.get(&stmt) {
            None => err(ErrorKind::UnknownStmt, format!("no prepared statement {stmt}")),
            Some(entry) => {
                let bound: Vec<Params> = batches.into_iter().map(wire_to_params).collect();
                match ctx.shared.pool.with(|s| entry.prepared.execute_many(s, &bound)) {
                    Ok(rels) => Response::RowsMany(rels),
                    Err(e) => Response::Error(query_reply(e)),
                }
            }
        },
        Request::Query { src } => match ctx.shared.pool.with(|s| s.query(&src)) {
            Ok(rel) => Response::Rows(rel),
            Err(e) => Response::Error(query_reply(e)),
        },
        Request::Transact { src } => {
            return commit_roundtrip(ctx, CommitWork::Transact { src });
        }
        Request::TxnBegin => {
            if ctx.txns.len() >= ctx.shared.cfg.max_txns {
                ctx.shared.metrics.busy_rejections.incr();
                return (err(ErrorKind::Busy, "transaction registry is full"), false);
            }
            let base = ctx.shared.pool.with(|s| s.clone());
            let txn = ctx.next_txn;
            ctx.next_txn += 1;
            ctx.txns.insert(txn, TxnState { base, steps: Vec::new() });
            Response::TxnBegun { txn }
        }
        Request::TxnRun { txn, src } => txn_step(ctx, txn, Step::Run { src }),
        Request::TxnRunPrepared { txn, stmt, params } => match ctx.stmts.get(&stmt) {
            None => err(ErrorKind::UnknownStmt, format!("no prepared statement {stmt}")),
            Some(entry) => {
                let step = Step::RunPrepared {
                    src: entry.src.clone(),
                    params: wire_to_params(params),
                };
                txn_step(ctx, txn, step)
            }
        },
        Request::TxnStage { txn, rel, deletes, tuples } => {
            txn_step(ctx, txn, Step::Stage { rel, deletes, tuples })
        }
        Request::TxnCommit { txn } => match ctx.txns.remove(&txn) {
            None => err(ErrorKind::UnknownTxn, format!("no open transaction {txn}")),
            Some(state) => return commit_roundtrip(ctx, CommitWork::Steps(state.steps)),
        },
        Request::TxnAbort { txn } => match ctx.txns.remove(&txn) {
            Some(_) => Response::Done,
            None => err(ErrorKind::UnknownTxn, format!("no open transaction {txn}")),
        },
        Request::Subscribe { src, params } => {
            let work = CommitWork::Subscribe {
                src,
                params: wire_to_params(params),
                writer: ctx.writer.clone(),
            };
            return commit_roundtrip(ctx, work);
        }
        Request::Unsubscribe { watch } => {
            return commit_roundtrip(ctx, CommitWork::Unsubscribe { watch });
        }
        Request::Stats => stats_reply(&ctx.shared),
    };
    (resp, false)
}

fn handle_conn(mut stream: TcpStream, shared: Arc<Shared>, id: u64) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    // The reader half stays private to this thread; all writes — request
    // replies here, delta pushes from the commit worker — go through the
    // shared, mutex-guarded clone so frames never interleave.
    let writer: SharedWriter = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    let mut ctx = ConnCtx {
        id,
        shared: shared.clone(),
        writer: writer.clone(),
        stmts: HashMap::new(),
        next_stmt: 1,
        txns: HashMap::new(),
        next_txn: 1,
    };
    let stop_flag = shared.clone();
    let stop = move || stop_flag.shutdown.load(Ordering::SeqCst);
    loop {
        let payload = match read_frame(&mut stream, &stop) {
            Ok(FrameRead::Frame(p)) => p,
            Ok(FrameRead::Closed) => break,
            Ok(FrameRead::Stopped) => {
                send(&writer, &err(ErrorKind::ShuttingDown, "server is shutting down"));
                break;
            }
            Err(WireError::Protocol(msg)) => {
                // Answer with a typed error when the socket still works,
                // then drop: a desynced stream cannot be re-framed.
                send(&writer, &err(ErrorKind::Protocol, msg));
                break;
            }
            Err(WireError::Io(_)) => break,
        };
        let req = match Request::decode(&payload) {
            Ok(r) => r,
            Err(e) => {
                send(&writer, &err(ErrorKind::Protocol, e.to_string()));
                break;
            }
        };
        let class = request_class(&req);
        let start = metrics::enabled().then(Instant::now);
        let (resp, close) = dispatch(&mut ctx, req);
        if let Some(start) = start {
            ctx.shared.metrics.request_us[class].record(start.elapsed());
        }
        if !send(&writer, &resp) || close {
            break;
        }
    }
    drop_conn_watches(&shared, id);
}

/// Best-effort cleanup when a connection exits: inject a reply-less
/// [`CommitWork::ConnClosed`] job so the worker reaps the connection's
/// subscriptions promptly. Skips the admission gates on purpose — this
/// frees resources rather than consuming them — and if the queue is
/// already stopped the watches die with the worker anyway.
fn drop_conn_watches(shared: &Shared, conn: u64) {
    let mut q = shared.lock_queue();
    if q.stopped {
        return;
    }
    let (reply, _discard) = mpsc::channel();
    q.jobs.push_back(CommitJob {
        conn,
        work: CommitWork::ConnClosed,
        reply,
        enqueued: Instant::now(),
    });
    drop(q);
    shared.queue_ready.notify_all();
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut handles: Vec<JoinHandle<()>> = Vec::new();
    let mut next_id: u64 = 0;
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let mut stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        handles.retain(|h| !h.is_finished());
        if shared.conns.load(Ordering::SeqCst) >= shared.cfg.max_conns {
            // Admission control: answer Busy without spawning a handler.
            // The refused client reads this as the reply to its Hello.
            shared.metrics.busy_rejections.incr();
            let _ = write_frame(
                &mut stream,
                &err(
                    ErrorKind::Busy,
                    format!("connection limit reached ({})", shared.cfg.max_conns),
                )
                .encode(),
            );
            continue;
        }
        shared.conns.fetch_add(1, Ordering::SeqCst);
        let id = next_id;
        next_id += 1;
        let conn_shared = shared.clone();
        let handle = std::thread::Builder::new()
            .name(format!("rel-conn-{id}"))
            .spawn(move || {
                struct ConnCount(Arc<Shared>);
                impl Drop for ConnCount {
                    fn drop(&mut self) {
                        self.0.conns.fetch_sub(1, Ordering::SeqCst);
                    }
                }
                let _count = ConnCount(conn_shared.clone());
                handle_conn(stream, conn_shared, id);
            });
        match handle {
            Ok(h) => handles.push(h),
            Err(_) => {
                shared.conns.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
    for h in handles {
        let _ = h.join();
    }
}

// ---------------------------------------------------------------------------
// Server handle
// ---------------------------------------------------------------------------

/// A running server. Dropping it shuts down gracefully; call
/// [`Server::shutdown`] to also get the authoritative [`Session`] back.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    worker: Option<JoinHandle<Session>>,
}

impl Server {
    /// Start serving `session` (the authoritative, possibly durable,
    /// session — install libraries before starting) on `cfg.addr`.
    pub fn start(session: Session, cfg: ServerConfig) -> RelResult<Server> {
        let addr_str = cfg.addr.clone();
        let io_err = |what: &str, e: &std::io::Error| {
            RelError::io(addr_str.clone(), what.to_string(), e)
        };
        let listener =
            TcpListener::bind(&cfg.addr).map_err(|e| io_err("binding server socket", &e))?;
        let addr = listener.local_addr().map_err(|e| io_err("reading bound address", &e))?;
        let pool = SessionPool::new(&session, cfg.pool);
        let shared = Arc::new(Shared {
            cfg,
            pool,
            queue: Mutex::new(Queue::default()),
            queue_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            conns: AtomicUsize::new(0),
            metrics: ServerMetrics::new(),
        });
        let worker_shared = shared.clone();
        let worker = std::thread::Builder::new()
            .name("rel-commit".to_string())
            .spawn(move || commit_worker(session, worker_shared))
            .map_err(|e| io_err("spawning commit worker", &e))?;
        let accept_shared = shared.clone();
        let accept = std::thread::Builder::new()
            .name("rel-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared))
            .map_err(|e| io_err("spawning accept loop", &e))?;
        Ok(Server { addr, shared, accept: Some(accept), worker: Some(worker) })
    }

    /// The bound listen address (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Simultaneous connections right now.
    pub fn connections(&self) -> usize {
        self.shared.conns.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: stop accepting, let every connection finish
    /// its in-flight request, drain the commit queue (every submitted
    /// commit is applied, group-synced, and acknowledged), then return
    /// the authoritative session.
    pub fn shutdown(mut self) -> RelResult<Session> {
        match self.stop() {
            Some(session) => Ok(session),
            None => Err(RelError::io(
                "rel-server",
                "joining commit worker",
                &std::io::Error::other("commit worker panicked"),
            )),
        }
    }

    fn stop(&mut self) -> Option<Session> {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the accept loop out of its blocking accept.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Every connection has exited (the accept loop joins them), so
        // no new jobs can arrive: stop the worker once the queue drains.
        {
            let mut q = self.shared.lock_queue();
            q.stopped = true;
        }
        self.shared.queue_ready.notify_all();
        self.worker.take().and_then(|h| h.join().ok())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept.is_some() || self.worker.is_some() {
            let _ = self.stop();
        }
    }
}
