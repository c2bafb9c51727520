//! `rel-client`: a blocking client for the wire protocol.
//!
//! One [`Client`] wraps one TCP connection; requests and responses are
//! strictly paired, so a `Client` is `!Sync` by construction (`&mut
//! self` everywhere) — open one per thread. Used by the `rel connect`
//! CLI subcommand and the repo benchmark's `serving_mix` workload.
//!
//! The one exception to strict pairing is the push path: once
//! [`Client::subscribe`] registers a standing query, the server may
//! interleave unsolicited `Delta` frames with replies. [`Client`]
//! stashes those internally (keyed by watch id) whenever it reads a
//! frame, so request/reply pairing is preserved and
//! [`Subscription::recv`] drains the stash before touching the socket.
//! Deltas arrive as [`rel_engine::WatchDelta`] — the same type the
//! in-process [`rel_engine::Session::watch`] API yields, so mirror
//! maintenance code (`WatchDelta::apply_to`) works unchanged over the
//! wire.
//!
//! ```no_run
//! use rel_server::{Client, ClientResult};
//! use rel_engine::Params;
//!
//! fn demo() -> ClientResult<()> {
//!     let mut c = Client::connect("127.0.0.1:7070")?;
//!     let stmt = c.prepare("def output(x, y) : ProductPrice(x, y) and y > ?min")?;
//!     let rows = c.execute(&stmt, &Params::new().set("min", 15))?;
//!     println!("{rows}");
//!     c.transact("def insert(:Seen, x) : x = 1")?;
//!     Ok(())
//! }
//! ```

use crate::protocol::{
    read_frame_blocking, write_frame, ErrorKind, ErrorReply, Outcome, Request, Response,
    StatsReply, WireError, WireParams, PROTOCOL_VERSION,
};
use rel_core::{Relation, Tuple};
use rel_engine::{Params, WatchDelta};
use std::collections::VecDeque;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The connection died.
    Io(io::Error),
    /// The server sent bytes that violate the protocol.
    Protocol(String),
    /// The server answered with a typed error reply.
    Server(ErrorReply),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Io(e) => ClientError::Io(e),
            WireError::Protocol(msg) => ClientError::Protocol(msg),
        }
    }
}

impl ClientError {
    /// The typed kind, when the server answered with an error reply.
    pub fn kind(&self) -> Option<ErrorKind> {
        match self {
            ClientError::Server(e) => Some(e.kind),
            _ => None,
        }
    }

    /// Was this a `Busy` admission-control refusal (worth retrying)?
    pub fn is_busy(&self) -> bool {
        self.kind() == Some(ErrorKind::Busy)
    }
}

/// Result alias for client calls.
pub type ClientResult<T> = Result<T, ClientError>;

/// A prepared statement registered on the server, scoped to the
/// [`Client`] connection that created it.
#[derive(Clone, Debug)]
pub struct Statement {
    id: u32,
    params: Vec<String>,
}

impl Statement {
    /// The server-side statement id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The `?name` placeholders the statement expects, sorted.
    pub fn param_names(&self) -> &[String] {
        &self.params
    }
}

/// A server-side interactive transaction handle (connection-scoped id).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxnHandle(u32);

fn params_wire(params: &Params) -> WireParams {
    params.iter().map(|(n, r)| (n.to_string(), r.clone())).collect()
}

/// One connection to a `rel-server` (see module docs).
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    /// Pushed `Delta` frames that arrived while a reply was awaited —
    /// the only unsolicited frame in the protocol — keyed by watch id
    /// and drained in arrival order by [`Subscription::recv`].
    pending: VecDeque<(u64, WatchDelta)>,
}

impl Client {
    /// Connect and complete the version handshake. A server over its
    /// connection limit answers the handshake with
    /// [`ErrorKind::Busy`], surfaced as [`ClientError::Server`].
    pub fn connect(addr: impl ToSocketAddrs) -> ClientResult<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let mut client = Client { stream, pending: VecDeque::new() };
        match client.roundtrip(&Request::Hello { version: PROTOCOL_VERSION })? {
            Response::Hello { .. } => Ok(client),
            other => Err(unexpected("Hello", &other)),
        }
    }

    /// Read exactly one frame off the wire. A pushed `Delta` frame is
    /// stashed (it is never the answer to a request) and `None` is
    /// returned; anything else comes back to the caller.
    fn read_one(&mut self) -> ClientResult<Option<Response>> {
        let payload = read_frame_blocking(&mut self.stream)?.ok_or_else(|| {
            ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))
        })?;
        match Response::decode(&payload)? {
            Response::Delta { watch, seq, snapshot, added, removed } => {
                self.pending.push_back((watch, WatchDelta { seq, snapshot, added, removed }));
                Ok(None)
            }
            resp => Ok(Some(resp)),
        }
    }

    fn roundtrip(&mut self, req: &Request) -> ClientResult<Response> {
        write_frame(&mut self.stream, &req.encode())?;
        loop {
            match self.read_one()? {
                None => continue, // a push arrived first; keep waiting
                Some(Response::Error(e)) => return Err(ClientError::Server(e)),
                Some(resp) => return Ok(resp),
            }
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> ClientResult<()> {
        match self.roundtrip(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected("Pong", &other)),
        }
    }

    /// One-shot read: evaluate `src`, return its `output` relation.
    pub fn query(&mut self, src: &str) -> ClientResult<Relation> {
        match self.roundtrip(&Request::Query { src: src.to_string() })? {
            Response::Rows(rel) => Ok(rel),
            other => Err(unexpected("Rows", &other)),
        }
    }

    /// Compile `src` on the server and register it for this connection.
    pub fn prepare(&mut self, src: &str) -> ClientResult<Statement> {
        match self.roundtrip(&Request::Prepare { src: src.to_string() })? {
            Response::Prepared { stmt, params } => Ok(Statement { id: stmt, params }),
            other => Err(unexpected("Prepared", &other)),
        }
    }

    /// Drop a prepared statement from the server-side registry.
    pub fn close_stmt(&mut self, stmt: &Statement) -> ClientResult<()> {
        match self.roundtrip(&Request::CloseStmt { stmt: stmt.id })? {
            Response::Done => Ok(()),
            other => Err(unexpected("Done", &other)),
        }
    }

    /// Execute a prepared statement with `params` against the newest
    /// committed snapshot.
    pub fn execute(&mut self, stmt: &Statement, params: &Params) -> ClientResult<Relation> {
        let req = Request::Execute { stmt: stmt.id, params: params_wire(params) };
        match self.roundtrip(&req)? {
            Response::Rows(rel) => Ok(rel),
            other => Err(unexpected("Rows", &other)),
        }
    }

    /// Execute a prepared statement once per binding set, all on one
    /// snapshot; one result relation per set, in order.
    pub fn execute_many(
        &mut self,
        stmt: &Statement,
        batches: &[Params],
    ) -> ClientResult<Vec<Relation>> {
        let req = Request::ExecuteMany {
            stmt: stmt.id,
            batches: batches.iter().map(params_wire).collect(),
        };
        match self.roundtrip(&req)? {
            Response::RowsMany(rels) => Ok(rels),
            other => Err(unexpected("RowsMany", &other)),
        }
    }

    /// One-shot write: evaluate + commit `src` through the server's
    /// group-committing queue.
    pub fn transact(&mut self, src: &str) -> ClientResult<Outcome> {
        match self.roundtrip(&Request::Transact { src: src.to_string() })? {
            Response::Committed(o) => Ok(o),
            other => Err(unexpected("Committed", &other)),
        }
    }

    /// Open an interactive transaction on the server.
    pub fn begin(&mut self) -> ClientResult<TxnHandle> {
        match self.roundtrip(&Request::TxnBegin)? {
            Response::TxnBegun { txn } => Ok(TxnHandle(txn)),
            other => Err(unexpected("TxnBegun", &other)),
        }
    }

    /// Run a step inside an open transaction; returns the step's output.
    pub fn txn_run(&mut self, txn: TxnHandle, src: &str) -> ClientResult<Relation> {
        let req = Request::TxnRun { txn: txn.0, src: src.to_string() };
        match self.roundtrip(&req)? {
            Response::Rows(rel) => Ok(rel),
            other => Err(unexpected("Rows", &other)),
        }
    }

    /// Run a prepared statement as a transaction step.
    pub fn txn_run_prepared(
        &mut self,
        txn: TxnHandle,
        stmt: &Statement,
        params: &Params,
    ) -> ClientResult<Relation> {
        let req = Request::TxnRunPrepared {
            txn: txn.0,
            stmt: stmt.id,
            params: params_wire(params),
        };
        match self.roundtrip(&req)? {
            Response::Rows(rel) => Ok(rel),
            other => Err(unexpected("Rows", &other)),
        }
    }

    /// Stage raw tuples into a base relation inside an open transaction;
    /// returns how many the candidate actually changed.
    pub fn txn_stage_insert(
        &mut self,
        txn: TxnHandle,
        rel: &str,
        tuples: Vec<Tuple>,
    ) -> ClientResult<u64> {
        self.stage(txn, rel, false, tuples)
    }

    /// Stage raw tuple deletions inside an open transaction.
    pub fn txn_stage_delete(
        &mut self,
        txn: TxnHandle,
        rel: &str,
        tuples: Vec<Tuple>,
    ) -> ClientResult<u64> {
        self.stage(txn, rel, true, tuples)
    }

    fn stage(
        &mut self,
        txn: TxnHandle,
        rel: &str,
        deletes: bool,
        tuples: Vec<Tuple>,
    ) -> ClientResult<u64> {
        let req = Request::TxnStage { txn: txn.0, rel: rel.to_string(), deletes, tuples };
        match self.roundtrip(&req)? {
            Response::Staged { changed } => Ok(changed),
            other => Err(unexpected("Staged", &other)),
        }
    }

    /// Commit an open transaction through the group-commit queue.
    pub fn txn_commit(&mut self, txn: TxnHandle) -> ClientResult<Outcome> {
        match self.roundtrip(&Request::TxnCommit { txn: txn.0 })? {
            Response::Committed(o) => Ok(o),
            other => Err(unexpected("Committed", &other)),
        }
    }

    /// Abort an open transaction. Free.
    pub fn txn_abort(&mut self, txn: TxnHandle) -> ClientResult<()> {
        match self.roundtrip(&Request::TxnAbort { txn: txn.0 })? {
            Response::Done => Ok(()),
            other => Err(unexpected("Done", &other)),
        }
    }

    /// Read the server's observability surface: the engine's metrics
    /// registry, per-request-type latency, commit-queue and pool state.
    pub fn stats(&mut self) -> ClientResult<StatsReply> {
        match self.roundtrip(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// Register a standing query on the server. The first delivered
    /// batch is always the seq-0 initial snapshot of the query's output;
    /// every later commit that changes it pushes the exact added/removed
    /// rows. The subscription borrows the client exclusively — issue
    /// other requests after [`Subscription::unsubscribe`], or hold one
    /// dedicated `Client` per live feed.
    pub fn subscribe(&mut self, src: &str, params: &Params) -> ClientResult<Subscription<'_>> {
        let req = Request::Subscribe { src: src.to_string(), params: params_wire(params) };
        match self.roundtrip(&req)? {
            Response::Subscribed { watch } => Ok(Subscription { client: self, watch }),
            other => Err(unexpected("Subscribed", &other)),
        }
    }

    fn take_pending(&mut self, watch: u64) -> Option<WatchDelta> {
        let idx = self.pending.iter().position(|(w, _)| *w == watch)?;
        self.pending.remove(idx).map(|(_, d)| d)
    }

    /// Block until a frame for `watch` is available and return it.
    fn next_delta(&mut self, watch: u64) -> ClientResult<WatchDelta> {
        loop {
            if let Some(d) = self.take_pending(watch) {
                return Ok(d);
            }
            // Only pushes can legitimately arrive here: no request is
            // outstanding, so a non-Delta frame is a protocol violation.
            match self.read_one()? {
                None => {}
                Some(Response::Error(e)) => return Err(ClientError::Server(e)),
                Some(other) => return Err(unexpected("Delta", &other)),
            }
        }
    }

    /// Wait up to `timeout` for the *start* of an inbound frame, using
    /// `peek` so a timeout consumes nothing (the framing cannot desync);
    /// once the first byte is visible the full frame is read blocking.
    /// `Ok(false)` is a clean timeout.
    fn poll_frame(&mut self, timeout: Duration) -> ClientResult<bool> {
        // A zero read timeout is invalid at the socket layer; clamp up.
        self.stream.set_read_timeout(Some(timeout.max(Duration::from_millis(1))))?;
        let mut probe = [0u8; 1];
        let outcome = loop {
            match self.stream.peek(&mut probe) {
                Ok(0) => {
                    break Err(ClientError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    )))
                }
                Ok(_) => break Ok(true),
                Err(e)
                    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
                {
                    break Ok(false)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => break Err(ClientError::Io(e)),
            }
        };
        let _ = self.stream.set_read_timeout(None);
        outcome
    }

    fn next_delta_timeout(
        &mut self,
        watch: u64,
        timeout: Duration,
    ) -> ClientResult<Option<WatchDelta>> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if let Some(d) = self.take_pending(watch) {
                return Ok(Some(d));
            }
            // poll_frame clamps to ≥1ms, so even a zero budget makes one
            // immediate check (the `try_recv` case) before giving up.
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if !self.poll_frame(left)? {
                return Ok(None);
            }
            match self.read_one()? {
                None => {}
                Some(Response::Error(e)) => return Err(ClientError::Server(e)),
                Some(other) => return Err(unexpected("Delta", &other)),
            }
        }
    }
}

/// A live standing query on a [`Client`] (see [`Client::subscribe`]).
///
/// Delivery contract, end to end: batches arrive in commit order with
/// gapless per-watch sequence numbers starting at the seq-0 snapshot; a
/// subscriber that falls further behind than the server's watch buffer
/// is resynced with a coalescing snapshot batch (`snapshot = true`)
/// rather than dropped, so `WatchDelta::apply_to` over everything
/// received always reconstructs the query's current output.
#[derive(Debug)]
pub struct Subscription<'c> {
    client: &'c mut Client,
    watch: u64,
}

impl Subscription<'_> {
    /// The server-side watch id carried by this subscription's frames.
    pub fn id(&self) -> u64 {
        self.watch
    }

    /// Block until the next batch arrives. (Named after the in-process
    /// [`rel_engine::Watch::recv`], which it mirrors over the wire.)
    pub fn recv(&mut self) -> ClientResult<WatchDelta> {
        self.client.next_delta(self.watch)
    }

    /// The next batch if one is already buffered or immediately
    /// readable, without waiting.
    pub fn try_recv(&mut self) -> ClientResult<Option<WatchDelta>> {
        self.client.next_delta_timeout(self.watch, Duration::ZERO)
    }

    /// Wait up to `timeout` for the next batch; `Ok(None)` on timeout.
    pub fn recv_timeout(&mut self, timeout: Duration) -> ClientResult<Option<WatchDelta>> {
        self.client.next_delta_timeout(self.watch, timeout)
    }

    /// End the subscription and release the client for other requests.
    /// Batches pushed before the server processed the unsubscribe are
    /// discarded.
    pub fn unsubscribe(self) -> ClientResult<()> {
        let watch = self.watch;
        match self.client.roundtrip(&Request::Unsubscribe { watch })? {
            Response::Done => {
                self.client.pending.retain(|(w, _)| *w != watch);
                Ok(())
            }
            other => Err(unexpected("Done", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> ClientError {
    ClientError::Protocol(format!("expected {wanted} response, got {got:?}"))
}
