//! # rel-server
//!
//! A concurrent TCP server (and client library) for the Rel engine:
//! many clients multiplexed onto shared [`rel_engine::Session`]s over a
//! small length-prefixed binary protocol.
//!
//! The paper presents Rel as the language of a *cloud-native relational
//! service* — clients reach the database over the network, not by
//! linking the engine. This crate is that serving layer for the
//! in-process API built so far:
//!
//! * [`protocol`] — the wire format: `[len][crc][payload]` frames
//!   (the WAL's framing discipline, reusing `rel_core::codec`), typed
//!   requests/responses mirroring the v2 API, and typed error kinds;
//! * [`pool`] — [`pool::SessionPool`]: bounded checkout of ephemeral
//!   read replicas over the latest committed CoW snapshot;
//! * [`server`] — [`Server`]: accept loop, per-connection statement and
//!   transaction registries, admission control, graceful shutdown, and
//!   the commit queue whose worker coalesces concurrent commits into
//!   one fsync per group ([`rel_engine::Session::begin_commit_group`]);
//! * [`client`] — [`Client`]: the blocking client used by the
//!   `rel connect` CLI subcommand and the repo benchmark's `serving_mix`
//!   workload; [`Client::subscribe`] turns a query into a live feed of
//!   [`WatchDelta`] push frames (`rel_engine::Session::watch` over the
//!   wire).
//!
//! The `REL_SERVER_*` environment knobs ([`ServerConfig::from_env`])
//! are listed in the consolidated switch table in the `rel-engine`
//! crate docs. See this crate's `README.md` for a wire-protocol sketch.
//!
//! ## In-process quickstart
//!
//! ```
//! use rel_core::database::figure1_database;
//! use rel_server::{Client, Server, ServerConfig};
//!
//! let server = Server::start(
//!     rel_stdlib::with_stdlib(figure1_database()),
//!     ServerConfig::default(), // 127.0.0.1, free port
//! )
//! .unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//! let rows = client
//!     .query("def output(y) : exists((x) | PaymentOrder(x, y))")
//!     .unwrap();
//! assert_eq!(rows.len(), 3);
//! let session = server.shutdown().unwrap();
//! assert!(!session.is_durable());
//! ```

pub mod client;
pub mod pool;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientError, ClientResult, Statement, Subscription, TxnHandle};
pub use pool::SessionPool;
pub use protocol::{ErrorKind, ErrorReply, Outcome, StatsReply, MAX_FRAME, PROTOCOL_VERSION};
pub use rel_engine::WatchDelta;
pub use server::{Server, ServerConfig};
