//! `serving_mix` — the wire path.
//!
//! **Open loop.** An in-process `Server::start` over a durable
//! `FsyncPolicy::Always` session, 2 client connections (one thread
//! each), a fixed total rate of [`RATE_PER_S`] requests per second: in
//! every block of ten requests, nine `Client::execute` of the prepared
//! point lookup with typed row decoding and one `Client::transact`
//! through the commit queue that inserts one row into a log relation and
//! deletes the row written [`WINDOW`] writes earlier on the same
//! connection. Latency runs from each request's due time; how late the
//! generator ran is reported.
//!
//! The log is a sliding window because a commit copies every relation it
//! touches: with an insert-only log the same load's `op_p50_ms` climbed
//! from 0.27 ms to 0.67 ms within 20 s, and a run's numbers depended on
//! how far into that climb it stopped. With the window the load is
//! stationary and the copy is a constant part of every write. Protocol
//! codec, pool checkout, commit queue, group commit and socket writes
//! dominate; engine execute is a small part of an op — kernel work must
//! not move these numbers.

use super::Workload;
use crate::harness::{self, ms, us, Ctx, Layers, OpLog, RegistryMark};
use crate::stats;
use crate::trace::Recorder;
use rand::rngs::StdRng;
use rand::Rng;
use rel_bench::programs::REPEATED_QUERY;
use rel_core::{tuple, Database, Relation};
use rel_engine::{Params, Session};
use rel_server::protocol::{self, Request, Response};
use rel_server::{Client, ErrorKind, Server, ServerConfig, SessionPool, Statement};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const ORDERS: usize = 2000;
const PRODUCTS: usize = 200;
/// Client connections, one driver thread each (≤ nproc on the 2-core box).
pub const CLIENTS: usize = 2;
/// Offered load, all connections together. The closed-loop ceiling of
/// the same mix on the reference box is 6,700 to 8,700 requests per second
/// (`server.closed_loop_rps`), so this is under half of it.
pub const RATE_PER_S: f64 = 3000.0;
/// Requests per schedule block; one of them is a write.
pub const BLOCK: usize = 10;
/// Rows each connection keeps in `ServeLog`: write `i` inserts row `i`
/// and deletes row `i - WINDOW`. Rows `-WINDOW+1..=0` are loaded up front.
pub const WINDOW: i64 = 500;
/// Warm-up requests per connection at the end of set-up.
const WARMUP_REQUESTS: usize = 300;
/// Schedule prefix the input fingerprint covers, per connection.
const FINGERPRINT_REQUESTS: usize = 4096;
/// Shares of the traced pass: open-loop traced requests, then the
/// closed-loop probe for the ceiling.
const TRACED_SHARE: f64 = 0.75;
/// Messages kept for the offline codec measurements.
const RECORDED_MESSAGES: usize = 4000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Read,
    Write,
}

/// One connection's seeded request schedule.
#[derive(Clone)]
pub struct Schedule {
    rng: StdRng,
    client: usize,
    in_block: usize,
    write_at: usize,
    /// Writes issued so far on this connection; with `client` it makes
    /// every inserted row (and every transact source) unique.
    pub writes: i64,
}

impl Schedule {
    pub fn new(seed: u64, client: usize) -> Self {
        Schedule {
            rng: harness::rng(seed, 50 + client as u64),
            client,
            in_block: BLOCK,
            write_at: 0,
            writes: 0,
        }
    }

    /// The next request: a read of some order, or the write of row
    /// `(client, serial)`.
    pub fn next_request(&mut self) -> (Kind, i64) {
        if self.in_block == BLOCK {
            self.in_block = 0;
            self.write_at = self.rng.gen_range(0..BLOCK);
        }
        let kind = if self.in_block == self.write_at {
            Kind::Write
        } else {
            Kind::Read
        };
        self.in_block += 1;
        match kind {
            Kind::Read => (kind, self.rng.gen_range(0..ORDERS as i64)),
            Kind::Write => {
                self.writes += 1;
                (kind, self.writes)
            }
        }
    }
}

fn write_source(client: usize, serial: i64) -> String {
    format!(
        "def insert(:ServeLog, c, i) : c = {client} and i = {serial}\n\
         def delete(:ServeLog, c, i) : c = {client} and i = {}",
        serial - WINDOW
    )
}

/// One connection with its prepared statement, schedule and the writes
/// the server acknowledged on it.
struct Conn {
    client: Client,
    stmt: Statement,
    schedule: Schedule,
    acked: Vec<(i64, i64)>,
}

impl Conn {
    /// One request as a user issues it. `Busy`, any error and wrong rows
    /// are failures.
    fn request(&mut self, kind: Kind, arg: i64, expected: &[Relation]) -> Result<(), String> {
        match kind {
            Kind::Read => {
                let params = Params::new().set("order", arg);
                let rows = self
                    .client
                    .execute(&self.stmt, &params)
                    .map_err(|e| format!("read {arg}: {e}"))?;
                let typed: Vec<(i64, i64, i64)> =
                    rows.rows().map_err(|e| format!("read {arg}: {e}"))?;
                if rows != expected[arg as usize] || typed.len() != rows.len() {
                    return Err(format!("read {arg}: got {rows}"));
                }
            }
            Kind::Write => {
                let c = self.schedule.client;
                let outcome = self
                    .client
                    .transact(&write_source(c, arg))
                    .map_err(|e| format!("write {c}/{arg}: {e}"))?;
                if (outcome.inserted, outcome.deleted) != (1, 1) {
                    return Err(format!(
                        "write {c}/{arg}: inserted {}, deleted {}",
                        outcome.inserted, outcome.deleted
                    ));
                }
                self.acked.push((c as i64, arg));
            }
        }
        Ok(())
    }
}

pub struct ServingMix {
    server: Option<Server>,
    conns: Vec<Conn>,
    dir: PathBuf,
    base: Database,
    /// Expected rows per order, computed natively.
    expected: Vec<Relation>,
    fingerprint: u32,
}

impl Drop for ServingMix {
    fn drop(&mut self) {
        self.conns.clear();
        if let Some(server) = self.server.take() {
            let _ = server.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Pace one connection's open loop: request `k` is due at `k × interval`
/// after `start`. Calls `issue(k, due)` for every request due before
/// `seconds`, sleeping while the next one is not due yet, and returns how
/// late each was issued.
fn open_loop(start: Instant, seconds: f64, mut issue: impl FnMut(Duration)) -> Vec<f64> {
    let interval = Duration::from_secs_f64(CLIENTS as f64 / RATE_PER_S);
    let horizon = Duration::from_secs_f64(seconds);
    let mut lag_ms = Vec::new();
    for k in 0u32.. {
        let due = interval * k;
        if due >= horizon {
            break;
        }
        if let Some(wait) = due.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        lag_ms.push(ms(start.elapsed().saturating_sub(due)));
        issue(due);
    }
    lag_ms
}

impl Workload for ServingMix {
    const NAME: &'static str = "serving_mix";
    const SEED1_FINGERPRINT: u32 = 0x04bd_398e;

    fn setup(ctx: &Ctx) -> Self {
        let mut rng = harness::rng(ctx.seed, 5);
        let orders =
            rel_bench::OrderWorkload::generate(ORDERS, PRODUCTS, rng.gen_range(0..u64::MAX));
        let base = orders.db;

        let expected = harness::priced_lines_by_order(&base, ORDERS);

        let schedules: Vec<Schedule> = (0..CLIENTS).map(|c| Schedule::new(ctx.seed, c)).collect();
        let schedule_bytes: Vec<u8> = schedules
            .iter()
            .flat_map(|s| {
                let mut head = s.clone();
                (0..FINGERPRINT_REQUESTS)
                    .flat_map(|_| {
                        let (kind, arg) = head.next_request();
                        [(kind == Kind::Write) as u8, arg as u8, (arg >> 8) as u8]
                    })
                    .collect::<Vec<u8>>()
            })
            .collect();
        let mut schedule_bytes = schedule_bytes;
        schedule_bytes.extend_from_slice(&WINDOW.to_le_bytes());
        let fingerprint = harness::input_fingerprint(&base, &schedule_bytes);

        let dir = harness::scratch_dir("serving_mix");
        let mut session = Session::open_with(&dir, harness::engine_config(false))
            .expect("the durable store opens")
            .with_library(&rel_stdlib::full_library());
        assert!(session.is_durable(), "serving_mix needs a durable session");
        // The log's window is full from the start, so its size never moves.
        let mut loaded = base.clone();
        for c in 0..CLIENTS as i64 {
            for i in 1 - WINDOW..=0 {
                loaded.insert("ServeLog", tuple![c, i]);
            }
        }
        harness::load_as_one_commit(&mut session, &loaded);
        let server = Server::start(session, server_config()).expect("the server starts");
        let addr = server.addr();
        let conns = schedules
            .into_iter()
            .map(|schedule| {
                let mut client = Client::connect(addr).expect("client connects");
                let stmt = client
                    .prepare(REPEATED_QUERY)
                    .expect("the point lookup prepares");
                Conn {
                    client,
                    stmt,
                    schedule,
                    acked: Vec::new(),
                }
            })
            .collect();
        let mut w = ServingMix {
            server: Some(server),
            conns,
            dir,
            base,
            expected,
            fingerprint,
        };
        for conn in &mut w.conns {
            for _ in 0..WARMUP_REQUESTS {
                let (kind, arg) = conn.schedule.next_request();
                conn.request(kind, arg, &w.expected)
                    .expect("warm-up request succeeds");
            }
        }
        w
    }

    fn fingerprint(&self) -> u32 {
        self.fingerprint
    }

    fn timed_pass(&mut self, seconds: f64) -> OpLog {
        let expected = &self.expected;
        let start = Instant::now();
        let mut log = OpLog::default();
        std::thread::scope(|scope| {
            let threads: Vec<_> = self
                .conns
                .iter_mut()
                .map(|conn| {
                    scope.spawn(move || {
                        let mut log = OpLog::default();
                        open_loop(start, seconds, |due| {
                            let (kind, arg) = conn.schedule.next_request();
                            let issued = start.elapsed();
                            let outcome = conn.request(kind, arg, expected);
                            let done = start.elapsed();
                            log.busy += done - issued;
                            log.record(
                                done.as_nanos() as u64,
                                done.saturating_sub(due).as_nanos() as u64,
                                outcome,
                            );
                        });
                        log
                    })
                })
                .collect();
            for t in threads {
                log.merge(t.join().expect("client thread ends without panicking"));
            }
        });
        // Offered load stops at `seconds`; the pass ends with the last reply.
        log.wall = start.elapsed();
        log
    }

    fn traced_pass(&mut self, seconds: f64, rec: &mut Recorder, layers: &mut Layers) -> (u64, u64) {
        let mark = RegistryMark::now();
        let addr = self.server.as_ref().expect("server is running").addr();
        let expected = &self.expected;
        let epoch = Instant::now();
        let start = Instant::now();
        let mut traced: Vec<TracedConn> = Vec::new();
        std::thread::scope(|scope| {
            let threads: Vec<_> = self
                .conns
                .iter_mut()
                .map(|conn| {
                    scope.spawn(move || {
                        let mut t = TracedConn::connect(addr, epoch);
                        t.lag_ms = open_loop(start, seconds * TRACED_SHARE, |due| {
                            let (kind, arg) = conn.schedule.next_request();
                            t.request(start, due, kind, arg, conn, expected);
                        });
                        t
                    })
                })
                .collect();
            traced.extend(
                threads
                    .into_iter()
                    .map(|t| t.join().expect("client thread ends without panicking")),
            );
        });

        let mut all = TracedConn::empty(epoch);
        for t in traced {
            all.absorb(t, rec);
        }
        let writes = all.transact_ms.len() as u64;
        stats::sort(&mut all.execute_ms);
        stats::sort(&mut all.transact_ms);
        stats::sort(&mut all.lag_ms);
        layers.set(
            "client.execute_p50_ms",
            stats::percentile(&all.execute_ms, 0.50),
        );
        layers.set(
            "client.execute_p95_ms",
            stats::percentile(&all.execute_ms, 0.95),
        );
        layers.set(
            "client.transact_p50_ms",
            stats::percentile(&all.transact_ms, 0.50),
        );
        layers.set(
            "client.transact_p95_ms",
            stats::percentile(&all.transact_ms, 0.95),
        );
        layers.set(
            "client.sched_lag_p95_ms",
            stats::percentile(&all.lag_ms, 0.95),
        );
        layers.set(
            "client.busy_share",
            all.busy as f64 / all.attempted.max(1) as f64,
        );
        layers.set(
            "server.fsyncs_per_commit",
            mark.since("fsyncs") as f64 / writes.max(1) as f64,
        );

        // Offline: the recorded message mix through the codec, both ways.
        let mean = |bytes: &[Vec<u8>]| {
            bytes.iter().map(Vec::len).sum::<usize>() as f64 / bytes.len().max(1) as f64
        };
        layers.set("protocol.bytes_per_req", mean(&all.requests));
        layers.set("protocol.bytes_per_resp", mean(&all.responses));
        let mut codec_us = 0.0;
        for payload in &all.requests {
            let (req, took) = harness::timed(|| Request::decode(payload));
            layers.sample("protocol.decode_req_us", us(took));
            if let Ok(req) = req {
                layers.sample(
                    "protocol.encode_req_us",
                    us(harness::timed(|| req.encode()).1),
                );
            }
        }
        for payload in &all.responses {
            let (resp, took) = harness::timed(|| Response::decode(payload));
            layers.sample("protocol.decode_resp_us", us(took));
            if let Ok(resp) = resp {
                layers.sample(
                    "protocol.encode_resp_us",
                    us(harness::timed(|| resp.encode()).1),
                );
            }
        }
        for name in [
            "protocol.encode_req_us",
            "protocol.decode_req_us",
            "protocol.encode_resp_us",
            "protocol.decode_resp_us",
        ] {
            codec_us += stats::median(layers.samples_of(name));
        }

        // Offline: an idle pool's checkout, and the same reads executed
        // in process, on an ephemeral image of the served database.
        let image = Session::with_config(self.base.clone(), harness::engine_config(true))
            .with_library(&rel_stdlib::full_library());
        let pool = SessionPool::new(&image, server_config().pool);
        for _ in 0..1000 {
            layers.sample(
                "pool.checkout_us",
                us(harness::timed(|| pool.with(|_| ())).1),
            );
        }
        let prepared = image
            .prepare(REPEATED_QUERY)
            .expect("the point lookup prepares");
        let mut in_process_ms = Vec::new();
        for &order in all.read_orders.iter().take(RECORDED_MESSAGES) {
            let params = Params::new().set("order", order);
            in_process_ms.push(ms(harness::timed(|| {
                prepared.execute_with(&image, &params)
            })
            .1));
        }
        layers.set(
            "server.wire_overhead_ms",
            stats::median(&all.read_roundtrip_ms) - stats::median(&in_process_ms) - codec_us / 1e3,
        );

        // The ceiling: the same mix closed loop on the same connections.
        let probe_seconds = seconds * (1.0 - TRACED_SHARE);
        let mut done = 0u64;
        let probe_start = Instant::now();
        std::thread::scope(|scope| {
            let threads: Vec<_> = self
                .conns
                .iter_mut()
                .map(|conn| {
                    scope.spawn(move || {
                        let mut done = 0u64;
                        while probe_start.elapsed().as_secs_f64() < probe_seconds {
                            let (kind, arg) = conn.schedule.next_request();
                            done += conn.request(kind, arg, expected).is_ok() as u64;
                        }
                        done
                    })
                })
                .collect();
            for t in threads {
                done += t.join().expect("probe thread ends without panicking");
            }
        });
        layers.set(
            "server.closed_loop_rps",
            done as f64 / probe_start.elapsed().as_secs_f64(),
        );
        (all.attempted, all.failed)
    }

    fn finish(mut self, _layers: Option<&mut Layers>) -> Vec<String> {
        let mut errors = Vec::new();
        let acked: Vec<(i64, i64)> = self
            .conns
            .iter()
            .flat_map(|c| c.acked.iter().copied())
            .collect();
        self.conns.clear();
        let session = match self.server.take().expect("server is running").shutdown() {
            Ok(session) => session,
            Err(e) => return vec![format!("server shutdown failed: {e}")],
        };
        let committed = session.db().clone();
        drop(session);
        match Session::open_with(&self.dir, harness::engine_config(false)) {
            Ok(reopened) => {
                if *reopened.db() != committed {
                    errors.push("the reopened store differs from the served database".to_string());
                }
                // Every acknowledged write still inside its connection's
                // window must be there, and nothing else.
                let empty = Relation::new();
                let log = reopened.db().get("ServeLog").unwrap_or(&empty);
                let mut newest = [0i64; CLIENTS];
                for &(c, i) in &acked {
                    newest[c as usize] = newest[c as usize].max(i);
                }
                let missing = acked
                    .iter()
                    .filter(|&&(c, i)| {
                        i > newest[c as usize] - WINDOW && !log.contains(&tuple![c, i])
                    })
                    .count();
                if missing > 0 || log.len() != CLIENTS * WINDOW as usize {
                    errors.push(format!(
                        "{missing} of {} acknowledged writes are missing after reopen ({} rows logged, {} expected)",
                        acked.len(),
                        log.len(),
                        CLIENTS * WINDOW as usize
                    ));
                }
                for (name, rel) in self.base.iter() {
                    if reopened.db().get(name) != Some(rel) {
                        errors.push(format!("{name} changed under a read-only load"));
                    }
                }
            }
            Err(e) => errors.push(format!("reopen after shutdown failed: {e}")),
        }
        errors
    }
}

/// Every server knob, spelled out (never read from the environment).
fn server_config() -> ServerConfig {
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

/// The traced pass's client: the same requests over the same protocol,
/// but through the public codec and framing functions one call at a
/// time, so each gets its own span (encode → round trip → decode).
struct TracedConn {
    stream: Option<TcpStream>,
    stmt: u32,
    rec: Recorder,
    attempted: u64,
    failed: u64,
    busy: u64,
    execute_ms: Vec<f64>,
    transact_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    /// Round-trip spans of reads: service time, without generator lag.
    read_roundtrip_ms: Vec<f64>,
    read_orders: Vec<i64>,
    requests: Vec<Vec<u8>>,
    responses: Vec<Vec<u8>>,
}

impl TracedConn {
    fn empty(epoch: Instant) -> Self {
        TracedConn {
            stream: None,
            stmt: 0,
            rec: Recorder::new(epoch),
            attempted: 0,
            failed: 0,
            busy: 0,
            execute_ms: Vec::new(),
            transact_ms: Vec::new(),
            lag_ms: Vec::new(),
            read_roundtrip_ms: Vec::new(),
            read_orders: Vec::new(),
            requests: Vec::new(),
            responses: Vec::new(),
        }
    }

    fn connect(addr: SocketAddr, epoch: Instant) -> Self {
        let mut t = TracedConn::empty(epoch);
        let stream = TcpStream::connect(addr).expect("traced client connects");
        let _ = stream.set_nodelay(true);
        t.stream = Some(stream);
        match t.roundtrip(
            &Request::Hello {
                version: rel_server::PROTOCOL_VERSION,
            }
            .encode(),
        ) {
            Ok(Response::Hello { .. }) => {}
            other => panic!("handshake failed: {other:?}"),
        }
        match t.roundtrip(
            &Request::Prepare {
                src: REPEATED_QUERY.to_string(),
            }
            .encode(),
        ) {
            Ok(Response::Prepared { stmt, .. }) => t.stmt = stmt,
            other => panic!("prepare failed: {other:?}"),
        }
        t
    }

    fn exchange(&mut self, payload: &[u8]) -> Result<Vec<u8>, String> {
        let stream = self.stream.as_mut().expect("connected");
        protocol::write_frame(stream, payload).map_err(|e| e.to_string())?;
        match protocol::read_frame_blocking(stream) {
            Ok(Some(bytes)) => Ok(bytes),
            Ok(None) => Err("server closed the connection".to_string()),
            Err(e) => Err(format!("{e:?}")),
        }
    }

    fn roundtrip(&mut self, payload: &[u8]) -> Result<Response, String> {
        let bytes = self.exchange(payload)?;
        Response::decode(&bytes).map_err(|e| format!("{e:?}"))
    }

    fn request(
        &mut self,
        start: Instant,
        due: Duration,
        kind: Kind,
        arg: i64,
        conn: &mut Conn,
        expected: &[Relation],
    ) {
        self.rec.set_op(self.attempted);
        self.attempted += 1;
        let op = self.rec.enter("op");
        let (payload, _) = self.rec.leaf("protocol.encode_req", || match kind {
            Kind::Read => Request::Execute {
                stmt: self.stmt,
                params: Params::new()
                    .set("order", arg)
                    .iter()
                    .map(|(n, r)| (n.to_string(), r.clone()))
                    .collect(),
            }
            .encode(),
            Kind::Write => Request::Transact {
                src: write_source(conn.schedule.client, arg),
            }
            .encode(),
        });
        let trip = self.rec.enter("client.roundtrip");
        let reply = self.exchange(&payload);
        let trip_ms = ms(self.rec.exit(trip));
        let (outcome, _) = self.rec.leaf("protocol.decode_resp", || {
            let bytes = reply.as_ref().map_err(Clone::clone)?;
            match (kind, Response::decode(bytes).map_err(|e| format!("{e:?}"))?) {
                (Kind::Read, Response::Rows(rows)) => {
                    let typed: Vec<(i64, i64, i64)> = rows.rows().map_err(|e| e.to_string())?;
                    (rows == expected[arg as usize] && typed.len() == rows.len())
                        .then_some(())
                        .ok_or(format!("read {arg}: got {rows}"))
                }
                (Kind::Write, Response::Committed(o)) if (o.inserted, o.deleted) == (1, 1) => {
                    Ok(())
                }
                (_, Response::Error(e)) if e.kind == ErrorKind::Busy => Err("busy".to_string()),
                (_, other) => Err(format!("{kind:?} {arg}: unexpected reply {other:?}")),
            }
        });
        self.rec.exit(op);
        let latency_ms = ms(start.elapsed().saturating_sub(due));
        match &outcome {
            Ok(()) => match kind {
                Kind::Read => {
                    self.execute_ms.push(latency_ms);
                    self.read_roundtrip_ms.push(trip_ms);
                    self.read_orders.push(arg);
                }
                Kind::Write => {
                    self.transact_ms.push(latency_ms);
                    conn.acked.push((conn.schedule.client as i64, arg));
                }
            },
            Err(why) => {
                self.failed += 1;
                self.busy += (why == "busy") as u64;
                eprintln!("benchmark: failed traced op: {why}");
            }
        }
        if self.requests.len() < RECORDED_MESSAGES / CLIENTS {
            self.requests.push(payload);
            self.responses.extend(reply.ok());
        }
    }

    fn absorb(&mut self, other: TracedConn, rec: &mut Recorder) {
        rec.merge(other.rec);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.busy += other.busy;
        self.execute_ms.extend(other.execute_ms);
        self.transact_ms.extend(other.transact_ms);
        self.lag_ms.extend(other.lag_ms);
        self.read_roundtrip_ms.extend(other.read_roundtrip_ms);
        self.read_orders.extend(other.read_orders);
        self.requests.extend(other.requests);
        self.responses.extend(other.responses);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_keeps_its_mix() {
        let requests = |seed, client| {
            let mut s = Schedule::new(seed, client);
            (0..10_000).map(|_| s.next_request()).collect::<Vec<_>>()
        };
        assert_eq!(requests(2, 0), requests(2, 0));
        assert_ne!(requests(2, 0), requests(2, 1));
        assert_ne!(requests(2, 0), requests(3, 0));
        let r = requests(2, 0);
        let writes: Vec<i64> = r
            .iter()
            .filter(|(k, _)| *k == Kind::Write)
            .map(|&(_, a)| a)
            .collect();
        assert_eq!(writes.len(), r.len() / BLOCK, "exactly one write per block");
        assert_eq!(
            writes,
            (1..=writes.len() as i64).collect::<Vec<_>>(),
            "write serials never repeat"
        );
        assert!(r
            .iter()
            .all(|&(k, a)| k == Kind::Write || (0..ORDERS as i64).contains(&a)));
    }
}
