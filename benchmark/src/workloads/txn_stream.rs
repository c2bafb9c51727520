//! `txn_stream` — the write path.
//!
//! Closed loop, 1 thread, embedded **durable** session
//! (`Session::open_with`, `FsyncPolicy::Always`, scratch directory under
//! the build's target directory) whose library holds `TC` over `E`, the
//! constraints `closed` and `no_loop`, and a revenue-per-order view
//! outside `TC`'s cone; one in-process `Session::watch` on a `TC`-derived
//! query is drained after every commit. A seeded schedule of blocks of 20
//! transactions keeps |E| stationary: 12 insert one edge through a
//! prepared step, 4 `stage_delete` three edges, 3 insert one order line
//! (out of `TC`'s cone), 1 inserts a self-loop and must abort on
//! `no_loop`. One op is one transaction, begin to commit. Afterwards the
//! store is dropped and reopened, compacted, dropped and reopened again.
//!
//! Same evaluation layer as the report workloads, used for writes:
//! `op_p50_ms` is the delta-seeded semi-naive restart + constraint
//! re-check + WAL append + fsync of an insert, `op_p95_ms` is the delete
//! path that recomputes whole strata.

use super::Workload;
use crate::harness::{self, closed_loop, ms, us, Ctx, Layers, OpLog, RegistryMark};
use crate::stats;
use crate::trace::Recorder;
use rand::rngs::StdRng;
use rand::Rng;
use rel_core::database::Delta;
use rel_core::{codec, tuple, Database, RelError, Relation, Tuple};
use rel_engine::{Params, Prepared, Session, Watch};
use std::collections::HashSet;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const LIBRARY: &str = "\
def TC(x, y) : E(x, y)
def TC(x, y) : exists((z) | E(x, z) and TC(z, y))
ic closed(x, y) requires E(x, y) implies TC(x, y)
ic no_loop(x) requires not E(x, x)
def Ord(o) : Line(o, _, _)
def LineAmount(o, l, a) : exists((p) | Line(o, l, p) and Price(p, a))
def Rev[o in Ord] : sum[LineAmount[o]] <++ 0
";
const INSERT_EDGE: &str = "def insert(:E, x, y) : x = ?src and y = ?dst";
/// The standing query: what one vertex reaches.
const WATCHED: &str = "def output(y) : exists((x) | x = ?src and TC(x, y))";
/// The whole closure, maintained incrementally by the session and
/// recomputed from scratch for the final check.
const CLOSURE: &str = "def output(x, y) : TC(x, y)";

/// Edge graph: vertices, average degree, shape seed.
const EDGE_GRAPH: (usize, f64, u64) = (120, 3.0, 77);
const ORDERS: usize = 1000;
const PRODUCTS: usize = 100;
/// Transactions per schedule block and how many of each kind.
pub const BLOCK: usize = 20;
pub const INSERTS: usize = 12;
pub const DELETES: usize = 4;
pub const LINES: usize = 3;
const EDGES_PER_DELETE: usize = 3;
/// Warm-up blocks at the end of set-up.
const WARMUP_BLOCKS: usize = 2;
/// Schedule prefix the input fingerprint covers, in blocks.
const FINGERPRINT_BLOCKS: usize = 200;
/// Share of the traced pass spent on the ephemeral twin.
const EPHEMERAL_SHARE: f64 = 0.25;

#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Txn {
    Insert(u32, u32),
    Delete([(u32, u32); EDGES_PER_DELETE]),
    Line(i64, i64, i64),
    /// Insert the self-loop `(v, v)`: `no_loop` must abort it.
    Violate(u32),
}

/// The seeded schedule, and the harness's own model of the database it
/// leads to: `edges`/`lines` hold what the transactions handed out so far
/// commit.
#[derive(Clone)]
pub struct Schedule {
    rng: StdRng,
    vertices: u32,
    /// The edge set as of the end of the block being handed out; blocks
    /// are generated whole, so this runs ahead of `edges`.
    planned: Vec<(u32, u32)>,
    planned_set: HashSet<(u32, u32)>,
    pub edges: HashSet<(u32, u32)>,
    pub lines: Vec<(i64, i64, i64)>,
    next_line: i64,
    block: Vec<Txn>,
}

impl Schedule {
    pub fn new(
        seed: u64,
        edges: Vec<(u32, u32)>,
        vertices: u32,
        lines: Vec<(i64, i64, i64)>,
    ) -> Self {
        let next_line = lines.iter().map(|l| l.1).max().unwrap_or(0) + 1;
        let set: HashSet<(u32, u32)> = edges.iter().copied().collect();
        Schedule {
            rng: harness::rng(seed, 41),
            vertices,
            planned_set: set.clone(),
            planned: edges,
            edges: set,
            lines,
            next_line,
            block: Vec::new(),
        }
    }

    fn fresh_edge(&mut self) -> (u32, u32) {
        loop {
            let e = (
                self.rng.gen_range(0..self.vertices),
                self.rng.gen_range(0..self.vertices),
            );
            if e.0 != e.1 && self.planned_set.insert(e) {
                self.planned.push(e);
                return e;
            }
        }
    }

    fn drop_edge(&mut self) -> (u32, u32) {
        let at = self.rng.gen_range(0..self.planned.len());
        let e = self.planned.swap_remove(at);
        self.planned_set.remove(&e);
        e
    }

    fn plan_block(&mut self) {
        let mut kinds: Vec<u8> = [
            vec![0; INSERTS],
            vec![1; DELETES],
            vec![2; LINES],
            vec![3; BLOCK - INSERTS - DELETES - LINES],
        ]
        .concat();
        for i in (1..kinds.len()).rev() {
            kinds.swap(i, self.rng.gen_range(0..=i));
        }
        for kind in kinds {
            let txn = match kind {
                0 => {
                    let (u, v) = self.fresh_edge();
                    Txn::Insert(u, v)
                }
                1 => Txn::Delete([self.drop_edge(), self.drop_edge(), self.drop_edge()]),
                2 => {
                    let order = self.rng.gen_range(0..ORDERS as i64);
                    let product = self.rng.gen_range(0..PRODUCTS as i64);
                    self.next_line += 1;
                    Txn::Line(order, self.next_line - 1, product)
                }
                _ => Txn::Violate(self.rng.gen_range(0..self.vertices)),
            };
            self.block.push(txn);
        }
        // Planned in schedule order; `pop` takes from the back.
        self.block.reverse();
    }

    /// The next transaction; the model now includes what it commits.
    pub fn next_txn(&mut self) -> Txn {
        if self.block.is_empty() {
            self.plan_block();
        }
        let txn = self.block.pop().expect("block was just planned");
        match &txn {
            Txn::Insert(u, v) => {
                self.edges.insert((*u, *v));
            }
            Txn::Delete(es) => es.iter().for_each(|e| {
                self.edges.remove(e);
            }),
            Txn::Line(o, l, p) => self.lines.push((*o, *l, *p)),
            Txn::Violate(_) => {}
        }
        txn
    }
}

fn edge(e: (u32, u32)) -> Tuple {
    tuple![e.0 as i64, e.1 as i64]
}

/// The net delta a committed transaction logs, rebuilt by the harness
/// for the standalone WAL and codec measurements.
fn delta_of(txn: &Txn) -> Option<Delta> {
    let mut d = Delta::default();
    match txn {
        Txn::Insert(u, v) => d
            .inserts
            .entry(rel_core::name("E"))
            .or_default()
            .push(edge((*u, *v))),
        Txn::Delete(es) => d
            .deletes
            .entry(rel_core::name("E"))
            .or_default()
            .extend(es.iter().map(|&e| edge(e))),
        Txn::Line(o, l, p) => d
            .inserts
            .entry(rel_core::name("Line"))
            .or_default()
            .push(tuple![*o, *l, *p]),
        Txn::Violate(_) => return None,
    }
    Some(d)
}

/// One session with everything a transaction needs prepared.
struct Store {
    session: Session,
    insert: Prepared,
}

impl Store {
    fn load(mut session: Session, base: &Database) -> Store {
        harness::load_as_one_commit(&mut session, base);
        let insert = session
            .prepare(INSERT_EDGE)
            .expect("the insert step prepares");
        Store { session, insert }
    }

    /// Run one transaction as a user would: begin, stage, commit. Returns
    /// begin/stage/commit times and whether the outcome was the expected
    /// one (an abort the schedule expects counts only if the error is the
    /// `no_loop` violation).
    fn run(&mut self, txn: &Txn) -> ([Duration; 3], Result<(), String>) {
        let edge_params = |u: u32, v: u32| Params::new().set("src", u as i64).set("dst", v as i64);
        let t0 = Instant::now();
        let mut handle = self.session.begin();
        let t1 = Instant::now();
        let staged: Result<usize, RelError> = match txn {
            Txn::Insert(u, v) => handle
                .run_prepared(&self.insert, &edge_params(*u, *v))
                .map(|_| 1),
            Txn::Violate(v) => handle
                .run_prepared(&self.insert, &edge_params(*v, *v))
                .map(|_| 1),
            Txn::Delete(es) => Ok(es
                .iter()
                .filter(|&&e| handle.stage_delete("E", &edge(e)))
                .count()),
            Txn::Line(o, l, p) => Ok(handle.stage_insert("Line", tuple![*o, *l, *p]) as usize),
        };
        let t2 = Instant::now();
        let committed = handle.commit();
        let t3 = Instant::now();
        let outcome = match (txn, staged, committed) {
            (_, Err(e), _) => Err(format!("{txn:?}: staging failed: {e}")),
            (Txn::Violate(_), _, Err(RelError::ConstraintViolation { name, .. }))
                if name == "no_loop" =>
            {
                Ok(())
            }
            (Txn::Violate(_), _, other) => {
                Err(format!("{txn:?}: expected a no_loop abort, got {other:?}"))
            }
            (Txn::Delete(_), Ok(n), Ok(o)) if n == EDGES_PER_DELETE && o.deleted == n => Ok(()),
            (Txn::Insert(..) | Txn::Line(..), Ok(1), Ok(o)) if o.inserted == 1 => Ok(()),
            (_, staged, committed) => {
                Err(format!("{txn:?}: staged {staged:?}, commit {committed:?}"))
            }
        };
        ([t1 - t0, t2 - t1, t3 - t2], outcome)
    }
}

pub struct TxnStream {
    store: Option<Store>,
    dir: PathBuf,
    seed: u64,
    base: Database,
    schedule: Schedule,
    watch: Option<Watch>,
    watched: Prepared,
    watch_params: Params,
    /// The watch's deltas folded together.
    mirror: Relation,
    closure: Prepared,
    fingerprint: u32,
}

impl TxnStream {
    fn drain_watch(&mut self) -> (u64, u64, u64) {
        let (mut deltas, mut rows, mut resyncs) = (0, 0, 0);
        while let Some(d) = self.watch.as_ref().and_then(Watch::try_recv) {
            deltas += 1;
            rows += (d.added.len() + d.removed.len()) as u64;
            resyncs += d.snapshot as u64;
            self.mirror = d.apply_to(&self.mirror);
        }
        (deltas, rows, resyncs)
    }

    fn op(&mut self) -> (Duration, Result<(), String>) {
        let txn = self.schedule.next_txn();
        let (parts, outcome) = self.store.as_mut().expect("store is open").run(&txn);
        self.drain_watch();
        (parts.iter().sum(), outcome)
    }

    fn base_schedule(seed: u64, base: &Database, vertices: u32) -> Schedule {
        let edges = base
            .get("E")
            .expect("generated")
            .rows::<(i64, i64)>()
            .expect("int pairs");
        let lines = base
            .get("Line")
            .expect("generated")
            .rows::<(i64, i64, i64)>()
            .expect("int triples");
        Schedule::new(
            seed,
            edges
                .into_iter()
                .map(|(u, v)| (u as u32, v as u32))
                .collect(),
            vertices,
            lines,
        )
    }
}

impl Drop for TxnStream {
    fn drop(&mut self) {
        self.watch = None;
        self.store = None;
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn library() -> String {
    format!("{}\n{LIBRARY}", rel_stdlib::full_library())
}

impl Workload for TxnStream {
    const NAME: &'static str = "txn_stream";
    const SEED1_FINGERPRINT: u32 = 0xef59_2ccc;

    fn setup(ctx: &Ctx) -> Self {
        let mut rng = harness::rng(ctx.seed, 4);
        let (n, deg, shape) = EDGE_GRAPH;
        let graph = harness::relabelled_graph(n, deg, shape, &mut rng);
        let orders =
            rel_bench::OrderWorkload::generate(ORDERS, PRODUCTS, rng.gen_range(0..u64::MAX));
        let mut base = orders.db;
        base.set("E", rel_graph::gen::edge_relation(&graph));
        let hub = rng.gen_range(0..n as i64);

        let schedule = Self::base_schedule(ctx.seed, &base, n as u32);
        let mut head = schedule.clone();
        let schedule_bytes = format!(
            "{:?}",
            (0..FINGERPRINT_BLOCKS * BLOCK)
                .map(|_| head.next_txn())
                .collect::<Vec<_>>()
        );
        let fingerprint = harness::input_fingerprint(&base, schedule_bytes.as_bytes());

        let dir = harness::scratch_dir("txn_stream");
        let session = Session::open_with(&dir, harness::engine_config(false))
            .expect("the durable store opens")
            .with_library(&library());
        assert!(session.is_durable(), "txn_stream needs a durable session");
        let store = Store::load(session, &base);
        let watched = store
            .session
            .prepare(WATCHED)
            .expect("the standing query prepares");
        let closure = store
            .session
            .prepare(CLOSURE)
            .expect("the closure query prepares");
        closure
            .execute(&store.session)
            .expect("the closure evaluates");
        let watch_params = Params::new().set("src", hub);
        let watch = store
            .session
            .watch(&watched, &watch_params)
            .expect("the watch registers");
        let mut w = TxnStream {
            store: Some(store),
            dir,
            seed: ctx.seed,
            base,
            schedule,
            watch: Some(watch),
            watched,
            watch_params,
            mirror: Relation::new(),
            closure,
            fingerprint,
        };
        w.drain_watch();
        for _ in 0..WARMUP_BLOCKS * BLOCK {
            let (_, outcome) = w.op();
            outcome.expect("warm-up transaction ends as scheduled");
        }
        w
    }

    fn fingerprint(&self) -> u32 {
        self.fingerprint
    }

    fn timed_pass(&mut self, seconds: f64) -> OpLog {
        closed_loop(seconds, || self.op())
    }

    fn traced_pass(&mut self, seconds: f64, rec: &mut Recorder, layers: &mut Layers) -> (u64, u64) {
        let mark = RegistryMark::now();
        let budget = Duration::from_secs_f64(seconds * (1.0 - EPHEMERAL_SHARE));
        let start = Instant::now();
        let (mut attempted, mut failed, mut commits, mut aborts) = (0u64, 0u64, 0u64, 0u64);
        let (mut deltas, mut delta_rows, mut resyncs) = (0u64, 0u64, 0u64);
        let mut logged: Vec<Delta> = Vec::new();
        let mut insert_commit_ms = Vec::new();
        while start.elapsed() < budget {
            let txn = self.schedule.next_txn();
            rec.set_op(attempted);
            let op = rec.enter("op");
            // The transaction borrows the session for its whole life, so
            // its three calls are timed inside `Store::run` and the spans
            // are laid over the measured intervals afterwards.
            let (parts, outcome) = self.store.as_mut().expect("store is open").run(&txn);
            for (name, part) in ["txn.begin", "txn.stage", "txn.commit"]
                .into_iter()
                .zip(parts)
            {
                rec.reported_child(name, part);
            }
            let ((d, r, s), receiving) = rec.leaf("watch.recv", || self.drain_watch());
            rec.exit(op);
            attempted += 1;
            (deltas, delta_rows, resyncs) = (deltas + d, delta_rows + r, resyncs + s);
            if d > 0 {
                layers.sample("watch.recv_us", us(receiving) / d as f64);
            }
            if let Err(why) = outcome {
                eprintln!("benchmark: failed traced op: {why}");
                failed += 1;
                continue;
            }
            layers.sample("txn.stage_ms", ms(parts[1]));
            match &txn {
                Txn::Violate(_) => aborts += 1,
                other => {
                    commits += 1;
                    layers.sample("txn.commit_ms", ms(parts[2]));
                    let class = match other {
                        Txn::Insert(..) => "txn.commit_insert_ms",
                        Txn::Delete(..) => "txn.commit_delete_ms",
                        _ => "txn.commit_outofcone_ms",
                    };
                    layers.sample(class, ms(parts[2]));
                    if matches!(other, Txn::Insert(..)) {
                        insert_commit_ms.push(ms(parts[2]));
                    }
                    logged.extend(delta_of(other));
                }
            }
        }

        let per_commit = |n: u64| n as f64 / commits.max(1) as f64;
        layers.set(
            "txn.expected_abort_share",
            aborts as f64 / attempted.max(1) as f64,
        );
        layers.set(
            "incremental.reused_per_commit",
            per_commit(mark.since("strata_reused")),
        );
        layers.set(
            "incremental.delta_restarted_per_commit",
            per_commit(mark.since("strata_delta_restarted")),
        );
        layers.set(
            "incremental.recomputed_per_commit",
            per_commit(mark.since("strata_recomputed")),
        );
        let wal_bytes = mark.since("wal_bytes");
        layers.set("wal.bytes_per_commit", per_commit(wal_bytes));
        layers.set("wal.fsyncs_per_commit", per_commit(mark.since("fsyncs")));
        layers.set("watch.deltas", deltas as f64);
        layers.set(
            "watch.rows_per_delta",
            delta_rows as f64 / deltas.max(1) as f64,
        );
        layers.set("watch.resyncs", resyncs as f64);
        layers.set("session.prepare_ms", {
            let store = self.store.as_ref().expect("store is open");
            ms(harness::timed(|| store.session.prepare("def output(x) : E(x, _)")).1)
        });
        mark.cache_ratios(layers);

        // The same deltas through a standalone WAL and the codec.
        let replay_dir = harness::scratch_dir("txn_stream-wal");
        let mut wal = rel_engine::wal::WalWriter::open(&replay_dir, 0, 1, &harness::DURABILITY)
            .expect("standalone WAL opens");
        let mut user_bytes = 0u64;
        let mut buf = Vec::new();
        for delta in &logged {
            let (appended, took) = harness::timed(|| wal.append(delta));
            appended.expect("standalone WAL append succeeds");
            layers.sample("wal.append_ms", ms(took));
            buf.clear();
            let (_, took) = harness::timed(|| codec::encode_delta(delta, &mut buf));
            layers.sample("codec.encode_delta_us", us(took));
            for t in delta
                .inserts
                .values()
                .chain(delta.deletes.values())
                .flatten()
            {
                buf.clear();
                codec::encode_tuple(t, &mut buf);
                user_bytes += buf.len() as u64;
            }
        }
        drop(wal);
        let _ = std::fs::remove_dir_all(&replay_dir);
        layers.set("wal.write_amp", wal_bytes as f64 / user_bytes.max(1) as f64);

        // The same stream on an ephemeral twin: what durability adds to
        // an insert's commit.
        let mut twin = Store::load(
            Session::with_config(Database::new(), harness::engine_config(true))
                .with_library(&library()),
            &self.base,
        );
        let mut schedule = Self::base_schedule(self.seed, &self.base, EDGE_GRAPH.0 as u32);
        let mut twin_insert_ms = Vec::new();
        let budget = Duration::from_secs_f64(seconds * EPHEMERAL_SHARE);
        let start = Instant::now();
        while start.elapsed() < budget {
            let txn = schedule.next_txn();
            let (parts, outcome) = twin.run(&txn);
            if outcome.is_ok() && matches!(txn, Txn::Insert(..)) {
                twin_insert_ms.push(ms(parts[2]));
            }
        }
        layers.set(
            "durability.overhead_ms",
            stats::median(&insert_commit_ms) - stats::median(&twin_insert_ms),
        );
        (attempted, failed)
    }

    fn finish(mut self, layers: Option<&mut Layers>) -> Vec<String> {
        let mut errors = Vec::new();
        self.drain_watch();
        let store = self.store.take().expect("store is open");
        let session = store.session;

        // 1. The committed database against the harness's model.
        let model_edges: Relation = self.schedule.edges.iter().map(|&e| edge(e)).collect();
        let model_lines: Relation = self
            .schedule
            .lines
            .iter()
            .map(|&(o, l, p)| tuple![o, l, p])
            .collect();
        if session.db().get("E") != Some(&model_edges) {
            errors.push("E differs from the model the schedule kept".to_string());
        }
        if session.db().get("Line") != Some(&model_lines) {
            errors.push("Line differs from the model the schedule kept".to_string());
        }

        // 2. The incrementally maintained closure against a from-scratch
        //    materialization of the same program.
        let scratch = rel_sema::compile(&format!("{}\n{CLOSURE}", library()))
            .and_then(|module| rel_engine::materialize(&module, session.db()))
            .map(|rels| rels.get("output").cloned().unwrap_or_default());
        match (self.closure.execute(&session), scratch) {
            (Ok(incremental), Ok(scratch)) if incremental == scratch => {}
            (Ok(i), Ok(s)) => errors.push(format!(
                "incremental closure has {} pairs, from scratch {}",
                i.len(),
                s.len()
            )),
            (i, s) => errors.push(format!(
                "closure check failed to evaluate: {:?} / {:?}",
                i.err(),
                s.err()
            )),
        }

        // 3. The folded watch mirror against a fresh query.
        match self.watched.execute_with(&session, &self.watch_params) {
            Ok(fresh) if fresh == self.mirror => {}
            Ok(fresh) => errors.push(format!(
                "watch mirror has {} rows, a fresh query {}",
                self.mirror.len(),
                fresh.len()
            )),
            Err(e) => errors.push(format!("watched query failed: {e}")),
        }

        // 4. Drop and reopen (WAL replay), compact, drop and reopen again
        //    (snapshot load): the committed state must come back each time.
        let committed = session.db().clone();
        self.watch = None;
        drop(session);
        let replayed = rel_engine::recovery::recover(&self.dir)
            .map(|r| r.replayed)
            .unwrap_or(0);
        let (reopened, open_took) =
            harness::timed(|| Session::open_with(&self.dir, harness::engine_config(false)));
        match reopened {
            Ok(session) => {
                if *session.db() != committed {
                    errors.push(
                        "the store reopened after a plain drop differs from the committed state"
                            .to_string(),
                    );
                }
                let (compacted, compact_took) = harness::timed(|| session.compact_now());
                if !matches!(compacted, Ok(true)) {
                    errors.push(format!("compact_now: {compacted:?}"));
                }
                let snapshot_bytes: u64 = rel_engine::snapshot::candidates(&self.dir)
                    .unwrap_or_default()
                    .iter()
                    .filter_map(|(_, path)| std::fs::metadata(path).ok())
                    .map(|m| m.len())
                    .sum();
                drop(session);
                match Session::open_with(&self.dir, harness::engine_config(false)) {
                    Ok(session) if *session.db() == committed => {}
                    Ok(_) => errors.push(
                        "the store reopened after compaction differs from the committed state"
                            .to_string(),
                    ),
                    Err(e) => errors.push(format!("reopen after compaction failed: {e}")),
                }
                if let Some(layers) = layers {
                    layers.set("recovery.open_ms", ms(open_took));
                    layers.set("recovery.records_replayed", replayed as f64);
                    layers.set("snapshot.compact_ms", ms(compact_took));
                    layers.set("snapshot.bytes", snapshot_bytes as f64);
                }
            }
            Err(e) => errors.push(format!("reopen after a plain drop failed: {e}")),
        }
        errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(seed: u64) -> Schedule {
        let edges: Vec<(u32, u32)> = (0..60).map(|i| (i, (i + 1) % 60)).collect();
        Schedule::new(seed, edges, 60, vec![(0, 0, 0)])
    }

    #[test]
    fn schedule_is_seeded_keeps_its_mix_and_stays_stationary() {
        let txns = |seed| {
            let mut s = schedule(seed);
            (0..50 * BLOCK).map(|_| s.next_txn()).collect::<Vec<_>>()
        };
        assert_eq!(txns(8), txns(8));
        assert_ne!(txns(8), txns(9));
        let mut s = schedule(8);
        for _ in 0..50 {
            let block: Vec<Txn> = (0..BLOCK).map(|_| s.next_txn()).collect();
            let count = |f: fn(&Txn) -> bool| block.iter().filter(|t| f(t)).count();
            assert_eq!(count(|t| matches!(t, Txn::Insert(..))), INSERTS);
            assert_eq!(count(|t| matches!(t, Txn::Delete(..))), DELETES);
            assert_eq!(count(|t| matches!(t, Txn::Line(..))), LINES);
            assert_eq!(count(|t| matches!(t, Txn::Violate(..))), 1);
            // 12 edges in, 4 × 3 out: |E| is back where it started.
            assert_eq!(s.edges.len(), 60);
        }
        assert_eq!(s.lines.len(), 1 + 50 * LINES);
    }
}
