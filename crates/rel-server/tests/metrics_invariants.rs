//! Invariants of the observability layer, end to end:
//!
//! 1. registry counters are monotone across a randomized transaction
//!    stream (commits, aborts, reads, toggles);
//! 2. per-query profiles attribute at most the whole query wall to
//!    strata;
//! 3. results are byte-identical with metrics off, on, and toggled
//!    mid-stream;
//! 4. the `Stats` wire reply carries the engine registry faithfully —
//!    every counter read over the wire is bracketed by in-process
//!    snapshots taken around the request.
//!
//! The registry is process-global and these tests share one binary, so
//! every assertion is a one-sided bound (monotone / bracketed), never
//! an exact count.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rel_core::{tuple, Database, Relation, Tuple};
use rel_engine::metrics;
use rel_engine::{EngineConfig, Session};
use rel_server::{Client, Server, ServerConfig};

/// The metrics switch is process-wide: tests that set it take turns, or
/// one flips it off under another's feet.
static SWITCH: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn hold_switch() -> std::sync::MutexGuard<'static, ()> {
    SWITCH.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn seeded_db(n: i64) -> Database {
    let mut db = Database::new();
    db.set(
        "E",
        Relation::from_tuples((0..n).map(|i| tuple![i, (i + 1) % n]).collect::<Vec<Tuple>>()),
    );
    db
}

const TC: &str = "def TC(x, y) : E(x, y)\n\
                  def TC(x, y) : exists((z) | TC(x, z) and E(z, y))\n\
                  def output(x, y) : TC(x, y)";

/// Every named counter in `later` is >= its value in `earlier`.
fn assert_monotone(earlier: &metrics::MetricsSnapshot, later: &metrics::MetricsSnapshot) {
    for (name, before) in &earlier.counters {
        let after = later.get(name);
        assert!(
            after >= *before,
            "counter {name} went backwards: {before} -> {after}"
        );
    }
}

#[test]
fn counters_are_monotone_across_randomized_txn_stream() {
    let _switch = hold_switch();
    let mut s = Session::with_config(seeded_db(16), EngineConfig::from_env().metrics(true));
    let mut rng = StdRng::seed_from_u64(0x0b5e_7ab1);
    let mut last = metrics::registry().snapshot();
    let mut commits = 0u64;
    let mut aborts = 0u64;
    for step in 0..60 {
        match rng.gen_range(0..4) {
            0 => {
                let mut txn = s.begin();
                txn.stage_insert("E", tuple![100 + step, 200 + step]);
                txn.commit().unwrap();
                commits += 1;
            }
            1 => {
                let mut txn = s.begin();
                txn.stage_insert("E", tuple![300 + step, 400 + step]);
                txn.abort();
                aborts += 1;
            }
            2 => {
                s.query("def output(x) : exists((y) | E(x, y))").unwrap();
            }
            _ => {
                s.query_profiled(TC).unwrap();
            }
        }
        let now = metrics::registry().snapshot();
        assert_monotone(&last, &now);
        last = now;
    }
    // The stream's own commits/aborts are a floor on the global deltas.
    assert!(last.get("commits") >= commits);
    assert!(last.get("aborts") >= aborts);
}

#[test]
fn profile_strata_wall_never_exceeds_query_wall() {
    let s = Session::new(seeded_db(24));
    for _ in 0..5 {
        let (_, profile) = s.query_profiled(TC).unwrap();
        assert!(
            profile.strata_wall() <= profile.wall,
            "strata {:?} > wall {:?}\n{}",
            profile.strata_wall(),
            profile.wall,
            profile.render()
        );
    }
}

#[test]
fn results_are_identical_with_metrics_off_on_and_toggled() {
    let _switch = hold_switch();
    let queries = [
        "def output(x, y) : TC(x, y)",
        "def output(x) : exists((y) | E(x, y) and E(y, x))",
        "def output(x, z) : exists((y) | E(x, y) and E(y, z))",
    ];
    let program = |q: &str| format!("def TC(x, y) : E(x, y)\ndef TC(x, y) : exists((z) | TC(x, z) and E(z, y))\n{q}");
    let run = |metrics_on: &dyn Fn(usize) -> bool| -> Vec<Relation> {
        let s = Session::new(seeded_db(12));
        let mut out = Vec::new();
        for (i, q) in queries.iter().enumerate() {
            metrics::set_metrics(metrics_on(i));
            out.push(s.query(&program(q)).unwrap());
        }
        out
    };
    let off = run(&|_| false);
    let on = run(&|_| true);
    // Toggle between every query: flipping the switch mid-stream must
    // not perturb evaluation.
    let toggled = run(&|i| i % 2 == 0);
    rel_engine::metrics::set_metrics(false);
    assert_eq!(off, on, "metrics on changed query results");
    assert_eq!(off, toggled, "toggling metrics mid-stream changed query results");
}

#[test]
fn stats_over_wire_matches_in_process_registry() {
    let _switch = hold_switch();
    let session = Session::with_config(seeded_db(10), EngineConfig::from_env().metrics(true));
    let server = Server::start(session, ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    // Generate traffic so the surfaced counters and histograms move.
    for i in 0..5 {
        c.query("def output(x) : exists((y) | E(x, y))").unwrap();
        c.transact(&format!("def insert(:E, x, y) : x = {} and y = {}", 50 + i, 60 + i))
            .unwrap();
    }
    let before = metrics::registry().snapshot();
    let stats = c.stats().unwrap();
    let after = metrics::registry().snapshot();
    assert!(stats.metrics_enabled);
    assert!(stats.connections >= 1, "our own connection is open");
    assert!(
        stats.pool_generation >= 5,
        "each commit publishes a pool generation: {}",
        stats.pool_generation
    );
    // Engine registry counters travel verbatim: every wire value is
    // bracketed by the snapshots taken around the request (the registry
    // is monotone, so before <= wire <= after).
    for (name, lo) in &before.counters {
        let wire = stats
            .counter(name)
            .unwrap_or_else(|| panic!("engine counter {name} missing from Stats"));
        let hi = after.get(name);
        assert!(
            (*lo..=hi).contains(&wire),
            "counter {name}: wire value {wire} outside in-process bracket {lo}..={hi}"
        );
    }
    assert!(stats.counter("commits").unwrap() >= 5, "our transacts were counted");
    assert!(stats.counter("server.busy_rejections").is_some());
    // The serving layer's own instruments move with traffic.
    let group = stats.histogram("server.commit.group_size").expect("group-size histogram");
    assert!(group.count >= 5, "five commits passed the worker: {group:?}");
    assert!(group.max_us >= 1, "group sizes are at least one commit");
    let req = stats.histogram("server.request.query_us").expect("query latency histogram");
    assert!(req.count >= 5, "five queries were timed: {req:?}");
    assert!(stats.histogram("server.commit.fsync_wait_us").unwrap().count >= 1);
    assert!(stats.histogram("server.commit.queue_wait_us").unwrap().count >= 5);
    let rendered = stats.render();
    assert!(rendered.contains("commits"), "{rendered}");
    assert!(rendered.contains("server.request.query_us"), "{rendered}");
    rel_engine::metrics::set_metrics(false);
    drop(c);
    server.shutdown().unwrap();
}
