//! The slow-query log (`REL_SLOW_QUERY_MS`) on the one read path: an
//! armed log profiles every ad hoc query and every prepared execute, and
//! a profiled read runs on the same stratum scheduler as a plain one.
//!
//! The environment is resolved once per process and the metrics registry
//! is process-global, so these checks live in a binary of their own, arm
//! the log before anything reads the environment, and run one at a time.

use rel::core::tuple;
use rel::engine::{eval_threads, metrics};
use rel::prelude::*;
use std::sync::{Mutex, MutexGuard, Once};

/// Two independent closures: two recursive strata the scheduler can
/// evaluate at once, and an `output` stratum reading both.
const TWO_CLOSURES: &str = "def TC1(x, y) : E1(x, y)\n\
                            def TC1(x, y) : exists((z) | TC1(x, z) and E1(z, y))\n\
                            def TC2(x, y) : E2(x, y)\n\
                            def TC2(x, y) : exists((z) | TC2(x, z) and E2(z, y))\n\
                            def output(x, y) : TC1(x, y) or TC2(x, y)";

/// Arm the log at 0 ms (every read crosses it) and turn metrics on, once
/// per process, then hold the lock that keeps counter deltas exact.
fn armed() -> MutexGuard<'static, ()> {
    static ARM: Once = Once::new();
    static SERIAL: Mutex<()> = Mutex::new(());
    ARM.call_once(|| {
        std::env::set_var("REL_SLOW_QUERY_MS", "0");
        metrics::set_metrics(true);
    });
    assert_eq!(metrics::slow_query_ms(), Some(0), "armed before the environment was read");
    SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn session() -> Session {
    let chain = |base: i64| Relation::from_tuples((0..30).map(|i| tuple![base + i, base + i + 1]));
    let mut db = Database::new();
    db.set("E1", chain(0));
    db.set("E2", chain(100));
    Session::new(db)
}

#[test]
fn a_logged_query_is_counted_and_keeps_the_parallel_scheduler() {
    let _serial = armed();
    let s = session();
    let r = metrics::registry();
    let (slow, spawns) = (r.slow_queries.get(), r.scheduler_spawns.get());
    let rows = s.query(TWO_CLOSURES).unwrap();
    assert_eq!(rows.len(), 2 * 30 * 31 / 2, "both closures of a 30-edge chain");
    assert_eq!(r.slow_queries.get() - slow, 1, "the query crossed a 0 ms threshold once");
    if eval_threads() > 1 {
        assert!(
            r.scheduler_spawns.get() > spawns,
            "a logged query of two independent strata must run on the parallel scheduler"
        );
    }
}

#[test]
fn a_logged_prepared_execute_is_counted() {
    let _serial = armed();
    let s = session();
    let q = s.prepare(TWO_CLOSURES).unwrap();
    let slow = metrics::registry().slow_queries.get();
    let rows = q.execute(&s).unwrap();
    assert_eq!(rows.len(), 2 * 30 * 31 / 2, "both closures of a 30-edge chain");
    let logged = metrics::registry().slow_queries.get() - slow;
    assert_eq!(logged, 1, "the prepared execute crossed a 0 ms threshold once");
}

#[test]
fn a_logged_execute_many_counts_every_binding() {
    let _serial = armed();
    let s = session();
    let q = s.prepare("def output(x, y) : E1(x, y) and x = ?from").unwrap();
    let r = metrics::registry();
    let (slow, samples) = (r.slow_queries.get(), r.query_us.snapshot().count);
    let batches: Vec<Params> = (0..5i64).map(|i| Params::new().set("from", i)).collect();
    let outs = q.execute_many(&s, &batches).unwrap();
    assert!(outs.iter().all(|rows| rows.len() == 1), "one edge from each start: {outs:?}");
    assert_eq!(r.slow_queries.get() - slow, 5, "each binding crossed a 0 ms threshold once");
    assert_eq!(r.query_us.snapshot().count - samples, 5, "one query_us sample per binding");
}
