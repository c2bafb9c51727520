//! The library state is part of the database: a commit maintains the
//! installed library once, whoever reads it afterwards, and a read
//! re-runs only the constraints its own source declares.
//!
//! Every assertion here is an **exact** registry count, so this suite
//! has an integration binary to itself and its tests take turns (the
//! registry is process-wide).

use rel_core::{tuple, Database, RelError, Relation, Tuple};
use rel_engine::metrics::{self, MetricsSnapshot};
use rel_engine::{materialize_with_threads, Params, Prepared, Session, SharedIndexCache};
use std::sync::{Mutex, MutexGuard, PoisonError};

static TURN: Mutex<()> = Mutex::new(());

fn take_turn() -> MutexGuard<'static, ()> {
    let guard = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    metrics::set_metrics(true);
    guard
}

/// What `f` added to each of the named registry counters.
fn counted<T>(names: &[&str], f: impl FnOnce() -> T) -> (Vec<u64>, T) {
    let before: MetricsSnapshot = metrics::registry().snapshot();
    let out = f();
    let after = metrics::registry().snapshot();
    (names.iter().map(|n| after.get(n) - before.get(n)).collect(), out)
}

const WORK: [&str; 4] = ["strata_delta_restarted", "strata_recomputed", "index_builds", "env_rules"];

/// The `txn_stream` benchmark's library: a closure, two constraints, and
/// a revenue view outside the closure's cone.
const LIBRARY: &str = "\
def TC(x, y) : E(x, y)
def TC(x, y) : exists((z) | E(x, z) and TC(z, y))
ic closed(x, y) requires E(x, y) implies TC(x, y)
ic no_loop(x) requires not E(x, x)
def Ord(o) : Line(o, _, _)
def LineAmount(o, l, a) : exists((p) | Line(o, l, p) and Price(p, a))
def Rev(o, v) : Ord(o) and v = sum[LineAmount[o]]
def sum[{A}] : reduce[add, A]
";
const INSERT_EDGE: &str = "def insert(:E, x, y) : x = ?src and y = ?dst";
const WATCHED: &str = "def output(y) : exists((x) | x = ?src and TC(x, y))";

/// A 6-cycle with chords (deleting a chord leaves `TC` as it was) and a
/// tail 6 → 7 → 8 hanging off it (deleting a tail edge shrinks `TC`).
fn stream_session() -> (Session, Prepared, Prepared) {
    stream_session_with(LIBRARY)
}

fn stream_session_with(library: &str) -> (Session, Prepared, Prepared) {
    let mut db = Database::new();
    for i in 0..6i64 {
        db.insert("E", tuple![i, (i + 1) % 6]);
        db.insert("E", tuple![i, (i + 2) % 6]);
    }
    db.insert("E", tuple![0, 6]);
    db.insert("E", tuple![6, 7]);
    db.insert("E", tuple![7, 8]);
    for (o, l, p) in [(1, 1, 1), (1, 2, 2), (2, 3, 1)] {
        db.insert("Line", tuple![o, l, p]);
    }
    db.insert("Price", tuple![1, 10]);
    db.insert("Price", tuple![2, 25]);
    let s = Session::new(db).with_library(library);
    let insert = s.prepare(INSERT_EDGE).unwrap();
    let watched = s.prepare(WATCHED).unwrap();
    (s, insert, watched)
}

fn edge_params(u: i64, v: i64) -> Params {
    Params::new().set("src", u).set("dst", v)
}

fn closure(s: &Session) -> Relation {
    s.eval("", "TC").unwrap()
}

#[test]
fn a_commit_maintains_the_library_once_per_delta() {
    let _turn = take_turn();
    let (mut s, insert, watched) = stream_session();
    let watch = s.watch(&watched, &Params::new().set("src", 0)).unwrap();
    assert_eq!(watch.try_recv().unwrap().added.len(), 9, "0 reaches everything");
    let drained = |rows: usize| {
        let got: usize = std::iter::from_fn(|| watch.try_recv())
            .map(|d| d.added.len() + d.removed.len())
            .sum();
        assert_eq!(got, rows, "watch rows pushed by the commit");
    };

    // One edge through the prepared step: one delta restart of TC, and
    // of the strata recomputed none is the library's (the step's own
    // `insert` under its new parameters, the watch's own `output`).
    let mut insert_edge = |u, v| {
        counted(&WORK, || {
            let mut txn = s.begin();
            txn.run_prepared(&insert, &edge_params(u, v)).unwrap();
            txn.commit().unwrap()
        })
        .0
    };
    insert_edge(8, 9);
    let work = insert_edge(9, 10);
    assert_eq!(work[..3], [1, 2, 0], "insert commit: {work:?}");
    drained(2);

    // Three chords deleted: TC recomputes once and lands on its old
    // value, so the old relation stays and the watch is not even asked.
    let before = closure(&s);
    let (work, _) = counted(&WORK, || {
        let mut txn = s.begin();
        for i in 0..3i64 {
            assert!(txn.stage_delete("E", &tuple![i, i + 2]));
        }
        txn.commit().unwrap()
    });
    assert_eq!(work[..3], [0, 1, 0], "chord delete: {work:?}");
    assert!(closure(&s).shares_storage(&before), "TC did not change and must not be replaced");
    drained(0);

    // Three tail edges deleted: one recompute of TC, one of the watch's
    // `output` on top of it.
    let (work, _) = counted(&WORK, || {
        let mut txn = s.begin();
        for e in [tuple![7, 8], tuple![8, 9], tuple![9, 10]] {
            assert!(txn.stage_delete("E", &e));
        }
        txn.commit().unwrap()
    });
    assert_eq!(work[..3], [0, 2, 0], "tail delete: {work:?}");
    drained(3);

    // An order line: the revenue cone (Ord, LineAmount, the `sum`
    // instance, Rev) and nothing of TC's, whose two constraints keep
    // their verdict without running a rule — the commit runs exactly the
    // rules it runs under a library that declares no constraint at all.
    let line_commit = |s: &mut Session, line: Tuple| {
        counted(&WORK, || {
            let mut txn = s.begin();
            assert!(txn.stage_insert("Line", line));
            txn.commit().unwrap()
        })
        .0
    };
    let unconstrained: String = LIBRARY.lines().filter(|l| !l.starts_with("ic ")).collect::<Vec<_>>().join("\n");
    let mut twin = stream_session_with(&unconstrained).0;
    twin.query("def output(o, v) : Rev(o, v)").unwrap();
    let before = closure(&s);
    let work = line_commit(&mut s, tuple![2, 4, 2]);
    assert_eq!(work[..3], [0, 4, 0], "out-of-cone commit: {work:?}");
    assert_eq!(work, line_commit(&mut twin, tuple![2, 4, 2]), "constraints ran on an out-of-cone commit");
    assert!(closure(&s).shares_storage(&before));
    drained(0);
    assert_eq!(s.eval("", "Rev").unwrap(), Relation::from_tuples([tuple![1, 35], tuple![2, 35]]));

    // A self-loop aborts on `no_loop`; its candidate library state goes
    // with it, so the next (out-of-cone) commit finds TC current.
    let mut txn = s.begin();
    txn.run_prepared(&insert, &edge_params(3, 3)).unwrap();
    let err = txn.commit().unwrap_err();
    assert!(matches!(&err, RelError::ConstraintViolation { name, .. } if name == "no_loop"), "{err}");
    let work = line_commit(&mut s, tuple![3, 5, 1]);
    assert_eq!(work, line_commit(&mut twin, tuple![3, 5, 1]), "commit after an abort");
    assert_eq!(work[..3], [0, 4, 0], "commit after an abort: {work:?}");
    assert!(closure(&s).shares_storage(&before));

    // And the maintained closure is the from-scratch one.
    let module = rel_sema::compile(LIBRARY).unwrap();
    let scratch = rel_engine::materialize(&module, s.db()).unwrap();
    let rows = |r: &Relation| r.iter().cloned().collect::<Vec<Tuple>>();
    assert_eq!(rows(&closure(&s)), rows(&scratch["TC"]));
}

#[test]
fn a_repeated_read_evaluates_nothing() {
    let _turn = take_turn();
    let (s, _, watched) = stream_session();
    let src = "def output(x, y) : TC(x, y) and x = 6";
    let first = s.query(src).unwrap();
    // The library's constraints were checked when its state was derived;
    // the query declares none, so the second read runs no rule at all.
    let (work, again) = counted(&WORK, || s.query(src).unwrap());
    assert_eq!(work, [0, 0, 0, 0], "repeated ad hoc read: {work:?}");
    assert!(again.shares_storage(&first));
    let params = Params::new().set("src", 6);
    watched.execute_with(&s, &params).unwrap();
    let (work, _) = counted(&WORK, || watched.execute_with(&s, &params).unwrap());
    assert_eq!(work, [0, 0, 0, 0], "repeated prepared read: {work:?}");
    // A constraint the query itself declares is the one thing re-run.
    let own = "def output(x) : E(x, _)\nic small(x) requires E(x, _) implies x < 100";
    s.query(own).unwrap();
    let (work, _) = counted(&WORK, || s.query(own).unwrap());
    assert_eq!(work, [0, 0, 0, 1], "own constraint only: {work:?}");
}

#[test]
fn a_prepared_execute_after_an_ad_hoc_query_finds_everything_warm() {
    let _turn = take_turn();
    let (s, _, watched) = stream_session();
    watched.execute_with(&s, &Params::new().set("src", 0)).unwrap();
    for (i, src) in [1i64, 6, 7].into_iter().enumerate() {
        // A new binding: the query's own `output` is recomputed over the
        // shared TC by probing its sorted rows.
        let params = Params::new().set("src", src);
        let (rows, profile) = watched.execute_with_profiled(&s, &params).unwrap();
        assert!(!rows.is_empty());
        assert_eq!(profile.totals().index_builds, 0, "{}", profile.render());
        let evaluated: Vec<&str> =
            profile.strata.iter().flat_map(|st| st.preds.iter().map(String::as_str)).collect();
        assert_eq!(evaluated, ["output"], "no library stratum may run: {}", profile.render());
        // A source text the module cache has never seen, reading TC — and
        // the prepared query right after it is pure reuse.
        s.query(&format!("def output(y) : TC({src}, y) and y != {}", 100 + i)).unwrap();
        let (work, _) = counted(&WORK, || watched.execute_with(&s, &params).unwrap());
        assert_eq!(work, [0, 0, 0, 0], "prepared execute after an ad hoc query: {work:?}");
    }
}

#[test]
fn violated_library_constraints_still_surface_on_reads() {
    let _turn = take_turn();
    let violated = |r: Result<Relation, RelError>, ic: &str| match r {
        Err(RelError::ConstraintViolation { name, .. }) => assert_eq!(name, ic),
        other => panic!("expected {ic} to be violated, got {other:?}"),
    };
    // A session opened over data that already violates the library.
    let mut db = Database::new();
    db.insert("E", tuple![1, 1]);
    let mut s = Session::new(db).with_library(LIBRARY);
    let q = s.prepare("def output(x) : E(x, _)").unwrap();
    violated(s.query("def output(x) : E(x, _)"), "no_loop");
    violated(q.execute(&s), "no_loop");
    assert!(s.watch(&q, &Params::new()).is_err());
    assert_eq!(s.watch_count(), 0);
    // Repaired, then broken again, behind the session's back.
    s.db_mut().get_mut("E").remove(&tuple![1, 1]);
    s.db_mut().insert("E", tuple![1, 2]);
    assert_eq!(q.execute(&s).unwrap().len(), 1);
    s.db_mut().insert("E", tuple![2, 2]);
    violated(q.execute(&s), "no_loop");
    s.db_mut().get_mut("E").remove(&tuple![2, 2]);
    assert_eq!(q.execute(&s).unwrap().len(), 1);
    // A constraint installed later judges the data already there.
    s.install_library("ic sparse(x) requires E(x, _) implies x > 5\n");
    violated(s.query("def output(x) : E(x, _)"), "sparse");
    // Direct staging cannot slip past the library either.
    let mut s = Session::new(Database::new()).with_library(LIBRARY);
    let mut txn = s.begin();
    txn.stage_insert("E", tuple![4, 4]);
    violated(txn.commit().map(|o| o.output), "no_loop");
    assert!(!s.db().defines("E"));
}

#[test]
fn a_run_with_one_stratum_to_evaluate_spawns_no_workers() {
    let _turn = take_turn();
    let mut db = Database::new();
    db.insert("E", tuple![1, 2]);
    let spawns = ["scheduler_spawns"];
    // One stratum (plus, with a library, its demand-driven helpers).
    let one = rel_sema::compile("def output(x) : E(x, _)").unwrap();
    let (n, _) = counted(&spawns, || {
        materialize_with_threads(&one, &db, SharedIndexCache::default(), 4).unwrap()
    });
    assert_eq!(n, [0]);
    let s = Session::new(db.clone()).with_library("def abs[x] : maximum[x, 0 - x]\n");
    let (n, rows) = counted(&spawns, || s.query("def output(x) : E(x, _) and abs[x] > 0").unwrap());
    assert_eq!((n, rows.len()), (vec![0], 1));
    // Independent strata still go to the scheduler.
    let two = rel_sema::compile("def A(x) : E(x, _)\ndef B(y) : E(_, y)").unwrap();
    let (n, _) = counted(&spawns, || {
        materialize_with_threads(&two, &db, SharedIndexCache::default(), 4).unwrap()
    });
    assert_eq!(n, [1]);
}
