//! Randomized (seeded) incremental-vs-full equivalence: random programs
//! with recursion, negation, and aggregation, hit with random insert
//! **and delete** deltas, must produce **byte-identical** relation state
//! through the incremental engine ([`rel_engine::materialize_incremental`]
//! and the session/transaction wiring) and through full
//! re-materialization (`REL_INCREMENTAL=0` / `EngineConfig::incremental(false)`).
//!
//! Byte-identical means the flattened `(name, ordered tuples)` listing
//! matches exactly — relations are sorted sets, so set equality is order
//! equality. Each round also cross-checks the 4-worker parallel scheduler
//! (`materialize_with_threads(…, 4)`), and the whole suite runs again
//! under the CI matrix's `REL_EVAL_THREADS=4` and `REL_INCREMENTAL=0`
//! legs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rel_core::{Database, Name, Relation, Tuple, Value};
use rel_engine::{
    materialize_incremental, materialize_with_cache, materialize_with_threads, EngineConfig, PreState,
    Session,
    SharedIndexCache,
};
use std::collections::BTreeMap;

const DOMAIN: i64 = 9;

fn random_edges(rng: &mut StdRng) -> Relation {
    let len = rng.gen_range(4..28);
    let mut rel = Relation::new();
    for _ in 0..len {
        rel.insert(Tuple::from(vec![
            Value::int(rng.gen_range(0..DOMAIN)),
            Value::int(rng.gen_range(0..DOMAIN)),
        ]));
    }
    rel
}

/// Random multi-stratum program over `n_base` binary base relations:
/// unions, joins, transitive closures (recursive monotone strata),
/// differences (negation), and aggregation roll-ups, plus a sink reading
/// everything. Same shape as the `parallel_determinism` generator.
fn random_program(rng: &mut StdRng, n_base: usize, n_derived: usize) -> (String, Database) {
    let mut db = Database::new();
    let mut sources: Vec<String> = Vec::new();
    for b in 0..n_base {
        let name = format!("E{b}");
        db.set(&name, random_edges(rng));
        sources.push(name);
    }
    let mut src = String::from("def agg_sum[{A}] : reduce[add, A]\n");
    for d in 0..n_derived {
        let name = format!("P{d}");
        let a = sources[rng.gen_range(0..sources.len())].clone();
        let b = sources[rng.gen_range(0..sources.len())].clone();
        match rng.gen_range(0..5) {
            0 => {
                src.push_str(&format!("def {name}(x,y) : {a}(x,y)\n"));
                src.push_str(&format!("def {name}(x,y) : {b}(x,y)\n"));
            }
            1 => {
                src.push_str(&format!(
                    "def {name}(x,y) : exists((z) | {a}(x,z) and {b}(z,y))\n"
                ));
            }
            2 => {
                src.push_str(&format!("def {name}(x,y) : {a}(x,y)\n"));
                src.push_str(&format!(
                    "def {name}(x,y) : exists((z) | {a}(x,z) and {name}(z,y))\n"
                ));
            }
            3 => {
                src.push_str(&format!(
                    "def {name}(x,y) : {a}(x,y) and not {b}(x,y)\n"
                ));
            }
            _ => {
                src.push_str(&format!(
                    "def {name}(x,s) : exists((q) | {a}(x,q)) and s = agg_sum[(v) : {a}(x,v)]\n"
                ));
            }
        }
        sources.push(name);
    }
    src.push_str("def output(x,y) :");
    let tails: Vec<String> = (0..n_derived).map(|d| format!(" P{d}(x,y)")).collect();
    src.push_str(&tails.join(" or"));
    src.push('\n');
    (src, db)
}

/// One random op against a base relation: an insert of a fresh-ish tuple
/// or a delete of an existing one.
#[derive(Clone, Debug)]
enum Op {
    Insert(String, Tuple),
    Delete(String, Tuple),
}

fn random_ops(rng: &mut StdRng, db: &Database, n_base: usize) -> Vec<Op> {
    let mut ops = Vec::new();
    for _ in 0..rng.gen_range(1..6) {
        let rel = format!("E{}", rng.gen_range(0..n_base));
        let delete = rng.gen_bool(0.4);
        if delete {
            if let Some(r) = db.get(&rel) {
                if !r.is_empty() {
                    let idx = rng.gen_range(0..r.len());
                    let t = r.iter().nth(idx).expect("index in range").clone();
                    ops.push(Op::Delete(rel, t));
                    continue;
                }
            }
        }
        ops.push(Op::Insert(
            rel,
            Tuple::from(vec![
                Value::int(rng.gen_range(0..DOMAIN)),
                Value::int(rng.gen_range(0..DOMAIN)),
            ]),
        ));
    }
    ops
}

fn apply_ops(db: &mut Database, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Insert(rel, t) => {
                db.insert(rel, t.clone());
            }
            Op::Delete(rel, t) => {
                if db.defines(rel) {
                    db.get_mut(rel).remove(t);
                }
            }
        }
    }
}

/// A session over `db` with `library` installed, incremental maintenance
/// pinned on or off.
fn session(db: Database, library: &str, incremental: bool) -> Session {
    let cfg = EngineConfig::from_env().incremental(incremental);
    Session::with_config(db, cfg).with_library(library)
}

fn flatten(rels: &BTreeMap<Name, Relation>) -> Vec<(Name, Vec<Tuple>)> {
    rels.iter()
        .map(|(n, r)| (n.clone(), r.iter().cloned().collect()))
        .collect()
}

#[test]
fn incremental_matches_full_rematerialization_under_random_deltas() {
    let mut rng = StdRng::seed_from_u64(0x01C0_DE17A);
    let mut covered = 0;
    for case in 0..44 {
        let (src, db0) = random_program(&mut rng, 3, 6);
        let module = match rel_sema::compile(&src) {
            Ok(m) => m,
            Err(_) => continue, // deterministic rejection; coverage asserted below
        };
        covered += 1;
        let mut db = db0;
        let rels0 = materialize_with_cache(&module, &db, SharedIndexCache::default())
            .expect("initial state evaluates");
        let mut pre = PreState::capture(&db, &rels0);
        // Three chained delta rounds: each round's incremental result
        // becomes the next round's pre-state, as a session would chain
        // commits.
        for round in 0..3 {
            let mut next = db.clone();
            let ops = random_ops(&mut rng, &next, 3);
            apply_ops(&mut next, &ops);
            let inc = materialize_incremental(&module, &pre, &next, SharedIndexCache::default())
                .expect("incremental evaluates");
            let full = materialize_with_cache(&module, &next, SharedIndexCache::default())
                .expect("full evaluates");
            assert_eq!(
                flatten(&inc),
                flatten(&full),
                "case {case} round {round}: incremental diverged from full\n\
                 ops: {ops:?}\nprogram:\n{src}"
            );
            let par = materialize_with_threads(&module, &next, SharedIndexCache::default(), 4)
                .expect("parallel evaluates");
            assert_eq!(
                flatten(&inc),
                flatten(&par),
                "case {case} round {round}: incremental diverged from the \
                 4-worker scheduler\nprogram:\n{src}"
            );
            pre = PreState::capture(&next, &inc);
            db = next;
        }
    }
    assert!(covered >= 40, "only {covered}/44 generated programs compiled");
}

#[test]
fn incremental_and_full_sessions_commit_identically() {
    // Two sessions share a generated program as their library and replay
    // the same random transaction stream — one incremental, one forced to
    // full re-materialization. After every commit the databases and the
    // materialized program state must agree exactly.
    let mut rng = StdRng::seed_from_u64(0x5E55_1085);
    let mut covered = 0;
    for case in 0..12 {
        let (src, db) = random_program(&mut rng, 3, 5);
        if rel_sema::compile(&src).is_err() {
            continue;
        }
        covered += 1;
        let mut inc = session(db.clone(), &src, true);
        let mut full = session(db, &src, false);
        for round in 0..5 {
            let ops = random_ops(&mut rng, inc.db(), 3);
            // Occasionally feed a derived relation back into a base one
            // through a compiled step — both sessions run the identical
            // source.
            let run_step = rng
                .gen_bool(0.3)
                .then(|| format!("def insert(:E{}, x, y) : P1(x, y)", rng.gen_range(0..3)));
            for s in [&mut inc, &mut full] {
                let mut txn = s.begin();
                for op in &ops {
                    match op {
                        Op::Insert(rel, t) => {
                            txn.stage_insert(rel, t.clone());
                        }
                        Op::Delete(rel, t) => {
                            txn.stage_delete(rel, t);
                        }
                    }
                }
                if let Some(step) = &run_step {
                    txn.run(step).expect("run step");
                }
                txn.commit().expect("commit");
            }
            assert_eq!(
                inc.db(),
                full.db(),
                "case {case} round {round}: databases diverged\nprogram:\n{src}"
            );
            let a = inc.eval("", "output").expect("incremental eval");
            let b = full.eval("", "output").expect("full eval");
            let av: Vec<Tuple> = a.iter().cloned().collect();
            let bv: Vec<Tuple> = b.iter().cloned().collect();
            assert_eq!(av, bv, "case {case} round {round}: outputs diverged");
        }
    }
    assert!(covered >= 8, "only {covered}/12 generated programs compiled");
}

/// The generated program with its `output` sink cut off, so it can be
/// installed as a library under queries that define their own `output`.
fn as_library(src: &str) -> String {
    let cut = src.find("def output").expect("generated programs end in a sink");
    format!("{}ic narrow(x, y) requires E0(x, y) implies x + y < {NARROW}\n", &src[..cut])
}

/// Bound on `x + y` in `E0` that the stream's library enforces: wide
/// enough that most random inserts pass, narrow enough that some abort.
const NARROW: i64 = 2 * DOMAIN - 4;

#[test]
fn library_state_follows_random_commit_streams() {
    // The library state is maintained once per database state and shared
    // by everything that reads it. Three sessions replay one random
    // stream — prepared steps, compiled steps, direct staging with
    // multi-tuple deletes, explicit aborts, aborts on the library's own
    // constraint, a `db_mut()` edit and an `install_library` mid-stream,
    // with ad hoc and prepared reads and two watches in between. After
    // every commit the incremental session must agree, relation by
    // relation and row by row, with a session that re-materializes
    // everything and with a from-scratch `materialize` of the library.
    let mut rng = StdRng::seed_from_u64(0x11B_57A7E);
    let mut covered = 0;
    let (mut commits, mut aborts) = (0, 0);
    for case in 0..10 {
        let (src, mut db) = random_program(&mut rng, 3, 5);
        if rel_sema::compile(&src).is_err() {
            continue;
        }
        covered += 1;
        let mut library = as_library(&src);
        // Start from a state the library's constraint accepts.
        let sum = |t: &Tuple| t.values().iter().filter_map(Value::as_int).sum::<i64>();
        db.get_mut("E0").retain(|t| sum(t) < NARROW);
        let mut inc = session(db.clone(), &library, true);
        let mut full = session(db, &library, false);
        let step = "def insert(:E1, x, y) : x = ?a and y = ?b";
        let reads = ["def output(x, y) : P0(x, y)", "def output(x) : P3(x, _) and E2(x, _)"];
        let watch_all = |inc: &Session| -> Vec<_> {
            reads
                .iter()
                .map(|q| {
                    let q = inc.prepare(q).expect("watched query prepares");
                    let w = inc.watch(&q, &rel_engine::Params::new()).expect("watch registers");
                    (q, w, Relation::new())
                })
                .collect()
        };
        let mut watches = watch_all(&inc);
        for round in 0..14 {
            let ops = random_ops(&mut rng, inc.db(), 3);
            let kind = rng.gen_range(0..6);
            let (a, b) = (rng.gen_range(0..DOMAIN), rng.gen_range(0..DOMAIN));
            let feedback = format!("def insert(:E{}, x, y) : P1(x, y)", rng.gen_range(0..3));
            if round == 5 {
                // Behind the sessions' backs — and the watches', which
                // are told of commits only and so register afresh.
                for s in [&mut inc, &mut full] {
                    s.db_mut().insert("E2", Tuple::from(vec![Value::int(a), Value::int(b)]));
                }
                watches = watch_all(&inc);
            }
            if round == 9 {
                let more = "def P9(x, y) : P0(x, y) and not E1(x, y)\n\
                            ic loopless(x) requires P9(x, x) implies E2(x, x)\n";
                library.push_str(more);
                for s in [&mut inc, &mut full] {
                    s.install_library(more);
                }
            }
            let mut outcomes = Vec::new();
            for s in [&mut inc, &mut full] {
                let prepared = s.prepare(step).expect("step prepares");
                let mut txn = s.begin();
                match kind {
                    0 => {
                        let params = rel_engine::Params::new().set("a", a).set("b", b);
                        txn.run_prepared(&prepared, &params).expect("prepared step runs");
                    }
                    1 => {
                        txn.run(&feedback).expect("compiled step runs");
                    }
                    _ => {}
                }
                for op in &ops {
                    match op {
                        Op::Insert(rel, t) => txn.stage_insert(rel, t.clone()),
                        Op::Delete(rel, t) => txn.stage_delete(rel, t),
                    };
                }
                if kind == 5 {
                    txn.abort();
                    outcomes.push(None);
                } else {
                    outcomes.push(Some(txn.commit().map(|o| (o.inserted, o.deleted))));
                }
            }
            assert_eq!(
                outcomes[0], outcomes[1],
                "case {case} round {round}: the two modes ended the transaction differently"
            );
            match &outcomes[0] {
                Some(Ok(_)) => commits += 1,
                _ => aborts += 1,
            }
            assert_eq!(inc.db(), full.db(), "case {case} round {round}: databases diverged");
            // Every library relation, three ways.
            let module = rel_sema::compile(&library).expect("library compiles");
            let scratch = rel_engine::materialize(&module, inc.db()).expect("scratch evaluates");
            for pred in module.rules.keys() {
                let rows = |r: &Relation| r.iter().cloned().collect::<Vec<Tuple>>();
                let maintained = rows(&inc.eval("", pred).expect("incremental eval"));
                assert_eq!(
                    maintained,
                    rows(&full.eval("", pred).expect("full eval")),
                    "case {case} round {round}: {pred} diverged from full mode\n{library}"
                );
                assert_eq!(
                    maintained,
                    rows(&scratch[pred]),
                    "case {case} round {round}: {pred} diverged from scratch\n{library}"
                );
            }
            // Reads through the same state: an ad hoc query (a source the
            // module cache has not seen), a prepared one, the watches.
            let ad_hoc = format!("def output(x, y) : P2(x, y) and x != {}", 100 * case + round);
            assert_eq!(
                inc.query(&ad_hoc),
                full.query(&ad_hoc),
                "case {case} round {round}: ad hoc read"
            );
            for (q, w, mirror) in &mut watches {
                while let Some(d) = w.try_recv() {
                    *mirror = d.apply_to(mirror);
                }
                // A violated library constraint (possible after the
                // `db_mut()` edit) fails the read in both modes alike.
                match (q.execute(&inc), full.prepare(q.src()).and_then(|p| p.execute(&full))) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(a, b, "case {case} round {round}: prepared read {}", q.src());
                        assert_eq!(*mirror, a, "case {case} round {round}: watch on {}", q.src());
                    }
                    (a, b) => assert_eq!(a, b, "case {case} round {round}: failed read"),
                }
            }
        }
    }
    assert!(covered >= 7, "only {covered}/10 generated programs compiled");
    assert!(commits >= 40 && aborts >= 15, "{commits} commits, {aborts} aborts");
}
