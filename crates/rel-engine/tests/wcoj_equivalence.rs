//! Randomized (seeded) equivalence tests for the leapfrog WCOJ path:
//! random conjunctive programs — cyclic and acyclic join shapes,
//! recursion, negation, constants, filters — must produce
//! **byte-identical** relation state whether `eval_conj` routes atom
//! groups through the worst-case-optimal kernel (`WcojMode::Auto` /
//! `Force`) or schedules every conjunct pairwise (`Off`), under both the
//! sequential walk and the 4-worker stratum scheduler. In the style of
//! `parallel_determinism`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rel_core::{Database, Name, Relation, Tuple, Value};
use rel_engine::{materialize_with_threads, SharedIndexCache, WcojMode};
use std::collections::BTreeMap;

/// A random binary base relation over a small domain, so joins hit,
/// triangles occur, and negations sometimes empty out.
fn random_edges(rng: &mut StdRng, domain: i64) -> Relation {
    let len = rng.gen_range(6..40);
    let mut rel = Relation::new();
    for _ in 0..len {
        rel.insert(Tuple::from(vec![
            Value::int(rng.gen_range(0..domain)),
            Value::int(rng.gen_range(0..domain)),
        ]));
    }
    rel
}

/// Generate a random program whose rule bodies are multi-atom
/// conjunctions in the shapes the WCOJ planner targets: triangles,
/// 4-cycles, length-3 chains, stars, cyclic recursion
/// (path-with-closure), plus deliberately ineligible conjuncts
/// (negation, comparisons, repeated variables) mixed in so the planner
/// must split work between the kernel and the binary path.
fn random_conj_program(rng: &mut StdRng, n_base: usize, n_derived: usize) -> (String, Database) {
    let mut db = Database::new();
    let domain = rng.gen_range(5..10);
    let mut sources: Vec<String> = Vec::new();
    for b in 0..n_base {
        let name = format!("E{b}");
        db.set(&name, random_edges(rng, domain));
        sources.push(name);
    }
    let mut src = String::new();
    for d in 0..n_derived {
        let name = format!("P{d}");
        let pick = |rng: &mut StdRng, sources: &[String]| {
            sources[rng.gen_range(0..sources.len())].clone()
        };
        let (a, b, c) = (
            pick(rng, &sources),
            pick(rng, &sources),
            pick(rng, &sources),
        );
        match rng.gen_range(0..7) {
            0 => {
                // Triangle: the canonical cyclic query.
                src.push_str(&format!(
                    "def {name}(x,y,z) : {a}(x,y) and {b}(y,z) and {c}(x,z)\n"
                ));
            }
            1 => {
                // 4-cycle.
                src.push_str(&format!(
                    "def {name}(x,z) : exists((y, w) | {a}(x,y) and {b}(y,z) \
                     and {c}(z,w) and {a}(w,x))\n"
                ));
            }
            2 => {
                // Chain with a projection (acyclic 3-way join).
                src.push_str(&format!(
                    "def {name}(x,w) : exists((y, z) | {a}(x,y) and {b}(y,z) and {c}(z,w))\n"
                ));
            }
            3 => {
                // Star + negation: the Not must defer until the atoms
                // (possibly via WCOJ) bind its variables.
                src.push_str(&format!(
                    "def {name}(x) : exists((y, z) | {a}(x,y) and {b}(x,z) and {c}(y,z) \
                     and not {a}(z,x))\n"
                ));
            }
            4 => {
                // Cyclic recursion: path-with-closure, a 3-atom recursive
                // body whose Δ variants must also route correctly.
                src.push_str(&format!("def {name}(x,y) : {a}(x,y)\n"));
                src.push_str(&format!(
                    "def {name}(x,y) : exists((z, w) | {a}(x,z) and {name}(z,w) and {b}(w,y))\n"
                ));
            }
            5 => {
                // Triangle with a comparison filter and a repeated-variable
                // atom (both WCOJ-ineligible conjuncts).
                src.push_str(&format!(
                    "def {name}(x,y,z) : {a}(x,y) and {b}(y,z) and {c}(x,z) \
                     and x < z and not {b}(x,x)\n"
                ));
            }
            _ => {
                // Two overlapping triangles sharing an edge variable pair
                // (one 5-atom connected component).
                src.push_str(&format!(
                    "def {name}(x,z,w) : exists((y) | {a}(x,y) and {b}(y,z) and {c}(x,z) \
                     and {a}(z,w) and {b}(x,w))\n"
                ));
            }
        }
        sources.push(name);
    }
    // A sink unioning first columns keeps every derived predicate alive.
    src.push_str("def output(x) :");
    let tails: Vec<String> = (0..n_derived).map(|d| format!(" P{d}(x)")).collect();
    src.push_str(&tails.join(" or"));
    src.push('\n');
    (src, db)
}

fn flatten(rels: &BTreeMap<Name, Relation>) -> Vec<(Name, Vec<Tuple>)> {
    rels.iter()
        .map(|(n, r)| (n.clone(), r.iter().cloned().collect()))
        .collect()
}

#[test]
fn wcoj_off_auto_forced_agree_byte_for_byte() {
    let mut rng = StdRng::seed_from_u64(0x0C0E_BEEF);
    let mut covered = 0;
    let mut routed_cases = 0;
    for case in 0..40 {
        let (src, db) = random_conj_program(&mut rng, 3, 5);
        let module = match rel_sema::compile(&src) {
            Ok(m) => m,
            // Rejection is deterministic; skipping is sound but must stay
            // rare (asserted below).
            Err(_) => continue,
        };
        covered += 1;
        let baseline = materialize_with_threads(
            &module,
            &db,
            SharedIndexCache::with_wcoj(WcojMode::Off),
            1,
        );
        for (mode, workers) in [
            (WcojMode::Off, 4),
            (WcojMode::Auto, 1),
            (WcojMode::Auto, 4),
            (WcojMode::Force, 1),
            (WcojMode::Force, 4),
        ] {
            let cache = SharedIndexCache::with_wcoj(mode);
            let run = materialize_with_threads(&module, &db, cache.clone(), workers);
            if mode == WcojMode::Force && workers == 1 && cache.wcoj_join_count() > 0 {
                routed_cases += 1;
            }
            match (&baseline, &run) {
                (Ok(base), Ok(got)) => assert_eq!(
                    flatten(base),
                    flatten(got),
                    "case {case}: {mode:?}/{workers}w diverged from binary \
                     joins\nprogram:\n{src}"
                ),
                (Err(eb), Err(eg)) => assert_eq!(
                    std::mem::discriminant(eb),
                    std::mem::discriminant(eg),
                    "case {case}: error kinds diverged: {eb} vs {eg}\nprogram:\n{src}"
                ),
                (b, g) => panic!(
                    "case {case}: one path errored, the other succeeded \
                     ({mode:?}/{workers}w): base={b:?} got={g:?}\nprogram:\n{src}"
                ),
            }
        }
    }
    assert!(covered >= 30, "only {covered}/40 generated programs compiled");
    assert!(
        routed_cases >= covered / 2,
        "the WCOJ path routed in only {routed_cases}/{covered} forced cases — \
         the generator no longer produces eligible shapes"
    );
}

#[test]
fn wcoj_shared_cache_is_sound_in_every_mode() {
    // One shared cache handle per mode (the mode is fixed when a handle is
    // made) driven through alternating worker counts and repeated runs:
    // generation-keyed tries and indexes built by one run must never leak
    // a wrong answer into the next.
    let mut rng = StdRng::seed_from_u64(0x7121E5);
    let (src, db) = random_conj_program(&mut rng, 3, 5);
    let module = rel_sema::compile(&src).expect("seeded program compiles");
    let baseline = materialize_with_threads(
        &module,
        &db,
        SharedIndexCache::with_wcoj(WcojMode::Off),
        1,
    )
    .expect("baseline evaluates");
    for mode in [WcojMode::Force, WcojMode::Off, WcojMode::Auto] {
        let cache = SharedIndexCache::with_wcoj(mode);
        for workers in [1, 4, 2, 4, 1] {
            let rels = materialize_with_threads(&module, &db, cache.clone(), workers)
                .expect("evaluates");
            assert_eq!(
                flatten(&baseline),
                flatten(&rels),
                "{mode:?}/{workers}w diverged with a shared cache"
            );
        }
    }
}

#[test]
fn wcoj_prepared_transactions_agree_with_binary_sessions() {
    // Two sessions over the same data, one forced through the kernel and
    // one pinned to binary joins, run an identical stream of prepared
    // point queries and edge-inserting transactions (with a cyclic-join
    // constraint in scope): outputs and final databases must match
    // byte-for-byte.
    use rel_engine::{EngineConfig, Params, Session};
    let mut rng = StdRng::seed_from_u64(0xACE0FBA5E);
    let mut db = Database::new();
    db.set("E", random_edges(&mut rng, 8));
    // The constraint holds by construction (a triangle's closing edge is
    // in E) but forces the cyclic join to be evaluated on every commit.
    let lib = "def Tri(x,y,z) : E(x,y) and E(y,z) and E(x,z)\n\
               ic closing_edge(x, y, z) requires Tri(x, y, z) implies E(x, z)";
    let mk = |mode: WcojMode| {
        Session::with_config(db.clone(), EngineConfig::from_env().wcoj(mode)).with_library(lib)
    };
    let mut on = mk(WcojMode::Force);
    let mut off = mk(WcojMode::Off);
    let probe_src = "def output(y, z) : E(?x, y) and E(y, z) and E(?x, z)";
    let insert_src = "def insert(:E, x, y) : x = ?src and y = ?dst";
    let probe_on = on.prepare(probe_src).unwrap();
    let probe_off = off.prepare(probe_src).unwrap();
    let ins_on = on.prepare(insert_src).unwrap();
    let ins_off = off.prepare(insert_src).unwrap();
    for step in 0..30i64 {
        let x = step % 8;
        let a = probe_on.execute_with(&on, &Params::new().set("x", x)).unwrap();
        let b = probe_off.execute_with(&off, &Params::new().set("x", x)).unwrap();
        assert_eq!(
            a.iter().cloned().collect::<Vec<_>>(),
            b.iter().cloned().collect::<Vec<_>>(),
            "prepared probe diverged at step {step}"
        );
        let (src_v, dst_v) = ((step * 5 + 1) % 8, (step * 3 + 2) % 8);
        let params = Params::new().set("src", src_v).set("dst", dst_v);
        let ra = {
            let mut txn = on.begin();
            txn.run_prepared(&ins_on, &params).unwrap();
            txn.commit()
        };
        let rb = {
            let mut txn = off.begin();
            txn.run_prepared(&ins_off, &params).unwrap();
            txn.commit()
        };
        match (ra, rb) {
            (Ok(oa), Ok(ob)) => assert_eq!(oa.inserted, ob.inserted, "step {step}"),
            (Err(ea), Err(eb)) => assert_eq!(
                std::mem::discriminant(&ea),
                std::mem::discriminant(&eb),
                "step {step}: commit errors diverged: {ea} vs {eb}"
            ),
            (a, b) => panic!("step {step}: commit outcomes diverged: {a:?} vs {b:?}"),
        }
        assert_eq!(
            on.db().get("E").map(|r| r.iter().cloned().collect::<Vec<_>>()),
            off.db().get("E").map(|r| r.iter().cloned().collect::<Vec<_>>()),
            "databases diverged at step {step}"
        );
    }
    assert!(
        on.db().get("E").map(Relation::len) > db.get("E").map(Relation::len),
        "the transaction stream never grew the base relation"
    );
}
