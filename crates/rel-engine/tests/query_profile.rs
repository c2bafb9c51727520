//! Ground-truth tests for [`rel_engine::QueryProfile`]: drive each
//! join-kernel choice, cache outcome, and incremental classification
//! with targeted programs, and check the profile reports exactly what the
//! engine did — and nothing that another evaluation did.

use rel_core::{tuple, Database, Relation, Tuple, Value};
use rel_engine::{FixpointOutcome, Session, StratumAction};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// A dense-enough edge relation that triangles exist and recursion
/// iterates a few rounds.
fn edges() -> Relation {
    let mut tuples: Vec<Tuple> = Vec::new();
    for i in 0i64..12 {
        tuples.push(tuple![i, (i + 1) % 12]);
        tuples.push(tuple![i, (i + 5) % 12]);
        // Closes i -> i+1 -> i+6 into a triangle with the +5 step.
        tuples.push(tuple![i, (i + 6) % 12]);
    }
    Relation::from_tuples(tuples)
}

fn triangle_session() -> Session {
    let mut db = Database::new();
    db.set("E", edges());
    Session::new(db)
}

const TRIANGLE: &str = "def output(x, y, z) : E(x, y) and E(y, z) and E(x, z)";

#[test]
fn triangle_is_reported_as_wcoj() {
    let (rows, profile) = triangle_session().query_profiled(TRIANGLE).unwrap();
    let e: Vec<(Value, Value)> = edges().iter().map(|t| (t[0].clone(), t[1].clone())).collect();
    let want = Relation::from_tuples(e.iter().flat_map(|(x, y)| {
        let e = &e;
        e.iter().filter(move |(y2, z)| y2 == y && e.contains(&(x.clone(), z.clone()))).map(
            move |(_, z)| Tuple::from(vec![x.clone(), y.clone(), z.clone()]),
        )
    }));
    assert!(!want.is_empty(), "the fixture has triangles");
    assert_eq!(rows, want);
    let t = profile.totals();
    assert!(t.wcoj_joins > 0, "a 3-atom cycle must dispatch to the WCOJ kernel: {t:?}");
    assert_eq!(t.binary_joins, 0, "leapfrog takes all three atoms: {t:?}");
    assert!(profile.explain().contains("kernel=wcoj"), "{}", profile.explain());
}

#[test]
fn unfused_two_atom_join_under_auto_is_reported_as_binary() {
    // Two stored atoms and a comparison: no fused shape, and too few atoms
    // for Auto to route to leapfrog, so the pairwise scheduler joins them.
    let src = "def output(x, z) : exists((y) | E(x, y) and E(y, z) and x < z)";
    let (rows, profile) = triangle_session().query_profiled(src).unwrap();
    let t = profile.totals();
    assert_eq!(t.wcoj_joins, 0, "below WCOJ_MIN_ATOMS nothing reaches the WCOJ kernel: {t:?}");
    assert!(t.binary_joins > 0, "two atoms run the pairwise path: {t:?}");
    assert_eq!(t.fused_rules, 0, "a rule with a comparison has no fused kernel: {t:?}");
    // The same rows as brute force — the profile reports routing, not
    // semantics.
    let e: Vec<(Value, Value)> = edges().iter().map(|t| (t[0].clone(), t[1].clone())).collect();
    let want = Relation::from_tuples(e.iter().flat_map(|(x, y)| {
        e.iter().filter(move |(y2, z)| y2 == y && x < z).map(move |(_, z)| Tuple::from(vec![x.clone(), z.clone()]))
    }));
    assert_eq!(rows, want);
}

#[test]
fn two_atom_rule_under_defaults_is_fused() {
    let s = triangle_session();
    let (rows, profile) =
        s.query_profiled("def output(x, z) : exists((y) | E(x, y) and E(y, z))").unwrap();
    assert!(!rows.is_empty());
    let t = profile.totals();
    assert_eq!(t.wcoj_joins, 0, "below WCOJ_MIN_ATOMS nothing reaches the WCOJ kernel: {t:?}");
    assert!(t.fused_rules > 0, "a 2-atom join must hit a fused kernel: {t:?}");
}

#[test]
fn trie_cache_outcomes_build_then_reuse() {
    let s = triangle_session();
    let (_, first) = s.query_profiled(TRIANGLE).unwrap();
    let t1 = first.totals();
    assert!(t1.trie_builds > 0, "first run must build its permuted tries: {t1:?}");
    assert!(!first.module_cache_hit, "fresh source must miss the module cache");
    // The same join under new source text: a module of its own, so no
    // fixpoint to reuse, but the shared generation-keyed tries serve it.
    let renamed = TRIANGLE.replace('x', "a").replace('y', "b").replace('z', "c");
    let (_, second) = s.query_profiled(&renamed).unwrap();
    let t2 = second.totals();
    assert_eq!(second.fixpoint, FixpointOutcome::Full);
    assert_eq!(t2.trie_builds, 0, "second run must not rebuild tries: {t2:?}");
    assert!(t2.trie_reuses > 0, "second run must reuse cached tries: {t2:?}");
    let (_, third) = s.query_profiled(TRIANGLE).unwrap();
    assert!(third.module_cache_hit, "repeated source must hit the module cache");
    assert_eq!(third.fixpoint, FixpointOutcome::CacheReuse);
}

const TWO_CONES: &str = "def A(x) : exists((y) | E1(x, y))\n\
                         def B(x) : exists((y) | E2(x, y))\n\
                         def output(x) : A(x) or B(x)";

#[test]
fn incremental_classification_reused_vs_recomputed() {
    let mut db = Database::new();
    db.set("E1", Relation::from_tuples(vec![tuple![1, 2], tuple![2, 3]]));
    db.set("E2", Relation::from_tuples(vec![tuple![10, 20]]));
    let mut s = Session::new(db);
    let (_, first) = s.query_profiled(TWO_CONES).unwrap();
    assert_eq!(first.fixpoint, FixpointOutcome::Full, "no pre-state on the first run");

    // Unchanged snapshot: the whole fixpoint is a cache reuse.
    let (_, cached) = s.query_profiled(TWO_CONES).unwrap();
    assert_eq!(cached.fixpoint, FixpointOutcome::CacheReuse);
    assert!(cached.strata.is_empty(), "a wholesale reuse evaluates nothing");

    // Touch only E2: A's stratum is outside the changed cone (reused),
    // B's and output's are inside it.
    let mut txn = s.begin();
    txn.stage_insert("E2", tuple![30, 40]);
    txn.commit().unwrap();
    let (rows, incr) = s.query_profiled(TWO_CONES).unwrap();
    assert!(rows.iter().any(|t| t == &tuple![30]), "the new E2 edge must surface");
    let FixpointOutcome::Incremental(stats) = incr.fixpoint else {
        panic!("expected incremental maintenance, got {:?}", incr.fixpoint);
    };
    assert!(stats.reused >= 1, "A's cone is untouched: {stats:?}");
    assert!(
        stats.recomputed + stats.delta_seeded >= 1,
        "B's cone contains the change: {stats:?}"
    );
    let actions: Vec<StratumAction> = incr.strata.iter().map(|s| s.action).collect();
    assert!(actions.contains(&StratumAction::Reused), "{actions:?}");
    assert!(
        actions
            .iter()
            .any(|a| matches!(a, StratumAction::Recomputed | StratumAction::DeltaRestarted)),
        "{actions:?}"
    );
    assert!(
        !actions.contains(&StratumAction::Evaluated),
        "every stratum of an incremental run must carry an incremental label: {actions:?}"
    );
}

const TC: &str = "def TC(x, y) : E(x, y)\n\
                  def TC(x, y) : exists((z) | TC(x, z) and E(z, y))\n\
                  def output(x, y) : TC(x, y)";

#[test]
fn incremental_recursion_is_delta_restarted() {
    let mut db = Database::new();
    db.set("E", Relation::from_tuples(vec![tuple![1, 2], tuple![2, 3], tuple![3, 4]]));
    let mut s = Session::new(db);
    let (rows, first) = s.query_profiled(TC).unwrap();
    assert_eq!(first.fixpoint, FixpointOutcome::Full);
    let len_before = rows.len();
    let recursive_iters = first
        .strata
        .iter()
        .find(|st| st.recursive)
        .expect("TC stratum is recursive")
        .counts
        .iterations;
    assert!(recursive_iters > 1, "closure of a chain iterates: {recursive_iters}");

    let mut txn = s.begin();
    txn.stage_insert("E", tuple![4, 5]);
    txn.commit().unwrap();
    let (rows, incr) = s.query_profiled(TC).unwrap();
    assert!(rows.len() > len_before, "the new edge extends the closure");
    let FixpointOutcome::Incremental(stats) = incr.fixpoint else {
        panic!("expected incremental maintenance, got {:?}", incr.fixpoint);
    };
    assert!(stats.delta_seeded >= 1, "monotone recursion in the cone restarts: {stats:?}");
    let restarted = incr
        .strata
        .iter()
        .find(|st| st.action == StratumAction::DeltaRestarted)
        .expect("one stratum must be delta-restarted");
    assert!(restarted.recursive, "only the recursive stratum restarts");
}

#[test]
fn strata_wall_is_bounded_by_query_wall() {
    let s = triangle_session();
    let (_, profile) = s.query_profiled(TRIANGLE).unwrap();
    assert!(
        profile.strata_wall() <= profile.wall,
        "stratum times ({:?}) cannot exceed the end-to-end wall ({:?})",
        profile.strata_wall(),
        profile.wall
    );
}

#[test]
fn a_profile_lists_only_the_strata_its_own_evaluation_ran() {
    // A profiled recursive query on `E` while a clone of the session
    // evaluates unprofiled recursive queries over `F` on another thread.
    // The clone shares the tries, so its evaluators run on the same
    // cache; none of its strata may land in the profile.
    let chain = |n: i64| Relation::from_tuples((0..n - 1).map(|i| tuple![i, i + 1]));
    let mut db = Database::new();
    db.set("E", chain(120));
    db.set("F", chain(60));
    let s = Session::new(db);
    let clone = s.clone();
    let (done, served) = (AtomicBool::new(false), AtomicUsize::new(0));
    std::thread::scope(|scope| {
        scope.spawn(|| {
            // Unique text per query: a module-cache miss and a full
            // evaluation every time.
            while !done.load(Ordering::Relaxed) {
                let i = served.fetch_add(1, Ordering::Relaxed);
                let src = format!(
                    "def Other{i}(x, y) : F(x, y)\n\
                     def Other{i}(x, y) : exists((z) | Other{i}(x, z) and F(z, y))"
                );
                clone.eval(&src, &format!("Other{i}")).unwrap();
            }
        });
        // Stops the other thread however this one leaves the scope: the
        // scope joins it before a failed assertion can propagate.
        struct Stop<'a>(&'a AtomicBool);
        impl Drop for Stop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Relaxed);
            }
        }
        let _stop = Stop(&done);
        while served.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        for round in 0..30 {
            let own = format!("TC{round}");
            let src = format!(
                "def {own}(x, y) : E(x, y)\n\
                 def {own}(x, y) : exists((z) | {own}(x, z) and E(z, y))\n\
                 def output(x, y) : {own}(x, y)"
            );
            let (rows, profile) = s.query_profiled(&src).unwrap();
            assert_eq!(rows.len(), 120 * 119 / 2, "every pair i < j of the chain");
            assert!(!profile.strata.is_empty(), "round {round}: a new module evaluates");
            for st in &profile.strata {
                assert!(
                    st.preds.iter().all(|p| *p == own || p == "output"),
                    "round {round}: the profile lists a stratum it did not evaluate: {:?}",
                    st.preds
                );
            }
        }
    });
}
