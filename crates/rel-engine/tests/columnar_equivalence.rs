//! Randomized (seeded) equivalence tests for the typed columnar layout:
//! random programs over mixed-type base relations — string joins,
//! int/float joins, negation, aggregation roll-ups, recursion, and a
//! deliberately mixed-type column that forces the boxed-row fallback —
//! must produce **byte-identical** relation state whether `Relation`
//! serves its kernels from schema-specialized columns
//! (`REL_COLUMNAR` on) or boxed `Value` rows (off), crossed with the
//! WCOJ routing mode and the 1-vs-4-worker stratum scheduler. A
//! durability round-trip additionally pins the *on-disk* WAL/snapshot
//! bytes: the byte stream a durable session writes must not depend on
//! which layout produced the deltas.
//!
//! The columnar switch is process-wide (the kernels live in `rel-core`,
//! below any session), so the tests in this binary serialize on a lock
//! and restore the ambient setting before returning.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rel_core::{columnar_enabled, set_columnar_enabled, tuple};
use rel_core::{Database, Name, Relation, Tuple};
use rel_engine::durability::{DurabilityConfig, FsyncPolicy};
use rel_engine::{materialize_with_threads, EngineConfig, Session, SharedIndexCache, WcojMode};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Mutex;

/// `set_columnar_enabled` flips a process-global switch; tests that
/// toggle it must not interleave.
static SWITCH_LOCK: Mutex<()> = Mutex::new(());

/// Restores the ambient columnar setting on drop, so a failing assert
/// can't leak a disabled layout into sibling tests.
struct SwitchGuard(bool);

impl SwitchGuard {
    fn hold() -> Self {
        SwitchGuard(columnar_enabled())
    }
}

impl Drop for SwitchGuard {
    fn drop(&mut self) {
        set_columnar_enabled(self.0);
    }
}

const NAMES: [&str; 8] = [
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
];

/// Binary int edges: the workhorse for joins, recursion and negation.
fn int_edges(rng: &mut StdRng, domain: i64) -> Relation {
    let mut rel = Relation::new();
    for _ in 0..rng.gen_range(8..40) {
        rel.insert(tuple![rng.gen_range(0..domain), rng.gen_range(0..domain)]);
    }
    rel
}

/// Binary string edges over a small name pool: joins run over
/// dictionary-encoded columns, and cross-relation joins exercise the
/// cross-dictionary comparison path.
fn str_edges(rng: &mut StdRng) -> Relation {
    let mut rel = Relation::new();
    for _ in 0..rng.gen_range(8..30) {
        rel.insert(tuple![
            NAMES[rng.gen_range(0..NAMES.len())],
            NAMES[rng.gen_range(0..NAMES.len())]
        ]);
    }
    rel
}

/// (int, float) weights: a typed column pair with negative values, -0.0
/// and repeated keys, so float ordering and aggregation get exercised.
fn weights(rng: &mut StdRng, domain: i64) -> Relation {
    let mut rel = Relation::new();
    for _ in 0..rng.gen_range(8..30) {
        let w = match rng.gen_range(0..6) {
            0 => -0.0,
            1 => -1.5,
            n => n as f64 * 0.25,
        };
        rel.insert(tuple![rng.gen_range(0..domain), w]);
    }
    rel
}

/// (int, int-or-string) facts: the second column is deliberately
/// mixed-type, so the columnar projection must fall back to boxed rows
/// for it — the fallback path has to agree with everything else.
fn mixed_facts(rng: &mut StdRng, domain: i64) -> Relation {
    let mut rel = Relation::new();
    for _ in 0..rng.gen_range(8..24) {
        let t = if rng.gen_bool(0.5) {
            tuple![rng.gen_range(0..domain), rng.gen_range(0..domain)]
        } else {
            tuple![
                rng.gen_range(0..domain),
                NAMES[rng.gen_range(0..NAMES.len())]
            ]
        };
        rel.insert(t);
    }
    rel
}

/// Random multi-stratum program over typed base relations. Every
/// derived predicate is binary so the sink can union them all; the
/// sink's second column deliberately mixes ints, floats and strings
/// across disjuncts, forcing the derived relation itself onto the
/// mixed-column fallback.
fn random_typed_program(rng: &mut StdRng, n_derived: usize) -> (String, Database) {
    let domain = rng.gen_range(5..10);
    let mut db = Database::new();
    for b in 0..2 {
        db.set(format!("E{b}"), int_edges(rng, domain));
        db.set(format!("S{b}"), str_edges(rng));
        db.set(format!("W{b}"), weights(rng, domain));
        db.set(format!("X{b}"), mixed_facts(rng, domain));
    }
    let pick = |rng: &mut StdRng, p: &str| format!("{p}{}", rng.gen_range(0..2));
    let mut src = String::from("def agg_sum[{A}] : reduce[add, A]\n");
    for d in 0..n_derived {
        let name = format!("P{d}");
        match rng.gen_range(0..7) {
            0 => {
                // Union of int edge relations.
                let (a, b) = (pick(rng, "E"), pick(rng, "E"));
                src.push_str(&format!("def {name}(x,y) : {a}(x,y)\n"));
                src.push_str(&format!("def {name}(x,y) : {b}(x,y)\n"));
            }
            1 => {
                // String-keyed join chain over dictionary columns.
                let (a, b) = (pick(rng, "S"), pick(rng, "S"));
                src.push_str(&format!(
                    "def {name}(x,y) : exists((z) | {a}(x,z) and {b}(z,y))\n"
                ));
            }
            2 => {
                // Recursion: transitive closure over ints or strings.
                let a = if rng.gen_bool(0.5) { pick(rng, "E") } else { pick(rng, "S") };
                src.push_str(&format!("def {name}(x,y) : {a}(x,y)\n"));
                src.push_str(&format!(
                    "def {name}(x,y) : exists((z) | {a}(x,z) and {name}(z,y))\n"
                ));
            }
            3 => {
                // Negation over string edges (set-minus on StrCol).
                let (a, b) = (pick(rng, "S"), pick(rng, "S"));
                src.push_str(&format!("def {name}(x,y) : {a}(x,y) and not {b}(x,y)\n"));
            }
            4 => {
                // Grouped integer aggregation.
                let a = pick(rng, "E");
                src.push_str(&format!(
                    "def {name}(x,s) : exists((q) | {a}(x,q)) and s = agg_sum[(v) : {a}(x,v)]\n"
                ));
            }
            5 => {
                // Int-keyed join pulling a float column through.
                let (a, b) = (pick(rng, "E"), pick(rng, "W"));
                src.push_str(&format!(
                    "def {name}(x,w) : exists((y) | {a}(x,y) and {b}(y,w))\n"
                ));
            }
            _ => {
                // Join through the mixed-type column (row fallback) with
                // a triangle-ish closing atom so WCOJ routing can bite.
                let (a, b) = (pick(rng, "X"), pick(rng, "E"));
                src.push_str(&format!(
                    "def {name}(x,v) : exists((k) | {a}(k,v) and {b}(k,x) and {b}(x,k))\n"
                ));
            }
        }
    }
    src.push_str("def output(x,y) :");
    let tails: Vec<String> = (0..n_derived).map(|d| format!(" P{d}(x,y)")).collect();
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
fn columnar_and_row_layouts_agree_byte_for_byte() {
    let _serial = SWITCH_LOCK.lock().unwrap();
    let _guard = SwitchGuard::hold();
    let mut rng = StdRng::seed_from_u64(0xC01_7EA5);
    let mut covered = 0;
    for case in 0..30 {
        let (src, db) = random_typed_program(&mut rng, 5);
        let module = match rel_sema::compile(&src) {
            Ok(m) => m,
            // Rejection is deterministic; skipping is sound but must
            // stay rare (asserted below).
            Err(_) => continue,
        };
        covered += 1;
        set_columnar_enabled(false);
        let baseline = materialize_with_threads(
            &module,
            &db,
            SharedIndexCache::with_wcoj(WcojMode::Off),
            1,
        );
        for (columnar, mode, workers) in [
            (false, WcojMode::Force, 1),
            (false, WcojMode::Off, 4),
            (true, WcojMode::Off, 1),
            (true, WcojMode::Off, 4),
            (true, WcojMode::Force, 1),
            (true, WcojMode::Force, 4),
        ] {
            set_columnar_enabled(columnar);
            let run = materialize_with_threads(
                &module,
                &db,
                SharedIndexCache::with_wcoj(mode),
                workers,
            );
            let layout = if columnar { "columnar" } else { "row" };
            match (&baseline, &run) {
                (Ok(base), Ok(got)) => assert_eq!(
                    flatten(base),
                    flatten(got),
                    "case {case}: {layout}/{mode:?}/{workers}w diverged from \
                     the row baseline\nprogram:\n{src}"
                ),
                (Err(eb), Err(eg)) => assert_eq!(
                    std::mem::discriminant(eb),
                    std::mem::discriminant(eg),
                    "case {case}: error kinds diverged: {eb} vs {eg}\nprogram:\n{src}"
                ),
                (b, g) => panic!(
                    "case {case}: one layout errored, the other succeeded \
                     ({layout}/{mode:?}/{workers}w): base={b:?} got={g:?}\nprogram:\n{src}"
                ),
            }
        }
        // The typed base relations must actually be columnar when the
        // switch is on — otherwise the whole matrix tests nothing.
        set_columnar_enabled(true);
        for name in ["E0", "S0", "W0"] {
            assert!(
                db.get(name).expect("base relation exists").columnar().is_some(),
                "case {case}: {name} produced no columnar projection"
            );
        }
    }
    assert!(covered >= 24, "only {covered}/30 generated programs compiled");
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rel-columnar-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every file the durable layer left in `dir`, name -> bytes.
fn disk_image(dir: &PathBuf) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("store dir exists") {
        let entry = entry.unwrap();
        let name = entry.file_name().to_string_lossy().into_owned();
        out.insert(name, std::fs::read(entry.path()).unwrap());
    }
    out
}

/// A fixed mixed-type transaction stream: inserts and deletes over int,
/// float, string and mixed-column relations, sized to cross the
/// compaction threshold so snapshots get written too.
fn run_stream(s: &mut Session) {
    let names = ["alpha", "beta", "gamma", "delta"];
    for i in 0..12i64 {
        let mut txn = s.begin();
        txn.stage_insert("R", tuple![i % 5, i]);
        txn.stage_insert("Label", tuple![names[(i % 4) as usize], i % 3]);
        txn.stage_insert("Weight", tuple![i % 4, i as f64 * 0.5 - 1.0]);
        // A mixed-type column: ints and strings interleaved.
        if i % 2 == 0 {
            txn.stage_insert("Tag", tuple![i, names[(i % 4) as usize]]);
        } else {
            txn.stage_insert("Tag", tuple![i, i * 10]);
        }
        if i % 3 == 2 {
            txn.stage_delete("R", &tuple![(i - 1) % 5, i - 1]);
        }
        txn.commit().expect("commit succeeds");
    }
}

#[test]
fn durable_bytes_are_identical_across_layouts() {
    let _serial = SWITCH_LOCK.lock().unwrap();
    let _guard = SwitchGuard::hold();
    let store = DurabilityConfig {
        fsync: FsyncPolicy::Off,
        fsync_batch: 1,
        compact_after_commits: 4,
        compact_after_bytes: 1 << 20,
    };
    // Resolved at each open, so the config carries the layout just set
    // rather than re-asserting an earlier one.
    let open = |dir: &PathBuf| Session::open_with(dir, EngineConfig::from_env().durability(store));
    let mut images = Vec::new();
    let mut dirs = Vec::new();
    for (tag, columnar) in [("row", false), ("col", true)] {
        set_columnar_enabled(columnar);
        let dir = temp_dir(tag);
        let mut s = open(&dir).expect("clean open");
        assert!(s.is_durable(), "durability must be enabled for this test");
        run_stream(&mut s);
        drop(s);
        images.push(disk_image(&dir));
        dirs.push(dir);
    }
    assert_eq!(
        images[0].keys().collect::<Vec<_>>(),
        images[1].keys().collect::<Vec<_>>(),
        "layouts wrote different durable file sets"
    );
    for (name, bytes) in &images[0] {
        assert_eq!(
            bytes, &images[1][name],
            "durable file {name} differs between row and columnar layouts"
        );
    }
    // Cross-recovery: a store written under one layout must recover to
    // the same database under the other.
    set_columnar_enabled(true);
    let from_row = open(&dirs[0]).expect("recover row store");
    set_columnar_enabled(false);
    let from_col = open(&dirs[1]).expect("recover columnar store");
    let canon = |s: &Session| -> Vec<(String, Vec<Tuple>)> {
        s.db()
            .iter()
            .filter(|(_, r)| !r.is_empty())
            .map(|(n, r)| (n.to_string(), r.iter().cloned().collect()))
            .collect()
    };
    assert_eq!(canon(&from_row), canon(&from_col), "cross-layout recovery diverged");
    assert!(!canon(&from_row).is_empty(), "stream left no durable tuples");
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn session_queries_agree_with_layout_toggled_mid_stream() {
    // One session, flipping the layout between queries and commits: the
    // generation-keyed caches must never leak a stale-layout answer.
    let _serial = SWITCH_LOCK.lock().unwrap();
    let _guard = SwitchGuard::hold();
    let mut rng = StdRng::seed_from_u64(0x5EED_CAFE);
    let mut db = Database::new();
    db.set("E", int_edges(&mut rng, 8));
    db.set("S", str_edges(&mut rng));
    let lib = "def Tri(x,y,z) : E(x,y) and E(y,z) and E(x,z)\n\
               def Pair(x,y) : exists((z) | S(x,z) and S(z,y))";
    let mut s = Session::new(db).with_library(lib);
    let probe = "def output(x,y,z) : Tri(x,y,z) or exists((q) | Pair(y,z) and E(x,q))";
    let snap = |r: &Relation| -> Vec<Tuple> { r.iter().cloned().collect() };
    for round in 0..4i64 {
        // Same database state, both layouts, same session caches: the
        // answers must match byte for byte.
        set_columnar_enabled(true);
        assert!(s.columnar_enabled());
        let cols = snap(&s.query(probe).expect("probe evaluates"));
        set_columnar_enabled(false);
        assert!(!s.columnar_enabled());
        let rows = snap(&s.query(probe).expect("probe evaluates"));
        assert_eq!(cols, rows, "round {round}: layouts diverged");
        // Grow the database (alternating the layout the commit runs
        // under) so generation-keyed caches churn between rounds.
        set_columnar_enabled(round % 2 == 0);
        let mut txn = s.begin();
        txn.stage_insert("E", tuple![100 + round, round]);
        txn.commit().expect("commit succeeds");
    }
}
