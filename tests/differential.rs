//! The differential harness: one seeded generator of safe programs and
//! commit streams, and one reference — `rel-interp`, the paper's
//! Figures 3–4 semantics taken literally, run from scratch on the
//! committed base relations. `materialize_naive` is the second reference:
//! it must equal the interpreter, and stands in for it on the cases that
//! exceed the interpreter's work budget (counted, with a floor on the
//! cases the interpreter did check).
//!
//! After every commit of every stream, every engine configuration must
//! equal the reference:
//!
//! * module level — `materialize_with_threads` with 1 worker and with 4,
//!   and `materialize_incremental_with_stats` chained from the previous
//!   state's `PreState`; each keeps its own default `SharedIndexCache`
//!   across every program and commit;
//! * session level — default, and metrics on with one-batch watch
//!   buffers: the base relations, every library relation, an ad hoc read,
//!   prepared reads, and two watch mirrors whose sequence numbers must be
//!   gapless.
//!
//! There is one engine — incremental, columnar, leapfrog for connected
//! groups of three or more atoms — so both its kernels and the fallbacks
//! it keeps for inputs the fast paths cannot take must be reached by the
//! default configuration itself. Coverage floors over the whole run show
//! they are: leapfrog dispatches, generic env-path rules and pairwise
//! joins, recomputed and delta-restarted strata, and checked states
//! holding a relation no kernel can read through a columnar projection.
//!
//! Programs mix monotone and partial-fixpoint recursion, negation, `sum`
//! aggregation and `<++` overrides, triangles, 4-cycles and
//! paths-with-closure, numeric and string constants, float and mixed-type
//! columns, a base relation mixing 1- and 2-tuples, and a rule with a
//! nullary head; one wide program has 12 independent components. Streams mix
//! prepared and compiled steps, staged inserts and multi-tuple deletes,
//! explicit aborts and constraint aborts (the interpreter decides the
//! verdict from each `ic`'s violations written as a `def`), one
//! `db_mut()` edit and one `install_library` mid-stream, and on some
//! streams a drop and reopen of a durable session. The generator never
//! binds a variable to a variable through `=` (the engine binds strictly
//! where the interpreter promotes `2 = 2.0`), keeps floats
//! integer-valued so folds are exact in any order, inlines `?params` into
//! the source the interpreter runs, and keeps aggregates out of variable
//! positions downstream (the interpreter enumerates variables over the
//! active domain, which a sum need not be in).
//!
//! One check has no oracle and stays a targeted test on the same
//! generator: concurrent prepared executes. New engine paths and bug
//! fixes add their regression case here.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rel::core::tuple;
use rel::engine::durability::{DurabilityConfig, FsyncPolicy};
use rel::engine::{metrics, IncrementalStats, PreState, SharedIndexCache};
use rel::interp::Interp;
use rel::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

type Rels = BTreeMap<String, Relation>;

const SEED: u64 = 0xD1FF_0000;
const STREAMS: u64 = 24;
const ROUNDS: usize = 10;
/// Rounds at which a durable session is reopened, the `db_mut()` edit
/// lands, and the library grows.
const REOPEN: usize = 2;
const EDIT: usize = 4;
const INSTALL: usize = 7;
/// Coverage floors over the whole run (see [`Coverage`]), about half of
/// what the seeds above reach: 274 leapfrog dispatches, 1087 env-path
/// rules, 456 pairwise-join dispatches, 511 recomputed and 39
/// delta-restarted strata, and 422 session checks (two lanes) that saw a
/// relation with no columnar projection.
const FLOOR_WCOJ: u64 = 130;
const FLOOR_ENV_RULES: u64 = 500;
const FLOOR_BINARY: u64 = 200;
const FLOOR_RECOMPUTED: usize = 200;
const FLOOR_DELTA_SEEDED: usize = 20;
const FLOOR_ROWWISE: usize = 300;
const STEP: &str = "def insert(:E1, x, y) : x = ?a and y = ?b";
const NAMES: [&str; 3] = ["ann", "bob", "cy"];

/// Metrics are process-wide: every test here holds this lock, and
/// [`Serial`] puts the switch back as it found it.
static LOCK: Mutex<()> = Mutex::new(());

struct Serial {
    _lock: MutexGuard<'static, ()>,
    ambient: EngineConfig,
}

impl Serial {
    fn take() -> Serial {
        let _lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        Serial { _lock, ambient: EngineConfig::from_env() }
    }
}

impl Drop for Serial {
    fn drop(&mut self) {
        enter(&self.ambient);
    }
}

/// Set the process-wide switch to `cfg`'s.
fn enter(cfg: &EngineConfig) {
    metrics::set_metrics(cfg.metrics);
}

/// What a binary relation's columns hold, as far as the generator cares:
/// sums need numbers, `<` and `x + y` need integers.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Int,
    Flt,
    Other,
}

/// The rows of a base relation.
#[derive(Clone, Copy)]
enum Base {
    Edge,
    Name,
    Weight,
    Mixed,
    Node,
    /// 1- and 2-tuples in one relation: no columnar projection exists.
    Ragged,
}

fn row(rng: &mut StdRng, base: Base, d: i64) -> Tuple {
    let int = |rng: &mut StdRng| Value::int(rng.gen_range(0..d));
    let name = |rng: &mut StdRng| Value::str(NAMES[rng.gen_range(0..3usize)]);
    Tuple::from(match base {
        Base::Edge => vec![int(rng), int(rng)],
        Base::Name => vec![name(rng), name(rng)],
        Base::Weight => vec![int(rng), Value::float(rng.gen_range(1..3) as f64)],
        Base::Mixed => vec![int(rng), if rng.gen_bool(0.5) { int(rng) } else { name(rng) }],
        Base::Node => vec![int(rng)],
        Base::Ragged if rng.gen_bool(0.5) => vec![int(rng)],
        Base::Ragged => vec![int(rng), int(rng)],
    })
}

/// A read: its engine source and parameters, and the reference relation
/// that answers it.
struct Query {
    src: String,
    params: Params,
    want: String,
}

/// A generated library over generated base relations.
struct Program {
    domain: i64,
    db: Database,
    base: Vec<(String, Base)>,
    /// The library's rules.
    defs: String,
    /// Integrity constraints as `[name, params, premise, conclusion]`.
    ics: Vec<[String; 4]>,
    /// Every relation the library derives.
    derived: Vec<String>,
    /// Binary derived relations over integers, for feedback steps.
    ints: Vec<String>,
    /// Binary derived relations fit for variable positions.
    binary: Vec<String>,
    /// The two watched (and prepared) reads, and their definitions for
    /// the interpreter.
    queries: [Query; 2],
    query_defs: String,
}

impl Program {
    fn library(&self) -> String {
        let ics = self.ics.iter().map(|[n, p, a, b]| format!("ic {n}({p}) requires {a} implies {b}\n"));
        format!("{}{}", self.defs, ics.collect::<String>())
    }

    /// What the references evaluate: the rules, each constraint's
    /// violations as a `def`, and the reads with parameters inlined.
    fn oracle(&self) -> String {
        let ics = self.ics.iter().map(|[n, p, a, b]| format!("def {n}_violated({p}) : {a} and not ({b})\n"));
        format!("{}{}{}", self.defs, ics.collect::<String>(), self.query_defs)
    }

    fn violated(&self, r: &Rels) -> bool {
        self.ics.iter().any(|[n, ..]| r.get(&format!("{n}_violated")).is_some_and(|v| !v.is_empty()))
    }
}

/// A program over 3 edge relations (12 for `wide`), a node set, a
/// relation of mixed arity and, when `typed`, string, float and
/// mixed-type relations.
fn program(rng: &mut StdRng, wide: bool, typed: bool) -> Program {
    let d = if typed { 4 } else { 5 };
    let mut base: Vec<(String, Base)> =
        (0..if wide { 12 } else { 3 }).map(|k| (format!("E{k}"), Base::Edge)).collect();
    base.extend([("V", Base::Node), ("M", Base::Ragged)].map(|(n, b)| (n.into(), b)));
    if typed {
        base.extend([("S", Base::Name), ("W", Base::Weight), ("X", Base::Mixed)].map(|(n, b)| (n.into(), b)));
    }
    let mut db = Database::new();
    for (name, b) in &base {
        for _ in 0..rng.gen_range(3..9) {
            db.insert(name, row(rng, *b, d));
        }
    }
    let narrow = 2 * d - 3;
    db.get_mut("E0").retain(|t| t.values().iter().filter_map(Value::as_int).sum::<i64>() < narrow);
    let mut pool: Vec<(String, Kind)> = base
        .iter()
        .filter_map(|(n, b)| match b {
            Base::Edge => Some((n.clone(), Kind::Int)),
            Base::Weight => Some((n.clone(), Kind::Flt)),
            Base::Name | Base::Mixed | Base::Ragged => Some((n.clone(), Kind::Other)),
            Base::Node => None,
        })
        .collect();
    let mut unary = vec!["V".to_string(), "M".to_string()];
    // Joins over both arities of `M`, which no columnar projection can
    // serve: the pairs of `M` that end in one of its 1-tuples, and a
    // nullary head that is true when there is one.
    let mut defs = String::from("def sum[{A}] : reduce[add, A]\n");
    defs.push_str("def R(x, y) : M(x, y) and M(y)\ndef F : exists((x, y) | M(x, y) and M(y))\n");
    let mut derived = vec!["R".to_string(), "F".to_string()];
    // Consecutive shapes from a random start, so each program mixes many.
    let first = rng.gen_range(0..9usize);
    for i in 0..if wide { 12 } else { rng.gen_range(4..7usize) } {
        let p = format!("P{i}");
        let (rules, kind) = match wide {
            true => (closure(&p, &format!("E{i}")), Some(Kind::Int)),
            false => shape(rng, &p, &pool, &unary, (first + i) % 9, typed, d),
        };
        defs.push_str(&rules);
        derived.push(p.clone());
        match kind {
            Some(k) => pool.push((p, k)),
            None if rules.contains("sum[") => {} // an aggregate: compared, never read
            None => unary.push(p),
        }
    }
    let of = |ok: fn(&Kind) -> bool| -> Vec<String> {
        pool.iter().filter(|(n, k)| n.starts_with('P') && ok(k)).map(|(n, _)| n.clone()).collect()
    };
    let (binary, ints) = (of(|_| true), of(|k| *k == Kind::Int));
    let pick = |rng: &mut StdRng, from: &[String], or: &str| {
        from.get(rng.gen_range(0..from.len().max(1))).cloned().unwrap_or(or.to_string())
    };
    let output = wide || rng.gen_bool(0.5);
    if output {
        let (a, b) = (pick(rng, &binary, "E1"), pick(rng, &binary, "E2"));
        defs.push_str(&format!("def output(x, y) : {a}(x, y) or {b}(x, y)\n"));
        derived.push("output".into());
    }
    let (read, filtered, c) = (pick(rng, &binary, "E1"), pick(rng, &ints, "E0"), rng.gen_range(0..d));
    let union = if output { "def Q2(x, y) : output(x, y)\n" } else { "" };
    Program {
        domain: d,
        db,
        base,
        ics: vec![["narrow".into(), "x, y".into(), "E0(x, y)".into(), format!("x + y < {narrow}")]],
        derived,
        // With a library `output`, the first read is the empty query: the
        // library state answers it, and a watch on it must still move.
        queries: [
            Query {
                src: if output { String::new() } else { format!("def output(x, y) : {read}(x, y)") },
                params: Params::new(),
                want: if output { "output".into() } else { read },
            },
            Query {
                src: format!("def output(x, y) : {filtered}(x, y) and y != ?c"),
                params: Params::new().set("c", c),
                want: "Q2".into(),
            },
        ],
        query_defs: format!("def Q2(x, y) : {filtered}(x, y) and y != {c}\n{union}"),
        defs,
        ints,
        binary,
    }
}

/// Transitive closure of `a`.
fn closure(p: &str, a: &str) -> String {
    format!("def {p}(x, y) : {a}(x, y)\ndef {p}(x, y) : exists((z) | {a}(x, z) and {p}(z, y))\n")
}

/// The rules of one derived relation `p` of shape `which` over `pool`
/// (binary) and `unary`, and its kind — `None` for unary relations and
/// aggregates.
fn shape(
    rng: &mut StdRng,
    p: &str,
    pool: &[(String, Kind)],
    unary: &[String],
    which: usize,
    typed: bool,
    d: i64,
) -> (String, Option<Kind>) {
    let pick = |rng: &mut StdRng, ok: fn(Kind) -> bool| {
        let fit: Vec<&(String, Kind)> = pool.iter().filter(|(_, k)| ok(*k)).collect();
        fit[rng.gen_range(0..fit.len())].clone()
    };
    let constant = |rng: &mut StdRng, k: Kind| match (k, rng.gen_range(0..3)) {
        (Kind::Int, 0) => format!(" and x < {}", rng.gen_range(1..d)),
        (Kind::Int, 1) => format!(" and y != {}", rng.gen_range(0..d)),
        (Kind::Other, 0) => " and y != \"ann\"".to_string(),
        _ => String::new(),
    };
    let ((a, ka), (b, kb), (c, kc)) = (pick(rng, |_| true), pick(rng, |_| true), pick(rng, |_| true));
    let int_if = |ks: &[Kind]| if ks.iter().all(|k| *k == Kind::Int) { Kind::Int } else { Kind::Other };
    let (body, kind) = match which {
        0 => (format!("{a}(x, y)\ndef {p}(x, y) : {b}(x, y)"), if ka == kb { ka } else { Kind::Other }),
        1 => {
            let k = if ka == Kind::Int { kb } else { Kind::Other };
            (format!("exists((z) | {a}(x, z) and {b}(z, y)){}", constant(rng, k)), k)
        }
        2 if rng.gen_bool(0.5) => (format!("{a}(x, y) and not {b}(x, y){}", constant(rng, ka)), ka),
        2 => (format!("{a}(x, y) and not {}(y)", unary[rng.gen_range(0..unary.len())]), ka),
        3 => {
            let (a, _) = pick(rng, |k| k != Kind::Other);
            let (head, tail) = if rng.gen_bool(0.5) { ("[x]", "") } else { ("[x in V]", " <++ 0") };
            return (format!("def {p}{head} : sum[{a}[x]]{tail}\n"), None);
        }
        4 => {
            let k = int_if(&[ka, kb, kc]);
            (format!("exists((z) | {a}(x, z) and {b}(z, y) and {c}(x, y)){}", constant(rng, k)), k)
        }
        5 if !typed => {
            let cycle = format!("{a}(x, z) and {b}(z, y) and {c}(y, w) and {a}(w, x)");
            (format!("exists((z, w) | {cycle})"), int_if(&[ka, kb, kc]))
        }
        6 if !typed => {
            let step = format!("exists((z, w) | {a}(x, z) and {p}(z, w) and {b}(w, y))");
            (format!("{a}(x, y)\ndef {p}(x, y) : {step}"), int_if(&[ka, kb]))
        }
        7 => {
            let (a, _) = pick(rng, |k| k == Kind::Int);
            return (format!("def {p}(x) : exists((y) | {a}(x, y) and x < y and not {p}(y))\n"), None);
        }
        _ => {
            let (a, k) = pick(rng, |k| k != Kind::Flt);
            return (closure(p, &a), Some(k));
        }
    };
    (format!("def {p}(x, y) : {body}\n"), Some(kind))
}

/// Assert `got` equals the reference's `want` (absent = empty).
fn same(ctx: &str, config: &str, what: &str, got: Option<&Relation>, want: Option<&Relation>) {
    let empty = Relation::new();
    let (got, want) = (got.unwrap_or(&empty), want.unwrap_or(&empty));
    assert!(got == want, "{ctx}\nconfig {config}: {what} is\n  {got}\nbut the reference says\n  {want}");
}

/// Non-empty relations, row by row.
fn rows(db: &Database) -> Vec<(String, Vec<Tuple>)> {
    let listed = db.iter().filter(|(_, r)| !r.is_empty());
    listed.map(|(n, r)| (n.to_string(), r.iter().cloned().collect())).collect()
}

/// How many states the interpreter checked, and how many exceeded its
/// work budget and fell back to `materialize_naive`.
#[derive(Default)]
struct Tally {
    checked: usize,
    over_budget: usize,
}

/// A non-empty relation with no columnar projection (mixed-arity or
/// nullary): every kernel that reads it takes its row path.
fn rowwise(r: &Relation) -> bool {
    !r.is_empty() && r.uniform_arity().is_none_or(|a| a == 0) && r.columnar().is_none()
}

/// The reference for `db`: `materialize_naive` of the oracle source, held
/// equal to `rel-interp` whenever the interpreter stays within its budget.
fn reference(p: &Program, db: &Database, tally: &mut Tally, ctx: &str) -> Rels {
    let src = p.oracle();
    let module = rel::sema::compile(&src).unwrap_or_else(|e| panic!("{ctx}\n{e}\n{src}"));
    let naive = rel::engine::materialize_naive(&module, db).unwrap_or_else(|e| panic!("{ctx}\n{e}"));
    let naive: Rels = naive.into_iter().map(|(n, r)| (n.to_string(), r)).collect();
    match Interp::run_all(db, &src) {
        Ok(interp) => {
            tally.checked += 1;
            let ics = p.ics.iter().map(|[n, ..]| format!("{n}_violated"));
            for name in p.derived.iter().cloned().chain(ics).chain(["Q2".to_string()]) {
                same(ctx, "materialize_naive", &name, naive.get(&name), interp.get(&name));
            }
            interp
        }
        Err(e) if e.to_string().contains("budget") => {
            tally.over_budget += 1;
            naive
        }
        Err(e) => panic!("{ctx}\nthe interpreter failed: {e}\n{src}"),
    }
}

/// A step run before the staged rows: a prepared insert of `(a, b)` into
/// `E1`, or a compiled one copying a derived relation into a base one.
#[derive(Debug)]
enum Step {
    Prepared(i64, i64),
    Copy(String, String),
}

/// One transaction of a stream.
#[derive(Debug)]
struct Txn {
    step: Option<Step>,
    /// Staged inserts (`true`) and deletes, in order.
    ops: Vec<(bool, String, Tuple)>,
    abort: bool,
}

fn txn(rng: &mut StdRng, p: &Program, db: &Database) -> Txn {
    let kind = rng.gen_range(0..8);
    let step = match kind {
        0 => Some(Step::Prepared(rng.gen_range(0..p.domain), rng.gen_range(0..p.domain))),
        1 if !p.ints.is_empty() => {
            let from = p.ints[rng.gen_range(0..p.ints.len())].clone();
            Some(Step::Copy(format!("E{}", rng.gen_range(0..3)), from))
        }
        _ => None,
    };
    let mut ops = Vec::new();
    for _ in 0..rng.gen_range(1..4) {
        let (rel, b) = &p.base[rng.gen_range(0..p.base.len())];
        let present: Vec<&Tuple> = db.get(rel).map(|r| r.iter().collect()).unwrap_or_default();
        if present.is_empty() || rng.gen_bool(0.6) {
            ops.push((true, rel.clone(), row(rng, *b, p.domain)));
            continue;
        }
        for _ in 0..rng.gen_range(1..4) {
            ops.push((false, rel.clone(), present[rng.gen_range(0..present.len())].clone()));
        }
    }
    Txn { step, ops, abort: kind == 7 }
}

/// The candidate `t` stages over `db` (whose relations are `r`), and
/// whether its commit answers for the library's constraints: it ran a
/// step or changed a row.
fn stage(db: &Database, t: &Txn, r: &Rels) -> (Database, bool) {
    let mut next = db.clone();
    match &t.step {
        Some(Step::Prepared(a, b)) => {
            next.insert("E1", tuple![*a, *b]);
        }
        Some(Step::Copy(to, from)) => r[from].iter().for_each(|row| {
            next.insert(to, row.clone());
        }),
        None => {}
    }
    let mut moved = t.step.is_some();
    for (insert, rel, row) in &t.ops {
        moved |= match insert {
            true => next.insert(rel, row.clone()),
            false => next.defines(rel) && next.get_mut(rel).remove(row),
        };
    }
    (next, moved)
}

/// Run `t` on `s`: `None` when it aborts explicitly, else its commit.
fn run(s: &mut Session, t: &Txn) -> Option<RelResult<(usize, usize)>> {
    let step = s.prepare(STEP).expect("step prepares");
    let mut txn = s.begin();
    let ran = match &t.step {
        Some(Step::Prepared(a, b)) => txn.run_prepared(&step, &Params::new().set("a", *a).set("b", *b)),
        Some(Step::Copy(to, from)) => txn.run(&format!("def insert(:{to}, x, y) : {from}(x, y)")),
        None => Ok(Relation::new()),
    };
    ran.expect("step runs");
    for (insert, rel, row) in &t.ops {
        match insert {
            true => txn.stage_insert(rel, row.clone()),
            false => txn.stage_delete(rel, row),
        };
    }
    if t.abort {
        txn.abort();
        return None;
    }
    Some(txn.commit().map(|o| (o.inserted, o.deleted)))
}

/// A durable session over `dir` that never waits for the disk and
/// compacts every 4 commits.
fn durable(dir: &Path, cfg: EngineConfig) -> Session {
    let (fsync, fsync_batch, compact_after_commits) = (FsyncPolicy::Off, 1, 4);
    let store = DurabilityConfig { fsync, fsync_batch, compact_after_commits, compact_after_bytes: 1 << 20 };
    Session::open_with(dir, cfg.durability(store)).expect("store opens")
}

/// Load `db` into `s` through one commit, so that it is logged.
fn load(s: &mut Session, db: &Database) {
    let mut txn = s.begin();
    for (name, r) in db.iter() {
        r.iter().for_each(|t| {
            txn.stage_insert(name, t.clone());
        });
    }
    txn.commit().expect("the initial state commits");
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rel-differential-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A subscriber-side copy of a watched read, and the sequence number of
/// the next batch it expects.
struct Mirror {
    watch: Watch,
    rows: Relation,
    seq: u64,
}

/// Register both watched reads on `s`, each mirror taking the initial
/// snapshot at once (a one-batch buffer would lag behind it otherwise).
fn watch(s: &Session, p: &Program) -> Vec<Mirror> {
    let register = |q: &Query| {
        let prepared = s.prepare(&q.src).expect("read prepares");
        let watch = s.watch(&prepared, &q.params).expect("watch registers");
        let first = watch.try_recv().expect("registration buffers a snapshot");
        assert!(first.seq == 0 && first.snapshot, "the first batch is snapshot 0");
        Mirror { watch, rows: first.added, seq: 1 }
    };
    p.queries.iter().map(register).collect()
}

/// One session configuration.
struct Lane {
    name: &'static str,
    cfg: EngineConfig,
    s: Session,
    mirrors: Vec<Mirror>,
}

impl Lane {
    /// Check the session against the reference `r` of the model `db`:
    /// base relations, every library relation, an ad hoc read named by
    /// `n`, and each watched read through its mirror and prepared. `true`
    /// when a base or library relation was [`rowwise`].
    fn check(&mut self, p: &Program, db: &Database, r: &Rels, ctx: &str, n: u64) -> bool {
        let (s, name) = (&self.s, self.name);
        let (got, want) = (rows(s.db()), rows(db));
        assert!(got == want, "{ctx}\nconfig {name}: base relations\n  {got:?}\nbut the model has\n  {want:?}");
        let mut row_path = s.db().iter().any(|(_, stored)| rowwise(stored));
        for pred in &p.derived {
            let got = s.eval("", pred).unwrap_or_else(|e| panic!("{ctx}\nconfig {name}: {pred}: {e}"));
            same(ctx, name, pred, Some(&got), r.get(pred));
            row_path |= rowwise(&got);
        }
        let violated = p.violated(r);
        let read = |what: &str, got: RelResult<Relation>, want: &Relation| match got {
            Err(RelError::ConstraintViolation { .. }) if violated => {}
            Ok(got) if !violated => same(ctx, name, what, Some(&got), Some(want)),
            got => panic!("{ctx}\nconfig {name}: {what} gave {got:?}, constraints violated: {violated}"),
        };
        // A source no session has compiled before.
        let adhoc = p.binary.get(n as usize % p.binary.len().max(1)).map_or("E1", String::as_str);
        let src = format!("def output(x, y) : {adhoc}(x, y) and x != {}", 1000 + n);
        let empty = Relation::new();
        let want = r.get(adhoc).unwrap_or(&empty).union(r.get("output").unwrap_or(&empty));
        read(&src, s.query(&src), &want);
        for (q, m) in p.queries.iter().zip(&mut self.mirrors) {
            while let Some(d) = m.watch.try_recv() {
                let (seq, snapshot, src) = (d.seq, d.snapshot, &q.src);
                let gapless = seq == m.seq && !snapshot;
                let sent = format!("sent {seq} (snapshot {snapshot}) for {}", m.seq);
                assert!(gapless, "{ctx}\nconfig {name}: watch {src:?} {sent}");
                m.rows = d.apply_to(&m.rows);
                m.seq += 1;
            }
            let want = r.get(&q.want).unwrap_or(&empty);
            same(ctx, name, &format!("the watch mirror of {:?}", q.src), Some(&m.rows), Some(want));
            read(&q.src, s.prepare(&q.src).and_then(|x| x.execute_with(s, &q.params)), want);
        }
        row_path
    }
}

/// The module-level configurations, each on one cache for the whole run:
/// 1 worker, 4 workers, and the incremental engine chained from the
/// previous state (`pre`, `None` after a library change). `coverage`
/// sums what the default paths did along the way.
struct Modules {
    caches: [SharedIndexCache; 3],
    pre: Option<PreState>,
    coverage: Coverage,
}

/// The leapfrog kernel and the fallback paths the default configuration
/// took, over the whole run.
#[derive(Debug, Default)]
struct Coverage {
    /// Atom groups the leapfrog kernel joined, rules the generic env
    /// evaluator ran, and atoms the pairwise join scheduler took, in the
    /// 1-worker module run.
    wcoj_dispatches: u64,
    env_rules: u64,
    binary_dispatches: u64,
    /// Strata the incremental engine recomputed and delta-restarted.
    maintenance: IncrementalStats,
    /// Session checks that saw a [`rowwise`] relation.
    rowwise_states: usize,
}

/// Run `f` with metrics on; what it added to the leapfrog, env-path rule
/// and pairwise-join counters comes back with its result.
fn counted<T>(f: impl FnOnce() -> T) -> (T, [u64; 3]) {
    let (was, r) = (metrics::enabled(), metrics::registry());
    let read = || [r.wcoj_dispatches.get(), r.env_rules.get(), r.binary_join_dispatches.get()];
    metrics::set_metrics(true);
    let before = read();
    let out = f();
    let after = read();
    metrics::set_metrics(was);
    (out, [0, 1, 2].map(|i| after[i] - before[i]))
}

impl Modules {
    fn check(&mut self, p: &Program, db: &Database, r: &Rels, ctx: &str) {
        use rel::engine::{materialize_incremental_with_stats, materialize_with_cache, materialize_with_threads};
        let (module, [one_cache, four, inc]) = (rel::sema::compile(&p.defs).expect("library compiles"), &self.caches);
        let incremental = match &self.pre {
            Some(pre) => materialize_incremental_with_stats(&module, pre, db, inc.clone()).map(|(rels, stats)| {
                let m = &mut self.coverage.maintenance;
                m.reused += stats.reused;
                m.delta_seeded += stats.delta_seeded;
                m.recomputed += stats.recomputed;
                rels
            }),
            None => materialize_with_cache(&module, db, inc.clone()),
        };
        let (one, [wcoj, env_rules, binary]) = counted(|| materialize_with_threads(&module, db, one_cache.clone(), 1));
        self.coverage.wcoj_dispatches += wcoj;
        self.coverage.env_rules += env_rules;
        self.coverage.binary_dispatches += binary;
        let runs = [
            ("1 worker", one),
            ("4 workers", materialize_with_threads(&module, db, four.clone(), 4)),
            ("materialize_incremental", incremental),
        ];
        for (config, run) in runs {
            let rels = run.unwrap_or_else(|e| panic!("{ctx}\nconfig {config}: {e}"));
            for pred in &p.derived {
                same(ctx, config, pred, rels.get(pred.as_str()), r.get(pred));
            }
            self.pre = Some(PreState::capture(db, &rels)); // the last run is the incremental one
        }
    }
}

#[test]
fn every_configuration_matches_the_interpreter_after_every_commit() {
    let serial = Serial::take();
    let ambient = serial.ambient;
    let configs = [
        ("default", ambient),
        ("metrics on", ambient.metrics(true).watch_buffer(1)),
    ];
    let mut modules = Modules { caches: Default::default(), pre: None, coverage: Coverage::default() };
    let mut tally = Tally::default();
    let (mut commits, mut violations, mut aborts) = (0, 0, 0);
    for stream in 0..STREAMS {
        let seed = SEED + stream;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = program(&mut rng, stream == 0, stream % 2 == 1);
        let ctx = |round: usize, p: &Program| {
            format!("stream {stream} (seed {seed:#x}), round {round}, library:\n{}", p.library())
        };
        let dir = scratch_dir(&stream.to_string());
        let mut db = p.db.clone();
        let mut r = reference(&p, &db, &mut tally, &ctx(0, &p));
        let mut lanes: Vec<Lane> = configs
            .iter()
            .map(|&(name, cfg)| {
                enter(&cfg);
                let logged = stream % 3 == 2 && name == "default";
                let mut s = if logged { durable(&dir, cfg) } else { Session::with_config(db.clone(), cfg) };
                s.install_library(&p.library());
                if logged {
                    load(&mut s, &db);
                }
                Lane { name, cfg, mirrors: watch(&s, &p), s }
            })
            .collect();
        modules.pre = None;
        enter(&ambient);
        modules.check(&p, &db, &r, &ctx(0, &p));
        for round in 0..ROUNDS {
            if round == REOPEN && lanes[0].s.is_durable() {
                let lane = &mut lanes[0];
                enter(&lane.cfg);
                lane.mirrors.clear();
                lane.s = Session::default(); // drops, and so closes, the store
                lane.s = durable(&dir, lane.cfg).with_library(&p.library());
                lane.mirrors = watch(&lane.s, &p);
            }
            if round == EDIT {
                // Behind the sessions' backs — and the watches', which hear
                // of commits only and so register afresh.
                let t = row(&mut rng, Base::Edge, p.domain);
                db.insert("E2", t.clone());
                for lane in &mut lanes {
                    enter(&lane.cfg);
                    lane.s.db_mut().insert("E2", t.clone());
                    lane.mirrors = watch(&lane.s, &p);
                }
            }
            if round == INSTALL {
                let from = p.binary.first().map_or("E0", String::as_str);
                let extra = format!("def Extra(x, y) : {from}(x, y) and not E1(x, y)\n");
                let added = format!("{extra}ic loopless(x) requires Extra(x, x) implies E2(x, x)\n");
                p.defs.push_str(&extra);
                p.derived.push("Extra".into());
                p.ics.push(["loopless", "x", "Extra(x, x)", "E2(x, x)"].map(String::from));
                modules.pre = None;
                for lane in &mut lanes {
                    enter(&lane.cfg);
                    lane.s.install_library(&added);
                }
            }
            enter(&ambient);
            if round == EDIT || round == INSTALL {
                r = reference(&p, &db, &mut tally, &ctx(round, &p));
                modules.check(&p, &db, &r, &ctx(round, &p));
            }
            let t = txn(&mut rng, &p, &db);
            let here = format!("{}\ntransaction: {t:?}", ctx(round, &p));
            let (next, moved) = stage(&db, &t, &r);
            let changed = rows(&next) != rows(&db);
            let next_r = (moved && changed).then(|| reference(&p, &next, &mut tally, &here));
            let commit = !(t.abort || (moved && p.violated(next_r.as_ref().unwrap_or(&r))));
            let mut counts = None;
            for lane in &mut lanes {
                enter(&lane.cfg);
                let (got, name) = (run(&mut lane.s, &t), lane.name);
                match (&got, commit) {
                    (None, _) if t.abort => {}
                    (Some(Ok(n)), true) => assert!(counts.get_or_insert(*n) == n, "{here}\nconfig {name}: {n:?}"),
                    (Some(Err(RelError::ConstraintViolation { .. })), false) if !t.abort => {}
                    _ => panic!("{here}\nconfig {name}: the transaction ended {got:?}, reference commits: {commit}"),
                }
            }
            enter(&ambient);
            match (t.abort, commit) {
                (true, _) => aborts += 1,
                (false, true) => commits += 1,
                (false, false) => violations += 1,
            }
            if commit && changed {
                db = next;
                r = next_r.expect("a changed state has its reference");
                modules.check(&p, &db, &r, &here);
            }
            for lane in &mut lanes {
                enter(&lane.cfg);
                let n = stream * ROUNDS as u64 + round as u64;
                modules.coverage.rowwise_states += lane.check(&p, &db, &r, &here, n) as usize;
            }
        }
        drop(lanes);
        let _ = std::fs::remove_dir_all(&dir);
    }
    enter(&ambient);
    let Tally { checked, over_budget } = tally;
    assert!(checked >= 250, "the interpreter checked {checked} states, {over_budget} over its budget");
    let mix = format!("{commits} commits, {violations} constraint aborts, {aborts} aborts");
    assert!(commits >= 150 && violations >= 15 && aborts >= 15, "{mix}");
    let c = &modules.coverage;
    eprintln!("differential coverage: {c:?}");
    assert!(c.wcoj_dispatches >= FLOOR_WCOJ, "{c:?}");
    assert!(c.env_rules >= FLOOR_ENV_RULES && c.binary_dispatches >= FLOOR_BINARY, "{c:?}");
    let IncrementalStats { recomputed, delta_seeded, .. } = c.maintenance;
    assert!(recomputed >= FLOOR_RECOMPUTED && delta_seeded >= FLOOR_DELTA_SEEDED, "{c:?}");
    assert!(c.rowwise_states >= FLOOR_ROWWISE, "{c:?}");
}

/// Eight threads executing one prepared read at once agree with a
/// sequential run.
#[test]
fn concurrent_prepared_executes_match_a_sequential_run() {
    let _serial = Serial::take();
    let mut rng = StdRng::seed_from_u64(SEED - 2);
    let p = program(&mut rng, false, false);
    let s = Session::new(p.db.clone()).with_library(&p.library());
    let q = s.prepare(&p.queries[1].src).expect("read prepares");
    let params = |c: i64| Params::new().set("c", c);
    let sequential: Vec<Relation> = (0..4).map(|c| q.execute_with(&s, &params(c)).expect("executes")).collect();
    for _ in 0..3 {
        std::thread::scope(|scope| {
            let (s, q) = (&s, &q);
            let runs = (0..8i64).map(|i| scope.spawn(move || (i % 4, q.execute_with(s, &params(i % 4)))));
            for run in runs.collect::<Vec<_>>() {
                let (c, got) = run.join().expect("thread");
                assert_eq!(got.expect("concurrent execute"), sequential[c as usize], "?c = {c}");
            }
        });
    }
}
