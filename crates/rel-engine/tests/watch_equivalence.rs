//! Randomized watch-vs-poll equivalence: for random programs × random
//! commit streams, a mirror maintained purely by applying pushed
//! [`WatchDelta`] batches must equal a fresh re-query after every
//! single commit — the standing-query push path is exactly "poll after
//! every commit", minus the recomputation.
//!
//! The CI matrix reruns this suite under `REL_INCREMENTAL=0` and
//! `REL_EVAL_THREADS=4`; on top of that, each trial randomly flips the
//! session's incremental switch via [`EngineConfig`] and randomly
//! shrinks the watch buffer to one batch (safe here because every
//! commit's delta is drained before the next commit, so nothing lags —
//! lag/resync behavior has its own deterministic tests).

use rel_core::{tuple, Database, Relation, Tuple};
use rel_engine::{EngineConfig, Params, Session, Watch, WatchDelta};

/// xorshift64* — deterministic, seedable, no external crates.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn flip(&mut self) -> bool {
        self.next() & 1 == 0
    }
}

/// Value domain kept tiny so random inserts/deletes collide, overlap,
/// and actually exercise the added/removed diffing.
const DOMAIN: i64 = 6;

/// Program shapes spanning the evaluation features watches must track:
/// flat scans, projection + negation, recursion (transitive closure),
/// parameterized filters, and aggregation.
fn programs() -> Vec<(&'static str, Params)> {
    vec![
        ("def output(x, y) : E(x, y)", Params::new()),
        ("def output(x) : exists((y) | E(x, y)) and not N(x)", Params::new()),
        (
            "def path(x, y) : E(x, y)\n\
             def path(x, z) : exists((y) | path(x, y) and E(y, z))\n\
             def output(x, y) : path(x, y)",
            Params::new(),
        ),
        ("def output(x, y) : E(x, y) and y >= ?min", Params::new().set("min", 2)),
        ("def output[v] : v = count[E]", Params::new()),
    ]
}

/// The same features read through an installed library: the watches
/// share one maintained `path`/`Lonely` instead of deriving their own,
/// and the library's constraint rides every commit.
const LIBRARY: &str = "def path(x, y) : E(x, y)\n\
                       def path(x, z) : exists((y) | path(x, y) and E(y, z))\n\
                       def Lonely(x) : exists((y) | E(x, y)) and not N(x)\n\
                       ic in_domain(x, y) requires path(x, y) implies x < 100\n";

fn library_programs() -> Vec<(&'static str, Params)> {
    vec![
        ("def output(x, y) : path(x, y)", Params::new()),
        ("def output(x) : Lonely(x)", Params::new()),
        ("def output(x, y) : path(x, y) and y >= ?min", Params::new().set("min", 2)),
        ("def output[v] : v = count[path]", Params::new()),
        ("def output(x) : path(x, x) and not Lonely(x)", Params::new()),
    ]
}

/// A library that defines `output` itself: the empty query's result is
/// the library state's own relation, and a query that adds a rule to it
/// takes the predicate back as its own.
const OUTPUT_LIBRARY: &str = "def output(x, y) : path(x, y) and not Lonely(y)\n";

fn library_output_programs() -> Vec<(&'static str, Params)> {
    vec![("", Params::new()), ("def output(x) : Lonely(x)", Params::new())]
}

struct Watched {
    src: &'static str,
    params: Params,
    watch: Watch,
    mirror: Relation,
}

impl Watched {
    /// Drain every batch the last commit produced into the mirror.
    fn drain(&mut self) {
        while let Some(d) = self.watch.try_recv() {
            self.mirror = d.apply_to(&self.mirror);
        }
    }
}

fn random_tuple(rng: &mut Rng, arity: usize) -> Tuple {
    match arity {
        1 => tuple![rng.below(DOMAIN as u64) as i64],
        _ => tuple![rng.below(DOMAIN as u64) as i64, rng.below(DOMAIN as u64) as i64],
    }
}

fn random_commit(rng: &mut Rng, session: &mut Session) {
    let mut txn = session.begin();
    let ops = 1 + rng.below(4);
    for _ in 0..ops {
        // Noise is outside every watched program's cone: its writes must
        // flow through the O(1) skip without disturbing equivalence.
        let (rel, arity) = match rng.below(4) {
            0 => ("E", 2),
            1 => ("N", 1),
            2 => ("E", 2),
            _ => ("Noise", 1),
        };
        let t = random_tuple(rng, arity);
        if rng.flip() {
            txn.stage_insert(rel, t);
        } else {
            txn.stage_delete(rel, &t);
        }
    }
    txn.commit().expect("random base-fact commits cannot fail");
}

fn run_trial(seed: u64, library: &str, programs: Vec<(&'static str, Params)>) {
    let mut rng = Rng(seed | 1);
    let mut cfg = EngineConfig::from_env().incremental(rng.flip());
    if rng.flip() {
        cfg = cfg.watch_buffer(1);
    }
    let mut session = Session::with_config(Database::new(), cfg);
    if !library.is_empty() {
        session.install_library(library);
    }

    // Seed a few facts so initial snapshots are non-trivial.
    for _ in 0..4 {
        let t = random_tuple(&mut rng, 2);
        session.db_mut().insert("E", t);
    }
    session.db_mut().insert("N", random_tuple(&mut rng, 1));

    let mut watched: Vec<Watched> = programs
        .into_iter()
        .map(|(src, params)| {
            let prepared = session.prepare(src).expect("program compiles");
            let watch = session.watch(&prepared, &params).expect("watch registers");
            Watched { src, params, watch, mirror: Relation::new() }
        })
        .collect();
    for w in &mut watched {
        let first = w.watch.try_recv().expect("registration pushes the initial snapshot");
        assert_eq!((first.seq, first.snapshot), (0, true), "{}", w.src);
        w.mirror = first.apply_to(&w.mirror);
    }

    for commit in 0..30 {
        random_commit(&mut rng, &mut session);
        for w in &mut watched {
            w.drain();
            // The poll side: recompute the query from scratch on the
            // session's current snapshot.
            let prepared = session.prepare(w.src).expect("program still compiles");
            let fresh = prepared.execute_with(&session, &w.params).expect("fresh poll");
            assert_eq!(
                w.mirror, fresh,
                "seed {seed}, commit {commit}: watch mirror diverged from poll for {}",
                w.src
            );
        }
    }
}

#[test]
fn watch_mirror_matches_poll_across_random_commit_streams() {
    for seed in [3, 1137, 0xDEAD_BEEF, 0x5EED_u64, 982_451_653] {
        run_trial(seed, "", programs());
        run_trial(seed, LIBRARY, library_programs());
        let with_output = format!("{LIBRARY}{OUTPUT_LIBRARY}");
        run_trial(seed, &with_output, library_output_programs());
    }
}

/// Sequence numbers over a whole random stream: gapless per watch, with
/// snapshots only where a resync is legal (seq 0 here, since every
/// batch is drained before the next commit).
#[test]
fn watch_sequences_are_gapless_across_random_streams() {
    let mut rng = Rng(0xFEED_F00D);
    let mut session = Session::new(Database::new());
    let prepared = session.prepare("def output(x, y) : E(x, y)").unwrap();
    let watch = session.watch(&prepared, &Params::new()).unwrap();
    let mut deltas: Vec<WatchDelta> = vec![watch.try_recv().expect("initial snapshot")];

    for _ in 0..60 {
        random_commit(&mut rng, &mut session);
        while let Some(d) = watch.try_recv() {
            deltas.push(d);
        }
    }
    for (i, d) in deltas.iter().enumerate() {
        assert_eq!(d.seq, i as u64, "delivered sequence numbers must be gapless");
        assert_eq!(d.snapshot, i == 0, "no resync can occur when every batch is drained");
    }
    // Replaying the full stream lands on the current output.
    let state = deltas.iter().fold(Relation::new(), |s, d| d.apply_to(&s));
    assert_eq!(state, prepared.execute_with(&session, &Params::new()).unwrap());
}
