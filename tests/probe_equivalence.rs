//! Differential test of the two ways `exec_atom` finds candidate rows —
//! the binary-searched run of the sorted rows (bound positions are a
//! prefix of the arguments) and the binary-searched run of a cached
//! key-first permutation of them (any other positions) — against each
//! other and against the reference interpreter.
//!
//! Every generated rule is evaluated three ways: by the engine as
//! written, by the engine over *column-reversed twins* of every relation
//! (`Rr(b, a)` for `R(a, b)`, every atom's arguments reversed with it —
//! the same rows and the same bindings, but what was a bound prefix is
//! now a bound suffix, so the same atom takes the other path), and by
//! `rel-interp`. The relations mix arities, `Int` and `Float` keys that
//! are numerically equal, constants, repeated variables and negation.
//!
//! One `#[test]`, because it also checks the registry: the suite as a
//! whole must have run both paths.

use proptest::prelude::*;
use rel::prelude::*;

/// xorshift64* — the case seed comes from the proptest runner.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }

    /// A key: small ints, and floats that collide with them numerically
    /// (`2.0`) or sit between them (`0.5`).
    fn value(&mut self) -> Value {
        match self.below(8) {
            0 => Value::float(2.0),
            1 => Value::float(0.5),
            n => Value::int(n as i64 - 2),
        }
    }

    fn literal(&mut self) -> String {
        match self.value() {
            Value::Float(x) => format!("{:.1}", x.0),
            v => v.to_string(),
        }
    }
}

/// `R`/2, `S`/3, `T`/1 and `M` with tuples of arity 1 to 3, each next to
/// its column-reversed twin.
fn database(g: &mut Gen) -> Database {
    let mut db = Database::new();
    for (name, arities) in [("R", 2..=2), ("S", 3..=3), ("T", 1..=1), ("M", 1..=3)] {
        for _ in 0..4 + g.below(14) {
            let arity = arities.start() + g.below(arities.end() - arities.start() + 1);
            let row: Vec<Value> = (0..arity).map(|_| g.value()).collect();
            db.insert(format!("{name}r"), Tuple::from(row.iter().rev().cloned().collect::<Vec<_>>()));
            db.insert(name, Tuple::from(row));
        }
    }
    db
}

/// One atom as `(relation, arguments)`; arguments are variables of
/// `vars`, constants, or one variable repeated.
fn atom(g: &mut Gen, vars: &[&str]) -> (String, Vec<String>) {
    let (name, arity) = match g.below(5) {
        0 => ("R", 2),
        1 => ("S", 3),
        2 => ("T", 1),
        _ => ("M", 1 + g.below(3)),
    };
    let repeated = g.pick(vars);
    let args = (0..arity)
        .map(|_| match g.below(6) {
            0 => g.literal(),
            1 => repeated.to_string(),
            _ => g.pick(vars).to_string(),
        })
        .collect();
    (name.to_string(), args)
}

fn render(atoms: &[(bool, String, Vec<String>)], reversed: bool) -> String {
    let parts: Vec<String> = atoms
        .iter()
        .map(|(negated, name, args)| {
            let (name, args) = match reversed {
                true => (format!("{name}r"), args.iter().rev().cloned().collect()),
                false => (name.clone(), args.clone()),
            };
            format!("{}{name}({})", if *negated { "not " } else { "" }, args.join(", "))
        })
        .collect();
    parts.join(" and ")
}

/// A safe rule body: a generator grounding `x`, `y` and `z`, then random
/// positive and negated atoms over them, then maybe a comparison. The
/// generator itself varies, so the atoms after it meet every subset of
/// their positions already bound.
fn body(g: &mut Gen) -> Vec<(bool, String, Vec<String>)> {
    let vars = ["x", "y", "z"];
    let s = |args: [&str; 3]| ("S".to_string(), args.map(String::from).to_vec());
    let r = |args: [&str; 2]| ("R".to_string(), args.map(String::from).to_vec());
    let t = |v: &str| ("T".to_string(), vec![v.to_string()]);
    let grounding = match g.below(4) {
        0 => vec![s(["x", "y", "z"])],
        1 => vec![r(["x", "y"]), r(["y", "z"])],
        2 => vec![t("z"), s(["x", "y", "z"])],
        _ => vec![t("x"), t("z"), r(["x", "y"])],
    };
    let mut atoms: Vec<_> = grounding.into_iter().map(|(n, a)| (false, n, a)).collect();
    for _ in 0..1 + g.below(3) {
        let (name, args) = atom(g, &vars);
        atoms.push((g.below(3) == 0, name, args));
    }
    atoms
}

/// Run one case; returns how many key-first permutations the rule built
/// as written and over the reversed twins.
fn run_case(seed: u64) -> (u64, u64) {
    let mut g = Gen(seed | 1);
    let db = database(&mut g);
    let atoms = body(&mut g);
    let filter = match g.below(4) {
        0 => format!(" and x != {}", g.literal()),
        // (Not `y = z`: binding through `=` is strict where the reference
        // promotes `2 = 2.0` — an older gap, not this test's subject.)
        1 => " and y != z".to_string(),
        _ => String::new(),
    };
    let head = ["x, y, z", "x, z", "y"][g.below(3)];
    let plain = format!("def output({head}) : {}{filter}", render(&atoms, false));
    let twin = format!("def output({head}) : {}{filter}", render(&atoms, true));
    // Auto routing: under `REL_WCOJ=force` leapfrog takes the atoms this
    // test wants `exec_atom` to see.
    let cfg = EngineConfig::from_env().wcoj(rel::engine::WcojMode::Auto);
    let session = Session::with_config(db.clone(), cfg);
    let builds = &rel::engine::metrics::registry().index_builds;
    let query = |src: &str| {
        let before = builds.get();
        let out = session.query(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        (out.iter().cloned().collect::<Vec<Tuple>>(), builds.get() - before)
    };
    let (as_written, plain_builds) = query(&plain);
    let (reversed, twin_builds) = query(&twin);
    let reference = rel::interp::Interp::run(&db, &plain).unwrap_or_else(|e| panic!("{e}\n{plain}"));
    assert_eq!(as_written, reversed, "paths disagree (seed {seed})\n{plain}\n{twin}");
    let reference: Vec<Tuple> = reference.iter().cloned().collect();
    assert_eq!(as_written, reference, "engine ≠ interpreter (seed {seed})\n{plain}");
    (plain_builds, twin_builds)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1))]

    #[test]
    fn prefix_and_permuted_probes_and_interpreter_agree(first in 1u64..u64::MAX) {
        rel::engine::metrics::set_metrics(true);
        let mut g = Gen(first);
        let builds: Vec<(u64, u64)> = (0..400).map(|_| run_case(g.next())).collect();
        // The same atoms took both paths: reversing the columns turns a
        // probed prefix into a permuted suffix and back, so some rules
        // build permutations only as written and some only over the twins.
        let probed_as_written = builds.iter().filter(|(plain, twin)| plain < twin).count();
        let probed_reversed = builds.iter().filter(|(plain, twin)| plain > twin).count();
        prop_assert!(probed_as_written >= 20, "{} of 400", probed_as_written);
        prop_assert!(probed_reversed >= 20, "{} of 400", probed_reversed);
    }
}
