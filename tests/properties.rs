//! Property-based tests across the workspace: parser round-trips on
//! generated ASTs, engine ≡ reference interpreter (E3), semi-naive
//! recursion ≡ the reference interpreter's fixpoint, relational-algebra
//! laws through the engine, and reduce permutation invariance.

use proptest::prelude::*;
use rel::prelude::*;
use rel::syntax::ast::{self, Expr};

// ---------------------------------------------------------------------
// Random first-order query generation (safe by construction: variables
// are bound by positive atoms before use in filters/negation).
// ---------------------------------------------------------------------

/// A small random database over unary/binary relations R, S, T.
fn db_strategy() -> impl Strategy<Value = Database> {
    let tuple2 = (0i64..6, 0i64..6);
    (
        proptest::collection::vec(tuple2.clone(), 0..12),
        proptest::collection::vec(tuple2, 0..12),
        proptest::collection::vec(0i64..6, 0..6),
    )
        .prop_map(|(r, s, t)| {
            let mut db = Database::new();
            for (a, b) in r {
                db.insert("R", Tuple::from(vec![Value::Int(a), Value::Int(b)]));
            }
            for (a, b) in s {
                db.insert("S", Tuple::from(vec![Value::Int(a), Value::Int(b)]));
            }
            for a in t {
                db.insert("T", Tuple::from(vec![Value::Int(a)]));
            }
            db
        })
}

/// Random safe query bodies over R(x,y), S(y,z), T(x): a positive join
/// core plus optional filters and negations.
fn query_strategy() -> impl Strategy<Value = String> {
    let atom = prop_oneof![
        Just("R(x,y)".to_string()),
        Just("S(x,y)".to_string()),
        Just("R(y,x)".to_string()),
        Just("S(y,x)".to_string()),
    ];
    let extra = prop_oneof![
        Just("T(x)".to_string()),
        Just("not T(x)".to_string()),
        Just("not S(x,y)".to_string()),
        Just("not R(x,y)".to_string()),
        Just("x = y".to_string()),
        Just("x != y".to_string()),
        Just("x < y".to_string()),
        Just("exists((z) | R(y,z))".to_string()),
        Just("forall((z) | S(x,z) implies T(z))".to_string()),
    ];
    (atom, proptest::collection::vec(extra, 0..3)).prop_map(|(a, extras)| {
        let mut body = a;
        for e in extras {
            body.push_str(" and ");
            body.push_str(&e);
        }
        format!("def output(x,y) : {body}")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// E3 — the optimized engine agrees with the Figs. 3–4 reference
    /// interpreter on random safe queries.
    #[test]
    fn engine_matches_reference_interpreter(db in db_strategy(), q in query_strategy()) {
        let (engine, reference) = rel::interp::differential(&db, &q)
            .unwrap_or_else(|e| panic!("eval failed: {e}\n{q}"));
        prop_assert_eq!(engine, reference, "query: {}", q);
    }

    /// Semi-naive evaluation computes the fixpoint the reference
    /// interpreter computes naively, from the paper's semantics.
    #[test]
    fn semi_naive_equals_naive(db in db_strategy()) {
        let src = "def P(x,y) : R(x,y)\n\
                   def P(x,y) : exists((z) | P(x,z) and S(z,y))\n\
                   def Q(x,y) : P(x,y) or exists((z) | Q(x,z) and P(z,y))";
        let module = rel::sema::compile(src).unwrap();
        let a = rel::engine::materialize(&module, &db).unwrap();
        let b = rel::interp::Interp::run_all(&db, src)
            .unwrap_or_else(|e| panic!("the interpreter failed: {e}\n{db:?}"));
        for p in ["P", "Q"] {
            prop_assert_eq!(a.get(p).cloned().unwrap_or_default(), b.get(p).cloned().unwrap_or_default());
        }
    }

    /// RA laws through the engine: Union commutes, Minus(A,A) = ∅,
    /// Product with true is identity, Intersect(A,A) = A.
    #[test]
    fn relational_algebra_laws(db in db_strategy()) {
        let s = rel::stdlib::with_stdlib(db);
        let ab = s.query("def output : Union[R, S]").unwrap();
        let ba = s.query("def output : Union[S, R]").unwrap();
        prop_assert_eq!(ab, ba);
        let empty = s.query("def output : Minus[R, R]").unwrap();
        prop_assert!(empty.is_empty());
        let id = s.query("def output : Product[R, {()}]").unwrap();
        let r = s.query("def output(x,y) : R(x,y)").unwrap();
        prop_assert_eq!(id, r.clone());
        let inter = s.query("def output : Intersect[R, R]").unwrap();
        prop_assert_eq!(inter, r);
    }

    /// reduce over a commutative op is insertion-order invariant (set
    /// semantics makes this trivial — but the fold itself must also not
    /// depend on generation order).
    #[test]
    fn reduce_is_order_invariant(mut vals in proptest::collection::vec(-50i64..50, 1..10)) {
        let forward: Database = {
            let mut db = Database::new();
            for (i, v) in vals.iter().enumerate() {
                db.insert("A", Tuple::from(vec![Value::Int(i as i64), Value::Int(*v)]));
            }
            db
        };
        vals.reverse();
        let backward: Database = {
            let mut db = Database::new();
            for (i, v) in vals.iter().enumerate() {
                db.insert("A", Tuple::from(vec![Value::Int((vals.len() - 1 - i) as i64), Value::Int(*v)]));
            }
            db
        };
        let q = "def output : reduce[add, A]";
        let f = rel::stdlib::with_stdlib(forward).query(q).unwrap();
        let b = rel::stdlib::with_stdlib(backward).query(q).unwrap();
        prop_assert_eq!(f, b);
    }

    /// Parser round-trip on generated expressions.
    #[test]
    fn parser_round_trips(e in expr_strategy()) {
        let printed = rel::syntax::pretty::ExprPrinter(&e).to_string();
        let parsed = rel::syntax::parse_expr(&printed)
            .unwrap_or_else(|err| panic!("re-parse of {printed:?} failed: {err}"));
        prop_assert_eq!(parsed, e, "printed: {}", printed);
    }
}

/// Random expression ASTs (closed under the pretty-printer).
fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (0i64..100).prop_map(Expr::int),
        "[a-z][a-z0-9]{0,3}".prop_map(Expr::Ident),
        Just(Expr::Wildcard),
        Just(Expr::true_()),
        Just(Expr::false_()),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
            inner.clone().prop_map(|a| Expr::Not(Box::new(a))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| {
                Expr::Cmp(ast::CmpOp::Le, Box::new(a), Box::new(b))
            }),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| {
                Expr::Arith(ast::ArithOp::Add, Box::new(a), Box::new(b))
            }),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| {
                Expr::Arith(ast::ArithOp::Mul, Box::new(a), Box::new(b))
            }),
            // Size-1 products/unions print as transparent grouping
            // (`(e)` / `{e}`), so only 0- and 2-element forms are
            // structurally stable under print∘parse.
            proptest::collection::vec(inner.clone(), 2..4).prop_map(Expr::Product),
            proptest::collection::vec(inner.clone(), 2..4).prop_map(Expr::Union),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Expr::Where(Box::new(a), Box::new(b))),
            ("[a-z][a-z0-9]{0,3}", proptest::collection::vec(inner, 0..3)).prop_map(
                |(f, args)| Expr::App {
                    func: Box::new(Expr::Ident(f)),
                    args: args.into_iter().map(ast::Arg::plain).collect(),
                    style: ast::AppStyle::Partial,
                }
            ),
        ]
    })
}
