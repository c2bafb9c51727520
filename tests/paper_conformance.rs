//! E1 — Paper conformance: every inline query of §3–§5 (and Addendum A)
//! evaluated against the Figure 1 database, asserted against the exact
//! results the paper states.

use rel::prelude::*;

fn session() -> Session {
    Session::with_stdlib(rel::core::database::figure1_database())
}

fn q(src: &str) -> Relation {
    session().query(src).unwrap_or_else(|e| panic!("query failed: {e}\n{src}"))
}

fn rel_of(tuples: &[&[Value]]) -> Relation {
    tuples.iter().map(|vs| Tuple::from(vs.to_vec())).collect()
}

fn s(v: &str) -> Value {
    Value::str(v)
}
fn i(v: i64) -> Value {
    Value::Int(v)
}

// ---------------------------------------------------------------- §3.1

#[test]
fn order_with_payment_has_o1_o2_o3() {
    // "adds the tuples ⟨"O1"⟩, ⟨"O2"⟩, ⟨"O3"⟩ … to OrderWithPayment"
    let out = q("def output(y) : exists((x) | PaymentOrder(x,y))");
    assert_eq!(out, rel_of(&[&[s("O1")], &[s("O2")], &[s("O3")]]));
    // Wildcard form is equivalent.
    assert_eq!(out, q("def output(y) : PaymentOrder(_,y)"));
}

#[test]
fn ordered_products_p1_p2_p3() {
    // "we get ⟨"P1"⟩, ⟨"P2"⟩, ⟨"P3"⟩ as the result"
    let out = q("def output(y) : OrderProductQuantity(_,y,_)");
    assert_eq!(out, rel_of(&[&[s("P1")], &[s("P2")], &[s("P3")]]));
}

#[test]
fn ordered_product_price() {
    // "{⟨"P1", 10⟩, ⟨"P2", 20⟩, ⟨"P3", 30⟩}"
    let out = q(
        "def output(x,y) : OrderProductQuantity(_,x,_) and ProductPrice(x,y)",
    );
    assert_eq!(
        out,
        rel_of(&[&[s("P1"), i(10)], &[s("P2"), i(20)], &[s("P3"), i(30)]])
    );
}

#[test]
fn not_ordered_is_p4_in_both_forms() {
    // "both add "P4" to NotOrdered"
    let negation = q(
        "def output(x) : ProductPrice(x,_) and \
         not exists((y1,y2) | OrderProductQuantity(y1,x,y2))",
    );
    let universal = q(
        "def output(x) : ProductPrice(x,_) and \
         forall((y1,y2) | not OrderProductQuantity(y1,x,y2))",
    );
    let wildcard = q(
        "def output(x) : ProductPrice(x,_) and not OrderProductQuantity(_,x,_)",
    );
    let expected = rel_of(&[&[s("P4")]]);
    assert_eq!(negation, expected);
    assert_eq!(universal, expected);
    assert_eq!(wildcard, expected);
}

#[test]
fn always_ordered_with_restricted_forall() {
    // §3.1: products in every order of V = {O1, O2}: P1 is in both.
    let out = q(
        "def Vset(o) : {(\"O1\"); (\"O2\")}(o)\n\
         def output(x) : ProductPrice(x,_) and \
         forall((o in Vset) | OrderProductQuantity(o,x,_))",
    );
    assert_eq!(out, rel_of(&[&[s("P1")]]));
}

// ---------------------------------------------------------------- §3.2

#[test]
fn discounted_product_price() {
    // "{⟨"P1", 5⟩, ⟨"P2", 15⟩, ⟨"P3", 25⟩, ⟨"P4", 35⟩}"
    let out = q(
        "def output(x,y) : exists((z) | ProductPrice(x,z) and add(y,5,z))",
    );
    assert_eq!(
        out,
        rel_of(&[
            &[s("P1"), i(5)],
            &[s("P2"), i(15)],
            &[s("P3"), i(25)],
            &[s("P4"), i(35)],
        ])
    );
}

#[test]
fn additive_inverse_is_rejected_standalone() {
    // §3.2: "Rel's set of safety rules will detect that this expression is
    // potentially infinite" — as a top-level output it must be refused.
    let err = session()
        .query("def output(x,y) : Int(x) and Int(y) and add(x,y,0)")
        .unwrap_err();
    assert!(matches!(err, RelError::Unsafe(_)), "{err}");
}

#[test]
fn additive_inverse_intersected_with_finite_is_safe() {
    // "an expression that intersects AdditiveInverse with a finite set
    // will be seen as safe".
    let out = q(
        "def AdditiveInverse(x,y) : Int(x) and Int(y) and add(x,y,0)\n\
         def Fin(x,y) : {(1,-1); (2,3)}(x,y)\n\
         def output(x,y) : Fin(x,y) and AdditiveInverse(x,y)",
    );
    assert_eq!(out, rel_of(&[&[i(1), i(-1)]]));
}

#[test]
fn psychologically_priced() {
    // y % 100 = 99 finds nothing in Figure 1 (prices 10..40); with a 199
    // price added it finds it.
    let out = q(
        "def output(x) : exists((y) | ProductPrice(x,y) and y % 100 = 99)",
    );
    assert!(out.is_empty());
    let mut db = rel::core::database::figure1_database();
    db.insert("ProductPrice", Tuple::from(vec![s("P9"), i(199)]));
    let out = Session::with_stdlib(db)
        .query("def output(x) : exists((y) | ProductPrice(x,y) and y % 100 = 99)")
        .unwrap();
    assert_eq!(out, rel_of(&[&[s("P9")]]));
}

// ---------------------------------------------------------------- §3.3

#[test]
fn bought_with_expensive_product() {
    // "SameOrderDiffProduct … evaluates to {⟨"P1","P2"⟩, ⟨"P2","P1"⟩}" and
    // "BoughtWithExpensiveProduct evaluates to … ("P1")".
    let src = "\
        def SameOrder(p1, p2) : exists((o) | OrderProductQuantity(o, p1, _) \
            and OrderProductQuantity(o, p2, _))\n\
        def SameOrderDiffProduct(p1, p2) : SameOrder(p1, p2) and p1 != p2\n\
        def Expensive(p) : exists((price) | ProductPrice(p,price) and price > 15)\n\
        def output(p) : exists((x in Expensive) | SameOrderDiffProduct(x, p))\n";
    assert_eq!(q(src), rel_of(&[&[s("P1")]]));
    let sodp = session()
        .eval(src, "SameOrderDiffProduct")
        .unwrap();
    assert_eq!(sodp, rel_of(&[&[s("P1"), s("P2")], &[s("P2"), s("P1")]]));
}

#[test]
fn rule_order_is_irrelevant() {
    // §3.3: "the program would compute the same result if the rules would
    // be ordered differently".
    let fwd = "def A(x) : ProductPrice(x,_)\ndef output(x) : A(x) and not B(x)\ndef B(x) : OrderProductQuantity(_,x,_)";
    let rev = "def B(x) : OrderProductQuantity(_,x,_)\ndef output(x) : A(x) and not B(x)\ndef A(x) : ProductPrice(x,_)";
    assert_eq!(q(fwd), q(rev));
}

#[test]
fn transitive_closure_of_edges() {
    let mut db = Database::new();
    for (a, b) in [(1i64, 2i64), (2, 3)] {
        db.insert("E", Tuple::from(vec![i(a), i(b)]));
    }
    let out = Session::with_stdlib(db)
        .query(
            "def TC_E(x,y) : E(x,y)\n\
             def TC_E(x,y) : exists((z) | E(x,z) and TC_E(z,y))\n\
             def output(x,y) : TC_E(x,y)",
        )
        .unwrap();
    assert_eq!(out, rel_of(&[&[i(1), i(2)], &[i(1), i(3)], &[i(2), i(3)]]));
}

#[test]
fn multiple_rules_union() {
    // "def ID : e1  def ID : e2 ≡ def ID : e1 or e2"
    let two_rules = q("def A(x) : ProductPrice(x,_)\ndef A(y) : PaymentOrder(y,_)\ndef output(x) : A(x)");
    let one_rule =
        q("def A(x) : ProductPrice(x,_) or PaymentOrder(x,_)\ndef output(x) : A(x)");
    assert_eq!(two_rules, one_rule);
}

// ---------------------------------------------------------------- §3.4

#[test]
fn output_products_over_30() {
    // "outputs all products whose price exceeds 30"
    let out = q("def output(x) : exists( (y) | ProductPrice(x,y) and y > 30)");
    assert_eq!(out, rel_of(&[&[s("P4")]]));
}

#[test]
fn paid_orders_delete_and_insert() {
    // §3.4's transaction: delete fully-paid orders' lines, insert them
    // into ClosedOrders (created on the spot).
    let mut sess = session();
    let outcome = sess
        .transact(
            "def Ord(x) : OrderProductQuantity(x,_,_)\n\
             def OrderPaymentAmount(x,y,z) : PaymentOrder(y,x) and PaymentAmount(y,z)\n\
             def OrderPaid[x in Ord] : sum[OrderPaymentAmount[x]] <++ 0\n\
             def LineAmount(o, p, a) : exists((q, pr) | \
                 OrderProductQuantity(o, p, q) and ProductPrice(p, pr) and a = q * pr)\n\
             def OrderTotal[o in Ord] : sum[LineAmount[o]]\n\
             def FullyPaid(x) : exists((u) | OrderPaid(x,u) and OrderTotal(x,u))\n\
             def delete(:OrderProductQuantity, x, y, z) : \
                 OrderProductQuantity(x,y,z) and FullyPaid(x)\n\
             def insert(:ClosedOrders, x) : FullyPaid(x)",
        )
        .unwrap();
    // O2: total 1×10 = 10, paid 10 → fully paid. O3: total 120, paid 90.
    // O1: total 2×10+1×20 = 40, paid 30.
    assert_eq!(outcome.inserted, 1);
    assert!(sess.db().get("ClosedOrders").unwrap().contains(&Tuple::from(vec![s("O2")])));
    assert_eq!(sess.db().get("OrderProductQuantity").unwrap().len(), 3);
}

// ---------------------------------------------------------------- §3.5

#[test]
fn integer_quantities_constraint_holds_and_fails() {
    let ic = "ic integer_quantities() requires \
              forall((x) | OrderProductQuantity(_,_,x) implies Int(x))";
    session().query(&format!("def output(x) : ProductPrice(x,_)\n{ic}")).unwrap();
    // Break it.
    let mut db = rel::core::database::figure1_database();
    db.insert("OrderProductQuantity", Tuple::from(vec![s("O9"), s("P1"), s("two")]));
    let err = Session::with_stdlib(db)
        .query(&format!("def output(x) : ProductPrice(x,_)\n{ic}"))
        .unwrap_err();
    assert!(matches!(err, RelError::ConstraintViolation { .. }), "{err}");
}

#[test]
fn parameterised_constraint_reports_witnesses() {
    // "integer_quantities will be populated with the values x that
    // violate the constraint".
    let mut db = rel::core::database::figure1_database();
    db.insert("OrderProductQuantity", Tuple::from(vec![s("O9"), s("P1"), s("two")]));
    let err = Session::with_stdlib(db)
        .query(
            "def output(x) : ProductPrice(x,_)\n\
             ic integer_quantities(x) requires \
             OrderProductQuantity(_,_,x) implies Int(x)",
        )
        .unwrap_err();
    match err {
        RelError::ConstraintViolation { name, witnesses } => {
            assert_eq!(name, "integer_quantities");
            assert!(witnesses.contains("two"), "{witnesses}");
        }
        other => panic!("{other}"),
    }
}

#[test]
fn valid_products_foreign_key() {
    let ic = "ic valid_products(x) requires \
              OrderProductQuantity(_,x,_) implies ProductPrice(x,_)";
    session().query(&format!("def output(x) : ProductPrice(x,_)\n{ic}")).unwrap();
}

// ---------------------------------------------------------------- §4.1

#[test]
fn cartesian_product_fixed_and_generic() {
    let src = "def R(x,y) : {(1,2); (3,4)}(x,y)\n\
               def S(x,y) : {(5,6)}(x,y)\n";
    let fixed = q(&format!("{src}def output(a,b,c,d) : R(a,b) and S(c,d)"));
    let generic = q(&format!(
        "{src}def P(x...,y...) : R(x...) and S(y...)\ndef output : P"
    ));
    let expected = rel_of(&[&[i(1), i(2), i(5), i(6)], &[i(3), i(4), i(5), i(6)]]);
    assert_eq!(fixed, expected);
    assert_eq!(generic, expected);
}

#[test]
fn prefixes_of_tuples() {
    // def Prefix(x...) : R(x...,_...) — all prefixes.
    let out = q(
        "def R(x,y) : {(1,2)}(x,y)\n\
         def Prefix(x...) : R(x...,_...)\n\
         def output : Prefix",
    );
    // (), (1), (1,2)
    assert_eq!(out.len(), 3);
    assert!(out.contains(&Tuple::empty()));
    assert!(out.contains(&Tuple::from(vec![i(1)])));
    assert!(out.contains(&Tuple::from(vec![i(1), i(2)])));
}

#[test]
fn permutations_by_transposition() {
    let out = q(
        "def R(x,y,z) : {(1,2,3)}(x,y,z)\n\
         def Perm(x...) : R(x...)\n\
         def Perm(x...,a,y...,b,z...) : Perm(x...,b,y...,a,z...)\n\
         def output : Perm",
    );
    assert_eq!(out.len(), 6);
}

// ---------------------------------------------------------- §4.2 / §4.3

#[test]
fn second_order_product_full_and_partial() {
    let src = "def R(x,y) : {(1,2); (3,4)}(x,y)\n\
               def S(x,y) : {(5,6)}(x,y)\n\
               def Product({A},{B},x...,y...) : A(x...) and B(y...)\n";
    // Full application: Product(R, S, 1, 2, 5, 6) is true.
    let out = q(&format!("{src}def output() : Product(R, S, 1, 2, 5, 6)"));
    assert!(out.is_true());
    // Partial application: Product[R, S] is the Cartesian product.
    let out = q(&format!("{src}def output : Product[R, S]"));
    assert_eq!(out.len(), 2);
    // The (R, S) infix notation is the same operation.
    let out2 = q(&format!("{src}def output : (R, S)"));
    assert_eq!(out, out2);
}

#[test]
fn partial_application_of_base_relation() {
    // OrderProductQuantity["O1"] = {("P1",2), ("P2",1)} (§4.3).
    let out = q("def output : OrderProductQuantity[\"O1\"]");
    assert_eq!(out, rel_of(&[&[s("P1"), i(2)], &[s("P2"), i(1)]]));
    // Full application as boolean.
    assert!(q("def output() : OrderProductQuantity(\"O1\",\"P1\",2)").is_true());
    assert!(q("def output() : OrderProductQuantity(\"O1\",\"P1\",3)").is_empty());
}

#[test]
fn singleton_product_literal() {
    // ("P4",40) is the relation containing a single tuple (§4.3).
    let out = q("def output : (\"P4\", 40)");
    assert_eq!(out, rel_of(&[&[s("P4"), i(40)]]));
}

// ---------------------------------------------------------------- §4.4

#[test]
fn paren_abstraction_set_comprehension() {
    // {(x,y) : OrderProductQuantity(x,"P1",y)} — orders and quantities of P1.
    let out = q("def output : {(x,y) : OrderProductQuantity(x,\"P1\",y)}");
    assert_eq!(out, rel_of(&[&[s("O1"), i(2)], &[s("O2"), i(1)]]));
}

#[test]
fn bracket_abstraction_expression_4() {
    // Expression (4): {[x,y] : (OrderProductQuantity[x], PaymentOrder(y,x))}
    let out = q(
        "def output : {[x,y] : (OrderProductQuantity[x], PaymentOrder(y,x))}",
    );
    assert!(out.contains(&Tuple::from(vec![s("O1"), s("Pmt1"), s("P1"), i(2)])));
    assert!(out.contains(&Tuple::from(vec![s("O1"), s("Pmt1"), s("P2"), i(1)])));
    // And the `where` rewriting of §5.3.1 is equivalent.
    let out2 = q(
        "def output : {[x,y] : OrderProductQuantity[x] where PaymentOrder(y,x)}",
    );
    assert_eq!(out, out2);
}

#[test]
fn restricted_abstraction_domain() {
    // With V = {Pmt2, Pmt4}: only their orders' contents (§4.4).
    let out = q(
        "def Vset(v) : {(\"Pmt2\"); (\"Pmt4\")}(v)\n\
         def output : {[x, y in Vset] : \
            (OrderProductQuantity[x], PaymentOrder(y,x))}",
    );
    assert_eq!(
        out,
        rel_of(&[
            &[s("O2"), s("Pmt2"), s("P1"), i(1)],
            &[s("O3"), s("Pmt4"), s("P3"), i(4)],
        ])
    );
}

// ---------------------------------------------------------------- §5.2

#[test]
fn order_paid_aggregation() {
    // "{⟨O1,30⟩…}" with unpaid orders excluded, then included via <++ 0.
    let base = "def Ord(x) : OrderProductQuantity(x,_,_)\n\
                def OrderPaymentAmount(x,y,z) : PaymentOrder(y,x) and PaymentAmount(y,z)\n";
    let out = q(&format!(
        "{base}def output[x in Ord] : sum[OrderPaymentAmount[x]]"
    ));
    assert_eq!(
        out,
        rel_of(&[&[s("O1"), i(30)], &[s("O2"), i(10)], &[s("O3"), i(90)]])
    );
}

#[test]
fn aggregates_from_reduce() {
    // sum/count/min/max/avg are library definitions over reduce (§5.2).
    assert_eq!(q("def output[v] : v = sum[ProductPrice]"), rel_of(&[&[i(100)]]));
    assert_eq!(q("def output[v] : v = count[ProductPrice]"), rel_of(&[&[i(4)]]));
    assert_eq!(q("def output[v] : v = min[ProductPrice]"), rel_of(&[&[i(10)]]));
    assert_eq!(q("def output[v] : v = max[ProductPrice]"), rel_of(&[&[i(40)]]));
    assert_eq!(q("def output[v] : v = avg[ProductPrice]"), rel_of(&[&[i(25)]]));
}

#[test]
fn argmin_is_dot_join_with_min() {
    assert_eq!(q("def output : Argmin[ProductPrice]"), rel_of(&[&[s("P1")]]));
}

// ---------------------------------------------------------------- §5.3

#[test]
fn point_free_select_union_example() {
    // σ_{A1=A2}(R×S) ∪ B (§5.3.1).
    let out = q(
        "def R(x) : {(1); (2)}(x)\n\
         def S(x) : {(2); (7)}(x)\n\
         def B(x,y) : {(0,0)}(x,y)\n\
         def output : Union[Select[Product[R, S], Cond12], B]",
    );
    assert_eq!(out, rel_of(&[&[i(0), i(0)], &[i(2), i(2)]]));
}

#[test]
fn scalar_product_is_24() {
    // §5.3.2 — u=(4,2), v=(3,6): "the sum correctly results in 24".
    let out = q(
        "def U(i,x) : {(1,4); (2,2)}(i,x)\n\
         def Vv(i,x) : {(1,3); (2,6)}(i,x)\n\
         def output : ScalarProd[U, Vv]",
    );
    assert_eq!(out, rel_of(&[&[i(24)]]));
}

#[test]
fn matrix_mult_matches_math() {
    let out = q(
        "def A(i,j,v) : {(1,1,1); (1,2,2); (2,1,3); (2,2,4)}(i,j,v)\n\
         def B(i,j,v) : {(1,1,5); (1,2,6); (2,1,7); (2,2,8)}(i,j,v)\n\
         def output : MatrixMult[A, B]",
    );
    assert_eq!(
        out,
        rel_of(&[
            &[i(1), i(1), i(19)],
            &[i(1), i(2), i(22)],
            &[i(2), i(1), i(43)],
            &[i(2), i(2), i(50)],
        ])
    );
}

// ------------------------------------------------------------ Addendum A

#[test]
fn addup_disambiguation() {
    // addUp[?{11;22}] = {⟨2⟩,⟨4⟩}; addUp[&{11;22}] = {⟨33⟩}; unannotated
    // is an error.
    let src = "def addUp[{A}] : sum[A]\n\
               def addUp[x in Int] : x%10 + addUp[(x-x%10)/10] where x > 0\n\
               def addUp[x in Int] : 0 where x = 0\n";
    // Note: the paper's single recursive rule (guarded by x >= 0) demands
    // addUp[0] from addUp[0] and would not terminate; we use the standard
    // base-case split (x > 0 recursive, x = 0 base).
    let first = q(&format!("{src}def output : addUp[?{{11;22}}]"));
    assert_eq!(first, rel_of(&[&[i(2)], &[i(4)]]));
    let second = q(&format!("{src}def output : addUp[&{{11;22}}]"));
    assert_eq!(second, rel_of(&[&[i(33)]]));
    let err = session()
        .query(&format!("{src}def output : addUp[{{11;22}}]"))
        .unwrap_err();
    assert!(matches!(err, RelError::AmbiguousApplication(_)), "{err}");
}

#[test]
fn booleans_are_nullary_relations() {
    // true = {()}, false = {} (§4.3).
    assert!(q("def output : {()}").is_true());
    assert!(q("def output : {}").is_empty());
    // Product with true is identity; with false, empty.
    assert_eq!(
        q("def output : (ProductPrice, {()})"),
        q("def output : ProductPrice")
    );
    assert!(q("def output : (ProductPrice, {})").is_empty());
}

#[test]
fn apsp_both_variants_on_a_path() {
    let mut db = Database::new();
    for v in 0..4i64 {
        db.insert("V", Tuple::from(vec![i(v)]));
    }
    for (a, b) in [(0i64, 1i64), (1, 2), (2, 3)] {
        db.insert("E", Tuple::from(vec![i(a), i(b)]));
    }
    let sess = rel::graph::with_graph_lib(db);
    let v1 = sess.query("def output(x,y,d) : APSP(V, E, x, y, d)").unwrap();
    let v2 = sess.query("def output(x,y,d) : APSP2(V, E, x, y, d)").unwrap();
    assert_eq!(v1, v2);
    assert!(v1.contains(&Tuple::from(vec![i(0), i(3), i(3)])));
    assert!(v1.contains(&Tuple::from(vec![i(2), i(2), i(0)])));
}

#[test]
fn addup_literal_aggregation_paper_reading() {
    // The literal reading of the paper's aggregation-APSP derives both
    // (x,x,0) and the cycle length. On a cycle of length 2:
    let mut db = Database::new();
    for v in 0..2i64 {
        db.insert("V", Tuple::from(vec![i(v)]));
    }
    for (a, b) in [(0i64, 1i64), (1, 0)] {
        db.insert("E", Tuple::from(vec![i(a), i(b)]));
    }
    let out = Session::with_stdlib(db)
        .query(
            "def A({V},{E},x,y,0) : V(x) and V(y) and x = y\n\
             def A({V},{E},x,y,d) : \
               d = min[(j) : exists((z) | E(x,z) and A[V,E](z,y,j-1))]\n\
             def output(x,y,d) : A(V, E, x, y, d)",
        )
        .unwrap();
    // Literal fixpoint: diag zeros, distance-1 pairs, AND (x,x,2) cycles.
    assert!(out.contains(&Tuple::from(vec![i(0), i(0), i(0)])));
    assert!(out.contains(&Tuple::from(vec![i(0), i(1), i(1)])));
    assert!(out.contains(&Tuple::from(vec![i(0), i(0), i(2)])));
}
