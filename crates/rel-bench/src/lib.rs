//! # rel-bench
//!
//! Workload generators and native reference results for the repo
//! benchmark (`benchmark/`, declared by `BENCHMARK.json`): the order
//! workload, the Rel programs it runs, and matrix fixtures. The
//! benchmark pins seed-1 fingerprints of what these generate, so a
//! change to any generator here is a change to its inputs.

use rand::distributions::Distribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rel_core::{Database, Relation, Tuple, Value};

/// Rel sources of the workload programs.
pub mod programs {
    /// Transitive closure (§3.3).
    pub const TC: &str = "def TC(x,y) : E(x,y)\n\
                          def TC(x,y) : exists((z) | E(x,z) and TC(z,y))\n\
                          def output(x,y) : TC(x,y)";
    /// APSP, aggregation variant (§5.4).
    pub const APSP: &str = "def output(x,y,d) : APSP2(V, E, x, y, d)";
    /// PageRank with the paper's stop-condition program (§5.4).
    pub const PAGERANK: &str = "def output(i,v) : PageRank[M](i,v)";
    /// Matrix multiplication (§1, §5.3.2).
    pub const MATMUL: &str = "def output : MatrixMult[A, B]";
    /// Triangle query (§5.4).
    pub const TRIANGLES: &str = "def output(a,b,c) : Triangles(E, a, b, c)";
    /// Grouped aggregation (§5.2): revenue per order.
    pub const REVENUE: &str = "\
        def Ord(o) : Line(o, _, _)\n\
        def LineAmount(o, l, a) : exists((p) | Line(o, l, p) and Price(p, a))\n\
        def output[o in Ord] : sum[LineAmount[o]] <++ 0";

    /// The `repeated_query` workload's program (client API v2): the
    /// server-shaped point lookup — one order's lines, priced — with the
    /// order id a `?order` parameter bound per execute.
    pub const REPEATED_QUERY: &str = "\
        def output(l, p, a) : exists((o) | o = ?order and Line(o, l, p) and Price(p, a))";

    /// The same query with the parameter spliced into the source — the
    /// string-interpolation pattern the unprepared (v1) path forces.
    pub fn repeated_query_inlined(order: i64) -> String {
        REPEATED_QUERY.replace("?order", &order.to_string())
    }
}

/// An order/payment workload scaled from Figure 1's schema: `n_orders`
/// orders with 1–4 lines each over `n_products` products whose popularity
/// is Zipf-ish skewed.
pub struct OrderWorkload {
    /// The populated database (relations `Line(order, line, product)` and
    /// `Price(product, price)`).
    pub db: Database,
    /// Number of orders.
    pub n_orders: usize,
}

impl OrderWorkload {
    /// Generate a reproducible workload.
    pub fn generate(n_orders: usize, n_products: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db = Database::new();
        for p in 0..n_products {
            db.insert(
                "Price",
                Tuple::from(vec![
                    Value::Int(p as i64),
                    Value::Int(rng.gen_range(1..100)),
                ]),
            );
        }
        // Skewed product popularity: product k chosen ∝ 1/(k+1).
        let weights: Vec<f64> = (0..n_products).map(|k| 1.0 / (k + 1) as f64).collect();
        let dist = rand::distributions::WeightedIndex::new(&weights).expect("nonempty");
        let mut line_id = 0i64;
        for o in 0..n_orders {
            let lines = rng.gen_range(1..=4);
            for _ in 0..lines {
                let p = dist.sample(&mut rng) as i64;
                db.insert(
                    "Line",
                    Tuple::from(vec![
                        Value::Int(o as i64),
                        Value::Int(line_id),
                        Value::Int(p),
                    ]),
                );
                line_id += 1;
            }
        }
        OrderWorkload { db, n_orders }
    }

    /// The native (imperative) revenue-per-order baseline.
    pub fn native_revenue(&self) -> std::collections::BTreeMap<i64, i64> {
        let mut price = std::collections::HashMap::new();
        for t in self.db.get("Price").expect("generated").iter() {
            price.insert(t.values()[0].clone(), t.values()[1].as_int().expect("int"));
        }
        let mut out: std::collections::BTreeMap<i64, i64> = (0..self.n_orders as i64)
            .map(|o| (o, 0))
            .collect();
        for t in self.db.get("Line").expect("generated").iter() {
            let o = t.values()[0].as_int().expect("int");
            *out.entry(o).or_insert(0) += price[&t.values()[2]];
        }
        out
    }
}

/// Dense `d×d` matrix relation with deterministic values.
pub fn dense_matrix(name_: &str, d: usize, db: &mut Database) {
    let mut rel = Relation::new();
    for i in 1..=d {
        for j in 1..=d {
            rel.insert(Tuple::from(vec![
                Value::Int(i as i64),
                Value::Int(j as i64),
                Value::Int(((i * 31 + j * 17) % 10 + 1) as i64),
            ]));
        }
    }
    db.set(name_, rel);
}

/// Sparse `d×d` matrix relation with ~`density` fill.
pub fn sparse_matrix(name_: &str, d: usize, density: f64, seed: u64, db: &mut Database) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rel = Relation::new();
    for i in 1..=d {
        for j in 1..=d {
            if rng.gen_bool(density) {
                rel.insert(Tuple::from(vec![
                    Value::Int(i as i64),
                    Value::Int(j as i64),
                    Value::Int(rng.gen_range(1..10)),
                ]));
            }
        }
    }
    db.set(name_, rel);
}

/// Native dense matmul baseline over the same relation encoding.
pub fn native_matmul(a: &Relation, b: &Relation) -> Relation {
    use std::collections::HashMap;
    let mut b_by_row: HashMap<&Value, Vec<(&Value, i64)>> = HashMap::new();
    for t in b.iter() {
        b_by_row
            .entry(&t.values()[0])
            .or_default()
            .push((&t.values()[1], t.values()[2].as_int().expect("int")));
    }
    let mut acc: HashMap<(Value, Value), i64> = HashMap::new();
    for t in a.iter() {
        let (i, k, v) = (&t.values()[0], &t.values()[1], t.values()[2].as_int().expect("int"));
        if let Some(cols) = b_by_row.get(k) {
            for (j, w) in cols {
                *acc.entry((i.clone(), (*j).clone())).or_insert(0) += v * w;
            }
        }
    }
    acc.into_iter()
        .map(|((i, j), v)| Tuple::from(vec![i, j, Value::Int(v)]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rel_stdlib::SessionExt;

    #[test]
    fn order_workload_matches_native() {
        let w = OrderWorkload::generate(50, 20, 1);
        let session = rel_engine::Session::with_stdlib(w.db.clone());
        let out = session.query(programs::REVENUE).unwrap();
        let native = w.native_revenue();
        assert_eq!(out.len(), native.len());
        for t in out.iter() {
            let o = t.values()[0].as_int().unwrap();
            let v = t.values()[1].as_int().unwrap();
            assert_eq!(v, native[&o], "order {o}");
        }
    }

    #[test]
    fn dense_matmul_matches_native() {
        let mut db = Database::new();
        dense_matrix("A", 6, &mut db);
        dense_matrix("B", 6, &mut db);
        let native = native_matmul(db.get("A").unwrap(), db.get("B").unwrap());
        let session = rel_engine::Session::with_stdlib(db);
        let out = session.query(programs::MATMUL).unwrap();
        assert_eq!(out, native);
    }

    #[test]
    fn sparse_matmul_same_code() {
        // Data independence (§1): the same Rel program runs on sparse data.
        let mut db = Database::new();
        sparse_matrix("A", 10, 0.2, 3, &mut db);
        sparse_matrix("B", 10, 0.2, 4, &mut db);
        let native = native_matmul(db.get("A").unwrap(), db.get("B").unwrap());
        let session = rel_engine::Session::with_stdlib(db);
        let out = session.query(programs::MATMUL).unwrap();
        assert_eq!(out, native);
    }
}
