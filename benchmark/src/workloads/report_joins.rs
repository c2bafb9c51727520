//! `report_joins` — the fused columnar and leapfrog kernels at work.
//!
//! Closed loop, 1 thread, embedded. One op is a fresh
//! `rel_graph::with_graph_lib(db.clone())` session plus
//! `Session::query(REPORT)`: one Rel program with three independent
//! strata groups tagged into `output` — reachability (transitive closure
//! of a 200-vertex digraph, reported for a watch list of sources), every
//! directed triangle of a 500-vertex degree-16 graph, and revenue per
//! order over 4,000 orders. The stratum scheduler has independent strata
//! for two cores; the front end is a few percent of an op; write and
//! wire paths are idle.

use super::report::Report;
use super::Workload;
use crate::harness::{self, Ctx, Layers, OpLog};
use crate::trace::Recorder;
use rand::Rng;
use rel_core::{tuple, Relation, Value};
use rel_graph::{gen, native};
use std::collections::{BTreeMap, BTreeSet, HashSet};

pub const REPORT: &str = "\
def Reach(x, y) : TC(E1, x, y)
def Tri(a, b, c) : Triangles(E2, a, b, c)
def Ord(o) : Line(o, _, _)
def LineAmount(o, l, a) : exists((p) | Line(o, l, p) and Price(p, a))
def Rev[o in Ord] : sum[LineAmount[o]] <++ 0
def Listed(x, y) : Source(x) and Reach(x, y)
def output(:Reach, x, y) : Listed(x, y)
def output(:Tri, a, b, c) : Tri(a, b, c)
def output(:Rev, o, v) : Rev(o, v)";

/// Reachability graph: vertices, average degree, shape seed.
const REACH_GRAPH: (usize, f64, u64) = (200, 3.0, 42);
/// Triangle graph: vertices, average degree, shape seed.
const TRIANGLE_GRAPH: (usize, f64, u64) = (500, 16.0, 23);
/// Sources whose reachable sets the report lists.
const SOURCES: usize = 10;
const ORDERS: usize = 4000;
const PRODUCTS: usize = 200;

pub struct ReportJoins {
    report: Report,
    /// The full closure, for the final check of `Reach` itself.
    closure: Relation,
}

impl Workload for ReportJoins {
    const NAME: &'static str = "report_joins";
    const SEED1_FINGERPRINT: u32 = 0xd28e_0179;

    fn setup(ctx: &Ctx) -> Self {
        let mut rng = harness::rng(ctx.seed, 1);
        let (n, deg, shape) = REACH_GRAPH;
        let reach_graph = harness::relabelled_graph(n, deg, shape, &mut rng);
        let (n, deg, shape) = TRIANGLE_GRAPH;
        let tri_graph = harness::relabelled_graph(n, deg, shape, &mut rng);
        let orders =
            rel_bench::OrderWorkload::generate(ORDERS, PRODUCTS, rng.gen_range(0..u64::MAX));
        let mut sources = BTreeSet::new();
        while sources.len() < SOURCES {
            sources.insert(rng.gen_range(0..reach_graph.n as u32));
        }

        let mut db = orders.db.clone();
        db.set("E1", gen::edge_relation(&reach_graph));
        db.set("E2", gen::edge_relation(&tri_graph));
        db.set(
            "Source",
            Relation::from_values(sources.iter().map(|&s| Value::Int(s as i64))),
        );

        // Native references, computed without the engine.
        let closure = native::transitive_closure(&reach_graph);
        let mut expected = Vec::new();
        for &(x, y) in closure.iter().filter(|(x, _)| sources.contains(x)) {
            expected.push(tuple![Value::sym("Reach"), x as i64, y as i64]);
        }
        let edges: HashSet<(u32, u32)> = tri_graph.edges.iter().copied().collect();
        let mut triangles = 0;
        for &(a, b) in &edges {
            for &c in &tri_graph.adj[b as usize] {
                if edges.contains(&(a, c)) {
                    expected.push(tuple![Value::sym("Tri"), a as i64, b as i64, c as i64]);
                    triangles += 1;
                }
            }
        }
        assert_eq!(
            triangles,
            native::triangle_count(&tri_graph),
            "the two native triangle counts agree"
        );
        for (o, v) in orders.native_revenue() {
            expected.push(tuple![Value::sym("Rev"), o, v]);
        }
        ReportJoins {
            report: Report::new(db, REPORT, Relation::from_tuples(expected), BTreeMap::new()),
            closure: closure
                .into_iter()
                .map(|(x, y)| tuple![x as i64, y as i64])
                .collect(),
        }
    }

    fn fingerprint(&self) -> u32 {
        self.report.fingerprint()
    }

    fn timed_pass(&mut self, seconds: f64) -> OpLog {
        self.report.timed_pass(seconds)
    }

    fn traced_pass(&mut self, seconds: f64, rec: &mut Recorder, layers: &mut Layers) -> (u64, u64) {
        self.report.traced_pass(seconds, rec, layers)
    }

    fn finish(self, _layers: Option<&mut Layers>) -> Vec<String> {
        let mut errors = self.report.finish();
        let session = rel_graph::with_graph_lib(self.report.db.clone());
        match session.eval(REPORT, "Reach") {
            Ok(reach) if reach == self.closure => {}
            Ok(reach) => errors.push(format!(
                "Reach has {} pairs, native closure {}",
                reach.len(),
                self.closure.len()
            )),
            Err(e) => errors.push(format!("evaluating Reach failed: {e}")),
        }
        errors
    }
}
