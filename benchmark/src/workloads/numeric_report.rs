//! `numeric_report` — the bypass for the columnar kernels.
//!
//! Closed loop, 1 thread, embedded. One op is a fresh graph-library
//! session plus one program with the paper's `PageRank[M]` (a partial
//! fixpoint over a 48-vertex transition matrix, 57 steps) and a dense 12×12
//! `MatrixMult[A, B]`. Scalar-arithmetic rules and the partial fixpoint
//! never leave the env path, so the fused and leapfrog kernels do next to
//! nothing here: what moves `report_joins` should not move this, and the
//! other way round.

use super::report::Report;
use super::Workload;
use crate::harness::{self, Ctx, Layers, OpLog};
use crate::trace::Recorder;
use rand::rngs::StdRng;
use rand::Rng;
use rel_core::{tuple, Database, Relation, Value};
use rel_graph::{gen, native};

pub const NUMERIC: &str = "\
def PR(i, v) : PageRank[M](i, v)
def MM(i, j, v) : MatrixMult[A, B](i, j, v)
def output(:PR, i, v) : PR(i, v)
def output(:MM, i, j, v) : MM(i, j, v)";

/// PageRank graph: vertices, average degree, shape seed. The shape fixes
/// how many steps the partial fixpoint takes (`eval.iterations` reports
/// it): random graphs of this size range from 43 to 519 steps, so a shape
/// drawn from `--seed` would decide the run's numbers. This one takes 57,
/// which keeps an op near 35 ms and a 20 s pass above the 400 ops
/// `op_p95_ms` wants.
const RANK_GRAPH: (usize, f64, u64) = (48, 3.0, 8);
/// The paper's stop condition: iterate while some rank moved by more.
const RANK_EPSILON: f64 = 0.005;
/// Side of the two dense matrices.
const MATRIX_SIDE: usize = 12;

pub struct NumericReport {
    report: Report,
}

/// Dense `d×d` matrix with seeded entries in `1..10`.
fn dense_matrix(d: usize, rng: &mut StdRng) -> Relation {
    let mut rel = Relation::new();
    for i in 1..=d as i64 {
        for j in 1..=d as i64 {
            rel.insert(tuple![i, j, rng.gen_range(1..10i64)]);
        }
    }
    rel
}

impl Workload for NumericReport {
    const NAME: &'static str = "numeric_report";
    const SEED1_FINGERPRINT: u32 = 0x83f5_b0f4;

    fn setup(ctx: &Ctx) -> Self {
        let mut rng = harness::rng(ctx.seed, 2);
        let (n, deg, shape) = RANK_GRAPH;
        let graph = harness::relabelled_graph(n, deg, shape, &mut rng);
        let (a, b) = (
            dense_matrix(MATRIX_SIDE, &mut rng),
            dense_matrix(MATRIX_SIDE, &mut rng),
        );

        // Native references, computed without the engine.
        let ranks = native::pagerank_iterate(
            graph.n,
            &native::transition_matrix(&graph),
            RANK_EPSILON,
            rel_engine::fixpoint::PFP_CAP,
        );
        let product: Relation = rel_bench::native_matmul(&a, &b)
            .iter()
            .map(|t| {
                let mut row = vec![Value::sym("MM")];
                row.extend(t.values().iter().cloned());
                rel_core::Tuple::from(row)
            })
            .collect();

        let mut db = Database::new();
        db.set("M", gen::transition_matrix_relation(&graph));
        db.set("A", a);
        db.set("B", b);
        let expected_ranks = ranks.into_iter().map(|(i, v)| (i as i64, v)).collect();
        NumericReport {
            report: Report::new(db, NUMERIC, product, expected_ranks),
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
        self.report.finish()
    }
}
