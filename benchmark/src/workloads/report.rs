//! The op, passes and checks shared by the two embedded report
//! workloads: a fresh library session per op, one multi-part Rel program,
//! its parts tagged into `output`.

use crate::harness::{self, closed_loop, ms, us, Layers, OpLog, RegistryMark};
use crate::trace::Recorder;
use rel_core::{Database, Relation, Value};
use rel_engine::SharedIndexCache;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Warm-up ops run (untimed) at the end of set-up.
const WARMUP_OPS: usize = 3;

/// Every this many traced ops, the side measurements run (profile,
/// prepare, 1-vs-n workers). They sit outside the op spans.
const PROBE_EVERY: u64 = 4;

/// PageRank values are sums of floats; the native reference adds them in
/// another order.
const FLOAT_TOLERANCE: f64 = 1e-9;

pub struct Report {
    pub db: Database,
    program: &'static str,
    /// `library + program`, what the traced op hands `rel_sema::compile`.
    full_src: String,
    /// Every expected `output` row except the `:PR` ones.
    expected: Relation,
    /// Expected `:PR` rows (`vertex → rank`), compared within
    /// [`FLOAT_TOLERANCE`].
    expected_ranks: BTreeMap<i64, f64>,
}

impl Report {
    pub fn new(
        db: Database,
        program: &'static str,
        expected: Relation,
        expected_ranks: BTreeMap<i64, f64>,
    ) -> Self {
        let full_src = format!(
            "{}\n{}\n{program}",
            rel_stdlib::full_library(),
            rel_graph::GRAPH_LIB
        );
        let report = Report {
            db,
            program,
            full_src,
            expected,
            expected_ranks,
        };
        for _ in 0..WARMUP_OPS {
            let (_, outcome) = report.op();
            outcome.expect("warm-up op returns the expected rows");
        }
        report
    }

    /// The database plus the program text (the schedule is that one
    /// program, repeated).
    pub fn fingerprint(&self) -> u32 {
        harness::input_fingerprint(&self.db, self.program.as_bytes())
    }

    /// One op as a user issues it.
    fn op(&self) -> (Duration, Result<(), String>) {
        let start = Instant::now();
        let session = rel_graph::with_graph_lib(self.db.clone());
        let out = session.query(self.program);
        let latency = start.elapsed();
        let outcome = match out {
            Ok(rows) => self.check(&rows),
            Err(e) => Err(format!("query failed: {e}")),
        };
        (latency, outcome)
    }

    /// Compare an `output` relation with the native references.
    pub fn check(&self, out: &Relation) -> Result<(), String> {
        let pr = Value::sym("PR");
        let mut ranks = 0usize;
        let mut exact = 0usize;
        for t in out.iter() {
            if t.get(0) == Some(&pr) {
                let (Some(i), Some(v)) = (
                    t.get(1).and_then(Value::as_int),
                    t.get(2).and_then(Value::as_f64),
                ) else {
                    return Err(format!("malformed rank row {t}"));
                };
                match self.expected_ranks.get(&i) {
                    Some(want) if (v - want).abs() <= FLOAT_TOLERANCE => ranks += 1,
                    Some(want) => return Err(format!("rank of {i}: {v}, native {want}")),
                    None => return Err(format!("rank row for unknown vertex {i}")),
                }
            } else if self.expected.contains(t) {
                exact += 1;
            } else {
                return Err(format!("unexpected output row {t}"));
            }
        }
        if ranks != self.expected_ranks.len() || exact != self.expected.len() {
            return Err(format!(
                "output has {exact} exact and {ranks} rank rows, expected {} and {}",
                self.expected.len(),
                self.expected_ranks.len()
            ));
        }
        Ok(())
    }

    pub fn timed_pass(&self, seconds: f64) -> OpLog {
        closed_loop(seconds, || self.op())
    }

    /// compile → materialize → extract under spans, with the side
    /// measurements every [`PROBE_EVERY`] ops.
    pub fn traced_pass(&self, seconds: f64, rec: &mut Recorder, layers: &mut Layers) -> (u64, u64) {
        let mark = RegistryMark::now();
        let workers = harness::nproc();
        let budget = Duration::from_secs_f64(seconds);
        let start = Instant::now();
        let (mut attempted, mut failed) = (0u64, 0u64);
        while start.elapsed() < budget {
            rec.set_op(attempted);
            let op = rec.enter("op");
            let (session, _) = rec.leaf("session.open", || {
                rel_graph::with_graph_lib(self.db.clone())
            });
            let (module, compiling) =
                rec.leaf("sema.compile", || rel_sema::compile(&self.full_src));
            let (rels, materializing) = rec.leaf("eval.materialize", || {
                module.as_ref().ok().map(|m| {
                    rel_engine::materialize_with_threads(
                        m,
                        session.db(),
                        SharedIndexCache::default(),
                        workers,
                    )
                })
            });
            let (out, extracting) = rec.leaf("eval.output", || match &rels {
                Some(Ok(rels)) => Ok(rels.get("output").cloned().unwrap_or_default()),
                Some(Err(e)) => Err(format!("materialize failed: {e}")),
                None => Err("compile failed".to_string()),
            });
            rec.exit(op);
            attempted += 1;
            if let Err(why) = out.and_then(|rows| self.check(&rows)) {
                eprintln!("benchmark: failed traced op: {why}");
                failed += 1;
            }
            layers.sample("sema.compile_ms", ms(compiling));
            layers.sample("eval.materialize_ms", ms(materializing));
            layers.sample("eval.output_ms", ms(extracting));
            if let Ok(m) = &module {
                layers.set("sema.strata", m.strata.len() as f64);
                layers.set(
                    "sema.rules",
                    m.rules.values().map(Vec::len).sum::<usize>() as f64,
                );
            }
            if attempted % PROBE_EVERY == 1 {
                self.probe(layers, workers, attempted % (2 * PROBE_EVERY) == 1);
            }
        }
        mark.cache_ratios(layers);
        (attempted, failed)
    }

    /// Side measurements through the session API: the engine's own
    /// profile of the program (time by kernel class, counters), prepare
    /// time, the session wrapper's overhead, and 1 worker against all.
    fn probe(&self, layers: &mut Layers, workers: usize, with_speedup: bool) {
        let session = rel_graph::with_graph_lib(self.db.clone());
        if let Ok((rows, profile)) = session.query_profiled(self.program) {
            layers.profile(&profile, rows.len());
        }
        let session = rel_graph::with_graph_lib(self.db.clone());
        let (prepared, took) = harness::timed(|| session.prepare(self.program));
        layers.sample("session.prepare_ms", ms(took));
        if let Ok(prepared) = prepared {
            let (result, took) = harness::timed(|| prepared.execute_profiled(&session));
            if let Ok((_, profile)) = result {
                layers.sample(
                    "session.exec_overhead_us",
                    us(took.saturating_sub(profile.strata_wall())),
                );
            }
        }
        if with_speedup {
            if let Ok(module) = rel_sema::compile(&self.full_src) {
                let run = |threads: usize| {
                    harness::timed(|| {
                        rel_engine::materialize_with_threads(
                            &module,
                            &self.db,
                            SharedIndexCache::default(),
                            threads,
                        )
                    })
                    .1
                };
                let (one, all) = (run(1), run(workers));
                layers.sample(
                    "eval.parallel_speedup",
                    one.as_secs_f64() / all.as_secs_f64().max(1e-9),
                );
            }
        }
    }

    /// Final check: the whole program once more, every part against its
    /// reference.
    pub fn finish(&self) -> Vec<String> {
        let (_, outcome) = self.op();
        outcome.err().into_iter().collect()
    }
}
