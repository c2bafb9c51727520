//! `lookup_mix` — front end and per-call session overhead.
//!
//! Closed loop, 1 thread, embedded, one long-lived standard-library
//! session over 2,000 orders. A seeded schedule mixes, in every block of
//! ten ops, nine `Prepared::execute_with` of the point lookup with a
//! skewed `?order` and one ad hoc `Session::query` of the same lookup
//! with the literal inlined **and a source text unique to the op**. The
//! prepared side is the working set that fits every cache; the ad hoc
//! side never fits the 512-entry module cache, so each one pays lex,
//! parse and analysis of library + query. `op_p50_ms` is the prepared
//! execute path and `op_p95_ms` sits mid-way in the ad hoc mode.
//!
//! The issue predicted kernels under a tenth of an op here. Measured,
//! evaluating the lookup's one stratum on the env path is 35 µs of a
//! 42 µs prepared execute, so evaluation is the largest share of the op
//! time and the front end second (README, "Does the trace confirm the
//! design?"). The mix stays at 9:1 all the same: a prepared execute that
//! directly follows an ad hoc query costs twice as much, so at 7:3 or 6:4
//! the median op sits on the edge between two latency modes and
//! `op_p50_ms` spreads by a tenth between runs of one commit.

use super::Workload;
use crate::harness::{self, closed_loop, ms, us, Ctx, Layers, OpLog, RegistryMark};
use crate::trace::Recorder;
use rand::rngs::StdRng;
use rand::Rng;
use rel_bench::programs::{repeated_query_inlined, REPEATED_QUERY};
use rel_core::Relation;
use rel_engine::{Params, Prepared, Session};
use std::time::{Duration, Instant};

const ORDERS: usize = 2000;
const PRODUCTS: usize = 200;
/// Ops per schedule block, and how many of them are ad hoc.
pub const BLOCK: usize = 10;
pub const AD_HOC_PER_BLOCK: usize = 1;
/// Warm-up ops at the end of set-up: enough ad hoc queries (600) to fill
/// the 512-entry module cache, so eviction runs from the first timed op.
const WARMUP_OPS: usize = 6000;
/// Schedule prefix the input fingerprint covers.
const FINGERPRINT_OPS: usize = 4096;
/// Every this many traced ops, a `Session::prepare` of a fresh source is
/// timed on the side.
const PROBE_EVERY: u64 = 500;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Prepared,
    AdHoc,
}

/// The seeded op schedule: which order each op looks up, and which op of
/// each block goes the ad hoc way. Order popularity is Zipf-like
/// (weight 1/rank) over a seeded ranking of the orders.
#[derive(Clone)]
pub struct Schedule {
    rng: StdRng,
    /// Orders by popularity rank.
    ranking: Vec<u32>,
    /// Cumulative popularity weights.
    cumulative: Vec<f64>,
    in_block: usize,
    /// Which ops of the current block go the ad hoc way.
    ad_hoc: [bool; BLOCK],
}

impl Schedule {
    pub fn new(seed: u64) -> Self {
        let mut rng = harness::rng(seed, 31);
        let ranking = harness::permutation(ORDERS, &mut rng);
        let mut total = 0.0;
        let cumulative = (0..ORDERS)
            .map(|k| {
                total += 1.0 / (k + 1) as f64;
                total
            })
            .collect();
        Schedule {
            rng,
            ranking,
            cumulative,
            in_block: BLOCK,
            ad_hoc: [false; BLOCK],
        }
    }

    pub fn next_op(&mut self) -> (Kind, i64) {
        if self.in_block == BLOCK {
            self.in_block = 0;
            self.ad_hoc = [false; BLOCK];
            while self.ad_hoc.iter().filter(|&&a| a).count() < AD_HOC_PER_BLOCK {
                self.ad_hoc[self.rng.gen_range(0..BLOCK)] = true;
            }
        }
        let kind = if self.ad_hoc[self.in_block] {
            Kind::AdHoc
        } else {
            Kind::Prepared
        };
        self.in_block += 1;
        let total = *self.cumulative.last().expect("orders exist");
        let target = (self.rng.gen_range(0..u64::MAX) as f64 / u64::MAX as f64) * total;
        let rank = self
            .cumulative
            .partition_point(|&c| c <= target)
            .min(ORDERS - 1);
        (kind, self.ranking[rank] as i64)
    }
}

pub struct LookupMix {
    session: Session,
    prepared: Prepared,
    /// Expected rows per order, computed natively.
    expected: Vec<Relation>,
    schedule: Schedule,
    /// Ops issued so far; makes every ad hoc source unique.
    issued: u64,
    fingerprint: u32,
}

fn ad_hoc_source(order: i64, serial: u64) -> String {
    format!("{}\n// request {serial}", repeated_query_inlined(order))
}

impl LookupMix {
    fn op(&mut self) -> (Duration, Result<(), String>) {
        let (kind, order) = self.schedule.next_op();
        self.issued += 1;
        let (result, latency) = match kind {
            Kind::Prepared => {
                let params = Params::new().set("order", order);
                harness::timed(|| self.prepared.execute_with(&self.session, &params))
            }
            Kind::AdHoc => {
                let src = ad_hoc_source(order, self.issued);
                harness::timed(|| self.session.query(&src))
            }
        };
        (
            latency,
            self.check(order, result.map_err(|e| e.to_string())),
        )
    }

    fn check(&self, order: i64, result: Result<Relation, String>) -> Result<(), String> {
        match result {
            Ok(rows) if rows == self.expected[order as usize] => Ok(()),
            Ok(rows) => Err(format!("order {order}: got {rows}")),
            Err(e) => Err(format!("order {order}: {e}")),
        }
    }
}

impl Workload for LookupMix {
    const NAME: &'static str = "lookup_mix";
    const SEED1_FINGERPRINT: u32 = 0x6839_67f4;

    fn setup(ctx: &Ctx) -> Self {
        let mut rng = harness::rng(ctx.seed, 3);
        let orders =
            rel_bench::OrderWorkload::generate(ORDERS, PRODUCTS, rng.gen_range(0..u64::MAX));

        let expected = harness::priced_lines_by_order(&orders.db, ORDERS);

        let schedule = Schedule::new(ctx.seed);
        let mut head = schedule.clone();
        let schedule_bytes: Vec<u8> = (0..FINGERPRINT_OPS)
            .flat_map(|_| {
                let (kind, order) = head.next_op();
                [(kind == Kind::AdHoc) as u8, order as u8, (order >> 8) as u8]
            })
            .collect();
        let fingerprint = harness::input_fingerprint(&orders.db, &schedule_bytes);

        let session = Session::with_config(orders.db, harness::engine_config(false))
            .with_library(&rel_stdlib::full_library());
        let prepared = session
            .prepare(REPEATED_QUERY)
            .expect("the point lookup prepares");
        let mut w = LookupMix {
            session,
            prepared,
            expected,
            schedule,
            issued: 0,
            fingerprint,
        };
        for _ in 0..WARMUP_OPS {
            let (_, outcome) = w.op();
            outcome.expect("warm-up op returns the expected rows");
        }
        w
    }

    fn fingerprint(&self) -> u32 {
        self.fingerprint
    }

    fn timed_pass(&mut self, seconds: f64) -> OpLog {
        closed_loop(seconds, || self.op())
    }

    fn traced_pass(&mut self, seconds: f64, rec: &mut Recorder, layers: &mut Layers) -> (u64, u64) {
        let mark = RegistryMark::now();
        let module = self.prepared.module();
        layers.set("sema.strata", module.strata.len() as f64);
        layers.set(
            "sema.rules",
            module.rules.values().map(Vec::len).sum::<usize>() as f64,
        );
        let budget = Duration::from_secs_f64(seconds);
        let start = Instant::now();
        let (mut attempted, mut failed) = (0u64, 0u64);
        while start.elapsed() < budget {
            let (kind, order) = self.schedule.next_op();
            self.issued += 1;
            rec.set_op(attempted);
            let op = rec.enter("op");
            let execute;
            let result = match kind {
                Kind::Prepared => {
                    let params = Params::new().set("order", order);
                    execute = rec.enter("session.execute");
                    self.prepared.execute_with_profiled(&self.session, &params)
                }
                Kind::AdHoc => {
                    let src = ad_hoc_source(order, self.issued);
                    let (compiled, took) = rec.leaf("sema.compile", || self.session.compile(&src));
                    layers.sample("sema.compile_ms", ms(took));
                    execute = rec.enter("session.execute");
                    compiled.and_then(|_| self.session.query_profiled(&src))
                }
            };
            if let Ok((_, profile)) = &result {
                rec.reported_child("eval.strata", profile.strata_wall());
            }
            let took = rec.exit(execute);
            let (typed, extracting) = rec.leaf("eval.output", || {
                result
                    .as_ref()
                    .ok()
                    .map(|(rows, _)| rows.rows::<(i64, i64, i64)>())
            });
            layers.sample("eval.output_ms", ms(extracting));
            rec.exit(op);
            attempted += 1;

            if let Ok((rows, profile)) = &result {
                layers.profile(profile, rows.len());
                layers.sample("eval.materialize_ms", ms(profile.strata_wall()));
                if kind == Kind::Prepared {
                    layers.sample(
                        "session.exec_overhead_us",
                        us(took.saturating_sub(profile.strata_wall())),
                    );
                }
            }
            let typed_ok = matches!(typed, Some(Ok(_)));
            let outcome = self
                .check(
                    order,
                    result.map(|(rows, _)| rows).map_err(|e| e.to_string()),
                )
                .and_then(|()| {
                    typed_ok
                        .then_some(())
                        .ok_or("typed rows failed".to_string())
                });
            if let Err(why) = outcome {
                eprintln!("benchmark: failed traced op: {why}");
                failed += 1;
            }
            if attempted % PROBE_EVERY == 1 {
                let src = ad_hoc_source(order, u64::MAX - attempted);
                let (_, took) = harness::timed(|| self.session.prepare(&src));
                layers.sample("session.prepare_ms", ms(took));
            }
        }
        mark.cache_ratios(layers);
        (attempted, failed)
    }

    fn finish(mut self, _layers: Option<&mut Layers>) -> Vec<String> {
        // Every order once more through both paths.
        let mut errors = Vec::new();
        for order in 0..ORDERS as i64 {
            let prepared = self
                .prepared
                .execute_with(&self.session, &Params::new().set("order", order))
                .map_err(|e| e.to_string());
            self.issued += 1;
            let ad_hoc = self
                .session
                .query(&ad_hoc_source(order, self.issued))
                .map_err(|e| e.to_string());
            for result in [prepared, ad_hoc] {
                if let Err(why) = self.check(order, result) {
                    errors.push(why);
                }
            }
            if errors.len() > 5 {
                break;
            }
        }
        errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_keeps_its_mix() {
        let ops = |seed| {
            let mut s = Schedule::new(seed);
            (0..10_000).map(|_| s.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(ops(5), ops(5));
        assert_ne!(ops(5), ops(6));
        let a = ops(5);
        let ad_hoc = a.iter().filter(|(k, _)| *k == Kind::AdHoc).count();
        assert_eq!(
            ad_hoc,
            a.len() / BLOCK * AD_HOC_PER_BLOCK,
            "the stated ad hoc share, block by block"
        );
        assert!(a.iter().all(|&(_, o)| (0..ORDERS as i64).contains(&o)));
        // Skew: the most popular order draws far more than its even share.
        let mut hits = vec![0usize; ORDERS];
        for &(_, o) in &a {
            hits[o as usize] += 1;
        }
        assert!(*hits.iter().max().unwrap() > 50 * a.len() / ORDERS);
    }
}
