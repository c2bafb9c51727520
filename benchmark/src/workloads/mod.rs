//! The five workloads and the pass sequence they all run.

pub mod lookup_mix;
pub mod numeric_report;
mod report;
pub mod report_joins;
pub mod serving_mix;
pub mod txn_stream;

use crate::harness::{self, Ctx, Layers, Metric, OpLog, Outcome};
use crate::stats;
use crate::trace::Recorder;
use std::time::Instant;

/// Share of a `--trace 1` run spent on the plain pass that gives
/// `trace.overhead_share` its base; the rest is the traced pass.
const UNTRACED_SHARE: f64 = 0.25;

/// One workload. The generic [`run`] drives the passes.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// `input_fingerprint` for `--seed 1`; a run with that seed whose
    /// generated inputs hash differently is refused.
    const SEED1_FINGERPRINT: u32;

    /// Everything before the timed pass: generate the inputs from the
    /// seed, open sessions/servers, prepare, run the warm-up ops.
    fn setup(ctx: &Ctx) -> Self;

    /// CRC32 of the generated database and the head of the op schedule.
    fn fingerprint(&self) -> u32;

    /// The timed pass: engine metrics off, only the one user-visible
    /// call per op is timed.
    fn timed_pass(&mut self, seconds: f64) -> OpLog;

    /// The traced pass: each op's call replaced by the decomposed public
    /// calls, each under a span; engine metrics on. Returns the ops
    /// attempted and failed.
    fn traced_pass(&mut self, seconds: f64, rec: &mut Recorder, layers: &mut Layers) -> (u64, u64);

    /// Final output checks (and, for the durable workloads, the
    /// compact/drop/reopen sequence). Returns what failed.
    fn finish(self, layers: Option<&mut Layers>) -> Vec<String>;
}

pub fn run<W: Workload>(ctx: &Ctx) -> Outcome {
    harness::set_process_switches(false);
    let mut setups = Vec::new();
    let mut state = None;
    for _ in 0..ctx.setup_repeats() {
        drop(state.take());
        let (w, took) = harness::timed(|| W::setup(ctx));
        setups.push(took.as_secs_f64());
        state = Some(w);
    }
    let mut w = state.expect("at least one set-up ran");

    let fingerprint = w.fingerprint();
    println!("input_fingerprint {fingerprint:#010x} (seed {})", ctx.seed);
    if ctx.seed == 1 && fingerprint != W::SEED1_FINGERPRINT {
        eprintln!(
            "benchmark: {} inputs for seed 1 hash to {fingerprint:#010x}, pinned {:#010x}: \
             a generator changed, so the load is no longer the recorded one — refusing to run",
            W::NAME,
            W::SEED1_FINGERPRINT
        );
        // Close stores and servers (and remove their scratch files) first.
        drop(w);
        std::process::exit(3);
    }

    if !ctx.trace {
        let log = w.timed_pass(ctx.seconds);
        report_failures(&log);
        let errors = w.finish(None);
        if log.ops.len() < 400 && !ctx.smoke {
            println!(
                "WARNING: the timed pass completed {} ops; op_p95_ms wants 400, so that 10 of the quiet half lie beyond it",
                log.ops.len()
            );
        }
        println!(
            "peak_rss_mb {} (VmHWM; not gated, see README)",
            harness::peak_rss_mb()
        );
        let mut metrics = vec![Metric {
            name: "setup_s",
            value: stats::median(&setups),
            unit: "s",
            samples: setups.len() as u64,
        }];
        metrics.extend(log.end_to_end());
        return Outcome {
            attempted: log.attempted,
            failed: log.failed,
            errors,
            metrics,
        };
    }

    let plain = w.timed_pass(ctx.seconds * UNTRACED_SHARE);
    report_failures(&plain);
    // Read before the traced pass: its spans and samples are the
    // benchmark's memory, not the workload's.
    let peak_rss_mb = harness::peak_rss_mb();
    harness::set_process_switches(true);
    let mut rec = Recorder::new(Instant::now());
    let mut layers = Layers::new();
    let (attempted, failed) =
        w.traced_pass(ctx.seconds * (1.0 - UNTRACED_SHARE), &mut rec, &mut layers);
    harness::set_process_switches(false);
    let errors = w.finish(Some(&mut layers));
    layers.set("process.peak_rss_mb", peak_rss_mb);
    if let Some(path) = &ctx.trace_out {
        match rec.write(path) {
            Ok(()) => println!("wrote {} spans to {}", rec.spans().len(), path.display()),
            Err(e) => eprintln!("benchmark: cannot write {}: {e}", path.display()),
        }
    }
    let metrics = layers.finish(&rec, harness::ops_per_busy_s(&plain));
    Outcome {
        attempted: plain.attempted + attempted,
        failed: plain.failed + failed,
        errors,
        metrics,
    }
}

fn report_failures(log: &OpLog) {
    for why in &log.failures {
        eprintln!("benchmark: failed op: {why}");
    }
}
