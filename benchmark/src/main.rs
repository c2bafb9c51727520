//! The repo benchmark: five workloads, end-to-end metrics a user of the
//! system sees, and per-layer metrics measured from outside through the
//! crates' public functions. `BENCHMARK.json` at the repo root is the
//! contract; `README.md` next to this package explains every choice.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!           [--trace-out FILE] [--smoke]          one workload, in this process
//! benchmark [--seed N] [--seconds S] [--repeat K] [--out FILE] [--smoke]
//!                                                 every workload, each in a child process
//! benchmark --compare A.json B.json               two `--out` files against the bounds
//! benchmark --list                                the metric and workload tables
//! ```
//!
//! The last line on standard output of a `--workload` run is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

mod compare;
mod harness;
mod json;
mod spec;
mod stats;
mod trace;
mod workloads;

use harness::{Ctx, Outcome};
use json::Json;
use spec::WORKLOADS;
use std::path::PathBuf;
use std::process::ExitCode;

/// Default `--seconds`: the `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: f64 = 20.0;
/// `--smoke` measures for this long per pass.
const SMOKE_SECONDS: f64 = 0.3;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    trace_out: Option<PathBuf>,
    smoke: bool,
    repeat: usize,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    list: bool,
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("benchmark: {problem}");
    eprintln!(
        "usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE] [--smoke]\n\
         \x20      benchmark [--seed N] [--seconds S] [--repeat K] [--out FILE] [--smoke]\n\
         \x20      benchmark --compare A.json B.json\n\
         \x20      benchmark --list\n\
         workloads: {}",
        WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>().join(", ")
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        trace_out: None,
        smoke: false,
        repeat: 1,
        out: None,
        compare: None,
        list: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} expects {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed expects a whole number")?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds expects a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be above 0 and at most 600".to_string());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".to_string()),
                }
            }
            "--trace-out" => args.trace_out = Some(value("a file")?.into()),
            "--smoke" => args.smoke = true,
            "--repeat" => {
                args.repeat = value("a number")?
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or("--repeat expects a positive number")?
            }
            "--out" => args.out = Some(value("a file")?.into()),
            "--list" => args.list = true,
            "--compare" => {
                args.compare = Some((value("two files")?.into(), value("two files")?.into()))
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    // Before any thread exists: nothing the engine or the server reads
    // from the environment may differ between two runs.
    let scrubbed = harness::scrub_rel_env();
    let args = match parse_args() {
        Ok(args) => args,
        Err(problem) => return usage(&problem),
    };
    if let Some((a, b)) = &args.compare {
        return compare::run(a, b);
    }
    if args.list {
        print_tables();
        return ExitCode::SUCCESS;
    }
    if !scrubbed.is_empty() {
        println!("ignored from the environment: {}", scrubbed.join(", "));
    }
    match &args.workload {
        Some(name) => run_one(name, &args),
        None => run_all(&args),
    }
}

/// The benchmark's vocabulary as the tables `README.md` shows.
fn print_tables() {
    println!("| end-to-end metric | unit | better | bound | meaning |\n|---|---|---|---|---|");
    for m in spec::END_TO_END {
        println!(
            "| `{}` | {} | {} | {:.0}% | {} |",
            m.name,
            m.unit,
            m.better.label(),
            m.bound * 100.0,
            m.meaning
        );
    }
    println!("\n| workload | one op | why |\n|---|---|---|");
    for w in WORKLOADS {
        println!("| `{}` | {} | {} |", w.name, w.op, w.why);
    }
    println!("\n| per-layer metric | unit | better |\n|---|---|---|");
    for m in spec::PER_LAYER {
        println!("| `{}` | {} | {} |", m.name, m.unit, m.better.label());
    }
}

/// Host facts a reader needs to place the numbers.
fn print_host() {
    let output = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    println!("nproc {}", harness::nproc());
    println!("rustc {}", output("rustc", &["--version"]));
    println!("git commit {}", output("git", &["rev-parse", "HEAD"]));
    let scratch = harness::scratch_root();
    println!(
        "scratch {} ({})",
        scratch.display(),
        harness::filesystem_of(&scratch)
    );
    println!("fsync policy always (durable workloads), engine metrics off in the timed pass, on in the traced pass");
}

fn run_one(name: &str, args: &Args) -> ExitCode {
    let Some(workload) = WORKLOADS.iter().find(|w| w.name == name) else {
        return usage(&format!("unknown workload {name}"));
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.smoke {
            SMOKE_SECONDS
        } else {
            RUN_SECONDS
        }),
        trace: args.trace,
        smoke: args.smoke,
        trace_out: args.trace_out.clone(),
    };
    println!(
        "workload {name} seed {} seconds {} trace {}",
        ctx.seed, ctx.seconds, ctx.trace as u8
    );
    print_host();
    if ctx.smoke {
        println!("SMOKE RUN: the numbers below are meaningless");
    }
    let outcome = (workload.run)(&ctx);
    print_outcome(&outcome);
    // Output checks that failed fail the run.
    if outcome.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_outcome(outcome: &Outcome) {
    for m in &outcome.metrics {
        if m.samples > 0 {
            println!(
                "{:<40} {:>16.6} {:<6} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        } else {
            println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
        }
    }
    for e in &outcome.errors {
        println!("OUTPUT CHECK FAILED: {e}");
    }
    let failed_share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "failed_share {failed_share} ({} of {} ops)",
        outcome.failed, outcome.attempted
    );
    let metrics = outcome.metrics.iter().map(|m| {
        (
            m.name,
            json::obj([
                ("value", Json::Num(m.value)),
                ("unit", Json::Str(m.unit.to_string())),
            ]),
        )
    });
    let result = json::obj([
        (
            "correct",
            Json::Bool(outcome.errors.is_empty() && outcome.failed == 0),
        ),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", json::obj(metrics)),
    ]);
    println!("{}", result.render());
}

/// Every workload, each in its own child process — so peak memory, the
/// process-global metrics registry and the process-wide switches are per
/// workload — once with `--trace 0` and once with `--trace 1`, `--repeat`
/// times over.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("benchmark knows its own path");
    let mut runs: Vec<Json> = Vec::new();
    let mut all_correct = true;
    for repeat in 0..args.repeat {
        for w in WORKLOADS {
            for trace in ["0", "1"] {
                let mut cmd = std::process::Command::new(&exe);
                cmd.args([
                    "--workload",
                    w.name,
                    "--seed",
                    &args.seed.to_string(),
                    "--trace",
                    trace,
                ]);
                if let Some(s) = args.seconds {
                    cmd.args(["--seconds", &s.to_string()]);
                }
                if args.smoke {
                    cmd.arg("--smoke");
                }
                println!(
                    "=== {} --trace {trace} (run {} of {}) ===",
                    w.name,
                    repeat + 1,
                    args.repeat
                );
                // `output` waits for the child to end.
                let output = match cmd.stderr(std::process::Stdio::inherit()).output() {
                    Ok(output) => output,
                    Err(e) => {
                        eprintln!("benchmark: cannot start {}: {e}", exe.display());
                        return ExitCode::FAILURE;
                    }
                };
                let stdout = String::from_utf8_lossy(&output.stdout);
                print!("{stdout}");
                let result = stdout.lines().last().and_then(|l| json::parse(l).ok());
                let correct = output.status.success()
                    && result.as_ref().and_then(|r| r.get("correct")) == Some(&Json::Bool(true));
                all_correct &= correct;
                if let Some(result) = result {
                    runs.push(json::obj([
                        ("workload", Json::Str(w.name.to_string())),
                        ("trace", Json::Num(if trace == "1" { 1.0 } else { 0.0 })),
                        ("result", result),
                    ]));
                }
            }
        }
    }
    if let Some(path) = &args.out {
        let doc = json::obj([
            ("seed", Json::Num(args.seed as f64)),
            ("smoke", Json::Bool(args.smoke)),
            ("runs", Json::Arr(runs)),
        ]);
        if let Err(e) = std::fs::write(path, doc.render() + "\n") {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("benchmark: some run failed an output check or an op");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::spec::{END_TO_END, PER_LAYER, WORKLOADS};
    use super::*;

    fn contract() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
            .expect("BENCHMARK.json parses")
    }

    #[test]
    fn benchmark_json_states_the_same_lists() {
        let doc = contract();
        let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).map(str::to_string);
        let workloads: Vec<_> = doc
            .get("workloads")
            .expect("workloads")
            .as_arr()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        assert_eq!(
            workloads,
            WORKLOADS
                .iter()
                .map(|w| (Some(w.name.to_string()), Some(w.why.to_string())))
                .collect::<Vec<_>>()
        );
        let e2e: Vec<_> = doc
            .get("end_to_end")
            .expect("end_to_end")
            .as_arr()
            .iter()
            .map(|m| {
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect();
        assert_eq!(
            e2e,
            END_TO_END
                .iter()
                .map(|m| (
                    Some(m.name.to_string()),
                    Some(m.unit.to_string()),
                    Some(m.better.label().to_string()),
                    Some(m.bound)
                ))
                .collect::<Vec<_>>()
        );
        let layers: Vec<_> = doc
            .get("per_layer")
            .expect("per_layer")
            .as_arr()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        assert_eq!(
            layers,
            PER_LAYER
                .iter()
                .map(|m| (
                    Some(m.name.to_string()),
                    Some(m.unit.to_string()),
                    Some(m.better.label().to_string())
                ))
                .collect::<Vec<_>>()
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS)
        );
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(name_ok(name), "{name}");
            assert!(unit_ok(unit), "{unit}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for w in WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why has {} characters",
                w.name,
                w.why.len()
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128 && (2..=8).contains(&WORKLOADS.len()));
    }
}
