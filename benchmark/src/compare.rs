//! `benchmark --compare A.json B.json`: two result files written by
//! `--out`, every (workload, end-to-end metric) side by side against the
//! metric's bound. `A` is the base (the parent commit, or the first of
//! two runs of one commit), `B` the candidate.

use crate::json::{self, Json};
use crate::spec::{Better, EndToEnd, END_TO_END, WORKLOADS};
use crate::stats;
use std::path::Path;
use std::process::ExitCode;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The candidate's median is no worse than the base's by more than
    /// the bound.
    Within,
    /// It is worse by more than the bound.
    Outside,
    /// A side's run-to-run spread is wider than the bound, so the bound
    /// cannot be resolved; not the same as unchanged.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Outside => "outside",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge one metric from the values of each side's runs.
pub fn judge(metric: &EndToEnd, base: &[f64], candidate: &[f64]) -> (f64, f64, Verdict) {
    let (a, b) = (stats::median(base), stats::median(candidate));
    let spread = [base, candidate]
        .into_iter()
        .filter_map(stats::spread)
        .fold(0.0, f64::max);
    let worse_by = match metric.better {
        Better::Lower => (b - a) / a.abs().max(f64::MIN_POSITIVE),
        Better::Higher => (a - b) / a.abs().max(f64::MIN_POSITIVE),
    };
    let verdict = if spread > metric.bound {
        Verdict::Unresolved
    } else if worse_by > metric.bound {
        Verdict::Outside
    } else {
        Verdict::Within
    };
    (a, b, verdict)
}

/// Values of one end-to-end metric of one workload over a file's runs.
fn values(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("runs")
        .map(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|run| run.get("workload").and_then(Json::as_str) == Some(workload))
        .filter(|run| run.get("trace").and_then(Json::as_f64) == Some(0.0))
        .filter_map(|run| {
            run.get("result")?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn run(a: &Path, b: &Path) -> ExitCode {
    let (base, candidate) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<16} {:<12} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "base", "candidate", "delta", "bound"
    );
    let (mut outside, mut unresolved, mut missing) = (0, 0, 0);
    for w in WORKLOADS {
        for m in END_TO_END {
            let (va, vb) = (
                values(&base, w.name, m.name),
                values(&candidate, w.name, m.name),
            );
            if va.is_empty() || vb.is_empty() {
                println!("{:<16} {:<12} missing on one side", w.name, m.name);
                missing += 1;
                continue;
            }
            let (x, y, verdict) = judge(m, &va, &vb);
            println!(
                "{:<16} {:<12} {:>14.6} {:>14.6} {:>+7.1}% {:>5.0}%  {} (n={}/{})",
                w.name,
                m.name,
                x,
                y,
                (y - x) / x * 100.0,
                m.bound * 100.0,
                verdict.label(),
                va.len(),
                vb.len()
            );
            outside += (verdict == Verdict::Outside) as u32;
            unresolved += (verdict == Verdict::Unresolved) as u32;
        }
    }
    println!("{outside} outside, {unresolved} unresolved, {missing} missing");
    if outside > 0 || missing > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better) -> EndToEnd {
        EndToEnd {
            name: "m",
            unit: "ms",
            better,
            bound: 0.10,
            meaning: "",
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let (p50, rate) = (&metric(Better::Lower), &metric(Better::Higher));
        // Lower is better, bound 10%: +20% is outside, -20% and +5% are within.
        assert_eq!(judge(p50, &[10.0], &[12.0]).2, Verdict::Outside);
        assert_eq!(judge(p50, &[10.0], &[8.0]).2, Verdict::Within);
        assert_eq!(judge(p50, &[10.0], &[10.5]).2, Verdict::Within);
        // Higher is better: the signs flip.
        assert_eq!(judge(rate, &[100.0], &[80.0]).2, Verdict::Outside);
        assert_eq!(judge(rate, &[100.0], &[120.0]).2, Verdict::Within);
        // A side that spreads wider than the bound resolves nothing.
        let noisy = [8.0, 9.0, 10.0, 11.0, 12.0, 13.0];
        assert_eq!(judge(p50, &noisy, &[10.0]).2, Verdict::Unresolved);
        // Medians decide, not single runs.
        assert_eq!(
            judge(p50, &[10.0, 10.1, 9.9, 10.0], &[10.2, 10.1, 30.0, 10.0]).2,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(p50, &[10.0, 10.1, 9.9, 10.0], &[10.2, 10.1, 10.3, 10.0]).0,
            10.0
        );
    }
}
