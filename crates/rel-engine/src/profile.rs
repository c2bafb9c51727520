//! Per-query profiles: what the engine actually did for one evaluation.
//!
//! A [`ProfileSink`] belongs to one profiled evaluation
//! ([`crate::Session::query_profiled`] /
//! [`crate::Prepared::execute_profiled`]) and rides the index-cache handle
//! that evaluation runs on, a private copy no other evaluation shares;
//! the evaluator's dispatch
//! points — join-kernel choice, fused-rule recognition, sorted-view cache
//! lookups (non-prefix probes and kernel tries), fixpoint iterations —
//! tick its atomic counters, and the
//! fixpoint/incremental drivers push one [`StratumProfile`] per stratum
//! with wall time and the counter deltas attributable to it. The session
//! assembles the result into a [`QueryProfile`].
//!
//! # Reading a QueryProfile
//!
//! [`QueryProfile::render`] prints one header line and one line per
//! stratum:
//!
//! ```text
//! query profile  wall=3.4ms  module-cache=hit  fixpoint=incremental (reused=2, delta-restarted=1, recomputed=0)
//!   stratum 0  [TC] recursive  delta-restarted  wall=2.1ms  iters=3  kernel=wcoj  joins: wcoj=9 binary=0  rules: fused=0 env=12  index: built=1 reused=4  trie: built=2 reused=7
//!   stratum 1  [Size]  reused  wall=0.0ms
//! ```
//!
//! * **fixpoint** — how the whole evaluation was served: `full` (from
//!   scratch), `cache` (the snapshot was unchanged: the previous fixpoint
//!   was reused wholesale by pointer bumps), or `incremental` with the
//!   per-stratum classification totals.
//! * **per-stratum action** — `evaluated` (full run), `reused` (O(1)
//!   pointer bump), `delta-restarted` (semi-naive restart from the
//!   previous fixpoint), `recomputed` (re-evaluated inside the changed
//!   cone).
//! * **kernel** — the dominant join/rule kernel the stratum ran on:
//!   `wcoj` (leapfrog triejoin), `fused` (columnar whole-rule kernels),
//!   `binary` (pairwise joins through the env machinery), or `mixed`.
//! * **iters** — fixpoint iterations (semi-naive rounds or PFP steps);
//!   absent for non-recursive strata.
//!
//! [`QueryProfile::explain`] is the same rendering without wall times —
//! stable across runs, suitable for tests and for `:explain` in the repl.

use crate::incremental::IncrementalStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Kernel/cache event counters ticked by the evaluators of one profiled
/// evaluation (see module docs). All relaxed: a sink belongs to one
/// evaluation.
#[derive(Debug, Default)]
pub struct ProfileSink {
    iterations: AtomicU64,
    wcoj_joins: AtomicU64,
    binary_joins: AtomicU64,
    fused_rules: AtomicU64,
    env_rules: AtomicU64,
    index_builds: AtomicU64,
    index_reuses: AtomicU64,
    trie_builds: AtomicU64,
    trie_reuses: AtomicU64,
    strata: Mutex<Vec<StratumProfile>>,
}

macro_rules! sink_counters {
    ($($field:ident => $note:ident),* $(,)?) => {
        $(
            #[doc = concat!("Tick `", stringify!($field), "`.")]
            #[inline]
            pub fn $note(&self) {
                self.$field.fetch_add(1, Ordering::Relaxed);
            }
        )*
    };
}

impl ProfileSink {
    /// Empty sink.
    pub fn new() -> Self {
        ProfileSink::default()
    }

    sink_counters! {
        iterations => note_iteration,
        wcoj_joins => note_wcoj_join,
        binary_joins => note_binary_join,
        fused_rules => note_fused_rule,
        env_rules => note_env_rule,
        index_builds => note_index_build,
        index_reuses => note_index_reuse,
        trie_builds => note_trie_build,
        trie_reuses => note_trie_reuse,
    }

    /// Read the current counter totals (used to form per-stratum deltas).
    pub fn counts(&self) -> KernelCounts {
        KernelCounts {
            iterations: self.iterations.load(Ordering::Relaxed),
            wcoj_joins: self.wcoj_joins.load(Ordering::Relaxed),
            binary_joins: self.binary_joins.load(Ordering::Relaxed),
            fused_rules: self.fused_rules.load(Ordering::Relaxed),
            env_rules: self.env_rules.load(Ordering::Relaxed),
            index_builds: self.index_builds.load(Ordering::Relaxed),
            index_reuses: self.index_reuses.load(Ordering::Relaxed),
            trie_builds: self.trie_builds.load(Ordering::Relaxed),
            trie_reuses: self.trie_reuses.load(Ordering::Relaxed),
        }
    }

    /// Append one finished stratum record.
    pub fn push_stratum(&self, s: StratumProfile) {
        self.strata.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(s);
    }

    /// Re-classify the most recently pushed stratum (the incremental
    /// driver records recomputed-in-cone strata through the stock
    /// evaluator, then relabels).
    pub fn relabel_last(&self, action: StratumAction) {
        let mut strata =
            self.strata.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(last) = strata.last_mut() {
            last.action = action;
        }
    }

    /// Drain the stratum records (in evaluation order).
    pub fn take_strata(&self) -> Vec<StratumProfile> {
        std::mem::take(
            &mut *self.strata.lock().unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }
}

/// A plain read of a [`ProfileSink`]'s counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelCounts {
    /// Fixpoint iterations (semi-naive rounds + PFP steps).
    pub iterations: u64,
    /// Conjunction groups dispatched to the leapfrog WCOJ kernel.
    pub wcoj_joins: u64,
    /// Atoms dispatched to the pairwise binary-join scheduler.
    pub binary_joins: u64,
    /// Rules executed by a fused columnar whole-rule kernel.
    pub fused_rules: u64,
    /// Rules executed by the generic environment machinery.
    pub env_rules: u64,
    /// Key-first sorted permutations built for non-prefix atom probes
    /// (including generation-stale rebuilds).
    pub index_builds: u64,
    /// Such permutations found in the cache at the current generation.
    pub index_reuses: u64,
    /// Permuted tries built (including generation-stale rebuilds).
    pub trie_builds: u64,
    /// Trie-cache hits at the current generation.
    pub trie_reuses: u64,
}

impl KernelCounts {
    /// Per-field difference `self - earlier` (saturating).
    pub fn since(&self, earlier: &KernelCounts) -> KernelCounts {
        KernelCounts {
            iterations: self.iterations.saturating_sub(earlier.iterations),
            wcoj_joins: self.wcoj_joins.saturating_sub(earlier.wcoj_joins),
            binary_joins: self.binary_joins.saturating_sub(earlier.binary_joins),
            fused_rules: self.fused_rules.saturating_sub(earlier.fused_rules),
            env_rules: self.env_rules.saturating_sub(earlier.env_rules),
            index_builds: self.index_builds.saturating_sub(earlier.index_builds),
            index_reuses: self.index_reuses.saturating_sub(earlier.index_reuses),
            trie_builds: self.trie_builds.saturating_sub(earlier.trie_builds),
            trie_reuses: self.trie_reuses.saturating_sub(earlier.trie_reuses),
        }
    }

    /// The dominant kernel these counts witness (see module docs).
    ///
    /// Only *join dispatches* discriminate: a rule whose conjunction
    /// went wholesale to the WCOJ kernel still runs through the env
    /// machinery (one `env_rules` tick), so `env_rules` alone never
    /// demotes a run to `mixed` — it classifies as `binary` only when
    /// no join kernel fired at all.
    pub fn kernel(&self) -> &'static str {
        let wcoj = self.wcoj_joins > 0;
        let fused = self.fused_rules > 0;
        let binary = self.binary_joins > 0;
        match (wcoj, fused, binary) {
            (true, false, false) => "wcoj",
            (false, true, false) => "fused",
            (false, false, true) => "binary",
            (false, false, false) => {
                if self.env_rules > 0 {
                    "binary"
                } else {
                    "none"
                }
            }
            _ => "mixed",
        }
    }
}

/// How one stratum was handled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StratumAction {
    /// Evaluated by the stock fixpoint driver (a non-incremental run).
    Evaluated,
    /// Reused wholesale from the previous fixpoint (O(1) pointer bump).
    Reused,
    /// Semi-naive restart from the previous fixpoint with delta seeds.
    DeltaRestarted,
    /// Re-evaluated from scratch inside the changed cone.
    Recomputed,
}

impl StratumAction {
    /// Stable lower-case label.
    pub fn label(&self) -> &'static str {
        match self {
            StratumAction::Evaluated => "evaluated",
            StratumAction::Reused => "reused",
            StratumAction::DeltaRestarted => "delta-restarted",
            StratumAction::Recomputed => "recomputed",
        }
    }
}

/// One stratum's share of a profiled evaluation.
#[derive(Clone, Debug)]
pub struct StratumProfile {
    /// The stratum's materialized predicates.
    pub preds: Vec<String>,
    /// Is the stratum recursive (semi-naive or PFP)?
    pub recursive: bool,
    /// How it was handled.
    pub action: StratumAction,
    /// Wall time attributable to it.
    pub wall: Duration,
    /// Kernel/cache counter deltas attributable to it.
    pub counts: KernelCounts,
}

impl StratumProfile {
    fn render_into(&self, out: &mut String, index: usize, timings: bool) {
        out.push_str(&format!("  stratum {index}  [{}]", self.preds.join(", ")));
        if self.recursive {
            out.push_str(" recursive");
        }
        out.push_str("  ");
        out.push_str(self.action.label());
        if timings {
            out.push_str(&format!(
                "  wall={:.1}ms",
                self.wall.as_secs_f64() * 1e3
            ));
        }
        if matches!(self.action, StratumAction::Reused) {
            out.push('\n');
            return;
        }
        let c = &self.counts;
        if self.recursive {
            out.push_str(&format!("  iters={}", c.iterations));
        }
        out.push_str(&format!(
            "  kernel={}  joins: wcoj={} binary={}  rules: fused={} env={}  \
             index: built={} reused={}  trie: built={} reused={}\n",
            c.kernel(),
            c.wcoj_joins,
            c.binary_joins,
            c.fused_rules,
            c.env_rules,
            c.index_builds,
            c.index_reuses,
            c.trie_builds,
            c.trie_reuses,
        ));
    }
}

/// How the whole evaluation was served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FixpointOutcome {
    /// Materialized from scratch: no usable pre-state (a first
    /// evaluation, or one after the cache evicted or a library change
    /// retired it).
    Full,
    /// The cached fixpoint was reused wholesale: the snapshot was
    /// unchanged since its capture, no rule was evaluated.
    CacheReuse,
    /// Incrementally maintained from the cached fixpoint, with the
    /// per-stratum classification totals.
    Incremental(IncrementalStats),
}

impl FixpointOutcome {
    fn render(&self) -> String {
        match self {
            FixpointOutcome::Full => "full".to_string(),
            FixpointOutcome::CacheReuse => "cache".to_string(),
            FixpointOutcome::Incremental(s) => format!(
                "incremental (reused={}, delta-restarted={}, recomputed={})",
                s.reused, s.delta_seeded, s.recomputed
            ),
        }
    }
}

/// The profile of one evaluated query (see module docs for how to read
/// its rendering).
#[derive(Clone, Debug)]
pub struct QueryProfile {
    /// End-to-end wall time (compile + evaluate + extract).
    pub wall: Duration,
    /// Was the compiled module served from the session's module cache?
    pub module_cache_hit: bool,
    /// How the fixpoint was served.
    pub fixpoint: FixpointOutcome,
    /// Per-stratum records, in evaluation order. Empty when the whole
    /// fixpoint was reused from cache.
    pub strata: Vec<StratumProfile>,
}

impl QueryProfile {
    /// Kernel/cache counter totals across all strata.
    pub fn totals(&self) -> KernelCounts {
        let mut t = KernelCounts::default();
        for s in &self.strata {
            let c = &s.counts;
            t.iterations += c.iterations;
            t.wcoj_joins += c.wcoj_joins;
            t.binary_joins += c.binary_joins;
            t.fused_rules += c.fused_rules;
            t.env_rules += c.env_rules;
            t.index_builds += c.index_builds;
            t.index_reuses += c.index_reuses;
            t.trie_builds += c.trie_builds;
            t.trie_reuses += c.trie_reuses;
        }
        t
    }

    /// Sum of the per-stratum wall times (≤ [`QueryProfile::wall`]; the
    /// remainder is compile/extract/bookkeeping time).
    pub fn strata_wall(&self) -> Duration {
        self.strata.iter().map(|s| s.wall).sum()
    }

    fn render_with(&self, timings: bool) -> String {
        let mut out = String::from("query profile");
        if timings {
            out.push_str(&format!("  wall={:.1}ms", self.wall.as_secs_f64() * 1e3));
        }
        out.push_str(&format!(
            "  module-cache={}  fixpoint={}\n",
            if self.module_cache_hit { "hit" } else { "miss" },
            self.fixpoint.render()
        ));
        for (i, s) in self.strata.iter().enumerate() {
            s.render_into(&mut out, i, timings);
        }
        out
    }

    /// Full rendering, wall times included.
    pub fn render(&self) -> String {
        self.render_with(true)
    }

    /// EXPLAIN-style rendering: structure and kernel choices only, no
    /// wall times — stable across runs of the same query.
    pub fn explain(&self) -> String {
        self.render_with(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stratum(action: StratumAction, counts: KernelCounts) -> StratumProfile {
        StratumProfile {
            preds: vec!["TC".to_string()],
            recursive: true,
            action,
            wall: Duration::from_micros(1500),
            counts,
        }
    }

    #[test]
    fn kernel_classification() {
        let k = |w, f, b, e| KernelCounts {
            wcoj_joins: w,
            fused_rules: f,
            binary_joins: b,
            env_rules: e,
            ..Default::default()
        };
        assert_eq!(k(3, 0, 0, 0).kernel(), "wcoj");
        assert_eq!(k(0, 2, 0, 0).kernel(), "fused");
        assert_eq!(k(0, 0, 5, 5).kernel(), "binary");
        assert_eq!(k(0, 0, 0, 2).kernel(), "binary");
        assert_eq!(k(1, 1, 0, 0).kernel(), "mixed");
        assert_eq!(k(1, 0, 2, 0).kernel(), "mixed");
        assert_eq!(k(0, 0, 0, 0).kernel(), "none");
        // The env tick of the rule *hosting* a WCOJ dispatch does not
        // demote the classification.
        assert_eq!(k(3, 0, 0, 1).kernel(), "wcoj");
        assert_eq!(k(0, 2, 0, 1).kernel(), "fused");
    }

    #[test]
    fn counts_since_is_per_field() {
        let sink = ProfileSink::new();
        sink.note_wcoj_join();
        let before = sink.counts();
        sink.note_wcoj_join();
        sink.note_index_build();
        sink.note_iteration();
        let d = sink.counts().since(&before);
        assert_eq!(d.wcoj_joins, 1);
        assert_eq!(d.index_builds, 1);
        assert_eq!(d.iterations, 1);
        assert_eq!(d.binary_joins, 0);
    }

    #[test]
    fn render_and_explain_shapes() {
        let p = QueryProfile {
            wall: Duration::from_millis(5),
            module_cache_hit: true,
            fixpoint: FixpointOutcome::Incremental(IncrementalStats {
                reused: 1,
                delta_seeded: 1,
                recomputed: 0,
            }),
            strata: vec![
                stratum(
                    StratumAction::DeltaRestarted,
                    KernelCounts { wcoj_joins: 4, iterations: 2, ..Default::default() },
                ),
                StratumProfile {
                    preds: vec!["Size".to_string()],
                    recursive: false,
                    action: StratumAction::Reused,
                    wall: Duration::ZERO,
                    counts: KernelCounts::default(),
                },
            ],
        };
        let full = p.render();
        assert!(full.contains("module-cache=hit"), "{full}");
        assert!(full.contains("delta-restarted"), "{full}");
        assert!(full.contains("kernel=wcoj"), "{full}");
        assert!(full.contains("wall="), "{full}");
        let explain = p.explain();
        assert!(!explain.contains("wall="), "{explain}");
        assert!(explain.contains("stratum 1  [Size]"), "{explain}");
        assert_eq!(p.totals().wcoj_joins, 4);
        assert_eq!(p.strata_wall(), Duration::from_micros(1500));
    }

    #[test]
    fn relabel_last_reclassifies() {
        let sink = ProfileSink::new();
        sink.push_stratum(stratum(StratumAction::Evaluated, KernelCounts::default()));
        sink.relabel_last(StratumAction::Recomputed);
        let strata = sink.take_strata();
        assert_eq!(strata[0].action, StratumAction::Recomputed);
        assert!(sink.take_strata().is_empty());
    }
}
