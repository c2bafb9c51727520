//! What every workload shares: run parameters, hermetic configuration,
//! the closed-loop driver, the op log and the metrics computed from it.

use crate::spec::{layer_of_span, PER_LAYER};
use crate::stats;
use crate::trace::{NameTotals, Recorder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rel_engine::{
    DurabilityConfig, EngineConfig, FsyncPolicy, KernelCounts, QueryProfile, WcojMode,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// How many times the set-up runs in one `--trace 0` run; `setup_s` is
/// the median.
pub const SETUP_REPEATS: usize = 5;

/// The timed pass is cut into this many equal slices by completion time.
pub const SLICES: usize = 20;

/// Only the ops of this many slices — the ones with the lowest median
/// latency — count towards `ops_per_s`, `op_p50_ms` and `op_p95_ms`.
///
/// The box shares its cores with other tenants. When one of them is busy
/// every op here takes about one and a half times as long, for seconds to
/// minutes at a time, so op latencies of one commit are bimodal, and a
/// p95 over all ops reads the other tenants' duty cycle (README, "How
/// steady is it?"). Interference only ever adds time, so the quiet half
/// of the pass estimates the code. A stall shorter than half a slice
/// stays in the numbers; one that slows most ops of a slice, in fewer
/// than half of the slices, does not.
pub const QUIET_SLICES: usize = 10;

/// Parameters of one workload run.
#[derive(Clone, Debug)]
pub struct Ctx {
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    pub trace: bool,
    /// `--smoke`: one set-up, numbers meaningless.
    pub smoke: bool,
    pub trace_out: Option<PathBuf>,
}

impl Ctx {
    /// `setup_s` is an end-to-end metric, so only a `--trace 0` run that
    /// is not a smoke run pays for the repeats.
    pub fn setup_repeats(&self) -> usize {
        if self.smoke || self.trace {
            1
        } else {
            SETUP_REPEATS
        }
    }
}

/// What one workload run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures; empty means every check passed.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples stand behind the value (0: not a sampled value).
    pub samples: u64,
}

// ---------------------------------------------------------------------------
// Hermetic configuration
// ---------------------------------------------------------------------------

/// Remove every `REL_*` variable so no engine or server default comes
/// from the caller's environment. Must run before any thread starts.
pub fn scrub_rel_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("REL_"))
        .collect();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

/// The durability settings of the two durable workloads, spelled out:
/// one `fdatasync` per commit (or per commit group), the engine's stock
/// compaction triggers.
pub const DURABILITY: DurabilityConfig = DurabilityConfig {
    fsync: FsyncPolicy::Always,
    fsync_batch: 32,
    compact_after_commits: 1024,
    compact_after_bytes: 16 << 20,
};

/// Every engine switch, spelled out (never read from the environment).
pub fn engine_config(metrics: bool) -> EngineConfig {
    EngineConfig {
        incremental: true,
        wcoj: WcojMode::Auto,
        columnar: true,
        metrics,
        watch_buffer: rel_engine::DEFAULT_WATCH_BUFFER,
        durability: DURABILITY,
    }
}

/// Flip the process-wide switches to the benchmark's fixed values. The
/// timed pass runs with engine metrics off, the traced pass with them on.
pub fn set_process_switches(metrics: bool) {
    rel_core::set_columnar_enabled(true);
    rel_engine::metrics::set_metrics(metrics);
}

/// Worker threads the engine's scheduler uses (and the most load
/// threads a workload may start).
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Where scratch files go: `bench-tmp/` inside the build's target
/// directory — the one place under the checkout that git always ignores.
pub fn scratch_root() -> PathBuf {
    let exe = std::env::current_exe().expect("benchmark knows its own path");
    let target = exe
        .parent()
        .and_then(Path::parent)
        .expect("the binary sits in <target>/<profile>/");
    let root = target.join("bench-tmp");
    std::fs::create_dir_all(&root).expect("scratch directory is creatable");
    root
}

/// A fresh, empty scratch directory of this process.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = scratch_root().join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory is creatable");
    dir
}

/// The filesystem type holding `path`, from `/proc/mounts` (longest
/// mount-point prefix).
pub fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), format!("{fs} on {mount}")))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, s)| s)
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

// ---------------------------------------------------------------------------
// Seeded inputs
// ---------------------------------------------------------------------------

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn permutation(n: usize, rng: &mut StdRng) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.gen_range(0..=i));
    }
    p
}

/// A graph of fixed *shape* under seeded vertex labels.
///
/// How long a fixpoint runs depends on the topology (PageRank takes 43
/// to 519 steps across random 48-vertex graphs), which would make the
/// seed, not the code, decide a run's numbers. So the topology is pinned
/// by `shape_seed`, a constant of the workload, and `--seed` relabels
/// the vertices: the engine sees different tuples, sort orders and index
/// layouts per seed, and does the same amount of work.
pub fn relabelled_graph(
    n: usize,
    avg_degree: f64,
    shape_seed: u64,
    rng: &mut StdRng,
) -> rel_graph::native::Graph {
    let shape = rel_graph::gen::random_graph(n, avg_degree, shape_seed);
    let label = permutation(n, rng);
    let edges = shape
        .edges
        .iter()
        .map(|&(u, v)| (label[u as usize], label[v as usize]))
        .collect();
    rel_graph::native::Graph::new(n, edges)
}

pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream),
    )
}

/// CRC32 over the database encoding followed by the schedule bytes: a
/// change in any generator (`rel-graph`, `rel-bench`, `vendor/rand`)
/// changes it.
pub fn input_fingerprint(db: &rel_core::Database, schedule: &[u8]) -> u32 {
    let mut bytes = Vec::new();
    rel_core::codec::encode_database(db, &mut bytes);
    bytes.extend_from_slice(schedule);
    rel_core::codec::crc32(&bytes)
}

/// The point lookup's native reference: for every order of an
/// `OrderWorkload` database, its lines `(line, product, price)`.
pub fn priced_lines_by_order(db: &rel_core::Database, orders: usize) -> Vec<rel_core::Relation> {
    let rows = |name: &str| db.get(name).expect("the order workload generates it");
    let price: std::collections::HashMap<i64, i64> = rows("Price")
        .rows()
        .expect("Price holds int pairs")
        .into_iter()
        .collect();
    let mut expected = vec![rel_core::Relation::new(); orders];
    for (o, l, p) in rows("Line")
        .rows::<(i64, i64, i64)>()
        .expect("Line holds int triples")
    {
        expected[o as usize].insert(rel_core::tuple![l, p, price[&p]]);
    }
    expected
}

/// Load `base` into a (durable) session the way a client would: every
/// tuple staged into one transaction, one commit, one WAL record.
pub fn load_as_one_commit(session: &mut rel_engine::Session, base: &rel_core::Database) {
    let mut load = session.begin();
    for (name, rel) in base.iter() {
        for t in rel.iter() {
            load.stage_insert(name, t.clone());
        }
    }
    load.commit().expect("base data loads as one commit");
}

// ---------------------------------------------------------------------------
// Op log and end-to-end metrics
// ---------------------------------------------------------------------------

/// One timed pass: per-op completion time and latency, and the failures.
#[derive(Default)]
pub struct OpLog {
    /// `(completion time since pass start, latency)`, in ns, per op
    /// that succeeded.
    pub ops: Vec<(u64, u64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Time spent inside ops, issue to completion, failures included
    /// (closed loop: the sum of the latencies).
    pub busy: Duration,
    /// Length of the pass.
    pub wall: Duration,
    /// First few failure descriptions.
    pub failures: Vec<String>,
}

impl OpLog {
    pub fn record(&mut self, done_ns: u64, latency_ns: u64, outcome: Result<(), String>) {
        self.attempted += 1;
        match outcome {
            Ok(()) => self.ops.push((done_ns, latency_ns)),
            Err(why) => {
                self.failed += 1;
                if self.failures.len() < 5 {
                    self.failures.push(why);
                }
            }
        }
    }

    pub fn merge(&mut self, other: OpLog) {
        self.ops.extend(other.ops);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.busy += other.busy;
        self.wall = self.wall.max(other.wall);
        self.failures.extend(other.failures);
        self.failures.truncate(5);
    }

    fn latencies_ms(ops: &[(u64, u64)]) -> Vec<f64> {
        let mut v: Vec<f64> = ops.iter().map(|&(_, l)| l as f64 / 1e6).collect();
        stats::sort(&mut v);
        v
    }

    /// The ops of the [`QUIET_SLICES`] quietest slices (half of the
    /// slices that hold any op, when fewer than [`SLICES`] do), and the
    /// time those slices span.
    fn quiet(&self) -> (Vec<(u64, u64)>, Duration) {
        let slice_ns = (self.wall.as_nanos() as u64 / SLICES as u64).max(1);
        let mut slices: Vec<Vec<(u64, u64)>> = vec![Vec::new(); SLICES];
        for &op in &self.ops {
            slices[((op.0 / slice_ns) as usize).min(SLICES - 1)].push(op);
        }
        let mut ranked: Vec<(f64, Vec<(u64, u64)>)> = slices
            .into_iter()
            .filter(|s| !s.is_empty())
            .map(|s| (stats::percentile(&Self::latencies_ms(&s), 0.50), s))
            .collect();
        ranked.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite latencies"));
        let keep = QUIET_SLICES.min(ranked.len().div_ceil(2));
        ranked.truncate(keep);
        let span = Duration::from_nanos(slice_ns * keep as u64);
        (ranked.into_iter().flat_map(|(_, s)| s).collect(), span)
    }

    /// The end-to-end metrics of this pass (everything but `setup_s`).
    pub fn end_to_end(&self) -> Vec<Metric> {
        let (ops, span) = self.quiet();
        let latencies = Self::latencies_ms(&ops);
        let metric = |name, value, unit| Metric {
            name,
            value,
            unit,
            samples: ops.len() as u64,
        };
        vec![
            metric(
                "ops_per_s",
                ops.len() as f64 / span.as_secs_f64().max(1e-9),
                "1/s",
            ),
            metric("op_p50_ms", stats::percentile(&latencies, 0.50), "ms"),
            metric("op_p95_ms", stats::percentile(&latencies, 0.95), "ms"),
        ]
    }
}

/// Closed loop, one thread: call `op` back to back for `seconds`. `op`
/// returns the latency it measured around the one user-visible call and
/// whether the outcome was the expected one (checks run outside the
/// measured interval).
pub fn closed_loop(seconds: f64, mut op: impl FnMut() -> (Duration, Result<(), String>)) -> OpLog {
    let mut log = OpLog::default();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    while start.elapsed() < budget {
        let (latency, outcome) = op();
        log.busy += latency;
        log.record(
            start.elapsed().as_nanos() as u64,
            latency.as_nanos() as u64,
            outcome,
        );
    }
    log.wall = start.elapsed();
    log
}

/// Time `f` and return its result with the elapsed time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

// ---------------------------------------------------------------------------
// Per-layer metrics
// ---------------------------------------------------------------------------

/// The traced pass's per-layer metrics: every name of
/// [`crate::spec::PER_LAYER`], 0 until a workload measures it.
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Stratum time by kernel class, summed over every profile seen.
    class_ns: [u64; 4],
    profiles: u64,
    counts: KernelCounts,
    strata_ns: u64,
    rows_out: u64,
}

/// Kernel classes a stratum's time is grouped under.
#[derive(Clone, Copy)]
enum Class {
    Fused = 0,
    Wcoj = 1,
    Binary = 2,
    Env = 3,
}

/// The kernel class of one stratum, from the counters it ticked: fused
/// if only fused whole-rule kernels ran, WCOJ if a leapfrog join was
/// dispatched, binary if pairwise joins were, env if rules ran through
/// the environment machinery without any join kernel.
fn class_of(c: &KernelCounts) -> Option<Class> {
    if c.wcoj_joins > 0 {
        Some(Class::Wcoj)
    } else if c.binary_joins > 0 {
        Some(Class::Binary)
    } else if c.env_rules > 0 {
        Some(Class::Env)
    } else if c.fused_rules > 0 {
        Some(Class::Fused)
    } else {
        None
    }
}

/// `hits / (hits + misses)`; 0 when there was neither.
fn hit_ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

impl Layers {
    pub fn new() -> Self {
        Layers {
            values: PER_LAYER.iter().map(|m| (m.name, 0.0)).collect(),
            samples: BTreeMap::new(),
            class_ns: [0; 4],
            profiles: 0,
            counts: KernelCounts::default(),
            strata_ns: 0,
            rows_out: 0,
        }
    }

    /// The metric's name as the contract spells it; a name the contract
    /// does not list is a bug in the workload.
    fn key(&self, name: &str) -> &'static str {
        match self.values.get_key_value(name) {
            Some((key, _)) => key,
            None => panic!("`{name}` is not a per-layer metric"),
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(self.key(name), value);
    }

    /// Add one sample of a metric reported as the median of its samples.
    pub fn sample(&mut self, name: &str, value: f64) {
        self.samples.entry(self.key(name)).or_default().push(value);
    }

    pub fn samples_of(&self, name: &str) -> &[f64] {
        self.samples.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Fold one engine profile in: stratum time by kernel class and the
    /// kernel/cache counters.
    pub fn profile(&mut self, p: &QueryProfile, rows_out: usize) {
        self.profiles += 1;
        self.rows_out += rows_out as u64;
        for s in &p.strata {
            self.strata_ns += s.wall.as_nanos() as u64;
            if let Some(class) = class_of(&s.counts) {
                self.class_ns[class as usize] += s.wall.as_nanos() as u64;
            }
        }
        let t = p.totals();
        let c = &mut self.counts;
        c.iterations += t.iterations;
        c.wcoj_joins += t.wcoj_joins;
        c.binary_joins += t.binary_joins;
        c.fused_rules += t.fused_rules;
        c.env_rules += t.env_rules;
        c.index_builds += t.index_builds;
        c.index_reuses += t.index_reuses;
        c.trie_builds += t.trie_builds;
        c.trie_reuses += t.trie_reuses;
    }

    /// Turn the folded profiles into the per-op `eval.*` metrics.
    fn finish_profiles(&mut self) {
        if self.profiles == 0 {
            return;
        }
        let per_op = |total: u64| total as f64 / self.profiles as f64;
        let c = self.counts;
        let class_ms = self.class_ns.map(|ns| per_op(ns) / 1e6);
        let values = [
            ("eval.fused_ms", class_ms[Class::Fused as usize]),
            ("eval.wcoj_ms", class_ms[Class::Wcoj as usize]),
            ("eval.binary_ms", class_ms[Class::Binary as usize]),
            ("eval.env_ms", class_ms[Class::Env as usize]),
            ("eval.iterations", per_op(c.iterations)),
            ("eval.fused_rules", per_op(c.fused_rules)),
            ("eval.env_rules", per_op(c.env_rules)),
            ("eval.wcoj_dispatches", per_op(c.wcoj_joins)),
            ("eval.binary_dispatches", per_op(c.binary_joins)),
            ("eval.index_builds", per_op(c.index_builds)),
            (
                "eval.index_reuse_ratio",
                hit_ratio(c.index_reuses, c.index_builds),
            ),
            ("eval.trie_builds", per_op(c.trie_builds)),
            (
                "eval.trie_reuse_ratio",
                hit_ratio(c.trie_reuses, c.trie_builds),
            ),
            ("eval.rows_out", per_op(self.rows_out)),
            (
                "eval.rows_per_s",
                if self.strata_ns == 0 {
                    0.0
                } else {
                    self.rows_out as f64 / (self.strata_ns as f64 / 1e9)
                },
            ),
        ];
        for (name, value) in values {
            self.set(name, value);
        }
    }

    /// Charge every span's self time to its layer and store the shares
    /// of the ops' total time.
    fn finish_shares(&mut self, totals: &BTreeMap<&'static str, NameTotals>) {
        let op_ns = totals.get("op").map(|t| t.total_ns).unwrap_or(0);
        if op_ns == 0 {
            return;
        }
        let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut unattributed = 0u64;
        for (name, t) in totals {
            match layer_of_span(name) {
                Some(layer) => *by_layer.entry(layer).or_default() += t.self_ns,
                None => unattributed += t.self_ns,
            }
        }
        // Kernel time splits by the class shares the profiles reported.
        if let Some(kernels) = by_layer.remove("kernels") {
            let classes: u64 = self.class_ns.iter().sum();
            let columnar =
                self.class_ns[Class::Fused as usize] + self.class_ns[Class::Wcoj as usize];
            let columnar_share = if classes == 0 {
                0.0
            } else {
                columnar as f64 / classes as f64
            };
            let columnar_ns = (kernels as f64 * columnar_share) as u64;
            *by_layer.entry("share.kernels_columnar").or_default() += columnar_ns;
            *by_layer.entry("share.kernels_env").or_default() += kernels - columnar_ns;
        }
        for (layer, ns) in by_layer {
            self.set(layer, ns as f64 / op_ns as f64);
        }
        self.set(
            "trace.unattributed_share",
            unattributed as f64 / op_ns as f64,
        );
        self.set("trace.ops", totals["op"].count as f64);
    }

    /// Close the traced pass: medians of the sampled metrics, per-op
    /// kernel metrics, layer shares, and the tracing overhead against
    /// the untraced pass of the same run.
    pub fn finish(mut self, rec: &Recorder, untraced_ops_per_busy_s: f64) -> Vec<Metric> {
        let sampled: Vec<(&'static str, f64)> = self
            .samples
            .iter()
            .map(|(k, v)| (*k, stats::median(v)))
            .collect();
        for (name, value) in sampled {
            self.set(name, value);
        }
        self.finish_profiles();
        let totals = rec.totals();
        self.finish_shares(&totals);
        let op = totals.get("op").copied().unwrap_or_default();
        if op.total_ns > 0 && untraced_ops_per_busy_s > 0.0 {
            let traced = op.count as f64 / (op.total_ns as f64 / 1e9);
            self.set(
                "trace.overhead_share",
                1.0 - traced / untraced_ops_per_busy_s,
            );
        }
        PER_LAYER
            .iter()
            .map(|m| Metric {
                name: m.name,
                value: self.values[m.name],
                unit: m.unit,
                samples: self
                    .samples
                    .get(m.name)
                    .map(|v| v.len() as u64)
                    .unwrap_or(0),
            })
            .collect()
    }
}

/// A reading of the engine's process-wide metrics registry; counters
/// only grow, so a pass's share is the difference to a later reading.
pub struct RegistryMark(rel_engine::MetricsSnapshot);

impl RegistryMark {
    pub fn now() -> Self {
        RegistryMark(rel_engine::metrics::registry().snapshot())
    }

    /// How far counter `name` moved since the mark.
    pub fn since(&self, name: &str) -> u64 {
        rel_engine::metrics::registry().snapshot().get(name) - self.0.get(name)
    }

    /// `hits / (hits + misses)` since the mark; 0 when neither moved.
    pub fn hit_ratio(&self, hits: &str, misses: &str) -> f64 {
        hit_ratio(self.since(hits), self.since(misses))
    }

    /// Store the two cache ratios every embedded workload reports.
    pub fn cache_ratios(&self, layers: &mut Layers) {
        layers.set(
            "session.module_cache_hit_ratio",
            self.hit_ratio("module_cache_hits", "module_cache_misses"),
        );
        layers.set(
            "session.fixpoint_cache_hit_ratio",
            self.hit_ratio("fixpoint_cache_hits", "fixpoint_cache_misses"),
        );
    }
}

/// Ops per second of time spent *inside* ops (the loop's bookkeeping and
/// an open loop's waiting excluded) — the base `trace.overhead_share`
/// compares the traced ops against.
pub fn ops_per_busy_s(log: &OpLog) -> f64 {
    if log.busy.is_zero() {
        0.0
    } else {
        log.attempted as f64 / log.busy.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_a_seeded_bijection() {
        let a = permutation(50, &mut rng(3, 0));
        let b = permutation(50, &mut rng(3, 0));
        let c = permutation(50, &mut rng(4, 0));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn relabelling_keeps_the_shape() {
        let g = relabelled_graph(40, 3.0, 9, &mut rng(1, 0));
        let h = relabelled_graph(40, 3.0, 9, &mut rng(2, 0));
        assert_ne!(g.edges, h.edges);
        assert_eq!(
            rel_graph::native::transitive_closure(&g).len(),
            rel_graph::native::transitive_closure(&h).len()
        );
        assert_eq!(
            rel_graph::native::triangle_count(&g),
            rel_graph::native::triangle_count(&h)
        );
    }

    #[test]
    fn end_to_end_metrics_come_from_the_quiet_half() {
        let mut log = OpLog::default();
        // 20 slices of 1 s. In the 8 odd slices up to 15 another tenant is
        // busy: 5 ops of 3 ms. The other 12 are quiet: 10 ops of 1 ms, the
        // last of them a 2 ms straggler.
        for s in 0..SLICES as u64 {
            let (n, lat) = if s % 2 == 1 && s < 16 {
                (5, 3_000_000)
            } else {
                (10, 1_000_000)
            };
            for k in 0..n {
                let lat = if n == 10 && k == 9 { 2_000_000 } else { lat };
                log.record(s * 1_000_000_000 + k * 10_000_000, lat, Ok(()));
            }
        }
        log.record(0, 0, Err("wrong rows".into()));
        log.wall = Duration::from_secs(SLICES as u64);
        let m = log.end_to_end();
        // Ten quiet slices are kept: 100 ops in 10 s, none of the 3 ms ones.
        assert_eq!(
            (m[0].name, m[0].value, m[0].samples),
            ("ops_per_s", 10.0, 100)
        );
        assert_eq!((m[1].name, m[1].value), ("op_p50_ms", 1.0));
        assert_eq!((m[2].name, m[2].value), ("op_p95_ms", 2.0));
        assert_eq!(m.len(), 3);
        assert_eq!((log.attempted, log.failed), (161, 1));
    }

    #[test]
    fn a_short_pass_keeps_half_of_the_slices_that_hold_ops() {
        let mut log = OpLog::default();
        for (done, lat) in [(0, 5), (1, 7), (10, 9)] {
            log.record(done * 100_000_000, lat * 1_000_000, Ok(()));
        }
        log.wall = Duration::from_secs(2);
        // Ops fall into slices 0, 1 and 10; the two quietest are kept.
        let m = log.end_to_end();
        assert_eq!((m[0].value, m[0].samples), (2.0 / 0.2, 2));
        assert_eq!(m[2].value, 7.0);
    }

    #[test]
    fn layers_reject_unknown_names_and_report_every_metric() {
        let layers = Layers::new();
        let out = layers.finish(&Recorder::new(Instant::now()), 0.0);
        assert_eq!(out.len(), PER_LAYER.len());
        assert!(std::panic::catch_unwind(|| Layers::new().set("no.such_metric", 1.0)).is_err());
    }
}
