//! Process-wide metrics: named atomic counters and latency histograms.
//!
//! One static [`Registry`] (reachable via [`registry`]) holds a counter
//! for every event the engine knows how to explain — commits and aborts,
//! WAL bytes and fsyncs, cache hits and misses at every layer (module
//! cache, fixpoint cache, non-prefix probe permutations, kernel tries),
//! incremental stratum classification, and join/rule kernel dispatch —
//! plus a histogram of end-to-end query latency. [`Registry::snapshot`] reads
//! the whole registry into a plain [`MetricsSnapshot`], and
//! [`MetricsSnapshot::render`] turns it into the text block `rel`'s
//! `:stats` surfaces print.
//!
//! ## The `REL_METRICS` gate
//!
//! Hot-path instrumentation (per-rule, per-join, per-cache-lookup) is
//! guarded by [`enabled`]: one relaxed atomic load and a predictable
//! branch, so the metrics-off configuration costs nothing measurable.
//! The gate is off by default; `REL_METRICS` (resolved once by
//! [`crate::config`]) or [`set_metrics`] turns it on process-wide.
//!
//! **Cold-path counters record unconditionally**, gate or no gate:
//! commits, aborts, WAL bytes, fsyncs, compactions, and snapshot
//! publications are per-commit events whose cost is noise next to the
//! I/O they describe — and consumers such as the group-commit tests,
//! which count syncs as deltas of `registry().fsyncs`, rely on them
//! ticking without any environment setup.
//!
//! ## Monotonicity
//!
//! Counters only ever increase (there is no reset), so deltas taken by
//! concurrent readers are always well-defined; the `metrics_invariants`
//! suite pins this across randomized transaction streams.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

// ---------------------------------------------------------------------------
// The gate
// ---------------------------------------------------------------------------

/// The hot-path gate, off until `REL_METRICS` or [`set_metrics`] turns it
/// on.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is hot-path metrics collection on? One relaxed load + branch — the
/// off path is a branch-predictable no-op.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn hot-path metrics on or off process-wide (the registry sits below
/// the session layer). The environment is resolved first, so a later
/// `REL_METRICS` override can never undo this call.
pub fn set_metrics(on: bool) {
    crate::config::env();
    store(on);
}

pub(crate) fn store(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// The `REL_SLOW_QUERY_MS` threshold. When set, every
/// [`crate::Session::query`] and [`crate::Prepared::execute_with`] is
/// evaluated under a profile sink (on the same stratum scheduler as an
/// unprofiled read), and one at least this many milliseconds slow is
/// counted in `slow_queries` and has its rendered
/// [`crate::profile::QueryProfile`] logged to stderr.
pub fn slow_query_ms() -> Option<u64> {
    crate::config::env().slow_query_ms
}

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

/// A monotonically increasing atomic counter (relaxed ordering: totals
/// are exact once writers quiesce, momentarily stale under concurrency).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Bucket count: log2 buckets of microseconds. Bucket `i` holds samples
/// with `floor(log2(us)) == i` (bucket 0 also takes `us == 0`), so the
/// range spans 1 µs to ~2.3 hours with ≤2x quantile error.
pub const HIST_BUCKETS: usize = 33;

/// A lock-free log-scale latency histogram over microseconds.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Empty.
    pub const fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }

    /// Record one sample of `us` microseconds.
    pub fn record_us(&self, us: u64) {
        let idx = if us == 0 { 0 } else { (63 - us.leading_zeros()) as usize };
        self.buckets[idx.min(HIST_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Record one sample from a [`std::time::Duration`].
    pub fn record(&self, d: std::time::Duration) {
        self.record_us(d.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Read the histogram into a plain summary.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HIST_BUCKETS];
        for (b, v) in buckets.iter_mut().zip(&self.buckets) {
            *b = v.load(Ordering::Relaxed);
        }
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum_us: self.sum_us.load(Ordering::Relaxed),
            max_us: self.max_us.load(Ordering::Relaxed),
            p50_us: quantile(&buckets, count, 0.50),
            p99_us: quantile(&buckets, count, 0.99),
        }
    }
}

/// Upper bound of the bucket holding the `q`-quantile sample (≤2x the
/// true value by construction of the log2 buckets).
fn quantile(buckets: &[u64; HIST_BUCKETS], count: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((count as f64) * q).ceil() as u64;
    let mut seen = 0u64;
    for (i, &b) in buckets.iter().enumerate() {
        seen += b;
        if seen >= rank {
            return if i >= 63 { u64::MAX } else { (2u64 << i) - 1 };
        }
    }
    u64::MAX
}

/// A point-in-time read of one [`Histogram`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples, µs.
    pub sum_us: u64,
    /// Largest sample, µs.
    pub max_us: u64,
    /// Median (bucket upper bound), µs.
    pub p50_us: u64,
    /// 99th percentile (bucket upper bound), µs.
    pub p99_us: u64,
}

impl HistogramSnapshot {
    /// Mean sample, µs (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.sum_us.checked_div(self.count).unwrap_or(0)
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Every named counter the engine maintains, plus the query-latency
/// histogram. All fields are monotone; read them individually or as a
/// whole via [`Registry::snapshot`].
#[derive(Debug, Default)]
pub struct Registry {
    /// Transactions committed (cold path: always counted).
    pub commits: Counter,
    /// Transactions explicitly aborted (cold path: always counted).
    pub aborts: Counter,
    /// Bytes appended to write-ahead logs (cold path: always counted).
    pub wal_bytes: Counter,
    /// fsync/fdatasync calls issued by the durability layer, WAL and
    /// snapshot syncs alike (cold path: always counted). Process-global:
    /// a test asserting on its deltas must not share a binary with other
    /// tests that sync concurrently.
    pub fsyncs: Counter,
    /// WAL-into-snapshot compactions completed (cold path).
    pub compactions: Counter,
    /// Snapshot files atomically published (cold path).
    pub snapshot_publishes: Counter,
    /// Session module-cache hits (source already compiled).
    pub module_cache_hits: Counter,
    /// Session module-cache misses (full compile).
    pub module_cache_misses: Counter,
    /// Fixpoint-cache pure reuses (snapshot unchanged: pointer bumps).
    pub fixpoint_cache_hits: Counter,
    /// Fixpoint-cache misses (no pre-state, or the snapshot moved).
    pub fixpoint_cache_misses: Counter,
    /// Key-first sorted permutations built for atoms whose bound
    /// positions are not a prefix of their arguments (cache miss —
    /// including generation-stale rebuilds, which are misses, never hits).
    pub index_builds: Counter,
    /// Such permutations found in the cache at the current generation.
    pub index_reuses: Counter,
    /// Permuted sorted tries built (cache miss, stale rebuilds included).
    pub trie_builds: Counter,
    /// Trie-cache hits at the current generation.
    pub trie_reuses: Counter,
    /// Strata reused by pointer bump during incremental maintenance.
    pub strata_reused: Counter,
    /// Monotone recursive strata restarted semi-naively from the
    /// previous fixpoint with delta seeds.
    pub strata_delta_restarted: Counter,
    /// Strata recomputed from scratch inside the changed cone.
    pub strata_recomputed: Counter,
    /// Materialize runs that handed their strata to scoped worker threads
    /// (runs with at most one stratum to evaluate stay inline).
    pub scheduler_spawns: Counter,
    /// Conjunction groups dispatched to the leapfrog WCOJ kernel.
    pub wcoj_dispatches: Counter,
    /// Atoms dispatched to the pairwise binary-join scheduler.
    pub binary_join_dispatches: Counter,
    /// Rules executed by a fused columnar whole-rule kernel.
    pub fused_rules: Counter,
    /// Rules executed by the generic environment machinery.
    pub env_rules: Counter,
    /// Queries whose latency crossed `REL_SLOW_QUERY_MS`.
    pub slow_queries: Counter,
    /// End-to-end latency of session query evaluations, µs.
    pub query_us: Histogram,
}

impl Registry {
    const fn new() -> Self {
        Registry {
            commits: Counter::new(),
            aborts: Counter::new(),
            wal_bytes: Counter::new(),
            fsyncs: Counter::new(),
            compactions: Counter::new(),
            snapshot_publishes: Counter::new(),
            module_cache_hits: Counter::new(),
            module_cache_misses: Counter::new(),
            fixpoint_cache_hits: Counter::new(),
            fixpoint_cache_misses: Counter::new(),
            index_builds: Counter::new(),
            index_reuses: Counter::new(),
            trie_builds: Counter::new(),
            trie_reuses: Counter::new(),
            strata_reused: Counter::new(),
            strata_delta_restarted: Counter::new(),
            strata_recomputed: Counter::new(),
            scheduler_spawns: Counter::new(),
            wcoj_dispatches: Counter::new(),
            binary_join_dispatches: Counter::new(),
            fused_rules: Counter::new(),
            env_rules: Counter::new(),
            slow_queries: Counter::new(),
            query_us: Histogram::new(),
        }
    }

    /// Read every counter (in a fixed, documented order) plus the query
    /// histogram into a plain snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters().map(|(n, c)| (n, c.get())).collect(),
            query_us: self.query_us.snapshot(),
        }
    }

    /// `(name, counter)` pairs in snapshot order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, &Counter)> {
        [
            ("commits", &self.commits),
            ("aborts", &self.aborts),
            ("wal_bytes", &self.wal_bytes),
            ("fsyncs", &self.fsyncs),
            ("compactions", &self.compactions),
            ("snapshot_publishes", &self.snapshot_publishes),
            ("module_cache_hits", &self.module_cache_hits),
            ("module_cache_misses", &self.module_cache_misses),
            ("fixpoint_cache_hits", &self.fixpoint_cache_hits),
            ("fixpoint_cache_misses", &self.fixpoint_cache_misses),
            ("index_builds", &self.index_builds),
            ("index_reuses", &self.index_reuses),
            ("trie_builds", &self.trie_builds),
            ("trie_reuses", &self.trie_reuses),
            ("strata_reused", &self.strata_reused),
            ("strata_delta_restarted", &self.strata_delta_restarted),
            ("strata_recomputed", &self.strata_recomputed),
            ("scheduler_spawns", &self.scheduler_spawns),
            ("wcoj_dispatches", &self.wcoj_dispatches),
            ("binary_join_dispatches", &self.binary_join_dispatches),
            ("fused_rules", &self.fused_rules),
            ("env_rules", &self.env_rules),
            ("slow_queries", &self.slow_queries),
        ]
        .into_iter()
    }
}

static REGISTRY: Registry = Registry::new();

/// The process-wide registry.
pub fn registry() -> &'static Registry {
    &REGISTRY
}

/// A point-in-time read of the whole registry.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter, in [`Registry::counters`] order.
    pub counters: Vec<(&'static str, u64)>,
    /// The query-latency histogram.
    pub query_us: HistogramSnapshot,
}

impl MetricsSnapshot {
    /// Value of a counter by name (0 if unknown — names are stable).
    pub fn get(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Render as an aligned text block (the `:stats`-style output).
    pub fn render(&self) -> String {
        let mut out = String::from("engine metrics\n");
        let width = self
            .counters
            .iter()
            .map(|(n, _)| n.len())
            .max()
            .unwrap_or(0);
        for (name, value) in &self.counters {
            out.push_str(&format!("  {name:width$}  {value}\n"));
        }
        let q = &self.query_us;
        out.push_str(&format!(
            "  {:width$}  n={} mean={}us p50<={}us p99<={}us max={}us\n",
            "query_latency",
            q.count,
            q.mean_us(),
            q.p50_us,
            q.p99_us,
            q.max_us
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotone_and_relaxed() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.incr();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new();
        for us in [0, 1, 2, 3, 100, 1000, 1000, 1000] {
            h.record_us(us);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 8);
        assert_eq!(s.sum_us, 3106);
        assert_eq!(s.max_us, 1000);
        assert_eq!(s.mean_us(), 388);
        // Median sample is 3 (rank 4 of 8): bucket floor(log2 3)=1, upper
        // bound 3. p99 is the 1000s: bucket 9, upper bound 1023.
        assert_eq!(s.p50_us, 3);
        assert_eq!(s.p99_us, 1023);
    }

    #[test]
    fn empty_histogram_snapshot_is_zeros() {
        assert_eq!(Histogram::new().snapshot(), HistogramSnapshot::default());
    }

    #[test]
    fn snapshot_names_resolve_and_render() {
        let snap = registry().snapshot();
        assert_eq!(snap.counters.len(), 23);
        assert_eq!(snap.get("commits"), registry().commits.get());
        assert_eq!(snap.get("not_a_counter"), 0);
        let text = snap.render();
        assert!(text.contains("fsyncs"), "{text}");
        assert!(text.contains("query_latency"), "{text}");
    }

    #[test]
    fn set_metrics_overrides_the_gate() {
        set_metrics(true);
        assert!(enabled());
        set_metrics(false);
        assert!(!enabled());
    }
}
