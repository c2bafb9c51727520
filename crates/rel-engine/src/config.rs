//! One configuration surface for every engine switch, and the engine's
//! only reader of the environment.
//!
//! Every `REL_*` variable the engine honours (see the
//! [crate-level table](crate#environment-variables)) is read here, once
//! per process, and parsed by one parser per kind of value: an on/off
//! switch (`0`/`false`/`off`/`no` against `1`/`true`/`on`/`yes`, trimmed,
//! any case), a positive count, a number, and the two enums built on the
//! switch spelling ([`WcojMode`], [`crate::FsyncPolicy`]). The modules
//! that own a mechanism take their defaults from here and never look at
//! the environment themselves.
//!
//! * [`EngineConfig::from_env`] is the whole resolved table as one value —
//!   exactly what a plain [`Session::new`](crate::Session::new) is built
//!   with;
//! * the builder methods override individual switches;
//! * [`Session::with_config`](crate::Session::with_config) /
//!   [`Session::open_with`](crate::Session::open_with) are the only way to
//!   configure a session: its switches are fixed at construction.
//!
//! ```
//! use rel_core::Database;
//! use rel_engine::{EngineConfig, Session, WcojMode};
//!
//! let cfg = EngineConfig::from_env().incremental(false).wcoj(WcojMode::Force);
//! let s = Session::with_config(Database::new(), cfg);
//! assert!(!s.incremental_enabled());
//! assert_eq!(s.wcoj_mode(), WcojMode::Force);
//! ```
//!
//! Two switches are **process-wide** because their machinery sits below
//! any session: the columnar layout ([`rel_core::set_columnar_enabled`],
//! default on) and hot-path metrics ([`metrics::set_metrics`], default
//! off). `REL_COLUMNAR` / `REL_METRICS` override those defaults once,
//! when the environment is first resolved (by the first session, index
//! cache, or [`EngineConfig::from_env`]), and only when set.
//! `REL_METRICS` never undoes an explicit [`metrics::set_metrics`], which
//! resolves the environment before it stores, and neither variable
//! undoes what a session's [`EngineConfig`] writes, for the same reason.
//! `REL_COLUMNAR` can only turn the layout off, so an explicit
//! `set_columnar_enabled(false)` always stands; rel-core cannot see the
//! environment, so only a `set_columnar_enabled(true)` made before that
//! first resolution gives way to `REL_COLUMNAR=0`. Constructing a session
//! never writes either switch unless its [`EngineConfig`] asks for a
//! different value.
//!
//! Every switch tunes scheduling, caching, observability, durability, or
//! delivery — never query semantics: results are byte-identical under
//! every configuration (held to that by the mode-matrix equivalence
//! suites).

use crate::durability::{DurabilityConfig, FsyncPolicy};
use crate::eval::WcojMode;
use crate::metrics;
use crate::watch::DEFAULT_WATCH_BUFFER;
use std::sync::OnceLock;

/// Every engine switch, resolved. See the
/// [crate-level table](crate#environment-variables) for the
/// corresponding `REL_*` environment variables.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Incremental view maintenance (`REL_INCREMENTAL`, default on).
    /// Per-session.
    pub incremental: bool,
    /// Routing of multi-atom conjunctions through the leapfrog WCOJ
    /// kernel (`REL_WCOJ`, default [`WcojMode::Auto`]). Per-session.
    pub wcoj: WcojMode,
    /// Typed columnar storage layout (`REL_COLUMNAR`, default on).
    /// **Process-wide** — the kernels live below the session layer.
    pub columnar: bool,
    /// Hot-path metrics collection (`REL_METRICS`, default off).
    /// **Process-wide**, like [`EngineConfig::columnar`].
    pub metrics: bool,
    /// How many [`crate::WatchDelta`] batches a standing query buffers
    /// before its subscriber is considered lagging and is resynced with
    /// a snapshot batch (`REL_WATCH_BUFFER`, default
    /// [`DEFAULT_WATCH_BUFFER`]; at least 1). Per-session; captured per
    /// watch at registration.
    pub watch_buffer: usize,
    /// Durability tuning for
    /// [`Session::open_with`](crate::Session::open_with) (`REL_FSYNC`
    /// plus compaction triggers). Ignored by
    /// [`Session::with_config`](crate::Session::with_config), which builds
    /// ephemeral sessions.
    pub durability: DurabilityConfig,
}

impl Default for EngineConfig {
    /// Identical to [`EngineConfig::from_env`].
    fn default() -> Self {
        EngineConfig::from_env()
    }
}

impl EngineConfig {
    /// Every switch as the environment resolves it (the process-wide
    /// ones at their current value): the configuration of a plain
    /// [`Session::new`](crate::Session::new).
    pub fn from_env() -> Self {
        let env = env();
        EngineConfig {
            incremental: env.incremental,
            wcoj: env.wcoj,
            columnar: rel_core::columnar_enabled(),
            metrics: metrics::enabled(),
            watch_buffer: env.watch_buffer,
            durability: DurabilityConfig::default(),
        }
    }

    /// Override the incremental-maintenance switch (builder-style).
    pub fn incremental(mut self, on: bool) -> Self {
        self.incremental = on;
        self
    }

    /// Override the WCOJ routing mode (builder-style).
    pub fn wcoj(mut self, mode: WcojMode) -> Self {
        self.wcoj = mode;
        self
    }

    /// Override the (process-wide) columnar-layout switch (builder-style).
    pub fn columnar(mut self, on: bool) -> Self {
        self.columnar = on;
        self
    }

    /// Override the (process-wide) hot-path metrics switch (builder-style).
    pub fn metrics(mut self, on: bool) -> Self {
        self.metrics = on;
        self
    }

    /// Override the standing-query delivery buffer (builder-style;
    /// clamped to at least 1 when the session is built).
    pub fn watch_buffer(mut self, batches: usize) -> Self {
        self.watch_buffer = batches;
        self
    }

    /// Override the durability tuning used by
    /// [`Session::open_with`](crate::Session::open_with) (builder-style).
    pub fn durability(mut self, cfg: DurabilityConfig) -> Self {
        self.durability = cfg;
        self
    }

    /// Write the process-wide switches, each only when the requested
    /// value differs from the current one, so a configuration taken from
    /// [`EngineConfig::from_env`] leaves them alone. The environment is
    /// resolved first, so it cannot later undo what this writes.
    pub(crate) fn apply_process_wide(&self) {
        env();
        if rel_core::columnar_enabled() != self.columnar {
            rel_core::set_columnar_enabled(self.columnar);
        }
        if metrics::enabled() != self.metrics {
            metrics::set_metrics(self.metrics);
        }
    }
}

/// The `REL_*` variables the engine reads, parsed.
#[derive(Debug)]
pub(crate) struct Env {
    pub(crate) incremental: bool,
    pub(crate) wcoj: WcojMode,
    /// `Some` only when `REL_COLUMNAR` is set to a switch value.
    columnar: Option<bool>,
    /// `Some` only when `REL_METRICS` is set to a switch value.
    metrics: Option<bool>,
    pub(crate) watch_buffer: usize,
    pub(crate) fsync: FsyncPolicy,
    /// `REL_DURABILITY`: whether `Session::open` attaches a store.
    pub(crate) durable: bool,
    /// `REL_EVAL_THREADS`, else the hardware parallelism capped at 8.
    pub(crate) eval_threads: usize,
    pub(crate) slow_query_ms: Option<u64>,
}

/// The environment, resolved on first use and kept for the process. The
/// first resolution also applies `REL_COLUMNAR` / `REL_METRICS` to the
/// process-wide switches (module docs).
pub(crate) fn env() -> &'static Env {
    static ENV: OnceLock<Env> = OnceLock::new();
    ENV.get_or_init(|| {
        let env = Env::read(|name| std::env::var(name).ok());
        if env.columnar == Some(false) {
            rel_core::set_columnar_enabled(false);
        }
        if let Some(on) = env.metrics {
            metrics::store(on);
        }
        env
    })
}

/// An on/off switch value, or `None` when `v` is neither spelling.
fn switch(v: &str) -> Option<bool> {
    match v {
        "0" | "false" | "off" | "no" => Some(false),
        "1" | "true" | "on" | "yes" => Some(true),
        _ => None,
    }
}

impl Env {
    /// Parse every variable through `var` (the process environment, or a
    /// fixed table in tests). Unset and unparsable values alike fall back
    /// to the default.
    fn read(var: impl Fn(&str) -> Option<String>) -> Env {
        let get = |name: &str| var(name).map(|v| v.trim().to_ascii_lowercase());
        let flag = |name: &str| get(name).as_deref().and_then(switch);
        let count = |name: &str| get(name)?.parse::<usize>().ok().filter(|&n| n >= 1);
        Env {
            incremental: flag("REL_INCREMENTAL").unwrap_or(true),
            wcoj: match get("REL_WCOJ").as_deref() {
                Some("force" | "always") => WcojMode::Force,
                Some(v) if switch(v) == Some(false) => WcojMode::Off,
                _ => WcojMode::Auto,
            },
            columnar: flag("REL_COLUMNAR"),
            metrics: flag("REL_METRICS"),
            watch_buffer: count("REL_WATCH_BUFFER").unwrap_or(DEFAULT_WATCH_BUFFER),
            fsync: match get("REL_FSYNC").as_deref() {
                Some("always") => FsyncPolicy::Always,
                Some(v) if switch(v) == Some(false) => FsyncPolicy::Off,
                _ => FsyncPolicy::Batch,
            },
            durable: flag("REL_DURABILITY").unwrap_or(true),
            eval_threads: count("REL_EVAL_THREADS").unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
                    .min(8)
            }),
            slow_query_ms: get("REL_SLOW_QUERY_MS").and_then(|v| v.parse().ok()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Session;
    use rel_core::Database;

    fn read(vars: &[(&str, &str)]) -> Env {
        Env::read(|name| {
            vars.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        })
    }

    #[test]
    fn unset_environment_gives_the_defaults() {
        let env = read(&[]);
        assert!(env.incremental && env.durable);
        assert_eq!(env.wcoj, WcojMode::Auto);
        assert_eq!((env.columnar, env.metrics), (None, None));
        assert_eq!(env.watch_buffer, DEFAULT_WATCH_BUFFER);
        assert_eq!(env.fsync, FsyncPolicy::Batch);
        assert!(env.eval_threads >= 1);
        assert_eq!(env.slow_query_ms, None);
    }

    #[test]
    fn one_switch_spelling_for_every_variable() {
        for off in ["0", " off ", "FALSE", "no"] {
            let env = read(&[
                ("REL_INCREMENTAL", off),
                ("REL_WCOJ", off),
                ("REL_COLUMNAR", off),
                ("REL_METRICS", off),
                ("REL_FSYNC", off),
                ("REL_DURABILITY", off),
            ]);
            assert!(!env.incremental && !env.durable, "{off:?}");
            assert_eq!(env.wcoj, WcojMode::Off);
            assert_eq!((env.columnar, env.metrics), (Some(false), Some(false)));
            assert_eq!(env.fsync, FsyncPolicy::Off);
        }
        for on in ["1", "true", " On ", "yes"] {
            let env = read(&[("REL_COLUMNAR", on), ("REL_METRICS", on), ("REL_WCOJ", on)]);
            assert_eq!(
                (env.columnar, env.metrics),
                (Some(true), Some(true)),
                "{on:?}"
            );
            assert_eq!(env.wcoj, WcojMode::Auto);
        }
        let env = read(&[("REL_COLUMNAR", "maybe"), ("REL_INCREMENTAL", "maybe")]);
        assert_eq!(
            env.columnar, None,
            "an unknown spelling leaves the switch alone"
        );
        assert!(env.incremental);
    }

    #[test]
    fn enums_and_numbers_parse() {
        for (v, mode) in [
            ("force", WcojMode::Force),
            ("ALWAYS", WcojMode::Force),
            ("auto", WcojMode::Auto),
        ] {
            assert_eq!(read(&[("REL_WCOJ", v)]).wcoj, mode, "{v:?}");
        }
        assert_eq!(read(&[("REL_FSYNC", "Always")]).fsync, FsyncPolicy::Always);
        assert_eq!(read(&[("REL_FSYNC", "batch")]).fsync, FsyncPolicy::Batch);
        let env = read(&[
            ("REL_WATCH_BUFFER", " 3 "),
            ("REL_EVAL_THREADS", "5"),
            ("REL_SLOW_QUERY_MS", "0"),
        ]);
        assert_eq!(
            (env.watch_buffer, env.eval_threads, env.slow_query_ms),
            (3, 5, Some(0))
        );
        let env = read(&[("REL_WATCH_BUFFER", "0"), ("REL_SLOW_QUERY_MS", "-1")]);
        assert_eq!(
            env.watch_buffer, DEFAULT_WATCH_BUFFER,
            "a count is at least 1"
        );
        assert_eq!(env.slow_query_ms, None);
    }

    #[test]
    fn builder_overrides_reach_the_session() {
        let cfg = EngineConfig::from_env()
            .incremental(false)
            .wcoj(WcojMode::Force)
            .watch_buffer(3);
        let s = Session::with_config(Database::new(), cfg);
        assert!(!s.incremental_enabled());
        assert_eq!(s.wcoj_mode(), WcojMode::Force);
        assert_eq!(s.watch_buffer(), 3);
        let s = Session::with_config(Database::new(), cfg.watch_buffer(0));
        assert_eq!(s.watch_buffer(), 1, "the buffer is clamped to one batch");
    }
}
