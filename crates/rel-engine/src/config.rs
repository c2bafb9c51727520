//! One configuration surface for every engine switch, and the engine's
//! only reader of the environment.
//!
//! Every `REL_*` variable the engine honours (see the
//! [crate-level table](crate#environment-variables)) is read here, once
//! per process, and parsed by one parser per kind of value: an on/off
//! switch (`0`/`false`/`off`/`no` against `1`/`true`/`on`/`yes`, trimmed,
//! any case), a positive count, a number, and one enum
//! ([`crate::FsyncPolicy`], which is built on the switch spelling).
//! The modules that own a mechanism take their defaults from here and
//! never look at the environment themselves.
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
//! use rel_engine::{EngineConfig, Session};
//!
//! let cfg = EngineConfig::from_env().watch_buffer(3);
//! let s = Session::with_config(Database::new(), cfg);
//! assert_eq!(s.watch_buffer(), 3);
//! ```
//!
//! One switch is **process-wide** because its machinery sits below any
//! session: hot-path metrics ([`metrics::set_metrics`], default off).
//! `REL_METRICS` overrides that default once, when the environment is
//! first resolved (by the first session, index cache, or
//! [`EngineConfig::from_env`]), and only when set. It never undoes an
//! explicit [`metrics::set_metrics`], which resolves the environment
//! before it stores, nor what a session's [`EngineConfig`] writes, for
//! the same reason. Constructing a session never writes the switch
//! unless its [`EngineConfig`] asks for a different value.
//!
//! Every switch tunes observability, durability, or delivery — none
//! chooses which code path computes a result, and results are
//! byte-identical under every configuration. The differential harness
//! (`tests/differential.rs`) holds the non-default values to the
//! reference interpreter after each commit.

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
    // Inert, always `true`; kept only for benchmark/src/harness.rs's struct literal.
    #[doc(hidden)]
    pub incremental: bool,
    // Inert, always `Auto`; kept only for benchmark/src/harness.rs:105-121's struct literal.
    #[doc(hidden)]
    pub wcoj: WcojMode,
    // Inert, always `true`; kept only for benchmark/src/harness.rs's struct literal.
    #[doc(hidden)]
    pub columnar: bool,
    /// Hot-path metrics collection (`REL_METRICS`, default off).
    /// **Process-wide** — the counters live below the session layer.
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
    /// one at its current value): the configuration of a plain
    /// [`Session::new`](crate::Session::new).
    pub fn from_env() -> Self {
        let env = env();
        EngineConfig {
            incremental: true,
            wcoj: WcojMode::Auto,
            columnar: true,
            metrics: metrics::enabled(),
            watch_buffer: env.watch_buffer,
            durability: DurabilityConfig::default(),
        }
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

    /// Write the process-wide switch, only when the requested value
    /// differs from the current one, so a configuration taken from
    /// [`EngineConfig::from_env`] leaves it alone. The environment is
    /// resolved first, so it cannot later undo what this writes.
    pub(crate) fn apply_process_wide(&self) {
        env();
        if metrics::enabled() != self.metrics {
            metrics::set_metrics(self.metrics);
        }
    }
}

/// The `REL_*` variables the engine reads, parsed.
#[derive(Debug)]
pub(crate) struct Env {
    /// `Some` only when `REL_METRICS` is set to a switch value.
    metrics: Option<bool>,
    pub(crate) watch_buffer: usize,
    pub(crate) fsync: FsyncPolicy,
    /// `REL_DURABILITY`: whether `Session::open` attaches a store.
    pub(crate) durable: bool,
    pub(crate) slow_query_ms: Option<u64>,
}

/// The environment, resolved on first use and kept for the process. The
/// first resolution also applies `REL_METRICS` to the process-wide switch
/// (module docs).
pub(crate) fn env() -> &'static Env {
    static ENV: OnceLock<Env> = OnceLock::new();
    ENV.get_or_init(|| {
        let env = Env::read(|name| std::env::var(name).ok());
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
            metrics: flag("REL_METRICS"),
            watch_buffer: count("REL_WATCH_BUFFER").unwrap_or(DEFAULT_WATCH_BUFFER),
            fsync: match get("REL_FSYNC").as_deref() {
                Some("always") => FsyncPolicy::Always,
                Some(v) if switch(v) == Some(false) => FsyncPolicy::Off,
                _ => FsyncPolicy::Batch,
            },
            durable: flag("REL_DURABILITY").unwrap_or(true),
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
        assert!(env.durable);
        assert_eq!(env.metrics, None);
        assert_eq!(env.watch_buffer, DEFAULT_WATCH_BUFFER);
        assert_eq!(env.fsync, FsyncPolicy::Batch);
        assert_eq!(env.slow_query_ms, None);
    }

    #[test]
    fn one_switch_spelling_for_every_variable() {
        for off in ["0", " off ", "FALSE", "no"] {
            let env = read(&[
                ("REL_METRICS", off),
                ("REL_FSYNC", off),
                ("REL_DURABILITY", off),
            ]);
            assert!(!env.durable, "{off:?}");
            assert_eq!(env.metrics, Some(false));
            assert_eq!(env.fsync, FsyncPolicy::Off);
        }
        for on in ["1", "true", " On ", "yes"] {
            let env = read(&[("REL_METRICS", on), ("REL_DURABILITY", on)]);
            assert_eq!((env.metrics, env.durable), (Some(true), true), "{on:?}");
        }
        let env = read(&[("REL_METRICS", "maybe"), ("REL_DURABILITY", "maybe")]);
        assert_eq!(
            env.metrics, None,
            "an unknown spelling leaves the switch alone"
        );
        assert!(env.durable);
    }

    #[test]
    fn enums_and_numbers_parse() {
        assert_eq!(read(&[("REL_FSYNC", "Always")]).fsync, FsyncPolicy::Always);
        assert_eq!(read(&[("REL_FSYNC", "batch")]).fsync, FsyncPolicy::Batch);
        let env = read(&[("REL_WATCH_BUFFER", " 3 "), ("REL_SLOW_QUERY_MS", "0")]);
        assert_eq!((env.watch_buffer, env.slow_query_ms), (3, Some(0)));
        let env = read(&[("REL_WATCH_BUFFER", "0"), ("REL_SLOW_QUERY_MS", "-1")]);
        assert_eq!(
            env.watch_buffer, DEFAULT_WATCH_BUFFER,
            "a count is at least 1"
        );
        assert_eq!(env.slow_query_ms, None);
    }

    #[test]
    fn builder_overrides_reach_the_session() {
        let cfg = EngineConfig::from_env().watch_buffer(3);
        let s = Session::with_config(Database::new(), cfg);
        assert_eq!(s.watch_buffer(), 3);
        let s = Session::with_config(Database::new(), cfg.watch_buffer(0));
        assert_eq!(s.watch_buffer(), 1, "the buffer is clamped to one batch");
    }
}
