//! One configuration reader: every engine default taken from the
//! environment agrees with `EngineConfig::from_env()`, and the
//! environment never undoes an explicit flip of the process-wide metrics
//! switch.
//!
//! A binary of its own because it flips the process-wide metrics switch,
//! and a single test because the order matters: the flip must be the
//! process's first resolution of the environment.

use rel_core::Database;
use rel_engine::{
    eval_threads, metrics, DurabilityConfig, EngineConfig, Session, SharedIndexCache, WcojMode,
};

#[test]
fn an_explicit_flip_survives_and_every_default_comes_from_the_one_reader() {
    // An explicit flip first, away from the default (metrics off).
    // `set_metrics` is the process's first resolution of the environment.
    metrics::set_metrics(true);
    let plain = Session::new(Database::new());
    assert!(metrics::enabled(), "REL_METRICS undid an explicit flip");

    // Later sessions, configs and caches leave the flip alone.
    let cfg = EngineConfig::from_env();
    assert!(cfg.metrics, "from_env reports the live switch");
    let configured = Session::with_config(Database::new(), cfg);
    let _ = SharedIndexCache::default();
    let _ = Session::new(Database::new());
    assert!(metrics::enabled());

    // Every constructor that takes a default resolves the same values.
    for s in [&plain, &configured] {
        assert_eq!(s.wcoj_mode(), cfg.wcoj);
        assert_eq!(s.watch_buffer(), cfg.watch_buffer);
        assert_eq!(s.metrics_enabled(), cfg.metrics);
    }
    assert_eq!(SharedIndexCache::default().wcoj_mode(), cfg.wcoj);
    assert_eq!(DurabilityConfig::default().fsync, cfg.durability.fsync);
    assert_eq!(EngineConfig::default().wcoj, cfg.wcoj);

    // The routing mode and the worker count are the same variables with
    // the same parse.
    let var = |name: &str| std::env::var(name).ok().map(|v| v.trim().to_ascii_lowercase());
    let wcoj = match var("REL_WCOJ").as_deref() {
        Some("force" | "always") => WcojMode::Force,
        _ => WcojMode::Auto,
    };
    assert_eq!(cfg.wcoj, wcoj);
    let hardware = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(8);
    let expected = var("REL_EVAL_THREADS")
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(hardware);
    assert_eq!(eval_threads(), expected);

    // A config that asks for another value does write the switch.
    let _ = Session::with_config(Database::new(), cfg.metrics(false));
    assert!(!metrics::enabled());
}
