//! One configuration reader: every engine default taken from the
//! environment agrees with `EngineConfig::from_env()`, and the
//! environment never undoes an explicit flip of a process-wide switch.
//!
//! A binary of its own because it flips the process-wide columnar and
//! metrics switches, and a single test because the order matters: the
//! flips must come before anything in the process resolves the
//! environment, so the first resolution happens after them.

use rel_core::Database;
use rel_engine::{
    eval_threads, metrics, DurabilityConfig, EngineConfig, Session, SharedIndexCache,
};

#[test]
fn explicit_flips_survive_and_every_default_comes_from_the_one_reader() {
    // Explicit flips first, away from both defaults (columnar on,
    // metrics off). `set_metrics` is the process's first resolution of
    // the environment, so it runs after the columnar flip.
    rel_core::set_columnar_enabled(false);
    metrics::set_metrics(true);
    let plain = Session::new(Database::new());
    assert!(
        !rel_core::columnar_enabled(),
        "REL_COLUMNAR undid an explicit flip"
    );
    assert!(metrics::enabled(), "REL_METRICS undid an explicit flip");

    // Later sessions, configs and caches leave the flips alone.
    let cfg = EngineConfig::from_env();
    assert!(
        !cfg.columnar && cfg.metrics,
        "from_env reports the live switches"
    );
    let configured = Session::with_config(Database::new(), cfg);
    let _ = SharedIndexCache::default();
    let _ = Session::new(Database::new());
    assert!(!rel_core::columnar_enabled() && metrics::enabled());

    // Every constructor that takes a default resolves the same values.
    for s in [&plain, &configured] {
        assert_eq!(s.incremental_enabled(), cfg.incremental);
        assert_eq!(s.wcoj_mode(), cfg.wcoj);
        assert_eq!(s.watch_buffer(), cfg.watch_buffer);
        assert_eq!(s.columnar_enabled(), cfg.columnar);
        assert_eq!(s.metrics_enabled(), cfg.metrics);
    }
    assert_eq!(SharedIndexCache::default().wcoj_mode(), cfg.wcoj);
    assert_eq!(DurabilityConfig::default().fsync, cfg.durability.fsync);
    assert_eq!(EngineConfig::default().wcoj, cfg.wcoj);

    // The worker count is the same variable with the same parse.
    let hardware = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(8);
    let expected = std::env::var("REL_EVAL_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(hardware);
    assert_eq!(eval_threads(), expected);

    // A config that asks for other values does write the switches.
    let _ = Session::with_config(Database::new(), cfg.columnar(true).metrics(false));
    assert!(rel_core::columnar_enabled() && !metrics::enabled());
}
