//! Group commit under real concurrency: the serving-layer acceptance
//! test for coalesced fsyncs.
//!
//! A burst of concurrent client commits against a durable server with
//! `REL_FSYNC=always` semantics must cost **strictly fewer fsyncs than
//! commits** (the whole point of the group-commit queue), while every
//! acknowledged commit survives a reopen — and, with the failpoint
//! harness killing the durable layer mid-burst, recovery yields a
//! subset of attempted commits containing every acknowledged one.
//!
//! The fsync counter and failpoint budget are process-global, so this
//! suite lives in its own binary and serializes on [`GLOBAL_LOCK`].

use rel_engine::durability::{failpoint, DurabilityConfig, FsyncPolicy};
use rel_engine::{metrics, EngineConfig, Session};
use rel_server::{Client, Server, ServerConfig};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::{Barrier, Mutex};

static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rel-burst-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn always_no_compact() -> EngineConfig {
    EngineConfig::from_env().durability(DurabilityConfig {
        fsync: FsyncPolicy::Always,
        fsync_batch: 32,
        compact_after_commits: u64::MAX,
        compact_after_bytes: u64::MAX,
    })
}

/// All `(client, seq)` keys present in the `Burst` relation.
fn burst_keys(s: &Session) -> BTreeSet<(i64, i64)> {
    s.db()
        .get("Burst")
        .map(|r| {
            r.iter()
                .map(|t| {
                    let mut vals = t.iter();
                    let a = vals.next().and_then(|v| v.as_int()).expect("int key");
                    let b = vals.next().and_then(|v| v.as_int()).expect("int key");
                    (a, b)
                })
                .collect()
        })
        .unwrap_or_default()
}

#[test]
fn concurrent_burst_uses_strictly_fewer_fsyncs_than_commits() {
    let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = temp_dir("coalesce");
    let session = Session::open_with(&dir, always_no_compact()).unwrap();
    assert!(session.is_durable());
    let server = Server::start(session, ServerConfig::default()).unwrap();
    let addr = server.addr();

    const CLIENTS: usize = 32;
    const ROUNDS: usize = 4;
    let commits = (CLIENTS * ROUNDS) as u64;
    let before = metrics::registry().fsyncs.get();

    // A barrier per round lines the whole fleet up, so every round hits
    // the commit queue as one concurrent burst.
    let barrier = std::sync::Arc::new(Barrier::new(CLIENTS));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                for round in 0..ROUNDS {
                    barrier.wait();
                    let src = format!(
                        "def insert(:Burst, x, y) : x = {i} and y = {round}"
                    );
                    let out = c.transact(&src).unwrap();
                    assert_eq!(out.inserted, 1, "client {i} round {round}");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread panicked");
    }
    let synced = metrics::registry().fsyncs.get() - before;
    assert!(synced >= 1, "fsync=always must sync at least once");
    assert!(
        synced < commits,
        "group commit must coalesce under a concurrent burst: \
         {synced} fsyncs for {commits} commits"
    );

    // Every acknowledged commit is durable across shutdown + reopen.
    let session = server.shutdown().unwrap();
    assert_eq!(burst_keys(&session).len(), commits as usize);
    drop(session);
    let reopened = Session::open_with(&dir, always_no_compact()).unwrap();
    assert_eq!(
        burst_keys(&reopened).len(),
        commits as usize,
        "all acked commits must survive recovery"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

type KeySet = BTreeSet<(i64, i64)>;

/// One crash-injected burst: kill the durable layer after `budget`
/// bytes while 8 clients commit unique keys concurrently. Returns
/// `(acked, attempted)` key sets.
fn crashed_burst(dir: &PathBuf, budget: u64) -> (KeySet, KeySet) {
    let session = Session::open_with(dir, always_no_compact()).unwrap();
    let server = Server::start(session, ServerConfig::default()).unwrap();
    let addr = server.addr();
    failpoint::arm(budget);

    const CLIENTS: i64 = 8;
    const PER_CLIENT: i64 = 6;
    let handles: Vec<_> = (0..CLIENTS)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let mut acked = Vec::new();
                let mut attempted = Vec::new();
                for seq in 0..PER_CLIENT {
                    attempted.push((i, seq));
                    let src =
                        format!("def insert(:Burst, x, y) : x = {i} and y = {seq}");
                    if c.transact(&src).is_ok() {
                        acked.push((i, seq));
                    }
                }
                (acked, attempted)
            })
        })
        .collect();
    let mut acked = BTreeSet::new();
    let mut attempted = BTreeSet::new();
    for h in handles {
        let (a, t) = h.join().expect("client thread panicked");
        acked.extend(a);
        attempted.extend(t);
    }
    failpoint::disarm();
    // Graceful shutdown still works on a crashed store (the final sync
    // failure is not a panic).
    let _ = server.shutdown();
    (acked, attempted)
}

#[test]
fn crash_injected_burst_recovers_every_acked_commit() {
    let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());

    // Sanity: with an unlimited budget nothing crashes and every
    // commit is acked.
    let volume = {
        const HUGE: u64 = 1 << 40;
        let dir = temp_dir("volume");
        let (acked, attempted) = crashed_burst(&dir, HUGE);
        assert_eq!(acked, attempted, "unlimited budget must ack everything");
        let _ = std::fs::remove_dir_all(&dir);
        // A full burst writes well under 1 MiB; kill points are
        // fractions of that ceiling so they land mid-burst.
        1u64 << 20
    };

    for (i, frac) in [8u64, 3, 2].into_iter().enumerate() {
        let dir = temp_dir(&format!("kill-{i}"));
        let (acked, attempted) = crashed_burst(&dir, volume / frac);

        // Recovery: every acked commit present, nothing invented.
        let recovered = Session::open_with(&dir, always_no_compact())
            .expect("recovery after crash must succeed");
        let got = burst_keys(&recovered);
        assert!(
            acked.is_subset(&got),
            "acked commits lost in recovery: missing {:?}",
            acked.difference(&got).collect::<Vec<_>>()
        );
        assert!(
            got.is_subset(&attempted),
            "recovery invented commits: {:?}",
            got.difference(&attempted).collect::<Vec<_>>()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
