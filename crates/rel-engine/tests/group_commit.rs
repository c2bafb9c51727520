//! Group commit correctness: coalesced fsyncs and crash-safe acks.
//!
//! Two properties prove the group-commit window
//! ([`Session::begin_commit_group`] / [`Session::end_commit_group`]):
//!
//! * **coalescing** — under [`FsyncPolicy::Always`], one window over N
//!   commits issues one WAL fsync, so the process-wide fsync counter
//!   (`metrics::registry().fsyncs`) grows strictly slower than the
//!   commit count;
//! * **ack safety** — a commit may be acknowledged only after its
//!   window closes cleanly, and crash-injected streams (via the
//!   `durability::failpoint` harness) always recover to a *prefix* of
//!   the attempted history that contains every acknowledged commit.
//!
//! Both the fsync counter and the failpoint budget are process-global;
//! every test here serializes on [`GLOBAL_LOCK`]. Cargo gives each test
//! binary its own process, so other suites cannot interfere.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rel_core::{tuple, Database, Tuple};
use rel_engine::durability::{failpoint, DurabilityConfig, FsyncPolicy};
use rel_engine::{metrics, EngineConfig, Session};
use std::path::PathBuf;
use std::sync::Mutex;

static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rel-group-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Always-fsync config with compaction pushed out of reach, so every
/// fsync observed below is a WAL commit sync, not a snapshot sync.
fn always_no_compact() -> EngineConfig {
    EngineConfig::from_env().durability(DurabilityConfig {
        fsync: FsyncPolicy::Always,
        fsync_batch: 32,
        compact_after_commits: u64::MAX,
        compact_after_bytes: u64::MAX,
    })
}

fn insert(s: &mut Session, rel: &str, a: i64, b: i64) -> Result<(), rel_core::RelError> {
    let mut txn = s.begin();
    txn.stage_insert(rel, tuple![a, b]);
    txn.commit().map(|_| ())
}

/// Canonical content image (mirrors the crash_recovery suite).
fn canon(db: &Database) -> Vec<(String, Vec<Tuple>)> {
    db.iter()
        .filter(|(_, r)| !r.is_empty())
        .map(|(n, r)| (n.to_string(), r.iter().cloned().collect()))
        .collect()
}

#[test]
fn one_fsync_covers_a_whole_group() {
    let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = temp_dir("coalesce");
    let mut s = Session::open_with(&dir, always_no_compact()).unwrap();
    assert!(s.is_durable());

    const N: u64 = 16;
    let before = metrics::registry().fsyncs.get();
    s.begin_commit_group();
    assert!(s.in_commit_group());
    for i in 0..N {
        insert(&mut s, "R", i as i64, i as i64).unwrap();
    }
    let covered = s.end_commit_group().unwrap();
    let synced = metrics::registry().fsyncs.get() - before;

    assert_eq!(covered, N, "the closing fsync must cover every commit in the window");
    assert_eq!(synced, 1, "N grouped commits under fsync=always must cost exactly 1 fsync");
    assert!(!s.in_commit_group());

    // The group is durable: a fresh recovery sees all N commits.
    drop(s);
    let s = Session::open_with(&dir, always_no_compact()).unwrap();
    assert_eq!(s.db().get("R").unwrap().len(), N as usize);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn grouped_streams_use_strictly_fewer_fsyncs_than_commits() {
    let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = temp_dir("stream");
    let mut s = Session::open_with(&dir, always_no_compact()).unwrap();

    // Randomized group sizes, as a commit queue under bursty load would
    // produce them.
    let mut rng = StdRng::seed_from_u64(4242);
    let mut commits = 0u64;
    let mut groups = 0u64;
    let before = metrics::registry().fsyncs.get();
    let mut key = 0i64;
    for _ in 0..12 {
        let size = rng.gen_range(1..=8);
        s.begin_commit_group();
        for _ in 0..size {
            insert(&mut s, "S", key, key).unwrap();
            key += 1;
            commits += 1;
        }
        assert_eq!(s.end_commit_group().unwrap(), size);
        groups += 1;
    }
    let synced = metrics::registry().fsyncs.get() - before;
    assert_eq!(synced, groups, "one fsync per non-empty group");
    assert!(
        synced < commits,
        "group commit must coalesce: {synced} fsyncs for {commits} commits"
    );

    drop(s);
    let s = Session::open_with(&dir, always_no_compact()).unwrap();
    assert_eq!(s.db().get("S").unwrap().len(), key as usize);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn empty_and_ephemeral_groups_are_free() {
    let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Ephemeral session: the window is a no-op.
    let mut s = Session::new(Database::new());
    s.begin_commit_group();
    s.transact("def insert(:R, x) : x = 1").unwrap();
    assert_eq!(s.end_commit_group().unwrap(), 0);

    // Durable session, empty window: no commits, no fsync.
    let dir = temp_dir("empty");
    let mut s = Session::open_with(&dir, always_no_compact()).unwrap();
    let before = metrics::registry().fsyncs.get();
    s.begin_commit_group();
    assert_eq!(s.end_commit_group().unwrap(), 0);
    assert_eq!(metrics::registry().fsyncs.get() - before, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Crash-injected randomized group streams
// ---------------------------------------------------------------------------

/// Aggressive compaction so crash points also land inside snapshot
/// writes that race a group window.
fn crash_cfg() -> EngineConfig {
    EngineConfig::from_env().durability(DurabilityConfig {
        fsync: FsyncPolicy::Always,
        fsync_batch: 2,
        compact_after_commits: 5,
        compact_after_bytes: 1 << 20,
    })
}

/// A seeded stream of single-insert commits pre-partitioned into groups.
fn grouped_stream(seed: u64, commits: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sizes = Vec::new();
    let mut left = commits;
    while left > 0 {
        let g = rng.gen_range(1usize..=4).min(left);
        sizes.push(g);
        left -= g;
    }
    sizes
}

/// Replay `commits` single-insert transactions in the given group sizes
/// against `dir`. Returns `(acked, done)`: commits whose group closed
/// cleanly (acknowledged) and commits whose append returned `Ok`
/// (installed, possibly unsynced). Stops at the first crash error.
fn run_grouped(dir: &PathBuf, sizes: &[usize]) -> Option<(usize, usize)> {
    let mut s = match Session::open_with(dir, crash_cfg()) {
        Ok(s) => s,
        Err(_) => return Some((0, 0)),
    };
    if !s.is_durable() {
        return Some((0, 0)); // budget 0 killed the open; store is empty
    }
    let mut acked = 0usize;
    let mut done = 0usize;
    let mut key = 0i64;
    for &size in sizes {
        s.begin_commit_group();
        let mut group_ok = true;
        for _ in 0..size {
            match insert(&mut s, "R", key, key) {
                Ok(()) => {
                    key += 1;
                    done += 1;
                }
                Err(_) => {
                    group_ok = false;
                    break;
                }
            }
        }
        let closed = s.end_commit_group();
        if !group_ok || closed.is_err() {
            return Some((acked, done));
        }
        // The window closed with a clean sync: everything appended so
        // far (this group and all before it) is now acknowledged.
        acked = done;
    }
    None // never crashed
}

#[test]
fn crash_injected_groups_recover_a_prefix_containing_every_ack() {
    let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    const COMMITS: usize = 14;
    for seed in [7u64, 77, 777] {
        let sizes = grouped_stream(seed, COMMITS);

        // Oracle: state after each commit count.
        let oracle: Vec<_> = {
            let mut s = Session::new(Database::new());
            let mut states = vec![canon(s.db())];
            for k in 0..COMMITS as i64 {
                insert(&mut s, "R", k, k).unwrap();
                states.push(canon(s.db()));
            }
            states
        };

        // Total write volume of the clean grouped run.
        let volume = {
            const HUGE: u64 = 1 << 40;
            let dir = temp_dir(&format!("vol-{seed}"));
            failpoint::arm(HUGE);
            let crashed = run_grouped(&dir, &sizes);
            let spent = HUGE - failpoint::remaining().expect("armed");
            failpoint::disarm();
            assert!(crashed.is_none(), "unlimited budget cannot crash");
            let _ = std::fs::remove_dir_all(&dir);
            spent
        };
        assert!(volume > 0);

        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
        let mut kills: Vec<u64> = (0..10).map(|_| rng.gen_range(0..volume)).collect();
        kills.push(0);
        for (i, k) in kills.into_iter().enumerate() {
            let dir = temp_dir(&format!("kill-{seed}-{i}"));
            failpoint::arm(k);
            let (acked, done) =
                run_grouped(&dir, &sizes).unwrap_or_else(|| panic!("budget {k} did not crash"));
            failpoint::disarm();
            assert!(acked <= done);

            // Recovery (disarmed = the next process after the crash).
            let s = Session::open_with(&dir, crash_cfg())
                .unwrap_or_else(|e| panic!("kill after {k} bytes: recovery failed: {e}"));
            let got = canon(s.db());
            // The recovered state must be the `s`-commit prefix for some
            // `s >= acked` (acks never lost; unsynced appends and the
            // one torn in-flight record may or may not have landed).
            let matched = (acked..=(done + 1).min(COMMITS)).any(|n| oracle[n] == got);
            assert!(
                matched,
                "seed {seed}, kill after {k} bytes: recovered state is not a \
                 prefix in [{acked}, {}].\n got: {got:?}",
                done + 1
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
