//! Crash-point-tested recovery: the durability tentpole's proof.
//!
//! The core property — **recovery is byte-identical to a prefix of the
//! committed history** — is driven two ways:
//!
//! * randomized crash points: seeded transaction streams run against a
//!   durable session whose writes die after `k` bytes (for `k` sampled
//!   across the stream's whole write volume, hitting WAL appends, fsyncs,
//!   snapshot writes, renames and truncations alike), then the store is
//!   recovered and compared against an in-memory oracle;
//! * handcrafted damage: torn tails, CRC bit-flips (final vs mid-log),
//!   zero-length and empty stores, and read-only degradation.
//!
//! The crash invariant is `recovered == oracle[s]` for some `s` with
//! `acked <= s <= acked + 1`: every acknowledged commit survives, and at
//! most the one in-flight record at the crash may additionally have
//! reached disk (its fsync failed after the bytes landed).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rel_core::database::Delta;
use rel_core::{tuple, Database, RelError, Tuple};
use rel_engine::durability::{
    failpoint, guarded_rename, DurabilityConfig, FailpointFile, FsyncPolicy,
};
use rel_engine::{wal, EngineConfig, Session};
use std::fs::File;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Mutex;

/// The failpoint budget is process-global: tests that arm it must not
/// interleave with each other (or trip a disarmed test's I/O). Every test
/// that arms it lives in this binary and holds this lock; the library's
/// own unit tests write through `FailpointFile` and never arm it.
static FAILPOINT_LOCK: Mutex<()> = Mutex::new(());

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rel-crash-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cfg(fsync: FsyncPolicy) -> EngineConfig {
    EngineConfig::from_env().durability(DurabilityConfig {
        fsync,
        fsync_batch: 2,
        // Compact aggressively so crash points land inside snapshot
        // writes, renames, truncations and pruning — not just appends.
        compact_after_commits: 3,
        compact_after_bytes: 1 << 20,
    })
}

/// One staged operation inside a transaction.
#[derive(Clone, Copy, Debug)]
enum Op {
    Ins(&'static str, i64, i64),
    Del(&'static str, i64, i64),
}

const RELS: [&str; 3] = ["R", "S", "T"];

/// A seeded stream of transactions over a small tuple domain (so deletes
/// hit real tuples and commits cancel out now and then).
fn stream(seed: u64, txns: usize) -> Vec<Vec<Op>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..txns)
        .map(|_| {
            let ops = rng.gen_range(1..=4);
            (0..ops)
                .map(|_| {
                    let rel = RELS[rng.gen_range(0..RELS.len())];
                    let a = rng.gen_range(0..6);
                    let b = rng.gen_range(0..6);
                    if rng.gen_range(0..4) == 0 {
                        Op::Del(rel, a, b)
                    } else {
                        Op::Ins(rel, a, b)
                    }
                })
                .collect()
        })
        .collect()
}

/// Run one transaction; `Err` means the durable layer crashed mid-commit.
fn run_txn(s: &mut Session, ops: &[Op]) -> Result<(), RelError> {
    let mut txn = s.begin();
    for op in ops {
        match *op {
            Op::Ins(rel, a, b) => {
                txn.stage_insert(rel, tuple![a, b]);
            }
            Op::Del(rel, a, b) => {
                txn.stage_delete(rel, &tuple![a, b]);
            }
        }
    }
    txn.commit().map(|_| ())
}

/// Canonical content image of a database: relation -> sorted tuples,
/// dropping empty relations (delta replay never re-creates a relation
/// that ended up with no tuples, and the snapshot codec canonicalizes
/// them away — they carry no facts).
fn canon(db: &Database) -> Vec<(String, Vec<Tuple>)> {
    db.iter()
        .filter(|(_, r)| !r.is_empty())
        .map(|(n, r)| (n.to_string(), r.iter().cloned().collect()))
        .collect()
}

/// Oracle: the canonical image after each commit count `0..=txns.len()`,
/// computed on a plain in-memory session.
fn oracle_states(txns: &[Vec<Op>]) -> Vec<Vec<(String, Vec<Tuple>)>> {
    let mut s = Session::new(Database::new());
    let mut states = vec![canon(s.db())];
    for ops in txns {
        run_txn(&mut s, ops).expect("oracle commits cannot fail");
        states.push(canon(s.db()));
    }
    states
}

/// Total bytes the durable layer writes for this stream (WAL + snapshots),
/// measured by arming an effectively unlimited budget and reading back
/// what remains.
fn write_volume(txns: &[Vec<Op>], cfg: EngineConfig, dir: &PathBuf) -> u64 {
    const HUGE: u64 = 1 << 40;
    failpoint::arm(HUGE);
    let mut s = Session::open_with(dir, cfg).expect("clean open");
    assert!(s.is_durable(), "durability must be enabled for the crash suite");
    for ops in txns {
        run_txn(&mut s, ops).expect("unlimited budget cannot crash");
    }
    drop(s);
    let spent = HUGE - failpoint::remaining().expect("armed");
    failpoint::disarm();
    spent
}

/// The randomized heart of the suite: for every sampled kill-point `k`,
/// replay the stream with the durable layer dying after `k` bytes, then
/// recover and hold the result to the prefix invariant.
fn crash_points_recover_prefix(seed: u64, fsync: FsyncPolicy) {
    let _guard = FAILPOINT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = cfg(fsync);
    let txns = stream(seed, 12);
    let oracle = oracle_states(&txns);

    let volume_dir = temp_dir(&format!("vol-{seed}-{fsync:?}"));
    let volume = write_volume(&txns, cfg, &volume_dir);
    let _ = std::fs::remove_dir_all(&volume_dir);
    assert!(volume > 0, "the stream must write something");

    let mut rng = StdRng::seed_from_u64(seed ^ 0xDEAD_BEEF);
    let mut kill_points: Vec<u64> = (0..20).map(|_| rng.gen_range(0..volume)).collect();
    // Pin the boundaries too: die on the very first byte / survive all.
    kill_points.push(0);
    kill_points.push(volume);

    for (i, k) in kill_points.into_iter().enumerate() {
        let dir = temp_dir(&format!("kill-{seed}-{fsync:?}-{i}"));
        failpoint::arm(k);
        let mut acked = 0usize;
        let crashed = (|| {
            let mut s = match Session::open_with(&dir, cfg) {
                Ok(s) => s,
                Err(_) => return true,
            };
            if !s.is_durable() {
                // Budget 0 can already kill the open; the store is empty.
                return true;
            }
            for ops in &txns {
                match run_txn(&mut s, ops) {
                    Ok(()) => acked += 1,
                    Err(_) => return true,
                }
            }
            false
        })();
        failpoint::disarm();
        assert!(
            crashed || acked == txns.len(),
            "kill after {k} bytes: stream neither crashed nor finished"
        );

        // Recovery (failpoint disarmed = the next process).
        let s = Session::open_with(&dir, cfg)
            .unwrap_or_else(|e| panic!("kill after {k} bytes: recovery failed: {e}"));
        let got = canon(s.db());
        let lo = &oracle[acked];
        let hi = oracle.get(acked + 1);
        assert!(
            got == *lo || hi == Some(&got),
            "kill after {k} bytes ({fsync:?}): recovered state is not the \
             {acked}-or-{}-commit prefix.\n got: {got:?}\n oracle[{acked}]: {lo:?}",
            acked + 1,
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn random_crash_points_fsync_off() {
    crash_points_recover_prefix(11, FsyncPolicy::Off);
}

#[test]
fn random_crash_points_fsync_batch() {
    crash_points_recover_prefix(22, FsyncPolicy::Batch);
}

#[test]
fn random_crash_points_fsync_always() {
    crash_points_recover_prefix(33, FsyncPolicy::Always);
}

#[test]
fn crashed_session_stops_accepting_commits() {
    // Once the durable layer dies, later commits on the same session must
    // keep failing (never silently ack into a broken log).
    let _guard = FAILPOINT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = temp_dir("dead-session");
    let cfg = cfg(FsyncPolicy::Off);
    let mut s = Session::open_with(&dir, cfg).unwrap();
    run_txn(&mut s, &[Op::Ins("R", 1, 1)]).unwrap();
    failpoint::arm(4); // enough for a partial record only
    let err = run_txn(&mut s, &[Op::Ins("R", 2, 2)]).unwrap_err();
    assert!(matches!(err, RelError::Io(_)), "{err}");
    assert!(run_txn(&mut s, &[Op::Ins("R", 3, 3)]).is_err(), "poisoned writer must refuse");
    failpoint::disarm();
    drop(s);
    // Only the pre-crash commit survives; the torn record is truncated.
    let s = Session::open_with(&dir, cfg).unwrap();
    assert_eq!(canon(s.db()), vec![("R".to_string(), vec![tuple![1, 1]])]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_tail_recovers_prefix_and_reopens_for_append() {
    // Durable I/O must not meet a failpoint another test armed.
    let _guard = FAILPOINT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = temp_dir("torn");
    let cfg = cfg(FsyncPolicy::Off);
    let mut s = Session::open_with(&dir, cfg).unwrap();
    for n in 0..2 {
        run_txn(&mut s, &[Op::Ins("R", n, n)]).unwrap();
    }
    drop(s);
    // A torn half-record at the tail (as a crash mid-append leaves it).
    let wal_path = dir.join(wal::WAL_FILE);
    let good = std::fs::read(&wal_path).unwrap();
    let mut bytes = good.clone();
    bytes.extend_from_slice(&wal::encode_record(3, &Delta::default())[..7]);
    std::fs::write(&wal_path, &bytes).unwrap();
    let mut s = Session::open_with(&dir, cfg).unwrap();
    assert_eq!(s.db().get("R").unwrap().len(), 2, "prefix recovered past the torn tail");
    // The reopened writer truncated the tail; the next commit appends at
    // the record boundary and a clean reopen sees all three commits.
    run_txn(&mut s, &[Op::Ins("R", 5, 5)]).unwrap();
    drop(s);
    let s = Session::open_with(&dir, cfg).unwrap();
    assert_eq!(s.db().get("R").unwrap().len(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_flip_in_final_record_is_clean_crash_point() {
    // Durable I/O must not meet a failpoint another test armed.
    let _guard = FAILPOINT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = temp_dir("flip-final");
    let cfg = cfg(FsyncPolicy::Off);
    let mut s = Session::open_with(&dir, cfg).unwrap();
    run_txn(&mut s, &[Op::Ins("R", 1, 1)]).unwrap();
    run_txn(&mut s, &[Op::Ins("R", 2, 2)]).unwrap();
    drop(s);
    let wal_path = dir.join(wal::WAL_FILE);
    let mut bytes = std::fs::read(&wal_path).unwrap();
    let last = bytes.len() - 3;
    bytes[last] ^= 0x10;
    std::fs::write(&wal_path, &bytes).unwrap();
    let s = Session::open_with(&dir, cfg).unwrap();
    assert_eq!(
        canon(s.db()),
        vec![("R".to_string(), vec![tuple![1, 1]])],
        "the damaged final record is dropped, the prefix survives"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_flip_mid_log_is_hard_error_with_offset() {
    // Durable I/O must not meet a failpoint another test armed.
    let _guard = FAILPOINT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = temp_dir("flip-mid");
    // No compaction: all three records must stay in the log.
    let cfg = EngineConfig::from_env()
        .durability(DurabilityConfig { fsync: FsyncPolicy::Off, ..Default::default() });
    let mut s = Session::open_with(&dir, cfg).unwrap();
    for n in 0..3 {
        run_txn(&mut s, &[Op::Ins("R", n, n)]).unwrap();
    }
    drop(s);
    let wal_path = dir.join(wal::WAL_FILE);
    let mut bytes = std::fs::read(&wal_path).unwrap();
    let mid = wal::RECORD_HEADER + 9; // first record's body; valid data after
    bytes[mid] ^= 0x10;
    std::fs::write(&wal_path, &bytes).unwrap();
    let err = Session::open_with(&dir, cfg).unwrap_err();
    match err {
        RelError::Corrupt(ref c) => {
            assert!(c.path.contains("wal.log"), "{err}");
            assert!(c.offset < bytes.len() as u64, "{err}");
        }
        ref other => panic!("expected hard corruption, got {other}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn empty_and_zero_length_stores_open_clean() {
    // Durable I/O must not meet a failpoint another test armed.
    let _guard = FAILPOINT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = cfg(FsyncPolicy::Off);
    // Brand-new directory.
    let dir = temp_dir("fresh");
    let s = Session::open_with(&dir, cfg).unwrap();
    assert!(s.is_durable());
    assert_eq!(s.db().total_tuples(), 0);
    drop(s);
    // Existing directory with a zero-length WAL (crash right at create).
    std::fs::write(dir.join(wal::WAL_FILE), []).unwrap();
    let mut s = Session::open_with(&dir, cfg).unwrap();
    assert!(s.is_durable());
    assert_eq!(s.db().total_tuples(), 0);
    run_txn(&mut s, &[Op::Ins("R", 1, 1)]).unwrap();
    drop(s);
    let s = Session::open_with(&dir, cfg).unwrap();
    assert_eq!(s.db().total_tuples(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unwritable_store_degrades_to_ephemeral_with_recovered_data() {
    // A store that recovers but cannot be appended to (read-only volume):
    // the session serves the recovered data ephemerally instead of
    // failing. Simulated through the failpoint gate (an exhausted budget
    // fails exactly the reopen-for-append path; recovery itself is pure
    // reads), since permission bits don't bind under root.
    let _guard = FAILPOINT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = temp_dir("readonly");
    let cfg = cfg(FsyncPolicy::Off);
    let mut s = Session::open_with(&dir, cfg).unwrap();
    run_txn(&mut s, &[Op::Ins("R", 1, 1)]).unwrap();
    drop(s);
    failpoint::arm(0);
    let mut s = Session::open_with(&dir, cfg).unwrap();
    failpoint::disarm();
    assert!(!s.is_durable(), "append-less store must degrade, not fail");
    assert_eq!(s.db().total_tuples(), 1, "recovered data is still served");
    // Commits work in memory and leave the store untouched.
    run_txn(&mut s, &[Op::Ins("R", 2, 2)]).unwrap();
    drop(s);
    let s = Session::open_with(&dir, cfg).unwrap();
    assert!(s.is_durable());
    assert_eq!(s.db().total_tuples(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failpoint_budget_cuts_writes_at_the_byte() {
    let _guard = FAILPOINT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = temp_dir("budget");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("t.bin");
    failpoint::arm(5);
    let mut f = FailpointFile::new(File::create(&path).unwrap());
    let err = f.write_all(b"0123456789").unwrap_err();
    assert!(failpoint::is_crash(&err.to_string()), "{err}");
    assert_eq!(failpoint::remaining(), Some(0));
    drop(f);
    failpoint::disarm();
    assert_eq!(std::fs::read(&path).unwrap(), b"01234");
    // Metadata ops are also gated while exhausted.
    failpoint::arm(0);
    let f = FailpointFile::new(File::create(dir.join("t2.bin")).unwrap());
    assert!(f.sync_data().is_err());
    assert!(guarded_rename(&path, &dir.join("t3.bin")).is_err());
    failpoint::disarm();
    assert!(f.sync_data().is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disarmed_is_passthrough() {
    let _guard = FAILPOINT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    failpoint::disarm();
    assert!(!failpoint::armed());
    assert_eq!(failpoint::remaining(), None);
    let dir = temp_dir("disarmed");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("t.bin");
    let mut f = FailpointFile::new(File::create(&path).unwrap());
    f.write_all(&[7u8; 1000]).unwrap();
    f.sync_data().unwrap();
    f.set_len(10).unwrap();
    drop(f);
    guarded_rename(&path, &dir.join("t2.bin")).unwrap();
    assert_eq!(std::fs::read(dir.join("t2.bin")).unwrap(), [7u8; 10]);
    let _ = std::fs::remove_dir_all(&dir);
}
