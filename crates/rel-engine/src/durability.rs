//! Durability configuration and crash-injection plumbing.
//!
//! This module holds the pieces shared by the write-ahead log
//! ([`crate::wal`]), snapshotting ([`crate::snapshot`]) and recovery
//! ([`crate::recovery`]):
//!
//! * [`FsyncPolicy`] — when the WAL is flushed to stable storage
//!   (`always` / `batch` / `off`), defaulting from the `REL_FSYNC`
//!   environment variable (resolved by [`crate::config`]);
//! * [`DurabilityConfig`] — fsync policy plus the commit-count and
//!   log-size triggers for compaction (snapshot + log truncation);
//! * [`failpoint`] / [`FailpointFile`] — the crash-injection harness the
//!   randomized crash-recovery suite drives: a process-global byte budget
//!   that makes every durable write "die" after N bytes, exactly like a
//!   process crash mid-write. Disarmed (the default) it costs one relaxed
//!   atomic load per write.
//!
//! See the crate-level docs for the consolidated `REL_*` environment
//! variable table.

use crate::recovery::Recovered;
use crate::snapshot;
use crate::wal::WalWriter;
use rel_core::database::Delta;
use rel_core::{Database, RelResult};
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};

/// When committed WAL records are `fsync`ed to stable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Every commit is followed by `fdatasync` before it is acknowledged.
    /// Survives OS/power crashes at the cost of one sync per commit.
    Always,
    /// Sync every [`DurabilityConfig::fsync_batch`] commits (and at every
    /// snapshot). A power crash can lose at most one un-synced batch of
    /// the most recent commits — a *process* crash loses nothing (the
    /// bytes are in the OS page cache). The default.
    Batch,
    /// Never sync explicitly; the OS flushes on its own schedule. Fastest;
    /// still torn-write-safe on recovery (the CRC framing holds), used by
    /// the CI durability leg and the crash-injection tests.
    Off,
}

/// Tuning knobs for a durable session. [`Default`] takes the sync policy
/// from `REL_FSYNC` and uses compaction triggers sized for a steady
/// transaction stream.
#[derive(Clone, Copy, Debug)]
pub struct DurabilityConfig {
    /// When WAL appends reach stable storage.
    pub fsync: FsyncPolicy,
    /// Under [`FsyncPolicy::Batch`]: sync after this many commits.
    pub fsync_batch: u64,
    /// Compact (write a snapshot, truncate the log) once this many
    /// commits have been appended since the last snapshot.
    pub compact_after_commits: u64,
    /// … or once the log exceeds this many bytes, whichever comes first.
    pub compact_after_bytes: u64,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            fsync: crate::config::env().fsync,
            fsync_batch: 32,
            compact_after_commits: 1024,
            compact_after_bytes: 16 << 20,
        }
    }
}

pub(crate) fn note_fsync() {
    crate::metrics::registry().fsyncs.incr();
}

/// One process-wide warning when a [`crate::Session::open`] degrades to
/// ephemeral operation (missing/read-only store directory): loud enough
/// to notice, quiet enough not to spam a session loop.
static DEGRADED_WARNED: AtomicBool = AtomicBool::new(false);

pub(crate) fn warn_degraded(msg: &str) {
    if !DEGRADED_WARNED.swap(true, Ordering::Relaxed) {
        eprintln!("rel durability warning: {msg}");
    }
}

/// The durable half of a session: the WAL writer plus the compaction
/// bookkeeping that decides when the log is folded into a snapshot.
#[derive(Debug)]
pub(crate) struct DurableStore {
    dir: PathBuf,
    cfg: DurabilityConfig,
    wal: WalWriter,
    /// Sequence number covered by the newest on-disk snapshot (0 = none).
    snapshot_seq: u64,
    /// Commits appended (or replayed at recovery) since that snapshot.
    commits_since_snapshot: u64,
}

impl DurableStore {
    /// Attach to a recovered store directory for appending: truncates any
    /// torn WAL tail and positions the writer at the next sequence number.
    pub(crate) fn attach(dir: &Path, cfg: DurabilityConfig, rec: &Recovered) -> RelResult<Self> {
        let wal = WalWriter::open(dir, rec.wal_good_len, rec.next_seq(), &cfg)?;
        Ok(DurableStore {
            dir: dir.to_path_buf(),
            cfg,
            wal,
            snapshot_seq: rec.snapshot_seq,
            commits_since_snapshot: rec.replayed as u64,
        })
    }

    /// The store directory.
    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    /// Log one committed transaction's net delta. Returns its sequence
    /// number; on `Err` nothing was acknowledged (see
    /// [`crate::wal::WalWriter::append`] for the rollback contract).
    pub(crate) fn append_commit(&mut self, delta: &Delta) -> RelResult<u64> {
        let seq = self.wal.append(delta)?;
        self.commits_since_snapshot += 1;
        Ok(seq)
    }

    /// Log one commit's delta **without** syncing — the group-commit
    /// path. The caller must close the window with
    /// [`DurableStore::flush_group`] before acknowledging any commit
    /// appended this way.
    pub(crate) fn append_commit_deferred(&mut self, delta: &Delta) -> RelResult<u64> {
        let seq = self.wal.append_deferred(delta)?;
        self.commits_since_snapshot += 1;
        Ok(seq)
    }

    /// Apply the fsync policy once over every deferred append; returns
    /// how many commits the sync covered (see
    /// [`crate::wal::WalWriter::flush_group`]).
    pub(crate) fn flush_group(&mut self) -> RelResult<u64> {
        self.wal.flush_group()
    }

    /// Has the log grown past either compaction trigger?
    pub(crate) fn should_compact(&self) -> bool {
        self.commits_since_snapshot > 0
            && (self.commits_since_snapshot >= self.cfg.compact_after_commits
                || self.wal.len() >= self.cfg.compact_after_bytes)
    }

    /// Fold the log into a snapshot of `db` (which must contain every
    /// commit appended so far) and truncate it. Ordering is crash-safe:
    /// the snapshot is atomically published *before* the truncation, and
    /// replay skips records at or below the snapshot's sequence — a crash
    /// anywhere in between recovers the same state.
    pub(crate) fn compact(&mut self, db: &Database) -> RelResult<u64> {
        let seq = self.wal.next_seq().saturating_sub(1);
        if seq > self.snapshot_seq {
            snapshot::write(&self.dir, seq, db)?;
            self.snapshot_seq = seq;
        }
        self.wal.reset()?;
        self.commits_since_snapshot = 0;
        snapshot::prune(&self.dir, self.snapshot_seq);
        crate::metrics::registry().compactions.incr();
        Ok(self.snapshot_seq)
    }

    /// Flush acknowledged commits to stable storage now.
    pub(crate) fn sync(&mut self) -> RelResult<()> {
        self.wal.sync()
    }
}

/// Crash injection: a process-global budget of bytes the durability layer
/// may still write before "crashing".
///
/// While armed, every byte written through a [`FailpointFile`] draws the
/// budget down; the write that would exceed it persists only the bytes
/// the budget covers and then fails with a [`failpoint::crash_error`] —
/// exactly the on-disk state a process killed mid-`write(2)` leaves
/// behind. Metadata operations (`fsync`, rename, truncate) fail outright
/// once the budget is exhausted, so a "crash" also cuts compaction at
/// every stage. The crash-recovery suite arms random budgets, runs a
/// transaction stream until it dies, and proves recovery lands on a clean
/// prefix of the committed history.
pub mod failpoint {
    use super::*;

    /// Budget sentinel: disarmed (production mode — no accounting).
    const DISARMED: i64 = i64::MIN;

    static BUDGET: AtomicI64 = AtomicI64::new(DISARMED);

    /// Arm the failpoint: the durability layer may write `bytes` more
    /// bytes, then every durable operation fails.
    pub fn arm(bytes: u64) {
        BUDGET.store(bytes.min(i64::MAX as u64) as i64, Ordering::SeqCst);
    }

    /// Disarm the failpoint (production mode).
    pub fn disarm() {
        BUDGET.store(DISARMED, Ordering::SeqCst);
    }

    /// Is the failpoint currently armed?
    pub fn armed() -> bool {
        BUDGET.load(Ordering::Relaxed) != DISARMED
    }

    /// Bytes left in the armed budget (`None` when disarmed). Arming with
    /// a huge budget, running a workload, and reading what remains is how
    /// the crash suite measures a workload's total durable write volume.
    pub fn remaining() -> Option<u64> {
        let cur = BUDGET.load(Ordering::SeqCst);
        (cur != DISARMED).then(|| cur.max(0) as u64)
    }

    /// The error every exhausted-budget operation reports.
    pub fn crash_error() -> io::Error {
        io::Error::other("failpoint: injected crash")
    }

    /// Was `err` produced by the failpoint (as opposed to a real I/O
    /// failure)? Matches on the rendered message, which is stable.
    pub fn is_crash(msg: &str) -> bool {
        msg.contains("failpoint: injected crash")
    }

    /// How many of `want` bytes may be written. Draws down the budget.
    pub(crate) fn take(want: usize) -> usize {
        let mut cur = BUDGET.load(Ordering::Relaxed);
        loop {
            if cur == DISARMED {
                return want;
            }
            let allowed = cur.clamp(0, want as i64);
            match BUDGET.compare_exchange_weak(
                cur,
                cur - allowed,
                Ordering::SeqCst,
                Ordering::Relaxed,
            ) {
                Ok(_) => return allowed as usize,
                Err(now) => cur = now,
            }
        }
    }

    /// Gate a metadata operation (sync, rename, truncate): fails once the
    /// budget is exhausted.
    pub(crate) fn check_op() -> io::Result<()> {
        let cur = BUDGET.load(Ordering::Relaxed);
        if cur != DISARMED && cur <= 0 {
            return Err(crash_error());
        }
        Ok(())
    }
}

/// A [`File`] wrapper that routes every write and metadata operation
/// through the [`failpoint`] budget. The durability layer does *all* its
/// file I/O through this type, so the crash-injection suite can cut the
/// process's effective write stream at any byte.
#[derive(Debug)]
pub struct FailpointFile {
    inner: File,
}

impl FailpointFile {
    /// Wrap an open file.
    pub fn new(inner: File) -> Self {
        FailpointFile { inner }
    }

    /// Flush file *data* to stable storage (`fdatasync`).
    pub fn sync_data(&self) -> io::Result<()> {
        failpoint::check_op()?;
        self.inner.sync_data()?;
        note_fsync();
        Ok(())
    }

    /// Flush file data and metadata to stable storage (`fsync`).
    pub fn sync_all(&self) -> io::Result<()> {
        failpoint::check_op()?;
        self.inner.sync_all()?;
        note_fsync();
        Ok(())
    }

    /// Truncate (or extend) the file.
    pub fn set_len(&self, len: u64) -> io::Result<()> {
        failpoint::check_op()?;
        self.inner.set_len(len)
    }
}

impl Write for FailpointFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let allowed = failpoint::take(buf.len());
        if allowed > 0 {
            self.inner.write_all(&buf[..allowed])?;
        }
        if allowed < buf.len() {
            // The prefix is on disk — like a real torn write — and the
            // caller sees the crash.
            return Err(failpoint::crash_error());
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// `std::fs::rename` through the failpoint gate.
pub fn guarded_rename(from: &Path, to: &Path) -> io::Result<()> {
    failpoint::check_op()?;
    std::fs::rename(from, to)
}

/// `std::fs::remove_file` through the failpoint gate.
pub fn guarded_remove(path: &Path) -> io::Result<()> {
    failpoint::check_op()?;
    std::fs::remove_file(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fsync_policy_default_is_batch() {
        // Cannot assert from_env here (the CI matrix sets REL_FSYNC), but
        // the config default must wire the policy through.
        let cfg = DurabilityConfig::default();
        assert!(cfg.fsync_batch > 0 && cfg.compact_after_commits > 0);
    }
}
