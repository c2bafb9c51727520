//! A bounded pool of read-only session replicas over the latest
//! committed snapshot.
//!
//! The commit worker is the only writer; after each commit group it
//! [`SessionPool::publish`]es the new state, which invalidates every
//! idle replica. Readers borrow a replica with [`SessionPool::with`]:
//! an idle one from the current generation if available, a fresh
//! `Session::clone()` of the template otherwise (O(1) — CoW database
//! handles plus shared `Arc` caches), and they *wait* once `capacity`
//! replicas are simultaneously out — the pool doubles as read-side
//! admission control, bounding concurrent evaluation fan-out no matter
//! how many connections are open.
//!
//! Replicas share the template's module and fixpoint caches, so a query
//! shape compiled on any replica (or by the commit worker) is warm on
//! all of them — and they start from the library state the commit
//! derived with the snapshot, so a read never maintains the library. This is the convenience-layer pooling idiom of
//! dbuenzli/rel's `Rel_pool`, adapted to CoW snapshots: checkout,
//! generation check, checkin.

use rel_engine::Session;
use std::sync::{Condvar, Mutex, PoisonError};

/// Shared pool of ephemeral read replicas (see module docs).
#[derive(Debug)]
pub struct SessionPool {
    capacity: usize,
    inner: Mutex<Inner>,
    freed: Condvar,
}

#[derive(Debug)]
struct Inner {
    /// Clone source for new replicas: an ephemeral image of the latest
    /// published state.
    template: Session,
    /// Bumped by every publish; replicas from older generations are
    /// discarded at checkin instead of being reused.
    generation: u64,
    /// Idle replicas of the current generation.
    idle: Vec<Session>,
    /// Replicas currently checked out.
    outstanding: usize,
}

impl SessionPool {
    /// A pool serving snapshots of `session`, with at most `capacity`
    /// replicas checked out at once.
    pub fn new(session: &Session, capacity: usize) -> Self {
        SessionPool {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                template: session.clone(),
                generation: 0,
                idle: Vec::new(),
                outstanding: 0,
            }),
            freed: Condvar::new(),
        }
    }

    /// Replace the pooled snapshot with `session`'s current state.
    /// Replicas already checked out keep serving the old snapshot until
    /// returned (reads are never torn), but no new checkout sees it.
    pub fn publish(&self, session: &Session) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.template = session.clone();
        inner.generation += 1;
        inner.idle.clear();
    }

    /// Run `f` over a read replica of the newest published snapshot,
    /// blocking while `capacity` replicas are already out.
    pub fn with<T>(&self, f: impl FnOnce(&Session) -> T) -> T {
        let (generation, session) = self.checkout();
        // Return the replica even if `f` panics (a poisoned test must
        // not deadlock the remaining readers).
        struct Checkin<'p> {
            pool: &'p SessionPool,
            generation: u64,
            session: Option<Session>,
        }
        impl Drop for Checkin<'_> {
            fn drop(&mut self) {
                self.pool.checkin(self.generation, self.session.take());
            }
        }
        let guard = Checkin { pool: self, generation, session: Some(session) };
        f(guard.session.as_ref().expect("replica present until drop"))
    }

    /// How many replicas may be out at once.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many times [`SessionPool::publish`] has replaced the pooled
    /// snapshot (the `Stats` surface reports this).
    pub fn generation(&self) -> u64 {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).generation
    }

    fn checkout(&self) -> (u64, Session) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(s) = inner.idle.pop() {
                inner.outstanding += 1;
                return (inner.generation, s);
            }
            if inner.outstanding < self.capacity {
                inner.outstanding += 1;
                return (inner.generation, inner.template.clone());
            }
            inner = self.freed.wait(inner).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn checkin(&self, generation: u64, session: Option<Session>) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.outstanding -= 1;
        if let Some(s) = session {
            if generation == inner.generation {
                inner.idle.push(s);
            }
        }
        drop(inner);
        self.freed.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rel_core::Database;

    #[test]
    fn replicas_see_published_state_and_stale_ones_are_dropped() {
        let mut s = Session::new(Database::new());
        s.transact("def insert(:R, x) : x = 1").unwrap();
        let pool = SessionPool::new(&s, 2);
        assert_eq!(pool.with(|r| r.db().get("R").map(|rel| rel.len())), Some(1));
        s.transact("def insert(:R, x) : x = 2").unwrap();
        pool.publish(&s);
        assert_eq!(pool.with(|r| r.db().get("R").map(|rel| rel.len())), Some(2));
        // The idle replica left from before the publish must not be
        // handed out again.
        assert_eq!(pool.with(|r| r.db().get("R").map(|rel| rel.len())), Some(2));
    }

    #[test]
    fn capacity_blocks_and_unblocks() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let pool = Arc::new(SessionPool::new(&Session::new(Database::new()), 2));
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let (pool, running, peak) = (pool.clone(), running.clone(), peak.clone());
            handles.push(std::thread::spawn(move || {
                pool.with(|_| {
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    running.fetch_sub(1, Ordering::SeqCst);
                });
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 2, "capacity must bound concurrency");
    }
}
