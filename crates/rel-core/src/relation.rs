//! First-order relations (*Rels₁*): sets of [`Tuple`]s.
//!
//! Rel relations are pure sets (no multiplicities, no nulls) and may contain
//! tuples of *different arities* (Addendum A: "a relation … can contain
//! tuples of different arity"). A [`Relation`] is backed by a **flat sorted
//! `Vec<Tuple>`** (ascending `Tuple` order, deduplicated), so iteration —
//! and therefore all query output — is deterministic and exactly matches
//! the `BTreeSet` order of earlier revisions, while merges, bulk builds,
//! and scans run over contiguous memory instead of tree nodes.
//!
//! Boolean encoding (§4.3): `true` is `{⟨⟩}` and `false` is `{}`.
//!
//! # Physical layout
//!
//! The sorted row vector is the *canonical* representation: equality,
//! fingerprints, iteration order, and the codec byte format are all
//! defined over it. Alongside it, storage lazily caches a **typed columnar
//! projection** ([`crate::columnar::Columnar`]) for uniform-arity
//! relations: per-column `Vec<i64>` / `Vec<OrdF64>` / `Vec<EntityId>` /
//! dictionary-encoded strings, with per-column fallback to boxed values
//! for mixed columns (see the `columnar` module docs for the layout,
//! fallback rules, and the interner ordering guarantee). Set operations
//! between two relations whose projections are already cached merge-walk
//! raw primitives instead of boxed `Value`s; the row walk remains for
//! every other operand (mixed-arity, nullary and empty relations, and
//! relations nothing has projected yet), and both produce identical
//! bytes.
//!
//! # Copy-on-write invariants
//!
//! Storage is shared behind an [`Arc`], so **cloning a relation is O(1)**:
//! the fixpoint engine installs Δ overlays, snapshots iterates, and seeds
//! its relation map from the database with pointer bumps instead of deep
//! copies. The invariants every mutating method maintains:
//!
//! 1. Mutation goes through `Relation::make_mut`, which `Arc::make_mut`s
//!    the storage (copying it only when shared) and stamps a **fresh
//!    generation** from a global counter. Generations are never reused, so
//!    `a.generation() == b.generation()` implies `a` and `b` hold the same
//!    tuple set — the engine's index cache keys on it for invalidation.
//! 2. A mutation that turns out to be a no-op (inserting a duplicate,
//!    retaining everything) restores the previous generation: equal content
//!    keeps its generation so caches stay warm.
//! 3. Equality and iteration are content-based; generation and sharing are
//!    invisible to semantics. [`Relation::shares_storage`] exposes sharing
//!    for tests and diagnostics only.
//! 4. The per-storage fingerprint (a commutative XOR of tuple hashes,
//!    computed lazily and cached) and the columnar projection are cleared
//!    whenever storage is rewritten; both are pure functions of the tuple
//!    set.

use crate::columnar::Columnar;
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Monotone source of relation generations. Generation 0 is reserved for
/// the shared empty relation.
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(1);

fn fresh_generation() -> u64 {
    NEXT_GENERATION.fetch_add(1, Ordering::Relaxed)
}

/// Shared storage: the sorted, deduplicated tuple vector plus two lazily
/// computed derived views — the content fingerprint (order-independent
/// XOR of per-tuple hashes) and the typed columnar projection.
#[derive(Debug, Default)]
struct Storage {
    tuples: Vec<Tuple>,
    fingerprint: OnceLock<u64>,
    columnar: OnceLock<Option<Arc<Columnar>>>,
}

impl Storage {
    fn new(tuples: Vec<Tuple>) -> Self {
        debug_assert!(tuples.windows(2).all(|w| w[0] < w[1]), "rows must be sorted + distinct");
        Storage { tuples, fingerprint: OnceLock::new(), columnar: OnceLock::new() }
    }
}

impl Clone for Storage {
    fn clone(&self) -> Self {
        // Cloned for mutation (`Arc::make_mut`): drop the derived views,
        // the copy is about to change.
        Storage {
            tuples: self.tuples.clone(),
            fingerprint: OnceLock::new(),
            columnar: OnceLock::new(),
        }
    }
}

/// A set of first-order tuples with O(1) copy-on-write cloning.
#[derive(Clone, Debug)]
pub struct Relation {
    storage: Arc<Storage>,
    generation: u64,
}

impl Default for Relation {
    fn default() -> Self {
        static EMPTY: OnceLock<Arc<Storage>> = OnceLock::new();
        Relation {
            storage: Arc::clone(EMPTY.get_or_init(|| Arc::new(Storage::default()))),
            generation: 0,
        }
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        if Arc::ptr_eq(&self.storage, &other.storage) || self.generation == other.generation {
            return true;
        }
        if self.len() != other.len() {
            return false;
        }
        if let (Some(a), Some(b)) =
            (self.storage.fingerprint.get(), other.storage.fingerprint.get())
        {
            if a != b {
                return false;
            }
        }
        self.storage.tuples == other.storage.tuples
    }
}

impl Eq for Relation {}

impl Relation {
    /// The empty relation `{}` — the encoding of `false`.
    pub fn new() -> Self {
        Relation::default()
    }

    /// The empty relation `{}` (alias of [`Relation::new`]).
    pub fn false_rel() -> Self {
        Relation::new()
    }

    /// The relation `{⟨⟩}` containing just the empty tuple — `true`.
    pub fn true_rel() -> Self {
        let mut r = Relation::new();
        r.insert(Tuple::empty());
        r
    }

    /// Build from an iterator of tuples.
    pub fn from_tuples(tuples: impl IntoIterator<Item = Tuple>) -> Self {
        let mut rows: Vec<Tuple> = tuples.into_iter().collect();
        rows.sort_unstable();
        rows.dedup();
        Relation::from_sorted(rows)
    }

    /// Build a unary relation from values.
    pub fn from_values(values: impl IntoIterator<Item = Value>) -> Self {
        Relation::from_tuples(values.into_iter().map(|v| Tuple::from(vec![v])))
    }

    /// A relation holding a single tuple.
    pub fn singleton(t: Tuple) -> Self {
        Relation::from_tuples([t])
    }

    /// Adopt an already sorted, duplicate-free row vector (the fast path
    /// every merge kernel lands on — no re-sort, no tree build).
    fn from_sorted(tuples: Vec<Tuple>) -> Self {
        if tuples.is_empty() {
            return Relation::default();
        }
        Relation { storage: Arc::new(Storage::new(tuples)), generation: fresh_generation() }
    }

    /// Mutable storage access: copies the rows when shared, stamps a
    /// fresh generation, and drops the derived views. Callers that detect
    /// a no-op mutation should restore the prior generation (invariant 2
    /// of the module docs).
    fn make_mut(&mut self) -> &mut Storage {
        self.generation = fresh_generation();
        let storage = Arc::make_mut(&mut self.storage);
        storage.fingerprint = OnceLock::new();
        storage.columnar = OnceLock::new();
        storage
    }

    /// The content generation: changes exactly when the tuple set does.
    /// Two relations with equal generations hold equal tuple sets (the
    /// converse does not hold). Used by the engine's index cache.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Do two relations share the same backing storage (i.e. was one
    /// cloned from the other with no intervening mutation)? Test/diagnostic
    /// introspection of the copy-on-write representation.
    pub fn shares_storage(&self, other: &Relation) -> bool {
        Arc::ptr_eq(&self.storage, &other.storage)
    }

    /// Order-independent content fingerprint (XOR of per-tuple hashes),
    /// computed lazily and cached on the shared storage. Equal relations
    /// have equal fingerprints; the converse can fail (hash collision), so
    /// callers use it only as an inequality fast path.
    pub fn fingerprint(&self) -> u64 {
        *self.storage.fingerprint.get_or_init(|| {
            let mut acc = 0u64;
            for t in &self.storage.tuples {
                let mut h = std::collections::hash_map::DefaultHasher::new();
                t.hash(&mut h);
                acc ^= h.finish();
            }
            acc
        })
    }

    /// The typed columnar projection of this relation, built lazily and
    /// cached on the shared storage. `None` when the relation is empty /
    /// of mixed arity, or all tuples are nullary (see [`crate::columnar`]
    /// for the rules).
    pub fn columnar(&self) -> Option<&Arc<Columnar>> {
        self.storage
            .columnar
            .get_or_init(|| Columnar::build(&self.storage.tuples).map(Arc::new))
            .as_ref()
    }

    /// The cached columnar projection if one was already built for this
    /// storage — never triggers a build. The merge kernels go through
    /// this so a one-shot `union`/`minus` doesn't charge a full
    /// projection build to inputs that never needed one (the build costs
    /// more than the boxed-row walk it would replace); consumers that
    /// genuinely want columns (the engine's sorted tries) call
    /// [`Relation::columnar`] and pay for the build once per relation
    /// state.
    fn peek_columnar(&self) -> Option<&Arc<Columnar>> {
        self.storage.columnar.get()?.as_ref()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.storage.tuples.len()
    }

    /// Is the relation empty (i.e. `false`)?
    pub fn is_empty(&self) -> bool {
        self.storage.tuples.is_empty()
    }

    /// Is this the `true` relation `{⟨⟩}` (or does it at least contain `⟨⟩`)?
    pub fn is_true(&self) -> bool {
        // The empty tuple is the minimum of the tuple order.
        self.storage.tuples.first().is_some_and(|t| t.is_empty())
    }

    /// Insert a tuple; returns `true` if it was new (set semantics).
    pub fn insert(&mut self, t: Tuple) -> bool {
        match self.storage.tuples.binary_search(&t) {
            Ok(_) => false,
            Err(idx) => {
                self.make_mut().tuples.insert(idx, t);
                true
            }
        }
    }

    /// Remove a tuple; returns `true` if it was present.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        match self.storage.tuples.binary_search(t) {
            Err(_) => false,
            Ok(idx) => {
                self.make_mut().tuples.remove(idx);
                if self.is_empty() {
                    *self = Relation::new();
                }
                true
            }
        }
    }

    /// Membership test (full application `R(a, …)`).
    pub fn contains(&self, t: &Tuple) -> bool {
        self.storage.tuples.binary_search(t).is_ok()
    }

    /// Iterate tuples in sorted order.
    pub fn iter(&self) -> std::slice::Iter<'_, Tuple> {
        self.storage.tuples.iter()
    }

    /// The sorted rows as a contiguous slice — the canonical layout.
    /// Index-aligned with [`Relation::columnar`] when that projection
    /// exists; the engine's permuted sorted views store positions into
    /// this slice instead of cloned tuples.
    pub fn as_slice(&self) -> &[Tuple] {
        &self.storage.tuples
    }

    /// Convert every row to a host type via [`crate::convert::FromRow`],
    /// in sorted tuple
    /// order (see [`crate::convert`]):
    ///
    /// ```
    /// # use rel_core::{tuple, Relation};
    /// let out = Relation::from_tuples([tuple!["P4", 40]]);
    /// let rows: Vec<(String, i64)> = out.rows().unwrap();
    /// assert_eq!(rows, vec![("P4".to_string(), 40)]);
    /// ```
    pub fn rows<T: crate::convert::FromRow>(&self) -> crate::RelResult<Vec<T>> {
        self.iter().map(T::from_row).collect()
    }

    /// Convert the single row of a singleton relation (e.g. an aggregate
    /// result); a [`crate::RelError::Type`] if the relation does not hold
    /// exactly one tuple.
    pub fn single<T: crate::convert::FromRow>(&self) -> crate::RelResult<T> {
        match self.single_opt()? {
            Some(v) => Ok(v),
            None => Err(crate::RelError::type_err(
                "expected exactly one row, relation is empty",
            )),
        }
    }

    /// Like [`Relation::single`], but an empty relation reads as `None`
    /// (the relational encoding of a missing value).
    pub fn single_opt<T: crate::convert::FromRow>(&self) -> crate::RelResult<Option<T>> {
        let mut it = self.iter();
        let Some(first) = it.next() else { return Ok(None) };
        if it.next().is_some() {
            return Err(crate::RelError::type_err(format!(
                "expected at most one row, relation has {}",
                self.len()
            )));
        }
        T::from_row(first).map(Some)
    }

    /// The set of distinct arities present.
    pub fn arities(&self) -> BTreeSet<usize> {
        self.iter().map(|t| t.arity()).collect()
    }

    /// If all tuples share one arity, return it; an empty relation reports
    /// `Some(0)`? No — it reports `None` (no tuples, no arity evidence).
    pub fn uniform_arity(&self) -> Option<usize> {
        let mut it = self.iter();
        let first = it.next()?.arity();
        it.all(|t| t.arity() == first).then_some(first)
    }

    /// Partial application `R[prefix…]` (§4.3): all suffixes of tuples that
    /// start with `prefix`. `R["O1"]` over `OrderProductQuantity` yields
    /// `{⟨"P1",2⟩, ⟨"P2",1⟩}`.
    pub fn partial_apply(&self, prefix: &[Value]) -> Relation {
        // Tuples starting with `prefix` form one contiguous run of the
        // sorted rows (any tuple ordered between two prefix-matching
        // tuples shares the prefix), so a binary search for the run start
        // plus an early-exit scan covers it in O(log n + matches). Their
        // suffixes inherit the sorted order, so no re-sort is needed.
        let start = self
            .storage
            .tuples
            .partition_point(|t| t.values() < prefix);
        let mut out = Vec::new();
        for t in &self.storage.tuples[start..] {
            if !t.starts_with(prefix) {
                break;
            }
            out.push(t.suffix(prefix.len()));
        }
        Relation::from_sorted(out)
    }

    /// Set union (the `{A; B}` / `or` operator): O(1) when either side is
    /// empty or a subset relationship is discovered, merge-walk over both
    /// sorted row vectors otherwise — raw typed columns when both sides
    /// carry a columnar projection, boxed rows as fallback.
    pub fn union(&self, other: &Relation) -> Relation {
        if self.shares_storage(other) || other.is_empty() {
            return self.clone();
        }
        if self.is_empty() {
            return other.clone();
        }
        let merged = match merge_columnar(self, other, true, true) {
            Some(rows) => rows,
            None => MergeWalk::new(self.iter(), other.iter())
                .map(|side| match side {
                    Side::Left(t) | Side::Right(t) | Side::Both(t) => t.clone(),
                })
                .collect(),
        };
        // Subset outcomes adopt the superset's storage (and generation),
        // keeping downstream caches warm.
        if merged.len() == self.len() {
            return self.clone();
        }
        if merged.len() == other.len() {
            return other.clone();
        }
        Relation::from_sorted(merged)
    }

    /// Set intersection (`and` on formulas, `Select` on conditions):
    /// merge-walk over both sorted row vectors (typed columns when
    /// available).
    pub fn intersect(&self, other: &Relation) -> Relation {
        if self.shares_storage(other) {
            return self.clone();
        }
        if self.is_empty() || other.is_empty() {
            return Relation::new();
        }
        let merged = match merge_columnar(self, other, false, false) {
            Some(rows) => rows,
            None => MergeWalk::new(self.iter(), other.iter())
                .filter_map(|side| match side {
                    Side::Both(t) => Some(t.clone()),
                    _ => None,
                })
                .collect(),
        };
        if merged.len() == self.len() {
            return self.clone();
        }
        if merged.len() == other.len() {
            return other.clone();
        }
        Relation::from_sorted(merged)
    }

    /// Set difference (`Minus`): merge-walk over both sorted row vectors
    /// (typed columns when available), O(1) when the subtrahend is empty
    /// or disjoint.
    pub fn minus(&self, other: &Relation) -> Relation {
        if self.shares_storage(other) {
            return Relation::new();
        }
        if other.is_empty() || self.is_empty() {
            return self.clone();
        }
        let merged = match merge_columnar(self, other, true, false) {
            Some(rows) => rows,
            None => MergeWalk::new(self.iter(), other.iter())
                .filter_map(|side| match side {
                    Side::Left(t) => Some(t.clone()),
                    _ => None,
                })
                .collect(),
        };
        if merged.len() == self.len() {
            // Nothing removed: keep storage and generation.
            return self.clone();
        }
        Relation::from_sorted(merged)
    }

    /// Remove, in place, every tuple of `other` that is present in
    /// `self` — the in-place companion of [`Relation::minus`] for callers
    /// that own the left side.
    pub fn minus_in_place(&mut self, other: &Relation) {
        if self.is_empty() || other.is_empty() {
            return;
        }
        if self.shares_storage(other) {
            *self = Relation::new();
            return;
        }
        if self.len() * 16 < other.len() {
            // self is tiny next to other: per-tuple binary-search probes
            // beat walking the whole subtrahend.
            self.retain(|t| !other.contains(t));
        } else {
            // One linear merge-walk; `minus` keeps storage and generation
            // when nothing is removed.
            *self = self.minus(other);
        }
    }

    /// Keep only the tuples satisfying the predicate; a no-op (everything
    /// retained) keeps storage shared and the generation stable. The
    /// predicate may be called more than once per tuple when storage is
    /// shared (a pre-scan avoids unsharing on no-ops).
    pub fn retain(&mut self, mut keep: impl FnMut(&Tuple) -> bool) {
        if self.is_empty() {
            return;
        }
        if Arc::strong_count(&self.storage) > 1 && self.iter().all(&mut keep) {
            return; // no-op: stay shared
        }
        let prev = self.generation;
        let storage = self.make_mut();
        let before = storage.tuples.len();
        storage.tuples.retain(|t| keep(t));
        if storage.tuples.len() == before {
            self.generation = prev;
        }
        if self.is_empty() {
            *self = Relation::new();
        }
    }

    /// Cartesian product `(A, B)` — pairwise tuple concatenation.
    pub fn product(&self, other: &Relation) -> Relation {
        let mut out = Vec::with_capacity(self.len() * other.len());
        for a in self.iter() {
            for b in other.iter() {
                out.push(a.concat(b));
            }
        }
        Relation::from_tuples(out)
    }

    /// Extend with tuples from an iterator.
    pub fn extend(&mut self, tuples: impl IntoIterator<Item = Tuple>) {
        let mut new: Vec<Tuple> = tuples
            .into_iter()
            .filter(|t| !self.contains(t))
            .collect();
        if new.is_empty() {
            return;
        }
        new.sort_unstable();
        new.dedup();
        let storage = self.make_mut();
        merge_append(&mut storage.tuples, new);
    }

    /// Union in place; returns the number of newly inserted tuples.
    /// O(1) when `self` is empty (adopts the other side's storage); a
    /// merge-walk rebuild when both sides are of comparable size; a
    /// backward in-place merge when `other` is small.
    pub fn absorb(&mut self, other: &Relation) -> usize {
        if other.is_empty() || self.shares_storage(other) {
            return 0;
        }
        if self.is_empty() {
            let added = other.len();
            *self = other.clone();
            return added;
        }
        let before = self.len();
        if other.len() * 4 >= self.len() {
            // Comparable sizes: one linear merge beats per-element inserts.
            let merged = self.union(other);
            let added = merged.len() - before;
            if added > 0 {
                *self = merged;
            }
            added
        } else {
            let new: Vec<Tuple> = other
                .iter()
                .filter(|t| !self.contains(t))
                .cloned()
                .collect();
            if new.is_empty() {
                return 0;
            }
            let added = new.len();
            let storage = self.make_mut();
            merge_append(&mut storage.tuples, new);
            debug_assert_eq!(self.len(), before + added);
            added
        }
    }

    /// Drain all tuples into a sorted `Vec`.
    pub fn into_tuples(self) -> Vec<Tuple> {
        match Arc::try_unwrap(self.storage) {
            Ok(storage) => storage.tuples,
            Err(shared) => shared.tuples.clone(),
        }
    }

    /// Last-column values (the "value" column of a GNF key→value relation),
    /// in relation order. Used by `reduce` (§5.2).
    pub fn last_column(&self) -> Vec<Value> {
        self.iter()
            .filter(|t| !t.is_empty())
            .map(|t| t.values()[t.arity() - 1].clone())
            .collect()
    }
}

/// Merge a sorted, distinct batch `new` (disjoint from `rows`) into the
/// sorted vector `rows`, in place, by a single backward two-pointer pass —
/// O(|rows| + |new|) moves, no re-sort.
fn merge_append(rows: &mut Vec<Tuple>, new: Vec<Tuple>) {
    debug_assert!(new.windows(2).all(|w| w[0] < w[1]));
    if new.is_empty() {
        return;
    }
    if rows.last() < new.first() {
        rows.extend(new);
        return;
    }
    let old_len = rows.len();
    let mut merged = Vec::with_capacity(old_len + new.len());
    let mut it_old = std::mem::take(rows).into_iter().peekable();
    let mut it_new = new.into_iter().peekable();
    loop {
        match (it_old.peek(), it_new.peek()) {
            (Some(a), Some(b)) => {
                if a < b {
                    merged.push(it_old.next().expect("peeked"));
                } else {
                    merged.push(it_new.next().expect("peeked"));
                }
            }
            (Some(_), None) => merged.push(it_old.next().expect("peeked")),
            (None, Some(_)) => merged.push(it_new.next().expect("peeked")),
            (None, None) => break,
        }
    }
    *rows = merged;
}

/// Columnar merge kernel behind `union`/`intersect`/`minus`: when both
/// sides *already* carry a typed projection, walk row indices comparing
/// raw typed cells ([`Columnar::cmp_rows`]) instead of boxed `Value`s.
/// `None` when either side lacks a built projection (mixed arity, empty,
/// or never columnar-scanned) — callers fall back to
/// the boxed-row merge-walk. Projections are deliberately not forced
/// here: building one is strictly more work than the row walk, so the
/// typed path only pays off when the inputs were already columnar-hot.
fn merge_columnar(
    a: &Relation,
    b: &Relation,
    keep_left: bool,
    keep_right: bool,
) -> Option<Vec<Tuple>> {
    let ca = Arc::clone(a.peek_columnar()?);
    let cb = Arc::clone(b.peek_columnar()?);
    let (ra, rb) = (a.as_slice(), b.as_slice());
    // Union (T,T) and intersect (F,F) keep matches; minus (T,F) drops them.
    let keep_both = !keep_left || keep_right;
    let mut out = Vec::with_capacity(if keep_left && keep_right {
        ra.len().max(rb.len())
    } else {
        ra.len().min(rb.len())
    });
    let (mut i, mut j) = (0usize, 0usize);
    while i < ra.len() && j < rb.len() {
        match ca.cmp_rows(i, &cb, j) {
            std::cmp::Ordering::Less => {
                if keep_left {
                    out.push(ra[i].clone());
                }
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                if keep_right {
                    out.push(rb[j].clone());
                }
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                if keep_both {
                    out.push(ra[i].clone());
                }
                i += 1;
                j += 1;
            }
        }
    }
    if keep_left {
        out.extend_from_slice(&ra[i..]);
    }
    if keep_right {
        out.extend_from_slice(&rb[j..]);
    }
    Some(out)
}

/// One step of a sorted merge-walk over two tuple iterators.
enum Side<'a> {
    Left(&'a Tuple),
    Right(&'a Tuple),
    Both(&'a Tuple),
}

/// Sorted merge of two ascending tuple streams, classifying each element
/// by which side(s) it occurs on. Drives the boxed-row fallback of
/// `union`/`intersect`/`minus` without re-traversing either side per
/// element.
struct MergeWalk<L: Iterator, R: Iterator> {
    left: std::iter::Peekable<L>,
    right: std::iter::Peekable<R>,
}

impl<'a, L, R> MergeWalk<L, R>
where
    L: Iterator<Item = &'a Tuple>,
    R: Iterator<Item = &'a Tuple>,
{
    fn new(left: L, right: R) -> Self {
        MergeWalk { left: left.peekable(), right: right.peekable() }
    }
}

impl<'a, L, R> Iterator for MergeWalk<L, R>
where
    L: Iterator<Item = &'a Tuple>,
    R: Iterator<Item = &'a Tuple>,
{
    type Item = Side<'a>;

    fn next(&mut self) -> Option<Side<'a>> {
        match (self.left.peek(), self.right.peek()) {
            (Some(l), Some(r)) => match l.cmp(r) {
                std::cmp::Ordering::Less => Some(Side::Left(self.left.next().expect("peeked"))),
                std::cmp::Ordering::Greater => {
                    Some(Side::Right(self.right.next().expect("peeked")))
                }
                std::cmp::Ordering::Equal => {
                    self.right.next();
                    Some(Side::Both(self.left.next().expect("peeked")))
                }
            },
            (Some(_), None) => Some(Side::Left(self.left.next().expect("peeked"))),
            (None, Some(_)) => Some(Side::Right(self.right.next().expect("peeked"))),
            (None, None) => None,
        }
    }
}

impl FromIterator<Tuple> for Relation {
    fn from_iter<I: IntoIterator<Item = Tuple>>(iter: I) -> Self {
        Relation::from_tuples(iter)
    }
}

impl<'a> IntoIterator for &'a Relation {
    type Item = &'a Tuple;
    type IntoIter = std::slice::Iter<'a, Tuple>;
    fn into_iter(self) -> Self::IntoIter {
        self.storage.tuples.iter()
    }
}

impl IntoIterator for Relation {
    type Item = Tuple;
    type IntoIter = std::vec::IntoIter<Tuple>;
    fn into_iter(self) -> Self::IntoIter {
        self.into_tuples().into_iter()
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn opq() -> Relation {
        // OrderProductQuantity from Figure 1.
        Relation::from_tuples([
            tuple!["O1", "P1", 2],
            tuple!["O1", "P2", 1],
            tuple!["O2", "P1", 1],
            tuple!["O3", "P3", 4],
        ])
    }

    #[test]
    fn set_semantics_dedup() {
        let mut r = Relation::new();
        assert!(r.insert(tuple![1, 2]));
        assert!(!r.insert(tuple![1, 2]));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn true_false_encoding() {
        assert!(Relation::true_rel().is_true());
        assert!(!Relation::false_rel().is_true());
        assert!(Relation::false_rel().is_empty());
        assert_eq!(Relation::true_rel().len(), 1);
        assert_eq!(Relation::true_rel().to_string(), "{()}");
    }

    #[test]
    fn partial_apply_paper_example() {
        // OrderProductQuantity["O1"] = {("P1",2); ("P2",1)}  (§4.3)
        let r = opq().partial_apply(&[Value::str("O1")]);
        assert_eq!(
            r,
            Relation::from_tuples([tuple!["P1", 2], tuple!["P2", 1]])
        );
    }

    #[test]
    fn partial_apply_full_is_boolean() {
        let r = opq().partial_apply(&[Value::str("O1"), Value::str("P1"), Value::int(2)]);
        assert!(r.is_true());
        let r = opq().partial_apply(&[Value::str("O1"), Value::str("P1"), Value::int(3)]);
        assert!(r.is_empty());
    }

    #[test]
    fn product_concats() {
        let r = Relation::from_tuples([tuple![1, 2], tuple![3, 4]]);
        let s = Relation::from_tuples([tuple![5, 6]]);
        let p = r.product(&s);
        assert_eq!(
            p,
            Relation::from_tuples([tuple![1, 2, 5, 6], tuple![3, 4, 5, 6]])
        );
    }

    #[test]
    fn product_with_true_is_identity() {
        let r = opq();
        assert_eq!(r.product(&Relation::true_rel()), r);
        assert_eq!(Relation::true_rel().product(&r), r);
        assert!(r.product(&Relation::false_rel()).is_empty());
    }

    #[test]
    fn union_minus_intersect() {
        let a = Relation::from_tuples([tuple![1], tuple![2]]);
        let b = Relation::from_tuples([tuple![2], tuple![3]]);
        assert_eq!(a.union(&b).len(), 3);
        assert_eq!(a.intersect(&b).len(), 1);
        assert_eq!(a.minus(&b), Relation::from_tuples([tuple![1]]));
    }

    #[test]
    fn mixed_arity_allowed() {
        let mut r = Relation::new();
        r.insert(tuple![1]);
        r.insert(tuple![1, 2]);
        r.insert(Tuple::empty());
        assert_eq!(r.len(), 3);
        assert_eq!(r.arities().into_iter().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(r.uniform_arity(), None);
        assert!(r.columnar().is_none(), "mixed arity has no columnar projection");
    }

    #[test]
    fn uniform_arity() {
        assert_eq!(opq().uniform_arity(), Some(3));
        assert_eq!(Relation::new().uniform_arity(), None);
    }

    #[test]
    fn last_column() {
        let vals = opq().last_column();
        assert_eq!(vals.len(), 4);
        assert!(vals.iter().all(|v| v.is_int()));
    }

    #[test]
    fn deterministic_order() {
        let r1 = Relation::from_tuples([tuple![2], tuple![1], tuple![3]]);
        let r2 = Relation::from_tuples([tuple![3], tuple![2], tuple![1]]);
        let v1: Vec<_> = r1.iter().cloned().collect();
        let v2: Vec<_> = r2.iter().cloned().collect();
        assert_eq!(v1, v2);
    }

    // --- copy-on-write behavior ------------------------------------------

    #[test]
    fn clone_is_shared_until_mutation() {
        let a = opq();
        let b = a.clone();
        assert!(a.shares_storage(&b));
        assert_eq!(a.generation(), b.generation());
        let mut c = b.clone();
        c.insert(tuple!["O9", "P9", 9]);
        assert!(!a.shares_storage(&c));
        assert_ne!(a.generation(), c.generation());
        // The original is untouched.
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn noop_mutations_keep_generation() {
        let mut r = opq();
        let before = r.generation();
        let shared = r.clone();
        assert!(!r.insert(tuple!["O1", "P1", 2])); // duplicate
        assert!(!r.remove(&tuple!["nope", "nope", 0]));
        assert_eq!(r.absorb(&opq()), 0); // subset absorb
        r.retain(|_| true);
        r.extend(std::iter::empty());
        r.minus_in_place(&Relation::from_tuples([tuple!["zz", "zz", 0]]));
        assert_eq!(r.generation(), before);
        assert!(r.shares_storage(&shared), "no-ops must not unshare");
    }

    #[test]
    fn empty_relations_share_the_static_storage() {
        let a = Relation::new();
        let b = Relation::false_rel();
        assert!(a.shares_storage(&b));
        assert_eq!(a.generation(), 0);
    }

    #[test]
    fn absorb_into_empty_is_adoption() {
        let mut a = Relation::new();
        let b = opq();
        assert_eq!(a.absorb(&b), 4);
        assert!(a.shares_storage(&b));
    }

    #[test]
    fn minus_in_place_matches_minus() {
        let a = Relation::from_tuples([tuple![1], tuple![2], tuple![3], tuple![4]]);
        let b = Relation::from_tuples([tuple![2], tuple![4], tuple![9]]);
        let expected = a.minus(&b);
        let mut c = a.clone();
        c.minus_in_place(&b);
        assert_eq!(c, expected);
        // Self-difference empties.
        let mut d = a.clone();
        d.minus_in_place(&a.clone());
        assert!(d.is_empty());
    }

    #[test]
    fn retain_filters_and_restores_empty_storage() {
        let mut r = opq();
        r.retain(|t| t.values()[0] == Value::str("O1"));
        assert_eq!(r.len(), 2);
        r.retain(|_| false);
        assert!(r.is_empty());
        assert!(r.shares_storage(&Relation::new()), "emptied → shared empty");
    }

    #[test]
    fn fingerprint_is_content_based() {
        let a = Relation::from_tuples([tuple![1], tuple![2]]);
        let mut b = Relation::new();
        b.insert(tuple![2]);
        b.insert(tuple![1]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.insert(tuple![3]);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn generation_equality_implies_content_equality() {
        let a = opq();
        let b = a.clone();
        assert_eq!(a.generation(), b.generation());
        assert_eq!(a, b);
        let mut c = a.clone();
        c.insert(tuple!["O4", "P4", 4]);
        c.remove(&tuple!["O4", "P4", 4]);
        // Same content again, but a fresh generation: eq still holds.
        assert_ne!(a.generation(), c.generation());
        assert_eq!(a, c);
    }

    #[test]
    fn union_adopts_empty_sides() {
        let a = opq();
        let e = Relation::new();
        assert!(a.union(&e).shares_storage(&a));
        assert!(e.union(&a).shares_storage(&a));
        assert!(a.minus(&e).shares_storage(&a));
    }

    #[test]
    fn union_adopts_subset_sides() {
        let a = opq();
        let sub = Relation::from_tuples([tuple!["O1", "P1", 2]]);
        assert!(a.union(&sub).shares_storage(&a));
        assert!(sub.union(&a).shares_storage(&a));
        assert!(a.minus(&Relation::from_tuples([tuple!["zz", "zz", 0]])).shares_storage(&a));
    }

    // --- columnar projection ---------------------------------------------

    #[test]
    fn columnar_projection_matches_rows() {
        let r = opq();
        let c = r.columnar().expect("a uniform-arity relation projects");
        assert_eq!(c.len(), r.len());
        assert_eq!(c.arity(), 3);
        for (i, t) in r.iter().enumerate() {
            for (col, v) in t.values().iter().enumerate() {
                assert_eq!(&c.cols()[col].value(i), v);
            }
        }
    }

    #[test]
    fn columnar_is_dropped_on_mutation() {
        let mut r = opq();
        let _ = r.columnar();
        r.insert(tuple!["O9", "P9", 9]);
        let c = r.columnar().expect("a uniform-arity relation projects");
        assert_eq!(c.len(), 5, "projection must track the mutated rows");
    }

    #[test]
    fn set_ops_agree_across_layouts() {
        // Operands with no cached projection take the row merge-walk;
        // the same contents after `.columnar()` take the typed one.
        let rows = || {
            let a = Relation::from_tuples((0..50).map(|i| tuple![i, i % 7])); // Int columns
            let b = Relation::from_tuples((25..75).map(|i| tuple![i, i % 7]));
            (a, b)
        };
        let (a, b) = rows();
        let (u1, i1, m1) = (a.union(&b), a.intersect(&b), a.minus(&b));
        assert!(a.peek_columnar().is_none() && b.peek_columnar().is_none());
        let (a, b) = rows();
        assert!(a.columnar().is_some() && b.columnar().is_some());
        let (u2, i2, m2) = (a.union(&b), a.intersect(&b), a.minus(&b));
        assert_eq!(u1, u2);
        assert_eq!(i1, i2);
        assert_eq!(m1, m2);
        assert_eq!(u1.len(), 75);
    }
}
