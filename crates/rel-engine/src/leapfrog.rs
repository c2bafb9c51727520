//! Leapfrog Triejoin — a worst-case-optimal multiway join
//! (Veldhuizen, ICDT 2014; cited by the paper in §7 as part of the
//! toolbox that makes GNF's many-joins style practical).
//!
//! Relations are viewed as lexicographically sorted tries and joined one
//! *join variable* at a time: all iterators bound to the current variable
//! "leapfrog" (mutually seek) to their next common key; on agreement the
//! join descends to the next variable.
//!
//! # Physical layouts
//!
//! A [`SortedRel`] never clones permuted tuples. It shares the source
//! relation's storage (an O(1) [`Relation`] clone) plus a sorted
//! *position* vector, and reads the cell at trie depth `d` through the
//! column permutation — the row fallback compares borrowed [`Value`]s.
//! When the relation carries a typed columnar projection
//! ([`rel_core::columnar`]) the trie additionally materializes its
//! columns *in trie order* (permuted, sorted — a cheap typed gather), so
//! every seek, gallop, and key comparison in the join runs over raw
//! primitives (`i64`, order-preserving floats, dictionary codes) via
//! [`Cell`] instead of boxed `Value` tags. Relations with no projection
//! (mixed-arity, nullary or empty ones) take the row fallback; both
//! layouts produce identical join output.
//!
//! The same sorted-trie machinery backs the *fused rule kernels*
//! ([`project_emit`], [`merge_join_emit`]): single-rule shapes the
//! evaluator recognizes whole (projection, binary merge join) and
//! executes straight over trie cells — head tuples are emitted without
//! per-row environment clones, with an all-integer fast path that sorts
//! `(i64, i64)` head keys instead of boxed tuples.
//!
//! This kernel is the engine's worst-case-optimal join substrate: the
//! general rule planner in [`crate::eval`] routes multi-atom
//! conjunctions through [`leapfrog_join`] (the paper's engine uses WCOJ
//! selectively for cyclic joins — triangles, paths-with-closure — where
//! the asymptotic separation from binary hash joins shows). The planner
//! permutes each atom's relation into the global variable order with
//! [`SortedRel::permuted`] and caches the result generation-keyed in the
//! shared index cache, so a trie is built once per relation state and
//! then shared read-only across fixpoint iterations and scheduler worker
//! threads; per-join state is only the lightweight trie-cursor stack.
//! The `REL_WCOJ` environment variable / `EngineConfig::wcoj` select the
//! routing mode (see [`crate::eval::WcojMode`]).
//!
//! The same cache also serves atoms whose bound positions are not a
//! prefix of their arguments: `eval` permutes the relation key positions
//! first and binary-searches the run of rows matching the key
//! (`SortedRel::prefix_rows`).

use rel_core::columnar::{Cell, Column};
use rel_core::{Relation, Tuple, Value};
use std::cmp::Ordering;

/// A relation viewed as a sorted trie: shared row storage, a position
/// vector sorted in permuted-column order, and (columnar mode) typed
/// columns materialized in trie order.
#[derive(Clone, Debug)]
pub struct SortedRel {
    /// Shared source rows (O(1) clone of the relation).
    rel: Relation,
    /// Sorted positions into `rel.as_slice()`; only rows whose arity
    /// matches the atom participate.
    order: Vec<u32>,
    /// `perm[d]` = source column read at trie depth `d`.
    perm: Vec<usize>,
    /// Typed columns in trie order (`cols[d][i]` = cell at depth `d` of
    /// the `i`-th sorted row); present when the source relation has a
    /// columnar projection.
    cols: Option<Vec<Column>>,
    arity: usize,
}

impl SortedRel {
    /// Build from tuples (sorted and deduplicated here). All tuples must
    /// share one arity.
    pub fn new(tuples: Vec<Tuple>) -> Self {
        let arity = tuples.first().map(Tuple::arity).unwrap_or(0);
        assert!(
            tuples.iter().all(|t| t.arity() == arity),
            "SortedRel requires uniform arity"
        );
        let rel = Relation::from_tuples(tuples);
        let perm: Vec<usize> = (0..arity).collect();
        SortedRel::permuted(&rel, &perm)
    }

    /// Build with columns permuted: trie depth `d` reads input column
    /// `perm[d]`. Used to align an atom's columns with the global
    /// variable order. Tuples whose arity differs from `perm.len()` are
    /// skipped (an atom of arity *k* only ever matches *k*-tuples;
    /// relations may hold mixed arities). No permuted tuples are
    /// materialized — the trie sorts positions and reads through the
    /// permutation (typed columns when the projection exists).
    pub fn permuted(rel: &Relation, perm: &[usize]) -> Self {
        let rows = rel.as_slice();
        let mut order: Vec<u32> = (0..rows.len() as u32)
            .filter(|&i| rows[i as usize].arity() == perm.len())
            .collect();
        let projection = if order.len() == rows.len() {
            rel.columnar().cloned()
        } else {
            None // mixed arity: no projection exists anyway
        };
        let cols = match &projection {
            Some(proj) => {
                let pcols: Vec<&Column> = perm.iter().map(|&c| &proj.cols()[c]).collect();
                order.sort_unstable_by(|&a, &b| {
                    let (a, b) = (a as usize, b as usize);
                    pcols
                        .iter()
                        .map(|col| col.cmp_rows(a, col, b))
                        .find(|o| o.is_ne())
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                order.dedup_by(|&mut a, &mut b| {
                    let (a, b) = (a as usize, b as usize);
                    pcols.iter().all(|col| col.cmp_rows(a, col, b).is_eq())
                });
                Some(perm.iter().map(|&c| proj.cols()[c].gather(&order)).collect())
            }
            None => {
                order.sort_unstable_by(|&a, &b| {
                    let (va, vb) =
                        (rows[a as usize].values(), rows[b as usize].values());
                    perm.iter()
                        .map(|&c| va[c].cmp(&vb[c]))
                        .find(|o| o.is_ne())
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                order.dedup_by(|&mut a, &mut b| {
                    let (va, vb) =
                        (rows[a as usize].values(), rows[b as usize].values());
                    perm.iter().all(|&c| va[c] == vb[c])
                });
                None
            }
        };
        let arity = if order.is_empty() { 0 } else { perm.len() };
        SortedRel { rel: rel.clone(), order, perm: perm.to_vec(), cols, arity }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Is the trie running on typed columns (vs the boxed-row fallback)?
    pub fn is_columnar(&self) -> bool {
        self.cols.is_some()
    }

    /// The source rows whose first `key.len()` trie columns equal `key`:
    /// one contiguous run of the sorted positions, narrowed depth by depth
    /// by binary search over the cells (raw primitives in columnar mode).
    /// Within the run, rows keep the source relation's order.
    pub(crate) fn prefix_rows(&self, key: &[Value]) -> impl Iterator<Item = &Tuple> + '_ {
        let (mut lo, mut hi) = (0, self.len());
        for (d, v) in key.iter().enumerate() {
            (lo, hi) = self.equal_run(d, lo, hi, Cell::of_value(v));
        }
        let rows = self.rel.as_slice();
        self.order[lo..hi].iter().map(move |&p| &rows[p as usize])
    }

    /// The positions in `lo..hi` — a run equal above depth `d`, so sorted
    /// at it — whose depth-`d` cell equals `v`.
    fn equal_run(&self, d: usize, lo: usize, hi: usize, v: Cell<'_>) -> (usize, usize) {
        if let (Some(cols), Cell::Int(k)) = (&self.cols, v) {
            if let Column::Int(col) = &cols[d] {
                // An integer key over an integer column searches the raw
                // values: the probe runs once per environment, so its
                // constant factor shows on point-lookup workloads.
                let run = &col[lo..hi];
                return (lo + run.partition_point(|&x| x < k), lo + run.partition_point(|&x| x <= k));
            }
        }
        let first = |below: fn(Ordering) -> bool| {
            let (mut lo, mut hi) = (lo, hi);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if below(self.cell(mid, d).cmp_cell(v)) {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            lo
        };
        (first(Ordering::is_lt), first(Ordering::is_le))
    }

    /// The cell at sorted position `pos`, trie depth `d` — a raw typed
    /// cell in columnar mode, a borrowed boxed value otherwise.
    #[inline]
    fn cell(&self, pos: usize, d: usize) -> Cell<'_> {
        match &self.cols {
            Some(cols) => cols[d].cell(pos),
            None => Cell::of_value(
                &self.rel.as_slice()[self.order[pos] as usize].values()[self.perm[d]],
            ),
        }
    }
}

/// Emit every row of the trie as a head tuple reading the cells at
/// `depths` (trie-order column indexes, repeats allowed), skipping rows
/// whose projected cells equal the previous row's. The trie leads with
/// the head columns, so equal projections are consecutive and the
/// output is a sorted, duplicate-free run — the caller's bulk
/// [`Relation::from_tuples`] build verifies rather than re-sorts, and no
/// duplicate tuple is ever boxed. Used by the fused rule kernel in
/// [`crate::eval`] for single-atom (projection) rule bodies.
pub fn project_emit(s: &SortedRel, depths: &[usize], out: &mut Vec<Tuple>) {
    for i in 0..s.len() {
        if i > 0
            && depths
                .iter()
                .all(|&d| s.cell(i, d).cmp_cell(s.cell(i - 1, d)).is_eq())
        {
            continue;
        }
        let vals: Vec<Value> = depths.iter().map(|&d| s.cell(i, d).to_value()).collect();
        out.push(Tuple::from(vals));
    }
}

/// Fused binary merge join: both tries lead with the same `k` join
/// columns (arrange with [`SortedRel::permuted`]); the walk advances two
/// cursors comparing raw [`Cell`]s and collects the joining row pairs.
/// `plan[c] = (from_b, depth)` names the trie column feeding output
/// column `c`; `k == 0` degenerates to the cross product (one
/// all-matching group).
///
/// The pairs are then sorted and deduplicated *by their projected head
/// cells* — raw primitive comparisons over the typed columns — before
/// any tuple is built, so the expensive part of the downstream
/// [`Relation::from_tuples`] canonicalization (boxed-row comparisons,
/// duplicate allocations) happens here on column data instead. Values
/// are boxed once per distinct head row at emission; no intermediate
/// environments or row clones exist. This is the fused rule kernel's
/// join path (see [`crate::eval`]).
pub fn merge_join_emit(
    a: &SortedRel,
    b: &SortedRel,
    k: usize,
    plan: &[(bool, usize)],
    out: &mut Vec<Tuple>,
) {
    let (na, nb) = (a.len(), b.len());
    let (mut i, mut j) = (0usize, 0usize);
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    while i < na && j < nb {
        let mut ord = Ordering::Equal;
        for d in 0..k {
            ord = a.cell(i, d).cmp_cell(b.cell(j, d));
            if ord.is_ne() {
                break;
            }
        }
        match ord {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                let ia = group_end(a, i, k);
                let jb = group_end(b, j, k);
                for pa in i..ia {
                    for pb in j..jb {
                        pairs.push((pa as u32, pb as u32));
                    }
                }
                i = ia;
                j = jb;
            }
        }
    }
    // Fast path for the overwhelmingly common graph shape — a binary
    // all-integer head: read the raw `i64` columns once per pair and
    // sort/dedup machine-word tuples, an order of magnitude cheaper than
    // dispatching cell comparisons per element.
    let int_col = |from_b: bool, d: usize| -> Option<&[i64]> {
        let cols = if from_b { b.cols.as_ref()? } else { a.cols.as_ref()? };
        match &cols[d] {
            Column::Int(v) => Some(v.as_slice()),
            _ => None,
        }
    };
    if let [(fb0, d0), (fb1, d1)] = *plan {
        if let (Some(c0), Some(c1)) = (int_col(fb0, d0), int_col(fb1, d1)) {
            let mut keys: Vec<(i64, i64)> = pairs
                .iter()
                .map(|&(pa, pb)| {
                    let r0 = if fb0 { pb } else { pa } as usize;
                    let r1 = if fb1 { pb } else { pa } as usize;
                    (c0[r0], c1[r1])
                })
                .collect();
            keys.sort_unstable();
            keys.dedup();
            out.reserve(keys.len());
            for (x, y) in keys {
                out.push(Tuple::from(vec![Value::int(x), Value::int(y)]));
            }
            return;
        }
    }
    let head_cmp = |&(pa1, pb1): &(u32, u32), &(pa2, pb2): &(u32, u32)| {
        plan.iter()
            .map(|&(from_b, d)| {
                let (c1, c2) = if from_b {
                    (b.cell(pb1 as usize, d), b.cell(pb2 as usize, d))
                } else {
                    (a.cell(pa1 as usize, d), a.cell(pa2 as usize, d))
                };
                c1.cmp_cell(c2)
            })
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    };
    pairs.sort_unstable_by(head_cmp);
    for (n, &(pa, pb)) in pairs.iter().enumerate() {
        if n > 0 && head_cmp(&pairs[n - 1], &(pa, pb)).is_eq() {
            continue;
        }
        let vals: Vec<Value> = plan
            .iter()
            .map(|&(from_b, d)| {
                if from_b { b.cell(pb as usize, d) } else { a.cell(pa as usize, d) }.to_value()
            })
            .collect();
        out.push(Tuple::from(vals));
    }
}

/// End (exclusive) of the run of rows sharing `start`'s first `k` cells.
fn group_end(s: &SortedRel, start: usize, k: usize) -> usize {
    let n = s.len();
    let mut e = start + 1;
    while e < n && (0..k).all(|d| s.cell(e, d).cmp_cell(s.cell(start, d)).is_eq()) {
        e += 1;
    }
    e
}

/// A trie iterator over a [`SortedRel`]: a cursor at some depth, scoped to
/// the position range matching the current key prefix.
struct TrieIter<'a> {
    rel: &'a SortedRel,
    /// Stack of `(lo, hi)` ranges per open level; `ranges[d]` is the range
    /// of positions matching the prefix chosen at levels `< d`. Starts
    /// empty (at the virtual root): `open()` descends into level 0.
    ranges: Vec<(usize, usize)>,
    /// Current position within the top range (points at the current key's
    /// first row).
    pos: usize,
    at_end: bool,
}

impl<'a> TrieIter<'a> {
    fn new(rel: &'a SortedRel) -> Self {
        TrieIter { rel, ranges: Vec::new(), pos: 0, at_end: rel.is_empty() }
    }

    fn depth(&self) -> usize {
        self.ranges.len() - 1
    }

    /// The key cell at the current level (borrows the trie, not the
    /// cursor — cells from several iterators can be compared freely).
    fn key(&self) -> Cell<'a> {
        self.rel.cell(self.pos, self.depth())
    }

    /// The key at the current level as a boxed [`Value`].
    #[cfg(test)]
    fn key_value(&self) -> Value {
        self.key().to_value()
    }

    /// End of the keys at this level?
    fn at_end(&self) -> bool {
        self.at_end
    }

    /// Range end of positions sharing the current key (exclusive).
    fn key_end(&self) -> usize {
        let d = self.depth();
        let (_, hi) = self.ranges[d];
        let key = self.key();
        // Gallop to the end of the run of equal keys.
        let mut step = 1;
        let mut lo = self.pos;
        while lo + step < hi && self.rel.cell(lo + step, d).cmp_cell(key).is_eq() {
            lo += step;
            step *= 2;
        }
        let mut hi2 = (lo + step).min(hi);
        // Binary search in (lo, hi2].
        while lo + 1 < hi2 {
            let mid = lo + (hi2 - lo) / 2;
            if self.rel.cell(mid, d).cmp_cell(key).is_eq() {
                lo = mid;
            } else {
                hi2 = mid;
            }
        }
        lo + 1
    }

    /// Advance to the next distinct key at this level.
    fn next_key(&mut self) {
        let (_, hi) = self.ranges[self.depth()];
        let e = self.key_end();
        if e >= hi {
            self.at_end = true;
        } else {
            self.pos = e;
        }
    }

    /// Seek to the first key ≥ `target` at this level.
    fn seek(&mut self, target: Cell<'_>) {
        let d = self.depth();
        let (_, hi) = self.ranges[d];
        if self.at_end {
            return;
        }
        // Gallop forward.
        let mut lo = self.pos;
        let mut step = 1;
        while lo + step < hi && self.rel.cell(lo + step, d).cmp_cell(target).is_lt() {
            lo += step;
            step *= 2;
        }
        let mut hi2 = (lo + step).min(hi);
        while lo < hi2 {
            let mid = lo + (hi2 - lo) / 2;
            if self.rel.cell(mid, d).cmp_cell(target).is_lt() {
                lo = mid + 1;
            } else {
                hi2 = mid;
            }
        }
        if lo >= hi {
            self.at_end = true;
        } else {
            self.pos = lo;
        }
    }

    /// Descend one level: from the virtual root into level 0, or into the
    /// sub-trie of the current key.
    fn open(&mut self) {
        if self.ranges.is_empty() {
            self.ranges.push((0, self.rel.len()));
            self.pos = 0;
            self.at_end = self.rel.is_empty();
        } else {
            let end = self.key_end();
            self.ranges.push((self.pos, end));
            self.at_end = false;
            // pos stays: first row of the range is the first child key.
        }
    }

    /// Return to the parent level.
    fn up(&mut self) {
        let (lo, _) = self.ranges.pop().expect("up below root");
        self.pos = lo;
        self.at_end = false;
    }
}

/// One atom of a join query: a relation plus, per trie level, the global
/// join-variable index that level binds. Levels must be strictly
/// increasing in the global variable order (permute the relation with
/// [`SortedRel::permuted`] to arrange this). The atom is two borrows —
/// `Copy` — so a caller joining one atom set against many environments
/// can stamp out per-environment atom lists without cloning variable
/// vectors.
#[derive(Clone, Copy)]
pub struct JoinAtom<'a> {
    /// The (column-permuted) relation.
    pub rel: &'a SortedRel,
    /// `vars[d]` = global variable bound by trie level `d`.
    pub vars: &'a [usize],
}

/// Run a leapfrog triejoin over `atoms` with `nvars` join variables
/// (numbered `0..nvars` in join order). `emit` receives each result
/// binding. The join itself copies no tuples: iterators are range
/// cursors over the (shared, possibly cached) sorted storage, keys are
/// compared as raw [`Cell`]s, and a key is boxed into a [`Value`] only
/// when it joins the result binding.
pub fn leapfrog_join(atoms: &mut [JoinAtom<'_>], nvars: usize, emit: &mut dyn FnMut(&[Value])) {
    for atom in atoms.iter() {
        if atom.rel.is_empty() {
            return;
        }
        assert_eq!(atom.vars.len(), atom.rel.arity(), "vars must cover all columns");
        assert!(
            atom.vars.windows(2).all(|w| w[0] < w[1]),
            "atom variables must be strictly increasing in join order"
        );
    }
    let mut iters: Vec<TrieIter<'_>> = atoms.iter().map(|a| TrieIter::new(a.rel)).collect();
    let mut binding: Vec<Value> = Vec::with_capacity(nvars);
    join_level(atoms, &mut iters, 0, nvars, &mut binding, emit);
}

/// Which iterators participate at variable `v`, by atom index.
fn participants(atoms: &[JoinAtom<'_>], v: usize) -> Vec<usize> {
    atoms
        .iter()
        .enumerate()
        .filter(|(_, a)| a.vars.contains(&v))
        .map(|(i, _)| i)
        .collect()
}

fn join_level(
    atoms: &[JoinAtom<'_>],
    iters: &mut [TrieIter<'_>],
    var: usize,
    nvars: usize,
    binding: &mut Vec<Value>,
    emit: &mut dyn FnMut(&[Value]),
) {
    if var == nvars {
        emit(binding);
        return;
    }
    let ps = participants(atoms, var);
    debug_assert!(!ps.is_empty(), "every variable needs at least one atom");
    // Enter this level: every participant descends one trie level (from
    // the virtual root for its first variable, from its current key
    // otherwise).
    for &i in &ps {
        iters[i].open();
    }
    loop {
        // Leapfrog search: find a common key or exhaust. Keys are `Copy`
        // cell views borrowing the tries, so the max is found and seeked
        // to without boxing a `Value`.
        if ps.iter().any(|&i| iters[i].at_end()) {
            break;
        }
        let mut max = iters[ps[0]].key();
        for &i in &ps[1..] {
            let k = iters[i].key();
            if k.cmp_cell(max).is_gt() {
                max = k;
            }
        }
        let mut all_equal = true;
        for &i in &ps {
            if iters[i].key().cmp_cell(max).is_ne() {
                iters[i].seek(max);
                all_equal = false;
            }
        }
        if ps.iter().any(|&i| iters[i].at_end()) {
            break;
        }
        if !all_equal {
            continue;
        }
        // Match on `max`: descend to the next join variable.
        binding.push(max.to_value());
        join_level(atoms, iters, var + 1, nvars, binding, emit);
        binding.pop();
        // Advance one participant to continue the search.
        let first = ps[0];
        iters[first].next_key();
        if iters[first].at_end() {
            break;
        }
    }
    // Leave this level.
    for &i in &ps {
        iters[i].up();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rel_core::tuple;

    /// Count triangles `E(a,b) ∧ E(b,c) ∧ E(a,c)` with leapfrog triejoin.
    fn triangle_count_lftj(edges: &Relation) -> usize {
        let e = SortedRel::permuted(edges, &[0, 1]);
        let mut atoms = [
            JoinAtom { rel: &e, vars: &[0, 1] },
            JoinAtom { rel: &e, vars: &[1, 2] },
            JoinAtom { rel: &e, vars: &[0, 2] },
        ];
        let mut count = 0usize;
        leapfrog_join(&mut atoms, 3, &mut |_| count += 1);
        count
    }

    /// Count triangles by brute force: edge pairs `(a, b), (b, c)` closed
    /// by an edge `(a, c)`.
    fn triangle_count_brute(edges: &Relation) -> usize {
        let closes = |a: &Value, c: &Value| edges.contains(&Tuple::from(vec![a.clone(), c.clone()]));
        let e: Vec<&[Value]> = edges.iter().map(Tuple::values).collect();
        e.iter().map(|ab| e.iter().filter(|bc| bc[0] == ab[1] && closes(&ab[0], &bc[1])).count()).sum()
    }

    fn edges(pairs: &[(i64, i64)]) -> Relation {
        Relation::from_tuples(pairs.iter().map(|&(a, b)| tuple![a, b]))
    }

    #[test]
    fn trie_iter_walk() {
        let rel = SortedRel::new(vec![tuple![1, 2], tuple![1, 3], tuple![2, 5]]);
        let mut it = TrieIter::new(&rel);
        it.open(); // virtual root → level 0
        assert_eq!(it.key_value(), Value::int(1));
        it.open();
        assert_eq!(it.key_value(), Value::int(2));
        it.next_key();
        assert_eq!(it.key_value(), Value::int(3));
        it.next_key();
        assert!(it.at_end());
        it.up();
        it.next_key();
        assert_eq!(it.key_value(), Value::int(2));
        it.open();
        assert_eq!(it.key_value(), Value::int(5));
    }

    #[test]
    fn seek_gallops() {
        let rel = SortedRel::new((0..100).step_by(3).map(|i| tuple![i]).collect());
        let mut it = TrieIter::new(&rel);
        it.open();
        it.seek(Cell::of_value(&Value::int(50)));
        assert_eq!(it.key_value(), Value::int(51));
        it.seek(Cell::of_value(&Value::int(99)));
        assert_eq!(it.key_value(), Value::int(99));
        it.seek(Cell::of_value(&Value::int(100)));
        assert!(it.at_end());
    }

    #[test]
    fn triangle_simple() {
        // 1→2→3→1 plus 1→3 gives exactly one directed triangle 1,2,3.
        let e = edges(&[(1, 2), (2, 3), (1, 3)]);
        assert_eq!(triangle_count_lftj(&e), 1);
        assert_eq!(triangle_count_brute(&e), 1);
    }

    #[test]
    fn no_triangles() {
        let e = edges(&[(1, 2), (2, 3), (3, 4)]);
        assert_eq!(triangle_count_lftj(&e), 0);
        assert_eq!(triangle_count_brute(&e), 0);
    }

    #[test]
    fn lftj_matches_brute_force_on_random_graphs() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10 {
            let n = 30i64;
            let pairs: Vec<(i64, i64)> = (0..200)
                .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
                .filter(|(a, b)| a != b)
                .collect();
            let e = edges(&pairs);
            assert_eq!(triangle_count_lftj(&e), triangle_count_brute(&e));
        }
    }

    #[test]
    fn two_way_join_is_intersection() {
        let a = SortedRel::new(vec![tuple![1], tuple![2], tuple![3]]);
        let b = SortedRel::new(vec![tuple![2], tuple![3], tuple![4]]);
        let mut atoms = [
            JoinAtom { rel: &a, vars: &[0] },
            JoinAtom { rel: &b, vars: &[0] },
        ];
        let mut out = Vec::new();
        leapfrog_join(&mut atoms, 1, &mut |vals| out.push(vals[0].clone()));
        assert_eq!(out, vec![Value::int(2), Value::int(3)]);
    }

    #[test]
    fn permuted_skips_foreign_arities() {
        // A relation holding 1-, 2- and 3-tuples, viewed as a binary atom
        // with swapped columns: only the 2-tuples survive, permuted.
        let mut rel = Relation::new();
        rel.insert(tuple![7]);
        rel.insert(tuple![1, 2]);
        rel.insert(tuple![3, 4]);
        rel.insert(tuple![5, 6, 7]);
        let s = SortedRel::permuted(&rel, &[1, 0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.arity(), 2);
        assert!(!s.is_columnar(), "mixed-arity source stays on the row path");
        let mut atoms = [JoinAtom { rel: &s, vars: &[0, 1] }];
        let mut out = Vec::new();
        leapfrog_join(&mut atoms, 2, &mut |vals| out.push((vals[0].clone(), vals[1].clone())));
        assert_eq!(
            out,
            vec![
                (Value::int(2), Value::int(1)),
                (Value::int(4), Value::int(3)),
            ]
        );
    }

    #[test]
    fn empty_relation_short_circuits_before_arity_check() {
        // An empty SortedRel reports arity 0; the join must bail out on
        // emptiness instead of tripping the vars-cover-columns assertion.
        let empty = SortedRel::new(Vec::new());
        let full = SortedRel::new(vec![tuple![1, 2]]);
        let mut atoms = [
            JoinAtom { rel: &full, vars: &[0, 1] },
            JoinAtom { rel: &empty, vars: &[0, 1] },
        ];
        let mut emitted = 0;
        leapfrog_join(&mut atoms, 2, &mut |_| emitted += 1);
        assert_eq!(emitted, 0);
    }

    #[test]
    fn columnar_tries_count_triangles_like_brute_force() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let pairs: Vec<(i64, i64)> = (0..300)
            .map(|_| (rng.gen_range(0..40), rng.gen_range(0..40)))
            .filter(|(a, b)| a != b)
            .collect();
        let e = edges(&pairs);
        assert!(SortedRel::permuted(&e, &[0, 1]).is_columnar());
        assert_eq!(triangle_count_lftj(&e), triangle_count_brute(&e));
    }

    #[test]
    fn permuted_trie_over_string_columns() {
        // Dictionary codes must seek/join exactly like the strings.
        let rel = Relation::from_tuples([
            tuple!["b", "x"],
            tuple!["a", "y"],
            tuple!["c", "x"],
            tuple!["a", "x"],
        ]);
        let s = SortedRel::permuted(&rel, &[1, 0]); // (x-col, name-col)
        let mut atoms = [JoinAtom { rel: &s, vars: &[0, 1] }];
        let mut out = Vec::new();
        leapfrog_join(&mut atoms, 2, &mut |vals| {
            out.push((vals[0].clone(), vals[1].clone()))
        });
        assert_eq!(
            out,
            vec![
                (Value::str("x"), Value::str("a")),
                (Value::str("x"), Value::str("b")),
                (Value::str("x"), Value::str("c")),
                (Value::str("y"), Value::str("a")),
            ]
        );
    }
}
