//! Typed columnar projection of a relation.
//!
//! [`crate::Relation`] stores sorted rows of boxed [`Value`]s — the
//! canonical layout every external contract (iteration order, codec
//! bytes, `rows::<T>()`) is defined over. This module adds a *derived*
//! columnar view: for a uniform-arity relation, each column whose values
//! all share one [`Value`] variant is extracted into a contiguous typed
//! vector ([`Column::Int`] is a `Vec<i64>`, and so on), so hot kernels
//! (merge-walks, sort + dedup, trie seeks) compare raw primitives instead
//! of dispatching on `Value` tags per element.
//!
//! # Layout and fallback rules
//!
//! * The projection exists only for non-empty relations in which every
//!   tuple has the same arity ([`Columnar::build`] returns `None`
//!   otherwise; callers then stay on the boxed-row path).
//! * Within a qualifying relation, each column falls back *individually*:
//!   a column mixing variants (e.g. `Int` and `Float`) is stored as
//!   [`Column::Mixed`] — still contiguous, but compared through `Value`.
//! * Rows in the projection are index-aligned with the relation's sorted
//!   tuple slice: column `c` row `i` holds `tuples[i].values()[c]`.
//!
//! # Interner ordering guarantee
//!
//! String (and symbol) columns are dictionary-encoded *per column*: the
//! distinct strings are collected, sorted, and assigned dense codes in
//! lexicographic order. Code order therefore **equals** string order
//! within a column, so sorts and merge-walks over one column compare
//! `u32` codes. Comparisons *across* two different dictionaries fall back
//! to the underlying `&str` compare (with a pointer-equality fast path
//! when both sides share one dictionary allocation). Dictionaries are
//! immutable — a relation mutation drops the whole projection, and the
//! next build re-interns — which is what keeps the code ordering stable.

use crate::tuple::Tuple;
use crate::value::{EntityId, OrdF64, Value};
use std::cmp::Ordering;
use std::sync::Arc;

// Inert (the layout is always columnar); kept only for benchmark/src/harness.rs.
#[doc(hidden)]
pub fn set_columnar_enabled(_on: bool) {}

/// A dictionary-encoded string column: `codes[i]` indexes into `dict`,
/// and codes are assigned in lexicographic dictionary order, so
/// *code order equals string order* (module docs).
#[derive(Clone, Debug)]
pub struct StrCol {
    codes: Vec<u32>,
    dict: Arc<[Arc<str>]>,
}

impl StrCol {
    fn build(values: impl Iterator<Item = Arc<str>>, len: usize) -> StrCol {
        let raw: Vec<Arc<str>> = values.collect();
        debug_assert_eq!(raw.len(), len);
        let mut dict: Vec<Arc<str>> = raw.clone();
        dict.sort_unstable_by(|a, b| a.as_ref().cmp(b.as_ref()));
        dict.dedup_by(|a, b| a.as_ref() == b.as_ref());
        let codes = raw
            .iter()
            .map(|s| {
                dict.binary_search_by(|d| d.as_ref().cmp(s.as_ref()))
                    .expect("interned string must be in its own dictionary") as u32
            })
            .collect();
        StrCol { codes, dict: dict.into() }
    }

    /// The string at row `i`.
    pub fn get(&self, i: usize) -> &Arc<str> {
        &self.dict[self.codes[i] as usize]
    }

    /// Number of distinct strings (every dictionary entry is referenced).
    pub fn distinct(&self) -> usize {
        self.dict.len()
    }

    fn cmp_rows(&self, i: usize, other: &StrCol, j: usize) -> Ordering {
        if Arc::ptr_eq(&self.dict, &other.dict) {
            self.codes[i].cmp(&other.codes[j])
        } else {
            self.get(i).as_ref().cmp(other.get(j).as_ref())
        }
    }

    fn gather(&self, idx: &[u32]) -> StrCol {
        StrCol {
            codes: idx.iter().map(|&i| self.codes[i as usize]).collect(),
            dict: Arc::clone(&self.dict),
        }
    }
}

/// One column of a [`Columnar`] projection: a schema-specialized
/// contiguous vector, or [`Column::Mixed`] when the column's values span
/// more than one [`Value`] variant.
#[derive(Clone, Debug)]
pub enum Column {
    /// All-`Value::Int` column.
    Int(Vec<i64>),
    /// All-`Value::Float` column (total order via [`OrdF64`]).
    Float(Vec<OrdF64>),
    /// All-`Value::String` column, dictionary-encoded.
    Str(StrCol),
    /// All-`Value::Entity` column.
    Entity(Vec<EntityId>),
    /// All-`Value::Symbol` column, dictionary-encoded.
    Sym(StrCol),
    /// Fallback: boxed values (mixed variants), still contiguous.
    Mixed(Vec<Value>),
}

/// A borrowed view of one cell, cheap to copy and compare. Ordering
/// matches [`Value`]'s derived order exactly (`Int < Float < String <
/// Entity < Symbol`, then payload), so row-path and columnar kernels
/// agree on every comparison.
#[derive(Clone, Copy, Debug)]
pub enum Cell<'a> {
    /// An integer cell.
    Int(i64),
    /// A float cell.
    Float(OrdF64),
    /// A string cell (borrowed from a dictionary or a `Value`).
    Str(&'a Arc<str>),
    /// An entity cell.
    Entity(EntityId),
    /// A symbol cell.
    Sym(&'a Arc<str>),
}

impl<'a> Cell<'a> {
    /// View a boxed [`Value`] as a cell.
    pub fn of_value(v: &'a Value) -> Cell<'a> {
        match v {
            Value::Int(i) => Cell::Int(*i),
            Value::Float(x) => Cell::Float(*x),
            Value::String(s) => Cell::Str(s),
            Value::Entity(e) => Cell::Entity(*e),
            Value::Symbol(s) => Cell::Sym(s),
        }
    }

    /// Rebuild the boxed [`Value`] (an `Arc` bump for strings).
    pub fn to_value(self) -> Value {
        match self {
            Cell::Int(i) => Value::Int(i),
            Cell::Float(x) => Value::Float(x),
            Cell::Str(s) => Value::String(Arc::clone(s)),
            Cell::Entity(e) => Value::Entity(e),
            Cell::Sym(s) => Value::Symbol(Arc::clone(s)),
        }
    }

    fn rank(self) -> u8 {
        match self {
            Cell::Int(_) => 0,
            Cell::Float(_) => 1,
            Cell::Str(_) => 2,
            Cell::Entity(_) => 3,
            Cell::Sym(_) => 4,
        }
    }

    /// Total order identical to [`Value`]'s.
    pub fn cmp_cell(self, other: Cell<'_>) -> Ordering {
        match (self, other) {
            (Cell::Int(a), Cell::Int(b)) => a.cmp(&b),
            (Cell::Float(a), Cell::Float(b)) => a.cmp(&b),
            (Cell::Str(a), Cell::Str(b)) | (Cell::Sym(a), Cell::Sym(b)) => {
                if Arc::ptr_eq(a, b) {
                    Ordering::Equal
                } else {
                    a.as_ref().cmp(b.as_ref())
                }
            }
            (Cell::Entity(a), Cell::Entity(b)) => a.cmp(&b),
            (a, b) => a.rank().cmp(&b.rank()),
        }
    }

    /// Compare against a boxed [`Value`] (same total order).
    pub fn cmp_value(self, v: &Value) -> Ordering {
        self.cmp_cell(Cell::of_value(v))
    }
}

impl Column {
    fn build(rows: &[Tuple], col: usize) -> Column {
        let len = rows.len();
        let first = &rows[0].values()[col];
        let uniform = rows.iter().all(|t| {
            std::mem::discriminant(&t.values()[col]) == std::mem::discriminant(first)
        });
        if !uniform {
            return Column::Mixed(rows.iter().map(|t| t.values()[col].clone()).collect());
        }
        match first {
            Value::Int(_) => Column::Int(
                rows.iter()
                    .map(|t| match &t.values()[col] {
                        Value::Int(i) => *i,
                        _ => unreachable!("uniform Int column"),
                    })
                    .collect(),
            ),
            Value::Float(_) => Column::Float(
                rows.iter()
                    .map(|t| match &t.values()[col] {
                        Value::Float(x) => *x,
                        _ => unreachable!("uniform Float column"),
                    })
                    .collect(),
            ),
            Value::String(_) => Column::Str(StrCol::build(
                rows.iter().map(|t| match &t.values()[col] {
                    Value::String(s) => Arc::clone(s),
                    _ => unreachable!("uniform String column"),
                }),
                len,
            )),
            Value::Entity(_) => Column::Entity(
                rows.iter()
                    .map(|t| match &t.values()[col] {
                        Value::Entity(e) => *e,
                        _ => unreachable!("uniform Entity column"),
                    })
                    .collect(),
            ),
            Value::Symbol(_) => Column::Sym(StrCol::build(
                rows.iter().map(|t| match &t.values()[col] {
                    Value::Symbol(s) => Arc::clone(s),
                    _ => unreachable!("uniform Symbol column"),
                }),
                len,
            )),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Str(s) | Column::Sym(s) => s.codes.len(),
            Column::Entity(v) => v.len(),
            Column::Mixed(v) => v.len(),
        }
    }

    /// Is the column empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrow row `i` as a [`Cell`].
    pub fn cell(&self, i: usize) -> Cell<'_> {
        match self {
            Column::Int(v) => Cell::Int(v[i]),
            Column::Float(v) => Cell::Float(v[i]),
            Column::Str(s) => Cell::Str(s.get(i)),
            Column::Sym(s) => Cell::Sym(s.get(i)),
            Column::Entity(v) => Cell::Entity(v[i]),
            Column::Mixed(v) => Cell::of_value(&v[i]),
        }
    }

    /// Rebuild the boxed [`Value`] at row `i`.
    pub fn value(&self, i: usize) -> Value {
        self.cell(i).to_value()
    }

    /// Compare row `i` of `self` with row `j` of `other` — raw primitive
    /// compares on the typed same-variant paths, same-dictionary code
    /// compares for strings, `Value`-order fallback otherwise.
    pub fn cmp_rows(&self, i: usize, other: &Column, j: usize) -> Ordering {
        match (self, other) {
            (Column::Int(a), Column::Int(b)) => a[i].cmp(&b[j]),
            (Column::Float(a), Column::Float(b)) => a[i].cmp(&b[j]),
            (Column::Str(a), Column::Str(b)) | (Column::Sym(a), Column::Sym(b)) => {
                a.cmp_rows(i, b, j)
            }
            (Column::Entity(a), Column::Entity(b)) => a[i].cmp(&b[j]),
            _ => self.cell(i).cmp_cell(other.cell(j)),
        }
    }

    /// Select rows by index, preserving the typed layout (used to
    /// materialize permuted/sorted tries without touching tuples).
    pub fn gather(&self, idx: &[u32]) -> Column {
        match self {
            Column::Int(v) => Column::Int(idx.iter().map(|&i| v[i as usize]).collect()),
            Column::Float(v) => Column::Float(idx.iter().map(|&i| v[i as usize]).collect()),
            Column::Str(s) => Column::Str(s.gather(idx)),
            Column::Sym(s) => Column::Sym(s.gather(idx)),
            Column::Entity(v) => Column::Entity(idx.iter().map(|&i| v[i as usize]).collect()),
            Column::Mixed(v) => {
                Column::Mixed(idx.iter().map(|&i| v[i as usize].clone()).collect())
            }
        }
    }
}

/// The typed columnar projection of a uniform-arity relation; row `i`
/// across the columns reconstructs `tuples[i]` (see module docs).
#[derive(Clone, Debug)]
pub struct Columnar {
    len: usize,
    cols: Vec<Column>,
}

impl Columnar {
    /// Build the projection over a sorted tuple slice. `None` when the
    /// slice is empty or tuples disagree on arity (the boxed-row layout
    /// stays canonical in that case).
    pub fn build(rows: &[Tuple]) -> Option<Columnar> {
        let first = rows.first()?;
        let arity = first.arity();
        if arity == 0 || rows.iter().any(|t| t.arity() != arity) {
            return None;
        }
        let cols = (0..arity).map(|c| Column::build(rows, c)).collect();
        Some(Columnar { len: rows.len(), cols })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the projection empty? (Never true for a built projection.)
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// The columns.
    pub fn cols(&self) -> &[Column] {
        &self.cols
    }

    /// Lexicographic whole-row compare between `self[i]` and `other[j]`,
    /// identical to `Tuple` order (column-wise values, then arity).
    pub fn cmp_rows(&self, i: usize, other: &Columnar, j: usize) -> Ordering {
        let shared = self.arity().min(other.arity());
        for c in 0..shared {
            match self.cols[c].cmp_rows(i, &other.cols[c], j) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        self.arity().cmp(&other.arity())
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn rows() -> Vec<Tuple> {
        vec![
            tuple![1, "b", 2.5],
            tuple![2, "a", 1.5],
            tuple![3, "b", 3.5],
        ]
    }

    #[test]
    fn build_types_columns() {
        let c = Columnar::build(&rows()).unwrap();
        assert_eq!(c.arity(), 3);
        assert_eq!(c.len(), 3);
        assert!(matches!(c.cols()[0], Column::Int(_)));
        assert!(matches!(c.cols()[1], Column::Str(_)));
        assert!(matches!(c.cols()[2], Column::Float(_)));
    }

    #[test]
    fn mixed_column_falls_back_per_column() {
        let rows = vec![tuple![1, "x"], tuple![2.5, "y"]];
        let c = Columnar::build(&rows).unwrap();
        assert!(matches!(c.cols()[0], Column::Mixed(_)));
        assert!(matches!(c.cols()[1], Column::Str(_)));
    }

    #[test]
    fn non_uniform_arity_has_no_projection() {
        assert!(Columnar::build(&[tuple![1], tuple![1, 2]]).is_none());
        assert!(Columnar::build(&[]).is_none());
        assert!(Columnar::build(&[Tuple::empty()]).is_none());
    }

    #[test]
    fn interner_code_order_is_string_order() {
        let rows = vec![tuple!["cherry"], tuple!["apple"], tuple!["banana"], tuple!["apple"]];
        let c = Columnar::build(&rows).unwrap();
        let Column::Str(s) = &c.cols()[0] else { panic!("expected Str column") };
        assert_eq!(s.distinct(), 3);
        // Codes compare exactly as the strings do.
        for i in 0..rows.len() {
            for j in 0..rows.len() {
                assert_eq!(
                    s.codes[i].cmp(&s.codes[j]),
                    s.get(i).as_ref().cmp(s.get(j).as_ref())
                );
            }
        }
    }

    #[test]
    fn cell_order_matches_value_order() {
        let vals = [
            Value::int(-3),
            Value::int(7),
            Value::float(-0.0),
            Value::float(0.0),
            Value::float(f64::NAN),
            Value::str("a"),
            Value::str("b"),
            Value::entity(0, 1),
            Value::entity(1, 0),
            Value::sym("s"),
        ];
        for a in &vals {
            for b in &vals {
                assert_eq!(Cell::of_value(a).cmp_cell(Cell::of_value(b)), a.cmp(b), "{a:?} vs {b:?}");
                assert_eq!(Cell::of_value(a).cmp_value(b), a.cmp(b));
            }
        }
    }

    #[test]
    fn cmp_rows_matches_tuple_order() {
        let a = rows();
        let b = vec![tuple![1, "b", 2.5], tuple![0, "z", 9.0]];
        let ca = Columnar::build(&a).unwrap();
        let cb = Columnar::build(&b).unwrap();
        for (i, ta) in a.iter().enumerate() {
            for (j, tb) in b.iter().enumerate() {
                assert_eq!(ca.cmp_rows(i, &cb, j), ta.cmp(tb));
            }
        }
    }

    #[test]
    fn cmp_rows_breaks_arity_ties_like_tuples() {
        let a = vec![tuple![1, 2]];
        let b = vec![tuple![1, 2, 3]];
        let ca = Columnar::build(&a).unwrap();
        let cb = Columnar::build(&b).unwrap();
        assert_eq!(ca.cmp_rows(0, &cb, 0), Ordering::Less);
        assert_eq!(cb.cmp_rows(0, &ca, 0), Ordering::Greater);
    }

    #[test]
    fn gather_preserves_layout() {
        let c = Columnar::build(&rows()).unwrap();
        let g = c.cols()[1].gather(&[2, 0]);
        assert_eq!(g.value(0), Value::str("b"));
        assert_eq!(g.value(1), Value::str("b"));
        assert!(matches!(g, Column::Str(_)));
    }
}
