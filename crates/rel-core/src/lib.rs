//! # rel-core
//!
//! Core data model for **rel-rs**, a Rust implementation of the Rel
//! programming language for relational data (Aref et al., SIGMOD 2025).
//!
//! This crate defines the first-order data model of the paper's Addendum A:
//!
//! * [`Value`] — the set *Values* of constant values (integers, floats,
//!   strings, entity identifiers, relation-name symbols);
//! * [`Tuple`] — the set *Tuples₁* of first-order tuples, including the
//!   empty tuple `⟨⟩`;
//! * [`Relation`] — the set *Rels₁* of first-order relations: **sets** of
//!   tuples under pure set semantics (no bags, no nulls), where tuples of
//!   different arities may coexist in one relation;
//! * [`Database`] — a mapping from relation names to base relations, with
//!   transactional delta application;
//! * [`codec`] — the binary codec (values, tuples, transaction deltas,
//!   whole-database images) plus CRC32, underpinning the engine's
//!   write-ahead log and snapshot files;
//! * [`convert`] — the typed-result layer ([`FromValue`] / [`FromRow`]):
//!   `out.rows::<(String, i64)>()?` instead of matching [`Value`]s;
//! * [`gnf`] — Graph Normal Form: the 6NF-style schema discipline of §2 of
//!   the paper (all-columns-key or all-but-last-columns-key, plus the
//!   unique-identifier property).
//!
//! Booleans are *not* values: as in the paper, `true` is the relation
//! `{⟨⟩}` containing the empty tuple and `false` is the empty relation `{}`
//! (see [`Relation::true_rel`] / [`Relation::false_rel`]).

pub mod codec;
pub mod columnar;
pub mod convert;
pub mod database;
pub mod error;
pub mod gnf;
pub mod relation;
pub mod tuple;
pub mod value;

#[doc(hidden)]
pub use columnar::set_columnar_enabled;
pub use convert::{FromRow, FromValue};
pub use database::Database;
pub use error::{RelError, RelResult};
pub use relation::Relation;
pub use tuple::Tuple;
pub use value::{EntityId, OrdF64, Value};

/// Interned relation/identifier name. Cheap to clone and compare.
pub type Name = std::sync::Arc<str>;

/// Create a [`Name`] from anything string-like.
pub fn name(s: impl AsRef<str>) -> Name {
    Name::from(s.as_ref())
}
