//! Graph Normal Form (GNF) — §2 of the paper.
//!
//! GNF comprises two conditions:
//!
//! 1. **Indivisibility of facts** (6NF): every `k`-ary relation either has
//!    all `k` columns as its key, or its first `k−1` columns as its key
//!    (i.e. the relation is a *function* from composite keys to one atomic
//!    value — by convention the non-key column is last).
//! 2. **Things, not strings** — the *unique identifier property*: every
//!    entity is represented by an identifier unique within the entire
//!    database, so disjoint concepts (products, orders, …) never share an
//!    identifier.
//!
//! This module provides schema declarations ([`Schema`], [`RelationDecl`])
//! and validators for both conditions against a concrete [`Database`].

use crate::database::Database;
use crate::error::{RelError, RelResult};
use crate::relation::Relation;
use crate::value::Value;
use crate::{name, Name};
use std::collections::{BTreeMap, BTreeSet};

/// Which GNF key shape a relation has.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KeyShape {
    /// All `k` columns form the key — a pure set of composite keys
    /// (e.g. `PaymentOrder(payment, order)` when modeling a many-to-many).
    AllColumns,
    /// The first `k−1` columns form the key; the last column is the single
    /// atomic value (e.g. `ProductPrice(product → price)`).
    AllButLast,
}

/// Declares how a relation participates in the GNF schema: its arity, key
/// shape, and which concept (if any) each key column ranges over.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RelationDecl {
    /// Relation name.
    pub name: Name,
    /// Expected arity of every tuple.
    pub arity: usize,
    /// Key shape (condition 1 of GNF).
    pub key: KeyShape,
    /// For each column: the concept whose identifiers populate it, or
    /// `None` for value columns (integers, strings-as-values, …).
    pub concepts: Vec<Option<Name>>,
}

impl RelationDecl {
    /// A relation whose every column is key (pure facts).
    pub fn all_key(rel: impl AsRef<str>, concepts: Vec<Option<Name>>) -> Self {
        RelationDecl {
            name: name(rel),
            arity: concepts.len(),
            key: KeyShape::AllColumns,
            concepts,
        }
    }

    /// A functional relation: first `k−1` columns key, last column value.
    pub fn functional(rel: impl AsRef<str>, concepts: Vec<Option<Name>>) -> Self {
        RelationDecl {
            name: name(rel),
            arity: concepts.len(),
            key: KeyShape::AllButLast,
            concepts,
        }
    }
}

/// A GNF schema: a set of concepts and relation declarations.
#[derive(Clone, Debug, Default)]
pub struct Schema {
    /// Declared concepts (entity types), e.g. `Order`, `Product`.
    pub concepts: Vec<Name>,
    /// Relation declarations by name.
    pub relations: BTreeMap<Name, RelationDecl>,
}

impl Schema {
    /// Empty schema.
    pub fn new() -> Self {
        Schema::default()
    }

    /// Register a concept, returning its index.
    pub fn add_concept(&mut self, c: impl AsRef<str>) -> u32 {
        let n = name(c);
        if let Some(i) = self.concepts.iter().position(|x| *x == n) {
            return i as u32;
        }
        self.concepts.push(n);
        (self.concepts.len() - 1) as u32
    }

    /// Register a relation declaration.
    pub fn add_relation(&mut self, decl: RelationDecl) {
        self.relations.insert(decl.name.clone(), decl);
    }

    /// The GNF schema for the running example of §2/§3 (Figure 1).
    pub fn figure1() -> Schema {
        let mut s = Schema::new();
        for c in ["Order", "Product", "Payment", "Customer"] {
            s.add_concept(c);
        }
        let order = Some(name("Order"));
        let product = Some(name("Product"));
        let payment = Some(name("Payment"));
        let customer = Some(name("Customer"));
        s.add_relation(RelationDecl::functional(
            "ProductPrice",
            vec![product.clone(), None],
        ));
        s.add_relation(RelationDecl::functional(
            "ProductName",
            vec![product.clone(), None],
        ));
        s.add_relation(RelationDecl::functional(
            "OrderCustomer",
            vec![order.clone(), customer],
        ));
        s.add_relation(RelationDecl::functional(
            "OrderProductQuantity",
            vec![order.clone(), product, None],
        ));
        s.add_relation(RelationDecl::functional(
            "PaymentAmount",
            vec![payment.clone(), None],
        ));
        s.add_relation(RelationDecl::functional(
            "PaymentOrder",
            vec![payment, order],
        ));
        s
    }

    /// Validate a database against this schema: arity conformance, the 6NF
    /// key condition, and the unique identifier property. Returns the first
    /// violation as an error.
    pub fn validate(&self, db: &Database) -> RelResult<()> {
        for decl in self.relations.values() {
            if let Some(rel) = db.get(&decl.name) {
                validate_relation(decl, rel)?;
            }
        }
        self.validate_unique_identifiers(db)
    }

    /// Condition 2: no identifier may populate two different concepts.
    /// Identifier values are whatever occupies concept-typed columns —
    /// entity ids or (as in Figure 1) strings acting as identifiers.
    pub fn validate_unique_identifiers(&self, db: &Database) -> RelResult<()> {
        let mut owner: BTreeMap<Value, Name> = BTreeMap::new();
        for decl in self.relations.values() {
            let Some(rel) = db.get(&decl.name) else { continue };
            for t in rel.iter() {
                for (i, concept) in decl.concepts.iter().enumerate() {
                    let Some(concept) = concept else { continue };
                    let Some(v) = t.get(i) else { continue };
                    match owner.get(v) {
                        None => {
                            owner.insert(v.clone(), concept.clone());
                        }
                        Some(prev) if prev == concept => {}
                        Some(prev) => {
                            return Err(RelError::Gnf(format!(
                                "identifier {v} is used for disjoint concepts \
                                 `{prev}` and `{concept}` (unique identifier \
                                 property, GNF condition 2)"
                            )));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Validate one relation against its declaration: arity and key shape.
pub fn validate_relation(decl: &RelationDecl, rel: &Relation) -> RelResult<()> {
    for t in rel.iter() {
        if t.arity() != decl.arity {
            return Err(RelError::Gnf(format!(
                "relation `{}` declared with arity {} contains tuple {} of arity {}",
                decl.name,
                decl.arity,
                t,
                t.arity()
            )));
        }
    }
    if decl.key == KeyShape::AllButLast && decl.arity > 0 {
        check_functional(&decl.name, rel, decl.arity - 1)?;
    }
    Ok(())
}

/// Check the functional dependency `columns[0..key_len] → rest`: no two
/// tuples may share a key prefix but differ afterwards. This is the 6NF
/// condition that makes a relation a function from keys to one value.
pub fn check_functional(relname: &str, rel: &Relation, key_len: usize) -> RelResult<()> {
    let mut seen: BTreeMap<Vec<Value>, &crate::Tuple> = BTreeMap::new();
    for t in rel.iter() {
        let key: Vec<Value> = t.values().iter().take(key_len).cloned().collect();
        if let Some(prev) = seen.get(&key) {
            if *prev != t {
                return Err(RelError::Gnf(format!(
                    "relation `{relname}` violates its key (first {key_len} \
                     column(s)): tuples {prev} and {t} share a key"
                )));
            }
        }
        seen.insert(key, t);
    }
    Ok(())
}

/// Decompose a wide record-style relation (one row = one entity with
/// attributes) into GNF: for a `k`-ary relation with a 1-column key this
/// yields `k−1` binary functional relations named `{base}{Attr}`. This is
/// the §2 move from `Product(product, name, price)` to `ProductName` +
/// `ProductPrice`.
pub fn decompose_to_gnf(
    base: &str,
    attr_names: &[&str],
    rel: &Relation,
) -> RelResult<BTreeMap<Name, Relation>> {
    let arity = attr_names.len() + 1;
    let mut out: BTreeMap<Name, Relation> = BTreeMap::new();
    for a in attr_names {
        out.insert(name(format!("{base}{a}")), Relation::new());
    }
    for t in rel.iter() {
        if t.arity() != arity {
            return Err(RelError::Gnf(format!(
                "decompose_to_gnf: expected arity {arity}, found tuple {t}"
            )));
        }
        let key = t.values()[0].clone();
        for (i, a) in attr_names.iter().enumerate() {
            out.get_mut(&name(format!("{base}{a}")))
                .expect("pre-inserted")
                .insert(crate::Tuple::from(vec![
                    key.clone(),
                    t.values()[i + 1].clone(),
                ]));
        }
    }
    Ok(out)
}

/// The set of identifiers populating a concept across all declared
/// relations. Useful for building per-concept domains.
pub fn concept_population(schema: &Schema, db: &Database, concept: &str) -> BTreeSet<Value> {
    let mut pop = BTreeSet::new();
    for decl in schema.relations.values() {
        let Some(rel) = db.get(&decl.name) else { continue };
        for (i, c) in decl.concepts.iter().enumerate() {
            if c.as_deref() == Some(concept) {
                for t in rel.iter() {
                    if let Some(v) = t.get(i) {
                        pop.insert(v.clone());
                    }
                }
            }
        }
    }
    pop
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::figure1_database;
    use crate::tuple;

    #[test]
    fn figure1_database_is_gnf() {
        let schema = Schema::figure1();
        let db = figure1_database();
        schema.validate(&db).expect("Figure 1 database is in GNF");
    }

    #[test]
    fn functional_violation_detected() {
        let mut db = figure1_database();
        // Second price for P1 violates ProductPrice's key.
        db.insert("ProductPrice", tuple!["P1", 11]);
        let err = Schema::figure1().validate(&db).unwrap_err();
        assert!(matches!(err, RelError::Gnf(_)), "{err}");
        assert!(err.to_string().contains("ProductPrice"));
    }

    #[test]
    fn unique_identifier_violation_detected() {
        let mut db = figure1_database();
        // "P1" already identifies a Product; use it as an Order.
        db.insert("OrderProductQuantity", tuple!["P1", "P2", 1]);
        let err = Schema::figure1().validate(&db).unwrap_err();
        assert!(err.to_string().contains("unique identifier"), "{err}");
    }

    #[test]
    fn arity_violation_detected() {
        let mut db = figure1_database();
        db.insert("ProductPrice", tuple!["P9"]);
        let err = Schema::figure1().validate(&db).unwrap_err();
        assert!(err.to_string().contains("arity"), "{err}");
    }

    #[test]
    fn decompose_wide_product() {
        // Product(product, name, price) — NOT in GNF (§2) — decomposes into
        // ProductName and ProductPrice.
        let wide = Relation::from_tuples([
            tuple!["P1", "apple", 10],
            tuple!["P2", "pear", 20],
        ]);
        let parts = decompose_to_gnf("Product", &["Name", "Price"], &wide).unwrap();
        assert_eq!(parts.len(), 2);
        assert_eq!(
            parts[&name("ProductName")],
            Relation::from_tuples([tuple!["P1", "apple"], tuple!["P2", "pear"]])
        );
        assert_eq!(
            parts[&name("ProductPrice")],
            Relation::from_tuples([tuple!["P1", 10], tuple!["P2", 20]])
        );
        // Lossless: rejoining the parts on the key gives the wide relation.
        let mut rejoined = Relation::new();
        for t in parts[&name("ProductName")].iter() {
            let key = &t.values()[0];
            for p in parts[&name("ProductPrice")].partial_apply(std::slice::from_ref(key)).iter() {
                rejoined.insert(tuple![key.clone(), t.values()[1].clone(), p.values()[0].clone()]);
            }
        }
        assert_eq!(rejoined, wide);
    }

    #[test]
    fn concept_population_collects_ids() {
        let schema = Schema::figure1();
        let db = figure1_database();
        let products = concept_population(&schema, &db, "Product");
        assert_eq!(products.len(), 4); // P1..P4
        let orders = concept_population(&schema, &db, "Order");
        assert_eq!(orders.len(), 3); // O1..O3
    }

    #[test]
    fn all_key_relation_never_fd_checked() {
        let mut s = Schema::new();
        s.add_relation(RelationDecl::all_key("Edge", vec![None, None]));
        let mut db = Database::new();
        db.insert("Edge", tuple![1, 2]);
        db.insert("Edge", tuple![1, 3]); // fine: all columns are the key
        s.validate(&db).unwrap();
    }
}
