//! # rel-kg
//!
//! Relational knowledge graphs (§2 and §6 of the paper): conceptual
//! (ER/ORM-style) modeling compiled to **Graph Normal Form** schemas,
//! entity minting with the unique-identifier property, record ingestion
//! (wide rows → indivisible GNF facts), and automatic synthesis of Rel
//! integrity constraints from the model.
//!
//! An RKG = relational data model + GNF + Rel (the paper's three
//! components). This crate supplies the modeling layer; querying is plain
//! Rel through [`rel_engine::Session`].

use rel_core::gnf::{KeyShape, RelationDecl, Schema};
use rel_core::{name, Database, RelError, RelResult, Tuple, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// An attribute of a concept in the conceptual model.
#[derive(Clone, Debug, PartialEq)]
pub struct Attribute {
    /// Attribute name (becomes the suffix of the GNF relation name:
    /// `Product` + `price` → `ProductPrice`).
    pub name: String,
    /// Whether every entity of the concept must have this attribute
    /// (synthesizes a totality `ic`).
    pub required: bool,
}

/// A relationship between two concepts, with cardinality on the `to`
/// side (`OrderCustomer`: many orders, one customer ⇒ functional).
#[derive(Clone, Debug, PartialEq)]
pub struct Relationship {
    /// Relationship name (the GNF relation name, e.g. `PaymentOrder`).
    pub name: String,
    /// Source concept.
    pub from: String,
    /// Target concept.
    pub to: String,
    /// True when each `from`-entity relates to at most one `to`-entity
    /// (the relation is a function — all-but-last-column key).
    pub functional: bool,
}

/// A conceptual model: concepts with attributes, plus relationships.
/// Compiles to a GNF [`Schema`] and to Rel integrity constraints.
#[derive(Clone, Debug, Default)]
pub struct ConceptualModel {
    concepts: BTreeMap<String, Vec<Attribute>>,
    relationships: Vec<Relationship>,
}

impl ConceptualModel {
    /// Empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a concept (entity type).
    pub fn concept(mut self, name: &str) -> Self {
        self.concepts.entry(name.to_string()).or_default();
        self
    }

    /// Declare an attribute of a concept.
    pub fn attribute(mut self, concept: &str, attr: &str, required: bool) -> Self {
        self.concepts
            .entry(concept.to_string())
            .or_default()
            .push(Attribute { name: attr.to_string(), required });
        self
    }

    /// Declare a relationship.
    pub fn relationship(mut self, name: &str, from: &str, to: &str, functional: bool) -> Self {
        self = self.concept(from).concept(to);
        self.relationships.push(Relationship {
            name: name.to_string(),
            from: from.to_string(),
            to: to.to_string(),
            functional,
        });
        self
    }

    /// The GNF relation name of an attribute.
    pub fn attr_relation(concept: &str, attr: &str) -> String {
        let mut chars = attr.chars();
        let capitalized = match chars.next() {
            Some(c) => c.to_uppercase().collect::<String>() + chars.as_str(),
            None => String::new(),
        };
        format!("{concept}{capitalized}")
    }

    /// Compile to a GNF schema: each attribute becomes a binary functional
    /// relation, each relationship a binary relation (functional per its
    /// cardinality) — §2's decomposition, with each relation holding one
    /// indivisible kind of fact.
    pub fn to_schema(&self) -> Schema {
        let mut schema = Schema::new();
        for c in self.concepts.keys() {
            schema.add_concept(c);
        }
        for (c, attrs) in &self.concepts {
            for a in attrs {
                schema.add_relation(RelationDecl::functional(
                    Self::attr_relation(c, &a.name),
                    vec![Some(name(c)), None],
                ));
            }
        }
        for r in &self.relationships {
            let decl = RelationDecl {
                name: name(&r.name),
                arity: 2,
                key: if r.functional { KeyShape::AllButLast } else { KeyShape::AllColumns },
                concepts: vec![Some(name(&r.from)), Some(name(&r.to))],
            };
            schema.add_relation(decl);
        }
        schema
    }

    /// Synthesize Rel integrity constraints from the model: foreign-key
    /// style domain constraints for relationships and totality constraints
    /// for required attributes (§3.5: "the rich language of integrity
    /// constraints — in place of a more classical database schema").
    pub fn to_constraints(&self) -> String {
        let mut out = String::new();
        for r in &self.relationships {
            let _ = writeln!(
                out,
                "ic {name}_from_domain(x) requires {name}(x, _) implies {from}(x)\n\
                 ic {name}_to_domain(y) requires {name}(_, y) implies {to}(y)",
                name = r.name,
                from = concept_population_rel(&r.from),
                to = concept_population_rel(&r.to),
            );
        }
        for (c, attrs) in &self.concepts {
            for a in attrs {
                let rel = Self::attr_relation(c, &a.name);
                let _ = writeln!(
                    out,
                    "ic {rel}_domain(x) requires {rel}(x, _) implies {pop}(x)",
                    pop = concept_population_rel(c),
                );
                if a.required {
                    let _ = writeln!(
                        out,
                        "ic {rel}_total(x) requires {pop}(x) implies {rel}(x, _)",
                        pop = concept_population_rel(c),
                    );
                }
            }
        }
        out
    }
}

/// Name of the unary population relation of a concept (`Order` entities
/// live in `OrderEntity`).
pub fn concept_population_rel(concept: &str) -> String {
    format!("{concept}Entity")
}

/// Mints database-unique entity identifiers per concept — the *things,
/// not strings* side of GNF (§2): entities get identifiers disjoint from
/// all values and from other concepts' identifiers.
#[derive(Clone, Debug, Default)]
pub struct EntityRegistry {
    /// Concept name → concept index.
    concepts: BTreeMap<String, u32>,
    /// External key (concept, surrogate string) → minted entity.
    minted: BTreeMap<(u32, String), Value>,
    next_id: u64,
}

impl EntityRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn concept_idx(&mut self, concept: &str) -> u32 {
        let next = self.concepts.len() as u32;
        *self.concepts.entry(concept.to_string()).or_insert(next)
    }

    /// Mint (or look up) the entity for an external key. The same
    /// `(concept, key)` always maps to the same entity; distinct concepts
    /// never share identifiers.
    pub fn entity(&mut self, concept: &str, key: &str) -> Value {
        let c = self.concept_idx(concept);
        if let Some(v) = self.minted.get(&(c, key.to_string())) {
            return v.clone();
        }
        self.next_id += 1;
        let v = Value::entity(c, self.next_id);
        self.minted.insert((c, key.to_string()), v.clone());
        v
    }

    /// Number of minted entities.
    pub fn len(&self) -> usize {
        self.minted.len()
    }

    /// True when nothing has been minted.
    pub fn is_empty(&self) -> bool {
        self.minted.is_empty()
    }
}

/// A wide record (one row of a CSV-ish import): an external key plus
/// attribute values.
#[derive(Clone, Debug)]
pub struct Record {
    /// External key of the entity this row describes.
    pub key: String,
    /// `(attribute name, value)` pairs; `None` = missing (GNF has no
    /// nulls — the fact is simply absent, §2).
    pub fields: Vec<(String, Option<Value>)>,
}

/// Ingest wide records for one concept into GNF facts: mints entities,
/// populates the concept's population relation and one binary relation
/// per attribute. Missing values produce **no** tuple (no nulls).
pub fn ingest_records(
    db: &mut Database,
    registry: &mut EntityRegistry,
    concept: &str,
    records: &[Record],
) -> RelResult<()> {
    for rec in records {
        let e = registry.entity(concept, &rec.key);
        db.insert(
            concept_population_rel(concept),
            Tuple::from(vec![e.clone()]),
        );
        for (attr, value) in &rec.fields {
            if let Some(v) = value {
                db.insert(
                    ConceptualModel::attr_relation(concept, attr),
                    Tuple::from(vec![e.clone(), v.clone()]),
                );
            }
        }
    }
    Ok(())
}

/// Link two already-minted entities through a relationship.
pub fn ingest_link(
    db: &mut Database,
    registry: &mut EntityRegistry,
    rel: &Relationship,
    from_key: &str,
    to_key: &str,
) {
    let f = registry.entity(&rel.from, from_key);
    let t = registry.entity(&rel.to, to_key);
    db.insert(&rel.name, Tuple::from(vec![f, t]));
}

/// Parse simple CSV text (header row defines attribute names; first
/// column is the external key). Values parse as int, then float, then
/// string; empty cells are missing.
pub fn parse_csv(text: &str) -> RelResult<Vec<Record>> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header: Vec<String> = lines
        .next()
        .ok_or_else(|| RelError::internal("empty CSV"))?
        .split(',')
        .map(|s| s.trim().to_string())
        .collect();
    if header.is_empty() {
        return Err(RelError::internal("CSV header has no columns"));
    }
    let mut out = Vec::new();
    for line in lines {
        let cells: Vec<&str> = line.split(',').map(str::trim).collect();
        if cells.len() != header.len() {
            return Err(RelError::internal(format!(
                "CSV row has {} cells, header has {}: {line:?}",
                cells.len(),
                header.len()
            )));
        }
        let key = cells[0].to_string();
        let fields = header[1..]
            .iter()
            .zip(&cells[1..])
            .map(|(h, c)| (h.clone(), parse_cell(c)))
            .collect();
        out.push(Record { key, fields });
    }
    Ok(out)
}

fn parse_cell(cell: &str) -> Option<Value> {
    if cell.is_empty() {
        return None;
    }
    if let Ok(i) = cell.parse::<i64>() {
        return Some(Value::Int(i));
    }
    if let Ok(f) = cell.parse::<f64>() {
        return Some(Value::float(f));
    }
    Some(Value::str(cell))
}

/// Build the full order-management knowledge graph of §2 (the paper's
/// running conceptual model) with the Figure 1 data, entity-minted.
pub fn orders_knowledge_graph() -> (ConceptualModel, Database, EntityRegistry) {
    let model = ConceptualModel::new()
        .attribute("Product", "price", true)
        .attribute("Product", "name", false)
        .attribute("Payment", "amount", true)
        .attribute("OrderLine", "quantity", true)
        .relationship("PaymentOrder", "Payment", "Order", true)
        .relationship("OrderCustomer", "Order", "Customer", true)
        .relationship("LineOrder", "OrderLine", "Order", true)
        .relationship("LineProduct", "OrderLine", "Product", true);

    let mut db = Database::new();
    let mut reg = EntityRegistry::new();
    let products = [("P1", 10), ("P2", 20), ("P3", 30), ("P4", 40)];
    for (k, price) in products {
        let recs = [Record {
            key: k.to_string(),
            fields: vec![
                ("price".into(), Some(Value::Int(price))),
                ("name".into(), Some(Value::str(format!("product {k}")))),
            ],
        }];
        ingest_records(&mut db, &mut reg, "Product", &recs).expect("ingest");
    }
    for k in ["O1", "O2", "O3"] {
        let recs = [Record { key: k.to_string(), fields: vec![] }];
        ingest_records(&mut db, &mut reg, "Order", &recs).expect("ingest");
    }
    for (k, amount) in [("Pmt1", 20), ("Pmt2", 10), ("Pmt3", 10), ("Pmt4", 90)] {
        let recs = [Record {
            key: k.to_string(),
            fields: vec![("amount".into(), Some(Value::Int(amount)))],
        }];
        ingest_records(&mut db, &mut reg, "Payment", &recs).expect("ingest");
    }
    let pay_order = model
        .relationships
        .iter()
        .find(|r| r.name == "PaymentOrder")
        .expect("declared")
        .clone();
    for (p, o) in [("Pmt1", "O1"), ("Pmt2", "O2"), ("Pmt3", "O1"), ("Pmt4", "O3")] {
        ingest_link(&mut db, &mut reg, &pay_order, p, o);
    }
    // Order lines: (order, product, quantity) of Figure 1.
    let line_order = model.relationships.iter().find(|r| r.name == "LineOrder").expect("d").clone();
    let line_product =
        model.relationships.iter().find(|r| r.name == "LineProduct").expect("d").clone();
    for (i, (o, p, q)) in [("O1", "P1", 2), ("O1", "P2", 1), ("O2", "P1", 1), ("O3", "P3", 4)]
        .iter()
        .enumerate()
    {
        let lk = format!("L{i}");
        let recs = [Record {
            key: lk.clone(),
            fields: vec![("quantity".into(), Some(Value::Int(*q)))],
        }];
        ingest_records(&mut db, &mut reg, "OrderLine", &recs).expect("ingest");
        ingest_link(&mut db, &mut reg, &line_order, &lk, o);
        ingest_link(&mut db, &mut reg, &line_product, &lk, p);
    }
    (model, db, reg)
}

/// Validate a database against a conceptual model: GNF key shapes and the
/// unique-identifier property.
pub fn validate(model: &ConceptualModel, db: &Database) -> RelResult<()> {
    model.to_schema().validate(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rel_stdlib::SessionExt;

    #[test]
    fn model_compiles_to_gnf_schema() {
        let (model, db, _) = orders_knowledge_graph();
        validate(&model, &db).expect("the orders KG is in GNF");
    }

    #[test]
    fn entity_identifiers_are_unique_across_concepts() {
        let mut reg = EntityRegistry::new();
        let p = reg.entity("Product", "X1");
        let o = reg.entity("Order", "X1"); // same external key, distinct concept
        assert_ne!(p, o);
        // Stable minting.
        assert_eq!(p, reg.entity("Product", "X1"));
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn missing_values_produce_no_tuples() {
        let mut db = Database::new();
        let mut reg = EntityRegistry::new();
        let recs = [Record {
            key: "P9".into(),
            fields: vec![("price".into(), None), ("name".into(), Some(Value::str("x")))],
        }];
        ingest_records(&mut db, &mut reg, "Product", &recs).unwrap();
        assert!(db.get("ProductPrice").is_none());
        assert_eq!(db.get("ProductName").unwrap().len(), 1);
    }

    #[test]
    fn csv_parsing() {
        let recs = parse_csv("id,price,name\nP1,10,apple\nP2,,pear\n").unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].key, "P1");
        assert_eq!(recs[0].fields[0], ("price".into(), Some(Value::Int(10))));
        assert_eq!(recs[1].fields[0], ("price".into(), None));
        assert_eq!(recs[1].fields[1], ("name".into(), Some(Value::str("pear"))));
    }

    #[test]
    fn queries_run_over_the_kg() {
        let (_, db, _) = orders_knowledge_graph();
        let s = rel_engine::Session::with_stdlib(db);
        // Total paid per order, through minted entities.
        let out = s
            .query(
                "def OrderAmount(o, a) : \
                   exists((p) | PaymentOrder(p, o) and PaymentAmount(p, a))\n\
                 def Ord(o) : OrderEntity(o)\n\
                 def output[o in Ord] : sum[OrderAmount[o]] <++ 0",
            )
            .unwrap();
        assert_eq!(out.len(), 3);
        let totals: Vec<i64> =
            out.iter().map(|t| t.values()[1].as_int().unwrap()).collect();
        let mut sorted = totals.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![10, 30, 90]);
    }

    #[test]
    fn synthesized_constraints_hold() {
        let (model, db, _) = orders_knowledge_graph();
        let ics = model.to_constraints();
        let s = rel_engine::Session::new(db).with_library(&ics);
        s.query("def output(x) : ProductPrice(x, _)").unwrap();
    }

    #[test]
    fn synthesized_constraints_catch_violations() {
        let (model, mut db, _) = orders_knowledge_graph();
        // A payment amount for a non-entity violates the domain ic.
        db.insert("PaymentAmount", Tuple::from(vec![Value::str("ghost"), Value::Int(1)]));
        let ics = model.to_constraints();
        let s = rel_engine::Session::new(db).with_library(&ics);
        let err = s.query("def output(x) : ProductPrice(x, _)").unwrap_err();
        assert!(
            matches!(err, RelError::ConstraintViolation { .. }),
            "{err}"
        );
    }

    #[test]
    fn unique_identifier_property_validated() {
        let (model, mut db, mut reg) = orders_knowledge_graph();
        // Steal a Product entity id and use it as an Order by linking a
        // *fresh* payment to it (fresh so no functional key trips first).
        let product_entity = db
            .get("ProductPrice")
            .unwrap()
            .iter()
            .next()
            .unwrap()
            .values()[0]
            .clone();
        let fresh_payment = reg.entity("Payment", "PmtX");
        db.insert(
            "PaymentAmount",
            Tuple::from(vec![fresh_payment.clone(), Value::Int(7)]),
        );
        db.insert(
            "PaymentOrder",
            Tuple::from(vec![fresh_payment, product_entity]),
        );
        let err = validate(&model, &db).unwrap_err();
        assert!(err.to_string().contains("unique identifier"), "{err}");
    }
}
