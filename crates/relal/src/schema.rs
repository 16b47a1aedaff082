//! Relation and database schemas.

use crate::distance::DistanceKind;
use crate::error::{RelalError, Result};
use crate::value::ValueType;

/// An attribute of a relation schema: a name, a type, and the distance
/// function used by the accuracy measure and the access schema (Sec. 2.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Attribute name (unqualified, e.g. `"price"`).
    pub name: String,
    /// Value type.
    pub ty: ValueType,
    /// Distance function for this attribute.
    pub distance: DistanceKind,
}

impl Attribute {
    /// A numeric attribute with the `|a-b|` distance.
    pub fn numeric(name: impl Into<String>, ty: ValueType) -> Self {
        Attribute {
            name: name.into(),
            ty,
            distance: DistanceKind::Numeric,
        }
    }

    /// An integer attribute with the numeric distance.
    pub fn int(name: impl Into<String>) -> Self {
        Attribute::numeric(name, ValueType::Int)
    }

    /// A double attribute with the numeric distance.
    pub fn double(name: impl Into<String>) -> Self {
        Attribute::numeric(name, ValueType::Double)
    }

    /// A numeric attribute whose distance is normalised by `scale` (typically
    /// the attribute's value range): a full-range error counts as distance 1.
    pub fn scaled(name: impl Into<String>, ty: ValueType, scale: u32) -> Self {
        Attribute {
            name: name.into(),
            ty,
            distance: DistanceKind::Scaled(scale),
        }
    }

    /// An identifier-like attribute with the trivial 0/∞ distance.
    pub fn id(name: impl Into<String>) -> Self {
        Attribute {
            name: name.into(),
            ty: ValueType::Int,
            distance: DistanceKind::Trivial,
        }
    }

    /// A string attribute with the trivial distance (e.g. addresses, names).
    pub fn text(name: impl Into<String>) -> Self {
        Attribute {
            name: name.into(),
            ty: ValueType::Str,
            distance: DistanceKind::Trivial,
        }
    }

    /// A categorical string attribute with the 0/1 distance.
    pub fn categorical(name: impl Into<String>) -> Self {
        Attribute {
            name: name.into(),
            ty: ValueType::Str,
            distance: DistanceKind::Categorical,
        }
    }
}

/// The schema of a single relation: a name plus an ordered list of attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationSchema {
    /// Relation name.
    pub name: String,
    /// Attributes in column order.
    pub attributes: Vec<Attribute>,
}

impl RelationSchema {
    /// Creates a schema from a name and attributes.
    pub fn new(name: impl Into<String>, attributes: Vec<Attribute>) -> Self {
        RelationSchema {
            name: name.into(),
            attributes,
        }
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attributes.len()
    }

    /// Position of the attribute with the given name.
    pub fn attr_index(&self, name: &str) -> Result<usize> {
        self.attributes
            .iter()
            .position(|a| a.name == name)
            .ok_or_else(|| RelalError::UnknownColumn(format!("{}.{}", self.name, name)))
    }

    /// The attribute with the given name.
    pub fn attribute(&self, name: &str) -> Result<&Attribute> {
        self.attr_index(name).map(|i| &self.attributes[i])
    }

    /// Attribute names in column order.
    pub fn attr_names(&self) -> Vec<String> {
        self.attributes.iter().map(|a| a.name.clone()).collect()
    }

    /// Distance kinds in column order.
    pub fn distance_kinds(&self) -> Vec<DistanceKind> {
        self.attributes.iter().map(|a| a.distance).collect()
    }
}

/// A database schema: a collection of relation schemas (Sec. 2.1).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DatabaseSchema {
    /// Relation schemas, looked up by name.
    pub relations: Vec<RelationSchema>,
}

impl DatabaseSchema {
    /// Creates a database schema from relation schemas.
    pub fn new(relations: Vec<RelationSchema>) -> Self {
        DatabaseSchema { relations }
    }

    /// Looks up a relation schema by name.
    pub fn relation(&self, name: &str) -> Result<&RelationSchema> {
        self.relations
            .iter()
            .find(|r| r.name == name)
            .ok_or_else(|| RelalError::UnknownRelation(name.to_string()))
    }

    /// Returns `true` if the schema contains a relation with the given name.
    pub fn contains(&self, name: &str) -> bool {
        self.relations.iter().any(|r| r.name == name)
    }

    /// Adds (or replaces) a relation schema.
    pub fn add_relation(&mut self, schema: RelationSchema) {
        if let Some(existing) = self.relations.iter_mut().find(|r| r.name == schema.name) {
            *existing = schema;
        } else {
            self.relations.push(schema);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poi_schema() -> RelationSchema {
        RelationSchema::new(
            "poi",
            vec![
                Attribute::text("address"),
                Attribute::categorical("type"),
                Attribute::text("city"),
                Attribute::double("price"),
            ],
        )
    }

    #[test]
    fn attr_index_finds_positions() {
        let s = poi_schema();
        assert_eq!(s.attr_index("address").unwrap(), 0);
        assert_eq!(s.attr_index("price").unwrap(), 3);
        assert!(s.attr_index("missing").is_err());
    }

    #[test]
    fn attribute_lookup_returns_distance_kind() {
        let s = poi_schema();
        assert_eq!(
            s.attribute("price").unwrap().distance,
            DistanceKind::Numeric
        );
        assert_eq!(
            s.attribute("type").unwrap().distance,
            DistanceKind::Categorical
        );
        assert_eq!(s.attribute("city").unwrap().distance, DistanceKind::Trivial);
    }

    #[test]
    fn database_schema_lookup_and_contains() {
        let db = DatabaseSchema::new(vec![poi_schema()]);
        assert!(db.contains("poi"));
        assert!(!db.contains("person"));
        assert_eq!(db.relation("poi").unwrap().arity(), 4);
        assert!(db.relation("person").is_err());
    }

    #[test]
    fn add_relation_replaces_existing_schema() {
        let mut db = DatabaseSchema::default();
        db.add_relation(poi_schema());
        assert_eq!(db.relation("poi").unwrap().arity(), 4);
        db.add_relation(RelationSchema::new("poi", vec![Attribute::id("address")]));
        assert_eq!(db.relation("poi").unwrap().arity(), 1);
        assert_eq!(db.relations.len(), 1);
    }

    #[test]
    fn attr_names_and_distance_kinds_align() {
        let s = poi_schema();
        assert_eq!(s.attr_names(), vec!["address", "type", "city", "price"]);
        assert_eq!(s.distance_kinds().len(), s.arity());
    }

    #[test]
    fn attribute_constructors_set_expected_kinds() {
        assert_eq!(Attribute::id("pid").distance, DistanceKind::Trivial);
        assert_eq!(Attribute::int("n").distance, DistanceKind::Numeric);
        assert_eq!(Attribute::int("n").ty, ValueType::Int);
        assert_eq!(Attribute::double("x").ty, ValueType::Double);
        assert_eq!(Attribute::text("addr").ty, ValueType::Str);
    }
}
