//! The store's payload formats: schemas, databases, level payloads, catalog
//! metadata and WAL batches.
//!
//! Values, typed columns, relations and the primitive reader/writers come
//! from the shared [`beas_relal::codec`], which the cluster's relation
//! frames use as well; this module composes them into the store's payloads.
//! The bytes are exactly those the store wrote when the column codec still
//! lived here (pinned by `segment_payload_bytes_are_pinned`), and
//! versioning lives in the segment envelope (see [`crate::segment`]), not
//! here.

use beas_access::{LevelMeta, LevelParts};
pub(crate) use beas_relal::codec::{
    put_bool, put_column, put_f64, put_i64, put_str, put_u32, put_u64, put_u8, put_usize,
    read_column, Reader,
};
use beas_relal::codec::{put_relation, put_value, read_relation, read_value, CodecError};
use beas_relal::schema::{Attribute, DatabaseSchema, RelationSchema};
use beas_relal::{Database, DistanceKind, Relation, Row, ValueType};

use crate::{Result, StoreError};

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Corrupt(e.0)
    }
}

// ---------------------------------------------------------------------------
// schema
// ---------------------------------------------------------------------------

fn put_value_type(buf: &mut Vec<u8>, ty: ValueType) {
    put_u8(
        buf,
        match ty {
            ValueType::Int => 0,
            ValueType::Double => 1,
            ValueType::Str => 2,
            ValueType::Bool => 3,
        },
    );
}

fn read_value_type(r: &mut Reader<'_>) -> Result<ValueType> {
    match r.u8()? {
        0 => Ok(ValueType::Int),
        1 => Ok(ValueType::Double),
        2 => Ok(ValueType::Str),
        3 => Ok(ValueType::Bool),
        other => Err(StoreError::Corrupt(format!("bad value-type tag {other}"))),
    }
}

fn put_distance(buf: &mut Vec<u8>, dk: DistanceKind) {
    match dk {
        DistanceKind::Numeric => put_u8(buf, 0),
        DistanceKind::Scaled(s) => {
            put_u8(buf, 1);
            put_u32(buf, s);
        }
        DistanceKind::Trivial => put_u8(buf, 2),
        DistanceKind::Categorical => put_u8(buf, 3),
    }
}

fn read_distance(r: &mut Reader<'_>) -> Result<DistanceKind> {
    match r.u8()? {
        0 => Ok(DistanceKind::Numeric),
        1 => Ok(DistanceKind::Scaled(r.u32()?)),
        2 => Ok(DistanceKind::Trivial),
        3 => Ok(DistanceKind::Categorical),
        other => Err(StoreError::Corrupt(format!("bad distance tag {other}"))),
    }
}

fn put_attribute(buf: &mut Vec<u8>, a: &Attribute) {
    put_str(buf, &a.name);
    put_value_type(buf, a.ty);
    put_distance(buf, a.distance);
}

fn read_attribute(r: &mut Reader<'_>) -> Result<Attribute> {
    Ok(Attribute {
        name: r.str()?,
        ty: read_value_type(r)?,
        distance: read_distance(r)?,
    })
}

fn put_relation_schema(buf: &mut Vec<u8>, rs: &RelationSchema) {
    put_str(buf, &rs.name);
    put_usize(buf, rs.attributes.len());
    for a in &rs.attributes {
        put_attribute(buf, a);
    }
}

fn read_relation_schema(r: &mut Reader<'_>) -> Result<RelationSchema> {
    let name = r.str()?;
    let n = r.len(2)?;
    let mut attributes = Vec::with_capacity(n);
    for _ in 0..n {
        attributes.push(read_attribute(r)?);
    }
    Ok(RelationSchema { name, attributes })
}

pub(crate) fn put_database_schema(buf: &mut Vec<u8>, schema: &DatabaseSchema) {
    put_usize(buf, schema.relations.len());
    for rs in &schema.relations {
        put_relation_schema(buf, rs);
    }
}

pub(crate) fn read_database_schema(r: &mut Reader<'_>) -> Result<DatabaseSchema> {
    let n = r.len(8)?;
    let mut relations = Vec::with_capacity(n);
    for _ in 0..n {
        relations.push(read_relation_schema(r)?);
    }
    Ok(DatabaseSchema { relations })
}

// ---------------------------------------------------------------------------
// databases
// ---------------------------------------------------------------------------

/// Encodes a full database: its schema followed by every relation instance
/// in schema order.
pub(crate) fn put_database(buf: &mut Vec<u8>, db: &Database) {
    put_database_schema(buf, &db.schema);
    let pairs: Vec<(&str, &Relation)> = db.iter().collect();
    put_usize(buf, pairs.len());
    for (name, rel) in pairs {
        put_str(buf, name);
        put_relation(buf, rel);
    }
}

pub(crate) fn read_database(r: &mut Reader<'_>) -> Result<Database> {
    let schema = read_database_schema(r)?;
    let mut db = Database::new(schema);
    let n = r.len(8)?;
    for _ in 0..n {
        let name = r.str()?;
        let rel = read_relation(r)?;
        db.insert_relation(&name, rel)
            .map_err(|e| StoreError::Corrupt(format!("decoded instance rejected: {e}")))?;
    }
    Ok(db)
}

// ---------------------------------------------------------------------------
// level payloads and catalog metadata
// ---------------------------------------------------------------------------

pub(crate) fn put_level_parts(buf: &mut Vec<u8>, parts: &LevelParts) {
    put_usize(buf, parts.n);
    put_usize(buf, parts.resolution.len());
    for x in &parts.resolution {
        put_f64(buf, *x);
    }
    put_usize(buf, parts.xcols.len());
    for col in &parts.xcols {
        put_column(buf, col);
    }
    put_usize(buf, parts.key_reps.len());
    for reps in &parts.key_reps {
        put_usize(buf, reps.len());
        for id in reps {
            put_u32(buf, *id);
        }
    }
    put_usize(buf, parts.ycols.len());
    for col in &parts.ycols {
        put_column(buf, col);
    }
    put_usize(buf, parts.counts.len());
    for c in &parts.counts {
        put_i64(buf, *c);
    }
    put_usize(buf, parts.sum_vals.len());
    for sums in &parts.sum_vals {
        put_usize(buf, sums.len());
        for s in sums {
            put_f64(buf, *s);
        }
    }
    put_usize(buf, parts.sum_some.len());
    for somes in &parts.sum_some {
        put_usize(buf, somes.len());
        for s in somes {
            put_bool(buf, *s);
        }
    }
}

pub(crate) fn read_level_parts(r: &mut Reader<'_>) -> Result<LevelParts> {
    let n = r.usize()?;
    let nres = r.len(8)?;
    let mut resolution = Vec::with_capacity(nres);
    for _ in 0..nres {
        resolution.push(r.f64()?);
    }
    let nx = r.len(1)?;
    let mut xcols = Vec::with_capacity(nx);
    for _ in 0..nx {
        xcols.push(read_column(r)?);
    }
    let nkeys = r.len(8)?;
    let mut key_reps = Vec::with_capacity(nkeys);
    for _ in 0..nkeys {
        let nreps = r.len(4)?;
        let mut reps = Vec::with_capacity(nreps);
        for _ in 0..nreps {
            reps.push(r.u32()?);
        }
        key_reps.push(reps);
    }
    let ny = r.len(1)?;
    let mut ycols = Vec::with_capacity(ny);
    for _ in 0..ny {
        ycols.push(read_column(r)?);
    }
    let ncounts = r.len(8)?;
    let mut counts = Vec::with_capacity(ncounts);
    for _ in 0..ncounts {
        counts.push(r.i64()?);
    }
    let nsv = r.len(8)?;
    let mut sum_vals = Vec::with_capacity(nsv);
    for _ in 0..nsv {
        let m = r.len(8)?;
        let mut sums = Vec::with_capacity(m);
        for _ in 0..m {
            sums.push(r.f64()?);
        }
        sum_vals.push(sums);
    }
    let nss = r.len(8)?;
    let mut sum_some = Vec::with_capacity(nss);
    for _ in 0..nss {
        let m = r.len(1)?;
        let mut somes = Vec::with_capacity(m);
        for _ in 0..m {
            somes.push(r.bool()?);
        }
        sum_some.push(somes);
    }
    Ok(LevelParts {
        n,
        resolution,
        xcols,
        key_reps,
        ycols,
        counts,
        sum_vals,
        sum_some,
    })
}

/// The size/shape header of one persisted level: everything a paged
/// [`beas_access::Level`] keeps resident.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LevelHeader {
    pub(crate) n: usize,
    pub(crate) resolution: Vec<f64>,
    pub(crate) meta: LevelMeta,
}

/// Catalog metadata for one persisted family: identity plus one
/// [`LevelHeader`] per level. The column payloads live in their own
/// per-level segments.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FamilyMeta {
    pub(crate) relation: String,
    pub(crate) x: Vec<String>,
    pub(crate) y: Vec<String>,
    pub(crate) from_constraint: bool,
    pub(crate) levels: Vec<LevelHeader>,
}

/// The catalog segment payload: sizing, policy, version and family headers.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CatalogMeta {
    pub(crate) db_size: usize,
    pub(crate) version: u64,
    pub(crate) min_tuples: usize,
    pub(crate) cap: Option<usize>,
    pub(crate) families: Vec<FamilyMeta>,
}

fn put_names(buf: &mut Vec<u8>, names: &[String]) {
    put_usize(buf, names.len());
    for n in names {
        put_str(buf, n);
    }
}

fn read_names(r: &mut Reader<'_>) -> Result<Vec<String>> {
    let n = r.len(8)?;
    let mut names = Vec::with_capacity(n);
    for _ in 0..n {
        names.push(r.str()?);
    }
    Ok(names)
}

pub(crate) fn put_catalog_meta(buf: &mut Vec<u8>, meta: &CatalogMeta) {
    put_usize(buf, meta.db_size);
    put_u64(buf, meta.version);
    put_usize(buf, meta.min_tuples);
    match meta.cap {
        Some(cap) => {
            put_u8(buf, 1);
            put_usize(buf, cap);
        }
        None => put_u8(buf, 0),
    }
    put_usize(buf, meta.families.len());
    for f in &meta.families {
        put_str(buf, &f.relation);
        put_names(buf, &f.x);
        put_names(buf, &f.y);
        put_bool(buf, f.from_constraint);
        put_usize(buf, f.levels.len());
        for l in &f.levels {
            put_usize(buf, l.n);
            put_usize(buf, l.resolution.len());
            for x in &l.resolution {
                put_f64(buf, *x);
            }
            put_usize(buf, l.meta.stored_tuples);
            put_usize(buf, l.meta.max_bucket_len);
        }
    }
}

pub(crate) fn read_catalog_meta(r: &mut Reader<'_>) -> Result<CatalogMeta> {
    let db_size = r.usize()?;
    let version = r.u64()?;
    let min_tuples = r.usize()?;
    let cap = match r.u8()? {
        0 => None,
        1 => Some(r.usize()?),
        other => Err(StoreError::Corrupt(format!("bad option tag {other}")))?,
    };
    let nfam = r.len(8)?;
    let mut families = Vec::with_capacity(nfam);
    for _ in 0..nfam {
        let relation = r.str()?;
        let x = read_names(r)?;
        let y = read_names(r)?;
        let from_constraint = r.bool()?;
        let nlevels = r.len(8)?;
        let mut levels = Vec::with_capacity(nlevels);
        for _ in 0..nlevels {
            let n = r.usize()?;
            let nres = r.len(8)?;
            let mut resolution = Vec::with_capacity(nres);
            for _ in 0..nres {
                resolution.push(r.f64()?);
            }
            let meta = LevelMeta {
                stored_tuples: r.usize()?,
                max_bucket_len: r.usize()?,
            };
            levels.push(LevelHeader {
                n,
                resolution,
                meta,
            });
        }
        families.push(FamilyMeta {
            relation,
            x,
            y,
            from_constraint,
            levels,
        });
    }
    Ok(CatalogMeta {
        db_size,
        version,
        min_tuples,
        cap,
        families,
    })
}

// ---------------------------------------------------------------------------
// WAL batch payloads
// ---------------------------------------------------------------------------

/// Encodes one `apply_update` batch: the `(relation, row)` inserts in
/// application order.
pub(crate) fn put_batch(buf: &mut Vec<u8>, inserts: &[(String, Row)]) {
    put_usize(buf, inserts.len());
    for (relation, row) in inserts {
        put_str(buf, relation);
        put_usize(buf, row.len());
        for v in row {
            put_value(buf, v);
        }
    }
}

pub(crate) fn read_batch(payload: &[u8]) -> Result<Vec<(String, Row)>> {
    let mut r = Reader::new(payload);
    let n = r.len(8)?;
    let mut inserts = Vec::with_capacity(n);
    for _ in 0..n {
        let relation = r.str()?;
        let arity = r.len(1)?;
        let mut row = Vec::with_capacity(arity);
        for _ in 0..arity {
            row.push(read_value(&mut r)?);
        }
        inserts.push((relation, row));
    }
    if !r.is_at_end() {
        return Err(StoreError::Corrupt(
            "trailing bytes after WAL batch payload".to_string(),
        ));
    }
    Ok(inserts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use beas_relal::Value;

    /// Every level of every family of two separate builds of one database
    /// — the `A_t` families, a constraint and an extended family, grouped by
    /// a key with many values — as the bytes a snapshot stores.
    #[test]
    fn two_builds_of_one_database_store_byte_identical_levels() {
        let schema = DatabaseSchema::new(vec![RelationSchema::new(
            "visit",
            vec![
                Attribute::categorical("city"),
                Attribute::int("stars"),
                Attribute::double("spend"),
            ],
        )]);
        let mut db = Database::new(schema);
        for i in 0..600i64 {
            let spend = if i % 17 == 0 {
                f64::NAN
            } else {
                i as f64 * 0.25
            };
            db.insert_row(
                "visit",
                vec![
                    Value::from(format!("city-{}", i * 7 % 60)),
                    Value::Int(i % 5),
                    Value::Double(spend),
                ],
            )
            .unwrap();
        }
        let level_bytes = || {
            let mut families = beas_access::build_at(&db).unwrap();
            families
                .push(beas_access::build_constraint(&db, "visit", &["city"], &["stars"]).unwrap());
            families.push(
                beas_access::build_extended(&db, "visit", &["city", "stars"], &["spend"]).unwrap(),
            );
            let mut bytes = Vec::new();
            for family in &families {
                for level in &family.levels {
                    let mut buf = Vec::new();
                    put_level_parts(&mut buf, &level.to_parts().unwrap());
                    bytes.push(buf);
                }
            }
            bytes
        };
        let (first, second) = (level_bytes(), level_bytes());
        assert_eq!(first.len(), second.len());
        for (k, (a, b)) in first.iter().zip(&second).enumerate() {
            assert!(a == b, "level {k} differs between builds");
        }
    }

    #[test]
    fn batches_round_trip() {
        let inserts = vec![
            (
                "hotel".to_string(),
                vec![Value::Int(1), Value::Double(-0.0), Value::Str("a".into())],
            ),
            ("visit".to_string(), vec![Value::Null, Value::Bool(true)]),
        ];
        let mut buf = Vec::new();
        put_batch(&mut buf, &inserts);
        let out = read_batch(&buf).expect("decode");
        assert_eq!(format!("{out:?}"), format!("{inserts:?}"));
    }

    #[test]
    fn catalog_meta_round_trips() {
        let meta = CatalogMeta {
            db_size: 1234,
            version: 7,
            min_tuples: 1,
            cap: Some(64),
            families: vec![FamilyMeta {
                relation: "hotel".into(),
                x: vec!["city".into()],
                y: vec!["price".into(), "rating".into()],
                from_constraint: true,
                levels: vec![LevelHeader {
                    n: 4,
                    resolution: vec![0.5, 0.0],
                    meta: LevelMeta {
                        stored_tuples: 17,
                        max_bucket_len: 4,
                    },
                }],
            }],
        };
        let mut buf = Vec::new();
        put_catalog_meta(&mut buf, &meta);
        let mut r = Reader::new(&buf);
        let out = read_catalog_meta(&mut r).expect("decode");
        assert!(r.is_at_end());
        assert_eq!(out, meta);
    }
}
