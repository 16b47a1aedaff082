//! Construction of access schemas from data.
//!
//! * [`build_at`] builds the canonical access schema `A_t` of Theorem 1(1):
//!   one multi-level `R(∅ → attr(R), 2^k, d̄_k)` family per relation.
//! * [`build_constraint`] builds an access *constraint* `R(X → Y, N, 0̄)` —
//!   the exact indices of \[11, 23\] used for boundedly evaluable (sub)queries.
//! * [`build_extended`] builds the extended families
//!   `R(X → Y, 2^i, d̄_i)` the experiments derive from each access constraint
//!   (Sec. 8 "Access schema": `R(XY → Z, 2^i, d̄_i)`).
//!
//! All builders are *data driven*: they scan the instance once, group tuples
//! by their X-value and run the multi-resolution partitioning of
//! [`crate::kdtree`] per group, so that the resulting index provably conforms
//! to every template it serves (`D |= ψ`).

use beas_relal::{Database, DistanceKind, FxHashMap, Value};

use crate::error::{AccessError, Result};
use crate::family::{Level, Rep, TemplateFamily};
use crate::kdtree::{multilevel_partition_threaded, LevelReps};
use crate::par::par_map;

/// Builds the canonical access schema `A_t`: for every relation `R` of the
/// database, a family `R(∅ → attr(R), 2^k, d̄_k)` with `k = 0..M_R`, built
/// until the partition is exact (the paper's `M_R = ⌈log₂|D_R|⌉` levels).
pub fn build_at(db: &Database) -> Result<Vec<TemplateFamily>> {
    build_at_threaded(db, 1)
}

/// [`build_at`] with the per-relation K-D tree builds spread over up to
/// `threads` scoped threads. The resulting families are byte-identical to the
/// sequential build (see [`multilevel_partition_threaded`]).
pub fn build_at_threaded(db: &Database, threads: usize) -> Result<Vec<TemplateFamily>> {
    let mut families = Vec::new();
    for rel_schema in &db.schema.relations {
        let attrs: Vec<&str> = rel_schema
            .attributes
            .iter()
            .map(|a| a.name.as_str())
            .collect();
        let mut family = build_family(db, &rel_schema.name, &[], &attrs, threads)?;
        family.from_constraint = false;
        families.push(family);
    }
    Ok(families)
}

/// Builds an access constraint `R(X → Y, N, 0̄)`: for each X-value the index
/// returns all distinct Y-values exactly. `N` is the largest group size found
/// in the data.
pub fn build_constraint(
    db: &Database,
    relation: &str,
    x_attrs: &[&str],
    y_attrs: &[&str],
) -> Result<TemplateFamily> {
    let (x_idx, _) = resolve_attrs(db, relation, x_attrs)?;
    let (y_idx, _) = resolve_attrs(db, relation, y_attrs)?;
    let rel = db.relation(relation)?;

    // X-value → Y-value → (multiplicity, per-attribute sums)
    type GroupStats = FxHashMap<Vec<Value>, (u64, Vec<Option<f64>>)>;
    let mut buckets: FxHashMap<Vec<Value>, GroupStats> = FxHashMap::default();
    for r in 0..rel.len() {
        let key: Vec<Value> = x_idx.iter().map(|&i| rel.value_at(r, i)).collect();
        let yval: Vec<Value> = y_idx.iter().map(|&i| rel.value_at(r, i)).collect();
        let entry = buckets.entry(key).or_default();
        let stats = entry.entry(yval.clone()).or_insert_with(|| {
            (
                0,
                yval.iter().map(|_| Some(0.0)).collect::<Vec<Option<f64>>>(),
            )
        });
        stats.0 += 1;
        for (j, v) in yval.iter().enumerate() {
            match (v.as_f64(), &mut stats.1[j]) {
                (Some(x), Some(acc)) => *acc += x,
                (None, s) => *s = None,
                _ => {}
            }
        }
    }

    let mut out_buckets: FxHashMap<Vec<Value>, Vec<Rep>> = FxHashMap::default();
    let mut max_group = 0usize;
    for (key, group) in buckets {
        let mut reps: Vec<Rep> = group
            .into_iter()
            .map(|(values, (count, sums))| Rep {
                values,
                count,
                sums,
            })
            .collect();
        reps.sort_by(|a, b| a.values.cmp(&b.values));
        max_group = max_group.max(reps.len());
        out_buckets.insert(key, reps);
    }

    Ok(TemplateFamily {
        relation: relation.to_string(),
        x: x_attrs.iter().map(|s| s.to_string()).collect(),
        y: y_attrs.iter().map(|s| s.to_string()).collect(),
        levels: vec![Level::from_buckets(
            max_group.max(1),
            vec![0.0; y_attrs.len()],
            x_attrs.len(),
            out_buckets,
        )],
        from_constraint: true,
    })
}

/// Builds an extended multi-level family `R(X → Y, 2^i, d̄_i)`: for each
/// X-value, the Y-values are partitioned at multiple resolutions (one K-D tree
/// per group). The experiments build these from each access constraint
/// `R(X → Y', N, 0)` with `X := X ∪ Y'` and `Y :=` the remaining attributes.
pub fn build_extended(
    db: &Database,
    relation: &str,
    x_attrs: &[&str],
    y_attrs: &[&str],
) -> Result<TemplateFamily> {
    build_family(db, relation, x_attrs, y_attrs, 1)
}

/// [`build_extended`] with the per-group K-D tree builds spread over up to
/// `threads` scoped threads; byte-identical to the sequential build.
pub fn build_extended_threaded(
    db: &Database,
    relation: &str,
    x_attrs: &[&str],
    y_attrs: &[&str],
    threads: usize,
) -> Result<TemplateFamily> {
    build_family(db, relation, x_attrs, y_attrs, threads)
}

/// Shared implementation: groups rows by X and partitions each group's
/// Y-projection at multiple resolutions.
///
/// Parallelism splits two ways, keyed to the family's shape: when there are
/// many X-groups (extended templates), the groups themselves run across
/// threads with sequential trees; when there are few large groups (the `A_t`
/// whole-relation families have exactly one), each tree's own levels run
/// threaded instead. Level assembly then fans the per-level representative
/// tables out across threads. Every step preserves order, so the family is
/// identical for any thread count.
fn build_family(
    db: &Database,
    relation: &str,
    x_attrs: &[&str],
    y_attrs: &[&str],
    threads: usize,
) -> Result<TemplateFamily> {
    let (x_idx, _) = resolve_attrs(db, relation, x_attrs)?;
    let (y_idx, y_dists) = resolve_attrs(db, relation, y_attrs)?;
    if y_attrs.is_empty() {
        return Err(AccessError::InvalidTemplate(format!(
            "template on {relation} with empty Y"
        )));
    }
    let rel = db.relation(relation)?;

    // group Y-projections by X-value (gathered straight off the columns)
    let mut groups: FxHashMap<Vec<Value>, Vec<Vec<Value>>> = FxHashMap::default();
    for r in 0..rel.len() {
        let key: Vec<Value> = x_idx.iter().map(|&i| rel.value_at(r, i)).collect();
        let yval: Vec<Value> = y_idx.iter().map(|&i| rel.value_at(r, i)).collect();
        groups.entry(key).or_default().push(yval);
    }
    if groups.is_empty() {
        // an empty relation still conforms trivially: one empty, exact level
        return Ok(TemplateFamily {
            relation: relation.to_string(),
            x: x_attrs.iter().map(|s| s.to_string()).collect(),
            y: y_attrs.iter().map(|s| s.to_string()).collect(),
            levels: vec![Level::new(0, vec![0.0; y_attrs.len()], x_attrs.len())],
            from_constraint: false,
        });
    }

    // partition each group: across threads when groups are plentiful, with
    // threaded trees when one big group (the A_t shape) dominates
    let group_vec: Vec<(Vec<Value>, Vec<Vec<Value>>)> = groups.into_iter().collect();
    let inner_threads = (threads / group_vec.len().max(1)).max(1);
    let partitions: Vec<(Vec<Value>, Vec<LevelReps>)> =
        par_map(group_vec, threads, |(key, tuples)| {
            let levels = multilevel_partition_threaded(&tuples, &y_dists, inner_threads);
            (key, levels)
        });

    let num_levels = partitions
        .iter()
        .map(|(_, levels)| levels.len())
        .max()
        .unwrap_or(1);

    // per-level representative tables are independent — assemble them across
    // threads too
    let levels = par_map((0..num_levels).collect(), threads, |k| {
        let mut buckets: FxHashMap<Vec<Value>, Vec<Rep>> = FxHashMap::default();
        let mut resolution = vec![0.0f64; y_attrs.len()];
        let mut n = 0usize;
        for (key, group_levels) in &partitions {
            // groups that became exact earlier keep serving their exact reps
            let use_level = k.min(group_levels.len() - 1);
            let lr = &group_levels[use_level];
            n = n.max(lr.reps.len());
            for (j, r) in lr.resolution.iter().enumerate() {
                if *r > resolution[j] {
                    resolution[j] = *r;
                }
            }
            buckets.insert(key.clone(), lr.reps.clone());
        }
        Level::from_buckets(n.max(1), resolution, x_attrs.len(), buckets)
    });

    Ok(TemplateFamily {
        relation: relation.to_string(),
        x: x_attrs.iter().map(|s| s.to_string()).collect(),
        y: y_attrs.iter().map(|s| s.to_string()).collect(),
        levels,
        from_constraint: false,
    })
}

/// Resolves attribute names to column indices and distance kinds.
fn resolve_attrs(
    db: &Database,
    relation: &str,
    attrs: &[&str],
) -> Result<(Vec<usize>, Vec<DistanceKind>)> {
    let schema = db.schema.relation(relation)?;
    let mut idx = Vec::with_capacity(attrs.len());
    let mut dists = Vec::with_capacity(attrs.len());
    for a in attrs {
        let i = schema.attr_index(a)?;
        idx.push(i);
        dists.push(schema.attributes[i].distance);
    }
    Ok((idx, dists))
}

#[cfg(test)]
mod tests {
    use super::*;
    use beas_relal::{Attribute, DatabaseSchema, RelationSchema};

    fn poi_db(n: usize) -> Database {
        let schema = DatabaseSchema::new(vec![RelationSchema::new(
            "poi",
            vec![
                Attribute::text("address"),
                Attribute::categorical("type"),
                Attribute::text("city"),
                Attribute::double("price"),
            ],
        )]);
        let mut db = Database::new(schema);
        for i in 0..n {
            let city = if i % 2 == 0 { "NYC" } else { "Chicago" };
            let ty = if i % 3 == 0 { "hotel" } else { "museum" };
            db.insert_row(
                "poi",
                vec![
                    Value::from(format!("addr{i}")),
                    Value::from(ty),
                    Value::from(city),
                    Value::Double(50.0 + (i as f64) * 3.0),
                ],
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn build_at_creates_one_family_per_relation() {
        let db = poi_db(40);
        let families = build_at(&db).unwrap();
        assert_eq!(families.len(), 1);
        let f = &families[0];
        assert!(f.is_full_relation());
        assert_eq!(f.y.len(), 4);
        // deepest level is exact and enumerates all distinct tuples
        let last = f.levels.last().unwrap();
        assert!(last.is_exact());
        assert_eq!(last.stored_tuples(), 40);
        // total index size is a small multiple of |D_R| (the paper bounds it
        // by ~2|D_R| for perfectly binary levels; our last level can repeat
        // the full relation once more)
        assert!(f.stored_tuples() <= 3 * 40 + f.num_levels());
    }

    #[test]
    fn constraint_returns_exact_groups() {
        let db = poi_db(30);
        let f = build_constraint(&db, "poi", &["city"], &["type"]).unwrap();
        assert!(f.is_constraint());
        assert!(f.from_constraint);
        // looking up NYC returns the distinct types among NYC POIs
        let reps = f.lookup(0, &[Value::from("NYC")]).unwrap();
        assert!(!reps.is_empty() && reps.len() <= 2);
        let total: u64 = reps.iter().map(|r| r.count).sum();
        assert_eq!(total, 15, "counts aggregate all represented tuples");
    }

    #[test]
    fn constraint_n_is_max_group_size() {
        let db = poi_db(30);
        let f = build_constraint(&db, "poi", &["type"], &["city", "price"]).unwrap();
        let max_bucket = f.levels[0].max_bucket_len();
        assert_eq!(f.levels[0].n, max_bucket);
    }

    #[test]
    fn extended_family_levels_conform_per_group() {
        let db = poi_db(60);
        let f = build_extended(&db, "poi", &["type", "city"], &["price", "address"]).unwrap();
        assert!(f.num_levels() > 1);
        // conformance: for a given key, every real (price,address) is within
        // the level resolution of some representative
        let schema = db.schema.relation("poi").unwrap();
        let (price_i, addr_i, type_i, city_i) = (
            schema.attr_index("price").unwrap(),
            schema.attr_index("address").unwrap(),
            schema.attr_index("type").unwrap(),
            schema.attr_index("city").unwrap(),
        );
        let key = vec![Value::from("hotel"), Value::from("NYC")];
        for (k, level) in f.levels.iter().enumerate() {
            let reps = f.lookup(k, &key).unwrap();
            for row in db.relation("poi").unwrap().rows() {
                if row[type_i] == key[0] && row[city_i] == key[1] {
                    let covered = reps.iter().any(|r| {
                        (r.values[0].as_f64().unwrap() - row[price_i].as_f64().unwrap()).abs()
                            <= level.resolution[0] + 1e-9
                            && (r.values[1] == row[addr_i] || level.resolution[1].is_infinite())
                    });
                    assert!(covered, "level {k} does not cover a hotel/NYC tuple");
                }
            }
        }
    }

    #[test]
    fn extended_family_resolution_shrinks_with_level() {
        let db = poi_db(120);
        let f = build_extended(&db, "poi", &["city"], &["price"]).unwrap();
        let first = f.levels[0].max_resolution();
        let last = f.levels.last().unwrap().max_resolution();
        assert!(first > 0.0);
        assert_eq!(last, 0.0);
    }

    #[test]
    fn empty_relation_builds_trivial_family() {
        let db = poi_db(0);
        let f = build_extended(&db, "poi", &["city"], &["price"]).unwrap();
        assert_eq!(f.num_levels(), 1);
        assert_eq!(f.levels[0].stored_tuples(), 0);
        let at = build_at(&db).unwrap();
        assert_eq!(at[0].levels[0].stored_tuples(), 0);
    }

    #[test]
    fn threaded_builds_are_identical_to_sequential() {
        let db = poi_db(150);
        let seq_at = build_at(&db).unwrap();
        let seq_ext = build_extended(&db, "poi", &["type", "city"], &["price", "address"]).unwrap();
        for threads in [2, 4, 16] {
            let par_at = build_at_threaded(&db, threads).unwrap();
            assert_eq!(par_at, seq_at, "A_t differs at {threads} threads");
            let par_ext = build_extended_threaded(
                &db,
                "poi",
                &["type", "city"],
                &["price", "address"],
                threads,
            )
            .unwrap();
            assert_eq!(
                par_ext, seq_ext,
                "extended family differs at {threads} threads"
            );
        }
    }

    #[test]
    fn unknown_relation_or_attribute_errors() {
        let db = poi_db(5);
        assert!(build_constraint(&db, "nope", &["a"], &["b"]).is_err());
        assert!(build_constraint(&db, "poi", &["city"], &["nope"]).is_err());
        assert!(build_extended(&db, "poi", &["city"], &[]).is_err());
    }
}
