//! Access-template families: the physical representation of access templates
//! and access constraints (Sec. 2.1 and Sec. 4.1).
//!
//! A [`TemplateFamily`] materialises a whole group of access templates
//! `ψ_0, ψ_1, …, ψ_M` over the same `R(X → Y)` pair that differ only in their
//! cardinality bound `N = 2^k` and resolution `d̄_k`; the paper stores these in
//! a single table `T_R(I, attr(R))`. Level `k` of a family holds, for every
//! X-value, at most `2^k` representative Y-tuples together with the level's
//! resolution. The deepest level is always exact (resolution `0̄`), so every
//! family degenerates to an access constraint when enough budget is available
//! — this is what lets BEAS return exact answers for boundedly evaluable
//! queries.
//!
//! # Columnar level format
//!
//! A [`Level`] stores its data column-oriented, exactly like a
//! [`Relation`]: one typed [`Column`] per X attribute (one row per distinct
//! X-key, interned once) and one typed [`Column`] per Y attribute (one row
//! per representative), with representative multiplicities and per-attribute
//! sums in parallel plain vectors. A hash index maps each X-key to its *slot*
//! and each slot to the ids of its representatives, in insertion order.
//! Strings live in per-column dictionaries, so
//! [`TemplateFamily::materialize`] is a pure gather: the output columns are
//! built by copying codes/raw slices out of the level columns (dictionaries
//! are shared by `Arc`), with no per-value [`Value`] conversion on the fetch
//! path. [`Rep`] remains the row-shaped conversion boundary used by builders
//! and tests.

use std::cmp::Ordering;
use std::sync::{Arc, OnceLock};

use beas_relal::{Column, DistanceKind, FxHashMap, Relation, Value};

use crate::error::{AccessError, Result};

/// Identifier of a template family within a [`Catalog`](crate::Catalog).
pub type FamilyId = usize;

/// Name of the synthetic weight column appended by `fetch`: the number of
/// real tuples represented by each returned representative (Sec. 7 extension
/// for sum/count/avg).
pub const WEIGHT_COLUMN: &str = "__weight";

/// A representative Y-tuple of an index level, in row form — the conversion
/// boundary of the columnar level storage, used when building levels and
/// inspecting them ([`TemplateFamily::lookup`]); fetches bypass it entirely.
///
/// Equality compares `sums` by bit pattern, so a representative summing a
/// NaN equals its copy.
#[derive(Debug, Clone)]
pub struct Rep {
    /// The representative's Y-values.
    pub values: Vec<Value>,
    /// Number of real tuples (bag semantics) represented.
    pub count: u64,
    /// Per-Y-attribute sums of the represented tuples (for numeric
    /// attributes), enabling exact `sum`/`avg` over groups of represented
    /// tuples.
    pub sums: Vec<Option<f64>>,
}

impl PartialEq for Rep {
    fn eq(&self, other: &Self) -> bool {
        let bits =
            |sums: &[Option<f64>]| sums.iter().map(|s| s.map(f64::to_bits)).collect::<Vec<_>>();
        self.values == other.values
            && self.count == other.count
            && bits(&self.sums) == bits(&other.sums)
    }
}

/// One resolution level of a template family, stored column-oriented (see
/// the [module docs](self) for the format).
///
/// The cardinality bound and resolution are always resident (the planner
/// consults them on every request); the column payload itself lives in a
/// private `LevelStore` that is either resident in memory or *paged*: backed by a
/// [`LevelPager`] (an on-disk segment in `beas-store`) and loaded lazily the
/// first time a fetch actually touches the level. Planning, budgeting and
/// size accounting never trigger a page-in — only [`TemplateFamily::materialize`]
/// (and the inspection/maintenance paths) do, which is what makes the budget
/// an I/O bound for tiered storage: fine levels are read from disk only when
/// the `ResourceSpec` affords reaching them.
#[derive(Debug, Clone)]
pub struct Level {
    /// The cardinality bound `N`: the maximum number of representatives
    /// returned for any X-value at this level.
    pub n: usize,
    /// Per-Y-attribute resolution `d̄_Y`.
    pub resolution: Vec<f64>,
    /// The column payload: resident, or paged in lazily from a segment.
    store: LevelStore,
}

/// The resident column payload of a [`Level`].
#[derive(Debug, Clone)]
struct LevelData {
    /// X-value → slot (fast-hashed: lookups are the hot path of every
    /// fetch).
    index: FxHashMap<Vec<Value>, u32>,
    /// One typed column per X attribute; row `s` holds the X-key of slot `s`.
    xcols: Vec<Column>,
    /// Slot → representative ids, in per-key insertion order.
    key_reps: Vec<Vec<u32>>,
    /// One typed column per Y attribute; row `i` holds representative `i`'s
    /// value.
    ycols: Vec<Column>,
    /// Representative multiplicities (stored as `i64`: the weight column is
    /// copied out of this vector verbatim).
    counts: Vec<i64>,
    /// Per-Y-attribute running sums, parallel to `ycols` rows.
    sum_vals: Vec<Vec<f64>>,
    /// Validity of each running sum (`false` once a non-numeric value was
    /// absorbed).
    sum_some: Vec<Vec<bool>>,
}

/// Where a level's column payload lives.
#[derive(Debug)]
enum LevelStore {
    /// Fully in memory.
    Resident(LevelData),
    /// Backed by a [`LevelPager`]; loaded at most once into `cell` on first
    /// touch. The meta fields answer size queries without a page-in.
    Paged {
        meta: LevelMeta,
        pager: Arc<dyn LevelPager>,
        family: usize,
        level: usize,
        cell: OnceLock<LevelData>,
    },
}

impl Clone for LevelStore {
    fn clone(&self) -> Self {
        match self {
            LevelStore::Resident(data) => LevelStore::Resident(data.clone()),
            LevelStore::Paged {
                meta,
                pager,
                family,
                level,
                cell,
            } => {
                let cloned = OnceLock::new();
                if let Some(data) = cell.get() {
                    let _ = cloned.set(data.clone());
                }
                LevelStore::Paged {
                    meta: *meta,
                    pager: Arc::clone(pager),
                    family: *family,
                    level: *level,
                    cell: cloned,
                }
            }
        }
    }
}

/// Size metadata of a paged level, answered without touching its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LevelMeta {
    /// Representative tuples stored at the level.
    pub stored_tuples: usize,
    /// Largest representative count under any single X-key.
    pub max_bucket_len: usize,
}

/// The full column payload of a [`Level`] in exchange form: the physical
/// layout (slot order, representative id order) is preserved exactly, so a
/// level round-tripped through [`Level::to_parts`] / [`Level::from_parts`]
/// materialises bit-for-bit identical relations. This is the unit a storage
/// backend serialises.
#[derive(Debug, Clone)]
pub struct LevelParts {
    /// The cardinality bound `N`.
    pub n: usize,
    /// Per-Y-attribute resolution `d̄_Y`.
    pub resolution: Vec<f64>,
    /// One typed column per X attribute (row `s` = X-key of slot `s`).
    pub xcols: Vec<Column>,
    /// Slot → representative ids, in per-key insertion order.
    pub key_reps: Vec<Vec<u32>>,
    /// One typed column per Y attribute (row `i` = representative `i`).
    pub ycols: Vec<Column>,
    /// Representative multiplicities.
    pub counts: Vec<i64>,
    /// Per-Y-attribute running sums, parallel to `ycols` rows.
    pub sum_vals: Vec<Vec<f64>>,
    /// Validity of each running sum.
    pub sum_some: Vec<Vec<bool>>,
}

/// Loads the column payload of paged levels on first touch — implemented by
/// the segment reader of `beas-store`. Implementations count page-ins
/// themselves (the trait is called exactly once per level load per engine
/// snapshot lineage).
pub trait LevelPager: Send + Sync + std::fmt::Debug {
    /// Loads the payload of level `level` of family `family`.
    fn load_level(&self, family: usize, level: usize) -> Result<LevelParts>;
}

/// `dis(column[id], v)` under `dk`, without materialising the column value:
/// equality is decided by [`Column::cmp_value`] (the total order of
/// [`Value`], hence exactly `DistanceKind::distance`'s equality test) and the
/// non-equal branch reads raw floats.
fn distance_at(col: &Column, id: usize, v: &Value, dk: DistanceKind) -> f64 {
    if col.cmp_value(id, v) == Ordering::Equal {
        return 0.0;
    }
    match (col.f64_at(id), v.as_f64()) {
        (Some(x), Some(y)) => dk.numeric_gap(x, y),
        _ => match dk {
            DistanceKind::Categorical => 1.0,
            _ => f64::INFINITY,
        },
    }
}

impl LevelData {
    /// An empty payload for the given arities.
    fn empty(x_arity: usize, y_arity: usize) -> LevelData {
        LevelData {
            index: FxHashMap::default(),
            xcols: vec![Column::untyped(); x_arity],
            key_reps: Vec::new(),
            ycols: vec![Column::untyped(); y_arity],
            counts: Vec::new(),
            sum_vals: vec![Vec::new(); y_arity],
            sum_some: vec![Vec::new(); y_arity],
        }
    }

    /// Reassembles a payload from exchange form, rebuilding the hash index
    /// from the X columns (the index is never serialised). Slot and
    /// representative id order are taken as-is, preserving the physical
    /// layout exactly.
    fn from_parts(parts: LevelParts) -> LevelData {
        let LevelParts {
            xcols,
            key_reps,
            ycols,
            counts,
            sum_vals,
            sum_some,
            ..
        } = parts;
        let mut index = FxHashMap::default();
        for slot in 0..key_reps.len() {
            let key: Vec<Value> = xcols.iter().map(|c| c.value(slot)).collect();
            index.insert(key, slot as u32);
        }
        LevelData {
            index,
            xcols,
            key_reps,
            ycols,
            counts,
            sum_vals,
            sum_some,
        }
    }

    /// Registers a new X-key, returning its slot.
    fn insert_key(&mut self, key: Vec<Value>) -> usize {
        debug_assert_eq!(key.len(), self.xcols.len());
        debug_assert!(!self.index.contains_key(&key));
        let slot = self.key_reps.len();
        for (col, v) in self.xcols.iter_mut().zip(&key) {
            col.push_ref(v);
        }
        self.key_reps.push(Vec::new());
        self.index.insert(key, slot as u32);
        slot
    }

    /// Appends one representative under `slot`.
    fn push_rep(&mut self, slot: usize, rep: Rep) {
        debug_assert_eq!(rep.values.len(), self.ycols.len());
        debug_assert_eq!(rep.sums.len(), self.ycols.len());
        let id = self.counts.len() as u32;
        for (j, v) in rep.values.iter().enumerate() {
            self.ycols[j].push_ref(v);
            match rep.sums[j] {
                Some(s) => {
                    self.sum_vals[j].push(s);
                    self.sum_some[j].push(true);
                }
                None => {
                    self.sum_vals[j].push(0.0);
                    self.sum_some[j].push(false);
                }
            }
        }
        self.counts.push(rep.count as i64);
        self.key_reps[slot].push(id);
    }

    /// Reconstructs representative `id` in row form.
    fn rep_at(&self, id: usize) -> Rep {
        Rep {
            values: self.ycols.iter().map(|c| c.value(id)).collect(),
            count: self.counts[id] as u64,
            sums: (0..self.ycols.len())
                .map(|j| self.sum_some[j][id].then_some(self.sum_vals[j][id]))
                .collect(),
        }
    }
}

impl Level {
    /// An empty level with the given cardinality bound, resolution vector
    /// (one entry per Y attribute) and X arity.
    pub fn new(n: usize, resolution: Vec<f64>, x_arity: usize) -> Level {
        let y_arity = resolution.len();
        Level {
            n,
            resolution,
            store: LevelStore::Resident(LevelData::empty(x_arity, y_arity)),
        }
    }

    /// A paged level: the bound, resolution and size metadata are resident,
    /// the column payload is loaded from `pager` on first touch (as level
    /// `level` of family `family`).
    pub fn paged(
        n: usize,
        resolution: Vec<f64>,
        meta: LevelMeta,
        pager: Arc<dyn LevelPager>,
        family: usize,
        level: usize,
    ) -> Level {
        Level {
            n,
            resolution,
            store: LevelStore::Paged {
                meta,
                pager,
                family,
                level,
                cell: OnceLock::new(),
            },
        }
    }

    /// Rebuilds a resident level from exchange form, preserving the physical
    /// layout exactly (see [`LevelParts`]).
    pub fn from_parts(parts: LevelParts) -> Level {
        let n = parts.n;
        let resolution = parts.resolution.clone();
        Level {
            n,
            resolution,
            store: LevelStore::Resident(LevelData::from_parts(parts)),
        }
    }

    /// The level's payload in exchange form (cloned). Forces a page-in when
    /// the level is paged; fails only on a storage error.
    pub fn to_parts(&self) -> Result<LevelParts> {
        let data = self.data()?;
        Ok(LevelParts {
            n: self.n,
            resolution: self.resolution.clone(),
            xcols: data.xcols.clone(),
            key_reps: data.key_reps.clone(),
            ycols: data.ycols.clone(),
            counts: data.counts.clone(),
            sum_vals: data.sum_vals.clone(),
            sum_some: data.sum_some.clone(),
        })
    }

    /// `true` when the column payload is in memory (resident, or paged and
    /// already loaded).
    pub fn is_resident(&self) -> bool {
        match &self.store {
            LevelStore::Resident(_) => true,
            LevelStore::Paged { cell, .. } => cell.get().is_some(),
        }
    }

    /// The payload, paging it in if needed. The only fallible step is the
    /// pager read; resident levels never fail.
    fn data(&self) -> Result<&LevelData> {
        match &self.store {
            LevelStore::Resident(data) => Ok(data),
            LevelStore::Paged {
                meta,
                pager,
                family,
                level,
                cell,
            } => {
                if let Some(data) = cell.get() {
                    return Ok(data);
                }
                let parts = pager.load_level(*family, *level)?;
                let data = LevelData::from_parts(parts);
                if data.counts.len() != meta.stored_tuples {
                    return Err(AccessError::Storage(format!(
                        "paged level {level} of family {family} holds {} tuples, \
                         catalog metadata expects {}",
                        data.counts.len(),
                        meta.stored_tuples
                    )));
                }
                // a concurrent loader may have won the race; both loads are
                // identical, so whichever lands in the cell is correct
                Ok(cell.get_or_init(|| data))
            }
        }
    }

    /// The payload for infallible inspection paths (`reps_for`, equality):
    /// a failed page-in is unrecoverable there and panics.
    fn force(&self) -> &LevelData {
        self.data()
            .expect("paged level payload could not be loaded from its segment")
    }

    /// Makes the level resident for mutation (maintenance absorbs write
    /// through the resident payload).
    fn ensure_resident(&mut self) {
        if let LevelStore::Paged { .. } = self.store {
            let data = self.force().clone();
            self.store = LevelStore::Resident(data);
        }
    }

    /// The resident payload for mutation, paging in first when needed.
    fn data_mut(&mut self) -> &mut LevelData {
        self.ensure_resident();
        match &mut self.store {
            LevelStore::Resident(data) => data,
            LevelStore::Paged { .. } => unreachable!("ensure_resident left the level paged"),
        }
    }

    /// Builds a level from row-shaped buckets (X-value → representatives),
    /// the exchange format produced by the index builders. Per-key
    /// representative order is preserved.
    pub fn from_buckets(
        n: usize,
        resolution: Vec<f64>,
        x_arity: usize,
        buckets: FxHashMap<Vec<Value>, Vec<Rep>>,
    ) -> Level {
        let mut level = Level::new(n, resolution, x_arity);
        for (key, reps) in buckets {
            let slot = level.insert_key(key);
            for rep in reps {
                level.push_rep(slot, rep);
            }
        }
        level
    }

    /// Registers a new X-key, returning its slot.
    fn insert_key(&mut self, key: Vec<Value>) -> usize {
        self.data_mut().insert_key(key)
    }

    /// Appends one representative under `slot`.
    fn push_rep(&mut self, slot: usize, rep: Rep) {
        self.data_mut().push_rep(slot, rep)
    }

    /// The representatives stored under `xkey`, in row form (empty when the
    /// X-value is absent). Materialises values — inspection/test path; fetch
    /// goes through [`TemplateFamily::materialize`] instead.
    pub fn reps_for(&self, xkey: &[Value]) -> Vec<Rep> {
        let data = self.force();
        match data.index.get(xkey) {
            Some(&slot) => data.key_reps[slot as usize]
                .iter()
                .map(|&id| data.rep_at(id as usize))
                .collect(),
            None => Vec::new(),
        }
    }

    /// `true` when this level is an access constraint (resolution `0̄`).
    pub fn is_exact(&self) -> bool {
        self.resolution.iter().all(|&r| r == 0.0)
    }

    /// The worst resolution across Y attributes (`d̄^m` of Theorem 5).
    pub fn max_resolution(&self) -> f64 {
        self.resolution.iter().cloned().fold(0.0, f64::max)
    }

    /// Number of representative tuples stored at this level. Served from the
    /// size metadata when the level is paged — never triggers a page-in, so
    /// planning and index-size accounting stay pure in-memory operations.
    pub fn stored_tuples(&self) -> usize {
        match &self.store {
            LevelStore::Resident(data) => data.counts.len(),
            LevelStore::Paged { meta, .. } => meta.stored_tuples,
        }
    }

    /// The distinct X-keys stored at this level, in slot (insertion) order —
    /// the key population a full-fan-out [`TemplateFamily::materialize`]
    /// would be handed.
    ///
    /// [`TemplateFamily::materialize`]: super::family::TemplateFamily::materialize
    pub fn xkeys(&self) -> Vec<Vec<Value>> {
        let data = self.force();
        let mut keys: Vec<(u32, Vec<Value>)> = data
            .index
            .iter()
            .map(|(key, &slot)| (slot, key.clone()))
            .collect();
        keys.sort_unstable_by_key(|&(slot, _)| slot);
        keys.into_iter().map(|(_, key)| key).collect()
    }

    /// The largest number of representatives stored under any single X-key.
    /// Served from the size metadata when the level is paged.
    pub fn max_bucket_len(&self) -> usize {
        match &self.store {
            LevelStore::Resident(data) => data.key_reps.iter().map(Vec::len).max().unwrap_or(0),
            LevelStore::Paged { meta, .. } => meta.max_bucket_len,
        }
    }

    /// Absorbs one `(xkey, yval)` pair into this level (see
    /// [`TemplateFamily::absorb`]). Maintenance writes through the resident
    /// payload, so a paged level pages in on its first absorbed tuple.
    fn absorb_one(&mut self, xkey: &[Value], yval: &[Value], dists: &[DistanceKind]) {
        self.ensure_resident();
        let LevelStore::Resident(data) = &mut self.store else {
            unreachable!("ensure_resident left the level paged")
        };
        let slot = match data.index.get(xkey) {
            Some(&s) => s as usize,
            // avoid cloning the key on the common already-seen-X path
            None => data.insert_key(xkey.to_vec()),
        };
        let covered = data.key_reps[slot].iter().copied().find(|&id| {
            let id = id as usize;
            data.ycols
                .iter()
                .zip(yval)
                .zip(&self.resolution)
                .zip(dists)
                .all(|(((col, nv), res), dk)| distance_at(col, id, nv, *dk) <= *res)
        });
        match covered {
            Some(id) => {
                let id = id as usize;
                data.counts[id] += 1;
                for (j, v) in yval.iter().enumerate() {
                    match (data.sum_some[j][id], v.as_f64()) {
                        (true, Some(x)) => data.sum_vals[j][id] += x,
                        (_, None) => data.sum_some[j][id] = false,
                        _ => {}
                    }
                }
            }
            None => {
                let id = data.counts.len() as u32;
                for (j, v) in yval.iter().enumerate() {
                    data.ycols[j].push_ref(v);
                    match v.as_f64() {
                        Some(x) => {
                            data.sum_vals[j].push(x);
                            data.sum_some[j].push(true);
                        }
                        None => {
                            data.sum_vals[j].push(0.0);
                            data.sum_some[j].push(false);
                        }
                    }
                }
                data.counts.push(1);
                data.key_reps[slot].push(id);
                self.n = self.n.max(data.key_reps[slot].len());
            }
        }
    }
}

/// Logical equality: same bound, resolution, X-key set and per-key
/// representative sequences, with sums compared by bit pattern (see
/// [`Rep`]), so a level holding a NaN equals its clone. The physical
/// slot/id layout (the key order of the build) is deliberately not
/// compared, so sequential and threaded builds of the same data compare
/// equal.
impl PartialEq for Level {
    fn eq(&self, other: &Self) -> bool {
        if self.n != other.n || self.resolution != other.resolution {
            return false;
        }
        let (a, b) = (self.force(), other.force());
        a.index.len() == b.index.len()
            && a.index
                .keys()
                .all(|k| b.index.contains_key(k) && self.reps_for(k) == other.reps_for(k))
    }
}

/// A family of access templates `R(X → Y, 2^k, d̄_k)` for `k = 0..levels`.
#[derive(Debug, Clone, PartialEq)]
pub struct TemplateFamily {
    /// Relation the templates are defined on.
    pub relation: String,
    /// The X attributes (lookup key). Empty for the `A_t` templates
    /// `R(∅ → attr(R), …)`.
    pub x: Vec<String>,
    /// The Y attributes returned by a fetch.
    pub y: Vec<String>,
    /// Resolution levels, coarsest first. The last level is exact.
    pub levels: Vec<Level>,
    /// `true` when the family was derived from a user-supplied access
    /// constraint (used by the index-size report of Exp-4).
    pub from_constraint: bool,
}

impl TemplateFamily {
    /// Number of levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The level `k`, or an error if out of range. The family id is only used
    /// for error reporting.
    pub fn level(&self, k: usize) -> Result<&Level> {
        self.levels.get(k).ok_or(AccessError::UnknownLevel {
            family: usize::MAX,
            level: k,
        })
    }

    /// Index of the first exact level (always exists by construction).
    pub fn exact_level(&self) -> usize {
        self.levels
            .iter()
            .position(|l| l.is_exact())
            .unwrap_or(self.levels.len().saturating_sub(1))
    }

    /// `true` when the family consists of a single exact level, i.e. it is an
    /// access constraint in the sense of \[11, 23\].
    pub fn is_constraint(&self) -> bool {
        self.levels.len() == 1 && self.levels[0].is_exact()
    }

    /// `true` when the family's templates have an empty X (whole-relation
    /// summaries, the `A_t` shape).
    pub fn is_full_relation(&self) -> bool {
        self.x.is_empty()
    }

    /// The resolution of attribute `attr` at level `k`, if `attr ∈ Y`.
    pub fn resolution_of(&self, k: usize, attr: &str) -> Option<f64> {
        let idx = self.y.iter().position(|a| a == attr)?;
        self.levels.get(k).map(|l| l.resolution[idx])
    }

    /// Total number of representative tuples stored across all levels — the
    /// "index size" unit used by Exp-4 (Fig. 6(k)).
    pub fn stored_tuples(&self) -> usize {
        self.levels.iter().map(|l| l.stored_tuples()).sum()
    }

    /// The representatives for `xkey` at level `k`, in row form (empty when
    /// the X-value is absent from the data). Materialises values —
    /// inspection/test path; fetches use [`TemplateFamily::materialize`].
    pub fn lookup(&self, k: usize, xkey: &[Value]) -> Result<Vec<Rep>> {
        let level = self.level(k)?;
        Ok(level.reps_for(xkey))
    }

    /// The column names of the relation produced by fetching this family:
    /// `X ++ Y ++ __weight` (unqualified attribute names).
    pub fn output_columns(&self) -> Vec<String> {
        let mut cols = self.x.clone();
        cols.extend(self.y.clone());
        cols.push(WEIGHT_COLUMN.to_string());
        cols
    }

    /// Materialises the fetch result for a set of X-keys at level `k`, without
    /// any budget accounting (used by tests and by [`FetchSession`]).
    ///
    /// Zero-conversion gather: each X-key resolves to its slot, the slot's
    /// representative ids select rows, and every output column is one
    /// [`Column::gather`] over the level's typed columns — dictionary codes
    /// and raw `i64`/`f64` values are copied as-is (string dictionaries are
    /// shared by `Arc`), and the weight column is sliced directly out of the
    /// multiplicity vector. No [`Value`] is created anywhere on this path.
    ///
    /// [`FetchSession`]: crate::fetch::FetchSession
    pub fn materialize(&self, k: usize, xkeys: &[Vec<Value>]) -> Result<Relation> {
        // the fetch path is where paged levels page in: a level is read from
        // its segment only when a plan actually fetches at its resolution
        let level = self.level(k)?.data()?;
        let slots: Vec<u32> = xkeys
            .iter()
            .filter_map(|key| level.index.get(key).copied())
            .collect();
        let total: usize = slots
            .iter()
            .map(|&s| level.key_reps[s as usize].len())
            .sum();
        let mut xidx: Vec<usize> = Vec::with_capacity(total);
        let mut yidx: Vec<usize> = Vec::with_capacity(total);
        for &s in &slots {
            let reps = &level.key_reps[s as usize];
            xidx.extend(std::iter::repeat_n(s as usize, reps.len()));
            yidx.extend(reps.iter().map(|&id| id as usize));
        }
        let mut cols: Vec<Column> = Vec::with_capacity(self.x.len() + self.y.len() + 1);
        for c in &level.xcols {
            cols.push(c.gather(&xidx));
        }
        for c in &level.ycols {
            cols.push(c.gather(&yidx));
        }
        cols.push(Column::Int(
            yidx.iter().map(|&id| level.counts[id]).collect(),
        ));
        Ok(Relation::from_columns(self.output_columns(), cols)
            .expect("per-column materialisation keeps all columns aligned"))
    }

    /// Component C2 (Fig. 2): absorbs one new base tuple into every level of
    /// the family, keeping the conformance invariant `D |= ψ` without a
    /// rebuild.
    ///
    /// At each level, if some existing representative already covers the new
    /// Y-value within the level's resolution (for exact levels: is equal to
    /// it), that representative's multiplicity and sums are updated in place;
    /// otherwise the new Y-value becomes its own representative (distance 0 to
    /// itself, so the level still conforms) and the level's cardinality bound
    /// `N` grows if needed. Resolutions never change, so accuracy bounds `η`
    /// computed before the insert remain valid.
    ///
    /// `dists` gives the distance kind of each Y attribute, in Y order.
    pub fn absorb(&mut self, xkey: &[Value], yval: &[Value], dists: &[DistanceKind]) {
        debug_assert_eq!(xkey.len(), self.x.len());
        debug_assert_eq!(yval.len(), self.y.len());
        debug_assert_eq!(dists.len(), self.y.len());
        for level in &mut self.levels {
            level.absorb_one(xkey, yval, dists);
        }
    }

    /// A human-readable rendering such as `poi({type, city} → {price}, 8, d̄)`.
    pub fn describe(&self, level: usize) -> String {
        let n = self.levels.get(level).map(|l| l.n).unwrap_or(0);
        let d = self
            .levels
            .get(level)
            .map(|l| l.max_resolution())
            .unwrap_or(f64::NAN);
        format!(
            "{}({{{}}} → {{{}}}, {}, {})",
            self.relation,
            self.x.join(", "),
            self.y.join(", "),
            n,
            if d == 0.0 {
                "0".to_string()
            } else {
                format!("{d:.3}")
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn family_with_two_levels() -> TemplateFamily {
        let mut coarse = FxHashMap::default();
        coarse.insert(
            vec![Value::from("NYC")],
            vec![Rep {
                values: vec![Value::Double(100.0)],
                count: 2,
                sums: vec![Some(190.0)],
            }],
        );
        let mut exact = FxHashMap::default();
        exact.insert(
            vec![Value::from("NYC")],
            vec![
                Rep {
                    values: vec![Value::Double(90.0)],
                    count: 1,
                    sums: vec![Some(90.0)],
                },
                Rep {
                    values: vec![Value::Double(100.0)],
                    count: 1,
                    sums: vec![Some(100.0)],
                },
            ],
        );
        TemplateFamily {
            relation: "poi".into(),
            x: vec!["city".into()],
            y: vec!["price".into()],
            levels: vec![
                Level::from_buckets(1, vec![10.0], 1, coarse),
                Level::from_buckets(2, vec![0.0], 1, exact),
            ],
            from_constraint: false,
        }
    }

    #[test]
    fn exact_level_and_constraint_detection() {
        let f = family_with_two_levels();
        assert_eq!(f.exact_level(), 1);
        assert!(!f.is_constraint());
        assert!(!f.is_full_relation());
        let constraint = TemplateFamily {
            levels: vec![f.levels[1].clone()],
            ..f.clone()
        };
        assert!(constraint.is_constraint());
    }

    #[test]
    fn resolution_of_looks_up_attribute() {
        let f = family_with_two_levels();
        assert_eq!(f.resolution_of(0, "price"), Some(10.0));
        assert_eq!(f.resolution_of(1, "price"), Some(0.0));
        assert_eq!(f.resolution_of(0, "missing"), None);
    }

    #[test]
    fn lookup_returns_reps_or_empty() {
        let f = family_with_two_levels();
        assert_eq!(f.lookup(0, &[Value::from("NYC")]).unwrap().len(), 1);
        assert_eq!(f.lookup(1, &[Value::from("NYC")]).unwrap().len(), 2);
        assert!(f.lookup(0, &[Value::from("LA")]).unwrap().is_empty());
        assert!(f.lookup(7, &[Value::from("NYC")]).is_err());
    }

    #[test]
    fn lookup_round_trips_reps_through_the_columnar_form() {
        let f = family_with_two_levels();
        let reps = f.lookup(1, &[Value::from("NYC")]).unwrap();
        assert_eq!(
            reps,
            vec![
                Rep {
                    values: vec![Value::Double(90.0)],
                    count: 1,
                    sums: vec![Some(90.0)],
                },
                Rep {
                    values: vec![Value::Double(100.0)],
                    count: 1,
                    sums: vec![Some(100.0)],
                },
            ]
        );
    }

    #[test]
    fn materialize_produces_x_y_weight_columns() {
        let f = family_with_two_levels();
        let rel = f.materialize(1, &[vec![Value::from("NYC")]]).unwrap();
        assert_eq!(rel.columns, vec!["city", "price", WEIGHT_COLUMN]);
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.row(0).len(), 3);
    }

    #[test]
    fn materialize_shares_string_dictionaries_with_the_level() {
        let f = family_with_two_levels();
        let rel = f.materialize(1, &[vec![Value::from("NYC")]]).unwrap();
        // the X column comes back dictionary-coded, not re-interned values
        assert!(matches!(rel.col(0), Column::Str { .. }));
        assert_eq!(rel.value_at(0, 0), Value::from("NYC"));
        assert_eq!(rel.value_at(1, 2), Value::Int(1));
    }

    #[test]
    fn stored_tuples_counts_all_levels() {
        let f = family_with_two_levels();
        assert_eq!(f.stored_tuples(), 3);
        assert_eq!(f.levels[0].stored_tuples(), 1);
        assert_eq!(f.levels[1].max_bucket_len(), 2);
    }

    #[test]
    fn describe_mentions_relation_and_bound() {
        let f = family_with_two_levels();
        let s = f.describe(0);
        assert!(s.contains("poi") && s.contains("city") && s.contains("price"));
        assert!(f.describe(1).contains("0"));
    }

    #[test]
    fn absorb_merges_covered_tuples_and_appends_new_reps() {
        let mut f = family_with_two_levels();
        let dists = [DistanceKind::Numeric];
        // 95.0 is within the coarse resolution (10.0) of the 100.0 rep and
        // equal to no exact rep → merged at level 0, appended at level 1
        f.absorb(&[Value::from("NYC")], &[Value::Double(95.0)], &dists);
        let coarse = f.lookup(0, &[Value::from("NYC")]).unwrap();
        assert_eq!(coarse.len(), 1);
        assert_eq!(coarse[0].count, 3);
        assert_eq!(coarse[0].sums[0], Some(285.0));
        let exact = f.lookup(1, &[Value::from("NYC")]).unwrap();
        assert_eq!(exact.len(), 3);
        assert!(exact
            .iter()
            .any(|r| r.values == vec![Value::Double(95.0)] && r.count == 1));
        assert!(
            f.levels[1].n >= 3,
            "cardinality bound must track grown buckets"
        );

        // an exact duplicate merges at the exact level
        f.absorb(&[Value::from("NYC")], &[Value::Double(95.0)], &dists);
        let exact = f.lookup(1, &[Value::from("NYC")]).unwrap();
        assert_eq!(exact.len(), 3);
        let rep95 = exact
            .iter()
            .find(|r| r.values == vec![Value::Double(95.0)])
            .unwrap();
        assert_eq!(rep95.count, 2);
        assert_eq!(rep95.sums[0], Some(190.0));
    }

    #[test]
    fn absorb_conforms_for_unseen_keys_and_out_of_range_values() {
        let mut f = family_with_two_levels();
        let dists = [DistanceKind::Numeric];
        // a brand-new X-value gets its own bucket at every level
        f.absorb(&[Value::from("LA")], &[Value::Double(42.0)], &dists);
        for level in 0..f.num_levels() {
            let reps = f.lookup(level, &[Value::from("LA")]).unwrap();
            assert_eq!(reps.len(), 1);
            assert_eq!(reps[0].count, 1);
        }
        // a value far outside every coarse rep becomes its own rep there too,
        // so conformance (every tuple within resolution of some rep) holds
        f.absorb(&[Value::from("NYC")], &[Value::Double(500.0)], &dists);
        for (k, level) in f.levels.iter().enumerate() {
            let reps = f.lookup(k, &[Value::from("NYC")]).unwrap();
            let covered = reps.iter().any(|r| {
                DistanceKind::Numeric.distance(&r.values[0], &Value::Double(500.0))
                    <= level.resolution[0]
            });
            assert!(covered, "level {k} does not cover the absorbed tuple");
        }
    }

    #[test]
    fn level_equality_ignores_physical_layout() {
        // two levels with the same logical content built in different key
        // orders must compare equal (threaded and sequential builds insert
        // buckets in different orders)
        let rep = |v: f64| Rep {
            values: vec![Value::Double(v)],
            count: 1,
            sums: vec![Some(v)],
        };
        let mut a = Level::new(1, vec![0.0], 1);
        let sa = a.insert_key(vec![Value::from("NYC")]);
        a.push_rep(sa, rep(1.0));
        let sb = a.insert_key(vec![Value::from("LA")]);
        a.push_rep(sb, rep(2.0));
        let mut b = Level::new(1, vec![0.0], 1);
        let sb = b.insert_key(vec![Value::from("LA")]);
        b.push_rep(sb, rep(2.0));
        let sa = b.insert_key(vec![Value::from("NYC")]);
        b.push_rep(sa, rep(1.0));
        assert_eq!(a, b);
        // but differing content must not compare equal
        let sc = b.insert_key(vec![Value::from("SF")]);
        b.push_rep(sc, rep(3.0));
        assert_ne!(a, b);
    }

    #[test]
    fn level_max_resolution() {
        let f = family_with_two_levels();
        assert_eq!(f.levels[0].max_resolution(), 10.0);
        assert_eq!(f.levels[1].max_resolution(), 0.0);
        assert!(f.levels[1].is_exact());
    }

    #[test]
    fn a_family_summing_nan_and_infinities_equals_its_clone() {
        use beas_relal::{Attribute, Database, DatabaseSchema, RelationSchema};
        let schema = DatabaseSchema::new(vec![RelationSchema::new(
            "visit",
            vec![Attribute::categorical("city"), Attribute::double("spend")],
        )]);
        let mut db = Database::new(schema);
        for (i, spend) in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 2.5]
            .into_iter()
            .cycle()
            .take(40)
            .enumerate()
        {
            let city = Value::from(["nyc", "la", "chi"][i % 3]);
            db.insert_row("visit", vec![city, Value::Double(spend)])
                .unwrap();
        }
        let mut families = crate::builder::build_at(&db).unwrap();
        families
            .push(crate::builder::build_constraint(&db, "visit", &["city"], &["spend"]).unwrap());
        families.push(crate::builder::build_extended(&db, "visit", &["city"], &["spend"]).unwrap());
        for family in &families {
            let sums_nan = family.levels.iter().any(|level| {
                level.xkeys().iter().any(|key| {
                    level
                        .reps_for(key)
                        .iter()
                        .any(|rep| rep.sums.iter().any(|s| s.is_some_and(f64::is_nan)))
                })
            });
            assert!(sums_nan, "{family:?} sums no NaN");
            assert_eq!(family, &family.clone());
        }
    }

    #[test]
    fn level_parts_round_trip_preserves_physical_layout() {
        let f = family_with_two_levels();
        for k in 0..f.num_levels() {
            let parts = f.levels[k].to_parts().unwrap();
            let rebuilt = Level::from_parts(parts);
            assert_eq!(rebuilt, f.levels[k]);
            // physical layout (not just logical content) must survive: the
            // materialised relations are identical column for column
            let keys = f.levels[k].xkeys();
            let g = TemplateFamily {
                levels: vec![rebuilt],
                ..f.clone()
            };
            let a = f.materialize(k, &keys).unwrap();
            let b = g.materialize(0, &keys).unwrap();
            assert_eq!(a.digest(), b.digest());
        }
    }

    /// A pager serving levels from memory, counting loads.
    #[derive(Debug)]
    struct MemPager {
        parts: Vec<LevelParts>,
        loads: std::sync::atomic::AtomicUsize,
    }

    impl LevelPager for MemPager {
        fn load_level(&self, _family: usize, level: usize) -> crate::error::Result<LevelParts> {
            self.loads
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.parts
                .get(level)
                .cloned()
                .ok_or_else(|| AccessError::Storage(format!("no such level {level}")))
        }
    }

    fn paged_family() -> (TemplateFamily, Arc<MemPager>) {
        let f = family_with_two_levels();
        let pager = Arc::new(MemPager {
            parts: f.levels.iter().map(|l| l.to_parts().unwrap()).collect(),
            loads: std::sync::atomic::AtomicUsize::new(0),
        });
        let levels = f
            .levels
            .iter()
            .enumerate()
            .map(|(k, l)| {
                Level::paged(
                    l.n,
                    l.resolution.clone(),
                    LevelMeta {
                        stored_tuples: l.stored_tuples(),
                        max_bucket_len: l.max_bucket_len(),
                    },
                    Arc::clone(&pager) as Arc<dyn LevelPager>,
                    0,
                    k,
                )
            })
            .collect();
        (
            TemplateFamily {
                levels,
                ..f.clone()
            },
            pager,
        )
    }

    #[test]
    fn paged_levels_answer_size_queries_without_loading() {
        let (paged, pager) = paged_family();
        let f = family_with_two_levels();
        assert_eq!(paged.stored_tuples(), f.stored_tuples());
        assert_eq!(paged.levels[1].max_bucket_len(), 2);
        assert!(paged.levels[1].is_exact());
        assert!(!paged.levels[0].is_resident());
        assert_eq!(
            pager.loads.load(std::sync::atomic::Ordering::Relaxed),
            0,
            "size/resolution queries must not page in"
        );
    }

    #[test]
    fn paged_levels_page_in_on_materialize_and_stay_loaded() {
        let (paged, pager) = paged_family();
        let f = family_with_two_levels();
        let keys = vec![vec![Value::from("NYC")]];
        let a = paged.materialize(1, &keys).unwrap();
        let b = f.materialize(1, &keys).unwrap();
        assert_eq!(a.digest(), b.digest(), "paged fetch must be bit-for-bit");
        assert!(paged.levels[1].is_resident());
        assert!(!paged.levels[0].is_resident(), "level 0 was never touched");
        assert_eq!(pager.loads.load(std::sync::atomic::Ordering::Relaxed), 1);
        // a second materialize serves from the loaded payload
        paged.materialize(1, &keys).unwrap();
        assert_eq!(pager.loads.load(std::sync::atomic::Ordering::Relaxed), 1);
    }

    #[test]
    fn paged_levels_absorb_by_becoming_resident() {
        let (mut paged, _pager) = paged_family();
        let mut f = family_with_two_levels();
        let dists = [DistanceKind::Numeric];
        paged.absorb(&[Value::from("NYC")], &[Value::Double(95.0)], &dists);
        f.absorb(&[Value::from("NYC")], &[Value::Double(95.0)], &dists);
        for k in 0..f.num_levels() {
            assert_eq!(
                paged.lookup(k, &[Value::from("NYC")]).unwrap(),
                f.lookup(k, &[Value::from("NYC")]).unwrap()
            );
            assert!(paged.levels[k].is_resident());
        }
    }

    #[test]
    fn paged_level_meta_mismatch_is_a_storage_error() {
        let f = family_with_two_levels();
        let pager = Arc::new(MemPager {
            parts: f.levels.iter().map(|l| l.to_parts().unwrap()).collect(),
            loads: std::sync::atomic::AtomicUsize::new(0),
        });
        let wrong = Level::paged(
            2,
            vec![0.0],
            LevelMeta {
                stored_tuples: 99,
                max_bucket_len: 2,
            },
            pager as Arc<dyn LevelPager>,
            0,
            1,
        );
        let g = TemplateFamily {
            levels: vec![wrong],
            ..f.clone()
        };
        let err = g
            .materialize(0, &[vec![Value::from("NYC")]])
            .expect_err("stale metadata must fail loudly");
        assert!(matches!(err, AccessError::Storage(_)), "{err:?}");
    }
}
