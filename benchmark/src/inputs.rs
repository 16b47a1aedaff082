//! Input generation: datasets, query pools, update batches, and the digest
//! that pins them.
//!
//! As in TPC-H, the *data* is a function of the scale factor alone
//! ([`DATA_SEED`]); `--seed` draws everything a client sends — the query
//! pool, the update rows, the request order and the open-loop schedule. The
//! data generator's seed decides which K-D levels exist and so moves bounded
//! latency by ±25 % from one seed to the next (measured: 1 280 vs 1 600
//! tuples accessed per answer at the same budget); a benchmark that has to
//! be steady from seed to seed cannot draw it from `--seed`.

use beas_core::{BeasQuery, UpdateBatch};
use beas_relal::{Database, Value};
use beas_serve::wire::query_to_json;
use beas_workloads::querygen::{generate_workload, QueryGenConfig};
use beas_workloads::tpch::tpch_lite;
use beas_workloads::Dataset;

/// Seed of every generated dataset.
pub const DATA_SEED: u64 = 42;

/// Scale of the dataset the query generator samples its constants from.
/// The generator evaluates every candidate exactly to keep only queries
/// with non-empty answers, which at the workload scales would take minutes;
/// attribute domains do not depend on the scale, so constants drawn here
/// are valid selections at every scale.
pub const QUERY_GEN_SCALE: usize = 2;

/// `#-prod` strata of a query pool: the generator's whole range `0..=4`.
pub const STRATA: usize = 5;

/// SplitMix64: the benchmark's only source of randomness beside the
/// repository's generators, seeded from `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a stream label (so two uses of one seed
    /// do not share a sequence).
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// FNV-1a over the inputs a run generates; printed as `input_digest` and
/// compared with `pins.json`.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Absorbs bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Absorbs an integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Absorbs a float by its bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Absorbs every relation of a database (name, then row-multiset digest).
    pub fn database(&mut self, db: &Database) {
        for rel in &db.schema.relations {
            self.bytes(rel.name.as_bytes());
            let digest = db.relation(&rel.name).map_or(0, |r| r.digest());
            self.u64(digest);
        }
    }

    /// Absorbs the wire rendering of each query.
    pub fn queries(&mut self, queries: &[BeasQuery], db: &Database) {
        for q in queries {
            match query_to_json(q, &db.schema) {
                Ok(json) => self.bytes(json.to_string().as_bytes()),
                Err(e) => self.bytes(e.to_string().as_bytes()),
            }
        }
    }

    /// Absorbs the rows of an update batch.
    pub fn batch(&mut self, batch: &UpdateBatch) {
        for (relation, row) in batch.inserts() {
            self.bytes(relation.as_bytes());
            self.bytes(format!("{row:?}").as_bytes());
        }
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// The TPCH-lite dataset at `scale` (≈ 890 tuples per scale unit).
pub fn dataset(scale: usize) -> Dataset {
    tpch_lite(scale, DATA_SEED)
}

/// A query pool of `per_stratum × 5` generated queries, stratified by the
/// generator's `#-prod` knob (0–4 joins) and interleaved so that every
/// prefix is balanced. The paper's recipe draws `#-prod` uniformly; fixing
/// the shares instead keeps the mix of cheap single-relation and expensive
/// four-join queries — two orders of magnitude apart in cost and η — the
/// same from seed to seed.
pub fn query_pool(per_stratum: usize, seed: u64) -> Vec<BeasQuery> {
    let source = dataset(QUERY_GEN_SCALE);
    let strata: Vec<Vec<BeasQuery>> = (0..STRATA)
        .map(|prod| {
            let cfg = QueryGenConfig {
                count: per_stratum,
                prod_range: (prod, prod),
                seed: Rng::new(seed, 0x51 + prod as u64).next_u64(),
                ..QueryGenConfig::default()
            };
            generate_workload(&source, &cfg)
                .into_iter()
                .map(|g| g.query)
                .collect()
        })
        .collect();
    let mut pool = Vec::with_capacity(per_stratum * STRATA);
    for i in 0..per_stratum {
        for stratum in &strata {
            if let Some(q) = stratum.get(i) {
                pool.push(q.clone());
            }
        }
    }
    pool
}

/// `count` generated queries with exactly one join and no set difference
/// (SPC or aggregate): the pool of the cluster workload, where every answer
/// then takes the same number of coordinator rounds.
pub fn one_join_pool(count: usize, seed: u64) -> Vec<BeasQuery> {
    let cfg = QueryGenConfig {
        count,
        prod_range: (1, 1),
        max_differences: 0,
        seed: Rng::new(seed, 0x71).next_u64(),
        ..QueryGenConfig::default()
    };
    generate_workload(&dataset(QUERY_GEN_SCALE), &cfg)
        .into_iter()
        .map(|g| g.query)
        .collect()
}

/// A seeded sample of `k` distinct indices below `n` (all of them when
/// `k ≥ n`), ascending.
pub fn sample_indices(n: usize, k: usize, rng: &mut Rng) -> Vec<usize> {
    let mut all: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut all);
    all.truncate(k);
    all.sort_unstable();
    all
}

/// Rows per generated update batch.
pub const BATCH_ROWS: usize = 10;

/// One 10-row `lineitem` insert batch: foreign keys inside the dataset's
/// key ranges at `scale`, values from the generator's own distributions.
pub fn lineitem_batch(scale: usize, rng: &mut Rng) -> UpdateBatch {
    let (orders, parts, suppliers) = (200 * scale as u64, 30 * scale as u64, 10 * scale as u64);
    (0..BATCH_ROWS).fold(UpdateBatch::new(), |batch, _| {
        let quantity = 1 + rng.below(50) as i64;
        let price = (quantity as f64 * (900.0 + rng.unit() * 1100.0)).round();
        batch.insert(
            "lineitem",
            vec![
                Value::Int(rng.below(orders) as i64),
                Value::Int(rng.below(parts) as i64),
                Value::Int(rng.below(suppliers) as i64),
                Value::Int(quantity),
                Value::Double(price),
                Value::Double((rng.below(11) as f64) / 100.0),
                Value::Int(1992 + rng.below(7) as i64),
            ],
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_repeat_per_seed_and_differ_across_seeds() {
        let db = dataset(QUERY_GEN_SCALE).db;
        let digest = |seed| {
            let mut d = Digest::default();
            d.queries(&query_pool(2, seed), &db);
            d.value()
        };
        assert_eq!(digest(42), digest(42));
        assert_ne!(digest(42), digest(7));
        assert_eq!(query_pool(2, 42).len(), 2 * STRATA);
    }

    #[test]
    fn batches_are_valid_inserts() {
        let ds = dataset(1);
        let engine = beas_core::Beas::builder(ds.db)
            .constraints(ds.constraints)
            .build()
            .unwrap();
        let batch = lineitem_batch(1, &mut Rng::new(42, 1));
        assert_eq!(engine.apply_update(&batch).unwrap(), BATCH_ROWS);
    }
}
