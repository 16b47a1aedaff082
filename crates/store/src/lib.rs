//! # beas-store — durable tiered columnar storage for BEAS
//!
//! Persists an engine's state — the base [`Database`] and the access-schema
//! [`Catalog`] with every [`TemplateFamily`] index level — as checksummed,
//! versioned on-disk **segments**, logs every `apply_update` batch to a
//! **write-ahead log** before it is applied, and compacts the log into fresh
//! **snapshots**, so an engine can be killed at any instant and reopened
//! warm with bit-for-bit identical answers.
//!
//! ## Layout
//!
//! ```text
//! <dir>/
//!   MANIFEST            current generation (temp-file + rename committed)
//!   snap-<g>/
//!     db.seg            the full database (schema + typed columns)
//!     catalog.seg       catalog metadata + per-family level headers
//!     f<F>-l<K>.seg     column payload of level K of family F
//!   wal-<g>.log         apply_update batches since snapshot g
//!   calibration.seg     persisted executor calibration (optional)
//! ```
//!
//! Recovery is *snapshot + WAL tail*: [`Store::open`] reads the manifest,
//! decodes the snapshot, scans the WAL and hands the intact batch prefix to
//! the engine for replay. A torn tail record (crash mid-append) is truncated,
//! never half-applied.
//!
//! ## Tiering
//!
//! Small index levels decode eagerly; levels at or above
//! [`StoreOptions::resident_level_tuples`] stored tuples are handed to the
//! catalog as *paged* levels ([`beas_access::Level::paged`]) whose column
//! payload loads through a [`SegmentPager`] the first time a fetch touches
//! them — planning and budgeting read only the resident level headers, so
//! the resource bound of a query doubles as its I/O bound.
//!
//! ## What is durable when
//!
//! With [`StoreOptions::sync_wal`] on (the default), every batch is
//! `fdatasync`ed before the engine publishes it: a published update is
//! always recoverable. Snapshots commit by writing every segment, then
//! renaming a fresh `MANIFEST` into place — a crash mid-snapshot leaves the
//! previous generation fully intact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod segment;
mod wal;

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use beas_access::{
    AccessError, BudgetPolicy, Catalog, Level, LevelMeta, LevelPager, LevelParts, TemplateFamily,
};
use beas_relal::{Database, Row};

use codec::{CatalogMeta, FamilyMeta, LevelHeader, Reader};
use segment::SegmentKind;

// ---------------------------------------------------------------------------
// errors
// ---------------------------------------------------------------------------

/// Errors from the storage layer.
#[derive(Debug)]
pub enum StoreError {
    /// An operating-system I/O failure.
    Io(String),
    /// A file failed validation: bad magic, checksum mismatch, truncation,
    /// or an inconsistent decoded structure.
    Corrupt(String),
    /// The file is intact but written by an incompatible format version.
    Unsupported(String),
    /// The operation does not apply to the store's current state (e.g.
    /// creating over an existing store, or logging before any snapshot).
    Invalid(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(m) => write!(f, "storage I/O error: {m}"),
            StoreError::Corrupt(m) => write!(f, "corrupt store file: {m}"),
            StoreError::Unsupported(m) => write!(f, "unsupported store format: {m}"),
            StoreError::Invalid(m) => write!(f, "invalid store operation: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e.to_string())
    }
}

/// Result alias for storage operations.
pub type Result<T> = std::result::Result<T, StoreError>;

// ---------------------------------------------------------------------------
// options and stats
// ---------------------------------------------------------------------------

/// Tuning knobs for a [`Store`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreOptions {
    /// `fdatasync` the WAL after every batch (default `true`). Turning it
    /// off trades the durability of the newest batches for append
    /// throughput; replay still never sees a corrupt record.
    pub sync_wal: bool,
    /// Index levels with at least this many stored tuples stay on disk and
    /// page in lazily on first fetch; smaller levels decode eagerly at open.
    /// `0` pages everything, `usize::MAX` loads everything eagerly.
    pub resident_level_tuples: usize,
    /// Compact (write a fresh snapshot, truncate the WAL) once the WAL
    /// exceeds this many bytes.
    pub compact_wal_bytes: u64,
    /// Compact once the WAL holds this many batches.
    pub compact_wal_batches: u64,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            sync_wal: true,
            resident_level_tuples: 4096,
            compact_wal_bytes: 4 << 20,
            compact_wal_batches: 1024,
        }
    }
}

/// Lifetime storage counters, shared with every [`SegmentPager`] the store
/// hands out.
#[derive(Debug, Default)]
struct StoreStats {
    segments_written: AtomicU64,
    segments_loaded: AtomicU64,
    wal_bytes: AtomicU64,
    wal_batches: AtomicU64,
    replayed_batches: AtomicU64,
    page_ins: AtomicU64,
}

/// A point-in-time copy of a store's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStatsSnapshot {
    /// Segment files written (snapshots and calibration records).
    pub segments_written: u64,
    /// Segment files read and verified (eager loads plus page-ins).
    pub segments_loaded: u64,
    /// Bytes currently in the write-ahead log (resets on compaction).
    pub wal_bytes: u64,
    /// Batches currently in the write-ahead log (resets on compaction).
    pub wal_batches: u64,
    /// Update batches recovered from the WAL tail by [`Store::open`].
    pub replayed_batches: u64,
    /// Paged index levels loaded on first touch.
    pub page_ins: u64,
}

impl StoreStats {
    fn snapshot(&self) -> StoreStatsSnapshot {
        StoreStatsSnapshot {
            segments_written: self.segments_written.load(Ordering::Relaxed),
            segments_loaded: self.segments_loaded.load(Ordering::Relaxed),
            wal_bytes: self.wal_bytes.load(Ordering::Relaxed),
            wal_batches: self.wal_batches.load(Ordering::Relaxed),
            replayed_batches: self.replayed_batches.load(Ordering::Relaxed),
            page_ins: self.page_ins.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------------
// calibration
// ---------------------------------------------------------------------------

/// A persisted executor calibration: the measured `min_shard_rows`
/// threshold together with the environment it was measured in. Consumers
/// treat a record from a different package version or core count as stale
/// and fall back to re-calibrating.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Calibration {
    /// The calibrated minimum rows-per-shard threshold.
    pub min_shard_rows: usize,
    /// `CARGO_PKG_VERSION` of the crate that measured it.
    pub package_version: String,
    /// `std::thread::available_parallelism()` at measurement time.
    pub parallelism: usize,
}

// ---------------------------------------------------------------------------
// the store
// ---------------------------------------------------------------------------

/// Mutable store state behind one lock: WAL appends, snapshot commits and
/// generation switches serialise here (the engine already serialises
/// writers, this guards direct API use).
#[derive(Debug)]
struct StoreState {
    generation: u64,
    wal: Option<wal::WalWriter>,
    next_seq: u64,
    wal_bytes: u64,
    wal_batches: u64,
    pending_replay: Vec<Vec<(String, Row)>>,
}

/// A durable store rooted at one directory. See the [crate docs](crate) for
/// the layout and durability contract.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    options: StoreOptions,
    stats: Arc<StoreStats>,
    state: Mutex<StoreState>,
}

const MANIFEST: &str = "MANIFEST";
const MANIFEST_HEADER: &str = "beas-store v1";
const CALIBRATION_FILE: &str = "calibration.seg";

fn snap_dir(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("snap-{generation}"))
}

fn wal_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("wal-{generation}.log"))
}

fn level_file(family: usize, level: usize) -> String {
    format!("f{family}-l{level}.seg")
}

impl Store {
    /// `true` when `dir` holds a committed store (a manifest exists).
    pub fn is_initialized(dir: impl AsRef<Path>) -> bool {
        dir.as_ref().join(MANIFEST).is_file()
    }

    /// Creates a new, empty store at `dir` (creating the directory as
    /// needed). Fails if a store is already committed there. The store holds
    /// no data until the first [`Store::write_snapshot`].
    pub fn create(dir: impl Into<PathBuf>, options: StoreOptions) -> Result<Store> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        if Store::is_initialized(&dir) {
            return Err(StoreError::Invalid(format!(
                "a store is already initialized at {}",
                dir.display()
            )));
        }
        Ok(Store {
            dir,
            options,
            stats: Arc::new(StoreStats::default()),
            state: Mutex::new(StoreState {
                generation: 0,
                wal: None,
                next_seq: 1,
                wal_bytes: 0,
                wal_batches: 0,
                pending_replay: Vec::new(),
            }),
        })
    }

    /// Opens a committed store: reads the manifest, scans the WAL of the
    /// current generation (truncating any torn tail record) and queues the
    /// intact batches for [`Store::take_replay`].
    pub fn open(dir: impl Into<PathBuf>, options: StoreOptions) -> Result<Store> {
        let dir = dir.into();
        let manifest = fs::read_to_string(dir.join(MANIFEST)).map_err(|e| {
            StoreError::Invalid(format!("no store manifest at {}: {e}", dir.display()))
        })?;
        let generation = parse_manifest(&manifest)?;

        let wal_file = wal_path(&dir, generation);
        let scan = wal::replay(&wal_file)?;
        let mut pending = Vec::with_capacity(scan.records.len());
        for (_, payload) in &scan.records {
            pending.push(codec::read_batch(payload)?);
        }
        let wal = if wal_file.exists() {
            Some(wal::WalWriter::open(
                &wal_file,
                scan.valid_bytes,
                options.sync_wal,
            )?)
        } else {
            Some(wal::WalWriter::create(&wal_file, options.sync_wal)?)
        };

        let stats = Arc::new(StoreStats::default());
        stats
            .replayed_batches
            .store(pending.len() as u64, Ordering::Relaxed);
        stats.wal_bytes.store(scan.valid_bytes, Ordering::Relaxed);
        stats
            .wal_batches
            .store(pending.len() as u64, Ordering::Relaxed);
        let next_seq = scan.records.last().map(|(s, _)| s + 1).unwrap_or(1);
        Ok(Store {
            dir,
            options,
            stats,
            state: Mutex::new(StoreState {
                generation,
                wal,
                next_seq,
                wal_bytes: scan.valid_bytes,
                wal_batches: scan.records.len() as u64,
                pending_replay: pending,
            }),
        })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The current committed snapshot generation (0 before the first
    /// snapshot).
    pub fn generation(&self) -> u64 {
        self.state.lock().unwrap().generation
    }

    /// The store's tuning options.
    pub fn options(&self) -> &StoreOptions {
        &self.options
    }

    /// A point-in-time copy of the storage counters.
    pub fn stats(&self) -> StoreStatsSnapshot {
        self.stats.snapshot()
    }

    /// The update batches recovered from the WAL tail at [`Store::open`],
    /// in append order. Draining: the engine replays them exactly once.
    pub fn take_replay(&self) -> Vec<Vec<(String, Row)>> {
        std::mem::take(&mut self.state.lock().unwrap().pending_replay)
    }

    /// Writes a full snapshot of `db` and `catalog` as the next generation
    /// and truncates the WAL.
    ///
    /// Every index level is forced resident for the write
    /// ([`Level::to_parts`] pages in), so after a snapshot the *given*
    /// catalog no longer touches the previous generation's files; the
    /// previous generation is still kept on disk (one-deep undo window for
    /// concurrently-reading epoch snapshots), generations before it are
    /// removed.
    pub fn write_snapshot(&self, db: &Database, catalog: &Catalog) -> Result<()> {
        let mut state = self.state.lock().unwrap();
        let generation = state.generation + 1;
        let snap = snap_dir(&self.dir, generation);
        if snap.exists() {
            // leftover from a crash before the manifest rename — stale
            fs::remove_dir_all(&snap)?;
        }
        fs::create_dir_all(&snap)?;
        let mut written = 0u64;

        let mut buf = Vec::new();
        codec::put_database(&mut buf, db);
        segment::write_segment(&snap.join("db.seg"), SegmentKind::Database, &buf)?;
        written += 1;

        let mut families = Vec::with_capacity(catalog.families().len());
        for (fi, family) in catalog.families().iter().enumerate() {
            let mut headers = Vec::with_capacity(family.levels.len());
            for (li, level) in family.levels.iter().enumerate() {
                let parts = level
                    .to_parts()
                    .map_err(|e| StoreError::Io(format!("paging in f{fi}-l{li}: {e}")))?;
                let mut buf = Vec::new();
                codec::put_level_parts(&mut buf, &parts);
                segment::write_segment(&snap.join(level_file(fi, li)), SegmentKind::Level, &buf)?;
                written += 1;
                headers.push(LevelHeader {
                    n: level.n,
                    resolution: level.resolution.clone(),
                    meta: LevelMeta {
                        stored_tuples: level.stored_tuples(),
                        max_bucket_len: level.max_bucket_len(),
                    },
                });
            }
            families.push(FamilyMeta {
                relation: family.relation.clone(),
                x: family.x.clone(),
                y: family.y.clone(),
                from_constraint: family.from_constraint,
                levels: headers,
            });
        }
        let meta = CatalogMeta {
            db_size: catalog.db_size,
            version: catalog.version,
            min_tuples: catalog.policy.min_tuples,
            cap: catalog.policy.cap,
            families,
        };
        let mut buf = Vec::new();
        codec::put_catalog_meta(&mut buf, &meta);
        segment::write_segment(&snap.join("catalog.seg"), SegmentKind::Catalog, &buf)?;
        written += 1;
        segment::sync_dir(&snap);

        // commit: a fresh manifest makes the new generation current
        let manifest = format!("{MANIFEST_HEADER}\ngeneration {generation}\n");
        let tmp = self.dir.join("MANIFEST.tmp");
        fs::write(&tmp, manifest)?;
        fs::rename(&tmp, self.dir.join(MANIFEST))?;
        segment::sync_dir(&self.dir);

        // fresh WAL for the new generation
        state.wal = Some(wal::WalWriter::create(
            &wal_path(&self.dir, generation),
            self.options.sync_wal,
        )?);
        let old = state.generation;
        state.generation = generation;
        state.next_seq = 1;
        state.wal_bytes = 0;
        state.wal_batches = 0;
        self.stats.wal_bytes.store(0, Ordering::Relaxed);
        self.stats.wal_batches.store(0, Ordering::Relaxed);
        self.stats
            .segments_written
            .fetch_add(written, Ordering::Relaxed);

        // keep generation `old` (epoch snapshots may still page from it),
        // drop everything older
        if old >= 1 {
            let stale = old - 1;
            if stale >= 1 {
                let _ = fs::remove_dir_all(snap_dir(&self.dir, stale));
            }
            let _ = fs::remove_file(wal_path(&self.dir, old));
        }
        Ok(())
    }

    /// Loads the current snapshot: the full database plus a catalog whose
    /// large index levels are *paged* (column payloads load through a
    /// [`SegmentPager`] on first fetch; see
    /// [`StoreOptions::resident_level_tuples`]).
    pub fn load_snapshot(&self) -> Result<(Database, Catalog)> {
        let generation = self.generation();
        if generation == 0 {
            return Err(StoreError::Invalid(
                "the store holds no snapshot yet".to_string(),
            ));
        }
        let snap = snap_dir(&self.dir, generation);
        let mut loaded = 0u64;

        let payload = segment::read_segment(&snap.join("db.seg"), SegmentKind::Database)?;
        let mut r = Reader::new(&payload);
        let db = codec::read_database(&mut r)?;
        loaded += 1;

        let payload = segment::read_segment(&snap.join("catalog.seg"), SegmentKind::Catalog)?;
        let mut r = Reader::new(&payload);
        let meta = codec::read_catalog_meta(&mut r)?;
        loaded += 1;

        let pager: Arc<dyn LevelPager> = Arc::new(SegmentPager {
            snap_dir: snap.clone(),
            stats: Arc::clone(&self.stats),
        });
        let mut catalog = Catalog::new(db.schema.clone(), meta.db_size);
        for (fi, fam) in meta.families.iter().enumerate() {
            let mut levels = Vec::with_capacity(fam.levels.len());
            for (li, header) in fam.levels.iter().enumerate() {
                if header.meta.stored_tuples < self.options.resident_level_tuples {
                    let payload =
                        segment::read_segment(&snap.join(level_file(fi, li)), SegmentKind::Level)?;
                    let mut r = Reader::new(&payload);
                    levels.push(Level::from_parts(codec::read_level_parts(&mut r)?));
                    loaded += 1;
                } else {
                    levels.push(Level::paged(
                        header.n,
                        header.resolution.clone(),
                        header.meta,
                        Arc::clone(&pager),
                        fi,
                        li,
                    ));
                }
            }
            catalog.add_family_arc(Arc::new(TemplateFamily {
                relation: fam.relation.clone(),
                x: fam.x.clone(),
                y: fam.y.clone(),
                levels,
                from_constraint: fam.from_constraint,
            }));
        }
        // restore the persisted policy/version over the defaults that
        // `new`/`add_family_arc` left behind
        catalog.policy = BudgetPolicy {
            min_tuples: meta.min_tuples,
            cap: meta.cap,
        };
        catalog.version = meta.version;
        self.stats
            .segments_loaded
            .fetch_add(loaded, Ordering::Relaxed);
        Ok((db, catalog))
    }

    /// Appends one `apply_update` batch to the WAL. Must be called *before*
    /// the batch is published to readers; a batch is durable once this
    /// returns (with [`StoreOptions::sync_wal`] on).
    pub fn append_batch(&self, inserts: &[(String, Row)]) -> Result<()> {
        let mut payload = Vec::new();
        codec::put_batch(&mut payload, inserts);
        let mut state = self.state.lock().unwrap();
        let seq = state.next_seq;
        let wal = state.wal.as_mut().ok_or_else(|| {
            StoreError::Invalid("cannot log updates before the first snapshot".to_string())
        })?;
        let n = wal.append(seq, &payload)?;
        state.next_seq += 1;
        state.wal_bytes += n;
        state.wal_batches += 1;
        self.stats.wal_bytes.fetch_add(n, Ordering::Relaxed);
        self.stats.wal_batches.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// `true` once the WAL has grown past either compaction threshold; the
    /// engine answers by calling [`Store::write_snapshot`].
    pub fn should_compact(&self) -> bool {
        let state = self.state.lock().unwrap();
        state.wal.is_some()
            && (state.wal_bytes >= self.options.compact_wal_bytes
                || state.wal_batches >= self.options.compact_wal_batches)
    }

    /// Persists an executor calibration record next to the snapshots.
    pub fn save_calibration(&self, cal: &Calibration) -> Result<()> {
        let mut buf = Vec::new();
        codec::put_usize(&mut buf, cal.min_shard_rows);
        codec::put_str(&mut buf, &cal.package_version);
        codec::put_usize(&mut buf, cal.parallelism);
        segment::write_segment(
            &self.dir.join(CALIBRATION_FILE),
            SegmentKind::Calibration,
            &buf,
        )?;
        self.stats.segments_written.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Loads the persisted calibration record, `None` when absent. A
    /// *corrupt* record is also `None` — calibration is a cache, the caller
    /// falls back to measuring.
    pub fn load_calibration(&self) -> Result<Option<Calibration>> {
        let path = self.dir.join(CALIBRATION_FILE);
        if !path.is_file() {
            return Ok(None);
        }
        let payload = match segment::read_segment(&path, SegmentKind::Calibration) {
            Ok(p) => p,
            Err(StoreError::Io(e)) => return Err(StoreError::Io(e)),
            Err(_) => return Ok(None),
        };
        let mut r = Reader::new(&payload);
        let cal = (|| -> Result<Calibration> {
            Ok(Calibration {
                min_shard_rows: r.usize()?,
                package_version: r.str()?,
                parallelism: r.usize()?,
            })
        })();
        Ok(cal.ok())
    }
}

fn parse_manifest(text: &str) -> Result<u64> {
    let mut lines = text.lines();
    if lines.next().map(str::trim) != Some(MANIFEST_HEADER) {
        return Err(StoreError::Unsupported(format!(
            "unrecognised manifest header (expected `{MANIFEST_HEADER}`)"
        )));
    }
    for line in lines {
        if let Some(g) = line.trim().strip_prefix("generation ") {
            return g.trim().parse().map_err(|_| {
                StoreError::Corrupt(format!("bad generation `{}` in manifest", g.trim()))
            });
        }
    }
    Err(StoreError::Corrupt(
        "manifest has no generation line".to_string(),
    ))
}

// ---------------------------------------------------------------------------
// the pager
// ---------------------------------------------------------------------------

/// Loads paged level payloads from one snapshot directory, counting every
/// page-in. Handed (behind one shared `Arc`) to every paged
/// [`beas_access::Level`] built by [`Store::load_snapshot`].
#[derive(Debug)]
pub struct SegmentPager {
    snap_dir: PathBuf,
    stats: Arc<StoreStats>,
}

impl LevelPager for SegmentPager {
    fn load_level(&self, family: usize, level: usize) -> beas_access::Result<LevelParts> {
        let path = self.snap_dir.join(level_file(family, level));
        let payload = segment::read_segment(&path, SegmentKind::Level)
            .map_err(|e| AccessError::Storage(e.to_string()))?;
        let mut r = Reader::new(&payload);
        let parts =
            codec::read_level_parts(&mut r).map_err(|e| AccessError::Storage(e.to_string()))?;
        self.stats.page_ins.fetch_add(1, Ordering::Relaxed);
        self.stats.segments_loaded.fetch_add(1, Ordering::Relaxed);
        Ok(parts)
    }
}

// ---------------------------------------------------------------------------
// tests
// ---------------------------------------------------------------------------

/// A fresh, empty scratch directory under the system temp dir, unique per
/// test process.
#[cfg(test)]
pub(crate) fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("beas-store-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[cfg(test)]
mod tests {
    use super::*;
    use beas_access::{build_at, AtOptions};
    use beas_relal::{Attribute, DatabaseSchema, RelationSchema, Value};

    fn sample_db() -> Database {
        let schema = DatabaseSchema::new(vec![RelationSchema::new(
            "hotel",
            vec![
                Attribute::id("id"),
                Attribute::categorical("city"),
                Attribute::double("price"),
            ],
        )]);
        let mut db = Database::new(schema);
        let cities = ["oslo", "delhi", "lima"];
        for i in 0..60i64 {
            // row 7 carries the adversarial floats: NaN / -0.0 / +inf ride
            // through persistence like any other payload
            let price = match i {
                7 => f64::NAN,
                8 => -0.0,
                9 => f64::INFINITY,
                _ => 40.0 + (i % 13) as f64 * 3.5,
            };
            db.insert_row(
                "hotel",
                vec![
                    Value::Int(i),
                    Value::Str(cities[(i % 3) as usize].to_string()),
                    Value::Double(price),
                ],
            )
            .unwrap();
        }
        db
    }

    fn sample_catalog(db: &Database) -> Catalog {
        let mut catalog = Catalog::new(db.schema.clone(), db.total_tuples());
        for family in build_at(db, &AtOptions::default()).unwrap() {
            catalog.add_family_arc(Arc::new(family));
        }
        catalog.policy = BudgetPolicy {
            min_tuples: 2,
            cap: Some(5000),
        };
        catalog
    }

    /// Byte-level fingerprint of every level of every family: equality here
    /// is bit-for-bit equality of the physical payloads.
    fn catalog_fingerprint(catalog: &Catalog) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        for family in catalog.families() {
            for level in &family.levels {
                let mut buf = Vec::new();
                codec::put_level_parts(&mut buf, &level.to_parts().unwrap());
                out.push(buf);
            }
        }
        out
    }

    fn db_fingerprint(db: &Database) -> Vec<u8> {
        let mut buf = Vec::new();
        codec::put_database(&mut buf, db);
        buf
    }

    #[test]
    fn snapshot_round_trips_bit_for_bit() {
        let dir = test_dir("snapshot-roundtrip");
        let db = sample_db();
        let catalog = sample_catalog(&db);
        let store = Store::create(&dir, StoreOptions::default()).unwrap();
        store.write_snapshot(&db, &catalog).unwrap();
        assert_eq!(store.generation(), 1);
        assert!(Store::is_initialized(&dir));

        let reopened = Store::open(&dir, StoreOptions::default()).unwrap();
        let (db2, catalog2) = reopened.load_snapshot().unwrap();
        assert_eq!(db_fingerprint(&db2), db_fingerprint(&db));
        assert_eq!(
            catalog_fingerprint(&catalog2),
            catalog_fingerprint(&catalog)
        );
        assert_eq!(catalog2.policy, catalog.policy);
        assert_eq!(catalog2.version, catalog.version);
        assert_eq!(catalog2.db_size, catalog.db_size);
        assert!(reopened.take_replay().is_empty());
    }

    #[test]
    fn tiering_pages_large_levels_lazily() {
        let dir = test_dir("tiering");
        let db = sample_db();
        let catalog = sample_catalog(&db);
        let store = Store::create(&dir, StoreOptions::default()).unwrap();
        store.write_snapshot(&db, &catalog).unwrap();

        // page every level: nothing resident until first touch
        let paged_opts = StoreOptions {
            resident_level_tuples: 0,
            ..StoreOptions::default()
        };
        let store = Store::open(&dir, paged_opts).unwrap();
        let (_, catalog2) = store.load_snapshot().unwrap();
        assert_eq!(store.stats().page_ins, 0);
        assert!(catalog2.families()[0]
            .levels
            .iter()
            .all(|l| !l.is_resident()));
        // size queries stay metadata-only
        let sizes: Vec<usize> = catalog2.families()[0]
            .levels
            .iter()
            .map(|l| l.stored_tuples())
            .collect();
        let expect: Vec<usize> = catalog.families()[0]
            .levels
            .iter()
            .map(|l| l.stored_tuples())
            .collect();
        assert_eq!(sizes, expect);
        assert_eq!(store.stats().page_ins, 0);

        // first payload touch pages in exactly one level, bit-for-bit
        let parts = catalog2.families()[0].levels[0].to_parts().unwrap();
        let mut got = Vec::new();
        codec::put_level_parts(&mut got, &parts);
        let mut want = Vec::new();
        codec::put_level_parts(
            &mut want,
            &catalog.families()[0].levels[0].to_parts().unwrap(),
        );
        assert_eq!(got, want);
        assert_eq!(store.stats().page_ins, 1);
        assert!(catalog2.families()[0].levels[0].is_resident());
    }

    #[test]
    fn wal_appends_replay_in_order_after_reopen() {
        let dir = test_dir("wal-replay");
        let db = sample_db();
        let catalog = sample_catalog(&db);
        let store = Store::create(&dir, StoreOptions::default()).unwrap();
        store.write_snapshot(&db, &catalog).unwrap();
        for i in 0..3i64 {
            store
                .append_batch(&[(
                    "hotel".to_string(),
                    vec![
                        Value::Int(100 + i),
                        Value::Str("oslo".to_string()),
                        Value::Double(i as f64),
                    ],
                )])
                .unwrap();
        }
        let before = store.stats();
        assert_eq!(before.wal_batches, 3);
        assert!(before.wal_bytes > 0);
        drop(store);

        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(store.stats().replayed_batches, 3);
        let replay = store.take_replay();
        assert_eq!(replay.len(), 3);
        for (i, batch) in replay.iter().enumerate() {
            assert_eq!(batch.len(), 1);
            assert_eq!(batch[0].0, "hotel");
            assert_eq!(batch[0].1[0], Value::Int(100 + i as i64));
        }
        // drained: a second take replays nothing
        assert!(store.take_replay().is_empty());
    }

    #[test]
    fn compaction_truncates_the_wal_and_advances_the_generation() {
        let dir = test_dir("compaction");
        let db = sample_db();
        let catalog = sample_catalog(&db);
        let opts = StoreOptions {
            compact_wal_batches: 2,
            ..StoreOptions::default()
        };
        let store = Store::create(&dir, opts).unwrap();
        store.write_snapshot(&db, &catalog).unwrap();
        let batch = vec![(
            "hotel".to_string(),
            vec![
                Value::Int(200),
                Value::Str("lima".to_string()),
                Value::Double(1.0),
            ],
        )];
        store.append_batch(&batch).unwrap();
        assert!(!store.should_compact());
        store.append_batch(&batch).unwrap();
        assert!(store.should_compact());

        store.write_snapshot(&db, &catalog).unwrap();
        assert_eq!(store.generation(), 2);
        assert!(!store.should_compact());
        assert_eq!(store.stats().wal_bytes, 0);
        drop(store);

        let store = Store::open(&dir, opts).unwrap();
        assert_eq!(store.generation(), 2);
        assert_eq!(store.stats().replayed_batches, 0);
        // generation 1's WAL is gone, its snapshot dir is the one-deep keep
        assert!(!wal_path(&dir, 1).exists());
        assert!(snap_dir(&dir, 2).exists());
    }

    #[test]
    fn calibration_round_trips_and_corruption_falls_back() {
        let dir = test_dir("calibration");
        let store = Store::create(&dir, StoreOptions::default()).unwrap();
        assert_eq!(store.load_calibration().unwrap(), None);
        let cal = Calibration {
            min_shard_rows: 8192,
            package_version: "0.2.0".to_string(),
            parallelism: 8,
        };
        store.save_calibration(&cal).unwrap();
        assert_eq!(store.load_calibration().unwrap(), Some(cal));

        // corrupt record: calibration is a cache, reads fall back to None
        let path = dir.join(CALIBRATION_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(store.load_calibration().unwrap(), None);
    }

    #[test]
    fn store_with_a_parent_era_slo_segment_opens_bit_for_bit() {
        let dir = test_dir("parent-era-slo");
        let db = sample_db();
        let catalog = sample_catalog(&db);
        let store = Store::create(&dir, StoreOptions::default()).unwrap();
        store.write_snapshot(&db, &catalog).unwrap();
        drop(store);

        // the learned-curve segment older stores carry: an `SLO1` payload
        // with no curves in a kind-5 envelope
        let mut payload = b"SLO1".to_vec();
        payload.extend_from_slice(&[0u8; 6 * 8]);
        let mut bytes = segment::MAGIC.to_vec();
        bytes.extend_from_slice(&segment::VERSION.to_le_bytes());
        bytes.extend_from_slice(&5u32.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&segment::checksum(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let slo = dir.join("slo.seg");
        fs::write(&slo, &bytes).unwrap();

        let reopened = Store::open(&dir, StoreOptions::default()).unwrap();
        let (db2, catalog2) = reopened.load_snapshot().unwrap();
        assert_eq!(db_fingerprint(&db2), db_fingerprint(&db));
        assert_eq!(
            catalog_fingerprint(&catalog2),
            catalog_fingerprint(&catalog)
        );
        assert_eq!(catalog2.version, catalog.version);
        // the file is left alone, and tag 5 names no kind of today's
        assert_eq!(fs::read(&slo).unwrap(), bytes);
        let err = segment::read_segment(&slo, SegmentKind::Calibration).unwrap_err();
        assert!(err.to_string().contains("unknown segment kind 5"), "{err}");
    }

    #[test]
    fn create_refuses_an_initialized_dir_and_open_needs_a_manifest() {
        let dir = test_dir("create-open-guards");
        let db = sample_db();
        let catalog = sample_catalog(&db);
        let store = Store::create(&dir, StoreOptions::default()).unwrap();
        store.write_snapshot(&db, &catalog).unwrap();
        assert!(Store::create(&dir, StoreOptions::default()).is_err());
        let empty = test_dir("create-open-guards-empty");
        assert!(Store::open(&empty, StoreOptions::default()).is_err());
        assert!(!Store::is_initialized(&empty));
    }
}
