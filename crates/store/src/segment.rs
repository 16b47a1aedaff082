//! The on-disk segment envelope.
//!
//! Every file the store writes (snapshot segments, the calibration record)
//! is wrapped in the same self-describing envelope:
//!
//! ```text
//! magic    8 bytes   b"BEASSEG\x01"
//! version  u32 LE    format version (currently 1)
//! kind     u32 LE    what the payload encodes (database, catalog, level, …)
//! length   u64 LE    payload byte count
//! checksum u64 LE    FxHasher over the payload bytes
//! payload  …
//! ```
//!
//! Readers verify magic, version, kind, length and checksum before decoding
//! a single payload byte, so a truncated or bit-flipped segment surfaces as
//! a [`StoreError::Corrupt`] instead of garbage data. Writers go through a
//! temp file + atomic rename, so a crash mid-write leaves either the old
//! segment or none — never a half-written one under the final name.

use std::fs::{self, File, OpenOptions};
use std::hash::Hasher;
use std::io::Write;
use std::path::Path;

use beas_relal::FxHasher;

use crate::{Result, StoreError};

/// Segment file magic: `BEASSEG` plus a format byte.
pub(crate) const MAGIC: [u8; 8] = *b"BEASSEG\x01";

/// Current envelope version.
pub(crate) const VERSION: u32 = 1;

/// Envelope byte overhead before the payload.
pub(crate) const HEADER_LEN: usize = 8 + 4 + 4 + 8 + 8;

/// What a segment payload encodes. The kind is part of the envelope so that
/// a mis-routed file (say a level segment read as a catalog) fails loudly.
///
/// Tag 5 belonged to the learned accuracy-SLO curves (`slo.seg`), which are
/// no longer written or read; it is never reused, so a store directory from
/// before their removal still opens, and its `slo.seg` reads as an unknown
/// kind rather than as something else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SegmentKind {
    /// A full [`beas_relal::Database`]: schema plus every relation instance.
    Database,
    /// Catalog metadata: sizing, policy and per-family level headers.
    Catalog,
    /// One level's column payload ([`beas_access::LevelParts`]).
    Level,
    /// The persisted calibration record.
    Calibration,
}

impl SegmentKind {
    fn code(self) -> u32 {
        match self {
            SegmentKind::Database => 1,
            SegmentKind::Catalog => 2,
            SegmentKind::Level => 3,
            SegmentKind::Calibration => 4,
        }
    }

    fn from_code(code: u32) -> Result<Self> {
        match code {
            1 => Ok(SegmentKind::Database),
            2 => Ok(SegmentKind::Catalog),
            3 => Ok(SegmentKind::Level),
            4 => Ok(SegmentKind::Calibration),
            other => Err(StoreError::Corrupt(format!("unknown segment kind {other}"))),
        }
    }
}

/// FxHasher digest of a byte slice — the segment and WAL checksum.
pub(crate) fn checksum(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

/// Flushes directory metadata so a just-renamed file survives a crash.
/// Best-effort: not every filesystem supports fsync on directories.
pub(crate) fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Writes `payload` as a segment at `path` via temp file + atomic rename.
pub(crate) fn write_segment(path: &Path, kind: SegmentKind, payload: &[u8]) -> Result<()> {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&kind.code().to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    buf.extend_from_slice(&checksum(payload).to_le_bytes());
    buf.extend_from_slice(payload);

    let tmp = path.with_extension("tmp");
    let mut f = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(&tmp)?;
    f.write_all(&buf)?;
    f.sync_data()?;
    drop(f);
    fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        sync_dir(dir);
    }
    Ok(())
}

/// Reads and verifies a segment, returning its payload.
pub(crate) fn read_segment(path: &Path, expected: SegmentKind) -> Result<Vec<u8>> {
    let name = path.display();
    let bytes = fs::read(path)?;
    if bytes.len() < HEADER_LEN {
        return Err(StoreError::Corrupt(format!(
            "{name}: {} bytes is shorter than the segment header",
            bytes.len()
        )));
    }
    if bytes[..8] != MAGIC {
        return Err(StoreError::Corrupt(format!("{name}: bad segment magic")));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != VERSION {
        return Err(StoreError::Unsupported(format!(
            "{name}: segment version {version}, this build reads version {VERSION}"
        )));
    }
    let kind = SegmentKind::from_code(u32::from_le_bytes(bytes[12..16].try_into().unwrap()))?;
    if kind != expected {
        return Err(StoreError::Corrupt(format!(
            "{name}: segment holds {kind:?}, expected {expected:?}"
        )));
    }
    let len = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
    let sum = u64::from_le_bytes(bytes[24..32].try_into().unwrap());
    let payload = &bytes[HEADER_LEN..];
    if payload.len() != len {
        return Err(StoreError::Corrupt(format!(
            "{name}: payload is {} bytes, header says {len}",
            payload.len()
        )));
    }
    if checksum(payload) != sum {
        return Err(StoreError::Corrupt(format!("{name}: checksum mismatch")));
    }
    Ok(payload.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir;

    #[test]
    fn segments_round_trip_and_verify() {
        let dir = test_dir("segment-roundtrip");
        let path = dir.join("x.seg");
        let payload = b"hello segment".to_vec();
        write_segment(&path, SegmentKind::Database, &payload).unwrap();
        assert_eq!(read_segment(&path, SegmentKind::Database).unwrap(), payload);
        // wrong kind fails loudly
        let err = read_segment(&path, SegmentKind::Level).unwrap_err();
        assert!(err.to_string().contains("expected Level"), "{err}");
        // no stray temp file left behind
        assert!(!dir.join("x.tmp").exists());
    }

    #[test]
    fn corruption_is_detected() {
        let dir = test_dir("segment-corrupt");
        let path = dir.join("x.seg");
        write_segment(&path, SegmentKind::Catalog, b"payload bytes").unwrap();
        let mut bytes = fs::read(&path).unwrap();

        // flip one payload bit
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let err = read_segment(&path, SegmentKind::Catalog).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");

        // truncate mid-payload
        bytes[last] ^= 0x40;
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let err = read_segment(&path, SegmentKind::Catalog).unwrap_err();
        assert!(err.to_string().contains("header says"), "{err}");

        // future version is Unsupported, not Corrupt
        bytes[8] = 9;
        fs::write(&path, &bytes).unwrap();
        let err = read_segment(&path, SegmentKind::Catalog).unwrap_err();
        assert!(matches!(err, StoreError::Unsupported(_)), "{err}");
    }
}
