//! The coordinator ↔ shard wire protocol: JSON control messages, reusing
//! `beas-serve`'s wire module for queries, keys and values, with relations
//! carried as binary column frames.
//!
//! Five operations, all request/response JSON objects tagged by `"op"`:
//!
//! * `open` — `{op, session, budget, share, query}`: the shard plans the
//!   query itself against the shared cluster catalog (planning is
//!   deterministic, so no plan ever crosses the wire) and executes it with
//!   the cluster's thread count and parallel-leaf threshold. It answers
//!   `{ok, shard, tariff, nodes, leaves}` plus the accounting block — the
//!   coordinator cross-checks the plan shape against its own.
//! * `fetch` — `{op, session, node, keys}`: run one fetch node's lookup
//!   against a family the shard owns, under its budget share; answers
//!   `{ok, frame}` — the fragment as a [frame](relation_to_frame) — plus
//!   the accounting block.
//!   A `fetch` retried after a lost response is served from the session's
//!   per-step ledger without re-billing, so delivery is effectively
//!   exactly-once for accounting purposes.
//! * `leaf` — `{op, session, leaf}`: evaluate one SPC leaf whose atoms all
//!   live on this shard; answers `{ok, frame, out_res, exact}` — the
//!   canonical leaf result as a frame plus its η contribution (per-output
//!   resolutions).
//! * `close` — `{op, session}`: drops the session.
//! * `stats` — `{op, session}`: a read-only probe of the session's
//!   accounting (`{ok, accessed, fetches, fetched_tuples, reused_tuples}`)
//!   for operators and tests. The coordinator never sends it.
//!
//! **Frames.** A relation leaves a shard as its typed columns in the shared
//! [`beas_relal::codec`] — the same column encoding the durable store
//! writes — followed by a checksum ([`relation_to_frame`]). The decoded
//! columns keep the shard's physical variants, floats keep their bit
//! patterns, and a damaged frame is a retryable [`ClusterError::Wire`],
//! never a wrong relation. Inside the JSON envelope the frame travels as
//! one base64 string ([`frame_to_json`]).
//!
//! **The accounting block** is `{billed, fetches, fetched_tuples,
//! reused_tuples}`: tuples billed against the share and fetch operations run
//! *this step* (both zero in an `open` response, which starts the step), and
//! the tuples materialized and reused over the *whole session*. Only `open`
//! and `fetch` change these numbers, and both responses carry them, so the
//! coordinator's latest copy per shard is exact at every point of a step:
//! it needs no accounting round at the end, a shard that dies mid-step
//! still contributes what it did, and a shard that is opened but not
//! fetched from in some step still reports its session totals.
//!
//! Failed responses are `{ok: false, error}` with an optional
//! machine-readable `code` ([`err_response_code`]); [`NO_SESSION`] signals
//! an unknown/evicted session token, which the coordinator heals by
//! re-opening the session on that shard.

use beas_relal::codec::{self, Reader};
use beas_relal::{Relation, Value};
use beas_serve::{value_from_json, value_to_json, Json};

use crate::error::{ClusterError, Result};

/// Builds an `open` request.
pub fn open_request(session: u64, query: &Json, budget: usize, share: usize) -> Json {
    Json::obj(vec![
        ("op", Json::Str("open".to_string())),
        ("session", Json::Int(session as i64)),
        ("budget", Json::Int(budget as i64)),
        ("share", Json::Int(share as i64)),
        ("query", query.clone()),
    ])
}

/// Builds a `fetch` request.
pub fn fetch_request(session: u64, node: usize, keys: &[Vec<Value>]) -> Json {
    Json::obj(vec![
        ("op", Json::Str("fetch".to_string())),
        ("session", Json::Int(session as i64)),
        ("node", Json::Int(node as i64)),
        ("keys", keys_to_json(keys)),
    ])
}

/// Builds a `leaf` request.
pub fn leaf_request(session: u64, leaf: usize) -> Json {
    Json::obj(vec![
        ("op", Json::Str("leaf".to_string())),
        ("session", Json::Int(session as i64)),
        ("leaf", Json::Int(leaf as i64)),
    ])
}

/// Builds a `stats` probe (`close: false`) or a `close` request.
pub fn stats_request(session: u64, close: bool) -> Json {
    Json::obj(vec![
        (
            "op",
            Json::Str(if close { "close" } else { "stats" }.to_string()),
        ),
        ("session", Json::Int(session as i64)),
    ])
}

/// Encodes a fetch key list (values use the wire value encoding, so float
/// keys — including non-finite ones — round-trip bit-for-bit).
pub fn keys_to_json(keys: &[Vec<Value>]) -> Json {
    Json::Arr(
        keys.iter()
            .map(|k| Json::Arr(k.iter().map(value_to_json).collect()))
            .collect(),
    )
}

/// Decodes a fetch key list.
pub fn keys_from_json(v: &Json) -> Result<Vec<Vec<Value>>> {
    let rows = v
        .as_arr()
        .ok_or_else(|| ClusterError::Wire("keys must be an array".to_string()))?;
    rows.iter()
        .map(|row| {
            let cells = row
                .as_arr()
                .ok_or_else(|| ClusterError::Wire("each key must be an array".to_string()))?;
            cells
                .iter()
                .map(|c| value_from_json(c).map_err(ClusterError::from))
                .collect()
        })
        .collect()
}

/// Encodes a per-output resolution vector (η contributions). Resolutions are
/// plain `f64`s but may be `+∞` for positions a plan cannot bound, so they
/// ride the tagged value encoding rather than bare JSON numbers.
pub fn resolutions_to_json(res: &[f64]) -> Json {
    Json::Arr(
        res.iter()
            .map(|&r| value_to_json(&Value::Double(r)))
            .collect(),
    )
}

/// Decodes a per-output resolution vector.
pub fn resolutions_from_json(v: &Json) -> Result<Vec<f64>> {
    let arr = v
        .as_arr()
        .ok_or_else(|| ClusterError::Wire("out_res must be an array".to_string()))?;
    arr.iter()
        .map(|c| match value_from_json(c).map_err(ClusterError::from)? {
            Value::Double(d) => Ok(d),
            Value::Int(i) => Ok(i as f64),
            other => Err(ClusterError::Wire(format!(
                "resolution must be numeric, got {other:?}"
            ))),
        })
        .collect()
}

/// Encodes `rel` as a frame: its row count, then each column name and typed
/// column in the shared [`beas_relal::codec`], then the
/// [`checksum`](codec::checksum) of everything before it.
///
/// `Str` columns are compacted to the strings they use, in first-use order
/// ([`codec::put_column_compact`]): a fragment shares its level's whole
/// dictionary, and its frame must grow with its rows, not with that
/// dictionary. Every other column is written as it lies in memory.
pub fn relation_to_frame(rel: &Relation) -> Vec<u8> {
    let mut buf = Vec::new();
    codec::put_usize(&mut buf, rel.len());
    codec::put_usize(&mut buf, rel.arity());
    for (name, col) in rel.columns.iter().zip(rel.cols()) {
        codec::put_str(&mut buf, name);
        codec::put_column_compact(&mut buf, col);
    }
    let sum = codec::checksum(&buf);
    codec::put_u64(&mut buf, sum);
    buf
}

/// Decodes a frame written by [`relation_to_frame`]. The checksum is
/// verified before any byte is decoded, and every length is bounded by the
/// bytes left, so damaged input is a [`ClusterError::Wire`] and never a
/// panic or an outsized allocation.
pub fn relation_from_frame(frame: &[u8]) -> Result<Relation> {
    let Some(end) = frame.len().checked_sub(8) else {
        return Err(ClusterError::Wire(format!(
            "a frame of {} bytes is shorter than its checksum",
            frame.len()
        )));
    };
    let (payload, sum) = frame.split_at(end);
    if codec::checksum(payload) != u64::from_le_bytes(sum.try_into().unwrap()) {
        return Err(ClusterError::Wire("frame checksum mismatch".to_string()));
    }
    let mut r = Reader::new(payload);
    let rows = r.usize()?;
    let (names, cols) = codec::read_named_columns(&mut r)?;
    if !r.is_at_end() {
        return Err(ClusterError::Wire(
            "trailing bytes after the frame's columns".to_string(),
        ));
    }
    Relation::from_columns_with_len(names, cols, rows)
        .map_err(|e| ClusterError::Wire(format!("frame holds an inconsistent relation: {e}")))
}

/// The `frame` field of a `fetch` or `leaf` response: the relation's frame
/// as one base64 string inside the JSON envelope.
pub fn frame_to_json(rel: &Relation) -> Json {
    Json::Str(base64_encode(&relation_to_frame(rel)))
}

/// Decodes a `frame` field written by [`frame_to_json`].
pub fn frame_from_json(v: &Json) -> Result<Relation> {
    let text = v
        .as_str()
        .ok_or_else(|| ClusterError::Wire("frame must be a string".to_string()))?;
    relation_from_frame(&base64_decode(text)?)
}

const BASE64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// `BASE64_VALUE[b]` is the 6-bit value of the base64 digit `b`, or `0xff`.
const BASE64_VALUE: [u8; 256] = {
    let mut table = [0xffu8; 256];
    let mut i = 0;
    while i < 64 {
        table[BASE64[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// Standard, padded base64 (RFC 4648 §4).
fn base64_encode(bytes: &[u8]) -> String {
    let digit = |n: u32, shift: u32| BASE64[(n >> shift & 63) as usize];
    let mut out = Vec::with_capacity(bytes.len().div_ceil(3) * 4);
    let mut groups = bytes.chunks_exact(3);
    for g in &mut groups {
        let n = u32::from(g[0]) << 16 | u32::from(g[1]) << 8 | u32::from(g[2]);
        out.extend_from_slice(&[digit(n, 18), digit(n, 12), digit(n, 6), digit(n, 0)]);
    }
    match *groups.remainder() {
        [a] => {
            let n = u32::from(a) << 16;
            out.extend_from_slice(&[digit(n, 18), digit(n, 12), b'=', b'=']);
        }
        [a, b] => {
            let n = u32::from(a) << 16 | u32::from(b) << 8;
            out.extend_from_slice(&[digit(n, 18), digit(n, 12), digit(n, 6), b'=']);
        }
        _ => {}
    }
    String::from_utf8(out).expect("base64 digits are ASCII")
}

/// Decodes [`base64_encode`]'s output, and nothing else: a bad digit, a
/// misplaced `=` or non-zero bits under the padding are errors, so every
/// byte string has exactly one accepted spelling.
fn base64_decode(text: &str) -> Result<Vec<u8>> {
    let bad = |what: &str| ClusterError::Wire(format!("bad base64 frame: {what}"));
    let bytes = text.as_bytes();
    if !bytes.len().is_multiple_of(4) {
        return Err(bad("length is not a multiple of 4"));
    }
    let groups = bytes.len() / 4;
    let mut out = Vec::with_capacity(groups * 3);
    for (i, g) in bytes.chunks_exact(4).enumerate() {
        let pad = if i + 1 == groups {
            g.iter().rev().take_while(|&&b| b == b'=').count()
        } else {
            0
        };
        if pad > 2 {
            return Err(bad("too much padding"));
        }
        let mut n = 0u32;
        for &b in &g[..4 - pad] {
            let v = BASE64_VALUE[b as usize];
            if v == 0xff {
                return Err(bad("not a base64 digit"));
            }
            n = n << 6 | u32::from(v);
        }
        n <<= 6 * pad as u32;
        let decoded = [(n >> 16) as u8, (n >> 8) as u8, n as u8];
        if decoded[3 - pad..].iter().any(|&b| b != 0) {
            return Err(bad("non-zero bits under the padding"));
        }
        out.extend_from_slice(&decoded[..3 - pad]);
    }
    Ok(out)
}

/// Wraps response fields in `{ok: true, ...}`.
pub fn ok_response(mut fields: Vec<(&str, Json)>) -> Json {
    let mut all = vec![("ok", Json::Bool(true))];
    all.append(&mut fields);
    Json::obj(all)
}

/// Builds an `{ok: false, error}` response.
pub fn err_response(message: &str) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::Str(message.to_string())),
    ])
}

/// The machine-readable error code a shard answers for an unknown session
/// token (evicted, or the shard restarted): the coordinator reacts by
/// re-sending `open` for the same session and retrying, re-establishing
/// session affinity instead of failing the query.
pub const NO_SESSION: &str = "no_session";

/// Builds an `{ok: false, error, code}` response — like [`err_response`] but
/// with a machine-readable code (e.g. [`NO_SESSION`]) the coordinator can
/// dispatch on without parsing prose.
pub fn err_response_code(message: &str, code: &str) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::Str(message.to_string())),
        ("code", Json::Str(code.to_string())),
    ])
}

/// The machine-readable error code of a failed response, if any.
pub fn error_code(response: &Json) -> Option<&str> {
    match response.get("ok").and_then(Json::as_bool) {
        Some(true) => None,
        _ => response.get("code").and_then(Json::as_str),
    }
}

/// Checks a response's `ok` flag, surfacing the shard's error message.
pub fn expect_ok(response: &Json) -> Result<()> {
    match response.get("ok").and_then(Json::as_bool) {
        Some(true) => Ok(()),
        _ => Err(ClusterError::Protocol(
            response
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("shard response missing ok flag")
                .to_string(),
        )),
    }
}

/// Reads a required non-negative integer field.
pub fn req_usize(v: &Json, field: &str) -> Result<usize> {
    v.get(field)
        .and_then(Json::as_i64)
        .filter(|&n| n >= 0)
        .map(|n| n as usize)
        .ok_or_else(|| ClusterError::Wire(format!("missing or bad field `{field}`")))
}

/// Reads a required field.
pub fn req_field<'a>(v: &'a Json, field: &str) -> Result<&'a Json> {
    v.get(field)
        .ok_or_else(|| ClusterError::Wire(format!("missing field `{field}`")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use beas_relal::{Column, StrDict, ValueType};
    use beas_serve::parse_json;
    use std::sync::Arc;

    /// A relation with one column of every physical variant: a NaN with a
    /// payload, -0.0 and ±∞ among the floats, a `Str` column sliced from a
    /// 10 000-string dictionary, and a `Null` in the mixed column.
    fn every_variant() -> Relation {
        let mut dict = StrDict::default();
        for i in 0..10_000 {
            dict.intern(&format!("city-{i}"));
        }
        Relation::from_columns(
            ["i", "f", "b", "s", "m"].map(String::from).to_vec(),
            vec![
                Column::Int(vec![i64::MIN, -1, 0, i64::MAX]),
                Column::Float(vec![
                    f64::from_bits(0x7ff8_0000_dead_beef),
                    -0.0,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                ]),
                Column::Bool(vec![true, false, false, true]),
                Column::Str {
                    codes: vec![9_999, 17, 9_999, 0],
                    dict: Arc::new(dict),
                },
                Column::Mixed(vec![
                    Value::Null,
                    Value::Int(3),
                    Value::from("x"),
                    Value::Double(f64::NAN),
                ]),
            ],
        )
        .unwrap()
    }

    /// A cell as exact text: floats by their bit pattern, which `Value`
    /// equality (NaN-blind, `-0.0 == 0.0`) is not.
    fn cell(col: &Column, i: usize) -> String {
        match col.value(i) {
            Value::Double(d) => format!("f{:016x}", d.to_bits()),
            v => format!("{v:?}"),
        }
    }

    fn assert_identical(a: &Relation, b: &Relation) {
        assert_eq!(a.columns, b.columns);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.cols().iter().zip(b.cols()) {
            assert_eq!(std::mem::discriminant(x), std::mem::discriminant(y));
            for i in 0..a.len() {
                assert_eq!(cell(x, i), cell(y, i));
            }
        }
        assert_eq!(a.digest(), b.digest());
    }

    fn round_trip(rel: &Relation) -> Relation {
        let json = frame_to_json(rel);
        let text = ok_response(vec![("frame", json)]).to_string();
        frame_from_json(parse_json(&text).unwrap().get("frame").unwrap()).unwrap()
    }

    #[test]
    fn frames_round_trip_every_column_variant_bit_for_bit() {
        let rel = every_variant();
        assert_identical(&round_trip(&rel), &rel);
    }

    #[test]
    fn empty_and_zero_column_relations_round_trip() {
        // an empty fragment keeps its typed columns (rows would re-infer
        // nothing and come back untyped)
        let empty = Relation::empty_typed(
            vec!["a".into(), "b".into()],
            &[ValueType::Int, ValueType::Str],
        );
        let back = round_trip(&empty);
        assert_identical(&back, &empty);
        assert!(back.col(0).as_ints().is_some() && back.col(1).as_str_codes().is_some());
        for rows in [0, 3] {
            let zero = Relation::new(Vec::new(), vec![Vec::new(); rows]).unwrap();
            let back = round_trip(&zero);
            assert_eq!((back.arity(), back.len()), (0, rows));
        }
    }

    #[test]
    fn a_str_slice_frames_small_whatever_its_dictionary() {
        let rel = every_variant().select_columns(&[3], vec!["s".into()]);
        let frame = relation_to_frame(&rel.take_rows(&[0, 1, 2]));
        assert!(frame.len() < 200, "{} bytes", frame.len());
        assert_identical(
            &relation_from_frame(&frame).unwrap(),
            &rel.take_rows(&[0, 1, 2]),
        );
    }

    #[test]
    fn every_truncation_and_byte_flip_of_a_frame_is_an_error() {
        let frame = relation_to_frame(&every_variant().take_rows(&[0, 1, 3]));
        for cut in 0..frame.len() {
            assert!(relation_from_frame(&frame[..cut]).is_err(), "cut {cut}");
        }
        for i in 0..frame.len() {
            for flip in [0x01, 0x80, 0xff] {
                let mut bad = frame.clone();
                bad[i] ^= flip;
                assert!(relation_from_frame(&bad).is_err(), "byte {i} ^ {flip:#x}");
            }
        }
    }

    /// `payload` with a valid checksum, as a frame.
    fn sealed(mut payload: Vec<u8>) -> Vec<u8> {
        let sum = codec::checksum(&payload);
        codec::put_u64(&mut payload, sum);
        payload
    }

    #[test]
    fn no_length_prefix_allocates_past_the_payload() {
        // correctly checksummed frames whose every length prefix claims far
        // more than the bytes behind it: each is an error, and none of them
        // reserves that much memory on the way
        for huge in [u64::MAX, 1 << 61, 1 << 40, 1 << 20] {
            let header = |buf: &mut Vec<u8>, rows: u64, arity: u64| {
                codec::put_u64(buf, rows);
                codec::put_u64(buf, arity);
            };
            let mut frames = Vec::new();
            // relation arity
            let mut buf = Vec::new();
            header(&mut buf, 1, huge);
            frames.push(buf);
            // a column name
            let mut buf = Vec::new();
            header(&mut buf, 1, 1);
            codec::put_u64(&mut buf, huge);
            frames.push(buf);
            // the row count against a one-row column
            let mut buf = Vec::new();
            header(&mut buf, huge, 1);
            codec::put_str(&mut buf, "a");
            codec::put_column(&mut buf, &Column::Int(vec![7]));
            frames.push(buf);
            // every column tag's length, and a dictionary's
            for tag in 0u8..=4 {
                let mut buf = Vec::new();
                header(&mut buf, 1, 1);
                codec::put_str(&mut buf, "a");
                codec::put_u8(&mut buf, tag);
                codec::put_u64(&mut buf, huge);
                buf.extend_from_slice(&[0; 16]);
                frames.push(buf);
            }
            // a string's code count, and a string inside a mixed column
            let mut buf = Vec::new();
            header(&mut buf, 1, 1);
            codec::put_str(&mut buf, "a");
            codec::put_u8(&mut buf, 3);
            codec::put_u64(&mut buf, 0);
            codec::put_u64(&mut buf, huge);
            frames.push(buf);
            let mut buf = Vec::new();
            header(&mut buf, 1, 1);
            codec::put_str(&mut buf, "a");
            codec::put_u8(&mut buf, 4);
            codec::put_u64(&mut buf, 1);
            codec::put_u8(&mut buf, 2);
            codec::put_u64(&mut buf, huge);
            frames.push(buf);
            for (k, payload) in frames.into_iter().enumerate() {
                let err = relation_from_frame(&sealed(payload)).unwrap_err();
                assert!(matches!(err, ClusterError::Wire(_)), "case {k}: {err}");
            }
        }
    }

    #[test]
    fn base64_has_exactly_one_spelling_per_byte_string() {
        for len in 0usize..12 {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 97 + 13) as u8).collect();
            let text = base64_encode(&bytes);
            assert_eq!(text.len(), len.div_ceil(3) * 4);
            assert_eq!(base64_decode(&text).unwrap(), bytes);
        }
        assert_eq!(base64_encode(b"foob"), "Zm9vYg==");
        for bad in [
            "Zg=", "Zh==", "Zm9=", "Z===", "====", "Zg==Zg==", "Zm9v!A==", "Zm 9",
        ] {
            assert!(base64_decode(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn keys_round_trip_through_text_including_non_finite_floats() {
        let keys = vec![
            vec![Value::Int(3), Value::from("hotel")],
            vec![Value::Double(f64::NAN), Value::Double(f64::NEG_INFINITY)],
            vec![Value::Null, Value::Double(-0.0)],
        ];
        let text = keys_to_json(&keys).to_string();
        let back = keys_from_json(&parse_json(&text).unwrap()).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back[0], keys[0]);
        match (&back[1][0], &back[1][1]) {
            (Value::Double(a), Value::Double(b)) => {
                assert!(a.is_nan());
                assert_eq!(*b, f64::NEG_INFINITY);
            }
            other => panic!("bad floats: {other:?}"),
        }
        match &back[2][1] {
            Value::Double(z) => assert!(z.is_sign_negative() && *z == 0.0),
            other => panic!("bad -0.0: {other:?}"),
        }
    }

    #[test]
    fn resolutions_round_trip_and_reject_non_numeric() {
        let res = [0.0, 1.5, f64::INFINITY];
        let text = resolutions_to_json(&res).to_string();
        let back = resolutions_from_json(&parse_json(&text).unwrap()).unwrap();
        assert_eq!(back, vec![0.0, 1.5, f64::INFINITY]);
        assert!(resolutions_from_json(&parse_json(r#"["x"]"#).unwrap()).is_err());
    }

    #[test]
    fn ok_and_error_responses_are_distinguished() {
        assert!(expect_ok(&ok_response(vec![("tariff", Json::Int(3))])).is_ok());
        let err = expect_ok(&err_response("no such session")).unwrap_err();
        assert!(err.to_string().contains("no such session"));
        assert!(expect_ok(&parse_json("{}").unwrap()).is_err());
    }
}
