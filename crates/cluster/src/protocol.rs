//! The coordinator ↔ shard wire protocol: JSON control messages, reusing
//! `beas-serve`'s wire module for queries, keys and values, with relations
//! carried as binary column frames.
//!
//! Four operations, all request/response JSON objects tagged by `"op"`:
//!
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
//! **Opening and closing ride on data messages.** The first `fetch` or
//! `leaf` a step sends to a shard carries the step's `open` field
//! ([`open_message`]): `{step, budget, share, query, tariff, nodes,
//! leaves}`. The shard plans the query itself against the shared cluster
//! catalog (planning is deterministic, so no plan ever crosses the wire),
//! checks that its plan has the coordinator's tariff, fetch-node count and
//! leaf count — refusing with [`PLAN_DIVERGED`] before it fetches anything
//! otherwise — and opens the session (or moves it to the new step, keeping
//! its fragments), then serves the request in the same call. An `open` for
//! the step the session is already in changes nothing, so a retried first
//! request keeps the step's ledger and billing. A request carrying
//! `close: true` ([`with_field`]) drops the session after a successful
//! reply; the coordinator sends it only on a shard's *sole* request of a
//! one-shot answer, whose retry re-opens the session and redoes the whole
//! step. Shards the plan sends nothing are never contacted.
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
//! *this step*, and the tuples materialized and reused over the *whole
//! session*. Only a `fetch` changes these numbers, and every `fetch`
//! response carries them, so the coordinator's latest copy per shard is
//! exact at every point of a step: it needs no accounting round at the end,
//! a shard that dies mid-step still contributes what it did, and the
//! coordinator keeps the session totals of a shard it does not contact in
//! some step.
//!
//! Failed responses are `{ok: false, error}` with an optional
//! machine-readable `code` ([`err_response_code`]); [`NO_SESSION`] signals
//! an unknown/evicted session token, which the coordinator heals by
//! re-sending the same request with the step's `open` attached.

use beas_relal::codec::{self, Reader};
use beas_relal::{Relation, Value};
use beas_serve::{value_from_json, value_to_json, Json};

use crate::error::{ClusterError, Result};

/// The `open` field of a step's first request to a shard: the step
/// (counted per session by the coordinator), the total budget and the
/// shard's share of it, the wire-encoded query, and the shape of the
/// coordinator's plan — its tariff, fetch-node count and leaf count — which
/// the shard's own plan must match.
pub fn open_message(
    step: usize,
    query: &Json,
    budget: usize,
    share: usize,
    tariff: usize,
    nodes: usize,
    leaves: usize,
) -> Json {
    Json::obj(vec![
        ("step", Json::Int(step as i64)),
        ("budget", Json::Int(budget as i64)),
        ("share", Json::Int(share as i64)),
        ("query", query.clone()),
        ("tariff", Json::Int(tariff as i64)),
        ("nodes", Json::Int(nodes as i64)),
        ("leaves", Json::Int(leaves as i64)),
    ])
}

/// The object `request` with `field` set to `value`, replacing an earlier
/// value: a step's `open` ([`open_message`]), or `close: true`, which makes
/// the shard close the session after answering the request successfully.
pub fn with_field(mut request: Json, field: &str, value: Json) -> Json {
    if let Json::Obj(fields) = &mut request {
        fields.retain(|(name, _)| name != field);
        fields.push((field.to_string(), value));
    }
    request
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

/// `BASE64_PAIR[n]` is the two base64 digits of the 12-bit value `n`.
const BASE64_PAIR: [[u8; 2]; 4096] = {
    let mut table = [[0u8; 2]; 4096];
    let mut n = 0;
    while n < 4096 {
        table[n] = [BASE64[n >> 6], BASE64[n & 63]];
        n += 1;
    }
    table
};

/// Standard, padded base64 (RFC 4648 §4), written into a buffer sized up
/// front: six bytes at a time become eight digits, two digits per table
/// lookup, and only the last group, if partial, is padded.
fn base64_encode(bytes: &[u8]) -> String {
    let pair = |n: u64, shift: u32| BASE64_PAIR[(n >> shift & 0xfff) as usize];
    let mut out = Vec::with_capacity(bytes.len().div_ceil(3) * 4);
    let mut sixes = bytes.chunks_exact(6);
    for g in &mut sixes {
        let n = u64::from_be_bytes([0, 0, g[0], g[1], g[2], g[3], g[4], g[5]]);
        let ([a, b], [c, d], [e, f], [g, h]) = (pair(n, 36), pair(n, 24), pair(n, 12), pair(n, 0));
        out.extend_from_slice(&[a, b, c, d, e, f, g, h]);
    }
    for g in sixes.remainder().chunks(3) {
        let n = u64::from(g[0]) << 16
            | g.get(1).map_or(0, |&b| u64::from(b) << 8)
            | g.get(2).map_or(0, |&b| u64::from(b));
        let ([a, b], [c, d]) = (pair(n, 12), pair(n, 0));
        out.extend_from_slice(&[
            a,
            b,
            if g.len() > 1 { c } else { b'=' },
            if g.len() > 2 { d } else { b'=' },
        ]);
    }
    String::from_utf8(out).expect("base64 digits are ASCII")
}

/// Decodes [`base64_encode`]'s output, and nothing else: a bad digit, a
/// misplaced `=` or non-zero bits under the padding are errors, so every
/// byte string has exactly one accepted spelling. Every group but the last
/// decodes 4 digits into 3 bytes of a buffer sized up front.
fn base64_decode(text: &str) -> Result<Vec<u8>> {
    let bad = |what: &str| ClusterError::Wire(format!("bad base64 frame: {what}"));
    let bytes = text.as_bytes();
    if !bytes.len().is_multiple_of(4) {
        return Err(bad("length is not a multiple of 4"));
    }
    let Some(last) = bytes.len().checked_sub(4) else {
        return Ok(Vec::new());
    };
    let (body, last) = bytes.split_at(last);
    let pad = last.iter().rev().take_while(|&&b| b == b'=').count();
    if pad > 2 {
        return Err(bad("too much padding"));
    }
    let mut out = vec![0u8; body.len() / 4 * 3 + 3];
    let value = |b: u8| u32::from(BASE64_VALUE[b as usize]);
    // a bad digit's value is 0xff: its top bits survive the `|`
    let mut invalid = 0u32;
    for (g, o) in body.chunks_exact(4).zip(out.chunks_exact_mut(3)) {
        let (a, b, c, d) = (value(g[0]), value(g[1]), value(g[2]), value(g[3]));
        invalid |= a | b | c | d;
        let n = a << 18 | b << 12 | c << 6 | d;
        o.copy_from_slice(&[(n >> 16) as u8, (n >> 8) as u8, n as u8]);
    }
    let mut n = 0u32;
    for &b in &last[..4 - pad] {
        let v = value(b);
        invalid |= v;
        n = n << 6 | v;
    }
    if invalid > 63 {
        return Err(bad("not a base64 digit"));
    }
    n <<= 6 * pad as u32;
    let decoded = [(n >> 16) as u8, (n >> 8) as u8, n as u8];
    if decoded[3 - pad..].iter().any(|&b| b != 0) {
        return Err(bad("non-zero bits under the padding"));
    }
    let end = out.len() - 3;
    out[end..].copy_from_slice(&decoded);
    out.truncate(out.len() - pad);
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
/// re-sending the request with the step's `open` attached, re-establishing
/// session affinity instead of failing the query.
pub const NO_SESSION: &str = "no_session";

/// The machine-readable error code a shard answers when its own plan of an
/// `open`'s query differs in shape from the coordinator's (a stale catalog,
/// version skew): it cannot serve the step, and the coordinator treats the
/// shard as failed.
pub const PLAN_DIVERGED: &str = "plan_diverged";

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
    fn base64_round_trips_every_length_and_rejects_or_respells_each_substitution() {
        // seeded bytes: a splitmix64 stream
        let mut seed = 0x05EE_DB64_u64;
        let mut byte = || {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (seed ^ (seed >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            ((z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb) >> 56) as u8
        };
        let symbols: Vec<u8> = BASE64.iter().copied().chain(*b"=-_ ").collect();
        for len in 0usize..=300 {
            let bytes: Vec<u8> = (0..len).map(|_| byte()).collect();
            let text = base64_encode(&bytes);
            assert_eq!(text.len(), len.div_ceil(3) * 4);
            assert_eq!(base64_decode(&text).unwrap(), bytes, "length {len}");
            if len > 16 && len < 299 {
                continue;
            }
            // a decoder that accepts a changed spelling must mean it: the
            // decoded bytes encode back to exactly that spelling
            for at in 0..text.len() {
                for &symbol in &symbols {
                    let mut changed = text.clone().into_bytes();
                    changed[at] = symbol;
                    let changed = String::from_utf8(changed).unwrap();
                    if let Ok(decoded) = base64_decode(&changed) {
                        assert_eq!(base64_encode(&decoded), changed, "length {len}");
                    }
                }
            }
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
