//! The coordinator ↔ shard wire protocol, reusing `beas-serve`'s wire module
//! (the same JSON query/relation/value encoding the HTTP front-end speaks).
//!
//! Five operations, all request/response JSON objects tagged by `"op"`:
//!
//! * `open` — `{op, session, budget, share, threads, min_shard_rows, query}`:
//!   the shard plans the query itself against its copy of the cluster
//!   catalog (planning is deterministic, so no plan ever crosses the wire)
//!   and answers `{ok, shard, tariff, nodes, leaves}` plus the accounting
//!   block — the coordinator cross-checks the plan shape against its own.
//! * `fetch` — `{op, session, node, keys}`: run one fetch node's lookup
//!   against the shard's partition under its budget share; answers
//!   `{ok, relation}` — the fragment — plus the accounting block.
//!   A `fetch` retried after a lost response is served from the session's
//!   per-step ledger without re-billing, so delivery is effectively
//!   exactly-once for accounting purposes.
//! * `leaf` — `{op, session, leaf}`: evaluate one SPC leaf whose atoms all
//!   live on this shard; answers `{ok, relation, out_res, exact}` — the
//!   canonical leaf result plus its η contribution (per-output resolutions).
//! * `close` — `{op, session}`: drops the session.
//! * `stats` — `{op, session}`: a read-only probe of the session's
//!   accounting (`{ok, accessed, fetches, fetched_tuples, reused_tuples}`)
//!   for operators and tests. The coordinator never sends it.
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

use beas_relal::Value;
use beas_serve::{value_from_json, value_to_json, Json};

use crate::error::{ClusterError, Result};

/// Builds an `open` request.
pub fn open_request(
    session: u64,
    query: &Json,
    budget: usize,
    share: usize,
    threads: usize,
    min_shard_rows: usize,
) -> Json {
    Json::obj(vec![
        ("op", Json::Str("open".to_string())),
        ("session", Json::Int(session as i64)),
        ("budget", Json::Int(budget as i64)),
        ("share", Json::Int(share as i64)),
        ("threads", Json::Int(threads as i64)),
        ("min_shard_rows", Json::Int(min_shard_rows as i64)),
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
    use beas_serve::parse_json;

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
