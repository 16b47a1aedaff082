//! The JSON wire protocol: queries, resource specs, update batches and
//! answers as JSON values.
//!
//! A wire query mirrors the tableau form the planner works on — SPC blocks
//! (`atoms` / `binds` / `joins` / `filters` / `outputs`) composed with
//! `union` / `difference` and optionally wrapped in an `aggregate`:
//!
//! ```json
//! {"type": "spc",
//!  "atoms":   [{"relation": "poi", "alias": "h"}],
//!  "binds":   [{"atom": "h", "attr": "type", "value": "hotel"}],
//!  "filters": [{"atom": "h", "attr": "price", "op": "<=", "value": 95}],
//!  "outputs": [{"atom": "h", "attr": "price", "name": "price"}]}
//! ```
//!
//! Resource specs travel in the canonical [`ResourceSpec`] string form
//! (`"ratio:0.1"`, `"tuples:500"`), so the server, the bench CLIs and the
//! docs all share one vocabulary. Answers carry the relation (columns +
//! rows), the accuracy bound η, the access accounting and an
//! order-independent [`Relation::digest`] so clients can verify — and the
//! bench harness does verify — that the served answers are bit-for-bit the
//! relations `PreparedQuery::answer` produces in process.

use std::fmt;

use beas_access::ResourceSpec;
use beas_core::{
    AccuracyTarget, AggQuery, BeasAnswer, BeasQuery, RaQuery, RefinementSchedule, RefinementStep,
    TargetedAnswer, UpdateBatch,
};
use beas_relal::{
    AggFunc, CompareOp, DatabaseSchema, Relation, Row, SelCond, SpcQuery, SpcQueryBuilder, Term,
    Value,
};

use crate::json::Json;

/// A wire-protocol decoding error (maps to HTTP 400).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl WireError {
    fn new(msg: impl Into<String>) -> Self {
        WireError(msg.into())
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for WireError {}

type Result<T> = std::result::Result<T, WireError>;

fn field<'a>(obj: &'a Json, key: &str, ctx: &str) -> Result<&'a Json> {
    obj.get(key)
        .ok_or_else(|| WireError::new(format!("{ctx}: missing field `{key}`")))
}

fn str_field<'a>(obj: &'a Json, key: &str, ctx: &str) -> Result<&'a str> {
    field(obj, key, ctx)?
        .as_str()
        .ok_or_else(|| WireError::new(format!("{ctx}: field `{key}` must be a string")))
}

// ---------------------------------------------------------------- values

/// Decodes one JSON value into a database [`Value`]. Tagged objects carry
/// the non-finite floats JSON cannot represent.
pub fn value_from_json(v: &Json) -> Result<Value> {
    match v {
        Json::Null => Ok(Value::Null),
        Json::Bool(b) => Ok(Value::Bool(*b)),
        Json::Int(i) => Ok(Value::Int(*i)),
        Json::Num(f) => Ok(Value::Double(*f)),
        Json::Str(s) => Ok(Value::Str(s.clone())),
        Json::Obj(_) => match v.get("$f").and_then(Json::as_str) {
            Some("nan") => Ok(Value::Double(f64::NAN)),
            Some("inf") => Ok(Value::Double(f64::INFINITY)),
            Some("-inf") => Ok(Value::Double(f64::NEG_INFINITY)),
            _ => Err(WireError::new("objects are not valid cell values")),
        },
        Json::Arr(_) => Err(WireError::new("arrays are not valid cell values")),
    }
}

/// Encodes a database [`Value`] as JSON (see [`value_from_json`]).
pub fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Null => Json::Null,
        Value::Bool(b) => Json::Bool(*b),
        Value::Int(i) => Json::Int(*i),
        Value::Double(d) => Json::Num(*d),
        Value::Str(s) => Json::Str(s.clone()),
    }
}

// ---------------------------------------------------------------- queries

fn compare_op(s: &str) -> Result<CompareOp> {
    Ok(match s {
        "=" | "==" => CompareOp::Eq,
        "!=" | "<>" => CompareOp::Ne,
        "<" => CompareOp::Lt,
        "<=" => CompareOp::Le,
        ">" => CompareOp::Gt,
        ">=" => CompareOp::Ge,
        other => return Err(WireError::new(format!("unknown comparison op `{other}`"))),
    })
}

fn agg_func(s: &str) -> Result<AggFunc> {
    Ok(match s {
        "count" => AggFunc::Count,
        "sum" => AggFunc::Sum,
        "avg" => AggFunc::Avg,
        "min" => AggFunc::Min,
        "max" => AggFunc::Max,
        other => return Err(WireError::new(format!("unknown aggregate `{other}`"))),
    })
}

/// Decodes a wire query against `schema` into a validated [`BeasQuery`].
pub fn query_from_json(v: &Json, schema: &DatabaseSchema) -> Result<BeasQuery> {
    Ok(match ra_or_agg(v, schema, 0)? {
        Decoded::Ra(q) => BeasQuery::Ra(q),
        Decoded::Agg(q) => BeasQuery::Aggregate(q),
    })
}

enum Decoded {
    Ra(RaQuery),
    Agg(AggQuery),
}

const MAX_QUERY_DEPTH: usize = 16;

fn ra_or_agg(v: &Json, schema: &DatabaseSchema, depth: usize) -> Result<Decoded> {
    if depth > MAX_QUERY_DEPTH {
        return Err(WireError::new("query nesting too deep"));
    }
    let ty = str_field(v, "type", "query")?;
    match ty {
        "spc" => Ok(Decoded::Ra(RaQuery::Spc(spc_from_json(v, schema)?))),
        "union" | "difference" => {
            let left = match ra_or_agg(field(v, "left", ty)?, schema, depth + 1)? {
                Decoded::Ra(q) => q,
                Decoded::Agg(_) => {
                    return Err(WireError::new(format!(
                        "`{ty}` branches must not aggregate"
                    )))
                }
            };
            let right = match ra_or_agg(field(v, "right", ty)?, schema, depth + 1)? {
                Decoded::Ra(q) => q,
                Decoded::Agg(_) => {
                    return Err(WireError::new(format!(
                        "`{ty}` branches must not aggregate"
                    )))
                }
            };
            Ok(Decoded::Ra(if ty == "union" {
                left.union(right)
            } else {
                left.difference(right)
            }))
        }
        "aggregate" => {
            let input = match ra_or_agg(field(v, "input", "aggregate")?, schema, depth + 1)? {
                Decoded::Ra(q) => q,
                Decoded::Agg(_) => {
                    return Err(WireError::new("nested aggregates are not supported"))
                }
            };
            let group_by = match v.get("group_by") {
                None => Vec::new(),
                Some(g) => g
                    .as_arr()
                    .ok_or_else(|| WireError::new("aggregate: `group_by` must be an array"))?
                    .iter()
                    .map(|c| {
                        c.as_str().map(str::to_string).ok_or_else(|| {
                            WireError::new("aggregate: group-by columns must be strings")
                        })
                    })
                    .collect::<Result<Vec<_>>>()?,
            };
            let agg = agg_func(str_field(v, "agg", "aggregate")?)?;
            let col = str_field(v, "col", "aggregate")?;
            let name = str_field(v, "name", "aggregate")?;
            AggQuery::new(input, group_by, agg, col, name)
                .map(Decoded::Agg)
                .map_err(|e| WireError::new(e.to_string()))
        }
        other => Err(WireError::new(format!(
            "unknown query type `{other}` (expected spc/union/difference/aggregate)"
        ))),
    }
}

fn spc_from_json(v: &Json, schema: &DatabaseSchema) -> Result<beas_relal::SpcQuery> {
    let mut b = SpcQueryBuilder::new(schema);
    let atoms = field(v, "atoms", "spc")?
        .as_arr()
        .ok_or_else(|| WireError::new("spc: `atoms` must be an array"))?;
    if atoms.is_empty() {
        return Err(WireError::new("spc: at least one atom is required"));
    }
    // alias -> builder atom index
    let mut alias_of = Vec::new();
    for atom in atoms {
        let relation = str_field(atom, "relation", "atom")?;
        let alias = atom.get("alias").and_then(Json::as_str).unwrap_or(relation);
        if alias_of.iter().any(|(a, _)| a == alias) {
            return Err(WireError::new(format!(
                "spc: duplicate atom alias `{alias}`"
            )));
        }
        let idx = b
            .atom(relation, alias)
            .map_err(|e| WireError::new(e.to_string()))?;
        alias_of.push((alias.to_string(), idx));
    }
    let resolve = |alias: &str| -> Result<usize> {
        alias_of
            .iter()
            .find(|(a, _)| a == alias)
            .map(|&(_, i)| i)
            .ok_or_else(|| WireError::new(format!("spc: unknown atom alias `{alias}`")))
    };

    for bind in opt_array(v, "binds")? {
        let atom = resolve(str_field(bind, "atom", "bind")?)?;
        let attr = str_field(bind, "attr", "bind")?;
        let value = value_from_json(field(bind, "value", "bind")?)?;
        b.bind_const(atom, attr, value)
            .map_err(|e| WireError::new(e.to_string()))?;
    }
    for join in opt_array(v, "joins")? {
        let (la, lattr) = endpoint(field(join, "left", "join")?)?;
        let (ra, rattr) = endpoint(field(join, "right", "join")?)?;
        b.join((resolve(&la)?, &lattr), (resolve(&ra)?, &rattr))
            .map_err(|e| WireError::new(e.to_string()))?;
    }
    for filter in opt_array(v, "filters")? {
        let atom = resolve(str_field(filter, "atom", "filter")?)?;
        let attr = str_field(filter, "attr", "filter")?;
        let op = compare_op(str_field(filter, "op", "filter")?)?;
        let value = value_from_json(field(filter, "value", "filter")?)?;
        b.filter_const(atom, attr, op, value)
            .map_err(|e| WireError::new(e.to_string()))?;
    }
    for output in opt_array(v, "outputs")? {
        let atom = resolve(str_field(output, "atom", "output")?)?;
        let attr = str_field(output, "attr", "output")?;
        let name = output.get("name").and_then(Json::as_str).unwrap_or(attr);
        b.output(atom, attr, name)
            .map_err(|e| WireError::new(e.to_string()))?;
    }
    b.build().map_err(|e| WireError::new(e.to_string()))
}

/// Encodes a validated [`BeasQuery`] in the wire grammar [`query_from_json`]
/// decodes — the inter-node form a cluster coordinator ships to its shards.
///
/// The encoding is *canonical*: atoms in query order, constant binds in
/// tableau position order, one join per extra occurrence of a shared variable
/// (anchored at the variable's first position), then filters and outputs in
/// query order. For queries assembled through [`SpcQueryBuilder`] in that
/// same shape (joins anchored at the earlier position — the natural pattern),
/// decode ∘ encode is the identity on the query structure, so two nodes that
/// plan the decoded query derive bit-identical plans. Queries carrying
/// variable-to-variable selections ([`SelCond::VarVar`]) have no wire form
/// and are rejected.
pub fn query_to_json(query: &BeasQuery, schema: &DatabaseSchema) -> Result<Json> {
    match query {
        BeasQuery::Ra(q) => ra_to_json(q, schema),
        BeasQuery::Aggregate(a) => Ok(Json::obj(vec![
            ("type", Json::Str("aggregate".to_string())),
            ("input", ra_to_json(&a.input, schema)?),
            (
                "group_by",
                Json::Arr(a.group_by.iter().map(|g| Json::Str(g.clone())).collect()),
            ),
            ("agg", Json::Str(agg_func_name(a.agg).to_string())),
            ("col", Json::Str(a.agg_col.clone())),
            ("name", Json::Str(a.out_name.clone())),
        ])),
    }
}

fn agg_func_name(f: AggFunc) -> &'static str {
    match f {
        AggFunc::Count => "count",
        AggFunc::Sum => "sum",
        AggFunc::Avg => "avg",
        AggFunc::Min => "min",
        AggFunc::Max => "max",
    }
}

fn compare_op_name(op: CompareOp) -> &'static str {
    match op {
        CompareOp::Eq => "=",
        CompareOp::Ne => "!=",
        CompareOp::Lt => "<",
        CompareOp::Le => "<=",
        CompareOp::Gt => ">",
        CompareOp::Ge => ">=",
    }
}

fn ra_to_json(q: &RaQuery, schema: &DatabaseSchema) -> Result<Json> {
    match q {
        RaQuery::Spc(s) => spc_to_json(s, schema),
        RaQuery::Union(l, r) => Ok(Json::obj(vec![
            ("type", Json::Str("union".to_string())),
            ("left", ra_to_json(l, schema)?),
            ("right", ra_to_json(r, schema)?),
        ])),
        RaQuery::Difference(l, r) => Ok(Json::obj(vec![
            ("type", Json::Str("difference".to_string())),
            ("left", ra_to_json(l, schema)?),
            ("right", ra_to_json(r, schema)?),
        ])),
    }
}

fn spc_to_json(q: &SpcQuery, schema: &DatabaseSchema) -> Result<Json> {
    // (alias, attribute name) of a tableau position
    let pos_ref = |pos: (usize, usize)| -> Result<(String, String)> {
        let atom = q
            .atoms
            .get(pos.0)
            .ok_or_else(|| WireError::new(format!("spc: no atom {}", pos.0)))?;
        let rel = schema
            .relation(&atom.relation)
            .map_err(|e| WireError::new(e.to_string()))?;
        let attr = rel.attributes.get(pos.1).ok_or_else(|| {
            WireError::new(format!("spc: {} has no attribute {}", atom.relation, pos.1))
        })?;
        Ok((atom.alias.clone(), attr.name.clone()))
    };

    let atoms: Vec<Json> = q
        .atoms
        .iter()
        .map(|a| {
            Json::obj(vec![
                ("relation", Json::Str(a.relation.clone())),
                ("alias", Json::Str(a.alias.clone())),
            ])
        })
        .collect();

    let mut binds = Vec::new();
    for (ai, terms) in q.terms.iter().enumerate() {
        for (pi, term) in terms.iter().enumerate() {
            if let Term::Const(v) = term {
                let (alias, attr) = pos_ref((ai, pi))?;
                binds.push(Json::obj(vec![
                    ("atom", Json::Str(alias)),
                    ("attr", Json::Str(attr)),
                    ("value", value_to_json(v)),
                ]));
            }
        }
    }

    let mut joins = Vec::new();
    for positions in q.var_positions().values() {
        if positions.len() > 1 {
            let (la, lattr) = pos_ref(positions[0])?;
            for &p in &positions[1..] {
                let (ra, rattr) = pos_ref(p)?;
                joins.push(Json::obj(vec![
                    (
                        "left",
                        Json::Arr(vec![Json::Str(la.clone()), Json::Str(lattr.clone())]),
                    ),
                    ("right", Json::Arr(vec![Json::Str(ra), Json::Str(rattr)])),
                ]));
            }
        }
    }

    let mut filters = Vec::new();
    for sel in &q.selections {
        match sel {
            SelCond::VarConst { var, op, value } => {
                let pos = q.var_first_position(*var).ok_or_else(|| {
                    WireError::new(format!("spc: unbound selection variable {var}"))
                })?;
                let (alias, attr) = pos_ref(pos)?;
                filters.push(Json::obj(vec![
                    ("atom", Json::Str(alias)),
                    ("attr", Json::Str(attr)),
                    ("op", Json::Str(compare_op_name(*op).to_string())),
                    ("value", value_to_json(value)),
                ]));
            }
            SelCond::VarVar { .. } => {
                return Err(WireError::new(
                    "spc: variable-to-variable selections have no wire form",
                ))
            }
        }
    }

    let mut outputs = Vec::new();
    for out in &q.output {
        let pos = q
            .var_first_position(out.var)
            .ok_or_else(|| WireError::new(format!("spc: unbound output variable {}", out.var)))?;
        let (alias, attr) = pos_ref(pos)?;
        outputs.push(Json::obj(vec![
            ("atom", Json::Str(alias)),
            ("attr", Json::Str(attr)),
            ("name", Json::Str(out.name.clone())),
        ]));
    }

    Ok(Json::obj(vec![
        ("type", Json::Str("spc".to_string())),
        ("atoms", Json::Arr(atoms)),
        ("binds", Json::Arr(binds)),
        ("joins", Json::Arr(joins)),
        ("filters", Json::Arr(filters)),
        ("outputs", Json::Arr(outputs)),
    ]))
}

/// A join endpoint: `["h", "city"]` or `{"atom": "h", "attr": "city"}`.
fn endpoint(v: &Json) -> Result<(String, String)> {
    if let Some(items) = v.as_arr() {
        if let [a, b] = items {
            if let (Some(a), Some(b)) = (a.as_str(), b.as_str()) {
                return Ok((a.to_string(), b.to_string()));
            }
        }
        return Err(WireError::new(
            "join endpoints must be [alias, attr] string pairs",
        ));
    }
    Ok((
        str_field(v, "atom", "join endpoint")?.to_string(),
        str_field(v, "attr", "join endpoint")?.to_string(),
    ))
}

fn opt_array<'a>(v: &'a Json, key: &str) -> Result<&'a [Json]> {
    match v.get(key) {
        None => Ok(&[]),
        Some(a) => a
            .as_arr()
            .ok_or_else(|| WireError::new(format!("spc: `{key}` must be an array"))),
    }
}

// ---------------------------------------------------------------- specs

/// Decodes a `"spec"` string field (canonical [`ResourceSpec`] form).
/// Accuracy targets (`eta:…`) are a different request denomination and get a
/// redirecting error instead of the generic parse failure.
pub fn spec_from_json(v: &Json) -> Result<ResourceSpec> {
    let text = str_field(v, "spec", "request")?;
    if is_eta_form(text) {
        return Err(WireError::new(format!(
            "`{}` is an accuracy target, not a resource spec; send it in the \
             `target` field instead (e.g. {{\"target\": \"{}\"}})",
            text.trim(),
            text.trim()
        )));
    }
    text.parse::<ResourceSpec>()
        .map_err(|e| WireError::new(e.to_string()))
}

fn is_eta_form(text: &str) -> bool {
    text.trim_start().starts_with("eta:")
}

/// Decodes the optional `"target"` string field — an accuracy target in the
/// `eta:<η>` / `eta:<η>@<spec>` grammar of [`AccuracyTarget`]. Returns
/// `Ok(None)` when the field is absent.
pub fn target_from_json(v: &Json) -> Result<Option<AccuracyTarget>> {
    let Some(t) = v.get("target") else {
        return Ok(None);
    };
    let text = t
        .as_str()
        .ok_or_else(|| WireError::new("request: `target` must be a string (e.g. \"eta:0.95\")"))?;
    text.parse::<AccuracyTarget>()
        .map(Some)
        .map_err(|e| WireError::new(e.to_string()))
}

/// Decodes the refinement schedule of a `POST /query/stream` request body:
///
/// * `"schedule": ["ratio:0.01", "ratio:0.1", "ratio:1"]` — explicit steps in
///   the canonical [`ResourceSpec`] grammar;
/// * only `"spec"` — the default ladder [leading to that
///   spec](RefinementSchedule::leading_to), so the final frame equals a
///   one-shot `POST /query` at the same spec;
/// * only `"target": "eta:0.95"` — an [accuracy-adaptive
///   schedule](RefinementSchedule::to_accuracy) whose rungs the planner
///   derives from planned η, ending at the smallest budget that reaches the
///   target;
/// * none of the three — the full
///   [default ladder](RefinementSchedule::default_ladder).
pub fn schedule_from_json(v: &Json) -> Result<RefinementSchedule> {
    if let Some(target) = target_from_json(v)? {
        if v.get("schedule").is_some() || v.get("spec").is_some() {
            return Err(WireError::new(
                "request: `target` cannot be combined with `spec` or `schedule`; \
                 an accuracy target derives its own refinement trajectory",
            ));
        }
        if target.max_budget != ResourceSpec::FULL {
            return Err(WireError::new(format!(
                "budget-capped accuracy targets (`{target}`) are not supported \
                 on the streamed route; use POST /query, or an uncapped \
                 `eta:{}` here",
                target.eta
            )));
        }
        return RefinementSchedule::to_accuracy(target.eta)
            .map_err(|e| WireError::new(e.to_string()));
    }
    match v.get("schedule") {
        Some(s) => {
            let steps = s
                .as_arr()
                .ok_or_else(|| WireError::new("request: `schedule` must be an array"))?;
            let specs: Vec<ResourceSpec> = steps
                .iter()
                .map(|step| {
                    let text = step.as_str().ok_or_else(|| {
                        WireError::new(
                            "request: schedule steps must be spec strings \
                             (e.g. \"ratio:0.1\")",
                        )
                    })?;
                    if is_eta_form(text) {
                        return Err(WireError::new(format!(
                            "`{}` is an accuracy target, not a resource spec; \
                             schedule steps are budgets — send the target in \
                             the `target` field instead",
                            text.trim()
                        )));
                    }
                    text.parse::<ResourceSpec>()
                        .map_err(|e| WireError::new(e.to_string()))
                })
                .collect::<Result<_>>()?;
            RefinementSchedule::from_specs(specs).map_err(|e| WireError::new(e.to_string()))
        }
        None => match v.get("spec") {
            Some(_) => RefinementSchedule::leading_to(spec_from_json(v)?)
                .map_err(|e| WireError::new(e.to_string())),
            None => Ok(RefinementSchedule::default_ladder()),
        },
    }
}

// ---------------------------------------------------------------- updates

/// Decodes an update request body into an [`UpdateBatch`]:
/// `{"inserts": [{"relation": "poi", "row": ["a", "hotel", "NYC", 95.0]}]}`.
pub fn update_from_json(v: &Json) -> Result<UpdateBatch> {
    let inserts = field(v, "inserts", "update")?
        .as_arr()
        .ok_or_else(|| WireError::new("update: `inserts` must be an array"))?;
    let mut batch = UpdateBatch::new();
    for insert in inserts {
        let relation = str_field(insert, "relation", "insert")?;
        let row: Row = field(insert, "row", "insert")?
            .as_arr()
            .ok_or_else(|| WireError::new("insert: `row` must be an array"))?
            .iter()
            .map(value_from_json)
            .collect::<Result<_>>()?;
        batch = batch.insert(relation, row);
    }
    Ok(batch)
}

// ---------------------------------------------------------------- answers

/// Encodes a relation as `{"columns": [...], "rows": [[...], ...]}` pairs
/// merged into the enclosing object.
fn relation_fields(rel: &Relation) -> Vec<(&'static str, Json)> {
    let rows: Vec<Json> = rel
        .rows()
        .map(|row| Json::Arr(row.iter().map(value_to_json).collect()))
        .collect();
    vec![
        (
            "columns",
            Json::Arr(rel.columns.iter().map(|c| Json::Str(c.clone())).collect()),
        ),
        ("rows", Json::Arr(rows)),
    ]
}

/// Encodes a relation as a standalone `{"columns": [...], "rows": [[...]]}`
/// object — the payload form fragments and leaf results travel in between
/// cluster nodes. Bit-for-bit inverse of [`relation_from_json`].
pub fn relation_to_json(rel: &Relation) -> Json {
    Json::obj(relation_fields(rel))
}

/// Encodes a [`BeasAnswer`] for the wire, including the answer digest.
pub fn answer_to_json(answer: &BeasAnswer) -> Json {
    let mut pairs = relation_fields(&answer.answers);
    pairs.push(("eta", Json::Num(answer.eta)));
    pairs.push(("exact", Json::Bool(answer.exact)));
    pairs.push(("accessed", Json::Int(answer.accessed as i64)));
    pairs.push(("budget", Json::Int(answer.budget as i64)));
    pairs.push(("planned_tariff", Json::Int(answer.planned_tariff as i64)));
    pairs.push((
        "digest",
        Json::Str(format!("{:016x}", answer.answers.digest())),
    ));
    Json::obj(pairs)
}

/// Encodes a [`TargetedAnswer`] for the wire: the full answer encoding of
/// [`answer_to_json`] plus the target accounting — the `target`, the spec it
/// resolved to, the searched `predicted_budget` admission charged, the
/// tuples actually `spent`, whether the target was `feasible` under its
/// budget cap and how many `escalations` a set difference needed past the
/// searched budget.
pub fn targeted_answer_to_json(t: &TargetedAnswer) -> Json {
    let mut pairs = match answer_to_json(&t.answer) {
        Json::Obj(pairs) => pairs,
        _ => unreachable!("answers encode as objects"),
    };
    pairs.push(("target".to_string(), Json::Str(t.target.to_string())));
    pairs.push(("target_eta".to_string(), Json::Num(t.target.eta)));
    pairs.push(("spec".to_string(), Json::Str(t.spec.to_string())));
    pairs.push((
        "predicted_budget".to_string(),
        Json::Int(t.predicted_budget as i64),
    ));
    pairs.push(("spent".to_string(), Json::Int(t.spent as i64)));
    pairs.push(("feasible".to_string(), Json::Bool(t.feasible)));
    pairs.push(("escalations".to_string(), Json::Int(t.escalations as i64)));
    Json::Obj(pairs)
}

/// Encodes one [`RefinementStep`] as a streamed frame: the full answer
/// encoding of [`answer_to_json`] (columns, rows, η, access accounting,
/// digest) plus the session accounting — `step`/`steps`, the step's `spec`,
/// the cumulative `budget_spent` and the tuples `reused` from earlier steps.
/// The final frame of a session carries exactly the digest a one-shot
/// `POST /query` at the same spec returns.
pub fn step_to_json(step: &RefinementStep) -> Json {
    let mut pairs = match answer_to_json(&step.answer) {
        Json::Obj(pairs) => pairs,
        _ => unreachable!("answers encode as objects"),
    };
    pairs.push(("step".to_string(), Json::Int(step.step as i64)));
    pairs.push(("steps".to_string(), Json::Int(step.steps as i64)));
    pairs.push(("spec".to_string(), Json::Str(step.spec.to_string())));
    pairs.push((
        "budget_spent".to_string(),
        Json::Int(step.budget_spent as i64),
    ));
    pairs.push(("reused".to_string(), Json::Int(step.reused_tuples as i64)));
    Json::Obj(pairs)
}

/// Decodes the `columns` / `rows` fields of an answer back into a
/// [`Relation`] — the client half of the digest round-trip.
pub fn relation_from_json(v: &Json) -> Result<Relation> {
    let columns: Vec<String> = field(v, "columns", "answer")?
        .as_arr()
        .ok_or_else(|| WireError::new("answer: `columns` must be an array"))?
        .iter()
        .map(|c| {
            c.as_str()
                .map(str::to_string)
                .ok_or_else(|| WireError::new("answer: column names must be strings"))
        })
        .collect::<Result<_>>()?;
    let rows: Vec<Row> = field(v, "rows", "answer")?
        .as_arr()
        .ok_or_else(|| WireError::new("answer: `rows` must be an array"))?
        .iter()
        .map(|row| {
            row.as_arr()
                .ok_or_else(|| WireError::new("answer: each row must be an array"))?
                .iter()
                .map(value_from_json)
                .collect::<Result<Row>>()
        })
        .collect::<Result<_>>()?;
    Relation::new(columns, rows).map_err(|e| WireError::new(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use beas_relal::{Attribute, Database, DatabaseSchema, RelationSchema};

    fn schema() -> DatabaseSchema {
        DatabaseSchema::new(vec![
            RelationSchema::new(
                "poi",
                vec![
                    Attribute::categorical("type"),
                    Attribute::text("city"),
                    Attribute::double("price"),
                ],
            ),
            RelationSchema::new("friend", vec![Attribute::id("pid"), Attribute::id("fid")]),
        ])
    }

    #[test]
    fn decodes_an_spc_query() {
        let q = parse(
            r#"{"type":"spc",
                "atoms":[{"relation":"poi","alias":"h"}],
                "binds":[{"atom":"h","attr":"type","value":"hotel"}],
                "filters":[{"atom":"h","attr":"price","op":"<=","value":95}],
                "outputs":[{"atom":"h","attr":"price","name":"price"}]}"#,
        )
        .unwrap();
        let query = query_from_json(&q, &schema()).unwrap();
        assert!(query.is_spc());
        assert_eq!(query.output_columns(), vec!["price"]);
    }

    #[test]
    fn decodes_joins_unions_and_aggregates() {
        let branch = r#"{"type":"spc",
            "atoms":[{"relation":"poi","alias":"h"},{"relation":"friend","alias":"f"}],
            "joins":[{"left":["h","price"],"right":["f","pid"]}],
            "outputs":[{"atom":"h","attr":"city"}]}"#;
        let q = parse(&format!(
            r#"{{"type":"aggregate",
                "input":{{"type":"union","left":{branch},"right":{branch}}},
                "group_by":["city"],"agg":"count","col":"city","name":"n"}}"#
        ))
        .unwrap();
        let query = query_from_json(&q, &schema()).unwrap();
        assert!(query.is_aggregate());
        assert_eq!(query.output_columns(), vec!["city", "n"]);
        assert_eq!(query.relation_count(), 4);
    }

    #[test]
    fn rejects_malformed_queries() {
        let s = schema();
        for bad in [
            r#"{"atoms":[]}"#,
            r#"{"type":"nope"}"#,
            r#"{"type":"spc","atoms":[]}"#,
            r#"{"type":"spc","atoms":[{"relation":"missing"}]}"#,
            r#"{"type":"spc","atoms":[{"relation":"poi"}],"outputs":[{"atom":"x","attr":"price"}]}"#,
            r#"{"type":"spc","atoms":[{"relation":"poi"}],"filters":[{"atom":"poi","attr":"price","op":"~","value":1}]}"#,
            r#"{"type":"spc","atoms":[{"relation":"poi"},{"relation":"poi"}]}"#,
        ] {
            let v = parse(bad).unwrap();
            assert!(query_from_json(&v, &s).is_err(), "`{bad}` accepted");
        }
    }

    #[test]
    fn eta_specs_are_redirected_to_the_target_field() {
        let v = parse(r#"{"spec":"eta:0.95"}"#).unwrap();
        let err = spec_from_json(&v).unwrap_err().to_string();
        assert!(err.contains("accuracy target"), "{err}");
        assert!(err.contains("`target` field"), "{err}");
        // and inside a schedule array
        let v = parse(r#"{"schedule":["ratio:0.1","eta:0.9"]}"#).unwrap();
        let err = schedule_from_json(&v).unwrap_err().to_string();
        assert!(err.contains("accuracy target"), "{err}");
    }

    #[test]
    fn target_field_decodes_and_validates() {
        assert!(target_from_json(&parse(r#"{}"#).unwrap())
            .unwrap()
            .is_none());
        let t = target_from_json(&parse(r#"{"target":"eta:0.95"}"#).unwrap())
            .unwrap()
            .unwrap();
        assert_eq!(t.eta, 0.95);
        let capped = target_from_json(&parse(r#"{"target":"eta:0.9@ratio:0.5"}"#).unwrap())
            .unwrap()
            .unwrap();
        assert_eq!(capped.max_budget, ResourceSpec::Ratio(0.5));
        // bad values name the offending value and the valid range
        let err = target_from_json(&parse(r#"{"target":"eta:1.5"}"#).unwrap())
            .unwrap_err()
            .to_string();
        assert!(err.contains("(0, 1]"), "{err}");
        assert!(err.contains("`1.5`"), "{err}");
        assert!(target_from_json(&parse(r#"{"target":7}"#).unwrap()).is_err());
    }

    #[test]
    fn target_schedules_derive_accuracy_goals() {
        let s = schedule_from_json(&parse(r#"{"target":"eta:0.9"}"#).unwrap()).unwrap();
        assert_eq!(s.accuracy_goal(), Some(0.9));
        // mixing denominations is rejected, as are capped targets (the
        // streamed route always refines towards full)
        assert!(
            schedule_from_json(&parse(r#"{"target":"eta:0.9","spec":"ratio:0.5"}"#).unwrap())
                .is_err()
        );
        assert!(schedule_from_json(&parse(r#"{"target":"eta:0.9@tuples:100"}"#).unwrap()).is_err());
    }

    #[test]
    fn update_round_trip() {
        let v = parse(
            r#"{"inserts":[
                {"relation":"poi","row":["hotel","NYC",95.5]},
                {"relation":"friend","row":[1,2]}]}"#,
        )
        .unwrap();
        let batch = update_from_json(&v).unwrap();
        assert_eq!(batch.len(), 2);
        assert_eq!(
            batch.inserts()[0].1,
            vec![
                Value::from("hotel"),
                Value::from("NYC"),
                Value::Double(95.5)
            ]
        );
        assert_eq!(batch.inserts()[1].1, vec![Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn query_encoding_round_trips_structurally() {
        let s = schema();
        // an aggregate over a union of joins, binds and filters — the full
        // grammar in one query
        let mut b = SpcQueryBuilder::new(&s);
        let h = b.atom("poi", "h").unwrap();
        let f = b.atom("friend", "f").unwrap();
        b.bind_const(h, "type", "hotel").unwrap();
        b.join((h, "price"), (f, "pid")).unwrap();
        b.filter_const(h, "price", CompareOp::Le, 95i64).unwrap();
        b.output(h, "city", "city").unwrap();
        let left = RaQuery::Spc(b.build().unwrap());
        let mut b = SpcQueryBuilder::new(&s);
        let h = b.atom("poi", "h2").unwrap();
        b.bind_const(h, "type", "museum").unwrap();
        b.filter_const(h, "city", CompareOp::Eq, "LA").unwrap();
        b.output(h, "city", "city").unwrap();
        let right = RaQuery::Spc(b.build().unwrap());
        let query: BeasQuery = AggQuery::new(
            left.union(right),
            vec!["city".to_string()],
            AggFunc::Count,
            "city",
            "n",
        )
        .unwrap()
        .into();

        let encoded = query_to_json(&query, &s).unwrap();
        // survives serialization, not just the in-memory Json value
        let reparsed = parse(&encoded.to_string()).unwrap();
        let decoded = query_from_json(&reparsed, &s).unwrap();
        assert_eq!(decoded, query, "decode ∘ encode must be the identity");
        // and the round-trip is a fixpoint
        assert_eq!(query_to_json(&decoded, &s).unwrap(), encoded);
    }

    #[test]
    fn query_encoding_rejects_var_var_selections() {
        let s = schema();
        let mut b = SpcQueryBuilder::new(&s);
        let h = b.atom("poi", "h").unwrap();
        let f = b.atom("friend", "f").unwrap();
        b.filter_cols((h, "price"), CompareOp::Ge, (f, "pid"))
            .unwrap();
        b.output(h, "city", "city").unwrap();
        let query: BeasQuery = b.build().unwrap().into();
        assert!(query_to_json(&query, &s).is_err());
    }

    #[test]
    fn relation_digest_survives_the_wire() {
        let mut db = Database::new(schema());
        for i in 0..40i64 {
            db.insert_row(
                "poi",
                vec![
                    Value::from(if i % 2 == 0 { "hotel" } else { "museum" }),
                    Value::from("NYC"),
                    Value::Double(30.0 + i as f64 / 3.0),
                ],
            )
            .unwrap();
        }
        let rel = db.relation("poi").unwrap().clone();
        let json = Json::obj(relation_fields(&rel));
        let back = relation_from_json(&parse(&json.to_string()).unwrap()).unwrap();
        assert_eq!(back.digest(), rel.digest());
        assert_eq!(back.sorted(), rel.sorted());
    }

    #[test]
    fn non_finite_floats_survive_the_wire() {
        for v in [
            Value::Double(f64::NAN),
            Value::Double(f64::INFINITY),
            Value::Double(f64::NEG_INFINITY),
            Value::Double(-0.0),
            Value::Null,
            Value::Bool(true),
        ] {
            let json = value_to_json(&v);
            let back = value_from_json(&parse(&json.to_string()).unwrap()).unwrap();
            match (&v, &back) {
                (Value::Double(a), Value::Double(b)) => {
                    assert_eq!(a.to_bits(), b.to_bits(), "{v:?}")
                }
                _ => assert_eq!(v, back),
            }
        }
    }
}
