//! A minimal JSON value, parser and serializer — the wire format of the
//! serving front-end. Std-only by design (the build environment has no
//! registry access), and deliberately small: objects are ordered key/value
//! vectors, numbers keep the integer/float distinction so `i64` database
//! values survive the wire losslessly, and parsing is depth- and
//! size-bounded so a malicious body cannot blow the stack.
//!
//! Float fidelity matters here: answers must round-trip **bit-for-bit** so a
//! client can recompute the answer digest. Finite `f64`s are serialized with
//! Rust's shortest round-trip formatting (forcing a `.0` onto integral
//! floats so they parse back as floats), and non-finite values — which JSON
//! cannot represent — are encoded as the tagged objects `{"$f":"nan"}`,
//! `{"$f":"inf"}` and `{"$f":"-inf"}`.

use std::fmt;

/// Maximum nesting depth accepted by the parser.
const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer number (no `.`/exponent in the source).
    Int(i64),
    /// A floating-point number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: ordered key/value pairs (later duplicates win on lookup
    /// misuse, but the serializer never emits duplicates).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks a key up in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `i64` (integers only).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as an `f64` (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

impl fmt::Display for Json {
    /// Compact JSON serialization (`value.to_string()` produces the wire
    /// text), written straight into the formatter: no intermediate buffer
    /// and no per-number allocation.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(true) => f.write_str("true"),
            Json::Bool(false) => f.write_str("false"),
            Json::Int(i) => write!(f, "{i}"),
            Json::Num(n) => write_f64(*n, f),
            Json::Str(s) => write_string(s, f),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    item.fmt(f)?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_string(k, f)?;
                    f.write_str(":")?;
                    v.fmt(f)?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Writes a float: shortest round-trip for finite values (with a forced `.0`
/// on integral floats so they stay floats), tagged objects for non-finite.
fn write_f64(n: f64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if n.is_nan() {
        f.write_str("{\"$f\":\"nan\"}")
    } else if n == f64::INFINITY {
        f.write_str("{\"$f\":\"inf\"}")
    } else if n == f64::NEG_INFINITY {
        f.write_str("{\"$f\":\"-inf\"}")
    } else if n.fract() == 0.0 {
        // `{}` never prints an exponent, so an integral value prints as bare
        // digits and needs the `.0`
        write!(f, "{n}.0")
    } else {
        write!(f, "{n}")
    }
}

fn write_string(s: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    f.write_str("\"")?;
    // everything that needs escaping is ASCII, so the runs between escapes
    // are whole characters and go out as one slice each
    let bytes = s.as_bytes();
    let mut run = 0;
    while let Some(i) = next_special(bytes, run, true) {
        f.write_str(&s[run..i])?;
        run = i + 1;
        match bytes[i] {
            b'"' => f.write_str("\\\""),
            b'\\' => f.write_str("\\\\"),
            b'\n' => f.write_str("\\n"),
            b'\r' => f.write_str("\\r"),
            b'\t' => f.write_str("\\t"),
            b => write!(f, "\\u{b:04x}"),
        }?;
    }
    f.write_str(&s[run..])?;
    f.write_str("\"")
}

/// `0x01` in every byte of a word.
const ONES: u64 = 0x0101_0101_0101_0101;

/// Whether a byte of the word `w` is below `n` (`n ≤ 0x80`): exact, with no
/// false positives, for the word as a whole.
fn has_byte_below(w: u64, n: u8) -> bool {
    w.wrapping_sub(ONES * u64::from(n)) & !w & (ONES << 7) != 0
}

/// The index of the first `"` or `\` in `bytes` at or after `from` — or of
/// the first byte below 0x20 too, with `controls` — scanning eight bytes at
/// a time until a word holds one.
fn next_special(bytes: &[u8], from: usize, controls: bool) -> Option<usize> {
    let special = |b: u8| b == b'"' || b == b'\\' || (controls && b < 0x20);
    let mut at = from;
    for word in bytes[from..].chunks_exact(8) {
        let w = u64::from_le_bytes(word.try_into().expect("eight bytes"));
        if has_byte_below(w ^ (ONES * u64::from(b'"')), 1)
            || has_byte_below(w ^ (ONES * u64::from(b'\\')), 1)
            || (controls && has_byte_below(w, 0x20))
        {
            break;
        }
        at += 8;
    }
    bytes[at..].iter().position(|&b| special(b)).map(|i| at + i)
}

/// A JSON parse error with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON value, requiring the whole input to be consumed.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser { input, pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn bytes(&self) -> &'a [u8] {
        self.input.as_bytes()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("JSON nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        // a number is ASCII on both ends, so the slice is on char boundaries
        let text = &self.input[start..self.pos];
        if float {
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| self.err("invalid number"))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                // integers beyond i64 fall back to f64, like other parsers
                .or_else(|_| {
                    text.parse::<f64>()
                        .map(Json::Num)
                        .map_err(|_| self.err("invalid number"))
                })
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // the run up to the next `"` or `\` goes out as one slice: both
            // are ASCII, so the run starts and ends on char boundaries
            let start = self.pos;
            self.pos = next_special(self.bytes(), start, false)
                .ok_or_else(|| self.err("unterminated string"))?;
            out.push_str(&self.input[start..self.pos]);
            let closes = self.bytes()[self.pos] == b'"';
            self.pos += 1;
            if closes {
                return Ok(out);
            }
            let c = match self.peek() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => {
                    self.pos += 1;
                    let code = self.hex4()?;
                    // surrogate pairs: a high surrogate must be followed by
                    // a low surrogate escape — anything else is rejected,
                    // not silently misdecoded
                    let c = if (0xD800..0xDC00).contains(&code) {
                        if self.peek() == Some(b'\\') {
                            self.pos += 1;
                            self.expect(b'u')?;
                            let low = self.hex4()?;
                            if (0xDC00..0xE000).contains(&low) {
                                char::from_u32(0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00))
                            } else {
                                None
                            }
                        } else {
                            None
                        }
                    } else {
                        char::from_u32(code)
                    };
                    out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                    continue;
                }
                _ => return Err(self.err("invalid escape")),
            };
            out.push(c);
            self.pos += 1;
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        // `get` also refuses a range that would split a multi-byte character
        let text = self
            .input
            .get(self.pos..self.pos + 4)
            .filter(|text| text.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        let code = u32::from_str_radix(text, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_structures() {
        for text in [
            "null",
            "true",
            "false",
            "0",
            "-42",
            "3.5",
            "\"hi \\\"there\\\"\"",
            "[1,2.5,\"x\",null,[true]]",
            "{\"a\":1,\"b\":{\"c\":[]},\"d\":\"\"}",
        ] {
            let v = parse(text).unwrap();
            assert_eq!(parse(&v.to_string()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn strings_round_trip_with_a_special_character_at_every_word_offset() {
        // the string scanners skip eight bytes at a time: put each escape,
        // each control byte and a 4-byte character at every offset of the
        // first two words and the one after, in a 40-byte string
        let specials: Vec<char> = ['"', '\\', '/', '\u{7f}', '\u{1F600}']
            .into_iter()
            .chain((0u8..0x20).map(char::from))
            .collect();
        for special in specials {
            for offset in 0..=16 {
                let mut text = "x".repeat(offset);
                text.push(special);
                while text.len() < 40 {
                    text.push(if text.len() % 3 == 0 { 'é' } else { 'y' });
                }
                let written = Json::Str(text.clone()).to_string();
                assert!(
                    written.bytes().all(|b| b >= 0x20),
                    "a raw control byte in {written:?}"
                );
                assert_eq!(
                    parse(&written).unwrap(),
                    Json::Str(text.clone()),
                    "{special:?} at {offset}"
                );
                // and inside a document, next to another string
                let doc = Json::Arr(vec![Json::Str(text.clone()), Json::Str(text)]);
                assert_eq!(parse(&doc.to_string()).unwrap(), doc);
            }
        }
    }

    #[test]
    fn integer_float_distinction_survives() {
        assert_eq!(parse("3").unwrap(), Json::Int(3));
        assert_eq!(parse("3.0").unwrap(), Json::Num(3.0));
        assert_eq!(Json::Num(3.0).to_string(), "3.0");
        assert_eq!(Json::Int(3).to_string(), "3");
        assert_eq!(parse("1e3").unwrap(), Json::Num(1000.0));
    }

    #[test]
    fn float_round_trip_is_exact() {
        for f in [0.1, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300, -2.5e-10, -0.0] {
            let text = Json::Num(f).to_string();
            match parse(&text).unwrap() {
                Json::Num(g) => assert_eq!(f.to_bits(), g.to_bits(), "{f} via {text}"),
                other => panic!("{f} parsed as {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "{]",
            "nulll",
            "--1",
            "\"\\u12\"",
        ] {
            assert!(parse(bad).is_err(), "`{bad}` accepted");
        }
    }

    #[test]
    fn rejects_pathological_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(20) + &"]".repeat(20);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn unicode_escapes_and_raw_utf8() {
        assert_eq!(parse("\"\\u00e9\"").unwrap(), Json::Str("é".to_string()));
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::Str("😀".to_string())
        );
        let v = Json::Str("héllo — 世界".to_string());
        assert_eq!(parse(&v.to_string()).unwrap(), v);
        // invalid surrogate sequences are rejected, never misdecoded
        for bad in [
            "\"\\ud800\\u0061\"", // high surrogate + non-surrogate escape
            "\"\\ud800a\"",       // high surrogate + raw character
            "\"\\ud800\"",        // lone high surrogate
            "\"\\udc00\"",        // lone low surrogate
        ] {
            assert!(parse(bad).is_err(), "`{bad}` accepted");
        }
    }

    #[test]
    fn object_lookup_and_accessors() {
        let v = parse("{\"x\":5,\"y\":\"s\",\"z\":[1],\"w\":true}").unwrap();
        assert_eq!(v.get("x").and_then(Json::as_i64), Some(5));
        assert_eq!(v.get("x").and_then(Json::as_f64), Some(5.0));
        assert_eq!(v.get("y").and_then(Json::as_str), Some("s"));
        assert_eq!(v.get("z").and_then(Json::as_arr).map(|a| a.len()), Some(1));
        assert_eq!(v.get("w").and_then(Json::as_bool), Some(true));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn unicode_escape_takes_hex_digits_only() {
        // `from_str_radix` alone would take a sign
        assert!(parse("\"\\u+123\"").is_err());
        assert!(parse("\"\\u00é\"").is_err()); // 4 bytes that split a character
        assert_eq!(parse("\"\\u00E9\"").unwrap(), Json::Str("é".to_string()));
    }

    #[test]
    fn serializer_output_is_pinned() {
        let v = Json::obj(vec![
            (
                "s",
                Json::Str("a\"b\\c/\n\r\t\u{8}\u{c}\u{0}\u{1f} é世😀".to_string()),
            ),
            (
                "i",
                Json::Arr(vec![Json::Int(i64::MIN), Json::Int(i64::MAX)]),
            ),
            (
                "f",
                Json::Arr(vec![
                    Json::Num(-0.0),
                    Json::Num(1e21),
                    Json::Num(2.5e-7),
                    Json::Num(f64::NAN),
                    Json::Num(f64::NEG_INFINITY),
                ]),
            ),
        ]);
        assert_eq!(
            v.to_string(),
            "{\"s\":\"a\\\"b\\\\c/\\n\\r\\t\\u0008\\u000c\\u0000\\u001f é世😀\",\
             \"i\":[-9223372036854775808,9223372036854775807],\
             \"f\":[-0.0,1000000000000000000000.0,0.00000025,{\"$f\":\"nan\"},{\"$f\":\"-inf\"}]}"
        );
        // the `.0` rule is "the shortest round-trip text has no `.`, `e` or
        // `E`"; the serializer decides it from the value, so check the two
        // agree across the whole exponent range
        let mut rng = Rng(7);
        for _ in 0..20_000 {
            let f = f64::from_bits(rng.next());
            if f.is_finite() {
                let mut text = format!("{f}");
                if !text.contains(['.', 'e', 'E']) {
                    text.push_str(".0");
                }
                assert_eq!(Json::Num(f).to_string(), text);
            }
        }
    }

    /// splitmix64: the seeded source of the property tests.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Characters that exercise every branch of the string scanner: plain
    /// ASCII, everything with a short escape, other control characters, and
    /// 2-, 3- and 4-byte UTF-8 (the last needs a surrogate pair as `\u`).
    const CHARS: [char; 18] = [
        'a', 'Z', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{8}', '\u{c}', '\u{0}', '\u{1f}', 'é',
        'ß', '世', '😀', '𝄞',
    ];

    fn random_string(rng: &mut Rng) -> String {
        (0..rng.below(12))
            .map(|_| CHARS[rng.below(CHARS.len())])
            .collect()
    }

    fn random_tree(rng: &mut Rng, depth: usize) -> Json {
        match rng.below(if depth < 4 { 8 } else { 6 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.below(2) == 0),
            2 => Json::Int(match rng.below(4) {
                0 => i64::MIN,
                1 => i64::MAX,
                _ => rng.next() as i64 >> rng.below(64),
            }),
            3 => Json::Num(match rng.below(6) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => -0.0,
                4 => rng.below(1000) as f64,
                _ => f64::from_bits(rng.next()),
            }),
            4 | 5 => Json::Str(random_string(rng)),
            6 => Json::Arr(
                (0..rng.below(5))
                    .map(|_| random_tree(rng, depth + 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..rng.below(5))
                    .map(|_| (random_string(rng), random_tree(rng, depth + 1)))
                    .collect(),
            ),
        }
    }

    /// What `v`'s text parses back to: itself, except that non-finite floats
    /// come back as the tagged `{"$f": …}` objects they were written as.
    fn as_parsed(v: &Json) -> Json {
        match v {
            Json::Num(f) if !f.is_finite() => parse(&v.to_string()).unwrap(),
            Json::Arr(items) => Json::Arr(items.iter().map(as_parsed).collect()),
            Json::Obj(pairs) => Json::Obj(
                pairs
                    .iter()
                    .map(|(k, v)| (k.clone(), as_parsed(v)))
                    .collect(),
            ),
            other => other.clone(),
        }
    }

    /// A second encoder, for the parser's sake: random whitespace and, per
    /// character, a random choice among all the spellings JSON allows
    /// (`\/`, `\b`, `\f`, `\uXXXX`, surrogate pairs) — forms the serializer
    /// never emits.
    fn spell(v: &Json, rng: &mut Rng, out: &mut String) {
        let pad =
            |rng: &mut Rng, out: &mut String| out.push_str(["", " ", "\n", "\t\r"][rng.below(4)]);
        let string = |s: &str, rng: &mut Rng, out: &mut String| {
            out.push('"');
            for c in s.chars() {
                let short = match c {
                    '"' => Some("\\\""),
                    '\\' => Some("\\\\"),
                    '/' => Some("\\/"),
                    '\n' => Some("\\n"),
                    '\r' => Some("\\r"),
                    '\t' => Some("\\t"),
                    '\u{8}' => Some("\\b"),
                    '\u{c}' => Some("\\f"),
                    _ => None,
                };
                let must_escape = matches!(c, '"' | '\\');
                match (rng.below(3), short) {
                    (0, Some(short)) => out.push_str(short),
                    (1, _) if !must_escape => out.push(c),
                    _ => {
                        for unit in c.encode_utf16(&mut [0; 2]) {
                            let hex = format!("{unit:04x}");
                            out.push_str("\\u");
                            out.push_str(&if rng.below(2) == 0 {
                                hex.to_uppercase()
                            } else {
                                hex
                            });
                        }
                    }
                }
            }
            out.push('"');
        };
        pad(rng, out);
        match v {
            Json::Str(s) => string(s, rng, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    spell(item, rng, out);
                }
                pad(rng, out);
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    pad(rng, out);
                    string(k, rng, out);
                    pad(rng, out);
                    out.push(':');
                    spell(v, rng, out);
                }
                pad(rng, out);
                out.push('}');
            }
            scalar => out.push_str(&scalar.to_string()),
        }
        pad(rng, out);
    }

    #[test]
    fn random_trees_round_trip_and_damaged_text_is_an_error_not_a_panic() {
        let mut rng = Rng(0xBEA5);
        for case in 0..400 {
            // a container at the top, so that every strict prefix is invalid
            let tree = Json::Arr(vec![random_tree(&mut rng, 0), random_tree(&mut rng, 0)]);
            let expected = as_parsed(&tree);
            let text = tree.to_string();
            let parsed = parse(&text).unwrap_or_else(|e| panic!("case {case}: {e} in {text}"));
            assert_eq!(parsed, expected, "case {case}: {text}");
            // float bits (PartialEq cannot tell -0.0 from 0.0) and Int/Num
            assert_eq!(parsed.to_string(), text, "case {case}");

            let mut spelled = String::new();
            spell(&tree, &mut rng, &mut spelled);
            let parsed =
                parse(&spelled).unwrap_or_else(|e| panic!("case {case}: {e} in {spelled}"));
            assert_eq!(parsed.to_string(), text, "case {case}: {spelled}");

            for text in [&text, &spelled] {
                let trimmed = text.trim_end();
                for cut in (0..trimmed.len()).filter(|&i| text.is_char_boundary(i)) {
                    assert!(
                        parse(&text[..cut]).is_err(),
                        "case {case}: prefix {cut} of {text}"
                    );
                }
                for _ in 0..32 {
                    let mut bytes = text.clone().into_bytes();
                    let at = rng.below(bytes.len());
                    bytes[at] ^= 1 << rng.below(8);
                    // damage that is still UTF-8 may even be valid JSON;
                    // whatever it is, parsing it must return
                    if let Ok(damaged) = String::from_utf8(bytes) {
                        if let Ok(v) = parse(&damaged) {
                            assert_eq!(parse(&v.to_string()).unwrap(), as_parsed(&v));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn parse_time_is_linear_in_document_size() {
        // string-heavy, like a shard's fragment response: rows of short
        // strings, some with escapes and multi-byte characters
        let document = |bytes: usize| {
            let row = r#"["lineitem","1996-03-13","TRUCK","DELIVER IN PERSON","caf\u00e9 — 世界","a\"b"]"#;
            let rows = vec![row; bytes / (row.len() + 1)];
            format!("[{}]", rows.join(","))
        };
        // the fastest of five: a stall lands in one run, not in all
        let fastest = |text: &str, repeats: usize| {
            (0..5)
                .map(|_| {
                    let start = std::time::Instant::now();
                    for _ in 0..repeats {
                        std::hint::black_box(parse(std::hint::black_box(text)).unwrap());
                    }
                    start.elapsed()
                })
                .min()
                .unwrap()
        };
        // the same number of bytes on both sides, so that both timed blocks
        // are equally exposed to whatever else the machine is running
        let (small, large) = (document(64 << 10), document(1 << 20));
        let (t_small, t_large) = (fastest(&small, 16), fastest(&large, 1));
        // a scanner that revalidates the rest of the input per character
        // takes ≈ 16× as long on the large document
        assert!(
            t_large <= t_small * 2,
            "16 × {} bytes parse in {t_small:?}, {} bytes in {t_large:?}",
            small.len(),
            large.len()
        );
    }
}
