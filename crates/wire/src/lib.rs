//! Minimal JSON support shared across the workspace.
//!
//! Grown out of the hand-rolled JSON writer that `table1` used for its
//! CI artifacts (the vendored `serde` shim has no serializer): instead of
//! a third copy-paste emitter for the `fastvg-serve` wire protocol and
//! the load-generator's bench artifact, every JSON producer and consumer
//! in the workspace goes through this one module.
//!
//! The surface is deliberately small:
//!
//! * [`Json`] — an owned JSON value. Objects preserve insertion order so
//!   emitted documents are stable and diffs are readable; integers and
//!   floats are kept apart so `u64` seeds survive a round-trip exactly.
//! * [`Json::parse`] — a strict recursive-descent parser (UTF-8 input,
//!   full escape handling including surrogate pairs, depth-limited,
//!   trailing garbage rejected).
//! * [`Json::dump`] / [`Json::pretty`] — compact and human-readable
//!   emitters. Non-finite floats have no JSON literal and emit `null`,
//!   matching the convention the Table 1 artifacts already used.
//! * [`Json::canonical`] — compact emission with recursively sorted
//!   object keys, the stable form behind cache fingerprints.
//! * [`fnv1a64`] — the tiny content hash `fastvg-serve` keys its result
//!   cache with, plus [`mix64`] (the finalizer anything reducing a
//!   fingerprint to an index must apply first) and
//!   [`request_canonical`] / [`request_fingerprint`] — the canonical
//!   request envelope shared by the daemon's cache and the router's
//!   consistent-hash ring.
//!
//! # Round-trip guarantees
//!
//! For every value built from finite floats, `parse(dump(v)) == v`:
//! floats are emitted with Rust's shortest round-trip `Display` form,
//! integers as exact decimal. Parsing classifies bare `1e3`/`1.5` as
//! [`Json::Num`] and undecorated integer literals (up to `i128` range) as
//! [`Json::Int`].
//!
//! ```
//! use fastvg_wire::Json;
//!
//! let doc = Json::object()
//!     .field("method", "fast")
//!     .field("seed", 0xdead_beef_dead_beef_u64)
//!     .field("coverage", 0.1625)
//!     .field("stages", vec![Json::from("anchors"), Json::from("fit")])
//!     .build();
//! let text = doc.dump();
//! assert_eq!(Json::parse(&text).unwrap(), doc);
//! assert_eq!(
//!     doc.get("seed").and_then(Json::as_u64),
//!     Some(0xdead_beef_dead_beef)
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// An owned JSON value.
///
/// Integers and floats are separate variants so 64-bit seeds and counters
/// round-trip exactly (a single `f64` variant would silently lose
/// precision above 2⁵³). Object members keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal (no fraction or exponent in the source text).
    Int(i128),
    /// A floating-point number. Non-finite values emit `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Int(v as i128)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Int(v as i128)
    }
}

impl From<u128> for Json {
    fn from(v: u128) -> Self {
        debug_assert!(v <= i128::MAX as u128, "u128 value too large for Json");
        Json::Int(v as i128)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Int(v as i128)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::Int(v as i128)
    }
}

impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Self {
        Json::Arr(v)
    }
}

/// Fluent builder for [`Json::Obj`] — see [`Json::object`].
#[derive(Debug, Default)]
#[must_use = "call `build` to finish the object"]
pub struct ObjBuilder {
    members: Vec<(String, Json)>,
}

impl ObjBuilder {
    /// Appends one member.
    pub fn field(mut self, key: impl Into<String>, value: impl Into<Json>) -> Self {
        self.members.push((key.into(), value.into()));
        self
    }

    /// Finishes the object.
    pub fn build(self) -> Json {
        Json::Obj(self.members)
    }
}

impl Json {
    /// Starts a fluent object builder.
    pub fn object() -> ObjBuilder {
        ObjBuilder::default()
    }

    /// A number that is guaranteed to survive emission: non-finite floats
    /// become [`Json::Null`] up front (they have no JSON literal).
    pub fn num(v: f64) -> Json {
        if v.is_finite() {
            Json::Num(v)
        } else {
            Json::Null
        }
    }

    /// Member lookup on an object (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The boolean value, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric value as `f64` (integers are converted).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            Json::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as `i64`, if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(v) => i64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as `usize`, if it is a non-negative integer in range.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Int(v) => usize::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Compact emission (no whitespace). Object members keep their
    /// insertion order.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Human-readable emission: two-space indentation, one member or
    /// element per line.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    /// Compact emission with object keys recursively sorted — a stable,
    /// order-insensitive form suitable for content fingerprints.
    pub fn canonical(&self) -> String {
        fn sort(v: &Json) -> Json {
            match v {
                Json::Arr(items) => Json::Arr(items.iter().map(sort).collect()),
                Json::Obj(members) => {
                    let mut sorted: Vec<(String, Json)> =
                        members.iter().map(|(k, v)| (k.clone(), sort(v))).collect();
                    sorted.sort_by(|a, b| a.0.cmp(&b.0));
                    Json::Obj(sorted)
                }
                other => other.clone(),
            }
        }
        sort(self).dump()
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::Num(v) => {
                if v.is_finite() {
                    // `Display` for floats is the shortest string that
                    // parses back to the same value, so dumps round-trip
                    // bit-for-bit. Integral values display without a
                    // fraction ("5"), which would parse back as
                    // `Json::Int`; append ".0" so Num stays Num.
                    let text = v.to_string();
                    let is_bare_integer = !text.contains(['.', 'e', 'E']);
                    out.push_str(&text);
                    if is_bare_integer {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }

    /// Parses one JSON document, rejecting trailing non-whitespace.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with the byte offset of the first problem.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON document"));
        }
        Ok(value)
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..depth * width {
            out.push(' ');
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: what went wrong and the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What the parser expected or found.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Nesting depth beyond which the parser refuses input (protects the
/// server against stack exhaustion from adversarial bodies).
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {lit}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.eat_literal("null", Json::Null),
            Some(b't') => self.eat_literal("true", Json::Bool(true)),
            Some(b'f') => self.eat_literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected character {:?}", other as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[')?;
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
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                                char::from_u32(code)
                            } else {
                                char::from_u32(hi)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid unicode escape")),
                            }
                        }
                        other => {
                            return Err(self.err(format!("invalid escape {:?}", other as char)))
                        }
                    }
                }
                _ if b < 0x20 => return Err(self.err("raw control character in string")),
                _ => {
                    // Consume one UTF-8 character (input is a &str, so
                    // boundaries are valid by construction).
                    let start = self.pos;
                    let mut end = start + 1;
                    while end < self.bytes.len() && (self.bytes[end] & 0xc0) == 0x80 {
                        end += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..end])
                            .map_err(|_| self.err("invalid UTF-8"))?,
                    );
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return Err(self.err("truncated \\u escape"));
            };
            let d = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return Err(self.err("invalid hex digit in \\u escape")),
            };
            v = (v << 4) | d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err("expected digits"));
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("expected digits after decimal point"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("expected digits in exponent"));
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number spans ASCII bytes");
        if !is_float {
            // "-0" must stay a float: Int(0) would drop the sign bit and
            // break the bitwise round-trip of -0.0.
            if text == "-0" {
                return Ok(Json::Num(-0.0));
            }
            if let Ok(v) = text.parse::<i128>() {
                return Ok(Json::Int(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("malformed number"))
    }
}

/// 64-bit FNV-1a over raw bytes — the content hash behind the
/// `fastvg-serve` result-cache fingerprints. Not cryptographic; cache
/// entries verify the full key on hit.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// SplitMix64's finalizer: a cheap invertible bit mixer. FNV-1a's
/// avalanche is weak in the low bits, so anything *reducing* a
/// fingerprint (cache shard index, consistent-hash ring position) must
/// mix before taking `% n` — raw `fnv % n` correlates with the last
/// bytes hashed.
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// The canonical request envelope behind every cache fingerprint:
/// `{"backend", "method", "scenario"}` in [`Json::canonical`] form
/// (sorted keys, resolved values). One implementation shared by the
/// `fastvg-serve` daemon (LRU cache key) and `fastvg-router`
/// (consistent-hash ring key), so the two can never disagree on which
/// requests are "the same".
///
/// `method` is the wire method token (`fast`/`hough`/`tuned`), `backend`
/// the backend's canonical `describe()` string, and `scenario` the fully
/// resolved scenario document (a benchmark index and its spelled-out
/// spec must fingerprint identically, so resolve first).
pub fn request_canonical(method: &str, backend: &str, scenario: Json) -> String {
    Json::object()
        .field("method", method)
        .field("backend", backend)
        .field("scenario", scenario)
        .build()
        .canonical()
}

/// The fingerprint of a [`request_canonical`] envelope: [`fnv1a64`] of
/// its UTF-8 bytes. Collisions are possible (64-bit hash) — consumers
/// verify the full canonical key before trusting a match.
pub fn request_fingerprint(canonical: &str) -> u64 {
    fnv1a64(canonical.as_bytes())
}

/// HTTP header carrying trace context between fastvg processes.
/// Value format: `<trace>/<span>`, both 16-char lowercase hex.
pub const TRACE_HEADER: &str = "x-fastvg-trace";

/// Trace context as it travels on the wire: which end-to-end trace a
/// request belongs to and which span in the sender is its parent.
///
/// This is the *codec* only — plain ids, no tracing behaviour — so the
/// wire crate stays independent of `fastvg-obs` and vice versa. Each
/// layer converts to its tracer's native context type at the edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Trace id shared by every span of the request.
    pub trace: u64,
    /// Parent span id in the sending process.
    pub span: u64,
}

impl TraceContext {
    /// Renders the `x-fastvg-trace` header value: `<trace>/<span>`.
    pub fn encode(&self) -> String {
        format!("{:016x}/{:016x}", self.trace, self.span)
    }

    /// Parses a header value; `None` on any malformation (wrong length,
    /// missing separator, non-hex). Malformed context is dropped, never
    /// an error — tracing must not affect request outcomes.
    pub fn parse(value: &str) -> Option<TraceContext> {
        let (trace, span) = value.split_once('/')?;
        Some(TraceContext {
            trace: parse_hex16(trace)?,
            span: parse_hex16(span)?,
        })
    }
}

fn parse_hex16(s: &str) -> Option<u64> {
    if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let cases = [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("0", Json::Int(0)),
            ("-7", Json::Int(-7)),
            ("18446744073709551615", Json::Int(u64::MAX as i128)),
            ("0.5", Json::Num(0.5)),
            ("-0.125", Json::Num(-0.125)),
            ("\"hi\"", Json::Str("hi".into())),
        ];
        for (text, expect) in cases {
            let v = Json::parse(text).unwrap();
            assert_eq!(v, expect, "{text}");
            assert_eq!(Json::parse(&v.dump()).unwrap(), expect, "{text}");
        }
    }

    #[test]
    fn floats_round_trip_bitwise() {
        for v in [
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1.7976931348623157e308,
            -0.0,
            9.093_239_4,
        ] {
            let dumped = Json::Num(v).dump();
            let parsed = Json::parse(&dumped).unwrap();
            let got = parsed.as_f64().unwrap();
            assert_eq!(got.to_bits(), v.to_bits(), "{v} via {dumped}");
        }
    }

    #[test]
    fn integral_floats_stay_floats() {
        // parse(dump(v)) == v must hold even when a float lands on an
        // integer: Num(5.0) emits "5.0", not "5" (which would come back
        // as Int and flip as_i64/as_u64 from None to Some).
        for v in [5.0_f64, -4.0, 0.0, -0.0, 1e15] {
            let doc = Json::object().field("x", v).build();
            let back = Json::parse(&doc.dump()).unwrap();
            assert_eq!(back, doc, "{v}");
            assert_eq!(back.get("x").and_then(Json::as_i64), None, "{v}");
        }
        assert_eq!(Json::Num(5.0).dump(), "5.0");
        assert_eq!(Json::Num(1.5).dump(), "1.5");
    }

    #[test]
    fn u64_seeds_survive_exactly() {
        let seed = 0xdead_beef_1234_5678_u64;
        let doc = Json::object().field("seed", seed).build();
        let back = Json::parse(&doc.dump()).unwrap();
        assert_eq!(back.get("seed").and_then(Json::as_u64), Some(seed));
    }

    #[test]
    fn non_finite_floats_emit_null() {
        assert_eq!(Json::Num(f64::NAN).dump(), "null");
        assert_eq!(Json::Num(f64::INFINITY).dump(), "null");
        assert_eq!(Json::num(f64::NAN), Json::Null);
        assert_eq!(Json::num(1.5), Json::Num(1.5));
    }

    #[test]
    fn strings_escape_and_unescape() {
        let nasty = "a\"b\\c\nd\te\u{08}\u{0c}\r\u{1}∂émoji🙂";
        let dumped = Json::Str(nasty.into()).dump();
        assert_eq!(Json::parse(&dumped).unwrap().as_str(), Some(nasty));
        // Escaped forms parse too.
        assert_eq!(
            Json::parse("\"\\u00e9\\u0041\\ud83d\\ude42\"").unwrap(),
            Json::Str("éA🙂".into())
        );
    }

    #[test]
    fn nested_documents_round_trip() {
        let doc = Json::object()
            .field("a", vec![Json::Int(1), Json::Null, Json::Bool(true)])
            .field("b", Json::object().field("x", 0.25).build())
            .field("empty_arr", Vec::<Json>::new())
            .field("empty_obj", Json::object().build())
            .build();
        assert_eq!(Json::parse(&doc.dump()).unwrap(), doc);
        assert_eq!(Json::parse(&doc.pretty()).unwrap(), doc);
    }

    #[test]
    fn pretty_is_indented() {
        let doc = Json::object().field("k", vec![Json::Int(1)]).build();
        assert_eq!(doc.pretty(), "{\n  \"k\": [\n    1\n  ]\n}\n");
    }

    #[test]
    fn canonical_sorts_keys_recursively() {
        let a = Json::object()
            .field("z", 1u64)
            .field(
                "a",
                Json::object().field("d", 2u64).field("c", 3u64).build(),
            )
            .build();
        let b = Json::object()
            .field(
                "a",
                Json::object().field("c", 3u64).field("d", 2u64).build(),
            )
            .field("z", 1u64)
            .build();
        assert_ne!(a.dump(), b.dump(), "insertion order preserved by dump");
        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(a.canonical(), "{\"a\":{\"c\":3,\"d\":2},\"z\":1}");
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        for text in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1,}",
            "nul",
            "01e",
            "1.",
            "\"\\q\"",
            "\"\\ud800x\"",
            "\"unterminated",
            "[1] trailing",
            "{\"a\" 1}",
            "+1",
        ] {
            assert!(Json::parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn depth_limit_guards_recursion() {
        let deep = "[".repeat(500) + &"]".repeat(500);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.message.contains("deep"), "{err}");
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn accessors_are_type_safe() {
        let doc = Json::parse("{\"n\": 3, \"f\": 1.5, \"s\": \"x\", \"b\": false}").unwrap();
        assert_eq!(doc.get("n").and_then(Json::as_usize), Some(3));
        assert_eq!(doc.get("n").and_then(Json::as_f64), Some(3.0));
        assert_eq!(doc.get("f").and_then(Json::as_i64), None);
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(doc.get("b").and_then(Json::as_bool), Some(false));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(Json::Int(-1).as_u64(), None);
    }

    #[test]
    fn fnv_is_stable_and_spreads() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
        assert_ne!(fnv1a64(b"ab"), fnv1a64(b"ba"));
    }

    #[test]
    fn mix64_scrambles_low_bits() {
        // Inputs differing only above bit 32 must land in different
        // low-bit classes — the property `% shards` depends on.
        let residues: std::collections::HashSet<u64> =
            (0..64u64).map(|i| mix64(i << 32) % 8).collect();
        assert!(residues.len() > 1, "mix64 must spread high-bit entropy");
        assert_eq!(mix64(0x1234_5678_9abc_def0), mix64(0x1234_5678_9abc_def0));
        assert_ne!(mix64(1), mix64(2));
    }

    #[test]
    fn request_envelope_is_canonical_and_fingerprintable() {
        let a = request_canonical(
            "fast",
            "sim",
            Json::object().field("z", 1u32).field("a", 2u32).build(),
        );
        // Keys are sorted recursively, whatever the insertion order.
        let b = request_canonical(
            "fast",
            "sim",
            Json::object().field("a", 2u32).field("z", 1u32).build(),
        );
        assert_eq!(a, b);
        assert_eq!(
            a,
            r#"{"backend":"sim","method":"fast","scenario":{"a":2,"z":1}}"#
        );
        assert_eq!(request_fingerprint(&a), fnv1a64(a.as_bytes()));
        assert_ne!(
            request_fingerprint(&a),
            request_fingerprint(&request_canonical("hough", "sim", Json::Null))
        );
    }

    #[test]
    fn parse_error_reports_offset() {
        let err = Json::parse("{\"a\": 1x}").unwrap_err();
        assert_eq!(err.offset, 7, "{err}");
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn trace_context_round_trips() {
        let ctx = TraceContext {
            trace: 0x0123_4567_89ab_cdef,
            span: 0xfedc_ba98_7654_3210,
        };
        let encoded = ctx.encode();
        assert_eq!(encoded, "0123456789abcdef/fedcba9876543210");
        assert_eq!(TraceContext::parse(&encoded), Some(ctx));
        // Zero ids are representable (the codec does not police them).
        let zero = TraceContext { trace: 0, span: 0 };
        assert_eq!(TraceContext::parse(&zero.encode()), Some(zero));
    }

    #[test]
    fn trace_context_rejects_malformed() {
        for bad in [
            "",
            "/",
            "0123456789abcdef",
            "0123456789abcdef/",
            "/0123456789abcdef",
            "0123456789abcdef/0123456789abcde",   // short span
            "0123456789abcdef/0123456789abcdef0", // long span
            "0123456789abcdeg/0123456789abcdef",  // non-hex
            "0123456789abcdef/0123456789abcdef/0",
        ] {
            assert_eq!(TraceContext::parse(bad), None, "{bad:?}");
        }
    }
}
