//! A minimal JSON document model, writer, and parser.
//!
//! The workspace builds fully offline and uses no `serde` (the vendored
//! stub is a lockfile entry only, see `vendor/README.md`), so the
//! experiment layer carries its own JSON support: enough to serialize scenario specs and
//! structured results (`out/<scenario>.json`) and to parse them back for
//! round-trip tests and future trajectory scraping. Object key order is
//! preserved (insertion order), numbers render with a shortest
//! round-trip representation, and parsing accepts any standard JSON
//! document.

use std::fmt::Write as _;

/// A JSON value. Objects preserve insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as `f64`; integers within `2^53` are exact).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (ordered key–value pairs).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key–value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (impl Into<String>, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds an array of numbers.
    pub fn nums(values: impl IntoIterator<Item = f64>) -> Json {
        Json::Arr(values.into_iter().map(Json::Num).collect())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64` (must be a non-negative integer).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Renders the document with two-space indentation.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    /// Renders the document on a single line (JSONL records).
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null | Json::Bool(_) | Json::Num(_) | Json::Str(_) => self.write(out, 0),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(out, k);
                    out.push_str(": ");
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                // Keep short scalar arrays on one line for readability.
                let scalar = items
                    .iter()
                    .all(|i| !matches!(i, Json::Arr(_) | Json::Obj(_)));
                if scalar && items.len() <= 12 {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        item.write(out, indent);
                    }
                    out.push(']');
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(out, indent + 1);
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    pad(out, indent + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    if i + 1 < pairs.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut p = Parser { bytes, pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// A value with one JSON form: what [`obj!`] shows.
pub(crate) trait ToJson {
    /// That form.
    fn json(&self) -> Json;
}

/// The object `{"a": s.a, "b": s.b(), "c": c, "key": value}` of
/// `obj!(s.a, s.b(), c, "key" => value)`: a field, a getter or a
/// variable is shown under its own name, anything else under the key
/// stated — so a key that is a name is typed once.
macro_rules! obj {
    (@ [$($done:tt)*]) => { Json::Obj(vec![$($done)*]) };
    (@ [$($done:tt)*] $key:expr => $v:expr $(, $($rest:tt)*)?) => {
        obj!(@ [$($done)* ($key.to_string(), $v.json()),] $($($rest)*)?)
    };
    (@ [$($done:tt)*] $of:ident . $getter:ident () $(, $($rest:tt)*)?) => {
        obj!(@ [$($done)* (stringify!($getter).to_string(), $of.$getter().json()),] $($($rest)*)?)
    };
    (@ [$($done:tt)*] $of:ident . $field:ident $(, $($rest:tt)*)?) => {
        obj!(@ [$($done)* (stringify!($field).to_string(), $of.$field.json()),] $($($rest)*)?)
    };
    (@ [$($done:tt)*] $var:ident $(, $($rest:tt)*)?) => {
        obj!(@ [$($done)* (stringify!($var).to_string(), $var.json()),] $($($rest)*)?)
    };
    ($($all:tt)*) => { obj!(@ [] $($all)*) };
}
pub(crate) use obj;

/// `impl ToJson` for each `Type: value => its JSON`.
macro_rules! to_json {
    ($($t:ty: $v:ident => $json:expr),* $(,)?) => {$(
        impl ToJson for $t {
            fn json(&self) -> Json {
                let $v = self;
                $json
            }
        }
    )*};
}
pub(crate) use to_json;

to_json! {
    Json: j => j.clone(),
    bool: b => Json::Bool(*b),
    f64: n => Json::Num(*n),
    usize: n => Json::Num(*n as f64),
    u64: n => Json::Num(*n as f64),
    u32: n => Json::Num(*n as f64),
    u16: n => Json::Num(*n as f64),
    str: s => Json::str(s),
    String: s => Json::str(s),
    (f64, f64): pair => Json::nums([pair.0, pair.1]),
}

impl<T: ToJson> ToJson for Option<T> {
    fn json(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::json)
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn json(&self) -> Json {
        Json::Arr(self.iter().map(T::json).collect())
    }
}

fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no Inf/NaN; serialize as null (consumers treat it as
        // missing data, matching how NaN means "no completed jobs").
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        // Rust's Debug for f64 is the shortest representation that
        // round-trips, which is exactly what a JSON writer wants.
        let _ = write!(out, "{n:?}");
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse error with byte position context.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error.
    pub pos: usize,
    /// Human-readable description.
    pub msg: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Deepest nesting [`Json::parse`] follows: the parser recurses per
/// level, so an unbounded `[[[[…` from a damaged file would overflow
/// the stack instead of returning an error.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            pos: self.pos,
            msg: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    /// A value with `depth` arrays and objects open around it.
    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'[' | b'{') if depth == MAX_DEPTH => {
                Err(self.err("nested deeper than 128 levels"))
            }
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth + 1),
            Some(b'{') => self.object(depth + 1),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
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
            items.push(self.value(depth)?);
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
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value(depth)?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Consume a run of plain bytes in one go.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("invalid \\u escape"))?;
                            // Surrogate pairs are not needed for our own
                            // documents; map lone surrogates to U+FFFD.
                            s.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for doc in ["null", "true", "false", "0", "-3", "2.5", "\"hi\""] {
            let v = Json::parse(doc).unwrap();
            assert_eq!(Json::parse(&v.render()).unwrap(), v, "{doc}");
        }
    }

    #[test]
    fn nested_round_trip() {
        let v = Json::obj([
            ("name", Json::str("fig09a")),
            ("seeds", Json::nums([1000.0, 1001.0])),
            (
                "nested",
                Json::obj([("flag", Json::Bool(true)), ("opt", Json::Null)]),
            ),
            ("big", Json::Num(1e18)),
            ("frac", Json::Num(0.1)),
        ]);
        let text = v.render();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn string_escapes() {
        let v = Json::Str("a\"b\\c\nd\te\u{1}".into());
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
        assert_eq!(
            Json::parse("\"\\u0041\\/\"").unwrap(),
            Json::Str("A/".into())
        );
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"a": 1, "b": [true, "x"], "c": 2.5}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("c").unwrap().as_f64(), Some(2.5));
        assert_eq!(v.get("c").unwrap().as_u64(), None);
        let arr = v.get("b").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_bool(), Some(true));
        assert_eq!(arr[1].as_str(), Some("x"));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn errors_carry_position() {
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("[] x").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(Json::parse(&deep(MAX_DEPTH)).is_ok());
        let err = Json::parse(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.msg, "nested deeper than 128 levels");
        // An unclosed run this long used to overflow the stack.
        assert!(Json::parse(&"[".repeat(2_000_000)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(200_000)).is_err());
    }

    #[test]
    fn non_finite_serializes_as_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn compact_render_is_one_parseable_line() {
        let v = Json::obj([
            ("a", Json::Num(1.5)),
            ("b", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("c", Json::obj([("nested", Json::str("x"))])),
        ]);
        let line = v.render_compact();
        assert!(!line.contains('\n'), "{line}");
        let back = Json::parse(&line).unwrap();
        assert_eq!(back.get("a").and_then(Json::as_f64), Some(1.5));
        assert_eq!(
            back.get("c")
                .and_then(|c| c.get("nested"))
                .and_then(Json::as_str),
            Some("x")
        );
    }

    #[test]
    fn key_order_preserved() {
        let text = r#"{"z": 1, "a": 2}"#;
        let v = Json::parse(text).unwrap();
        match &v {
            Json::Obj(pairs) => {
                assert_eq!(pairs[0].0, "z");
                assert_eq!(pairs[1].0, "a");
            }
            _ => unreachable!(),
        }
    }
}
