//! The workspace's one JSON layer: a value tree, a reader and a writer.
//!
//! Trace files (`gc_trace::io`) and sweep/MRC checkpoints
//! (`gc_sim::checkpoint`) are the only documents this workspace writes and
//! reads back; `xtask perf-gate` reads `BENCHMARK.json` and the tracked
//! `BENCH_gcbench.json`, and `gc-cache serve --json` writes its report.
//! All of them go through this module.
//!
//! * **Integers are exact.** A number without fraction or exponent is kept
//!   as [`Value::UInt`] (`u64`) or [`Value::Int`] (negative `i64`), never
//!   as a float, so a `u64::MAX` item id and a 64-bit `config_hash`
//!   round-trip bit for bit. An integer outside those ranges is an error,
//!   not an approximation.
//! * **Errors say where.** Every node remembers the 1-based line and
//!   column it was read from, so both syntax errors and the typed
//!   decoders' complaints (wrong type, unknown field) come back as
//!   [`GcError::Parse`] with [`ParseReason::Json`] pointing into the file.
//! * **Input is not trusted.** Nesting is capped at [`MAX_DEPTH`], objects
//!   are decoded through [`Json::fields`] (unknown, duplicate and missing
//!   fields are all errors), and the typed decoders rebuild values through
//!   their validating constructors.

use crate::{GcError, ParseReason};
use std::fmt;

/// Deepest array/object nesting [`Json::parse`] accepts.
pub const MAX_DEPTH: usize = 64;

/// The payload of a [`Json`] node.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer, exact.
    UInt(u64),
    /// A negative integer, exact.
    Int(i64),
    /// A number with a fraction or an exponent.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; member order is preserved.
    Object(Vec<(String, Json)>),
}

/// A JSON value plus the position it was read from (`0:0` for values built
/// in memory). Equality compares values only.
#[derive(Clone, Debug)]
pub struct Json {
    /// The value itself.
    pub value: Value,
    line: u32,
    column: u32,
}

impl PartialEq for Json {
    fn eq(&self, other: &Json) -> bool {
        self.value == other.value
    }
}

impl From<Value> for Json {
    fn from(value: Value) -> Json {
        Json {
            value,
            line: 0,
            column: 0,
        }
    }
}

/// Types that render themselves as a [`Json`] value.
pub trait ToJson {
    /// The JSON form of `self`.
    fn to_json(&self) -> Json;
}

/// Types that can be rebuilt — and validated — from a [`Json`] value.
pub trait FromJson: Sized {
    /// Decode `v`, reporting failures at `v`'s position in its file.
    fn from_json(v: &Json) -> Result<Self, GcError>;
}

impl Json {
    /// An object from `(name, value)` pairs, in the order given.
    pub fn object<const N: usize>(fields: [(&str, Json); N]) -> Json {
        Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
        .into()
    }

    /// Parse one JSON document; anything but whitespace after it is an
    /// error.
    pub fn parse(text: &str) -> Result<Json, GcError> {
        let mut r = Reader {
            text,
            pos: 0,
            line: 1,
            line_start: 0,
        };
        let v = r.value(0)?;
        r.skip_ws();
        if r.pos != text.len() {
            return Err(r.error("trailing characters after the document"));
        }
        Ok(v)
    }

    /// A [`GcError::Parse`] pointing at this node.
    pub fn error(&self, message: impl Into<String>) -> GcError {
        parse_error(self.line as usize, self.column as usize, message.into())
    }

    /// Member `key` of an object (`None` for other values or a missing key).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match &self.value {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match &self.value {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The text, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match &self.value {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self.value {
            Value::UInt(n) => Some(n),
            _ => None,
        }
    }

    /// Any number, as a float (integers beyond 2^53 round).
    pub fn as_f64(&self) -> Option<f64> {
        match self.value {
            Value::UInt(n) => Some(n as f64),
            Value::Int(n) => Some(n as f64),
            Value::Float(x) => Some(x),
            _ => None,
        }
    }

    /// Strictly destructure an object: exactly the members `names`, each
    /// once, returned in the order asked for. Unknown and duplicate
    /// members are reported at the member's value, missing ones at the
    /// object.
    pub fn fields<const N: usize>(&self, names: [&str; N]) -> Result<[&Json; N], GcError> {
        let Value::Object(members) = &self.value else {
            return Err(self.error("expected an object"));
        };
        let mut found: [Option<&Json>; N] = [None; N];
        for (key, v) in members {
            match names.iter().position(|n| n == key) {
                None => return Err(v.error(format!("unknown field `{key}`"))),
                Some(i) if found[i].is_some() => {
                    return Err(v.error(format!("duplicate field `{key}`")))
                }
                Some(i) => found[i] = Some(v),
            }
        }
        for (slot, name) in found.iter().zip(names) {
            if slot.is_none() {
                return Err(self.error(format!("missing field `{name}`")));
            }
        }
        Ok(found.map(|v| v.expect("every slot was just checked")))
    }

    /// Destructure a one-member object `{"<tag>": <payload>}` — the form
    /// enums are written in.
    pub fn variant(&self) -> Result<(&str, &Json), GcError> {
        match &self.value {
            Value::Object(members) if members.len() == 1 => Ok((&members[0].0, &members[0].1)),
            _ => Err(self.error("expected an object with exactly one member")),
        }
    }

    /// Render with two-space indentation, one member or element per line.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        use std::fmt::Write as _;
        // Line break plus indentation at `depth` when pretty-printing.
        let nl = |out: &mut String, depth: usize| {
            if indent.is_some() {
                out.push('\n');
                out.extend(std::iter::repeat("  ").take(depth));
            }
        };
        let inner = indent.map(|d| d + 1);
        let depth = indent.unwrap_or(0);
        match &self.value {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::UInt(n) => write!(out, "{n}").expect("writing to a String cannot fail"),
            Value::Int(n) => write!(out, "{n}").expect("writing to a String cannot fail"),
            // `{:?}` keeps a fraction or exponent, so the number reads
            // back as a float; JSON has no NaN or infinity.
            Value::Float(x) if x.is_finite() => {
                write!(out, "{x:?}").expect("writing to a String cannot fail")
            }
            Value::Float(_) => out.push_str("null"),
            Value::Str(s) => write_str(out, s),
            Value::Array(items) if items.is_empty() => out.push_str("[]"),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    nl(out, depth + 1);
                    item.write(out, inner);
                }
                nl(out, depth);
                out.push(']');
            }
            Value::Object(members) if members.is_empty() => out.push_str("{}"),
            Value::Object(members) => {
                out.push('{');
                for (i, (key, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    nl(out, depth + 1);
                    write_str(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, inner);
                }
                nl(out, depth);
                out.push('}');
            }
        }
    }
}

/// Compact rendering (no whitespace).
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None);
        f.write_str(&out)
    }
}

fn write_str(out: &mut String, s: &str) {
    use std::fmt::Write as _;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn parse_error(line: usize, column: usize, message: String) -> GcError {
    GcError::Parse {
        line: line.max(1),
        column: Some(column.max(1)),
        byte_offset: None,
        reason: ParseReason::Json { message },
    }
}

struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// 1-based line of `pos`. Newlines only occur between tokens (raw
    /// control characters inside strings are rejected), so `skip_ws` is
    /// the one place that advances it.
    line: usize,
    /// Byte offset of the first character of that line.
    line_start: usize,
}

impl Reader<'_> {
    fn error(&self, message: &str) -> GcError {
        parse_error(self.line, self.pos - self.line_start + 1, message.into())
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.peek() {
            match b {
                b'\n' => {
                    self.line += 1;
                    self.line_start = self.pos + 1;
                }
                b' ' | b'\t' | b'\r' => {}
                _ => break,
            }
            self.pos += 1;
        }
    }

    /// Skip whitespace, then consume `b` if it is next.
    fn eat(&mut self, b: u8) -> bool {
        self.skip_ws();
        let hit = self.peek() == Some(b);
        if hit {
            self.pos += 1;
        }
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Json, GcError> {
        self.skip_ws();
        let (line, column) = (self.line, self.pos - self.line_start + 1);
        let value = match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => {
                return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")))
            }
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                if !self.eat(b'}') {
                    loop {
                        self.skip_ws();
                        let key = self.string()?;
                        if !self.eat(b':') {
                            return Err(self.expected("`:` after an object key"));
                        }
                        members.push((key, self.value(depth + 1)?));
                        if self.eat(b'}') {
                            break;
                        }
                        if !self.eat(b',') {
                            return Err(self.expected("`,` or `}`"));
                        }
                    }
                }
                Value::Object(members)
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                if !self.eat(b']') {
                    loop {
                        items.push(self.value(depth + 1)?);
                        if self.eat(b']') {
                            break;
                        }
                        if !self.eat(b',') {
                            return Err(self.expected("`,` or `]`"));
                        }
                    }
                }
                Value::Array(items)
            }
            Some(b'"') => Value::Str(self.string()?),
            Some(b'-' | b'0'..=b'9') => self.number()?,
            _ => {
                let literals = [
                    ("true", Value::Bool(true)),
                    ("false", Value::Bool(false)),
                    ("null", Value::Null),
                ];
                let rest = &self.text[self.pos..];
                let Some((word, value)) = literals.into_iter().find(|(w, _)| rest.starts_with(w))
                else {
                    return Err(self.expected("a JSON value"));
                };
                self.pos += word.len();
                value
            }
        };
        Ok(Json {
            value,
            line: u32::try_from(line).unwrap_or(u32::MAX),
            column: u32::try_from(column).unwrap_or(u32::MAX),
        })
    }

    /// The error for "`what` should come next" — or, when nothing comes
    /// next at all, for a truncated document.
    fn expected(&self, what: &str) -> GcError {
        match self.peek() {
            None => self.error("unexpected end of input"),
            Some(_) => self.error(&format!("expected {what}")),
        }
    }

    fn string(&mut self) -> Result<String, GcError> {
        if self.peek() != Some(b'"') {
            return Err(self.expected("a string"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            // Copy the run up to the next delimiter; all delimiters are
            // ASCII, so the slice ends on a character boundary.
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                _ => return Err(self.expected("control characters to be escaped")),
            }
        }
    }

    /// The character named by the escape whose backslash was just consumed.
    fn escape(&mut self) -> Result<char, GcError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let mut code = self.hex4()?;
                if (0xd800..0xdc00).contains(&code) {
                    // A high surrogate must be followed by `\u` + low.
                    if !self.text[self.pos..].starts_with("\\u") {
                        return Err(self.error("unpaired surrogate in \\u escape"));
                    }
                    self.pos += 2;
                    let low = self.hex4()?;
                    if !(0xdc00..0xe000).contains(&low) {
                        return Err(self.error("unpaired surrogate in \\u escape"));
                    }
                    code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                }
                return char::from_u32(code)
                    .ok_or_else(|| self.error("unpaired surrogate in \\u escape"));
            }
            _ => return Err(self.expected("a known escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, GcError> {
        let digits = self.text.as_bytes().get(self.pos..self.pos + 4);
        let code = digits
            .filter(|d| d.iter().all(u8::is_ascii_hexdigit))
            .and_then(|d| std::str::from_utf8(d).ok())
            .and_then(|d| u32::from_str_radix(d, 16).ok())
            .ok_or_else(|| self.error("expected four hex digits in \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    /// Scans the run of number characters and lets the standard parsers
    /// judge it: an integer token must fit `u64`/`i64` exactly, anything
    /// with a fraction or exponent must be a finite `f64`. Errors point at
    /// the number's first character.
    fn number(&mut self) -> Result<Value, GcError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let token = &self.text[start..self.pos];
        let parsed = if token.contains(['.', 'e', 'E']) {
            token
                .parse()
                .ok()
                .filter(|x: &f64| x.is_finite())
                .map(Value::Float)
        } else if token.starts_with('-') {
            token.parse().ok().map(Value::Int)
        } else {
            token.parse().ok().map(Value::UInt)
        };
        parsed.ok_or_else(|| {
            self.pos = start;
            self.error("malformed or out-of-range number")
        })
    }
}

macro_rules! impl_json_for_unsigned {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Value::UInt(*self as u64).into()
            }
        }

        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<$t, GcError> {
                let n = v
                    .as_u64()
                    .ok_or_else(|| v.error("expected a non-negative integer"))?;
                n.try_into().map_err(|_| v.error("integer out of range"))
            }
        }
    )*};
}

impl_json_for_unsigned!(u64, u32, usize);

impl ToJson for String {
    fn to_json(&self) -> Json {
        Value::Str(self.clone()).into()
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<String, GcError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| v.error("expected a string"))
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Value::Array(self.iter().map(T::to_json).collect()).into()
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Vec<T>, GcError> {
        v.as_array()
            .ok_or_else(|| v.error("expected an array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

/// Implement [`ToJson`] and [`FromJson`] for a struct as an object with one
/// member per listed field, named as the field is. Decoding is strict
/// ([`Json::fields`]) and goes through each field type's own `FromJson`.
#[macro_export]
macro_rules! json_record {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::object([
                    $((stringify!($field), $crate::json::ToJson::to_json(&self.$field))),+
                ])
            }
        }

        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Json) -> Result<Self, $crate::GcError> {
                let [$($field),+] = v.fields([$(stringify!($field)),+])?;
                Ok($ty {
                    $($field: $crate::json::FromJson::from_json($field)?),+
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn position(err: GcError) -> (usize, usize, String) {
        match err {
            GcError::Parse {
                line,
                column: Some(column),
                reason: ParseReason::Json { message },
                ..
            } => (line, column, message),
            other => panic!("expected a JSON parse error, got {other}"),
        }
    }

    #[test]
    fn parses_every_value_kind() {
        let v = Json::parse(
            "{\"a\": [1, -2, 2.5, 1e3], \"b\": {\"c\": \"x\\\"y\\n\\u00e9\\ud83d\\ude00\"}, \
             \"d\": true, \"e\": null, \"f\": false}",
        )
        .unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].value, Value::UInt(1));
        assert_eq!(a[1].value, Value::Int(-2));
        assert_eq!(a[2].value, Value::Float(2.5));
        assert_eq!(a[3].as_f64(), Some(1e3));
        assert_eq!(
            v.get("b").unwrap().get("c").unwrap().as_str(),
            Some("x\"y\né😀")
        );
        assert_eq!(v.get("d").unwrap().value, Value::Bool(true));
        assert_eq!(v.get("e").unwrap().value, Value::Null);
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn integers_are_exact_at_the_edges() {
        for text in ["18446744073709551615", "-9223372036854775808", "0"] {
            assert_eq!(Json::parse(text).unwrap().to_string(), text);
        }
        assert_eq!(
            u64::from_json(&Json::parse("18446744073709551615").unwrap()).unwrap(),
            u64::MAX
        );
        let (_, _, msg) = position(Json::parse("18446744073709551616").unwrap_err());
        assert!(msg.contains("out-of-range number"), "{msg}");
        assert!(u32::from_json(&Json::parse("4294967296").unwrap()).is_err());
        assert!(u64::from_json(&Json::parse("-1").unwrap()).is_err());
        assert!(u64::from_json(&Json::parse("1.0").unwrap()).is_err());
    }

    #[test]
    fn both_writers_round_trip() {
        let v = Json::object([
            ("name", "a \"quoted\"\tname\u{1}".to_string().to_json()),
            ("ids", vec![1u64, u64::MAX].to_json()),
            ("empty", Value::Array(Vec::new()).into()),
            ("nested", Json::object([("x", Value::Float(10.0).into())])),
            ("none", Value::Object(Vec::new()).into()),
        ]);
        let compact = v.to_string();
        assert_eq!(
            compact,
            "{\"name\":\"a \\\"quoted\\\"\\tname\\u0001\",\"ids\":[1,18446744073709551615],\
             \"empty\":[],\"nested\":{\"x\":10.0},\"none\":{}}"
        );
        assert_eq!(Json::parse(&compact).unwrap(), v);
        let pretty = v.to_string_pretty();
        assert!(
            pretty.starts_with("{\n  \"name\": ") && pretty.contains("\n    1,\n"),
            "{pretty}"
        );
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn syntax_errors_point_at_the_offending_byte() {
        let cases = [
            ("", (1, 1), "unexpected end of input"),
            ("{\"a\": [1,\n  2", (2, 4), "unexpected end of input"),
            ("{\"a\": 1}\n x", (2, 2), "trailing characters"),
            ("{\"a\" 1}", (1, 6), "expected `:`"),
            ("[1 2]", (1, 4), "expected `,` or `]`"),
            ("[1.2.3]", (1, 2), "malformed or out-of-range number"),
            ("[7, 1e999]", (1, 5), "out-of-range number"),
            ("[-]", (1, 2), "malformed"),
            ("[5+3]", (1, 2), "malformed"),
            ("\"a\nb\"", (1, 3), "control characters"),
            ("\"\\ud800x\"", (1, 8), "unpaired surrogate"),
            ("{not json", (1, 2), "expected a string"),
        ];
        for (text, at, needle) in cases {
            let (line, column, msg) = position(Json::parse(text).unwrap_err());
            assert_eq!((line, column), at, "{text:?}: {msg}");
            assert!(msg.contains(needle), "{text:?}: {msg}");
        }
    }

    #[test]
    fn nesting_is_capped() {
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(Json::parse(&ok).is_ok());
        let bomb = "[".repeat(100_000);
        let (line, column, msg) = position(Json::parse(&bomb).unwrap_err());
        assert_eq!((line, column), (1, MAX_DEPTH + 1));
        assert!(msg.contains("nesting deeper"), "{msg}");
    }

    #[test]
    fn fields_is_strict_and_positions_its_errors() {
        let v = Json::parse("{\"a\": 1,\n \"b\": \"x\"}").unwrap();
        let [b, a] = v.fields(["b", "a"]).unwrap();
        assert_eq!((a.as_u64(), b.as_str()), (Some(1), Some("x")));
        let (line, column, msg) = position(v.fields(["a"]).unwrap_err());
        assert_eq!((line, column, msg.as_str()), (2, 7, "unknown field `b`"));
        let (line, column, msg) = position(v.fields(["a", "b", "c"]).unwrap_err());
        assert_eq!((line, column, msg.as_str()), (1, 1, "missing field `c`"));
        let dup = Json::parse("{\"a\": 1, \"a\": 2}").unwrap();
        let (_, column, msg) = position(dup.fields(["a"]).unwrap_err());
        assert_eq!((column, msg.as_str()), (15, "duplicate field `a`"));
        let (_, _, msg) = position(b.fields(["a"]).unwrap_err());
        assert_eq!(msg, "expected an object");
        assert_eq!(
            Json::parse("{\"Done\": 3}").unwrap().variant().unwrap().0,
            "Done"
        );
        assert!(v.variant().is_err());
    }
}
