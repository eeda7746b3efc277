//! The workspace's one JSON reader and one JSON writer.
//!
//! The workspace has no registry access, so serde is unavailable. The
//! reader is a ~150-line recursive-descent parser, enough for the trace
//! validator, the perf logs and CI schema checks. It accepts standard
//! JSON (RFC 8259) minus exotic corner cases we never emit: `\u` escapes
//! outside the BMP are replaced, and numbers are read as `f64`.
//!
//! The writer serves every journal, trace, log and report. Integers are
//! written verbatim, never through `f64`; floats use the shortest-roundtrip
//! `Display`, with non-finite values as `null`; keys and strings are
//! escaped; `None` is `null` and slices are arrays. An [`Object`] or
//! [`Array`] takes its punctuation from a [`Layout`] constant, and a
//! struct lists its fields once in [`json_fields!`](crate::json_fields).

use std::fmt::Write as _;

/// A parsed JSON value. Object keys keep their source order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (as `f64`).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source key order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object; `None` for other variants.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if any.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if any.
    #[must_use]
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The array payload, if any.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object payload, if any.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }
}

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns a message with a byte offset on malformed input or trailing
/// garbage.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {}",
                b as char,
                self.pos.saturating_sub(1)
            ))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            pairs.push((key, v));
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b'}') => return Ok(Value::Obj(pairs)),
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b']') => return Ok(Value::Arr(items)),
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.bump() {
                None => return Err("unterminated string".into()),
                Some(b'"') => return Ok(s),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'b') => s.push('\u{8}'),
                    Some(b'f') => s.push('\u{c}'),
                    Some(b'n') => s.push('\n'),
                    Some(b'r') => s.push('\r'),
                    Some(b't') => s.push('\t'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.bump().ok_or("truncated \\u escape")?;
                            code = code * 16
                                + u32::from((d as char).to_digit(16).ok_or("bad \\u digit")? as u8);
                        }
                        s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("bad escape at byte {}", self.pos)),
                },
                Some(b) if b < 0x20 => {
                    return Err(format!("raw control char in string at byte {}", self.pos))
                }
                Some(b) => {
                    // Re-assemble UTF-8 multibyte sequences byte-wise.
                    let start = self.pos - 1;
                    let len = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    self.pos = start + len;
                    let chunk = self
                        .bytes
                        .get(start..start + len)
                        .ok_or("truncated UTF-8 sequence")?;
                    s.push_str(std::str::from_utf8(chunk).map_err(|_| "invalid UTF-8 in string")?);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number at byte {start}"))
    }
}

/// A value that writes itself as JSON.
pub trait Json {
    /// Appends this value's JSON text to `out`.
    fn write_json(&self, out: &mut String);
}

/// A struct written as the named fields of an object, implemented by
/// [`json_fields!`](crate::json_fields).
pub trait Fields {
    /// Writes each listed field into `obj`, in list order.
    fn write_fields(&self, obj: &mut Object<'_>);
}

/// `value` as JSON text.
#[must_use]
pub fn to_string(value: &(impl Json + ?Sized)) -> String {
    let mut out = String::new();
    value.write_json(&mut out);
    out
}

/// The punctuation of one container: what follows the opening bracket,
/// what separates two items, what precedes the closing bracket, and what
/// separates a key from its value. An empty container is just the
/// brackets.
#[derive(Debug, Clone, Copy)]
pub struct Layout(&'static str, &'static str, &'static str, &'static str);

/// `{"a":1,"b":[2,3]}`.
pub const COMPACT: Layout = Layout("", ",", "", ":");
/// `{"a": 1, "b": 2}`.
pub const SPACED: Layout = Layout("", ", ", "", ": ");
/// One item per line, unindented, the brackets on lines of their own.
pub const LINES: Layout = Layout("\n", ",\n", "\n", ":");
/// One item per line, two spaces of indent per level: `PRETTY[d]` is a
/// container that itself starts at indent level `d`.
pub const PRETTY: [Layout; 3] = [
    Layout("\n  ", ",\n  ", "\n", ": "),
    Layout("\n    ", ",\n    ", "\n  ", ": "),
    Layout("\n      ", ",\n      ", "\n    ", ": "),
];
/// One field per line, each aligned under the first, for an object that
/// is an item of a `PRETTY[1]` array.
pub const ALIGNED: Layout = Layout("", ",\n     ", "", ":");

/// The items of one open container.
struct Items<'a> {
    out: &'a mut String,
    layout: Layout,
    empty: bool,
}

impl<'a> Items<'a> {
    fn open(out: &'a mut String, layout: Layout, bracket: char) -> Self {
        out.push(bracket);
        let empty = true;
        Items { out, layout, empty }
    }

    /// The output, positioned where the next item starts.
    fn next(&mut self) -> &mut String {
        let Layout(open, sep, ..) = self.layout;
        self.out.push_str(if self.empty { open } else { sep });
        self.empty = false;
        self.out
    }

    fn close(self, bracket: char) {
        if !self.empty {
            self.out.push_str(self.layout.2);
        }
        self.out.push(bracket);
    }
}

/// An object being written, its fields in call order.
pub struct Object<'a>(Items<'a>);

impl<'a> Object<'a> {
    /// Writes `{` and starts an object laid out by `layout`.
    pub fn new(out: &'a mut String, layout: Layout) -> Self {
        Object(Items::open(out, layout, '{'))
    }

    /// Writes `key` and returns the output for its value (for a value
    /// that is itself an open container).
    pub fn key(&mut self, key: &str) -> &mut String {
        let colon = self.0.layout.3;
        let out = self.0.next();
        escape(out, key);
        out.push_str(colon);
        out
    }

    /// Writes one field.
    pub fn field(&mut self, key: &str, value: &(impl Json + ?Sized)) -> &mut Self {
        value.write_json(self.key(key));
        self
    }

    /// Writes the closing `}`.
    pub fn end(self) {
        self.0.close('}');
    }
}

/// An array being written, its items in call order.
pub struct Array<'a>(Items<'a>);

impl<'a> Array<'a> {
    /// Writes `[` and starts an array laid out by `layout`.
    pub fn new(out: &'a mut String, layout: Layout) -> Self {
        Array(Items::open(out, layout, '['))
    }

    /// Returns the output for the next item, which the caller writes.
    pub fn slot(&mut self) -> &mut String {
        self.0.next()
    }

    /// Writes the closing `]`.
    pub fn end(self) {
        self.0.close(']');
    }
}

/// Appends `s` as a JSON string literal, quotes included.
fn escape(out: &mut String, s: &str) {
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

macro_rules! verbatim {
    ($($t:ty),+) => {$(
        impl Json for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )+};
}

verbatim!(u64, u32, usize, bool);

impl Json for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push_str("null");
        }
    }
}

impl Json for str {
    fn write_json(&self, out: &mut String) {
        escape(out, self);
    }
}

impl Json for String {
    fn write_json(&self, out: &mut String) {
        escape(out, self);
    }
}

impl<T: Json> Json for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Json> Json for [T] {
    fn write_json(&self, out: &mut String) {
        let mut arr = Array::new(out, COMPACT);
        for v in self {
            v.write_json(arr.slot());
        }
        arr.end();
    }
}

impl<T: Json> Json for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

/// A `(name, row)` pair is the row's object with `name` as its first
/// field.
impl<T: Fields> Json for (String, T) {
    fn write_json(&self, out: &mut String) {
        let mut obj = Object::new(out, COMPACT);
        obj.field("name", &self.0);
        self.1.write_fields(&mut obj);
        obj.end();
    }
}

/// Implements [`Fields`] and [`Json`] (a [`COMPACT`] object) for each
/// struct from one list of its fields, so each field name is written
/// once:
///
/// ```
/// struct Hit { id: u64, dist: f64 }
/// tta_trace::json_fields! { Hit { id, dist } }
/// let hit = Hit { id: 7, dist: 0.5 };
/// assert_eq!(tta_trace::json::to_string(&hit), r#"{"id":7,"dist":0.5}"#);
/// ```
#[macro_export]
macro_rules! json_fields {
    ($( $ty:ident { $($field:ident),+ $(,)? } );+ $(;)?) => {$(
        impl $crate::json::Fields for $ty {
            fn write_fields(&self, obj: &mut $crate::json::Object<'_>) {
                $( obj.field(stringify!($field), &self.$field); )+
            }
        }

        impl $crate::json::Json for $ty {
            fn write_json(&self, out: &mut String) {
                let mut obj = $crate::json::Object::new(out, $crate::json::COMPACT);
                $crate::json::Fields::write_fields(self, &mut obj);
                obj.end();
            }
        }
    )+};
}

#[cfg(test)]
mod tests {
    use super::*;

    const LAYOUTS: [(&str, Layout); 7] = [
        ("compact", COMPACT),
        ("spaced", SPACED),
        ("lines", LINES),
        ("pretty0", PRETTY[0]),
        ("pretty1", PRETTY[1]),
        ("pretty2", PRETTY[2]),
        ("aligned", ALIGNED),
    ];

    /// `{"n": 1, "xs": [2, 3], "o": {"k": null}}` with every container in
    /// `layout`.
    fn nested(layout: Layout) -> String {
        let mut out = String::new();
        let mut doc = Object::new(&mut out, layout);
        doc.field("n", &1u64);
        let mut xs = Array::new(doc.key("xs"), layout);
        2u64.write_json(xs.slot());
        3u64.write_json(xs.slot());
        xs.end();
        let mut o = Object::new(doc.key("o"), layout);
        o.field("k", &None::<u64>);
        o.end();
        doc.end();
        out
    }

    #[test]
    fn integers_are_verbatim() {
        assert_eq!(to_string(&u64::MAX), "18446744073709551615");
        assert_eq!(to_string(&usize::MAX), usize::MAX.to_string());
        assert_eq!(to_string(&0u32), "0");
        assert_eq!(to_string(&true), "true");
    }

    #[test]
    fn non_finite_floats_are_null() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(to_string(&v), "null");
        }
        assert_eq!(to_string(&0.25), "0.25");
        assert_eq!(to_string(&146928.0), "146928");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(to_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(to_string("\u{1}"), "\"\\u0001\"");
        let nasty = "q\"uote \\ back \u{1} ctl";
        let mut out = String::new();
        let mut o = Object::new(&mut out, COMPACT);
        o.field(nasty, nasty);
        o.end();
        assert_eq!(
            parse(&out).unwrap().get(nasty).unwrap().as_str(),
            Some(nasty)
        );
    }

    #[test]
    fn options_and_slices() {
        assert_eq!(to_string(&None::<u64>), "null");
        assert_eq!(to_string(&Some(5u64)), "5");
        assert_eq!(to_string(&vec![1u64, 2]), "[1,2]");
        assert_eq!(to_string(&Vec::<u64>::new()), "[]");
    }

    #[test]
    fn empty_containers_ignore_the_layout() {
        for (name, layout) in LAYOUTS {
            let mut out = String::new();
            Object::new(&mut out, layout).end();
            Array::new(&mut out, layout).end();
            assert_eq!(out, "{}[]", "{name}");
        }
    }

    #[test]
    fn layouts_are_pinned() {
        let want = [
            r#"{"n":1,"xs":[2,3],"o":{"k":null}}"#,
            r#"{"n": 1, "xs": [2, 3], "o": {"k": null}}"#,
            "{\n\"n\":1,\n\"xs\":[\n2,\n3\n],\n\"o\":{\n\"k\":null\n}\n}",
            "{\n  \"n\": 1,\n  \"xs\": [\n  2,\n  3\n],\n  \"o\": {\n  \"k\": null\n}\n}",
            "{\n    \"n\": 1,\n    \"xs\": [\n    2,\n    3\n  ],\n    \"o\": {\n    \"k\": null\n  }\n  }",
            "{\n      \"n\": 1,\n      \"xs\": [\n      2,\n      3\n    ],\n      \"o\": {\n      \"k\": null\n    }\n    }",
            "{\"n\":1,\n     \"xs\":[2,\n     3],\n     \"o\":{\"k\":null}}",
        ];
        for ((name, layout), want) in LAYOUTS.into_iter().zip(want) {
            let got = nested(layout);
            assert_eq!(got, want, "{name}");
            assert!(parse(&got).is_ok(), "{name}");
        }
    }

    #[test]
    fn parses_the_shapes_we_emit() {
        let v = parse(r#"{"a":[1,2.5,-3],"b":{"c":"x\ny"},"d":null,"e":true}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("d"), Some(&Value::Null));
        assert_eq!(v.get("e"), Some(&Value::Bool(true)));
        let n = v.get("a").unwrap().as_array().unwrap()[1].as_num().unwrap();
        assert!((n - 2.5).abs() < 1e-12);
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} x").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn escape_quotes_and_roundtrips() {
        let nasty = "tab\there \r\n \"q\" \\ \u{1}\u{1f} caf\u{e9}";
        assert_eq!(parse(&to_string(nasty)).unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn parses_exponents_and_escaped_quotes() {
        let v = parse(r#"[-2.5e1, 1E2, "x\"y\""]"#).unwrap();
        let a = v.as_array().unwrap();
        assert_eq!(a[0].as_num(), Some(-25.0));
        assert_eq!(a[1].as_num(), Some(100.0));
        assert_eq!(a[2].as_str(), Some("x\"y\""));
    }

    #[test]
    fn handles_unicode_and_escapes() {
        let v = parse("\"caf\u{e9} \\u00e9\"").unwrap();
        assert_eq!(v.as_str(), Some("caf\u{e9} \u{e9}"));
    }
}
