//! Offline stand-in for `serde_json`.
//!
//! Parses JSON into the `serde` shim's [`Value`] tree, and renders any
//! [`Serialize`] type through the shim's one printer,
//! [`serde::JsonWriter`]. The pretty layout is upstream's 2-space one,
//! so golden files and snapshot-style assertions carry over.

use serde::{Deserialize, JsonWriter, Serialize};
pub use serde::{Error, Value};
use std::io;

/// `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Renders `value` into `out`, compact or indented by `indent`.
fn render<T: Serialize + ?Sized>(
    out: &mut dyn io::Write,
    value: &T,
    indent: Option<usize>,
) -> Result<()> {
    let mut w = JsonWriter::new(out, indent);
    value.write_json(&mut w, 0);
    w.finish().map_err(Error::msg)
}

/// Renders `value` as compact JSON.
///
/// # Errors
///
/// Infallible for this shim's value model; kept fallible for API parity.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    String::from_utf8(to_vec(value)?).map_err(Error::msg)
}

/// Renders `value` as 2-space-indented JSON.
///
/// # Errors
///
/// Infallible for this shim's value model; kept fallible for API parity.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = Vec::new();
    render(&mut out, value, Some(2))?;
    String::from_utf8(out).map_err(Error::msg)
}

/// Renders `value` as compact JSON bytes.
///
/// # Errors
///
/// Infallible for this shim's value model; kept fallible for API parity.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    render(&mut out, value, None)?;
    Ok(out)
}

/// Writes `value` as compact JSON to `writer`, as it is rendered: the
/// value never exists as a whole tree or a whole string.
///
/// # Errors
///
/// Returns the first error `writer` reports.
pub fn to_writer<W: io::Write, T: Serialize + ?Sized>(mut writer: W, value: &T) -> Result<()> {
    render(&mut writer, value, None)
}

/// Writes `value` as 2-space-indented JSON to `writer`, as it is
/// rendered: the value never exists as a whole tree or a whole string.
///
/// # Errors
///
/// Returns the first error `writer` reports.
pub fn to_writer_pretty<W: io::Write, T: Serialize + ?Sized>(
    mut writer: W,
    value: &T,
) -> Result<()> {
    render(&mut writer, value, Some(2))
}

/// Parses a `T` out of JSON text.
///
/// # Errors
///
/// Fails on malformed JSON or a tree that doesn't match `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let value = parse(s)?;
    T::from_value(&value)
}

/// Parses a `T` out of JSON bytes.
///
/// # Errors
///
/// Fails on non-UTF-8 input, malformed JSON, or a mismatched tree.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T> {
    let s = std::str::from_utf8(bytes).map_err(|e| Error(format!("invalid UTF-8: {e}")))?;
    from_str(s)
}

// ---------------------------------------------------------------- parsing

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

fn parse(s: &str) -> Result<Value> {
    let mut p = Parser { src: s, bytes: s.as_bytes(), pos: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> Result<()> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{kw}`")))
        }
    }

    fn value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.eat_keyword("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.eat_keyword("false").map(|()| Value::Bool(false)),
            Some(b'n') => self.eat_keyword("null").map(|()| Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(&format!("unexpected `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Value> {
        self.eat(b'{')?;
        self.skip_ws();
        let mut pairs = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let v = self.value()?;
            pairs.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<Value> {
        self.eat(b'[')?;
        self.skip_ws();
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect `\uXXXX` low half.
                                self.eat(b'\\')?;
                                self.eat(b'u')?;
                                let lo = self.hex4()?;
                                let code =
                                    0x10000 + ((hi - 0xD800) << 10) + (lo.wrapping_sub(0xDC00));
                                char::from_u32(code).ok_or_else(|| self.err("bad surrogate"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("bad codepoint"))?
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash in
                    // one go. Both are ASCII, so they never occur inside a
                    // multi-byte scalar and the run ends on a char
                    // boundary of the already-validated input.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(&self.src[start..self.pos]);
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !is_float {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::Int(n));
            }
        }
        text.parse::<f64>().map(Value::Float).map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// A printer of parsed trees, written apart from [`JsonWriter`]: the
    /// reference layout the printer must match byte for byte.
    mod reference {
        use super::Value;

        pub fn render(v: &Value, indent: Option<usize>) -> String {
            let mut out = String::new();
            write_value(&mut out, v, indent, 0);
            out
        }

        fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
            match v {
                Value::Null => out.push_str("null"),
                Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Value::Int(n) => out.push_str(&n.to_string()),
                Value::Float(f) => {
                    if f.is_finite() {
                        out.push_str(&format!("{f:?}"));
                    } else {
                        out.push_str("null");
                    }
                }
                Value::Str(s) => write_escaped(out, s),
                Value::Arr(items) => {
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
                        write_value(out, item, indent, depth + 1);
                    }
                    newline_indent(out, indent, depth);
                    out.push(']');
                }
                Value::Obj(pairs) => {
                    if pairs.is_empty() {
                        out.push_str("{}");
                        return;
                    }
                    out.push('{');
                    for (i, (k, item)) in pairs.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        newline_indent(out, indent, depth + 1);
                        write_escaped(out, k);
                        out.push(':');
                        if indent.is_some() {
                            out.push(' ');
                        }
                        write_value(out, item, indent, depth + 1);
                    }
                    newline_indent(out, indent, depth);
                    out.push('}');
                }
            }
        }

        fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
            if let Some(width) = indent {
                out.push('\n');
                for _ in 0..width * depth {
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
                    '\u{8}' => out.push_str("\\b"),
                    '\u{c}' => out.push_str("\\f"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
    }

    #[derive(Serialize)]
    struct Empty {}

    #[derive(Serialize)]
    struct Leaf {
        name: String,
        label: &'static str,
        n: u64,
        neg: i32,
        ratio: f64,
        small: f32,
        flag: bool,
        maybe: Option<u32>,
        list: Vec<i64>,
        none_yet: Vec<u8>,
        counts: BTreeMap<String, u32>,
        no_counts: BTreeMap<String, u32>,
        raw: Value,
    }

    #[derive(Serialize)]
    enum Kind {
        Unit,
        Newtype(u32),
        Tuple(u8, String, Option<bool>),
        Struct { leaves: Vec<Leaf>, note: Option<String> },
        Nest(Vec<Kind>),
        NoFields(),
        NoMembers {},
    }

    #[derive(Serialize)]
    struct Doc {
        empty: Empty,
        leaves: Vec<Leaf>,
        kinds: Vec<Kind>,
        absent: Option<Leaf>,
        present: Option<Leaf>,
        nested: Vec<Vec<Kind>>,
        floats: Vec<f64>,
        tree: BTreeMap<String, Vec<Option<Kind>>>,
    }

    fn leaf(k: u32) -> Leaf {
        let control: String = (0u8..0x20).map(char::from).collect();
        Leaf {
            name: format!("q\"uote\\back\nnl\r\t\u{8}\u{c}{control}\u{7f}é€😀/{k}"),
            label: "plain",
            n: u64::MAX - u64::from(k),
            neg: -(k as i32) - 1,
            ratio: f64::from(k) / 3.0,
            small: 0.1,
            flag: k.is_multiple_of(2),
            maybe: (!k.is_multiple_of(2)).then_some(k),
            list: vec![i64::MIN, 0, i64::MAX],
            none_yet: vec![],
            counts: (0..k).map(|i| (format!("key\t{i}"), i)).collect(),
            no_counts: BTreeMap::new(),
            raw: Value::Obj(vec![
                ("arr".into(), Value::Arr(vec![Value::Null, Value::Float(1e300), Value::Int(-1)])),
                ("obj".into(), Value::Obj(vec![])),
                ("nan".into(), Value::Float(f64::NAN)),
            ]),
        }
    }

    fn doc() -> Doc {
        Doc {
            empty: Empty {},
            leaves: (0..3).map(leaf).collect(),
            kinds: vec![
                Kind::Unit,
                Kind::Newtype(7),
                Kind::Tuple(1, "t\u{0}".into(), None),
                Kind::Struct { leaves: vec![leaf(4)], note: Some("n".into()) },
                Kind::Struct { leaves: vec![], note: None },
                Kind::Nest(vec![Kind::Unit, Kind::Nest(vec![]), Kind::NoFields()]),
                Kind::NoMembers {},
            ],
            absent: None,
            present: Some(leaf(5)),
            nested: vec![vec![], vec![Kind::Unit, Kind::Tuple(0, String::new(), Some(true))]],
            floats: vec![0.0, -0.0, 1.0, 2.5e-8, f64::NAN, f64::INFINITY, f64::NEG_INFINITY],
            tree: [("a".to_owned(), vec![None, Some(Kind::Newtype(1))]), ("b".into(), vec![])]
                .into_iter()
                .collect(),
        }
    }

    /// Renders through the streaming printer in every way the crate
    /// offers, and through the reference printer over the tree parsed
    /// back from the compact output.
    fn assert_prints_like_the_tree<T: Serialize + ?Sized>(value: &T) {
        let streamed = to_string(value).unwrap();
        let tree: Value = from_str(&streamed).unwrap();
        let (compact, pretty) = (reference::render(&tree, None), reference::render(&tree, Some(2)));
        assert_eq!(streamed, compact);
        assert_eq!(to_vec(value).unwrap(), compact.as_bytes());
        let mut written = Vec::new();
        to_writer(&mut written, value).unwrap();
        assert_eq!(written, compact.as_bytes());
        assert_eq!(to_string_pretty(value).unwrap(), pretty);
        let mut written = Vec::new();
        to_writer_pretty(&mut written, value).unwrap();
        assert_eq!(written, pretty.as_bytes());
        // The tree itself prints the same way.
        assert_eq!(to_string(&tree).unwrap(), compact);
        assert_eq!(to_string_pretty(&tree).unwrap(), pretty);
    }

    #[test]
    fn the_streaming_printer_matches_the_tree_printer_byte_for_byte() {
        assert_prints_like_the_tree(&doc());
        assert_prints_like_the_tree(&Empty {});
        assert_prints_like_the_tree(&leaf(0));
        assert_prints_like_the_tree(&Vec::<Leaf>::new());
        assert_prints_like_the_tree(&BTreeMap::<String, u8>::new());
        assert_prints_like_the_tree(&None::<Leaf>);
        assert_prints_like_the_tree(&f64::NAN);
        assert_prints_like_the_tree(&[Kind::Unit, Kind::Newtype(2)][..]);
        assert_prints_like_the_tree("\u{1f}\"");
        assert_prints_like_the_tree(&&leaf(1));
    }

    /// Derived enums print upstream's externally tagged layout, at any
    /// depth: each variant kind in compact and pretty form.
    #[test]
    fn derived_enums_print_the_externally_tagged_layout() {
        let struct_variant = Kind::Struct { leaves: vec![], note: Some("n".into()) };
        let cases: [(Kind, &str, &str); 7] = [
            (Kind::Unit, r#""Unit""#, r#""Unit""#),
            (Kind::Newtype(7), r#"{"Newtype":7}"#, "{\n  \"Newtype\": 7\n}"),
            (
                Kind::Tuple(1, "t".into(), None),
                r#"{"Tuple":[1,"t",null]}"#,
                "{\n  \"Tuple\": [\n    1,\n    \"t\",\n    null\n  ]\n}",
            ),
            (
                struct_variant,
                r#"{"Struct":{"leaves":[],"note":"n"}}"#,
                "{\n  \"Struct\": {\n    \"leaves\": [],\n    \"note\": \"n\"\n  }\n}",
            ),
            (
                Kind::Nest(vec![Kind::Unit, Kind::Newtype(2), Kind::Nest(vec![])]),
                r#"{"Nest":["Unit",{"Newtype":2},{"Nest":[]}]}"#,
                "{\n  \"Nest\": [\n    \"Unit\",\n    {\n      \"Newtype\": 2\n    },\n    {\n      \"Nest\": []\n    }\n  ]\n}",
            ),
            (Kind::NoFields(), r#"{"NoFields":[]}"#, "{\n  \"NoFields\": []\n}"),
            (Kind::NoMembers {}, r#"{"NoMembers":{}}"#, "{\n  \"NoMembers\": {}\n}"),
        ];
        for (kind, compact, pretty) in &cases {
            assert_eq!(to_string(kind).unwrap(), *compact);
            assert_eq!(to_string_pretty(kind).unwrap(), *pretty);
        }
        // A variant inside a struct member and an array element is
        // indented to its depth.
        let tree: BTreeMap<String, Vec<Kind>> = [("k".to_owned(), vec![Kind::Newtype(1)])].into();
        assert_eq!(to_string(&tree).unwrap(), r#"{"k":[{"Newtype":1}]}"#);
        assert_eq!(
            to_string_pretty(&tree).unwrap(),
            "{\n  \"k\": [\n    {\n      \"Newtype\": 1\n    }\n  ]\n}"
        );
    }

    /// The first write error ends the rendering and is returned.
    #[test]
    fn to_writer_pretty_reports_the_first_write_error() {
        struct Full(usize);
        impl io::Write for Full {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.0 == 0 {
                    return Err(io::Error::new(io::ErrorKind::WriteZero, "full"));
                }
                let n = buf.len().min(self.0);
                self.0 -= n;
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let err = to_writer_pretty(Full(100), &doc()).unwrap_err();
        assert_eq!(err.to_string(), "full");
        assert!(to_writer_pretty(Full(1 << 20), &doc()).is_ok());
    }

    #[test]
    fn roundtrip_nested() {
        let v = Value::Obj(vec![
            ("name".into(), Value::Str("a\"b\\c\nd".into())),
            ("n".into(), Value::Int(-42)),
            ("f".into(), Value::Float(1.5)),
            ("arr".into(), Value::Arr(vec![Value::Bool(true), Value::Null, Value::Obj(vec![])])),
        ]);
        for render in [to_string(&v).unwrap(), to_string_pretty(&v).unwrap()] {
            let back: Value = from_str(&render).unwrap();
            assert_eq!(back, v);
        }
    }

    #[test]
    fn pretty_layout_matches_upstream() {
        let v = Value::Obj(vec![
            ("a".into(), Value::Int(1)),
            ("b".into(), Value::Arr(vec![Value::Int(2)])),
        ]);
        assert_eq!(to_string_pretty(&v).unwrap(), "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}");
    }

    #[test]
    fn unicode_escapes() {
        let back: Value = from_str("\"\\u0041\\ud83d\\ude00\"").unwrap();
        assert_eq!(back, Value::Str("A😀".into()));
    }

    #[test]
    fn strings_round_trip_every_utf8_width_escapes_and_long_runs() {
        // 1-, 2-, 3- and 4-byte scalars, every escape the printer emits,
        // and a string over 1 MiB (linear decoding keeps this fast).
        let mixed = "a\u{e9}\u{20ac}\u{1f600}\"\\\n\r\t\u{8}\u{c}\u{1}/z";
        let long = mixed.repeat((1 << 20) / mixed.len() + 1);
        assert!(long.len() > 1 << 20);
        for text in [mixed.to_owned(), long] {
            let v = Value::Arr(vec![Value::Str(text.clone()), Value::Str(String::new())]);
            for render in [to_string(&v).unwrap(), to_string_pretty(&v).unwrap()] {
                let back: Value = from_str(&render).unwrap();
                assert_eq!(back, v);
            }
        }
        let back: Value = from_str("\"\\u00e9\\/x\"").unwrap();
        assert_eq!(back, Value::Str("\u{e9}/x".into()));
        assert!(from_str::<Value>("\"\u{e9}unterminated").is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<Value>("{\"a\": }").is_err());
        assert!(from_str::<Value>("[1,]").is_err());
        assert!(from_str::<Value>("tru").is_err());
        assert!(from_str::<Value>("1 2").is_err());
    }
}
