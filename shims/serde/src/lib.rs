//! Offline stand-in for `serde`.
//!
//! Upstream serde abstracts over serializer backends; the only backend
//! this workspace uses is JSON, so the shim collapses the design to one
//! printer and one tree. A [`Serialize`] type writes itself straight to
//! the output through [`JsonWriter`], member by member, never as a
//! whole tree or string. [`Deserialize`] reads from a parsed [`Value`]
//! tree, which also serves as an explicit document builder and prints
//! through the same writer. `#[derive(Serialize, Deserialize)]` works
//! through the sibling `serde_derive` shim and supports what the
//! workspace derives on: structs with named fields, enums with unit /
//! newtype / tuple / struct variants, and the `#[serde(default)]` field
//! attribute.

use std::fmt;
use std::io;

pub use serde_derive::{Deserialize, Serialize};

/// A parsed/buildable JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without a fractional part (within `i64`).
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A short name of the value's type, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) | Value::Float(_) => "number",
            Value::Str(_) => "string",
            Value::Arr(_) => "array",
            Value::Obj(_) => "object",
        }
    }
}

/// (De)serialisation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(pub String);

impl Error {
    /// Builds an error from anything displayable.
    pub fn msg(m: impl fmt::Display) -> Error {
        Error(m.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Types that print themselves as JSON.
pub trait Serialize {
    /// Writes `self` as JSON, `depth` levels deep in the document.
    fn write_json(&self, w: &mut JsonWriter<'_>, depth: usize);
}

/// The JSON printer: compact, or indented by a fixed width per level.
///
/// Writes go straight to the output. The first I/O error is kept and
/// every later write is skipped; [`JsonWriter::finish`] returns it.
pub struct JsonWriter<'a> {
    out: &'a mut dyn io::Write,
    indent: Option<usize>,
    error: Option<io::Error>,
}

impl<'a> JsonWriter<'a> {
    /// A printer into `out`; `indent` is the width of one level, or
    /// `None` for compact output.
    pub fn new(out: &'a mut dyn io::Write, indent: Option<usize>) -> Self {
        JsonWriter { out, indent, error: None }
    }

    /// Ends printing.
    ///
    /// # Errors
    ///
    /// Returns the first write error the output reported.
    pub fn finish(self) -> io::Result<()> {
        self.error.map_or(Ok(()), Err)
    }

    fn raw(&mut self, s: &str) {
        if self.error.is_none() {
            if let Err(e) = self.out.write_all(s.as_bytes()) {
                self.error = Some(e);
            }
        }
    }

    fn fmt(&mut self, args: fmt::Arguments<'_>) {
        if self.error.is_none() {
            if let Err(e) = self.out.write_fmt(args) {
                self.error = Some(e);
            }
        }
    }

    fn newline_indent(&mut self, depth: usize) {
        const SPACES: &str = "                                                                ";
        if let Some(width) = self.indent {
            self.raw("\n");
            let mut n = width * depth;
            while n > 0 {
                let run = n.min(SPACES.len());
                self.raw(&SPACES[..run]);
                n -= run;
            }
        }
    }

    /// `null`.
    fn null(&mut self) {
        self.raw("null");
    }

    /// `true` or `false`.
    fn bool(&mut self, b: bool) {
        self.raw(if b { "true" } else { "false" });
    }

    /// An integer.
    fn int(&mut self, n: i64) {
        self.fmt(format_args!("{n}"));
    }

    /// A float; `null` when it is not finite.
    fn float(&mut self, f: f64) {
        if f.is_finite() {
            // `{:?}` keeps a trailing `.0` on integral floats, like
            // upstream's ryu output.
            self.fmt(format_args!("{f:?}"));
        } else {
            self.null();
        }
    }

    /// A string, quoted and escaped.
    fn str(&mut self, s: &str) {
        self.raw("\"");
        let mut run = 0;
        // Every character that needs escaping is ASCII, so the runs
        // between them end on character boundaries.
        for (i, b) in s.bytes().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0x08 => "\\b",
                0x0c => "\\f",
                0..=0x1f => "",
                _ => continue,
            };
            self.raw(&s[run..i]);
            if escape.is_empty() {
                self.fmt(format_args!("\\u{b:04x}"));
            } else {
                self.raw(escape);
            }
            run = i + 1;
        }
        self.raw(&s[run..]);
        self.raw("\"");
    }

    /// Opens member `index` of an object `depth` levels deep: the
    /// opening brace or a comma, the line break, then the quoted key.
    /// The member's value follows, written at `depth + 1`.
    pub fn key(&mut self, index: usize, name: &str, depth: usize) {
        self.raw(if index == 0 { "{" } else { "," });
        self.newline_indent(depth + 1);
        self.str(name);
        self.raw(if self.indent.is_some() { ": " } else { ":" });
    }

    /// Closes an object of `members` members opened at `depth`.
    pub fn end_object(&mut self, members: usize, depth: usize) {
        if members == 0 {
            self.raw("{}");
        } else {
            self.newline_indent(depth);
            self.raw("}");
        }
    }

    /// Opens element `index` of an array `depth` levels deep; the
    /// element follows, written at `depth + 1`.
    pub fn element(&mut self, index: usize, depth: usize) {
        self.raw(if index == 0 { "[" } else { "," });
        self.newline_indent(depth + 1);
    }

    /// Closes an array of `elements` elements opened at `depth`.
    pub fn end_array(&mut self, elements: usize, depth: usize) {
        if elements == 0 {
            self.raw("[]");
        } else {
            self.newline_indent(depth);
            self.raw("]");
        }
    }

    /// An array of `items`.
    fn seq<'i, T: Serialize + 'i>(&mut self, items: impl IntoIterator<Item = &'i T>, depth: usize) {
        let mut n = 0;
        for item in items {
            self.element(n, depth);
            item.write_json(self, depth + 1);
            n += 1;
        }
        self.end_array(n, depth);
    }

    /// A value tree.
    fn value(&mut self, v: &Value, depth: usize) {
        match v {
            Value::Null => self.null(),
            Value::Bool(b) => self.bool(*b),
            Value::Int(n) => self.int(*n),
            Value::Float(f) => self.float(*f),
            Value::Str(s) => self.str(s),
            Value::Arr(items) => self.seq(items, depth),
            Value::Obj(pairs) => {
                for (i, (k, item)) in pairs.iter().enumerate() {
                    self.key(i, k, depth);
                    self.value(item, depth + 1);
                }
                self.end_object(pairs.len(), depth);
            }
        }
    }
}

/// Types buildable from a [`Value`].
pub trait Deserialize: Sized {
    /// Parses `self` out of a value tree.
    ///
    /// # Errors
    ///
    /// Returns a message naming the mismatch when the tree has the wrong
    /// shape.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

/// Extracts and deserialises a required object member (derive-macro
/// helper).
///
/// # Errors
///
/// Fails when `v` is not an object, the member is missing, or the member
/// fails to deserialise.
pub fn field<T: Deserialize>(v: &Value, name: &str) -> Result<T, Error> {
    match v.get(name) {
        Some(m) => T::from_value(m).map_err(|e| Error(format!("field `{name}`: {e}"))),
        None => Err(Error(format!("missing field `{name}`"))),
    }
}

/// Like [`field`], but a missing member yields `T::default()`
/// (`#[serde(default)]`).
///
/// # Errors
///
/// Fails when the member is present but malformed.
pub fn field_or_default<T: Deserialize + Default>(v: &Value, name: &str) -> Result<T, Error> {
    match v.get(name) {
        Some(m) => T::from_value(m).map_err(|e| Error(format!("field `{name}`: {e}"))),
        None => Ok(T::default()),
    }
}

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, w: &mut JsonWriter<'_>, _depth: usize) {
                w.int(*self as i64);
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Int(n) => <$t>::try_from(*n)
                        .map_err(|_| Error(format!("{n} out of range for {}", stringify!($t)))),
                    Value::Float(f) if f.fract() == 0.0 => Ok(*f as $t),
                    other => Err(Error(format!(
                        "expected number, got {}", other.kind()
                    ))),
                }
            }
        }
    )*};
}

impl_serde_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Serialize for bool {
    fn write_json(&self, w: &mut JsonWriter<'_>, _depth: usize) {
        w.bool(*self);
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(Error(format!("expected bool, got {}", other.kind()))),
        }
    }
}

impl Serialize for f64 {
    fn write_json(&self, w: &mut JsonWriter<'_>, _depth: usize) {
        w.float(*self);
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Int(n) => Ok(*n as f64),
            Value::Float(f) => Ok(*f),
            other => Err(Error(format!("expected number, got {}", other.kind()))),
        }
    }
}

impl Serialize for f32 {
    fn write_json(&self, w: &mut JsonWriter<'_>, _depth: usize) {
        w.float(f64::from(*self));
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        f64::from_value(v).map(|f| f as f32)
    }
}

impl Serialize for String {
    fn write_json(&self, w: &mut JsonWriter<'_>, _depth: usize) {
        w.str(self);
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error(format!("expected string, got {}", other.kind()))),
        }
    }
}

impl Serialize for str {
    fn write_json(&self, w: &mut JsonWriter<'_>, _depth: usize) {
        w.str(self);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn write_json(&self, w: &mut JsonWriter<'_>, depth: usize) {
        w.seq(self, depth);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Arr(items) => items.iter().map(T::from_value).collect(),
            other => Err(Error(format!("expected array, got {}", other.kind()))),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn write_json(&self, w: &mut JsonWriter<'_>, depth: usize) {
        w.seq(self, depth);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn write_json(&self, w: &mut JsonWriter<'_>, depth: usize) {
        match self {
            Some(t) => t.write_json(w, depth),
            None => w.null(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn write_json(&self, w: &mut JsonWriter<'_>, depth: usize) {
        (**self).write_json(w, depth);
    }
}

impl<V: Serialize> Serialize for std::collections::BTreeMap<String, V> {
    fn write_json(&self, w: &mut JsonWriter<'_>, depth: usize) {
        for (i, (k, v)) in self.iter().enumerate() {
            w.key(i, k, depth);
            v.write_json(w, depth + 1);
        }
        w.end_object(self.len(), depth);
    }
}

impl<V: Deserialize> Deserialize for std::collections::BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Obj(pairs) => pairs
                .iter()
                .map(|(k, m)| {
                    V::from_value(m)
                        .map(|v| (k.clone(), v))
                        .map_err(|e| Error(format!("member `{k}`: {e}")))
                })
                .collect(),
            other => Err(Error(format!("expected object, got {}", other.kind()))),
        }
    }
}

impl Serialize for Value {
    fn write_json(&self, w: &mut JsonWriter<'_>, depth: usize) {
        w.value(self, depth);
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}
