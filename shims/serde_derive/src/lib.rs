//! Offline stand-in for `serde_derive`.
//!
//! Upstream leans on `syn`/`quote`; neither is available offline, so
//! this derive hand-walks the `proc_macro::TokenStream` and emits the
//! impl source as a string. Supported shapes — the ones this workspace
//! actually derives on — are structs with named fields and enums with
//! unit, newtype, tuple, and struct variants (no generics). The only
//! recognised field attribute is `#[serde(default)]`.

use proc_macro::{Delimiter, TokenStream, TokenTree};

struct Field {
    name: String,
    default: bool,
}

enum VariantKind {
    Unit,
    Newtype,
    Tuple(usize),
    Struct(Vec<Field>),
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum Shape {
    Struct { name: String, fields: Vec<Field> },
    Enum { name: String, variants: Vec<Variant> },
}

/// Derives `serde::Serialize`: one `write_json` that prints the value
/// straight to the shim's `JsonWriter`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let shape = parse_input(input);
    let src = match &shape {
        Shape::Struct { name, fields } => serialize_struct(name, fields),
        Shape::Enum { name, variants } => serialize_enum(name, variants),
    };
    src.parse().expect("serde_derive shim emitted invalid Serialize impl")
}

/// Derives `serde::Deserialize` (the shim's `from_value`).
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let shape = parse_input(input);
    let src = match &shape {
        Shape::Struct { name, fields } => deserialize_struct(name, fields),
        Shape::Enum { name, variants } => deserialize_enum(name, variants),
    };
    src.parse().expect("serde_derive shim emitted invalid Deserialize impl")
}

// ---------------------------------------------------------------- parsing

fn parse_input(input: TokenStream) -> Shape {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    skip_attrs(&toks, &mut i);
    skip_vis(&toks, &mut i);
    let kw = expect_ident(&toks, &mut i);
    let name = expect_ident(&toks, &mut i);
    if matches!(&toks.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde shim derive does not support generic types ({name})");
    }
    let body = match toks.get(i) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
        other => panic!("serde shim derive: expected braced body for {name}, got {other:?}"),
    };
    match kw.as_str() {
        "struct" => Shape::Struct { name, fields: parse_fields(body) },
        "enum" => Shape::Enum { name, variants: parse_variants(body) },
        other => panic!("serde shim derive: unsupported item kind `{other}`"),
    }
}

fn skip_vis(toks: &[TokenTree], i: &mut usize) {
    if matches!(toks.get(*i), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        *i += 1;
        if matches!(toks.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            *i += 1;
        }
    }
}

/// Skips `#[...]` attributes; returns true if any was `#[serde(default)]`.
fn skip_attrs(toks: &[TokenTree], i: &mut usize) -> bool {
    let mut has_default = false;
    loop {
        match (toks.get(*i), toks.get(*i + 1)) {
            (Some(TokenTree::Punct(p)), Some(TokenTree::Group(g)))
                if p.as_char() == '#' && g.delimiter() == Delimiter::Bracket =>
            {
                has_default |= attr_is_serde_default(&g.stream());
                *i += 2;
            }
            _ => return has_default,
        }
    }
}

fn attr_is_serde_default(stream: &TokenStream) -> bool {
    let toks: Vec<TokenTree> = stream.clone().into_iter().collect();
    match (toks.first(), toks.get(1)) {
        (Some(TokenTree::Ident(id)), Some(TokenTree::Group(args)))
            if id.to_string() == "serde" && args.delimiter() == Delimiter::Parenthesis =>
        {
            args.stream()
                .into_iter()
                .any(|t| matches!(&t, TokenTree::Ident(a) if a.to_string() == "default"))
        }
        _ => false,
    }
}

fn expect_ident(toks: &[TokenTree], i: &mut usize) -> String {
    match toks.get(*i) {
        Some(TokenTree::Ident(id)) => {
            *i += 1;
            id.to_string()
        }
        other => panic!("serde shim derive: expected identifier, got {other:?}"),
    }
}

/// Advances past one type, stopping before a top-level `,` (or the end).
/// Group tokens are atomic, so only `<`/`>` puncts contribute nesting;
/// `->` only appears inside groups (fn-pointer types) and is untracked.
fn skip_type(toks: &[TokenTree], i: &mut usize) {
    let mut angle = 0i32;
    while let Some(t) = toks.get(*i) {
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                ',' if angle == 0 => return,
                '<' => angle += 1,
                '>' => angle -= 1,
                _ => {}
            }
        }
        *i += 1;
    }
}

fn parse_fields(body: TokenStream) -> Vec<Field> {
    let toks: Vec<TokenTree> = body.into_iter().collect();
    let mut i = 0;
    let mut fields = Vec::new();
    while i < toks.len() {
        let default = skip_attrs(&toks, &mut i);
        skip_vis(&toks, &mut i);
        let name = expect_ident(&toks, &mut i);
        match toks.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => panic!("serde shim derive: expected `:` after field `{name}`, got {other:?}"),
        }
        skip_type(&toks, &mut i);
        if matches!(toks.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
        fields.push(Field { name, default });
    }
    fields
}

fn parse_variants(body: TokenStream) -> Vec<Variant> {
    let toks: Vec<TokenTree> = body.into_iter().collect();
    let mut i = 0;
    let mut variants = Vec::new();
    while i < toks.len() {
        skip_attrs(&toks, &mut i);
        let name = expect_ident(&toks, &mut i);
        let kind = match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                match count_tuple_fields(g.stream()) {
                    1 => VariantKind::Newtype,
                    n => VariantKind::Tuple(n),
                }
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                VariantKind::Struct(parse_fields(g.stream()))
            }
            _ => VariantKind::Unit,
        };
        // Skip an explicit discriminant (`= expr`) up to the comma.
        if matches!(toks.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '=') {
            i += 1;
            skip_type(&toks, &mut i);
        }
        if matches!(toks.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
        variants.push(Variant { name, kind });
    }
    variants
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    if toks.is_empty() {
        return 0;
    }
    let mut i = 0;
    let mut n = 0;
    while i < toks.len() {
        skip_attrs(&toks, &mut i);
        skip_vis(&toks, &mut i);
        skip_type(&toks, &mut i);
        n += 1;
        if matches!(toks.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
    }
    n
}

// ---------------------------------------------------------------- codegen

/// Prints the object member by member, each member's value through its
/// own `write_json`.
fn serialize_struct(name: &str, fields: &[Field]) -> String {
    let mut members = String::new();
    for (i, f) in fields.iter().enumerate() {
        members.push_str(&write_member(i, &f.name, &format!("&self.{}", f.name), "__depth"));
    }
    serialize_impl(name, &format!("{members}__w.end_object({}, __depth);", fields.len()))
}

/// Writes member `index` named `key` of an object opened at `depth`,
/// its value being the expression `value`.
fn write_member(index: usize, key: &str, value: &str, depth: &str) -> String {
    format!(
        "__w.key({index}, \"{key}\", {depth});\n\
         ::serde::Serialize::write_json({value}, __w, {depth} + 1);\n"
    )
}

fn serialize_impl(name: &str, body: &str) -> String {
    format!(
        "impl ::serde::Serialize for {name} {{\n\
           fn write_json(&self, __w: &mut ::serde::JsonWriter<'_>, __depth: usize) {{\n\
             {body}\n\
           }}\n\
         }}\n"
    )
}

fn deserialize_struct(name: &str, fields: &[Field]) -> String {
    let mut inits = String::new();
    for f in fields {
        let fname = &f.name;
        let getter = if f.default { "field_or_default" } else { "field" };
        inits.push_str(&format!("{fname}: ::serde::{getter}(v, \"{fname}\")?,\n"));
    }
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
           fn from_value(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
             if !matches!(v, ::serde::Value::Obj(_)) {{\n\
               return ::std::result::Result::Err(::serde::Error(\
                 format!(\"expected object for {name}, got {{}}\", v.kind())));\n\
             }}\n\
             ::std::result::Result::Ok({name} {{\n{inits}}})\n\
           }}\n\
         }}\n"
    )
}

/// Upstream's externally tagged layout: a unit variant is its name as a
/// string; any other variant is a one-member object from its name to
/// its payload (the value, an array of the fields, or an object of the
/// named fields).
/// Upstream's externally tagged layout: a unit variant is its name as a
/// string; any other variant is a one-member object from its name to
/// its payload (the value, an array of the fields, or an object of the
/// named fields).
fn serialize_enum(name: &str, variants: &[Variant]) -> String {
    let mut arms = String::new();
    for v in variants {
        let vname = &v.name;
        let (pattern, payload) = match &v.kind {
            VariantKind::Unit => {
                arms.push_str(&format!(
                    "{name}::{vname} => ::serde::Serialize::write_json(\"{vname}\", __w, __depth),\n"
                ));
                continue;
            }
            VariantKind::Newtype => (
                "(__f0)".to_owned(),
                "::serde::Serialize::write_json(__f0, __w, __depth + 1);\n".to_owned(),
            ),
            VariantKind::Tuple(n) => {
                let mut elems = String::new();
                for k in 0..*n {
                    elems.push_str(&format!(
                        "__w.element({k}, __depth + 1);\n\
                         ::serde::Serialize::write_json(__f{k}, __w, __depth + 2);\n"
                    ));
                }
                let binds: Vec<String> = (0..*n).map(|k| format!("__f{k}")).collect();
                (
                    format!("({})", binds.join(", ")),
                    elems + &format!("__w.end_array({n}, __depth + 1);\n"),
                )
            }
            VariantKind::Struct(fields) => {
                let binds: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                let mut members = String::new();
                for (i, f) in fields.iter().enumerate() {
                    members.push_str(&write_member(i, &f.name, &f.name, "__depth + 1"));
                }
                let end = format!("__w.end_object({}, __depth + 1);\n", fields.len());
                (format!(" {{ {} }}", binds.join(", ")), members + &end)
            }
        };
        arms.push_str(&format!(
            "{name}::{vname}{pattern} => {{\n\
               __w.key(0, \"{vname}\", __depth);\n\
               {payload}\
               __w.end_object(1, __depth);\n\
             }}\n"
        ));
    }
    serialize_impl(name, &format!("match self {{\n{arms}}}"))
}

fn deserialize_enum(name: &str, variants: &[Variant]) -> String {
    let mut str_arms = String::new();
    let mut obj_arms = String::new();
    for v in variants {
        let vname = &v.name;
        match &v.kind {
            VariantKind::Unit => str_arms
                .push_str(&format!("\"{vname}\" => ::std::result::Result::Ok({name}::{vname}),\n")),
            VariantKind::Newtype => obj_arms.push_str(&format!(
                "\"{vname}\" => ::std::result::Result::Ok({name}::{vname}(\
                 ::serde::Deserialize::from_value(__inner)?)),\n"
            )),
            VariantKind::Tuple(n) => {
                let elems: Vec<String> = (0..*n)
                    .map(|k| format!("::serde::Deserialize::from_value(&__items[{k}])?"))
                    .collect();
                obj_arms.push_str(&format!(
                    "\"{vname}\" => match __inner {{\n\
                       ::serde::Value::Arr(__items) if __items.len() == {n} => \
                         ::std::result::Result::Ok({name}::{vname}({})),\n\
                       _ => ::std::result::Result::Err(::serde::Error(\
                         ::std::string::String::from(\
                           \"expected {n}-element array for {name}::{vname}\"))),\n\
                     }},\n",
                    elems.join(", ")
                ));
            }
            VariantKind::Struct(fields) => {
                let inits: Vec<String> = fields
                    .iter()
                    .map(|f| {
                        let getter = if f.default { "field_or_default" } else { "field" };
                        format!("{0}: ::serde::{getter}(__inner, \"{0}\")?", f.name)
                    })
                    .collect();
                obj_arms.push_str(&format!(
                    "\"{vname}\" => ::std::result::Result::Ok({name}::{vname} {{ {} }}),\n",
                    inits.join(", ")
                ));
            }
        }
    }
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
           fn from_value(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
             match v {{\n\
               ::serde::Value::Str(__s) => match __s.as_str() {{\n\
                 {str_arms}\
                 __other => ::std::result::Result::Err(::serde::Error(\
                   format!(\"unknown {name} variant `{{}}`\", __other))),\n\
               }},\n\
               ::serde::Value::Obj(__pairs) if __pairs.len() == 1 => {{\n\
                 let (__key, __inner) = &__pairs[0];\n\
                 match __key.as_str() {{\n\
                   {obj_arms}\
                   __other => ::std::result::Result::Err(::serde::Error(\
                     format!(\"unknown {name} variant `{{}}`\", __other))),\n\
                 }}\n\
               }}\n\
               __other => ::std::result::Result::Err(::serde::Error(\
                 format!(\"bad value for enum {name}: {{}}\", __other.kind()))),\n\
             }}\n\
           }}\n\
         }}\n"
    )
}
