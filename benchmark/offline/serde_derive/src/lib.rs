//! Offline stand-in for `serde_derive` — see `../README.md`.
//!
//! Derives the stand-in `serde::Serialize`/`Deserialize` (value-tree
//! conversions) for the item shapes the repository declares: structs with
//! named fields, tuple structs, and enums with unit, tuple or struct
//! variants. Written against `proc_macro` alone (no `syn`/`quote`, which
//! are unavailable offline): the item is scanned token by token and the
//! impl is emitted as source text. Generic items are rejected with a
//! compile error rather than mis-derived.
//!
//! Supported attributes: `#[serde(transparent)]` (a no-op — one-field
//! tuple structs are always transparent, as in the published crate) and
//! `#[serde(default)]` on a named field.

use proc_macro::{Delimiter, TokenStream, TokenTree};

struct Field {
    name: String,
    default: bool,
}

enum Shape {
    Named(Vec<Field>),
    Tuple(usize),
    Unit,
}

struct Variant {
    name: String,
    shape: Shape,
}

enum Body {
    Struct(Shape),
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    body: Body,
}

/// Derives the stand-in `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, serialize_impl)
}

/// Derives the stand-in `serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, deserialize_impl)
}

fn expand(input: TokenStream, gen: fn(&Item) -> String) -> TokenStream {
    let src = match parse_item(input) {
        Ok(item) => gen(&item),
        Err(msg) => format!("compile_error!({msg:?});"),
    };
    src.parse()
        .unwrap_or_else(|e| panic!("serde_derive stand-in emitted unparsable code: {e}"))
}

// --- parsing -----------------------------------------------------------

fn is_punct(t: &TokenTree, c: char) -> bool {
    matches!(t, TokenTree::Punct(p) if p.as_char() == c)
}

/// Skips `#[...]` attributes and a `pub`/`pub(...)` visibility starting at
/// `i`; returns the new index and whether a `#[serde(default)]` was seen.
fn skip_attrs_and_vis(toks: &[TokenTree], mut i: usize) -> (usize, bool) {
    let mut default = false;
    loop {
        match (toks.get(i), toks.get(i + 1)) {
            (Some(t), Some(TokenTree::Group(g)))
                if is_punct(t, '#') && g.delimiter() == Delimiter::Bracket =>
            {
                let text = g.stream().to_string();
                if text.starts_with("serde") && text.contains("default") {
                    default = true;
                }
                i += 2;
            }
            (Some(TokenTree::Ident(id)), next) if id.to_string() == "pub" => {
                i += 1;
                if matches!(next, Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    i += 1;
                }
            }
            _ => return (i, default),
        }
    }
}

/// Advances past one type (or discriminant) to just after the next
/// top-level `,`, tracking `<...>` nesting; groups are single tokens.
fn skip_to_comma(toks: &[TokenTree], mut i: usize) -> usize {
    let mut angle = 0i32;
    while let Some(t) = toks.get(i) {
        i += 1;
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => break,
            _ => {}
        }
    }
    i
}

fn parse_named(stream: TokenStream) -> Result<Vec<Field>, String> {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let (next, default) = skip_attrs_and_vis(&toks, i);
        i = next;
        let Some(TokenTree::Ident(name)) = toks.get(i) else {
            return Err("expected a field name".into());
        };
        if !toks.get(i + 1).is_some_and(|t| is_punct(t, ':')) {
            return Err(format!("expected `:` after field `{name}`"));
        }
        fields.push(Field {
            name: name.to_string(),
            default,
        });
        i = skip_to_comma(&toks, i + 2);
    }
    Ok(fields)
}

fn count_tuple(stream: TokenStream) -> usize {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut n = 0;
    let mut i = 0;
    while i < toks.len() {
        n += 1;
        i = skip_to_comma(&toks, i);
    }
    n
}

fn parse_variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        i = skip_attrs_and_vis(&toks, i).0;
        let Some(TokenTree::Ident(name)) = toks.get(i) else {
            return Err("expected a variant name".into());
        };
        let shape = match toks.get(i + 1) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Named(parse_named(g.stream())?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Shape::Tuple(count_tuple(g.stream()))
            }
            _ => Shape::Unit,
        };
        variants.push(Variant {
            name: name.to_string(),
            shape,
        });
        i = skip_to_comma(&toks, i + 1);
    }
    Ok(variants)
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let (i, _) = skip_attrs_and_vis(&toks, 0);
    let kind = match toks.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        _ => return Err("expected `struct` or `enum`".into()),
    };
    let Some(TokenTree::Ident(name)) = toks.get(i + 1) else {
        return Err("expected an item name".into());
    };
    let name = name.to_string();
    let body = match (kind.as_str(), toks.get(i + 2)) {
        (_, Some(t)) if is_punct(t, '<') => {
            return Err(format!(
                "the offline serde_derive stand-in does not support generic items (`{name}`)"
            ))
        }
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Body::Struct(Shape::Named(parse_named(g.stream())?))
        }
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Parenthesis => {
            Body::Struct(Shape::Tuple(count_tuple(g.stream())))
        }
        ("struct", _) => Body::Struct(Shape::Unit),
        ("enum", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Body::Enum(parse_variants(g.stream())?)
        }
        _ => return Err(format!("cannot derive for `{kind} {name}`")),
    };
    Ok(Item { name, body })
}

// --- code generation -----------------------------------------------------

fn binders(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("f{i}")).collect()
}

/// `Value` expression for a shape whose fields are reachable through
/// `access(field)` (e.g. `&self.x` or a match binder).
fn ser_shape(
    shape: &Shape,
    named: impl Fn(&str) -> String,
    tuple: impl Fn(usize) -> String,
) -> String {
    match shape {
        Shape::Unit => "::serde::Value::Null".into(),
        Shape::Named(fields) => {
            let entries: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!(
                        "({:?}.to_string(), ::serde::Serialize::to_value({}))",
                        f.name,
                        named(&f.name)
                    )
                })
                .collect();
            format!("::serde::Value::Map(vec![{}])", entries.join(", "))
        }
        Shape::Tuple(1) => format!("::serde::Serialize::to_value({})", tuple(0)),
        Shape::Tuple(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::to_value({})", tuple(i)))
                .collect();
            format!("::serde::Value::Seq(vec![{}])", items.join(", "))
        }
    }
}

fn serialize_impl(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.body {
        Body::Struct(shape) => ser_shape(shape, |f| format!("&self.{f}"), |i| format!("&self.{i}")),
        Body::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let vn = &v.name;
                    match &v.shape {
                        Shape::Unit => {
                            format!("{name}::{vn} => ::serde::Value::Str({vn:?}.to_string())")
                        }
                        Shape::Named(fields) => {
                            let pat: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                            let inner = ser_shape(&v.shape, |f| f.to_string(), |_| String::new());
                            format!(
                                "{name}::{vn} {{ {} }} => ::serde::Value::Map(vec![({vn:?}.to_string(), {inner})])",
                                pat.join(", ")
                            )
                        }
                        Shape::Tuple(n) => {
                            let b = binders(*n);
                            let inner = ser_shape(&v.shape, |_| String::new(), |i| b[i].clone());
                            format!(
                                "{name}::{vn}({}) => ::serde::Value::Map(vec![({vn:?}.to_string(), {inner})])",
                                b.join(", ")
                            )
                        }
                    }
                })
                .collect();
            format!("match self {{ {} }}", arms.join(", "))
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{ fn to_value(&self) -> ::serde::Value {{ {body} }} }}"
    )
}

/// Constructor expression `path { .. }` / `path(..)` reading from value `v`.
fn de_shape(path: &str, shape: &Shape, v: &str) -> String {
    match shape {
        Shape::Unit => path.to_string(),
        Shape::Named(fields) => {
            let inits: Vec<String> = fields
                .iter()
                .map(|f| {
                    let reader = if f.default {
                        "field_or_default"
                    } else {
                        "field"
                    };
                    format!("{}: ::serde::{reader}({v}, {:?})?", f.name, f.name)
                })
                .collect();
            format!(
                "{{ if !matches!({v}, ::serde::Value::Map(_)) {{ \
                   return Err(::serde::Error::msg(concat!(\"expected an object for \", {path:?}))); }} \
                   {path} {{ {} }} }}",
                inits.join(", ")
            )
        }
        Shape::Tuple(1) => format!("{path}(::serde::Deserialize::from_value({v})?)"),
        Shape::Tuple(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Deserialize::from_value(&items[{i}])?"))
                .collect();
            format!(
                "match {v} {{ ::serde::Value::Seq(items) if items.len() == {n} => {path}({}), \
                   _ => return Err(::serde::Error::msg(concat!(\"expected a {n}-element array for \", {path:?}))) }}",
                items.join(", ")
            )
        }
    }
}

fn deserialize_impl(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.body {
        Body::Struct(shape) => format!("Ok({})", de_shape(name, shape, "v")),
        Body::Enum(variants) => {
            let unit_arms: Vec<String> = variants
                .iter()
                .filter(|v| matches!(v.shape, Shape::Unit))
                .map(|v| format!("{:?} => Ok({name}::{}),", v.name, v.name))
                .collect();
            let data_arms: Vec<String> = variants
                .iter()
                .filter(|v| !matches!(v.shape, Shape::Unit))
                .map(|v| {
                    let path = format!("{name}::{}", v.name);
                    format!(
                        "{:?} => Ok({}),",
                        v.name,
                        de_shape(&path, &v.shape, "inner")
                    )
                })
                .collect();
            format!(
                "match v {{ \
                   ::serde::Value::Str(s) => match s.as_str() {{ {} other => \
                     Err(::serde::Error::msg(format!(\"unknown variant `{{other}}` of {name}\"))) }}, \
                   ::serde::Value::Map(m) if m.len() == 1 => {{ \
                     let (tag, inner) = (&m[0].0, &m[0].1); let _ = inner; \
                     match tag.as_str() {{ {} other => \
                       Err(::serde::Error::msg(format!(\"unknown variant `{{other}}` of {name}\"))) }} }}, \
                   _ => Err(::serde::Error::msg(\"expected a string or single-key object for enum {name}\")) }}",
                unit_arms.join(" "),
                data_arms.join(" ")
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{ \
           fn from_value(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{ {body} }} }}"
    )
}
