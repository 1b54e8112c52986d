//! Offline stand-in for `serde_json` 1.x — see `../README.md`.
//!
//! Renders and parses the stand-in `serde::Value` tree as compact JSON.
//! Floats print Rust's shortest round-trip decimal, so every finite
//! `f32`/`f64` survives a round trip bit-for-bit; non-finite floats print
//! `null`, like the published crate.

use serde::{Deserialize, Serialize, Value};
use std::fmt::{self, Write as _};

/// A render or parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error(e.0)
    }
}

/// The crate's result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Serializes `v` to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(v: &T) -> Result<String> {
    let mut out = String::new();
    render(&v.to_value(), &mut out);
    Ok(out)
}

/// Serializes `v` to compact JSON bytes.
pub fn to_vec<T: Serialize + ?Sized>(v: &T) -> Result<Vec<u8>> {
    to_string(v).map(String::into_bytes)
}

/// Parses a JSON string into `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let mut p = Parser {
        b: s.as_bytes(),
        i: 0,
    };
    let v = p.value(0)?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(T::from_value(&v)?)
}

/// Parses JSON bytes into `T`.
pub fn from_slice<T: Deserialize>(b: &[u8]) -> Result<T> {
    let s = std::str::from_utf8(b).map_err(|e| Error(format!("invalid UTF-8: {e}")))?;
    from_str(s)
}

fn render(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::I64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::F64(x) => render_float(x.is_finite(), x.fract() == 0.0, format_args!("{x}"), out),
        Value::F32(x) => render_float(x.is_finite(), x.fract() == 0.0, format_args!("{x}"), out),
        Value::Str(s) => render_str(s, out),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render(item, out);
            }
            out.push(']');
        }
        Value::Map(fields) => {
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_str(k, out);
                out.push(':');
                render(item, out);
            }
            out.push('}');
        }
    }
}

/// `{}` never prints an exponent and drops the fraction of an integral
/// float ("3"), so `.0` is appended to keep it parsing back as a float.
fn render_float(finite: bool, integral: bool, digits: fmt::Arguments<'_>, out: &mut String) {
    if !finite {
        out.push_str("null");
        return;
    }
    let _ = out.write_fmt(digits);
    if integral {
        out.push_str(".0");
    }
}

fn render_str(s: &str, out: &mut String) {
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

/// Nesting bound: input is untrusted (blobs can be corrupted), so recursion
/// depth is capped like the published crate's.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> Error {
        Error(format!("{what} at byte {}", self.i))
    }

    fn skip_ws(&mut self) {
        while matches!(self.b.get(self.i), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.b.get(self.i) {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') if self.eat("null") => Ok(Value::Null),
            Some(b't') if self.eat("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.b.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Value::Seq(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.b.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Value::Seq(items));
                        }
                        _ => return Err(self.err("expected `,` or `]`")),
                    }
                }
            }
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.b.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Value::Map(fields));
                }
                loop {
                    self.skip_ws();
                    if self.b.get(self.i) != Some(&b'"') {
                        return Err(self.err("expected object key"));
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    if self.b.get(self.i) != Some(&b':') {
                        return Err(self.err("expected `:`"));
                    }
                    self.i += 1;
                    let v = self.value(depth + 1)?;
                    fields.push((key, v));
                    self.skip_ws();
                    match self.b.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Value::Map(fields));
                        }
                        _ => return Err(self.err("expected `,` or `}`")),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.i;
        let mut float = false;
        while let Some(&c) = self.b.get(self.i) {
            match c {
                b'0'..=b'9' | b'-' | b'+' => {}
                b'.' | b'e' | b'E' => float = true,
                _ => break,
            }
            self.i += 1;
        }
        // The scanned bytes are ASCII by construction.
        let text = std::str::from_utf8(&self.b[start..self.i]).unwrap_or("");
        if !float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::I64(n));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| self.err("malformed number"))
    }

    fn string(&mut self) -> Result<String> {
        self.i += 1; // opening quote
        let mut out = String::new();
        loop {
            let start = self.i;
            while let Some(&c) = self.b.get(self.i) {
                if c == b'"' || c == b'\\' {
                    break;
                }
                self.i += 1;
            }
            // `b` came from a `&str` and the run stops only at ASCII bytes,
            // so the slice is valid UTF-8.
            out.push_str(std::str::from_utf8(&self.b[start..self.i]).unwrap_or(""));
            match self.b.get(self.i) {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let esc = *self
                        .b
                        .get(self.i)
                        .ok_or_else(|| self.err("dangling escape"))?;
                    self.i += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.i += 4;
                            // Surrogate pairs never occur in what this
                            // repository writes; map them to U+FFFD.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_and_containers_round_trip() {
        assert_eq!(from_str::<u32>("1").unwrap(), 1);
        assert_eq!(
            to_string(&vec![(1u32, 0.5f32), (2, 1.0)]).unwrap(),
            "[[1,0.5],[2,1.0]]"
        );
        let back: Vec<(u32, f32)> = from_str("[[1,0.5],[2,1.0]]").unwrap();
        assert_eq!(back, vec![(1, 0.5), (2, 1.0)]);
        let s = to_string("a\"b\\c\n").unwrap();
        assert_eq!(from_str::<String>(&s).unwrap(), "a\"b\\c\n");
        assert_eq!(from_str::<Option<u64>>("null").unwrap(), None);
        assert!(from_str::<u32>("1 2").is_err());
        assert!(from_str::<u32>("-1").is_err());
    }

    #[test]
    fn floats_round_trip_bitwise() {
        for x in [0.1f32, 1e-8, 3.4e38, -7.25, 1.0 / 3.0] {
            let s = to_string(&x).unwrap();
            assert_eq!(from_str::<f32>(&s).unwrap().to_bits(), x.to_bits(), "{s}");
        }
        for x in [0.1f64, 1e-300, 1.7e308, -7.25, 1.0 / 3.0, 2e-5] {
            let s = to_string(&x).unwrap();
            assert_eq!(from_str::<f64>(&s).unwrap().to_bits(), x.to_bits(), "{s}");
        }
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
    }

    #[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
    #[serde(transparent)]
    pub struct Id(pub u32);

    #[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
    enum Kind {
        Plain,
        Fancy,
    }

    #[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
    struct Record {
        pub id: Id,
        kind: Kind,
        rate: f32,
        note: Option<String>,
        pairs: Vec<(Id, f32)>,
        #[serde(default)]
        extra: Option<(u32, u64)>,
        pub(crate) nested: std::collections::BTreeMap<String, u64>,
    }

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    enum Alert {
        Quiet,
        Drop { who: Id, by: f64 },
        Code(u32),
        Pair(u32, bool),
    }

    #[test]
    fn derived_shapes_match_the_published_derives() {
        let rec = Record {
            id: Id(7),
            kind: Kind::Fancy,
            rate: 0.05,
            note: None,
            pairs: vec![(Id(1), 0.5)],
            extra: Some((3, 4)),
            nested: [("k".to_string(), 9)].into_iter().collect(),
        };
        let json = to_string(&rec).unwrap();
        assert_eq!(
            json,
            r#"{"id":7,"kind":"Fancy","rate":0.05,"note":null,"pairs":[[1,0.5]],"extra":[3,4],"nested":{"k":9}}"#
        );
        assert_eq!(from_str::<Record>(&json).unwrap(), rec);
        // Absent `Option` and `#[serde(default)]` fields fill in; an absent
        // required field is an error.
        let sparse = r#"{"id":7,"kind":"Plain","rate":1,"pairs":[],"nested":{}}"#;
        let back: Record = from_str(sparse).unwrap();
        assert_eq!(
            (back.note, back.extra, back.kind),
            (None, None, Kind::Plain)
        );
        assert!(from_str::<Record>(r#"{"id":7}"#).is_err());
        assert!(from_str::<Kind>(r#""Other""#).is_err());
    }

    #[test]
    fn derived_enums_are_externally_tagged() {
        for (alert, json) in [
            (Alert::Quiet, r#""Quiet""#),
            (
                Alert::Drop {
                    who: Id(2),
                    by: 0.25,
                },
                r#"{"Drop":{"who":2,"by":0.25}}"#,
            ),
            (Alert::Code(5), r#"{"Code":5}"#),
            (Alert::Pair(1, true), r#"{"Pair":[1,true]}"#),
        ] {
            assert_eq!(to_string(&alert).unwrap(), json);
            assert_eq!(from_str::<Alert>(json).unwrap(), alert);
        }
    }
}
