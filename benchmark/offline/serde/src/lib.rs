//! Offline stand-in for `serde` 1.x — see `../README.md`.
//!
//! The published crate is a visitor framework; the repository only ever
//! derives `Serialize`/`Deserialize` and round-trips through `serde_json`,
//! so this stand-in uses the simplest model that supports that: a type
//! converts to and from a [`Value`] tree, and `serde_json` renders and
//! parses the tree. The JSON shapes match the published derives (structs
//! as objects, newtypes transparent, unit variants as strings, data
//! variants externally tagged), so blobs stay readable by the real crates.

use std::collections::BTreeMap;
use std::fmt;

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// A JSON-shaped value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null` (also how non-finite floats are written).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A double.
    F64(f64),
    /// A single-precision float, kept apart so it prints its own shortest
    /// round-trip decimal rather than the widened double's.
    F32(f32),
    /// A string.
    Str(String),
    /// An array.
    Seq(Vec<Value>),
    /// An object; insertion order is field order.
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Looks a key up in an object.
    pub fn field(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// A conversion error (wrong shape or out-of-range number).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(pub String);

impl Error {
    /// An error carrying `msg`.
    pub fn msg(msg: impl Into<String>) -> Self {
        Error(msg.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// A type that converts into a [`Value`].
pub trait Serialize {
    /// The value tree for `self`.
    fn to_value(&self) -> Value;
}

/// A type that converts back from a [`Value`].
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a value tree.
    fn from_value(v: &Value) -> Result<Self, Error>;

    /// What an absent object field becomes (`None` for `Option`, an error
    /// for everything else — the published derive's rule).
    fn from_missing(field: &str) -> Result<Self, Error> {
        Err(Error(format!("missing field `{field}`")))
    }
}

/// Derive support: reads field `name` of object `v`.
pub fn field<T: Deserialize>(v: &Value, name: &str) -> Result<T, Error> {
    match v.field(name) {
        Some(f) => T::from_value(f).map_err(|e| Error(format!("{name}: {e}"))),
        None => T::from_missing(name),
    }
}

/// Derive support: reads field `name`, or `T::default()` when absent
/// (`#[serde(default)]`).
pub fn field_or_default<T: Deserialize + Default>(v: &Value, name: &str) -> Result<T, Error> {
    match v.field(name) {
        Some(f) => T::from_value(f).map_err(|e| Error(format!("{name}: {e}"))),
        None => Ok(T::default()),
    }
}

macro_rules! unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::U64(n) => <$t>::try_from(*n)
                        .map_err(|_| Error(format!("{n} out of range"))),
                    other => Err(Error(format!("expected unsigned integer, got {other:?}"))),
                }
            }
        }
    )*};
}
unsigned!(u8, u16, u32, u64, usize);

macro_rules! signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                if *self >= 0 { Value::U64(*self as u64) } else { Value::I64(*self as i64) }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::U64(n) => <$t>::try_from(*n)
                        .map_err(|_| Error(format!("{n} out of range"))),
                    Value::I64(n) => <$t>::try_from(*n)
                        .map_err(|_| Error(format!("{n} out of range"))),
                    other => Err(Error(format!("expected integer, got {other:?}"))),
                }
            }
        }
    )*};
}
signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::F64(x) => Ok(*x),
            Value::F32(x) => Ok(f64::from(*x)),
            Value::U64(n) => Ok(*n as f64),
            Value::I64(n) => Ok(*n as f64),
            other => Err(Error(format!("expected number, got {other:?}"))),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F32(*self)
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::F32(x) => Ok(*x),
            // A decimal parsed as f64 and narrowed rounds to the f32 that
            // printed it, because f32's shortest form is within half an ulp.
            Value::F64(x) => Ok(*x as f32),
            Value::U64(n) => Ok(*n as f32),
            Value::I64(n) => Ok(*n as f32),
            other => Err(Error(format!("expected number, got {other:?}"))),
        }
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(Error(format!("expected bool, got {other:?}"))),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error(format!("expected string, got {other:?}"))),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
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

    fn from_missing(_: &str) -> Result<Self, Error> {
        Ok(None)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Seq(items) => items.iter().map(T::from_value).collect(),
            other => Err(Error(format!("expected array, got {other:?}"))),
        }
    }
}

macro_rules! tuples {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$n.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                const LEN: usize = [$($n),+].len();
                match v {
                    Value::Seq(items) if items.len() == LEN => {
                        Ok(($($t::from_value(&items[$n])?,)+))
                    }
                    other => Err(Error(format!("expected {LEN}-tuple, got {other:?}"))),
                }
            }
        }
    )*};
}
tuples! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Map(m) => m
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
                .collect(),
            other => Err(Error(format!("expected object, got {other:?}"))),
        }
    }
}
