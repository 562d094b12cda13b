//! Vendored stand-in for the subset of the `serde` crate API used by this
//! workspace: the [`Serialize`] / [`Deserialize`] traits, their derive
//! macros (from the companion `serde_derive` crate), and the [`Value`]
//! tree that `serde_json` renders to text.
//!
//! Unlike the real serde, serialization here is not generic over a
//! `Serializer`: [`Serialize`] produces a [`Value`] tree directly, which is
//! the only data model this workspace ever serializes into.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use serde_derive::{Deserialize, Serialize};

use std::time::Duration;

/// A JSON-like value tree, the target of every serialization.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Unsigned integer number.
    U64(u64),
    /// Signed (negative) integer number.
    I64(i64),
    /// Floating-point number.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object, with field order preserved.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Returns the elements if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Returns the value as a `u64` if it is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::U64(v) => Some(v),
            Value::I64(v) => u64::try_from(v).ok(),
            _ => None,
        }
    }

    /// Returns the value as a string slice if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Looks up an object field by key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

const NULL: Value = Value::Null;

impl std::ops::Index<usize> for Value {
    type Output = Value;

    fn index(&self, index: usize) -> &Value {
        match self {
            Value::Array(a) => a.get(index).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;

    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

/// A type that can be rendered into a [`Value`] tree.
pub trait Serialize {
    /// Converts `self` into the serialization data model.
    fn to_value(&self) -> Value;
}

/// Marker trait emitted by `#[derive(Deserialize)]`.
///
/// The workspace only ever deserializes into [`Value`], so derived
/// implementations carry no behavior.
pub trait Deserialize {}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

macro_rules! serialize_unsigned {
    ($($t:ty),+) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(u64::try_from(*self).expect("unsigned fits u64"))
            }
        }
    )+};
}

serialize_unsigned!(u32, u64, usize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        if self.is_finite() {
            Value::F64(*self)
        } else {
            Value::Null
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Serialize for Duration {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("secs".to_string(), Value::U64(self.as_secs())),
            (
                "nanos".to_string(),
                Value::U64(u64::from(self.subsec_nanos())),
            ),
        ])
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_map_to_expected_variants() {
        assert_eq!(7u32.to_value(), Value::U64(7));
        assert_eq!(0.5f64.to_value(), Value::F64(0.5));
        assert_eq!(f64::NAN.to_value(), Value::Null);
        assert_eq!("x".to_string().to_value(), Value::Str("x".to_string()));
    }

    #[test]
    fn duration_serializes_like_upstream_serde() {
        let v = Duration::new(3, 500).to_value();
        assert_eq!(v["secs"].as_u64(), Some(3));
        assert_eq!(v["nanos"].as_u64(), Some(500));
    }

    #[test]
    fn value_accessors() {
        let v = Value::Array(vec![Value::Object(vec![(
            "k".to_string(),
            Value::Str("s".to_string()),
        )])]);
        assert_eq!(v.as_array().unwrap().len(), 1);
        assert_eq!(v[0]["k"].as_str(), Some("s"));
        assert_eq!(v[0]["missing"], Value::Null);
        assert_eq!(v[9], Value::Null);
    }
}
