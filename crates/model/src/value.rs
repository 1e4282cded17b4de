//! Application-level information values.
//!
//! The paper observes that middleware infrastructures "provide facilities to
//! define application-level information attributes and to exchange values of
//! these attributes" (Section 4.1). [`Value`] is the common data universe used
//! by service primitives, PDUs and middleware operations, so that the two
//! paradigms exchange the *same* information and traces can be compared.

use std::collections::BTreeSet;
use std::fmt;

use crate::error::ModelError;

/// A dynamically-typed application-level value.
///
/// The variants cover exactly what the running example and the platform
/// models need: identifiers (`ResourceId`/`SubscriberId` travel as
/// [`Value::Id`]), booleans (the polling solution's `is_available` result),
/// sets (the token solution's `pass(set<ResourceId>)`), plus the basics.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Value {
    /// The unit value (an operation with no result).
    #[default]
    Unit,
    /// A boolean.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// A text string.
    Text(String),
    /// An opaque identifier (resource ids, subscriber ids, part ids).
    Id(u64),
    /// An ordered set of values.
    Set(BTreeSet<Value>),
    /// A sequence of values.
    List(Vec<Value>),
}

impl Value {
    /// Returns the boolean payload, if this value is a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the integer payload, if this value is a [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the identifier payload, if this value is a [`Value::Id`].
    pub fn as_id(&self) -> Option<u64> {
        match self {
            Value::Id(id) => Some(*id),
            _ => None,
        }
    }

    /// Returns the text payload, if this value is a [`Value::Text`].
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(t) => Some(t),
            _ => None,
        }
    }

    /// Moves the text payload out, if this value is a [`Value::Text`].
    pub fn into_text(self) -> Option<String> {
        match self {
            Value::Text(t) => Some(t),
            _ => None,
        }
    }

    /// Returns the set payload, if this value is a [`Value::Set`].
    pub fn as_set(&self) -> Option<&BTreeSet<Value>> {
        match self {
            Value::Set(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the list payload, if this value is a [`Value::List`].
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(l) => Some(l),
            _ => None,
        }
    }

    /// Like [`Value::as_bool`], but a typed error instead of `None` —
    /// for call sites that would otherwise `unwrap()` on malformed input.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ValueKindMismatch`] for any other variant.
    pub fn try_bool(&self) -> Result<bool, ModelError> {
        self.as_bool().ok_or(ModelError::ValueKindMismatch {
            expected: "bool",
            actual: self.type_name(),
        })
    }

    /// Like [`Value::as_int`], but a typed error instead of `None`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ValueKindMismatch`] for any other variant.
    pub fn try_int(&self) -> Result<i64, ModelError> {
        self.as_int().ok_or(ModelError::ValueKindMismatch {
            expected: "int",
            actual: self.type_name(),
        })
    }

    /// Like [`Value::as_id`], but a typed error instead of `None`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ValueKindMismatch`] for any other variant.
    pub fn try_id(&self) -> Result<u64, ModelError> {
        self.as_id().ok_or(ModelError::ValueKindMismatch {
            expected: "id",
            actual: self.type_name(),
        })
    }

    /// Like [`Value::as_text`], but a typed error instead of `None`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ValueKindMismatch`] for any other variant.
    pub fn try_text(&self) -> Result<&str, ModelError> {
        self.as_text().ok_or(ModelError::ValueKindMismatch {
            expected: "text",
            actual: self.type_name(),
        })
    }

    /// Like [`Value::as_set`], but a typed error instead of `None`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ValueKindMismatch`] for any other variant.
    pub fn try_set(&self) -> Result<&BTreeSet<Value>, ModelError> {
        self.as_set().ok_or(ModelError::ValueKindMismatch {
            expected: "set",
            actual: self.type_name(),
        })
    }

    /// Like [`Value::as_list`], but a typed error instead of `None`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ValueKindMismatch`] for any other variant.
    pub fn try_list(&self) -> Result<&[Value], ModelError> {
        self.as_list().ok_or(ModelError::ValueKindMismatch {
            expected: "list",
            actual: self.type_name(),
        })
    }

    /// Builds a [`Value::Set`] of identifiers, the shape carried by the
    /// token-based solution's `pass` operation.
    pub fn id_set<I: IntoIterator<Item = u64>>(ids: I) -> Value {
        Value::Set(ids.into_iter().map(Value::Id).collect())
    }

    /// Name of the variant, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Unit => "unit",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Text(_) => "text",
            Value::Id(_) => "id",
            Value::Set(_) => "set",
            Value::List(_) => "list",
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "()"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Text(t) => write!(f, "{t:?}"),
            Value::Id(id) => write!(f, "#{id}"),
            Value::Set(s) => {
                write!(f, "{{")?;
                for (i, v) in s.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}")
            }
            Value::List(l) => {
                write!(f, "[")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}

impl From<crate::ResourceId> for Value {
    fn from(id: crate::ResourceId) -> Self {
        Value::Id(id.raw())
    }
}

impl From<crate::SubscriberId> for Value {
    fn from(id: crate::SubscriberId) -> Self {
        Value::Id(id.raw())
    }
}

impl From<crate::PartId> for Value {
    fn from(id: crate::PartId) -> Self {
        Value::Id(id.raw())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_return_payloads() {
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Int(-3).as_int(), Some(-3));
        assert_eq!(Value::Id(9).as_id(), Some(9));
        assert_eq!(Value::from("hi").as_text(), Some("hi"));
        assert!(Value::Unit.as_bool().is_none());
        assert!(Value::Bool(true).as_id().is_none());
    }

    #[test]
    fn typed_accessors_carry_both_variant_names() {
        assert_eq!(Value::Id(9).try_id(), Ok(9));
        assert_eq!(Value::Bool(true).try_bool(), Ok(true));
        assert_eq!(Value::Int(-2).try_int(), Ok(-2));
        assert_eq!(Value::from("hi").try_text(), Ok("hi"));
        assert_eq!(
            Value::id_set([1]).try_set(),
            Ok(Value::id_set([1]).as_set().unwrap())
        );
        let err = Value::Bool(true).try_id().unwrap_err();
        assert_eq!(
            err,
            ModelError::ValueKindMismatch {
                expected: "id",
                actual: "bool",
            }
        );
        assert_eq!(
            err.to_string(),
            "value kind mismatch: expected id, got bool"
        );
        assert!(Value::Unit.try_list().is_err());
    }

    #[test]
    fn id_set_collects_sorted_unique() {
        let v = Value::id_set([3, 1, 3, 2]);
        let s = v.as_set().unwrap();
        let ids: Vec<u64> = s.iter().filter_map(Value::as_id).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Value::Unit.to_string(), "()");
        assert_eq!(Value::Id(4).to_string(), "#4");
        assert_eq!(Value::id_set([2, 1]).to_string(), "{#1, #2}");
        assert_eq!(
            Value::List(vec![Value::Int(1), Value::Bool(false)]).to_string(),
            "[1, false]"
        );
    }

    #[test]
    fn conversion_from_domain_ids() {
        let v: Value = crate::ResourceId::new(5).into();
        assert_eq!(v, Value::Id(5));
    }

    #[test]
    fn values_are_ordered_for_set_membership() {
        let mut set = BTreeSet::new();
        set.insert(Value::Id(2));
        set.insert(Value::Id(1));
        assert!(set.contains(&Value::Id(1)));
        assert_eq!(set.len(), 2);
    }
}
