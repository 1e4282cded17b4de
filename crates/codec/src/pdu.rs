//! Schema-checked protocol data units.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use svckit_model::{ParamSpec, Value, ValueType};

use crate::error::CodecError;
use crate::value_codec::{decode_value, encode_value, encoded_len};

/// Schema of one PDU type: a numeric wire id, a name, and typed fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PduSchema {
    id: u8,
    /// Shared with every [`Pdu`] decoded under this schema, so decoding
    /// does not copy the name.
    name: Arc<str>,
    fields: Vec<ParamSpec>,
}

impl PduSchema {
    /// Creates a schema with no fields.
    pub fn new(id: u8, name: impl Into<String>) -> Self {
        PduSchema {
            id,
            name: Arc::from(name.into()),
            fields: Vec::new(),
        }
    }

    /// Adds a typed field (builder-style).
    #[must_use]
    pub fn field(mut self, name: impl Into<String>, ty: ValueType) -> Self {
        self.fields.push(ParamSpec::new(name, ty));
        self
    }

    /// The wire id.
    pub fn id(&self) -> u8 {
        self.id
    }

    /// The PDU name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The field schemas, positionally.
    pub fn fields(&self) -> &[ParamSpec] {
        &self.fields
    }
}

impl fmt::Display for PduSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pdu {} [{}](", self.name, self.id)?;
        for (i, p) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, ")")
    }
}

/// A decoded PDU: its schema name and argument values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pdu {
    name: Arc<str>,
    args: Vec<Value>,
}

impl Pdu {
    /// The schema name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The decoded arguments, positionally.
    pub fn args(&self) -> &[Value] {
        &self.args
    }

    /// The argument at `index`, as a typed error instead of an indexing
    /// panic when the position does not exist.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::MissingArgument`] when `index` is out of range.
    pub fn arg(&self, index: usize) -> Result<&Value, CodecError> {
        self.args.get(index).ok_or(CodecError::MissingArgument {
            pdu: self.name.to_string(),
            index,
            len: self.args.len(),
        })
    }

    /// Consumes the PDU, returning its arguments.
    pub fn into_args(self) -> Vec<Value> {
        self.args
    }

    /// Consumes the PDU, returning its schema name (shared with the
    /// registry, not copied) and its arguments.
    pub fn into_parts(self) -> (Arc<str>, Vec<Value>) {
        (self.name, self.args)
    }
}

impl fmt::Display for Pdu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")
    }
}

/// A registry of PDU schemas shared by the communicating protocol entities —
/// the "unambiguous understanding" both ends agree on.
#[derive(Debug, Clone, Default)]
pub struct PduRegistry {
    by_id: BTreeMap<u8, PduSchema>,
    by_name: BTreeMap<String, u8>,
}

impl PduRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        PduRegistry::default()
    }

    /// Registers a schema.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::DuplicateSchema`] when the id or name is taken.
    pub fn register(&mut self, schema: PduSchema) -> Result<(), CodecError> {
        if self.by_id.contains_key(&schema.id()) {
            return Err(CodecError::DuplicateSchema {
                what: format!("id {}", schema.id()),
            });
        }
        if self.by_name.contains_key(schema.name()) {
            return Err(CodecError::DuplicateSchema {
                what: format!("name `{}`", schema.name()),
            });
        }
        self.by_name.insert(schema.name().to_owned(), schema.id());
        self.by_id.insert(schema.id(), schema);
        Ok(())
    }

    /// Looks up a schema by name.
    pub fn schema(&self, name: &str) -> Option<&PduSchema> {
        self.by_name.get(name).and_then(|id| self.by_id.get(id))
    }

    /// Iterates over the registered schemas in id order.
    pub fn schemas(&self) -> impl Iterator<Item = &PduSchema> {
        self.by_id.values()
    }

    /// Number of registered schemas.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// Encodes a PDU by name, validating the arguments against the schema.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnknownPduName`] for unregistered names and
    /// [`CodecError::SchemaMismatch`] when arguments do not fit the schema.
    pub fn encode(&self, name: &str, args: &[Value]) -> Result<Vec<u8>, CodecError> {
        let schema = self
            .schema(name)
            .ok_or_else(|| CodecError::UnknownPduName {
                name: name.to_owned(),
            })?;
        if args.len() != schema.fields().len() {
            return Err(CodecError::SchemaMismatch {
                pdu: name.to_owned(),
                detail: format!(
                    "expected {} field(s), got {}",
                    schema.fields().len(),
                    args.len()
                ),
            });
        }
        for (field, value) in schema.fields().iter().zip(args) {
            if !field.ty().admits(value) {
                return Err(CodecError::SchemaMismatch {
                    pdu: name.to_owned(),
                    detail: format!(
                        "field `{}` expects {}, got {}",
                        field.name(),
                        field.ty(),
                        value.type_name()
                    ),
                });
            }
        }
        // Sized once: the marshalled frame never regrows while encoding.
        let mut out = Vec::with_capacity(1 + args.iter().map(encoded_len).sum::<usize>());
        out.push(schema.id());
        for value in args {
            encode_value(&mut out, value);
        }
        Ok(out)
    }

    /// Decodes a PDU, validating field count, types and the absence of
    /// trailing bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnknownPduId`], a value-level decode error, or
    /// [`CodecError::TrailingBytes`] / [`CodecError::SchemaMismatch`] on
    /// malformed input.
    pub fn decode(&self, bytes: &[u8]) -> Result<Pdu, CodecError> {
        let (&id, mut rest) = bytes.split_first().ok_or(CodecError::UnexpectedEof)?;
        let schema = self.by_id.get(&id).ok_or(CodecError::UnknownPduId { id })?;
        let mut args = Vec::with_capacity(schema.fields().len());
        for field in schema.fields() {
            let (value, used) = decode_value(rest)?;
            if !field.ty().admits(&value) {
                return Err(CodecError::SchemaMismatch {
                    pdu: schema.name().to_owned(),
                    detail: format!(
                        "field `{}` expects {}, got {}",
                        field.name(),
                        field.ty(),
                        value.type_name()
                    ),
                });
            }
            args.push(value);
            // `decode_value` reports the bytes it consumed; guard the slice
            // anyway so a future decoder bug surfaces as a typed error, not
            // an out-of-bounds panic on hostile input.
            rest = rest.get(used..).ok_or(CodecError::UnexpectedEof)?;
        }
        if !rest.is_empty() {
            return Err(CodecError::TrailingBytes {
                remaining: rest.len(),
            });
        }
        Ok(Pdu {
            name: Arc::clone(&schema.name),
            args,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn floor_registry() -> PduRegistry {
        let mut r = PduRegistry::new();
        r.register(
            PduSchema::new(1, "request")
                .field("subid", ValueType::Id)
                .field("resid", ValueType::Id),
        )
        .unwrap();
        r.register(PduSchema::new(2, "granted").field("resid", ValueType::Id))
            .unwrap();
        r.register(PduSchema::new(3, "free").field("resid", ValueType::Id))
            .unwrap();
        r.register(
            PduSchema::new(4, "pass").field("available", ValueType::Set(Box::new(ValueType::Id))),
        )
        .unwrap();
        r
    }

    #[test]
    fn roundtrip_all_floor_pdus() {
        let r = floor_registry();
        let cases: Vec<(&str, Vec<Value>)> = vec![
            ("request", vec![Value::Id(4), Value::Id(7)]),
            ("granted", vec![Value::Id(7)]),
            ("free", vec![Value::Id(7)]),
            ("pass", vec![Value::id_set([1, 2, 3])]),
        ];
        for (name, args) in cases {
            let bytes = r.encode(name, &args).unwrap();
            let pdu = r.decode(&bytes).unwrap();
            assert_eq!(pdu.name(), name);
            assert_eq!(pdu.args(), &args[..]);
            assert_eq!(pdu.clone().into_args(), args);
        }
    }

    #[test]
    fn duplicate_registration_rejected() {
        let mut r = floor_registry();
        assert!(matches!(
            r.register(PduSchema::new(1, "other")),
            Err(CodecError::DuplicateSchema { .. })
        ));
        assert!(matches!(
            r.register(PduSchema::new(9, "request")),
            Err(CodecError::DuplicateSchema { .. })
        ));
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn encode_validates_arity_and_types() {
        let r = floor_registry();
        assert!(matches!(
            r.encode("granted", &[]),
            Err(CodecError::SchemaMismatch { .. })
        ));
        assert!(matches!(
            r.encode("granted", &[Value::Bool(true)]),
            Err(CodecError::SchemaMismatch { .. })
        ));
        assert!(matches!(
            r.encode("nope", &[]),
            Err(CodecError::UnknownPduName { .. })
        ));
    }

    #[test]
    fn decode_rejects_unknown_id_and_trailing_bytes() {
        let r = floor_registry();
        assert_eq!(r.decode(&[200]), Err(CodecError::UnknownPduId { id: 200 }));
        let mut bytes = r.encode("granted", &[Value::Id(7)]).unwrap();
        bytes.push(0);
        assert!(matches!(
            r.decode(&bytes),
            Err(CodecError::TrailingBytes { remaining: 1 })
        ));
        assert_eq!(r.decode(&[]), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn decode_rejects_type_confusion() {
        let r = floor_registry();
        // Hand-craft a `granted` whose field is a bool instead of an id.
        let mut bytes = vec![2u8];
        crate::value_codec::encode_value(&mut bytes, &Value::Bool(true));
        assert!(matches!(
            r.decode(&bytes),
            Err(CodecError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn wire_size_is_small() {
        let r = floor_registry();
        let bytes = r.encode("granted", &[Value::Id(7)]).unwrap();
        assert_eq!(bytes.len(), 3); // id + tag + varint
    }

    #[test]
    fn display_formats() {
        let r = floor_registry();
        let schema = r.schema("request").unwrap();
        assert_eq!(schema.to_string(), "pdu request [1](subid: id, resid: id)");
        let pdu = r
            .decode(&r.encode("request", &[Value::Id(1), Value::Id(2)]).unwrap())
            .unwrap();
        assert_eq!(pdu.to_string(), "request(#1, #2)");
    }

    #[test]
    fn positional_arg_access_is_typed() {
        let r = floor_registry();
        let pdu = r
            .decode(&r.encode("granted", &[Value::Id(7)]).unwrap())
            .unwrap();
        assert_eq!(pdu.arg(0), Ok(&Value::Id(7)));
        assert_eq!(
            pdu.arg(1),
            Err(CodecError::MissingArgument {
                pdu: "granted".into(),
                index: 1,
                len: 1,
            })
        );
    }

    #[test]
    fn every_truncation_and_corruption_of_valid_pdus_is_a_typed_error() {
        let r = floor_registry();
        let encodings = [
            r.encode("request", &[Value::Id(4), Value::Id(7)]).unwrap(),
            r.encode("pass", &[Value::id_set([1, 2, 3])]).unwrap(),
        ];
        for bytes in &encodings {
            for cut in 0..bytes.len() {
                assert!(r.decode(&bytes[..cut]).is_err(), "cut at {cut}");
            }
            for i in 0..bytes.len() {
                for flip in [0x01u8, 0x80] {
                    let mut mutated = bytes.clone();
                    mutated[i] ^= flip;
                    // Either still decodes or fails with a typed error;
                    // must never panic.
                    let _ = r.decode(&mutated);
                }
            }
        }
    }

    #[test]
    fn empty_registry_reports_empty() {
        let r = PduRegistry::new();
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
    }
}
