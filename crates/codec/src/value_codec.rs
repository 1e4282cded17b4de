//! Tag–length–value encoding of [`Value`]s.
//!
//! Wire layout: one tag byte, then a tag-specific body.
//!
//! | tag | type | body |
//! |-----|------|------|
//! | 0 | unit | — |
//! | 1 | bool | 1 byte (0/1) |
//! | 2 | int  | zig-zag LEB128 |
//! | 3 | text | LEB128 length + UTF-8 bytes |
//! | 4 | id   | LEB128 |
//! | 5 | set  | LEB128 count + elements |
//! | 6 | list | LEB128 count + elements |

use std::collections::BTreeSet;

use svckit_model::Value;

use crate::error::CodecError;
use crate::varint::{read_varint, unzigzag, varint_len, write_varint, zigzag};

const TAG_UNIT: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_TEXT: u8 = 3;
const TAG_ID: u8 = 4;
const TAG_SET: u8 = 5;
const TAG_LIST: u8 = 6;

/// Appends the wire form of `value` to `out`.
pub fn encode_value(out: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Unit => out.push(TAG_UNIT),
        Value::Bool(b) => {
            out.push(TAG_BOOL);
            out.push(u8::from(*b));
        }
        Value::Int(i) => {
            out.push(TAG_INT);
            write_varint(out, zigzag(*i));
        }
        Value::Text(t) => {
            out.push(TAG_TEXT);
            write_varint(out, t.len() as u64);
            out.extend_from_slice(t.as_bytes());
        }
        Value::Id(id) => {
            out.push(TAG_ID);
            write_varint(out, *id);
        }
        Value::Set(items) => {
            out.push(TAG_SET);
            write_varint(out, items.len() as u64);
            for item in items {
                encode_value(out, item);
            }
        }
        Value::List(items) => {
            out.push(TAG_LIST);
            write_varint(out, items.len() as u64);
            for item in items {
                encode_value(out, item);
            }
        }
    }
}

/// Number of bytes [`encode_value`] would produce for `value`, computed
/// without encoding it.
pub fn encoded_len(value: &Value) -> usize {
    1 + match value {
        Value::Unit => 0,
        Value::Bool(_) => 1,
        Value::Int(i) => varint_len(zigzag(*i)),
        Value::Text(t) => varint_len(t.len() as u64) + t.len(),
        Value::Id(id) => varint_len(*id),
        Value::Set(items) => {
            varint_len(items.len() as u64) + items.iter().map(encoded_len).sum::<usize>()
        }
        Value::List(items) => {
            varint_len(items.len() as u64) + items.iter().map(encoded_len).sum::<usize>()
        }
    }
}

/// Maximum collection nesting depth [`decode_value`] accepts.
///
/// The decoder recurses per set/list level, so without a bound a short
/// crafted input (a run of list tags) would overflow the stack — an abort,
/// not a catchable error. Genuine payloads in this workspace nest a handful
/// of levels; 128 leaves generous headroom.
pub const MAX_NESTING_DEPTH: usize = 128;

/// Decodes one value from the front of `input`, returning it and the number
/// of bytes consumed.
///
/// # Errors
///
/// Returns a [`CodecError`] on truncated, corrupt or non-UTF-8 input, and
/// [`CodecError::NestingTooDeep`] when collections nest deeper than
/// [`MAX_NESTING_DEPTH`].
pub fn decode_value(input: &[u8]) -> Result<(Value, usize), CodecError> {
    decode_value_at(input, MAX_NESTING_DEPTH)
}

fn decode_value_at(input: &[u8], depth_left: usize) -> Result<(Value, usize), CodecError> {
    let (&tag, rest) = input.split_first().ok_or(CodecError::UnexpectedEof)?;
    match tag {
        TAG_UNIT => Ok((Value::Unit, 1)),
        TAG_BOOL => {
            let (&b, _) = rest.split_first().ok_or(CodecError::UnexpectedEof)?;
            Ok((Value::Bool(b != 0), 2))
        }
        TAG_INT => {
            let (raw, used) = read_varint(rest)?;
            Ok((Value::Int(unzigzag(raw)), 1 + used))
        }
        TAG_TEXT => {
            let (len, used) = read_varint(rest)?;
            let body = &rest[used..];
            if len as usize > body.len() {
                return Err(CodecError::LengthOutOfBounds {
                    declared: len,
                    remaining: body.len(),
                });
            }
            let text =
                std::str::from_utf8(&body[..len as usize]).map_err(|_| CodecError::InvalidUtf8)?;
            Ok((Value::Text(text.to_owned()), 1 + used + len as usize))
        }
        TAG_ID => {
            let (id, used) = read_varint(rest)?;
            Ok((Value::Id(id), 1 + used))
        }
        TAG_SET | TAG_LIST => {
            let depth_left = depth_left
                .checked_sub(1)
                .ok_or(CodecError::NestingTooDeep {
                    limit: MAX_NESTING_DEPTH,
                })?;
            let (count, used) = read_varint(rest)?;
            let mut offset = 1 + used;
            if count as usize > input.len() - offset {
                // Each element takes at least one byte; reject inflated
                // counts before allocating.
                return Err(CodecError::LengthOutOfBounds {
                    declared: count,
                    remaining: input.len() - offset,
                });
            }
            if tag == TAG_SET {
                let mut items = BTreeSet::new();
                for _ in 0..count {
                    let (item, used) = decode_value_at(&input[offset..], depth_left)?;
                    offset += used;
                    items.insert(item);
                }
                Ok((Value::Set(items), offset))
            } else {
                let mut items = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    let (item, used) = decode_value_at(&input[offset..], depth_left)?;
                    offset += used;
                    items.push(item);
                }
                Ok((Value::List(items), offset))
            }
        }
        other => Err(CodecError::InvalidTag { tag: other }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(value: Value) {
        let mut buf = Vec::new();
        encode_value(&mut buf, &value);
        let (back, used) = decode_value(&buf).unwrap();
        assert_eq!(back, value);
        assert_eq!(used, buf.len());
        assert_eq!(encoded_len(&value), buf.len());
    }

    #[test]
    fn roundtrip_scalars() {
        roundtrip(Value::Unit);
        roundtrip(Value::Bool(true));
        roundtrip(Value::Bool(false));
        roundtrip(Value::Int(0));
        roundtrip(Value::Int(-1));
        roundtrip(Value::Int(i64::MIN));
        roundtrip(Value::Int(i64::MAX));
        roundtrip(Value::Id(0));
        roundtrip(Value::Id(u64::MAX));
        roundtrip(Value::Text(String::new()));
        roundtrip(Value::Text("floor-control".to_owned()));
        roundtrip(Value::Text("ünïcødé ✓".to_owned()));
    }

    #[test]
    fn roundtrip_collections() {
        roundtrip(Value::id_set([1, 2, 3]));
        roundtrip(Value::Set(Default::default()));
        roundtrip(Value::List(vec![
            Value::Id(1),
            Value::Text("x".into()),
            Value::List(vec![Value::Bool(true)]),
        ]));
    }

    #[test]
    fn id_encoding_is_compact() {
        assert_eq!(encoded_len(&Value::Id(5)), 2); // tag + 1 varint byte
        assert_eq!(encoded_len(&Value::Unit), 1);
    }

    #[test]
    fn truncated_input_errors() {
        let mut buf = Vec::new();
        encode_value(&mut buf, &Value::Text("hello".into()));
        for cut in 0..buf.len() {
            assert!(decode_value(&buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn invalid_tag_is_rejected() {
        assert_eq!(
            decode_value(&[0x7f]),
            Err(CodecError::InvalidTag { tag: 0x7f })
        );
    }

    #[test]
    fn inflated_collection_count_is_rejected_without_allocation() {
        // set with declared count u64::MAX but no elements
        let mut buf = vec![TAG_SET];
        crate::varint::write_varint(&mut buf, u64::MAX);
        assert!(matches!(
            decode_value(&buf),
            Err(CodecError::LengthOutOfBounds { .. })
        ));
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let buf = vec![TAG_TEXT, 2, 0xff, 0xfe];
        assert_eq!(decode_value(&buf), Err(CodecError::InvalidUtf8));
    }

    #[test]
    fn deeply_nested_values_roundtrip() {
        let mut value = Value::Id(1);
        for _ in 0..64 {
            value = Value::List(vec![value]);
        }
        roundtrip(value);
    }

    #[test]
    fn nesting_at_the_limit_roundtrips_and_one_past_it_errors() {
        let mut value = Value::Id(1);
        for _ in 0..MAX_NESTING_DEPTH {
            value = Value::List(vec![value]);
        }
        roundtrip(value.clone());
        let mut buf = Vec::new();
        encode_value(&mut buf, &Value::List(vec![value]));
        assert_eq!(
            decode_value(&buf),
            Err(CodecError::NestingTooDeep {
                limit: MAX_NESTING_DEPTH
            })
        );
    }

    #[test]
    fn pathological_nesting_is_a_typed_error_not_a_stack_overflow() {
        // 100 000 nested single-element lists: 2 bytes per level. Before the
        // depth limit this crashed the process (unbounded recursion).
        let mut buf = Vec::with_capacity(200_001);
        for _ in 0..100_000 {
            buf.push(TAG_LIST);
            buf.push(1);
        }
        buf.push(TAG_UNIT);
        assert_eq!(
            decode_value(&buf),
            Err(CodecError::NestingTooDeep {
                limit: MAX_NESTING_DEPTH
            })
        );
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_decoder() {
        // Deterministic xorshift stream; every decode must return, never
        // panic or abort.
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for len in 0..64 {
            for _ in 0..200 {
                let bytes: Vec<u8> = (0..len).map(|_| (next() & 0xff) as u8).collect();
                let _ = decode_value(&bytes);
            }
        }
        // Single-byte inputs, exhaustively.
        for b in 0..=255u8 {
            let _ = decode_value(&[b]);
        }
    }

    #[test]
    fn set_decoding_deduplicates() {
        // Encode a list-shaped set body with a duplicate by hand.
        let mut buf = vec![TAG_SET, 2];
        encode_value(&mut buf, &Value::Id(1));
        encode_value(&mut buf, &Value::Id(1));
        let (value, _) = decode_value(&buf).unwrap();
        assert_eq!(value, Value::id_set([1]));
    }
}
