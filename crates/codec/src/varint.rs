//! LEB128 variable-length integers.

use crate::error::CodecError;

/// Appends `value` to `out` in unsigned LEB128 form (1–10 bytes).
pub fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Number of bytes [`write_varint`] emits for `value`.
pub(crate) fn varint_len(value: u64) -> usize {
    // One byte per started group of 7 significant bits; zero takes one.
    (64 - (value | 1).leading_zeros() as usize).div_ceil(7)
}

/// Reads an unsigned LEB128 integer from the front of `input`, returning the
/// value and the number of bytes consumed.
///
/// # Errors
///
/// Returns [`CodecError::UnexpectedEof`] on truncated input and
/// [`CodecError::VarintOverflow`] when the encoding exceeds 64 bits.
pub fn read_varint(input: &[u8]) -> Result<(u64, usize), CodecError> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    for (i, &byte) in input.iter().enumerate() {
        if shift >= 64 || (shift == 63 && (byte & 0x7f) > 1) {
            return Err(CodecError::VarintOverflow);
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok((value, i + 1));
        }
        shift += 7;
    }
    Err(CodecError::UnexpectedEof)
}

/// Zig-zag encodes a signed integer so that small magnitudes stay small.
pub fn zigzag(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_varint_edge_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            1 << 63,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let (back, used) = read_varint(&buf).unwrap();
            assert_eq!(back, v);
            assert_eq!(used, buf.len());
            assert_eq!(varint_len(v), buf.len(), "{v}");
        }
    }

    #[test]
    fn small_values_are_one_byte() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 42);
        assert_eq!(buf, vec![42]);
    }

    #[test]
    fn truncated_varint_is_eof() {
        assert_eq!(read_varint(&[0x80]), Err(CodecError::UnexpectedEof));
        assert_eq!(read_varint(&[]), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn overlong_varint_overflows() {
        let buf = [0xff; 11];
        assert_eq!(read_varint(&buf), Err(CodecError::VarintOverflow));
    }

    #[test]
    fn reader_is_total_over_short_inputs() {
        // Panic-audit evidence: `read_varint` is exercised over every 1- and
        // 2-byte input and a spread of longer ones; it must always return.
        for a in 0..=255u8 {
            let _ = read_varint(&[a]);
            for b in 0..=255u8 {
                let _ = read_varint(&[a, b]);
            }
        }
        for len in 3..=12usize {
            let _ = read_varint(&vec![0xffu8; len]);
            let _ = read_varint(&vec![0x80u8; len]);
        }
    }

    #[test]
    fn zigzag_roundtrips_extremes() {
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -123456, 123456] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }
}
