//! A fast, deterministic hasher for hot-path maps keyed by small integers.
//!
//! The simulator's event core does a few hash-map lookups per simulated
//! message (the destination's slot, per-pair arrival clamps, timer
//! generations), and the verifiers probe their memo tables (LDD unique
//! and operation caches, symmetry fragment ids) once or more per state.
//! The standard library's SipHash is DoS-resistant but costs tens of
//! nanoseconds per `(u64, u64)` key — more than the rest of either path.
//! Keys here are node, timer and table ids chosen by trusted harnesses, so
//! collision attacks are not part of the threat model and the
//! Firefox/rustc "Fx" multiply-rotate hash is the right trade: 2-3 ns per
//! key, fully deterministic.
//!
//! Hash-map *iteration* order still depends on the hasher, so no
//! observable output may iterate a [`FastMap`]; everything reported
//! (metrics, traces, diagnostics) goes through `BTreeMap`s or sorted
//! vectors.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier from the Fx family (also used by rustc): a single odd
/// constant with well-mixed bits.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-rotate hasher for small integer keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// A `HashMap` using [`FxHasher`]; drop-in for the simulator's internal
/// integer-keyed maps.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_keys_hash_equal_and_lookups_work() {
        let mut map: FastMap<(u64, u64), u32> = FastMap::default();
        map.insert((1, 2), 10);
        map.insert((2, 1), 20);
        assert_eq!(map.get(&(1, 2)), Some(&10));
        assert_eq!(map.get(&(2, 1)), Some(&20));
        assert_eq!(map.get(&(3, 3)), None);
    }

    #[test]
    fn hashing_is_deterministic_across_instances() {
        let hash = |word: u64| {
            let mut h = FxHasher::default();
            h.write_u64(word);
            h.finish()
        };
        assert_eq!(hash(42), hash(42));
        assert_ne!(hash(42), hash(43));
    }

    #[test]
    fn byte_slices_hash_like_their_words() {
        let mut a = FxHasher::default();
        a.write(&7u64.to_le_bytes());
        let mut b = FxHasher::default();
        b.write_u64(7);
        assert_eq!(a.finish(), b.finish());
    }
}
