//! The explicit searches' state store: fixed-width product keys interned
//! into dense ids.
//!
//! Every search over product keys (`to_lts`, `verify_lts`, `explore`)
//! needs the same two things: "have I seen this key, and under which id?"
//! and "give me the key behind this id". A `Vec<Vec<u32>>` pool plus a
//! `HashMap<Vec<u32>, u32>` answers both but stores every key twice, in
//! two separate heap allocations per state. [`StateStore`] keeps each key
//! once, in one flat arena (`id × width` words), behind an open-addressed
//! index of ids that compares candidates against arena slices.
//!
//! Keys hash with the Fx multiply-rotate step over 64-bit word pairs plus a
//! final avalanche: Fx alone leaves the low bits — the ones that pick a
//! bucket — weakly mixed on keys that differ in a few small words.

use std::hash::Hasher;

use svckit_model::hash::FxHasher;

/// Index slot marking an empty bucket (ids are stored as `id + 1`).
const EMPTY: u64 = 0;

/// Fixed-width `u32` keys, interned to ids dense from 0 in insertion
/// order.
#[derive(Debug)]
pub(super) struct StateStore {
    width: usize,
    /// Key `i` lives at `arena[i * width..(i + 1) * width]`.
    arena: Vec<u32>,
    len: usize,
    /// Open-addressed, linearly probed; a power-of-two length at most
    /// half full. Each occupied bucket packs the key's hash tag (upper 32
    /// bits) with `id + 1` (lower 32 bits), so most probes that miss are
    /// rejected without touching the arena.
    index: Vec<u64>,
}

impl StateStore {
    /// An empty store for keys of `width` words.
    pub(super) fn new(width: usize) -> StateStore {
        StateStore {
            width,
            arena: Vec::new(),
            len: 0,
            index: vec![EMPTY; 16],
        }
    }

    /// Number of interned keys.
    pub(super) fn len(&self) -> usize {
        self.len
    }

    /// The key behind `id`.
    pub(super) fn get(&self, id: u32) -> &[u32] {
        let start = id as usize * self.width;
        &self.arena[start..start + self.width]
    }

    /// The id of `key`, if interned.
    pub(super) fn find(&self, key: &[u32]) -> Option<u32> {
        debug_assert_eq!(key.len(), self.width, "keys have the store's width");
        let hash = hash_words(key);
        let mask = self.index.len() - 1;
        let mut bucket = hash as usize & mask;
        loop {
            match self.index[bucket] {
                EMPTY => return None,
                entry => {
                    if entry >> 32 == hash >> 32 {
                        let id = (entry as u32) - 1;
                        if self.get(id) == key {
                            return Some(id);
                        }
                    }
                }
            }
            bucket = (bucket + 1) & mask;
        }
    }

    /// Interns `key`, which must not be interned yet, and returns its id.
    pub(super) fn insert(&mut self, key: &[u32]) -> u32 {
        debug_assert!(self.find(key).is_none(), "insert takes fresh keys");
        let id = u32::try_from(self.len).expect("fewer than 2^32 - 1 states");
        assert!(id < u32::MAX, "fewer than 2^32 - 1 states");
        self.arena.extend_from_slice(key);
        self.len += 1;
        if self.len * 2 > self.index.len() {
            self.grow();
        }
        self.place(hash_words(key), id);
        id
    }

    /// The id of `key`, interning it first when new.
    pub(super) fn intern(&mut self, key: &[u32]) -> u32 {
        match self.find(key) {
            Some(id) => id,
            None => self.insert(key),
        }
    }

    /// Writes `id` into the first empty bucket of its probe sequence.
    fn place(&mut self, hash: u64, id: u32) {
        let mask = self.index.len() - 1;
        let mut bucket = hash as usize & mask;
        while self.index[bucket] != EMPTY {
            bucket = (bucket + 1) & mask;
        }
        self.index[bucket] = (hash >> 32) << 32 | u64::from(id + 1);
    }

    /// Doubles the index and re-places every interned key but the newest
    /// (which the caller places).
    fn grow(&mut self) {
        self.index = vec![EMPTY; self.index.len() * 2];
        for id in 0..self.len as u32 - 1 {
            let hash = hash_words(self.get(id));
            self.place(hash, id);
        }
    }
}

/// Fx over 64-bit word pairs, then the murmur3 64-bit finalizer so every
/// input bit reaches the low (bucket) and high (tag) bits alike.
fn hash_words(key: &[u32]) -> u64 {
    let mut h = FxHasher::default();
    let mut pairs = key.chunks_exact(2);
    for pair in &mut pairs {
        h.write_u64(u64::from(pair[0]) | u64::from(pair[1]) << 32);
    }
    if let [last] = pairs.remainder() {
        h.write_u32(*last);
    }
    let mut x = h.finish();
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ x >> 33
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_in_insertion_order() {
        let mut store = StateStore::new(3);
        for i in 0..100u32 {
            assert_eq!(store.intern(&[i, i * 7, 1]), i);
            assert_eq!(store.len(), i as usize + 1);
        }
        assert_eq!(store.get(42), &[42, 294, 1]);
    }

    #[test]
    fn the_same_key_keeps_its_id_across_growth() {
        let mut store = StateStore::new(2);
        let first = store.insert(&[9, 9]);
        // Push the index through several doublings.
        for i in 0..10_000u32 {
            store.intern(&[i, i ^ 0x5555]);
        }
        assert_eq!(store.find(&[9, 9]), Some(first));
        let len = store.len();
        assert_eq!(store.intern(&[9, 9]), first);
        assert_eq!(store.len(), len, "a known key is not stored again");
        for i in 0..10_000u32 {
            let id = store.find(&[i, i ^ 0x5555]).expect("interned");
            assert_eq!(store.get(id), &[i, i ^ 0x5555]);
        }
        assert_eq!(store.find(&[10_001, 0]), None);
    }

    #[test]
    fn zero_width_keys_intern_once() {
        let mut store = StateStore::new(0);
        assert_eq!(store.intern(&[]), 0);
        assert_eq!(store.intern(&[]), 0);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn keys_differing_in_one_small_word_spread_over_buckets() {
        // Product keys differ in a few low-valued slots; the finalizer
        // must still spread them across the low (bucket) bits.
        let mut buckets = std::collections::BTreeSet::new();
        for i in 0..64u32 {
            let mut key = [0u32; 40];
            key[17] = i;
            buckets.insert(hash_words(&key) & 63);
        }
        assert!(
            buckets.len() > 32,
            "only {} of 64 buckets used",
            buckets.len()
        );
    }
}
