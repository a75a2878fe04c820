//! Deterministic, fast hashing and slot reduction for simulator tables.
//!
//! The simulator's maps are keyed by line addresses and history positions:
//! plain `u64`s chosen by the trace, never by an adversary. The standard
//! library's SipHash with a per-process random seed buys nothing there and
//! costs tens of nanoseconds per probe, so every such map uses
//! [`FastHashMap`]/[`FastHashSet`]: one folded 64×64→128-bit multiply per
//! word, no per-process seed. Iteration order is then fixed too, though no
//! result may depend on it.
//!
//! [`SlotMap`] reduces a key to a table slot with a mask when the table size
//! is a power of two and with `%` otherwise; both give the same slot.
//!
//! # Example
//!
//! ```
//! use stms_types::hashing::{FastHashMap, SlotMap};
//! use stms_types::LineAddr;
//!
//! let mut map: FastHashMap<LineAddr, u64> = FastHashMap::default();
//! map.insert(LineAddr::new(7), 70);
//! assert_eq!(map.get(&LineAddr::new(7)), Some(&70));
//!
//! assert_eq!(SlotMap::new(64).slot(130), 130 % 64);
//! assert_eq!(SlotMap::new(77).slot(130), 130 % 77);
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd 64-bit multiplier (2^64 / golden ratio).
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiplies `x` by [`MULTIPLIER`] to 128 bits and folds the halves, so
/// every input bit reaches both the low bits (bucket index) and the high
/// bits (control byte) of a `hashbrown` table.
#[inline]
fn folded_multiply(x: u64) -> u64 {
    let wide = u128::from(x) * u128::from(MULTIPLIER);
    (wide as u64) ^ ((wide >> 64) as u64)
}

/// A fixed-seed hasher for integer keys (see the [module docs](self)).
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    hash: u64,
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.hash = folded_multiply(self.hash.rotate_left(23) ^ n);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Builds [`FastHasher`]s; every instance hashes identically.
pub type BuildFastHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` keyed through [`FastHasher`].
pub type FastHashMap<K, V> = HashMap<K, V, BuildFastHasher>;

/// A `HashSet` keyed through [`FastHasher`].
pub type FastHashSet<T> = HashSet<T, BuildFastHasher>;

/// The top `bits` bits of a multiplicative (Fibonacci) hash of `x`: a
/// well-spread index into a table of `1 << bits` slots.
#[inline]
pub fn fibonacci_slot(x: u64, bits: u32) -> usize {
    debug_assert!(bits > 0 && bits < 64);
    (x.wrapping_mul(MULTIPLIER) >> (64 - bits)) as usize
}

/// Reduces a key to a slot of a table with `len` slots: `key % len`,
/// computed with a mask when `len` is a power of two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotMap {
    len: u64,
    /// `len - 1` when `len` is a power of two, `None` otherwise.
    mask: Option<u64>,
}

impl SlotMap {
    /// A reducer for a table of `len` slots.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn new(len: usize) -> Self {
        assert!(len > 0, "a table needs at least one slot");
        let len = len as u64;
        SlotMap {
            len,
            mask: len.is_power_of_two().then_some(len - 1),
        }
    }

    /// Number of slots.
    pub fn slot_count(&self) -> usize {
        self.len as usize
    }

    /// The slot of `key`: `key % len`.
    #[inline]
    pub fn slot(&self, key: u64) -> usize {
        match self.mask {
            Some(mask) => (key & mask) as usize,
            None => (key % self.len) as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LineAddr;
    use proptest::prelude::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        BuildFastHasher::default().hash_one(value)
    }

    #[test]
    fn hashing_is_deterministic_across_builders() {
        let a = hash_of(&LineAddr::new(12_345));
        let b = hash_of(&LineAddr::new(12_345));
        assert_eq!(a, b);
        assert_ne!(a, hash_of(&LineAddr::new(12_346)));
    }

    #[test]
    fn strided_keys_spread_over_low_and_high_bits() {
        let mut low = FastHashSet::default();
        let mut high = FastHashSet::default();
        for i in 0..4096u64 {
            let h = hash_of(&(i << 12));
            low.insert(h & 0xFF);
            high.insert(h >> 57);
        }
        assert_eq!(low.len(), 256, "all low bytes reached");
        assert_eq!(high.len(), 128, "all control bytes reached");
    }

    #[test]
    fn byte_writes_hash_like_words() {
        let mut words = FastHasher::default();
        words.write_u64(u64::from_le_bytes(*b"abcdefgh"));
        let mut bytes = FastHasher::default();
        bytes.write(b"abcdefgh");
        assert_eq!(words.finish(), bytes.finish());
    }

    #[test]
    fn fibonacci_slot_stays_in_range() {
        for x in [0u64, 1, 63, u64::MAX, 1 << 40] {
            assert!(fibonacci_slot(x, 8) < 256);
        }
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn empty_slot_map_panics() {
        let _ = SlotMap::new(0);
    }

    proptest! {
        /// Masked and modulo reduction agree for every size.
        #[test]
        fn prop_slot_is_modulo(key in any::<u64>(), len in 1usize..5000) {
            let map = SlotMap::new(len);
            prop_assert_eq!(map.slot(key), (key % len as u64) as usize);
            prop_assert_eq!(map.slot_count(), len);
        }

        /// The same for power-of-two sizes, which take the mask path.
        #[test]
        fn prop_power_of_two_slot_is_modulo(key in any::<u64>(), shift in 0u32..40) {
            let len = 1usize << shift;
            prop_assert_eq!(SlotMap::new(len).slot(key), (key % len as u64) as usize);
        }
    }
}
