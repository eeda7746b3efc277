//! A std-only multiplicative hasher for the simulator's integer-keyed
//! timing tables (cache lines, node addresses, warp tokens).
//!
//! The default SipHash resists hash flooding, which a simulator reading its
//! own addresses does not need, and costs several times a multiply per
//! lookup on the per-access path. The hasher has no random seed, but no
//! result may depend on a map's iteration order: snapshot export sorts.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed through [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// Odd 64-bit multiplier (the golden-ratio constant).
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// Multiply-and-fold hasher for integer keys.
#[derive(Debug, Clone, Default)]
pub struct FastHasher(u64);

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // The product's low bits see only the key's low bits, and node
        // addresses are 64-byte aligned: fold the high half down so the
        // table's bucket index depends on every key bit.
        self.0 ^ (self.0 >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(K);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn aligned_addresses_spread_over_low_bits() {
        // 1024 keys 64 bytes apart must not share a 10-bit bucket index
        // more than a few times (a bare multiply would put all of them in
        // 16 buckets).
        let build = BuildHasherDefault::<FastHasher>::default();
        let mut buckets = [0u32; 1024];
        for i in 0..1024u64 {
            buckets[(build.hash_one(0x1000 + i * 64) & 1023) as usize] += 1;
        }
        assert!(buckets.iter().all(|&n| n <= 8), "{buckets:?}");
    }

    #[test]
    fn map_round_trips() {
        let mut m: FastMap<u64, u64> = FastMap::default();
        for i in 0..10_000u64 {
            m.insert(i * 128, i);
        }
        assert!((0..10_000u64).all(|i| m.get(&(i * 128)) == Some(&i)));
    }
}
