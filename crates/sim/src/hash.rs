//! A hash map for packed `u64` keys.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-shift hasher for packed `u64` keys (grid cells, node
/// addresses). These maps sit on per-frame hot paths, where SipHash would
/// cost more than the lookup it serves; a single multiply + xor-shift
/// disperses packed keys well enough for simulation layouts. Not
/// DoS-resistant, and it need not be: every key is simulator-generated.
#[derive(Debug, Default, Clone, Copy)]
pub struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        let mut h = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 32;
        self.0 = h;
    }
}

/// A `HashMap` keyed by packed `u64`s through [`KeyHasher`]. Its iteration
/// order is arbitrary, so callers that need a deterministic order must
/// sort.
pub type U64Map<V> = HashMap<u64, V, BuildHasherDefault<KeyHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_round_trips_and_spreads_sequential_keys() {
        let mut m: U64Map<u64> = U64Map::default();
        for k in 0..1_000u64 {
            m.insert(0x1000_0000 + k, k);
        }
        assert_eq!(m.len(), 1_000);
        assert!((0..1_000u64).all(|k| m[&(0x1000_0000 + k)] == k));
        // Sequential keys must not collide in the low bits the table
        // indexes by.
        let low: std::collections::BTreeSet<u64> = (0..256u64)
            .map(|k| {
                let mut h = KeyHasher::default();
                h.write_u64(k);
                h.finish() & 0xFF
            })
            .collect();
        assert!(low.len() > 128, "only {} distinct low bytes", low.len());
    }
}
