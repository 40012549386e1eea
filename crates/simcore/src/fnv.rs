//! FNV-1a, the byte-wise hash behind every stable fingerprint in the
//! workspace: RNG substream labels, the DFS replica map and the engine
//! state the model checker deduplicates on. Its output is part of
//! committed results, so it must never change.

/// The FNV-1a 64-bit offset basis: the state of an empty hash.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold `bytes` into the FNV-1a state `h`.
#[inline]
pub fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// Fold the little-endian bytes of `v` into the FNV-1a state `h`.
#[inline]
pub fn fnv1a_u64(h: &mut u64, v: u64) {
    fnv1a(h, &v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_published_vectors() {
        let hash = |s: &str| {
            let mut h = FNV_OFFSET;
            fnv1a(&mut h, s.as_bytes());
            h
        };
        assert_eq!(hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash("foobar"), 0x8594_4171_f739_67e8);
    }
}
