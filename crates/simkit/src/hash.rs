//! A fast, deterministic hasher for small integer keys.
//!
//! The simulator's hot maps are keyed by dense numeric ids (`VmId`,
//! `ServerId`). SipHash's DoS resistance buys nothing there and costs
//! real time on every per-event map touch, so the cluster manager keys
//! its VM maps with this splitmix64-style hasher instead. It is
//! deterministic across runs and platforms (no random seeding), so
//! iteration-order-independent simulation results stay reproducible.
//!
//! [`fnv1a`] is the text counterpart: a stable 64-bit fingerprint of a
//! rendered document, for tests that pin exported output by hash.

use std::hash::{BuildHasherDefault, Hasher};

/// A multiplicative hasher for integer-sized keys.
#[derive(Debug, Default, Clone)]
pub struct SeqHasher {
    state: u64,
}

/// `BuildHasher` plug for `HashMap`/`HashSet` type parameters.
pub type SeqHash = BuildHasherDefault<SeqHasher>;

impl Hasher for SeqHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state = (self.state ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.state ^= x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn finish(&self) -> u64 {
        // splitmix64 finalizer: full avalanche even for sequential ids.
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// FNV-1a (64-bit) over the UTF-8 bytes of `text`: stable across
/// platforms and builds, so a test can pin a large rendered document by
/// one number.
pub fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn sequential_keys_spread() {
        // Low bits decide the bucket; sequential ids must not collide in
        // lockstep. A uniform hash throwing 64 keys at 64 buckets hits
        // about 64·(1 − 1/e) ≈ 40 distinct ones; a degenerate hash
        // (identity, or one that drops low bits) lands far below that.
        let mut low_bits = std::collections::HashSet::new();
        for i in 0..64u64 {
            let mut h = SeqHasher::default();
            h.write_u64(i);
            low_bits.insert(h.finish() & 63);
        }
        assert!(
            low_bits.len() > 32,
            "only {} distinct buckets",
            low_bits.len()
        );
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn works_as_map_hasher() {
        let mut m: HashMap<u64, u64, SeqHash> = HashMap::default();
        for i in 0..1000 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&17), Some(&34));
    }
}
