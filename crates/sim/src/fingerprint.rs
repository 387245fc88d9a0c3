//! The one fingerprint scheme every persisted key is built from.
//!
//! A key is a splitmix64 chain: seeded per key kind, with each field
//! folded in by `state = splitmix64(state ^ field)` and strings reduced
//! to a word with FNV-1a first. Both primitives are defined here rather
//! than borrowed from `Hash`/`DefaultHasher`, so a key does not change
//! across Rust releases, platforms or process restarts and is safe to
//! name files with. Distinct key kinds use distinct seeds; field order
//! is part of each key's contract.

use crate::addr::splitmix64;

/// FNV-1a over a byte string: reduces strings and raw inputs to one
/// word for a [`Fold`], and checksums persisted payloads.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A splitmix64 fold chain — the builder behind every fingerprint in
/// the workspace. Each folded word permutes the whole state, so field
/// order matters.
#[derive(Debug, Clone, Copy)]
pub struct Fold(u64);

impl Fold {
    /// Starts a chain from a kind-specific seed.
    pub fn new(seed: u64) -> Fold {
        Fold(seed)
    }

    /// Folds one word into the chain.
    pub fn u64(&mut self, v: u64) -> &mut Fold {
        self.0 = splitmix64(self.0 ^ v);
        self
    }

    /// Folds a string (via FNV-1a) into the chain.
    pub fn str(&mut self, s: &str) -> &mut Fold {
        self.u64(fnv1a64(s.as_bytes()))
    }

    /// The chain's current value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chains_are_order_sensitive() {
        assert_ne!(
            Fold::new(1).u64(2).u64(3).finish(),
            Fold::new(1).u64(3).u64(2).finish()
        );
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(
            Fold::new(7).str("fft").finish(),
            Fold::new(7).u64(fnv1a64(b"fft")).finish()
        );
    }
}
