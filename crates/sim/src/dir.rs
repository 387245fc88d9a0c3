//! Open-addressed coherence directory: block address → core bit-mask.
//!
//! The directory is probed on every trace record that reaches the LLC
//! (`dir_set` on fills) and on every store (`invalidate_remote` lookup),
//! so it is the hottest map in the simulator. A general-purpose hash map
//! pays for genericity this table does not need:
//!
//! * Keys are block numbers — already high-entropy in the low bits after
//!   the set-index shift, so a single Fibonacci multiply-shift spreads
//!   them; no hasher state, no byte-stream hashing.
//! * Values are 4-byte core masks; a slot is a bare `(u64, u32)` pair in
//!   two parallel planes, so a probe touches one cache line of keys.
//! * Population is bounded by the number of private-cache lines in the
//!   machine (a few tens of thousands), so the table grows a handful of
//!   times and then never again.
//!
//! Deletion uses backward-shift compaction (no tombstones): probe chains
//! stay minimal no matter how many blocks are evicted and re-fetched,
//! which matters because private caches churn constantly.

/// Sentinel for an empty slot. Block numbers are byte addresses shifted
/// right by the block-offset bits, so `u64::MAX` can never be a real key.
const EMPTY: u64 = u64::MAX;

/// Fibonacci hashing constant (2^64 / φ, forced odd).
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Minimum table capacity (slots); must be a power of two.
const MIN_CAP: usize = 1024;

/// Open-addressed `block → core-mask` table with linear probing and
/// backward-shift deletion. See the module docs for why this beats a
/// general-purpose map on the coherence hot path.
#[derive(Debug, Clone)]
pub struct CoherenceDir {
    /// Block number per slot, `EMPTY` when vacant.
    keys: Vec<u64>,
    /// Core bit-mask per slot; meaningful only where `keys` is occupied.
    masks: Vec<u32>,
    /// Occupied slot count.
    len: usize,
}

impl CoherenceDir {
    /// Creates an empty directory.
    pub fn new() -> Self {
        CoherenceDir {
            keys: vec![EMPTY; MIN_CAP],
            masks: vec![0; MIN_CAP],
            len: 0,
        }
    }

    /// Number of blocks currently tracked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no blocks are tracked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn cap_mask(&self) -> usize {
        self.keys.len() - 1
    }

    /// Home slot of a block in the current table.
    #[inline]
    fn home(&self, block: u64) -> usize {
        // Multiply-shift: the high bits of the product are the best-mixed,
        // so take exactly log2(capacity) of them.
        let shift = 64 - self.keys.len().trailing_zeros();
        (block.wrapping_mul(HASH_MUL) >> shift) as usize
    }

    /// Slot holding `block`, if present.
    #[inline]
    fn find(&self, block: u64) -> Option<usize> {
        let mask = self.cap_mask();
        let mut i = self.home(block);
        loop {
            let k = self.keys[i];
            if k == block {
                return Some(i);
            }
            if k == EMPTY {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// The core mask for `block`, if tracked.
    #[inline]
    pub fn get(&self, block: u64) -> Option<u32> {
        self.find(block).map(|i| self.masks[i])
    }

    /// Sets `bit` in `block`'s mask, inserting the entry if absent.
    #[inline]
    pub fn set_bit(&mut self, block: u64, bit: u32) {
        debug_assert_ne!(block, EMPTY, "sentinel cannot be a block number");
        let mask = self.cap_mask();
        let mut i = self.home(block);
        loop {
            let k = self.keys[i];
            if k == block {
                self.masks[i] |= bit;
                return;
            }
            if k == EMPTY {
                self.keys[i] = block;
                self.masks[i] = bit;
                self.len += 1;
                // Grow at 75% load to keep linear-probe chains short.
                if self.len * 4 >= self.keys.len() * 3 {
                    self.grow();
                }
                return;
            }
            i = (i + 1) & mask;
        }
    }

    /// Clears `bit` in `block`'s mask, removing the entry once the mask
    /// drops to zero. A block not present is a no-op.
    #[inline]
    pub fn clear_bit(&mut self, block: u64, bit: u32) {
        if let Some(i) = self.find(block) {
            self.masks[i] &= !bit;
            if self.masks[i] == 0 {
                self.remove_at(i);
            }
        }
    }

    /// Intersects `block`'s mask with `keep`, removing the entry if the
    /// result is zero. One probe for the whole read-modify-write — used by
    /// the store invalidation path, which has already fetched the old mask
    /// via [`CoherenceDir::get`].
    #[inline]
    pub fn retain_only(&mut self, block: u64, keep: u32) {
        if let Some(i) = self.find(block) {
            self.masks[i] &= keep;
            if self.masks[i] == 0 {
                self.remove_at(i);
            }
        }
    }

    /// Removes the entry for `block` entirely, returning its mask.
    #[inline]
    pub fn remove(&mut self, block: u64) -> Option<u32> {
        let i = self.find(block)?;
        let mask = self.masks[i];
        self.remove_at(i);
        Some(mask)
    }

    /// Empties slot `i`, shifting the tail of its probe chain backwards so
    /// that no tombstone is left behind (every remaining key stays
    /// reachable from its home slot).
    fn remove_at(&mut self, mut i: usize) {
        let cap = self.cap_mask();
        let mut j = i;
        loop {
            j = (j + 1) & cap;
            let k = self.keys[j];
            if k == EMPTY {
                break;
            }
            // `k` may move into the hole at `i` only if its home slot does
            // not lie strictly between `i` (exclusive) and `j` (inclusive)
            // in circular order — otherwise the move would lift it before
            // its home and break the probe chain.
            let home = self.home(k);
            let hole_dist = j.wrapping_sub(i) & cap;
            let home_dist = j.wrapping_sub(home) & cap;
            if home_dist >= hole_dist {
                self.keys[i] = k;
                self.masks[i] = self.masks[j];
                i = j;
            }
        }
        self.keys[i] = EMPTY;
        self.len -= 1;
    }

    /// Doubles the table, re-homing every entry.
    #[cold]
    fn grow(&mut self) {
        let new_cap = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; new_cap]);
        let old_masks = std::mem::replace(&mut self.masks, vec![0; new_cap]);
        let cap = self.cap_mask();
        for (k, m) in old_keys.into_iter().zip(old_masks) {
            if k == EMPTY {
                continue;
            }
            let mut i = self.home(k);
            while self.keys[i] != EMPTY {
                i = (i + 1) & cap;
            }
            self.keys[i] = k;
            self.masks[i] = m;
        }
    }
}

impl Default for CoherenceDir {
    fn default() -> Self {
        CoherenceDir::new()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;

    #[test]
    fn set_get_clear_roundtrip() {
        let mut dir = CoherenceDir::new();
        dir.set_bit(42, 0b01);
        dir.set_bit(42, 0b10);
        assert_eq!(dir.get(42), Some(0b11));
        dir.clear_bit(42, 0b01);
        assert_eq!(dir.get(42), Some(0b10));
        dir.clear_bit(42, 0b10);
        assert_eq!(dir.get(42), None);
        assert!(dir.is_empty());
    }

    #[test]
    fn clear_missing_block_is_noop() {
        let mut dir = CoherenceDir::new();
        dir.clear_bit(7, 0b1);
        dir.retain_only(7, 0b1);
        assert!(dir.is_empty());
        assert_eq!(dir.remove(7), None);
    }

    #[test]
    fn retain_only_intersects_and_removes() {
        let mut dir = CoherenceDir::new();
        dir.set_bit(9, 0b111);
        dir.retain_only(9, 0b010);
        assert_eq!(dir.get(9), Some(0b010));
        dir.retain_only(9, 0b100);
        assert_eq!(dir.get(9), None);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut dir = CoherenceDir::new();
        let n = (MIN_CAP * 4) as u64;
        for b in 0..n {
            dir.set_bit(b, 1 << (b % 4));
        }
        assert_eq!(dir.len(), n as usize);
        for b in 0..n {
            assert_eq!(dir.get(b), Some(1 << (b % 4)), "block {b}");
        }
    }

    #[test]
    fn backward_shift_keeps_chains_reachable() {
        // Force long probe chains by inserting many keys, then delete in
        // an interleaved order and verify every survivor stays reachable.
        let mut dir = CoherenceDir::new();
        let keys: Vec<u64> = (0..3000u64).map(|i| i * 0x10001 + 3).collect();
        for &k in &keys {
            dir.set_bit(k, 1);
        }
        for (idx, &k) in keys.iter().enumerate() {
            if idx % 3 == 0 {
                assert_eq!(dir.remove(k), Some(1));
            }
        }
        for (idx, &k) in keys.iter().enumerate() {
            let want = if idx % 3 == 0 { None } else { Some(1) };
            assert_eq!(dir.get(k), want, "key {k}");
        }
    }

    #[test]
    fn matches_reference_map_under_random_ops() {
        // Deterministic xorshift stimulus; compare against HashMap oracle.
        let mut dir = CoherenceDir::new();
        let mut oracle: HashMap<u64, u32> = HashMap::new();
        let mut x = 0x1234_5678_9abc_def0u64;
        for _ in 0..200_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let block = (x >> 8) % 5000;
            let bit = 1u32 << (x % 8);
            match x % 5 {
                0..=2 => {
                    dir.set_bit(block, bit);
                    *oracle.entry(block).or_insert(0) |= bit;
                }
                3 => {
                    dir.clear_bit(block, bit);
                    if let Some(m) = oracle.get_mut(&block) {
                        *m &= !bit;
                        if *m == 0 {
                            oracle.remove(&block);
                        }
                    }
                }
                _ => {
                    dir.retain_only(block, bit);
                    if let Some(m) = oracle.get_mut(&block) {
                        *m &= bit;
                        if *m == 0 {
                            oracle.remove(&block);
                        }
                    }
                }
            }
        }
        assert_eq!(dir.len(), oracle.len());
        for (&k, &m) in &oracle {
            assert_eq!(dir.get(k), Some(m), "block {k}");
        }
    }
}
