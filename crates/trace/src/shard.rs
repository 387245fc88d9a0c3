//! Set-range shard indices over a [`RecordedStream`](crate::RecordedStream).
//!
//! LLC sets do not interact during non-inclusive replay, so the recorded
//! reference stream can be partitioned by set index and each partition
//! replayed independently — exactly — for any policy whose state is
//! per-set (see `llc_sim::StateScope`). A [`ShardIndex`] is the product of
//! one cheap forward pass over a stream: for each contiguous set range it
//! lists the stream indices of the accesses (and the upgrade-event indices)
//! that fall inside the range.
//!
//! The index stores the global positions *and* a gathered copy of the
//! stream rows that fall in each shard: replaying a shard walks its own
//! contiguous access planes front to back (no strided reads through the
//! full stream) while the position list supplies the *global* stream index
//! as the shard LLC's logical clock, so every timestamp matches the
//! sequential run bit for bit. The gather costs one pass at build time and
//! duplicates the stream once per cached shard count; replays amortize it.
//!
//! Indices are `u32` to halve the footprint (one `u32` per access per
//! cached shard count). Streams with `u32::MAX` or more accesses — far
//! beyond anything the synthetic workloads produce — are not indexable;
//! [`ShardIndex::build`] returns `None` and callers fall back to the
//! sequential path.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::stream::StreamAccess;
use llc_sim::{AccessKind, BlockAddr, CoreId, Pc};

/// A per-stream cache of shard indices, keyed by `(set count, shard
/// count)`. Stream representations that carry their own slot (see
/// [`StreamAccess::shard_slot`]) let sharded replay share one index
/// build per shard count across concurrent policies without any global
/// registry; `llc_sharing::replay` keeps the same map type behind its
/// allocation-identity registry for owned streams.
pub type ShardIndexSlot = Mutex<HashMap<(u64, usize), Arc<ShardIndex>>>;

/// One contiguous set range of a [`ShardIndex`]: the stream positions
/// that touch it plus a gathered, contiguous copy of those accesses.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamShard {
    /// First set of the range.
    pub set_base: u64,
    /// Number of consecutive sets in the range (> 0).
    pub set_len: u64,
    /// Indices into the stream's access vectors, in stream order. These
    /// are the global logical clocks the shard's LLC is driven with.
    pub accesses: Vec<u32>,
    /// Indices into the stream's upgrade list, in stream order.
    pub upgrades: Vec<u32>,
    /// Gathered block of each access in `accesses` (same order).
    pub blocks: Vec<BlockAddr>,
    /// Gathered PC of each access.
    pub pcs: Vec<Pc>,
    /// Gathered issuing core of each access.
    pub cores: Vec<CoreId>,
    /// Gathered read/write kind of each access.
    pub kinds: Vec<AccessKind>,
}

/// Per-set-range access/upgrade index lists over one
/// [`RecordedStream`](crate::RecordedStream),
/// for one (set count, shard count) pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardIndex {
    sets: u64,
    shards: Vec<StreamShard>,
}

impl ShardIndex {
    /// Builds the index for a stream replayed against an LLC with `sets`
    /// sets, split into (at most) `shards` contiguous set ranges.
    ///
    /// The requested shard count is clamped to `[1, sets]`; ranges are as
    /// even as possible (sizes differ by at most one set). Every access and
    /// upgrade lands in exactly one shard, so the concatenation of the
    /// per-shard lists is a permutation of the stream — the property the
    /// deterministic merge of a set-sharded replay relies on.
    ///
    /// Returns `None` if the stream is too large to index with `u32`
    /// positions; callers must then use the sequential path.
    pub fn build<S: StreamAccess>(stream: &S, sets: u64, shards: usize) -> Option<Self> {
        if stream.len() >= u32::MAX as usize || stream.upgrades().len() >= u32::MAX as usize {
            return None;
        }
        let count = (shards.max(1) as u64).min(sets).max(1);
        let part = Partition::new(sets, count);
        let mut out: Vec<StreamShard> = (0..count)
            .map(|s| {
                let (set_base, set_len) = part.range(s);
                // Pre-size to the even share; skewed workloads grow.
                let share = stream.len() / count as usize + 1;
                StreamShard {
                    set_base,
                    set_len,
                    accesses: Vec::with_capacity(share),
                    upgrades: Vec::new(),
                    blocks: Vec::with_capacity(share),
                    pcs: Vec::with_capacity(share),
                    cores: Vec::with_capacity(share),
                    kinds: Vec::with_capacity(share),
                }
            })
            .collect();
        for (i, rec) in stream.accesses().enumerate() {
            let shard = &mut out[part.shard_of(rec.block.set_index(sets)) as usize];
            shard.accesses.push(i as u32);
            shard.blocks.push(rec.block);
            shard.pcs.push(rec.pc);
            shard.cores.push(rec.core);
            shard.kinds.push(rec.kind);
        }
        for (i, u) in stream.upgrades().iter().enumerate() {
            let shard = part.shard_of(u.block.set_index(sets));
            out[shard as usize].upgrades.push(i as u32);
        }
        Some(ShardIndex { sets, shards: out })
    }

    /// Set count the index was built for.
    pub fn sets(&self) -> u64 {
        self.sets
    }

    /// Number of shards (≥ 1, ≤ `sets`).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard index lists, in ascending set order.
    pub fn shards(&self) -> &[StreamShard] {
        &self.shards
    }

    /// Approximate heap footprint in bytes (what a cache should charge).
    pub fn bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                std::mem::size_of::<StreamShard>()
                    + (s.accesses.len() + s.upgrades.len()) * std::mem::size_of::<u32>()
                    + s.blocks.len()
                        * (std::mem::size_of::<BlockAddr>()
                            + std::mem::size_of::<Pc>()
                            + std::mem::size_of::<CoreId>()
                            + std::mem::size_of::<AccessKind>())
            })
            .sum()
    }
}

/// Even partition of `sets` sets into `count` contiguous ranges: the first
/// `sets % count` ranges hold `sets / count + 1` sets, the rest one fewer.
#[derive(Debug, Clone, Copy)]
struct Partition {
    quot: u64,
    rem: u64,
}

impl Partition {
    fn new(sets: u64, count: u64) -> Self {
        debug_assert!(count >= 1 && count <= sets);
        Partition {
            quot: sets / count,
            rem: sets % count,
        }
    }

    /// `(set_base, set_len)` of shard `s`.
    fn range(&self, s: u64) -> (u64, u64) {
        if s < self.rem {
            (s * (self.quot + 1), self.quot + 1)
        } else {
            (
                self.rem * (self.quot + 1) + (s - self.rem) * self.quot,
                self.quot,
            )
        }
    }

    /// The shard holding `set`.
    fn shard_of(&self, set: u64) -> u64 {
        let wide = self.rem * (self.quot + 1);
        if set < wide {
            set / (self.quot + 1)
        } else {
            self.rem + (set - wide) / self.quot
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{RecordedStream, UpgradeEvent};
    use llc_sim::{AccessKind, BlockAddr, CoreId, Pc};

    fn stream(n: usize, sets: u64) -> RecordedStream {
        let mut s = RecordedStream::default();
        for i in 0..n {
            // Deterministic spread over blocks (and therefore sets).
            let block = llc_sim::splitmix64(i as u64) % (sets * 13);
            s.blocks.push(BlockAddr::new(block));
            s.cores.push(CoreId::new(i % 4));
            s.pcs.push(Pc::new(0x400 + i as u64));
            s.kinds.push(AccessKind::Read);
            s.instr_deltas.push(1);
        }
        for at in [0u64, 3, 3, n as u64] {
            s.upgrades.push(UpgradeEvent {
                at,
                block: BlockAddr::new(llc_sim::splitmix64(at ^ 0xabc) % (sets * 13)),
                core: CoreId::new(0),
            });
        }
        s
    }

    #[test]
    fn partition_covers_all_sets_exactly_once() {
        for sets in [1u64, 2, 7, 64, 100] {
            for count in 1..=sets.min(9) {
                let p = Partition::new(sets, count);
                let mut next = 0u64;
                for s in 0..count {
                    let (base, len) = p.range(s);
                    assert_eq!(base, next, "gap before shard {s}");
                    assert!(len > 0);
                    for set in base..base + len {
                        assert_eq!(p.shard_of(set), s, "set {set} misrouted");
                    }
                    next = base + len;
                }
                assert_eq!(next, sets, "partition must cover every set");
            }
        }
    }

    #[test]
    fn index_is_a_partition_of_the_stream() {
        let sets = 16u64;
        let s = stream(500, sets);
        for shards in [1usize, 2, 7, 16, 99] {
            let idx = ShardIndex::build(&s, sets, shards).expect("indexable");
            assert!(idx.shard_count() <= sets as usize);
            let mut seen_access = vec![false; s.len()];
            let mut seen_upgrade = vec![false; s.upgrades.len()];
            for shard in idx.shards() {
                for &i in &shard.accesses {
                    let set = s.blocks[i as usize].set_index(sets);
                    assert!(set >= shard.set_base && set < shard.set_base + shard.set_len);
                    assert!(!seen_access[i as usize], "access {i} in two shards");
                    seen_access[i as usize] = true;
                }
                for &i in &shard.upgrades {
                    let set = s.upgrades[i as usize].block.set_index(sets);
                    assert!(set >= shard.set_base && set < shard.set_base + shard.set_len);
                    assert!(!seen_upgrade[i as usize], "upgrade {i} in two shards");
                    seen_upgrade[i as usize] = true;
                }
                // Stream order within the shard.
                assert!(shard.accesses.windows(2).all(|w| w[0] < w[1]));
                assert!(shard.upgrades.windows(2).all(|w| w[0] < w[1]));
            }
            assert!(seen_access.iter().all(|&b| b), "access dropped");
            assert!(seen_upgrade.iter().all(|&b| b), "upgrade dropped");
        }
    }

    #[test]
    fn single_shard_is_the_identity() {
        let sets = 8u64;
        let s = stream(100, sets);
        let idx = ShardIndex::build(&s, sets, 1).expect("indexable");
        assert_eq!(idx.shard_count(), 1);
        let shard = &idx.shards()[0];
        assert_eq!(shard.set_base, 0);
        assert_eq!(shard.set_len, sets);
        assert_eq!(shard.accesses.len(), s.len());
        assert!(shard
            .accesses
            .iter()
            .enumerate()
            .all(|(i, &v)| v as usize == i));
    }

    #[test]
    fn bytes_counts_the_index_lists() {
        let sets = 8u64;
        let s = stream(64, sets);
        let idx = ShardIndex::build(&s, sets, 4).expect("indexable");
        assert!(idx.bytes() >= (s.len() + s.upgrades.len()) * std::mem::size_of::<u32>());
    }
}
